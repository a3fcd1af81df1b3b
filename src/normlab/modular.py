"""An exactly automorphic test profile built from the discriminant form.

F(g) = y^6 |Delta(z)| at z = g^{-1} . i is genuinely invariant under the
full integer lattice acting on the right (weight-12 modularity of Delta
cancels the y^6 factor), so it is exactly t-periodic with period 1 and
exactly symmetric under the rotation by the Weyl element -- unlike model
Whittaker functions, which are not.  In the K a n_t coordinates,
z = -t + i a^{-2} independently of k.
"""

from __future__ import annotations

import numpy as np

from .coeffs import ramanujan_tau_table
from .group import K_MASS
from .quadrature import TWO_PI, gauss_rule, split_panels
from .siegel import FM_CHUNK


def reduce_to_fundamental(x, y):
    """Reduce z = x + iy into the standard fundamental domain
    (|x| <= 1/2, |z| >= 1) by integer shifts and inversions, at most 200
    rounds."""
    x = np.array(x, dtype=float, copy=True)
    y = np.array(y, dtype=float, copy=True)
    for _ in range(200):
        x -= np.round(x)
        r2 = x * x + y * y
        inside = r2 >= 1.0 - 1e-15
        if np.all(inside):
            break
        x = np.where(inside, x, -x / r2)
        y = np.where(inside, y, y / r2)
    return x, y


def delta_profile(x, y):
    """y^6 |Delta(x+iy)| evaluated through fundamental-domain reduction.

    y^6 |Delta| is invariant, so reducing first makes the q-expansion
    converge rapidly (|q| <= e^{-pi sqrt(3)} after reduction): 40 terms
    are kept.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    xr, yr = reduce_to_fundamental(x, y)
    tau_tab = ramanujan_tau_table(40)
    q = np.exp(TWO_PI * (1j * xr - yr))
    acc = np.zeros(xr.shape, dtype=complex)
    # Horner in q, highest coefficient first; Delta = sum tau(n) q^n
    for n in range(40, 0, -1):
        acc = (acc + float(tau_tab[n])) * q
    return yr ** 6 * np.abs(acc)


class CuspProfile:
    """Protocol object for the region-norm module: K-invariant, exactly
    periodic (period 1) and exactly Weyl-symmetric."""

    period = 1
    harmonics = np.inf  # about a^2 oscillations per period, unbounded
    weyl = True

    def value(self, theta, a, t):
        """|F| at k_theta a n_t; z = g^{-1} . i = -t + i a^{-2}."""
        a = np.asarray(a, dtype=float)
        t = np.asarray(t, dtype=float)
        y = a ** (-2.0)
        return delta_profile(-t + 0.0 * y, y + 0.0 * t)

    def ksq(self, avals, ts, tol=None):
        avals = np.atleast_1d(np.asarray(avals, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), avals.shape)
        return K_MASS * np.abs(self.value(0.0, avals, ts)) ** 2

    def cell_integral(self, avals, t_lo, t_hi, tol=None, th=None):
        r"""\int_K \int_{t_lo}^{t_hi} |F(k a n_t)|^2 dt dk over ``avals``;
        t_lo/t_hi broadcast against it and may stack windows in leading
        axes.  The profile has about a^2 oscillations per unit t, so a
        window gets ceil(a^2) 16-point GL panels per unit t, evaluated
        FM_CHUNK points at a time."""
        avals = np.atleast_1d(np.asarray(avals, dtype=float))
        t_lo, t_hi, a = np.broadcast_arrays(np.asarray(t_lo, dtype=float),
                                            np.asarray(t_hi, dtype=float),
                                            avals)
        lo, hi, a = t_lo.ravel(), t_hi.ravel(), a.ravel()
        n = np.maximum(np.ceil(np.ceil(a ** 2) * np.abs(hi - lo)), 1)
        p_lo, p_hi, owner = split_panels(lo, hi, n.astype(int))
        out = np.zeros(n.size)
        for c in range(0, len(owner), FM_CHUNK // 16):
            sel = slice(c, c + FM_CHUNK // 16)
            t, w = gauss_rule(p_lo[sel], p_hi[sel])
            o16 = np.repeat(owner[sel], 16)
            out += np.bincount(o16, w * self.value(0.0, a[o16], t) ** 2,
                               minlength=n.size)
        kmass = K_MASS if th is None else th[1] - th[0]
        return kmass * out.reshape(t_lo.shape)
