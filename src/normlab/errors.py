"""Exception hierarchy shared by all normlab modules."""


class NormlabError(Exception):
    """Base class for all normlab errors."""


class InvalidInput(NormlabError, ValueError):
    """The caller's input is outside what the operation accepts; the CLI
    exits 2 on these and 3 on every other NormlabError."""


class NonUnimodular(NormlabError):
    """Input matrix is not in SL(2,R) within tolerance."""


class UnknownChart(InvalidInput):
    """Unrecognized coordinate chart name."""


class ParityMismatch(InvalidInput):
    """K-type weight parity does not match the representation parity."""


class PoleAtSample(NormlabError):
    """Group action evaluated exactly at the pole a - c*x = 0."""


class NotIntegrable(NormlabError):
    """Integrand decays too slowly for the requested transform."""


class AccuracyNotReached(NormlabError):
    """Quadrature failed to meet the requested tolerance.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ZeroFrequency(InvalidInput):
    """Frequency n = 0 requested where the constant term is excluded."""


class NonIntegrableExponent(InvalidInput):
    """Re(s) <= -1 makes |sin theta|^s non-integrable."""


class PoleParameter(InvalidInput):
    """Parameter sits on a pole of the Gamma factors (e.g. u = 0)."""


class OutOfRange(InvalidInput):
    """Parameter outside the admissible range of the operation."""


class DivergentIntegral(NormlabError):
    """A norm integral diverges; message identifies the failing end."""


class BadParameterRange(InvalidInput):
    """Multiplier-map parameters outside the case-appropriate range."""


class TailNotControlled(NormlabError):
    """Declared coefficient growth cannot beat the measured transform decay."""


class HypothesisUnverifiable(NormlabError):
    """Coefficient data too short to verify the hypothesis of a bound."""


class MissingSymmetry(InvalidInput):
    """Operation requires Weyl symmetry the profile lacks (``f.weyl``)."""


class EpsilonBarrier(InvalidInput):
    """epsilon = 0 requested; the bounds degenerate at the barrier."""


class UnboundedOmega(InvalidInput):
    """Omega domain is not bounded."""


class ConstantTermPresent(InvalidInput):
    """Coefficient model has b_0 != 0 where cuspidal data is required."""


class RangeTooLarge(InvalidInput):
    """Coefficient generation range exceeds the supported maximum."""


class ConfigInvalid(InvalidInput):
    """CLI/run configuration failed validation."""
