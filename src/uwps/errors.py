"""Error taxonomy for the positioning pipeline.

Every failure mode callers are expected to handle has its own class so the
CLI can report the exact name (the class name is the diagnostic contract).
"""


class PositioningError(Exception):
    """Base class for all pipeline errors."""


# -- geo ---------------------------------------------------------------

class ZeroVector(PositioningError):
    """ECEF vector of zero length has no geodetic image."""


# -- multilateration ---------------------------------------------------

class DegenerateBaseline(PositioningError):
    """Two buoys (nearly) coincide; baseline too short to be usable."""


class UnrealizableTDOA(PositioningError):
    """A pseudorange difference exceeds its baseline length."""


class NoRealSolution(PositioningError):
    """The closed-form discriminant is negative: the hyperboloid
    intersection lines do not meet in real space."""


class DegenerateGeometry(PositioningError):
    """Baseline directions are collinear; the closed form cannot
    determine a direction."""


class SingularDenominator(PositioningError):
    """Every range denominator vanishes; receiver direction is
    underdetermined (symmetric-axis degeneracy)."""


class InconsistentRanges(PositioningError):
    """Range estimates from independent baselines disagree beyond the
    configured tolerance."""


class NoUnderwaterSolution(PositioningError):
    """Neither candidate is a physical underwater position."""


class NonConvergence(PositioningError):
    """Iterative solver exhausted its iteration budget."""


class SingularJacobian(PositioningError):
    """Normal equations are rank-deficient and cannot be repaired; the
    hyperboloids' intersection provides no descent direction."""


# -- protocol ----------------------------------------------------------

class ChecksumMismatch(PositioningError):
    """Sentence checksum does not match its payload."""


class MalformedSentence(PositioningError):
    """Sentence structure is broken (delimiters, field count, syntax)."""


class FieldRange(PositioningError):
    """A decoded field value is outside its legal range."""


class BudgetExceeded(PositioningError):
    """Message duration exceeds the fixed 1 s transmission-time cap."""


# -- channel -----------------------------------------------------------

class NoFix(PositioningError):
    """Fewer than four buoys in acoustic range; no position fix."""


class IncompleteFrame(PositioningError):
    """A frame's reception events do not form a usable observation set."""
