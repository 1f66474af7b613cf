"""Exception hierarchy with machine-readable error codes.

Every contract violation raised by this package carries a short ``code``
string that the CLI emits verbatim in its JSON error reports.
"""


class SpeclocError(Exception):
    code = "error"


class NotSquareError(SpeclocError):
    code = "not_square"


class NotSelfAdjointError(SpeclocError):
    code = "not_self_adjoint"


class NonFiniteError(SpeclocError):
    code = "non_finite"


class DimensionMismatchError(SpeclocError):
    code = "dimension_mismatch"


class SingularConjugatorError(SpeclocError):
    code = "singular_conjugator"


class ModeMismatchError(SpeclocError):
    code = "mode_mismatch"


class NotOddError(SpeclocError):
    code = "not_odd"


class LevelTooSmallError(SpeclocError):
    code = "level_too_small"


class ShapeMismatchError(SpeclocError):
    code = "shape_mismatch"


class NotInvertibleError(SpeclocError):
    code = "not_invertible"


class NoGapFoundError(SpeclocError):
    code = "no_gap_found"


class WindingTooLargeError(SpeclocError):
    code = "winding_too_large"


class BadDeltaError(SpeclocError):
    code = "bad_delta"


class SingularLocalizerError(SpeclocError):
    code = "singular_localizer"


class NotDivisibleBy4Error(SpeclocError):
    code = "not_divisible_by_4"


class NotGappedError(SpeclocError):
    code = "not_gapped"
