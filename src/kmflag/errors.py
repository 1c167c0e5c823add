"""Exception hierarchy; every error carries a stable machine-readable code."""


class ToolkitError(Exception):
    code = "Error"


class NotGCM(ToolkitError):
    code = "NotGCM"


class NotSymmetrizable(ToolkitError):
    code = "NotSymmetrizable"


class HeightBoundExceeded(ToolkitError):
    code = "HeightBoundExceeded"


class NotRealRoot(ToolkitError):
    code = "NotRealRoot"


class SizeLimitExceeded(ToolkitError):
    code = "SizeLimitExceeded"


class NotInIdeal(ToolkitError):
    code = "NotInIdeal"


class IntervalNotContained(ToolkitError):
    code = "IntervalNotContained"


class DegreeCapExceeded(ToolkitError):
    code = "DegreeCapExceeded"


class DegreeMismatch(ToolkitError):
    code = "DegreeMismatch"


class CapBoundaryGenerator(ToolkitError):
    code = "CapBoundaryGenerator"


class BaseNotVertex(ToolkitError):
    code = "BaseNotVertex"


class UnsupportedKind(ToolkitError):
    code = "UnsupportedKind"


class PredicateViolation(ToolkitError):
    code = "PredicateViolation"


class NegativeCoefficient(ToolkitError):
    code = "NegativeCoefficient"


class CrossCheckFailed(ToolkitError):
    code = "CrossCheckFailed"


#: errors that signal a resource guard rather than bad input or a failed check
RESOURCE_GUARD_ERRORS = (SizeLimitExceeded, CapBoundaryGenerator, DegreeCapExceeded)
