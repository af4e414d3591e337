"""Exception hierarchy shared across the package."""


class MatsyncError(Exception):
    """Base class for all matsync errors."""


class DimensionMismatch(MatsyncError):
    pass


class NotConnected(MatsyncError):
    pass


class NotSymmetric(MatsyncError):
    pass


class NotNeutrallyStable(MatsyncError):
    pass


class NotDetectable(MatsyncError):
    """A required pair (C_ij, A) failed the detectability test."""

    def __init__(self, i, j):
        super().__init__(f"pair (C_{i + 1}{j + 1}, A) is not detectable")
        self.edge = (i, j)


class NotSPD(MatsyncError):
    pass


class SingularP(MatsyncError):
    pass


class Infeasible(MatsyncError):
    """Common-P search exhausted its budget; carries the least-violating certificate."""

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


class SplitIllConditioned(MatsyncError):
    pass


class Diverged(MatsyncError):
    """State norm exceeded the divergence cap; carries the truncated trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class NonPositiveParameter(MatsyncError):
    pass


class UnknownName(MatsyncError):
    pass


class SpecParseError(MatsyncError):
    """Malformed spec/gains document; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{message}")
        self.line = line
