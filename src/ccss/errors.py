"""Exception and soft-error types shared across the toolkit."""


class CcssError(Exception):
    """Base class for all toolkit errors."""


class UnknownAgent(CcssError):
    """An agent identifier has no defining equation."""


class ArityMismatch(CcssError):
    """An agent identifier is used with the wrong number of parameters."""


class UnguardedRecursion(CcssError):
    """Unfolding a defining equation never reached an action prefix."""


class ParseError(CcssError):
    """Syntax error in a specification file, with position info."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ScopeError(CcssError):
    """Reference to an unknown range or index variable."""


class DynamicParallelism(CcssError):
    """A role's component is missing from a state's parallel structure
    (an emission above it was dropped, say).  No cycle changes a state's
    structure, so justness never raises it."""


class ParameterOutOfRange(CcssError):
    """A protocol generator was called with unsupported parameters."""

