"""Shared exception types."""


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


class ConsistencyError(RuntimeError):
    """The family data contradict themselves.

    Raised only by the push-forward assembly, when the over-determined family
    system has no solution or more than one.  Every other comparison of two
    routes is a ``verify`` check.  Reaching this exception means an
    implementation bug, never bad user input.
    """
