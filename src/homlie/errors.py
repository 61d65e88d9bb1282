"""Exception types shared across the library, and the kind check that raises one."""


class UsageError(ValueError):
    """A caller violated an operation's calling contract (bad shapes, bad kinds)."""


class PreconditionError(ValueError):
    """Input objects fail a documented precondition.

    When the failure was diagnosed by a verifier, the offending report is
    attached as ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ContractError(RuntimeError):
    """An internal guarantee failed.  This signals a bug, not bad input."""


def _require_kind(s, kinds, action: str):
    """UsageError unless s is one of `kinds`: the refusal of a wrong-type
    input before any of its fields is read."""
    if not isinstance(s, kinds):
        raise UsageError(f"cannot {action} objects of type {type(s).__name__}")
