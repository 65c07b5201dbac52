"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI (a negative verdict, exit 1, is a return
value, not an exception):
  InputError, ConfigurationError,
  NonRepresentablePhase     -> 2  (invalid or unwritable files, and input
                                   the exact model cannot hold)
  PreconditionError,
  NotExactCube              -> 1  (refused: a mathematical precondition fails)
  any other SympconnError,
  InternalInconsistency     -> 3  (an identity that must hold was violated;
                                   indicates a bug, never a data condition)
"""


class SympconnError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SympconnError):
    """Incompatible objects combined (cap mismatch, dim mismatch, ...)."""


class PreconditionError(SympconnError):
    """An operation was called on input violating its documented precondition."""


class InputError(SympconnError):
    """Malformed serialized input (parse or validation failure)."""


class NotExactCube(SympconnError):
    """A symmetric 3-tensor is not of the form grad^3(U) + constant.

    Carries the offending mode and component index.
    """

    def __init__(self, mode, idx, message=None):
        self.mode = tuple(mode)
        self.idx = tuple(idx)
        super().__init__(
            message
            or f"no exact potential: inconsistent mode {self.mode} at component {self.idx}"
        )


class NonRepresentablePhase(SympconnError):
    """A translation would require phases outside the Gaussian rationals."""


class InternalInconsistency(SympconnError):
    """A theorem-level assertion failed; this signals an implementation bug."""
