"""Exception types shared across the package.

The split matters for the command line front end, which maps each class
to a distinct exit code: invalid input (2), failed internal exact-identity
check (3).  Oracle mismatches are reported by the ``oracle`` subcommand
itself (exit code 4) and carry no dedicated exception.
"""

__all__ = ["InputError", "HypothesisError", "InternalCheckError"]


class InputError(ValueError):
    """Raised when caller-supplied data violates a documented precondition."""


class HypothesisError(InputError):
    """Raised when an operation is invoked outside its theorem hypotheses."""


class InternalCheckError(RuntimeError):
    """An exact identity that must hold by construction failed.

    Seeing this means a formula was transcribed wrongly, not that the
    input was bad; it is never raised on valid code paths.  The message
    says what failed; the command line front end adds the instance it
    was running on.
    """
