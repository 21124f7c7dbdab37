"""Exception types shared across the package.

The split matters for the command line front end, which maps each class
to a distinct exit code: invalid input (2), failed internal exact-identity
check (3).  Oracle mismatches are reported by the ``oracle`` subcommand
itself (exit code 4) and carry no dedicated exception.  ``shown`` keeps
the messages of both classes to one short line, whatever the numbers.
"""

from decimal import Decimal
from fractions import Fraction
from operator import index

__all__ = ["InputError", "HypothesisError", "InternalCheckError", "shown", "integer"]

_SHOWN = 60  # the longest input a message repeats whole


def shown(value: object) -> str:
    """A value as a message repeats it: whole when short, else its type and size."""
    if type(value) is Fraction:  # as "p/q", or "p" when whole
        p, q = value.as_integer_ratio()
        return shown(p) if q == 1 else f"{shown(p)}/{shown(q)}"
    if type(value) is int:  # sized with no decimal text: a sum can pass the output limit
        digits = Decimal(value).adjusted() + 1
        return repr(value) if digits <= _SHOWN else f"an int of {digits} digits"
    text = repr(value)
    return text if len(text) <= _SHOWN else f"a {type(value).__name__} of length {len(value)}"


class InputError(ValueError):
    """Raised when caller-supplied data violates a documented precondition."""


def integer(value: object, field: str) -> int:
    """``value`` as an int; ``InputError`` naming ``field`` for a bool, float, Fraction and the like."""
    if type(value) is not bool:  # operator.index takes True as 1
        try:
            return index(value)
        except TypeError:
            pass
    raise InputError(f"{field}: expected an integer, got {shown(value)} ({type(value).__name__})")


class HypothesisError(InputError):
    """Raised when an operation is invoked outside its theorem hypotheses."""


class InternalCheckError(RuntimeError):
    """An exact identity that must hold by construction failed.

    Seeing this means a formula was transcribed wrongly, not that the
    input was bad; it is never raised on valid code paths.  The message
    says what failed; the command line front end adds the instance it
    was running on.
    """
