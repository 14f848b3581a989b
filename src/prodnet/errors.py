"""Exception hierarchy shared by all prodnet modules.

The CLI maps these onto exit codes: parameter/validation problems exit
with 2, violated numeric preconditions with 3, and failed iterative
solves with 4.  `check_int` and `check_real` are the one place where an
argument's domain is checked: every public entry point runs its
arguments through them once, so NaN, bools and non-numbers end in a
ParameterError wherever they are passed.  `check_count` is `check_int`
for a count that numpy holds or draws as an int64, and `allocate` turns
an array that does not fit in memory into a SizeError.  `check_vector` is
the one place where a per-product vector (a protection set, supplier
caps, spontaneous-failure terms) becomes an array of one entry per
product; each caller then checks the entries by its own rule.  Network
ids and tiers follow `check_int`'s rule (`is_int`), refused with a
ValidationError.  Every message that quotes a caller's value quotes it
through `shown`, so an integer too long to print is refused like any
other value.
"""

import math
import numbers
import sys

import numpy as np

INT64_MAX = 2**63 - 1  # the largest count that numpy's int64 arrays and draws hold


class ProdnetError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ProdnetError, ValueError):
    """An argument lies outside its admissible domain."""


class SizeError(ParameterError):
    """A requested structure would exceed an explicit size limit."""


class ValidationError(ProdnetError, ValueError):
    """A network or file violates a structural invariant."""


class CyclicGraphError(ValidationError):
    """An operation requiring acyclicity was handed a cyclic graph.

    Carries ``edge``: one edge (j, i) that lies on a cycle.
    """

    def __init__(self, message: str, edge=None):
        super().__init__(message)
        self.edge = edge


class FormatError(ValidationError):
    """An input file does not conform to its declared format."""


class PreconditionError(ProdnetError, ValueError):
    """A numeric precondition of a theorem-backed operation is violated."""


class UnsupportedRegimeError(PreconditionError):
    """Parameters fall in a regime the underlying result does not cover."""


class ConvergenceError(ProdnetError, RuntimeError):
    """An iterative solve did not converge within its iteration budget.

    Carries ``residual``: the last observed max-norm change.
    """

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


def check_int(value, name: str, minimum: int = 1) -> int:
    """`value` as an int, refused unless it is an integer (`is_int`) >= minimum (0 or 1)."""
    if not is_int(value) or value < minimum:
        kind = "nonnegative" if minimum == 0 else "positive"
        raise ParameterError(f"{name} must be a {kind} integer, got {shown(value)}")
    return int(value)


def check_count(value, name: str, minimum: int = 1) -> int:
    """`check_int`, also refusing a value above INT64_MAX."""
    value = check_int(value, name, minimum)
    if value > INT64_MAX:
        raise ParameterError(f"{name} must be at most {INT64_MAX}, got {shown(value)}")
    return value


def allocate(request: str, make, *args, **kwargs):
    """make(*args, **kwargs), a numpy allocation, with its MemoryError raised as a SizeError.

    request names what is allocated, such as "the failure counts of 5
    trials"; the message adds numpy's own, which gives the bytes and shape.
    """
    try:
        return make(*args, **kwargs)
    except MemoryError as exc:
        raise SizeError(f"out of memory for {request}: {exc}") from exc


def is_int(value) -> bool:
    """Python and numpy integers qualify; bools, Python's or numpy's, do not, though Python counts its own."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_real(value, name: str, interval: str = "[0, 1]") -> float:
    """`value` as a float, refused unless it is a real number in `interval`.

    interval is written as the message shows it, such as "(0, 1]" or
    "[0, inf)": a bracket closes an end and a parenthesis opens it.  NaN
    lies in no interval, bools are not real numbers, and a rational beyond
    float range has no float to return.
    """
    lo, hi = map(float, interval[1:-1].split(","))
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (lo <= value if interval[0] == "[" else lo < value)
        or not (value <= hi if interval[-1] == "]" else value < hi)
        or isinstance(value, numbers.Rational) and abs(value) > sys.float_info.max
    ):
        raise ParameterError(f"{name} must lie in {interval}, got {shown(value)}")
    return float(value)


def check_vector(values, name: str, size: int) -> np.ndarray:
    """`values` as an array of shape (size,), refused when it is ragged or of another shape.

    The entries are left for the caller to check.  An array comes back as
    it is, uncopied, and so does a sequence that numpy reads as bools.  Any
    other sequence comes back as an object array of its own entries,
    because numpy's reading can recast them before a check sees them:
    [True, 0.5] reads as [1.0, 0.5], and [0, "a"] as two strings.
    """
    try:
        array = np.asarray(values)
    except ValueError as exc:  # a ragged nesting, such as [[1], [0, 1], 0]
        raise ParameterError(
            f"{name} must have one entry per product ({size}), got a ragged {type(values).__name__}"
        ) from exc
    if array.shape != (size,):
        raise ParameterError(f"{name} must have one entry per product ({size}), got shape {array.shape}")
    if isinstance(values, np.ndarray) or array.dtype == bool:
        return array
    return np.asarray(values, dtype=object)


def shown(value) -> str:
    """repr(value) for a message; an int too long to print shows its sign and about how many digits it has."""
    try:
        return repr(value)
    except ValueError:  # the interpreter's limit on printing int digits, met by value or inside it
        if isinstance(value, int):
            digits = int(abs(value).bit_length() * math.log10(2)) + 1
            return f"{'-' if value < 0 else ''}<an integer of about {digits} digits>"
        return f"<a {type(value).__name__} holding an integer too long to print>"
