"""Exception types and the input checks shared across the package.

Every check takes a number or an ndarray.  A number is checked with the
standard library alone, so that scalar work never imports numpy; only
an ndarray, which exists only once numpy is loaded, takes numpy's
elementwise route (see :func:`array_module`).
"""

import contextlib
import functools
import math
import sys


class ParameterError(ValueError):
    """A physical parameter is outside its valid domain.

    Raised for inputs that are syntactically fine but physically
    meaningless (negative radius, zero bandwidth, epsilon_r < 1, ...), and
    for inputs whose results leave the float range.  The CLI maps this to
    exit code 1; genuine usage errors exit 2.  ``index`` is the flat
    position of the first failing element when the input was an array.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def array_module(*values):
    """numpy if any of ``values`` is an ndarray, else None.

    If numpy is not loaded no value can be an ndarray, so this never
    imports it; ints and numpy scalars count as numbers.
    """
    np = sys.modules.get("numpy")
    return np if np and any(isinstance(value, np.ndarray) for value in values) else None


def isfinite(x):
    """``math.isfinite`` of a number, numpy's elementwise test of an ndarray."""
    return (array_module(x) or math).isfinite(x)


def anywhere(condition) -> bool:
    """Whether a bool, or any element of a bool ndarray, is true."""
    return bool(condition if array_module(condition) is None else condition.any())


def require(ok, message: str, value) -> None:
    """Raise ``ParameterError("<message>, got <value>")`` unless all of ``ok``.

    ``ok`` and ``value`` are a bool and a number, or arrays that broadcast
    together; for arrays the error names the first failing element.
    """
    np = array_module(ok)
    if ok if np is None else np.all(ok):
        return
    index = None
    if np is not None and np.ndim(ok):
        index = int(np.argmin(ok))
        value = np.broadcast_to(value, np.shape(ok)).flat[index].item()
    raise ParameterError(f"{message}, got {value!r}", index)


def require_positive(value, name: str) -> None:
    require((value > 0.0) & isfinite(value), f"{name} must be > 0 and finite", value)


def require_nonnegative(value, name: str) -> None:
    require((value >= 0.0) & isfinite(value), f"{name} must be >= 0 and finite", value)


def require_dielectric(epsilon_r) -> None:
    require((epsilon_r >= 1.0) & isfinite(epsilon_r), "epsilon_r must be >= 1 (vacuum)", epsilon_r)


def float_range_checked(func):
    """Run ``func``, whose own checks catch results that leave the float
    range, with numpy's overflow and invalid warnings off, as Python's
    float arithmetic has none.  Without numpy loaded there is nothing to
    silence."""

    @functools.wraps(func)
    def checked(*args, **kwargs):
        np = sys.modules.get("numpy")
        with np.errstate(over="ignore", invalid="ignore") if np else contextlib.nullcontext():
            return func(*args, **kwargs)

    return checked


def square(x, name: str):
    """``x**2`` through Python's float power, element by element.

    numpy's multiply and power round some squares differently from the C
    library's ``pow`` that Python's ``**`` calls, so this keeps an array
    call bit-identical to the same points evaluated one by one.  A
    square that overflows, or underflows to 0, is a ParameterError.
    """
    np = array_module(x)
    values = [x] if np is None else x.ravel().tolist()
    try:
        squares = [v ** 2 for v in values]
    except OverflowError:  # exactly the |v| >= 2**512
        squares = [v ** 2 if abs(v) < 2.0**512 else math.inf for v in values]
    out = squares[0] if np is None else np.reshape(squares, x.shape)
    require(isfinite(out) & ((out > 0.0) | (x == 0.0)),
            f"{name}**2 is outside the float range", x)
    return out
