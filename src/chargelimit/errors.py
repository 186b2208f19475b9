"""Exception types and the input checks shared across the package."""

import functools

import numpy as np


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


def require(ok, message: str, value) -> None:
    """Raise ``ParameterError("<message>, got <value>")`` unless all of ``ok``.

    ``ok`` and ``value`` are a bool and a number, or arrays that broadcast
    together; for arrays the error names the first failing element.
    """
    if np.all(ok):
        return
    index = None
    if np.ndim(ok):
        index = int(np.argmin(ok))
        value = np.broadcast_to(value, np.shape(ok)).flat[index].item()
    raise ParameterError(f"{message}, got {value!r}", index)


def require_positive(value, name: str) -> None:
    require((value > 0.0) & np.isfinite(value), f"{name} must be > 0 and finite", value)


def require_nonnegative(value, name: str) -> None:
    require((value >= 0.0) & np.isfinite(value), f"{name} must be >= 0 and finite", value)


def require_dielectric(epsilon_r) -> None:
    require((epsilon_r >= 1.0) & np.isfinite(epsilon_r),
            "epsilon_r must be >= 1 (vacuum)", epsilon_r)


def float_range_checked(func):
    """Run ``func``, whose own checks catch results that leave the float
    range, with numpy's overflow and invalid warnings off, as Python's
    float arithmetic has none."""

    @functools.wraps(func)
    def checked(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return func(*args, **kwargs)

    return checked


def square(x, name: str):
    """``x**2`` through Python's float power, element by element.

    numpy's multiply and power round some squares differently from the C
    library's ``pow`` that Python's ``**`` calls, so this keeps an array
    call bit-identical to the same points evaluated one by one.  A
    square that overflows, or underflows to 0, is a ParameterError.
    """
    values = x.ravel().tolist() if isinstance(x, np.ndarray) else [x]
    try:
        squares = [v ** 2 for v in values]
    except OverflowError:  # exactly the |v| >= 2**512
        squares = [v ** 2 if abs(v) < 2.0**512 else np.inf for v in values]
    out = np.reshape(squares, x.shape) if isinstance(x, np.ndarray) else squares[0]
    require(np.isfinite(out) & ((out > 0.0) | (x == 0.0)),
            f"{name}**2 is outside the float range", x)
    return out
