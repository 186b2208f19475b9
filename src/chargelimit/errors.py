"""Exception types, the input checks and the record helper shared across the package.

Every check takes a number or an ndarray.  A number is checked with the
standard library alone, so that scalar work never imports numpy; only
an ndarray, which exists only once numpy is loaded, takes numpy's
elementwise route (see :func:`array_module`).  Every frozen record of
the package is made by :func:`record`, which, unlike the standard
library's frozen dataclass, needs neither ``inspect`` nor generated
code, so a one-shot process does not pay to import or build them.
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


_MISSING = object()


def record(cls=None, *, kw_only=False):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    As a frozen ``dataclass`` would: ``__init__`` takes the fields by
    keyword, also by position unless ``kw_only``, with the class
    attributes as defaults, then runs ``__post_init__`` if there is one;
    instances compare, hash and print by their fields and refuse
    assignment and deletion.  ``__post_init__`` may set further fields
    with ``object.__setattr__``; they follow the annotated ones.  The
    fields live in the instance ``__dict__``, in order.
    """
    if cls is None:
        return functools.partial(record, kw_only=kw_only)
    template = {name: cls.__dict__.get(name, _MISSING)  # the arguments and their defaults
                for name in cls.__dict__.get("__annotations__", ())}
    init = tuple(template)
    required = [name for name in init if template[name] is _MISSING]
    positional = 0 if kw_only else len(init)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        fields = template.copy()
        fields.update(zip(init, args))
        fields.update(kwargs)
        if (len(args) > positional or len(fields) > len(init)
                or args and kwargs and not kwargs.keys().isdisjoint(init[:len(args)])
                or any(fields[name] is _MISSING for name in required)):
            raise TypeError(f"{cls.__name__}() takes {', '.join(init)} once each, the first "
                            f"{positional} by position, and needs {', '.join(required)}")
        self.__dict__.update(fields)
        if post_init is not None:
            post_init(self)

    def frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete {name!r} of a frozen {cls.__name__}")

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{cls.__qualname__}({fields})"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__ = cls.__delattr__ = frozen
    return cls


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


@float_range_checked
def square(x, name: str):
    """``x * x``: one IEEE multiply, correctly rounded, for a number and
    for each element of an ndarray alike, so that an array call carries
    the bits of its points evaluated one by one on any C library.

    A square that overflows, or underflows to 0, is a ParameterError that
    names ``x``: the callers' own range checks would name a later term.
    """
    out = x * x
    require(isfinite(out) & ((out > 0.0) | (x == 0.0)), f"{name}**2 is outside the float range", x)
    return out
