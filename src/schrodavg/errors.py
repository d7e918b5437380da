"""Exception taxonomy for the package, and the four argument rules that
every entry point applies to its counts, real and complex scalars, and vectors."""

import cmath
import math
import numbers

import numpy as np


class SchrodavgError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SchrodavgError, ValueError):
    """An argument violates a documented precondition."""


def _read(x, kind):
    """kind(x), kind float or complex, for a number x of that kind, else nan:
    "1", None, [1], 1j as a float and an integer beyond the doubles are not."""
    try:
        return kind(x) if isinstance(x, numbers.Real if kind is float else numbers.Complex) else kind(math.nan)
    except OverflowError:
        return kind(math.nan)


def _positive(x, name: str, least: float = 0.0, strict: bool = True) -> float:
    """float(x) for a finite real number x above ``least`` (at least ``least``
    where not ``strict``), by default a positive one: 0, inf, nan, "1", None
    and 1j are refused."""
    v = _read(x, float)
    if not (least < v if strict else least <= v) or v == math.inf:  # nan fails every comparison
        bound = "" if least == -math.inf else f" {'>' if strict else '>='} {least:g}"
        raise InvalidArgumentError(f"{name} must be a finite real number{bound}, got {x!r}")
    return v


def _complex(x, name: str) -> complex:
    """complex(x) for a finite number x: inf, nan, "1", None and [1] are refused."""
    v = _read(x, complex)
    if not cmath.isfinite(v):
        raise InvalidArgumentError(f"{name} must be a finite number, got {x!r}")
    return v


def _count(n, name: str, least: int) -> int:
    """int(n) for an integral number n >= least: 4.0 counts, 3.7, inf, nan and "4" do not."""
    integral = isinstance(n, numbers.Integral) or isinstance(n, numbers.Real) and float(n).is_integer()
    if not integral or n < least:
        raise InvalidArgumentError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def _array(x, dtype, name: str, copy: bool = True) -> np.ndarray:
    """x as an array of dtype, a copy unless ``copy`` is False; values numpy
    cannot read as dtype (None in a list, "abc", 1j as a float, ragged
    lists, integers beyond the doubles) are refused, and so are strings,
    which numpy would read as numbers."""
    try:
        if np.asarray(x).dtype.kind in "SU":
            raise TypeError("strings are not numbers")
        return (np.array if copy else np.asarray)(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{name} must be an array of numbers: {exc}") from exc


def _vector(x, dtype, name: str, size: int | None = None, least: int = 1,
            ascending: bool = False) -> np.ndarray:
    """A read-only, finite 1-d copy of x as dtype (see _array), of ``size``
    values if given, else of at least ``least``, and nondecreasing if ``ascending``."""
    v = _array(x, dtype, name)
    if v.ndim != 1 or v.size < least or size not in (None, v.size):
        want = size if size is not None else f"at least {least}"
        raise InvalidArgumentError(f"{name} must be a 1-d vector of {want} values, got shape {v.shape}")
    # a complex is finite when both parts are
    if not np.isfinite(v).all() or ascending and (v[1:] < v[:-1]).any():
        raise InvalidArgumentError(f"{name} must be finite" + " and ascending" * ascending)
    v.setflags(write=False)
    return v


class NumericError(SchrodavgError):
    """A linear solve or other numeric kernel failed unexpectedly."""


class IllPosedError(SchrodavgError):
    """Inversion refused: the weight exponent has zero real part."""


class DegenerateModeError(SchrodavgError):
    """Inversion refused: some averaging factors are numerically zero.

    Carries the offending 1-based mode indices in ``modes`` and the magnitude
    threshold that triggered the refusal in ``threshold``.
    """

    def __init__(self, modes, threshold):
        self.modes = [int(k) for k in modes]
        self.threshold = float(threshold)
        listed = ", ".join(str(k) for k in self.modes)
        super().__init__(
            f"|zeta| <= {self.threshold:.3e} for mode(s) {listed}; "
            "division would amplify rounding noise without bound"
        )
