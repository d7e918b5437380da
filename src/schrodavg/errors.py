"""Exception taxonomy for the package, and the three argument rules that
every entry point applies to its counts, positive scalars and vectors."""

import math
import numbers

import numpy as np


class SchrodavgError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SchrodavgError, ValueError):
    """An argument violates a documented precondition."""


def _positive(x, name: str) -> float:
    """float(x) for a real number x that is positive and finite: 0, inf, nan,
    "1", None and 1j are refused."""
    v = float(x) if isinstance(x, numbers.Real) else math.nan
    if not 0.0 < v < math.inf:  # nan fails both comparisons
        raise InvalidArgumentError(f"{name} must be positive and finite, got {x!r}")
    return v


def _count(n, name: str, least: int) -> int:
    """int(n) for an integral number n >= least: 4.0 counts, 3.7, inf, nan and "4" do not."""
    integral = isinstance(n, numbers.Integral) or isinstance(n, numbers.Real) and float(n).is_integer()
    if not integral or n < least:
        raise InvalidArgumentError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def _vector(x, dtype, name: str, size: int | None = None) -> np.ndarray:
    """A read-only, finite, nonempty 1-d copy of x as dtype, of ``size`` values
    if given; values numpy cannot read as dtype (None, "abc", 1j as a float,
    ragged lists) are refused."""
    try:
        v = np.array(x, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{name} must be a vector of numbers: {exc}") from exc
    if v.ndim != 1 or v.size == 0 or (size is not None and v.size != size):
        want = "nonempty" if size is None else f"{size}-value"
        raise InvalidArgumentError(f"{name} must be a {want} 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():  # a complex is finite when both parts are
        raise InvalidArgumentError(f"{name} must be finite")
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
