"""The exponentially weighted time-average map and its per-mode factors.

Averaging a trajectory u(t) = sum_k alpha_k exp(-i lambda_k t) v_k against the
weight exp(r t) over [0, T] acts diagonally on coefficients: mode k picks up
the factor

    zeta_k = integral_0^T exp((r - i lambda_k) t) dt
           = (exp((r - i lambda_k) T) - 1) / (r - i lambda_k),

with the removable singularity at r = i lambda_k taking the value T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, _complex, _positive, _vector
from .evolve import _map_blocks, _row_blocks
from .spectral import ModeCoefficients, SpectralBasis, _norm_weights, _result, _write_csv

# relative to the largest factor magnitude (floored at 1); at or below it a
# mode is degenerate: inversion refuses to divide by it and names it
_DEGENERATE_REL = 1.0e-14


@dataclass(frozen=True, eq=False)
class AveragingParams:
    """Weight exponent r (complex, 1/time) and horizon T (> 0, time).

    It keeps the ZetaFactors of the last basis it met (see _factors), so a
    solve that reuses one object evaluates the factors and verdicts once.
    """

    r: complex
    T: float

    def __post_init__(self):
        object.__setattr__(self, "r", _complex(self.r, "r"))
        object.__setattr__(self, "T", _positive(self.T, "T"))
        object.__setattr__(self, "_memo", None)  # the ZetaFactors of _factors


@dataclass(frozen=True, eq=False)
class ZetaFactors:
    """Per-mode averaging factors of one basis/params pair and their verdicts,
    all read-only: ``abs_values`` |z_k|, ``threshold`` (_DEGENERATE_REL times
    max|z|, floored at 1), ``degenerate`` (the 0-based modes with |z_k| <=
    threshold, which inversion refuses) and ``min_abs``."""

    values: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.basis.mode_count,):
            raise InvalidArgumentError("factor count must match basis mode count")
        mag = np.abs(v)
        threshold = _DEGENERATE_REL * max(1.0, float(mag.max()))
        bad = np.flatnonzero(mag <= threshold)
        for a in (v, mag, bad):
            a.setflags(write=False)
        self.__dict__.update(values=v, abs_values=mag, threshold=threshold, degenerate=bad,
                             min_abs=float(mag.min()))


def _cexpm1(z: np.ndarray) -> np.ndarray:
    """exp(z) - 1 for complex z without cancellation near z = 0.

    Splits into expm1(x)cos(y) - 2 sin^2(y/2) + i exp(x) sin(y); every term is
    individually small when |z| is, so the subtraction never loses digits.
    cos(y) and -sin(y) come bitwise from one reduction, exp(-1j * y): -1j * y
    is (+0, -y) for every y, -0.0 too (1j * y would turn -0.0 into +0.0).
    """
    x, y = np.real(z), np.imag(z)
    cis = np.exp(-1j * y)
    return np.expm1(x) * cis.real - 2.0 * np.sin(0.5 * y) ** 2 - 1j * np.exp(x) * cis.imag


def _zeta_values(r: complex, T: float, lam) -> np.ndarray:
    s = r - 1j * np.asarray(lam, dtype=float)
    at_zero = s == 0
    with np.errstate(all="ignore"):  # a NaN factor is named by the first result that uses it
        return np.where(at_zero, complex(T), _cexpm1(s * T) / np.where(at_zero, 1.0, s))


def _factors(basis: SpectralBasis, params: AveragingParams) -> ZetaFactors:
    """The ZetaFactors of ``basis``, built once per (basis, params) and kept
    on ``params`` for the rest of the solve chain.

    zeta_k depends on lambda_k alone, so it is evaluated once per distinct
    eigenvalue (the basis's _distinct map) and gathered.  The distinct values
    go through _zeta_values in chunks of _row_blocks (rows of one value),
    which run on threads from _THREAD_MIN_VALUES modes on.  The kernel is
    elementwise, so every value is bitwise the one of a single evaluation
    over all modes."""
    memo = params._memo
    if memo is None or memo.basis is not basis:
        lam, index = basis._distinct
        z = np.empty(lam.size, dtype=complex)

        def fill(k):
            z[k] = _zeta_values(params.r, params.T, lam[k])

        _map_blocks(fill, _row_blocks(lam.size, 1), basis.mode_count)
        memo = ZetaFactors(z if index is None else z.take(index), basis)
        object.__setattr__(params, "_memo", memo)
    return memo


def zeta_factor(r: complex, T: float, lam: float) -> complex:
    """The averaging factor (exp((r - i lam) T) - 1) / (r - i lam).

    Total on all finite inputs, refusing others with InvalidArgumentError;
    returns exactly T at the removable singularity r = i lam.
    """
    params = AveragingParams(r, T)  # validates r, T
    return complex(_zeta_values(params.r, params.T, _vector([lam], float, "lam"))[0])


def zeta_factors(basis: SpectralBasis, params: AveragingParams) -> ZetaFactors:
    """The read-only ZetaFactors that ``params`` keeps for ``basis``."""
    return _factors(basis, params)


def apply_time_average(xi: ModeCoefficients, params: AveragingParams) -> ModeCoefficients:
    """Image of the state under the averaging map: gamma_k = zeta_k alpha_k."""
    return _result(_factors(xi.basis, params).values * xi.values, xi.basis, "time average")


def forward_smoothing_constant(basis: SpectralBasis, params: AveragingParams) -> float:
    """Sharp constant C with ||average of xi||_{H2} <= C ||xi||_{H1}.

    C = max_k sqrt((lambda_k^2 + c_A) / (lambda_k + c_A)) |zeta_k|; a single
    mode at the maximizing k attains equality, so the bound is tight on the
    truncated basis.
    """
    z = _factors(basis, params).abs_values
    return float(np.max(np.sqrt(_norm_weights(basis, 2) / _norm_weights(basis, 1)) * z))


def zeta_to_csv(factors: ZetaFactors, path) -> None:
    """Rows k,lambda,zeta_re,zeta_im,abs_zeta through the shared 17g writer.

    abs_zeta is np.hypot of the parts, which has the bits of numpy's scalar
    complex abs: vectorised np.abs (ZetaFactors.abs_values) can differ in the
    last bit.  It reads inf where |z| overflows although both parts are finite.
    """
    z = factors.values
    with np.errstate(all="ignore"):  # numpy's scalar abs does not warn there either
        abs_z = np.hypot(z.real, z.imag)
    _write_csv(path, "k,lambda,zeta_re,zeta_im,abs_zeta", [
        range(1, z.size + 1), factors.basis.lambdas, z.real, z.imag, abs_z,
    ])
