"""Eigenbases, coefficient vectors, Sobolev-scale norms, and grid transforms.

States live in coefficient space: a state is a complex vector expanded against
an orthonormal eigenbasis (v_k) of the spatial operator, with eigenvalues
lambda_k.  Norms of order s in {0, 1, 2} are weighted l2 norms on the
coefficients with weights 1, lambda_k + c_A, lambda_k**2 + c_A, so every
estimate in the package reduces to an inequality between weighted sums.

Two presets carry explicit eigenfunctions (Dirichlet interval, periodic
interval); custom bases take user-supplied eigenvalues and, optionally, a
callable producing eigenfunction samples for grid work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericError, _array, _count, _positive, _vector

DIRICHLET = "dirichlet_interval"
PERIODIC = "periodic_interval"
CUSTOM = "custom"

_KINDS = (DIRICHLET, PERIODIC, CUSTOM)

# below this norm, the squares of its coefficients may lose bits to underflow
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def unit_floor_shift(lambdas) -> float:
    """Smallest nonnegative shift q such that min(lambdas) + q >= 1 in floating
    point: 1 - min(lambdas), raised a double at a time where that sum rounds
    below 1 (from |min| ~ 2^53 on, and at ties such as -(1 + 2^-52)).

    Used both as the default norm shift c_A and as the spectral translation
    that normalizes eigenvalues before inversion.
    """
    return _floor_shift(_vector(lambdas, float, "lambdas").min())


def _floor_shift(lam_min) -> float:
    """unit_floor_shift of eigenvalues whose least is lam_min, a basis's lambdas[0]."""
    lam_min = float(lam_min)
    q = max(0.0, 1.0 - lam_min)
    while lam_min + q < 1.0:
        q = math.nextafter(q, math.inf)
    return q


def _distinct_map(lam: np.ndarray):
    """(distinct, index) with lam == distinct[index] bit for bit, both
    read-only, or (lam, None) when no two eigenvalues are equal.  Per-mode
    work that depends on lambda_k alone (factors, phases) is done once per
    distinct value and gathered.  Bit patterns, not float equality, tell
    values apart: -0.0 and 0.0 give phases with zeros of different sign.
    Equal values sit next to each other, as lam is nondecreasing."""
    bits = lam.view(np.int64)
    first = np.empty(lam.size, dtype=bool)
    first[0] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if first.all():
        return lam, None
    distinct, index = lam[first], np.cumsum(first) - 1
    distinct.setflags(write=False)
    index.setflags(write=False)
    return distinct, index


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Descriptor of an orthonormal eigenbasis.

    Attributes:
        kind: one of ``dirichlet_interval``, ``periodic_interval``, ``custom``.
        domain_length: length L of the spatial interval [0, L].
        lambdas: eigenvalues, nondecreasing, shape (N,).
        c_A: nonnegative norm shift; every lambda_k + c_A must be positive.
            None applies the default policy ``unit_floor_shift``.
        labels: integer mode labels (Dirichlet wavenumbers 1..N, periodic
            frequencies 0, 1, -1, 2, -2, ...).  File formats index modes by
            1-based position, not by label.
        eigenfunctions: optional callable mapping points x of shape (M,) to a
            sample matrix of shape (M, N); only custom bases need it, and only
            for synthesis/projection.
    """

    kind: str
    domain_length: float
    lambdas: np.ndarray
    c_A: float | None
    labels: np.ndarray
    eigenfunctions: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"unknown basis kind {self.kind!r}")
        L = _positive(self.domain_length, "domain_length")
        lam = _vector(self.lambdas, float, "lambdas", ascending=True)
        cA = _floor_shift(lam[0]) if self.c_A is None else _positive(self.c_A, "c_A", 0.0, strict=False)
        if cA == math.inf:  # only the default shift overflows
            raise InvalidArgumentError(f"min(lambda) = {lam[0]} leaves no finite default c_A")
        if lam[0] + cA <= 0:
            raise InvalidArgumentError(
                f"c_A={cA} leaves min(lambda)+c_A = {lam[0] + cA} <= 0; "
                "order-1 norm weights must be positive"
            )
        labels = _vector(self.labels, int, "labels", lam.size)
        object.__setattr__(self, "domain_length", L)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "c_A", cA)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_weights", {})  # order -> _norm_weights array
        object.__setattr__(self, "_distinct", _distinct_map(lam))

    @property
    def mode_count(self) -> int:
        return int(self.lambdas.size)


def make_dirichlet_basis(L: float, N: int, c_A: float | None = None) -> SpectralBasis:
    """Dirichlet Laplacian on [0, L]: lambda_k = (k pi / L)^2, k = 1..N.

    Eigenfunctions are v_k(x) = sqrt(2/L) sin(k pi x / L), orthonormal in L2.
    c_A=None applies the default policy ``unit_floor_shift``.
    """
    L = _positive(L, "L")
    k = np.arange(1, _count(N, "N", 1) + 1)
    lam = (k * np.pi / L) ** 2
    return SpectralBasis(DIRICHLET, L, lam, c_A, k)


def make_periodic_basis(L: float, N: int, c_A: float | None = None) -> SpectralBasis:
    """Periodic Laplacian on [0, L]: frequencies m = 0, 1, -1, 2, -2, ...

    lambda_m = (2 pi m / L)^2 and v_m(x) = exp(2 pi i m x / L) / sqrt(L).
    The frequency ordering keeps the eigenvalues nondecreasing.
    """
    L = _positive(L, "L")
    m = (np.arange(_count(N, "N", 1)) + 1) // 2  # 0, 1, 1, 2, 2, ...
    m[2::2] *= -1
    lam = (2.0 * np.pi * m / L) ** 2
    return SpectralBasis(PERIODIC, L, lam, c_A, m)


def make_custom_basis(
    lambdas,
    domain_length: float = 1.0,
    c_A: float | None = None,
    eigenfunctions: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SpectralBasis:
    """Basis from user-supplied eigenvalues (nondecreasing, finite).

    Without an ``eigenfunctions`` callable the basis supports every
    coefficient-space operation but not grid synthesis/projection.
    """
    lam = _array(lambdas, float, "lambdas", copy=False)  # SpectralBasis checks and copies it
    labels = np.arange(1, lam.size + 1)
    return SpectralBasis(CUSTOM, domain_length, lam, c_A, labels, eigenfunctions)


@dataclass(frozen=True, eq=False)
class ModeCoefficients:
    """Complex expansion coefficients attached to a basis; built by hand, a
    read-only copy of finite values (else InvalidArgumentError)."""

    values: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        v = _vector(self.values, complex, "coefficients", self.basis.mode_count)
        object.__setattr__(self, "values", v)


def _require_finite(values, labels=None, stage="trajectory", unit="the state at t =") -> None:
    """The one rule for computed results: NumericError at the first row of a
    2-d ``values``, or value of a 1-d one, that is not finite, naming ``stage``
    and the row as ``unit`` and labels[i], or the 1-based i + 1 if no labels."""
    if not np.isfinite(values.view(float)).all():  # one scan of both parts
        i = int(np.argmin(np.isfinite(values).reshape(len(values), -1).all(axis=-1)))  # the first False
        label = i + 1 if labels is None else labels[i]
        raise NumericError(f"{stage} overflows: {unit} {label:.17g} is not finite")


def _trusted(cls, **fields):
    """cls(**fields) from checked arrays that the package made and no caller
    can write: each is marked read-only, not copied or checked again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _result(values: np.ndarray, basis: SpectralBasis, stage: str) -> ModeCoefficients:
    """The ModeCoefficients the package computed in ``stage``, once _require_finite passes them."""
    _require_finite(values, None, stage, "mode")
    return _trusted(ModeCoefficients, values=values, basis=basis)


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform partition of [0, L], endpoints included."""

    point_count: int
    points: np.ndarray

    def __post_init__(self):
        n = _count(self.point_count, "point_count", 3)
        pts = _vector(self.points, float, "points", n)
        if np.any(np.diff(pts) <= 0):
            raise InvalidArgumentError("points must be strictly increasing")
        object.__setattr__(self, "point_count", n)
        object.__setattr__(self, "points", pts)


def uniform_grid(L: float, M: int) -> SpatialGrid:
    """M equispaced points on [0, L] including both endpoints."""
    M = _count(M, "M", 3)
    return SpatialGrid(M, np.linspace(0.0, _positive(L, "L"), M))


def _norm_weights(basis: SpectralBasis, order: int) -> np.ndarray | None:
    """Read-only norm weights of ``order``, built once per basis and order;
    None for order 0, whose unit weights _weighted_norm skips (x * 1.0 == x)."""
    if order not in (0, 1, 2) or isinstance(order, bool):
        raise InvalidArgumentError(f"norm order must be 0, 1 or 2, got {order!r}")
    if order == 0:
        return None
    w = basis._weights.get(order)
    if w is not None:
        return w
    # an overflowing weight stays inf, and _weighted_norm raises NumericError
    with np.errstate(all="ignore"):
        w = basis.lambdas + basis.c_A if order == 1 else basis.lambdas**2 + basis.c_A
    bad = np.flatnonzero(w <= 0)  # nothing is kept then, so every call fails
    if bad.size and order == 2 and basis.c_A >= 0:  # lambda^2 underflowed, at c_A = 0
        k = bad[0]
        raise NumericError(f"order-2 weight of mode {k + 1} underflows to 0: lambda = {basis.lambdas[k]:.17g}")
    if bad.size:  # only a basis altered after its checks ran
        raise InvalidArgumentError(f"order-{order} weights are not all positive")
    w.setflags(write=False)
    basis._weights[order] = w
    return w


def _weighted_norm(values: np.ndarray, w: np.ndarray | None, order: int) -> float:
    """Largest row norm sqrt(sum w |c|^2) over the last axis of ``values``,
    w = 1 where w is None.  Where the plain sum overflows, or the largest norm
    is below lo = _SQRT_TINY sqrt(max(1, max w)) (its squares or their
    products with w may have underflowed; at or above lo each |c|^2 or
    w |c|^2 that did moves the sum by at most 2^-53 of it), it
    is redone on c / max|c|, a zero row staying 0, so other norms keep their
    bits; a largest norm still not finite (the weights or a norm overflow; max
    passes NaN on) raises NumericError."""

    def norm_of(c):
        # one contiguous square: the operands and order of c.real**2 + c.imag**2;
        # w * sq in place, as a third row-sized temporary made glibc hand back
        # and refault the memory on every row (2.3x the order-1 sup norm, 1 CPU)
        v = np.square(np.ascontiguousarray(c).view(float))
        sq = v[..., 0::2] + v[..., 1::2]
        if w is not None:
            np.multiply(w, sq, out=sq)
        return np.sqrt(sq.sum(-1))

    # a basis's weights are lam + c_A or lam^2 + c_A of nondecreasing lam: largest at an end
    lo = _SQRT_TINY if w is None else _SQRT_TINY * math.sqrt(max(1.0, w[0], w[-1]))
    with np.errstate(all="ignore"):
        norm = norm_of(values)
        top = float(norm.max())
        if lo <= top < math.inf:
            return top
        m = np.abs(values).max(axis=-1, keepdims=True)
        scaled = m[..., 0] * norm_of(np.divide(values, m, out=np.zeros_like(values), where=m > 0))
        top = float(np.where((lo <= norm) & (norm < math.inf), norm, scaled).max())
    if not math.isfinite(top):
        raise NumericError(f"order-{order} norm is not finite: its weights or its value overflow")
    return top


def sobolev_norm(c: ModeCoefficients, order: int) -> float:
    """Weighted l2 norm of order 0, 1 or 2 (weights 1, lam+c_A, lam^2+c_A)."""
    return _weighted_norm(c.values, _norm_weights(c.basis, order), order)


def _mode_matrix(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    """Sample matrix V with V[j, k] = v_k(x_j)."""
    if basis.kind == DIRICHLET:
        L = basis.domain_length
        return np.sqrt(2.0 / L) * np.sin(np.outer(x, basis.labels) * (np.pi / L))
    if basis.kind == PERIODIC:
        L = basis.domain_length
        return np.exp(2j * np.pi * np.outer(x, basis.labels) / L) / np.sqrt(L)
    if basis.eigenfunctions is None:
        raise InvalidArgumentError(
            "custom basis has no eigenfunction evaluator; grid operations unavailable"
        )
    V = np.asarray(basis.eigenfunctions(x))
    if V.shape != (x.size, basis.mode_count):
        raise InvalidArgumentError(
            f"eigenfunction samples have shape {V.shape}, expected {(x.size, basis.mode_count)}"
        )
    return V


def synthesize_on_grid(c: ModeCoefficients, grid: SpatialGrid) -> np.ndarray:
    """Pointwise values sum_k c_k v_k(x_j) on the grid."""
    V = _mode_matrix(c.basis, grid.points)
    return V @ c.values


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson rule for samples y along axis 0 at the 1-d points x.

    A port of ``scipy.integrate.simpson(y, x=x, axis=0)`` (scipy 1.17) that
    keeps its order of operations, so the result is bitwise equal; an even
    point count gets Cartwright's correction on the last interval.  Defined
    here so that importing the package does not load scipy.integrate.
    """
    n = x.size
    h = np.diff(x.reshape(-1, 1), axis=0)
    stop = n - 3 if n % 2 == 0 else n - 2
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    result = np.sum(
        hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                      + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                      + y[2:stop + 2:2] * (2.0 - h0divh1)),
        axis=0,
    )
    if n % 2 == 0:
        a, b = h[-2], h[-1]
        alpha = (2 * b**2 + 3 * a * b) / (6 * (b + a))
        beta = (b**2 + 3.0 * a * b) / (6 * a)
        eta = b**3 / (6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
        result += 0.0  # as scipy does: it turns a -0.0 into +0.0
    return result


def project_from_grid(samples, basis: SpectralBasis, grid: SpatialGrid) -> ModeCoefficients:
    """Coefficients c_k ~= integral samples(x) conj(v_k(x)) dx, Simpson rule.

    The grid must resolve the highest retained mode; M >= 8N is a sound
    default for the presets.
    """
    y = _vector(samples, complex, "samples", grid.point_count)
    V = _mode_matrix(basis, grid.points)
    vals = _simpson(y[:, None] * np.conj(V), grid.points)
    return _result(vals, basis, "grid projection")


# --- JSON: a basis is {"kind", "L", "N", "cA"}, plus "lambdas" for a custom
# basis; a coefficient file puts "coeffs": [[re, im], ...] before "lambdas".
# Eigenfunction callables do not round-trip through JSON.


def _complex_pairs(pairs, name: str):
    """The complex number of [re, im], or the complex vector of [[re, im], ...],
    each part a real number."""
    v = _array(pairs, float, name)
    if v.ndim not in (1, 2) or v.shape[-1] != 2:
        raise InvalidArgumentError(f"{name} must be [re, im] or a list of such pairs, got shape {v.shape}")
    return v.view(complex)[..., 0][()]


# the keys of a basis object, all that basis_from_json reads
_BASIS_KEYS = ("kind", "L", "N", "cA", "lambdas")


def basis_to_json(basis: SpectralBasis, **fields) -> dict:
    """{"kind", "L", "N", "cA", **fields}, then "lambdas" for a custom basis."""
    obj = {"kind": basis.kind, "L": basis.domain_length, "N": basis.mode_count, "cA": basis.c_A,
           **fields}
    if basis.kind == CUSTOM:
        obj["lambdas"] = basis.lambdas.tolist()
    return obj


def basis_from_json(obj: dict) -> SpectralBasis:
    """The basis that basis_to_json encodes.  A null "cA" takes the default
    shift; a custom basis may omit "N", and otherwise N must be len(lambdas).
    The basis's constructor checks each value."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"a basis must be a JSON object, got {obj!r}")
    kind, L, N, cA = obj.get("kind"), obj.get("L"), obj.get("N"), obj.get("cA")
    if kind == DIRICHLET:
        return make_dirichlet_basis(L, N, cA)
    if kind == PERIODIC:
        return make_periodic_basis(L, N, cA)
    if kind == CUSTOM:
        basis = make_custom_basis(obj.get("lambdas"), L, cA)
        if N is not None and _count(N, "N", 1) != basis.mode_count:
            raise InvalidArgumentError(f"lambdas length {basis.mode_count} != N = {N}")
        return basis
    raise InvalidArgumentError(f"unknown basis kind {kind!r}")


def save_coefficients(path, c: ModeCoefficients) -> None:
    coeffs = c.values.view(float).reshape(-1, 2).tolist()  # [re, im] per mode
    Path(path).write_text(json.dumps(basis_to_json(c.basis, coeffs=coeffs), indent=2) + "\n")


def _read_json(path, what: str):
    """The JSON value in the file at ``path``, every JSON input's one reader:
    a file that cannot be read, is not UTF-8 or is not JSON is refused as
    "cannot read <what> <path>: <reason>"."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep to parse
        raise InvalidArgumentError(f"cannot read {what} {path}: {exc}") from exc


def load_coefficients(path) -> ModeCoefficients:
    obj = _read_json(path, "coefficients")
    basis = basis_from_json(obj)  # first: it refuses an obj that is not a JSON object
    return ModeCoefficients(_complex_pairs(obj.get("coeffs"), "coeffs"), basis)


# --- CSV: a header line, then one row per index of equal-length columns -----

_CSV_BLOCK_ROWS = 4096


def _write_csv(path, header: str, columns) -> None:
    """Write ``header`` and the rows of ``columns``, arrays or sequences of one
    1-d or 2-d shape whose values in C order are the rows.  By dtype, strings
    and objects print as %s, integers as %d and the rest as %.17g, which
    round-trips a double.  Only a block of at most _CSV_BLOCK_ROWS values of
    one row is held as Python values and text, formatted by one %-operation."""
    cols = [np.atleast_2d(c) for c in columns]
    if len({c.shape for c in cols}) != 1 or cols[0].ndim != 2:
        raise InvalidArgumentError("CSV columns must share one 1-d or 2-d shape")
    outer, inner = cols[0].shape
    width = len(cols)
    row_fmt = ",".join(
        "%s" if c.dtype.kind in "UO" else "%d" if c.dtype.kind in "iu" else "%.17g" for c in cols
    ) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(outer):
            for a in range(0, inner, _CSV_BLOCK_ROWS):
                m = min(_CSV_BLOCK_ROWS, inner - a)
                flat = [None] * (width * m)
                for j, c in enumerate(cols):
                    flat[j::width] = c[i, a : a + m].tolist()
                fh.write((row_fmt * m) % tuple(flat))
