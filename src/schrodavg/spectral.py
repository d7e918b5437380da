"""Eigenbases, coefficient vectors, Sobolev-scale norms, and grid transforms.

States live in coefficient space: a state is a complex vector expanded against
an orthonormal eigenbasis (v_k) of the spatial operator, with eigenvalues
lambda_k.  Norms of order s in {0, 1, 2} are weighted l2 norms on the
coefficients with weights 1, lambda_k + c_A, lambda_k**2 + c_A, so every
estimate in the package reduces to an inequality between weighted sums.

Two presets, the Dirichlet and periodic Laplacians on [0, L], are fixed by
(kind, L, N): eigenvalues, wavenumbers and eigenfunctions are closed forms,
and only they support grid work.  Custom bases take user-supplied eigenvalues.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, NumericError, _array, _count, _positive, _vector

DIRICHLET = "dirichlet_interval"
PERIODIC = "periodic_interval"
CUSTOM = "custom"

_KINDS = (DIRICHLET, PERIODIC, CUSTOM)


def _kind(x, name: str) -> str:
    """x, one of the basis kinds _KINDS."""
    if not (isinstance(x, str) and x in _KINDS):
        raise InvalidArgumentError(f"{name} must be one of {', '.join(_KINDS)}, got {x!r}")
    return x


def _wavenumbers(kind: str, N: int) -> np.ndarray:
    """Mode labels: Dirichlet k = 1..N, periodic m = 0, 1, -1, 2, -2, ..., custom positions 1..N."""
    k = np.arange(1, N + 1)
    if kind == PERIODIC:
        k //= 2  # 0, 1, 1, 2, 2, ...
        k[2::2] *= -1
    return k


def _closed_form(kind: str, L: float, k: np.ndarray) -> np.ndarray:
    """Eigenvalues of a preset kind at its wavenumbers k: (pi k / L)^2 or (2 pi m / L)^2,
    nondecreasing; inf where they overflow."""
    with np.errstate(all="ignore"):  # _preset names an overflow; SpectralBasis refuses it as foreign
        return (k * np.pi / L) ** 2 if kind == DIRICHLET else (2.0 * np.pi * k / L) ** 2


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
        lambdas: eigenvalues, nondecreasing, shape (N,); a preset kind's are
            bit for bit its closed form at (L, N).
        c_A: nonnegative norm shift; every lambda_k + c_A must be positive.
            None applies the default policy ``unit_floor_shift``.

    ``labels`` holds the integer mode labels that the kind derives
    (``_wavenumbers``); files index modes by 1-based position, not by label.
    """

    kind: str
    domain_length: float
    lambdas: np.ndarray
    c_A: float | None

    def __post_init__(self):
        _kind(self.kind, "kind")
        L = _positive(self.domain_length, "domain_length")
        lam = _vector(self.lambdas, float, "lambdas", ascending=True)
        labels = _wavenumbers(self.kind, lam.size)
        bits = lam.view(np.int64)  # a preset's lambdas are its closed form bit for bit
        if self.kind != CUSTOM and not np.array_equal(bits, _closed_form(self.kind, L, labels).view(np.int64)):
            raise InvalidArgumentError(f"a {self.kind} basis has its closed-form lambdas; use make_custom_basis")
        cA = _floor_shift(lam[0]) if self.c_A is None else _positive(self.c_A, "c_A", 0.0, strict=False)
        if cA == math.inf:  # only the default shift overflows
            raise InvalidArgumentError(f"min(lambda) = {lam[0]} leaves no finite default c_A")
        if lam[0] + cA <= 0:
            raise InvalidArgumentError(
                f"c_A={cA} leaves min(lambda)+c_A = {lam[0] + cA} <= 0; "
                "order-1 norm weights must be positive"
            )
        labels.setflags(write=False)
        object.__setattr__(self, "domain_length", L)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "c_A", cA)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_weights", {})  # order -> _norm_weights array
        object.__setattr__(self, "_distinct", _distinct_map(lam))

    @property
    def mode_count(self) -> int:
        return int(self.lambdas.size)


def _preset(kind: str, L, N, c_A) -> SpectralBasis:
    """The basis of a preset kind fixed by (L, N), refused where its largest eigenvalue overflows."""
    L = _positive(L, "L")
    lam = _closed_form(kind, L, _wavenumbers(kind, _count(N, "N", 1)))
    if lam[-1] == math.inf:  # the last is the largest
        raise InvalidArgumentError(f"L = {L!r} with N = {lam.size} overflows the largest {kind} eigenvalue")
    return SpectralBasis(kind, L, lam, c_A)


def make_dirichlet_basis(L: float, N: int, c_A: float | None = None) -> SpectralBasis:
    """Dirichlet Laplacian on [0, L]: lambda_k = (k pi / L)^2, k = 1..N.

    Eigenfunctions are v_k(x) = sqrt(2/L) sin(k pi x / L), orthonormal in L2.
    c_A=None applies the default policy ``unit_floor_shift``.
    """
    return _preset(DIRICHLET, L, N, c_A)


def make_periodic_basis(L: float, N: int, c_A: float | None = None) -> SpectralBasis:
    """Periodic Laplacian on [0, L]: frequencies m = 0, 1, -1, 2, -2, ...

    lambda_m = (2 pi m / L)^2 and v_m(x) = exp(2 pi i m x / L) / sqrt(L).
    The frequency ordering keeps the eigenvalues nondecreasing.
    """
    return _preset(PERIODIC, L, N, c_A)


def make_custom_basis(lambdas, domain_length: float = 1.0, c_A: float | None = None) -> SpectralBasis:
    """Basis from user-supplied eigenvalues (nondecreasing, finite), for every
    coefficient-space operation; grid synthesis and projection take only the presets."""
    return SpectralBasis(CUSTOM, domain_length, lambdas, c_A)


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
    """Sample matrix V with V[j, k] = v_k(x_j) of a preset's closed-form eigenfunctions at
    points x of [0, L]; NumericError where the largest phase, L max|k| (2 pi L max|k|), overflows."""
    L, periodic = basis.domain_length, basis.kind == PERIODIC
    if basis.kind == CUSTOM:
        raise InvalidArgumentError(f"grid operations take a {DIRICHLET} or {PERIODIC} basis, not {CUSTOM}")
    top = int(np.abs(basis.labels).max())
    if (2.0 * np.pi if periodic else 1.0) * (L * top) == math.inf:
        raise NumericError(f"grid sample phases overflow: L = {L!r} times {'2 pi times ' * periodic}"
                           f"mode label {top} is not finite")
    if periodic:
        return np.exp(2j * np.pi * np.outer(x, basis.labels) / L) / np.sqrt(L)
    return np.sqrt(2.0 / L) * np.sin(np.outer(x, basis.labels) * (np.pi / L))


def _grid(basis: SpectralBasis, M) -> np.ndarray:
    """The M equispaced points of the basis's [0, L], both ends included."""
    return np.linspace(0.0, basis.domain_length, _count(M, "M", 3))


def synthesize_on_grid(c: ModeCoefficients, M: int) -> np.ndarray:
    """Pointwise values sum_k c_k v_k(x_j) at the M equispaced points x_j of [0, L]."""
    with np.errstate(all="ignore"):  # inf and NaN are named just below
        values = _mode_matrix(c.basis, _grid(c.basis, M)) @ c.values
    _require_finite(values, None, "grid synthesis", "grid point")
    return values


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


def project_from_grid(samples, basis: SpectralBasis) -> ModeCoefficients:
    """Coefficients c_k ~= integral samples(x) conj(v_k(x)) dx by the Simpson
    rule, from samples at the M = len(samples) equispaced points of [0, L].

    The samples must resolve the highest retained mode; M >= 8N is a sound default.
    """
    y = _vector(samples, complex, "samples", least=3)
    x = _grid(basis, y.size)
    with np.errstate(all="ignore"):  # _result names an overflow
        if x[1] * x[1] == math.inf:  # else the odd points' Simpson weight hsum^2 / (h0 h1) reads 0
            raise NumericError(f"grid projection overflows: the spacing {x[1]:.17g} squared is not finite")
        vals = _simpson(y[:, None] * np.conj(_mode_matrix(basis, x)), x)
    return _result(vals, basis, "grid projection")


# --- JSON: a basis is {"kind", "L", "N", "cA"}, plus "lambdas" for a custom
# basis; a coefficient file puts "coeffs": [[re, im], ...] before "lambdas".


def _complex_pairs(pairs, name: str):
    """The complex number of [re, im], or the complex vector of [[re, im], ...],
    each part a real number."""
    v = _array(pairs, float, name)
    if v.ndim not in (1, 2) or v.shape[-1] != 2:
        raise InvalidArgumentError(f"{name} must be [re, im] or a list of such pairs, got shape {v.shape}")
    return v.view(complex)[..., 0][()]


def basis_to_json(basis: SpectralBasis, **fields) -> dict:
    """{"kind", "L", "N", "cA", **fields}, then "lambdas" for a custom basis."""
    obj = {"kind": basis.kind, "L": basis.domain_length, "N": basis.mode_count, "cA": basis.c_A,
           **fields}
    if basis.kind == CUSTOM:
        obj["lambdas"] = basis.lambdas.tolist()
    return obj


def basis_from_json(obj: dict, *fields: str) -> SpectralBasis:
    """The basis that basis_to_json encodes.  A null "cA" takes the default
    shift; a custom basis may omit "N", and otherwise N must be len(lambdas);
    only a custom basis may hold "lambdas".  A key that is neither a basis key
    nor one of ``fields`` is refused.  The basis's constructor checks each
    value."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"a basis must be a JSON object, got {obj!r}")
    known = ("kind", "L", "N", "cA", "lambdas", *fields)
    unknown = next((key for key in obj if key not in known), None)
    if unknown is not None:
        raise InvalidArgumentError(f"unknown key {unknown!r}, not one of {', '.join(known)}")
    kind, L, N, cA = _kind(obj.get("kind"), "kind"), obj.get("L"), obj.get("N"), obj.get("cA")
    if kind != CUSTOM and obj.get("lambdas") is not None:
        raise InvalidArgumentError(f"lambdas are read only for a {CUSTOM} basis, not {kind}")
    if kind == DIRICHLET:
        return make_dirichlet_basis(L, N, cA)
    if kind == PERIODIC:
        return make_periodic_basis(L, N, cA)
    basis = make_custom_basis(obj.get("lambdas"), L, cA)
    if N is not None and _count(N, "N", 1) != basis.mode_count:
        raise InvalidArgumentError(f"lambdas length {basis.mode_count} != N = {N}")
    return basis


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
    basis = basis_from_json(obj, "coeffs")  # first: it refuses an obj that is not a JSON object
    return ModeCoefficients(_complex_pairs(obj.get("coeffs"), "coeffs"), basis)


# --- CSV: a header line, then one row per index of equal-length columns -----

_CSV_BLOCK_ROWS = 1024
_POW5 = 5 ** np.arange(28, dtype=np.uint64)  # 5^(16 - q) for a first guess q >= -11, each < 2^63


def _csv_tables():
    """"d.d.d.d." of 0..9999 as words; for each decimal exponent q of _format17's
    range, -10..15, the 48-byte template "-0.000" d0 "." d1 "." ... d16 "." "e-XX"
    <separator> <pad> as 6 words; per (q, nd digits kept), the mask of the bytes %g
    writes; and, at 10000 j + c, 4j + the digits of c up to its last nonzero one."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    pairs = np.full((digits.shape[0], 8), ord("."), np.uint8)
    pairs[:, ::2] = digits + ord("0")
    q = np.arange(-10, 16)
    template = b"".join(b"-0.000\0." + b"0." * 16 + b"e%+03d" % e + bytes(4) for e in q)
    nd, pos, q = np.arange(18)[:, None], np.arange(48), q[:, None, None]
    i = (pos - 6) // 2  # digit i sits at 6 + 2i, a decimal point slot after it
    fixed = q >= -4  # %g's fixed notation, for q < 17
    digit = (pos >= 6) & (pos <= 38) & (pos % 2 == 0) & (i < np.maximum(nd, q + 1))
    point = (pos > 6) & (pos % 2 == 1) & (i == np.where(q >= 0, q, np.where(fixed, -1, 0))) & (i < nd - 1)
    zeros = fixed & (q < 0) & (pos >= 1) & (pos < 2 - q)  # "0." and -q - 1 zeros
    keep = (pos == 0) | digit | point | zeros | (~fixed & (pos >= 40) & (pos < 44))
    n = ((digits > 0) * np.arange(1, 5, dtype=np.int8)).max(1)
    last = np.where(n > 0, n + np.arange(0, 16, 4, dtype=np.int8)[:, None], 0)
    return (pairs.reshape(-1).view("<u8"), np.frombuffer(template, "<u8").reshape(-1, 6),
            (keep * np.uint8(255)).reshape(-1, 48).view("<u8"), last.reshape(-1))


_PAIRS, _TEMPLATE, _KEEP, _LAST = _csv_tables()


def _scaled(M, E, q):
    """floor(M 2^E 10^(16 - q)) for M < 2^53 and 0 <= 16 - q <= 27, and whether rounding half to
    even adds one: M 5^(16 - q) is formed in 128 bits from 32-bit halves, then scaled by 2^(E + 16 - q)."""
    P = _POW5[16 - q]
    Mh, Ml, Ph, Pl = M >> 32, M & 0xFFFFFFFF, P >> 32, P & 0xFFFFFFFF
    mid, lo = Mh * Pl + Ml * Ph, Ml * Pl
    low = lo + (mid << 32)
    high = Mh * Ph + (mid >> 32) + (low < lo)
    n = q - 16 - E  # at most 63; at n <= 0 the shift is an exact left shift
    s = np.maximum(n, 0).astype(np.uint64)
    D = ((high << (64 - s)) | (low >> s)) << np.maximum(-n, 0).astype(np.uint64)
    rest, half = (low & ((1 << s) - 1)) << 1, 1 << s  # twice the bits shifted out, and 2^s
    return D, (rest > half) | ((rest == half) & (D & 1 == 1))


def _format17(x):
    """The uint8 matrix whose row i holds the bytes of '%.17g' % x[i] and
    zeros, with column 44 free for a separator.  The digits of a finite
    1e-10 <= |x[i]| < 1e16 are computed exactly; the others go through one '%'."""
    ok = (abs(x) >= 1e-10) & (abs(x) < 1e16)
    if not ok.all():
        text = np.empty((x.size, 48), np.uint8)
        bad = np.frombuffer((("%-48.17g" * int(x.size - ok.sum())) % tuple(x[~ok].tolist())).encode(), np.uint8)
        text[~ok], text[ok] = (bad * (bad > 32)).reshape(-1, 48), _format17(x[ok])  # spaces pad to 48
        return text
    f, e = np.frexp(abs(x))
    M, E = (f * 2.0**53).astype(np.uint64), e.astype(np.int64) - 53
    q = np.floor(np.log10(abs(x))).astype(np.int64)
    D, up = _scaled(M, E, q)
    if ((D < 10**16) | (D >= 10**17)).any():  # log10 was one off, next to a power of ten
        q += np.where(D < 10**16, -1, D >= 10**17)
        D, up = _scaled(M, E, q)
    D = (D + up).astype(np.int64)  # never 10^17: no double in the range is within 5e-18 below 10^(q+1)
    head = np.stack([D // 10**e for e in (16, 12, 8, 4, 0)])
    chunks = head[1:] - head[:-1] * 10000  # the 4-digit chunks after the first digit
    last = np.take(_LAST, chunks + np.arange(0, 40000, 10000)[:, None])
    nd = 1 + last.max(axis=0)  # digits up to the last nonzero one
    text = np.take(_TEMPLATE, q + 10, axis=0)
    text[:, 0] |= (head[0] + ord("0")).astype(np.uint64) << 48  # d0 is byte 6
    text[:, 1:5] = np.take(_PAIRS, chunks.T)
    text &= np.take(_KEEP, (q + 10) * 18 + nd, axis=0)
    text[:, 0] &= np.where(x < 0, np.uint64(2**64 - 1), np.uint64(2**64 - 256))  # byte 0 is "-"
    return text.view(np.uint8)


def _write_csv(path, header: str, columns) -> None:
    """Write ``header`` and the rows of ``columns``, arrays or sequences of real numbers (integers up to
    2^53 in magnitude, which '%.17g' writes as '%d' does) of one 1-d or 2-d shape whose values in C order
    are the rows, as _format17 writes them, in blocks of at most _CSV_BLOCK_ROWS values of a row or of whole
    short rows; a column with a zero stride along a row (trajectory_to_csv's times) is formatted once a block."""
    cols = [np.atleast_2d(c) for c in columns]
    if len({c.shape for c in cols}) != 1 or cols[0].ndim != 2:
        raise InvalidArgumentError("CSV columns must share one 1-d or 2-d shape")
    if any(c.dtype.kind not in "iuf" for c in cols):
        raise InvalidArgumentError("CSV columns must hold real numbers")
    if not all(((c >= -(2**53)) & (c <= 2**53)).all() for c in cols if c.dtype.kind in "iu"):
        raise InvalidArgumentError("CSV integers must lie in [-2^53, 2^53], where they are doubles")
    outer, inner = cols[0].shape
    rows = max(1, _CSV_BLOCK_ROWS // max(inner, 1))
    sep = np.frombuffer(b"," * (len(cols) - 1) + b"\n", np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for i in range(0, outer, rows):
            for a in range(0, inner, _CSV_BLOCK_ROWS):
                m = min(_CSV_BLOCK_ROWS, inner - a)
                parts = [c[i : i + rows, a : a + m] if c.strides[1] else c[i : i + rows, a : a + 1] for c in cols]
                text = _format17(np.concatenate([p.ravel() for p in parts], dtype=float))
                ends = np.cumsum([p.size for p in parts])
                out = np.stack([np.broadcast_to(text[e - p.size : e].reshape(*p.shape, 48), (len(p), m, 48))
                                for p, e in zip(parts, ends)], axis=2)
                out[..., 44] = sep
                fh.write(np.compress(out.ravel() != 0, out))
