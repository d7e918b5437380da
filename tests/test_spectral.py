"""Bases, coefficient vectors, norms, grid synthesis/projection, JSON and CSV I/O."""

import dataclasses
import inspect
import json
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import runs_of_equal_eigenvalues
from schrodavg import (
    InvalidArgumentError,
    ModeCoefficients,
    NumericError,
    SpectralBasis,
    Trajectory,
    load_coefficients,
    make_custom_basis,
    make_dirichlet_basis,
    make_periodic_basis,
    project_from_grid,
    sample_trajectory,
    save_coefficients,
    sobolev_norm,
    synthesize_on_grid,
    trajectory_sup_norm,
    unit_floor_shift,
)
from schrodavg.averaging import ZetaFactors, zeta_to_csv
from schrodavg import AveragingParams, conditioning_report, zeta_factors
from schrodavg.recover import report_to_csv
from schrodavg.spectral import (
    _CSV_BLOCK_ROWS,
    _SQRT_TINY,
    _mode_matrix,
    _norm_weights,
    _weighted_norm,
    _write_csv,
    basis_from_json,
    basis_to_json,
)


def _extreme_complex(n: int, seed: int) -> np.ndarray:
    """n seeded complex values whose parts are signed zeros, subnormals, near
    the largest double, or anywhere between."""
    rng = np.random.default_rng(seed)
    exps = np.choose(rng.choice(3, (n, 2), p=[0.2, 0.2, 0.6]), [
        rng.uniform(307.0, 308.25, (n, 2)), rng.uniform(-323.3, -308.0, (n, 2)), rng.uniform(-300.0, 300.0, (n, 2))])
    parts = rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** exps
    parts[rng.random((n, 2)) < 0.02] *= 0.0  # signed zeros
    return parts[:, 0] + 1j * parts[:, 1]


class TestBasisConstruction:
    def test_dirichlet_eigenvalues_exact(self):
        b = make_dirichlet_basis(1.0, 3, 0.0)
        # closed form is exact, not approximate
        assert np.array_equal(b.lambdas, (np.arange(1, 4) * np.pi) ** 2)
        assert np.allclose(b.lambdas, [9.8696, 39.4784, 88.8264], atol=1e-4)

    def test_dirichlet_long_interval(self):
        b = make_dirichlet_basis(2.0, 1, 0.0)
        assert b.lambdas[0] == pytest.approx((np.pi / 2) ** 2)
        assert b.lambdas[0] == pytest.approx(2.4674, abs=1e-4)

    def test_empty_basis_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_dirichlet_basis(1.0, 0, 0.0)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_dirichlet_basis(0.0, 3, 0.0)
        with pytest.raises(InvalidArgumentError):
            make_dirichlet_basis(-1.0, 3, 0.0)

    def test_default_norm_shift_policy(self):
        # min lambda >= 1 -> 0, else 1 - min lambda
        assert make_dirichlet_basis(1.0, 4).c_A == 0.0
        assert make_periodic_basis(1.0, 5).c_A == 1.0
        assert make_custom_basis([-2.0, 0.5, 3.0]).c_A == 3.0
        assert unit_floor_shift([0.25]) == 0.75

    @pytest.mark.parametrize("lam_min", [-1e16, -2.0**53, -(1.0 + 2.0**-52)])
    def test_default_shift_reaches_one_where_the_difference_rounds(self, lam_min):
        # 1 - lam_min rounds, so lam_min + (1 - lam_min) falls short of 1: at
        # 0 for the first two (the basis was refused), 1 - 2^-52 for the tie
        assert lam_min + (1.0 - lam_min) < 1.0
        q = unit_floor_shift([lam_min, 0.0, 5.0])
        assert lam_min + q >= 1.0 > lam_min + math.nextafter(q, 0.0)  # the smallest such q
        b = make_custom_basis([lam_min, 0.0, 5.0])
        assert b.c_A == q
        assert _norm_weights(b, 1).min() >= 1.0

    def test_default_shift_overflow_names_the_eigenvalue(self):
        # 1 - (-DBL_MAX) rounds to DBL_MAX, and the next double is inf: the
        # error names min(lambda), not the c_A the caller never passed
        assert unit_floor_shift([-sys.float_info.max]) == math.inf
        with pytest.raises(InvalidArgumentError, match=r"min\(lambda\) = -1\.79") as err:
            make_custom_basis([-sys.float_info.max, 0.0])
        assert "c_A must" not in str(err.value)

    def test_default_shift_moves_only_where_the_difference_rounds_short(self):
        rng = np.random.default_rng(11)
        lam = -(10.0 ** rng.uniform(-3.0, 20.0, 2000)) * rng.uniform(1.0, 2.0, 2000)
        for x in np.r_[lam, -lam, 0.0, -0.0, 1.0, -1.0, -2.0**52, -1e15].tolist():
            old = max(0.0, 1.0 - x)
            assert unit_floor_shift([x]) == old or x + old < 1.0, x

    @pytest.mark.parametrize("N", [1, 2, 3, 6, 2**16])
    def test_periodic_frequency_ordering(self, N):
        b = make_periodic_basis(1.0, N)
        assert list(b.labels[:6]) == [0, 1, -1, 2, -2, 3][:N]
        assert np.allclose(b.lambdas, (2 * np.pi * b.labels) ** 2)
        assert np.all(np.diff(b.lambdas) >= 0)
        # the loop that built the labels before the closed form replaced it
        ref = np.zeros(N, dtype=int)
        for i in range(1, N):
            j = (i + 1) // 2
            ref[i] = j if i % 2 == 1 else -j
        assert b.labels.dtype == ref.dtype and np.array_equal(b.labels, ref)

    def test_custom_requires_sorted_finite(self):
        with pytest.raises(InvalidArgumentError):
            make_custom_basis([3.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            make_custom_basis([np.nan, 1.0])

    def test_shift_must_keep_weights_positive(self):
        with pytest.raises(InvalidArgumentError):
            make_custom_basis([0.0, 1.0], c_A=0.0)
        with pytest.raises(InvalidArgumentError):
            make_periodic_basis(1.0, 3, c_A=0.0)

    def test_arrays_are_read_only(self):
        b = make_dirichlet_basis(1.0, 3)
        with pytest.raises(ValueError):
            b.lambdas[0] = 0.0
        with pytest.raises(ValueError):
            b.labels[0] = 0

    def test_a_basis_is_its_kind_length_eigenvalues_and_shift(self):
        # labels derive from the kind, and no eigenfunction callable is held
        assert [f.name for f in dataclasses.fields(SpectralBasis)] == ["kind", "domain_length", "lambdas", "c_A"]
        assert list(inspect.signature(make_custom_basis).parameters) == ["lambdas", "domain_length", "c_A"]

    @pytest.mark.parametrize("L", [1.0, 2.5, 1e-3])
    @pytest.mark.parametrize("N", [1, 2, 3, 6, 2**16])
    def test_presets_bitwise_as_their_former_builders(self, N, L):
        # the builders' bodies before one closed-form rule served both
        k = np.arange(1, N + 1)
        m = (np.arange(N) + 1) // 2
        m[2::2] *= -1
        for b, labels, lam in ((make_dirichlet_basis(L, N), k, (k * np.pi / L) ** 2),
                               (make_periodic_basis(L, N), m, (2.0 * np.pi * m / L) ** 2)):
            assert b.labels.dtype == labels.dtype and np.array_equal(b.labels, labels)
            assert b.lambdas.tobytes() == lam.tobytes()

    def test_custom_labels_are_positions(self):
        assert make_custom_basis([-1.0, 0.0, 7.0]).labels.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("kind", ["dirichlet_interval", "periodic_interval"])
    def test_preset_with_foreign_eigenvalues_refused(self, kind):
        # the codec writes a preset as (kind, L, N): eigenvalues other than its
        # closed form would not survive a save and load
        with pytest.raises(InvalidArgumentError, match="make_custom_basis"):
            SpectralBasis(kind, 1.0, [5.0, 6.0], None)
        own = (make_dirichlet_basis if kind == "dirichlet_interval" else make_periodic_basis)(1.0, 3)
        b = SpectralBasis(kind, 1.0, own.lambdas, None)
        assert np.array_equal(b.labels, own.labels) and b.c_A == own.c_A
        # bit for bit: one ulp off, or a signed zero, is foreign too
        for lam in (np.nextafter(own.lambdas, np.inf), np.r_[-0.0, own.lambdas[1:]]):
            with pytest.raises(InvalidArgumentError, match="closed-form"):
                SpectralBasis(kind, 1.0, lam, None)

    @pytest.mark.parametrize("make, L, N", [
        (make_dirichlet_basis, 1e-160, 1), (make_periodic_basis, 1e-160, 2), (make_dirichlet_basis, 1e-150, 10**6),
    ], ids=["dirichlet", "periodic", "dirichlet N = 10^6"])
    def test_overflowing_closed_form_names_L_and_N(self, make, L, N):
        # (pi N / L)^2 or (2 pi m / L)^2 beyond the largest double: the builder
        # names its own arguments, not "lambdas", and numpy does not warn
        with pytest.raises(InvalidArgumentError, match=rf"^L = {L!r} with N = {N} overflows the largest \w+ eigenvalue$"):
            make(L, N)
        assert make_periodic_basis(1e-160, 1).lambdas.tolist() == [0.0]  # m = 0 alone stays finite
        # by hand, the overflowing closed form is not the eigenvalues given
        with pytest.raises(InvalidArgumentError, match="closed-form lambdas; use make_custom_basis"):
            SpectralBasis("dirichlet_interval", L, [1.0], None)

    @pytest.mark.parametrize("make", [
        lambda: make_dirichlet_basis(2.5, 7, 0.25),
        lambda: make_periodic_basis(0.3, 6),
        lambda: make_custom_basis([-2.0, 0.5, 0.5, 3.0], 4.0),
    ], ids=["dirichlet", "periodic", "custom"])
    def test_json_round_trip_is_bitwise(self, make):
        b = make()
        back = basis_from_json(basis_to_json(b))
        assert (back.kind, back.domain_length, back.c_A) == (b.kind, b.domain_length, b.c_A)
        for name in ("lambdas", "labels"):
            got, want = getattr(back, name), getattr(b, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestCoefficients:
    def test_length_must_match(self):
        b = make_dirichlet_basis(1.0, 3, 0.0)
        with pytest.raises(InvalidArgumentError):
            ModeCoefficients([1.0, 2.0], b)

    def test_nonfinite_rejected(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        with pytest.raises(InvalidArgumentError):
            ModeCoefficients([1.0, np.inf], b)
        with pytest.raises(InvalidArgumentError):
            ModeCoefficients([1.0, complex(0, np.nan)], b)
        # a part alone, the other finite
        for bad in (complex(1.0, np.inf), complex(1.0, -np.inf), complex(1.0, np.nan), complex(np.nan, 0.0)):
            with pytest.raises(InvalidArgumentError, match="finite"):
                ModeCoefficients([bad, 2.0], b)


class TestNorms:
    def test_single_mode_h1_is_sqrt_lambda(self):
        b = make_dirichlet_basis(1.0, 1, 0.0)
        c = ModeCoefficients([1.0], b)
        assert sobolev_norm(c, 1) == pytest.approx(np.pi, rel=1e-15)

    def test_order_zero_is_euclidean(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        assert sobolev_norm(ModeCoefficients([3.0, 4.0], b), 0) == pytest.approx(5.0)

    def test_single_mode_h2_is_lambda(self):
        b = make_dirichlet_basis(1.0, 1, 0.0)
        c = ModeCoefficients([1.0], b)
        assert sobolev_norm(c, 2) == pytest.approx(np.pi**2, rel=1e-15)

    def test_parseval(self):
        b = make_dirichlet_basis(1.0, 50, 0.0)
        rng = np.random.default_rng(5)
        v = rng.normal(size=50) + 1j * rng.normal(size=50)
        c = ModeCoefficients(v, b)
        assert sobolev_norm(c, 0) ** 2 == pytest.approx(np.sum(np.abs(v) ** 2), rel=1e-12)

    def test_norm_ordering_when_lambdas_at_least_one(self):
        b = make_dirichlet_basis(1.0, 16, 0.0)  # lambda_1 ~ 9.87 >= 1
        rng = np.random.default_rng(6)
        c = ModeCoefficients(rng.normal(size=16) + 1j * rng.normal(size=16), b)
        assert sobolev_norm(c, 0) <= sobolev_norm(c, 1) <= sobolev_norm(c, 2)

    def test_invalid_order(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        c = ModeCoefficients([1.0, 0.0], b)
        sobolev_norm(c, 1)  # kept weights must not let a bad order through
        for order in (3, True, 3, True):
            with pytest.raises(InvalidArgumentError):
                sobolev_norm(c, order)

    def test_overflowing_squares_rescaled(self):
        # |1e200|^2 overflows; the norm itself is finite
        b = make_dirichlet_basis(1.0, 2)
        assert sobolev_norm(ModeCoefficients([1e200, 1.0], b), 0) == 1e200
        assert sobolev_norm(ModeCoefficients([3e200, 4e200j], b), 0) == pytest.approx(5e200, rel=1e-15)

    def test_sup_norm_rescaled_too(self):
        b = make_dirichlet_basis(1.0, 2)
        traj = sample_trajectory(ModeCoefficients([1e200, 1.0], b), 1.0, 4)
        assert trajectory_sup_norm(traj, 0) == pytest.approx(1e200, rel=1e-15)

    def test_underflowing_squares_rescaled(self):
        # |1e-200|^2 underflows to 0; the norm itself is a normal double
        b = make_dirichlet_basis(1.0, 2)
        assert sobolev_norm(ModeCoefficients([1e-200, 0.0], b), 0) == 1e-200
        assert sobolev_norm(ModeCoefficients([3e-200, 4e-200], b), 0) == 5e-200
        assert sobolev_norm(ModeCoefficients([1e-200, 0.0], b), 1) == pytest.approx(np.pi * 1e-200, rel=1e-15)
        traj = sample_trajectory(ModeCoefficients([1e-170, 1e-170j], b), 1.0, 2)
        assert trajectory_sup_norm(traj, 0) == pytest.approx(np.sqrt(2.0) * 1e-170, rel=1e-15)

    def test_zero_rows_stay_zero_when_rescaled(self):
        # the rescaled route divides no zero row by its zero maximum
        b = make_dirichlet_basis(1.0, 2)
        for order in (0, 1, 2):
            assert sobolev_norm(ModeCoefficients([0.0, 0.0], b), order) == 0.0
        assert _weighted_norm(np.array([[0.0, 0.0], [1e-200, 0.0]], dtype=complex), None, 0) == 1e-200

    @pytest.mark.parametrize("lambdas, values, order", [
        ([1e20], [1.2345e-161], 1),  # |c|^2 is subnormal, w |c|^2 is not
        ([1e20], [1e-160], 1),
        ([1e20], [1e-170j], 2),
        ([1.0, 1e20], [1e-150, 3e-161 + 4e-161j], 1),
        ([1.0, 1e20], [3e-150, 0.0], 1),  # the huge weight sits on a zero
        ([1e-300], [3e-12], 1),  # w |c|^2 is subnormal, |c|^2 is not
    ])
    def test_tiny_coefficients_under_large_weights(self, lambdas, values, order):
        c = ModeCoefficients(values, make_custom_basis(lambdas, 1.0, 0.0))
        with mpmath.workdps(50):
            ref = mpmath.sqrt(sum(mpmath.mpf(lam) ** order * abs(mpmath.mpc(v)) ** 2
                                  for lam, v in zip(lambdas, values)))
            expected = float(ref)
        assert sobolev_norm(c, order) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error")  # NumericError is the only signal
    @pytest.mark.parametrize("values", [[1.0, 1.0], [1.0, 0.0]])
    def test_overflowing_weight_named(self, values):
        # lambda^2 = 1e600 overflows the order-2 weight (inf, or nan on a zero)
        c = ModeCoefficients(values, make_custom_basis([1.0, 1e300]))
        assert sobolev_norm(c, 1) > 0
        for _ in range(2):  # the kept inf weight raises again on the next call
            with pytest.raises(NumericError, match="order-2"):
                sobolev_norm(c, 2)


    @pytest.mark.filterwarnings("error")
    def test_underflowing_weight_named(self):
        # lambda^2 = 1e-400 rounds to 0, and c_A = 0 adds nothing: a numeric
        # limit of a valid basis, not a bad argument
        c = ModeCoefficients([1.0, 1.0, 1.0], make_custom_basis([1e-200, 1e-170, 1.0], 1.0, 0.0))
        assert sobolev_norm(c, 1) > 0
        for _ in range(2):  # nothing is kept, so the next call raises again
            with pytest.raises(NumericError, match="order-2 weight of mode 1 underflows"):
                sobolev_norm(c, 2)

    def test_one_overflowing_mode_of_several_named(self):
        # |1e200|^2 times the weight 1e308 overflows even rescaled
        c = ModeCoefficients([1.0, 1.0, 1e200], make_custom_basis([1.0, 1.0, 1e308]))
        assert sobolev_norm(c, 0) == 1e200
        with pytest.raises(NumericError, match="order-1"):
            sobolev_norm(c, 1)

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_one_nan_row_of_several_named(self, row):
        # the largest row norm is finite only when every row's is: max passes on a NaN
        values = np.array([[1.0, 1.0], [3.0, 4.0], [1e200, 1.0]], dtype=complex)
        values[row, 0] = np.nan
        with pytest.raises(NumericError, match="order-0"):
            _weighted_norm(values, None, 0)
        assert _weighted_norm(np.delete(values, row, axis=0), None, 0) == (1e200 if row < 2 else 5.0)


def norm_two_squares(values, w):
    """The largest row norm as _weighted_norm took it, with |c|^2 taken as
    c.real**2 + c.imag**2: each row's plain norm where it lies in [lo, inf),
    its rescaled norm elsewhere."""

    def norm_of(c):
        sq = c.real**2 + c.imag**2
        return np.sqrt((sq if w is None else w * sq).sum(-1))

    lo = _SQRT_TINY if w is None else _SQRT_TINY * math.sqrt(max(1.0, w.max()))
    with np.errstate(over="ignore", invalid="ignore"):
        norm = norm_of(values)
        m = np.abs(values).max(axis=-1, keepdims=True)
        scaled = m[..., 0] * norm_of(np.divide(values, m, out=np.zeros_like(values), where=m > 0))
    return float(np.where((lo <= norm) & (norm < np.inf), norm, scaled).max())


class TestOneSquarePass:
    """_weighted_norm squares the interleaved parts in one contiguous pass and
    adds the halves; every norm must keep the bits of c.real**2 + c.imag**2."""

    N = 37

    def rows(self, rng, kind):
        v = rng.normal(size=(6, self.N)) + 1j * rng.normal(size=(6, self.N))
        if kind == "subnormal":
            v *= 10.0 ** rng.uniform(-323.0, -300.0, v.shape)
        elif kind == "huge":
            v *= 10.0 ** rng.uniform(150.0, 280.0, v.shape)
        elif kind == "mixed":
            v *= 10.0 ** rng.uniform(-320.0, 280.0, v.shape)
        v[1] = 0.0  # a zero row
        v[2, ::3] = 0.0
        v[3, ::2] = complex(5e-324, -0.0)
        return v

    @pytest.mark.parametrize("kind", ["normal", "subnormal", "huge", "mixed"])
    @pytest.mark.parametrize("lambdas", [None, "dirichlet", "wide"])
    def test_rows_match_two_squares(self, kind, lambdas):
        rng = np.random.default_rng(len(kind) + 7)
        if lambdas is None:
            w = None
        elif lambdas == "dirichlet":
            w = _norm_weights(make_dirichlet_basis(1.0, self.N), 1)
        else:
            w = _norm_weights(make_custom_basis(np.geomspace(1e-3, 1e20, self.N), 1.0, 0.0), 1)
        v = self.rows(rng, kind)
        for block in [v] + list(v):  # a block takes one route; a single row its own
            assert _weighted_norm(block, w, 1) == norm_two_squares(block, w), kind

    def test_strided_rows_as_contiguous(self):
        b = make_dirichlet_basis(1.0, 8)
        rng = np.random.default_rng(3)
        states = np.asfortranarray(rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8)))
        for order in (0, 1):
            got = trajectory_sup_norm(Trajectory(np.arange(5.0), states, b), order)
            assert got == trajectory_sup_norm(Trajectory(np.arange(5.0), np.ascontiguousarray(states), b), order)


def _product_form_norm(v):
    """The order-0 norm as it was taken, times an array of N ones."""
    ones = np.ones(v.size)
    with np.errstate(over="ignore"):
        norm = np.sqrt((ones * (v.real**2 + v.imag**2)).sum())
        if np.isfinite(norm):
            return float(norm)
        m = np.abs(v).max()
        c = v / m
        return float(m * np.sqrt((ones * (c.real**2 + c.imag**2)).sum()))


class TestNormWeights:
    def test_built_once_per_basis_and_order_read_only(self):
        b = make_periodic_basis(1.0, 5)
        for order, want in ((1, b.lambdas + 1.0), (2, b.lambdas**2 + 1.0)):
            w = _norm_weights(b, order)
            assert np.array_equal(w, want)
            assert not w.flags.writeable
            assert _norm_weights(b, order) is w

    def test_order_zero_keeps_no_array_and_no_bit_moves(self):
        # unit weights are skipped, not multiplied: x * 1.0 == x exactly
        rng = np.random.default_rng(21)
        for make in (make_dirichlet_basis, make_periodic_basis):
            b = make(1.0, 4096)
            v = rng.normal(size=4096) + 1j * rng.normal(size=4096)
            v *= 10.0 ** rng.uniform(-160.0, 160.0, 4096)  # some squares overflow
            assert _norm_weights(b, 0) is None
            assert sobolev_norm(ModeCoefficients(v, b), 0) == _product_form_norm(v)
            traj = sample_trajectory(ModeCoefficients(v, b), 1.0, 4)
            want = max(_product_form_norm(row) for row in traj.states)
            assert trajectory_sup_norm(traj, 0) == want
            assert b._weights == {}

    def test_nonpositive_weights_refused_on_every_call(self):
        # a basis altered after its checks ran, as a hand-built one could be
        b = make_dirichlet_basis(1.0, 2)
        object.__setattr__(b, "c_A", -100.0)
        for _ in range(2):
            with pytest.raises(InvalidArgumentError, match="order-1"):
                _norm_weights(b, 1)


class TestDistinctMap:
    """A basis keeps its distinct eigenvalues and the index that maps them
    back to the modes, or its eigenvalues and None when every one is
    distinct."""

    @pytest.mark.parametrize("make", [
        lambda: make_dirichlet_basis(1.0, 64),
        lambda: make_custom_basis([-1.0, 0.0, 2.0]),
    ])
    def test_no_index_when_every_eigenvalue_differs(self, make):
        b = make()
        distinct, index = b._distinct
        assert distinct is b.lambdas and index is None

    @pytest.mark.parametrize("make", [
        lambda: make_periodic_basis(1.0, 9),
        lambda: make_custom_basis(runs_of_equal_eigenvalues(40)),
    ])
    def test_gathers_every_bit_back(self, make):
        b = make()
        distinct, index = b._distinct
        assert np.array_equal(distinct[index].view(np.int64), b.lambdas.view(np.int64))
        assert np.all(np.diff(distinct.view(np.int64)) != 0)
        assert not distinct.flags.writeable and not index.flags.writeable
        assert b._weights == {}

    def test_signed_zeros_stay_apart(self):
        distinct, index = make_custom_basis([-0.0, 0.0, 0.0, 1.0])._distinct
        assert np.signbit(distinct).tolist() == [True, False, False]
        assert distinct.tolist() == [0.0, 0.0, 1.0]
        assert index.tolist() == [0, 1, 1, 2]


class TestGridTransforms:
    def test_first_mode_at_midpoint(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        vals = synthesize_on_grid(ModeCoefficients([1.0, 0.0], b), 5)  # x = 0, .25, .5, .75, 1
        assert vals[2] == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_second_mode_node_at_midpoint(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        vals = synthesize_on_grid(ModeCoefficients([0.0, 1.0], b), 5)
        assert abs(vals[2]) < 1e-15

    def test_zero_coefficients_zero_samples(self):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        assert np.all(synthesize_on_grid(ModeCoefficients(np.zeros(4), b), 17) == 0)

    def test_projection_round_trip(self):
        b = make_dirichlet_basis(1.0, 8, 0.0)
        rng = np.random.default_rng(7)
        c = ModeCoefficients(rng.normal(size=8) + 1j * rng.normal(size=8), b)
        back = project_from_grid(synthesize_on_grid(c, 1024), b)
        assert np.abs(back.values - c.values).max() < 1e-6

    def test_cross_mode_orthonormality(self):
        b = make_dirichlet_basis(1.0, 6, 0.0)
        for k in range(6):
            e = np.zeros(6)
            e[k] = 1.0
            p = project_from_grid(synthesize_on_grid(ModeCoefficients(e, b), 1024), b)
            assert np.abs(p.values - e).max() < 1e-6

    def test_band_limited_round_trip_is_exact(self):
        # uniform-grid quadrature integrates retained-band trig products to
        # rounding, so the round-trip error floors at machine precision
        b = make_dirichlet_basis(1.0, 6, 0.0)
        rng = np.random.default_rng(8)
        c = ModeCoefficients(rng.normal(size=6) + 1j * rng.normal(size=6), b)
        for M in (65, 257, 1025):
            back = project_from_grid(synthesize_on_grid(c, M), b)
            assert np.abs(back.values - c.values).max() < 5e-15

    def test_projection_has_simpson_order_on_smooth_data(self):
        # out-of-band content exposes the quadrature order: halving h should
        # shrink the error by about 2^4
        b = make_dirichlet_basis(1.0, 1, 0.0)
        exact = np.sqrt(2.0) * 4.0 / np.pi**3  # integral of x(1-x) sin(pi x), scaled

        def err(M):
            x = np.linspace(0.0, 1.0, M)
            return abs(project_from_grid((x * (1.0 - x)).astype(complex), b).values[0] - exact)

        assert err(17) / err(33) > 8.0
        assert err(33) / err(65) > 8.0

    @pytest.mark.parametrize("L", [1.0, 2.5])
    @pytest.mark.parametrize("make", [make_dirichlet_basis, make_periodic_basis])
    @pytest.mark.parametrize("M", [3, 4, 5, 6, 7, 8, 9, 10, 258, 2050])
    def test_projection_bitwise_equals_scipy_simpson(self, make, M, L):
        # the in-package rule replaces scipy.integrate.simpson, even-count end
        # correction included, without changing a single bit
        b = make(L, 5)
        x = np.linspace(0.0, L, M)
        rng = np.random.default_rng(M)
        y = rng.normal(size=M) + 1j * rng.normal(size=M)
        want = simpson(y[:, None] * np.conj(_mode_matrix(b, x)), x=x, axis=0)
        assert np.array_equal(project_from_grid(y, b).values, want)

    def test_periodic_round_trip(self):
        b = make_periodic_basis(1.0, 7)
        rng = np.random.default_rng(9)
        c = ModeCoefficients(rng.normal(size=7) + 1j * rng.normal(size=7), b)
        back = project_from_grid(synthesize_on_grid(c, 1024), b)
        assert np.abs(back.values - c.values).max() < 1e-6

    def test_zero_samples_project_to_zero(self):
        b = make_dirichlet_basis(1.0, 3, 0.0)
        p = project_from_grid(np.zeros(65, dtype=complex), b)
        assert np.all(p.values == 0)

    def test_custom_without_evaluator_unsupported(self):
        b = make_custom_basis([1.0, 2.0])
        with pytest.raises(InvalidArgumentError, match="take a dirichlet_interval or periodic_interval basis, not custom"):
            synthesize_on_grid(ModeCoefficients([1.0, 0.0], b), 9)

    @pytest.mark.parametrize("make", [make_dirichlet_basis, make_periodic_basis])
    def test_round_trip_spans_the_basis_length(self, make):
        # both transforms take their points on the basis's [0, 2], not on [0, 1]
        b = make(2.0, 2)
        c = ModeCoefficients([1.0, 0.5], b)
        assert np.abs(project_from_grid(synthesize_on_grid(c, 257), b).values - c.values).max() < 1e-14


class TestJsonSchema:
    def test_round_trip_dirichlet(self, tmp_path):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        c = ModeCoefficients([1.0, -0.5j, 0.25, 0.125 + 1j], b)
        path = tmp_path / "c.json"
        save_coefficients(path, c)
        obj = json.loads(path.read_text())
        assert set(obj) == {"kind", "L", "N", "cA", "coeffs"}
        assert obj["kind"] == "dirichlet_interval"
        back = load_coefficients(path)
        assert np.array_equal(back.values, c.values)
        assert np.array_equal(back.basis.lambdas, b.lambdas)

    @pytest.mark.parametrize("basis", [make_dirichlet_basis(1.0, 3000), make_custom_basis(np.arange(3000.0))],
                             ids=["dirichlet", "custom"])
    def test_bytes_as_the_per_value_loop(self, tmp_path, basis):
        c = ModeCoefficients(_extreme_complex(3000, 24), basis)
        path = tmp_path / "c.json"
        save_coefficients(path, c)
        coeffs = [[float(v.real), float(v.imag)] for v in c.values]
        assert path.read_text() == json.dumps(basis_to_json(basis, coeffs=coeffs), indent=2) + "\n"

    def test_round_trip_custom_keeps_lambdas(self, tmp_path):
        b = make_custom_basis([-2.0, 0.5, 3.0])
        c = ModeCoefficients([1.0, 2.0, 3.0], b)
        path = tmp_path / "c.json"
        save_coefficients(path, c)
        assert json.loads(path.read_text())["lambdas"] == [-2.0, 0.5, 3.0]
        back = load_coefficients(path)
        assert np.array_equal(back.basis.lambdas, b.lambdas)
        assert back.basis.c_A == b.c_A

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        for obj in (
            {"kind": "dirichlet_interval", "L": 1.0},
            {"kind": "nope", "L": 1.0, "N": 1, "cA": 0.0, "coeffs": [[1, 0]]},
            {"kind": "custom", "L": 1.0, "N": 1, "cA": 1.0, "coeffs": [[1, 0]]},
            # a non-integral N is refused, not truncated to 1
            {"kind": "dirichlet_interval", "L": 1.0, "N": 1.5, "cA": 0.0, "coeffs": [[1, 0]]},
            {"kind": "custom", "L": 1.0, "N": 2, "cA": 1.0, "lambdas": [1.0], "coeffs": [[1, 0]]},
            {"kind": "custom", "L": 1.0, "N": 1, "cA": 1.0, "lambdas": ["a"], "coeffs": [[1, 0]]},
            [{"kind": "dirichlet_interval", "L": 1.0, "N": 1, "cA": 0.0, "coeffs": [[1, 0]]}],  # not an object
        ):
            path.write_text(json.dumps(obj))
            with pytest.raises(InvalidArgumentError):
                load_coefficients(path)

    @pytest.mark.parametrize("kind", ["dirichlet_interval", "periodic_interval"])
    def test_lambdas_of_a_preset_basis_refused(self, tmp_path, kind):
        # only a custom basis reads them: a preset would otherwise take its own
        # eigenvalues (pi^2, 4 pi^2) in place of the file's without a word
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": kind, "L": 1.0, "N": 2, "cA": 0.0, "lambdas": [5.0, 6.0],
                                    "coeffs": [[1, 0], [0, 1]]}))
        with pytest.raises(InvalidArgumentError, match="lambdas"):
            load_coefficients(path)

    def test_unknown_key_refused(self, tmp_path):
        # "ca" for "cA" loaded with the default shift, c_A = 0, where a config
        # file refuses the same typo
        path = tmp_path / "c.json"
        obj = {"kind": "dirichlet_interval", "L": 1.0, "N": 1, "ca": 5.0, "coeffs": [[1, 0]], "cz": 1}
        path.write_text(json.dumps(obj))
        with pytest.raises(InvalidArgumentError, match="unknown key 'ca', not one of kind, L, N, cA, lambdas, coeffs"):
            load_coefficients(path)
        del obj["ca"], obj["cz"]
        path.write_text(json.dumps(obj))
        assert load_coefficients(path).basis.c_A == 0.0

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="cannot read"):
            load_coefficients(tmp_path / "absent.json")

    def test_malformed_json_refused(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(InvalidArgumentError, match="cannot read"):
            load_coefficients(path)


def _rows_one_fstring_at_a_time(header, columns):
    """The per-row f-string code the CSV writers used before the shared writer."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(
            x if isinstance(x, str) else f"{x}" if isinstance(x, (int, np.integer))
            else f"{x:.17g}"
            for x in row
        ))
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    # name the first differing line: pytest's own diff of two multi-megabyte
    # strings takes minutes
    if got != want:
        g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i} differs: {g[i:i + 1]!r} != {w[i:i + 1]!r}")


class TestCsvWriter:
    SPECIAL = [
        np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
        2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
        1e-5, 9.9999999999999995e-5, 1e-4, 1e16, 1e17, -1e17, 0.1, 1.0 / 3.0,
    ]

    def test_bytes_match_per_row_fstrings(self, tmp_path):
        rng = np.random.default_rng(20)
        n = 50_000 + len(self.SPECIAL)  # 10^5 random doubles over two columns
        assert n % _CSV_BLOCK_ROWS != 0
        bits = rng.integers(0, 2**64, n - len(self.SPECIAL), dtype=np.uint64, endpoint=False)
        raw = np.concatenate([self.SPECIAL, bits.view(np.float64)])  # every exponent
        scaled = np.concatenate([
            self.SPECIAL[::-1], rng.standard_normal(n - len(self.SPECIAL))
            * 10.0 ** rng.uniform(-20.0, 20.0, n - len(self.SPECIAL)),
        ])
        ks = np.arange(1, n + 1)
        labels = [f"{t:.17g}" for t in rng.uniform(0.0, 2.0, n)]
        columns = [labels, ks, raw, scaled]
        path = tmp_path / "w.csv"
        _write_csv(path, "t,k,a,b", columns)
        assert_same_text(path.read_text(), _rows_one_fstring_at_a_time("t,k,a,b", columns))

    @pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                   _CSV_BLOCK_ROWS + 1])
    def test_block_edges(self, tmp_path, n):
        vals = np.linspace(-1.0, 1.0, n)
        path = tmp_path / "w.csv"
        _write_csv(path, "k,x", [range(1, n + 1), vals])
        want = _rows_one_fstring_at_a_time("k,x", [range(1, n + 1), vals])
        assert_same_text(path.read_text(), want)

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            _write_csv(tmp_path / "w.csv", "a,b", [[1.0, 2.0], [1.0]])

    @pytest.mark.parametrize("n", [5, _CSV_BLOCK_ROWS + 1])
    def test_broadcast_2d_columns_match_flat_rows(self, tmp_path, n):
        # trajectory_to_csv's form: t and k broadcast over (times, N), with rows
        # of N values narrower and wider than a block
        rng = np.random.default_rng(22)
        times = np.array([f"{t:.17g}" for t in rng.uniform(0.0, 2.0, 3)])
        t, k = np.broadcast_to(times[:, None], (3, n)), np.broadcast_to(np.arange(1, n + 1), (3, n))
        z = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        columns = [t, k, z.real, z.imag]
        path = tmp_path / "w.csv"
        _write_csv(path, "t,k,re,im", columns)
        want = _rows_one_fstring_at_a_time("t,k,re,im", [c.ravel() for c in columns])
        assert_same_text(path.read_text(), want)

    def test_list_of_numpy_scalars_prints_17g(self, tmp_path):
        # zeta_to_csv's abs_zeta column is a list of np.float64, whose str is shorter
        vals = [abs(z) for z in np.array([0.1 + 0j, 1.0 / 3.0 + 0j, 3.0 + 4.0j])]
        path = tmp_path / "w.csv"
        _write_csv(path, "k,x", [range(1, 4), vals])
        assert path.read_text() == "k,x\n1,0.10000000000000001\n2,0.33333333333333331\n3,5\n"

    def test_1d_and_2d_columns_of_equal_size_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            _write_csv(tmp_path / "w.csv", "a,b", [np.zeros(6), np.zeros((2, 3))])

    def test_zeta_file_as_the_per_factor_loop_at_the_extremes(self, tmp_path):
        # np.hypot of the parts against the loop of scalar abs it replaced, on
        # parts from subnormal to near the largest double, signed zeros too
        z = _extreme_complex(40_000, 23)
        basis = make_custom_basis(np.linspace(0.0, 1.0, z.size), 1.0, 1.0)
        path, ref = tmp_path / "zeta.csv", tmp_path / "loop.csv"
        zeta_to_csv(ZetaFactors(z, basis), path)
        _write_csv(ref, "k,lambda,zeta_re,zeta_im,abs_zeta",
                   [range(1, z.size + 1), basis.lambdas, z.real, z.imag, [abs(v) for v in z]])
        assert path.read_bytes() == ref.read_bytes()
        assert "inf" in path.read_text()  # some |z| overflows although both parts are finite

    def test_zeta_abs_overflow_reads_inf_without_a_warning(self, tmp_path):
        # factors whose parts are finite but whose modulus passes the largest
        # double; the scalar abs wrote inf there and warned of nothing
        basis = make_custom_basis([0.08648393877396655])
        f = zeta_factors(basis, AveragingParams(0.16751999221150318, 4228.1111148354485))
        assert np.isfinite(f.values).all()
        path = tmp_path / "zeta.csv"
        zeta_to_csv(f, path)
        assert path.read_text().splitlines()[1].endswith(",inf")

    def test_zeta_abs_column_is_scalar_abs_per_factor(self, tmp_path):
        # numpy's vectorised abs differs from its scalar abs in the last bit
        # on about a third of random complex doubles; the column keeps the
        # scalar one it has always written
        rng = np.random.default_rng(21)
        n = 20_000
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-5, 5, n)
        basis = make_custom_basis(np.linspace(0.0, 1.0, n), 1.0, 1.0)
        path = tmp_path / "zeta.csv"
        zeta_to_csv(ZetaFactors(z, basis), path)
        got = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        assert got == [f"{abs(v):.17g}" for v in z]
        assert got != [f"{v:.17g}" for v in np.abs(z)]  # the check can tell them apart

    def test_the_two_abs_zeta_columns_agree_to_two_ulps(self, tmp_path):
        # average, recover and roundtrip write zeta_to_csv's np.hypot column,
        # conditioning writes report_to_csv's np.abs one (ZetaFactors.abs_values):
        # both files are pinned by digests, so the last bits stay apart
        basis, params = make_dirichlet_basis(1.0, 4096), AveragingParams(1.0 + 0.7j, 1.0)
        zeta_to_csv(zeta_factors(basis, params), tmp_path / "average.csv")
        report_to_csv(conditioning_report(basis, params), tmp_path / "conditioning.csv")
        hypot = np.loadtxt(tmp_path / "average.csv", delimiter=",", skiprows=1, usecols=4)
        vector = np.loadtxt(tmp_path / "conditioning.csv", delimiter=",", skiprows=1, usecols=2)
        assert hypot.size == vector.size == 4096
        assert np.all(np.abs(hypot - vector) <= 2 * np.spacing(np.maximum(hypot, vector)))
