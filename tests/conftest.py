"""Shared helpers: seeded state draws and quadrature reference routes.

The quadrature helpers deliberately avoid the closed-form factor code so that
agreement between the two routes is evidence, not circularity.
"""

import concurrent.futures
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.integrate import quad

import schrodavg.averaging
from schrodavg import ModeCoefficients, propagate

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=60,
    derandomize=True,  # the same examples on every run, so a failure reproduces
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def zeta_calls(monkeypatch):
    """The argument tuples of every call of averaging._zeta_values, the one
    factor kernel, recorded as the test runs."""
    calls = []
    real = schrodavg.averaging._zeta_values
    monkeypatch.setattr(schrodavg.averaging, "_zeta_values",
                        lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.fixture
def executors(monkeypatch):
    """Count the thread pools the kernels open, with `cpus` CPUs allowed."""
    made = []

    class Counting(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    def allow(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return made

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
    return allow


def runs_of_equal_eigenvalues(N):
    """N nondecreasing eigenvalues in runs of 1, 2, 3, 1, 2, 3, ... equal
    values, led by -0.0, 0.0, 0.0: equal as floats, but -0.0 is a run of its
    own, as its phases carry zeros of the other sign."""
    starts = np.repeat(np.arange(N), np.resize([1, 2, 3], N))[:N]
    lam = 0.37 * np.maximum(starts - 1.0, 0.0) ** 2
    lam[0] = -0.0
    return lam


def power_law_state(basis, seed, p):
    """|c_k| = k^-p with uniform random phases (1-based position index)."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, basis.mode_count + 1, dtype=float)
    return ModeCoefficients(k**-p * np.exp(2j * np.pi * rng.random(basis.mode_count)), basis)


def zeta_by_quadrature(r, T, lam):
    """Oscillatory-weight quadrature of integral_0^T exp((r - i lam) t) dt.

    Splits exp((r - i lam) t) = exp(at) (cos(bt) + i sin(bt)) with a = Re r,
    b = Im r - lam and lets QUADPACK's QAWO handle the oscillation.
    """
    r = complex(r)
    a = r.real
    b = r.imag - lam

    def f(t):
        return np.exp(a * t)

    re = quad(f, 0.0, T, weight="cos", wvar=b, epsabs=1e-300, epsrel=1e-11,
              limit=300, full_output=1)[0]
    im = quad(f, 0.0, T, weight="sin", wvar=b, epsabs=1e-300, epsrel=1e-11,
              limit=300, full_output=1)[0]
    return re + 1j * im


def averaged_mode_by_quadrature(xi, params, k):
    """Adaptive quadrature of exp(r t) times mode k of the evolving state."""

    def f_re(t):
        return (np.exp(params.r * t) * propagate(xi, t).values[k]).real

    def f_im(t):
        return (np.exp(params.r * t) * propagate(xi, t).values[k]).imag

    re = quad(f_re, 0.0, params.T, epsabs=1e-13, epsrel=1e-12, limit=3000, full_output=1)[0]
    im = quad(f_im, 0.0, params.T, epsabs=1e-13, epsrel=1e-12, limit=3000, full_output=1)[0]
    return re + 1j * im
