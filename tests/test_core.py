"""Container validation and sample-moment oracles.

Derived expected values are frozen from hand computation or from the
brute-force double-loop evaluation of the defining formulas, computed
independently of the vectorized library path.
"""

import tracemalloc

import numpy as np
import pytest

from wkernel.bootstrap import BootstrapRun
from wkernel.core import (
    LogLikMatrix,
    StatMatrix,
    centered_cov_star,
    empirical_cov_over_obs,
    posterior_cov,
    posterior_cov_grid,
    posterior_mean,
    posterior_var,
    third_cumulant,
    third_cumulant_grid,
)
from wkernel.errors import InvalidInput


def brute_cov(a, b):
    """Textbook two-pass covariance with divisor 1/M, scalar loop."""
    m = len(a)
    abar = sum(a) / m
    bbar = sum(b) / m
    return sum((a[i] - abar) * (b[i] - bbar) for i in range(m)) / m


def brute_third(a, b, c):
    m = len(a)
    abar, bbar, cbar = sum(a) / m, sum(b) / m, sum(c) / m
    return sum((a[i] - abar) * (b[i] - bbar) * (c[i] - cbar) for i in range(m)) / m


class TestContainers:
    def test_loglik_requires_finite(self):
        with pytest.raises(InvalidInput):
            LogLikMatrix(np.array([[0.0, np.nan], [1.0, 2.0]]))
        with pytest.raises(InvalidInput):
            LogLikMatrix(np.array([[0.0, np.inf], [1.0, 2.0]]))

    def test_loglik_requires_two_draws(self):
        with pytest.raises(InvalidInput):
            LogLikMatrix(np.array([[0.0, 1.0]]))

    def test_loglik_shape_accessors(self):
        ll = LogLikMatrix(np.zeros((4, 3)))
        assert ll.n_draws == 4 and ll.n_obs == 3

    def test_containers_are_read_only(self):
        ll = LogLikMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ll.values[0, 0] = 1.0

    def test_stat_names_default_and_mismatch(self):
        s = StatMatrix(np.zeros((3, 2)))
        assert s.names == ("stat_0", "stat_1")
        with pytest.raises(InvalidInput):
            StatMatrix(np.zeros((3, 2)), names=("only_one",))

    def test_stat_vector_promoted_to_column(self):
        s = StatMatrix(np.arange(3.0))
        assert s.values.shape == (3, 1)


# container -> the array it holds, built from a 2-D array
_HOLDERS = {
    "LogLikMatrix": lambda a: LogLikMatrix(a).values,
    "StatMatrix": lambda a: StatMatrix(a).values,
    "BootstrapRun": lambda a: BootstrapRun(a, method="first").estimates,
}


class TestCopyRule:
    """A container adopts an array no caller can still write to and copies
    anything else."""

    def test_owned_read_only_array_is_adopted(self):
        arr = np.random.default_rng(3).standard_normal((200, 300))
        arr.setflags(write=False)
        tracemalloc.start()
        try:
            ll = LogLikMatrix(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ll.values is arr
        assert peak < 0.01 * arr.nbytes

    @pytest.mark.parametrize("held", _HOLDERS.values(), ids=_HOLDERS.keys())
    def test_writable_arrays_and_views_are_copied(self, held):
        caller = np.arange(12.0).reshape(4, 3)
        values = held(caller)
        caller[0, 0] = 99.0
        assert values[0, 0] == 0.0 and caller.flags.writeable
        assert not values.flags.writeable
        # a view pins its base, so even a read-only one is copied
        for make_view in (lambda b: b[:, ::2], lambda b: b[2:]):
            base = np.arange(48.0).reshape(8, 6)
            view = make_view(base)
            view.setflags(write=False)
            values = held(view)
            first = view[0, 0]
            base[:] = -1.0
            assert values[0, 0] == first
            assert not np.shares_memory(values, base)


class TestPosteriorMean:
    def test_constant_column(self):
        s = StatMatrix(np.full((5, 1), 3.25))
        assert posterior_mean(s)[0] == 3.25

    def test_two_point(self):
        s = StatMatrix(np.array([[0.0], [2.0]]))
        assert posterior_mean(s)[0] == 1.0

    def test_hand_sum(self):
        s = StatMatrix(np.array([[1.0], [2.0], [6.0]]))
        assert posterior_mean(s)[0] == pytest.approx(3.0)


class TestPosteriorCov:
    def test_constant_gives_zero(self):
        assert posterior_cov(np.full(4, 2.0), np.arange(4.0)) == 0.0

    def test_hand_value(self):
        # ((-1)(-2) + (1)(2)) / 2 = 2
        assert posterior_cov([0.0, 2.0], [0.0, 4.0]) == pytest.approx(2.0)

    def test_unit_spread(self):
        assert posterior_cov([-1.0, 1.0], [-1.0, 1.0]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            posterior_cov([0.0, 1.0], [0.0, 1.0, 2.0])

    def test_bilinear_and_symmetric(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a, b, c = rng.standard_normal((3, 8))
            s, t = rng.standard_normal(2)
            lhs = posterior_cov(s * a + t * b, c)
            rhs = s * posterior_cov(a, c) + t * posterior_cov(b, c)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert posterior_cov(a, b) == pytest.approx(posterior_cov(b, a))

    def test_variance_nonnegative_and_cauchy_schwarz(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.standard_normal((2, 12))
            va, vb = posterior_var(a), posterior_var(b)
            assert va >= 0.0
            assert posterior_cov(a, b) ** 2 <= va * vb + 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 9))
        assert posterior_cov(a, b) == pytest.approx(brute_cov(a, b), rel=1e-12)

    def test_grid_matches_scalar_path(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 4))
        grid = posterior_cov_grid(a, b)
        for j in range(3):
            for i in range(4):
                assert grid[j, i] == pytest.approx(
                    posterior_cov(a[:, j], b[:, i]), rel=1e-12, abs=1e-15
                )


class TestCenteredCovStar:
    def test_single_observation_always_zero(self):
        ll = LogLikMatrix(np.array([[0.0], [1.0], [3.0]]))
        a = np.array([1.0, 2.0, 0.0])
        assert centered_cov_star(a, ll, 0) == pytest.approx(0.0, abs=1e-15)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(19)
        ll = LogLikMatrix(rng.standard_normal((6, 5)))
        a = rng.standard_normal(6)
        total = sum(centered_cov_star(a, ll, i) for i in range(5))
        assert abs(total) <= 1e-12

    def test_matches_defining_formula(self):
        rng = np.random.default_rng(5)
        ll = LogLikMatrix(rng.standard_normal((4, 3)))
        a = rng.standard_normal(4)
        for i in range(3):
            direct = brute_cov(a, ll.values[:, i]) - sum(
                brute_cov(a, ll.values[:, j]) for j in range(3)
            ) / 3.0
            assert centered_cov_star(a, ll, i) == pytest.approx(direct, abs=1e-14)

    def test_index_out_of_range(self):
        ll = LogLikMatrix(np.zeros((3, 2)))
        with pytest.raises(InvalidInput):
            centered_cov_star(np.zeros(3), ll, 2)


class TestThirdCumulant:
    def test_constant_argument(self):
        a = np.arange(4.0)
        assert third_cumulant(a, a, np.full(4, 5.0)) == 0.0

    def test_symmetric_sample(self):
        a = np.array([-1.0, 1.0, -1.0, 1.0])
        assert third_cumulant(a, a, a) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # mean 1: ((-1)^3 + (-1)^3 + 2^3) / 3 = 2
        a = np.array([0.0, 0.0, 3.0])
        assert third_cumulant(a, a, a) == pytest.approx(2.0)

    def test_permutation_symmetry_and_shift_invariance(self):
        rng = np.random.default_rng(23)
        a, b, c = rng.standard_normal((3, 10))
        base = third_cumulant(a, b, c)
        assert third_cumulant(c, a, b) == pytest.approx(base, rel=1e-12)
        assert third_cumulant(b, a, c) == pytest.approx(base, rel=1e-12)
        assert third_cumulant(a + 7.0, b, c - 3.0) == pytest.approx(base, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(29)
        a, b, c = rng.standard_normal((3, 7))
        assert third_cumulant(a, b, c) == pytest.approx(brute_third(a, b, c), rel=1e-12)

    def test_grid_matches_scalar_path(self):
        rng = np.random.default_rng(31)
        stats = StatMatrix(rng.standard_normal((8, 2)))
        f = rng.standard_normal((8, 3))
        tensor = third_cumulant_grid(stats, f)
        for j in range(2):
            for al in range(3):
                for be in range(3):
                    expect = third_cumulant(stats.values[:, j], f[:, al], f[:, be])
                    assert tensor[j, al, be] == pytest.approx(expect, abs=1e-14)

    def test_needs_three_draws(self):
        with pytest.raises(InvalidInput):
            third_cumulant([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])


class TestEmpiricalCov:
    def test_constant(self):
        assert empirical_cov_over_obs(np.full(3, 2.0), np.arange(3.0)) == 0.0

    def test_hand_value(self):
        assert empirical_cov_over_obs([0.0, 2.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(37)
        f, g = rng.standard_normal((2, 11))
        assert empirical_cov_over_obs(f, g) == pytest.approx(brute_cov(f, g), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            empirical_cov_over_obs([1.0], [1.0, 2.0])
