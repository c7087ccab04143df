"""Container validation and sample-moment oracles.

Derived expected values are frozen from hand computation or from the
brute-force double-loop evaluation of the defining formulas, computed
independently of the vectorized library path.
"""

import ast
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wkernel
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
from wkernel.freq_eval import kl_quadratic
from wkernel.kernels import (
    ScoreMatrix,
    build_embedding,
    build_info_matrices,
    build_w,
    build_z,
    embedding_report,
    eval_score_kernel,
    sym_inv_sqrt,
    sym_sqrt,
)
from wkernel.models import BetaBinomialConfig, curve_stats, exact_weighted_mean, run_model
from wkernel.spectral import (
    dual_eigen,
    incomplete_cholesky,
    project_perturbation,
    representative_set,
)


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


def _spoiled(shape, value=np.nan):
    """Ones of ``shape`` with the last entry replaced by ``value``."""
    arr = np.ones(shape)
    arr.flat[-1] = value
    return arr


@pytest.fixture(scope="module")
def intake(regression_bundle):
    """Valid arguments beside the bad one: M = 6 draws, n = 4 observations
    and k = 2 score parameters; the beta-binomial bundle has 20."""
    rng = np.random.default_rng(41)
    ll = LogLikMatrix(rng.standard_normal((6, 4)))
    w = build_w(ll)
    chol = incomplete_cholesky(w)
    basis = dual_eigen(chol)
    return SimpleNamespace(
        ll=ll,
        stats=StatMatrix(rng.standard_normal((6, 2))),
        w=w,
        basis=basis,
        rset=representative_set(chol, basis),
        scores=ScoreMatrix(values=rng.standard_normal((4, 2)), hessian_sum=np.eye(2)),
        emb=build_embedding(rng.standard_normal((6, 1)), np.zeros(1), np.eye(1), n=4),
        z=build_z(ll),
        betabinom=run_model(BetaBinomialConfig(seed=1, m_draws=100)),
        regression=regression_bundle,
    )


# (case, call on the intake fixture, the whole InvalidInput message): for
# each public function, an array argument of the wrong shape and one with
# a NaN or infinite entry
_INTAKE = [
    ("posterior_cov-shape", lambda o: posterior_cov(np.ones(3), np.ones(2)),
     "second argument must have shape (3,), got (2,)"),
    ("posterior_cov-nan", lambda o: posterior_cov(_spoiled(3), np.ones(3)),
     "first argument contains non-finite entries"),
    ("third_cumulant-shape", lambda o: third_cumulant(np.ones(3), np.ones(3), np.ones((3, 1))),
     "third argument must have shape (3,), got (3, 1)"),
    ("third_cumulant-inf", lambda o: third_cumulant(np.ones(3), _spoiled(3, np.inf), np.ones(3)),
     "second argument contains non-finite entries"),
    ("centered_cov_star-shape", lambda o: centered_cov_star(np.ones(5), o.ll, 0),
     "statistic column must have shape (6,), got (5,)"),
    ("centered_cov_star-nan", lambda o: centered_cov_star(_spoiled(6), o.ll, 0),
     "statistic column contains non-finite entries"),
    ("posterior_cov_grid-shape", lambda o: posterior_cov_grid(np.ones((6, 2)), np.ones((5, 2))),
     "second argument must have shape (6, *), got (5, 2)"),
    ("posterior_cov_grid-inf", lambda o: posterior_cov_grid([[0.0], [1.0]], [[0.0], [np.inf]]),
     "second argument contains non-finite entries"),
    ("third_cumulant_grid-shape", lambda o: third_cumulant_grid(o.stats, np.ones(6)),
     "function matrix must have shape (6, *), got (6,)"),
    ("third_cumulant_grid-nan", lambda o: third_cumulant_grid(o.stats, _spoiled((6, 3))),
     "function matrix contains non-finite entries"),
    ("empirical_cov_over_obs-shape", lambda o: empirical_cov_over_obs([1.0], [1.0, 2.0]),
     "second argument must have shape (1,), got (2,)"),
    ("empirical_cov_over_obs-inf", lambda o: empirical_cov_over_obs(_spoiled(2, -np.inf), [1, 2]),
     "first argument contains non-finite entries"),
    ("project_perturbation-shape", lambda o: project_perturbation(np.ones(3), o.basis),
     "perturbation must have shape (4,), got (3,)"),
    ("project_perturbation-nan", lambda o: project_perturbation(_spoiled(4), o.basis),
     "perturbation contains non-finite entries"),
    ("pivot_projection-shape", lambda o: o.rset.pivot_projection(np.ones((4, 1))),
     "perturbation must have shape (4,), got (4, 1)"),
    ("pivot_projection-nan", lambda o: o.rset.pivot_projection(_spoiled(4)),
     "perturbation contains non-finite entries"),
    ("principal_projection-shape", lambda o: o.rset.principal_projection(np.ones(5)),
     "perturbation must have shape (4,), got (5,)"),
    ("principal_projection-inf", lambda o: o.rset.principal_projection(_spoiled(4, np.inf)),
     "perturbation contains non-finite entries"),
    ("kl_quadratic-shape", lambda o: kl_quadratic(o.w, np.ones(3)),
     "perturbation must have shape (4,), got (3,)"),
    ("kl_quadratic-nan", lambda o: kl_quadratic(o.w, _spoiled(4)),
     "perturbation contains non-finite entries"),
    ("build_info_matrices-shape",
     lambda o: build_info_matrices(o.scores, prior_score=np.ones(3), prior_weight=0.5),
     "prior_score must have shape (2,), got (3,)"),
    ("build_info_matrices-hessian-shape",
     lambda o: build_info_matrices(
         o.scores, prior_score=np.ones(2), prior_weight=0.5, prior_hessian=np.eye(3)
     ),
     "prior_hessian must have shape (2, 2), got (3, 3)"),
    ("build_info_matrices-inf",
     lambda o: build_info_matrices(
         o.scores, prior_score=np.ones(2), prior_weight=0.5, prior_hessian=_spoiled((2, 2), np.inf)
     ),
     "prior_hessian contains non-finite entries"),
    ("eval_score_kernel-shape",
     lambda o: eval_score_kernel(o.scores, "modified_fisher", np.ones(3), np.ones(2)),
     "x_score must have shape (2,), got (3,)"),
    ("eval_score_kernel-plain-nan",
     lambda o: eval_score_kernel(o.scores, "plain", [np.nan, 1.0], np.ones(2)),
     "x_score contains non-finite entries"),
    ("eval_score_kernel-fisher-nan",
     lambda o: eval_score_kernel(o.scores, "fisher", np.ones(2), [1.0, np.nan]),
     "y_score contains non-finite entries"),
    ("build_embedding-shape",
     lambda o: build_embedding(np.ones((6, 2)), np.zeros(3), np.eye(2), n=4),
     "theta_hat must have shape (2,), got (3,)"),
    ("build_embedding-J_hat-shape",
     lambda o: build_embedding(np.ones((6, 2)), np.zeros(2), np.eye(3), n=4),
     "J_hat must have shape (2, 2), got (3, 3)"),
    ("build_embedding-nan",
     lambda o: build_embedding(np.ones((6, 2)), np.zeros(2), _spoiled((2, 2)), n=4),
     "J_hat contains non-finite entries"),
    ("embedding_report-shape", lambda o: embedding_report(o.emb, 4, z=o.z, sandwich=np.eye(2)),
     "sandwich must have shape (1, 1), got (2, 2)"),
    ("embedding_report-nan", lambda o: embedding_report(o.emb, 4, z=o.z, sandwich=[[np.nan]]),
     "sandwich contains non-finite entries"),
    ("sym_sqrt-shape", lambda o: sym_sqrt(np.ones((2, 3))),
     "matrix must have shape (2, 2), got (2, 3)"),
    ("sym_sqrt-nan", lambda o: sym_sqrt([[np.nan, 0.0], [0.0, 1.0]]),
     "matrix contains non-finite entries"),
    ("sym_inv_sqrt-shape", lambda o: sym_inv_sqrt(np.ones(3)),
     "matrix must be 2-D, got 1-D"),
    ("sym_inv_sqrt-inf", lambda o: sym_inv_sqrt([[1.0, np.inf], [np.inf, 1.0]], "J_hat"),
     "J_hat contains non-finite entries"),
    ("exact_weighted_mean-shape",
     lambda o: exact_weighted_mean(o.betabinom, np.ones(19), "q_mean"),
     "weight vector must have shape (20,), got (19,)"),
    ("exact_weighted_mean-inf",
     lambda o: exact_weighted_mean(o.betabinom, _spoiled(20, np.inf), "q_mean"),
     "weight vector contains non-finite entries"),
    ("curve_stats-shape", lambda o: curve_stats(o.regression, np.ones((2, 2))),
     "grid must be 1-D, got 2-D"),
    ("curve_stats-inf", lambda o: curve_stats(o.regression, [0.0, np.inf]),
     "grid contains non-finite entries"),
    # what numpy cannot convert to a float array, and an empty matrix root
    ("posterior_cov-ragged", lambda o: posterior_cov([[1, 2], [3]], [1, 2]),
     "first argument is not an array of numbers"),
    ("posterior_cov-text", lambda o: posterior_cov("ab", "cd"),
     "first argument is not an array of numbers"),
    ("kl_quadratic-object", lambda o: kl_quadratic(o.w, [object()] * 4),
     "perturbation is not an array of numbers"),
    ("sym_sqrt-empty", lambda o: sym_sqrt(np.zeros((0, 0))), "matrix is empty"),
    ("sym_inv_sqrt-empty", lambda o: sym_inv_sqrt(np.zeros((0, 0)), "J_hat"), "J_hat is empty"),
    ("build_info_matrices-k0",
     lambda o: build_info_matrices(ScoreMatrix(values=np.zeros((4, 0)), hessian_sum=np.zeros((0, 0)))),
     "J_hat is empty"),
    ("build_embedding-k0",
     lambda o: build_embedding(np.ones((6, 0)), np.zeros(0), np.zeros((0, 0)), n=4),
     "J_hat is empty"),
]


@pytest.mark.parametrize(
    "call, message", [case[1:] for case in _INTAKE], ids=[case[0] for case in _INTAKE]
)
def test_array_arguments_share_one_intake_rule(intake, call, message):
    """A wrong shape, a non-finite entry, an input numpy cannot convert or
    an empty matrix to take the root of is InvalidInput naming the
    argument, never a NaN result, a numpy error or a NumericalFailure."""
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call(intake)


# the imports the library makes inside a function, as (module, function,
# name): the CLI loads numpy only after pinning the thread pools, and the
# handlers and the models only for the commands that use them
_LATE_IMPORTS = {
    ("cli", "main", "numpy"),
    ("cli", "run_command", "commands"),
    ("cli", "run_command", "load_config"),
    ("cli", "_demo_config", "models"),
    ("commands", "demo", "models"),
}


def test_library_modules_import_at_the_top():
    late = set()
    for path in Path(wkernel.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    late |= {(path.stem, func.name, alias.name) for alias in node.names}
    assert late == _LATE_IMPORTS
