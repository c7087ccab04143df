"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every tolerance is pinned here, not configurable; stated
runtime budgets are asserted from in-test measurement.
"""

import os
import time

import numpy as np

from wkernel.bootstrap import (
    Resamples,
    boot_first,
    boot_gold,
    boot_importance,
    boot_second,
    draw_resamples,
)
from wkernel.core import (
    LogLikMatrix,
    StatMatrix,
    WeightVector,
    posterior_cov,
    posterior_var,
    third_cumulant,
)
from wkernel.freq_eval import freq_cov, penalties
from wkernel.kernels import (
    WMatrix,
    build_deviation,
    build_embedding,
    build_info_matrices,
    build_w,
    build_z,
)
from wkernel.matio import save_matrix
from wkernel.models import (
    BetaBinomialConfig,
    NormalMeanConfig,
    RegressionConfig,
    WeibullConfig,
    run_model,
)
from wkernel.spectral import dual_eigen, full_eigen, incomplete_cholesky, project_loglik


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_exact_pca_duality():
    """Nonzero spectra of (1/M) Z and (1/n) W_centered coincide exactly."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_eig = 0.0
    worst_fact = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 41))
        m = int(rng.integers(6, 61))
        ll = LogLikMatrix(rng.standard_normal((m, n)) * rng.uniform(0.3, 3.0))
        z = build_z(ll)
        wc = build_w(ll, kind="double_centered")
        dev = build_deviation(ll).values

        z_scaled = z.values / m
        w_scaled = wc.values / n
        ze = np.linalg.eigvalsh(z_scaled)[::-1]
        we = np.linalg.eigvalsh(w_scaled)[::-1]
        lam1 = max(we[0], 1e-300)
        nonzero = we > 1e-12 * lam1
        k = int(np.sum(nonzero))
        if k:
            rel = np.max(np.abs(ze[:k] - we[:k]) / we[:k])
            worst_eig = max(worst_eig, rel)

        scale = max(1.0, np.max(np.abs(dev)) ** 2)
        gap_z = np.max(np.abs(z_scaled - dev.T @ dev / (n * m))) / scale
        gap_w = np.max(np.abs(w_scaled - dev @ dev.T / (n * m))) / scale
        worst_fact = max(worst_fact, gap_z, gap_w)
    elapsed = time.time() - t0
    ok = worst_eig < 1e-10 and worst_fact < 1e-10 and elapsed < 10.0
    report(
        1,
        ok,
        f"max rel eig diff {worst_eig:.2e}, max factorization gap {worst_fact:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_pivoted_cholesky():
    """Residual bookkeeping, monotonicity, and exact-rank recovery."""
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst_recon = 0.0
    monotone = True
    ranks_ok = True
    for trial in range(50):
        n = int(rng.integers(4, 25))
        planted = trial % 2 == 1
        rank = int(rng.integers(1, n)) if planted else n
        b = rng.standard_normal((n, rank))
        w = WMatrix(values=b @ b.T)
        chol = incomplete_cholesky(w, rel_tol=1e-10, max_rank=n)
        recon_gap = abs(
            np.trace(w.values - chol.reconstruct()) - chol.residual_trace
        ) / max(chol.trace_w, 1.0)
        worst_recon = max(worst_recon, recon_gap)
        hist = chol.residual_trace_history
        if np.any(np.diff(hist) > 1e-12 * chol.trace_w):
            monotone = False
        if planted and chol.a_M != rank:
            ranks_ok = False
    elapsed = time.time() - t0
    ok = worst_recon < 1e-10 and monotone and ranks_ok and elapsed < 10.0
    report(
        2,
        ok,
        f"max reconstruction gap {worst_recon:.2e}, monotone={monotone}, "
        f"planted ranks ok={ranks_ok}, {elapsed:.1f}s",
    )


def test_criterion_03_dual_equals_full_eigensolver():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(5, 51))
        b = rng.standard_normal((n, int(rng.integers(2, n + 1))))
        w = WMatrix(values=b @ b.T)
        basis_d = dual_eigen(incomplete_cholesky(w, rel_tol=1e-14, max_rank=n))
        basis_f = full_eigen(w)
        k = basis_d.rank_retained
        padded = np.zeros(n)
        padded[:k] = basis_d.eigenvalues
        worst = max(worst, float(np.max(np.abs(padded - basis_f.eigenvalues))))
    ok = worst < 1e-8
    report(3, ok, f"max abs eigenvalue diff {worst:.2e} over 30 instances")


def test_criterion_04_projection_completeness(weibull_bundle):
    bundle = weibull_bundle
    stats = bundle.default_stats()
    ll = bundle.loglik
    basis = full_eigen(build_w(ll))
    assert basis.rank_retained == ll.n_obs
    resamples = draw_resamples(ll.n_obs, 200, seed=104)

    def rel_gap(a, b):
        return float(np.max(np.abs(a - b) / (np.abs(b) + 1e-300)))

    gap_cov = rel_gap(
        freq_cov(stats, ll, estimator="projected", basis=basis).values,
        freq_cov(stats, ll).values,
    )
    gap_first = rel_gap(
        boot_first(stats, ll, resamples, basis=basis).estimates,
        boot_first(stats, ll, resamples).estimates,
    )
    gap_second = rel_gap(
        boot_second(stats, ll, resamples, basis=basis).estimates,
        boot_second(stats, ll, resamples, mode="direct").estimates,
    )
    ok = gap_cov < 1e-9 and gap_first < 1e-9 and gap_second < 1e-9
    report(
        4,
        ok,
        f"full-rank rel gaps: freq cov {gap_cov:.2e}, first-order {gap_first:.2e}, "
        f"second-order {gap_second:.2e}",
    )


def test_criterion_05_second_order_identity(weibull_bundle):
    bundle = weibull_bundle
    stats = bundle.default_stats()
    resamples = draw_resamples(bundle.n_obs, 200, seed=105)
    direct = boot_second(stats, bundle.loglik, resamples, mode="direct")
    efficient = boot_second(stats, bundle.loglik, resamples, mode="efficient")
    gap = float(
        np.max(
            np.abs(direct.estimates - efficient.estimates)
            / (np.abs(direct.estimates) + 1e-300)
        )
    )
    ok = gap < 1e-9
    report(5, ok, f"max per-replicate rel diff {gap:.2e} over 200 replicates")


def test_criterion_06_eigenvalue_counts():
    t0 = time.time()
    wb = run_model(WeibullConfig(seed=7))
    evals_w = full_eigen(build_w(wb.loglik)).eigenvalues
    share_w = float(evals_w[:2].sum() / evals_w.sum())
    t_weibull = time.time() - t0

    t0 = time.time()
    reg = run_model(RegressionConfig(seed=3))
    evals_r = full_eigen(build_w(reg.loglik)).eigenvalues
    share_r = float(evals_r[:4].sum() / evals_r.sum())
    t_reg = time.time() - t0

    ok = (
        wb.n_draws >= 4000
        and share_w >= 0.95
        and share_r >= 0.99
        and t_weibull < 120
        and t_reg < 120
    )
    report(
        6,
        ok,
        f"lifespan top-2 share {share_w:.4f} (>=0.95, {t_weibull:.0f}s), "
        f"regression top-4 share {share_r:.4f} (>=0.99, {t_reg:.0f}s)",
    )


def test_criterion_07_sandwich_correspondence():
    worst_rel = 0.0
    worst_ratio = 0.0
    for seed in range(5):
        bundle = run_model(NormalMeanConfig(n=200, m_draws=20000, seed=seed))
        evals = full_eigen(build_w(bundle.loglik)).eigenvalues
        sandwich = build_info_matrices(bundle.scores).sandwich[0, 0]
        worst_rel = max(worst_rel, abs(evals[0] - sandwich) / sandwich)
        worst_ratio = max(worst_ratio, evals[1] / evals[0])
    ok = worst_rel < 0.15 and worst_ratio < 0.05
    report(
        7,
        ok,
        f"worst rel diff lambda1 vs sandwich {worst_rel:.3f} (<0.15), "
        f"worst lambda2/lambda1 {worst_ratio:.4f} (<0.05), 5 seeds",
    )


def test_criterion_08_penalty_equivalence():
    worst = 0.0
    for seed in range(5):
        bundle = run_model(NormalMeanConfig(n=200, m_draws=20000, seed=seed))
        info = build_info_matrices(bundle.scores)
        rep = penalties(bundle.loglik, info=info)
        worst = max(worst, abs(rep.waic_penalty - rep.tic_penalty) / rep.tic_penalty)
    ok = worst < 0.15
    report(8, ok, f"worst |trace W - trace(I J^-1)| rel diff {worst:.3f} (<0.15), 5 seeds")


def test_criterion_09_sensitivity_formulas(betabinom_bundle):
    t0 = time.time()
    bundle = betabinom_bundle
    assert bundle.n_draws == 50000
    stats = bundle.default_stats()
    n = bundle.n_obs

    def exact(w):
        return bundle.exact_weighted_mean(WeightVector(w), "q_mean")

    from wkernel.freq_eval import sensitivity_first, sensitivity_second

    grid = sensitivity_first(stats, bundle.loglik).first_order[0]
    h = 1e-4
    fd1 = np.empty(n)
    for i in range(n):
        up = np.ones(n)
        up[i] += h
        dn = np.ones(n)
        dn[i] -= h
        fd1[i] = (exact(up) - exact(dn)) / (2 * h)
    err1 = float(np.linalg.norm(grid - fd1) / np.linalg.norm(fd1))

    tensor = sensitivity_second(stats, bundle.loglik.values).values[0]
    h = 1e-3
    fd2 = np.empty((n, n))
    base = exact(np.ones(n))
    for i in range(n):
        for j in range(n):
            if i == j:
                up = np.ones(n)
                up[i] += h
                dn = np.ones(n)
                dn[i] -= h
                fd2[i, i] = (exact(up) - 2 * base + exact(dn)) / h**2
            else:
                pp = np.ones(n)
                pp[[i, j]] += h
                pm = np.ones(n)
                pm[i] += h
                pm[j] -= h
                mp = np.ones(n)
                mp[i] -= h
                mp[j] += h
                mm = np.ones(n)
                mm[[i, j]] -= h
                fd2[i, j] = (exact(pp) - exact(pm) - exact(mp) + exact(mm)) / (
                    4 * h**2
                )
    err2 = float(np.linalg.norm(tensor - fd2) / np.linalg.norm(fd2))
    elapsed = time.time() - t0
    ok = err1 < 0.02 and err2 < 0.05 and elapsed < 60
    report(
        9,
        ok,
        f"first-order rel err {err1:.4f} (<0.02), second-order rel err {err2:.4f} "
        f"(<0.05), {elapsed:.1f}s",
    )


def _replicate_study(n_rep, base_seed, **config_kw):
    exact_means, sig_star, sig_plain, post_var = [], [], [], []
    for r in range(n_rep):
        cfg = BetaBinomialConfig(seed=base_seed + r, m_draws=5000, **config_kw)
        bundle = run_model(cfg)
        x = bundle.data
        a_pr = cfg.alpha if cfg.prior_weight == 0 else 1.0
        b_pr = cfg.beta if cfg.prior_weight == 0 else 1.0
        a = a_pr + x.sum()
        b = b_pr + cfg.n * cfg.N - x.sum()
        exact_means.append(a / (a + b))
        stats = bundle.default_stats()
        sig_star.append(freq_cov(stats, bundle.loglik, "centered").values[0, 0])
        sig_plain.append(freq_cov(stats, bundle.loglik, "plain").values[0, 0])
        post_var.append(bundle.draws.var())
    return (
        float(np.var(exact_means)),
        np.array(sig_star),
        np.array(sig_plain),
        np.array(post_var),
    )


def test_criterion_10_frequentist_variance_experiment():
    t0 = time.time()
    truth, sig_star, _, post_var = _replicate_study(400, 50000)
    med_star = float(np.median(sig_star))
    med_post = float(np.median(post_var))
    ratio = med_star / truth
    undercover = truth / med_post
    elapsed = time.time() - t0
    ok = abs(ratio - 1.0) < 0.25 and undercover >= 1.5 and elapsed < 180
    report(
        10,
        ok,
        f"median centered estimate / MC truth {ratio:.3f} (within 25%), posterior "
        f"variance undercovers {undercover:.2f}x (>=1.5), {elapsed:.0f}s",
    )


def test_criterion_11_strong_prior_ordering():
    truth, sig_star, sig_plain, _ = _replicate_study(
        400, 90000, rho=0.0, alpha=20.0, beta=1.0
    )
    err_star = float(np.median(np.abs(sig_star - truth)))
    err_plain = float(np.median(np.abs(sig_plain - truth)))

    lams = (0.05, 0.1, 0.2)
    diffs = []
    for lam in lams:
        cfg = BetaBinomialConfig(
            n=200,
            N=5,
            q0=0.25,
            rho=0.0,
            alpha=2.0,
            beta=1.0,
            prior_weight=lam,
            m_draws=50000,
            seed=10,
        )
        bundle = run_model(cfg)
        stats = bundle.default_stats()
        plain = freq_cov(stats, bundle.loglik).values[0, 0]
        adj = freq_cov(
            stats, bundle.loglik, estimator="prior_adjusted", logprior=bundle.logprior
        ).values[0, 0]
        diffs.append(abs(adj - plain))
    slope = float(np.polyfit(np.log(lams), np.log(diffs), 1)[0])
    ok = err_star <= err_plain and 1.6 <= slope <= 2.4
    report(
        11,
        ok,
        f"median abs err centered {err_star:.2e} <= plain {err_plain:.2e}, "
        f"prior-strength slope {slope:.2f} in [1.6, 2.4]",
    )


def test_criterion_12_bound_suites():
    rng = np.random.default_rng(112)
    ok_resid = ok_cov = ok_third = True

    for _ in range(100):
        m = int(rng.integers(5, 25))
        n = int(rng.integers(2, 9))
        ll = LogLikMatrix(rng.standard_normal((m, n)) * rng.uniform(0.3, 2.0))
        basis = full_eigen(build_w(ll))
        a_m = int(rng.integers(1, basis.rank_retained + 1))
        proj = project_loglik(ll, basis, a_m)
        tail = basis.eigenvalues[a_m:].sum()
        lam1 = basis.eigenvalues[0] if basis.rank_retained else 0.0
        for i in range(n):
            resid = ll.values[:, i] - proj.projected_loglik[:, i]
            if posterior_var(resid) > tail + 1e-9 * max(lam1, 1.0):
                ok_resid = False

    for _ in range(100):
        m = int(rng.integers(6, 25))
        n = int(rng.integers(2, 8))
        ll = LogLikMatrix(rng.standard_normal((m, n)))
        a = rng.standard_normal(m)
        basis = full_eigen(build_w(ll))
        a_m = int(rng.integers(1, basis.rank_retained + 1))
        proj = project_loglik(ll, basis, a_m)
        bound = np.sqrt(posterior_var(a) * basis.eigenvalues[a_m:].sum()) + 1e-9
        for i in range(n):
            gap = abs(
                posterior_cov(a, ll.values[:, i])
                - posterior_cov(a, proj.projected_loglik[:, i])
            )
            if gap > bound:
                ok_cov = False

    for _ in range(100):
        m = int(rng.integers(6, 20))
        n = int(rng.integers(2, 7))
        ll = LogLikMatrix(rng.standard_normal((m, n)))
        a = np.tanh(rng.standard_normal(m))
        basis = full_eigen(build_w(ll))
        a_m = int(rng.integers(1, basis.rank_retained + 1))
        proj = project_loglik(ll, basis, a_m)
        sup_a = np.max(np.abs(a - a.mean()))
        tail_root = np.sqrt(basis.eigenvalues[a_m:].sum())
        for i in range(n):
            for j in range(n):
                gap = abs(
                    third_cumulant(a, ll.values[:, i], ll.values[:, j])
                    - third_cumulant(
                        a, proj.projected_loglik[:, i], proj.projected_loglik[:, j]
                    )
                )
                bound = (
                    sup_a
                    * (
                        np.sqrt(posterior_var(ll.values[:, i]))
                        + np.sqrt(posterior_var(ll.values[:, j]))
                    )
                    * tail_root
                    + 1e-9
                )
                if gap > bound:
                    ok_third = False

    ok = ok_resid and ok_cov and ok_third
    report(
        12,
        ok,
        f"residual bound {ok_resid}, covariance bound {ok_cov}, third-cumulant "
        f"bound {ok_third}; 100 instances each",
    )


def test_criterion_13_importance_bootstrap(weibull_small_bundle):
    bundle = weibull_small_bundle
    stats = bundle.default_stats()
    identity = Resamples(counts=np.ones(bundle.n_obs, dtype=int)[None, :])
    mean = stats.values.mean(axis=0)
    run_is, _ = boot_importance(stats, bundle.loglik, identity)
    run_1 = boot_first(stats, bundle.loglik, identity)
    run_2 = boot_second(stats, bundle.loglik, identity, mode="direct")
    exact_gap = max(
        float(np.max(np.abs(run.estimates[0] - mean) / np.abs(mean)))
        for run in (run_is, run_1, run_2)
    )

    resamples = draw_resamples(bundle.n_obs, 200, seed=20)
    _, diags = boot_importance(stats, bundle.loglik, resamples)
    n_concentrated = int(np.sum(diags.max_weight > 0.4))

    bb = run_model(BetaBinomialConfig(seed=24, m_draws=5000))
    bb_stats = bb.default_stats()
    bb_resamples = draw_resamples(bb.n_obs, 400, seed=113)

    def refit(counts):
        return [bb.exact_weighted_mean(WeightVector(counts.astype(float)), "q_mean")]

    gold = boot_gold(refit, bb_resamples)
    first = boot_first(bb_stats, bb.loglik, bb_resamples)
    corr = float(np.corrcoef(gold.estimates[:, 0], first.estimates[:, 0])[0, 1])

    ok = exact_gap < 1e-12 and n_concentrated >= 1 and corr > 0.9
    report(
        13,
        ok,
        f"identity-resample gap {exact_gap:.2e} (<1e-12), {n_concentrated} replicates "
        f"with max weight >0.4, gold-standard correlation {corr:.3f} (>0.9)",
    )


def test_criterion_14_embedding_diagnostic():
    worst_gap = 0.0
    worst_rel = 0.0
    for seed in range(5):
        bundle = run_model(NormalMeanConfig(n=200, m_draws=10000, seed=seed))
        emb = build_embedding(
            bundle.draws, bundle.theta_hat, bundle.scores.hessian_sum, n=200
        )
        worst_gap = max(worst_gap, emb.orthogonality_gap())
        # (n/M) lambda_1(Z) equals lambda_1 of (1/n-scaled) centered W exactly,
        # so the 10000 x 10000 dual matrix is never materialized
        wc = build_w(bundle.loglik, kind="double_centered")
        lam1 = float(np.linalg.eigvalsh(wc.values)[-1])
        sandwich = build_info_matrices(bundle.scores).sandwich[0, 0]
        worst_rel = max(worst_rel, abs(lam1 - sandwich) / sandwich)
    ok = worst_gap < 0.1 and worst_rel < 0.2
    report(
        14,
        ok,
        f"worst orthogonality gap {worst_gap:.3f} (<0.1), worst eigenvalue rel diff "
        f"{worst_rel:.3f} (<0.2), 5 seeds",
    )


def test_criterion_15_cli_determinism(tmp_path):
    from wkernel.cli import main

    rng = np.random.default_rng(115)
    ll_path = tmp_path / "loglik.csv"
    st_path = tmp_path / "stats.csv"
    lp_path = tmp_path / "logprior.csv"
    save_matrix(ll_path, rng.standard_normal((40, 6)))
    save_matrix(st_path, rng.standard_normal((40, 2)), header=["a", "b"])
    save_matrix(lp_path, rng.standard_normal(40), header=["logprior"])

    invocations = {
        "eigen": ["eigen", str(ll_path)],
        "freqcov": ["freqcov", str(ll_path), str(st_path), "--estimator", "centered"],
        "boot": [
            "boot",
            str(ll_path),
            str(st_path),
            "--method",
            "importance",
            "--n-b",
            "25",
            "--seed",
            "3",
        ],
        "rep": ["rep", str(ll_path)],
        "diag": ["diag", str(ll_path), str(st_path), "--logprior", str(lp_path)],
        "zmat": ["zmat", str(ll_path)],
        "demo": ["demo", "betabinom", "--seed", "5"],
    }

    def run_into(argv, outdir):
        rc = main(argv + ["--threads", "1", "--out", str(outdir)])
        assert rc == 0
        blobs = {}
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                blobs[name] = fh.read()
        return blobs

    mismatched = []
    for name, argv in invocations.items():
        first = run_into(argv, tmp_path / f"{name}_a")
        second = run_into(argv, tmp_path / f"{name}_b")
        if first != second:
            mismatched.append(name)
    ok = not mismatched
    report(
        15,
        ok,
        "all 7 commands byte-identical on repeat"
        if ok
        else f"mismatch in: {', '.join(mismatched)}",
    )
