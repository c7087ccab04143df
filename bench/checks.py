"""Output checks against independent numpy references.

Every reference is computed here from the benchmark's own generated
inputs, never from wkernel code.  ``check_command`` returns a list of
problems; an empty list means the command's outputs are correct.
"""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np

DEFAULT_REL_TOL = 1e-8  # wkernel's documented default for eigen/rep
DEFAULT_MAX_RANK = 500  # wkernel's documented default rank cap
BOOT_ROWS = 50  # leading bootstrap replicates compared with the reference
# every key of the Weibull demo's report.csv (eigenvalue_1.. depend on the rank)
DEMO_KEYS = ("model", "n_obs", "n_draws", "trace_w", "waic_penalty",
             "pcic_penalty", "acceptance_rate", "eigenvalue_0", "boot_mean_gamma",
             "boot_mean_lambda", "boot_var_gamma", "boot_var_lambda")
DEMO_SHAPE = (12000, 59)  # the Weibull demo's documented draws x observations


def load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_keyvalue(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",", 1) for line in fh][1:]
    return dict(rows)


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _close(got, want, tol, what) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= tol:
        return [f"{what}: max abs error {err:.3e} above {tol:.3e}"]
    return []


class Reference:
    """Reference quantities of one workload's inputs, computed on demand."""

    def __init__(self, inputs: dict):
        self.loglik = np.asarray(inputs["ll"][0], dtype=float)
        self.stats = np.asarray(inputs["st"][0], dtype=float)
        self.M, self.n = self.loglik.shape

    @cached_property
    def centered(self) -> np.ndarray:
        return self.loglik - self.loglik.mean(axis=0)

    @cached_property
    def stats_centered(self) -> np.ndarray:
        return self.stats - self.stats.mean(axis=0)

    @cached_property
    def w(self) -> np.ndarray:
        w = self.centered.T @ self.centered / self.M
        return (w + w.T) / 2

    @cached_property
    def w_eigh(self):
        vals, vecs = np.linalg.eigh(self.w)
        return vals[::-1], vecs[:, ::-1]

    @cached_property
    def grid(self) -> np.ndarray:
        """p x n posterior covariances of the statistics with the log-likelihoods."""
        return self.stats_centered.T @ self.centered / self.M

    def top_vectors(self, rank: int) -> np.ndarray:
        return self.w_eigh[1][:, :rank]

    def pivoted_factor(self, pivots):
        """Left-looking Cholesky of W along the given pivots.

        Returns the factor, the residual trace after each column and the
        index of the first pivot that was not a largest residual
        diagonal (None when every pivot was greedy).
        """
        w, trace = self.w, float(np.trace(self.w))
        d = np.diagonal(w).copy()
        factor = np.zeros((self.n, len(pivots)))
        active = np.ones(self.n, dtype=bool)
        history, not_greedy = [], None
        for j, p in enumerate(pivots):
            if not_greedy is None and d[p] < np.max(d[active]) - 1e-10 * trace:
                not_greedy = j
            col = (w[:, p] - factor[:, :j] @ factor[p, :j]) / np.sqrt(d[p])
            factor[:, j] = col
            d -= col * col
            active[p] = False
            history.append(float(np.sum(d[active])))
        return factor, np.array(history), not_greedy

    def resample_eta(self, seed: int, rows: int) -> np.ndarray:
        """Perturbations of replicates 0..rows-1 under the documented contract:
        replicate r uses Philox(key=seed) jumped r times, draws n uniform
        indices and counts them."""
        eta = np.empty((rows, self.n))
        for r in range(rows):
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(r))
            cats = rng.integers(0, self.n, size=self.n)
            eta[r] = np.bincount(cats, minlength=self.n) - 1.0
        return eta

    def boot_estimates(self, method: str, seed: int, rows: int, rank=None):
        eta = self.resample_eta(seed, rows)
        mean = self.stats.mean(axis=0)
        if method == "importance":
            logw = eta @ self.loglik.T
            logw -= logw.max(axis=1, keepdims=True)
            weights = np.exp(logw)
            weights /= weights.sum(axis=1, keepdims=True)
            return weights @ self.stats
        est = mean + eta @ self.grid.T
        if method == "second_efficient":
            collapsed = self.loglik @ eta.T
            collapsed -= collapsed.mean(axis=0)
            est += 0.5 * (collapsed**2).T @ self.stats_centered / self.M
        elif method == "second_projected":
            u = self.top_vectors(rank)
            proj = self.loglik @ u
            proj -= proj.mean(axis=0)
            tensor = np.einsum("up,ua,ub->pab", self.stats_centered, proj, proj) / self.M
            h = eta @ u
            est += 0.5 * np.einsum("ra,pab,rb->rp", h, tensor, h)
        return est


def _check_spectrum(ref: Reference, outdir: str, pivots) -> list:
    """eigen/rep: the factor along the reported pivots is greedy and its
    spectrum equals the reported one; the reported spectrum also matches
    eigvalsh(C^T C / M) within the residual trace (Weyl)."""
    problems = []
    factor, history, not_greedy = ref.pivoted_factor(pivots)
    if not_greedy is not None:
        problems.append(f"pivot {not_greedy} is not a largest residual diagonal")
    tol = DEFAULT_REL_TOL * float(np.trace(ref.w))
    if np.any(history[:-1] <= tol) or not (
        history[-1] <= tol or len(pivots) == min(ref.n, DEFAULT_MAX_RANK)
    ):
        problems.append(f"factorization stopped at rank {len(pivots)} against its rule")
    if outdir is None:
        return problems
    evals = load_csv(os.path.join(outdir, "eigenvalues.csv"))[:, 1]
    vecs = load_csv(os.path.join(outdir, "eigenvectors.csv"))
    resid = load_csv(os.path.join(outdir, "residual_trace.csv"))[:, 1]
    lam_max = ref.w_eigh[0][0]
    k = evals.size
    nystrom = np.linalg.eigvalsh(factor.T @ factor)[::-1][:k]
    problems += _close(evals, nystrom, 1e-8 * lam_max, "eigenvalues vs pivoted factor")
    weyl = 1e-8 * lam_max + max(float(resid[-1]), 0.0)
    problems += _close(evals, ref.w_eigh[0][:k], weyl, "eigenvalues vs eigvalsh(W)")
    trace = float(np.trace(ref.w))
    problems += _close(resid, history, 1e-8 * trace, "residual trace")
    if vecs.shape != (ref.n, k):
        problems.append(f"eigenvectors shape {vecs.shape}, expected {(ref.n, k)}")
    else:
        problems += _close(vecs.T @ vecs, np.eye(k), 1e-8, "eigenvector orthonormality")
    return problems


def check_command(ref: Reference, argv, outdir: str, session: dict) -> list:
    """Problems found in one command's outputs; ``session`` carries the
    eigen pivots forward to the rep check of the same session."""
    command = argv[0]
    out = lambda name: os.path.join(outdir, name)  # noqa: E731
    try:
        if command == "eigen":
            pivots = load_csv(out("cholesky_pivots.csv"))[:, 1].astype(int)
            session["pivots"] = pivots
            problems = _check_spectrum(ref, outdir, pivots)
            if not os.path.getsize(out("scree.svg")):
                problems.append("empty scree.svg")
            return problems
        if command == "rep":
            idx = load_csv(out("representative_indices.csv"))[:, 1].astype(int)
            if "pivots" not in session:
                return _check_spectrum(ref, None, idx)
            if not np.array_equal(idx, session["pivots"]):
                return ["representative indices differ from eigen's pivots"]
            return []
        if command == "freqcov":
            return _check_freqcov(ref, argv, out)
        if command == "diag":
            pen = load_keyvalue(out("penalties.csv"))
            trace = float(np.trace(ref.w))
            return _close(float(pen["waic_penalty"]), trace, 1e-10 * trace, "waic_penalty vs tr W")
        if command == "boot":
            return _check_boot(ref, argv, out)
        if command == "zmat":
            return _check_zmat(ref, out, session)
        if command == "demo":
            return _check_demo(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    return [f"no check for command {command!r}"]


def _check_freqcov(ref, argv, out):
    estimator = _option(argv, "--estimator", "plain")
    sigma = load_csv(out("sigma.csv"))
    if estimator == "centered":
        grid = ref.grid - ref.grid.mean(axis=1, keepdims=True)
    elif estimator == "projected":
        proj = ref.centered @ ref.top_vectors(int(_option(argv, "--rank")))
        grid = ref.stats_centered.T @ proj / ref.M
    else:
        grid = ref.grid
    want = grid @ grid.T
    return _close(sigma, want, 1e-8 * np.max(np.abs(want)), f"sigma ({estimator})")


def _check_boot(ref, argv, out):
    method = _option(argv, "--method", "first")
    n_b = int(_option(argv, "--n-b", "1000"))
    seed = int(_option(argv, "--seed", "0"))
    rank = _option(argv, "--rank")
    est = load_csv(out("estimates.csv"))
    problems = []
    if est.shape != (n_b, ref.stats.shape[1]):
        problems.append(f"estimates shape {est.shape}, expected {(n_b, ref.stats.shape[1])}")
    rows = min(BOOT_ROWS, n_b)
    want = ref.boot_estimates(method, seed, rows, None if rank is None else int(rank))
    scale = np.max(np.abs(want - ref.stats.mean(axis=0)), axis=0)
    problems += _close((est[:rows] - want) / scale, np.zeros_like(want), 1e-8,
                       f"estimates ({method}), relative to the replicate spread")
    with open(out("summary.csv"), encoding="utf-8") as fh:
        summary_rows = len(fh.readlines()) - 1
    if summary_rows != ref.stats.shape[1]:
        problems.append("summary.csv has the wrong number of rows")
    if method == "importance" and load_csv(out("is_diagnostics.csv")).shape[0] != n_b:
        problems.append("is_diagnostics.csv has the wrong number of rows")
    return problems


def _check_zmat(ref, out, session):
    z = load_csv(out("z_eigenvalues.csv"))[:, 1]
    shared = min(ref.n, ref.M) - 1
    dev = (ref.loglik - ref.loglik.mean(axis=0) - ref.loglik.mean(axis=1, keepdims=True)
           + ref.loglik.mean())
    sv = np.linalg.svd(dev, compute_uv=False)
    want = sv[:shared] ** 2 / (ref.n * ref.M)
    session["duality_reported_diff"] = float(
        load_keyvalue(out("duality_report.csv"))["max_rel_eigenvalue_diff"])
    if z.size != ref.M:
        return [f"{z.size} Z eigenvalues, expected {ref.M}"]
    return _close(z[:shared] / ref.M, want, 1e-10 * want[0], "Z eigenvalues / M vs SVD")


def _check_demo(out):
    report = load_keyvalue(out("report.csv"))
    problems = [f"report.csv lacks {key}" for key in DEMO_KEYS if key not in report]
    if not problems:
        trace_w, waic = float(report["trace_w"]), float(report["waic_penalty"])
        problems += _close(trace_w, waic, 1e-10 * abs(waic), "trace_w vs waic_penalty")
    shape = load_csv(out("loglik.csv")).shape
    if shape != DEMO_SHAPE:
        problems.append(f"loglik.csv reloads as {shape}, expected {DEMO_SHAPE}")
    return problems
