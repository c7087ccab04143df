"""Workload inputs and sessions.

Every input is generated here with numpy from the workload seed; wkernel
receives only the CSV files (``demo`` receives the seed).  The posterior
draws are independent Gaussian draws from a Laplace-style approximation
around a point estimate, which gives log-likelihood matrices of the
right shape and spectrum without running a sampler in the benchmark.

Each workload is sized so that one hot spot of the program dominates it
and is absent or negligible in another (see README.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Seed to hold out when checking a later performance claim; never used
# while tuning the benchmark.
HELD_OUT_SEED = 20231117


@dataclass(frozen=True)
class Workload:
    name: str
    M: int
    n: int
    # (label, argv after "python -m wkernel.cli"); "{ll}", "{st}", "{lp}"
    # and "{seed}" are filled in per run
    session: tuple


def _student_logpdf(resid, sigma, df):
    r = resid / sigma
    from math import lgamma, log, pi

    const = lgamma((df + 1) / 2) - lgamma(df / 2) - 0.5 * log(df * pi)
    return const - np.log(sigma) - ((df + 1) / 2) * np.log1p(r * r / df)


def _laplace_cov(logpost, u0, h=1e-4):
    """Inverse of the central-difference negative Hessian at u0."""
    k = u0.size
    hess = np.empty((k, k))
    eye = np.eye(k) * h
    for a in range(k):
        for b in range(k):
            hess[a, b] = (
                logpost(u0 + eye[a] + eye[b])
                - logpost(u0 + eye[a] - eye[b])
                - logpost(u0 - eye[a] + eye[b])
                + logpost(u0 - eye[a] - eye[b])
            ) / (4 * h * h)
    return np.linalg.inv(-(hess + hess.T) / 2)


def gen_wide(rng, M, n, per_group=4, df=4.0):
    """Hierarchical Student-t with groups of per_group observations;
    statistics are the means of groups 0-2 and the grand mean."""
    group = np.arange(n) // per_group
    groups = group[-1] + 1
    mu_true = rng.standard_normal(groups)
    y = mu_true[group] + 0.5 * rng.standard_t(df, size=n)
    ybar = np.bincount(group, weights=y) / np.bincount(group)
    # per-group posterior spread varies, which separates the leading eigenvalues
    spread = 0.25 * np.exp(0.3 * rng.standard_normal(groups))
    mu = (0.8 * ybar + 0.2 * ybar.mean()) + spread * rng.standard_normal((M, groups))
    sigma = 0.5 * np.exp(0.05 * rng.standard_normal((M, 1)))
    loglik = _student_logpdf(y - mu[:, group], sigma, df)
    stats = np.column_stack([mu[:, :3], mu.mean(axis=1)])
    return {
        "ll": (loglik, [f"obs_{i}" for i in range(n)]),
        "st": (stats, ["mu_0", "mu_1", "mu_2", "mu_grand"]),
    }


def gen_resample_dual(rng, M, n, df=5.0, sigma=0.3, prior_sd=10.0):
    """Cubic regression with Student-t errors of known scale, p = 4, and
    independent N(0, prior_sd^2) priors on the coefficients."""
    z = np.linspace(-1.0, 1.0, n)
    y = np.sin(np.pi * z) + sigma * rng.standard_t(4, size=n)
    design = np.vander(z, 4, increasing=True)
    beta_hat, *_ = np.linalg.lstsq(design, y, rcond=None)

    def logpost(b):
        return float(np.sum(_student_logpdf(y - design @ b, sigma, df)))

    beta = rng.multivariate_normal(beta_hat, _laplace_cov(logpost, beta_hat), size=M)
    loglik = _student_logpdf(y - beta @ design.T, sigma, df)
    return {
        "ll": (loglik, [f"obs_{i}" for i in range(n)]),
        "st": (beta, [f"beta_{j}" for j in range(4)]),
        "lp": (-0.5 * np.sum((beta / prior_sd) ** 2, axis=1)
               - 4 * np.log(prior_sd * np.sqrt(2 * np.pi)), ["logprior"]),
    }


_GENERATORS = {"wide": gen_wide, "resample_dual": gen_resample_dual}

_BOOT = ("boot", "{ll}", "{st}", "--seed", "{seed}")

WORKLOADS = {
    "wide": Workload(
        name="wide",
        M=505,
        n=1000,
        session=(
            ("eigen", ("eigen", "{ll}")),
            ("rep", ("rep", "{ll}")),
            ("freqcov", ("freqcov", "{ll}", "{st}", "--estimator", "projected", "--rank", "8")),
            ("boot_second", _BOOT + ("--method", "second_projected", "--rank", "8", "--n-b", "500")),
        ),
    ),
    "resample_dual": Workload(
        name="resample_dual",
        M=2500,
        n=120,
        session=(
            ("boot_first", _BOOT + ("--method", "first", "--n-b", "10000")),
            ("boot_importance", _BOOT + ("--method", "importance", "--n-b", "10000")),
            ("boot_second", _BOOT + ("--method", "second_efficient", "--n-b", "10000")),
            ("zmat", ("zmat", "{ll}")),
            ("diag", ("diag", "{ll}", "{st}", "--logprior", "{lp}")),
            ("demo", ("demo", "weibull", "--seed", "{seed}")),
        ),
    ),
}


def generate(name: str, seed: int, M: int, n: int) -> dict:
    """Inputs of one workload: {key: (array, header)}; same seed, same arrays."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _GENERATORS[name](rng, M, n)


def write_csv(path: str, arr, header) -> None:
    """Shortest round-trip formatting, as wkernel writes its own CSVs."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in arr.tolist())


def write_inputs(inputs: dict, directory: str) -> dict:
    """Write every input as CSV; returns {key: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for key, (arr, header) in inputs.items():
        paths[key] = os.path.join(directory, f"{key}.csv")
        write_csv(paths[key], arr, header)
    return paths
