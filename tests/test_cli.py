"""CSV round trips, config parsing, command artifacts, determinism."""

import dataclasses
import errno
import inspect
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from wkernel import cli, commands, models
from wkernel.cli import main
from wkernel.core import LogLikMatrix
from wkernel.errors import InvalidInput, ParseError
from wkernel.kernels import build_z
from wkernel.matio import (
    load_config,
    load_matrix,
    load_vector,
    save_matrix,
    write_scree_svg,
)


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def make_loglik_csv(path, m=60, n=8, seed=0):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((m, n))
    save_matrix(path, arr, header=[f"obs_{i}" for i in range(n)])
    return arr


def make_stats_csv(path, m=60, p=2, seed=1):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((m, p))
    save_matrix(path, arr, header=[f"s{j}" for j in range(p)])
    return arr


class TestMatrixIO:
    def test_plain_two_by_two(self, tmp_path):
        path = tmp_path / "m.csv"
        write(path, "1,2\n3,4\n")
        arr, header = load_matrix(path)
        np.testing.assert_array_equal(arr, [[1.0, 2.0], [3.0, 4.0]])
        assert header is None

    def test_header_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        write(path, "a,b\n1,2\n")
        arr, header = load_matrix(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(arr, [[1.0, 2.0]])

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = np.concatenate(
            [
                rng.standard_normal(50) * 10.0**rng.integers(-200, 200, size=50),
                [0.0, -0.0, 1e-308, -1.7976931348623157e308],
            ]
        ).reshape(-1, 2)
        path = tmp_path / "m.csv"
        save_matrix(path, arr)
        back, _ = load_matrix(path)
        np.testing.assert_array_equal(back, arr)

    def test_ragged_row_location(self, tmp_path):
        path = tmp_path / "m.csv"
        write(path, "1,2\n3\n")
        with pytest.raises(ParseError, match="row 2"):
            load_matrix(path)

    def test_non_numeric_cell_location(self, tmp_path):
        path = tmp_path / "m.csv"
        write(path, "1,2\n3,x\n")
        with pytest.raises(ParseError, match="row 2, col 2"):
            load_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        write(path, "")
        with pytest.raises(ParseError, match="empty"):
            load_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write(path, "1,inf\n")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_row_names_column(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix(path, [[1.0, 0.5]], header=["name", "a", "b"], row_names=["x"])
        assert path.read_text() == "name,a,b\nx,1.0,0.5\n"
        with pytest.raises(InvalidInput):
            save_matrix(path, [[1.0, 0.5]], header=["a", "b"], row_names=["x"])

    def test_load_vector(self, tmp_path):
        path = tmp_path / "v.csv"
        write(path, "logprior\n1.5\n-2.0\n")
        vec, header = load_vector(path)
        np.testing.assert_array_equal(vec, [1.5, -2.0])
        assert header == ["logprior"]


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        write(path, "# comment\nseed = 9\nn_b= 50\nout =results\n")
        cfg = load_config(path)
        assert cfg == {"seed": "9", "n_b": "50", "out": "results"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        write(path, "seed 9\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_cli_flag_overrides_file(self, tmp_path):
        ll = tmp_path / "ll.csv"
        stats = tmp_path / "st.csv"
        make_loglik_csv(ll)
        make_stats_csv(stats)
        cfgfile = tmp_path / "run.cfg"
        write(cfgfile, "n_b = 7\nseed = 3\n")
        out = tmp_path / "out"
        rc = main(
            [
                "boot",
                str(ll),
                str(stats),
                "--config",
                str(cfgfile),
                "--n-b",
                "9",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        est, _ = load_matrix(out / "estimates.csv")
        assert est.shape[0] == 9  # flag wins over the file's 7

    def test_byte_order_mark_does_not_hide_the_first_key(self, tmp_path):
        ll, stats, cfgfile = tmp_path / "ll.csv", tmp_path / "st.csv", tmp_path / "run.cfg"
        make_loglik_csv(ll)
        make_stats_csv(stats)
        cfgfile.write_bytes(b"\xef\xbb\xbfn_b = 7\n")
        out = tmp_path / "out"
        assert main(["boot", str(ll), str(stats), "--config", str(cfgfile), "--out", str(out)]) == 0
        est, _ = load_matrix(out / "estimates.csv")
        assert est.shape[0] == 7


class TestScreeSvg:
    def test_emits_bars(self, tmp_path):
        path = tmp_path / "scree.svg"
        write_scree_svg(path, [3.0, 1.0, 0.1])
        text = path.read_text()
        assert text.count("<rect") == 4  # background + one bar per value
        assert "</svg>" in text


class TestCommands:
    def test_eigen_on_w_matrix(self, tmp_path):
        w = tmp_path / "w.csv"
        write(w, "2,1\n1,2\n")
        out = tmp_path / "out"
        rc = main(["eigen", str(w), "--matrix", "w", "--out", str(out)])
        assert rc == 0
        eig, _ = load_matrix(out / "eigenvalues.csv")
        np.testing.assert_allclose(eig[:, 1], [3.0, 1.0], atol=1e-12)
        assert (out / "scree.svg").exists()
        assert (out / "residual_trace.csv").exists()
        assert (out / "cholesky_pivots.csv").exists()

    def test_eigen_from_loglik(self, tmp_path):
        ll = tmp_path / "ll.csv"
        arr = make_loglik_csv(ll)
        out = tmp_path / "out"
        assert main(["eigen", str(ll), "--out", str(out)]) == 0
        eig, _ = load_matrix(out / "eigenvalues.csv")
        centered = arr - arr.mean(axis=0)
        w = centered.T @ centered / arr.shape[0]
        np.testing.assert_allclose(
            eig[:, 1], np.linalg.eigvalsh(w)[::-1][: len(eig)], atol=1e-8
        )

    def test_freqcov_artifacts(self, tmp_path):
        ll = tmp_path / "ll.csv"
        st = tmp_path / "st.csv"
        make_loglik_csv(ll)
        make_stats_csv(st)
        out = tmp_path / "out"
        rc = main(["freqcov", str(ll), str(st), "--estimator", "centered", "--out", str(out)])
        assert rc == 0
        sigma, header = load_matrix(out / "sigma.csv")
        assert sigma.shape == (2, 2) and header == ["s0", "s1"]
        meta = (out / "freqcov_meta.csv").read_text()
        assert "estimator,centered" in meta

    def test_freqcov_prior_adjusted_and_projected(self, tmp_path):
        ll = tmp_path / "ll.csv"
        st = tmp_path / "st.csv"
        lp = tmp_path / "lp.csv"
        make_loglik_csv(ll)
        make_stats_csv(st)
        save_matrix(lp, np.random.default_rng(7).standard_normal(60), header=["logprior"])
        out1 = tmp_path / "adj"
        rc = main(
            [
                "freqcov",
                str(ll),
                str(st),
                "--estimator",
                "prior_adjusted",
                "--logprior",
                str(lp),
                "--out",
                str(out1),
            ]
        )
        assert rc == 0
        out2 = tmp_path / "proj"
        rc = main(
            [
                "freqcov",
                str(ll),
                str(st),
                "--estimator",
                "projected",
                "--rank",
                "4",
                "--out",
                str(out2),
            ]
        )
        assert rc == 0
        assert "rank_used,4" in (out2 / "freqcov_meta.csv").read_text()
        # missing log prior for the adjusted estimator is invalid input
        assert (
            main(["freqcov", str(ll), str(st), "--estimator", "prior_adjusted"]) == 2
        )

    def test_boot_projected_first_order(self, tmp_path):
        ll = tmp_path / "ll.csv"
        st = tmp_path / "st.csv"
        make_loglik_csv(ll)
        make_stats_csv(st)
        out = tmp_path / "out"
        rc = main(
            [
                "boot",
                str(ll),
                str(st),
                "--method",
                "first",
                "--rank",
                "3",
                "--n-b",
                "10",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        est, _ = load_matrix(out / "estimates.csv")
        assert est.shape == (10, 2)

    def test_boot_methods_and_diagnostics(self, tmp_path):
        ll = tmp_path / "ll.csv"
        st = tmp_path / "st.csv"
        make_loglik_csv(ll)
        make_stats_csv(st)
        out = tmp_path / "imp"
        rc = main(
            [
                "boot",
                str(ll),
                str(st),
                "--method",
                "importance",
                "--n-b",
                "20",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "is_diagnostics.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "statistic,mean,var,q10,q25,q75,q90"
        assert len(summary) == 3

        out2 = tmp_path / "second"
        rc = main(
            [
                "boot",
                str(ll),
                str(st),
                "--method",
                "second_projected",
                "--rank",
                "3",
                "--n-b",
                "10",
                "--seed",
                "4",
                "--out",
                str(out2),
            ]
        )
        assert rc == 0
        assert not (out2 / "is_diagnostics.csv").exists()

    def test_boot_zero_replicates_is_usage_error(self, tmp_path):
        ll = tmp_path / "ll.csv"
        st = tmp_path / "st.csv"
        make_loglik_csv(ll)
        make_stats_csv(st)
        assert main(["boot", str(ll), str(st), "--n-b", "0"]) == 2

    def test_rep_artifacts(self, tmp_path):
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll)
        out = tmp_path / "out"
        assert main(["rep", str(ll), "--out", str(out)]) == 0
        idx, header = load_matrix(out / "representative_indices.csv")
        assert header == ["pivot_rank", "observation"]
        assert len(idx) >= 1

    def test_rep_writes_pivots_without_eigenproblem(self, tmp_path, monkeypatch):
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll)
        opts = ["--max-rank", "5", "--threads", "1"]
        assert main(["eigen", str(ll), *opts, "--out", str(tmp_path / "eigen")]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("rep solved an eigenproblem")

        monkeypatch.setattr("wkernel.spectral.dual_eigen", refuse)
        monkeypatch.setattr("wkernel.spectral.representative_set", refuse)
        assert main(["rep", str(ll), *opts, "--out", str(tmp_path / "rep")]) == 0
        pivots = (tmp_path / "eigen" / "cholesky_pivots.csv").read_bytes()
        assert (tmp_path / "rep" / "representative_indices.csv").read_bytes() == pivots

    def test_diag_artifacts(self, tmp_path):
        ll = tmp_path / "ll.csv"
        st = tmp_path / "st.csv"
        make_loglik_csv(ll)
        make_stats_csv(st)
        lp = tmp_path / "lp.csv"
        rng = np.random.default_rng(3)
        save_matrix(lp, rng.standard_normal(60), header=["logprior"])
        out = tmp_path / "out"
        rc = main(["diag", str(ll), str(st), "--logprior", str(lp), "--out", str(out)])
        assert rc == 0
        pen = (out / "penalties.csv").read_text()
        assert "waic_penalty" in pen and "pcic_penalty" in pen
        cen = (out / "centering.csv").read_text().splitlines()
        assert cen[0] == "statistic,value,scale"

    def test_diag_scores_must_have_one_row_per_observation(self, tmp_path, capsys):
        ll, st, out = tmp_path / "ll.csv", tmp_path / "st.csv", tmp_path / "out"
        make_loglik_csv(ll, m=40, n=6)
        make_stats_csv(st, m=40)
        scores, hess = tmp_path / "scores.csv", tmp_path / "hess.csv"
        save_matrix(scores, np.random.default_rng(4).standard_normal((5, 2)))
        save_matrix(hess, np.eye(2))
        argv = ["diag", str(ll), str(st), "--scores", str(scores), "--hessian", str(hess)]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scores have 5 rows, log-likelihoods have 6 observations" in err
        assert not (out / "penalties.csv").exists()

    def test_diag_scores_with_one_row_per_observation(self, tmp_path):
        ll, st, out = tmp_path / "ll.csv", tmp_path / "st.csv", tmp_path / "out"
        make_loglik_csv(ll, m=40, n=6)
        make_stats_csv(st, m=40)
        scores, hess = tmp_path / "scores.csv", tmp_path / "hess.csv"
        save_matrix(scores, np.random.default_rng(4).standard_normal((6, 2)))
        save_matrix(hess, np.eye(2))
        argv = ["diag", str(ll), str(st), "--scores", str(scores), "--hessian", str(hess)]
        assert main(argv + ["--out", str(out)]) == 0
        assert "tic_penalty" in (out / "penalties.csv").read_text()

    @pytest.mark.parametrize(
        "hessian, code, message",
        [
            (np.eye(3), 2, "--hessian is 3 x 3, --scores has 2 columns"),
            (np.eye(2)[:1], 2, "--hessian is 1 x 2, --scores has 2 columns"),
            (np.zeros((2, 2)), 4, "numerical failure: J_hat is not positive definite"),
        ],
        ids=["too_big", "not_square", "singular"],
    )
    def test_diag_bad_hessian(self, tmp_path, capsys, hessian, code, message):
        ll, st, out = tmp_path / "ll.csv", tmp_path / "st.csv", tmp_path / "out"
        make_loglik_csv(ll, m=40, n=6)
        make_stats_csv(st, m=40)
        scores, hess = tmp_path / "scores.csv", tmp_path / "hess.csv"
        save_matrix(scores, np.random.default_rng(4).standard_normal((6, 2)))
        save_matrix(hess, hessian)
        argv = ["diag", str(ll), str(st), "--scores", str(scores), "--hessian", str(hess)]
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().err == f"wkernel: {message}\n"
        assert not (out / "penalties.csv").exists()

    @staticmethod
    def _zmat(tmp_path, arr):
        """Run zmat on ``arr``; return the duality report and Z's eigenvalues."""
        ll = tmp_path / "ll.csv"
        save_matrix(ll, arr)
        out = tmp_path / "out"
        assert main(["zmat", str(ll), "--out", str(out)]) == 0
        report = dict(
            line.split(",")
            for line in (out / "duality_report.csv").read_text().splitlines()[1:]
        )
        z_eigs, _ = load_matrix(out / "z_eigenvalues.csv")
        return report, z_eigs[:, 1]

    def test_zmat_duality_report(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((25, 6))
        report, _ = self._zmat(tmp_path, arr)
        assert list(report) == [
            "n_obs",
            "n_draws",
            "shared_rank_checked",
            "max_rel_eigenvalue_diff",
        ]
        assert float(report["max_rel_eigenvalue_diff"]) < 1e-10

    @pytest.mark.parametrize("m, n", [(25, 6), (6, 25), (12, 12)])
    def test_zmat_spectrum_matches_dense_z(self, tmp_path, m, n):
        arr = np.random.default_rng(m * n).standard_normal((m, n))
        report, z_eigs = self._zmat(tmp_path, arr)
        want = np.linalg.eigvalsh(build_z(LogLikMatrix(arr)).values)[::-1]
        assert z_eigs.shape == (m,)
        np.testing.assert_allclose(z_eigs, want, rtol=0, atol=1e-10 * want[0])
        assert np.all(z_eigs[min(m, n) :] == 0.0)
        assert int(report["shared_rank_checked"]) == min(m, n) - 1
        assert float(report["max_rel_eigenvalue_diff"]) < 1e-10

    def test_zmat_duality_on_low_rank_input(self, tmp_path):
        # 30 draws x 50 observations of rank 3: most shared eigenvalues are
        # rounding noise, which must not read as a duality gap
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 50))
        report, _ = self._zmat(tmp_path, arr)
        assert int(report["shared_rank_checked"]) == 29
        assert float(report["max_rel_eigenvalue_diff"]) < 1e-10

    def test_zmat_needs_two_observations(self, tmp_path, capsys):
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll, m=5, n=1)
        assert main(["zmat", str(ll), "--out", str(tmp_path / "out")]) == 2
        assert "at least 2 observations" in capsys.readouterr().err

    def test_zmat_builds_no_draw_by_draw_matrix(self, tmp_path):
        # Z for 4000 draws takes 128 MB; the smaller Gram product is 30 x 30
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll, m=4000, n=30)
        tracemalloc.start()
        try:
            assert main(["zmat", str(ll), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("method", ["second_efficient", "importance"])
    def test_boot_memory_grows_with_estimate_rows_only(self, tmp_path, method):
        # replicates are drawn and estimated in blocks: ten times the
        # replicates adds a few copies of the n_b x p estimates, not the
        # n_b x n counts (n / p = 75 times larger, twice over with eta)
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        make_loglik_csv(ll, m=50, n=300)
        make_stats_csv(st, m=50, p=4)
        peaks = {}
        for n_b in (2000, 20000):
            argv = ["boot", str(ll), str(st), "--method", method, "--n-b", str(n_b)]
            tracemalloc.start()
            try:
                assert main(argv + ["--out", str(tmp_path / "out")]) == 0
                peaks[n_b] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20000] - peaks[2000] <= 12 * (20000 - 2000) * 4 * 8

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        write(bad, "1,2\n3\n")
        assert main(["eigen", str(bad)]) == 3

    def test_mixed_first_row_is_data_not_header(self, tmp_path, capsys):
        # one numeric cell makes the first row data, so its bad cell is
        # reported instead of the row being dropped as a header
        ll = tmp_path / "ll.csv"
        write(ll, "1,0x10\n3,4\n5,6\n")
        assert main(["eigen", str(ll), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "non-numeric cell '0x10'" in err and "row 1, col 2" in err
        assert "Traceback" not in err

    def test_direct_tensor_size_limit_is_usage_error(self, tmp_path, capsys):
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        make_loglik_csv(ll, m=3, n=5001)
        make_stats_csv(st, m=3, p=4)
        argv = ["boot", str(ll), str(st), "--method", "second_direct", "--n-b", "1"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "4 x 5001^2" in err and str(10**8) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "m, n, p, budget, argv, needle",
        [
            (3, 5001, 4, None, ["--method", "second_direct"], "limit of 100000000"),
            (60, 8, 2, 127, ["--method", "second_projected"], "limit of 127"),
            (60, 8, 2, None, ["--method", "first", "--rank", "99"], "--rank 99"),
            # m as (log-likelihood draws, statistics draws)
            pytest.param(
                (60, 59), 8, 2, None, ["--method", "first"], "statistics have 59 draws",
                id="statistics-one-draw-short",
            ),
        ],
    )
    def test_boot_checks_before_drawing(
        self, tmp_path, capsys, monkeypatch, m, n, p, budget, argv, needle
    ):
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        m_ll, m_st = m if isinstance(m, tuple) else (m, m)
        make_loglik_csv(ll, m=m_ll, n=n)
        make_stats_csv(st, m=m_st, p=p)

        def refuse(*args, **kwargs):
            raise AssertionError("resamples drawn before the checks")

        # the one place that draws count rows
        monkeypatch.setattr("wkernel.bootstrap.Resamples._rows", refuse)
        if budget is not None:
            monkeypatch.setattr("wkernel.bootstrap.DIRECT_TENSOR_BUDGET", budget)
        argv = ["boot", str(ll), str(st), *argv, "--n-b", "20000"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert needle in capsys.readouterr().err

    def test_boot_estimate_size_limit_is_checked_before_drawing(
        self, tmp_path, capsys, monkeypatch
    ):
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        make_loglik_csv(ll, m=60, n=8)
        make_stats_csv(st, m=60, p=2)

        def refuse(*args, **kwargs):
            raise AssertionError("resamples drawn before the checks")

        monkeypatch.setattr("wkernel.bootstrap.Resamples._rows", refuse)
        # a block of 256 x 8 counts passes; 20000 x 2 estimates do not
        monkeypatch.setattr("wkernel.bootstrap.MAX_RESAMPLE_CELLS", 39999)
        argv = ["boot", str(ll), str(st), "--method", "first", "--n-b", "20000"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "n_b x p = 20000 x 2 replicate estimates exceed the limit of 39999" in err

    def test_freqcov_checks_draw_count_before_projecting(self, tmp_path, capsys, monkeypatch):
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        make_loglik_csv(ll, m=60)
        make_stats_csv(st, m=59)

        def refuse(*args, **kwargs):
            raise AssertionError("projection built before the draw-count check")

        monkeypatch.setattr("wkernel.commands._projection", refuse)
        argv = ["freqcov", str(ll), str(st), "--estimator", "projected"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "statistics have 59 draws, log-likelihoods have 60" in capsys.readouterr().err

    def test_diag_with_unpaired_statistics_writes_nothing(self, tmp_path, capsys):
        ll, st, out = tmp_path / "ll.csv", tmp_path / "st.csv", tmp_path / "o"
        make_loglik_csv(ll, m=60)
        make_stats_csv(st, m=59)
        assert main(["diag", str(ll), str(st), "--out", str(out)]) == 2
        assert "statistics have 59 draws" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_resample_size_limit_is_usage_error(self, tmp_path, capsys):
        here = os.path.dirname(os.path.abspath(__file__))
        inputs = os.path.join(here, "golden", "inputs")
        argv = [
            "boot",
            os.path.join(inputs, "loglik.csv"),
            os.path.join(inputs, "stats.csv"),
            "--n-b",
            str(10**12),
            "--out",
            str(tmp_path / "o"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"n_b x p = {10**12} x 2" in err and str(2**27) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, data",
        [
            ("ll.csv", b"a,b\n1,2\n3,\xff\n"),  # met by the cell parser's re-read
            ("ll.csv", b"\xff,b\n1,2\n"),  # met by the first-line read
            ("run.cfg", b"n_b = \xff\n"),  # met by load_config
        ],
        ids=["data-row", "first-line", "config"],
    )
    def test_file_that_is_not_utf8_is_parse_error(self, tmp_path, capsys, name, data):
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll)
        (tmp_path / name).write_bytes(data)
        argv = ["zmat", str(ll), "--out", str(tmp_path / "o")]
        if name == "run.cfg":
            argv += ["--config", str(tmp_path / name)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "parse error: cannot read" in err and str(tmp_path / name) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", ["1e400", "nan"])
    def test_non_finite_cell_is_parse_error(self, tmp_path, capsys, cell):
        # numpy's reader takes these cells; the cell parser must still
        # name them, and the CLI's np.errstate must not turn them into 4
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll, m=20, n=5)
        lines = ll.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = cell
        lines[2] = ",".join(cells)
        write(ll, "\n".join(lines) + "\n")
        assert main(["eigen", str(ll), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "non-finite value" in err and "row 3, col 2" in err
        assert "Traceback" not in err

    def test_cell_only_float_reads_still_runs(self, tmp_path):
        # numpy's reader refuses "1_0"; the cell parser reads it as 10.0
        ll = tmp_path / "ll.csv"
        arr = make_loglik_csv(ll, m=20, n=5)
        lines = ll.read_text().splitlines()
        lines[1] = "1_0," + lines[1].split(",", 1)[1]
        write(ll, "\n".join(lines) + "\n")
        arr[0, 0] = 10.0
        np.testing.assert_array_equal(load_matrix(ll)[0], arr)
        assert main(["eigen", str(ll), "--out", str(tmp_path / "o")]) == 0

    def test_dimension_mismatch_exit_code(self, tmp_path):
        ll = tmp_path / "ll.csv"
        st = tmp_path / "st.csv"
        make_loglik_csv(ll, m=60)
        make_stats_csv(st, m=50)
        assert main(["freqcov", str(ll), str(st)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2,1\n0,2\n", "W matrix is not symmetric"),
            ("1,0,0\n0,1,0\n", "must be square"),
        ],
    )
    def test_bad_w_file_is_invalid_input(self, tmp_path, capsys, text, message):
        w = tmp_path / "w.csv"
        write(w, text)
        argv = ["eigen", str(w), "--matrix", "w", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eigen", "rep"])
    def test_rank_cap_stop_is_said_once(self, tmp_path, capsys, command):
        # W has rank 4: a cap of 2 stops the factorization, the default cap does not
        ll = tmp_path / "ll.csv"
        rng = np.random.default_rng(7)
        arr = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 10))
        save_matrix(ll, arr, header=[f"obs_{i}" for i in range(10)])
        capped, full = tmp_path / "capped", tmp_path / "full"
        assert main([command, str(ll), "--max-rank", "2", "--out", str(capped)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "rank cap of 2" in lines[0] and "residual trace" in lines[0]
        assert main([command, str(ll), "--out", str(full)]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(os.listdir(capped)) == sorted(os.listdir(full))

    def test_loaded_log_likelihood_is_not_copied(self, tmp_path, monkeypatch):
        # centering in place takes numpy's ufunc buffer, whose size is fixed:
        # what it takes may not grow with the draws
        loaded, used = [], []

        def load_then_trace(path):
            arr, header = load_matrix(path)
            loaded.append(arr)
            tracemalloc.start()
            return arr, header

        monkeypatch.setattr("wkernel.matio.load_matrix", load_then_trace)
        for m in (200, 2000):
            ll = tmp_path / f"ll{m}.csv"
            make_loglik_csv(ll, m=m, n=300)
            try:
                held = commands._load_loglik(str(ll))
                used.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert np.shares_memory(held.values, loaded[-1])
        assert used[1] - used[0] < 0.01 * loaded[0].nbytes

    @staticmethod
    def _run_capped(argv):
        """``wkernel argv`` in a child process that may map 1.5 GB."""
        resource = pytest.importorskip("resource")
        limit = 3 * 2**29

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        return subprocess.run(
            [sys.executable, "-m", "wkernel.cli", *argv, "--threads", "1"],
            capture_output=True,
            text=True,
            env=_child_env(),
            preexec_fn=cap_address_space,
        )

    @pytest.mark.parametrize("command", ["eigen", "rep"])
    def test_wide_loglik_factors_under_address_limit(self, tmp_path, command):
        # W of 20000 observations would take 3.2 GB; it is read from the
        # 3 x 20000 centered log-likelihoods instead
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll, m=3, n=20000)
        proc = self._run_capped([command, str(ll), "--out", str(tmp_path / "o")])
        assert proc.returncode == 0, proc.stderr
        name = {"eigen": "cholesky_pivots", "rep": "representative_indices"}[command]
        pivots, _ = load_matrix(tmp_path / "o" / f"{name}.csv")
        assert pivots.shape == (2, 2)  # the centered rows have rank 2

    def test_out_of_memory_exits_2(self, tmp_path):
        # a billion draws take 8 GB before the first log-likelihood
        cfg = tmp_path / "demo.cfg"
        write(cfg, "m_draws = 1000000000\n")
        argv = ["demo", "normal_mean", "--config", str(cfg), "--out", str(tmp_path / "o")]
        proc = self._run_capped(argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("wkernel: out of memory: ")
        assert "Traceback" not in proc.stderr

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        w = tmp_path / "w.csv"
        write(w, "1,2\n2,1\n")  # indefinite
        assert main(["eigen", str(w), "--matrix", "w"]) == 4
        assert capsys.readouterr().err == (
            "wkernel: numerical failure: residual diagonal fell to -3.000e+00 "
            "(limit -2.000e-10); input is not PSD\n"
        )

    @pytest.mark.parametrize("matrix", ["loglik", "w"])
    @pytest.mark.parametrize("command", ["eigen", "rep"])
    def test_max_rank_above_n_names_the_flag(self, tmp_path, capsys, command, matrix):
        path = tmp_path / "ll.csv"
        arr = make_loglik_csv(path, m=60, n=6)
        if matrix == "w":
            path = tmp_path / "w.csv"
            save_matrix(path, np.cov(arr, rowvar=False, bias=True))
        argv = [command, str(path), "--matrix", matrix, "--max-rank", "100"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "wkernel: --max-rank 100 is above the 6 observations\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["freqcov", "{ll}", "{st}"],
            ["freqcov", "{ll}", "{st}", "--estimator", "projected"],
            ["diag", "{ll}", "{st}"],
            ["boot", "{ll}", "{st}", "--method", "first"],
            ["boot", "{ll}", "{st}", "--method", "second_projected"],
            ["boot", "{ll}", "{st}", "--method", "second_efficient"],
            ["boot", "{ll}", "{st}", "--method", "second_direct", "--n-b", "20"],
            ["eigen", "{ll}"],
            ["rep", "{ll}"],
            ["zmat", "{ll}"],
            # n > 2M: the Cholesky reads W's diagonal and columns from C
            ["eigen", "{wide}"],
            ["rep", "{wide}"],
        ],
    )
    def test_overflow_is_numerical_failure(self, tmp_path, capsys, argv):
        assert self._run_scaled(tmp_path, argv) == 4
        assert "numerical failure: overflow" in capsys.readouterr().err

    def test_importance_weights_survive_overflowing_scale(self, tmp_path):
        # the importance weights are shifted by their maximum before exp
        argv = ["boot", "{ll}", "{st}", "--method", "importance"]
        assert self._run_scaled(tmp_path, argv) == 0

    @staticmethod
    def _run_scaled(tmp_path, argv):
        """Run argv on a 20 x 5 log-likelihood ({wide}: 3 x 10) scaled by
        1e160; no RuntimeWarning may escape."""
        ll, st, wide = tmp_path / "ll.csv", tmp_path / "st.csv", tmp_path / "wide.csv"
        rng = np.random.default_rng(0)
        for path, shape in ((ll, (20, 5)), (wide, (3, 10))):
            arr = rng.standard_normal(shape) * 1e160
            save_matrix(path, arr, header=[f"obs_{i}" for i in range(shape[1])])
        make_stats_csv(st, m=20)
        argv = [a.format(ll=ll, st=st, wide=wide) for a in argv]
        argv += ["--out", str(tmp_path / "o")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return rc

    def test_missing_command_usage(self):
        assert main([]) == 2

    @pytest.mark.parametrize("out", ["afile", "afile/below"])
    def test_out_blocked_by_a_file_is_usage_error(self, tmp_path, capsys, out):
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll)
        write(tmp_path / "afile", "not a directory\n")
        assert main(["zmat", str(ll), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wkernel: cannot make the output directory ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, blocked",
        [
            ("freqcov", "sigma.csv"),  # save_matrix
            ("freqcov", "freqcov_meta.csv"),  # save_keyvalue
            ("eigen", "scree.svg"),  # write_scree_svg
        ],
    )
    def test_output_file_that_cannot_be_written_is_usage_error(
        self, tmp_path, capsys, command, blocked
    ):
        ll, st, out = tmp_path / "ll.csv", tmp_path / "st.csv", tmp_path / "o"
        make_loglik_csv(ll)
        make_stats_csv(st)
        (out / blocked).mkdir(parents=True)
        inputs = [str(ll), str(st)] if command == "freqcov" else [str(ll)]
        assert main([command, *inputs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"wkernel: cannot write {out / blocked}: {os.strerror(errno.EISDIR)}\n"
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_output_device_that_is_full_is_usage_error(self, tmp_path, capsys):
        # the open succeeds and the write fails, with no file name to report
        ll, out = tmp_path / "ll.csv", tmp_path / "o"
        make_loglik_csv(ll)
        out.mkdir()
        (out / "eigenvalues.csv").symlink_to("/dev/full")
        assert main(["eigen", str(ll), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"wkernel: cannot write: {os.strerror(errno.ENOSPC)}\n"

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll)
        outdir = tmp_path / "env_out"
        monkeypatch.setenv("WKERNEL_OUTDIR", str(outdir))
        assert main(["eigen", str(ll)]) == 0
        assert (outdir / "eigenvalues.csv").exists()


class TestDeterminism:
    def read_all(self, outdir):
        blobs = {}
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                blobs[name] = fh.read()
        return blobs

    def test_boot_byte_identical(self, tmp_path):
        ll = tmp_path / "ll.csv"
        st = tmp_path / "st.csv"
        make_loglik_csv(ll)
        make_stats_csv(st)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(
                [
                    "boot",
                    str(ll),
                    str(st),
                    "--method",
                    "second_direct",
                    "--n-b",
                    "50",
                    "--seed",
                    "11",
                    "--threads",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(self.read_all(out))
        assert outs[0] == outs[1]

    def test_demo_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(
                [
                    "demo",
                    "betabinom",
                    "--seed",
                    "5",
                    "--threads",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(self.read_all(out))
        assert outs[0] == outs[1]
        assert "report.csv" in outs[0] and "loglik.csv" in outs[0]


SAMPLE_INPUTS = {"loglik": "ll.csv", "stats": "st.csv", "model": "betabinom"}


def sample_value(kind, default):
    """A config-file spelling of a non-default value of an option."""
    if isinstance(kind, tuple):
        return next(v for v in kind if v != default)
    return {bool: "true", int: "7", float: "0.001", str: "extra.csv"}[kind]


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_flag_and_config_key_resolve_alike(self, tmp_path, command):
        _, inputs, options, _ = cli._COMMANDS[command]
        base = [command] + [SAMPLE_INPUTS[name] for name in inputs]
        parser = cli._build_parser()
        for name in options:
            kind, default, _, _ = cli._OPTIONS[name]
            value = sample_value(kind, default)
            flag = ["--" + name.replace("_", "-")] + ([] if kind is bool else [value])
            cfg = tmp_path / f"{name}.cfg"
            write(cfg, f"{name} = {value}\n")
            by_flag = cli._resolve_options(command, parser.parse_args(base + flag), {})
            args = parser.parse_args(base + ["--config", str(cfg)])
            by_file = cli._resolve_options(command, args, load_config(args.config))
            assert by_flag == by_file, name
            assert by_flag[name] != default, name

    @pytest.mark.parametrize(
        "argv, text, key",
        [
            (["boot", "{ll}", "{st}"], "n_b = abc", "n_b"),
            (["eigen", "{ll}"], "matrix = bogus", "matrix"),
            (["eigen", "{ll}"], "log_scree = maybe", "log_scree"),
            (["demo", "betabinom"], "n = abc", "n"),
        ],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, argv, text, key):
        ll, st, cfg = tmp_path / "ll.csv", tmp_path / "st.csv", tmp_path / "run.cfg"
        make_loglik_csv(ll)
        make_stats_csv(st)
        write(cfg, text + "\n")
        argv = [a.format(ll=ll, st=st) for a in argv]
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config key {key}:" in err and "Traceback" not in err

    def test_demo_seed_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write(cfg, "seed = 9\n")
        outs = []
        for tag, extra in (("file", ["--config", str(cfg)]), ("alone", [])):
            out = tmp_path / tag
            argv = ["demo", "betabinom", "--seed", "5", "--threads", "1", "--out", str(out)]
            assert main(argv + extra) == 0
            outs.append(TestDeterminism().read_all(out))
        assert outs[0] == outs[1]


class TestDemoConfig:
    # one field of each model's config class
    @pytest.mark.parametrize(
        "model, text, message",
        [
            ("betabinom", "prior_weight = nan", "prior_weight must be in [0, inf), got nan"),
            ("weibull", "n = 1", "n must be at least 3, got 1"),
            ("normal_mean", "m_draws = 1", "m_draws must be at least 2, got 1"),
            (
                "regression",
                "sigma_lik = nan",
                "sigma_lik must be positive and finite, got nan",
            ),
            # a finite value out of range is refused the same way
            ("betabinom", "q0 = 1.5", "q0 must be in (0, 1), got 1.5"),
            # as is a scaled prior that is improper, before any draw
            (
                "betabinom",
                "alpha = 0.5\nprior_weight = 1\nn = 20",
                "alpha must be large enough that the scaled prior's Beta parameter "
                "1 + n * prior_weight * (alpha - 1) > 0, got 0.5, which gives -9",
            ),
        ],
        ids=[
            "betabinom",
            "weibull",
            "normal_mean",
            "regression",
            "betabinom_q0",
            "betabinom_improper_prior",
        ],
    )
    def test_nan_model_parameter_exits_2(self, tmp_path, capsys, model, text, message):
        cfg = tmp_path / "run.cfg"
        write(cfg, text + "\n")
        out = tmp_path / "o"
        argv = ["demo", model, "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"wkernel: {message}\n"
        assert not out.exists()

    def test_weibull_shape_mle_outside_bracket_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write(cfg, "gamma = 5e6\n")
        argv = ["demo", "weibull", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "Weibull shape MLE is not in [0.001, 1.31072e+06]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "model, mcmc, key, text, value",
        [
            ("weibull", {"iters": 4500, "burn_in": 1500}, "lam", "40", 40.0),
            ("betabinom", None, "N", "7", 7),
            ("normal_mean", None, "m_draws", "300", 300),
            (
                "regression",
                {"chains": 4, "iters": 14000, "burn_in": 2000},
                "likelihood",
                "student_t",
                "student_t",
            ),
        ],
    )
    def test_defaults_are_the_model_class_own(self, model, mcmc, key, text, value):
        cls = getattr(models, cli._DEMO[model][0])
        seeded = {} if mcmc is None else {"mcmc": models.McmcConfig(**mcmc)}
        expected = cls(seed=11, **seeded)
        assert cli._demo_config(model, 11, {}) == expected
        overridden = cli._demo_config(model, 11, {key: text})
        assert overridden == dataclasses.replace(expected, **{key: value})
        assert type(getattr(overridden, key)) is type(value)


def _option(tmp_path, name, value, by_file):
    """An option as its flag or as a config-file key."""
    if not by_file:
        return ["--" + name, str(value)]
    cfg = tmp_path / "run.cfg"
    write(cfg, f"{name} = {value}\n")
    return ["--config", str(cfg)]


@pytest.mark.parametrize("by_file", [False, True], ids=["flag", "config"])
class TestIgnoredOption:
    @pytest.fixture
    def inputs(self, tmp_path):
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        make_loglik_csv(ll)
        make_stats_csv(st)
        return [str(ll), str(st)]

    @pytest.mark.parametrize("estimator", ["plain", "centered", "projected"])
    def test_logprior_outside_prior_adjusted(
        self, tmp_path, capsys, inputs, by_file, estimator
    ):
        lp = tmp_path / "lp.csv"
        save_matrix(lp, np.zeros(60), header=["logprior"])
        extra = _option(tmp_path, "logprior", lp, by_file)
        argv = ["freqcov", *inputs, "--estimator", estimator, *extra]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "--logprior applies only" in capsys.readouterr().err

    def test_hessian_without_scores(self, tmp_path, capsys, inputs, by_file):
        hess = tmp_path / "hess.csv"
        save_matrix(hess, np.eye(2))
        extra = _option(tmp_path, "hessian", hess, by_file)
        assert main(["diag", *inputs, *extra, "--out", str(tmp_path / "o")]) == 2
        assert "--hessian applies only with --scores" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eigen", "rep"])
    def test_kind_with_w_matrix(self, tmp_path, capsys, by_file, command):
        w = tmp_path / "w.csv"
        save_matrix(w, np.eye(3))
        extra = _option(tmp_path, "kind", "double_centered", by_file)
        argv = [command, str(w), "--matrix", "w", *extra, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "--kind applies only with --matrix loglik" in capsys.readouterr().err


# invocations refused by their options alone -> the usage message
_REFUSED_BY_OPTIONS = [
    (["freqcov", "{ll}", "{st}", "--estimator", "prior_adjusted"], "requires --logprior"),
    (["freqcov", "{ll}", "{st}", "--logprior", "{lp}"], "--logprior applies only"),
    (
        ["freqcov", "{ll}", "{st}", "--estimator", "prior_adjusted", "--logprior", ""],
        "--estimator prior_adjusted requires --logprior",
    ),
    (["freqcov", "{ll}", "{st}", "--rank", "2"], "--rank applies only"),
    (["diag", "{ll}", "{st}", "--scores", "{sc}"], "--scores requires --hessian"),
    (["diag", "{ll}", "{st}", "--hessian", "{sc}"], "--hessian applies only"),
    (["boot", "{ll}", "{st}", "--n-b", "0"], "--n-b must be at least 1"),
    (["boot", "{ll}", "{st}", "--seed", "-1"], "--seed must be in [0, 2^64)"),
    (["demo", "normal_mean", "--seed", str(2**64)], "--seed must be in [0, 2^64)"),
    (["eigen", "{ll}", "--rel-tol", "1"], "--rel-tol must be in (0, 1)"),
    (["rep", "{ll}", "--rel-tol", "nan"], "--rel-tol must be in (0, 1)"),
    (["rep", "{ll}", "--max-rank", "0"], "--max-rank must be at least 1"),
    (
        ["freqcov", "{ll}", "{st}", "--estimator", "projected", "--rank", "0"],
        "--rank must be at least 1, got 0",
    ),
    (["boot", "{ll}", "{st}", "--rank", "-2"], "--rank must be at least 1, got -2"),
    (["boot", "{ll}", "{st}", "--method", "importance", "--rank", "2"], "--rank applies only"),
    (["eigen", "{ll}", "--matrix", "w", "--kind", "double_centered"], "--kind applies only"),
    (["rep", "{ll}", "--matrix", "w", "--kind", "raw"], "--kind applies only"),
]


class TestUsageBeforeLoading:
    @pytest.mark.parametrize(
        "argv, needle",
        _REFUSED_BY_OPTIONS,
        ids=[f"{argv[0]}: {needle}" for argv, needle in _REFUSED_BY_OPTIONS],
    )
    def test_usage_error_with_missing_inputs(self, tmp_path, capsys, argv, needle):
        # none of these files exists: the options alone decide, before a read
        names = {key: str(tmp_path / f"missing_{key}.csv") for key in ("ll", "st", "lp", "sc")}
        out = tmp_path / "o"
        argv = [a.format(**names) for a in argv] + ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert needle in err and "parse error" not in err
        assert not out.exists()


class TestOptionRules:
    def test_each_command_has_a_handler_of_its_name(self):
        # run_command calls the function of wkernel.commands named as the command
        handlers = {
            name
            for name, value in vars(commands).items()
            if inspect.isfunction(value)
            and value.__module__ == commands.__name__
            and not name.startswith("_")
        }
        assert handlers == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_rules_name_options_and_choices_of_their_command(self, command):
        # a typo in a rule would otherwise turn it off without a word
        options = cli._COMMANDS[command][2]
        for name, values, verb, other, allowed in cli._COMMANDS[command][3]:
            assert verb in ("applies only with", "requires")
            for option, chosen in ((name, values), (other, allowed)):
                assert option in options
                if chosen is not None:
                    choices = cli._OPTIONS[option][0]
                    assert isinstance(choices, tuple) and set(chosen) <= set(choices)


# the invocations that project onto W's leading directions
_PROJECTING = [
    ["freqcov", "--estimator", "projected"],
    ["boot", "--method", "first", "--n-b", "5"],
    ["boot", "--method", "second_projected", "--n-b", "5"],
]


class TestRank:
    @pytest.fixture
    def inputs(self, tmp_path):
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        make_loglik_csv(ll)  # 60 draws x 8 observations: retained rank 8
        make_stats_csv(st)
        return [str(ll), str(st)]

    @pytest.mark.parametrize("argv", _PROJECTING)
    def test_rank_above_retained_is_usage_error(self, tmp_path, capsys, inputs, argv):
        argv = argv[:1] + inputs + argv[1:] + ["--rank", "99", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--rank 99" in err and "retained rank 8" in err

    @pytest.mark.parametrize("rank", ["0", "-1"])
    @pytest.mark.parametrize("argv", _PROJECTING)
    def test_rank_below_one_is_usage_error(self, tmp_path, capsys, inputs, argv, rank):
        out = tmp_path / "o"
        argv = argv[:1] + inputs + argv[1:] + ["--rank", rank, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"wkernel: --rank must be at least 1, got {rank}\n"
        assert not out.exists()

    def test_rank_zero_from_config_file_is_refused(self, tmp_path, capsys, inputs):
        cfg = tmp_path / "run.cfg"
        write(cfg, "rank = 0\n")
        argv = ["freqcov", *inputs, "--estimator", "projected", "--config", str(cfg)]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "wkernel: --rank must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["freqcov"],
            ["freqcov", "--estimator", "centered"],
            ["boot", "--method", "importance", "--n-b", "5"],
            ["boot", "--method", "second_direct", "--n-b", "5"],
            ["boot", "--method", "second_efficient", "--n-b", "5"],
        ],
    )
    def test_rank_without_projection_is_usage_error(self, tmp_path, capsys, inputs, argv):
        argv = argv[:1] + inputs + argv[1:] + ["--rank", "2", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "--rank applies only" in capsys.readouterr().err

    def test_rank_from_config_file_is_checked_too(self, tmp_path, inputs):
        cfg = tmp_path / "run.cfg"
        write(cfg, "rank = 2\n")
        assert main(["freqcov", *inputs, "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestPrincipalSpaceBuildsNoW:
    @pytest.fixture
    def no_w(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("W, its pivoted Cholesky or projections were built")

        monkeypatch.setattr("wkernel.kernels.build_w", refuse)
        monkeypatch.setattr("wkernel.spectral.incomplete_cholesky", refuse)
        # the projected estimators read the basis, not M x r projections
        monkeypatch.setattr("wkernel.spectral.project_loglik", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["freqcov", "--estimator", "projected"],
            ["boot", "--method", "first", "--rank", "2", "--n-b", "5"],
            ["boot", "--method", "second_projected", "--rank", "2", "--n-b", "5"],
        ],
    )
    def test_projected_paths(self, tmp_path, no_w, argv):
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        make_loglik_csv(ll)
        make_stats_csv(st)
        argv = argv[:1] + [str(ll), str(st)] + argv[1:]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0

    def test_demo(self, tmp_path, no_w):
        assert main(["demo", "normal_mean", "--out", str(tmp_path / "o")]) == 0

    def test_projection_memory_is_below_one_w(self, tmp_path):
        # W for 3000 observations takes 72 MB; the smaller Gram product is 20 x 20
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        make_loglik_csv(ll, m=20, n=3000)
        make_stats_csv(st, m=20)
        argv = ["freqcov", str(ll), str(st), "--estimator", "projected", "--rank", "2"]
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("command", ["eigen", "rep"])
    def test_wide_cholesky_reads_no_w(self, tmp_path, monkeypatch, command):
        # W for 5000 observations takes 200 MB; n > 2M, so the Cholesky reads
        # its columns from the 50 x 5000 centered log-likelihoods (2 MB)
        def refuse(*args, **kwargs):
            raise AssertionError("W was built")

        monkeypatch.setattr("wkernel.kernels.build_w", refuse)
        monkeypatch.setattr("wkernel.kernels.CenteredLogLik.gram", refuse)
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll, m=50, n=5000)
        tracemalloc.start()
        try:
            assert main([command, str(ll), "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestCenteredOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eigen", "{ll}"],
            ["eigen", "{ll}", "--kind", "double_centered"],
            ["eigen", "{wide}"],
            ["rep", "{ll}"],
            ["rep", "{wide}"],
            ["freqcov", "{ll}", "{st}"],
            ["freqcov", "{ll}", "{st}", "--estimator", "centered"],
            ["freqcov", "{ll}", "{st}", "--estimator", "prior_adjusted", "--logprior", "{lp}"],
            ["freqcov", "{ll}", "{st}", "--estimator", "projected"],
            ["boot", "{ll}", "{st}", "--method", "first"],
            ["boot", "{ll}", "{st}", "--method", "first", "--rank", "2"],
            ["boot", "{ll}", "{st}", "--method", "second_direct"],
            ["boot", "{ll}", "{st}", "--method", "second_efficient"],
            ["boot", "{ll}", "{st}", "--method", "second_projected"],
            ["boot", "{ll}", "{st}", "--method", "importance"],
            ["diag", "{ll}", "{st}", "--logprior", "{lp}"],
            ["zmat", "{ll}"],
            ["demo", "normal_mean"],
        ],
    )
    def test_each_command_centers_once(self, tmp_path, monkeypatch, argv):
        from wkernel import kernels

        kinds = []
        center = kernels.center_loglik

        def counted(values, kind="raw"):
            kinds.append(kind)
            return center(values, kind)

        monkeypatch.setattr(kernels, "center_loglik", counted)
        paths = {name: tmp_path / f"{name}.csv" for name in ("ll", "wide", "st", "lp")}
        make_loglik_csv(paths["ll"])
        make_loglik_csv(paths["wide"], m=5, n=20)
        make_stats_csv(paths["st"])
        save_matrix(paths["lp"], np.zeros(60), header=["logprior"])
        argv = [a.format(**paths) for a in argv] + ["--n-b", "20"] * (argv[0] == "boot")
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert len(kinds) == 1


def _child_env(**extra):
    """This process's environment plus ``extra``, with the package's source
    on PYTHONPATH, for a child interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _thread_variables(argv):
    """Exit code and thread variables after ``main(argv)`` in a fresh process
    that inherits OPENBLAS_NUM_THREADS=4 and OMP_NUM_THREADS=4."""
    script = (
        "import os, sys\n"
        "import wkernel.cli as cli\n"
        "assert 'numpy' not in sys.modules, 'import wkernel.cli loaded numpy'\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(rc, *(os.environ[v] for v in cli._THREAD_VARS))\n"
    )
    env = _child_env(OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_threads_flag_beats_inherited_thread_variables(tmp_path):
    ll = tmp_path / "ll.csv"
    make_loglik_csv(ll)
    argv = ["eigen", str(ll), "--threads", "1", "--out", str(tmp_path / "out")]
    assert _thread_variables(argv) == ["0"] + ["1"] * 5


# (flag, WKERNEL_THREADS) -> the one stderr line of the refusal
_BAD_THREADS = [
    (["--threads", "0"], None, "wkernel: --threads must be at least 1, got 0"),
    (["--threads", "-3"], None, "wkernel: --threads must be at least 1, got -3"),
    ([], "0", "wkernel: WKERNEL_THREADS must be at least 1, got 0"),
    ([], "-3", "wkernel: WKERNEL_THREADS must be at least 1, got -3"),
    ([], "abc", "wkernel: WKERNEL_THREADS must be an integer, got 'abc'"),
    ([], "1.5", "wkernel: WKERNEL_THREADS must be an integer, got '1.5'"),
]


@pytest.mark.parametrize(
    "flag, env, line", _BAD_THREADS, ids=[line.split(": ", 1)[1] for *_, line in _BAD_THREADS]
)
def test_bad_thread_count_names_its_source(tmp_path, capsys, monkeypatch, flag, env, line):
    # refused before any thread variable is set, so in process is safe
    if env is None:
        monkeypatch.delenv(cli.ENV_THREADS, raising=False)
    else:
        monkeypatch.setenv(cli.ENV_THREADS, env)
    ll = tmp_path / "ll.csv"
    make_loglik_csv(ll)
    out = tmp_path / "out"
    assert main(["zmat", str(ll), "--out", str(out), *flag]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


class TestCommonOptions:
    """--out, --threads and --config work before the command as after it."""

    @staticmethod
    def place(position, command, option):
        return option + command if position == "before" else command + option

    @pytest.mark.parametrize("position", ["before", "after"])
    def test_out(self, tmp_path, monkeypatch, position):
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main(self.place(position, ["zmat", str(ll)], ["--out", str(out)])) == 0
        assert (out / "z_eigenvalues.csv").exists()
        assert not (tmp_path / "z_eigenvalues.csv").exists()

    def test_threads_before_the_command(self, tmp_path):
        # after the command: test_threads_flag_beats_inherited_thread_variables
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll)
        argv = ["--threads", "1", "zmat", str(ll), "--out", str(tmp_path / "out")]
        assert _thread_variables(argv) == ["0"] + ["1"] * 5

    @pytest.mark.parametrize("position", ["before", "after"])
    def test_config(self, tmp_path, position):
        ll, st, cfg = tmp_path / "ll.csv", tmp_path / "st.csv", tmp_path / "run.cfg"
        make_loglik_csv(ll)
        make_stats_csv(st)
        write(cfg, "n_b = 7\n")
        command = ["boot", str(ll), str(st), "--out", str(tmp_path / "out")]
        assert main(self.place(position, command, ["--config", str(cfg)])) == 0
        estimates, _ = load_matrix(tmp_path / "out" / "estimates.csv")
        assert estimates.shape == (7, 2)

    def test_value_after_the_command_wins(self, tmp_path):
        ll = tmp_path / "ll.csv"
        make_loglik_csv(ll)
        before, after = tmp_path / "before", tmp_path / "after"
        assert main(["--out", str(before), "zmat", str(ll), "--out", str(after)]) == 0
        assert (after / "z_eigenvalues.csv").exists() and not before.exists()
