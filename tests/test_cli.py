"""CSV round trips, config parsing, command artifacts, determinism."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from wkernel import cli
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
        assert f"n_b x n = {10**12} x" in err and str(2**27) in err
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

    def test_numeric_failure_exit_code(self, tmp_path):
        w = tmp_path / "w.csv"
        write(w, "1,2\n2,1\n")  # indefinite
        assert main(["eigen", str(w), "--matrix", "w"]) == 4

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
        """Run argv on a 20 x 5 log-likelihood scaled by 1e160; no
        RuntimeWarning may escape."""
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        arr = np.random.default_rng(0).standard_normal((20, 5)) * 1e160
        save_matrix(ll, arr, header=[f"obs_{i}" for i in range(5)])
        make_stats_csv(st, m=20)
        argv = [a.format(ll=ll, st=st) for a in argv] + ["--out", str(tmp_path / "o")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return rc

    def test_missing_command_usage(self):
        assert main([]) == 2

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
        _, inputs, options = cli._COMMANDS[command]
        base = [command] + [SAMPLE_INPUTS[name] for name in inputs]
        parser = cli._build_parser()
        for name in options:
            kind, default, _ = cli._OPTIONS[name]
            value = sample_value(kind, default)
            flag = ["--" + name.replace("_", "-")] + ([] if kind is bool else [value])
            cfg = tmp_path / f"{name}.cfg"
            write(cfg, f"{name} = {value}\n")
            by_flag = cli._run_config(parser.parse_args(base + flag))
            by_file = cli._run_config(parser.parse_args(base + ["--config", str(cfg)]))
            assert by_flag.options == by_file.options, name
            assert by_flag.options[name] != default, name

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


class TestRank:
    @pytest.fixture
    def inputs(self, tmp_path):
        ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
        make_loglik_csv(ll)  # 60 draws x 8 observations: retained rank 8
        make_stats_csv(st)
        return [str(ll), str(st)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["freqcov", "--estimator", "projected"],
            ["boot", "--method", "first", "--n-b", "5"],
            ["boot", "--method", "second_projected", "--n-b", "5"],
        ],
    )
    def test_rank_above_retained_is_usage_error(self, tmp_path, capsys, inputs, argv):
        argv = argv[:1] + inputs + argv[1:] + ["--rank", "99", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--rank 99" in err and "retained rank 8" in err

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


def test_threads_flag_beats_inherited_thread_variables(tmp_path):
    ll = tmp_path / "ll.csv"
    make_loglik_csv(ll)
    script = (
        "import os, sys\n"
        "import wkernel.cli as cli\n"
        "assert 'numpy' not in sys.modules, 'import wkernel.cli loaded numpy'\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(rc, *(os.environ[v] for v in cli._THREAD_VARS))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["eigen", str(ll), "--threads", "1", "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] + ["1"] * 5
