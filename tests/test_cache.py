"""The input cache: load_matrix_cached returns what load_matrix returns,
parses each distinct file content once, and never fails a command."""

import io
import os
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from wkernel import matio
from wkernel.cli import main
from wkernel.errors import ParseError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def entries(cache_home):
    """Paths of the cache entries, sorted."""
    directory = os.path.join(cache_home, "wkernel")
    if not os.path.isdir(directory):
        return []
    return sorted(os.path.join(directory, n) for n in os.listdir(directory))


def assert_same(got, want):
    """Same float64 bits, shape and header, and an array owned and writable."""
    (arr, header), (ref, ref_header) = got, want
    assert arr.dtype == ref.dtype and arr.shape == ref.shape
    assert arr.tobytes() == ref.tobytes()
    assert header == ref_header
    assert arr.flags.writeable and arr.base is None


def make_inputs(tmp_path, m=40, n=6, p=2, seed=0):
    rng = np.random.default_rng(seed)
    ll, st = tmp_path / "ll.csv", tmp_path / "st.csv"
    matio.save_matrix(ll, rng.standard_normal((m, n)), [f"obs_{i}" for i in range(n)])
    matio.save_matrix(st, rng.standard_normal((m, p)), [f"s{j}" for j in range(p)])
    return str(ll), str(st)


def read_all(outdir):
    return {name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))}


TEXTS = {
    "header": "a,b,c\n1.5,-0.0,5e-324\n2,3,4\n",
    "no_header": "0.1,0.2\n0.30000000000000004,1e308\n",
    "odd_header": " x , ,é\n1,2,3\n",
    "one_row": "1,2,3,4\n",
}


class TestHit:
    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_hit_equals_a_fresh_parse(self, tmp_path, cache_home, name):
        path = tmp_path / "m.csv"
        write(path, TEXTS[name])
        want = matio.load_matrix(path)
        assert_same(matio.load_matrix_cached(path), want)  # a miss
        assert len(entries(cache_home)) == 1
        with mock.patch("numpy.loadtxt", side_effect=AssertionError("parsed")):
            assert_same(matio.load_matrix_cached(path), want)

    def test_hit_does_not_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        write(path, TEXTS["header"])
        matio.load_matrix_cached(path)
        with mock.patch("numpy.loadtxt", side_effect=AssertionError("parsed")) as loadtxt:
            matio.load_matrix_cached(path)
        loadtxt.assert_not_called()

    @pytest.mark.parametrize("text", ["v\n1\n2\n3\n", "1,2,3\n"])
    def test_vector_hit_equals_a_fresh_parse(self, tmp_path, text):
        path = tmp_path / "v.csv"
        write(path, text)
        want, want_header = matio.load_matrix(path)
        matio.load_vector(path)
        with mock.patch("numpy.loadtxt", side_effect=AssertionError("parsed")):
            vec, header = matio.load_vector(path)
        assert vec.tobytes() == want.ravel().tobytes() and header == want_header

    def test_one_changed_byte_is_a_miss(self, tmp_path, cache_home):
        path = tmp_path / "m.csv"
        write(path, "a,b\n1,2\n3,4\n")
        matio.load_matrix_cached(path)
        write(path, "a,b\n1,2\n3,5\n")
        arr, _ = matio.load_matrix_cached(path)
        assert arr[1, 1] == 5.0
        assert len(entries(cache_home)) == 2

    def test_same_content_elsewhere_is_a_hit(self, tmp_path, cache_home):
        write(tmp_path / "a.csv", TEXTS["header"])
        write(tmp_path / "b.csv", TEXTS["header"])
        matio.load_matrix_cached(tmp_path / "a.csv")
        with mock.patch("numpy.loadtxt", side_effect=AssertionError("parsed")):
            matio.load_matrix_cached(tmp_path / "b.csv")
        assert len(entries(cache_home)) == 1


class TestMiss:
    @pytest.mark.parametrize(
        "text", ["1,2\n3,x\n", "1,nan\n2,3\n", "1,2\n1e400,3\n", "", "a,b\n"]
    )
    def test_parse_error_leaves_no_entry(self, tmp_path, cache_home, capsys, text):
        path = tmp_path / "bad.csv"
        write(path, text)
        for _ in range(2):
            assert main(["zmat", str(path), "--out", str(tmp_path / "o")]) == 3
            assert "parse error" in capsys.readouterr().err
            assert entries(cache_home) == []

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read file"):
            matio.load_matrix_cached(tmp_path / "absent.csv")

    def test_pipe_is_parsed_and_not_stored(self, tmp_path, cache_home):
        # a pipe cannot be read twice, once to hash and once to parse
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=write, args=(fifo, TEXTS["header"]))
        writer.start()
        try:
            arr, header = matio.load_matrix_cached(fifo)
        finally:
            writer.join()
        assert header == ["a", "b", "c"] and arr.shape == (2, 3)
        assert entries(cache_home) == []

    def test_file_changed_while_parsed_is_not_stored(self, tmp_path, cache_home):
        path = tmp_path / "m.csv"
        write(path, "1,2\n")
        parse = matio.load_matrix

        def parse_then_change(p):
            result = parse(p)
            write(path, "1,2\n3,4\n")
            return result

        with mock.patch.object(matio, "load_matrix", parse_then_change):
            matio.load_matrix_cached(path)
        assert entries(cache_home) == []

    def test_interrupted_write_leaves_no_temporary_file(self, tmp_path, cache_home,
                                                        monkeypatch):
        write(tmp_path / "m.csv", TEXTS["header"])
        monkeypatch.setattr(os, "replace", mock.Mock(side_effect=KeyboardInterrupt))
        with pytest.raises(KeyboardInterrupt):
            matio.load_matrix_cached(tmp_path / "m.csv")
        assert entries(cache_home) == []


def _records(*arrays):
    """The bytes of .npy records, one after another."""
    buf = io.BytesIO()
    for arr in arrays:
        np.save(buf, arr)
    return buf.getvalue()


HEADER = np.frombuffer(b"obs_0,obs_1,obs_2,obs_3,obs_4,obs_5", dtype=np.uint8)


def _huge_record():
    """A valid .npy header that claims a 10^6 x 10^6 matrix, and no data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (10**6, 10**6)}
    )
    return buf.getvalue()


BAD_ENTRIES = {
    "empty": lambda good: b"",
    "truncated": lambda good: good[: len(good) - 9],
    "header_only": lambda good: good[:200],
    "garbage": lambda good: b"PK\x03\x04 not an entry" * 20,
    "trailing": lambda good: good + b"\0",
    "one_dim": lambda good: _records(HEADER, np.zeros(6)),
    "wrong_width": lambda good: _records(HEADER, np.zeros((40, 5))),
    "float32": lambda good: _records(HEADER, np.zeros((40, 6), dtype=np.float32)),
    "big_endian": lambda good: _records(HEADER, np.zeros((40, 6), dtype=">f8")),
    "fortran": lambda good: _records(HEADER, np.asfortranarray(np.zeros((40, 6)))),
    "non_finite": lambda good: _records(HEADER, np.full((40, 6), np.inf)),
    "bad_utf8": lambda good: _records(np.frombuffer(b"\xff", np.uint8), np.zeros((40, 1))),
    "pickle": lambda good: _records(np.array([None], dtype=object), np.zeros((40, 6))),
    "huge_shape": lambda good: _records(HEADER) + _huge_record(),
}


class TestBadEntry:
    @pytest.mark.parametrize("kind", sorted(BAD_ENTRIES))
    def test_bad_entry_is_reparsed_and_rewritten(self, tmp_path, cache_home, capsys, kind):
        ll, st = make_inputs(tmp_path)
        cold = tmp_path / "cold"
        assert main(["freqcov", ll, st, "--out", str(cold)]) == 0
        entry = next(p for p in entries(cache_home)
                     if matio._read_entry(p)[0].shape == (40, 6))
        with open(entry, "rb") as fh:
            good = fh.read()
        with open(entry, "wb") as fh:
            fh.write(BAD_ENTRIES[kind](good))
        again = tmp_path / "again"
        assert main(["freqcov", ll, st, "--out", str(again)]) == 0
        assert capsys.readouterr().err == ""
        assert read_all(again) == read_all(cold)
        with open(entry, "rb") as fh:
            assert fh.read() == good


class TestCacheDirectory:
    def test_unwritable_cache_still_runs(self, tmp_path, cache_home, capsys):
        ll, st = make_inputs(tmp_path)
        assert main(["freqcov", ll, st, "--out", str(tmp_path / "cached")]) == 0
        blocked = tmp_path / "blocked"
        write(blocked, "a file where the cache directory would be\n")
        for home in (blocked, blocked / "below"):
            with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(home)}):
                out = tmp_path / f"o_{home.name}"
                assert main(["freqcov", ll, st, "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            assert read_all(out) == read_all(tmp_path / "cached")

    def test_relative_xdg_cache_home_falls_back_to_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "m.csv", TEXTS["header"])
        matio.load_matrix_cached(tmp_path / "m.csv")
        assert len(entries(tmp_path / "home" / ".cache")) == 1
        assert not (tmp_path / "relative").exists()


class TestEviction:
    def test_bound_holds_and_least_recent_goes_first(self, tmp_path, cache_home, monkeypatch):
        paths = []
        for k in range(4):
            path = tmp_path / f"m{k}.csv"
            write(path, "\n".join(f"{k},{i}" for i in range(100)) + "\n")
            paths.append(path)
        matio.load_matrix_cached(paths[0])
        (size,) = {os.path.getsize(p) for p in entries(cache_home)}
        monkeypatch.setattr(matio, "_CACHE_BYTES", 2 * size)
        matio.load_matrix_cached(paths[1])
        # entry 0 was used last, entry 1 before it
        first, second = (matio._cache_entry(p)[0] for p in paths[:2])
        os.utime(second, ns=(10**18, 10**18))
        os.utime(first, ns=(2 * 10**18, 2 * 10**18))
        matio.load_matrix_cached(paths[2])
        kept = entries(cache_home)
        assert first in kept and second not in kept and len(kept) == 2
        # entry 0 is now the older one, until a hit marks it used
        os.utime(first, ns=(10**18, 10**18))
        os.utime(matio._cache_entry(paths[2])[0], ns=(15 * 10**17, 15 * 10**17))
        matio.load_matrix_cached(paths[0])
        matio.load_matrix_cached(paths[3])
        assert entries(cache_home) == sorted(
            matio._cache_entry(p)[0] for p in (paths[0], paths[3])
        )
        assert sum(os.path.getsize(p) for p in entries(cache_home)) <= 2 * size

    def test_entry_above_the_bound_is_not_kept(self, tmp_path, cache_home, monkeypatch):
        monkeypatch.setattr(matio, "_CACHE_BYTES", 100)
        write(tmp_path / "m.csv", TEXTS["header"])
        arr, _ = matio.load_matrix_cached(tmp_path / "m.csv")
        assert arr.shape == (2, 3) and entries(cache_home) == []


class TestCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eigen", "{ll}"],
            ["freqcov", "{ll}", "{st}", "--estimator", "projected", "--rank", "2"],
            ["boot", "{ll}", "{st}", "--method", "second_projected", "--n-b", "50"],
            ["boot", "{ll}", "{st}", "--method", "importance", "--n-b", "50"],
        ],
    )
    def test_cold_and_warm_cache_write_the_same_bytes(self, tmp_path, cache_home, argv):
        ll, st = make_inputs(tmp_path)
        argv = [a.format(ll=ll, st=st) for a in argv] + ["--threads", "1"]
        assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
        assert entries(cache_home)
        with mock.patch("numpy.loadtxt", side_effect=AssertionError("parsed")):
            assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
        assert read_all(tmp_path / "warm") == read_all(tmp_path / "cold")

    def test_diag_inputs_are_cached(self, tmp_path, cache_home):
        ll, st = make_inputs(tmp_path)
        lp, sc, he = (str(tmp_path / n) for n in ("lp.csv", "sc.csv", "he.csv"))
        rng = np.random.default_rng(3)
        matio.save_matrix(lp, rng.standard_normal(40), ["logprior"])
        matio.save_matrix(sc, rng.standard_normal((6, 2)), ["a", "b"])
        matio.save_matrix(he, 6 * np.eye(2), ["a", "b"])
        argv = ["diag", ll, st, "--logprior", lp, "--scores", sc, "--hessian", he]
        assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
        assert len(entries(cache_home)) == 5
        with mock.patch("numpy.loadtxt", side_effect=AssertionError("parsed")):
            assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
        assert read_all(tmp_path / "warm") == read_all(tmp_path / "cold")

    def test_commands_load_no_openssl(self, tmp_path):
        # hashlib would load OpenSSL's libraries into every command
        ll, st = make_inputs(tmp_path)
        lp = str(tmp_path / "lp.csv")
        matio.save_matrix(lp, np.zeros(40), ["logprior"])
        runs = [
            ["eigen", ll], ["rep", ll], ["freqcov", ll, st], ["zmat", ll],
            ["diag", ll, st, "--logprior", lp],
        ]
        script = (
            "import sys\n"
            "from wkernel.cli import main\n"
            f"for argv in {runs!r}:\n"
            f"    assert main(argv + ['--out', {str(tmp_path / 'o')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if 'hashlib' in m or 'ssl' in m))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        for _ in range(2):  # cold, then warm
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]"
