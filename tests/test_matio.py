"""load_matrix against its cell-by-cell parser on generated CSV text,
and save_matrix against a row-by-row ``repr`` of the same matrix.

The reference is ``load_matrix`` with numpy's reader made to refuse
every input, so only the cell parser runs.  Both must give the same
array bytes and header, or the same ParseError message.
"""

import os
import re
import shutil
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkernel import matio
from wkernel.cli import main
from wkernel.errors import ParseError

EDGE_VALUES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    1e308,
    -1e308,
    1.7976931348623157e308,
]
DEFECTS = [
    "nan",
    "inf",
    "1e400",
    "empty",
    "trailing_comma",
    "ragged",
    "word",
    "underscore",
    "full_width",
    "comment",
]
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES)
)


@st.composite
def csv_text(draw):
    """CSV text of a finite matrix, with optional formatting quirks and at
    most one defect; returns (text, has_defect)."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    fmt = draw(st.sampled_from([repr, lambda v: "%.17g" % v]))
    pad = draw(st.sampled_from(["", " ", "  "]))
    rows = [
        [pad + fmt(draw(finite)) + pad for _ in range(n)] for _ in range(m)
    ]
    defect = draw(st.none() | st.sampled_from(DEFECTS))
    if defect is not None:
        r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        if defect == "empty":
            rows[r][c] = ""
        elif defect == "trailing_comma":
            rows[r].append("")
        elif defect == "ragged":
            rows[r] = rows[r][:-1] if n > 1 else rows[r] + ["1.0"]
        elif defect == "word":
            rows[r][c] = "abc"
        elif defect == "underscore":
            rows[r][c] = "1_0"
        elif defect == "full_width":
            rows[r][c] = rows[r][c].translate(FULL_WIDTH)
        elif defect == "comment":
            rows[r][0] = "#" + rows[r][0].lstrip()
        else:
            rows[r][c] = defect
    lines = [",".join(cells) for cells in rows]
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"c{j}" for j in range(n)))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol, defect is not None


def _outcome(path):
    try:
        arr, header = matio.load_matrix(path)
    except ParseError as exc:
        return "error", str(exc)
    return arr.shape, arr.tobytes(), header


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=csv_text())
def test_load_matrix_matches_cell_parser(case):
    text, has_defect = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(
            matio, "_parse_rows", wraps=matio._parse_rows
        ) as cell_parser:
            got = _outcome(path)
        with mock.patch.object(np, "loadtxt", side_effect=ValueError):
            want = _outcome(path)
    assert got == want
    if not has_defect:
        # clean input never needs the slow parser
        assert cell_parser.call_count == 0


def test_mixed_first_row_is_data_not_header(tmp_path):
    # a header needs every cell non-numeric; "1" makes this row data
    path = tmp_path / "m.csv"
    path.write_text("1,0x10\n3,4\n5,6\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"non-numeric cell '0x10' \(.*row 1, col 2\)"):
        matio.load_matrix(path)


@pytest.mark.parametrize("text", ["a,b\n-0.0373,2\n3,4\n", "-0.0373,2\n3,4\n"])
@pytest.mark.parametrize("load", [matio.load_matrix, matio.load_matrix_cached])
def test_byte_order_mark_is_skipped(tmp_path, load, text):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for _ in range(2):  # through the cache, a miss and then a hit
        arr, header = load(marked)
        want, want_header = matio.load_matrix(plain)
        assert arr.tobytes() == want.tobytes() and arr.shape == want.shape
        assert header == want_header


def test_load_matrix_holds_little_beyond_the_array(tmp_path):
    # the data rows stream from the file: no list of lines, no second copy
    arr = np.random.default_rng(6).standard_normal((500, 800))
    path = tmp_path / "m.csv"
    matio.save_matrix(path, arr, [f"c{j}" for j in range(800)])
    tracemalloc.start()
    try:
        got, _ = matio.load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * arr.nbytes
    assert got.tobytes() == arr.tobytes()


def _written(header, arr, row_names=None):
    """The text save_matrix must write: each row's lead, then repr of each value."""
    leads = [""] * len(arr) if row_names is None else [f"{name}," for name in row_names]
    body = "".join(
        lead + ",".join(map(repr, row)) + "\n" for lead, row in zip(leads, arr.tolist())
    )
    return ",".join(header) + "\n" + body


def test_save_matrix_converts_in_bounded_chunks(tmp_path):
    # a 4000 x 59 matrix as Python floats would take about 7.6 MB, whether its
    # rows all differ or each is written three times, as a rejected
    # Metropolis step repeats a draw
    wide = np.random.default_rng(5).standard_normal((4000, 59)) * 10.0 ** np.arange(-29, 30)
    path = tmp_path / "m.csv"
    header = [f"c{j}" for j in range(59)]
    for arr in (wide, np.repeat(wide[::3], 3, axis=0)[: len(wide)]):
        tracemalloc.start()
        try:
            matio.save_matrix(path, arr, header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert path.read_text(encoding="utf-8") == _written(header, arr)


def test_save_matrix_formats_in_bounded_chunks(tmp_path):
    # the same bound on normals, whose cells the exact formatter writes
    # (|x| >= 2**-20 for all but about one in a million)
    normal = np.random.default_rng(5).standard_normal((4000, 59))
    path = tmp_path / "m.csv"
    header = [f"c{j}" for j in range(59)]
    for arr in (normal, np.repeat(normal[::3], 3, axis=0)[: len(normal)]):
        tracemalloc.start()
        try:
            matio.save_matrix(path, arr, header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert path.read_text(encoding="utf-8") == _written(header, arr)


def test_save_matrix_of_a_tall_matrix_holds_one_chunk(tmp_path):
    # the same bound on 300,000 one-cell rows: nothing per row of the whole
    # matrix is kept, only the chunk's text and its lines
    tall = np.random.default_rng(5).standard_normal((300_000, 1))
    path = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        matio.save_matrix(path, tall, ["c0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert path.read_text(encoding="utf-8") == _written(["c0"], tall)


def test_save_matrix_formats_a_repeated_row_once(tmp_path):
    # 0.0 then -0.0 differ in their bits, so the third row is formatted anew
    arr = np.array([[1.5, 0.0], [1.5, 0.0], [1.5, -0.0], [1.5, -0.0], [1.5, -0.0]])
    with mock.patch.object(matio, "_SAVE_CHUNK_CELLS", 4), mock.patch.object(
        matio, "_csv_lines", wraps=matio._csv_lines
    ) as formatter:
        matio.save_matrix(tmp_path / "m.csv", arr, ["a", "b"])
    assert sum(len(call.args[0]) for call in formatter.call_args_list) == 2
    assert (tmp_path / "m.csv").read_text(encoding="utf-8") == _written(["a", "b"], arr)


def _repr_lines(block):
    return "".join([",".join(map(repr, row)) + "\n" for row in block.tolist()]).encode()


def _check_csv_lines(values, cols):
    """_csv_lines on ``values`` in rows of ``cols`` cells, in blocks of
    about 2**13 cells as save_matrix hands them over, against a row-by-row
    ``repr``."""
    values = np.asarray(values, dtype=float).reshape(-1)
    values = np.concatenate([values, np.zeros(-len(values) % cols)]).reshape(-1, cols)
    for start in range(0, len(values), 2**13 // cols):
        block = values[start : start + 2**13 // cols]
        assert matio._csv_lines(block) == _repr_lines(block)


def _halfway(rng, digits, exponents):
    """The floats nearest the decimals halfway between two of ``digits``
    significant digits, at each of ``exponents``."""
    heads = rng.integers(10 ** (digits - 1), 10**digits, 400).tolist()
    return [float(f"{head}5e{e}") for head in heads for e in exponents]


def _bits(rng, n, low=0, high=2**64):
    return rng.integers(low, high, n, dtype=np.uint64).view(np.float64)


def _domain_bits(rng):
    """Random bits of 2**-20 <= |x| < 2**56, the exact formatter's domain:
    biased exponents 1003..1078, either sign."""
    return _bits(rng, 600_000, 1003 << 52, 1079 << 52) * rng.choice([-1.0, 1.0], 600_000)


def _ints(rng):
    ints = rng.integers(-(2**60), 2**60, 100_000)
    return np.concatenate([ints, ints >> 7, ints >> 20, ints >> 45])


def _near_tens(rng):
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)]).view(np.uint64)
    near = (tens[:, None] + np.arange(-3, 4).astype(np.uint64)).view(np.float64)
    return near[np.isfinite(near)]


def _ties(rng):
    """Floats that are decimals ending in 5, so that two candidates tie."""
    return np.concatenate([
        rng.integers(2**50, 2**52, 50_000) + rng.integers(1, 4, 50_000) / 4,
        rng.integers(1, 2**30, 50_000) / 2.0 ** rng.integers(1, 40, 50_000),
    ])


# name -> (the set's values from a generator, cells per row)
_ORACLE_SETS = {
    "random bits": (lambda rng: _bits(rng, 300_000), 7),
    "normals at scales 1e-12 to 1e20": (
        lambda rng: np.outer(10.0 ** np.arange(-12, 21), rng.standard_normal(20_000)),
        5,
    ),
    "integers up to 2**60": (_ints, 4),
    "powers of two": (lambda rng: np.ldexp([[1.0], [-1.0]], np.arange(-1074, 1024)), 8),
    "powers of ten and 3 ulps around": (_near_tens, 7),
    "15-, 16- and 17-digit halfway decimals": (
        lambda rng: [
            *_halfway(rng, 15, range(-24, 2)),
            *_halfway(rng, 16, range(-25, 1)),
            *_halfway(rng, 17, range(-26, 0)),
        ],
        6,
    ),
    "exact ties": (_ties, 5),
    "specials": (
        lambda rng: [
            0.0, -0.0, np.nan, -np.nan, np.uint64(0x7FF8000000000001).view(np.float64),
            np.uint64(0xFFF0000000000001).view(np.float64), np.inf, -np.inf,
            1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
            -2.2250738585072014e-308, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-4, 0.1,
        ],
        3,
    ),
    "random bits of the exact domain": (_domain_bits, 9),
}


@pytest.mark.parametrize("name", list(_ORACLE_SETS))
def test_csv_lines_writes_what_repr_writes(name):
    # 2.1 M cells in all, 1.5 M of them in the exact domain
    make, cols = _ORACLE_SETS[name]
    rng = np.random.default_rng(list(_ORACLE_SETS).index(name))
    with np.errstate(all="raise"):  # cli.main runs under np.errstate(over="raise")
        _check_csv_lines(make(rng), cols)


def test_csv_lines_calls_repr_only_outside_the_exact_domain():
    rng = np.random.default_rng(7)
    exact = np.concatenate([
        # below 1, where no two candidates tie
        rng.uniform(1, 10, 4000) * 10.0 ** rng.integers(-6, 0, 4000),
        np.arange(-500, 500),  # integer-valued, as an index column
        rng.integers(-(2**53), 2**53, 1000),
        np.ldexp(1.0, np.arange(-20, 56)),  # a narrower interval below
        [0.0, -0.0, -1e-6, 2.0**53 - 1, 1e16],
    ])
    with mock.patch.object(matio, "repr", create=True, side_effect=repr) as texts:
        _check_csv_lines(exact, 5)
        assert texts.call_count == 0
        # a tie, out of the domain, non-finite: repr's text, cell by cell
        _check_csv_lines([1234567890123456.75, 9e-7, 1e17, 5e-324, np.nan, -np.inf], 6)
        assert texts.call_count == 6


# values whose rows look alike: signed zeros, two NaN payloads, infinities
_ALIKE = [0.0, -0.0, np.nan, np.uint64(0x7FF8000000000001).view(np.float64), np.inf, -np.inf]


@st.composite
def repeated_rows(draw):
    """A matrix built from runs of repeated rows, the next run's row often
    a copy of the last one with one cell changed; returns (array, row names)."""
    n = draw(st.integers(1, 4))
    cell = st.sampled_from(_ALIKE) | finite
    row = [draw(cell) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            row = [draw(cell) for _ in range(n)]
        else:
            row = list(row)
            row[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_ALIKE))
        rows += [row] * draw(st.integers(1, 5))
    arr = np.array(rows, dtype=float)
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided", "vector"]))
    if layout == "F":
        arr = np.asfortranarray(arr)
    elif layout == "transposed":
        arr = np.ascontiguousarray(arr.T).T
    elif layout == "strided":
        arr = np.repeat(arr, 2, axis=1)[:, 1::2]
    elif layout == "vector" and n == 1:
        arr = arr[:, 0]
    names = draw(st.none() | st.lists(st.sampled_from("ab"), min_size=len(arr), max_size=len(arr)))
    return arr, names


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=repeated_rows(), chunk=st.integers(1, 9))
def test_save_matrix_matches_repr_of_every_row(case, chunk):
    # a chunk of a few cells makes runs of repeated rows cross chunk boundaries
    arr, names = case
    width = arr.shape[1] if arr.ndim == 2 else 1
    header = ["name"] * (names is not None) + [f"c{j}" for j in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        with mock.patch.object(matio, "_SAVE_CHUNK_CELLS", chunk):
            matio.save_matrix(path, arr, header, row_names=names)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == _written(header, arr.reshape(len(arr), -1), names)


def test_readme_quick_start_runs_on_demo_output(tmp_path, monkeypatch):
    """The README's library quick start reads the CSVs a demo writes, each
    with its header: loglik.csv, and draws.csv as stats.csv."""
    assert main(["demo", "weibull", "--seed", "3", "--out", str(tmp_path)]) == 0
    shutil.copy(tmp_path / "draws.csv", tmp_path / "stats.csv")
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n\n```python\n(.*?)^```", readme, re.M | re.S)
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(block.group(1), "README.md", "exec"), names)
    assert names["sigma"].shape == (2, 2)
    assert names["run"].estimates.shape == (1000, 2)
