"""load_matrix against its cell-by-cell parser on generated CSV text,
and save_matrix against a row-by-row ``repr`` of the same matrix.

The reference is ``load_matrix`` with numpy's reader made to refuse
every input, so only the cell parser runs.  Both must give the same
array bytes and header, or the same ParseError message.
"""

import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkernel import matio
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


def test_save_matrix_formats_a_repeated_row_once(tmp_path):
    # 0.0 then -0.0 differ in their bits, so the third row is formatted anew
    arr = np.array([[1.5, 0.0], [1.5, 0.0], [1.5, -0.0], [1.5, -0.0], [1.5, -0.0]])
    with mock.patch.object(matio, "_SAVE_CHUNK_CELLS", 4), mock.patch.object(
        matio, "repr", create=True, side_effect=repr
    ) as formatted:
        matio.save_matrix(tmp_path / "m.csv", arr, ["a", "b"])
    assert formatted.call_count == 4
    assert (tmp_path / "m.csv").read_text(encoding="utf-8") == _written(["a", "b"], arr)


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
