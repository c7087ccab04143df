"""CSV matrix files, flat config files, and the scree-plot SVG.

All numeric output uses shortest round-trip decimal formatting, so
save -> load is the identity and repeated runs are byte-identical.
Every CSV written by the package carries a header row.  A row whose
float64 bits equal those of the row before it, as a rejected Metropolis
step's draw does, is written with that row's text instead of being
formatted again.

A matrix is read in two steps.  numpy's C text reader parses the data
rows first, streamed from the open file; when it refuses them, or reads
a value that is not finite, a cell-by-cell parser reads the file again.
That parser alone decides what a ParseError says and where it points,
and it accepts the cells Python's ``float`` takes but numpy does not,
such as ``1_0``.
Both readers round through ``PyOS_string_to_double``, so they give the
same bits for every cell both accept.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidInput, ParseError

# cells converted to Python floats at a time when a matrix is written
_SAVE_CHUNK_CELLS = 2**16


def _fmt(x) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


def _parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _data_lines(fh):
    """The lines of an open text file that are not blank or whitespace-only."""
    return (line for line in fh if line.strip())


def load_matrix(path):
    """Load a CSV matrix; returns (array, header-or-None).

    The first row is treated as a header when none of its cells parses
    as a number; a first row that mixes numbers and text is data, so its
    bad cell raises ParseError at row 1.  The data rows stream from the
    open file to ``np.loadtxt``, so no line is held beyond its parse; if
    it raises ValueError or yields a non-finite value, the cell-by-cell
    parser reads the file again instead.  Ragged rows, non-numeric
    cells, non-finite values, and empty files raise ParseError with the
    offending location (1-based, counting non-blank lines).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _data_lines(fh)
            first = next(lines, None)
            if first is None:
                raise ParseError("empty file", path=path)
            header = None
            cells = first.split(",")
            if all(_parse_cell(c.strip()) is None for c in cells):
                header = [c.strip() for c in cells]
                first = next(lines, None)
                if first is None:
                    raise ParseError("file has a header but no data rows", path=path)
            try:
                arr = np.loadtxt(
                    itertools.chain([first], lines),
                    delimiter=",",
                    comments=None,
                    ndmin=2,
                    dtype=float,
                )
            except ValueError:  # UnicodeDecodeError too; the re-read reports it
                arr = None
        rows = None
        if arr is None or not np.isfinite(arr).all():
            # the slow path holds every line, as its Python floats outweigh them
            with open(path, "r", encoding="utf-8") as fh:
                rows = list(_data_lines(fh))[header is not None :]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    if rows is not None:
        arr = _parse_rows(rows, path, offset=2 if header is not None else 1)
    if header is not None and len(header) != arr.shape[1]:
        raise ParseError(
            f"header has {len(header)} names for {arr.shape[1]} columns", path=path
        )
    return arr, header


def _parse_rows(rows, path, offset: int) -> np.ndarray:
    """Parse data rows cell by cell with ``float``; ``rows[0]`` is row
    ``offset`` (1-based, counting non-blank lines only)."""
    width = None
    data = []
    for r, line in enumerate(rows):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"ragged row: expected {width} cells, got {len(cells)}",
                path=path,
                row=r + offset,
            )
        parsed = []
        for c, cell in enumerate(cells):
            val = _parse_cell(cell.strip())
            if val is None:
                raise ParseError(
                    f"non-numeric cell {cell.strip()!r}",
                    path=path,
                    row=r + offset,
                    col=c + 1,
                )
            if not np.isfinite(val):
                raise ParseError(
                    "non-finite value", path=path, row=r + offset, col=c + 1
                )
            parsed.append(val)
        data.append(parsed)
    return np.array(data, dtype=float)


def load_vector(path):
    """Load a one-column (or one-row) CSV as a vector."""
    arr, header = load_matrix(path)
    if arr.ndim == 2 and 1 in arr.shape:
        return arr.ravel(), header
    raise ParseError(f"expected a vector, got shape {arr.shape}", path=path)


def save_matrix(path, arr, header=None, row_names=None) -> None:
    """Write a matrix (or vector as one column) with a header row.

    With ``row_names``, each row starts with its name in a text column,
    which ``header`` names too.  Rows are converted to Python floats
    about _SAVE_CHUNK_CELLS cells at a time, never the whole matrix at
    once, and each row is written with its own call.  A row equal bit for
    bit to the row before it (``-0.0`` after ``0.0`` is not) is neither
    converted nor formatted: its lead is followed by that row's text.
    """
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise InvalidInput(f"can only save 1-D or 2-D arrays, got {arr.ndim}-D")
    width = arr.shape[1] + (row_names is not None)
    if header is None:
        header = [f"col_{j}" for j in range(width)]
    if len(header) != width:
        raise InvalidInput(f"{len(header)} header names for {width} columns")
    if row_names is None:
        leads = [""] * arr.shape[0]
    elif len(row_names) == arr.shape[0]:
        leads = [f"{name}," for name in row_names]
    else:
        raise InvalidInput(f"{len(row_names)} row names for {arr.shape[0]} rows")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(str(h) for h in header) + "\n")
        step = max(1, _SAVE_CHUNK_CELLS // max(1, arr.shape[1]))
        last = text = None  # the bits and text of the row before this chunk
        for start in range(0, arr.shape[0], step):
            block = arr[start : start + step]
            bits = block.view(np.uint64)
            # a row whose bits equal the row before it reuses that row's text
            repeat = np.empty(bits.shape[0], dtype=bool)
            repeat[0] = last is not None and np.array_equal(bits[0], last)
            np.all(bits[1:] == bits[:-1], axis=1, out=repeat[1:])
            # repr of a Python float is _fmt's shortest round-trip form
            rows = iter((block[~repeat] if repeat.any() else block).tolist())
            for lead, same in zip(leads[start : start + step], repeat.tolist()):
                if not same:
                    text = ",".join(map(repr, next(rows))) + "\n"
                fh.write(lead + text)
            last = bits[-1]
            del rows  # free this chunk's floats before the next is made


def save_keyvalue(path, pairs) -> None:
    """Write (key, value) rows; numbers get round-trip formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("key,value\n")
        for key, value in pairs:
            if isinstance(value, float):
                value = _fmt(value)
            fh.write(f"{key},{value}\n")


def load_config(path) -> dict:
    """Flat ``key = value`` config file; # starts a comment line."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config: {exc}", path=path) from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", path=path, row=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", path=path, row=lineno)
        out[key] = value.strip()
    return out


def write_scree_svg(path, eigenvalues, log_scale: bool = False) -> None:
    """Emit a minimal bar-chart SVG of the spectrum (no plotting deps).

    With log_scale, bars show log10 of the eigenvalues, floored eight
    decades below the largest.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    width, height = 640, 400
    left, bottom, top = 50, 30, 20
    plot_w, plot_h = width - left - 10, height - bottom - top

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="14" font-size="12" font-family="sans-serif">'
        f'eigenvalue spectrum ({"log10" if log_scale else "linear"})</text>',
    ]
    if vals.size:
        if log_scale:
            floor = np.log10(max(vals.max(), 1e-300)) - 8.0
            heights = np.clip(np.log10(np.clip(vals, 1e-300, None)) - floor, 0.0, None)
        else:
            heights = np.clip(vals, 0.0, None)
        top_h = heights.max() if heights.max() > 0 else 1.0
        bar_w = plot_w / vals.size
        for i, h in enumerate(heights):
            px_h = plot_h * h / top_h
            x = left + i * bar_w
            y = top + plot_h - px_h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{max(bar_w - 1.0, 0.5):.2f}" '
                f'height="{px_h:.2f}" fill="steelblue"/>'
            )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{width - 10}" y2="{top + plot_h}" '
        'stroke="black"/>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
