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

``load_matrix_cached`` reads a file through an on-disk cache, so that a
file read again with the same content is not parsed again.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import stat

import numpy as np

from .errors import InvalidInput, ParseError

try:  # the digest alone: hashlib would load OpenSSL, some 3 MB
    from _blake2 import blake2b
except ImportError:  # an interpreter without CPython's builtin module
    from hashlib import blake2b

# cells converted to Python floats at a time when a matrix is written
_SAVE_CHUNK_CELLS = 2**16
# Personalizes every cache key.  Change it whenever load_matrix's parse
# rules or the entry layout change, so that no older entry is read.
_CACHE_FORMAT = b"wkernel-csv-1"
# the cache's size bound; the least recently used entries are removed first
_CACHE_BYTES = 2**30
# bytes of the source file hashed at a time
_HASH_CHUNK = 2**16


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


def load_matrix_cached(path):
    """``load_matrix(path)``, parsed once per distinct file content.

    The file's bytes and _CACHE_FORMAT are hashed with BLAKE2b, and the
    digest names an entry of the cache directory (``_cache_dir``) that
    holds the parsed matrix.  A hit returns what load_matrix returns: the
    same float64 bits, the same header, a writable array.  An entry that
    cannot be read, or that holds anything but a finite C-ordered 2-D
    float64 matrix with as many columns as its header has names, is a
    miss.  A miss parses with load_matrix and then stores the entry
    atomically, removing the least recently used entries beyond
    _CACHE_BYTES; a hit marks its entry used.  Only regular files are
    cached, as a pipe cannot be read twice, and a file that changed while
    it was parsed is not stored.  Any OSError of the cache falls back to
    parsing, silently.
    """
    try:
        entry, stamp = _cache_entry(path)
    except OSError:  # an unreadable source too: load_matrix reports it
        entry = None
    if entry is None:
        return load_matrix(path)
    try:
        found = _read_entry(entry)
    except (OSError, ValueError):  # UnicodeDecodeError of a header too
        found = None
    if found is not None:
        with contextlib.suppress(OSError):  # a read-only cache still serves
            os.utime(entry)
        return found
    arr, header = load_matrix(path)
    with contextlib.suppress(OSError):
        if _stamp(os.stat(path)) == stamp:
            _write_entry(entry, arr, header)
    return arr, header


def _cache_dir():
    """``$XDG_CACHE_HOME/wkernel`` when that is absolute, else
    ``~/.cache/wkernel``; None when no home directory is known."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "wkernel") if os.path.isabs(base) else None


def _stamp(st):
    """What changes when a file is rewritten."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _cache_entry(path):
    """The cache entry of the file at ``path`` and the file's stamp when
    it was hashed, or (None, None) when it is not a regular file or there
    is no cache directory."""
    directory = _cache_dir()
    if directory is None:
        return None, None
    st = os.stat(path)  # a pipe's writer would block on an open
    if not stat.S_ISREG(st.st_mode):
        return None, None
    with open(path, "rb", buffering=0) as fh:
        digest = blake2b(digest_size=32, person=_CACHE_FORMAT)
        chunk = memoryview(bytearray(_HASH_CHUNK))
        while size := fh.readinto(chunk):
            digest.update(chunk[:size])
    return os.path.join(directory, digest.hexdigest() + ".npy"), _stamp(st)


def _read_entry(entry):
    """(array, header) from a cache entry, or None when it holds no
    matrix that load_matrix could have returned."""
    with open(entry, "rb") as fh:
        names = _read_record(fh, np.uint8)
        arr = _read_record(fh, np.float64)
        trailing = fh.read(1)
    # empty text is no header: a header row has a non-blank cell or a comma
    header = names.tobytes().decode("utf-8").split(",") if names.size else None
    if (
        trailing
        or names.ndim != 1
        or arr.ndim != 2
        or not arr.size
        or (header is not None and len(header) != arr.shape[1])
        or not np.isfinite(arr).all()
    ):
        return None
    return arr, header


def _read_record(fh, dtype) -> np.ndarray:
    """The next .npy record of an open entry, read into a new C-ordered
    array of ``dtype``; ValueError for a record of another layout.

    np.load would return a reshaped view, which a container copies
    rather than adopt (core._readonly); this array owns its data.
    """
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not a version 1.0 record")
    shape, fortran_order, found = np.lib.format.read_array_header_1_0(fh)
    if fortran_order or found != dtype:
        raise ValueError(f"record of {found}, not {np.dtype(dtype)}")
    # a garbage shape must not allocate more than the entry could hold
    if math.prod(shape) * found.itemsize > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("record larger than its entry")
    arr = np.empty(shape, dtype=dtype)
    if fh.readinto(arr) != arr.nbytes:
        raise ValueError("truncated record")
    return arr


def _write_entry(entry, arr, header) -> None:
    """Store a cache entry: the header's UTF-8 text as a uint8 record, then
    the matrix.  The records go to a temporary file that replaces the
    entry whole; then the least recently used entries beyond
    _CACHE_BYTES are removed, this one last."""
    directory = os.path.dirname(entry)
    os.makedirs(directory, exist_ok=True)
    text = ",".join(header).encode("utf-8") if header is not None else b""
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.frombuffer(text, dtype=np.uint8))
            np.save(fh, arr)
        os.replace(tmp, entry)
    except BaseException:  # an interrupt too: no stray file outlives the run
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    used = []
    for item in os.scandir(directory):
        if item.name.endswith(".npy"):
            with contextlib.suppress(FileNotFoundError):  # another run removed it
                st = item.stat()
                used.append((item.path == entry, st.st_mtime_ns, st.st_size, item.path))
    total = sum(size for _, _, size, _ in used)
    for _, _, size, name in sorted(used):
        if total <= _CACHE_BYTES:
            break
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)
        total -= size


def load_vector(path):
    """Load a one-column (or one-row) CSV as a vector, through the input
    cache (load_matrix_cached)."""
    arr, header = load_matrix_cached(path)
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
