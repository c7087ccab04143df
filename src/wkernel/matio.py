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
such as ``1_0``.  Both readers round through ``PyOS_string_to_double``,
so they give the same bits for every cell both accept.  Inputs and
config files are UTF-8, a byte-order mark at the start skipped.

``load_matrix_cached`` reads a file through an on-disk cache, so that a
file read again with the same content is not parsed again.
"""

from __future__ import annotations

import contextlib
import functools
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

# cells formatted at a time when a matrix is written: about 3 MB of the
# formatter's temporaries
_SAVE_CHUNK_CELLS = 2**13
# Personalizes every cache key.  Change it whenever load_matrix's parse
# rules or the entry layout change, so that no older entry is read.
_CACHE_FORMAT = b"wkernel-csv-2"
# the cache's size bound; the least recently used entries are removed first
_CACHE_BYTES = 2**30
# bytes of the source file hashed at a time
_HASH_CHUNK = 2**16


# ---------------------------------------------------------------------------
# CSV text of float64 cells, as repr writes them
# ---------------------------------------------------------------------------
#
# _shortest finds a cell's digits exactly, as Ryu does (Adams, PLDI 2018):
# x is scaled by 10**t into [1e16, 1e17) in integers, and the nearest 15-,
# 16- and 17-digit decimals are tried, each kept only if it lies strictly
# within half an ulp of x, the shortest winning.  Its 64-bit integers hold
# 5**t and the scaled half ulp for 2**-20 <= |x| < 2**56 only.  Any other
# cell is written by repr, and so is one whose text a tie between two
# candidates, or a candidate on the half-ulp edge, would decide.
#
# A cell's text is then cut from a field of six 8-byte words that holds
# every character any layout needs: the sign (byte 0), the lead "0.000" of
# 1e-4 <= |x| < 0.1 (1-5), 17 digits each followed by a point (6-39), the
# exponent "e+16" (40-43) and the separator (44).  A keep-mask selects the
# bytes of each layout: fixed notation for 1e-4 <= |x| < 1e16, else
# "d.ddde+XX".


@functools.cache
def _tables():
    """The tables of _csv_lines, read-only and made at its first call, not
    at import: the field's words 0 per leading digit, 1-4 per four digits
    and 5 per exponent -7..16; the keep-mask of its 48 bytes, the sign's
    aside, per (exponent, digit count 1..17), flattened to rows; and, for
    each of the words 1-4, the digit count that four digits there imply."""
    digit = np.frombuffer(b"0.1.2.3.4.5.6.7.8.9.", dtype=np.uint16)
    quad = np.stack(np.broadcast_arrays(*np.ix_(digit, digit, digit, digit)), -1)
    lead = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), dtype=np.uint64)
    tail = np.frombuffer(b"".join(b"e%+03d,\0\0\0" % e for e in range(-7, 17)), dtype=np.uint64)
    col = np.arange(48)
    e = np.arange(-7, 17)[:, None, None]
    nd = np.arange(1, 18)[:, None]
    fixed = (-4 <= e) & (e < 16)
    digits = (6 <= col) & (col < 40) & (col % 2 == 0)
    i = (col - 6) // 2  # the digit that a digit or point byte belongs to
    keep = (
        (0 < col) & (col < 2 - e) & (e < 0) & fixed  # "0." and -e - 1 zeros
        | digits & (i <= e + 1) & fixed  # the integer part and a fraction digit
        | (col == 7 + 2 * e) & (e >= 0) & fixed
        | (40 <= col) & (col < 44) & ~fixed
        | (col == 44)
    ) | digits & (i < nd) | (col == 7) & (nd > 1) & ~fixed
    # the position of the last nonzero digit of 0000..9999, 0 for 0000
    last = np.zeros(1, dtype=np.uint8)
    for j in range(1, 5):
        last = np.where(np.arange(10) > 0, np.uint8(j), last[:, None]).ravel()
    counts = (last + np.arange(1, 14, 4, dtype=np.uint8)[:, None]) * (last > 0)
    tables = lead, quad.view(np.uint64).ravel(), tail, keep.reshape(-1, 48), counts
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _shortest(mag):
    """Digits and decimal exponent of repr's text for the magnitudes whose
    bits are ``mag``, all in [2**-20, 2**56): (D, E, exact), the value being
    D * 10**(E - 16) with D in [1e16, 1e17).  Where ``exact`` is False
    the text is repr's to give."""
    m = mag & 2**52 - 1 | 2**52
    e2 = (mag >> 52).astype(np.int64)
    # x < 2**(e2 - 1022) < 10**(17 - t), so x * 10**t is in [1e15, 1e17)
    t = 16 - ((e2 - 1022) * 78913 >> 18)  # 78913 / 2**18 ~ log10(2)
    k = 1075 - e2 - t
    kr, kl = np.maximum([k, -k], 0).astype(np.uint64)
    # x * 10**t = m * 5**t * 2**-k: the product in two 64-bit limbs from
    # 32-bit partial products, then shifted (by 64 in two steps)
    p = 5 ** t.astype(np.uint64)
    ml, mh, pl, ph = m & 2**32 - 1, m >> 32, p & 2**32 - 1, p >> 32
    mid = ml * ph + mh * pl
    lo = ml * pl + (mid << 32)
    hi = mh * ph + (mid >> 32) + (lo < ml * pl)
    whole = (lo >> kr | hi << 1 << 63 - kr) << kl
    unit = 1 << kr
    rem = lo & unit - 1
    # below 1e16, one more digit: x * 10**(t + 1) = whole + rem / unit
    short = whole < 10**16
    ten = short.astype(np.uint64) * 9 + 1
    whole, rem = whole * ten + (rem * ten >> kr), rem * ten & unit - 1
    ulp2 = (p << kl) * ten  # twice the half ulp, in units of 1 / unit
    # the nearest 17 digits are always within half an ulp
    digits = whole + (rem << 1 > unit)
    exact = rem << 1 != unit
    for step in (10, 100):  # 16 digits, then 15, the shorter winning
        head = whole // step
        below = (whole - head * step << kr) + rem
        above = (step << kr) - below
        # each candidate's distance against the half ulp: within it, the
        # candidate reads back as x; on its edge, repr is to decide.  A power
        # of two has only half that below it, but none of the 76 in the
        # domain has a candidate in the difference (the tests try them all)
        near_down, near_up = below << 1 <= ulp2, above << 1 <= ulp2
        near = near_down | near_up
        pick_up = near_up & ~(near_down & (below <= above))
        tie = near_down & near_up & (below == above)
        exact = np.where(near, (np.where(pick_up, above, below) << 1 != ulp2) & ~tie, exact)
        digits = np.where(near, (head + pick_up) * step, digits)
    carry = digits >= 10**17  # 9.99...95 rounded up to 10
    digits[carry] = 10**16
    return digits, 16 - t - short + carry, exact


def _csv_lines(block):
    """The CSV lines of the rows of the 2-D float64 ``block`` as one bytes
    object; every cell reads as ``repr`` writes it."""
    rows, cols = block.shape
    if not cols:
        return b"\n" * rows
    lead, quad_words, tail, keep_rows, counts = _tables()
    bits = np.ascontiguousarray(block).reshape(-1).view(np.uint64)
    mag = bits & 2**63 - 1
    exact = (1003 <= mag >> 52) & (mag >> 52 < 1079)  # 2**-20 <= |x| < 2**56
    digits, e10, found = _shortest(np.where(exact, mag, 1023 << 52))  # the rest as 1.0
    exact &= found
    digits[mag == 0] = 0  # 0.0, with 1.0's exponent 0
    words = np.empty((mag.size, 6), dtype=np.uint64)
    count = np.ones(mag.shape, dtype=np.intp)
    for j in (4, 3, 2, 1):
        head = digits // 10**4
        quad = digits - head * 10**4
        words[:, j] = quad_words[quad]
        np.maximum(count, counts[j - 1][quad], out=count)
        digits = head
    words[:, 0] = lead[digits]
    words[:, 5] = tail[e10 + 7]
    field = words.view(np.uint8)
    field[cols - 1 :: cols, 44] = ord("\n")
    keep = keep_rows[(e10 + 7) * 17 + count - 1]
    keep[:, 0] = bits >> 63
    # the other cells' text is repr's, padded with NUL bytes
    slow = np.flatnonzero(~exact & (mag != 0))
    texts = np.array(list(map(repr, bits[slow].view(np.float64).tolist())), dtype="S44")
    field[slow, :44] = texts.view(np.uint8).reshape(-1, 44)
    keep[slow] = field[slow] != 0
    return np.compress(keep.reshape(-1), field.reshape(-1)).tobytes()


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
        with open(path, "r", encoding="utf-8-sig") as fh:
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
            with open(path, "r", encoding="utf-8-sig") as fh:
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

    Each number is written as ``repr`` writes it.  With ``row_names``, each
    row starts with its name in a text column, which ``header`` names too.
    Rows are formatted about _SAVE_CHUNK_CELLS cells at a time
    (``_csv_lines``), never the whole matrix at once.  A row equal bit for
    bit to the row before it (``-0.0`` after ``0.0`` is not) is not
    formatted: its name, if any, is followed by that row's text.
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
    if row_names is not None and len(row_names) != arr.shape[0]:
        raise InvalidInput(f"{len(row_names)} row names for {arr.shape[0]} rows")
    bits = arr.view(np.uint64)
    step = max(1, _SAVE_CHUNK_CELLS // max(1, arr.shape[1]))
    lines = [b""]  # ends with the text of the row before this chunk
    with open(path, "wb") as fh:
        fh.write((",".join(str(h) for h in header) + "\n").encode("utf-8"))
        for start in range(0, arr.shape[0], step):
            block = bits[start : start + step]
            # a row whose bits equal the row before it reuses that row's text
            repeat = np.empty(len(block), dtype=bool)
            repeat[0] = start > 0 and np.array_equal(block[0], bits[start - 1])
            np.all(block[1:] == block[:-1], axis=1, out=repeat[1:])
            text = _csv_lines(arr[start : start + step][~repeat])
            lines = lines[-1:] + text.splitlines(keepends=True)  # the text has no \r
            rows = map(lines.__getitem__, np.cumsum(~repeat).tolist())
            if row_names is not None:
                names = row_names[start : start + step]
                rows = map(bytes.__add__, [f"{name},".encode("utf-8") for name in names], rows)
            fh.write(b"".join(rows))


def save_keyvalue(path, pairs) -> None:
    """Write (key, value) rows; numbers get round-trip formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("key,value\n")
        for key, value in pairs:
            if isinstance(value, float):
                value = repr(float(value))  # np.float64's repr names its type
            fh.write(f"{key},{value}\n")


def load_config(path) -> dict:
    """Flat ``key = value`` config file; # starts a comment line."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
