"""Dataset ingestion and result serialization.

Three network file formats are supported: edge CSVs with a
"source,target" header, square input-output tables whose cells above a
nonnegative threshold become edges, and the package's own JSON schema.
Node names are normalized to dense ids 1..K; JSON round-trips preserve
the logical content exactly.  All CSV output is plain ASCII with '.' decimal points.
Every input file is read as UTF-8; bytes that do not decode raise
FormatError, like any other malformed content.

Both CSV formats are read into one reused buffer IO_TABLE_BLOCK (256 KB)
bytes at a time, cut at line ends and checked as UTF-8, which names a bad
byte by its file position.  Input-output tables are scanned as bytes with
numpy, with "\\r\\n" as one line end, and only the cells that can become
edges (data cells off the diagonal that are not "0") are decoded and
converted, so their memory is O(block + K + E).  Edge CSVs, and tables
with a quote or NUL byte or a cell longer than csv's field limit, are
decoded by csv.reader; both table routes feed one reducer.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError, SizeError, ValidationError, check_real
from .network import ProductionNetwork

NETWORK_JSON_SCHEMA = 1


class DuplicateEdgeWarning(UserWarning):
    """An ingested file repeated an edge; duplicates were dropped."""


def parse_edge_csv(path) -> ProductionNetwork:
    """Read a directed edge list with header ``source,target``.

    Node ids are assigned by first appearance (source before target, row
    by row).  Duplicate rows collapse to one edge with a warning;
    self-loops are rejected.  A leading UTF-8 byte-order mark is dropped.
    """
    path = Path(path)
    ids: dict[str, int] = {}
    ends = []  # source and target id of each row, flat
    reader = _csv_rows(path)
    header = next(reader, None)
    if header is None or [c.lstrip("\ufeff").strip().lower() for c in header[:2]] != ["source", "target"]:
        raise FormatError(f"{path}: expected header 'source,target', got {header!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise FormatError(f"{path}:{lineno}: expected two columns, got {row!r}")
        src, dst = row[0].strip(), row[1].strip()
        if not src or not dst:
            raise FormatError(f"{path}:{lineno}: empty node name")
        if src == dst:
            raise ValidationError(f"{path}:{lineno}: self-loop on {src!r}")
        ends += (ids.setdefault(src, len(ids) + 1), ids.setdefault(dst, len(ids) + 1))
    if not ids:
        raise FormatError(f"{path}: no edges found")
    pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    _, first = np.unique(pairs[:, 0] * (len(ids) + 1) + pairs[:, 1], return_index=True)
    if len(first) < len(pairs):
        warnings.warn(
            f"{path}: dropped {len(pairs) - len(first)} duplicate edge row(s)",
            DuplicateEdgeWarning,
            stacklevel=2,
        )
    return ProductionNetwork(len(ids), pairs[first])


def _csv_rows(path: Path):
    """The rows of a CSV file, read by csv.reader through `_line_blocks`; csv errors raise FormatError."""
    lines = (line for block in _line_blocks(path) for line in io.StringIO(str(block, "utf-8"), newline=""))
    try:
        yield from csv.reader(lines)
    except csv.Error as exc:
        raise FormatError(f"{path}: unreadable CSV: {exc}") from exc


IO_TABLE_BLOCK = 1 << 18  # bytes that the CSV readers read, check and scan at a time
_ZERO_RUNS = np.frombuffer(b"0,0,0,0,,0,0,0,0", np.uint64)  # 8 bytes of "0" cells, in both phases


def parse_io_table(path, threshold: float = 0.0) -> ProductionNetwork:
    """Read a square input-output table; cells above a nonnegative threshold become edges.

    Row industry j supplies column industry i, giving edge (j, i).  The
    diagonal is ignored and the result may be cyclic (flagged on the
    network).  Non-square tables, ragged rows and non-numeric off-diagonal
    cells raise FormatError: a non-square table first, else the first bad
    row.  Rows whose cells all strip to nothing are skipped.  A negative
    threshold raises ParameterError, so a "0" cell is never an edge.

    The file is read in binary blocks of IO_TABLE_BLOCK bytes, each cut
    after its last line end and checked as UTF-8.  numpy scans a block's
    bytes with commas and line ends as separators; '\\n', '\\r' and "\\r\\n"
    each end one line, and empty lines are skipped where they are found.
    A cell is a zero exactly when it is the single byte "0".  8-byte words
    of "0" cells inside a run of them are skipped whole, and only the
    cells that can become edges are decoded and converted: the data cells
    off the diagonal that are not "0", never the header or the labels.
    So no K x K structure is held and memory is O(block + K + E).
    A file the scan cannot split as csv.reader would (one with a quote or
    NUL byte, or a cell longer than csv's field limit) is decoded by
    csv.reader instead.  Both sources feed one reducer, which takes each
    row's cell count and the data rows, columns and texts of the cells
    that can become edges, and applies the error order, the threshold and
    the build.
    """
    path = Path(path)
    threshold = check_real(threshold, "threshold", "[0, inf]")
    try:
        return _reduce_io_table(path, threshold, _scanned_chunks(path))
    except _NeedsCsv:
        return _reduce_io_table(path, threshold, _csv_chunks(path))


class _NeedsCsv(Exception):
    """The byte scan met a file that it cannot split into cells exactly as csv.reader does."""


def _reduce_io_table(path: Path, threshold: float, chunks) -> ProductionNetwork:
    """The network of a table given as chunks of its non-blank rows, in file order.

    A chunk is (widths, rows, cols, texts): each row's cell count, and for
    each cell that can be an edge its data row, its column and its text.
    Those are the data cells off the diagonal that are not "0".
    """
    k, seen, error, src, dst = 0, 0, None, [], []
    for widths, rows, cols, texts in chunks:
        if seen == 0 and len(widths):
            k = int(widths[0]) - 1  # the header
        first = seen - 1  # the data row index of the chunk's first row
        seen += len(widths)
        if error is not None:
            continue  # the row count decides whether the error is raised
        lo = max(-first, 0)  # the chunk's first data row
        ragged = np.flatnonzero(widths[lo : max(k - first, lo)] != k + 1) + lo
        end = first + int(ragged[0]) if len(ragged) else k  # rows before it are converted
        n = int(np.searchsorted(rows, end))  # rows are in file order
        given, r, c = texts[:n], rows[:n], cols[:n]
        try:
            values = np.array(given, dtype=np.float64)
        except ValueError:
            for t, text in enumerate(given):
                try:
                    float(text)
                except ValueError:
                    break
            error = FormatError(f"{path}: non-numeric cell at row {r[t] + 1}, col {c[t]}")
            continue
        if len(ragged):
            row = ragged[0]
            error = FormatError(f"{path}: row {first + row + 1} has {widths[row] - 1} cells, expected {k}")
        keep = values > threshold
        src.append(r[keep] + 1)
        dst.append(c[keep])
    count = max(seen - 1, 0)
    if count == 0:
        raise FormatError(f"{path}: expected a labeled square matrix")
    if count != k:
        raise FormatError(f"{path}: matrix is not square ({count} rows, {k} columns)")
    if error is not None:
        raise error
    return ProductionNetwork(k, np.column_stack((np.concatenate(src), np.concatenate(dst))))


def _csv_chunks(path: Path):
    """The reducer's chunks from csv.reader's rows, 256 rows to a chunk."""
    r = -1  # the data row of the next kept row; the header's is -1
    widths, rows, cols, texts = [], [], [], []
    for row in _csv_rows(path):
        if not any(cell.strip() for cell in row):
            continue  # a row is kept when some cell is more than whitespace
        if r >= 0:
            given = [c for c in range(1, len(row)) if c != r + 1 and row[c] != "0"]
            rows += [r] * len(given)
            cols += given
            texts += map(row.__getitem__, given)
        widths.append(len(row))
        r += 1
        if len(widths) == 256:
            yield np.array(widths, np.intp), np.array(rows, np.intp), np.array(cols, np.intp), texts
            widths, rows, cols, texts = [], [], [], []
    yield np.array(widths, np.intp), np.array(rows, np.intp), np.array(cols, np.intp), texts


def _scanned_chunks(path: Path):
    """The reducer's chunks from a numpy scan of the file's bytes, one per block."""
    seen = 0  # rows kept in earlier blocks
    for block in _line_blocks(path):
        words = np.frombuffer(block, np.uint64, len(block) // 8)
        # a word of four "0" cells between two copies of itself locates nothing,
        # and dropping it leaves the same bytes around every byte that is kept
        same = words[1:] == words[:-1]
        run = (words == _ZERO_RUNS[0]) | (words == _ZERO_RUNS[1])
        run[1:-1] &= same[1:]
        run[1:-1] &= same[:-1]
        run[:1] = run[-1:] = False
        kept = np.flatnonzero(~run)
        # the kept words, the bytes after the last whole word, and a line end (the
        # file's last line may lack one; after another it ends an empty line)
        text = b"".join((words[kept].tobytes(), block[len(words) * 8 :], b"\n"))
        if b'"' in text or b"\0" in text:
            raise _NeedsCsv  # quoted cells; and csv.reader's NUL rule differs between Pythons
        b = np.frombuffer(text, np.uint8)
        comma, nl = b == ord(","), b == ord("\n")
        nl |= b == ord("\r")
        # a cell starts after a comma or a line end and ends at the next one; a
        # line end right after another ("\r\n", or an empty line, which is
        # skipped) marks nothing; a block starts after a line end
        start, end = np.empty_like(nl), np.empty_like(nl)
        start[0], end[0] = not nl[0], False
        np.greater(nl[:-1], nl[1:], out=start[1:])
        start[1:] |= comma[:-1]
        np.greater(nl[1:], nl[:-1], out=end[1:])
        end |= comma
        # a "0" between two commas is not located, so a line's first and last cells always are
        zero = b == ord("0")
        zero[1:] &= comma[:-1]
        zero[:-1] &= comma[1:]
        zero[0] = False
        start ^= zero
        end[1:] ^= zero[:-1]
        del zero
        starts, ends = np.flatnonzero(start), np.flatnonzero(end)
        heads = nl[starts - 1]  # a located cell after a line end starts a line (b[-1] is one, for starts[0] = 0)
        zeros = (ends - starts == 1) & (b[starts] == ord("0"))  # "0" cells first or last in their line
        del b, comma, nl, start, end  # or they live on while the next block is read and scanned
        if not len(starts):
            continue  # empty lines only
        if len(block) > csv.field_size_limit() and (ends - starts).max() > csv.field_size_limit():
            raise _NeedsCsv
        # within a line, the block's bytes between a located cell's end and the next start are "0," pairs
        shift = (np.concatenate((kept, [len(words)])) - np.arange(len(kept) + 1)) * 8  # words dropped before, in bytes
        del kept
        line = np.cumsum(heads) - 1
        firsts = np.flatnonzero(heads)
        lasts = np.concatenate((firsts[1:], [len(starts)])) - 1
        cols = np.zeros(len(starts), np.intp)
        np.cumsum((starts[1:] + shift[starts[1:] >> 3] - ends[:-1] - shift[ends[:-1] >> 3] + 1) >> 1, out=cols[1:])
        cols -= cols[firsts][line]
        widths = cols[lasts] + 1
        # a line with a "0" cell has text; any other line is its cells and their commas
        maybe = np.flatnonzero(widths == lasts - firsts + 1).tolist()
        blank = [j for j in maybe if not text[starts[firsts[j]] : ends[lasts[j]]].decode().replace(",", "").strip()]
        if blank:
            live = np.ones(len(widths), bool)
            live[blank] = False
            on = live[line]
            starts, ends, heads, zeros, cols = starts[on], ends[on], heads[on], zeros[on], cols[on]
            widths, line = widths[live], (np.cumsum(live) - 1)[line[on]]
        # the cells that can be edges: data cells, not labels, off the diagonal
        keep = cols != line + seen
        keep &= ~heads
        keep &= ~zeros  # a line's last cell may be "0"
        if seen == 0:
            keep &= line > 0  # the header
        at = np.flatnonzero(keep)
        rows, seen = line[at] + (seen - 1), seen + len(widths)
        yield widths, rows, cols[at], _texts(text, starts[at], ends[at])


def _texts(text: bytes, starts, ends) -> list:
    """The decoded texts of cells, given their starts and ends in text.

    Each cell is gathered with the byte that ends it, which becomes a comma,
    so one decode and one split make every text.
    """
    sizes = ends - starts + 1
    last = np.cumsum(sizes) - 1  # where each cell's end lands
    cells = np.frombuffer(text, np.uint8)[np.repeat(starts - last + sizes - 1, sizes) + np.arange(sizes.sum())]
    cells[last] = ord(",")
    return cells.tobytes().decode().split(",")[:-1]


def _line_blocks(path: Path):
    """The file's bytes, checked as UTF-8, in blocks that end at a line end or the file's end.

    A block is a memoryview of the one buffer that every read refills, so it
    is valid until the next block is asked for.  A read's last '\r' waits for
    the next read, whose '\n' may pair with it.
    """
    buf, have, offset = bytearray(IO_TABLE_BLOCK), 0, 0
    with path.open("rb") as fh:
        while True:
            if have == len(buf):  # a line longer than the buffer: a bigger one, as a block may view this one
                buf = buf + bytearray(len(buf))
            got = fh.readinto(memoryview(buf)[have:])
            if not got:
                break
            have += got
            cut = max(buf.rfind(b"\n", have - got, have), buf.rfind(b"\r", have - got, have - 1)) + 1
            if cut:
                block = memoryview(buf)[:cut]
                _check_utf8(block, offset, path)
                offset += cut
                yield block
                buf[: have - cut], have = buf[cut:have], have - cut
    if have:
        block = memoryview(buf)[:have]
        _check_utf8(block, offset, path)
        yield block


def _check_utf8(block, offset: int, path: Path) -> None:
    """Raise FormatError, naming positions in the file, if a block is not UTF-8."""
    try:
        str(block, "utf-8")
    except ValueError as exc:  # a decode error, which carries the bad bytes' span
        start, end = offset + exc.start, offset + exc.end - 1
        where = f"byte 0x{block[exc.start]:02x} in position {start}" if start == end else f"bytes in position {start}-{end}"
        raise FormatError(f"{path}: unreadable CSV: 'utf-8' codec can't decode {where}: {exc.reason}") from exc


def save_network_json(net: ProductionNetwork, path) -> None:
    """Write the versioned JSON form of a network."""
    doc = {
        "schema": NETWORK_JSON_SCHEMA,
        "k": net.node_count,
        "n": net.supplier_count,
        "edges": [],
        "tiers": {str(v): t for v, t in net.tiers.items()} if net.tiers is not None else None,
        "acyclic": net.acyclic,
    }
    # json's indented encoder runs in Python; the edge list, most of the
    # file, is written in its exact layout directly ("acyclic" sorts first,
    # and its value is never a list, so the first empty list is "edges")
    src, dst = (a + 1 for a in net.edge_arrays())
    pairs = ",\n".join(f"  [\n   {j},\n   {i}\n  ]" for j, i in zip(src.tolist(), dst.tolist()))
    text = json.dumps(doc, indent=1, sort_keys=True)
    if pairs:
        text = text.replace('"edges": []', f'"edges": [\n{pairs}\n ]', 1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_network_json(path) -> ProductionNetwork:
    """Read a network written by save_network_json; a leading UTF-8 byte-order mark is dropped.

    The fields go to ProductionNetwork as they are, and a field it refuses
    raises FormatError naming the file.  A file that declares
    "acyclic": true over a cycle raises ValidationError.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8").removeprefix("\ufeff"))
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes that are not UTF-8, deep nesting
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != NETWORK_JSON_SCHEMA:
        raise FormatError(f"{path}: unsupported or missing schema tag")
    for key in ("k", "n", "edges"):
        if key not in doc:
            raise FormatError(f"{path}: missing field {key!r}")
    tiers = doc.get("tiers")
    try:
        if isinstance(tiers, dict):  # save_network_json writes product v's key as str(v); other keys stay text
            tiers = {int(v) if v.isascii() and v.isdigit() and str(int(v)) == v else v: t for v, t in tiers.items()}
        net = ProductionNetwork(doc["k"], doc["edges"], supplier_count=doc["n"], tiers=tiers)
    except SizeError:
        raise
    except ValueError as exc:  # the constructor's ParameterError or ValidationError, or a key too long for int()
        raise FormatError(f"{path}: malformed network field: {exc}") from exc
    if doc.get("acyclic") and not net.acyclic:
        raise ValidationError("network was declared acyclic but contains a cycle")
    return net


def save_edge_csv(net: ProductionNetwork, path) -> None:
    """Write the edge list as a source,target CSV (ids as names).

    Interchange only: the format carries no isolated nodes, tiers, or
    supplier count, and reparsing renumbers ids by first appearance.  Use
    the JSON form when the exact network must round-trip.
    """
    write_csv(path, ["source", "target"], (np.column_stack(net.edge_arrays()) + 1).tolist())


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of mixed numeric/text cells with a header row.

    csv writes each cell as str(cell), and str of a Python float is its
    repr (shortest round-trip form, '.' decimal point, no separators), so
    output bytes are stable across locales.  Rows hold Python scalars, as
    `.tolist()` gives them: str of a numpy float32 is its own, shorter form.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_resilience_csv(curve, path) -> None:
    """ResilienceCurve as CSV with columns epsilon, r_hat, stderr.

    stderr is the binomial standard error of the survival estimate p_hat
    at r_hat, not an error bar on r_hat.
    """
    write_csv(
        path,
        ["epsilon", "r_hat", "stderr"],
        zip(curve.epsilon_grid.tolist(), curve.r_hat.tolist(), curve.stderr.tolist()),
    )


def write_histogram_csv(pmf: np.ndarray, trials: int, path) -> None:
    """Cascade-size histogram as CSV with columns f, count, frequency.

    The bytes are `write_csv`'s.  A cascade-size pmf is mostly zeros, so
    each run of +0.0 rows ("f,0,0.0") is written by one join and only the
    other rows are formatted one by one.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    # in float64, as the Python floats of `tolist()`; rint rounds half to even, as round() does
    counts = np.rint(pmf * trials).astype(np.int64).tolist()
    freqs = pmf.tolist()
    parts, start = ["f,count,frequency\r\n"], 0
    for f in np.flatnonzero(pmf.view(np.int64) != 0).tolist() + [len(freqs)]:  # rows not +0.0, then the end
        if f > start:
            parts.append(",0,0.0\r\n".join(map(str, range(start, f))) + ",0,0.0\r\n")
        if f < len(freqs):
            parts.append(f"{f},{counts[f]},{freqs[f]!r}\r\n")
        start = f + 1
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("".join(parts))


def write_beta_csv(ranking, path) -> None:
    """Vulnerability ranking as CSV with columns product, beta, rank."""
    write_csv(
        path,
        ["product", "beta", "rank"],
        [(pid, float(beta), rank) for rank, (pid, beta) in enumerate(ranking, start=1)],
    )


def write_intervention_csv(rows, path) -> None:
    """Intervention sweep as CSV with columns T, T_frac, objective, resilience_lb."""
    write_csv(path, ["T", "T_frac", "objective", "resilience_lb"], rows)
