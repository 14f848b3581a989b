"""Dataset ingestion and result serialization.

Three network file formats are supported: edge CSVs with a
"source,target" header, square input-output tables whose positive cells
become edges, and the package's own JSON schema.  Node names are
normalized to dense ids 1..K; JSON round-trips preserve the logical
content exactly.  All CSV output is plain ASCII with '.' decimal points.
Every input file is read as UTF-8; bytes that do not decode raise
FormatError, like any other malformed content.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError, check_real
from .network import ProductionNetwork

NETWORK_JSON_SCHEMA = 1


class DuplicateEdgeWarning(UserWarning):
    """An ingested file repeated an edge; duplicates were dropped."""


def parse_edge_csv(path) -> ProductionNetwork:
    """Read a directed edge list with header ``source,target``.

    Node ids are assigned by first appearance (source before target, row
    by row).  Duplicate rows collapse to one edge with a warning;
    self-loops are rejected.
    """
    path = Path(path)
    ids: dict[str, int] = {}
    ends = []  # source and target id of each row, flat
    reader = _csv_rows(path)
    header = next(reader, None)
    if header is None or [c.strip().lower() for c in header[:2]] != ["source", "target"]:
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
    """The rows of a UTF-8 CSV file; undecodable bytes and csv errors raise FormatError."""
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            yield from csv.reader(fh)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: unreadable CSV: {exc}") from exc


def parse_io_table(path, threshold: float = 0.0) -> ProductionNetwork:
    """Read a square input-output table; cells above threshold become edges.

    Row industry j supplies column industry i, giving edge (j, i).  The
    diagonal is ignored and the result may be cyclic (flagged on the
    network).  Non-square tables, ragged rows and non-numeric off-diagonal
    cells raise FormatError: a non-square table first, else the first bad
    row.  Rows stream from the CSV reader and only cells other than the
    literal "0" are converted (all of them when the threshold is negative,
    which makes "0" cells edges), so no K x K structure is held and memory
    is O(K + E) on a sparse table.
    """
    path = Path(path)
    threshold = check_real(threshold, "threshold", "[-inf, inf]")
    zero_is_edge = 0.0 > threshold
    rows = (r for r in _csv_rows(path) if r and any(c.strip() for c in r))
    header = next(rows, None)
    k = 0 if header is None else len(header) - 1
    # the cells other than "0", row by row: their columns and texts, and how many each row has
    count, error, cols, texts, sizes = 0, None, [], [], []
    for r, row in enumerate(rows):
        count = r + 1
        if error is not None or r >= k:
            continue  # the row count decides whether the error is raised
        if len(row) != k + 1:
            error = FormatError(f"{path}: row {r + 1} has {len(row) - 1} cells, expected {k}")
            continue
        row[0] = row[r + 1] = "0"  # the label and the diagonal are ignored, numeric or not
        if zero_is_edge:  # "0" cells are edges too: convert every cell off the diagonal
            given = [c for c in range(1, k + 1) if c != r + 1]
        else:
            given = [c for c, cell in enumerate(row) if cell != "0"]
        cols += given
        texts += map(row.__getitem__, given)
        sizes.append(len(given))
    if count == 0:
        raise FormatError(f"{path}: expected a labeled square matrix")
    if count != k:
        raise FormatError(f"{path}: matrix is not square ({count} rows, {k} columns)")
    try:  # every row before the first ragged one
        values = np.array(texts, dtype=np.float64)
    except ValueError as exc:
        at = next(t for t, text in enumerate(texts) if not _is_float(text))
        r = int(np.searchsorted(np.cumsum(sizes), at, side="right"))
        raise FormatError(f"{path}: non-numeric cell at row {r + 1}, col {cols[at]}") from exc
    if error is not None:
        raise error
    keep = values > threshold
    suppliers = np.repeat(np.arange(1, k + 1), sizes)
    return ProductionNetwork(k, np.column_stack((suppliers[keep], np.array(cols, dtype=np.int64)[keep])))


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


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
    """Read a network written by save_network_json."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes that are not UTF-8, deep nesting
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != NETWORK_JSON_SCHEMA:
        raise FormatError(f"{path}: unsupported or missing schema tag")
    for key in ("k", "n", "edges"):
        if key not in doc:
            raise FormatError(f"{path}: missing field {key!r}")
    try:
        k, n = _json_int(doc["k"]), _json_int(doc["n"])
        edges = _json_edges(doc["edges"])
        tiers = doc.get("tiers")
        if tiers is not None:
            tiers = {_json_int(v): _json_int(t) for v, t in tiers.items()}
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed network field: {exc}") from exc
    return ProductionNetwork(
        k,
        edges,
        supplier_count=n,
        tiers=tiers,
        acyclic=bool(doc["acyclic"]) if doc.get("acyclic") else None,
    )


def _json_edges(value):
    """Edge pairs: one int64 array when every id is an int, else checked pair by pair."""
    try:
        if set(map(type, itertools.chain.from_iterable(value))) <= {int}:
            pairs = np.array(value, dtype=np.int64)
            if pairs.ndim == 2 and pairs.shape[1] == 2:
                return pairs
    except (TypeError, ValueError, OverflowError):
        pass  # not a list of int pairs: the check below names the fault
    return [(_json_int(j), _json_int(i)) for j, i in value]


def _json_int(value) -> int:
    # int() alone would truncate 2.7 to 2 and read true as 1
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def save_edge_csv(net: ProductionNetwork, path) -> None:
    """Write the edge list as a source,target CSV (ids as names).

    Interchange only: the format carries no isolated nodes, tiers, or
    supplier count, and reparsing renumbers ids by first appearance.  Use
    the JSON form when the exact network must round-trip.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target"])
        writer.writerows((np.column_stack(net.edge_arrays()) + 1).tolist())


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of mixed numeric/text cells with a header row.

    Floats are rendered with repr (shortest round-trip form, '.' decimal
    point, no separators) so output bytes are stable across locales.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_resilience_csv(curve, path) -> None:
    """ResilienceCurve as CSV with columns epsilon, r_hat, stderr."""
    write_csv(
        path,
        ["epsilon", "r_hat", "stderr"],
        zip(curve.epsilon_grid.tolist(), curve.r_hat.tolist(), curve.stderr.tolist()),
    )


def write_histogram_csv(pmf: np.ndarray, trials: int, path) -> None:
    """Cascade-size histogram as CSV with columns f, count, frequency."""
    rows = [(f, int(round(p * trials)), p) for f, p in enumerate(pmf.tolist())]
    write_csv(path, ["f", "count", "frequency"], rows)


def write_beta_csv(ranking, path) -> None:
    """Vulnerability ranking as CSV with columns product, beta, rank."""
    write_csv(
        path,
        ["product", "beta", "rank"],
        [(pid, beta, rank) for rank, (pid, beta) in enumerate(ranking, start=1)],
    )


def write_intervention_csv(rows, path) -> None:
    """Intervention sweep as CSV with columns T, T_frac, objective, resilience_lb."""
    write_csv(path, ["T", "T_frac", "objective", "resilience_lb"], rows)
