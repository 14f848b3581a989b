import csv
import io
import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodnet import (
    DuplicateEdgeWarning,
    FormatError,
    ParameterError,
    PercolationConfig,
    ProductionNetwork,
    ValidationError,
    generate_parallel,
    load_network_json,
    parse_edge_csv,
    parse_io_table,
    run_batch,
    save_edge_csv,
    save_network_json,
    vulnerability_ranking,
)
from prodnet import fileio
from prodnet.fileio import (
    IO_TABLE_BLOCK,
    NETWORK_JSON_SCHEMA,
    write_beta_csv,
    write_csv,
    write_histogram_csv,
    write_resilience_csv,
)

from oracles import io_table_edges


def test_edge_csv_basic(tmp_path):
    f = tmp_path / "net.csv"
    f.write_text("source,target\n1,2\n", encoding="utf-8")
    net = parse_edge_csv(f)
    assert net.node_count == 2
    assert net.edges == ((1, 2),)


def test_edge_csv_first_appearance_ids(tmp_path):
    f = tmp_path / "net.csv"
    f.write_text("source,target\nwheel,car\nengine,car\nsteel,wheel\n", encoding="utf-8")
    net = parse_edge_csv(f)
    # wheel=1, car=2, engine=3, steel=4
    assert net.node_count == 4
    assert set(net.edges) == {(1, 2), (3, 2), (4, 1)}


def test_edge_csv_duplicate_warns(tmp_path):
    f = tmp_path / "net.csv"
    f.write_text("source,target\na,b\na,b\n", encoding="utf-8")
    with pytest.warns(DuplicateEdgeWarning, match="1 duplicate"):
        net = parse_edge_csv(f)
    assert net.edge_count == 1


def test_edge_csv_self_loop_rejected(tmp_path):
    f = tmp_path / "net.csv"
    f.write_text("source,target\na,a\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        parse_edge_csv(f)


def test_edge_csv_header_required(tmp_path):
    f = tmp_path / "net.csv"
    f.write_text("from,to\n1,2\n", encoding="utf-8")
    with pytest.raises(FormatError):
        parse_edge_csv(f)


def test_edge_csv_malformed_row_has_line_number(tmp_path):
    f = tmp_path / "net.csv"
    f.write_text("source,target\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(FormatError, match=":3"):
        parse_edge_csv(f)


def test_edge_csv_large_node_count(tmp_path):
    # a 626-node assembly chain, the scale of the largest catalog network
    f = tmp_path / "big.csv"
    rows = ["source,target"] + [f"p{i},p{i + 1}" for i in range(1, 626)]
    f.write_text("\n".join(rows) + "\n", encoding="utf-8")
    net = parse_edge_csv(f)
    assert net.node_count == 626
    assert net.edge_count == 625


def test_csv_reader_names_an_undecodable_byte_by_its_file_position(tmp_path):
    rows = b"source,target\n" + b"".join(b"a%d,b%d\n" % (i, i) for i in range(4000))
    head = rows[: rows.rfind(b"\n", 0, 33794) + 1]
    edges = tmp_path / "edges.csv"
    edges.write_bytes(head + b"x" * (33794 - len(head)) + b"\xff,y\n")
    # the text decoder, 8 KB at a time, called this position 1026
    with pytest.raises(FormatError, match=r"byte 0xff in position 33794: invalid start byte$"):
        parse_edge_csv(edges)
    # the quote sends this table to csv.reader
    table = tmp_path / "quoted.csv"
    table.write_bytes(b',"s1",s2\ns1,0,1\n' + b"\n" * 40_000 + b"s2,1,\xff\xfe\n")
    for path, parse in ((edges, parse_edge_csv), (table, parse_io_table)):
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_bytes().decode("utf-8")
        with pytest.raises(FormatError) as err:
            parse(path)
        assert str(err.value) == f"{path}: unreadable CSV: {whole.value}"


def test_edge_csv_with_a_byte_order_mark(tmp_path):
    # spreadsheets' "CSV UTF-8" exports start with one
    f = tmp_path / "net.csv"
    f.write_text("\ufeffSource,Target\r\na,b\r\nb,c\r\n", encoding="utf-8")
    net = parse_edge_csv(f)
    assert net.node_count == 3
    assert net.edges == ((1, 2), (2, 3))


def test_network_json_with_a_byte_order_mark(tmp_path):
    net = ProductionNetwork(3, [(1, 2), (2, 3)], supplier_count=2, tiers={1: 0, 2: 1, 3: 2})
    f = tmp_path / "net.json"
    save_network_json(net, f)
    f.write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
    assert load_network_json(f) == net


# edge CSVs whose line ends, quoted names and bad rows straddle reads of 1, 5
# and 64 bytes, and what reading the whole file with csv.reader gives
_PAIRS = [(2 * i + 1, 2 * i + 2) for i in range(30)]
_EDGE_CSVS = {
    "crlf": (
        "source,target\r\n" + "".join(f"a{i},b{i}\r\n" for i in range(30)) + "c\r\n",
        ":32: expected two columns, got ['c']",
    ),
    "cr-only": ("source,target\r" + "".join(f"a{i},b{i}\r" for i in range(30)) + "a1,a1\r", ":32: self-loop on 'a1'"),
    "quoted-line-ends": (
        'source,target\n"x\r\ny",z\n' + "".join(f"a{i},b{i}\n" for i in range(30)) + ",q\n",
        ":33: empty node name",
    ),
    "no-final-line-end": (
        "source,target\n" + "".join(f"a{i},b{i}\n" for i in range(30)) + 'b3,"a2', tuple(sorted(_PAIRS + [(8, 5)]))
    ),
    "utf8-names": ("source,target\n" + "".join(f"é{i},€{i}\r\n" for i in range(30)), tuple(_PAIRS)),
}


@pytest.mark.parametrize("block", [1, 5, 64, 1 << 16, IO_TABLE_BLOCK])
def test_edge_csv_blocks_cut_at_line_ends(tmp_path, monkeypatch, block):
    monkeypatch.setattr(fileio, "IO_TABLE_BLOCK", block)
    for name, (text, expected) in _EDGE_CSVS.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        try:
            outcome = parse_edge_csv(path).edges
        except (FormatError, ValidationError) as exc:  # the line it names counts csv records
            outcome = str(exc).removeprefix(str(path))
        assert outcome == expected, name


def test_io_table_single_edge(tmp_path):
    f = tmp_path / "io.csv"
    f.write_text(",A,B\nA,0,5\nB,0,0\n", encoding="utf-8")
    net = parse_io_table(f)
    assert net.node_count == 2
    assert net.edges == ((1, 2),)
    assert net.acyclic


def test_io_table_dense_cyclic(tmp_path):
    f = tmp_path / "io.csv"
    f.write_text(",A,B,C\nA,1,2,3\nB,4,5,6\nC,7,8,9\n", encoding="utf-8")
    net = parse_io_table(f)
    assert net.edge_count == 6  # diagonal ignored
    assert not net.acyclic


def test_io_table_threshold(tmp_path):
    f = tmp_path / "io.csv"
    f.write_text(",A,B\nA,0,0.4\nB,0.6,0\n", encoding="utf-8")
    net = parse_io_table(f, threshold=0.5)
    assert net.edges == ((2, 1),)


def test_io_table_non_square(tmp_path):
    f = tmp_path / "io.csv"
    f.write_text(",A,B\nA,0,1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        parse_io_table(f)


def test_io_table_non_numeric_diagonal_ignored(tmp_path):
    f = tmp_path / "io.csv"
    f.write_text(",A,B\nA,n/a,5\nB,1e-3,x\n", encoding="utf-8")
    assert parse_io_table(f).edges == ((1, 2), (2, 1))


def test_io_table_negative_threshold_is_refused(tmp_path):
    # a "0" cell is never an edge: a threshold below 0 is refused, and -0.0 is 0
    f = tmp_path / "io.csv"
    f.write_text(",A,B\nA,0,0\nB,0,0\n", encoding="utf-8")
    for threshold in (-1.0, -1e-300, -math.inf):
        with pytest.raises(ParameterError, match=r"^threshold must lie in \[0, inf\], got -"):
            parse_io_table(f, threshold=threshold)
    assert parse_io_table(f, threshold=-0.0).edges == ()


def test_io_table_non_numeric_cell_is_located(tmp_path):
    f = tmp_path / "io.csv"
    f.write_text(",A,B,C\nA,0,1,2\nB,0,0,abc\nC,1,0,0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="row 2, col 3"):
        parse_io_table(f)


def test_io_table_errors_in_row_order(tmp_path):
    # a ragged row is reported ahead of its own and later cells, after
    # any non-numeric cell of an earlier row
    f = tmp_path / "io.csv"
    f.write_text(",A,B,C\nA,0,1,1\nB,abc,0\nC,x,0,0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="row 2 has 2 cells"):
        parse_io_table(f)
    f.write_text(",A,B,C\nA,0,abc,1\nB,0,0\nC,1,0,0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="row 1, col 2"):
        parse_io_table(f)


def test_json_round_trip(tmp_path):
    net = generate_parallel(5, 2, 3, seed=3)
    path = tmp_path / "net.json"
    save_network_json(net, path)
    loaded = load_network_json(path)
    assert loaded == net
    assert loaded.tiers == net.tiers
    assert loaded.acyclic == net.acyclic


@st.composite
def tiered_networks(draw):
    """Small networks, cyclic or acyclic, with or without tier labels."""
    k = draw(st.integers(1, 7))
    acyclic = draw(st.booleans())
    pairs = [
        (j, i) for j in range(1, k + 1) for i in range(1, k + 1) if j < i or (j > i and not acyclic)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    tiers = draw(st.none() | st.lists(st.integers(0, 5), min_size=k, max_size=k))
    return ProductionNetwork(
        k,
        edges,
        supplier_count=draw(st.integers(1, 4)),
        tiers=None if tiers is None else dict(enumerate(tiers, start=1)),
    )


@settings(max_examples=60, deadline=None)
@given(net=tiered_networks())
def test_json_round_trip_property(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        save_network_json(net, path)
        loaded = load_network_json(path)
    assert loaded == net
    assert loaded.tiers == net.tiers
    assert loaded.acyclic == net.acyclic


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 10**6),
    n=st.integers(1, 10**6),
    edges=st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)), max_size=30),
    tiers=st.none() | st.dictionaries(st.integers(1, 40), st.integers(0, 12), max_size=40),
    acyclic=st.sampled_from([True, False, None]),
)
@example(k=1, n=1, edges=[], tiers=None, acyclic=True)
@example(k=12, n=3, edges=[], tiers={v: v % 4 for v in range(1, 13)}, acyclic=None)
@example(k=12, n=2, edges=[(1, 2), (10, 11), (12, 3)], tiers={v: v // 5 for v in range(1, 13)}, acyclic=False)
@example(k=2, n=1, edges=[(1, 2)], tiers={}, acyclic=None)
def test_json_writer_matches_the_indented_encoder(k, n, edges, tiers, acyclic):
    # save_network_json reads only these fields, so a stand-in can carry
    # what no valid network has (acyclic null, arbitrary ids)
    src, dst = (np.array([e[side] - 1 for e in edges], dtype=np.int64) for side in (0, 1))
    net = SimpleNamespace(
        node_count=k, supplier_count=n, tiers=tiers, acyclic=acyclic, edge_arrays=lambda: (src, dst)
    )
    doc = {
        "schema": NETWORK_JSON_SCHEMA,
        "k": k,
        "n": n,
        "edges": [list(e) for e in edges],
        "tiers": None if tiers is None else {str(v): t for v, t in tiers.items()},
        "acyclic": acyclic,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        save_network_json(net, path)
        assert path.read_bytes() == (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def test_json_schema_checked(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"k": 2, "n": 1, "edges": []}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_network_json(path)


def test_edge_csv_round_trip_normalizes(tmp_path):
    # ids survive when they already follow first-appearance order
    net = ProductionNetwork(3, [(1, 2), (2, 3)])
    path = tmp_path / "net.csv"
    save_edge_csv(net, path)
    assert parse_edge_csv(path) == net
    # otherwise the reparse renumbers but preserves the structure
    scrambled = ProductionNetwork(4, [(1, 2), (1, 4), (2, 3)])
    save_edge_csv(scrambled, path)
    again = parse_edge_csv(path)
    assert again.node_count == 4 and again.edge_count == 3
    assert set(again.edges) == {(1, 2), (1, 3), (2, 4)}  # first-appearance ids
    assert sorted(again.out_degree(v) for v in range(1, 5)) == sorted(
        scrambled.out_degree(v) for v in range(1, 5)
    )


def test_write_csv_deterministic_bytes(tmp_path):
    rows = [(1, 0.1 + 0.2, "x"), (2, 1e-17, "y")]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["i", "v", "s"], rows)
    write_csv(b, ["i", "v", "s"], rows)
    assert a.read_bytes() == b.read_bytes()
    assert b"0.30000000000000004" in a.read_bytes()  # repr round-trip form


def _per_cell_csv(path, header, rows):
    """The former write_csv: every float cell, numpy's too, widened and written by repr."""

    def fmt(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def test_csv_writers_keep_the_per_cell_bytes(tmp_path):
    inf, nan = float("inf"), float("nan")
    wide = [0.1 + 0.2, 1e-17, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16,
            9999999999999998.0, 1e-5, 1e-4, 123456.789, 0.0, -0.0, inf, nan]
    narrow = [0.1, 1e-38, 1e-45, 3.4e38, 1e16, 1e-5, 1e-4, 123456.789, 16777217.0, 2.5, 0.0, -0.0, inf, nan]
    columns = [
        np.array(wide),
        np.array(narrow, dtype=np.float32),  # float32's own str is shorter than the old repr
        np.array([0, 1, -7, 2**62, -(2**63), 10**18, 3, 5, 8, 13, 21, 34, 55, 89], dtype=np.int64),
        np.arange(14) % 3 == 0,
    ]
    fractions = [0.1 + 0.2, 1e-17, 5e-324, 1e-5, 1e-4, 0.0, 1 / 3, 0.999999, 1.0, 2.5e-7]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"

    def same(write, header, old_rows):
        write(new)
        _per_cell_csv(old, header, old_rows)
        assert new.read_bytes() == old.read_bytes()

    header = ["f64", "f32", "i64", "bool", "text"]
    numpy_rows = list(zip(*columns, ["a", "b,c", 'q"', "", "é"] * 3))
    python_rows = list(zip(*(c.tolist() for c in columns), ["a", "b,c", 'q"', "", "é"] * 3))
    same(lambda p: write_csv(p, header, python_rows), header, numpy_rows)
    for values in columns[:2]:
        pmf = np.array(fractions, dtype=values.dtype)
        same(
            lambda p: write_histogram_csv(pmf, 1000, p),
            ["f", "count", "frequency"],
            [(f, int(round(float(v) * 1000)), v) for f, v in enumerate(pmf)],
        )
        curve = SimpleNamespace(epsilon_grid=values, r_hat=values[::-1], stderr=values)
        same(
            lambda p: write_resilience_csv(curve, p),
            ["epsilon", "r_hat", "stderr"],
            list(zip(values, values[::-1], values)),
        )
        ranking = list(zip(columns[2], values))
        same(
            lambda p: write_beta_csv(ranking, p),
            ["product", "beta", "rank"],
            [(pid, beta, rank) for rank, (pid, beta) in enumerate(ranking, start=1)],
        )


def test_beta_csv_join_keeps_csv_writer_bytes(tmp_path):
    # the rows are joined as text; each file must equal csv.writer's through write_csv
    values = [0.0, 1.0, 5e-324, 1e-17, 0.1 + 0.2, 1 / 3, 1 / 3, 0.5, 0.5]  # ties included
    rankings = [
        list(zip(range(1, 10), values)),
        list(zip(np.arange(1, 10), np.array(values))),  # numpy ids and float64 scalars
        list(zip(range(9, 0, -1), np.array(values, dtype=np.float32))),
        vulnerability_ranking(ProductionNetwork(4, [(1, 2), (1, 3), (1, 4)]), 0.2, 0.3),  # tied betas
        [],
    ]
    for ranking in rankings:
        write_beta_csv(ranking, tmp_path / "new.csv")
        rows = [(pid, float(beta), rank) for rank, (pid, beta) in enumerate(ranking, start=1)]
        write_csv(tmp_path / "old.csv", ["product", "beta", "rank"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), ranking


def test_histogram_rows_in_runs_keep_write_csv_bytes(tmp_path):
    # zero rows are joined a run at a time; every file must equal
    # write_csv's, whose counts round half to even as round() does
    def same(pmf, trials):
        write_histogram_csv(pmf, trials, tmp_path / "new.csv")
        rows = [(f, round(p * trials), p) for f, p in enumerate(np.asarray(pmf, dtype=np.float64).tolist())]
        write_csv(tmp_path / "old.csv", ["f", "count", "frequency"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), (pmf, trials)

    rng = np.random.default_rng(5)
    for _ in range(200):
        k, trials = int(rng.integers(0, 3000)), int(rng.integers(1, 500))
        counts = np.bincount(rng.integers(0, k + 1, int(rng.integers(1, 40))), minlength=k + 1)
        same(counts / counts.sum(), trials)
    same(np.array([0.0, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0]), 2)  # zero runs at both ends and inside
    same(np.array([0.25, 0.0, 0.0, 0.75]), 4)  # nonzero at both ends
    same(np.array([0.0]), 10)
    same(np.array([1.0 - 1e-9, 1e-9, 0.0]), 100)  # a nonzero entry whose count rounds to 0
    same(np.array([0.0, -0.0, 0.0]), 3)  # -0.0 is written as itself
    same(np.array([0.5, 0.0, 0.25, 0.25], dtype=np.float32), 7)
    one = ProductionNetwork(1, [])
    same(run_batch(one, PercolationConfig(x=0.3, seed=1), 100).pmf, 100)  # a one-product network's two rows


@pytest.mark.parametrize(
    "field",
    [
        {"k": "abc"},
        {"edges": [[1]]},
        {"tiers": {"x": 0, "2": 1}},
        {"edges": 5},
        {"k": 2.7, "edges": [[1, 2.9]]},
        {"n": True},
        {"tiers": {"1": 0.5, "2": 1}},
    ],
    ids=["k-not-int", "one-element-edge", "tier-key-not-int", "edges-not-list",
         "fractional-k-and-edge", "n-bool", "fractional-tier"],
)
def test_json_malformed_field_is_format_error(tmp_path, field):
    doc = {"schema": 1, "k": 2, "n": 1, "edges": [[1, 2]], "tiers": None}
    doc.update(field)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FormatError):
        load_network_json(path)


# cells the byte scan must read exactly as csv.reader does: literal zeros,
# zeros and numbers it must convert, then junk and blanks
_IO_CELLS = ["0"] * 8 + [
    " 0", "0.0", "-0", "0 ", " 0 ", "00", "+1", "1_0", "1", "0.5", "2e-3", "-1", "-0.25", "inf", "nan",
]
_IO_JUNK = ["abc", "", "  ", "1,5", '"0"']
# rows that str.strip blanks, some only through Unicode whitespace
_IO_BLANKS = ["", "   ", " , ,", "\xa0", "\xa0, ", "\x1c", " ,\x1c, "]


@st.composite
def io_table_texts(draw):
    """CSV text of a labeled table, square or not, with ragged, blank and quoted rows.

    Line ends are LF, CR or CRLF, mixed within a file; the text may start
    with a UTF-8 BOM and lack a final line end.  A plain table has no cell
    that needs quoting, so unless every cell is quoted it reaches the byte
    scan; its labels may be non-ASCII.
    """
    k = draw(st.integers(0, 6))
    plain = draw(st.booleans())
    labels = st.text(st.sampled_from("ab0 é€\xa0" if plain else 'ab ,"\n'), min_size=1, max_size=4)
    junk = _IO_JUNK[:3] if plain else _IO_JUNK

    def cell():
        pick = draw(st.integers(0, 19))
        if pick == 0:
            return draw(st.sampled_from(junk))
        return repr(draw(st.floats(-2, 2))) if pick < 5 else draw(st.sampled_from(_IO_CELLS))

    lines = [[draw(labels) for _ in range(k + 1)]]
    for _ in range(k + draw(st.sampled_from([0] * 6 + [-1, 1]))):
        width = max(k + draw(st.sampled_from([0] * 8 + [-1, 1])), 0)
        lines.append([draw(labels)] + [cell() for _ in range(width)])
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL] * 3 + [csv.QUOTE_ALL]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=1, max_size=3, unique=True))
    rows = []
    for line in lines:
        buffer = io.StringIO()
        csv.writer(buffer, quoting=quoting, lineterminator=draw(st.sampled_from(ends))).writerow(line)
        rows.append(buffer.getvalue())
    for _ in range(draw(st.integers(0, 3))):  # blank and whitespace-only rows
        blank = draw(st.sampled_from(_IO_BLANKS)) + draw(st.sampled_from(ends))
        rows.insert(draw(st.integers(0, len(rows))), blank)
    text = "".join(rows)
    if draw(st.integers(0, 3)) == 0:
        text = text.rstrip("\r\n")  # no final line end
    return ("\ufeff" if draw(st.integers(0, 3)) == 0 else "") + text


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _parsed(path, threshold=0.0):
    net = parse_io_table(path, threshold=threshold)
    return net.node_count, net.edges


@settings(max_examples=500, deadline=None)
@given(text=io_table_texts(), threshold=st.sampled_from([0.0, -0.0, 0.5, 1e-9]))
def test_io_table_matches_row_wise_parser(text, threshold):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "io.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(lambda: _parsed(path, threshold)) == _outcome(lambda: io_table_edges(path, threshold))


def _block_tables() -> dict:
    """3 x 3 tables whose rows, line ends and characters straddle reads of 1, 5 and 64 bytes.

    Row A's label is padded so that the text after it starts at byte 320 =
    5 * 64, where a read of each of those sizes ends.
    """
    head, rows = ",A,B,é\n", "B,2.5,0,0\né,0,0.25,0\n"

    def padded(label_end: str, rest: str, line_end: str = "\n", tail: str = rows) -> str:
        pad = 320 - len(head.encode()) - len(label_end.encode())
        return head + "x" * pad + label_end + rest + line_end + tail.replace("\n", line_end)

    return {
        "row-longer-than-block": head + "x" * 300 + ",0,1.5,0\n" + rows,
        "cell-across-cut": padded(",0,1", ".5,0"),
        "zero-across-cut": padded(",0,1.5,", "0"),
        "crlf-across-cut": padded(",0,1.5,0\r", "", "\n"),
        "cr-only": padded(",0,1.5,0", "", "\r"),
        "utf8-label-across-cut": padded("€", ",0,1.5,0"),  # € is bytes 318-320
        "utf8-label-after-cut": padded(",0,1.5,0\n", "é,0,0,0", tail="é,0,0.25,0\n"),
        "zero-label-after-cut": padded(",0,1.5,0\n", "0,2.5,0,0", tail="0,0,0.25,0\n"),
        "non-numeric-across-cut": padded(",0,a", "bc,0"),
        "ragged-after-cut": padded(",0,1.5", ""),
    }


@pytest.mark.parametrize("block", [1, 5, 64, 1 << 16, IO_TABLE_BLOCK])
def test_io_table_blocks_cut_at_line_ends(tmp_path, monkeypatch, block):
    monkeypatch.setattr(fileio, "IO_TABLE_BLOCK", block)
    for name, text in _block_tables().items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        for threshold in (0.0, 0.5):
            expected = _outcome(lambda: io_table_edges(path, threshold))
            assert _outcome(lambda: _parsed(path, threshold)) == expected, name
    # past the first real block, a byte that is not UTF-8 in the last row is
    # named by its position in the file, as decoding the whole file names it
    k = 360
    lines = ["," + ",".join(f"s{c}" for c in range(k))]
    lines += [f"s{r}," + ",".join("0.5" if (r + c) % 7 == 0 else "0" for c in range(k)) for r in range(k)]
    path = tmp_path / "wide.csv"
    path.write_bytes("\n".join(lines)[:-1].encode() + b"\xff\n")  # in place of the last "0"
    assert path.stat().st_size > IO_TABLE_BLOCK
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_bytes().decode("utf-8")
    with pytest.raises(FormatError) as err:
        parse_io_table(path)
    assert str(err.value) == f"{path}: unreadable CSV: {whole.value}"


def test_io_table_cell_over_the_csv_field_limit(tmp_path):
    # csv.reader refuses a cell longer than its field limit; the byte scan hands such a file to it
    f = tmp_path / "io.csv"
    f.write_text(f",A,B\nA,0,{'1' * csv.field_size_limit()}1\nB,0,0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="unreadable CSV: field larger than field limit"):
        parse_io_table(f)


def test_io_table_quoted_past_one_csv_chunk(tmp_path):
    # csv.reader's rows reach the reducer 256 at a time; 300 rows fill one chunk and start another
    k = 300
    labels = ['"s0, Inc"'] + [f"s{c}" for c in range(1, k)]
    lines = ["," + ",".join(labels)]
    lines += [labels[r] + "," + ",".join("2" if (3 * r + c) % 7 == 0 else "0" for c in range(k)) for r in range(k)]
    path = tmp_path / "io.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for threshold in (0.0, 0.5):
        assert _parsed(path, threshold) == io_table_edges(path, threshold)


def test_io_table_quoted_zero_and_spaced_zero(tmp_path):
    # '"0"' unquotes to the literal 0; ' 0' and '-0' convert to zero
    f = tmp_path / "io.csv"
    f.write_text(',"A, Inc",B,C\n"A, Inc","0", 0,-0\nB,0,0,0.0\nC,1,0,0\n', encoding="utf-8")
    assert parse_io_table(f).edges == ((3, 1),)
    assert parse_io_table(f, threshold=0.5).edges == ((3, 1),)


def test_io_table_line_ends_at_scale(tmp_path):
    # one table past several default-size blocks, written with each line end:
    # rows of "0" runs broken by every other kind of cell, a non-ASCII label
    k = 400
    rng = np.random.default_rng(24)
    kinds = ["00", "0.0", "-0", " 0", "1e-3", "-2.5"]
    rows = [[""] + ["é€"] + [f"s{c}" for c in range(1, k)]]
    for r in range(k):
        cells = ["0"] * k
        for c in range(r // 2, r // 2 + k // 2):  # a band of mixed cells; the rest of the row is a "0" run
            pick = int(rng.integers(2 * len(kinds)))
            cells[c] = kinds[pick] if pick < len(kinds) else repr(float(rng.random()))
        rows.append([rows[0][r + 1]] + cells)
    parsed = []
    for end in ("\r\n", "\n", "\r"):
        path = tmp_path / f"io{len(parsed)}.csv"
        path.write_bytes("".join(",".join(row) + end for row in rows).encode())
        assert path.stat().st_size > 3 * IO_TABLE_BLOCK
        parsed.append([_parsed(path, threshold) for threshold in (0.0, 0.5)])
        assert parsed[-1] == [io_table_edges(path, threshold) for threshold in (0.0, 0.5)]
    assert parsed[0] == parsed[1] == parsed[2]
    assert all(len(edges) > 0 for _, edges in parsed[0])


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=12),
    dup=st.integers(0, 11),
)
def test_edge_csv_dedupes_like_a_set(edges, dup):
    rows = [(f"n{j}", f"n{i}") for j, i in edges if j != i]
    if not rows:
        return
    rows.append(rows[dup % len(rows)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.csv"
        path.write_text("source,target\n" + "".join(f"{a},{b}\n" for a, b in rows), encoding="utf-8")
        with pytest.warns(DuplicateEdgeWarning, match=f"dropped {len(rows) - len(set(rows))} "):
            net = parse_edge_csv(path)
    ids = {}
    for name in (n for row in rows for n in row):
        ids.setdefault(name, len(ids) + 1)
    assert net.node_count == len(ids)
    assert net.edges == tuple(sorted({(ids[a], ids[b]) for a, b in rows}))


def test_json_edges_refused_as_before(tmp_path):
    # the edges go to ProductionNetwork as they are, so a float or a string
    # id is refused as it is there, not cast
    path = tmp_path / "net.json"
    for edges, ok in (
        ([[1, 2]], True),
        ([[1.0, 2]], False),
        ([[True, 2]], False),
        ([[1, 2], [2]], False),
        ([[1, 2, 3]], False),
        ([[]], False),
        ([[1, "2"]], False),
        ([[1, 2**70]], False),
        ([], True),
    ):
        path.write_text(json.dumps({"schema": 1, "k": 2, "n": 1, "edges": edges}), encoding="utf-8")
        if ok:
            assert load_network_json(path).edge_count == len(edges)
        else:
            with pytest.raises((FormatError, ValidationError)):
                load_network_json(path)
