import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import prodnet as pn
from prodnet.cli import build_parser, main
from prodnet import load_network_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_network(tmp_path, capsys):
    out = tmp_path / "net.json"
    code, stdout, _ = run_cli(
        capsys, "generate", "--arch", "rdag", "--K", "10", "--p", "0.3", "--seed", "4",
        "--out", str(out),
    )
    assert code == 0
    net = load_network_json(out)
    assert net.node_count == 10
    doc = json.loads(stdout)
    assert doc["command"] == "generate"
    assert doc["version"]
    assert doc["spec"]["K"] == 10


def test_generate_matches_the_api(tmp_path, capsys):
    # every --arch writes the bytes save_network_json writes for the API's network
    cases = [
        (["--arch", "rdag", "--K", "12", "--p", "0.3", "--seed", "5"],
         lambda: pn.generate_rdag(12, 0.3, 5)),
        (["--arch", "parallel", "--K", "6", "--m", "3", "--d", "2", "--seed", "5"],
         lambda: pn.generate_parallel(6, 3, 2, 5)),
        (["--arch", "backward-tree", "--m", "2", "--D", "3"],
         lambda: pn.generate_backward_tree(2, 3)),
        (["--arch", "gw-tree", "--dist", "binomial:3,0.5", "--max-depth", "4", "--seed", "5"],
         lambda: pn.generate_gw_tree(pn.BranchingDistribution.binomial(3, 0.5), 4, 5).network),
        (["--arch", "trellis", "--w", "3", "--D", "4", "--p", "0.4", "--seed", "5"],
         lambda: pn.generate_trellis(3, 4, 0.4, 5)),
    ]
    for args, build in cases:
        out, expected = tmp_path / "cli.json", tmp_path / "api.json"
        code, stdout, _ = run_cli(capsys, "generate", *args, "--out", str(out))
        assert code == 0, args
        net = build()
        pn.save_network_json(net, expected)
        assert out.read_bytes() == expected.read_bytes(), args
        doc = json.loads(stdout)
        assert (doc["k"], doc["edges"]) == (net.node_count, net.edge_count)


def test_generate_chain_via_backward_tree(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code, _, _ = run_cli(
        capsys, "generate", "--arch", "backward-tree", "--m", "1", "--D", "8", "--out", str(out)
    )
    assert code == 0
    assert load_network_json(out).node_count == 8


def test_simulate_histogram(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run_cli(capsys, "generate", "--arch", "backward-tree", "--m", "1", "--D", "5",
            "--out", str(net_path))
    hist = tmp_path / "hist.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--net", str(net_path), "--x", "0.3", "--trials", "200",
        "--seed", "1", "--out", str(hist),
    )
    assert code == 0
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "f,count,frequency"
    assert len(lines) == 7  # header + f = 0..5
    assert json.loads(stdout)["mean_failures"] >= 0


def test_resilience_deterministic_bytes(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run_cli(capsys, "generate", "--arch", "backward-tree", "--m", "1", "--D", "8",
            "--out", str(net_path))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (out1, out2):
        code, stdout, _ = run_cli(
            capsys, "resilience", "--net", str(net_path), "--trials", "300",
            "--eps-grid", "0.2,0.5,0.8", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert "auc" in json.loads(stdout)
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "epsilon,r_hat,stderr"


def _cells(row):
    return [repr(float(v)) if isinstance(v, float) else str(v) for v in row]


def test_bounds_subcommands(tmp_path, capsys):
    # every --arch writes one row per bound the API returns, with its values
    eps, n = 0.3, 2
    upper, lower = pn.gw_bounds(0.6, 4, eps, n)
    cases = [
        (["--arch", "rdag", "--K", "100", "--p", "0.1"],
         [("rdag", "tail-majorant", pn.rdag_lb_x(100, 0.1, eps, n), "")]),
        (["--arch", "parallel", "--K", "50", "--m", "2", "--d", "3"],
         [("parallel", r.regime, r.lower, r.upper)
          for r in (pn.parallel_bounds(50, 2, 3, eps, n, scope)
                    for scope in ("complex-only", "all-products"))]),
        # K and m = 10**400, beyond float range
        (["--arch", "rdag", "--K", str(10**400), "--p", "0.1"],
         [("rdag", "tail-majorant", 0.0, "")]),
        (["--arch", "parallel", "--K", str(10**400), "--m", str(10**400), "--d", "3"],
         [("parallel", r.regime, r.lower, r.upper)
          for r in (pn.parallel_bounds(10**400, 10**400, 3, eps, n, scope)
                    for scope in ("complex-only", "all-products"))]),
        (["--arch", "backward-tree", "--m", "2", "--D", "4"],
         [("backward-tree", r.regime, r.lower, r.upper) for r in [pn.tree_bounds(2, 4, eps, n)]]),
        # K = 2**2000 - 1 products, beyond float range
        (["--arch", "backward-tree", "--m", "2", "--D", "2000"],
         [("backward-tree", r.regime, r.lower, r.upper) for r in [pn.tree_bounds(2, 2000, eps, n)]]),
        (["--arch", "gw", "--mu", "0.6", "--tau", "4"],
         [("gw", "per-extinction-depth", lower, upper)]),
        (["--arch", "trellis", "--w", "3", "--D", "4", "--p", "0.2"],
         [("trellis", r.regime, r.lower, r.upper)
          for r in [pn.trellis_bounds(3, 4, 0.2, eps, n)]]),
    ]
    for args, rows in cases:
        out = tmp_path / "b.csv"
        code, _, _ = run_cli(
            capsys, "bounds", *args, "--epsilon", str(eps), "--n", str(n), "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "architecture,regime,lower,upper"
        assert [line.split(",") for line in lines[1:]] == [_cells(row) for row in rows], args


def test_supplier_count_beyond_float_range(tmp_path, capsys):
    # n = 10**400: each subcommand writes the limit of its formulas, as the API gives it
    huge, eps = 10**400, 0.3
    tree, trellis = pn.tree_bounds(2, 3, eps, huge), pn.trellis_bounds(3, 4, 0.2, eps, huge)
    for args, row in [
        (["--arch", "rdag", "--K", "100", "--p", "0.1"],
         ("rdag", "tail-majorant", pn.rdag_lb_x(100, 0.1, eps, huge), "")),
        (["--arch", "backward-tree", "--m", "2", "--D", "3"],
         ("backward-tree", tree.regime, tree.lower, tree.upper)),
        (["--arch", "trellis", "--w", "3", "--D", "4", "--p", "0.2"],
         ("trellis", trellis.regime, trellis.lower, trellis.upper)),
        (["--arch", "gw", "--mu", "0.6", "--tau", "4"],
         ("gw", "per-extinction-depth", *pn.gw_bounds(0.6, 4, eps, huge)[::-1])),
    ]:
        out = tmp_path / "b.csv"
        code, _, _ = run_cli(capsys, "bounds", *args, "--epsilon", str(eps), "--n", str(huge), "--out", str(out))
        assert code == 0, args
        assert out.read_text().splitlines()[1].split(",") == _cells(row), args
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n2,3\n1,3\n", encoding="utf-8")
    for command, flags, column, value in [
        ("beta", ["--x", "0.5", "--y", "0.3"], 1, "0.0"),
        ("beta", ["--x", "0.5", "--y", "0.3", "--method", "katz"], 1, "0.0"),
        ("intervene", [], 2, "0.0"),  # the objective x^n * mass
        ("intervene", [], 3, "1.0"),  # the bound (eps / mass)^(1/n)
    ]:
        out = tmp_path / "o.csv"
        code, _, stderr = run_cli(
            capsys, command, "--net", str(net_path), *flags, "--n", str(huge), "--out", str(out)
        )
        assert code == 0, (command, stderr)
        assert {line.split(",")[column] for line in out.read_text().splitlines()[1:]} == {value}


def test_tree_and_gw_sizes_beyond_float_range(tmp_path, capsys):
    # a tree past the node cap is refused from D log m, without a traceback
    code, stdout, stderr = run_cli(
        capsys, "generate", "--arch", "backward-tree", "--m", "2", "--D", "100000",
        "--out", str(tmp_path / "t.json"),
    )
    assert (code, stdout) == (2, "") and "Traceback" not in stderr
    assert stderr == f"prodnet: a complete 2-ary tree of depth 100000 exceeds the limit of {pn.network.MAX_NODES} products\n"
    # bounds at D = 10**12 never build m**D, and a supercritical tau = 10**400 gives the limit 0
    out = tmp_path / "b.csv"
    started = time.monotonic()
    code, _, _ = run_cli(
        capsys, "bounds", "--arch", "backward-tree", "--m", "2", "--D", str(10**12),
        "--epsilon", "0.3", "--out", str(out),
    )
    assert code == 0 and time.monotonic() - started < 1.0
    assert out.read_text().splitlines()[1].split(",")[:3] == ["backward-tree", "fanout>=2", "0.0"]
    code, _, _ = run_cli(
        capsys, "bounds", "--arch", "gw", "--mu", "10", "--tau", str(10**400),
        "--epsilon", "0.05", "--out", str(out),
    )
    assert code == 0
    assert out.read_text().splitlines()[1] == "gw,per-extinction-depth,0.0,0.0"


def test_gw_tree_dist_beyond_int64_exit_code(tmp_path, capsys):
    for spec, limit in (
        ("point:10000000000000000000", "at most 9223372036854775807"),
        ("binomial:10000000000000000000,0.1", "at most 9223372036854775807"),
        ("poisson:1e19", "in [0, 9.2e18]"),
    ):
        code, _, stderr = run_cli(
            capsys, "generate", "--arch", "gw-tree", "--dist", spec, "--max-depth", "3",
            "--seed", "1", "--out", str(tmp_path / "net.json"),
        )
        assert code == 2
        assert stderr.startswith(f"prodnet: bad --dist value {spec!r}") and limit in stderr


def test_beta_ranking_csv(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run_cli(capsys, "generate", "--arch", "backward-tree", "--m", "1", "--D", "4",
            "--out", str(net_path))
    out = tmp_path / "beta.csv"
    code, _, _ = run_cli(
        capsys, "beta", "--net", str(net_path), "--x", "0.2", "--y", "0.5", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "product,beta,rank"
    assert len(lines) == 5
    # supply flows 4 -> 3 -> 2 -> 1 in the backward tree: the root piles up risk
    assert lines[1].startswith("1,")


def test_intervene_monotone_lower_bound(tmp_path, capsys):
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n2,3\n1,3\n", encoding="utf-8")
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "intervene", "--net", str(net_path), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "T,T_frac,objective,resilience_lb"
    assert len(lines) == 5  # header + T = 0..3
    lbs = [float(line.split(",")[3]) for line in lines[1:]]
    objs = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))


def test_intervene_rows_equal_optimal_protection(tmp_path, capsys, monkeypatch):
    # one reverse-Katz solve serves the whole sweep, and every cell of row T
    # is exactly what the public API gives for the optimal plan of budget T;
    # the star's reverse-Katz scores tie on its five consumers
    import prodnet.interventions as itv
    from prodnet import generate_rdag, optimal_protection, post_intervention_resilience_lb

    solve = itv._katz_solve
    for net in (generate_rdag(40, 0.1, seed=3), pn.ProductionNetwork(6, [(1, i) for i in range(2, 7)])):
        net_path = tmp_path / "net.json"
        pn.save_network_json(net, net_path)
        solves = []

        def counted(*args, **kwargs):
            solves.append(kwargs.get("reverse", False))
            return solve(*args, **kwargs)

        monkeypatch.setattr(itv, "_katz_solve", counted)
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            capsys, "intervene", "--net", str(net_path), "--x", "0.3", "--n", "2",
            "--epsilon", "0.3", "--out", str(out),
        )
        assert code == 0
        assert solves == [True]
        y = json.loads(stdout)["y"]
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(net.node_count + 1))
        for r in rows:
            T = int(r[0])
            plan = optimal_protection(net, T, y)
            expected = [T / net.node_count, plan.objective(0.3, 2), post_intervention_resilience_lb(net, plan, 0.3, 2)]
            assert [float(c) for c in r[1:]] == expected


def test_intervene_builds_no_plan_per_budget(tmp_path, capsys, monkeypatch):
    # the sweep reads every row off one ranked pass: no K-entry mask per budget
    import prodnet.interventions as itv

    built = []

    class Counted(itv.InterventionPlan):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(itv, "InterventionPlan", Counted)
    net_path = tmp_path / "net.json"
    pn.save_network_json(pn.generate_rdag(2000, 0.002, seed=1), net_path)
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "intervene", "--net", str(net_path), "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 2002
    assert len(built) <= 1


def test_io_table_ingestion(tmp_path, capsys):
    table = tmp_path / "econ.csv"
    table.write_text(",A,B,C\nA,0,3,1\nB,0,0,2\nC,5,0,0\n", encoding="utf-8")
    out = tmp_path / "hist.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--net", str(table), "--net-format", "io-table",
        "--x", "0.2", "--trials", "100", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    assert json.loads(stdout)["k"] == 3


def test_io_table_bom_and_crlf_give_the_lf_run(tmp_path, capsys):
    lf = ",A,B,C\nA,0,3,1\nB,0,0,2\nC,5,0,0\n"
    table, out = tmp_path / "econ.csv", tmp_path / "hist.csv"
    runs = []
    for text in (lf, "\ufeff" + lf.replace("\n", "\r\n")):
        table.write_bytes(text.encode())
        code, stdout, _ = run_cli(
            capsys, "simulate", "--net", str(table), "--net-format", "io-table",
            "--x", "0.2", "--trials", "100", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        envelope = json.loads(stdout)
        del envelope["wall_time_s"]
        runs.append((envelope, out.read_bytes()))
    assert runs[0] == runs[1]


def test_io_table_not_utf8_past_first_block_exit_code(tmp_path, capsys):
    k = 400
    net_path = tmp_path / "wide.csv"
    net_path.write_bytes("\n".join([",".join(["s"] + ["0"] * k)] * (k + 1)).encode()[:-1] + b"\xff\n")
    assert net_path.stat().st_size > pn.fileio.IO_TABLE_BLOCK
    code, _, stderr = run_cli(
        capsys, "simulate", "--net", str(net_path), "--net-format", "io-table", "--x", "0.2",
        "--out", str(tmp_path / "h.csv"),
    )
    assert code == 2
    assert stderr.startswith("prodnet: ") and "unreadable CSV" in stderr


def test_io_table_negative_threshold_exit_code(tmp_path, capsys):
    net_path = tmp_path / "io.csv"
    net_path.write_text(",A,B\nA,0,1\nB,0,0\n", encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys, "simulate", "--net", str(net_path), "--net-format", "io-table", "--io-threshold", "-1",
        "--x", "0.2", "--out", str(tmp_path / "h.csv"),
    )
    assert code == 2 and stdout == ""
    assert stderr.startswith("prodnet: ") and "threshold must lie in [0, inf], got -1.0" in stderr
    assert "Traceback" not in stderr


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_validation_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, stderr = run_cli(
        capsys, "simulate", "--net", str(missing), "--x", "0.2", "--out", str(tmp_path / "h.csv")
    )
    assert code == 2


def test_precondition_exit_code(tmp_path, capsys):
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n1,3\n", encoding="utf-8")  # Delta = 2
    code, _, stderr = run_cli(
        capsys, "beta", "--net", str(net_path), "--x", "0.2", "--y", "0.9",
        "--method", "katz", "--out", str(tmp_path / "b.csv"),
    )
    assert code == 3
    assert "precondition" in stderr


def test_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    def stalls(*args, **kwargs):
        raise pn.ConvergenceError("no fixed point within 2 iterations", residual=0.1)

    monkeypatch.setattr("prodnet.cli.fixed_point_beta", stalls)
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n2,1\n", encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys, "beta", "--net", str(net_path), "--x", "0.2", "--y", "0.5",
        "--method", "fixed-point", "--out", str(tmp_path / "b.csv"),
    )
    assert code == 4
    assert "prodnet: failed to converge:" in stderr
    assert stdout == ""


def test_gw_unsupported_regime_exit_code(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "bounds", "--arch", "gw", "--mu", "2.0", "--tau", "3",
        "--epsilon", "0.3", "--out", str(tmp_path / "b.csv"),
    )
    assert code == 3


def test_missing_arch_params_exit_code(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "bounds", "--arch", "rdag", "--epsilon", "0.3", "--out", str(tmp_path / "b.csv")
    )
    assert code == 2
    assert "--K" in stderr or "-K" in stderr
    # every missing flag is named at once, the seed among them
    code, _, stderr = run_cli(
        capsys, "generate", "--arch", "rdag", "--K", "5", "--out", str(tmp_path / "n.json")
    )
    assert code == 2
    assert "--p" in stderr and "--seed" in stderr


def test_parser_is_built_once(tmp_path, capsys):
    build_parser.cache_clear()
    for _ in range(3):
        code, _, _ = run_cli(
            capsys, "bounds", "--arch", "gw", "--mu", "0.6", "--tau", "4", "--epsilon", "0.3",
            "--out", str(tmp_path / "b.csv"),
        )
        assert code == 0
    assert build_parser.cache_info().misses == 1


def test_flags_do_not_leak_between_calls(tmp_path, capsys):
    # the reused parser gives each call only its own flags and their defaults
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n2,3\n1,3\n", encoding="utf-8")
    first, second, fresh = (tmp_path / f"{name}.csv" for name in ("first", "second", "fresh"))
    argv = ["simulate", "--net", str(net_path), "--x", "0.4", "--trials", "300", "--seed", "2"]
    code, stdout, _ = run_cli(capsys, *argv, "--n", "2", "--out", str(first))
    assert code == 0 and json.loads(stdout)["spec"]["n"] == 2
    code, stdout, _ = run_cli(capsys, *argv, "--out", str(second))
    assert code == 0 and "n" not in json.loads(stdout)["spec"]
    src = str(Path(pn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run(
        [sys.executable, "-m", "prodnet.cli", *argv, "--out", str(fresh)],
        check=True, env=env, capture_output=True,
    )
    assert second.read_bytes() == fresh.read_bytes()
    assert second.read_bytes() != first.read_bytes()


@pytest.mark.parametrize(
    "field",
    [
        {"k": "abc"},
        {"edges": [[1]]},
        {"tiers": {"x": 0, "2": 1}},
        {"edges": 5},
        {"k": 2.7, "edges": [[1, 2.9]]},
        {"n": True},
    ],
    ids=["k-not-int", "one-element-edge", "tier-key-not-int", "edges-not-list",
         "fractional-k-and-edge", "n-bool"],
)
def test_malformed_network_json_exit_code(tmp_path, capsys, field):
    doc = {"schema": 1, "k": 2, "n": 1, "edges": [[1, 2]], "tiers": None}
    doc.update(field)
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, stderr = run_cli(
        capsys, "simulate", "--net", str(net_path), "--x", "0.2", "--out", str(tmp_path / "h.csv")
    )
    assert code == 2
    assert "malformed" in stderr


@pytest.mark.parametrize(
    "tiers",
    [{"1": 0, "2": 1, "5": 3}, {"1": -1, "2": 0}],
    ids=["tier-key-above-K", "tier-negative"],
)
def test_network_json_with_bad_tiers_exit_code(tmp_path, capsys, tiers):
    doc = {"schema": 1, "k": 2, "n": 1, "edges": [[1, 2]], "tiers": tiers}
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(doc), encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys, "simulate", "--net", str(net_path), "--x", "0.2", "--out", str(tmp_path / "h.csv")
    )
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"prodnet: {net_path}: malformed network field: tier entry ")


def test_network_json_declared_acyclic_over_a_cycle_exit_code(tmp_path, capsys):
    doc = {"schema": 1, "k": 2, "n": 1, "edges": [[1, 2], [2, 1]], "tiers": None, "acyclic": True}
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(doc), encoding="utf-8")
    code, stdout, stderr = run_cli(
        capsys, "simulate", "--net", str(net_path), "--x", "0.2", "--out", str(tmp_path / "h.csv")
    )
    assert (code, stdout) == (2, "")
    assert stderr == "prodnet: network was declared acyclic but contains a cycle\n"


def test_simulate_reads_an_edge_csv_with_a_byte_order_mark(tmp_path, capsys):
    net_path = tmp_path / "bom.csv"
    net_path.write_bytes(b"\xef\xbb\xbfsource,target\r\n1,2\r\n2,3\r\n")
    code, stdout, _ = run_cli(
        capsys, "simulate", "--net", str(net_path), "--x", "0.2", "--trials", "10",
        "--out", str(tmp_path / "h.csv"),
    )
    assert code == 0
    assert json.loads(stdout)["k"] == 3


def test_oversized_network_json_exit_code(tmp_path, capsys):
    # 48 bytes that claim 10^8 products are refused before anything is sized by K
    net_path = tmp_path / "net.json"
    net_path.write_text('{"schema": 1, "k": 100000000, "n": 1, "edges": []}', encoding="utf-8")
    code, _, stderr = run_cli(
        capsys, "simulate", "--net", str(net_path), "--x", "0.2", "--out", str(tmp_path / "h.csv")
    )
    assert code == 2
    assert "exceeds the limit" in stderr


def test_trials_beyond_int64_exit_code(tmp_path, capsys):
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n", encoding="utf-8")
    code, _, stderr = run_cli(
        capsys, "simulate", "--net", str(net_path), "--x", "0.2", "--trials", str(2**70),
        "--out", str(tmp_path / "h.csv"),
    )
    assert code == 2
    assert "exceed the limit" in stderr


# runs too large for memory, each in a process whose address space is capped
# at 1.5 GB as CI's `ulimit -v 1500000` caps it; uncapped, an allocation that
# overcommit grants could be killed in place of the refusal
TOO_LARGE_FOR_MEMORY = {
    "simulate-supplier-uniforms": (
        ["-m", "prodnet.cli", "simulate", "--net", "rdag.json", "--x", "0.2", "--n", "10000000000",
         "--trials", "5", "--out", "h.csv"],
        "out of memory for 1 trials of 200000000000 uniforms: ",
    ),
    "resilience-supplier-uniforms": (
        ["-m", "prodnet.cli", "resilience", "--net", "rdag.json", "--n", "10000000000", "--out", "r.csv"],
        "out of memory for 1 trials of 200000000000 uniforms: ",
    ),
    "resilience-levels": (
        ["-m", "prodnet.cli", "resilience", "--net", "rdag.json", "--trials", "4000000000", "--out", "r.csv"],
        "out of memory for the survival levels of 4000000000 trials at 19 tolerances: ",
    ),
    "simulate-failure-counts": (
        ["-m", "prodnet.cli", "simulate", "--net", "rdag.json", "--x", "0.2", "--trials", "4000000000",
         "--out", "h.csv"],
        "out of memory for the failure counts of 4000000000 trials: ",
    ),
    "generate-parallel-input-table": (
        ["-m", "prodnet.cli", "generate", "--arch", "parallel", "--K", "5000000", "--m", "5000000",
         "--d", "5000000", "--seed", "1", "--out", "p.json"],
        "out of memory for the 5000000 x 5000000 input table: ",
    ),
    "run_batch-failure-matrix": (
        ["-c", "import prodnet as pn; pn.run_batch(pn.ProductionNetwork(1000, []), pn.PercolationConfig(0.2), "
               "10_000_000, keep_failures=True)"],
        "SizeError: out of memory for the 10000000 x 1000 failure matrix: ",
    ),
}


@pytest.mark.parametrize("argv, message", TOO_LARGE_FOR_MEMORY.values(), ids=TOO_LARGE_FOR_MEMORY.keys())
def test_run_too_large_for_memory_exit_code(tmp_path, argv, message):
    resource = pytest.importorskip("resource")
    limit = 1_500_000 * 1024
    pn.save_network_json(pn.generate_rdag(20, 0.2, 1), tmp_path / "rdag.json")
    src = str(Path(pn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    if argv[0] == "-m":  # the CLI refuses with exit 2 and no traceback; the API raises the SizeError
        assert done.returncode == 2 and "Traceback" not in done.stderr, done.stderr
    assert message in done.stderr, done.stderr


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["generate", "--arch", "backward-tree", "--m", "2", "--D", "3", "--K", "50", "--p", "0.9", "--seed", "4"],
         "--arch backward-tree does not read --K, --p, --seed"),
        (["generate", "--arch", "rdag", "--K", "5", "--p", "0.3", "--seed", "1", "--w", "2"],
         "--arch rdag does not read --w"),
        (["generate", "--arch", "gw-tree", "--dist", "poisson:0.5", "--seed", "1", "--D", "3"],
         "--arch gw-tree does not read --D"),
        (["generate", "--arch", "rdag", "--K", "5", "--p", "0.5", "--seed", "1", "--max-depth", "5"],
         "--arch rdag does not read --max-depth"),
        (["bounds", "--arch", "backward-tree", "--m", "2", "--D", "3", "--epsilon", "0.3", "--K", "100",
          "--mu", "3"],
         "--arch backward-tree does not read --K, --mu"),
        (["bounds", "--arch", "gw", "--mu", "0.6", "--tau", "4", "--epsilon", "0.3", "--p", "0.1"],
         "--arch gw does not read --p"),
    ],
    ids=["generate-tree", "generate-rdag", "generate-gw-tree", "generate-max-depth", "bounds-tree", "bounds-gw"],
)
def test_flags_the_arch_does_not_read_exit_code(tmp_path, capsys, argv, unread):
    # a flag that only another --arch reads is refused, not echoed in the spec beside an output it never shaped
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout, stderr) == (2, "", f"prodnet: {unread}\n")
    assert not out.exists()


def test_max_depth_is_resolved_only_where_it_is_read(tmp_path, capsys):
    # gw-tree reads --max-depth, 1000 when left out, and its record shows
    # the depth it built to; rdag neither reads nor records it
    out, expected = tmp_path / "cli.json", tmp_path / "api.json"
    dist = pn.BranchingDistribution.poisson(0.8)
    code, stdout, _ = run_cli(capsys, "generate", "--arch", "gw-tree", "--dist", "poisson:0.8", "--seed", "3",
                              "--out", str(out))
    assert code == 0 and json.loads(stdout)["spec"]["max_depth"] == 1000
    pn.save_network_json(pn.generate_gw_tree(dist, 1000, 3).network, expected)
    assert out.read_bytes() == expected.read_bytes()
    code, stdout, _ = run_cli(capsys, "generate", "--arch", "rdag", "--K", "5", "--p", "0.5", "--seed", "1",
                              "--out", str(out))
    assert code == 0 and "max_depth" not in json.loads(stdout)["spec"]


def test_negative_seed_exit_code(tmp_path, capsys):
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n", encoding="utf-8")
    code, _, stderr = run_cli(
        capsys, "resilience", "--net", str(net_path), "--trials", "10", "--seed", "-1",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2
    assert "seed" in stderr


def test_non_numeric_eps_grid_exit_code(tmp_path, capsys):
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n", encoding="utf-8")
    code, _, stderr = run_cli(
        capsys, "resilience", "--net", str(net_path), "--eps-grid", "a,b",
        "--trials", "10", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2
    assert "--eps-grid" in stderr


def test_generate_negative_seed_exit_code(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "generate", "--arch", "rdag", "--K", "5", "--p", "0.3", "--seed", "-1",
        "--out", str(tmp_path / "net.json"),
    )
    assert code == 2
    assert "seed" in stderr


@pytest.mark.parametrize(
    "fmt, content",
    [
        ("edge-csv", b"source,target\n\xff,b\n"),
        ("io-table", b",a,b\na,0,\xff\nb,0,0\n"),
        ("json", b'{"schema": 1, "k": \xff}'),
        ("auto", None),
    ],
    ids=["edge-csv-not-utf8", "io-table-not-utf8", "json-not-utf8", "directory"],
)
def test_unreadable_network_exit_code(tmp_path, capsys, fmt, content):
    net_path = tmp_path / "net"
    if content is None:
        net_path.mkdir()
    else:
        net_path.write_bytes(content)
    code, _, stderr = run_cli(
        capsys, "simulate", "--net", str(net_path), "--net-format", fmt, "--x", "0.2",
        "--out", str(tmp_path / "h.csv"),
    )
    assert code == 2
    assert stderr.startswith("prodnet: ")


def test_negative_t_max_exit_code(tmp_path, capsys):
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n", encoding="utf-8")
    code, _, stderr = run_cli(
        capsys, "intervene", "--net", str(net_path), "--t-max", "-1",
        "--out", str(tmp_path / "i.csv"),
    )
    assert code == 2
    assert "--t-max" in stderr


def test_t_max_above_k_exit_code(tmp_path, capsys):
    net_path = tmp_path / "net.csv"
    net_path.write_text("source,target\n1,2\n", encoding="utf-8")  # K = 2
    code, _, stderr = run_cli(
        capsys, "intervene", "--net", str(net_path), "--t-max", "3", "--out", str(tmp_path / "i.csv"),
    )
    assert code == 2
    assert "--t-max 3 exceeds the product count 2" in stderr
