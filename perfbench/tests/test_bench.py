"""Self-tests of the benchmark: span arithmetic, binding coverage, oracle.

    python3 -m pytest perfbench/tests -q
"""

import importlib.util
import io
import json
import math
import os
import sys
import threading
import types
from contextlib import redirect_stdout

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import oracle  # noqa: E402
import run as bench_run  # noqa: E402
import stripldp  # noqa: E402
import stripldp.cli  # noqa: E402
from tracing import Tracer, self_times, union_length  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Op, Workload, d2_curve_grid, d2_iid_doc, p075_doc)


def span(id_, parent, start, end, inner=0.0):
    return {"id": id_, "parent": parent, "start": start, "end": end, "inner": inner}


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def test_union_length_merges_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert union_length([], 0, 10) == 0


def test_self_times_one_thread_tree():
    spans = [
        span(1, None, 0.0, 10.0, inner=0.5),  # 0.5 s in aggregated hot calls
        span(2, 1, 1.0, 3.0),
        span(3, 1, 4.0, 6.0),
        span(4, 2, 1.5, 2.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 5.5, 2: 1.5, 3: 2.0, 4: 0.5})


def test_self_times_two_threads_count_overlap_once():
    # children 2 and 3 run in two pool threads and overlap on [3, 5]
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 5.0),
        span(3, 1, 3.0, 8.0),
        span(4, 3, 3.0, 4.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 4.0, 3: 4.0, 4: 1.0})


# ---------------------------------------------------------------------------
# tracer against the real program
# ---------------------------------------------------------------------------


def write_spec(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_wrapper_reaches_lmgf_imported_binding(tmp_path):
    original = stripldp.lmgf.solve_phi_window
    spec = write_spec(tmp_path, "d2", d2_iid_doc(0))
    with Tracer(stripldp) as tracer:
        assert stripldp.lmgf.solve_phi_window is not original
        assert stripldp.lmgf.solve_phi_window.__wrapped__ is original
        with redirect_stdout(io.StringIO()):
            assert stripldp.cli.main(["analyze", "--spec", spec, "--levels", "50"]) == 0
    assert stripldp.lmgf.solve_phi_window is original
    totals = tracer.totals()
    assert totals["phi.solve_phi_window"]["calls"] > 0
    assert totals["lmgf.analyze_environment"]["calls"] == 1
    assert totals["cli.main"]["calls"] == 1
    # in one thread the self times add up to the wall time of the top call
    wall = totals["cli.main"]["s"]
    assert sum(r["self_s"] for r in totals.values()) == pytest.approx(wall, rel=0.05)


def test_pool_thread_spans_hang_under_the_main_thread_span():
    spec = stripldp.env.homogeneous_d1_spec(0.75, kappa=0.25)
    with Tracer(stripldp) as tracer:
        # looked up after install, as the CLI does
        stripldp.rates.hitting_rate_curve(spec, [1.5, 3.0], threads=2)
    spans = tracer.spans()
    by_id = {s["id"]: s for s in spans}
    curve = [s for s in spans if s["name"] == "rates.hitting_rate_curve"]
    points = [s for s in spans if s["name"] == "rates.legendre_point"]
    assert len(curve) == 1 and len(points) == 2
    assert {by_id[p["parent"]]["name"] for p in points} == {"rates.hitting_rate_curve"}
    main = threading.main_thread().ident
    assert all(p["thread"] != main for p in points)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_oracle_known_values():
    p = 0.75
    assert oracle.lambda_crit(p) == pytest.approx(-0.5 * math.log(0.75), abs=1e-15)
    assert oracle.lambda_crit(p) == pytest.approx(0.14384103622589045, abs=1e-15)
    assert oracle.hitting_rate(p, 1.0) == pytest.approx(-math.log(0.75), abs=1e-15)
    assert oracle.hitting_rate(p, 2.0) == pytest.approx(0.0, abs=1e-12)  # t0 = 1/(p-q)
    assert oracle.speed_rate(p, 0.5) == pytest.approx(0.0, abs=1e-15)  # v = p - q
    assert oracle.speed_rate(p, 0.0) == pytest.approx(oracle.lambda_crit(p), abs=1e-15)
    assert oracle.speed_rate(p, 1.0) == pytest.approx(-math.log(p), abs=1e-15)
    assert oracle.speed_rate(p, -1.0) == pytest.approx(-math.log(1 - p), abs=1e-15)


def test_oracle_legendre_matches_brute_force_and_cramer():
    p = 0.75
    lams = np.linspace(-20.0, oracle.lambda_crit(p), 200001)
    log_phis = [oracle.log_phi(p, lam) for lam in lams]
    for t in (1.5, 3.0, 6.0):
        brute = max(lam * t - lp for lam, lp in zip(lams, log_phis))
        assert oracle.hitting_rate(p, t) == pytest.approx(brute, abs=1e-6)
        # I(x) = x J(1/x) for x > 0
        x = 1.0 / t
        assert oracle.speed_rate(p, x) == pytest.approx(x * oracle.hitting_rate(p, t), abs=1e-12)


# ---------------------------------------------------------------------------
# workloads and gate
# ---------------------------------------------------------------------------


def test_seed_zero_d2_spec_is_the_roadmap_spec():
    path = os.path.join(ROOT, "tests", "conftest.py")
    mod_spec = importlib.util.spec_from_file_location("repo_conftest", path)
    conftest = importlib.util.module_from_spec(mod_spec)
    mod_spec.loader.exec_module(conftest)
    want = conftest.random_d2_iid_spec(1, drift=0.4)
    got = stripldp.env.spec_from_json_dict(d2_iid_doc(0))
    assert got.content_hash() == want.content_hash()
    assert d2_iid_doc(1) != d2_iid_doc(0) and d2_iid_doc(1) == d2_iid_doc(1)


@pytest.mark.parametrize("grid", ["1:0.1:6", "-1:0.05:1", "2:1:3", "3:3:6", "1.5:0.5:4"])
def test_grid_rule_matches_the_cli(grid):
    want = stripldp.cli.parse_grid(grid).tolist()
    assert gate.grid_of(("--grid", grid)) == want


def test_d2_curve_grid_has_one_point_either_side_of_t0():
    assert gate.grid_of(("--grid", d2_curve_grid(0))) == [3.0, 6.0]
    grids = {d2_curve_grid(seed) for seed in range(1, 40)}
    assert len(grids) > 20
    for grid in grids:
        t1, t2 = stripldp.cli.parse_grid(grid).tolist()
        assert 2.5 <= t1 <= 3.5 and 5.5 <= t2 <= 6.5
        assert gate.grid_of(("--grid", grid)) == [t1, t2]


def test_bound_ops_take_args_and_program_seed_from_the_benchmark():
    op = Op("rate", "s", ("--grid", lambda seed: f"{seed}:1:{seed + 1}"), program_seed=0)
    bound = Workload("w", "why", ops=(op,)).bind(4).ops[0]
    assert bound.args == ("--grid", "4:1:5")
    assert bound.argv("s.json", 4, "o")[-4:] == ["--seed", "0", "--out", "o"]
    assert Op("analyze", "s").argv("s.json", 4, "o")[-4:] == ["--seed", "4", "--out", "o"]


def test_p075_oracle_gate_rejects_a_wrong_value():
    op = Op("rate", "p075", ("--kind", "hitting", "--grid", "2:1:3"), oracle="p075-hitting")
    good = {"abscissa": [2.0, 3.0], "value": [0.0, oracle.hitting_rate(0.75, 3.0)]}
    assert gate.closed_form(op, good) == []
    bad = dict(good, value=[0.0, good["value"][1] + 1e-6])
    assert gate.closed_form(op, bad)


def test_known_failures_are_ledgered_not_failed(tmp_path):
    def main(argv):
        if "probe" in argv[2]:
            raise RuntimeError("sandwich")
        raise ValueError("unexpected")

    program = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    workload = Workload("w", "why", ops=(
        Op("analyze", "probe", known_failure="RuntimeError"),
        Op("analyze", "other"),
    ))
    run = bench_run.Run(workload, 0, str(tmp_path),
                        {"probe": "probe.json", "other": "other.json"}, program, None)
    run.run_pass()
    run.run_pass()
    assert (run.attempted, run.ok, run.failed) == (4, 0, 2)
    assert [(e["status"], e["error"], e["count"]) for e in run.ledger] == [
        ("known-failure", "RuntimeError", 2), ("failed", "ValueError", 2)]


def test_every_workload_names_existing_specs():
    for w in WORKLOADS.values():
        docs = w.specs(3)
        assert {op.spec for op in w.ops} <= set(docs)
    assert p075_doc(0)["slices"][0]["p"] == [[0.75]]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench_run.per_layer_units()


def test_host_speed_scales_by_the_kernel_samples_inside_an_op():
    host = bench_run.HostSpeed()
    ref = bench_run.REF_KERNEL_S
    host.samples = [(0.0, 0.01, ref), (0.7, 0.02, 2 * ref), (0.8, 0.02, 2 * ref),
                    (5.0, 0.01, ref / 2)]
    # samples t = 0.7 and 0.8 lie in [0.6, 0.9], both twice as slow; their
    # 0.04 s of kernel time is taken out of the op's 0.3 s
    assert host.reference_seconds(0.6, 0.9) == pytest.approx(0.26 * 0.5)
    # none inside [3.0, 3.1]: the nearest sample to its end, t = 5.0
    assert host.reference_seconds(3.0, 3.1) == pytest.approx(0.1 * 2.0)
