import json
import math

import numpy as np
import pytest

from stripldp.cli import main, parse_grid
from stripldp.env import EnvironmentSpec, homogeneous_d1_spec, spec_to_json_dict, two_point_d1_spec

from conftest import random_d2_iid_spec


@pytest.fixture()
def p075_path(tmp_path):
    path = tmp_path / "p075.json"
    path.write_text(json.dumps(spec_to_json_dict(
        homogeneous_d1_spec(0.75, kappa=0.25))))
    return str(path)


@pytest.fixture()
def two_point_path(tmp_path):
    path = tmp_path / "two_point.json"
    path.write_text(json.dumps(spec_to_json_dict(
        two_point_d1_spec([0.7, 0.8], [0.5, 0.5]))))
    return str(path)


@pytest.fixture()
def counts(monkeypatch):
    """Evaluators built, lambda_crit bisections run, truncated-kernel DPs run
    and the start levels they cover, counted at every binding of the
    functions."""
    import stripldp.lmgf as lmgf
    import stripldp.phi as phi
    import stripldp.rates as rates
    from stripldp.lmgf import LmgfEvaluator

    seen = {"evaluators": 0, "lambda_crit": 0, "kernel_dps": 0, "kernels": 0}

    def counted(key, fn):
        def run(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(LmgfEvaluator, "__init__",
                        counted("evaluators", LmgfEvaluator.__init__))
    crit = counted("lambda_crit", phi.estimate_lambda_crit)
    for mod in (phi, lmgf, rates):
        monkeypatch.setattr(mod, "estimate_lambda_crit", crit)
    dp = phi.truncated_kernels_range

    def kernels_range(window, M, k0, k1):
        seen["kernel_dps"] += 1
        seen["kernels"] += k1 - k0
        return dp(window, M, k0, k1)

    for mod in (phi, lmgf):
        monkeypatch.setattr(mod, "truncated_kernels_range", kernels_range)
    return seen


@pytest.fixture()
def pointmass_path(tmp_path):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(spec_to_json_dict(
        two_point_d1_spec([0.75], [1.0]))))
    return str(path)


def test_parse_grid():
    g = parse_grid("1:0.5:3")
    assert np.allclose(g, [1.0, 1.5, 2.0, 2.5, 3.0])
    g2 = parse_grid("-1:0.25:-0.5")
    assert np.allclose(g2, [-1.0, -0.75, -0.5])


def test_analyze_json(p075_path, tmp_path, capsys):
    out = str(tmp_path / "an.json")
    code = main(["analyze", "--spec", p075_path, "--levels", "1500",
                 "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["regime"] == "transient-right"
    assert doc["v0"] == pytest.approx(0.5, abs=1e-3)
    assert doc["t0"] == pytest.approx(2.0, abs=1e-3)
    lo, hi = doc["lambda_crit"]
    assert lo <= -0.5 * math.log(0.75) <= hi
    assert doc["manifest"].endswith("manifest.json")
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["command"] == "analyze"
    assert manifest["spec_hash"] == doc["spec_hash"]


def test_analyze_recurrent_regime(tmp_path):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(spec_to_json_dict(
        homogeneous_d1_spec(0.5, kappa=0.4))))
    out = str(tmp_path / "an.json")
    assert main(["analyze", "--spec", str(path), "--levels", "1200",
                 "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["regime"] == "recurrent" and doc["v0"] == 0.0


def test_analyze_one_level_t_star_not_below_t0(two_point_path, tmp_path):
    out = str(tmp_path / "an.json")
    assert main(["analyze", "--spec", two_point_path, "--levels", "1",
                 "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["t_star"] >= doc["t0"] == math.inf


def test_analyze_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 1, "kind": ')
    assert main(["analyze", "--spec", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_rate_hitting_csv(p075_path, tmp_path, counts):
    out = str(tmp_path / "j.csv")
    code = main(["rate", "--spec", p075_path, "--kind", "hitting",
                 "--grid", "1:0.25:4", "--levels", "1500", "--out", out])
    assert code == 0
    # the curve and the analysis share the spec's evaluator
    assert (counts["evaluators"], counts["lambda_crit"]) == (2, 1)
    rows = [l for l in open(out) if not l.startswith("#")]
    header = rows[0].strip().split(",")
    assert header == ["abscissa", "value", "argmax_lambda", "det_error", "stat_error"]
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    ts, vals = data[:, 0], data[:, 1]
    i2 = int(np.argmin(np.abs(ts - 2.0)))
    assert vals[i2] < 1e-9  # minimum 0 at t0 = 2
    # convex on the grid
    for i in range(1, len(ts) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-8


def test_rate_on_one_level_reports_unmeasured_stat_errors(two_point_path, tmp_path):
    """A truncated curve on a one-level window writes every stat_error as
    inf (unmeasured), and its values as finite numbers."""
    out = str(tmp_path / "j.csv")
    assert main(["rate", "--spec", two_point_path, "--kind", "hitting", "--M", "16",
                 "--grid", "2:1:3", "--levels", "1", "--out", out]) == 0
    rows = [l.strip().split(",") for l in open(out) if not l.startswith("#")]
    assert rows[0][-1] == "stat_error" and len(rows) == 3
    for row in rows[1:]:
        assert row[-1] == "inf" and math.isfinite(float(row[1]))


def test_rate_speed_has_lambda_crit_row(p075_path, tmp_path, counts):
    out = str(tmp_path / "i.csv")
    assert main(["rate", "--spec", p075_path, "--kind", "speed",
                 "--grid=-1:0.25:1", "--levels", "1200", "--out", out]) == 0
    # both analyses and every grid point run on one pair of evaluators
    assert (counts["evaluators"], counts["lambda_crit"]) == (2, 2)
    rows = [l for l in open(out) if not l.startswith("#")]
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    at0 = data[np.abs(data[:, 0]) < 1e-12][0]
    assert at0[1] == pytest.approx(-0.5 * math.log(0.75), abs=1e-4)


def test_rate_averaged_pointmass_equals_quenched(pointmass_path, tmp_path):
    out_a = str(tmp_path / "a.csv")
    out_q = str(tmp_path / "q.csv")
    assert main(["rate", "--spec", pointmass_path, "--kind", "averaged-hitting",
                 "--grid", "2:0.5:3", "--levels", "800", "--out", out_a]) == 0
    assert main(["rate", "--spec", pointmass_path, "--kind", "hitting",
                 "--grid", "2:0.5:3", "--levels", "800", "--out", out_q]) == 0
    va = [float(r.split(",")[1]) for r in open(out_a) if not r.startswith("#")
          and not r.startswith("abscissa")]
    vq = [float(r.split(",")[1]) for r in open(out_q) if not r.startswith("#")
          and not r.startswith("abscissa")]
    assert max(abs(a - b) for a, b in zip(va, vq)) <= 1e-9


@pytest.mark.parametrize("kind", ["averaged-hitting", "averaged-speed"])
def test_rate_averaged_needs_an_iid_spec(kind, p075_path, tmp_path, capsys):
    """Periodic specs, the period-3 d=2 one and the one-slice p = 0.75, have
    no product tilts: exit 2 with the tilt family's reason."""
    base = random_d2_iid_spec(1, drift=0.4)
    period3 = tmp_path / "period3.json"
    period3.write_text(json.dumps(spec_to_json_dict(EnvironmentSpec(
        kind="periodic", d=2, kappa=base.kappa, slices=base.slices))))
    for path in (str(period3), p075_path):
        assert main(["rate", "--spec", path, "--kind", kind,
                     "--grid", "0.5:0.5:1", "--levels", "50"]) == 2
        err = capsys.readouterr().err
        assert err == "error: averaged bounds need an i.i.d. finite-support spec\n"


def test_rate_grid_outside_domain(p075_path):
    assert main(["rate", "--spec", p075_path, "--kind", "hitting",
                 "--grid", "0.2:0.2:1"]) == 2


def test_simulate_direct_typical(p075_path, tmp_path, capsys):
    out = str(tmp_path / "sim.json")
    code = main(["simulate", "--spec", p075_path, "--t", "2", "--levels", "1000",
                 "--trials", "1500", "--seed", "5", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["point"] < 0.01


def test_simulate_certain_event_writes_plus_zero(p075_path, tmp_path, capsys):
    """T_20 >= 1.05 * 20 misses only a walk straight up, so all 50 trials
    hit: the estimate of probability 1 is written with point 0.0 and the
    interval's lower end 0.0, no -0.0."""
    out = str(tmp_path / "sure.json")
    code = main(["simulate", "--spec", p075_path, "--t", "1.05", "--levels", "20",
                 "--trials", "50", "--seed", "0", "--out", out])
    assert code == 0
    text = open(out).read()
    doc = json.loads(text)
    assert (doc["hits"], doc["trials"], doc["prob"]) == (50, 50, 1.0)
    assert "-0.0" not in text
    for value in (doc["point"], doc["ci"][0]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_simulate_is_with_comparison(p075_path, tmp_path, capsys, counts):
    out = str(tmp_path / "is.json")
    code = main(["simulate", "--spec", p075_path, "--t", "3", "--method", "is",
                 "--M", "16", "--levels", "150", "--trials", "20000",
                 "--out", out])
    assert code == 0
    # the estimate and the J_M comparison share one evaluator and one DP
    # over the kernels of its one period
    assert (counts["evaluators"], counts["kernel_dps"], counts["kernels"]) == (1, 1, 1)
    captured = capsys.readouterr().out
    assert "J_M(3.0)" in captured
    doc = json.loads(open(out).read())
    assert "comparison" in doc and "J_M" in doc["comparison"]


def test_simulate_is_one_kernel_dp_per_level(two_point_path, tmp_path, capsys, counts):
    out = str(tmp_path / "is.json")
    assert main(["simulate", "--spec", two_point_path, "--t", "3", "--method", "is",
                 "--M", "16", "--levels", "150", "--trials", "2000", "--out", out]) == 0
    assert "J_M(3.0)" in capsys.readouterr().out
    assert (counts["evaluators"], counts["kernel_dps"], counts["kernels"]) == (1, 1, 150)


def test_simulate_negative_seed_is_a_usage_error(p075_path, capsys):
    """The periodic window takes no seed, so the trial streams meet it."""
    assert main(["simulate", "--spec", p075_path, "--t", "2", "--levels", "20",
                 "--trials", "100", "--seed", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_simulate_is_requires_M(p075_path):
    assert main(["simulate", "--spec", p075_path, "--t", "3",
                 "--method", "is"]) == 2


def test_simulate_needs_event(p075_path):
    assert main(["simulate", "--spec", p075_path]) == 2


@pytest.mark.parametrize("flag, argv", [
    ("--levels", ["rate", "--kind", "hitting", "--grid", "2:1:3", "--levels", "0"]),
    ("--levels", ["simulate", "--t", "2.4", "--levels", "0", "--trials", "100"]),
    ("--trials", ["simulate", "--t", "2.4", "--levels", "20", "--trials", "0"]),
    ("--levels", ["simulate", "--slowdown", "--method", "exact", "--levels", "0"]),
], ids=["rate-levels-0", "simulate-levels-0", "simulate-trials-0", "slowdown-exact-levels-0"])
def test_counts_below_one_are_usage_errors(two_point_path, flag, argv, capsys):
    """--levels and --trials below 1 exit 2 with a message, not a traceback."""
    assert main([argv[0], "--spec", two_point_path, *argv[1:]]) == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["rate", "--kind", "speed", "--grid=-0.5:0.5:0.5", "--M", "16"], "--kind hitting only"),
    (["rate", "--kind", "averaged-hitting", "--grid", "3:1:3", "--M", "16"],
     "--kind hitting only"),
    (["rate", "--kind", "averaged-speed", "--grid", "0.5:0.5:0.5", "--M", "16"],
     "--kind hitting only"),
    (["simulate", "--t", "2", "--method", "exact"], "--slowdown only"),
    (["simulate", "--slowdown", "--method", "is"], "quenched --t events only"),
    (["simulate", "--t", "3", "--method", "is", "--M", "16", "--mode", "averaged"],
     "quenched --t events only"),
    (["simulate", "--x", "0.2", "--M", "16"], "--t events only"),
    (["simulate", "--slowdown", "--M", "16"], "--t events only"),
    (["simulate", "--t", "2", "--x", "0.2"], "one of --t, --x and --slowdown"),
    (["simulate", "--slowdown", "--t", "2"], "one of --t, --x and --slowdown"),
    (["simulate", "--slowdown", "--x", "0.2"], "one of --t, --x and --slowdown"),
    (["rate", "--kind", "hitting", "--grid", "2:1:3", "--tol", "0.01"],
     "unrecognized arguments: --tol"),
    (["simulate", "--t", "2", "--tol", "0.01"], "--tol applies to --slowdown only"),
], ids=["rate-speed-M", "rate-averaged-hitting-M", "rate-averaged-speed-M",
        "simulate-t-exact", "simulate-slowdown-is", "simulate-is-averaged",
        "simulate-x-M", "simulate-slowdown-M", "simulate-t-x", "simulate-slowdown-t",
        "simulate-slowdown-x", "rate-tol", "simulate-t-tol"])
def test_ignored_options_are_usage_errors(two_point_path, argv, message, capsys):
    """An option that the command would accept and then ignore (M of a
    curve that has no truncation, the exact method outside the slowdown,
    IS for the slowdown or in averaged mode, M of an event that is not
    truncated, a second event, the lambda_crit tolerance outside analyze and
    the slowdown) exits 2 with a message; argparse exits for an option the
    command does not take."""
    try:
        code = main([argv[0], "--spec", two_point_path, *argv[1:]])
    except SystemExit as e:
        code = e.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_simulate_slowdown_exact(p075_path, tmp_path, capsys):
    out = str(tmp_path / "sd.json")
    code = main(["simulate", "--spec", p075_path, "--slowdown",
                 "--method", "exact", "--levels", "40", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["method"] == "exact"
    assert "lambda_crit" in doc["comparison"]


def test_simulate_slowdown_lambda_crit_ignores_tol(p075_path, tmp_path):
    """--tol sets the width of the lambda_crit bracket, not its value: with
    and without it the slowdown compares against the closed form
    -1/2 log(4 p q) = -1/2 log 0.75."""
    reported = []
    for extra in ([], ["--tol", "0.01"]):
        out = str(tmp_path / f"sd{len(extra)}.json")
        assert main(["simulate", "--spec", p075_path, "--slowdown", "--method", "exact",
                     "--levels", "40", "--out", out, *extra]) == 0
        reported.append(json.loads(open(out).read())["comparison"]["lambda_crit"])
    for value in reported:
        assert value == pytest.approx(-0.5 * math.log(0.75), abs=1e-12)


def test_simulate_slowdown_direct_averaged(two_point_path, tmp_path):
    runs = {}
    for mode in ("quenched", "averaged"):
        out = str(tmp_path / f"sd-{mode}.json")
        assert main(["simulate", "--spec", two_point_path, "--slowdown",
                     "--method", "direct", "--mode", mode, "--levels", "10",
                     "--trials", "2000", "--seed", "1", "--out", out]) == 0
        runs[mode] = json.loads(open(out).read())
    assert (runs["quenched"]["mode"], runs["quenched"]["hits"]) == ("quenched", 324)
    # each averaged trial walks its own environment
    assert runs["averaged"]["mode"] == "averaged"
    assert runs["averaged"]["hits"] != 324


def test_simulate_speed_event(p075_path, tmp_path):
    out = str(tmp_path / "sx.json")
    code = main(["simulate", "--spec", p075_path, "--x", "0.2",
                 "--levels", "120", "--trials", "20000", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["event"].startswith("X_n <=")


def test_convert_bounded_jump_nearest(tmp_path):
    ker = tmp_path / "k.json"
    ker.write_text(json.dumps({"L": 1, "R": 1, "kernel": [0.25, 0.0, 0.75]}))
    out = str(tmp_path / "spec.json")
    assert main(["convert-bounded-jump", "--kernel", str(ker), "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["d"] == 1


def test_convert_bounded_jump_22(tmp_path):
    ker = tmp_path / "k22.json"
    ker.write_text(json.dumps(
        {"L": 2, "R": 2, "kernel": [0.25, 0.25, 0.0, 0.25, 0.25]}))
    out = str(tmp_path / "spec22.json")
    assert main(["convert-bounded-jump", "--kernel", str(ker), "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["d"] == 2 and doc["bounded_jump"] == [2, 2]


def test_convert_bounded_jump_21_warns(tmp_path, capsys):
    ker = tmp_path / "k21.json"
    ker.write_text(json.dumps({"L": 2, "R": 1, "kernel": [0.35, 0.35, 0.0, 0.3]}))
    out = str(tmp_path / "spec21.json")
    assert main(["convert-bounded-jump", "--kernel", str(ker), "--out", out]) == 0
    assert "zero pattern" in capsys.readouterr().err


def test_rerun_byte_identical(p075_path, tmp_path):
    out1 = str(tmp_path / "c1.csv")
    out2 = str(tmp_path / "c2.csv")
    args = ["rate", "--spec", p075_path, "--kind", "hitting",
            "--grid", "1.5:0.5:3", "--levels", "800", "--seed", "9"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    a = [l for l in open(out1) if "manifest" not in l]
    b = [l for l in open(out2) if "manifest" not in l]
    assert a == b


def test_window_exhausted_exit_code(tmp_path):
    # strongly left-drifting walk with a huge excursion cap outruns every
    # retry margin before any trial resolves: the budget exit path
    path = tmp_path / "p01.json"
    path.write_text(json.dumps(spec_to_json_dict(
        homogeneous_d1_spec(0.1, kappa=0.05))))
    code = main(["simulate", "--spec", str(path), "--t", "3", "--levels", "4",
                 "--M", "2000", "--trials", "200", "--seed", "1"])
    assert code == 4
