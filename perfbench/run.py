#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the stripldp command line.

    python3 perfbench/run.py --workload curve-d2-iid --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`, nothing needs installing. Each workload (see `workloads.py`) writes
its spec files from the seed, then repeats one pass over its ops, calling
`stripldp.cli.main(argv)` in this process, until the next pass would end
after `--seconds`. Every op's output goes through the correctness gate
(`gate.py`) and must be byte-identical to the first pass.

`--trace 0` reports the end-to-end metrics (medians over passes, op times
scaled to a reference host speed, see HostSpeed) with tracing off. `--trace 1` alternates untraced and traced passes and reports
per-layer metrics from the traced ones (`tracing.py`), plus the tracing
overhead. A human-readable report comes first; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}. Full
results, and the spans of a traced run, go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)

import gate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
MIN_PASSES = 2

# On a shared 2-core x86-64 host, CPU speed was seen to switch between
# levels up to 1.7x apart, in bursts of about a second and in phases of
# minutes, and CPU time follows wall time. So while the passes run, a timer
# signal runs `speed_kernel`, a fixed loop shaped like the program's sweeps,
# every SAMPLE_S seconds, and each op's time, less the time the kernel ran
# inside it, is scaled by REF_KERNEL_S / (mean kernel time sampled during
# the op): seconds at the host speed where the kernel takes REF_KERNEL_S.
# Short, frequent samples (about 2.5 ms every 0.1 s) track the host's speed
# over an op better than long, sparse ones: on the d=2 curve op, 10 samples
# a second took the spread of successive op times from a CV of 6.7% raw to
# 3.8%, and 2 a second to 4.5%. The kernel is timed in thread CPU time, so
# waiting for the interpreter lock while the program's pool threads run
# does not count. Set-up samples (process start, imports, file reads) are
# not scaled: they are not paced like the kernel.
KERNEL_LEVELS = 100
REF_KERNEL_S = 0.002
SAMPLE_S = 0.1
_KQ = np.array([[0.3, 0.1], [0.2, 0.2]])
_KR = np.array([[0.1, 0.05], [0.0, 0.1]])
_KP = np.array([[0.15, 0.1], [0.2, 0.3]])

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import stripldp.cli; "
    "from stripldp.env import load_spec; [load_spec(p) for p in sys.argv[2:]]"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "curve_point_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
# reported, but only where the workload has an op of that kind
REPORT_ONLY = {"analyze_s": "s", "tail_s": "s", "is_ess_per_s": "1/s",
               "sample_trials_per_s": "1/s"}

CALLS = (
    "phi.solve_phi_window", "phi.phi_derivative", "phi.estimate_lambda_crit",
    "phi.solve_phi_periodic", "phi.periodic_phi_derivative", "phi.hitting_kernels",
    "lmgf.LmgfEvaluator.__init__", "lmgf.LmgfEvaluator.value",
    "lmgf.LmgfEvaluator.solve_tilt", "lmgf.LmgfEvaluator.derivative_truncated",
    "lmgf.analyze_environment", "env.sample_window", "rates.legendre_point",
    "montecarlo.trial_uniforms", "montecarlo.TiltedSampler.sample",
    "montecarlo.build_tilted_sampler", "products.mu_vectors",
    "products.nu_vectors", "cli.main",
)
SELF_PCT = (
    "phi.solve_phi_window", "phi.phi_derivative", "phi.solve_phi_periodic",
    "phi.periodic_phi_derivative", "phi.hitting_kernels", "lmgf.LmgfEvaluator.value",
    "montecarlo.trial_uniforms", "montecarlo.TiltedSampler.sample", "cli.main",
)
TOTAL_PCT = (
    "phi.estimate_lambda_crit", "env.sample_window", "lmgf.analyze_environment",
    "lmgf.LmgfEvaluator.solve_tilt", "rates.legendre_point",
    "montecarlo.build_tilted_sampler",
)
MODULES = ("env", "phi", "products", "lmgf", "rates", "montecarlo", "cli")


def per_layer_units() -> dict:
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({
        "phi.solve_phi_window.levels": "count",
        "phi.solve_phi_periodic.iterations": "count",
        "phi.solve_phi_window.resolve_useful_frac": "frac",
        "lmgf.LmgfEvaluator.value.distinct_frac": "frac",
        "rates.legendre_point.evals_per_call": "count",
        "montecarlo.importance_sample_hitting.ess_frac": "frac",
    })
    units.update({f"{n}.self_pct": "%" for n in SELF_PCT})
    units.update({f"{n}.pct": "%" for n in TOTAL_PCT})
    units.update({f"{m}.self_pct": "%" for m in MODULES})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# program loading and set-up time
# ---------------------------------------------------------------------------


def load_program():
    """Import stripldp from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "stripldp", "__init__.py")
    if not os.path.isfile(init):
        sys.stderr.write(f"perfbench: no program sources at {init}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import stripldp
    import stripldp.cli

    if os.path.dirname(os.path.abspath(stripldp.__file__)) != os.path.dirname(init):
        sys.stderr.write(f"perfbench: imported stripldp from {stripldp.__file__}\n")
        sys.exit(2)
    return stripldp


def speed_kernel(n: int = KERNEL_LEVELS) -> float:
    """Thread CPU seconds for n levels of a fixed 2x2 sweep: solve, matmul,
    sign check."""
    eye = np.eye(2)
    rhs = np.empty((2, 4))
    prev = np.zeros((2, 2))
    t0 = time.thread_time()
    for _ in range(n):
        m = 0.9 * (_KR + _KQ @ prev)
        rhs[:, :2] = 0.9 * _KP
        rhs[:, 2:] = eye
        sol = np.linalg.solve(eye - m, rhs)
        prev = sol[:, :2]
        (sol < -1e-12).any()
    return time.thread_time() - t0


class HostSpeed:
    """Samples `speed_kernel` every SAMPLE_S seconds from a SIGALRM timer
    while the `with` block runs; `reference_seconds(start, end)` turns an
    op's wall time into reference seconds."""

    def __init__(self):
        # (wall time at the end of the sample, kernel wall s, kernel thread s)
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        k = speed_kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0, k))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def reference_seconds(self, start: float, end: float) -> float:
        """(end - start) less the kernel's own time in it, at reference speed."""
        inside = [(w, k) for t, w, k in self.samples if start <= t <= end]
        if not inside:
            near = min(self.samples, key=lambda s: abs(s[0] - end))
            return (end - start) * REF_KERNEL_S / near[2]
        own = end - start - sum(w for w, _ in inside)
        return own * REF_KERNEL_S / statistics.fmean(k for _, k in inside)


def measure_setup(spec_paths) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and load the specs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which quantized these samples in 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, *spec_paths],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# one op, one pass
# ---------------------------------------------------------------------------


class Run:
    """State of one benchmark run: ops, first-pass fingerprints, ledger."""

    def __init__(self, workload, seed, workdir, spec_paths, program, reference):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.spec_paths = spec_paths
        self.program = program
        self.reference = reference
        self.fingerprints: dict[int, str] = {}
        self.ledger: list[dict] = []
        self.attempted = self.ok = self.failed = 0

    def run_op(self, idx, op) -> dict:
        out_path = os.path.join(self.workdir, f"op{idx}.out")
        for stale in (out_path, out_path + ".manifest.json"):
            if os.path.exists(stale):
                os.remove(stale)
        argv = op.argv(self.spec_paths[op.spec], self.seed, out_path)
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.program.cli.main(argv)
            if rc != 0:
                error = f"exit {rc}"
        except SystemExit as e:
            error = f"SystemExit({e.code})"
        except Exception as e:  # the op boundary: record and go on
            error = type(e).__name__
            err.write(traceback.format_exc())
        t1 = time.perf_counter()

        result = {"op": op, "idx": idx, "start": t0, "end": t1, "time": t1 - t0,
                  "obs": None}
        problems = []
        if error is None:
            problems = self._check(idx, op, out_path, err.getvalue(), result)
        self.attempted += 1
        if error is None and not problems:
            self.ok += 1
            return result
        status = ("known-failure" if error is not None and error == op.known_failure
                  else "failed")
        if status == "failed":
            self.failed += 1
        last = err.getvalue().strip().splitlines()[-1:] if err.getvalue() else []
        entry = {
            "workload": self.workload.name, "status": status, "op": op.label(),
            "argv": argv, "error": error, "problems": problems,
            "detail": last[0][:300] if last else "", "stderr": err.getvalue()[-4000:],
            "count": 1,
        }
        for seen in self.ledger:
            if all(seen[k] == entry[k] for k in ("op", "status", "error", "problems")):
                seen["count"] += 1
                break
        else:
            self.ledger.append(entry)
        return result

    def _check(self, idx, op, out_path, stderr, result) -> list[str]:
        try:
            with open(out_path) as fh:
                text = fh.read()
            with open(out_path + ".manifest.json") as fh:
                manifest = fh.read()
        except OSError as e:
            return [f"missing output: {e}"]
        try:
            obs = gate.parse_output(op.command, text)
        except (ValueError, KeyError) as e:
            return [f"unparseable output: {e}"]
        result["obs"] = obs
        problems = gate.invariants(op, obs, stderr) + gate.closed_form(op, obs)
        if self.reference is not None and self.reference["ops"][idx] is not None:
            problems += gate.against_reference(op, obs, self.reference["ops"][idx])
        fp = gate.fingerprint(text, manifest)
        first = self.fingerprints.setdefault(idx, fp)
        if fp != first:
            problems.append("output differs from the first pass")
        return problems

    def run_pass(self) -> list[dict]:
        return [self.run_op(i, op) for i, op in enumerate(self.workload.ops)]


def pass_metrics(results, host: HostSpeed) -> dict:
    """Per-pass figures from one pass's op results, in reference seconds."""
    for r in results:
        r["scaled"] = host.reference_seconds(r["start"], r["end"])
    timed = [r for r in results if r["op"].known_failure is None]
    rate = [r for r in timed if r["op"].command == "rate"]
    points = sum(len(r["obs"]["abscissa"]) if r["obs"] else
                 len(gate.grid_of(r["op"].args)) for r in rate)
    sims = [r for r in timed if r["op"].command == "simulate"]
    is_ops = [r for r in sims if "is" in r["op"].args]
    ess = sum(r["obs"]["ess"] for r in is_ops if r["obs"])
    return {
        "wall": sum(r["scaled"] for r in timed),
        "wall_raw": sum(r["time"] for r in timed),
        "all_ops_raw": sum(r["time"] for r in results),
        "op_scaled": [r["scaled"] for r in results],
        "curve_point": sum(r["scaled"] for r in rate) / points if points else None,
        "analyze": [r["scaled"] for r in timed if r["op"].command == "analyze"],
        "tail": sum(r["scaled"] for r in sims) if sims else None,
        "is_ess_per_s": (ess / sum(r["scaled"] for r in is_ops)) if is_ops else None,
    }


# ---------------------------------------------------------------------------
# per-layer hooks and metrics
# ---------------------------------------------------------------------------


class LayerCounters:
    """Values that need a call's arguments or result, fed by tracer hooks."""

    def __init__(self):
        self.value_keys: set = set()
        self.evaluators: list = []  # keeps ids unique while a pass runs

    def hooks(self) -> dict:
        def window(tr, args, kwargs, sol):
            tr.count("phi.solve_phi_window.levels", sol.window.n_levels)
            n = len(sol)
            if sol.shift < n:
                tr.count("phi.solve_phi_window.resolve_needed",
                         sol.warmup_levels - sol.shift)
                tr.count("phi.solve_phi_window.resolve_levels", n - sol.shift)

        def periodic(tr, args, kwargs, res):
            tr.count("phi.solve_phi_periodic.iterations", res.iterations)

        def value(tr, args, kwargs, est):
            ev = args[0]
            self.evaluators.append(ev)
            self.value_keys.add((id(ev), est.lam))
            if tr.in_stack("rates.legendre_point"):
                tr.count("rates.legendre_point.value_calls")

        def importance(tr, args, kwargs, res):
            est = res[0] if isinstance(res, tuple) else res
            tr.count("montecarlo.importance_sample_hitting.ess", est.ess)
            tr.count("montecarlo.importance_sample_hitting.trials", est.trials)

        def sample(tr, args, kwargs, res):
            trials = args[1] if len(args) > 1 else kwargs["trials"]
            tr.count("montecarlo.TiltedSampler.sample.trials", trials)

        return {
            "phi.solve_phi_window": window,
            "phi.solve_phi_periodic": periodic,
            "lmgf.LmgfEvaluator.value": value,
            "montecarlo.importance_sample_hitting": importance,
            "montecarlo.TiltedSampler.sample": sample,
        }

    def end_pass(self) -> int:
        distinct = len(self.value_keys)
        self.value_keys.clear()
        self.evaluators.clear()
        return distinct


def layer_metrics(totals: dict, passes: int, distinct: int, traced_wall: float,
                  untraced_wall: float, traced_ops_time: float) -> dict:
    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def pct(seconds):
        return 100.0 * seconds / traced_ops_time

    m = {f"{n}.calls": calls(n) / passes for n in CALLS}
    m["phi.solve_phi_window.levels"] = calls("phi.solve_phi_window.levels") / passes
    m["phi.solve_phi_periodic.iterations"] = (
        calls("phi.solve_phi_periodic.iterations") / passes)
    m["phi.solve_phi_window.resolve_useful_frac"] = ratio(
        calls("phi.solve_phi_window.resolve_needed"),
        calls("phi.solve_phi_window.resolve_levels"))
    m["lmgf.LmgfEvaluator.value.distinct_frac"] = ratio(
        distinct, calls("lmgf.LmgfEvaluator.value"))
    m["rates.legendre_point.evals_per_call"] = ratio(
        calls("rates.legendre_point.value_calls"), calls("rates.legendre_point"))
    m["montecarlo.importance_sample_hitting.ess_frac"] = ratio(
        calls("montecarlo.importance_sample_hitting.ess"),
        calls("montecarlo.importance_sample_hitting.trials"))
    for n in SELF_PCT:
        m[f"{n}.self_pct"] = pct(totals.get(n, {}).get("self_s", 0.0))
    for n in TOTAL_PCT:
        m[f"{n}.pct"] = pct(totals.get(n, {}).get("s", 0.0))
    for mod in MODULES:
        m[f"{mod}.self_pct"] = pct(sum(
            row["self_s"] for name, row in totals.items()
            if name.split(".", 1)[0] == mod and row["s"] > 0))
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def highest_percentile(n: int):
    """Highest whole percentile with at least 10 of n samples above it."""
    if n < 11:
        return None
    return math.floor(100.0 * (n - 10) / n)


def summarize(values):
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    p = highest_percentile(len(values))
    if p is not None:
        out[f"p{p}"] = values[min(len(values) - 1, math.ceil(p / 100 * len(values)) - 1)]
    return out


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "threads": int(os.environ.get("STRIPLDP_THREADS") or os.cpu_count() or 1),
    }


def load_reference(workload, seed, spec_docs):
    if not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    entry = ref.get(workload.name, {}).get(str(seed))
    if entry is not None and entry["specs"] != specs_digest(spec_docs):
        sys.stderr.write("perfbench: reference specs differ from the generated ones\n")
        sys.exit(2)
    return entry


def specs_digest(spec_docs) -> str:
    return hashlib.sha256(json.dumps(spec_docs, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    workload = WORKLOADS[args.workload].bind(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        return _bench(program, workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_specs(spec_docs, workdir) -> dict:
    """Write each spec document to <workdir>/<name>.json; returns the paths."""
    paths = {}
    for name, doc in spec_docs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


def _bench(program, workload, args, workdir) -> int:
    spec_docs = workload.specs(args.seed)
    spec_paths = write_specs(spec_docs, workdir)
    reference = load_reference(workload, args.seed, spec_docs)
    setup = measure_setup(list(spec_paths.values()))

    run = Run(workload, args.seed, workdir, spec_paths, program, reference)
    counters = LayerCounters()
    tracer = Tracer(program, hooks=counters.hooks()) if args.trace else None
    untraced, traced, distinct = [], [], 0
    start = time.perf_counter()
    with HostSpeed() as host:
        while True:
            use_trace = bool(tracer) and len(untraced) > len(traced)
            t0 = time.perf_counter()
            if use_trace:
                with tracer:
                    traced.append(run.run_pass())
                distinct += counters.end_pass()
            else:
                untraced.append(run.run_pass())
            last = time.perf_counter() - t0
            n = len(untraced) + len(traced)
            if n >= MIN_PASSES and time.perf_counter() - start + last > args.seconds:
                break
    untraced = [pass_metrics(p, host) for p in untraced]
    traced = [pass_metrics(p, host) for p in traced]

    env = environment()

    def median(key, passes=untraced):
        return statistics.median(p[key] for p in passes)

    values = {
        "setup_s": statistics.median(setup),
        "wall_s": median("wall"),
        "curve_point_s": median("curve_point"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": run.ok / run.attempted,
    }
    extra = {}
    analyze = [t for p in untraced for t in p["analyze"]]
    if analyze:
        extra["analyze_s"] = statistics.median(analyze)
    if untraced[0]["tail"] is not None:
        extra["tail_s"] = median("tail")
    if untraced[0]["is_ess_per_s"] is not None:
        extra["is_ess_per_s"] = median("is_ess_per_s")

    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "passes": len(untraced) + len(traced),
        "setup_samples": setup, "kernel_samples": [k for _, _, k in host.samples],
        "wall_s": summarize([p["wall"] for p in untraced]),
        "wall_raw_s": summarize([p["wall_raw"] for p in untraced]),
        "ops": [{"op": op.label(), "median_s": statistics.median(
                    p["op_scaled"][i] for p in untraced)}
                for i, op in enumerate(workload.ops)],
        "ledger": run.ledger, "end_to_end": values, "report_only": extra,
    }
    if args.trace:
        totals = tracer.totals()
        layers = layer_metrics(
            totals, len(traced), distinct, median("wall", traced), median("wall"),
            sum(p["all_ops_raw"] for p in traced))
        result["per_layer"] = layers
        sample = totals.get("montecarlo.TiltedSampler.sample", {}).get("s", 0.0)
        if sample:
            result["report_only"]["sample_trials_per_s"] = (
                totals["montecarlo.TiltedSampler.sample.trials"]["calls"] / sample)
        result["functions"] = {
            name: {k: (v / len(traced)) for k, v in row.items()}
            for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
            if row["s"] > 0
        }
        spans_path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-spans.jsonl")
        tracer.write_spans(spans_path)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer_units().items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    with open(os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    print_report(result, metrics)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def print_report(result, metrics) -> None:
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']} nproc={env['nproc']} numpy={env['numpy']} "
          f"threads={env['threads']}")
    w = result["wall_s"]
    tail = ", ".join(f"{k}={v:.4f}" for k, v in w.items() if k.startswith("p"))
    print(f"wall_s: median {w['median']:.4f} s over n={w['n']} passes"
          + (f", {tail}" if tail else ", no percentile has 10 samples beyond it")
          + f"; unscaled median {result['wall_raw_s']['median']:.4f} s")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<16} {value:12.6g} {END_TO_END[name]}")
    for name, value in result["report_only"].items():
        print(f"  {name:<16} {value:12.6g} {REPORT_ONLY[name]}  (not in the JSON line)")
    for row in result["ops"]:
        print(f"  op {row['median_s']:9.4f} s  {row['op']}")
    for entry in result["ledger"]:
        print(f"  {entry['status']} x{entry['count']}: {entry['op']} -> {entry['error'] or 'gate'} "
              f"{'; '.join(entry['problems'])[:300]} {entry['detail']}")
    if "functions" in result:
        print("  layer function                                  calls/pass      s/pass  self_s/pass")
        for name, row in list(result["functions"].items())[:25]:
            print(f"  {name:<48}{row['calls']:11.1f} {row['s']:11.4f} {row['self_s']:12.4f}")
        for name in ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"):
            print(f"  {name:<24} {metrics[name]['value']:.4f} s")


if __name__ == "__main__":
    sys.exit(main())
