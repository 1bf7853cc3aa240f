"""Command-line interface: spec ingestion, analysis, rate curves, simulation.

Subcommands:
  analyze               regime, v0, t0, t*, lambda_crit bracket (JSON)
  rate                  rate-function curve as CSV (hitting / speed /
                        averaged-hitting / averaged-speed; --M for truncated)
  simulate              tail estimates: --t (hitting), --x (speed),
                        --slowdown; methods direct / is / exact
  convert-bounded-jump  embed an (L,R) step kernel into a strip spec

Exit codes: 0 success, 2 usage or spec error, 3 numerical failure
(supercritical / no convergence), 4 simulation budget exhausted.
Every --out file gets a sibling <out>.manifest.json recording the command,
spec hash, seed and parameters; deterministic commands reproduce outputs
byte-identically from the same manifest inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .env import (
    SpecValidationError,
    WindowExhaustedError,
    embed_bounded_jump,
    load_spec,
    spec_to_json_dict,
)
from .lmgf import DEFAULT_MARGIN, LmgfEvaluator, analyze_environment
from .montecarlo import (
    BudgetExhaustedError,
    empirical_hitting_tail,
    empirical_speed_tail,
    importance_sample_hitting,
    slowdown_probability,
)
from .phi import ConvergenceError, SupercriticalError
from .rates import (
    averaged_rate_upper,
    averaged_speed_upper,
    hitting_rate_curve,
    speed_rate_curve,
)

EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4


def parse_grid(text: str) -> np.ndarray:
    """A:STEP:B inclusive of both endpoints (within fp slack)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecValidationError(f"grid must be A:STEP:B, got {text!r}")
    a, step, b = (float(x) for x in parts)
    if step <= 0 or b < a:
        raise SpecValidationError(f"bad grid bounds/step in {text!r}")
    count = int(round((b - a) / step)) + 1
    grid = a + step * np.arange(count)
    return grid[grid <= b + 1e-9]


def _write_manifest(args, command: str, wall: float, params: dict):
    if not args.out:
        return None
    manifest_path = args.out + ".manifest.json"
    doc = {
        "command": command,
        "artifact_version": __version__,
        "spec": getattr(args, "spec", None),
        "spec_hash": params.pop("_spec_hash", None),
        "seed": getattr(args, "seed", None),
        "parameters": params,
        "outputs": [args.out],
        "wall_clock_s": round(wall, 3),
    }
    with open(manifest_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return os.path.basename(manifest_path)


def _write_json(args, command: str, doc: dict, wall: float, params: dict) -> int:
    """Print `doc` as JSON and write it to --out, naming its manifest."""
    manifest = _write_manifest(args, command, wall, params)
    if manifest:
        doc["manifest"] = manifest
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_analyze(args) -> int:
    spec = load_spec(args.spec)
    t0 = time.perf_counter()
    analysis = analyze_environment(
        spec, n_levels=args.levels, seed=args.seed,
        lambda_crit_tol=args.tol,
    )
    wall = time.perf_counter() - t0
    return _write_json(
        args, "analyze", analysis.as_dict(), wall,
        {"levels": args.levels, "tol": args.tol, "_spec_hash": spec.content_hash()},
    )


def cmd_rate(args) -> int:
    if args.M is not None and args.kind != "hitting":
        raise SpecValidationError("--M applies to --kind hitting only")
    spec = load_spec(args.spec)
    grid = parse_grid(args.grid)
    t0 = time.perf_counter()
    if args.kind == "hitting":
        curve = hitting_rate_curve(
            spec, grid, n_levels=args.levels, seed=args.seed, M=args.M,
        )
    elif args.kind == "speed":
        curve = speed_rate_curve(spec, grid, n_levels=args.levels, seed=args.seed)
    elif args.kind == "averaged-hitting":
        curve = averaged_rate_upper(spec, grid, n_levels=args.levels, seed=args.seed)
    elif args.kind == "averaged-speed":
        curve = averaged_speed_upper(spec, grid, n_levels=args.levels, seed=args.seed)
    else:
        raise SpecValidationError(f"unknown curve kind {args.kind!r}")
    wall = time.perf_counter() - t0
    manifest = _write_manifest(
        args, "rate", wall,
        {"kind": args.kind, "grid": args.grid, "levels": args.levels,
         "M": args.M, "_spec_hash": spec.content_hash()},
    )
    csv_text = curve.to_csv()
    if manifest:
        head, rest = csv_text.split("\n", 1)
        csv_text = head + f"\n# manifest={manifest}\n" + rest
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {len(grid)} points to {args.out}")
    else:
        print(csv_text, end="")
    for w in curve.warnings:
        print(f"shape warning: {w}", file=sys.stderr)
    return 0


def _check_simulate_options(args) -> None:
    """Refuse the option combinations that the simulation would ignore."""
    if (args.t is not None) + (args.x is not None) + args.slowdown > 1:
        raise SpecValidationError("simulate takes one of --t, --x and --slowdown")
    if args.method == "exact" and not args.slowdown:
        raise SpecValidationError("--method exact applies to --slowdown only")
    if args.method == "is" and (args.slowdown or args.t is None or args.mode == "averaged"):
        raise SpecValidationError("importance sampling covers quenched --t events only")
    if args.M is not None and (args.slowdown or args.t is None):
        raise SpecValidationError("--M applies to --t events only")
    if args.tol is not None and not args.slowdown:
        raise SpecValidationError("--tol applies to --slowdown only")


def cmd_simulate(args) -> int:
    _check_simulate_options(args)
    spec = load_spec(args.spec)
    n = args.levels
    t0 = time.perf_counter()
    comparison = {}
    if args.slowdown:
        est = slowdown_probability(
            spec, n=n, trials=args.trials, seed=args.seed,
            method="exact" if args.method == "exact" else "direct",
            mode=args.mode,
        )
        try:
            from .phi import estimate_lambda_crit

            tol = 1e-6 if args.tol is None else max(args.tol, 1e-6)
            lc = estimate_lambda_crit(spec, tol=tol, seed=args.seed)
            comparison = {"lambda_crit": lc.lambda_crit,
                          "gap": est.point - lc.lambda_crit}
            print(f"slowdown rate {est.point:.6f} vs lambda_crit {lc.lambda_crit:.6f}")
        except (SupercriticalError, ConvergenceError):
            pass
    elif args.t is not None:
        if args.method == "is":
            if args.M is None:
                raise SpecValidationError("--method is requires --M")
            ev = LmgfEvaluator(spec, n_levels=n, seed=args.seed,
                               margin=max(args.M, DEFAULT_MARGIN))
            est, _, _, lam_t = importance_sample_hitting(
                ev, t=args.t, M=args.M, trials=args.trials, return_samples=True
            )
            try:
                j_m = lam_t * args.t - ev.value_truncated(lam_t, args.M).value
                comparison = {"J_M": j_m, "gap": est.point - j_m}
                print(f"point {est.point:.6f} vs J_M({args.t}) = {j_m:.6f}")
            except (SupercriticalError, ConvergenceError, ValueError):
                pass
        else:
            est = empirical_hitting_tail(
                spec, n=n, t=args.t, trials=args.trials, seed=args.seed,
                mode=args.mode, M=args.M,
            )
    elif args.x is not None:
        est = empirical_speed_tail(
            spec, n=n, x=args.x, trials=args.trials, seed=args.seed, mode=args.mode
        )
    else:
        raise SpecValidationError("simulate needs --t, --x or --slowdown")
    wall = time.perf_counter() - t0
    doc = est.as_dict()
    if comparison:
        doc["comparison"] = comparison
    return _write_json(
        args, "simulate", doc, wall,
        {"t": args.t, "x": args.x, "slowdown": args.slowdown,
         "levels": n, "trials": args.trials, "method": args.method,
         "M": args.M, "mode": args.mode, "_spec_hash": spec.content_hash()},
    )


def cmd_convert_bounded_jump(args) -> int:
    with open(args.kernel) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SpecValidationError(
                f"{args.kernel}: invalid JSON at line {e.lineno}: {e.msg}"
            ) from e
    for key in ("L", "R", "kernel"):
        if key not in doc:
            raise SpecValidationError(f"kernel document missing '{key}'")
    spec = embed_bounded_jump(doc["kernel"], int(doc["L"]), int(doc["R"]),
                              doc.get("kappa"))
    L, R = int(doc["L"]), int(doc["R"])
    if L != R:
        print(
            f"warning: L={L} != R={R}: the embedded strip violates full "
            "ellipticity with the documented zero pattern; its Phi has zero "
            "columns, so direction vectors with certified radii need "
            "block_mu_vectors / block_nu_vectors",
            file=sys.stderr,
        )
    out_doc = spec_to_json_dict(spec)
    text = json.dumps(out_doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote d={spec.d} strip spec to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripldp",
        description="Large-deviation rate functions for RWRE on a strip",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, levels_default=3000):
        p.add_argument("--spec", required=True, help="environment spec JSON")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--levels", type=int, default=levels_default,
                       help="window length / LDP scale n")
        p.add_argument("--out", default=None)

    p = sub.add_parser("analyze", help="regime, v0, t0, lambda_crit")
    common(p)
    p.add_argument("--tol", type=float, default=1e-6, help="lambda_crit bracket width")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("rate", help="rate-function curve (CSV)")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=["hitting", "speed", "averaged-hitting", "averaged-speed"])
    p.add_argument("--grid", required=True,
                   help="A:STEP:B (use --grid=-1:0.1:1 for negative starts)")
    p.add_argument("--M", type=int, default=None, help="excursion truncation")
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("simulate", help="tail estimates (JSON)")
    common(p, levels_default=100)
    p.add_argument("--t", type=float, default=None, help="hitting-time threshold")
    p.add_argument("--x", type=float, default=None, help="speed threshold")
    p.add_argument("--slowdown", action="store_true")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--method", choices=["direct", "is", "exact"], default="direct")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--mode", choices=["quenched", "averaged"], default="quenched")
    p.add_argument("--tol", type=float, default=None,
                   help="lambda_crit bracket width of --slowdown's comparison (default 1e-6)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("convert-bounded-jump", help="(L,R) kernel -> strip spec")
    p.add_argument("--kernel", required=True, help="kernel JSON with L, R, kernel")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_convert_bounded_jump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("levels", "trials"):
            if getattr(args, name, 1) < 1:
                raise SpecValidationError(f"--{name} must be at least 1")
        return args.fn(args)
    except (SpecValidationError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (SupercriticalError, ConvergenceError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (BudgetExhaustedError, WindowExhaustedError) as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
