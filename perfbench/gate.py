"""Correctness gate for the outputs of one op.

Three layers of checks, each returning a list of problems (empty = pass):

* `invariants`: what must hold for any spec and seed (ordered brackets,
  nonnegative finite rates on the requested grid, CIs around their point);
* `closed_form`: the p = 0.75 walk against `oracle`;
* `against_reference`: the values recorded at the seed commit for this
  (workload, seed, op), in `reference.json`. Deterministic values must agree
  to a relative 1e-6; Monte Carlo estimates must have their 95% interval
  overlap the recorded one. Error-bar columns are not compared.

Byte-identical reruns are checked by the runner (`fingerprint`).
"""

from __future__ import annotations

import json
import math

import oracle

P075 = 0.75
REL = 1e-6
CRIT_ABS = 1e-5  # a bisection verdict may flip at the last step
REGIMES = ("transient-right", "recurrent", "transient-left")


# ---------------------------------------------------------------------------
# parsing the CLI outputs
# ---------------------------------------------------------------------------


def parse_output(command: str, text: str) -> dict:
    """Observable values of an op's --out file."""
    if command in ("analyze", "simulate"):
        doc = json.loads(text)
        doc.pop("manifest", None)
        return doc
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        elif line and not line.startswith("abscissa"):
            rows.append([float(x) for x in line.split(",")])
    header.pop("manifest", None)
    cols = list(zip(*rows)) if rows else [(), (), (), (), ()]
    return {
        "kind": header.get("kind"),
        "regime": header.get("regime"),
        "lambda_crit": [float(header["lambda_crit_lo"]), float(header["lambda_crit_hi"])]
        if "lambda_crit_lo" in header else None,
        "t_star": float(header["t_star"]) if "t_star" in header else None,
        "abscissa": list(cols[0]),
        "value": list(cols[1]),
        "argmax": list(cols[2]),
    }


def fingerprint(out_text: str, manifest_text: str) -> str:
    """Output bytes plus the manifest without its wall-clock field."""
    manifest = json.loads(manifest_text)
    manifest.pop("wall_clock_s", None)
    return out_text + json.dumps(manifest, sort_keys=True)


def grid_of(args) -> list[float]:
    """The abscissae the CLI evaluates for `--grid A:STEP:B` (same rule)."""
    for i, a in enumerate(args):
        if a.startswith("--grid="):
            text = a.split("=", 1)[1]
            break
        if a == "--grid":
            text = args[i + 1]
            break
    else:
        return []
    a, step, b = (float(x) for x in text.split(":"))
    count = int(round((b - a) / step)) + 1
    return [a + step * k for k in range(count) if a + step * k <= b + 1e-9]


def _arg(args, name, default=None):
    return args[args.index(name) + 1] if name in args else default


def _close(a, b, rel=REL, abs_=1e-9) -> bool:
    if isinstance(a, float) and isinstance(b, float) and (math.isnan(a) or math.isnan(b)):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def invariants(op, obs: dict, stderr: str) -> list[str]:
    bad = []
    if op.command == "analyze":
        lo, hi = obs["lambda_crit"]
        if obs["regime"] not in REGIMES:
            bad.append(f"unknown regime {obs['regime']!r}")
        if not lo <= hi or hi - lo > 1.5 * float(_arg(op.args, "--tol", 1e-6)):
            bad.append(f"lambda_crit bracket [{lo}, {hi}] not ordered or too wide")
        if obs["regime"] == "transient-right":
            t0, v0 = obs["t0"], obs["v0"]
            if not (1.0 <= t0 < math.inf and _close(v0 * t0, 1.0, 1e-9)):
                bad.append(f"t0={t0}, v0={v0} inconsistent")
            if obs["t_star"] < t0 - 1e-6:
                bad.append(f"t_star={obs['t_star']} < t0={t0}")
    elif op.command == "rate":
        want = grid_of(op.args)
        if len(obs["abscissa"]) != len(want) or not all(
                _close(a, b, 0, 1e-12) for a, b in zip(obs["abscissa"], want)):
            bad.append("abscissae differ from the requested grid")
        vals = obs["value"]
        if not all(math.isfinite(v) and v >= -1e-9 for v in vals):
            bad.append(f"rate values not finite and nonnegative: {vals}")
        if obs["kind"] == "speed" and 0.0 in obs["abscissa"]:
            lo, hi = obs["lambda_crit"]
            i0 = vals[obs["abscissa"].index(0.0)]
            if not lo <= i0 <= hi:
                bad.append(f"I(0)={i0} outside the lambda_crit bracket")
        for w in stderr.splitlines():
            if w.startswith("shape warning"):
                bad.append(w)
    elif op.command == "simulate":
        lo, hi = obs["ci"]
        if not lo <= obs["point"] <= hi or not math.isfinite(obs["point"]):
            bad.append(f"point {obs['point']} outside its CI {obs['ci']}")
        if obs["method"] != "exact" and obs["trials"] != int(_arg(op.args, "--trials", 100000)):
            bad.append(f"ran {obs['trials']} trials")
        if obs["method"] in ("importance-sampled", "direct") and obs["hits"] <= 0:
            bad.append("no hits")
        if obs["method"] == "importance-sampled" and not obs["ess"] > 0:
            bad.append(f"ess={obs['ess']}")
    return bad


def closed_form(op, obs: dict) -> list[str]:
    bad = []
    if op.oracle == "p075-analyze":
        lo, hi = obs["lambda_crit"]
        lc = oracle.lambda_crit(P075)
        if not lo <= lc <= hi:
            bad.append(f"lambda_crit bracket [{lo}, {hi}] misses {lc}")
        if abs(obs["t0"] - 1.0 / (2 * P075 - 1)) > 1e-4:
            bad.append(f"t0={obs['t0']} != 2")
    elif op.oracle == "p075-hitting":
        for t, v in zip(obs["abscissa"], obs["value"]):
            want = oracle.hitting_rate(P075, t)
            if abs(v - want) > 1e-8:
                bad.append(f"J({t})={v} != closed form {want}")
    elif op.oracle == "p075-speed":
        for x, v in zip(obs["abscissa"], obs["value"]):
            want = oracle.speed_rate(P075, x)
            tol = 1.5e-6 if x == 0.0 else 1e-8  # I(0) is the bracket midpoint
            if abs(v - want) > tol:
                bad.append(f"I({x})={v} != Cramer {want}")
    return bad


def _overlap(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def against_reference(op, obs: dict, ref: dict) -> list[str]:
    bad = []

    def same(key, a, b, **kw):
        if not _close(a, b, **kw):
            bad.append(f"{key}={a} != reference {b}")

    if op.command == "analyze":
        for key in ("regime", "ambiguous"):
            if obs[key] != ref[key]:
                bad.append(f"{key}={obs[key]!r} != reference {ref[key]!r}")
        for a, b in zip(obs["lambda_crit"], ref["lambda_crit"]):
            same("lambda_crit", a, b, rel=0, abs_=CRIT_ABS)
        for key in ("t0", "v0", "lambda_at_zero"):
            same(key, obs[key], ref[key])
        if obs["lambda_crit"] == ref["lambda_crit"]:
            same("t_star", obs["t_star"], ref["t_star"])
    elif op.command == "rate":
        crit = ref["lambda_crit"][0] if ref["lambda_crit"] else None
        for t, v, rv, ra in zip(obs["abscissa"], obs["value"], ref["value"], ref["argmax"]):
            if crit is not None and ra == crit:
                # linear branch lambda_crit * t - Lambda(lambda_crit)
                same(f"value({t})", v, rv, rel=0, abs_=CRIT_ABS * max(1.0, abs(t)))
            else:
                same(f"value({t})", v, rv, abs_=1e-8)
    elif op.command == "simulate":
        if obs["method"] == "exact":
            same("point", obs["point"], ref["point"])
        elif not _overlap(obs["ci"], ref["ci"]):
            bad.append(f"CI {obs['ci']} misses the reference CI {ref['ci']}")
        for key, val in (obs.get("comparison") or {}).items():
            if key == "J_M":
                same(key, val, ref["comparison"][key])
            elif key == "lambda_crit":
                same(key, val, ref["comparison"][key], rel=0, abs_=CRIT_ABS)
    return bad
