"""Rewrite the pinned outputs from the generators the tests use.

    PYTHONPATH=src python tests/record_pins.py [--check]

`pinned_estimates.json` holds the repr of every estimate that
`test_lmgf.all_estimates` forms on four specs (`test_estimates_pinned`);
`pinned_curves.json` holds the CSV, tilt trace and warnings of every curve
in `test_rates.PINNED_CURVES` (`test_curves_pinned`);
`pinned_importance.json` holds the importance-sampled estimates that
`test_montecarlo.is_pin` forms, with the digests of their samples
(`test_importance_sampling_pinned`). Re-record only in a
change that means to move these outputs, and say in CHANGES.md which values
moved and why: the script prints every pin entry it changes, each value
that moved (old -> new) and the entry's largest relative change. With
`--check` it prints the same report, writes nothing, and exits 1 if any pin
file would change.
"""

import json
import math
import re
import sys
from pathlib import Path

from test_lmgf import ROLL_SPECS, all_estimates
from test_montecarlo import IS_PIN_M, is_pin
from test_rates import PINNED_CURVES, curve_pin

HERE = Path(__file__).parent
ESTIMATE_SPECS = ("p075", "window-d1", "window-d2", "period3-d2")
# a float as repr and the CSV write it: a decimal point or an exponent
NUMBER = re.compile(r"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)")


def parts(entry) -> dict:
    """The items of a pin entry (a list of reprs or a dict of fields), each
    as one string."""
    items = entry.items() if isinstance(entry, dict) else enumerate(entry or ())
    return {key: json.dumps(value, sort_keys=True) for key, value in items}


def moved(old: str, new: str):
    """The (old, new) numbers that differ between two items of one layout,
    or None when the text around the numbers differs too."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    return [(a, b) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)) if a != b]


def relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(y - x) / max(abs(x), abs(y))


def report(name: str, old_doc: dict, new_doc: dict) -> None:
    """Print each entry of the pin file `name` that the new document changes."""
    for key in sorted(set(old_doc) | set(new_doc)):
        old, new = parts(old_doc.get(key)), parts(new_doc.get(key))
        changed = [k for k in sorted(set(old) | set(new)) if old.get(k) != new.get(k)]
        if not changed:
            continue
        lines, worst = [], 0.0
        for item in changed:
            pairs = moved(old.get(item, ""), new.get(item, ""))
            if pairs is None:
                lines.append(f"    [{item}] rewritten: {old.get(item)} -> {new.get(item)}")
                worst = math.inf
                continue
            for a, b in pairs:
                worst = max(worst, relative(a, b))
                lines.append(f"    [{item}] {a} -> {b}")
        print(f"{name} {key}: {len(changed)} of {len(new) or len(old)} items changed, "
              f"largest relative change {worst:.2g}")
        print("\n".join(lines))


def write(name: str, doc: dict, check: bool) -> bool:
    """Report what `doc` changes in the pin file `name` and, unless `check`,
    write it; True when the file's text would change."""
    path = HERE / name
    text = json.dumps(doc, indent=1) + "\n"
    old = path.read_text() if path.exists() else None
    if old is not None:
        report(name, json.loads(old), doc)
    if not check:
        path.write_text(text)
    return old != text


def main(argv: list) -> int:
    check = argv == ["--check"]
    if argv and not check:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    changed = write("pinned_estimates.json", {
        name: [repr(e) for e in all_estimates(ROLL_SPECS[name]())]
        for name in ESTIMATE_SPECS
    }, check)
    changed |= write("pinned_curves.json", {
        name: curve_pin(make()) for name, make in PINNED_CURVES.items()
    }, check)
    changed |= write("pinned_importance.json", {
        name: is_pin(name) for name in IS_PIN_M
    }, check)
    return int(check and changed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
