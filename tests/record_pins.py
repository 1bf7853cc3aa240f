"""Rewrite the pinned outputs from the generators the tests use.

    PYTHONPATH=src python tests/record_pins.py

`pinned_estimates.json` holds the repr of every estimate that
`test_lmgf.all_estimates` forms on four specs (`test_estimates_pinned`);
`pinned_curves.json` holds the CSV, tilt trace and warnings of every curve
in `test_rates.PINNED_CURVES` (`test_curves_pinned`). Re-record only in a
change that means to move these outputs, and say in CHANGES.md which values
moved and why.
"""

import json
from pathlib import Path

from test_lmgf import ROLL_SPECS, all_estimates
from test_rates import PINNED_CURVES, curve_pin

HERE = Path(__file__).parent
ESTIMATE_SPECS = ("p075", "window-d1", "window-d2", "period3-d2")


def write(name: str, doc: dict) -> None:
    (HERE / name).write_text(json.dumps(doc, indent=1) + "\n")


def main() -> None:
    write("pinned_estimates.json", {
        name: [repr(e) for e in all_estimates(ROLL_SPECS[name]())]
        for name in ESTIMATE_SPECS
    })
    write("pinned_curves.json", {
        name: curve_pin(make()) for name, make in PINNED_CURVES.items()
    })


if __name__ == "__main__":
    main()
