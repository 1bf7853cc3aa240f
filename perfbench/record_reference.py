#!/usr/bin/env python3
"""Record the gate's reference values: one pass of every workload per seed.

    python3 perfbench/record_reference.py 0 19 [workload ...]

writes `perfbench/reference.json` with the parsed outputs of each op for
seeds 0..19, for all workloads or, when named, for those only (the other
entries are kept). Run it only on the commit whose outputs are the reference; the
benchmark then holds every later commit to them (see gate.py).
"""

import json
import os
import shutil
import sys
import tempfile

from run import OUT_DIR, REFERENCE, Run, load_program, specs_digest, write_specs
from workloads import WORKLOADS


def main(first: int, last: int, names) -> int:
    program = load_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    ref: dict = {}
    if names and os.path.isfile(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        ref[name] = {}
        for seed in range(first, last + 1):
            docs = workload.specs(seed)
            workdir = tempfile.mkdtemp(dir=OUT_DIR)
            try:
                run = Run(workload.bind(seed), seed, workdir,
                          write_specs(docs, workdir), program, None)
                obs = [r["obs"] for r in run.run_pass()]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if run.failed:
                print(json.dumps(run.ledger, indent=1), file=sys.stderr)
                return 1
            ref.setdefault(workload.name, {})[str(seed)] = {
                "specs": specs_digest(docs), "ops": obs}
            print(f"{workload.name} seed {seed}: {len(obs)} ops", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]))
