"""Record the reference status, objective and bound of every workload cell.

    python3 perfbench/pin.py [instance seed ...]     (default: 5 11)

Solves each cell once with the checked-out solver and writes pins.json next
to this file.  The committed pins were taken from the commit that defined
the benchmark; re-pin only when a change is meant to move an objective.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cells import (DEFAULT_INSTANCE_SEED, HOLDOUT_INSTANCE_SEED, PINS_PATH,  # noqa: E402
                   WORKLOADS, make_instance, run_cell)


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [DEFAULT_INSTANCE_SEED, HOLDOUT_INSTANCE_SEED]
    pins = {}
    if os.path.exists(PINS_PATH):
        with open(PINS_PATH) as fp:
            pins = json.load(fp)
    for seed in seeds:
        by_workload = {}
        for name, wl in WORKLOADS.items():
            inst = make_instance(name, seed)
            cells = {}
            for method, transform in wl.cells:
                row = run_cell(inst, method, transform)
                print(f"seed {seed} {name} {row['cell']}: {row['status']} "
                      f"objective={row['objective']!r} bound={row['bound']!r} "
                      f"({row['wall_s']:.2f}s) {row['error']}", flush=True)
                if row["status"] != "optimal":
                    print(f"refusing to pin a {row['status']} cell", file=sys.stderr)
                    return 1
                cells[row["cell"]] = {k: row[k] for k in ("status", "objective", "bound")}
            by_workload[name] = cells
        pins[str(seed)] = by_workload
    with open(PINS_PATH, "w") as fp:
        json.dump(pins, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
