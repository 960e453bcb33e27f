"""Workloads, one solver cell at a time, and the checks behind `failed`.

A cell is one (instance, method, transform) solved through
`mcsip.cli.run_solve`, the path behind `mcsip solve` and `mcsip bench`.
Every cell must end `optimal`; its objective and bound are compared with
the values pinned in pins.json, and the cells of one pass must respect the
orderings the paper proves (restrictions above relaxations, the S-UB
sandwich around the S optimum).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

DEFAULT_INSTANCE_SEED = 5
HOLDOUT_INSTANCE_SEED = 11
CAPACITY_PCT = 0.2

# relative tolerance of the acceptance gate's criterion 3: an exact
# decomposition (S) may sit this far from the MILP optimum, so a pinned value
# and an ordering between two exact objectives are checked to it
REL_TOL = 1e-5

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


@dataclass(frozen=True)
class Workload:
    grid: tuple[int, int]
    cells: tuple[tuple[str, str], ...]
    # (cell a, field of a, cell b, field of b): a.field >= b.field, to REL_TOL
    orderings: tuple[tuple[str, str, str, str], ...] = ()
    # S-UB cell whose (objective - bound) / objective is ub_gap_pct
    ub_cell: str | None = None


WORKLOADS = {
    "ex": Workload(
        grid=(3, 5),
        cells=(("ex", "hn"), ("ex", "pm")),
        orderings=(("ex/hn", "objective", "ex/pm", "objective"),),
    ),
    "sddp": Workload(
        grid=(2, 4),
        cells=(("sddp", "hn"), ("sddp", "pm"), ("sddp", "fh"), ("sddp-ub", "pm")),
        orderings=(("sddp/hn", "objective", "sddp/pm", "objective"),
                   ("sddp/pm", "objective", "sddp/fh", "objective"),
                   ("sddp-ub/pm", "objective", "sddp/pm", "objective"),
                   ("sddp/pm", "objective", "sddp-ub/pm", "bound")),
        ub_cell="sddp-ub/pm",
    ),
    "ldr": Workload(
        grid=(2, 4),
        cells=(("ldr-m", "hn"), ("ldr-m", "pm"), ("ldr-m", "fh")),
    ),
}


def cell_id(method: str, transform: str) -> str:
    return f"{method}/{transform}"


def make_instance(workload: str, instance_seed: int):
    from mcsip.hdr import HdrConfig, generate_instance

    cols, rows = WORKLOADS[workload].grid
    return generate_instance(HdrConfig(cols=cols, rows=rows, capacity_pct=CAPACITY_PCT,
                                       seed=instance_seed))


def load_pins(workload: str, instance_seed: int) -> dict | None:
    with open(PINS_PATH) as fp:
        pins = json.load(fp)
    return pins.get(str(instance_seed), {}).get(workload)


def run_cell(inst, method: str, transform: str) -> dict:
    """Solve one cell; an exception becomes an error row, never escapes."""
    from mcsip.cli import _transformation, run_solve

    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rec = run_solve(inst, method, _transformation(transform, None), eps=None,
                        k=None, seed=0, time_limit=None, rounds=3)
        row = {"status": rec.get("status"), "objective": rec.get("objective"),
               "bound": rec.get("bound"), "error": ""}
    except Exception as exc:  # a failing cell is a result row, the run goes on
        row = {"status": "error", "objective": None, "bound": None,
               "error": f"{type(exc).__name__}: {exc}"}
    row["wall_s"] = time.perf_counter() - t0
    row["cpu_s"] = time.process_time() - c0
    row["cell"] = cell_id(method, transform)
    return row


def _close(value, ref) -> bool:
    if ref is None or value is None:
        return value is None and ref is None
    return abs(value - ref) <= REL_TOL * max(abs(ref), 1e-9)


def check_row(row: dict, pins: dict | None) -> str:
    """Reason the row fails, or '' when it passes."""
    if row["status"] != "optimal":
        return f"status {row['status']} {row['error']}".strip()
    pin = (pins or {}).get(row["cell"])
    if pin is None:
        return ""
    for key in ("objective", "bound"):
        if not _close(row[key], pin[key]):
            return f"{key} {row[key]!r} differs from pinned {pin[key]!r}"
    return ""


def check_orderings(workload: str, rows_of_pass: dict[str, dict]) -> list[tuple[str, str, str]]:
    """Violated orderings among the optimal cells of one pass: (a, b, text)."""
    bad = []
    for a, fa, b, fb in WORKLOADS[workload].orderings:
        ra, rb = rows_of_pass.get(a), rows_of_pass.get(b)
        if ra is None or rb is None or ra["status"] != "optimal" or rb["status"] != "optimal":
            continue
        if ra[fa] < rb[fb] - REL_TOL * max(abs(rb[fb]), 1.0):
            bad.append((a, b, f"{a}.{fa}={ra[fa]!r} < {b}.{fb}={rb[fb]!r}"))
    return bad


def ub_gap_pct(workload: str, rows_of_pass: dict[str, dict]) -> float | None:
    """Percent by which the S-UB policy value exceeds its certified bound."""
    row = rows_of_pass.get(WORKLOADS[workload].ub_cell)
    if row is None or row["status"] != "optimal":
        return None
    return 100.0 * (row["objective"] - row["bound"]) / abs(row["objective"])
