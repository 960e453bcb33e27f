"""mcsip benchmark: time to a certified solution, split by layer.

    python3 perfbench/run.py --workload {ex,sddp,ldr} --seed N --seconds S --trace {0,1}
                             [--instance-seed 5]

Run from the root of a checkout; the solver is imported from ./src.  Each
workload is a list of cells, one (instance, method, transform) each, solved
through mcsip.cli.run_solve one after another in this one process.

--instance-seed is the relief generator's seed (HdrConfig.seed; 5 is the
baseline instance, 11 the hold-out).  --seed only orders the cells: every
pass runs them in a permutation drawn from it, so two seeds give different
request orders over the same instance.

--trace 0 runs cells for --seconds and prints the end-to-end metrics:
solve_s (sum over cells of the median time of one cell, scaled to the
reference machine speed by speed.py), setup_s (median over several fresh
processes of importing mcsip and generating the instance) and peak_rss_mb.  --trace 1 runs one untraced pass, then traced
passes, and prints the per-layer metrics of the median traced pass.

Every cell is checked (status optimal, objective and bound as pinned in
pins.json, orderings within a pass); the last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}.  Results, the
environment record and the spans of traced passes are written to
perfbench/out/.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import cells  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 4


def _import_solver() -> None:
    """Import mcsip from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "mcsip", "cli.py")):
        raise SystemExit(f"error: no solver sources under {SRC}")
    sys.path.insert(0, SRC)
    import mcsip.cli

    if not os.path.abspath(mcsip.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: mcsip imported from {mcsip.cli.__file__}, not {SRC}")


def _setup(workload: str, instance_seed: int):
    """Import the solver and generate the instance:
    (instance, seconds since start, seconds generating)."""
    _import_solver()
    t0 = time.perf_counter()
    inst = cells.make_instance(workload, instance_seed)
    return inst, time.perf_counter() - _T_START, time.perf_counter() - t0


def _setup_probes(workload: str, instance_seed: int) -> list[float]:
    """Set-up seconds measured in fresh interpreter processes."""
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--instance-seed", str(instance_seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if res.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {res.stderr.strip()}")
        out.append(float(res.stdout.split()[-1]))
    return out


def _environment(args) -> dict:
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fp
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mcsip")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fp:
                digest.update(name.encode() + b"\0" + fp.read())
    return {
        "workload": args.workload, "seed": args.seed,
        "instance_seed": args.instance_seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
                 f"{highs.HIGHS_VERSION_PATCH}",
        "commit": _git_commit(), "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of this checkout when it is a git work tree (read, not run)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fp:
            ref = fp.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fp:
            return fp.read().strip()
    except OSError:
        return None


class Runner:
    """Runs the cells of one workload and checks every row.

    Each row's wall seconds are also scaled to the reference speed by the
    speed probe run after every cell (see speed.py)."""

    def __init__(self, workload: str, inst, seed: int, pins: dict | None, speed):
        self.workload, self.inst, self.pins, self.speed = workload, inst, pins, speed
        self.cells = cells.WORKLOADS[workload].cells
        self.rng = random.Random(seed)
        self.rows: list[dict] = []
        self.passes = 0

    def order(self) -> list[tuple[str, str]]:
        shuffled = list(self.cells)
        self.rng.shuffle(shuffled)
        return shuffled

    def run(self, method: str, transform: str, tracer=None) -> dict:
        if tracer is None:
            row = cells.run_cell(self.inst, method, transform)
        else:
            with tracer.root("cli.run_solve", "cli"):
                row = cells.run_cell(self.inst, method, transform)
        row["ref_s"] = row["wall_s"] * self.speed.scale()
        row["pass"] = self.passes
        row["traced"] = tracer is not None
        row["failed"] = cells.check_row(row, self.pins)
        self.rows.append(row)
        return row

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """One pass over every cell in a fresh order: (wall s, reference s)."""
        rows = [self.run(method, transform, tracer) for method, transform in self.order()]
        self.passes += 1
        return sum(r["wall_s"] for r in rows), sum(r["ref_s"] for r in rows)

    def by_pass(self) -> list[dict[str, dict]]:
        passes: dict[int, dict[str, dict]] = {}
        for row in self.rows:
            passes.setdefault(row["pass"], {})[row["cell"]] = row
        return list(passes.values())

    def check_passes(self) -> None:
        """Apply the within-pass orderings; violating cells count as failed."""
        for rows in self.by_pass():
            for a, b, text in cells.check_orderings(self.workload, rows):
                for cell in (a, b):
                    rows[cell]["failed"] = rows[cell]["failed"] or f"ordering: {text}"

    def ub_gaps(self) -> list[float]:
        gaps = [cells.ub_gap_pct(self.workload, rows) for rows in self.by_pass()]
        return [g for g in gaps if g is not None]


def _medians(rows: dict[str, list[dict]], key: str) -> dict[str, float]:
    return {cid: statistics.median(r[key] for r in rs) for cid, rs in rows.items()}


def _sample_cells(runner: Runner, seconds: float) -> dict[str, list[dict]]:
    """Run cells, whole passes in seeded orders, until the next cell would
    overrun `seconds`; every cell runs at least once."""
    rows: dict[str, list[dict]] = {}
    t0 = time.perf_counter()
    while True:
        for method, transform in runner.order():
            cid = f"{method}/{transform}"
            if len(rows) == len(runner.cells) and time.perf_counter() - t0 + \
                    statistics.median(r["wall_s"] for r in rows[cid]) > seconds:
                return rows
            rows.setdefault(cid, []).append(runner.run(method, transform))
        runner.passes += 1


def run_untraced(args, runner: Runner, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics; solve_s sums each cell's median reference seconds."""
    rows = _sample_cells(runner, args.seconds)
    runner.check_passes()
    ref_s, wall_s = _medians(rows, "ref_s"), _medians(rows, "wall_s")
    metrics = {
        "solve_s": sum(ref_s.values()),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"cell_median_ref_s": ref_s, "cell_median_wall_s": wall_s,
             "solve_wall_s": sum(wall_s.values())}
    return metrics, extra


def run_traced(args, runner: Runner, generate_s: float, env: dict) -> tuple[dict, dict]:
    """One untraced pass, then traced passes until --seconds is used up;
    per-layer metrics of the median traced pass."""
    t0 = time.perf_counter()
    _, untraced_ref = runner.run_pass()
    tracer = tracing.Tracer()
    passes = []
    tracer.install()
    try:
        while True:
            wall, ref = runner.run_pass(tracer)
            spans, engines = tracer.take()
            m = tracing.layer_metrics(spans, engines, tracer.kind_of, tracer.layer_of)
            m["trace.solve_s"], m["trace.solve_ref_s"] = wall, ref
            passes.append((m, spans))
            if time.perf_counter() - t0 + wall > args.seconds:
                break
    finally:
        tracer.restore()
    left = tracing.leftover_wrappers()
    runner.check_passes()

    # counts must repeat exactly: between traced passes here, and against
    # the first traced run of this code on this instance
    counts = [{k: m[k] for k in tracing.COUNT_METRICS} for m, _ in passes]
    mismatches = [f"pass {i}: {k} {c[k]} != {counts[0][k]}"
                  for i, c in enumerate(counts[1:], 1) for k in c if c[k] != counts[0][k]]
    compared = len(counts) - 1
    ref_name = f"counts-{args.workload}-i{args.instance_seed}-{env['src_sha256'][:16]}.json"
    if os.path.exists(os.path.join(OUT_DIR, ref_name)):
        with open(os.path.join(OUT_DIR, ref_name)) as fp:
            earlier = json.load(fp)
        mismatches += [f"earlier run: {k} {counts[0][k]} != {earlier.get(k)}"
                       for k in counts[0] if earlier.get(k) != counts[0][k]]
        compared += 1
    else:
        _write(ref_name, counts[0])
    for text in mismatches:
        print(f"COUNTS DO NOT REPEAT: {text}", file=sys.stderr)

    passes.sort(key=lambda p: p[0]["trace.solve_s"])
    med, spans = passes[(len(passes) - 1) // 2]
    metrics = dict(med)
    metrics.update({
        "hdr.generate_s": generate_s,
        "sddp.ub_gap_pct": statistics.median(runner.ub_gaps() or [0.0]),
        "trace.untraced_solve_ref_s": untraced_ref,
        "trace.overhead_s": med["trace.solve_ref_s"] - untraced_ref,
        "trace.overhead_est_s": len(spans) * tracing.span_cost(),
        "trace.self_gap_s": med["trace.solve_s"] - med["self.sum_s"],
        "trace.passes": len(passes),
        "trace.spans": len(spans),
        "trace.counts_compared": compared,
        "trace.counts_repeat": 0 if mismatches else 1,
        "trace.restored": 0 if left else 1,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{args.workload}-i{args.instance_seed}-"
                                    f"s{args.seed}.jsonl"), "w") as fp:
        for i, s in enumerate(spans):
            fp.write(json.dumps({"id": i, "name": s[0], "start": s[1], "end": s[2],
                                 "parent": s[3], "count": s[4]}) + "\n")
    return metrics, {"count_mismatches": mismatches, "leftover_wrappers": left}


def _write(name: str, payload) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fp:
        json.dump(payload, fp, indent=1, sort_keys=True)
    return path


def _unit(name: str) -> str:
    for suffix, unit in (("_ms.median", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_frac", "fraction"), ("_pct", "%"), ("_per_lp", "1/LP")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(cells.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance-seed", type=int, default=cells.DEFAULT_INSTANCE_SEED)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    inst, setup_s, generate_s = _setup(args.workload, args.instance_seed)
    if args.setup_probe:
        print(f"{setup_s!r}")
        return 0
    from speed import Speedometer

    env = _environment(args)
    pins = cells.load_pins(args.workload, args.instance_seed)
    runner = Runner(args.workload, inst, args.seed, pins, Speedometer())
    if args.trace:
        metrics, extra = run_traced(args, runner, generate_s, env)
        correct = not extra["leftover_wrappers"]
    else:
        setups = [setup_s] + _setup_probes(args.workload, args.instance_seed)
        metrics, extra = run_untraced(args, runner, statistics.median(setups))
        extra["setup_samples_s"] = setups
        correct = True
    attempted = len(runner.rows)
    failed = sum(1 for r in runner.rows if r["failed"])
    for row in runner.rows:
        if row["failed"]:
            print(f"FAILED {row['cell']} pass {row['pass']}: {row['failed']}", file=sys.stderr)
    extra.update(failed_frac=failed / attempted, pinned=pins is not None,
                 ub_gap_pct=runner.ub_gaps(), passes=runner.passes)
    path = _write(f"result-{args.workload}-i{args.instance_seed}-s{args.seed}-t{args.trace}.json",
                  {"env": env, "metrics": metrics, "rows": runner.rows, **extra})
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload}: {attempted} cells, {runner.passes} whole passes, {failed} failed "
          f"(failed_frac {failed / attempted:.3g}), pins {'checked' if pins else 'absent'}; "
          f"details in {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
