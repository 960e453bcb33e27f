"""Command line: instance generation, solving, evaluation, benchmarking.

Subcommands: generate, solve, evaluate, bench, report.  Bench emits a CSV
whose body is reproducible byte-for-byte for fixed seeds; wall-clock times
go to a sidecar file so timing noise never touches the report body.
Exit codes: 0 success, 2 partial failure (some bench cells errored),
3 bad configuration.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
import time

import numpy as np

from .aggregate import Transformation, build_aggregation
from .errors import ConfigError, InfeasiblePolicy
from .hdr import HdrConfig, generate_instance, load_instance, save_instance, \
    build_hdr_aggregated, build_hdr_msilp
from .ldr import LdrVariant, benders_solve, build_ldr_model, extract_policy
from .lp_engine import Deadline, branch_and_cut
from .model import build_aggregated_extensive_form, z_values
from .sddp import SddpConfig, evaluate_policy, solve as solve_sddp
from .tolerances import DENOM_FLOOR, INT_TOL, ORDER_TOL
from .tree import build_tree

METHODS = ("ex", "sddp", "sddp-lb", "sddp-ub", "ldr-th", "ldr-t", "ldr-m")
TRANSFORMS = ("hn", "ma", "mm", "pm", "fh")
OUT_DIR_ENV = "MCSIP_OUT_DIR"
REPORT_COLUMNS = ["instance", "method", "transform", "seed", "status",
                  "objective", "bound", "gap", "cuts", "error"]


def gap_closed(obj_hn: float, obj_i: float, obj_fh: float,
               instance: str = "instance") -> float | None:
    """Percentage of the stage-only-to-full-history gap closed by a policy.

    None flags a degenerate denominator (stage-only already optimal).  A
    stage-only objective below the full-history one, which no pair of
    optima gives, is a ConfigError naming the instance."""
    if obj_hn < obj_fh - ORDER_TOL:
        raise ConfigError(f"{instance}: stage-only objective {obj_hn:g} is below "
                          f"the full-history optimum {obj_fh:g}")
    den = obj_hn - obj_fh
    if abs(den) <= DENOM_FLOOR:
        return None
    return 100.0 * (obj_hn - obj_i) / den


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        cols, rows = text.lower().split("x")
        return int(cols), int(rows)
    except Exception as exc:
        raise ConfigError(f"bad grid {text!r}, expected COLSxROWS") from exc


def _transformation(name: str, pm_attrs: list[int] | None) -> Transformation:
    if name not in TRANSFORMS:
        raise ConfigError(f"unknown transform {name!r}")
    if name == "pm":
        attrs = tuple(pm_attrs) if pm_attrs else (2,)
        return Transformation("pm", partial_attrs=attrs)
    return Transformation(name)


def _check_pm_attrs(transform: str, pm_attrs: list[int] | None) -> None:
    """--pm-attrs picks the history attributes of pm; under any other
    transform nothing would read it, so it is a ConfigError there.  A bench
    config's run-wide pm_attrs is not checked here: it applies to its pm
    cells and leaves the others alone."""
    if pm_attrs is not None and transform != "pm":
        raise ConfigError(f"--pm-attrs applies to transform pm only, not {transform}")


def _load(path: str, load):
    """load(fp) on the file at path; one that cannot be opened, holds no
    valid JSON, or lacks an entry or holds a value that load cannot read,
    is a ConfigError."""
    try:
        with open(path) as fp:
            return load(fp)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{path} has no entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def run_solve(inst, method: str, tr: Transformation, *, eps: float | None,
              k: int | None, seed: int, time_limit: float | None,
              rounds: int) -> dict:
    """One (instance, method, transform) cell; returns the solution record."""
    t0 = time.monotonic()
    deadline = Deadline(time_limit)  # the one clock of every step, model build included
    out: dict = {"method": method, "transform": tr.kind, "seed": seed}
    z = None
    if method in ("ex", "sddp", "sddp-lb", "sddp-ub"):
        m = build_hdr_msilp(inst)
        agg = build_aggregation(m.tree, tr)
        if method == "ex":
            prob = build_aggregated_extensive_form(m, agg)
            sol = branch_and_cut(prob, deadline=deadline)
            z = z_values(prob.layout.z_off, m.l, sol.x) if sol.x is not None else None
            out.update(status=sol.status, objective=sol.objective, bound=sol.bound,
                       gap=sol.gap, cuts=0)
        else:  # S-LB is the relaxed run alone; S and S-UB cost their policy
            cfg = SddpConfig(eps=eps, k=k, exact=(method == "sddp"), seed=seed,
                             deadline=deadline, max_rounds=rounds)
            res = solve_sddp(m, agg, cfg, certify=(method != "sddp-lb"))
            z = res.z_by_group
            out.update(status=res.status, objective=res.objective, bound=res.bound,
                       gap=res.gap, cuts=sum(res.cut_counts.values()))
    elif method in ("ldr-th", "ldr-t", "ldr-m"):
        agg = build_aggregation(build_tree(inst.chain, inst.config.T), tr)
        ma = build_hdr_aggregated(inst, agg)
        model = build_ldr_model(ma, agg, LdrVariant(method.split("-")[1]))
        sol = benders_solve(model, eps=eps, deadline=deadline)
        out.update(status=sol.status, objective=sol.objective, bound=sol.bound,
                   gap=sol.gap, cuts=sol.cuts)
        if sol.x is not None:
            x_by_node, z = extract_policy(model, sol)
            out["lam"] = [[list(key), v.tolist()] for key, v in sorted(sol.lam.items())]
            out["x_nodes"] = np.round(x_by_node, 9).tolist()
    else:
        raise ConfigError(f"unknown method {method!r}")
    if z is not None:
        out["z"] = [[list(g), list(map(float, v))] for g, v in sorted(z.items())]
    out["wall_time"] = time.monotonic() - t0
    return out


def _out_path(name: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    base = os.environ.get(OUT_DIR_ENV, ".")
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def cmd_generate(args) -> int:
    cols, rows = _parse_grid(args.grid)
    cfg = HdrConfig(cols=cols, rows=rows, capacity_pct=args.capacity_pct,
                    modality_type=args.modality_type, seed=args.seed)
    inst = generate_instance(cfg)
    path = _out_path(f"hdr_{args.grid}_s{args.seed}.json", args.out)
    with open(path, "w") as fp:
        save_instance(inst, fp)
    print(f"wrote {path}: {inst.n_shelters} shelters, {inst.n_dcs} DCs, "
          f"{inst.n_modalities} modalities, T={cfg.T}")
    return 0


def cmd_solve(args) -> int:
    _check_pm_attrs(args.transform, args.pm_attrs)
    run = SddpConfig(k=args.k, max_rounds=args.rounds, seed=args.seed)
    inst = _load(args.instance, load_instance)
    tr = _transformation(args.transform, args.pm_attrs)
    rec = run_solve(inst, args.method, tr, eps=args.eps, k=run.k,
                    seed=run.seed, time_limit=args.time_limit,
                    rounds=run.max_rounds)
    rec["instance"] = args.instance
    path = _out_path(f"sol_{args.method}_{args.transform}.json", args.out)
    with open(path, "w") as fp:
        json.dump(rec, fp, indent=1, sort_keys=True, allow_nan=False)
    print(f"{args.method}/{args.transform}: status={rec.get('status')} "
          f"objective={_fmt(rec.get('objective'))} bound={_fmt(rec.get('bound'))} "
          f"({rec['wall_time']:.2f}s) -> {path}")
    return 0


def _policy(entries, path: str, m, agg) -> dict:
    """The z policy of a solution record's entries, [group, values] pairs: one
    l-vector of integers within its member nodes' bounds for each group of agg
    and no other group; any other entries, or the first mismatch, are a ConfigError."""
    try:
        z = {tuple(key): np.array(vals, dtype=float) for key, vals in entries}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: z is not a list of [group, values] pairs") from exc
    kind = agg.transformation.kind
    for g in agg.group_index:
        if g not in z:
            raise ConfigError(f"{path} has no policy for group {g} of transform {kind}")
        if z[g].shape != (m.l,):
            raise ConfigError(f"{path}: group {g} holds {z[g].size} values, expected {m.l}")
    for g in z:
        if g not in agg.group_index:
            raise ConfigError(f"{path} has a policy for group {g}, "
                              f"which transform {kind} does not have")
    for node in m.tree.nodes:
        g, nd = agg.node_to_group[node.id], m.data[node.id]
        v = z[g]
        if not np.all((np.abs(v - np.round(v)) <= INT_TOL) & (nd.z_lo <= v) & (v <= nd.z_up)):
            raise ConfigError(f"{path}: group {g} holds {v.tolist()}, expected integers in bounds")
    return z


def cmd_evaluate(args) -> int:
    inst = _load(args.instance, load_instance)
    sol = _load(args.solution, json.load)
    if not isinstance(sol, dict):
        raise ConfigError(f"{args.solution} holds no solution record")
    if "z" not in sol:
        raise ConfigError(f"{args.solution} holds no integer policy "
                          f"(status {sol.get('status')})")
    transform = args.transform or sol.get("transform")
    if transform is None:
        raise ConfigError(f"{args.solution} names no transform; pass --transform")
    _check_pm_attrs(transform, args.pm_attrs)
    tr = _transformation(transform, args.pm_attrs)
    m = build_hdr_msilp(inst)
    agg = build_aggregation(m.tree, tr)
    z = _policy(sol["z"], args.solution, m, agg)
    try:
        val = evaluate_policy(m, agg, z, SddpConfig(seed=args.seed))
    except InfeasiblePolicy as exc:
        raise ConfigError(f"{args.solution}: {exc}") from exc
    print(f"exact policy value: {_fmt(val)}")
    if args.out:
        with open(args.out, "w") as fp:
            json.dump({"objective": val, "solution": args.solution}, fp, allow_nan=False)
    return 0


def _bench_cell(spec: dict) -> dict:
    try:
        if "path" in spec["instance"]:
            with open(spec["instance"]["path"]) as fp:
                inst = load_instance(fp)
        else:
            cols, rows = _parse_grid(spec["instance"]["grid"])
            given = {key: spec["instance"][key] for key in ("capacity_pct", "modality_type",
                                                            "seed") if key in spec["instance"]}
            inst = generate_instance(HdrConfig(cols=cols, rows=rows, **given))
        tr = _transformation(spec["transform"], spec["pm_attrs"])
        rec = run_solve(inst, spec["method"], tr, eps=spec["eps"], k=spec["k"],
                        seed=spec["seed"], time_limit=spec["time_limit"], rounds=spec["rounds"])
        rec["instance"] = spec["instance"].get("id", "?")
        rec["error"] = ""
        return rec
    except Exception as exc:  # per-cell error, the run continues
        return {"instance": spec["instance"].get("id", "?"),
                "method": spec["method"], "transform": spec["transform"],
                "seed": spec["seed"], "status": "error",
                "error": f"{type(exc).__name__}: {exc}", "wall_time": 0.0}


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        with open(args.config) as fp:
            conf = json.load(fp)
        instances = conf["instances"]
        methods = conf.get("methods", [])
        transforms = conf.get("transforms", ["hn"])
        if not (isinstance(instances, list) and all(isinstance(i, dict) for i in instances)):
            raise ConfigError("instances must be a list of objects")
        for spec in instances:  # a file name, else a grid that parses
            if "path" not in spec:
                _parse_grid(spec.get("grid"))
            elif not isinstance(spec["path"], str):
                raise ConfigError(f"instance path {spec['path']!r} is not a file name")
        for name, names in (("methods", methods), ("transforms", transforms)):
            if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
                raise ConfigError(f"{name} must be a list of names")
        # the run-wide settings, checked as mcsip solve checks them
        Deadline(conf.get("time_limit"))
        run = SddpConfig(k=conf.get("k"), seed=conf.get("seed", SddpConfig.seed),
                         max_rounds=conf.get("rounds", SddpConfig.max_rounds))
    except (OSError, KeyError, json.JSONDecodeError, TypeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    settings = {"pm_attrs": conf.get("pm_attrs"), "eps": conf.get("eps"), "k": run.k,
                "seed": run.seed, "time_limit": conf.get("time_limit"), "rounds": run.max_rounds}
    cells = [{"instance": spec, "method": method, "transform": tr, **settings}
             for spec in instances for method in methods for tr in transforms]
    workers = min(args.jobs, len(cells))  # the pool starts every worker at once
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_bench_cell, cells))
    else:
        results = [_bench_cell(c) for c in cells]
    results.sort(key=lambda r: (str(r.get("instance")), r.get("method", ""),
                                r.get("transform", "")))
    path = _out_path("report.csv", args.out)
    times_path = path + ".times.csv"
    with open(path, "w", newline="") as fp, open(times_path, "w", newline="") as tfp:
        w = csv.writer(fp)
        tw = csv.writer(tfp)
        w.writerow(REPORT_COLUMNS)
        tw.writerow(["instance", "method", "transform", "wall_time"])
        for rec in results:
            w.writerow([_fmt(rec.get(c)) for c in REPORT_COLUMNS])
            fp.flush()
            tw.writerow([rec.get("instance"), rec.get("method"),
                         rec.get("transform"), f"{rec.get('wall_time', 0.0):.3f}"])
    failed = sum(1 for r in results if r.get("status") == "error")
    print(f"wrote {path} ({len(results)} rows, {failed} failed)")
    return 2 if failed else 0


def _optimal_objectives(fp) -> dict[str, dict[tuple[str, str], float]]:
    """The objective of every optimal row of a bench CSV, by instance and
    (method, transform)."""
    by_inst: dict[str, dict[tuple[str, str], float]] = {}
    for row in csv.DictReader(fp):
        if row["status"] in ("optimal",) and row["objective"]:
            by_inst.setdefault(row["instance"], {})[
                (row["method"], row["transform"])] = float(row["objective"])
    return by_inst


def cmd_report(args) -> int:
    by_inst = _load(args.input, _optimal_objectives)
    print("instance        transform  gap_closed_vs_hn_fh%")
    for inst, vals in sorted(by_inst.items()):
        hn = vals.get(("ex", "hn"))
        fh = vals.get(("ex", "fh"))
        if hn is None or fh is None:
            continue
        for tr in ("ma", "pm", "mm"):
            obj = vals.get(("ex", tr))
            if obj is None:
                continue
            gc = gap_closed(hn, obj, fh, inst)
            print(f"{inst:<15} {tr:<10} {'-' if gc is None else f'{gc:.1f}'}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="mcsip",
                                 description="Markov-chain aggregation solvers "
                                             "for multi-stage stochastic MIPs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="draw a relief-planning instance")
    g.add_argument("--grid", default=f"{HdrConfig.cols}x{HdrConfig.rows}")
    g.add_argument("--capacity-pct", type=float, default=HdrConfig.capacity_pct)
    g.add_argument("--modality-type", type=int, default=HdrConfig.modality_type)
    g.add_argument("--seed", type=int, default=HdrConfig.seed)
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one instance with one method")
    s.add_argument("--instance", required=True)
    s.add_argument("--method", choices=METHODS, required=True)
    s.add_argument("--transform", choices=TRANSFORMS, default="pm")
    s.add_argument("--pm-attrs", type=int, nargs="*", default=None)
    s.add_argument("--eps", type=float, default=None)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--seed", type=int, default=SddpConfig.seed)
    s.add_argument("--time-limit", type=float, default=None)
    s.add_argument("--rounds", type=int, default=SddpConfig.max_rounds)
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("evaluate", help="exact value of a stored policy")
    e.add_argument("--instance", required=True)
    e.add_argument("--solution", required=True)
    e.add_argument("--transform", choices=TRANSFORMS, default=None)
    e.add_argument("--pm-attrs", type=int, nargs="*", default=None)
    e.add_argument("--seed", type=int, default=SddpConfig.seed)
    e.add_argument("--out")
    e.set_defaults(func=cmd_evaluate)

    b = sub.add_parser("bench", help="run a method/transform/instance matrix")
    b.add_argument("--config", required=True)
    b.add_argument("--out")
    b.add_argument("--jobs", type=int, default=1)
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("report", help="summarize a bench CSV")
    r.add_argument("--input", required=True)
    r.set_defaults(func=cmd_report)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
