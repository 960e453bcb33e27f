import csv
import json
import os
import time

import numpy as np
import pytest

from mcsip import cli, lp_engine, sddp
from mcsip.aggregate import Transformation
from mcsip.cli import gap_closed, main, run_solve
from mcsip.lp_engine import Deadline

from conftest import CueDeadline


def test_gap_closed_endpoints():
    assert gap_closed(100.0, 80.0, 80.0) == pytest.approx(100.0)
    assert gap_closed(100.0, 100.0, 80.0) == pytest.approx(0.0)


def test_gap_closed_reference_values():
    assert gap_closed(104162.0, 92924.0, 82193.0) == pytest.approx(51.15, abs=0.01)


def test_gap_closed_degenerate_denominator():
    assert gap_closed(100.0, 100.0, 100.0) is None


def test_gap_closed_rejects_inverted_inputs():
    with pytest.raises(ValueError):
        gap_closed(80.0, 90.0, 100.0)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["generate", "--grid", "2x4", "--capacity-pct", "0.2",
               "--seed", "5", "--out", str(d / "inst.json")])
    assert rc == 0
    return d


def test_generate_solve_evaluate_round_trip(workdir):
    d = workdir
    rc = main(["solve", "--instance", str(d / "inst.json"), "--method", "ex",
               "--transform", "pm", "--out", str(d / "ex.json")])
    assert rc == 0
    sol = json.loads((d / "ex.json").read_text())
    assert sol["status"] == "optimal"
    assert sol["z"]
    rc = main(["evaluate", "--instance", str(d / "inst.json"),
               "--solution", str(d / "ex.json"), "--out", str(d / "eval.json")])
    assert rc == 0
    ev = json.loads((d / "eval.json").read_text())
    assert ev["objective"] == pytest.approx(sol["objective"], rel=1e-6)


def test_evaluate_of_a_record_without_a_policy_exits_3(workdir, capsys):
    d = workdir
    rc = main(["solve", "--instance", str(d / "inst.json"), "--method", "ex",
               "--transform", "pm", "--time-limit", "1e-9", "--out", str(d / "none.json")])
    assert rc == 0 and "z" not in json.loads((d / "none.json").read_text())
    capsys.readouterr()
    rc = main(["evaluate", "--instance", str(d / "inst.json"),
               "--solution", str(d / "none.json")])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and "no integer policy" in err


@pytest.mark.parametrize("cmd", ["solve", "evaluate"])
def test_missing_instance_file_exits_3(workdir, tmp_path, capsys, cmd):
    missing = str(tmp_path / "missing.json")
    rest = ["--method", "ex"] if cmd == "solve" else ["--solution", str(workdir / "x.json")]
    rc = main([cmd, "--instance", missing] + rest)
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and missing in err


def test_missing_report_input_exits_3(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    rc = main(["report", "--input", missing])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and missing in err


@pytest.mark.parametrize("flag", ["--instance", "--solution"])
def test_file_holding_invalid_json_exits_3(workdir, tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    if flag == "--instance":
        argv = ["solve", "--instance", str(bad), "--method", "ex"]
    else:
        argv = ["evaluate", "--instance", str(workdir / "inst.json"), "--solution", str(bad)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert str(bad) in err


def _instance_doc(workdir, **changes) -> dict:
    doc = json.loads((workdir / "inst.json").read_text())
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc", [{}, {"schema_version": 99}],
                         ids=["empty", "unsupported-schema"])
def test_instance_file_that_is_no_instance_exits_3(workdir, tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc and _instance_doc(workdir, **doc)))
    rc = main(["solve", "--instance", str(bad), "--method", "ex"])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert str(bad) in err and ("schema_version" if not doc else "99") in err


def test_report_input_without_a_status_column_exits_3(tmp_path, capsys):
    bad = tmp_path / "r.csv"
    bad.write_text("instance,method,transform,objective\ni,ex,hn,100\n")
    rc = main(["report", "--input", str(bad)])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert str(bad) in err and "status" in err


def test_evaluate_of_a_record_without_a_transform_exits_3(workdir, tmp_path, capsys):
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps({"status": "optimal", "z": []}))
    rc = main(["evaluate", "--instance", str(workdir / "inst.json"), "--solution", str(rec)])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert "--transform" in err


BAD_RECORDS = [([], "no solution record"), ("x", "no solution record"),
               ({"status": "optimal", "transform": "pm", "z": 5}, "[group, values] pairs"),
               ({"status": "optimal", "transform": "pm", "z": [[1]]}, "[group, values] pairs")]


@pytest.mark.parametrize("rec,word", BAD_RECORDS,
                         ids=["list", "string", "z-number", "z-entry-no-pair"])
def test_evaluate_of_a_record_of_another_form_exits_3(workdir, tmp_path, capsys, rec, word):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(rec))
    rc = main(["evaluate", "--instance", str(workdir / "inst.json"), "--solution", str(path)])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert str(path) in err and word in err


BAD_SETTINGS = [("sddp", "--k", "0", "k"), ("sddp", "--eps", "-1", "eps"),
                ("sddp", "--eps", "inf", "eps"), ("ldr-m", "--eps", "-1", "eps"),
                ("ldr-m", "--eps", "inf", "eps"), ("sddp", "--seed", "-1", "seed"),
                ("ex", "--pm-attrs", "9", "attribute"), ("sddp-lb", "--rounds", "0", "rounds"),
                ("sddp-lb", "--rounds", "-2", "rounds"),
                ("sddp", "--time-limit", "nan", "time limit"),
                ("ex", "--time-limit", "-1", "time limit"),
                ("ldr-m", "--time-limit", "-1", "time limit")]


@pytest.mark.parametrize("method,flag,value,word", BAD_SETTINGS,
                         ids=[f"{m}-{f}-{v}" for m, f, v, _ in BAD_SETTINGS])
def test_bad_solver_setting_exits_3(workdir, tmp_path, capsys, method, flag, value, word):
    rc = main(["solve", "--instance", str(workdir / "inst.json"), "--method", method,
               flag, value, "--out", str(tmp_path / "sol.json")])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert word in err and not (tmp_path / "sol.json").exists()


BAD_GENERATE = [("--grid", "0x4", "column"), ("--capacity-pct", "-1", "capacity_pct"),
                ("--modality-type", "9", "modality_type"), ("--seed", "-3", "seed")]


@pytest.mark.parametrize("flag,value,word", BAD_GENERATE,
                         ids=[f"{f}-{v}" for f, v, _ in BAD_GENERATE])
def test_bad_generate_setting_exits_3(tmp_path, capsys, flag, value, word):
    rc = main(["generate", flag, value, "--out", str(tmp_path / "inst.json")])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert word in err and not (tmp_path / "inst.json").exists()


POLICY_MISFITS = [("other-transform", "no policy for group"),
                  ("short-vector", "values, expected"),
                  ("above-bounds", "expected integers in bounds"),
                  ("fractional", "expected integers in bounds"),
                  ("infeasible-in-bounds", "no feasible")]


@pytest.mark.parametrize("case,word", POLICY_MISFITS, ids=[c for c, _ in POLICY_MISFITS])
def test_evaluate_of_a_policy_that_does_not_fit_the_aggregation_exits_3(
        workdir, tmp_path, capsys, case, word):
    d = workdir
    rc = main(["solve", "--instance", str(d / "inst.json"), "--method", "ex",
               "--transform", "hn", "--out", str(tmp_path / "hn.json")])
    assert rc == 0
    argv = ["evaluate", "--instance", str(d / "inst.json"), "--solution", str(tmp_path / "hn.json")]
    rec = json.loads((tmp_path / "hn.json").read_text())
    if case == "other-transform":
        argv += ["--transform", "pm"]
    elif case == "short-vector":
        rec["z"][1][1] = rec["z"][1][1][:-1]
    elif case == "infeasible-in-bounds":  # every modality chosen everywhere breaks the z-rows
        rec["z"] = [[g, [1.0] * len(vals)] for g, vals in rec["z"]]
    else:
        rec["z"][0][1][0] = 2.0 if case == "above-bounds" else 0.5
    (tmp_path / "hn.json").write_text(json.dumps(rec))
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert word in err


def test_solve_ldr_writes_rule_and_inventories(workdir):
    d = workdir
    rc = main(["solve", "--instance", str(d / "inst.json"), "--method", "ldr-m",
               "--transform", "pm", "--out", str(d / "ldr.json")])
    assert rc == 0
    sol = json.loads((d / "ldr.json").read_text())
    assert sol["lam"] and sol["x_nodes"]


def bench_config(d, methods, transforms, bad=False):
    conf = {
        "instances": [{"grid": "2x4", "capacity_pct": 0.2, "seed": 5, "id": "toy5"}],
        "methods": methods,
        "transforms": transforms,
        "seed": 0,
    }
    if bad:
        conf["instances"][0]["grid"] = "2x4"
    p = d / "bench.json"
    p.write_text(json.dumps(conf))
    return p


def test_bench_empty_methods_gives_header_only(workdir, tmp_path):
    conf = bench_config(tmp_path, [], [])
    rc = main(["bench", "--config", str(conf), "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("instance,method,transform")


def test_bench_rows_and_oracle_equality(tmp_path):
    conf = bench_config(tmp_path, ["ex", "sddp"], ["hn", "fh"])
    rc = main(["bench", "--config", str(conf), "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    with open(tmp_path / "r.csv") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 4
    by = {(r["method"], r["transform"]): float(r["objective"]) for r in rows}
    for tr in ("hn", "fh"):
        assert by[("sddp", tr)] == pytest.approx(by[("ex", tr)], rel=1e-5)
    # a sidecar holds the wall times so the report body stays reproducible
    assert os.path.exists(str(tmp_path / "r.csv") + ".times.csv")


def test_bench_reruns_are_byte_identical(tmp_path):
    conf = bench_config(tmp_path, ["ex", "sddp-lb"], ["pm"])
    main(["bench", "--config", str(conf), "--out", str(tmp_path / "a.csv")])
    main(["bench", "--config", str(conf), "--out", str(tmp_path / "b.csv")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_bench_parallel_jobs_match_serial(tmp_path):
    conf = bench_config(tmp_path, ["ex"], ["hn", "fh"])
    main(["bench", "--config", str(conf), "--out", str(tmp_path / "s.csv")])
    main(["bench", "--config", str(conf), "--out", str(tmp_path / "p.csv"),
          "--jobs", "2"])
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


def test_bench_partial_failure_exit_code(tmp_path):
    conf_path = tmp_path / "bad.json"
    conf_path.write_text(json.dumps({
        "instances": [{"grid": "2x4", "seed": 5, "id": "t"}],
        "methods": ["nosuch"],
        "transforms": ["hn"],
    }))
    rc = main(["bench", "--config", str(conf_path), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    with open(tmp_path / "r.csv") as fp:
        rows = list(csv.DictReader(fp))
    assert rows[0]["status"] == "error" and rows[0]["error"]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_jobs_below_one_exits_3(tmp_path, capsys, jobs):
    conf = bench_config(tmp_path, ["ex"], ["hn"])
    rc = main(["bench", "--config", str(conf), "--out", str(tmp_path / "r.csv"), "--jobs", jobs])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and "--jobs" in err
    assert not (tmp_path / "r.csv").exists()


def test_bench_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # the pool forks all its workers up front, so --jobs is capped at the
    # cell count; a stand-in pool records the size and runs the cells here
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_bench_cell", lambda spec: {
        "instance": "t", "method": spec["method"], "transform": spec["transform"],
        "status": "optimal", "wall_time": 0.0})
    for transforms, jobs in ((["hn", "fh"], "1000000"), (["hn"], "64"), (["hn", "fh"], "1")):
        conf = bench_config(tmp_path, ["ex"], transforms)
        assert main(["bench", "--config", str(conf), "--out", str(tmp_path / "r.csv"),
                     "--jobs", jobs]) == 0
    assert sizes == [2]  # one cell, or --jobs 1, runs without a pool


@pytest.mark.parametrize("key,value,word", [("time_limit", -1, "time limit"),
                                             ("seed", -1, "seed"), ("rounds", 0, "rounds")])
def test_bench_bad_run_setting_exits_3_before_any_cell(tmp_path, capsys, key, value, word):
    conf = json.loads(bench_config(tmp_path, ["ex", "sddp-lb"], ["pm"]).read_text())
    conf[key] = value
    (tmp_path / "bench.json").write_text(json.dumps(conf))
    rc = main(["bench", "--config", str(tmp_path / "bench.json"), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert word in err and not (tmp_path / "r.csv").exists()


BAD_BENCH_FORMS = [("instances", ["x"], "instances"), ("instances", 3, "instances"),
                   ("methods", "ex", "methods"), ("transforms", "pm", "transforms"),
                   ("instances", [{"path": 999, "id": "t"}], "path"),
                   ("instances", [{"grid": "9", "id": "t"}], "grid"),
                   ("instances", [{"grid": 24, "id": "t"}], "grid"),
                   ("instances", [{"seed": 5, "id": "t"}], "grid")]


@pytest.mark.parametrize("key,value,word", BAD_BENCH_FORMS,
                         ids=["instances-of-strings", "instances-number", "methods-string",
                              "transforms-string", "path-number", "grid-unparsed",
                              "grid-number", "no-path-no-grid"])
def test_bench_config_of_another_form_exits_3_before_any_cell(tmp_path, capsys, key, value,
                                                              word):
    conf = json.loads(bench_config(tmp_path, ["ex"], ["pm"]).read_text())
    conf[key] = value
    (tmp_path / "bench.json").write_text(json.dumps(conf))
    rc = main(["bench", "--config", str(tmp_path / "bench.json"), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert word in err and not (tmp_path / "r.csv").exists()


def test_bench_config_error_exit_code(tmp_path):
    missing = tmp_path / "none.json"
    rc = main(["bench", "--config", str(missing), "--out", str(tmp_path / "r.csv")])
    assert rc == 3


def test_report_summarizes_gap_closed(tmp_path, capsys):
    rows = [
        {"instance": "i", "method": "ex", "transform": "hn", "seed": 0,
         "status": "optimal", "objective": "100", "bound": "100", "gap": "0",
         "cuts": "0", "error": ""},
        {"instance": "i", "method": "ex", "transform": "ma", "seed": 0,
         "status": "optimal", "objective": "90", "bound": "90", "gap": "0",
         "cuts": "0", "error": ""},
        {"instance": "i", "method": "ex", "transform": "fh", "seed": 0,
         "status": "optimal", "objective": "80", "bound": "80", "gap": "0",
         "cuts": "0", "error": ""},
    ]
    p = tmp_path / "r.csv"
    with open(p, "w", newline="") as fp:
        w = csv.DictWriter(fp, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    rc = main(["report", "--input", str(p)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "50.0" in out


def test_report_of_a_stage_only_objective_below_full_history_exits_3(tmp_path, capsys):
    p = tmp_path / "r.csv"
    p.write_text("instance,method,transform,status,objective\n"
                 "inst7,ex,hn,optimal,80\ninst7,ex,pm,optimal,90\ninst7,ex,fh,optimal,100\n")
    rc = main(["report", "--input", str(p)])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("config error:")
    assert "inst7" in err


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MCSIP_OUT_DIR", str(tmp_path / "outs"))
    rc = main(["generate", "--grid", "2x4", "--seed", "1"])
    assert rc == 0
    assert os.path.exists(tmp_path / "outs" / "hdr_2x4_s1.json")



PM = Transformation("pm", partial_attrs=(2,))


def test_sddp_ub_without_incumbent_is_a_time_limit_row(hdr_toy):
    # the lower-bound run stops before it has an incumbent policy
    rec = run_solve(hdr_toy, "sddp-ub", PM, eps=None, k=None, seed=0,
                    time_limit=1e-9, rounds=3)
    assert rec["status"] == "time_limit" and rec["objective"] is None
    assert rec["bound"] is None


@pytest.mark.parametrize("method", ["ex", "sddp", "sddp-lb", "sddp-ub", "ldr-m"])
def test_time_limit_before_the_root_lp_gives_a_json_record(hdr_toy, method):
    # no node LP solved: the record carries no -inf bound and is valid JSON
    rec = run_solve(hdr_toy, method, PM, eps=None, k=None, seed=0,
                    time_limit=1e-9, rounds=3)
    assert rec["status"] == "time_limit" and rec["bound"] is None
    json.dumps(rec, allow_nan=False)


def test_sddp_ub_evaluation_time_limit_is_a_row(hdr_toy, monkeypatch):
    # the deadline passes once the bound run is over, as the incumbent's
    # exact evaluation starts: the bound and z stay, the objective does not
    deadline = CueDeadline()
    monkeypatch.setattr(cli, "Deadline", lambda limit: deadline)
    cost = sddp._policy_cost

    def expiring_cost(engine, z):
        deadline.expired = True
        return cost(engine, z)

    monkeypatch.setattr(sddp, "_policy_cost", expiring_cost)
    rec = run_solve(hdr_toy, "sddp-ub", PM, eps=None, k=None, seed=0,
                    time_limit=None, rounds=3)
    assert rec["status"] == "time_limit" and rec["objective"] is None
    assert rec["gap"] is None and np.isfinite(rec["bound"]) and rec["z"]


def test_sddp_ub_evaluation_shares_the_bound_runs_deadline(hdr_toy, monkeypatch):
    # the bound run and the evaluation of its policy run on one SddpEngine,
    # which reads the one Deadline run_solve made
    made, seen = [], []
    monkeypatch.setattr(cli, "Deadline", lambda limit: made.append(Deadline(limit)) or made[-1])
    init = sddp.SddpEngine.__init__

    def recording_init(self, m, agg, cfg, *rest):
        seen.append(cfg.deadline)
        init(self, m, agg, cfg, *rest)

    monkeypatch.setattr(sddp.SddpEngine, "__init__", recording_init)
    rec = run_solve(hdr_toy, "sddp-ub", PM, eps=None, k=None, seed=0,
                    time_limit=60.0, rounds=3)
    assert rec["status"] == "optimal" and np.isfinite(rec["objective"])
    assert len(made) == 1 and made[0].end is not None
    assert len(seen) == 1 and seen[0] is made[0]


def test_deadline_in_the_root_cut_loop_leaves_branch_and_cut_no_node(hdr_toy, monkeypatch):
    # the deadline passes inside the root cut loop's second oracle call:
    # no subproblem LP follows, branch and cut starts after it and solves
    # no node LP, and the record carries the loop's last relaxation
    # objective as its bound
    opt = run_solve(hdr_toy, "ex", PM, eps=None, k=None, seed=0, time_limit=None,
                    rounds=3)["objective"]
    deadline = CueDeadline()
    monkeypatch.setattr(cli, "Deadline", lambda limit: deadline)
    separate, calls = sddp._MasterOracle.separate, []

    def expiring_separate(self, x):
        calls.append(x)
        deadline.expired = len(calls) >= 2
        return separate(self, x)

    monkeypatch.setattr(sddp._MasterOracle, "separate", expiring_separate)
    bnc, started = sddp.branch_and_cut, []
    monkeypatch.setattr(sddp, "branch_and_cut", lambda *a, **kw:
                        started.append(deadline.expired) or bnc(*a, **kw))
    late_lps = []
    for module in (lp_engine, sddp):  # node LPs, and subproblem and root-loop LPs
        monkeypatch.setattr(module, "solve_lp", lambda p, solve=module.solve_lp, **kw:
                            late_lps.append(deadline.expired) or solve(p, **kw))
    rec = run_solve(hdr_toy, "sddp", PM, eps=None, k=None, seed=0, time_limit=60.0,
                    rounds=3)
    assert started == [True] and not any(late_lps) and len(calls) == 2
    assert rec["status"] == "time_limit" and rec["objective"] is None
    assert np.isfinite(rec["bound"]) and rec["bound"] <= opt + 1e-6 * abs(opt)


def test_ex_whose_assembly_outlasts_the_limit_solves_no_lp(hdr_toy, monkeypatch):
    deadline = CueDeadline()
    monkeypatch.setattr(cli, "Deadline", lambda limit: deadline)
    build = cli.build_aggregated_extensive_form

    def slow_build(m, agg):
        prob = build(m, agg)
        deadline.expired = True
        return prob

    monkeypatch.setattr(cli, "build_aggregated_extensive_form", slow_build)
    solve, lps = lp_engine.solve_lp, []
    monkeypatch.setattr(lp_engine, "solve_lp", lambda p, **kw: lps.append(p) or solve(p, **kw))
    rec = run_solve(hdr_toy, "ex", PM, eps=None, k=None, seed=0, time_limit=60.0, rounds=3)
    assert rec["status"] == "time_limit" and rec["bound"] is None and lps == []


class _TimedHighs:
    """Forwards every call to the HiGHS object and notes when each run ends."""

    def __init__(self, h):
        self.h, self.ends = h, []

    def __getattr__(self, name):
        return getattr(self.h, name)

    def run(self):
        status = self.h.run()
        self.ends.append(time.monotonic())
        return status


def test_ex_stops_inside_an_lp_at_the_time_limit(tmp_path, hdr_toy, monkeypatch):
    # Ex 3x5 pm's root LP takes about as long as the second the limit
    # leaves after the model build: HiGHS stops any LP on the deadline, and
    # a later solve with no deadline runs to its end
    inst, out = str(tmp_path / "inst.json"), str(tmp_path / "ex.json")
    assert main(["generate", "--grid", "3x5", "--capacity-pct", "0.2", "--seed", "5",
                 "--out", inst]) == 0
    timed = _TimedHighs(lp_engine._HIGHS)
    monkeypatch.setattr(lp_engine, "_HIGHS", timed)
    t0 = time.monotonic()
    assert main(["solve", "--instance", inst, "--method", "ex", "--transform", "pm",
                 "--time-limit", "1", "--out", out]) == 0
    assert time.monotonic() - t0 < 2.0
    assert timed.ends and max(timed.ends) - t0 < 1.25
    assert json.loads(open(out).read())["status"] == "time_limit"
    rec = run_solve(hdr_toy, "ex", PM, eps=None, k=None, seed=0, time_limit=None, rounds=3)
    assert rec["status"] == "optimal"
