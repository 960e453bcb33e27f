"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cells  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def inst():
    return cells.make_instance("sddp", cells.DEFAULT_INSTANCE_SEED)


def _originals() -> dict[str, object]:
    out = {}
    for short in tracing.MODULES:
        mod = importlib.import_module(f"mcsip.{short}")
        out.update({f"{short}.{k}": v for k, v in vars(mod).items() if callable(v)})
    for short, cls, meth, *_ in tracing.METHODS:
        owner = getattr(importlib.import_module(f"mcsip.{short}"), cls)
        out[f"{short}.{cls}.{meth}"] = vars(owner)[meth]
    mod, attr, *_ = tracing.HIGHS
    out[attr] = getattr(importlib.import_module(mod), attr)
    return out


def _traced_pass(inst, cell_list):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for method, transform in cell_list:
            with tracer.root("cli.run_solve", "cli"):
                row = cells.run_cell(inst, method, transform)
            assert row["status"] == "optimal", row
        spans, engines = tracer.take()
        return tracer, spans, tracing.layer_metrics(spans, engines, tracer.kind_of,
                                                    tracer.layer_of)
    finally:
        tracer.restore()


def test_restore_puts_back_every_attribute(inst):
    before = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.leftover_wrappers(), "install wrapped nothing"
    finally:
        tracer.restore()
    assert tracing.leftover_wrappers() == []
    after = _originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_counts_repeat_and_self_times_add_up(inst):
    work = [("sddp", "pm"), ("ldr-m", "pm")]
    _, spans, first = _traced_pass(inst, work)
    _, _, second = _traced_pass(inst, work)
    assert tracing.leftover_wrappers() == []
    counts = {k: first[k] for k in tracing.COUNT_METRICS}
    assert counts == {k: second[k] for k in tracing.COUNT_METRICS}
    assert first["sddp.oracle_calls"] > 0 and first["ldr.oracle_calls"] > 0
    assert first["lp_engine.highs_s"] < first["lp_engine.lp_s"]
    roots = sum(s[tracing.END] - s[tracing.START] for s in spans if s[tracing.PARENT] < 0)
    assert first["self.sum_s"] == pytest.approx(roots, rel=1e-9)


def test_failing_cell_is_a_row_not_an_exception(inst):
    row = cells.run_cell(inst, "no-such-method", "pm")
    assert row["status"] == "error" and "ConfigError" in row["error"]
    assert cells.check_row(row, None).startswith("status error")


def test_pins_and_orderings_catch_wrong_values():
    pins = cells.load_pins("sddp", cells.DEFAULT_INSTANCE_SEED)
    good = {c: {"cell": c, **pins[c]} for c in pins}
    assert all(cells.check_row(r, pins) == "" for r in good.values())
    assert cells.check_orderings("sddp", good) == []
    bad = dict(good)
    bad["sddp/fh"] = {**good["sddp/fh"], "objective": good["sddp/hn"]["objective"] * 1.01}
    assert "differs from pinned" in cells.check_row(bad["sddp/fh"], pins)
    assert [(a, b) for a, b, _ in cells.check_orderings("sddp", bad)] == [
        ("sddp/pm", "sddp/fh")]
    assert cells.ub_gap_pct("sddp", good) == pytest.approx(1.564, abs=1e-3)


def test_refuses_to_run_without_solver_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sddp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
