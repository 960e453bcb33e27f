"""A guard on work done: the HiGHS solves of every method the command line
offers (Ex, S, S-LB, S-UB and the three LDR variants) on the 2x4 relief
instance (capacity 0.2, instance seed 5, sampling seed 0), counted at the
one call every LP goes through.  The counts do not depend on the host's
speed, so a change that makes these solves do more LP work fails here
even where wall time cannot show it."""

import pytest

from mcsip import lp_engine
from mcsip.aggregate import build_aggregation
from mcsip.cli import _transformation, run_solve
from mcsip.hdr import HdrConfig, build_hdr_msilp, generate_instance
from mcsip.model import build_aggregated_extensive_form

from conftest import node_lp_path

# HiGHS solves measured with S's subproblems and LDR's node LPs memoised
# by LP identity and rhs (lp_engine.StateLp), infeasible outcomes included.
# sddp-ub is the one cell that costs its policy on a second master, whose
# cut rows S writes like the first master's; S and S-UB cost their policy by
# branch and cut alone, with no LP-relaxation cut loop before it
MEASURED = {("sddp", "hn"): 508, ("sddp", "pm"): 131, ("sddp", "fh"): 213,
            ("sddp-ub", "pm"): 149, ("sddp-lb", "pm"): 104,
            ("ldr-m", "hn"): 359, ("ldr-m", "pm"): 230, ("ldr-m", "fh"): 243,
            ("ldr-t", "pm"): 446, ("ldr-th", "pm"): 398}

# Ex's HiGHS solves with branch and cut skipping the children whose penalty
# floor already meets the incumbent and solving no rounding-heuristic LP;
# solving every child LP takes 18, 6 and 6, and with the heuristic hn takes 13
EX_MEASURED = {"hn": 12, "mm": 4, "fh": 4}

# Ex's summed simplex iterations with every LP scaled by forced
# equilibration and every node LP cut off at the incumbent's value; HiGHS's
# default scaling leaves these LPs unscaled and takes 1,543, 1,117 and
# 1,192, and hn took 1,442 before the cut-off, with the heuristic LP
EX_ITERATIONS = {"hn": 1228, "pm": 978, "fh": 1017}


def highs_runs(instance, monkeypatch, method, transform) -> int:
    runs = []

    def counting(*args, run=lp_engine._run_highs, **kw):
        runs.append(None)
        return run(*args, **kw)

    monkeypatch.setattr(lp_engine, "_run_highs", counting)
    rec = run_solve(instance, method, _transformation(transform, None), eps=None, k=None,
                    seed=0, time_limit=None, rounds=3)
    assert rec["status"] == "optimal"
    return len(runs)


@pytest.mark.parametrize("method,transform", sorted(MEASURED))
def test_highs_solves_stay_within_a_tenth_of_the_measured_count(
        hdr_toy, monkeypatch, method, transform):
    assert highs_runs(hdr_toy, monkeypatch, method, transform) <= \
        1.1 * MEASURED[method, transform]


@pytest.mark.parametrize("transform", sorted(EX_MEASURED))
def test_ex_solves_no_child_lp_its_penalty_floor_prunes(hdr_toy, monkeypatch, transform):
    assert highs_runs(hdr_toy, monkeypatch, "ex", transform) <= EX_MEASURED[transform]


class _CountingHighs:
    """Forwards every call to the HiGHS object and sums the simplex
    iterations of each run, read before the kernel clears the model."""

    def __init__(self, h):
        self.h, self.iterations = h, 0

    def __getattr__(self, name):
        return getattr(self.h, name)

    def run(self):
        status = self.h.run()
        self.iterations += self.h.getInfo().simplex_iteration_count
        return status


@pytest.mark.parametrize("transform", sorted(EX_ITERATIONS))
def test_ex_simplex_iterations_stay_within_a_twentieth_of_the_measured_count(
        hdr_toy, monkeypatch, transform):
    counting = _CountingHighs(lp_engine._HIGHS)
    monkeypatch.setattr(lp_engine, "_HIGHS", counting)
    highs_runs(hdr_toy, monkeypatch, "ex", transform)
    assert counting.iterations <= 1.05 * EX_ITERATIONS[transform]


def test_ex_node_lps_stop_on_the_incumbents_cutoff_and_keep_the_answer(monkeypatch):
    """Ex hn on the 2x4 instance at instance seed 11: some node LPs end on
    the incumbent's cut-off (4 when measured; 16 HiGHS solves and 1,708
    simplex iterations against 17 and 2,012 before), and the search, its
    node order and its answer are those of solving every node LP to its end."""
    inst = generate_instance(HdrConfig(cols=2, rows=4, capacity_pct=0.2, seed=11))
    m = build_hdr_msilp(inst)
    agg = build_aggregation(m.tree, _transformation("hn", None))
    before, _, old = node_lp_path(monkeypatch, build_aggregated_extensive_form(m, agg),
                                  cutoff=False)
    after, cutoffs, new = node_lp_path(monkeypatch, build_aggregated_extensive_form(m, agg),
                                       cutoff=True)
    assert cutoffs >= 1 and after == before and len(after) <= 16
    assert (new.status, new.objective, new.bound) == (old.status, old.objective, old.bound)
    assert (new.x == old.x).all()
