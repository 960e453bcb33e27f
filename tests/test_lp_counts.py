"""A guard on work done: the HiGHS solves of Ex, S and LDR-M on the 2x4
relief instance (capacity 0.2, instance seed 5, sampling seed 0), counted at
the one call every LP goes through.  The counts do not depend on the host's
speed, so a change that makes these solves do more LP work fails here
even where wall time cannot show it."""

import pytest

from mcsip import lp_engine
from mcsip.cli import _transformation, run_solve

# HiGHS solves measured with S's subproblems and LDR's node LPs memoised
# by LP identity and rhs (lp_engine.StateLp), infeasible outcomes included
MEASURED = {("sddp", "hn"): 527, ("sddp", "fh"): 214,
            ("ldr-m", "hn"): 359, ("ldr-m", "fh"): 243}

# Ex's HiGHS solves with branch and cut skipping the children whose penalty
# floor already meets the incumbent; solving every child LP takes 18, 6 and 6
EX_MEASURED = {"hn": 13, "mm": 4, "fh": 4}


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
