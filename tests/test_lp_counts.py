"""A guard on work done: the HiGHS solves of S and LDR-M on the 2x4 relief
instance (capacity 0.2, instance seed 5, sampling seed 0), counted at the
one call every LP goes through.  The counts do not depend on the host's
speed, so a change that makes these solves do more LP work fails here
even where wall time cannot show it."""

import pytest

from mcsip import lp_engine
from mcsip.cli import _transformation, run_solve

# HiGHS solves measured with branch and cut skipping the oracle at nodes
# whose LP value already meets the incumbent
MEASURED = {("sddp", "hn"): 532, ("sddp", "fh"): 217,
            ("ldr-m", "hn"): 366, ("ldr-m", "fh"): 245}


@pytest.mark.parametrize("method,transform", sorted(MEASURED))
def test_highs_solves_stay_within_a_tenth_of_the_measured_count(
        hdr_toy, monkeypatch, method, transform):
    runs = []

    def counting(*args, run=lp_engine._run_highs):
        runs.append(None)
        return run(*args)

    monkeypatch.setattr(lp_engine, "_run_highs", counting)
    rec = run_solve(hdr_toy, method, _transformation(transform, None), eps=None, k=None,
                    seed=0, time_limit=None, rounds=3)
    assert rec["status"] == "optimal"
    assert len(runs) <= 1.1 * MEASURED[method, transform]
