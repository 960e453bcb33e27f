import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from mcsip import lp_engine
from mcsip.lp_engine import CutOracle, _check_highs_version, add_rows, branch_and_cut, \
    solve_lp, solve_mip, verify_farkas
from mcsip.model import LpProblem, MipProblem


def lp(c, rows, senses, rhs, lo=None, up=None):
    c = np.asarray(c, dtype=float)
    n = c.size
    return LpProblem(
        c=c, A=sp.csr_matrix(np.asarray(rows, dtype=float).reshape(-1, n)),
        senses=np.array(list(senses), dtype="<U1"),
        rhs=np.asarray(rhs, dtype=float),
        lo=np.full(n, -np.inf) if lo is None else np.asarray(lo, dtype=float),
        up=np.full(n, np.inf) if up is None else np.asarray(up, dtype=float),
    )


def random_feasible_lp(rng, max_rows=12, max_cols=12):
    n = int(rng.integers(2, max_cols + 1))
    m = int(rng.integers(2, max_rows + 1))
    a = rng.uniform(-2, 2, size=(m, n)) * (rng.random((m, n)) < 0.6)
    x0 = rng.uniform(0, 2, size=n)
    senses = rng.choice(["G", "L", "E"], size=m, p=[0.4, 0.4, 0.2])
    slack = rng.uniform(0.0, 1.5, size=m)
    rhs = a @ x0
    rhs[senses == "G"] -= slack[senses == "G"]
    rhs[senses == "L"] += slack[senses == "L"]
    return lp(rng.uniform(-1, 1, size=n), a, senses, rhs,
              lo=np.zeros(n), up=np.full(n, 5.0))


def test_single_binding_row_dual():
    sol = solve_lp(lp([1.0], [[1.0]], "G", [3.0]))
    assert sol.objective == pytest.approx(3.0)
    assert sol.duals[0] == pytest.approx(1.0)


def test_symmetric_vertex_dual():
    sol = solve_lp(lp([-1.0, -1.0], [[1.0, 1.0]], "L", [1.0],
                      lo=[0, 0], up=[np.inf, np.inf]))
    assert sol.objective == pytest.approx(-1.0)
    assert sol.duals[0] == pytest.approx(-1.0)


def test_contradictory_bounds_yield_farkas():
    p = lp([0.0], [[1.0], [1.0]], "GL", [1.0, 0.0])
    sol = solve_lp(p)
    assert sol.status == "infeasible"
    assert verify_farkas(p, sol.farkas) > 1e-7


def test_strong_duality_and_primal_residual_random_lps():
    from mcsip.model import max_violation

    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(150):
        p = random_feasible_lp(rng)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        gap = abs(sol.objective - sol.dual_objective)
        assert gap <= 1e-6 * (1.0 + abs(sol.objective))
        assert max_violation(p, sol.x) <= 2e-7
        checked += 1
    assert checked == 150


def test_farkas_random_infeasible_lps():
    rng = np.random.default_rng(1)
    found = 0
    while found < 40:
        p = random_feasible_lp(rng)
        # pin two contradictory rows onto an existing variable
        extra = lp([0.0] * p.n,
                   [[1.0] + [0.0] * (p.n - 1), [1.0] + [0.0] * (p.n - 1)],
                   "GL", [4.0, 1.0])
        q = LpProblem(c=p.c, A=sp.vstack([p.A, extra.A]).tocsr(),
                      senses=np.concatenate([p.senses, extra.senses]),
                      rhs=np.concatenate([p.rhs, extra.rhs]), lo=p.lo, up=p.up)
        sol = solve_lp(q)
        if sol.status != "infeasible":
            continue
        assert verify_farkas(q, sol.farkas) > 1e-9
        found += 1


def test_determinism():
    rng = np.random.default_rng(5)
    p = random_feasible_lp(rng)
    a, b = solve_lp(p), solve_lp(p)
    assert a.status == b.status and a.objective == b.objective
    assert np.array_equal(a.x, b.x)


def test_unbounded_detected():
    sol = solve_lp(lp([-1.0], [[1.0]], "G", [0.0]))
    assert sol.status == "unbounded"


def test_add_rows_non_binding_keeps_objective():
    p = lp([1.0], [[1.0]], "G", [3.0])
    before = solve_lp(p).objective
    add_rows(p, [({0: 1.0}, "G", 1.0)])
    assert solve_lp(p).objective == pytest.approx(before)


def test_add_rows_binding_moves_objective():
    p = lp([1.0], [[1.0]], "G", [3.0])
    add_rows(p, [({0: 1.0}, "G", 4.0)])
    assert solve_lp(p).objective == pytest.approx(4.0)


def test_add_rows_monotone_and_matches_cold_solve():
    rng = np.random.default_rng(2)
    p = random_feasible_lp(rng)
    base = solve_lp(p).objective
    x_feas = solve_lp(p).x
    rows = []
    for _ in range(5):
        coefs = rng.uniform(-1, 1, size=p.n)
        rhs = float(coefs @ x_feas) - rng.uniform(0.0, 0.5)
        rows.append(({j: float(coefs[j]) for j in range(p.n)}, "G", rhs))
    add_rows(p, rows)
    warm = solve_lp(p)
    cold = solve_lp(LpProblem(c=p.c, A=p.A.copy(), senses=p.senses.copy(),
                              rhs=p.rhs.copy(), lo=p.lo, up=p.up))
    assert warm.objective >= base - 1e-8
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def test_add_rows_rejects_bad_columns():
    from mcsip.errors import DimensionMismatch

    p = lp([1.0], [[1.0]], "G", [3.0])
    with pytest.raises(DimensionMismatch):
        add_rows(p, [({3: 1.0}, "G", 0.0)])


def mip(c, rows, senses, rhs, lo, up, integer):
    base = lp(c, rows, senses, rhs, lo, up)
    return MipProblem(c=base.c, A=base.A, senses=base.senses, rhs=base.rhs,
                      lo=base.lo, up=base.up,
                      integer=np.asarray(integer, dtype=bool))


def test_pure_lp_equals_solve_lp():
    p = lp([1.0, 2.0], [[1.0, 1.0]], "G", [2.0], lo=[0, 0], up=[9, 9])
    m = MipProblem(c=p.c, A=p.A, senses=p.senses, rhs=p.rhs, lo=p.lo, up=p.up,
                   integer=np.zeros(2, dtype=bool))
    assert branch_and_cut(m).objective == pytest.approx(solve_lp(p).objective)


def test_knapsack_matches_enumeration():
    rng = np.random.default_rng(3)
    v = rng.uniform(1, 10, 5)
    w = rng.uniform(1, 10, 5)
    cap = 0.5 * w.sum()
    m = mip(-v, [w], "L", [cap], lo=np.zeros(5), up=np.ones(5), integer=[True] * 5)
    best = min(-v @ np.array(bits) for bits in itertools.product((0, 1), repeat=5)
               if w @ np.array(bits) <= cap)
    sol = solve_mip(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(best)


def test_toy_benders_oracle_matches_extensive():
    # recourse Q(z) = max(3 - 4z, 1): convex piecewise; master min 2z + theta
    class Oracle(CutOracle):
        def separate(self, x):
            z, theta = x[0], x[1]
            for coefs, rhs in (({0: 4.0, 1: 1.0}, 3.0), ({1: 1.0}, 1.0)):
                val = rhs - 4.0 * z if 0 in coefs else rhs
                if theta < val - 1e-9:
                    return [(coefs, "G", rhs)]
            return []

    m = mip([2.0, 1.0], [[0.0, 0.0]], "G", [0.0],
            lo=[0.0, -50.0], up=[1.0, np.inf], integer=[True, False])
    sol = branch_and_cut(m, oracle=Oracle())
    # extensive check: evaluate both z values exactly
    best = min(2 * z + max(3 - 4 * z, 1) for z in (0, 1))
    assert sol.objective == pytest.approx(best)
    assert sol.status == "optimal"


def test_oracle_sees_no_cut_at_incumbent():
    calls = []

    class Recorder(CutOracle):
        def separate(self, x):
            calls.append(x.copy())
            return []

    m = mip([1.0], [[1.0]], "G", [0.4], lo=[0.0], up=[3.0], integer=[True])
    sol = branch_and_cut(m, oracle=Recorder())
    assert sol.objective == pytest.approx(1.0)
    assert calls, "oracle must be offered the incumbent"


def test_mip_infeasible_status():
    m = mip([1.0], [[1.0], [1.0]], "GL", [2.6, 2.4], lo=[0.0], up=[5.0],
            integer=[True])
    assert solve_mip(m).status == "infeasible"


def test_time_limit_returns_bound():
    rng = np.random.default_rng(4)
    n = 18
    v = rng.uniform(1, 10, n)
    w = rng.uniform(1, 10, n)
    m = mip(-v, [w], "L", [0.5 * w.sum()], lo=np.zeros(n), up=np.ones(n),
            integer=[True] * n)
    sol = branch_and_cut(m, time_limit=0.0)
    assert sol.status == "time_limit"


def test_random_small_mips_match_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        mrows = int(rng.integers(1, 4))
        a = rng.uniform(-2, 2, size=(mrows, n))
        senses = rng.choice(["G", "L"], size=mrows)
        x0 = rng.integers(0, 2, size=n)
        rhs = a @ x0 + np.where(senses == "G", -0.3, 0.3)
        c = rng.uniform(-2, 2, size=n)
        m = mip(c, a, senses, rhs, lo=np.zeros(n), up=np.ones(n),
                integer=[True] * n)
        best = np.inf
        for bits in itertools.product((0, 1), repeat=n):
            x = np.array(bits, dtype=float)
            act = a @ x
            ok = all(act[i] >= rhs[i] - 1e-9 if senses[i] == "G"
                     else act[i] <= rhs[i] + 1e-9 for i in range(mrows))
            if ok:
                best = min(best, c @ x)
        sol = solve_mip(m)
        if np.isinf(best):
            assert sol.status == "infeasible"
        else:
            assert sol.objective == pytest.approx(best, abs=1e-7)


@pytest.mark.parametrize("version", [(1, 11), (2, 0)], ids=["1.11", "2.0"])
def test_highs_version_check_rejects_other_versions(version):
    with pytest.raises(ImportError, match=r"found %d\.%d" % version):
        _check_highs_version(*version)


def test_highs_version_check_accepts_the_verified_version():
    _check_highs_version(1, 12)


@pytest.fixture
def warm_starts(monkeypatch):
    """Records, per HiGHS run, whether it started from a basis."""
    starts = []
    run = lp_engine._run_highs

    def recording(*args):
        starts.append(args[-1] is not None)
        return run(*args)

    monkeypatch.setattr(lp_engine, "_run_highs", recording)
    return starts


def cold_copy(p):
    return LpProblem(c=p.c.copy(), A=p.A.copy(), senses=p.senses.copy(),
                     rhs=p.rhs.copy(), lo=p.lo.copy(), up=p.up.copy())


def test_warm_resolve_after_rhs_and_bound_changes_matches_cold(warm_starts):
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        p = random_feasible_lp(rng)
        assert solve_lp(p).status == "optimal" and p.basis is not None
        for _ in range(3):
            p.rhs = p.rhs + rng.uniform(-0.3, 0.3, size=p.m)
            j = int(rng.integers(0, p.n))
            p.lo[j], p.up[j] = sorted(rng.uniform(0.0, 5.0, size=2))
            del warm_starts[:]
            warm = solve_lp(p)
            cold = solve_lp(cold_copy(p))
            assert warm_starts[0] and not warm_starts[-1]
            assert warm.status == cold.status
            if warm.status != "optimal":
                break
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert warm.dual_objective == pytest.approx(warm.objective, rel=1e-9, abs=1e-9)
            checked += 1
    assert checked >= 100


def test_warm_resolve_after_appended_rows_matches_cold(warm_starts):
    rng = np.random.default_rng(8)
    for _ in range(40):
        p = random_feasible_lp(rng)
        x = solve_lp(p).x
        for _ in range(4):
            coefs = rng.uniform(-1, 1, size=p.n)
            # cut off the current optimum but keep a feasible point
            rhs = float(coefs @ x) + rng.uniform(0.0, 0.3)
            add_rows(p, [({j: float(coefs[j]) for j in range(p.n)}, "G", rhs)])
            del warm_starts[:]
            warm = solve_lp(p)
            cold = solve_lp(cold_copy(p))
            assert warm_starts[0]
            assert warm.status == cold.status
            if warm.status != "optimal":
                break
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert warm.dual_objective == pytest.approx(warm.objective, rel=1e-9, abs=1e-9)
            x = warm.x


def test_warm_start_that_turns_infeasible_gives_a_certified_ray(warm_starts):
    rng = np.random.default_rng(9)
    for _ in range(40):
        p = random_feasible_lp(rng)
        j = int(rng.integers(0, p.n))
        add_rows(p, [({j: 1.0}, "G", 0.0), ({j: 1.0}, "L", 5.0)])  # slack at first
        assert solve_lp(p).status == "optimal"
        p.rhs[-2:] = [4.5, 0.5]
        del warm_starts[:]
        sol = solve_lp(p)
        assert warm_starts[0]
        assert sol.status == "infeasible"
        assert verify_farkas(p, sol.farkas) > 1e-9


def test_branch_and_cut_warm_starts_children_and_matches_enumeration(warm_starts):
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(3, 11))
        mrows = int(rng.integers(1, 5))
        a = rng.uniform(-2, 2, size=(mrows, n))
        senses = rng.choice(["G", "L"], size=mrows)
        rhs = a @ rng.integers(0, 2, size=n) + np.where(senses == "G", -0.25, 0.25)
        c = rng.uniform(-2, 2, size=n)
        bits = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
        act = bits @ a.T
        feas = np.all(np.where(senses == "G", act >= rhs - 1e-9, act <= rhs + 1e-9), axis=1)
        sol = solve_mip(mip(c, a, senses, rhs, lo=np.zeros(n), up=np.ones(n),
                            integer=[True] * n))
        if not feas.any():
            assert sol.status == "infeasible"
        else:
            assert sol.objective == pytest.approx(float((bits[feas] @ c).min()), abs=1e-7)
    assert any(warm_starts), "child nodes start from their parent's basis"
