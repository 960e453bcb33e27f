import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs

from mcsip import lp_engine
from mcsip.errors import DimensionMismatch, NumericalFailure
from mcsip.lp_engine import CutOracle, Deadline, DeadlineReached, LpSolution, StateLp, \
    StateLpTable, _check_highs_version, add_rows, branch_and_cut, cut_row, infeasibility_lp, \
    solve_lp, solve_mip, verify_farkas
from mcsip.model import Csr, LpProblem, MipProblem, as_csr
from mcsip.tolerances import INT_TOL, MIP_GAP

from conftest import node_lp_path, scipy_csr


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


def test_farkas_ray_of_a_barely_infeasible_lp():
    # the least row violation, 2e-8, lies between VIOL_GUARD and FEAS_TOL
    p = lp([1, 1], [[0.01, 0], [0.01, 0], [1, 1]], "GLG", [0.01, 0.01 * (1 - 2e-6), 0.5],
           lo=[0, 0], up=[5, 5])
    sol = solve_lp(p)
    assert sol.status == "infeasible"
    assert verify_farkas(p, sol.farkas) > 1e-9


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


def count_phase1_lps(monkeypatch) -> list:
    """A list that gets one entry per phase-1 LP built from here on."""
    calls, build = [], lp_engine.infeasibility_lp

    def counting(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(lp_engine, "infeasibility_lp", counting)
    return calls


def test_infeasible_solve_runs_its_phase1_lp_once_at_the_first_read(monkeypatch):
    calls = count_phase1_lps(monkeypatch)
    p = lp([0.0], [[1.0], [1.0]], "GL", [1.0, 0.0])
    sol = solve_lp(p)
    assert sol.status == "infeasible" and calls == []
    violation, ray = sol.certificate
    for _ in range(3):
        assert sol.certificate[1] is ray and sol.farkas is ray
    assert len(calls) == 1
    assert violation == pytest.approx(1.0) and verify_farkas(p, ray) > 1e-7
    opt = solve_lp(lp([1.0], [[1.0]], "G", [3.0]))
    assert opt.certificate is None and opt.farkas is None and len(calls) == 1


def test_certificate_is_of_the_lp_as_solved():
    """Edits of p's rhs and bounds in place after the solve leave the
    certificate read later with the LP that was solved."""
    p = lp([0.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], "GL", [3.0, 0.5], lo=[0, 0], up=[1, 1])
    solved = LpProblem(c=p.c, A=p.A, senses=p.senses, rhs=p.rhs.copy(), lo=p.lo.copy(),
                       up=p.up)
    sol = solve_lp(p)
    assert sol.status == "infeasible"
    p.rhs[:] = [0.0, 5.0]
    p.lo[:] = -10.0
    violation, ray = sol.certificate
    assert violation == pytest.approx(1.5)  # x = (1, 1) or (0.5, 1)
    assert verify_farkas(solved, ray) > 1e-7
    assert verify_farkas(p, ray) <= 0.0  # p as edited is feasible


def test_state_lps_sharing_an_infeasible_outcome_share_its_phase1_lp(monkeypatch):
    """Two state LPs over equal LPs with different maps, infeasible at one
    rhs, get the same solution and one phase-1 solve between them; each
    takes the slope R' ray through its own map."""
    calls = count_phase1_lps(monkeypatch)
    table = StateLpTable()
    maps = [(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2), np.array([2.0, 0.5])),
            (np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.25]), np.array([1.0, 0.25]))]
    sols = []
    for R, const, w in maps:  # rhs (2, 0.5): x >= 2 and x <= 0.5 over 0 <= x <= 1
        state_lp = StateLp(lp([1.0], [[1.0], [1.0]], "GL", [0.0, 0.0], lo=[0.0], up=[1.0]),
                           as_csr(sp.csr_matrix(R)), const, table)
        sol = state_lp.solve(w, Deadline())
        assert sol.status == "infeasible"
        slope = state_lp.cut(sol, w)[1]
        np.testing.assert_array_equal(slope, R.T @ sol.certificate[1])
        sols.append((sol, slope))
    assert sols[0][0] is sols[1][0] and len(calls) == 1
    assert not np.array_equal(sols[0][1], sols[1][1])


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
    add_rows(p, [(np.array([1.0]), 1.0)])
    assert solve_lp(p).objective == pytest.approx(before)


def test_add_rows_binding_moves_objective():
    p = lp([1.0], [[1.0]], "G", [3.0])
    add_rows(p, [(np.array([1.0]), 4.0)])
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
        rows.append((coefs, rhs))
    add_rows(p, rows)
    warm = solve_lp(p)
    cold = solve_lp(LpProblem(c=p.c, A=scipy_csr(p.A).copy(), senses=p.senses.copy(),
                              rhs=p.rhs.copy(), lo=p.lo, up=p.up))
    assert warm.objective >= base - 1e-8
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def test_add_rows_rejects_bad_columns():
    """A row of the wrong width, in a batch of rows all that wide or not,
    raises and leaves p as it was."""
    from mcsip.errors import DimensionMismatch

    p = lp([1.0], [[1.0]], "G", [3.0])
    before = (p.A, p.senses, p.rhs)
    ragged = [(np.ones(1), 0.0), (np.ones(2), 0.0)]
    for rows in [[(np.ones(width), 0.0)] for width in (0, 2, 4)] + [ragged]:
        with pytest.raises(DimensionMismatch):
            add_rows(p, rows)
        assert all(now is then for now, then in zip((p.A, p.senses, p.rhs), before))


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
            for coefs, rhs in ((np.array([4.0, 1.0]), 3.0), (np.array([0.0, 1.0]), 1.0)):
                val = rhs - coefs[0] * z
                if theta < val - 1e-9:
                    return [(coefs, rhs)]
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


@pytest.mark.parametrize("lo,up", [(-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.0)])
def test_an_integer_column_with_an_infinite_bound_is_refused(monkeypatch, lo, up):
    """Branching on an integer column with an infinite bound need never
    end, so branch_and_cut refuses it, naming the column, before its first
    LP; the same MIP with that column boxed solves."""
    runs = []
    real = lp_engine._run_highs
    monkeypatch.setattr(lp_engine, "_run_highs", lambda *a, **kw: runs.append(1) or real(*a, **kw))
    # min x0 + x1 s.t. x0 + x1 >= 1.5, x0 integer, x1 continuous in [0, 1]
    free = mip([1.0, 1.0], [[1.0, 1.0]], "G", [1.5], lo=[lo, 0.0], up=[up, 1.0],
               integer=[True, False])
    with pytest.raises(ValueError, match="integer column 0 has an infinite bound"):
        branch_and_cut(free)
    assert not runs
    boxed = mip([1.0, 1.0], [[1.0, 1.0]], "G", [1.5], lo=[-5.0, 0.0], up=[5.0, 1.0],
                integer=[True, False])
    sol = branch_and_cut(boxed)
    assert sol.status == "optimal" and sol.objective == pytest.approx(1.5)
    assert sol.x[0] == pytest.approx(1.0)


def test_time_limit_returns_bound():
    rng = np.random.default_rng(4)
    n = 18
    v = rng.uniform(1, 10, n)
    w = rng.uniform(1, 10, n)
    m = mip(-v, [w], "L", [0.5 * w.sum()], lo=np.zeros(n), up=np.ones(n),
            integer=[True] * n)
    sol = branch_and_cut(m, deadline=Deadline(0.0))
    assert sol.status == "time_limit"


def test_time_limit_stops_a_cut_loop_that_never_closes():
    class Endless(CutOracle):
        def separate(self, x):
            return [(np.array([1.0]), -1.0)]  # valid everywhere, never binding

    m = mip([1.0], [[1.0]], "G", [1.0], lo=[0.0], up=[3.0], integer=[True])
    t0 = time.monotonic()
    sol = branch_and_cut(m, oracle=Endless(), deadline=Deadline(0.5))
    assert time.monotonic() - t0 < 2.0
    assert sol.status == "time_limit" and sol.x is None
    # the root LP optimum is 1; no cut can raise it, so it is the bound
    assert np.isfinite(sol.bound) and sol.bound <= 1.0 + 1e-9


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

    def recording(*args, **kw):
        starts.append(args[-1] is not None)
        return run(*args, **kw)

    monkeypatch.setattr(lp_engine, "_run_highs", recording)
    return starts


def cold_copy(p):
    return LpProblem(c=p.c.copy(), A=scipy_csr(p.A).copy(), senses=p.senses.copy(),
                     rhs=p.rhs.copy(), lo=p.lo.copy(), up=p.up.copy())


def random_rows(rng, z, count):
    """count dense '>=' rows over z's columns, with zero coefficients, that
    hold at z, each picked at random: a row with up to 0.3 slack, the
    negation of a '<=' row with up to 0.3 slack, or a row tight at z."""
    rows = []
    for _ in range(count):
        cols = rng.choice(z.size, size=int(rng.integers(1, z.size + 1)), replace=False)
        vals = rng.uniform(-1, 1, size=cols.size)
        vals[rng.random(cols.size) < 0.3] = 0.0
        sign, slack = {"G": (1.0, -1.0), "L": (-1.0, -1.0), "E": (1.0, 0.0)}[
            str(rng.choice(["G", "L", "E"]))]
        coefs = np.zeros(z.size)
        coefs[cols] = sign * vals
        rows.append((coefs, float(coefs @ z) + slack * rng.uniform(0.0, 0.3)))
    return rows


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
            add_rows(p, [(coefs, rhs)])
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

    # batches of several rows, all holding at a point z between two vertices,
    # so every LP stays feasible; the basis falls one to three batches behind
    moved = 0
    for _ in range(40):
        p = random_feasible_lp(rng)
        x = solve_lp(p).x
        flipped = cold_copy(p)
        flipped.c = -flipped.c
        z = (x + solve_lp(flipped).x) / 2
        for batches in (1, 2, 3):
            for _ in range(batches):
                add_rows(p, random_rows(rng, z, int(rng.integers(1, 5))))
            del warm_starts[:]
            warm = solve_lp(p)
            cold = solve_lp(cold_copy(p))
            assert warm_starts == [True, False]
            assert warm.status == cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert warm.dual_objective == pytest.approx(warm.objective, rel=1e-9, abs=1e-9)
            moved += not np.array_equal(warm.x, x)
            x = warm.x
    assert moved >= 80, "most batches cut the last optimum off"


class RecordingHighs:
    """The shared HiGHS object, with its setBasis, addRows and passOptions
    calls recorded."""

    def __init__(self, h):
        self.h, self.calls = h, []

    def __getattr__(self, name):
        attr = getattr(self.h, name)
        if name not in ("setBasis", "addRows", "passOptions"):
            return attr

        def recorded(*args):
            self.calls.append((name, args))
            return attr(*args)
        return recorded


def test_warm_solve_hands_highs_the_stored_basis_then_only_the_appended_rows(monkeypatch):
    rng = np.random.default_rng(14)
    h = RecordingHighs(lp_engine._HIGHS)
    monkeypatch.setattr(lp_engine, "_HIGHS", h)
    for _ in range(20):
        p = random_feasible_lp(rng)
        x = solve_lp(p).x
        stored, m0 = p.basis, p.m
        statuses = list(stored[2].row_status)
        first = random_rows(rng, x, int(rng.integers(1, 5)))  # both hold at x
        second = random_rows(rng, x, int(rng.integers(1, 5)))
        add_rows(p, first)
        add_rows(p, second)
        rows = first + second
        del h.calls[:]
        assert solve_lp(p).status == "optimal"
        set_basis = [args for name, args in h.calls if name == "setBasis"]
        added = [args for name, args in h.calls if name == "addRows"]
        assert set_basis[0][0] is stored[2] and not stored[2].alien
        k, lower, upper, nnz, starts, indices, values = added[0]
        cols = [np.flatnonzero(coefs).tolist() for coefs, _ in rows]
        assert k == len(rows) == p.m - m0 and nnz == sum(map(len, cols))
        assert lower.tolist() == [b for _, b in rows]
        assert upper.tolist() == [np.inf] * len(rows)
        assert starts.tolist() == np.cumsum([0] + [len(c) for c in cols[:-1]]).tolist()
        assert indices.tolist() == [j for c in cols for j in c]
        assert values.tolist() == [r[0][j] for r, c in zip(rows, cols) for j in c]
        assert stored[1] == m0 == len(stored[2].row_status)
        assert list(stored[2].row_status) == statuses
        # the next warm solve appends nothing and keeps HiGHS's options
        assert p.basis[1] == p.m
        del h.calls[:]
        solve_lp(p)
        assert [name for name, _ in h.calls] == ["setBasis"]


def test_warm_start_that_turns_infeasible_gives_a_certified_ray(warm_starts):
    rng = np.random.default_rng(9)
    for _ in range(40):
        p = random_feasible_lp(rng)
        j = int(rng.integers(0, p.n))
        e = np.eye(p.n)[j]
        add_rows(p, [(e, 0.0), (-e, -5.0)])  # 0 <= x_j <= 5: slack at first
        assert solve_lp(p).status == "optimal"
        p.rhs[-2:] = [4.5, -0.5]
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


def test_add_rows_appends_exactly_the_arrays_vstack_builds():
    """add_rows and Csr.with_rows append dense rows as scipy's vstack of
    them does, zeros dropped."""
    rng = np.random.default_rng(11)
    zeros = 0
    for _ in range(40):
        p = random_feasible_lp(rng)
        for _ in range(3):
            dense = rng.uniform(-1, 1, size=(int(rng.integers(1, 5)), p.n))
            dense[rng.random(dense.shape) < 0.5] = 0.0
            dense[rng.integers(dense.shape[0])] = 0.0  # an empty row
            zeros += int((dense == 0.0).sum())
            rhs = rng.uniform(-1, 1, size=dense.shape[0])
            want = sp.vstack([scipy_csr(p.A), sp.csr_matrix(dense)]).tocsr()
            direct = as_csr(p.A).with_rows(dense)
            add_rows(p, [(coefs, b) for coefs, b in zip(dense, rhs)])
            for got in (direct, p.A):
                assert isinstance(got, Csr) and got.shape == want.shape
                for name in ("indptr", "indices", "data"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert p.senses[-len(rhs):].tolist() == ["G"] * len(rhs)
            assert p.rhs[-len(rhs):].tolist() == rhs.tolist()
    assert zeros > 0


def scipy_phase1_matrix(p):
    """p.A widened by the phase-1 slack columns plus the slack entries, built
    with scipy's hstack and sum."""
    eq = p.senses == "E"
    width = np.where(eq, 2, 1)
    first = p.n + np.cumsum(width) - width
    n_slack = int(width.sum())
    slack = sp.csr_matrix(
        (np.concatenate([np.where(p.senses == "L", -1.0, 1.0), np.full(eq.sum(), -1.0)]),
         (np.concatenate([np.arange(p.m), np.flatnonzero(eq)]),
          np.concatenate([first, first[eq] + 1]))), shape=(p.m, p.n + n_slack))
    return sp.hstack([scipy_csr(p.A), sp.csr_matrix((p.m, n_slack))]).tocsr() + slack


def test_infeasibility_lp_builds_exactly_the_arrays_scipy_builds():
    """Also from a Csr that stores explicit zeros (positional assemble
    output can hold cancelled ones), which scipy's sum drops."""
    rng = np.random.default_rng(14)
    zeros = 0
    for _ in range(40):
        p = random_feasible_lp(rng)
        for explicit_zeros in (False, True):
            if explicit_zeros:
                # store some empty positions and zero some stored entries
                dense = scipy_csr(p.A).toarray()
                stored = (dense != 0.0) | (rng.random(dense.shape) < 0.2)
                dense[stored & (rng.random(dense.shape) < 0.2)] = 0.0
                r, j = np.nonzero(stored)
                p.A = Csr(np.concatenate([[0], np.cumsum(stored.sum(axis=1))]), j,
                          dense[r, j], dense.shape)
                zeros += int((p.A.data == 0.0).sum())
            want = scipy_phase1_matrix(p)
            got = infeasibility_lp(p).A
            assert isinstance(got, Csr) and got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert zeros > 0


def test_rhs_map_matches_scipy_bit_for_bit():
    """A state LP's rhs const + R w and a cut's slope R' duals equal
    scipy's exactly, also after hosted rows, and duals sized to an earlier
    row count read only those rows."""
    rng = np.random.default_rng(12)
    for _ in range(30):
        m, n = int(rng.integers(3, 30)), int(rng.integers(3, 40))
        dense = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-8, 9, size=(m, n))
        dense[rng.random((m, n)) < 0.6] = 0.0
        dense[rng.choice(m, size=2, replace=False)] = 0.0  # empty rows
        dense[:, rng.integers(n)] = 0.0                   # a column that never occurs
        R = sp.csr_matrix(dense)
        const = rng.normal(size=m)
        # rows x >= rhs_i of one free column: optimal at every rhs
        state_lp = StateLp(lp([0.0], np.ones((m, 1)), "G" * m, np.zeros(m)), as_csr(R), const,
                           StateLpTable())
        w = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, size=n)

        def check(duals):
            assert state_lp.solve(w, Deadline()).status == "optimal"
            np.testing.assert_array_equal(state_lp.lp.rhs, const + R @ w)
            _, slope, _ = state_lp.cut(LpSolution("optimal", duals=duals, objective=1.0), w)
            np.testing.assert_array_equal(slope, R.T @ duals)

        check(rng.normal(size=m))
        old, old_duals = R, rng.normal(size=m)
        for zero in (False, True, False):
            row = np.zeros(n) if zero else rng.normal(size=n) * (rng.random(n) < 0.5)
            gamma = float(rng.normal())
            state_lp.host((np.concatenate([-row, [1.0]]), gamma))
            R = sp.vstack([R, sp.csr_matrix(row)], format="csr")
            const = np.append(const, gamma)
        check(rng.normal(size=m + 3))
        _, slope, _ = state_lp.cut(LpSolution("optimal", duals=old_duals, objective=1.0), w)
        np.testing.assert_array_equal(slope, old.T @ old_duals)


def test_state_lp_host_splits_one_row_at_the_state_width():
    """host takes one cut row over [w | the LP's columns]: its LP part
    becomes the LP's new row, its w part negated R's new row and its rhs
    const's new entry; the identity follows the LP row alone, and a row
    of any other width is a DimensionMismatch."""
    rng = np.random.default_rng(26)
    n_w = 4
    R = sp.csr_matrix(rng.normal(size=(2, n_w)))
    const = rng.normal(size=2)
    table = StateLpTable()
    twins = [StateLp(lp([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], "GG", np.zeros(2)), as_csr(R),
                     const, table) for _ in range(2)]
    coefs, rhs = cut_row(n_w + 1, np.concatenate([rng.normal(size=n_w), [0.5, 0.0]]), 3.0)
    twins[0].host((coefs, rhs))
    twins[1].host((np.concatenate([rng.normal(size=n_w), coefs[n_w:]]), -1.0))
    a = twins[0]
    np.testing.assert_array_equal(scipy_csr(a.lp.A)[-1].toarray().ravel(), coefs[n_w:])
    np.testing.assert_array_equal(scipy_csr(a.R)[-1].toarray().ravel(), -coefs[:n_w])
    np.testing.assert_array_equal(scipy_csr(a.R)[:2].toarray(), R.toarray())
    assert a.const.tolist() == const.tolist() + [3.0] and a.lp.senses.tolist() == ["G"] * 3
    assert a.lp_id == twins[1].lp_id  # equal LP rows, whatever their maps
    with pytest.raises(DimensionMismatch):
        a.host((coefs[1:], rhs))


@pytest.mark.parametrize("owner", ["S subproblem", "LDR node LP"])
def test_state_lp_cut_is_tight_at_its_state_for_both_outcomes(request, owner):
    """StateLp.cut reads (value, slope, gamma) off an optimum and off an
    infeasible solution: the slope is R' pi of the duals or of the
    certificate's duals, bit for bit, and gamma + slope'w is the value
    (objective or violation) at the state w it was read at."""
    from mcsip.aggregate import Transformation, build_aggregation

    m = request.getfixturevalue("hdr_toy_msilp")
    if owner == "S subproblem":
        from mcsip.sddp import SddpConfig, SddpEngine

        engine = SddpEngine(m, build_aggregation(m.tree, Transformation("fh")), SddpConfig())
        state_lp = engine.subs[engine.pgraph.subproblems[0]]
        w_opt = np.zeros(state_lp.R.shape[1])
        w_inf = w_opt.copy()
        w_inf[:m.k] = -100.0  # x_parent
    else:
        from mcsip.hdr import build_hdr_aggregated
        from mcsip.ldr import LdrVariant, build_ldr_model

        pm = Transformation("pm", partial_attrs=(2,))
        ma = build_hdr_aggregated(request.getfixturevalue("hdr_toy"),
                                  build_aggregation(m.tree, pm))
        model = build_ldr_model(ma, build_aggregation(ma.tree, pm), LdrVariant("m"))
        w_opt, w_inf = np.zeros(model.layout.n_cols), np.ones(model.layout.n_cols)
        state_lp = next(nl for nl in model.node_lps.values()
                        if nl.solve(w_inf, Deadline()).status == "infeasible")
    for w, status in ((w_opt, "optimal"), (w_inf, "infeasible")):
        sol = state_lp.solve(w, Deadline())
        assert sol.status == status
        want, pi = (sol.objective, sol.duals) if status == "optimal" else sol.certificate
        value, slope, gamma = state_lp.cut(sol, w)
        assert value == want and np.any(slope)
        np.testing.assert_array_equal(slope, state_lp.R.rmatvec(pi))
        at_w = float(slope @ w)
        assert abs(gamma + at_w - value) <= 4 * np.spacing(max(abs(value), abs(at_w)))


def test_shared_highs_object_holds_no_model_after_any_outcome(monkeypatch):
    h = lp_engine._HIGHS

    def empty():
        return h.getNumCol() == 0 and h.getNumRow() == 0

    assert solve_lp(lp([1.0], [[1.0]], "G", [3.0])).status == "optimal" and empty()
    sol = solve_lp(lp([0.0], [[1.0], [1.0]], "GL", [1.0, 0.0]))  # reading farkas solves phase 1
    assert sol.status == "infeasible" and sol.farkas is not None and empty()
    assert solve_lp(lp([-1.0], [[1.0]], "G", [0.0])).status == "unbounded" and empty()
    with pytest.raises(ValueError):
        solve_lp(lp([np.nan], [[1.0]], "G", [3.0]))
    with pytest.raises(ValueError):
        solve_lp(lp([1.0], [[np.inf]], "G", [3.0]))
    assert empty()

    # a warm start that hits an iteration limit falls back to the cold retry
    limited = lp_engine._highs_options("off")
    limited.simplex_iteration_limit = 0
    statuses = []
    run = lp_engine._run_highs

    def recording(*args, **kw):
        out = run(*args, **kw)
        statuses.append((args[-1] is not None, out[0]))
        return out

    monkeypatch.setattr(lp_engine, "_run_highs", recording)
    p = lp([1.0], [[1.0]], "G", [3.0])
    solve_lp(p)
    add_rows(p, [(np.array([1.0]), 4.0)])
    monkeypatch.setattr(lp_engine, "_WARM_OPTIONS", limited)
    del statuses[:]
    assert solve_lp(p).objective == pytest.approx(4.0) and empty()
    assert statuses == [(True, None), (False, "optimal")]

    monkeypatch.setattr(lp_engine, "_COLD_OPTIONS", limited)
    with pytest.raises(NumericalFailure):
        solve_lp(lp([1.0], [[1.0]], "G", [3.0]))
    assert empty()


def test_sibling_nodes_keep_their_parents_basis_while_rows_are_appended(monkeypatch):
    rng = np.random.default_rng(12)
    seen = {}  # id of a stored HighsBasis -> [basis tuple, its rows, its column statuses, users]
    grown_shared = 0
    solve = lp_engine.solve_lp

    def checked(p, **kw):
        nonlocal grown_shared
        start = p.basis
        if start is not None:
            entry = seen.setdefault(id(start[2]), [start, len(start[2].row_status),
                                                   list(start[2].col_status), set()])
            entry[3].add(id(p))
            grown_shared += len(entry[3]) > 1 and start[1] < p.m
        sol = solve(p, **kw)
        for basis, rows, cols, _ in seen.values():
            assert basis[1] == rows == len(basis[2].row_status)
            assert list(basis[2].col_status) == cols
        if start is not None:
            cold = solve(cold_copy(p))
            assert sol.status == cold.status
            if sol.status == "optimal":
                assert sol.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        return sol

    monkeypatch.setattr(lp_engine, "solve_lp", checked)
    for _ in range(12):
        n = int(rng.integers(5, 9))
        c = -rng.uniform(1, 3, size=n)
        visible = rng.uniform(1, 4, size=(1, n))
        hidden = rng.uniform(0, 4, size=(4, n))
        cap = 0.6 * visible.sum()
        hidden_cap = 0.5 * hidden.sum(axis=1)

        class Lazy(CutOracle):
            def separate(self, x):
                bad = np.flatnonzero(hidden @ x > hidden_cap + 1e-9)
                # hidden[i] @ x <= hidden_cap[i], negated
                return [(-hidden[i], -float(hidden_cap[i])) for i in bad[:1]]

        sol = branch_and_cut(mip(c, visible, "L", [cap], lo=np.zeros(n), up=np.ones(n),
                                 integer=[True] * n), oracle=Lazy())
        bits = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
        feas = (bits @ visible.T <= cap + 1e-9).all(axis=1) & \
            (bits @ hidden.T <= hidden_cap + 1e-9).all(axis=1)
        assert sol.objective == pytest.approx(float((bits[feas] @ c).min()), abs=1e-7)
    assert grown_shared > 0, "a sibling started from a basis taken before rows were appended"


def test_bound_multipliers_give_the_dual_objective_of_the_basis_status_rule():
    rng = np.random.default_rng(13)
    fixed_duals = 0
    for _ in range(50):
        n, m = int(rng.integers(3, 10)), int(rng.integers(2, 8))
        kind = rng.choice(["fixed", "free", "lower", "upper", "boxed"], size=n)
        x0 = rng.uniform(-2, 2, size=n)
        lo = np.where(np.isin(kind, ["lower", "boxed"]), x0 - rng.uniform(0, 1, size=n), -np.inf)
        up = np.where(np.isin(kind, ["upper", "boxed"]), x0 + rng.uniform(0, 1, size=n), np.inf)
        lo[kind == "fixed"] = up[kind == "fixed"] = x0[kind == "fixed"]
        a = rng.uniform(-2, 2, size=(m, n)) * (rng.random((m, n)) < 0.7)
        senses = rng.choice(["G", "L", "E"], size=m)
        rhs = a @ x0 + np.where(senses == "G", -1, np.where(senses == "L", 1, 0)) \
            * rng.uniform(0, 1, size=m)
        # a dual-feasible cost keeps every LP bounded
        y = rng.uniform(0, 1, size=m) * np.where(senses == "G", 1, np.where(senses == "L", -1, 0))
        y[senses == "E"] = rng.uniform(-1, 1, size=(senses == "E").sum())
        r = rng.uniform(-1, 1, size=n)
        r[kind == "free"] = 0.0
        r[kind == "lower"] = np.abs(r[kind == "lower"])
        r[kind == "upper"] = -np.abs(r[kind == "upper"])
        p = lp(a.T @ y + r, a, senses, rhs, lo, up)
        sol = solve_lp(p)
        assert sol.status == "optimal"

        # the same solve on a HiGHS object of its own; multipliers by basis status
        hl = highs.HighsLp()
        hl.num_col_ = hl.a_matrix_.num_col_ = n
        hl.num_row_ = hl.a_matrix_.num_row_ = m
        hl.a_matrix_.format_ = highs.MatrixFormat.kColwise
        csc = p.A.tocsc()
        hl.a_matrix_.start_, hl.a_matrix_.index_, hl.a_matrix_.value_ = \
            csc.indptr, csc.indices, csc.data
        hl.col_cost_, hl.col_lower_, hl.col_upper_ = p.c, lo, up
        hl.row_lower_ = np.where(senses == "L", -np.inf, rhs)
        hl.row_upper_ = np.where(senses == "G", np.inf, rhs)
        own = highs._Highs()
        own.passOptions(lp_engine._COLD_OPTIONS)
        own.passModel(hl)
        own.run()
        ref = own.getSolution()
        status = np.array([int(s) for s in own.getBasis().col_status])
        col_dual = np.array(ref.col_dual)
        lo_d = np.where(status == int(highs.HighsBasisStatus.kLower), col_dual, 0.0)
        up_d = np.where(status == int(highs.HighsBasisStatus.kUpper), col_dual, 0.0)
        fin_lo, fin_up = (lo_d != 0) & np.isfinite(lo), (up_d != 0) & np.isfinite(up)
        want = float(np.array(ref.row_dual) @ rhs + lo_d[fin_lo] @ lo[fin_lo]
                     + up_d[fin_up] @ up[fin_up])
        assert sol.dual_objective == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert sol.dual_objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)
        fixed_duals += int((col_dual[kind == "fixed"] != 0).sum())
    assert fixed_duals > 0


def gap_pruned_mip():
    """min 1e6 w + y with w = 1 and y >= max(0.5 - x, 0.4 x - 0.2, 0), x in
    {0, 1}: the root LP sits at x = 0.5 with 1e6, the child x <= 0 costs
    1e6 + 0.5 and the child x >= 1 the optimum 1e6 + 0.2, both within
    MIP_GAP of the root."""
    return mip([0.0, 1.0, 1e6], [[1.0, 1.0, 0.0], [-0.4, 1.0, 0.0]], "GG", [0.5, -0.2],
               lo=[0.0, 0.0, 1.0], up=[1.0, np.inf, 1.0], integer=[True, False, False])


@pytest.mark.parametrize("round_heuristic", [True, False])
def test_bound_covers_the_nodes_the_gap_test_drops(round_heuristic):
    # the first incumbent (x = 0) ends the search within the gap, so the
    # x >= 1 node is dropped unsolved; its bound, the root's 1e6, is below
    # both the incumbent and the optimum it hides
    sol = branch_and_cut(gap_pruned_mip(), round_heuristic=round_heuristic)
    assert sol.status == "optimal" and sol.objective == pytest.approx(1e6 + 0.5)
    assert sol.bound == pytest.approx(1e6) and sol.bound <= 1e6 + 0.2
    assert sol.gap == pytest.approx(0.5 / (1e6 + 0.5))


def test_no_heuristic_lp_once_the_deadline_has_passed(monkeypatch):
    from conftest import CueDeadline

    deadline, lps = CueDeadline(), []

    def expiring_solve(p, solve=lp_engine.solve_lp, **kw):
        lps.append(p)
        deadline.expired = True  # the root LP outlasts the limit
        return solve(p, **kw)

    monkeypatch.setattr(lp_engine, "solve_lp", expiring_solve)
    sol = branch_and_cut(gap_pruned_mip(), deadline=deadline, round_heuristic=True)
    assert len(lps) == 1
    assert sol.status == "time_limit" and sol.x is None and sol.bound == pytest.approx(1e6)


def test_oracle_never_sees_a_node_the_incumbent_dominates():
    # min theta, theta >= 1 - 2x, theta >= 3x - 1.5, x in {0, 1}: the root
    # LP sits at x = 0.5 with 0; the child x <= 0 (popped first) costs 1
    # and the oracle accepts it, so its 1 is the incumbent; the child
    # x >= 1 has bound 0 at the pop but its first LP costs 1.5
    calls = []

    class Recourse(CutOracle):
        def separate(self, x):  # theta >= 1 + 3x, Q(0) = 1, Q(1) = 4
            calls.append(x.copy())
            return [(np.array([-3.0, 1.0]), 1.0)] if x[1] < 1.0 + 3.0 * x[0] - 1e-9 else []

    m = mip([0.0, 1.0], [[2.0, 1.0], [-3.0, 1.0]], "GG", [1.0, -1.5],
            lo=[0.0, 0.0], up=[1.0, np.inf], integer=[True, False])
    sol = branch_and_cut(m, oracle=Recourse())
    assert sol.status == "optimal" and sol.objective == pytest.approx(1.0)
    assert sol.nodes == 3
    assert [x[0] for x in calls] == [0.0]  # the x >= 1 node is never separated
    assert sol.bound <= 1.5


def random_branching_mip(rng):
    """A small MIP with '>=', '<=' and '==' rows and boxed, one-sided, free
    and fixed columns.  Its cost is A'y + r for a y and r of the signs an
    optimum's duals take, so every LP of its branch and bound is bounded."""
    n, m = int(rng.integers(4, 10)), int(rng.integers(2, 7))
    kind = rng.choice(["fixed", "free", "lower", "upper", "boxed"], size=n,
                      p=[0.1, 0.1, 0.15, 0.15, 0.5])
    x0 = rng.uniform(-3, 3, size=n)
    lo = np.where(np.isin(kind, ["lower", "boxed"]), x0 - rng.uniform(0, 2, size=n), -np.inf)
    up = np.where(np.isin(kind, ["upper", "boxed"]), x0 + rng.uniform(0, 2, size=n), np.inf)
    lo[kind == "fixed"] = up[kind == "fixed"] = np.round(x0[kind == "fixed"])
    x0[kind == "fixed"] = lo[kind == "fixed"]
    a = rng.uniform(-2, 2, size=(m, n)) * (rng.random((m, n)) < 0.7)
    senses = rng.choice(["G", "L", "E"], size=m, p=[0.4, 0.4, 0.2])
    rhs = a @ x0 + np.where(senses == "G", -1, np.where(senses == "L", 1, 0)) \
        * rng.uniform(0, 1, size=m)
    y = rng.uniform(0, 1, size=m) * np.where(senses == "G", 1, np.where(senses == "L", -1, 0))
    y[senses == "E"] = rng.uniform(-1, 1, size=(senses == "E").sum())
    r = rng.uniform(-1, 1, size=n)
    r[kind == "free"] = 0.0
    r[kind == "lower"] = np.abs(r[kind == "lower"])
    r[kind == "upper"] = -np.abs(r[kind == "upper"])
    integer = (kind == "boxed") & (rng.random(n) < 0.8)  # a finite search
    return mip(a.T @ y + r, a, senses, rhs, lo, up, integer), x0


def test_every_child_lp_costs_at_least_its_parent_plus_its_penalty(monkeypatch):
    """Each fractional node LP's children, solved cold, end at or above the
    node's value plus their penalty: on rows given up front, rows appended
    before the root solve and rows an oracle appends during the search."""
    rng = np.random.default_rng(21)
    solve = lp_engine.solve_lp
    children, raised = 0, 0

    def checked(p, **kw):
        nonlocal children, raised
        sol = solve(p, **kw)
        if kw.get("int_cols") is None or sol.status != "optimal" or sol.branch[0] is None:
            return sol
        col, down, up = sol.branch
        assert np.isfinite(down) and np.isfinite(up) and down >= 0.0 and up >= 0.0
        split = np.floor(sol.x[col] + INT_TOL)
        for penalty, side in ((down, "up"), (up, "lo")):
            child = cold_copy(p)
            if side == "up":
                child.up[col] = min(child.up[col], split)
            else:
                child.lo[col] = max(child.lo[col], split + 1.0)
            if child.lo[col] > child.up[col]:
                continue
            cold = solve(child)
            assert cold.status in ("optimal", "infeasible")
            if cold.status == "optimal":
                tol = 1e-9 * max(1.0, abs(cold.objective))
                assert cold.objective >= sol.objective + penalty - tol
                children += 1
                raised += penalty > 1e-6
        return sol

    class Appending(CutOracle):
        """Appends its rows, one per call, while it has any left."""

        def __init__(self, rows):
            self.rows = rows

        def separate(self, x):
            return [self.rows.pop()] if self.rows else []

    monkeypatch.setattr(lp_engine, "solve_lp", checked)
    for trial in range(60):
        m, x0 = random_branching_mip(rng)
        if trial % 2:
            assert solve_lp(m).status == "optimal"  # a basis the root extends
            add_rows(m, random_rows(rng, x0, int(rng.integers(1, 4))))
        oracle = Appending(random_rows(rng, x0, 3)) if trial % 3 == 0 else None
        branch_and_cut(m, oracle=oracle, round_heuristic=False)
    assert children > 100 and raised > 20


def test_a_branch_with_no_eligible_move_has_zero_penalties():
    # 2 x0 == 1 holds x0 at 0.5; the '==' row cannot move and x1 is not in
    # x0's tableau row, so no pivot moves x0: both children are infeasible,
    # yet each penalty is 0, not inf
    sol = solve_lp(lp([1.0, 1.0], [[2.0, 0.0]], "E", [1.0], lo=[0.0, 0.0], up=[5.0, 5.0]),
                   int_cols=np.array([0]))
    assert sol.status == "optimal" and sol.x[0] == 0.5
    assert sol.branch == (0, 0.0, 0.0)


def test_a_free_nonbasic_column_moves_either_way_at_no_cost():
    # g, solved fixed at 0 and then freed, stays nonbasic at 0 in the warm
    # optimum x0 = 0.5; g shifts x0 at no cost, so both children cost 0 too
    p = lp([0.0, 1.0, 0.0], [[-1.0, 1.0, 1.0], [1.0, 1.0, -1.0]], "GG", [-0.5, 0.5],
           lo=[0.0, -np.inf, 0.0], up=[2.0, np.inf, 0.0])
    assert solve_lp(p).x[0] == 0.5
    p.lo[2], p.up[2] = -np.inf, np.inf
    sol = solve_lp(p, int_cols=np.array([0]))
    assert sol.objective == 0.0 and sol.x[0] == 0.5 and sol.x[2] == 0.0
    assert sol.branch == (0, 0.0, 0.0)


def node_lps(monkeypatch, m, penalties):
    """(lo, up) of each node LP branch_and_cut solves on m, in order, and its
    result; without penalties every floor is its parent's LP value, the
    search as it was before floors."""
    solve, seen = lp_engine.solve_lp, []

    def recording(p, **kw):
        sol = solve(p, **kw)
        if kw.get("int_cols") is not None:
            seen.append((tuple(p.lo), tuple(p.up)))
            if not penalties and sol.status == "optimal":
                sol.branch = (sol.branch[0], 0.0, 0.0)
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(lp_engine, "solve_lp", recording)
        return seen, branch_and_cut(m)


def test_floors_skip_child_lps_and_keep_the_order_of_the_rest(monkeypatch):
    rng = np.random.default_rng(22)
    skipped = 0
    for _ in range(40):
        m, _ = random_branching_mip(rng)
        before, old = node_lps(monkeypatch, m, penalties=False)
        after, new = node_lps(monkeypatch, m, penalties=True)
        pruned = [node for node in before if node not in after]
        assert after == [node for node in before if node not in pruned]
        assert (new.status, new.objective) == (old.status, old.objective)
        if new.bound != old.bound:
            # a floor within the gap became the least bound the gap test dropped
            window = MIP_GAP * max(abs(new.objective), 1.0)
            assert new.objective - window <= min(new.bound, old.bound)
            assert max(new.bound, old.bound) <= new.objective
        skipped += len(pruned)
    assert skipped > 0


def warm_child_lp(seed):
    """A dense LP over [0, 1] columns, solved, and its child that fixes the
    six largest columns of that optimum at 0 and starts from its basis: a
    warm dual simplex of many pivots.  Returns (child, parent's optimum)."""
    rng = np.random.default_rng(seed)
    n, m = 30, 20
    a = rng.uniform(0.1, 1.0, size=(m, n))
    parent = lp(-rng.uniform(0.5, 1.0, size=n), a, "L" * m, np.full(m, 5.0),
                lo=np.zeros(n), up=np.ones(n))
    sol = solve_lp(parent)
    child = lp(parent.c, a, parent.senses, parent.rhs, parent.lo, parent.up)
    child.basis = parent.basis
    child.up[np.argsort(-sol.x)[:6]] = 0.0
    return child, sol.objective


def test_a_warm_lp_stops_on_a_cutoff_below_its_optimum():
    child, start = warm_child_lp(3)
    full = solve_lp(cold_copy(child))
    assert full.status == "optimal" and full.objective > start + 0.5
    for frac in (0.1, 0.5, 0.99):
        cutoff = start + frac * (full.objective - start)
        sol = solve_lp(warm_child_lp(3)[0], cutoff=cutoff)
        assert sol.status == "cutoff" and sol.objective == cutoff
        assert sol.x is None and sol.duals is None and sol.branch is None
    none = solve_lp(warm_child_lp(3)[0])
    above = solve_lp(child, cutoff=full.objective + 1e-6)
    assert above.status == none.status == "optimal"
    assert above.objective == none.objective and (above.x == none.x).all()
    assert none.objective == pytest.approx(full.objective, rel=1e-9)


def test_no_cutoff_outlives_its_solve():
    # the cut-off stops one warm solve; the next warm solve, of the same LP
    # without one, runs to its optimum above that value
    child, start = warm_child_lp(3)
    twin = LpProblem(c=child.c, A=child.A, senses=child.senses, rhs=child.rhs,
                     lo=child.lo.copy(), up=child.up.copy(), basis=child.basis)
    cutoff = start + 0.1
    assert solve_lp(child, cutoff=cutoff).status == "cutoff"
    sol = solve_lp(twin)
    assert sol.status == "optimal" and sol.objective > cutoff
    assert solve_lp(cold_copy(twin)).objective == pytest.approx(sol.objective, rel=1e-9)


def test_cutoffs_leave_branch_and_bound_as_it_was(monkeypatch):
    """Each node LP gets the incumbent's value as its cut-off: on random
    MIPs the search, its node order and its answer are those of the search
    that solves every node LP to its end.  The cut-off fires only where a
    node LP takes several dual pivots, as on the covering MIPs here (min
    v'x, A x >= b, x in {0, ..., 3}^16, A dense)."""
    rng = np.random.default_rng(22)
    mips = [random_branching_mip(rng)[0] for _ in range(40)]
    cover = np.random.default_rng(22)
    for _ in range(10):
        n, m = 16, 8
        a = cover.uniform(0.1, 1.0, size=(m, n))
        mips.append(mip(cover.uniform(0.5, 1.0, size=n), a, "G" * m, 0.37 * a.sum(axis=1),
                        np.zeros(n), np.full(n, 3.0), [True] * n))
    fired = 0
    for m in mips:
        before, none, old = node_lp_path(monkeypatch, m, cutoff=False)
        after, cutoffs, new = node_lp_path(monkeypatch, m, cutoff=True)
        assert none == 0 and after == before
        assert (new.status, new.objective, new.bound) == (old.status, old.objective, old.bound)
        assert (new.x is None and old.x is None) or (new.x == old.x).all()
        fired += cutoffs
    assert fired > 0


def test_an_lp_past_the_deadline_raises_and_leaves_no_time_limit_behind():
    """An LP that outlasts the deadline raises DeadlineReached; the next
    solve with no deadline runs to its optimum (HiGHS's run clock adds up
    over every solve of the one object)."""
    rng = np.random.default_rng(0)
    n, m = 300, 200
    a = rng.uniform(0.0, 1.0, size=(m, n))
    big = lp(-rng.uniform(0.0, 1.0, size=n), a, "L" * m, np.full(m, 10.0),
             lo=np.zeros(n), up=np.ones(n))
    with pytest.raises(DeadlineReached):
        solve_lp(big, deadline=Deadline(0.0))
    assert lp_engine._HIGHS.getNumCol() == 0 and big.basis is None
    sol = solve_lp(big)
    assert sol.status == "optimal"
    assert solve_lp(cold_copy(big), deadline=Deadline(60.0)).objective == \
        pytest.approx(sol.objective, rel=1e-9)


def test_a_node_whose_first_lp_the_deadline_stops_keeps_its_own_bound(monkeypatch):
    """The deadline stops the k-th node LP before it finishes: that node
    stays open with its own bound, not the value of the LP solved before
    it, so the reported bound stays at or below the optimum."""
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(30):
        m, _ = random_branching_mip(rng)
        full = branch_and_cut(m)
        if full.status != "optimal":
            continue
        for k in range(2, full.nodes + 1):
            calls = []

            def stopping(p, solve=lp_engine.solve_lp, **kw):
                calls.append(p)
                if len(calls) == k:
                    raise DeadlineReached
                return solve(p, **kw)

            with monkeypatch.context() as patch:
                patch.setattr(lp_engine, "solve_lp", stopping)
                sol = branch_and_cut(m)
            assert sol.status == "time_limit" and len(calls) == k
            assert sol.bound <= full.objective + 1e-9 * max(1.0, abs(full.objective))
            checked += 1
    assert checked > 20
