from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from mcsip.aggregate import Transformation, build_aggregation
from mcsip.errors import InfeasiblePolicy
from mcsip.hdr import build_hdr_aggregated
from mcsip.ldr import LdrVariant, build_ldr_model
from mcsip.lp_engine import Deadline, DeadlineReached, branch_and_cut, solve_lp
from mcsip.markov import MarkovChain, McState
from mcsip.model import LpProblem, Msilp, NodeData, build_aggregated_extensive_form, smat
from mcsip.sddp import MasterPoint, SddpConfig, SddpEngine, build_master, \
    decode_master, evaluate_policy, solve_exact, solve_lower_bound
from mcsip.tree import build_tree

from conftest import CueDeadline, make_random_msilp, scipy_csr


def chain_msilp(child_rows, k=1, l=1, r=1, T=2, root_d=(0.0,), h=(1.0,),
                x_up=10.0, n_children=1):
    """Tiny hand-built instance on a one- or two-state chain."""
    if n_children == 1:
        s = McState((0,))
        mc = MarkovChain((s,), {(s, s): 1.0}, s)
    else:
        a, b = McState((0,)), McState((1,))
        mc = MarkovChain((a, b), {(a, a): 0.5, (a, b): 0.5,
                                  (b, a): 0.5, (b, b): 0.5}, a)
    tree = build_tree(mc, T)
    root = NodeData(
        b=np.zeros(0), sen_l=np.empty(0, dtype="<U1"),
        c=np.zeros(l), d=np.array(root_d), h=np.zeros(r),
        x_lo=np.zeros(k), x_up=np.full(k, x_up),
        y_lo=np.zeros(r), y_up=np.full(r, np.inf),
        z_lo=np.zeros(l), z_up=np.zeros(l),
    )
    C, E, A, b_vec, senses = child_rows
    nl = len(b_vec)
    child = NodeData(
        C=smat(sp.csr_matrix(np.asarray(C, dtype=float).reshape(nl, k)), (nl, k)) if C is not None else None,
        E=smat(sp.csr_matrix(np.asarray(E, dtype=float).reshape(nl, r)), (nl, r)) if E is not None else None,
        A=smat(sp.csr_matrix(np.asarray(A, dtype=float).reshape(nl, k)), (nl, k)) if A is not None else None,
        b=np.asarray(b_vec, dtype=float), sen_l=np.array(list(senses), dtype="<U1"),
        c=np.zeros(l), d=np.zeros(k), h=np.array(h),
        x_lo=np.zeros(k), x_up=np.full(k, x_up),
        y_lo=np.zeros(r), y_up=np.full(r, np.inf),
        z_lo=np.zeros(l), z_up=np.zeros(l),
    )
    data = [root] + [child] * (len(tree) - 1)
    return Msilp(tree=tree, data=data, k=k, l=l, r=r)


def candidate_for(engine, m, agg, x_root=None):
    lay_prob, lay = build_master(m, agg, engine.cfg.theta_lb)
    z = {g: np.zeros(m.l) for g in agg.group_index}
    theta = {nid: engine.cfg.theta_lb for nid in m.tree.node(m.tree.root).children}
    return MasterPoint(np.zeros(m.k) if x_root is None else np.asarray(x_root, float),
                       z, theta, agg.node_to_group[m.tree.root])


def with_integer_rows(m):
    """m with integer rows appended to every node's linking rows, each a
    linking row with D and B entries only: at most one z is 1 and, off
    the root, z_0 is at least its parent's."""
    made = {}
    for node in m.tree.nodes:
        nd = m.data[node.id]
        if id(nd) in made:
            continue
        on_z, on_z_par, rhs = [-np.ones(m.l)], [np.zeros(m.l)], [-1.0]
        if node.parent is not None:
            on_z.append(np.eye(m.l)[0])
            on_z_par.append(np.eye(m.l)[0])
            rhs.append(0.0)
        nl, n = nd.b.size, len(rhs)

        def grow(M, width, rows=None):
            dense = np.zeros((nl, width)) if M is None else M.toarray()
            return smat(np.vstack([dense, np.zeros((n, width)) if rows is None else rows]),
                        (nl + n, width))

        made[id(nd)] = replace(nd, C=grow(nd.C, m.k), D=grow(nd.D, m.l, on_z),
                               E=grow(nd.E, m.r), A=grow(nd.A, m.k),
                               B=grow(nd.B, m.l, on_z_par), b=np.concatenate([nd.b, rhs]),
                               sen_l=np.concatenate([nd.sen_l, ["G"] * n]))
    return Msilp(tree=m.tree, data=[made[id(nd)] for nd in m.data], k=m.k, l=m.l, r=m.r)


def test_a_linking_row_on_z_alone_goes_to_the_master():
    """A z-only constraint written as a linking row with D and B entries
    only is an integer row: it is a row of S's master, in no subproblem
    LP, and S's optimum equals Ex's.  The at-most-one row binds here: the
    optimum without it is lower."""
    m0 = make_random_msilp(seed=7, T=3)
    m = with_integer_rows(m0)
    agg = build_aggregation(m.tree, Transformation("fh"))
    ex = branch_and_cut(build_aggregated_extensive_form(m, agg)).objective
    assert branch_and_cut(build_aggregated_extensive_form(m0, agg)).objective < ex - 1e-3

    master, lay = build_master(m, agg)
    rows = {(tuple(master.A.indices[a:b]), tuple(master.A.data[a:b]), sense, rhs)
            for a, b, sense, rhs in zip(master.A.indptr[:-1], master.A.indptr[1:],
                                        master.senses, master.rhs)}
    for g, off in lay.z_off.items():
        assert (tuple(range(off, off + m.l)), (-1.0,) * m.l, "G", -1.0) in rows, g
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    for key, sub in engine.subs.items():
        nd = sub.nd
        on_x_or_y = np.zeros(nd.b.size, dtype=bool)
        for M in (nd.C, nd.E, nd.A):
            if M is not None:
                on_x_or_y |= np.any(M.toarray() != 0, axis=1)
        assert sub.lp.m == on_x_or_y.sum() < nd.b.size, key

    sd = solve_exact(m, agg, SddpConfig(seed=0))
    assert sd.objective == pytest.approx(ex, rel=1e-6, abs=1e-6)


def test_two_stage_reduces_to_benders():
    m = make_random_msilp(seed=1, T=2)
    agg = build_aggregation(m.tree, Transformation("fh"))
    ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
    sd = solve_exact(m, agg, SddpConfig(seed=0))
    assert sd.objective == pytest.approx(ex.objective, rel=1e-7)
    assert sd.cut_counts["master_cuts"] >= 1


def test_master_cut_tight_at_generation():
    m = make_random_msilp(seed=2, T=2)
    agg = build_aggregation(m.tree, Transformation("fh"))
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    cand = candidate_for(engine, m, agg)
    n2 = m.tree.node(m.tree.root).children[0]
    cut = engine.sddp_subroutine(cand, n2)
    assert cut is not None
    val = cut.value_at(cand.x_root, cand.z, cand.root_group)
    assert val == pytest.approx(cut.gen_value, abs=1e-6)


def test_constant_cut_when_child_has_no_parent_coupling():
    m = chain_msilp(child_rows=([0.0], [1.0], None, [1.0], "G"))
    agg = build_aggregation(m.tree, Transformation("hn"))
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    sub = engine.subs[engine.pgraph.subproblems[0]]
    cand = candidate_for(engine, m, agg, x_root=[0.7])
    sols = {}
    nid = m.tree.stage_nodes(2)[0]
    assert engine._forward(engine.plan([nid]), cand, sols) is None
    cut = engine.make_cut(sub, *sols[nid])
    assert np.allclose(cut.slope[:m.k + m.l], 0.0)  # on x_parent and the parent group
    assert cut.gamma == pytest.approx(1.0)  # min{y : y >= 1}


def test_unit_coupling_cut_has_unit_slope():
    # child = min{y : y >= x_parent}: the cut is theta >= x
    m = chain_msilp(child_rows=([0.0], [1.0], [1.0], [0.0], "G"))
    agg = build_aggregation(m.tree, Transformation("hn"))
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    nid = m.tree.stage_nodes(2)[0]
    cand = candidate_for(engine, m, agg, x_root=[0.7])
    sols = {}
    engine._forward(engine.plan([nid]), cand, sols)
    cut = engine.make_cut(engine.subs[engine.pgraph.node_to_sub[nid]], *sols[nid])
    assert cut.slope[0] == pytest.approx(1.0)
    assert cut.gamma == pytest.approx(0.0, abs=1e-9)
    assert sols[nid][0].objective == pytest.approx(0.7)


def test_cut_underestimates_resolved_value_at_random_points():
    m = make_random_msilp(seed=3, T=3)
    agg = build_aggregation(m.tree, Transformation("ma"))
    audit_cut_validity(m, agg, seed=0, n_points=30)


def s_solve(m, agg, seed=0):
    """An S solve as solve_exact runs it; returns its engine, its master
    with every cut row added and the master's layout."""
    from mcsip.sddp import _MasterOracle, _root_precut

    cfg = SddpConfig(seed=seed)
    master, lay = build_master(m, agg, cfg.theta_lb)
    engine = SddpEngine(m, agg, cfg)
    oracle = _MasterOracle(engine, lay)
    _root_precut(master, oracle)
    assert branch_and_cut(master, oracle).status == "optimal"
    return engine, master, lay


def audit_cut_validity(m, agg, seed, n_points, tol=1e-6):
    """Re-solve children at sampled feasible points; stored cuts must stay
    below the re-solved value and be tight where they were generated."""
    engine, _, _ = s_solve(m, agg, seed)
    rng = np.random.default_rng(seed + 99)
    checked = 0
    for owner, cuts in engine.pools.items():
        if not cuts:
            continue
        sub = engine.subs[owner]
        for _ in range(n_points):
            x_par = rng.uniform(m.data[0].x_lo, np.minimum(m.data[0].x_up, 10.0))
            zvals = {g: rng.integers(0, 2, size=m.l).astype(float)
                     for g in agg.group_index}
            pg = engine.agg.node_to_group[
                m.tree.node(engine.pgraph.sub_members[owner][0]).parent]
            s = engine.solve_sub(sub, x_par, zvals, pg)
            if s.status != "optimal":
                continue
            for cut in cuts:
                if cut.kind != "optimality":
                    continue
                val = cut.value_at(np.asarray(x_par, float), zvals, pg)
                assert val <= s.objective + tol
                checked += 1
        for cut in cuts:
            if cut.kind == "optimality":
                tight = cut.value_at(cut.gen_x, cut.gen_z, cut.gen_parent_group)
                assert tight == pytest.approx(cut.gen_value, abs=1e-6)
    assert checked > 0


def test_exactness_generic_instances():
    for seed, kind in ((4, "hn"), (4, "ma"), (4, "fh"), (7, "mm"), (9, "ma")):
        m = make_random_msilp(seed=seed, T=3)
        agg = build_aggregation(m.tree, Transformation(kind))
        ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
        sd = solve_exact(m, agg, SddpConfig(seed=0))
        assert sd.objective == pytest.approx(ex.objective, rel=1e-5), (seed, kind)


def test_exactness_with_state_rows_and_deterministic_chain():
    m = chain_msilp(child_rows=([1.0], [1.0], [0.6], [0.5], "G"),
                    T=3, root_d=(0.3,))
    agg = build_aggregation(m.tree, Transformation("ma"))
    ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
    sd = solve_exact(m, agg, SddpConfig(seed=0))
    assert sd.objective == pytest.approx(ex.objective, rel=1e-7)


def test_forward_pass_visits_state_keyed_subproblems():
    # scenario light->dark->dark->dark visits the dark subproblem at t=2,3,4
    m = make_random_msilp(seed=5, T=4, n_states=2)
    agg = build_aggregation(m.tree, Transformation("ma"))
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    target = None
    from mcsip.tree import mc_history, path as tpath

    for leaf in m.tree.leaves():
        states = tuple(s.attrs[0] for s in mc_history(m.tree, leaf))
        if states == (0, 1, 1, 1):
            target = leaf
    assert target is not None
    cand = candidate_for(engine, m, agg)
    sols = {}
    assert engine._forward(engine.plan(tpath(m.tree, target)[1:]), cand, sols) is None
    visited = [engine.pgraph.node_to_sub[nid] for nid in sols]
    assert [key[:2] for key in visited] == [(2, (1,)), (3, (1,)), (4, (1,))]
    for key in visited:
        assert key[1] == (1,)  # every visited subproblem is keyed by dark


def fh_engine(hdr_toy_msilp):
    m = hdr_toy_msilp
    agg = build_aggregation(m.tree, Transformation("fh"))
    return m, agg, SddpEngine(m, agg, SddpConfig(seed=0))


def incoming_group(engine, key):
    tree = engine.msilp.tree
    return engine.agg.node_to_group[tree.node(engine.pgraph.sub_members[key][0]).parent]


def count_sub_lps(monkeypatch) -> list:
    """A list that grows by one entry per lp_engine.solve_lp call, where
    every subproblem LP is solved."""
    from mcsip import lp_engine

    calls, real = [], lp_engine.solve_lp
    monkeypatch.setattr(lp_engine, "solve_lp",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    return calls


def same_lp(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("c", "lo", "up", "senses")) and \
        a.A.shape == b.A.shape and np.array_equal(a.A.toarray(), b.A.toarray())


def test_equal_lps_share_one_identity_and_one_solve(hdr_toy, hdr_toy_msilp, monkeypatch):
    """State LPs share an LP identity exactly when their LPs are equal, and
    at equal rhs the second one is served without a solve: S's subproblems,
    and LDR-M's node LPs, whose equal LPs span (stage, state) groups."""
    m, agg, engine = fh_engine(hdr_toy_msilp)
    z = {g: np.zeros(m.l) for g in agg.group_index}
    # (state LP, its incoming state, its group)
    subs = [(sub, sub.state(np.zeros(m.k), z, incoming_group(engine, key)), key)
            for key, sub in engine.subs.items()]
    pm = Transformation("pm", partial_attrs=(2,))
    ma = build_hdr_aggregated(hdr_toy, build_aggregation(hdr_toy_msilp.tree, pm))
    model = build_ldr_model(ma, build_aggregation(ma.tree, pm), LdrVariant("m"))
    w = np.zeros(model.layout.n_cols)
    node_lps = [(nl, w, (ma.tree.node(nid).stage, ma.tree.node(nid).mc_state.attrs))
                for nid, nl in model.node_lps.items()]

    calls = count_sub_lps(monkeypatch)
    for lps in (subs, node_lps):
        for i, (a, _, ga) in enumerate(lps):
            for b, _, gb in lps[i + 1:]:
                assert (a.lp_id == b.lp_id) == same_lp(a.lp, b.lp), (ga, gb)
        (a, wa, _), (b, wb, _) = next(
            (a, b) for i, a in enumerate(lps) for b in lps[i + 1:]
            if a[0].lp_id == b[0].lp_id and a[2] != b[2]
            and np.array_equal(a[0].const + a[0].R @ a[1], b[0].const + b[0].R @ b[1]))
        calls.clear()
        first = a.solve(wa, Deadline())
        assert first.status == "optimal" and len(calls) == 1
        assert b.solve(wb, Deadline()) is first
        assert len(calls) == 1


@pytest.mark.parametrize("method", ["s", "ldr"])
def test_state_lps_serve_every_memoised_outcome_and_check_the_deadline_on_misses(
        monkeypatch, method):
    """S's subproblems and LDR's node LPs answer by one rule: an infeasible
    outcome is served again without a second HiGHS run, a memoised outcome
    is served after the deadline, and a miss after it raises."""
    # the child is feasible exactly when x_parent <= 1.5
    m = chain_msilp(child_rows=(None, [[-1.0], [1.0]], [[1.0], [0.0]], [-2.0, 0.5], "GG"))
    agg = build_aggregation(m.tree, Transformation("fh"))
    deadline = CueDeadline()
    if method == "s":
        engine = SddpEngine(m, agg, SddpConfig(seed=0, deadline=deadline))
        sub = engine.subs[engine.pgraph.subproblems[0]]
        zv = {g: np.zeros(m.l) for g in agg.group_index}

        def solve(x_par):
            return engine.solve_sub(sub, np.array([x_par]), zv, agg.node_to_group[m.tree.root])
    else:
        model = build_ldr_model(m, agg, LdrVariant("t"))
        (nl,) = model.node_lps.values()

        def solve(x_par):
            w = np.zeros(model.layout.n_cols)
            w[model.layout.x_off] = x_par
            return nl.solve(w, deadline)

    calls = count_sub_lps(monkeypatch)
    assert solve(3.0).status == "infeasible" and len(calls) == 1
    assert solve(3.0).status == "infeasible" and len(calls) == 1
    assert solve(1.0).status == "optimal" and len(calls) == 2
    deadline.expired = True
    assert solve(1.0).status == "optimal" and solve(3.0).status == "infeasible"
    with pytest.raises(DeadlineReached):
        solve(0.5)
    assert len(calls) == 2


def test_add_cut_gives_new_identities_to_its_hosts_only(hdr_toy_msilp, monkeypatch):
    """A cut changes the LP of its owner's parents only: each host gets an
    identity no subproblem had, hosts that shared one still share one, and
    every other identity stays; a host's old optima are not served again."""
    from mcsip.tree import path as tpath

    m, agg, engine = fh_engine(hdr_toy_msilp)
    cand = candidate_for(engine, m, agg)
    for n2 in m.tree.node(m.tree.root).children:  # grow the pools
        engine.sddp_subroutine(cand, n2)
    sols = {}
    cand = candidate_for(engine, m, agg, x_root=np.full(m.k, 10.0))
    for leaf in m.tree.leaves():
        assert engine._forward(engine.plan(tpath(m.tree, leaf)[1:]), cand, sols) is None
    cuts = (engine.make_cut(engine.subs[engine.pgraph.node_to_sub[n]], *solved)
            for n, solved in sols.items() if m.tree.node(n).stage > 2)
    cut = next(c for c in cuts if engine._cut_signature(c) not in engine._pool_sigs[c.owner])
    hosts = set(engine.pgraph.parents[cut.owner])
    before = {key: sub.lp_id for key, sub in engine.subs.items()}
    assert engine.add_cut(cut)

    for key, sub in engine.subs.items():
        if key in hosts:
            assert sub.lp_id not in before.values()
        else:
            assert sub.lp_id == before[key]
    for a in hosts:
        for b in hosts:
            if before[a] == before[b]:
                assert engine.subs[a].lp_id == engine.subs[b].lp_id

    calls = count_sub_lps(monkeypatch)
    nid, solved = next((n, v) for n, v in sols.items() if engine.pgraph.node_to_sub[n] in hosts)
    engine.solve_sub(engine.subs[engine.pgraph.node_to_sub[nid]], *solved[1:])
    assert calls


def dual_value(lp, rhs, pi):
    """The Lagrangian dual value of min c'x over lp's rows at rhs and its
    box, at row duals pi (wrong-signed duals make it -inf): it equals the
    LP optimum exactly when pi is an optimal dual."""
    if (pi[lp.senses == "G"] < -1e-9).any() or (pi[lp.senses == "L"] > 1e-9).any():
        return -np.inf
    r = lp.c - lp.A.rmatvec(pi)
    r = np.where(np.abs(r) <= 1e-9, 0.0, r)
    with np.errstate(invalid="ignore"):
        return float(rhs @ pi + np.where(r > 0, r * lp.lo, np.where(r < 0, r * lp.up, 0.0)).sum())


def test_memo_served_answers_are_optima_of_the_asking_lp(hdr_toy_msilp, monkeypatch):
    """Every answer the engine memo serves during an S solve is an optimum
    of the asking subproblem's LP at its rhs: its objective is a cold
    solve's, its duals are optimal duals of that LP (so the slope R' pi
    through the asking map is a tight one), and its state and thetas
    extend to an optimal solution.  Degenerate LPs have several optimal
    duals, so the slope itself may differ from the cold solve's."""
    agg = build_aggregation(hdr_toy_msilp.tree, Transformation("fh"))
    k = hdr_toy_msilp.k
    calls = count_sub_lps(monkeypatch)
    solved_by, served_to_others = {}, []
    real_sub = SddpEngine.solve_sub

    def solve_sub(self, sub, x_par, zvals, parent_group):
        n = len(calls)
        opt = real_sub(self, sub, x_par, zvals, parent_group)
        lp = sub.lp
        rhs = sub.const + sub.R @ sub.state(x_par, zvals, parent_group)
        if len(calls) > n:
            solved_by.setdefault((sub.lp_id, rhs.tobytes()), sub.key)
        elif opt.status == "optimal":  # served from the memo
            cold = solve_lp(LpProblem(c=lp.c, A=lp.A, senses=lp.senses, rhs=rhs,
                                      lo=lp.lo, up=lp.up))
            assert opt.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert opt.duals.size == lp.m
            assert dual_value(lp, rhs, opt.duals) == \
                pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            lo, up = lp.lo.copy(), lp.up.copy()
            lo[:k] = up[:k] = opt.x[:k]
            lo[sub.theta0:] = up[sub.theta0:] = opt.x[sub.theta0:]
            pinned = solve_lp(LpProblem(c=lp.c, A=lp.A, senses=lp.senses, rhs=rhs,
                                        lo=lo, up=up))
            assert pinned.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            if solved_by[sub.lp_id, rhs.tobytes()] != sub.key:
                served_to_others.append(sub.key)
        return opt

    monkeypatch.setattr(SddpEngine, "solve_sub", solve_sub)
    res = solve_exact(hdr_toy_msilp, agg, SddpConfig(seed=0))
    assert res.status == "optimal"
    assert served_to_others


def test_sub_lps_see_z_only_through_the_rhs_map():
    """A subproblem LP has the x, y and theta columns only: z reaches it
    through its rhs map (R, const), which carries the D z_own term of the
    linking rows and the z part of every hosted cut."""
    from mcsip.model import node_rows, split_rows
    from mcsip.tree import path as tpath

    m = make_random_msilp(seed=4, T=4)
    agg = build_aggregation(m.tree, Transformation("ma"))
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    k, l, r = m.k, m.l, m.r
    for sub in engine.subs.values():
        assert sub.lp.n == k + r + len(engine.pgraph.children[sub.key])
        assert sub.lp.m == sub.const.size == sub.R.shape[0]

    # z differs between groups; a leaf subproblem's value is that of its
    # node rows over columns x | y | x_parent | z_parent | z_own, pinned
    rng = np.random.default_rng(1)
    zvals = {g: rng.integers(0, 2, size=l).astype(float) for g in agg.group_index}
    assert len({v.tobytes() for v in zvals.values()}) > 1
    leaves = list(m.tree.leaves())
    for leaf in leaves[:4]:
        nd, pg = m.data[leaf], agg.node_to_group[m.tree.node(leaf).parent]
        x_par = rng.uniform(0.0, 10.0, size=k)
        got = engine.solve_sub(engine.subs[engine.pgraph.node_to_sub[leaf]], x_par, zvals, pg)
        A, senses, rhs, _ = split_rows(
            node_rows(nd, 2 * k + r + l, 0, k, 2 * k + r, k + r, ())[1:], 0, 2 * k + r + 2 * l)
        pin = np.concatenate([x_par, zvals[pg], zvals[agg.node_to_group[leaf]]])
        ref = solve_lp(LpProblem(c=np.concatenate([nd.d, nd.h, np.zeros(pin.size)]), A=A,
                                 senses=senses, rhs=rhs,
                                 lo=np.concatenate([nd.x_lo, nd.y_lo, pin]),
                                 up=np.concatenate([nd.x_up, nd.y_up, pin])))
        assert got.status == ref.status == "optimal"
        assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)

    # a cut made there, slope over w = [x_parent | z_parent | z of each
    # reachable group], lands in each host as the LP row theta - (x_parent
    # block)'x and the rhs row gamma + (z_parent block)'z_own + the
    # reachable groups' blocks on their own z
    cand = candidate_for(engine, m, agg, x_root=np.full(m.k, 10.0))
    cand.z = zvals
    sols = {}
    assert engine._forward(engine.plan(tpath(m.tree, leaves[0])[1:]), cand, sols) is None
    cut = engine.make_cut(engine.subs[engine.pgraph.node_to_sub[leaves[0]]], *sols[leaves[0]])
    assert np.any(cut.slope[k:k + l]) and np.any(cut.slope[k + l:])
    assert engine.add_cut(cut)
    for pk in engine.pgraph.parents[cut.owner]:
        host = engine.subs[pk]
        # host w = [x_parent | z_parent | z of each reachable group, own group among them]
        w_off = {g: k + l + i * l for i, g in enumerate(host.z_groups)}
        want = np.zeros(host.R.shape[1])
        want[w_off[host.group]:w_off[host.group] + l] = cut.slope[k:k + l]
        for i, g in enumerate(engine.pgraph.reach[cut.owner]):
            want[w_off[g]:w_off[g] + l] += cut.slope[k + l + i * l:k + 2 * l + i * l]
        R = host.R
        last = np.zeros(R.shape[1])
        last[R.indices[R.indptr[-2]:]] = R.data[R.indptr[-2]:]
        np.testing.assert_array_equal(last, want)
        assert host.const[-1] == cut.gamma
        want = np.zeros(host.lp.n)
        want[:k] = -cut.slope[:k]
        want[host.theta_col[cut.owner]] = 1.0
        np.testing.assert_array_equal(scipy_csr(host.lp.A)[-1].toarray().ravel(), want)
        # solved at a state, the host's theta is at least the cut there
        pg = agg.node_to_group[m.tree.node(engine.pgraph.sub_members[pk][0]).parent]
        sol = engine.solve_sub(host, rng.uniform(0.0, 10.0, size=k), zvals, pg)
        theta = sol.x[host.theta_col[cut.owner]]
        assert theta >= cut.value_at(sol.x[:k], zvals, host.group) - 1e-7


def every_group_rhs_map(engine, sub):
    """sub's rhs map (R, const) before any cut, over w = [x_parent |
    z_parent | z of every group of its stage onward], and those groups:
    its node's state and linking rows over [w | x, y] split at w."""
    from mcsip.model import node_rows, split_rows

    m = engine.msilp
    k, l = m.k, m.l
    nd = m.data[engine.pgraph.sub_members[sub.key][0]]
    groups = [g for g in engine.agg.group_index if g[0] >= sub.key[0]]
    own = k + l + groups.index(sub.group) * l
    n_w = k + l + l * len(groups)
    _, _, const, R = split_rows(node_rows(nd, own, n_w, n_w + k, k, 0, ())[1:], n_w, k + m.r)
    return R, const, groups


@pytest.mark.parametrize("case", ["2x4-pm", "2x4-fh", "random-fh"])
def test_reachable_groups_drop_no_term_of_the_state(request, monkeypatch, case):
    """A subproblem's w carries its reachable groups: its own group and
    its children's reachable groups.  Before any cut its rhs equals, bit
    for bit, that of a map over every group of its stage onward, and
    after an S solve every pooled cut's slope spans exactly its owner's
    w.  The relief instance has no D z_own term, so its cuts slope in the
    parent group only; the random one's also slope in reachable groups.

    Every cut is placed where it belongs: each hosted row, read at a
    random host state as its rhs-map entry minus its LP x terms, and each
    master cut row, read at a random master point as its rhs minus its
    non-theta terms, equals the cut's value_at there."""
    from mcsip.model import z_values
    from mcsip.sddp import _Sub

    hosted, to_master = [], []  # (host, cut, the row it got); master cuts in row order

    def hosting(host, cut, real=_Sub.host_cut):
        hosted.append((host, cut, host.lp.m))
        real(host, cut)

    def subroutine(engine, cand, nid, real=SddpEngine.sddp_subroutine):
        cut = real(engine, cand, nid)
        if cut is not None:
            to_master.append(cut)
        return cut

    monkeypatch.setattr(_Sub, "host_cut", hosting)
    monkeypatch.setattr(SddpEngine, "sddp_subroutine", subroutine)

    if case == "random-fh":
        m, tr = make_random_msilp(seed=4, T=4), Transformation("fh")
    else:
        m = request.getfixturevalue("hdr_toy_msilp")
        tr = Transformation("pm", partial_attrs=(2,)) if case == "2x4-pm" else \
            Transformation("fh")
    agg = build_aggregation(m.tree, tr)
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    reach = engine.pgraph.reach
    rng = np.random.default_rng(3)
    zvals = {g: rng.integers(0, 3, size=m.l).astype(float) for g in agg.group_index}
    narrower = 0
    for key, sub in engine.subs.items():
        want = {sub.group}.union(*(reach[ck] for ck, _ in engine.pgraph.children[key]))
        assert sub.z_groups == reach[key] == sorted(want, key=agg.group_index.__getitem__)
        R, const, groups = every_group_rhs_map(engine, sub)
        narrower += len(groups) > len(sub.z_groups)
        x_par = rng.uniform(0.0, 10.0, size=m.k)
        pg = incoming_group(engine, key)
        w = np.concatenate([x_par, zvals[pg]] + [zvals[g] for g in groups])
        np.testing.assert_array_equal(sub.const + sub.R @ sub.state(x_par, zvals, pg),
                                      const + R @ w)
    assert narrower

    engine, master, lay = s_solve(m, agg)
    k, l = m.k, m.l
    cuts = [c for pool in engine.pools.values() for c in pool]
    groups_sloped = [np.count_nonzero(c.slope[k + l:].reshape(-1, l).any(axis=1)) for c in cuts]
    assert cuts and (case != "random-fh" or max(groups_sloped) > 1)
    for cut in cuts:
        assert cut.slope.size == k + l * (1 + len(reach[cut.owner])), cut.owner

    assert len(hosted) == sum(len(engine.pgraph.parents[c.owner]) for c in cuts)
    for host, cut, i in hosted:
        x_par, x = rng.uniform(0.0, 10.0, size=(2, k))
        rhs = (host.const + host.R @ host.state(x_par, zvals,
                                                incoming_group(engine, host.key)))[i]
        row = scipy_csr(host.lp.A)[i].toarray().ravel()
        assert not row[k:host.theta0].any()
        assert rhs - row[:k] @ x == pytest.approx(cut.value_at(x, zvals, host.group),
                                                  rel=1e-9, abs=1e-9)

    m0 = build_master(m, agg)[0].m
    assert master.m - m0 == len(to_master)
    root_group = agg.node_to_group[m.tree.root]
    thetas = list(lay.theta.values())
    dense = scipy_csr(master.A).toarray()
    for i, cut in enumerate(to_master, start=m0):
        x = rng.uniform(0.0, 10.0, size=lay.n_cols)
        row = dense[i].copy()
        row[thetas] = 0.0
        want = cut.value_at(x[lay.x_off:lay.x_off + k], z_values(lay.z_off, l, x), root_group)
        assert master.rhs[i] - row @ x == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_cuts_keep_the_read_only_candidate_z(hdr_toy_msilp):
    """decode_master hands out read-only z arrays, which every cut made
    at that candidate keeps by reference, only those of the groups its
    value reads; an S solve runs on them and each cut stays tight where
    it was made."""
    m = hdr_toy_msilp
    agg = build_aggregation(m.tree, Transformation("pm", partial_attrs=(2,)))
    engine, _, _ = s_solve(m, agg)
    cuts = [c for pool in engine.pools.values() for c in pool] + \
        [c for pool in engine.master_pool.values() for c in pool]
    assert cuts
    for cut in cuts:
        assert cut.gen_z.keys() == {cut.gen_parent_group, *cut.z_groups}
        assert not any(v.flags.writeable for v in cut.gen_z.values())
        assert cut.value_at(cut.gen_x, cut.gen_z, cut.gen_parent_group) == \
            pytest.approx(cut.gen_value, rel=1e-9, abs=1e-6)
    with pytest.raises(ValueError):
        cuts[0].gen_z[cuts[0].gen_parent_group][0] = 1.0


def test_feasibility_cut_spec_example():
    # child row forces x_parent <= 0; the engine must cut the root to x <= 0
    m = chain_msilp(child_rows=(None, None, [1.0], [0.0], "G"),
                    root_d=(-1.0,), x_up=5.0)
    # widen the root domain below zero so the cut is not just the bound
    m.data[0].x_lo = np.array([-5.0])
    m.data[1].x_lo = np.array([-5.0])
    agg = build_aggregation(m.tree, Transformation("hn"))
    ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
    sd = solve_exact(m, agg, SddpConfig(seed=0))
    assert sd.objective == pytest.approx(ex.objective, abs=1e-7)
    assert sd.objective == pytest.approx(0.0, abs=1e-7)  # x pushed to 0


def test_feasibility_cuts_satisfied_at_feasible_points():
    # child feasible exactly when x_parent <= 1
    m = chain_msilp(child_rows=([[0.0], [0.0]], [[0.0], [1.0]], [[1.0], [0.0]],
                                [-1.0, 0.5], "GG"))
    agg = build_aggregation(m.tree, Transformation("fh"))
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    sub = engine.subs[engine.pgraph.subproblems[0]]
    pg = agg.node_to_group[m.tree.root]
    zv = {g: np.zeros(m.l) for g in agg.group_index}
    x_bad = np.array([3.0])
    sol = engine.solve_sub(sub, x_bad, zv, pg)
    assert sol.status == "infeasible"
    cut = engine.make_cut(sub, sol, x_bad, zv, pg)
    assert cut.value_at(cut.gen_x, cut.gen_z, cut.gen_parent_group) > 0
    rng = np.random.default_rng(2)
    feas = infeas = 0
    for _ in range(100):
        x_par = np.array([rng.uniform(0, 10)])
        s = engine.solve_sub(sub, x_par, zv, pg)
        if s.status == "optimal":
            assert cut.value_at(x_par, zv, pg) <= 1e-7
            feas += 1
        else:
            infeas += 1
    assert feas > 0 and infeas > 0


def test_feasibility_cut_in_a_subproblem_hosting_cuts():
    # every child feasible exactly when x_parent <= 1; the stage-2
    # subproblem hosts a stage-3 cut when its feasibility cut is made, so
    # the phase-1 duals cover that cut's row too
    m = chain_msilp(child_rows=([[0.0], [0.0]], [[0.0], [1.0]], [[1.0], [0.0]],
                                [-1.0, 0.5], "GG"), T=3)
    agg = build_aggregation(m.tree, Transformation("fh"))
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    n2, n3 = m.tree.stage_nodes(2)[0], m.tree.stage_nodes(3)[0]
    sols = {}
    cand = candidate_for(engine, m, agg, x_root=[0.5])
    assert engine._forward(engine.plan([n2, n3]), cand, sols) is None
    sub3 = engine.subs[engine.pgraph.node_to_sub[n3]]
    cut3 = engine.make_cut(sub3, *sols[n3])
    assert engine.add_cut(cut3)
    sub2 = engine.subs[engine.pgraph.node_to_sub[n2]]
    assert sub2.lp.m == sub2.R.shape[0] == sub2.const.size
    assert sub2.const[-1] == cut3.gamma
    pg = agg.node_to_group[m.tree.root]
    zv = {g: np.zeros(m.l) for g in agg.group_index}
    x_bad = np.array([3.0])
    sol = engine.solve_sub(sub2, x_bad, zv, pg)
    assert sol.status == "infeasible"
    cut = engine.make_cut(sub2, sol, x_bad, zv, pg)
    assert cut.value_at(cut.gen_x, cut.gen_z, cut.gen_parent_group) > 0
    assert cut.value_at(np.array([1.0]), zv, pg) <= 1e-7


def test_infeasible_stage_3_node_cuts_its_parent_inside_the_subroutine(monkeypatch):
    # x_n >= 2 x_parent within [0, 10], and y_n >= 10 - x_n at unit cost:
    # stage 2 wants x = 10, which leaves stage 3 no x; the stage-3
    # feasibility cut x_2 <= 5 lands in stage 2's LP and the optimum is 5
    m = chain_msilp(child_rows=([[1.0], [1.0]], [[0.0], [1.0]], [[2.0], [0.0]],
                                [0.0, 10.0], "GG"), T=3, root_d=(0.3,))
    agg = build_aggregation(m.tree, Transformation("fh"))
    stages = []
    forward = SddpEngine._forward

    def spy(self, plan, candidate, sols):
        cut = forward(self, plan, candidate, sols)
        if cut is not None:
            stages.append(cut.owner[0])
        return cut

    monkeypatch.setattr(SddpEngine, "_forward", spy)
    ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
    sd = solve_exact(m, agg, SddpConfig(seed=0))
    assert 3 in stages
    assert ex.objective == pytest.approx(5.0, abs=1e-9)
    assert sd.objective == pytest.approx(ex.objective, rel=1e-5)


class _Draws:
    """An rng stand-in that records (population, size) of every sample."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def choice(self, n, size, **kw):
        self.sizes.append((n, size))
        return self.rng.choice(n, size=size, **kw)


def test_exact_mode_widens_a_small_sample_to_every_leaf(monkeypatch):
    m = make_random_msilp(seed=4, T=3, n_states=3)
    agg = build_aggregation(m.tree, Transformation("fh"))
    engines = []
    init = SddpEngine.__init__

    def recording_init(self, *args):
        init(self, *args)
        self.rng = _Draws(self.rng)
        engines.append(self)

    monkeypatch.setattr(SddpEngine, "__init__", recording_init)
    ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
    sd = solve_exact(m, agg, SddpConfig(k=1, seed=0))
    sizes = engines[0].rng.sizes
    assert min(n for n, _ in sizes) == 3  # a stage-2 node has 3 leaves
    assert (3, 1) in sizes and (3, 3) in sizes  # k=1 draws, widened to all
    assert sd.objective == pytest.approx(ex.objective, rel=1e-5)


def test_stage_2_gap_that_does_not_separate_returns_no_cut(monkeypatch):
    # a candidate whose cost-to-go sits above the stage-2 value: the gap is
    # seen, the cut made there does not cut it off, so none is returned
    m = chain_msilp(child_rows=([1.0], [1.0], [0.6], [0.5], "G"), T=3, root_d=(0.3,))
    agg = build_aggregation(m.tree, Transformation("fh"))
    engine = SddpEngine(m, agg, SddpConfig(seed=0))
    n2 = m.tree.stage_nodes(2)[0]
    cand = candidate_for(engine, m, agg, x_root=[2.0])
    sub2 = engine.subs[engine.pgraph.node_to_sub[n2]]
    cand.theta[n2] = 100.0
    made = []
    make_cut = engine.make_cut
    monkeypatch.setattr(engine, "make_cut", lambda sub, *a: made.append(sub) or make_cut(sub, *a))
    assert engine.sddp_subroutine(cand, n2) is None
    assert sub2 in made and not engine.master_pool
    value = engine.solve_sub(sub2, cand.x_root, cand.z, cand.root_group).objective
    assert value < cand.theta[n2] - 1.0


def test_relaxed_runs_default_eps_survives_a_copied_config(hdr_toy_msilp):
    m = hdr_toy_msilp
    agg = build_aggregation(m.tree, Transformation("pm", partial_attrs=(2,)))
    lb1, res1 = solve_lower_bound(m, agg, SddpConfig(seed=0))
    lb2, res2 = solve_lower_bound(m, agg)
    assert lb1 == lb2 and res1.cut_counts == res2.cut_counts
    assert replace(SddpConfig(seed=0), exact=False).accepted_lag == 0.1


def test_lower_bound_below_exact_and_eps_monotonicity(hdr_toy_msilp):
    m = hdr_toy_msilp
    agg = build_aggregation(m.tree, Transformation("pm", partial_attrs=(2,)))
    exact = solve_exact(m, agg, SddpConfig(seed=0))
    lb1, res1 = solve_lower_bound(m, agg, SddpConfig(eps=0.1, exact=False, seed=0))
    lb2, res2 = solve_lower_bound(m, agg, SddpConfig(eps=1e-4, exact=False, seed=0))
    assert lb1 <= exact.objective + 1e-6
    assert lb2 <= exact.objective + 1e-6
    assert sum(res1.cut_counts.values()) <= sum(res2.cut_counts.values())


def test_policy_evaluation_brackets_optimum(hdr_toy_msilp):
    m = hdr_toy_msilp
    agg = build_aggregation(m.tree, Transformation("hn"))
    exact = solve_exact(m, agg, SddpConfig(seed=0))
    val = evaluate_policy(m, agg, exact.z_by_group, SddpConfig(seed=0))
    assert val == pytest.approx(exact.objective, rel=1e-6)
    zeros = {g: np.zeros(m.l) for g in agg.group_index}
    val0 = evaluate_policy(m, agg, zeros, SddpConfig(seed=0))
    prob = build_aggregated_extensive_form(m, agg)
    lo, up = prob.lo.copy(), prob.up.copy()
    for g, off in prob.layout.z_off.items():
        lo[off:off + m.l] = 0.0
        up[off:off + m.l] = 0.0
    fixed = solve_lp(LpProblem(c=prob.c, A=prob.A, senses=prob.senses,
                               rhs=prob.rhs, lo=lo, up=up))
    assert val0 == pytest.approx(fixed.objective, rel=1e-6)
    assert val0 >= exact.objective - 1e-6


def test_single_stage_degenerates_to_plain_mip():
    m = make_random_msilp(seed=8, T=1)
    agg = build_aggregation(m.tree, Transformation("hn"))
    sd = solve_exact(m, agg, SddpConfig(seed=0))
    ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
    assert sd.objective == pytest.approx(ex.objective, rel=1e-9)


def test_ancestor_coupled_data_is_rejected(hdr_toy, hdr_toy_msilp):
    agg = build_aggregation(hdr_toy_msilp.tree, Transformation("hn"))
    ma = build_hdr_aggregated(hdr_toy, agg)
    with pytest.raises(ValueError):
        SddpEngine(ma, agg, SddpConfig())


@pytest.mark.parametrize("d,x_lo,h,y_lo,s_raises,ldr_raises", [
    (0.0, 0.0, -1.0, 0.0, True, True),     # y <= 5 at cost -1: Ex -5.0, S would say 0.0
    (0.0, 0.0, 1.0, -1.0, True, True),
    (1.0, -1.0, 1.0, 0.0, True, False),    # LDR pays d'x in its master
    (-1.0, 0.0, 1.0, 0.0, True, False),
    (0.0, -1.0, 1.0, 0.0, False, False),   # a free column at zero cost costs nothing
], ids=["h<0", "y_lo<0", "x_lo<0", "d<0", "x_lo<0-at-zero-cost"])
def test_a_stage_cost_below_theta_lb_is_rejected(d, x_lo, h, y_lo, s_raises, ldr_raises):
    m = chain_msilp(child_rows=([0.0], [-1.0], None, [-5.0], "G"), T=2, h=(h,))
    m.data[1] = replace(m.data[1], d=np.array([d]), x_lo=np.array([x_lo]),
                        y_lo=np.array([y_lo]))
    agg = build_aggregation(m.tree, Transformation("fh"))
    for build, raises in ((lambda: SddpEngine(m, agg, SddpConfig()), s_raises),
                          (lambda: build_ldr_model(m, agg, LdrVariant("m")), ldr_raises)):
        if raises:
            with pytest.raises(ValueError, match="node 1: stage cost"):
                build()
        else:
            build()


def test_sandwich_on_random_instances():
    for seed in (1, 3):
        m = make_random_msilp(seed=seed, T=3)
        agg = build_aggregation(m.tree, Transformation("ma"))
        exact = solve_exact(m, agg, SddpConfig(seed=0))
        lb, res = solve_lower_bound(m, agg, SddpConfig(eps=0.1, exact=False, seed=0))
        assert lb <= exact.objective + 1e-6
        if res.z_by_group is not None:
            ub = evaluate_policy(m, agg, res.z_by_group, SddpConfig(seed=0))
            assert exact.objective <= ub + 1e-6


@pytest.mark.parametrize("solve", ["exact", "lower_bound", "ldr"])
def test_interrupted_solve_keeps_a_valid_bound(monkeypatch, solve):
    """A deadline that fires inside the oracle from its N-th call on still
    leaves a bound at or below the optimum, for every N the solve reaches:
    the aggregated optimum for S and S-LB, the LDR optimum for LDR."""
    from mcsip import ldr, sddp
    from mcsip.lp_engine import DeadlineReached

    m = make_random_msilp(seed=9, T=3)
    agg = build_aggregation(m.tree, Transformation("ma"))
    cfg = SddpConfig(seed=0) if solve == "exact" else SddpConfig(eps=0.1, exact=False, seed=0)
    oracle = ldr._BendersOracle if solve == "ldr" else sddp._MasterOracle
    real = oracle.separate
    calls = {"n": 0, "stop": None}

    def separate(self, x):
        calls["n"] += 1
        if calls["stop"] is not None and calls["n"] >= calls["stop"]:
            raise DeadlineReached
        return real(self, x)

    def run():
        calls["n"] = 0
        if solve == "exact":
            return solve_exact(m, agg, cfg).bound
        if solve == "ldr":  # a fresh master: the solve adds its cuts in place
            return ldr.benders_solve(ldr.build_ldr_model(m, agg, ldr.LdrVariant("m"))).bound
        return solve_lower_bound(m, agg, cfg)[0]

    monkeypatch.setattr(oracle, "separate", separate)
    opt = run() if solve == "ldr" else \
        branch_and_cut(build_aggregated_extensive_form(m, agg)).objective
    assert run() <= opt + 1e-6
    total = calls["n"]
    assert total >= 2
    for stop in range(1, total + 1):
        calls["stop"] = stop
        bound = run()
        assert bound is not None and bound <= opt + 1e-6, stop


@pytest.fixture(scope="module")
def hdr_cells():
    """Ex's bound and S's result on instance seeds 5 and 11 (2x4, the
    acceptance instances) for hn, pm and fh."""
    from mcsip.hdr import HdrConfig, build_hdr_msilp, generate_instance

    cells = {}
    for seed in (5, 11):
        m = build_hdr_msilp(generate_instance(HdrConfig(cols=2, rows=4, capacity_pct=0.2,
                                                        seed=seed)))
        for kind in ("hn", "pm", "fh"):
            agg = build_aggregation(m.tree, Transformation(kind, partial_attrs=(2,)
                                                           if kind == "pm" else ()))
            ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
            cells[seed, kind] = (m, agg, ex.bound, solve_exact(m, agg, SddpConfig(seed=0)))
    return cells


def test_s_objective_is_never_below_the_ex_bound(hdr_cells):
    # S reports what its policy costs, so it cannot undercut a valid bound
    # on the optimum; a master value with lagging cost-to-go could
    for (seed, kind), (_, _, ex_bound, res) in hdr_cells.items():
        assert res.status == "optimal"
        assert res.objective >= ex_bound - 1e-9 * abs(ex_bound), (seed, kind)
        assert res.bound <= res.objective


def test_s_objective_is_the_cost_of_its_own_policy(hdr_cells):
    for (seed, kind), (m, agg, _, res) in hdr_cells.items():
        val = evaluate_policy(m, agg, res.z_by_group, SddpConfig(seed=0))
        assert res.objective == pytest.approx(val, rel=1e-9), (seed, kind)
