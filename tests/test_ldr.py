import numpy as np
import pytest
import scipy.sparse as sp

from mcsip import ldr, lp_engine
from mcsip.aggregate import Transformation, build_aggregation
from mcsip.errors import ConfigError
from mcsip.hdr import build_hdr_aggregated
from mcsip.ldr import LdrVariant, _BendersOracle, benders_solve, build_ldr_model, \
    evaluate_policy_extensive, extract_policy, node_basis
from mcsip.lp_engine import branch_and_cut, solve_lp
from mcsip.markov import MarkovChain, McState
from mcsip.model import LpProblem, Msilp, NodeData, \
    build_aggregated_extensive_form, smat
from mcsip.sddp import SddpConfig, solve_exact
from mcsip.tree import build_tree

from conftest import CueDeadline, make_random_msilp, scipy_csr

PM = Transformation("pm", partial_attrs=(2,))


@pytest.fixture(scope="module")
def hdr_pair(hdr_toy, hdr_toy_msilp):
    agg0 = build_aggregation(hdr_toy_msilp.tree, PM)
    ma = build_hdr_aggregated(hdr_toy, agg0)
    agg = build_aggregation(ma.tree, PM)
    return ma, agg


def test_variant_validation():
    with pytest.raises(ValueError):
        LdrVariant("zz")


def test_lambda_dimensions_variant_t(hdr_pair):
    ma, agg = hdr_pair
    model = build_ldr_model(ma, agg, LdrVariant("t"))
    for t in range(2, ma.tree.stages + 1):
        key = ("t", t)
        l_t = node_basis(ma, ma.tree.stage_nodes(t)[0]).size
        assert model.layout.lam_cols[key] == l_t + 1
    # one block per stage, k rows each
    n_lam = sum(ma.k * nb for nb in model.layout.lam_cols.values())
    lam_cols = [c for key, c in model.layout.lam_off.items()]
    assert len(lam_cols) == ma.tree.stages - 1


def test_lambda_copies_variant_m(hdr_pair):
    ma, agg = hdr_pair
    model = build_ldr_model(ma, agg, LdrVariant("m"))
    for t in range(2, ma.tree.stages + 1):
        states = {ma.tree.node(n).mc_state.attrs for n in ma.tree.stage_nodes(t)}
        keys = [k for k in model.layout.lam_off if k[0] == "m" and k[1] == t]
        assert len(keys) == len(states)


def test_deterministic_chain_ldr_is_exact():
    # a single-scenario instance is representable by an affine rule with
    # intercept, so the approximation is tight
    s = McState((0,))
    mc = MarkovChain((s,), {(s, s): 1.0}, s)
    tree = build_tree(mc, 3)
    rng = np.random.default_rng(4)
    k, l, r = 2, 1, 3
    data = []
    for node in tree.nodes:
        is_root = node.stage == 1
        nl = 2
        E = np.hstack([rng.uniform(0.3, 1.0, size=(nl, r - 1)), np.eye(nl)[:, :1]])
        data.append(NodeData(
            g=np.zeros(0), sen_z=np.empty(0, dtype="<U1"),
            f=np.zeros(0), sen_x=np.empty(0, dtype="<U1"),
            C=smat(sp.csr_matrix(rng.uniform(-1, 1, size=(nl, k))), (nl, k)),
            E=smat(sp.csr_matrix(E), (nl, r)),
            A=None if is_root else smat(sp.csr_matrix(rng.uniform(-0.5, 0.5, size=(nl, k))), (nl, k)),
            b=rng.uniform(0, 1, size=nl), sen_l=np.array(["G"] * nl, dtype="<U1"),
            c=np.zeros(l), d=rng.uniform(0, 1, size=k), h=rng.uniform(0.2, 1, size=r),
            x_lo=np.zeros(k), x_up=np.full(k, 10.0),
            y_lo=np.zeros(r), y_up=np.full(r, np.inf),
            z_lo=np.zeros(l), z_up=np.ones(l),
        ))
    m = Msilp(tree=tree, data=data, k=k, l=l, r=r)
    agg = build_aggregation(tree, Transformation("ma"))
    ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
    for kind in ("th", "t", "m"):
        model = build_ldr_model(m, agg, LdrVariant(kind))
        sol = benders_solve(model)
        assert sol.objective == pytest.approx(ex.objective, rel=1e-6), kind


def test_restriction_and_variant_ordering(hdr_pair):
    ma, agg = hdr_pair
    pa = branch_and_cut(build_aggregated_extensive_form(ma, agg)).objective
    vals = {}
    for kind in ("th", "t", "m"):
        sol = benders_solve(build_ldr_model(ma, agg, LdrVariant(kind)))
        vals[kind] = sol.objective
        assert sol.objective >= pa - 1e-6
    assert vals["m"] <= vals["t"] + 1e-6


def test_extract_policy_contract(hdr_pair):
    ma, agg = hdr_pair
    model = build_ldr_model(ma, agg, LdrVariant("m"))
    sol = benders_solve(model)
    x_by_node, z = extract_policy(model, sol)
    lay = model.layout
    assert np.allclose(x_by_node[ma.tree.root],
                       sol.x[lay.x_off:lay.x_off + ma.k])
    # nodes sharing (stage, state) share the rule and the data, hence the value
    seen = {}
    for node in ma.tree.nodes:
        key = (node.stage, node.mc_state.attrs)
        if key in seen:
            assert np.allclose(x_by_node[node.id], seen[key], atol=1e-9)
        seen[key] = x_by_node[node.id]
    val = evaluate_policy_extensive(ma, agg, x_by_node, z)
    assert val == pytest.approx(sol.objective, rel=1e-6)


def _lagging_point(model, x):
    """x with every cost-to-go column at its lower bound."""
    x = x.copy()
    for off in model.layout.theta_off.values():
        x[off] = model.master.lo[off]
    return x


def _appended_rows(master, first: int):
    """(columns -> coefficient, rhs) of the master rows from index first on."""
    A = scipy_csr(master.A)
    for i in range(first, A.shape[0]):
        span = slice(A.indptr[i], A.indptr[i + 1])
        yield dict(zip(A.indices[span].tolist(), A.data[span].tolist())), master.rhs[i]


def _optimality_cut(lay, cols: dict, rhs: float) -> dict:
    """The cut theta - grad.w >= const of a row with a theta column."""
    cols = dict(cols)
    key = next(key for key, off in lay.theta_off.items() if off in cols)
    assert cols.pop(lay.theta_off[key]) == 1.0
    grad = np.zeros(lay.n_cols)
    grad[list(cols)] = [-v for v in cols.values()]
    return {"theta_key": key, "grad": grad, "const": rhs}


def test_hybrid_cuts_underestimate_group_value(hdr_pair):
    ma, agg = hdr_pair
    model = build_ldr_model(ma, agg, LdrVariant("t"))
    n_model_rows = model.master.A.shape[0]
    sol = benders_solve(model)
    lay = model.layout
    thetas = set(lay.theta_off.values())
    # the solve's optimality cuts, read back from the rows it appended
    opt_cuts = [_optimality_cut(lay, cols, rhs)
                for cols, rhs in _appended_rows(model.master, n_model_rows)
                if thetas & cols.keys()]
    assert opt_cuts
    base = sol.x

    # one scan at a point where every group with a positive value lags
    # returns one row per lagging group, each read back as (grad, const)
    oracle = _BendersOracle(model, 1e-6)
    x = _lagging_point(model, base)
    lagging = [key for key in model.theta_keys
               if oracle.nodes_by_theta[key] and oracle.group_value(key, x)[0] > 1e-6]
    rows = oracle.separate(x)
    assert len(lagging) >= 2 and len(rows) == len(lagging)
    row_cuts = []
    for key, (cols, sense, rhs) in zip(lagging, rows):
        cut = _optimality_cut(lay, cols, rhs)
        assert sense == "G" and cut["theta_key"] == key
        cut.update(gen_w=x, gen_value=oracle.group_value(key, x)[0])
        row_cuts.append(cut)

    rng = np.random.default_rng(0)
    for cut in opt_cuts[:12] + row_cuts:
        key = cut["theta_key"]
        nids = [nid for nid in model.node_lps
                if (ma.tree.node(nid).stage, ma.tree.node(nid).mc_state.attrs) == key]
        for _ in range(25):
            w = base + rng.normal(0, 0.3, size=base.size)  # perturbed first stage
            total = 0.0
            ok = True
            for nid in nids:
                nl = model.node_lps[nid]
                nl.lp.rhs = nl.rhs_map.rhs(w)
                s = solve_lp(nl.lp, want_farkas=False)
                if s.status != "optimal":
                    ok = False
                    break
                total += nl.p * s.objective
            if not ok:
                continue
            cut_val = float(cut["grad"] @ w) + cut["const"]
            assert cut_val <= total + 1e-6
        if "gen_w" in cut:  # tight where generated
            gen_val = float(cut["grad"] @ cut["gen_w"]) + cut["const"]
            assert gen_val == pytest.approx(cut["gen_value"], abs=1e-6)


def test_accepted_points_solve_no_node_lp_twice(hdr_pair, monkeypatch):
    ma, agg = hdr_pair
    model = build_ldr_model(ma, agg, LdrVariant("m"))
    oracle = _BendersOracle(model, 1e-6)
    sol = branch_and_cut(model.master, oracle, round_heuristic=False)
    x = _lagging_point(model, sol.x)
    first = oracle.separate(x)
    assert len(first) >= 2

    calls = []
    real = lp_engine.solve_lp

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(lp_engine, "solve_lp", counting)
    # the incumbent was separated when the B&B accepted it
    assert oracle.true_cost(sol.x) >= sol.objective - 1e-9 * abs(sol.objective)
    assert oracle.separate(x) == first
    assert calls == []


def test_oracle_solves_no_node_lp_after_the_deadline(hdr_pair, monkeypatch):
    # the deadline passes after the third node LP, inside the root's scan:
    # no node LP follows, and the root LP's objective is the bound
    ma, agg = hdr_pair
    opt = benders_solve(build_ldr_model(ma, agg, LdrVariant("m"))).objective
    model = build_ldr_model(ma, agg, LdrVariant("m"))
    node_lps = {id(nl.lp) for nl in model.node_lps.values()}
    deadline = CueDeadline()
    real, expired_at_call = lp_engine.solve_lp, []

    def counting(p, *args, **kw):
        if id(p) in node_lps:
            expired_at_call.append(deadline.expired)
            deadline.expired = len(expired_at_call) >= 3
        return real(p, *args, **kw)

    monkeypatch.setattr(lp_engine, "solve_lp", counting)
    sol = benders_solve(model, deadline=deadline)
    assert expired_at_call == [False] * 3
    assert sol.status == "time_limit" and sol.x is None and sol.nodes == 1
    assert np.isfinite(sol.bound) and sol.bound <= opt + 1e-6 * abs(opt)


def test_feasibility_cuts_drive_master_to_feasible_rules():
    # child rows: y <= 2 - x_expr and y >= 0.5; infeasible unless x_expr <= 1.5
    s = McState((0,))
    mc = MarkovChain((s, McState((1,))),
                     {(s, s): 0.5, (s, McState((1,))): 0.5,
                      (McState((1,)), s): 1.0}, s)
    tree = build_tree(mc, 2)
    k, l, r = 1, 1, 1
    rows = dict(
        C=None, D=None,
        E=smat(sp.csr_matrix(np.array([[-1.0], [1.0]])), (2, r)),
        b=np.array([-2.0, 0.5]),
        sen_l=np.array(["G", "G"], dtype="<U1"),
    )
    data = []
    for node in tree.nodes:
        is_root = node.stage == 1
        data.append(NodeData(
            g=np.zeros(0), sen_z=np.empty(0, dtype="<U1"),
            f=np.zeros(0), sen_x=np.empty(0, dtype="<U1"),
            C=None,
            E=rows["E"] if not is_root else None,
            A=None if is_root else smat(sp.csr_matrix(np.array([[1.0], [0.0]])), (2, k)),
            b=rows["b"] if not is_root else np.zeros(0),
            sen_l=rows["sen_l"] if not is_root else np.empty(0, dtype="<U1"),
            c=np.zeros(l), d=np.array([-1.0]) if is_root else np.zeros(k),
            h=np.array([1.0]) if not is_root else np.zeros(r),
            x_lo=np.zeros(k), x_up=np.full(k, 10.0),
            y_lo=np.zeros(r), y_up=np.full(r, np.inf),
            z_lo=np.zeros(l), z_up=np.zeros(l),
        ))
    m = Msilp(tree=tree, data=data, k=k, l=l, r=r)
    agg = build_aggregation(tree, Transformation("ma"))
    model = build_ldr_model(m, agg, LdrVariant("t"))
    n_model_rows = model.master.A.shape[0]
    sol = benders_solve(model)
    ex = branch_and_cut(build_aggregated_extensive_form(m, agg))
    # rule covers the single scenario exactly, so the bound is tight
    assert sol.objective == pytest.approx(ex.objective, rel=1e-6)
    # a feasibility cut is an appended master row without a theta column
    thetas = set(model.layout.theta_off.values())
    assert any(not thetas & cols.keys()
               for cols, _ in _appended_rows(model.master, n_model_rows))


def test_generic_ldr_bounds_above_aggregated_optimum():
    for seed in (2, 5):
        m = make_random_msilp(seed=seed, T=3)
        agg = build_aggregation(m.tree, Transformation("ma"))
        pa = solve_exact(m, agg, SddpConfig(seed=0)).objective
        for kind in ("t", "m"):
            sol = benders_solve(build_ldr_model(m, agg, LdrVariant(kind)))
            assert sol.objective >= pa - 1e-6


@pytest.mark.parametrize("eps", [-1.0, -1e-9, float("nan"), float("inf")])
def test_negative_or_infinite_eps_is_rejected_before_any_solve(hdr_pair, monkeypatch, eps):
    ma, agg = hdr_pair
    model = build_ldr_model(ma, agg, LdrVariant("m"))
    monkeypatch.setattr(ldr, "branch_and_cut", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(ConfigError, match="eps"):
        benders_solve(model, eps=eps)


def test_loose_eps_reports_the_true_cost_of_its_incumbent(hdr_pair):
    ma, agg = hdr_pair
    model = build_ldr_model(ma, agg, LdrVariant("m"))
    loose = benders_solve(model, eps=1e-2)
    tight = benders_solve(build_ldr_model(ma, agg, LdrVariant("m")))
    # c'x with each grouped cost-to-go replaced by its members' LP values
    x = loose.x
    master_cost = float(model.master.c @ x)
    cost = master_cost
    grouped = set()
    for nid, nl in model.node_lps.items():
        node = ma.tree.node(nid)
        grouped.add((node.stage, node.mc_state.attrs))
        sol = solve_lp(LpProblem(c=nl.lp.c, A=nl.lp.A, senses=nl.lp.senses,
                                 rhs=nl.rhs_map.rhs(x), lo=nl.lp.lo, up=nl.lp.up))
        cost += nl.p * sol.objective
    cost -= sum(float(x[model.layout.theta_off[key]]) for key in grouped)
    assert cost > master_cost + 1e-6  # the loose run accepted a lagging theta
    assert loose.objective == pytest.approx(cost, rel=1e-9)
    assert loose.objective >= tight.objective - 1e-9 * abs(tight.objective)
    assert loose.gap == pytest.approx((loose.objective - loose.bound) / abs(loose.objective))
