import io
import json

import numpy as np
import pytest

from mcsip.aggregate import Transformation, build_aggregation
from mcsip.hdr import INTENSITY_MATRIX, HdrConfig, _movement_probs, demand, \
    build_hdr_aggregated, build_hdr_msilp, generate_instance, load_instance, \
    save_instance
from mcsip.lp_engine import branch_and_cut, solve_lp
from mcsip.markov import McState
from mcsip.model import LpProblem, build_aggregated_extensive_form, validate

from conftest import ACCEPT_SEEDS


def fix_z_and_solve(prob, lay, m, agg, pattern):
    """LP value of a fixed integer pattern; pattern maps group key -> vector."""
    lo, up = prob.lo.copy(), prob.up.copy()
    for g, off in lay.z_off.items():
        vals = pattern[g]
        lo[off:off + m.l] = vals
        up[off:off + m.l] = vals
    sol = solve_lp(LpProblem(c=prob.c, A=prob.A, senses=prob.senses,
                             rhs=prob.rhs, lo=lo, up=up))
    return sol


def test_modality_catalog_size():
    inst = generate_instance(HdrConfig(cols=4, rows=5, seed=1))
    assert inst.n_modalities == 16
    inst2 = generate_instance(HdrConfig(cols=2, rows=4, seed=1))
    assert inst2.n_modalities == 8
    t2 = generate_instance(HdrConfig(cols=4, rows=5, seed=1, modality_type=2))
    assert t2.n_modalities == 16
    assert {m.increment_pct for m in t2.modalities} == {0.15, 0.30, 0.45, 0.60}


def test_intensity_matrix_rows_sum_to_one():
    sums = INTENSITY_MATRIX.sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-9)
    assert INTENSITY_MATRIX[0, 0] == 1.0
    assert INTENSITY_MATRIX[2, 3] == 0.25
    assert INTENSITY_MATRIX[5, 1] == 0.0
    assert INTENSITY_MATRIX[5, 4] == 0.5


def test_movement_probabilities():
    probs = _movement_probs((25, 36, 22), x=1, cols=4)
    assert probs[0] == pytest.approx(25 / 83)
    assert probs[1] == pytest.approx(36 / 83)
    assert probs[2] == pytest.approx(22 / 83)
    border = _movement_probs((25, 36, 22), x=0, cols=4)
    assert set(border) == {0, 1}
    assert border[0] == pytest.approx(36 / 58)


def test_demand_formula():
    inst = generate_instance(HdrConfig(cols=2, rows=4, seed=0))
    sh = inst.shelters[0]
    # place the hurricane directly on the shelter: cell centers are at
    # (100x+50, 20y+10), so move the shelter there
    sh.x, sh.y = 150.0, 10.0
    on_top = McState((1, 0, 5))
    assert demand(inst, 0, on_top) == pytest.approx(sh.d_max)
    assert demand(inst, 0, McState((1, 0, 0))) == 0.0
    sh.d_max = 1000.0
    sh.x, sh.y = 150.0 + 75.0, 10.0  # distance exactly 75
    assert demand(inst, 0, McState((1, 0, 3))) == pytest.approx(180.0)
    sh.x = 150.0 + 200.0  # beyond the influence radius
    assert demand(inst, 0, McState((1, 0, 5))) == 0.0


def test_generation_is_deterministic_and_round_trips():
    cfg = HdrConfig(cols=2, rows=4, capacity_pct=0.2, seed=7)
    a, b = generate_instance(cfg), generate_instance(cfg)
    ba, bb = io.StringIO(), io.StringIO()
    save_instance(a, ba)
    save_instance(b, bb)
    assert ba.getvalue() == bb.getvalue()
    ba.seek(0)
    loaded = load_instance(ba)
    bc = io.StringIO()
    save_instance(loaded, bc)
    assert bc.getvalue() == ba.getvalue()


def test_generator_distribution_pins():
    for seed in range(6):
        inst = generate_instance(HdrConfig(cols=3, rows=5, seed=seed))
        assert 1000.0 <= inst.d_max <= 1500.0
        assert inst.chain.initial[1] == 0
        assert 2 <= inst.chain.initial[2] <= 5
        per_cell_sh = {}
        per_cell_dc = {}
        for s in inst.shelters:
            per_cell_sh.setdefault(s.cell, []).append(s)
        for d in inst.dcs:
            per_cell_dc.setdefault(d.cell, []).append(d)
        for cell, shs in per_cell_sh.items():
            assert 3 <= len(shs) <= 7
            assert sum(s.d_max for s in shs) == pytest.approx(inst.d_max)
        for cell, dcs in per_cell_dc.items():
            assert 2 <= len(dcs) <= 4
            assert sum(d.capacity for d in dcs) == pytest.approx(
                inst.d_max * inst.config.capacity_pct)
        # increments are percentages of the affected DC's own capacity
        for col, mod in enumerate(inst.modalities):
            for j, d in enumerate(inst.dcs):
                expected = mod.increment_pct * d.capacity if d.cell in mod.cells else 0.0
                assert inst.K[j, col] == pytest.approx(expected)


def test_instance_schema_is_json(tmp_path):
    inst = generate_instance(HdrConfig(cols=2, rows=4, seed=3))
    p = tmp_path / "inst.json"
    with open(p, "w") as fp:
        save_instance(inst, fp)
    doc = json.loads(p.read_text())
    assert {"schema_version", "config", "shelters", "dcs", "mc", "costs"} <= set(doc)


def test_built_models_validate(hdr_toy):
    m = build_hdr_msilp(hdr_toy)
    assert validate(m) == []
    agg = build_aggregation(m.tree, Transformation("hn"))
    ma = build_hdr_aggregated(hdr_toy, agg)
    assert validate(ma) == []


def test_root_capacity_rows(hdr_toy, hdr_toy_msilp):
    root = hdr_toy_msilp.data[0]
    caps = np.array([d.capacity for d in hdr_toy.dcs])
    # the equality block pinning the initial capacity carries C_j on its rhs
    eq_rhs = root.b[root.sen_l == "E"]
    n_j = hdr_toy.n_dcs
    assert np.allclose(eq_rhs[n_j:], caps)


def test_zero_demand_states_have_zero_rhs(hdr_toy, hdr_toy_msilp):
    m = hdr_toy_msilp
    for node in m.tree.nodes:
        if node.mc_state[2] == 0:
            nd = m.data[node.id]
            assert np.allclose(nd.b[:hdr_toy.n_shelters], 0.0)


def test_capacity_elimination_is_exact_and_one_leg_delayed(hdr_toy):
    """Fixed modality pattern: both formulations agree, and capacity grows
    only from the stage after activation."""
    m_full = build_hdr_msilp(hdr_toy)
    agg = build_aggregation(m_full.tree, Transformation("hn"))
    m_elim = build_hdr_aggregated(hdr_toy, agg)
    p_full = build_aggregated_extensive_form(m_full, agg)
    p_elim = build_aggregated_extensive_form(m_elim, agg)

    l = hdr_toy.n_modalities
    ell = 2  # arbitrary modality activated from the root on
    for t0 in (1, 2):
        pattern = {}
        for g in agg.group_index:
            vec = np.zeros(l)
            if g[0] >= t0:
                vec[ell] = 1.0
            pattern[g] = vec
        s_full = fix_z_and_solve(p_full, p_full.layout, m_full, agg, pattern)
        s_elim = fix_z_and_solve(p_elim, p_elim.layout, m_elim, agg, pattern)
        assert s_full.status == s_elim.status == "optimal"
        assert s_full.objective == pytest.approx(s_elim.objective, rel=1e-7)
        # read the capacity state off the full formulation at a stage-3 node
        nid = m_full.tree.stage_nodes(3)[0]
        lay = p_full.layout
        xc = s_full.x[lay.x_off[nid] + hdr_toy.n_dcs:
                      lay.x_off[nid] + 2 * hdr_toy.n_dcs]
        stages_active_before = max(0, 3 - t0)
        expected = np.array([d.capacity for d in hdr_toy.dcs]) + \
            stages_active_before * hdr_toy.K[:, ell]
        assert np.allclose(xc, expected, atol=1e-6)


def test_relatively_complete_recourse(hdr_toy):
    m = build_hdr_msilp(hdr_toy)
    agg = build_aggregation(m.tree, Transformation("ma"))
    prob = build_aggregated_extensive_form(m, agg)
    rng = np.random.default_rng(0)
    l = hdr_toy.n_modalities
    for _ in range(5):
        # random persistent pattern: one option, one activation stage (or none)
        pattern = {g: np.zeros(l) for g in agg.group_index}
        if rng.random() < 0.8:
            ell = int(rng.integers(0, l))
            t0 = int(rng.integers(1, m.tree.stages + 1))
            for g in pattern:
                if g[0] >= t0:
                    pattern[g][ell] = 1.0
        sol = fix_z_and_solve(prob, prob.layout, m, agg, pattern)
        assert sol.status == "optimal"


def test_hn_extensive_matches_modality_enumeration(hdr_toy):
    """Independent oracle: enumerate every persistent stage-only pattern."""
    m = build_hdr_msilp(hdr_toy)
    agg = build_aggregation(m.tree, Transformation("hn"))
    prob = build_aggregated_extensive_form(m, agg)
    l = hdr_toy.n_modalities
    best = np.inf
    for ell in range(-1, l):
        for t0 in range(1, m.tree.stages + 1):
            pattern = {g: np.zeros(l) for g in agg.group_index}
            if ell >= 0:
                for g in pattern:
                    if g[0] >= t0:
                        pattern[g][ell] = 1.0
            sol = fix_z_and_solve(prob, prob.layout, m, agg, pattern)
            if sol.status == "optimal":
                best = min(best, sol.objective)
            if ell < 0:
                break  # the never-activate pattern does not depend on t0
    mip = branch_and_cut(prob)
    assert mip.objective == pytest.approx(best, rel=1e-7)


@pytest.mark.parametrize("seed", ACCEPT_SEEDS[:3])
def test_interesting_seeds_have_policy_gaps(seed):
    inst = generate_instance(HdrConfig(cols=2, rows=4, capacity_pct=0.2, seed=seed))
    m = build_hdr_msilp(inst)
    vals = {}
    for kind in ("hn", "fh"):
        agg = build_aggregation(m.tree, Transformation(kind))
        vals[kind] = branch_and_cut(build_aggregated_extensive_form(m, agg)).objective
    assert vals["hn"] > vals["fh"] + 1e-4 * abs(vals["fh"])
