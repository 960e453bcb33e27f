import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from mcsip.aggregate import Transformation, build_aggregation, refines
from mcsip.lp_engine import branch_and_cut, solve_lp
from mcsip.model import Csr, LpProblem, build_aggregated_extensive_form, \
    build_extensive_form, expand_aggregated_solution, max_violation, validate

from conftest import make_random_msilp


def enumerate_optimum(prob):
    """Independent oracle: enumerate integer assignments, LP per assignment."""
    int_cols = np.flatnonzero(prob.integer)
    best = np.inf
    ranges = [range(int(prob.lo[j]), int(prob.up[j]) + 1) for j in int_cols]
    for combo in itertools.product(*ranges):
        lo, up = prob.lo.copy(), prob.up.copy()
        lo[int_cols] = combo
        up[int_cols] = combo
        sol = solve_lp(LpProblem(c=prob.c, A=prob.A, senses=prob.senses,
                                 rhs=prob.rhs, lo=lo, up=up))
        if sol.status == "optimal":
            best = min(best, sol.objective)
    return best


def test_single_stage_form_is_root_problem():
    m = make_random_msilp(seed=1, T=1, l=1)
    prob = build_extensive_form(m)
    assert prob.n == m.k + m.l + m.r
    sol = branch_and_cut(prob)
    assert sol.status == "optimal"


def test_variable_count_is_blocks_times_nodes():
    m = make_random_msilp(seed=2, T=3)
    prob = build_extensive_form(m)
    assert prob.n == len(m.tree) * (m.k + m.l + m.r)


def test_two_stage_toy_matches_enumeration():
    m = make_random_msilp(seed=3, T=2, l=2)
    prob = build_extensive_form(m)
    sol = branch_and_cut(prob)
    assert sol.objective == pytest.approx(enumerate_optimum(prob), rel=1e-7)


def test_hn_aggregation_shares_one_block_per_stage(two_state_tree):
    m = make_random_msilp(seed=4, T=4)
    agg = build_aggregation(m.tree, Transformation("hn"))
    prob = build_aggregated_extensive_form(m, agg)
    n_groups = agg.n_groups
    assert prob.integer.sum() == n_groups * m.l
    assert prob.n == n_groups * m.l + len(m.tree) * (m.k + m.r)


def test_fh_aggregation_recovers_plain_optimum():
    for seed in (0, 5):
        m = make_random_msilp(seed=seed, T=3)
        plain = branch_and_cut(build_extensive_form(m))
        agg = build_aggregation(m.tree, Transformation("fh"))
        shared = branch_and_cut(build_aggregated_extensive_form(m, agg))
        assert shared.objective == pytest.approx(plain.objective, rel=1e-9)


def test_restriction_ordering_over_transform_chain():
    for seed in (1, 6, 8):
        m = make_random_msilp(seed=seed, T=3, n_states=2)
        vals = {}
        for kind in ("hn", "ma", "mm", "fh"):
            agg = build_aggregation(m.tree, Transformation(kind))
            vals[kind] = branch_and_cut(build_aggregated_extensive_form(m, agg)).objective
        assert vals["hn"] >= vals["ma"] - 1e-6
        assert vals["ma"] >= vals["mm"] - 1e-6
        assert vals["mm"] >= vals["fh"] - 1e-6


def test_monotone_refinement_implies_ordering():
    m = make_random_msilp(seed=9, T=3, n_states=3)
    aggs = {k: build_aggregation(m.tree, Transformation(k))
            for k in ("hn", "ma", "mm", "fh")}
    vals = {k: branch_and_cut(build_aggregated_extensive_form(m, a)).objective
            for k, a in aggs.items()}
    for a, b in itertools.permutations(aggs, 2):
        if refines(aggs[a], aggs[b]):
            assert vals[b] >= vals[a] - 1e-6


def test_aggregated_solution_embeds_into_plain_form():
    m = make_random_msilp(seed=10, T=3)
    agg = build_aggregation(m.tree, Transformation("ma"))
    prob_a = build_aggregated_extensive_form(m, agg)
    prob_p = build_extensive_form(m)
    sol = branch_and_cut(prob_a)
    lifted = expand_aggregated_solution(m, agg, prob_a, sol.x, prob_p)
    assert max_violation(prob_p, lifted) <= 1e-6
    assert prob_p.c @ lifted == pytest.approx(sol.objective, rel=1e-9)


def test_validate_clean_instance(hdr_toy_msilp):
    assert validate(hdr_toy_msilp) == []


def test_validate_flags_measurability_violation(hdr_toy_msilp):
    import copy

    m = copy.copy(hdr_toy_msilp)
    m.data = list(m.data)
    twins = {}
    for nid in m.tree.stage_nodes(3):  # stage 3 has state collisions
        twins.setdefault(m.tree.node(nid).mc_state, []).append(nid)
    pair = next(v for v in twins.values() if len(v) >= 2)
    nd = copy.deepcopy(m.data[pair[0]])
    nd.b = nd.b + 1.0  # different demand at an equal (stage, state) node
    m.data[pair[0]] = nd
    diags = validate(m)
    assert any("MC-measurability" in d for d in diags)


def test_validate_flags_dimension_and_bound_defects():
    import copy

    m = make_random_msilp(seed=11, T=2)
    m.data = list(m.data)
    nd = copy.deepcopy(m.data[1])
    nd.d = np.zeros(m.k + 1)
    m.data[1] = nd
    assert any("d has length" in d for d in validate(m))

    m2 = make_random_msilp(seed=11, T=2)
    m2.data = list(m2.data)
    nd2 = copy.deepcopy(m2.data[2])
    nd2.z_up = np.full(m2.l, np.inf)
    m2.data[2] = nd2
    assert any("unbounded integer" in d for d in validate(m2))


def test_validate_flags_root_coupling():
    import copy

    m = make_random_msilp(seed=12, T=2)
    m.data = list(m.data)
    root = copy.deepcopy(m.data[0])
    root.A = m.data[1].A
    m.data[0] = root
    assert any("root carries" in d for d in validate(m))


def test_variable_cap_overflow(monkeypatch):
    from mcsip import model
    from mcsip.errors import Overflow

    m = make_random_msilp(seed=14, T=3)
    agg = build_aggregation(m.tree, Transformation("ma"))
    monkeypatch.setattr(model, "VAR_CAP", 10)
    with pytest.raises(Overflow):
        build_extensive_form(m)
    with pytest.raises(Overflow):
        build_aggregated_extensive_form(m, agg)



def random_triplets(rng, m, n):
    """Triplets over m x n in shuffled order: 0-8 per row (some rows empty),
    repeated positions, explicit zeros, values over 16 decades and entries
    that a later one at the same position cancels.  A row holds at most 16
    entries, the size up to which scipy's per-row sort (std::sort) keeps
    equal columns in listed order, so its sums of repeats are order-exact."""
    i = np.repeat(np.arange(m), rng.integers(0, 9, size=m))
    j = rng.integers(0, n, size=i.size)
    v = rng.normal(size=i.size) * 10.0 ** rng.integers(-8, 8, size=i.size)
    v[rng.random(i.size) < 0.1] = 0.0
    cancel = rng.random(i.size) < 0.15
    i, j, v = (np.concatenate([i, i[cancel]]), np.concatenate([j, j[cancel]]),
               np.concatenate([v, -v[cancel]]))
    order = rng.permutation(i.size)
    return i[order], j[order], v[order]


def random_csr_pairs(seed, count=200):
    """(Csr.from_triplets, scipy's csr_matrix with its zeros eliminated) over
    the same random triplets."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 40))
        i, j, v = random_triplets(rng, m, n)
        want = sp.csr_matrix((v, (i, j)), shape=(m, n))
        want.eliminate_zeros()
        yield rng, (i, j, v), Csr.from_triplets(i, j, v, (m, n)), want


def test_csr_from_triplets_matches_scipy():
    """Duplicates summed in listed order, zeros dropped, columns sorted:
    the same arrays and dtypes as scipy's csr_matrix((v, (i, j))) after
    eliminate_zeros."""
    repeats = zeros = empty_rows = 0
    for _, (i, j, v), got, want in random_csr_pairs(21):
        assert got.shape == want.shape and got.nnz == want.nnz
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        repeats += i.size - len(set(zip(i.tolist(), j.tolist())))
        zeros += int((v == 0.0).sum())
        empty_rows += int((np.diff(got.indptr) == 0).sum())
    assert repeats and zeros and empty_rows


def test_csr_products_match_scipy_bit_for_bit():
    for rng, _, got, want in random_csr_pairs(22):
        m, n = got.shape
        x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        y = rng.normal(size=m) * 10.0 ** rng.integers(-8, 8, size=m)
        assert (got @ x).tobytes() == (want @ x).tobytes()
        assert got.rmatvec(y).tobytes() == (want.T @ y).tobytes()
        assert got.toarray().tobytes() == want.toarray().tobytes()
