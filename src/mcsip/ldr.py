"""Two-stage approximation via linear decision rules on continuous states.

Every non-root continuous state vector is replaced by an affine function
of node data: x_n = Lambda' basis(n), where the basis is the node's
stochastic data vector (for the relief application, its demand vector)
plus an intercept column.  Variants differ in how Lambda blocks are
shared:

    th  one block per stage over the full data history
    t   one block per stage over the current-stage data
    m   one block per stage and Markov state over the current-stage data

The substitution removes all parent-child coupling through x, so the
model collapses to two stages: a master MIP over (z, x_root, y_root,
Lambda, theta) holding every row free of non-root locals, and one LP per
non-root node over its locals only.  The master is solved by branch and
cut; cost-to-go variables theta_{t,m} are hybrid, one per stage and
Markov state, and optimality cuts aggregate the member-node duals with
path-probability weights.  The oracle is multi-cut, as in Birge and
Louveaux's multi-cut L-shaped method: one scan of the groups returns a cut
for every group whose theta lags, and stops at the first infeasible node
LP with its feasibility cut.  Feasibility cuts come from the phase-1 duals
of that LP (lp_engine.violation_certificate), and both kinds become master
rows through lp_engine.cut_row, the writer S uses too.  The node LPs are
lp_engine.StateLps and share one memo (see lp_engine's Benders layer), so
equal node LPs, within a (stage, state) group or across groups, are solved
once per rhs.

Rows come from the shared assembler (model.assemble), with x_n mapped onto
the Lambda columns by a sparse basis-expansion P and x_root by its column
offset.  The master is canonical (tiny coefficients dropped, rounded,
duplicate rows removed); each node LP's E block and its rhs map (an
lp_engine.RhsMap, rhs = const + R w at the first stage w, the map S's
subproblems use) are positional, one row per kept linking row, because the
Benders oracle reads them row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import AggregationMap, GroupKey
from .errors import ConfigError, InfeasibleModel, NumericalFailure, Overflow
from .lp_engine import (INFEASIBLE, OPTIMAL, CutOracle, Deadline, MipSolution, RhsMap, StateLp,
                        StateLpTable, branch_and_cut, cut_row, relative_gap, solve_lp)
from .model import GE, LE, Csr, LpProblem, MipProblem, Msilp, RowBlock, assemble, \
    first_stage_columns, first_stage_offsets, node_rows, z_values
from .tolerances import THETA_LB, VIOL_GUARD
from .tree import path as tree_path

VARIANTS = ("th", "t", "m")
FIRST_STAGE_CAP = 2_000_000


@dataclass(frozen=True)
class LdrVariant:
    kind: str

    def __post_init__(self):
        if self.kind not in VARIANTS:
            raise ValueError(f"unknown LDR variant {self.kind!r}")


def node_basis(m: Msilp, nid: int) -> np.ndarray:
    """Stage-data vector entering the decision rule (without intercept)."""
    nd = m.data[nid]
    if m.basis_rows is not None:
        return np.asarray(nd.b[m.basis_rows], dtype=float)
    return np.concatenate([nd.b, nd.f, nd.g, nd.c, nd.d, nd.h]).astype(float)


class _NodeLp(StateLp):
    """A node's LP over its locals, its rhs map over the first stage, and
    its path probability p."""

    def __init__(self, lp: LpProblem, rhs_map: RhsMap, table: StateLpTable, p: float):
        super().__init__(lp, rhs_map, table)
        self.p = p


@dataclass
class LdrLayout:
    z_off: dict[GroupKey, int]
    x_off: int
    y_off: int
    lam_off: dict[tuple, int]
    lam_cols: dict[tuple, int]  # basis length (incl. intercept) per block
    theta_off: dict[tuple, int]  # (stage, state attrs) -> column
    n_cols: int


@dataclass
class LdrModel:
    msilp: Msilp
    agg: AggregationMap
    variant: LdrVariant
    master: MipProblem
    layout: LdrLayout
    node_lps: dict[int, _NodeLp]
    theta_keys: list[tuple]          # (stage, state attrs), scan order


def _lam_key(variant: LdrVariant, m: Msilp, nid: int) -> tuple:
    node = m.tree.node(nid)
    if variant.kind == "m":
        return ("m", node.stage, node.mc_state.attrs)
    return (variant.kind, node.stage)


def _stage_basis_len(m: Msilp) -> dict[int, int]:
    out: dict[int, int] = {}
    for node in m.tree.nodes:
        n = node_basis(m, node.id).size
        if out.setdefault(node.stage, n) != n:
            raise ValueError(f"stage {node.stage} has nodes with different data "
                             f"lengths; no uniform decision-rule basis exists")
    return out


def _rule_basis(variant: LdrVariant, m: Msilp, nid: int) -> np.ndarray:
    """The vector a node's decision rule multiplies: data, then intercept."""
    if variant.kind == "th":
        vec = np.concatenate([node_basis(m, a) for a in tree_path(m.tree, nid)])
    else:
        vec = node_basis(m, nid)
    return np.concatenate([vec, [1.0]])


def build_ldr_model(m: Msilp, agg: AggregationMap, variant: LdrVariant) -> LdrModel:
    tree = m.tree
    k, r = m.k, m.r
    _stage_basis_len(m)  # one rule basis length per stage, else ValueError

    # first-stage columns
    z_off, x_off, y_off = first_stage_offsets(m, agg)
    col = y_off + r
    lam_off: dict[tuple, int] = {}
    lam_cols: dict[tuple, int] = {}
    for node in tree.nodes:
        if node.stage == 1:
            continue
        key = _lam_key(variant, m, node.id)
        if key in lam_off:
            continue
        lam_off[key] = col
        lam_cols[key] = _rule_basis(variant, m, node.id).size
        col += k * lam_cols[key]
    theta_off: dict[tuple, int] = {}
    theta_keys: list[tuple] = []
    for t in range(2, tree.stages + 1):
        for attrs in sorted({tree.node(nid).mc_state.attrs for nid in tree.stage_nodes(t)}):
            theta_off[(t, attrs)] = col
            theta_keys.append((t, attrs))
            col += 1
    if col > FIRST_STAGE_CAP:
        raise Overflow(f"LDR first stage needs {col} columns, cap is {FIRST_STAGE_CAP}")
    n = col

    def x_map(nid: int):
        """P of x_n: the root's own columns, else x_q = sum_j Lambda[q, j] basis_j."""
        if nid == tree.root:
            return x_off
        key = _lam_key(variant, m, nid)
        nb = lam_cols[key]
        vec = _rule_basis(variant, m, nid)
        j = np.flatnonzero(vec)
        cols = lam_off[key] + nb * np.arange(k)[:, None] + j
        return Csr(np.arange(k + 1) * j.size, cols.ravel(), np.tile(vec[j], k), (k, n))

    def zcol(nid):
        return z_off[agg.node_to_group[nid]]

    P = {node.id: x_map(node.id) for node in tree.nodes}
    obj, lo, up, integer = first_stage_columns(m, zcol, x_off, y_off, n)
    for node in tree.nodes:
        if node.id != tree.root and np.any(m.data[node.id].d):
            obj += P[node.id].rmatvec(node.p * m.data[node.id].d)
    for key in theta_keys:
        obj[theta_off[key]] = 1.0
        lo[theta_off[key]] = THETA_LB

    node_lps: dict[int, _NodeLp] = {}
    table = StateLpTable()
    pick_bound = Csr(np.arange(2 * k + 1), np.repeat(np.arange(k), 2), np.ones(2 * k),
                     (2 * k, k))  # rows lo_q, up_q
    blocks = []
    for node in tree.nodes:
        nd = m.data[node.id]
        nid, par, is_root = node.id, node.parent, node.id == tree.root
        zp = None if par is None else zcol(par)
        x_par = None if par is None else P[par]
        z_anc = [zcol(a) for a in tree_path(tree, nid)[:-1]] if nd.W is not None else []
        z_rows, state, link = node_rows(nd, zcol(nid), P[nid], y_off if is_root else None,
                                        zp, x_par, z_anc)
        blocks += [z_rows, state]
        if not is_root:  # state bounds become rows once x is an expression
            bounds = np.column_stack([nd.x_lo, nd.x_up]).ravel()
            blocks.append(RowBlock([(pick_bound, P[nid], 1.0)], np.tile([GE, LE], k),
                                   bounds, np.flatnonzero(np.isfinite(bounds))))
        # linking rows: master when free of locals (all of the root's), stage 2 otherwise
        local = np.zeros(nd.b.size, dtype=bool) if is_root or nd.E is None else \
            np.diff(nd.E.indptr) > 0
        link.rows = np.flatnonzero(~local)
        blocks.append(link)
        keep = np.flatnonzero(local)
        if keep.size == 0:
            continue
        # stage-2 LP: E y {sense} const + R w
        lp_a, senses, const = assemble([RowBlock([(nd.E, 0, 1.0)], nd.sen_l, nd.b, keep)],
                                       r, canonical=False)
        R, _, _ = assemble([RowBlock([(nd.A, x_par, 1.0), (nd.C, P[nid], -1.0),
                                      (nd.D, zcol(nid), -1.0), (nd.B, zp, 1.0)]
                                     + [(nd.W, za, 1.0) for za in z_anc],
                                     nd.sen_l, nd.b, keep)], n, canonical=False)
        lp = LpProblem(c=nd.h.copy(), A=lp_a, senses=senses, rhs=const.copy(),
                       lo=nd.y_lo.copy(), up=nd.y_up.copy())
        node_lps[nid] = _NodeLp(lp, RhsMap(R, const), table, node.p)

    A, senses, rhs = assemble(blocks, n, canonical=True)
    master = MipProblem(c=obj, A=A, senses=senses, rhs=rhs, lo=lo, up=up, integer=integer)
    lay = LdrLayout(z_off, x_off, y_off, lam_off, lam_cols, theta_off, n)
    return LdrModel(m, agg, variant, master, lay, node_lps, theta_keys)


class _BendersOracle(CutOracle):
    """Algorithm loop: scan (stage, state) groups in order, evaluate every
    member node, and emit one aggregated optimality cut for each group whose
    hybrid cost-to-go variable lags; an infeasible node ends the scan with
    its feasibility cut.  The paper scans to the first lagging group only;
    cutting every lagging group found on the way re-solves the master less
    often and leaves the optimum unchanged, since every cut is valid.

    Node LPs are solved through their memo (lp_engine's Benders layer); a
    point is accepted only after each group was evaluated at it, so
    true_cost of the incumbent solves no LP and cannot hit the deadline."""

    def __init__(self, model: LdrModel, eps: float, deadline: Deadline = Deadline()):
        self.model = model
        self.eps = eps
        self.deadline = deadline
        self.nodes_by_theta: dict[tuple, list[int]] = {key: [] for key in model.theta_keys}
        tree = model.msilp.tree
        for nid in model.node_lps:
            node = tree.node(nid)
            self.nodes_by_theta[(node.stage, node.mc_state.attrs)].append(nid)

    def group_value(self, key: tuple, x: np.ndarray):
        """(value, member duals) of a (stage, state) group at x: the
        path-probability weighted sum of its node LP optima and a list of
        (node LP, duals); value is None, and the list holds the first
        infeasible node LP, when one has no feasible point."""
        total = 0.0
        solved: list[tuple[_NodeLp, np.ndarray]] = []
        for nid in self.nodes_by_theta[key]:
            nl = self.model.node_lps[nid]
            sol = nl.solve(x, self.deadline)
            if sol.status == INFEASIBLE:
                return None, [nl]
            if sol.status != OPTIMAL:
                raise NumericalFailure(f"node {nid} LP: {sol.status}")
            total += nl.p * sol.objective
            solved.append((nl, sol.duals))
        return total, solved

    def separate(self, x: np.ndarray):
        model = self.model
        rows = []
        for key in model.theta_keys:
            if not self.nodes_by_theta[key]:
                continue
            total, solved = self.group_value(key, x)
            if total is None:
                violation, grad = solved[0].violation(x)
                # violation(w) >= violation(x) + grad.(w - x), forced to zero
                rows.append(cut_row(None, [(0, grad)], violation - float(grad @ x)))
                return rows
            theta_hat = float(x[model.layout.theta_off[key]])
            if total - theta_hat <= self.eps * abs(total) + VIOL_GUARD:
                continue  # an accepted lag, or one too small to separate
            grad = np.zeros(model.layout.n_cols)
            for nl, duals in solved:
                grad += nl.p * nl.rhs_map.slope(duals)
            rows.append(cut_row(model.layout.theta_off[key], [(0, grad)],
                                total - float(grad @ x)))
        return rows

    def true_cost(self, x: np.ndarray) -> float:
        """Master cost c'x with every grouped cost-to-go column replaced by
        its group's value at x."""
        model = self.model
        cost = float(model.master.c @ x)
        for key in model.theta_keys:
            if not self.nodes_by_theta[key]:
                continue
            value, _ = self.group_value(key, x)
            if value is None:
                raise NumericalFailure("an LDR node LP is infeasible at the incumbent")
            cost += value - float(x[model.layout.theta_off[key]])
        return cost


@dataclass
class LdrSolution(MipSolution):
    z_by_group: dict[GroupKey, np.ndarray] | None = None
    lam: dict[tuple, np.ndarray] | None = None


def benders_solve(model: LdrModel, eps: float | None = None,
                  deadline: Deadline = Deadline()) -> LdrSolution:
    """Branch and cut on the LDR master; a (stage, state) cost-to-go within
    relative eps (default 1e-6) of its group's value is accepted.

    The objective is the true cost of the incumbent: each accepted
    cost-to-go is replaced by its group's value at the incumbent, so an
    accepted lag never makes the policy look cheaper than it is.  The bound
    is the branch and cut's.  A negative eps would ask each cost-to-go to
    exceed its group's value, which no cut makes it do, and an infinite one
    makes the test nan on a zero value: both are a ConfigError."""
    eps = 1e-6 if eps is None else eps
    if not 0 <= eps < np.inf:
        raise ConfigError(f"eps must be nonnegative and finite, got {eps}")
    oracle = _BendersOracle(model, eps, deadline)
    sol = branch_and_cut(model.master, oracle, deadline=deadline, round_heuristic=False)
    if sol.status == INFEASIBLE:
        raise InfeasibleModel("LDR first stage is infeasible")
    out = LdrSolution(**vars(sol))
    if sol.x is not None:
        lay = model.layout
        m = model.msilp
        out.objective = oracle.true_cost(sol.x)
        out.gap = relative_gap(out.objective, sol.bound)
        out.z_by_group = z_values(lay.z_off, m.l, sol.x)
        out.lam = {key: sol.x[off:off + m.k * lay.lam_cols[key]]
                   .reshape(m.k, lay.lam_cols[key]).copy()
                   for key, off in lay.lam_off.items()}
    return out


def extract_policy(model: LdrModel, sol: LdrSolution) -> tuple[np.ndarray, dict]:
    """Per-node state values implied by the rule, plus the integer policy."""
    m = model.msilp
    tree = m.tree
    lay = model.layout
    x = sol.x
    out = np.zeros((len(tree), m.k))
    out[tree.root] = x[lay.x_off:lay.x_off + m.k]
    for node in tree.nodes:
        if node.stage == 1:
            continue
        out[node.id] = sol.lam[_lam_key(model.variant, m, node.id)] @ \
            _rule_basis(model.variant, m, node.id)
    return out, sol.z_by_group


def evaluate_policy_extensive(m: Msilp, agg: AggregationMap,
                              x_by_node: np.ndarray,
                              z_by_group: dict[GroupKey, np.ndarray]) -> float:
    """Objective of a fully fixed (x, z) policy in the aggregated extensive
    form; locals re-optimized.  Used to confirm extracted policies."""
    from .model import build_aggregated_extensive_form

    prob = build_aggregated_extensive_form(m, agg)
    lay = prob.layout
    for g, off in ((g, lay.z_off[g]) for g in agg.group_index):
        vals = np.asarray(z_by_group[g], dtype=float)
        prob.lo[off:off + m.l] = vals
        prob.up[off:off + m.l] = vals
    for node in m.tree.nodes:
        off = lay.x_off[node.id]
        prob.lo[off:off + m.k] = x_by_node[node.id]
        prob.up[off:off + m.k] = x_by_node[node.id]
    sol = solve_lp(LpProblem(c=prob.c, A=prob.A, senses=prob.senses,
                             rhs=prob.rhs, lo=prob.lo, up=prob.up),
                   want_farkas=False)
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"fixed-policy evaluation: {sol.status}")
    return float(sol.objective)
