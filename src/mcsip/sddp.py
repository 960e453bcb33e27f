"""Nested decomposition over the policy graph, driven as a lazy-cut oracle.

The master problem owns all aggregated integer blocks, the root-stage
continuous variables and one cost-to-go variable per stage-2 node.  Every
integer state z is a master decision, so inside a subproblem it is a
constant.  Each policy-graph subproblem is an LP over its continuous state
x, its local variables y and one theta per child subproblem, with z only
on the right-hand side:

    min  d'x + h'y + sum_children p * theta_child
    s.t. C x + E y >= A x_parent + B z[parent group]
              - D z[own group] + b                 (linking rows)
         theta_child - alpha'x >= gamma + beta'z[own group]
              + sum_g rho_g'z[g]                   (pooled cuts)

over the node's rows but its integer rows, which the master holds.

A cut generated from a solved subproblem is the exact dual support of its
value as a function of the incoming state: alpha collects the A duals,
beta the B duals, and rho_g the slope on the z of every reachable group g
of the owner (its D duals and those of the cuts it hosts), so the cut
stays valid in any same-stage host (beta binds to the host's own group).
The reachable groups (PolicyGraph.reach) are the owner's own group and
those of every subproblem below it: the value depends on no other z, so
by induction over hosted cuts rho is zero elsewhere and the state w
carries only these groups.  Cuts are shared with every subproblem
carrying the theta variable.  Both kinds of cut are read off the
subproblem's solution at the state by StateLp.cut, lp_engine's one cut
reader: an optimality cut supports the value of an optimum, a feasibility
cut the phase-1 violation of an infeasible LP (its certificate).

A cut is stored as that slope R' pi over its owner's w, unsplit (alpha,
beta and rho are its blocks), plus gamma; index maps built once (_place)
place it over each host's columns [w | x, y, theta] and over the
master's.

Forward passes sample leaf paths without replacement; backward passes are
quick passes over the forward solutions.  The subroutine returns the first
master-level cut violated by the current candidate, or nothing once the
mode's termination rule certifies there is none: exact mode widens the
sample to full coverage and insists on a no-cut round, relaxed mode caps
the rounds and never widens the sample, which keeps every returned bound
a valid relaxation of the aggregated problem.

Rows come from the shared assembler, every variable block mapped by its
column offset.  The master is model.assemble's canonical form (tiny
coefficients dropped, rounded, duplicate rows removed) and takes each cut
as one dense '>=' row: its slope placed over the master's columns by an
index map, written by lp_engine.cut_row.  Each subproblem LP is an
lp_engine.StateLp, as LDR's node LPs are: its node's linking rows
written over [w | x, y, theta] and split at w's width by
model.split_rows (all subproblems at once, model.split_state_lps), so
rhs = const + R w at the incoming state w = (x_parent, z).  A hosted
cut is one row over the same columns, its slope placed by an index map
built as the master's are (_place) and written by cut_row;
StateLp.host splits it the same way.  The engine's subproblems
share one memo (see lp_engine's Benders layer), so the copies of a stage
and Markov state that the transform tells apart are solved once per rhs.

solve runs S and its relaxed run (S-LB) on one engine: master, root cut
loop, branch and cut.  S and S-UB then cost their incumbent policy on
that same engine, its pools and memo kept, by branch and cut on a master
with z fixed (_policy_cost), and report that cost as the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .aggregate import AggregationMap, GroupKey, SubKey, build_policy_graph
from .errors import ConfigError, InfeasiblePolicy, NumericalFailure
from .lp_engine import (INFEASIBLE, OPTIMAL, TIME_LIMIT, CutOracle, Deadline, DeadlineReached,
                        LpSolution, MipSolution, StateLp, StateLpTable, add_rows,
                        branch_and_cut, cut_row, relative_gap, solve_lp)
from .model import LpProblem, MipProblem, Msilp, assemble, check_cost_to_go_floor, \
    first_stage_columns, first_stage_offsets, node_rows, split_state_lps, z_values
from .tolerances import EPS_EXACT, EPS_POLICY, THETA_LB, VIOL_GUARD
from .tree import path as tree_path

PRECUT_ROUNDS = 500  # LP-relaxation cut rounds before branching


@dataclass
class SddpConfig:
    eps: float | None = None      # default EPS_EXACT in exact mode, 0.1 relaxed
    k: int | None = None          # sample paths per round; default min(20, leaves)
    exact: bool = True
    max_rounds: int = 3           # relaxed mode only
    seed: int = 0
    deadline: Deadline = Deadline()
    theta_lb = THETA_LB           # a constant, not a setting: no annotation, no field

    def __post_init__(self):
        if self.eps is not None and not 0 < self.eps < np.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if self.max_rounds < 1:
            raise ConfigError(f"rounds must be at least 1, got {self.max_rounds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @property
    def accepted_lag(self) -> float:
        """eps, or the default of the mode the config is in now."""
        return self.eps if self.eps is not None else EPS_EXACT if self.exact else 0.1


def _state(x_par, zvals, parent_group, z_groups) -> np.ndarray:
    """w = [x_parent | z of the parent group | z of each group in z_groups]."""
    return np.concatenate([x_par, zvals[parent_group]] + [zvals[g] for g in z_groups])


@dataclass
class Cut:
    """theta >= gamma + slope'w (0 >= ... for a feasibility cut), w its
    owner's incoming state; value_at reads the host's own group as w's
    parent group, so the cut holds in every same-stage host."""

    owner: SubKey
    kind: str                     # 'optimality' | 'feasibility'
    slope: np.ndarray             # R' pi over the owner's w
    gamma: float
    z_groups: list[GroupKey]      # the owner's reachable groups, w's z blocks
    gen_x: np.ndarray | None = None
    gen_z: dict[GroupKey, np.ndarray] | None = None  # the candidate's arrays w reads
    gen_parent_group: GroupKey | None = None
    gen_value: float = 0.0

    def value_at(self, x_par: np.ndarray, zvals: dict[GroupKey, np.ndarray],
                 host_group: GroupKey) -> float:
        return self.gamma + float(self.slope @ _state(x_par, zvals, host_group, self.z_groups))


@dataclass
class MasterPoint:
    """Decoded master candidate handed to the SDDP subroutine."""

    x_root: np.ndarray
    z: dict[GroupKey, np.ndarray]
    theta: dict[int, float]       # stage-2 node id -> candidate value
    root_group: GroupKey


@dataclass
class MasterLayout:
    z_off: dict[GroupKey, int]
    x_off: int
    theta: dict[int, int]         # stage-2 node id -> column
    n_cols: int


@dataclass
class SddpResult(MipSolution):
    z_by_group: dict[GroupKey, np.ndarray] | None = None
    cut_counts: dict[str, int] = field(default_factory=dict)


def _place(x_at: int, z_at: dict, groups, k: int, l: int) -> np.ndarray:
    """The index map of a cut's slope over its owner's w = [x_parent | z of
    each of groups] onto a host's columns: x_parent at x_at, each group's
    z at z_at[group]."""
    return np.concatenate([x_at + np.arange(k)] + [z_at[g] + np.arange(l) for g in groups])


class _Sub(StateLp):
    """One policy-graph subproblem and its growing LP over x, y and theta.

    z reaches the LP only through its rhs, const + R w at the incoming
    state w = [x_parent | z of the parent group | z of each reachable
    group (z_groups, PolicyGraph.reach)].  The linking rows come first,
    hosted cut rows follow.  Its LP is set by take_rows, once
    SddpEngine has split every subproblem's linking_rows in one go."""

    def __init__(self, key: SubKey, engine: "SddpEngine"):
        self.key = key
        m = engine.msilp
        node0 = engine.pgraph.sub_members[key][0]
        self.nd = m.data[node0]
        self.group = engine.agg.node_to_group[node0]
        self.children = engine.pgraph.children[key]
        self.z_groups = engine.pgraph.reach[key]
        k, l, r = m.k, m.l, m.r
        n_w = k + l + l * len(self.z_groups)
        w_off = {g: k + l + i * l for i, g in enumerate(self.z_groups)}
        self.theta0 = k + r
        self.theta_col = {ck: self.theta0 + i for i, (ck, _) in enumerate(self.children)}
        # each child's cut slope over [this w | x, y, theta]
        self.place = {ck: _place(n_w, w_off, (self.group, *engine.pgraph.reach[ck]), k, l)
                      for ck, _ in self.children}
        # the node's rows but its integer rows, over [w | x, y, theta], to be split at w
        self.linking_rows = (node_rows(self.nd, w_off[self.group], n_w, n_w + k, k, 0, ())[1:],
                             n_w, self.theta0 + len(self.children))

    def take_rows(self, split: tuple, table: StateLpTable) -> None:
        """Set the LP from split, the (A, senses, const, R) of linking_rows."""
        A, senses, const, R = split
        nd, nt = self.nd, len(self.children)
        lp = LpProblem(c=np.concatenate([nd.d, nd.h, [p for _, p in self.children]]),
                       A=A, senses=senses, rhs=np.zeros(senses.size),
                       lo=np.concatenate([nd.x_lo, nd.y_lo, np.full(nt, THETA_LB)]),
                       up=np.concatenate([nd.x_up, nd.y_up, np.full(nt, np.inf)]))
        super().__init__(lp, R, const, table)

    def state(self, x_par: np.ndarray, zvals: dict[GroupKey, np.ndarray],
              parent_group: GroupKey) -> np.ndarray:
        return _state(x_par, zvals, parent_group, self.z_groups)

    def host_cut(self, cut: Cut) -> None:
        """Host a child's cut theta >= gamma + slope'w_child as one row over
        [w | x, y, theta], its slope placed by the child's index map:
        x_parent onto this LP's x, the z blocks into this w."""
        n_w = self.R.shape[1]
        theta = n_w + self.theta_col[cut.owner] if cut.kind == "optimality" else None
        coefs = np.bincount(self.place[cut.owner], cut.slope, minlength=n_w + self.lp.n)
        self.host(cut_row(theta, coefs, cut.gamma))


class _Step(NamedTuple):
    """One node of a forward pass: its subproblem and where its incoming
    state comes from (stage-2 nodes take theirs from the candidate)."""

    nid: int
    sub: _Sub
    stage2: bool
    parent: int
    parent_group: GroupKey


class SddpEngine:
    """Shared cut pools and subproblem LPs for one solve."""

    def __init__(self, m: Msilp, agg: AggregationMap, cfg: SddpConfig):
        if any(nd.W is not None for nd in m.data):
            raise ValueError("ancestor-coupled rows are not decomposable stagewise; "
                             "use the state-carrying formulation")
        # a subproblem's cost-to-go covers x and y of every non-root node
        check_cost_to_go_floor(m, [nd.id for nd in m.tree.nodes if nd.parent is not None],
                               with_x=True)
        self.msilp = m
        self.agg = agg
        self.cfg = cfg
        self.pgraph = build_policy_graph(m.tree, agg)
        self.rng = np.random.default_rng(cfg.seed)
        table = StateLpTable()
        self.subs = {key: _Sub(key, self) for key in self.pgraph.subproblems}
        for sub, split in zip(self.subs.values(), split_state_lps(
                [sub.linking_rows for sub in self.subs.values()])):
            sub.take_rows(split, table)
        self.pools: dict[SubKey, list[Cut]] = {k: [] for k in self.pgraph.subproblems}
        self._pool_sigs: dict[SubKey, set] = {k: set() for k in self.pgraph.subproblems}
        self.master_pool: dict[int, list[Cut]] = {}
        tree = m.tree
        self._steps = {nd.id: _Step(nd.id, self.subs[self.pgraph.node_to_sub[nd.id]],
                                    nd.stage == 2, nd.parent, agg.node_to_group[nd.parent])
                       for nd in tree.nodes if nd.parent is not None}
        # each leaf's forward pass, grouped by the stage-2 node it starts at
        self._plans: dict[int, list[_Step]] = {}
        under: dict[int, list[int]] = {}
        for leaf in tree.leaves():
            plan = self._plans[leaf] = self.plan(tree_path(tree, leaf)[1:])
            if plan:
                under.setdefault(plan[0].nid, []).append(leaf)
        self._leaves_under: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for n2, ids in under.items():
            w = np.array([tree.node(i).p for i in ids])
            self._leaves_under[n2] = (np.array(ids), w / w.sum())

    def plan(self, node_path) -> list[_Step]:
        """The forward-pass steps of a root-to-leaf run of non-root nodes."""
        return [self._steps[nid] for nid in node_path]

    # -- cut construction --------------------------------------------------

    def make_cut(self, sub: _Sub, sol: LpSolution, x_par: np.ndarray, zvals,
                 parent_group) -> Cut:
        """The cut of sub's solution sol at this state (StateLp.cut), tight
        there: of its value, or of its violation when infeasible."""
        value, slope, gamma = sub.cut(sol, sub.state(x_par, zvals, parent_group))
        kind = "feasibility" if sol.status == INFEASIBLE else "optimality"
        return Cut(sub.key, kind, slope, gamma, sub.z_groups, gen_x=x_par.copy(),
                   gen_z={g: zvals[g] for g in (parent_group, *sub.z_groups)},
                   gen_parent_group=parent_group, gen_value=value)

    def _cut_signature(self, cut: Cut):
        # + 0.0 turns -0.0 into 0.0, so equal rounded slopes give equal bytes
        return cut.kind, round(cut.gamma, 9), (np.round(cut.slope, 9) + 0.0).tobytes()

    def add_cut(self, cut: Cut) -> bool:
        """Store and share a cut with every host; False for an exact duplicate."""
        sig = self._cut_signature(cut)
        if sig in self._pool_sigs[cut.owner]:
            return False
        self._pool_sigs[cut.owner].add(sig)
        self.pools[cut.owner].append(cut)
        for pk in self.pgraph.parents[cut.owner]:
            self.subs[pk].host_cut(cut)
        return True

    # -- forward / backward ------------------------------------------------

    def solve_sub(self, sub: _Sub, x_par, zvals, parent_group) -> LpSolution:
        """The subproblem LP's outcome at this state (StateLp.solve)."""
        return sub.solve(sub.state(x_par, zvals, parent_group), self.cfg.deadline)

    def sddp_subroutine(self, candidate: MasterPoint, n_child: int) -> Cut | None:
        cfg = self.cfg
        ids, weights = self._leaves_under[n_child]
        k_cur = min(cfg.k or 20, ids.size)
        rounds = 0
        seen: set = set()  # the non-separating stage-2 cuts of this call
        while True:
            rounds += 1
            if rounds > 100_000:
                raise NumericalFailure("SDDP rounds did not terminate")
            order = self.rng.choice(ids.size, size=k_cur, replace=False, p=weights)
            cut_added = False
            for leaf in ids[order]:
                plan = self._plans[int(leaf)]
                sols: dict[int, tuple] = {}
                feas_cut = self._forward(plan, candidate, sols)
                if feas_cut is not None:
                    if feas_cut.owner[0] == 2:
                        return feas_cut
                    cut_added = True
                    continue
                outcome = self._backward(plan, candidate, sols, seen)
                if isinstance(outcome, Cut):
                    return outcome
                cut_added = cut_added or outcome
            if cfg.exact:
                if not cut_added:
                    if k_cur >= ids.size:
                        return None
                    k_cur = ids.size
            else:
                if not cut_added or rounds >= cfg.max_rounds:
                    return None

    def _forward(self, plan: list[_Step], candidate: MasterPoint, sols) -> Cut | None:
        """Solve plan's nodes at candidate; sols[nid] gets the node's optimum
        and its state, (LpSolution, x_parent, z, parent group).  Returns an
        infeasible node's feasibility cut, else None."""
        zvals = candidate.z
        for nid, sub, stage2, parent, pg in plan:
            if stage2:
                x_par, pg = candidate.x_root, candidate.root_group
            else:
                x_par = sols[parent][0].x[:self.msilp.k]
            sol = self.solve_sub(sub, x_par, zvals, pg)
            if sol.status == INFEASIBLE:
                cut = self.make_cut(sub, sol, x_par, zvals, pg)
                self.add_cut(cut)
                return cut
            if sol.status != OPTIMAL:
                raise NumericalFailure(f"subproblem {sub.key}: {sol.status}")
            sols[nid] = (sol, x_par, zvals, pg)
        return None

    def _backward(self, plan: list[_Step], candidate: MasterPoint, sols, seen: set):
        """Quick pass; returns a violated master Cut, else whether any cut
        landed.  seen holds the signatures of the stage-2 cuts that did not
        separate, so far in this subroutine call."""
        added, eps = False, self.cfg.accepted_lag
        for nid, sub, stage2, parent, _ in reversed(plan):
            value = sols[nid][0].objective
            if stage2:
                theta_hat = candidate.theta[nid]
            else:  # the child's theta in its parent's optimum
                theta_hat = sols[parent][0].x[self._steps[parent].sub.theta_col[sub.key]]
            if abs(theta_hat - value) < eps * abs(value) + VIOL_GUARD:
                continue
            cut = self.make_cut(sub, *sols[nid])
            if stage2:
                # made at the candidate, the cut equals value there, so past
                # the test above it separates exactly when theta_hat < value
                if theta_hat < value:
                    self.master_pool.setdefault(nid, []).append(cut)
                    return cut
                # gap seen but the cut does not separate yet: keep iterating so
                # deeper pools improve instead of accepting a stale candidate;
                # an unchanged regenerated cut marks a fixed point, stop there
                sig = (nid, self._cut_signature(cut))
                if sig not in seen:
                    seen.add(sig)
                    added = True
            else:
                added = self.add_cut(cut) or added
        return added

    def cut_counts(self) -> dict[str, int]:
        return {
            "subproblem_cuts": sum(len(p) for p in self.pools.values()),
            "master_cuts": sum(len(p) for p in self.master_pool.values()),
        }


# -- master problem --------------------------------------------------------


def build_master(m: Msilp, agg: AggregationMap,
                 theta_lb: float = THETA_LB) -> tuple[MipProblem, MasterLayout]:
    """First-stage MIP: all aggregated integer blocks, root continuous block,
    one cost-to-go variable per stage-2 node, and every node's integer rows."""
    tree = m.tree
    r = m.r
    z_off, x_off, y_off = first_stage_offsets(m, agg)
    theta_cols = {nid: y_off + r + i
                  for i, nid in enumerate(tree.node(tree.root).children)}
    n = y_off + r + len(theta_cols)

    def zcol(nid):
        return z_off[agg.node_to_group[nid]]

    obj, lo, up, integer = first_stage_columns(m, zcol, x_off, y_off, n)
    for nid, tc in theta_cols.items():
        obj[tc] = tree.node(nid).p_cond
        lo[tc] = theta_lb

    # every node's integer rows, then the root's other rows
    blocks = [node_rows(m.data[node.id], zcol(node.id), None, None,
                        None if node.parent is None else zcol(node.parent), None, ())[0]
              for node in tree.nodes]
    blocks += node_rows(m.data[tree.root], zcol(tree.root), x_off, y_off, None, None, ())[1:]
    A, senses, rhs = assemble(blocks, n)
    prob = MipProblem(c=obj, A=A, senses=senses, rhs=rhs, lo=lo, up=up, integer=integer)
    return prob, MasterLayout(z_off, x_off, theta_cols, n)


def decode_master(m: Msilp, agg: AggregationMap, lay: MasterLayout,
                  x: np.ndarray) -> MasterPoint:
    """The candidate at master solution x; its z arrays are fresh and
    read-only, since every cut made at it keeps them by reference."""
    theta = {nid: float(x[tc]) for nid, tc in lay.theta.items()}
    root_group = agg.node_to_group[m.tree.root]
    z = z_values(lay.z_off, m.l, x)
    for v in z.values():
        v.setflags(write=False)
    return MasterPoint(x[lay.x_off:lay.x_off + m.k].copy(), z, theta, root_group)


class _MasterOracle(CutOracle):
    """Algorithm wiring: one SDDP call per stage-2 node, all violated cuts
    returned together, caller re-solves and calls again until clean.  Each
    stage-2 node's w has an index map onto master columns, built once."""

    def __init__(self, engine: SddpEngine, lay: MasterLayout):
        self.engine = engine
        self.lay = lay
        m = engine.msilp
        root_group = engine.agg.node_to_group[m.tree.root]
        self.place = {}
        for nid in m.tree.node(m.tree.root).children:
            groups = (root_group, *engine.subs[engine.pgraph.node_to_sub[nid]].z_groups)
            self.place[nid] = _place(lay.x_off, lay.z_off, groups, m.k, m.l)

    def separate(self, x: np.ndarray):
        eng, lay = self.engine, self.lay
        cand = decode_master(eng.msilp, eng.agg, lay, x)
        rows = []
        for nid, place in self.place.items():
            cut = eng.sddp_subroutine(cand, nid)
            if cut is not None:
                theta = lay.theta[nid] if cut.kind == "optimality" else None
                coefs = np.bincount(place, cut.slope, minlength=lay.n_cols)
                rows.append(cut_row(theta, coefs, cut.gamma))
        return rows


def _root_precut(master: MipProblem, oracle: "_MasterOracle") -> float | None:
    """Cut loop on the LP relaxation before branching starts, up to the
    deadline; returns the last relaxation objective, a valid bound, or None.

    Cut validity never uses integrality of the candidate, so separating at
    the relaxation optimum is sound; it just front-loads pool growth so the
    branch-and-bound candidates start out well approximated.  The master
    keeps the relaxation's last basis, from which branch and cut starts its root.
    """
    bound = None
    deadline = oracle.engine.cfg.deadline
    try:
        for _ in range(PRECUT_ROUNDS):
            deadline.check()
            sol = solve_lp(master, deadline=deadline)
            if sol.status != OPTIMAL:
                break
            bound = sol.objective
            rows = oracle.separate(sol.x)
            if not rows:
                break
            add_rows(master, rows)
    except DeadlineReached:
        pass
    return bound


def _policy_cost(engine: SddpEngine, z: dict[GroupKey, np.ndarray]) -> float:
    """Exact objective of the fixed aggregated integer policy z (an upper
    bound), on engine's cut pools and memo and under its deadline: branch
    and cut on a master with z fixed, whose root cut loop is the whole run.

    The engine stays in exact mode from here on, with eps vanishing, so
    convergence is driven by the absolute violation guard: a meaningful
    relative tolerance would let every cost-to-go variable settle a
    relative notch below its true value, compounding across stages.
    Raises DeadlineReached when the deadline ends the evaluation before it
    certifies a value."""
    m = engine.msilp
    engine.cfg = replace(engine.cfg, eps=EPS_POLICY, exact=True)
    master, lay = build_master(m, engine.agg)
    for g, off in lay.z_off.items():
        master.lo[off:off + m.l] = master.up[off:off + m.l] = z[g]
    sol = branch_and_cut(master, _MasterOracle(engine, lay), deadline=engine.cfg.deadline)
    if sol.status == INFEASIBLE:
        raise InfeasiblePolicy("no feasible continuous completion for the fixed policy")
    if sol.status == TIME_LIMIT:
        raise DeadlineReached("policy evaluation hit the time limit")
    if sol.objective is None:
        raise NumericalFailure(f"policy evaluation ended {sol.status}")
    return float(sol.objective)


def solve(m: Msilp, agg: AggregationMap, cfg: SddpConfig, certify: bool) -> SddpResult:
    """S (cfg.exact) or its relaxed run: master, root cut loop, then the
    SDDP-driven branch and cut, all on one SddpEngine.

    With certify, the incumbent's objective is its exact policy cost
    (_policy_cost on the same engine), never the master value whose
    cost-to-go may lag, and gap is taken against the bound again.  When
    the deadline ends that evaluation, the result is time_limit without an
    objective; its bound and z stay."""
    engine = SddpEngine(m, agg, cfg)
    master, lay = build_master(m, agg)
    oracle = _MasterOracle(engine, lay)
    root_bound = _root_precut(master, oracle)
    res = SddpResult(**vars(branch_and_cut(master, oracle, deadline=cfg.deadline)))
    if res.status == TIME_LIMIT and res.bound is None:  # branch and cut solved no node
        res.bound = root_bound
    if res.x is not None:
        res.z_by_group = z_values(lay.z_off, m.l, res.x)
        if certify:
            try:
                res.objective = _policy_cost(engine, res.z_by_group)
                res.gap = relative_gap(res.objective, res.bound)
            except DeadlineReached:
                res.status, res.objective, res.gap = TIME_LIMIT, None, None
    res.cut_counts = engine.cut_counts()
    return res


def solve_exact(m: Msilp, agg: AggregationMap, cfg: SddpConfig | None = None) -> SddpResult:
    """Exact optimum of the aggregated problem via branch-and-cut + SDDP,
    reported as the certified cost of the optimal policy."""
    return solve(m, agg, cfg or SddpConfig(), certify=True)


def solve_lower_bound(m: Msilp, agg: AggregationMap,
                      cfg: SddpConfig | None = None) -> tuple[float | None, SddpResult]:
    """Relaxed-termination bound plus the incumbent first-stage candidate.

    The returned bound never exceeds the aggregated optimum: every cut is a
    valid underestimator and the relaxed run only leaves cuts out.  It is
    None when the run ended before it had one (a time limit before the root
    LP solved).
    """
    cfg = replace(cfg, exact=False) if cfg else SddpConfig(exact=False)
    res = solve(m, agg, cfg, certify=False)
    return (None if res.bound is None else float(res.bound)), res


def evaluate_policy(m: Msilp, agg: AggregationMap, z_hat: dict[GroupKey, np.ndarray],
                    cfg: SddpConfig | None = None) -> float:
    """Exact objective of a fixed aggregated integer policy (upper bound),
    on a fresh engine; see _policy_cost."""
    return _policy_cost(SddpEngine(m, agg, cfg or SddpConfig()), z_hat)
