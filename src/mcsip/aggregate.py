"""History-compressing transformations of integer state variables.

Every stage-t node of the scenario tree carries a state history of length
s*t.  A transformation compresses that history into a group key; nodes
with equal keys share one block of aggregated integer variables.  Group
keys are canonical integer tuples, never floating matrix products, so
grouping is exact.  Each transformation is one list of kept positions in
the flattened history (_kept); the compression matrix Phi and the group
key both read it.

Supported kinds:

    hn  stage only               (zero map)
    ma  current state
    mm  current + previous state
    pm  current state + chosen attributes of the previous state
    fh  full history             (identity; no aggregation)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidStage
from .markov import McState
from .tree import ScenarioTree, mc_history

KINDS = ("hn", "ma", "mm", "pm", "fh")

GroupKey = tuple  # (stage, attr values...)
SubKey = tuple    # (stage, state attrs, group key tail)


@dataclass(frozen=True)
class Transformation:
    kind: str
    partial_attrs: tuple[int, ...] = ()  # pm only: attribute indices kept from the parent state

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transformation kind {self.kind!r}")
        if self.kind == "pm" and not self.partial_attrs:
            raise ValueError("pm requires a nonempty partial attribute set")


def _kept(tr: Transformation, t: int, s: int) -> list[int]:
    """Positions of the stage-t flattened history (s attributes per stage)
    that the transformation keeps, in key order.  At t=1 the kinds that
    look one stage back fall back to the current-state map; at t<1 the
    stage is invalid."""
    if t < 1:
        raise InvalidStage(f"stage must be >= 1, got {t}")
    n = s * t
    kind = tr.kind
    if kind in ("mm", "pm") and t == 1:
        kind = "ma"
    if kind == "pm" and any(a < 0 or a >= s for a in tr.partial_attrs):
        raise ConfigError(f"partial attribute index out of range: {list(tr.partial_attrs)} "
                          f"(the states have {s} attributes)")
    return {
        "hn": [],
        "ma": list(range(n - s, n)),
        "mm": list(range(n - 2 * s, n)),
        "pm": [s * (t - 2) + a for a in sorted(tr.partial_attrs)] + list(range(n - s, n)),
        "fh": list(range(n)),
    }[kind]


def build_phi(tr: Transformation, t: int, s: int) -> np.ndarray:
    """The stage-t compression matrix applied to the flattened history:
    one row per kept position, shape (q_t, s*t); hn keeps nothing and is a
    single zero row."""
    kept = _kept(tr, t, s)
    phi = np.zeros((max(len(kept), 1), s * t), dtype=int)
    phi[np.arange(len(kept)), kept] = 1
    return phi


def group_key(tr: Transformation, history: list[McState]) -> GroupKey:
    """Canonical key of a node given its state history (stage = len): the
    stage, then the kept history attributes."""
    t, s = len(history), len(history[0].attrs)
    flat = [a for st in history for a in st.attrs]
    return (t,) + tuple(flat[i] for i in _kept(tr, t, s))


@dataclass
class AggregationMap:
    """Node -> group assignment for one transformation on one tree."""

    tree: ScenarioTree
    transformation: Transformation
    node_to_group: list[GroupKey]
    group_members: dict[GroupKey, list[int]]
    group_index: dict[GroupKey, int]  # dense block index, ordered by stage then key

    def stage_groups(self, t: int) -> list[GroupKey]:
        return [g for g in self.group_index if g[0] == t]

    @property
    def n_groups(self) -> int:
        return len(self.group_index)


def build_aggregation(tree: ScenarioTree, tr: Transformation) -> AggregationMap:
    node_to_group: list[GroupKey] = [()] * len(tree)
    members: dict[GroupKey, list[int]] = {}
    for t in range(1, tree.stages + 1):
        for nid in tree.stage_nodes(t):
            key = group_key(tr, mc_history(tree, nid))
            node_to_group[nid] = key
            members.setdefault(key, []).append(nid)
    index = {g: i for i, g in enumerate(sorted(members))}
    return AggregationMap(tree, tr, node_to_group, members, index)


def refines(a: AggregationMap, b: AggregationMap) -> bool:
    """True when every group of a is contained in a single group of b."""
    if a.tree is not b.tree and len(a.tree) != len(b.tree):
        raise ValueError("aggregation maps built on different trees")
    for nodes in a.group_members.values():
        targets = {b.node_to_group[n] for n in nodes}
        if len(targets) > 1:
            return False
    return True


@dataclass
class PolicyGraph:
    """Quotient of the scenario tree by the subproblem key (stage, state, group).

    Stage-1 has no subproblems; the root is handled by the master problem.
    reach lists a subproblem's reachable groups in group_index order: its
    own group and those of every subproblem below it, the only integer
    blocks its value can depend on besides its parent's group.
    """

    subproblems: list[SubKey]
    stage_subs: dict[int, list[SubKey]]
    node_to_sub: list[SubKey | None]
    sub_members: dict[SubKey, list[int]]
    children: dict[SubKey, list[tuple[SubKey, float]]]
    parents: dict[SubKey, list[SubKey]] = field(default_factory=dict)
    reach: dict[SubKey, list[GroupKey]] = field(default_factory=dict)


def sub_key(agg: AggregationMap, nid: int) -> SubKey:
    node = agg.tree.node(nid)
    return (node.stage, node.mc_state.attrs, agg.node_to_group[nid])


def build_policy_graph(tree: ScenarioTree, agg: AggregationMap) -> PolicyGraph:
    node_to_sub: list[SubKey | None] = [None] * len(tree)
    members: dict[SubKey, list[int]] = {}
    for t in range(2, tree.stages + 1):
        for nid in tree.stage_nodes(t):
            key = sub_key(agg, nid)
            node_to_sub[nid] = key
            members.setdefault(key, []).append(nid)
    stage_subs: dict[int, list[SubKey]] = {}
    for key in sorted(members):
        stage_subs.setdefault(key[0], []).append(key)
    children: dict[SubKey, list[tuple[SubKey, float]]] = {k: [] for k in members}
    parents: dict[SubKey, list[SubKey]] = {k: [] for k in members}
    for key, nids in members.items():
        seen: dict[SubKey, float] = {}
        per_node_sets = set()
        for nid in nids:
            own = set()
            for cid in tree.node(nid).children:
                ck = node_to_sub[cid]
                own.add(ck)
                seen[ck] = tree.node(cid).p_cond
            per_node_sets.add(frozenset(own))
        # every member node must see the same child subproblems, otherwise the
        # expected cost-to-go term of the shared subproblem would be ill-defined
        if len(per_node_sets) > 1:
            raise ValueError(f"inconsistent child subproblems for {key}")
        for ck in sorted(seen):
            children[key].append((ck, seen[ck]))
            parents[ck].append(key)
    subproblems = [k for t in sorted(stage_subs) for k in stage_subs[t]]
    reach: dict[SubKey, list[GroupKey]] = {}
    for key in reversed(subproblems):  # children before their parents
        found = {key[2]}.union(*(reach[ck] for ck, _ in children[key]))
        reach[key] = sorted(found, key=agg.group_index.__getitem__)
    return PolicyGraph(subproblems, stage_subs, node_to_sub, members, children, parents,
                       reach)
