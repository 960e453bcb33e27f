"""Scenario tree induced by a Markov chain over a fixed number of stages.

One node per admissible state sequence; ids are dense integers assigned
breadth-first so each stage occupies a contiguous id range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Overflow, UnknownNode
from .markov import MarkovChain, McState
from .tolerances import PRUNE_TOL

NODE_CAP = 10**7


@dataclass
class TreeNode:
    id: int
    stage: int
    mc_state: McState
    parent: int | None
    children: list[int] = field(default_factory=list)
    p: float = 1.0        # unconditional path probability
    p_cond: float = 1.0   # probability of the edge from the parent


@dataclass
class ScenarioTree:
    nodes: list[TreeNode]
    stages: int
    stage_index: list[list[int]]  # stage_index[t-1] = node ids of stage t
    root: int = 0

    def node(self, n: int) -> TreeNode:
        if not 0 <= n < len(self.nodes):
            raise UnknownNode(str(n))
        return self.nodes[n]

    def stage_nodes(self, t: int) -> list[int]:
        return self.stage_index[t - 1]

    def leaves(self) -> list[int]:
        return self.stage_index[self.stages - 1]

    def __len__(self):
        return len(self.nodes)


def build_tree(mc: MarkovChain, T: int) -> ScenarioTree:
    """Enumerate all positive-probability state sequences of length <= T.

    Paths whose probability falls below PRUNE_TOL are dropped as
    numerically zero.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    nodes = [TreeNode(0, 1, mc.initial, None)]
    stage_index = [[0]]
    frontier = [0]
    for t in range(2, T + 1):
        layer: list[int] = []
        for nid in frontier:
            node = nodes[nid]
            for state, prob in mc.successors(node.mc_state):
                p = node.p * prob
                if p < PRUNE_TOL:
                    continue
                cid = len(nodes)
                if cid >= NODE_CAP:
                    raise Overflow(f"scenario tree exceeds {NODE_CAP} nodes")
                nodes.append(TreeNode(cid, t, state, nid, p=p, p_cond=prob))
                node.children.append(cid)
                layer.append(cid)
        stage_index.append(layer)
        frontier = layer
    return ScenarioTree(nodes, T, stage_index)


def path(tree: ScenarioTree, n: int) -> list[int]:
    """Node ids from the root to n inclusive, root first."""
    node = tree.node(n)
    out = [node.id]
    while node.parent is not None:
        node = tree.nodes[node.parent]
        out.append(node.id)
    out.reverse()
    return out


def mc_history(tree: ScenarioTree, n: int) -> list[McState]:
    """The Markov-state sequence along the root-to-n path."""
    return [tree.nodes[i].mc_state for i in path(tree, n)]

