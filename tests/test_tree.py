
import numpy as np
import pytest

from mcsip.errors import Overflow, UnknownNode
from mcsip.markov import MarkovChain, McState
from mcsip.tree import build_tree, mc_history, path

from conftest import DARK, LIGHT, random_chain


def enumerate_paths(mc, T):
    """Independent oracle: all positive-probability state sequences."""
    seqs = [[mc.initial]]
    out = [1]
    for _ in range(T - 1):
        nxt = []
        for s in seqs:
            for b, p in mc.successors(s[-1]):
                nxt.append(s + [b])
        seqs = nxt
        out.append(len(seqs))
    return out


def test_two_state_tree_has_15_nodes(two_state_tree):
    assert len(two_state_tree) == 15
    assert [len(two_state_tree.stage_nodes(t)) for t in range(1, 5)] == [1, 2, 4, 8]


def test_single_stage_tree(two_state_chain):
    t = build_tree(two_state_chain, 1)
    assert len(t) == 1 and t.node(0).p == 1.0


def test_node_count_matches_path_enumeration():
    for seed in (1, 4, 9):
        rng = np.random.default_rng(seed)
        mc = random_chain(rng, n_states=3, zero_frac=0.45)
        tree = build_tree(mc, 3)
        expected = enumerate_paths(mc, 3)
        assert [len(tree.stage_nodes(t)) for t in range(1, 4)] == expected


def test_path_of_root(two_state_tree):
    assert path(two_state_tree, two_state_tree.root) == [0]


def test_leaf_paths_have_increasing_stages(two_state_tree):
    for leaf in two_state_tree.leaves():
        ids = path(two_state_tree, leaf)
        assert len(ids) == 4
        assert [two_state_tree.node(i).stage for i in ids] == [1, 2, 3, 4]


def test_path_matches_parent_hops(two_state_tree):
    for node in two_state_tree.nodes:
        ids = path(two_state_tree, node.id)
        cur = node
        for t in range(node.stage, 0, -1):
            assert ids[t - 1] == cur.id
            if cur.parent is not None:
                cur = two_state_tree.node(cur.parent)


def test_mc_history(two_state_tree):
    assert mc_history(two_state_tree, 0) == [LIGHT]
    hists = {tuple(s.attrs[0] for s in mc_history(two_state_tree, n))
             for n in two_state_tree.stage_nodes(3)}
    assert (0, 1, 0) in hists  # light-dark-light exists at stage 3
    for node in two_state_tree.nodes:
        flat = [a for s in mc_history(two_state_tree, node.id) for a in s.attrs]
        assert len(flat) == 1 * node.stage


def test_stage_probability_conservation():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        mc = random_chain(rng, n_states=3, zero_frac=0.3)
        tree = build_tree(mc, 4)
        for t in range(1, 5):
            assert sum(tree.node(n).p for n in tree.stage_nodes(t)) == \
                pytest.approx(1.0, abs=1e-9)
        for node in tree.nodes:
            if node.children:
                assert sum(tree.node(c).p_cond for c in node.children) == \
                    pytest.approx(1.0, abs=1e-9)
            if node.parent is not None:
                assert node.p_cond == pytest.approx(
                    node.p / tree.node(node.parent).p, abs=1e-12)


def test_stage_nodes_are_distinct_histories(two_state_tree):
    for t in range(1, 5):
        hists = [tuple(mc_history(two_state_tree, n)) for n in two_state_tree.stage_nodes(t)]
        assert len(set(hists)) == len(hists)


def test_numerically_zero_paths_pruned():
    a, b = McState((0,)), McState((1,))
    mc = MarkovChain((a, b), {(a, a): 1 - 1e-16, (a, b): 1e-16}, a)
    tree = build_tree(mc, 3)
    assert len(tree.stage_nodes(3)) == 1  # the 1e-16 branch disappears


def test_unknown_node(two_state_tree):
    with pytest.raises(UnknownNode):
        path(two_state_tree, 999)


def test_node_cap_overflow(two_state_chain, monkeypatch):
    from mcsip import tree

    monkeypatch.setattr(tree, "NODE_CAP", 10)
    with pytest.raises(Overflow):
        build_tree(two_state_chain, 6)

