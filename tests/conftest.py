import numpy as np
import pytest
import scipy.sparse as sp

from mcsip import lp_engine
from mcsip.lp_engine import CUTOFF, Deadline
from mcsip.markov import MarkovChain, McState
from mcsip.model import Msilp, NodeData, smat
from mcsip.tree import build_tree


class CueDeadline(Deadline):
    """A deadline that passes on cue, when expired is set, never by the clock."""

    def __init__(self, expired: bool = False):
        super().__init__()
        self.expired = expired

    def passed(self) -> bool:
        return self.expired


def node_lp_path(monkeypatch, m, cutoff: bool):
    """(lo, up) of each node LP branch_and_cut solves on m, in order, how
    many of them ended on the incumbent's cut-off, and the result; with
    cutoff False every node LP is solved to its end, as before cut-offs."""
    solve, seen, cutoffs = lp_engine.solve_lp, [], []

    def recording(p, **kw):
        if kw.get("int_cols") is not None:
            seen.append((p.lo.tobytes(), p.up.tobytes()))
        if not cutoff:
            kw.pop("cutoff", None)
        sol = solve(p, **kw)
        cutoffs.append(sol.status == CUTOFF)
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(lp_engine, "solve_lp", recording)
        sol = lp_engine.branch_and_cut(m)
    return seen, sum(cutoffs), sol


def scipy_csr(a):
    """scipy's csr_matrix over the arrays of an mcsip Csr, for the calls
    (indexing, vstack, copy) that only scipy's matrices answer."""
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


# small relief instances whose stage-only and full-history optima differ
ACCEPT_SEEDS = [5, 11, 19, 20, 24, 29, 34, 35, 37, 38]

LIGHT = McState((0,))
DARK = McState((1,))


@pytest.fixture(scope="session")
def two_state_chain():
    return MarkovChain(
        (LIGHT, DARK),
        {(LIGHT, LIGHT): 0.6, (LIGHT, DARK): 0.4,
         (DARK, LIGHT): 0.3, (DARK, DARK): 0.7},
        LIGHT,
    )


@pytest.fixture(scope="session")
def two_state_tree(two_state_chain):
    return build_tree(two_state_chain, 4)


def random_chain(rng, n_states=2, s=1, zero_frac=0.0):
    states = tuple(McState(tuple(int(v) for v in rng.integers(0, 5, size=s)) + (i,))
                   for i in range(n_states)) if s > 1 else \
        tuple(McState((i,)) for i in range(n_states))
    trans = {}
    for a in states:
        w = rng.uniform(0.1, 1.0, size=n_states)
        if zero_frac and n_states > 1:
            kill = rng.random(n_states) < zero_frac
            kill[rng.integers(0, n_states)] = False  # keep at least one edge
            w[kill] = 0.0
        w /= w.sum()
        for b, p in zip(states, w):
            if p > 0:
                trans[(a, b)] = float(p)
    return MarkovChain(states, trans, states[0])


def make_random_msilp(seed=0, T=3, n_states=2, k=2, l=2, r=3,
                      complete_recourse=True, with_state_rows=True,
                      zero_frac=0.0):
    """Random instance with nonnegative costs, box-bounded states, binary
    integers and (optionally) a high-cost slack local guaranteeing recourse.
    With state rows, each node's linking rows start with k rows on x
    alone, x >= 0.3 x_parent - 1 (x >= -1 at the root).  The last linking
    row is an integer row, -sum(z) >= -l."""
    rng = np.random.default_rng(seed)
    chain = random_chain(rng, n_states, zero_frac=zero_frac)
    tree = build_tree(chain, T)
    n_slack = 2 if complete_recourse else 0
    r_tot = r + n_slack
    cache = {}
    data = []
    for node in tree.nodes:
        key = (node.stage, node.mc_state.attrs)
        if key not in cache:
            is_root = node.stage == 1
            nl = 2
            C = rng.uniform(-1, 1, size=(nl, k)) * (rng.random((nl, k)) < 0.7)
            D = rng.uniform(-1, 1, size=(nl, l)) * (rng.random((nl, l)) < 0.7)
            E_core = rng.uniform(0.2, 1.2, size=(nl, r)) * (rng.random((nl, r)) < 0.8)
            if complete_recourse:
                E = np.hstack([E_core, np.eye(nl)])
            else:
                E = E_core
            A = None if is_root else rng.uniform(-1, 1, size=(nl, k)) * 0.6
            B = None if is_root else rng.uniform(-1, 1, size=(nl, l)) * 0.6
            b = rng.uniform(-0.5, 1.5, size=nl)
            if with_state_rows:  # x >= 0.3 x_parent - 1 as the first k linking rows
                C = np.vstack([np.eye(k), C])
                D = np.vstack([np.zeros((k, l)), D])
                E = np.vstack([np.zeros((k, r_tot)), E])
                if not is_root:
                    A = np.vstack([0.3 * np.eye(k), A])
                    B = np.vstack([np.zeros((k, l)), B])
                b = np.concatenate([np.full(k, -1.0), b])
                nl += k
            # the integer row -sum(z) >= -l as the last linking row
            C = np.vstack([C, np.zeros((1, k))])
            D = np.vstack([D, -np.ones((1, l))])
            E = np.vstack([E, np.zeros((1, r_tot))])
            if not is_root:
                A = np.vstack([A, np.zeros((1, k))])
                B = np.vstack([B, np.zeros((1, l))])
            b = np.concatenate([b, [-float(l)]])
            nl += 1
            cache[key] = NodeData(
                C=smat(sp.csr_matrix(C), (nl, k)),
                D=smat(sp.csr_matrix(D), (nl, l)),
                E=smat(sp.csr_matrix(E), (nl, r_tot)),
                A=None if A is None else smat(sp.csr_matrix(A), (nl, k)),
                B=None if B is None else smat(sp.csr_matrix(B), (nl, l)),
                b=b, sen_l=np.array(["G"] * nl, dtype="<U1"),
                c=rng.uniform(0.0, 2.0, size=l),
                d=rng.uniform(0.0, 1.0, size=k),
                h=np.concatenate([rng.uniform(0.2, 1.0, size=r),
                                  np.full(n_slack, 25.0)]),
                x_lo=np.zeros(k), x_up=np.full(k, 10.0),
                y_lo=np.zeros(r_tot), y_up=np.full(r_tot, np.inf),
                z_lo=np.zeros(l), z_up=np.ones(l),
            )
        data.append(cache[key])
    return Msilp(tree=tree, data=data, k=k, l=l, r=r_tot, name=f"rand{seed}")


@pytest.fixture(scope="session")
def hdr_toy():
    from mcsip.hdr import HdrConfig, generate_instance

    return generate_instance(HdrConfig(cols=2, rows=4, capacity_pct=0.2, seed=5))


@pytest.fixture(scope="session")
def hdr_toy_msilp(hdr_toy):
    from mcsip.hdr import build_hdr_msilp

    return build_hdr_msilp(hdr_toy)
