"""Finite Markov chains over integer attribute vectors.

A state is an integer vector (for the hurricane application: grid x, grid y,
intensity level).  The chain stores explicit transition probabilities; rows
of non-terminal states must sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import InvalidChain, InvalidStage, UnknownState
from .tolerances import CHAIN_TOL, PROB_TOL


@dataclass(frozen=True, order=True)
class McState:
    """A chain state: an immutable integer attribute vector."""

    attrs: tuple[int, ...]

    def __len__(self):
        return len(self.attrs)

    def __getitem__(self, i):
        return self.attrs[i]

    def __repr__(self):
        return f"McState{self.attrs}"


@dataclass(frozen=True)
class MarkovChain:
    """State space, transition probabilities and the initial state.

    Immutable after construction; safe to share across workers.
    """

    states: tuple[McState, ...]
    transition: dict[tuple[McState, McState], float]
    initial: McState
    _succ: dict[McState, list[tuple[McState, float]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise InvalidChain("duplicate states")
        if self.initial not in state_set:
            raise InvalidChain("initial state not in state set")
        dims = {len(s) for s in self.states}
        if len(dims) != 1:
            raise InvalidChain("states have inconsistent attribute counts")
        succ: dict[McState, list[tuple[McState, float]]] = {s: [] for s in self.states}
        for (a, b), p in self.transition.items():
            if a not in state_set or b not in state_set:
                raise InvalidChain(f"transition references unknown state: {a} -> {b}")
            if p < -PROB_TOL:
                raise InvalidChain(f"negative probability on {a} -> {b}")
            if p > 0.0:
                succ[a].append((b, p))
        for s, outs in succ.items():
            if outs:
                total = sum(p for _, p in outs)
                if abs(total - 1.0) > PROB_TOL:
                    raise InvalidChain(f"outgoing probabilities of {s} sum to {total}")
                outs.sort(key=lambda e: e[0])
        object.__setattr__(self, "_succ", succ)

    def successors(self, s: McState) -> list[tuple[McState, float]]:
        if s not in self._succ:
            raise UnknownState(repr(s))
        return self._succ[s]


def transition_prob(mc: MarkovChain, a: McState, b: McState) -> float:
    """Stored probability of a -> b, 0 when the pair is absent."""
    if a not in mc._succ:
        raise UnknownState(repr(a))
    if b not in mc._succ:
        raise UnknownState(repr(b))
    return mc.transition.get((a, b), 0.0)


def reachable_states(mc: MarkovChain, t: int) -> set[McState]:
    """States reachable from the initial state in t-1 positive-probability steps."""
    if t < 1:
        raise InvalidStage(f"stage must be >= 1, got {t}")
    frontier = {mc.initial}
    for _ in range(t - 1):
        frontier = {b for s in frontier for b, _ in mc.successors(s)}
    return frontier


def product_chain(
    factors: Iterable[tuple[list[tuple[int, ...]], dict[tuple[tuple[int, ...], tuple[int, ...]], float]]],
    initial_attrs: tuple[int, ...],
) -> MarkovChain:
    """Materialize the product of independent attribute-group chains.

    Each factor supplies its own attribute tuples and transition map; the
    product state concatenates the attribute tuples and multiplies the
    factor probabilities.  Downstream code only ever sees one chain.
    """
    factors = list(factors)
    states_per = [f[0] for f in factors]
    trans_per = [f[1] for f in factors]

    def _combine(parts: list[tuple[int, ...]]) -> McState:
        out: list[int] = []
        for p in parts:
            out.extend(p)
        return McState(tuple(out))

    import itertools

    all_states = [_combine(list(parts)) for parts in itertools.product(*states_per)]
    transition: dict[tuple[McState, McState], float] = {}
    for parts_a in itertools.product(*states_per):
        for parts_b in itertools.product(*states_per):
            p = 1.0
            for ta, tb, tr in zip(parts_a, parts_b, trans_per):
                p *= tr.get((ta, tb), 0.0)
                if p == 0.0:
                    break
            if p > 0.0:
                transition[(_combine(list(parts_a)), _combine(list(parts_b)))] = p
    # keep only rows that are stochastic; product rows vanish where a factor row
    # is terminal (no outgoing mass), which models absorbing final stages
    by_src: dict[McState, float] = {}
    for (a, _), p in transition.items():
        by_src[a] = by_src.get(a, 0.0) + p
    transition = {
        (a, b): p for (a, b), p in transition.items() if abs(by_src[a] - 1.0) <= CHAIN_TOL
    }
    return MarkovChain(tuple(all_states), transition, McState(initial_attrs))
