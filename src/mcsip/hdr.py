"""Hurricane disaster-relief application: instance generation and models.

Geometry: the planning grid has `cols` columns and `rows` rows.  The top
row is land, split into cells of 50x100; the remaining rows are sea cells
of 20x100.  The hurricane starts on the bottom row and climbs one row per
stage, so a grid with R rows yields T = R - 1 decision stages, all taken
while the hurricane is still at sea.  Its x-movement is a random walk with
per-cell weights (stay 30..40, left/right 20..40, border moves blocked);
the intensity follows the fixed six-level matrix below.  Both attribute
chains are independent and get materialized into one product chain.

Shelter demand at state m with intensity i and hurricane-to-shelter
distance delta:

    0                                        if delta >= 150 or i == 0
    d_max_shelter * (1 - delta/150) * (i/5)^2  otherwise

Costs not pinned by the instance family are drawn once per instance with
documented defaults: shortage penalties dominate any produce-and-ship
chain so unmet demand is a last resort, transport is proportional to
DC-shelter distance, and production/transport rates scale with intensity.

Two model builders are provided.  build_hdr_msilp keeps both inventory
and production capacity as continuous states (the form the nested
decomposition consumes).  build_hdr_aggregated eliminates the capacity
state: production rows then bound output by the initial capacity plus the
increments of every modality activated strictly before the current stage
(one-leg delay), expressed through the ancestor-coupling block W.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .aggregate import AggregationMap
from .errors import ConfigError
from .markov import MarkovChain, McState, product_chain
from .model import Csr, Msilp, NodeData, smat
from .tree import ScenarioTree, build_tree

SCHEMA_VERSION = 1
DELTA_MAX = 150.0
SEA_CELL_H = 20.0
LAND_CELL_H = 50.0
CELL_W = 100.0

# Six-level intensity transition matrix (level 0 = dissipated, absorbing).
INTENSITY_MATRIX = np.array([
    [1.00, 0.00, 0.00, 0.00, 0.00, 0.00],
    [0.11, 0.83, 0.06, 0.00, 0.00, 0.00],
    [0.00, 0.15, 0.60, 0.25, 0.00, 0.00],
    [0.00, 0.00, 0.04, 0.68, 0.28, 0.00],
    [0.00, 0.00, 0.00, 0.18, 0.79, 0.03],
    [0.00, 0.00, 0.00, 0.00, 0.50, 0.50],
])

TYPE1_INCREMENTS = (0.10, 0.20, 0.30, 0.40)
TYPE2_INCREMENTS = (0.15, 0.30, 0.45, 0.60)


@dataclass(frozen=True)
class HdrConfig:
    cols: int = 4
    rows: int = 5
    capacity_pct: float = 0.25
    modality_type: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.cols < 1:
            raise ConfigError(f"grid needs at least one column, got {self.cols}")
        if self.rows < 2:
            raise ConfigError(f"grid needs at least two rows, got {self.rows}")
        if not 0.0 < self.capacity_pct <= 1.0:
            raise ConfigError(f"capacity_pct must be in (0, 1], got {self.capacity_pct}")
        if self.modality_type not in (1, 2):
            raise ConfigError(f"modality_type must be 1 or 2, got {self.modality_type}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @property
    def T(self) -> int:
        return self.rows - 1


@dataclass
class Shelter:
    cell: int
    x: float
    y: float
    d_max: float


@dataclass
class Dc:
    cell: int
    x: float
    y: float
    capacity: float
    inventory: float = 0.0


@dataclass
class Modality:
    cells: tuple[int, ...]
    increment_pct: float
    cost: float


@dataclass
class HdrInstance:
    config: HdrConfig
    d_max: float
    shelters: list[Shelter]
    dcs: list[Dc]
    modalities: list[Modality]
    K: np.ndarray              # (n_dcs, n_modalities) per-stage capacity increments
    chain: MarkovChain
    hold_cost: np.ndarray      # g_j
    prod_base: np.ndarray      # q_j before intensity scaling
    shortage_cost: np.ndarray  # b_i
    transport_rate: float

    @property
    def n_shelters(self) -> int:
        return len(self.shelters)

    @property
    def n_dcs(self) -> int:
        return len(self.dcs)

    @property
    def n_modalities(self) -> int:
        return len(self.modalities)


def _hurricane_xy(state: McState) -> tuple[float, float]:
    return CELL_W * state[0] + CELL_W / 2.0, SEA_CELL_H * state[1] + SEA_CELL_H / 2.0


def demand(inst: HdrInstance, shelter: int, state: McState) -> float:
    """Commodity units demanded at one shelter under one hurricane state."""
    intensity = state[2]
    if intensity == 0:
        return 0.0
    hx, hy = _hurricane_xy(state)
    s = inst.shelters[shelter]
    delta = float(np.hypot(hx - s.x, hy - s.y))
    if delta >= DELTA_MAX:
        return 0.0
    return s.d_max * (1.0 - delta / DELTA_MAX) * (intensity / 5.0) ** 2


def production_cost(inst: HdrInstance, dc: int, state: McState) -> float:
    return float(inst.prod_base[dc]) * (1.0 + 0.3 * state[2] / 5.0)


def transport_cost(inst: HdrInstance, shelter: int, dc: int, state: McState) -> float:
    s, d = inst.shelters[shelter], inst.dcs[dc]
    dist = float(np.hypot(s.x - d.x, s.y - d.y))
    return inst.transport_rate * dist * (1.0 + 0.3 * state[2] / 5.0)


def _movement_probs(weights: tuple[int, int, int], x: int, cols: int) -> dict[int, float]:
    """Normalize (left, stay, right) weights, blocking moves off the grid."""
    left, stay, right = weights
    opts = {x: stay}
    if x > 0:
        opts[x - 1] = left
    if x < cols - 1:
        opts[x + 1] = right
    total = sum(opts.values())
    return {nx: w / total for nx, w in opts.items()}


def generate_instance(cfg: HdrConfig) -> HdrInstance:
    """Draw one instance; deterministic for a fixed (seed, schema version)."""
    rng = np.random.default_rng(cfg.seed)
    land_y0 = SEA_CELL_H * (cfg.rows - 1)

    d_max = float(rng.uniform(1000.0, 1500.0))
    shelters: list[Shelter] = []
    dcs: list[Dc] = []
    for cell in range(cfg.cols):
        n_sh = int(rng.integers(3, 8))
        n_dc = int(rng.integers(2, 5))
        xs = rng.uniform(CELL_W * cell, CELL_W * (cell + 1), size=n_sh)
        ys = rng.uniform(land_y0, land_y0 + LAND_CELL_H, size=n_sh)
        dxs = rng.uniform(CELL_W * cell, CELL_W * (cell + 1), size=n_dc)
        dys = rng.uniform(land_y0, land_y0 + LAND_CELL_H, size=n_dc)
        sh_frac = _uniform_split(rng, n_sh)
        dc_frac = _uniform_split(rng, n_dc)
        c_ini = d_max * cfg.capacity_pct
        for i in range(n_sh):
            shelters.append(Shelter(cell, float(xs[i]), float(ys[i]),
                                    d_max * float(sh_frac[i])))
        for j in range(n_dc):
            dcs.append(Dc(cell, float(dxs[j]), float(dys[j]),
                          c_ini * float(dc_frac[j])))

    init_x = int(rng.integers(0, cfg.cols))
    init_i = int(rng.integers(2, 6))

    move_trans: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
    move_states = [(x, y) for y in range(cfg.T) for x in range(cfg.cols)]
    for y in range(cfg.T - 1):
        for x in range(cfg.cols):
            stay = int(rng.integers(30, 41))
            left = int(rng.integers(20, 41))
            right = int(rng.integers(20, 41))
            for nx, p in _movement_probs((left, stay, right), x, cfg.cols).items():
                move_trans[((x, y), (nx, y + 1))] = p

    int_states = [(i,) for i in range(6)]
    int_trans = {((i,), (j,)): float(INTENSITY_MATRIX[i, j])
                 for i in range(6) for j in range(6) if INTENSITY_MATRIX[i, j] > 0}
    chain = product_chain(
        [(move_states, move_trans), (int_states, int_trans)],
        initial_attrs=(init_x, 0, init_i),
    )

    modalities: list[Modality] = []
    increments = TYPE1_INCREMENTS if cfg.modality_type == 1 else TYPE2_INCREMENTS
    cell_opts = [(c, c + 1) for c in range(cfg.cols - 1)]
    cell_opts.append(tuple(range(cfg.cols)))
    n_dcs = len(dcs)
    K = np.zeros((n_dcs, len(cell_opts) * len(increments)))
    c_rate = float(rng.uniform(0.5, 1.0))
    col = 0
    for cells in cell_opts:
        for pct in increments:
            for j, dc in enumerate(dcs):
                if dc.cell in cells:
                    K[j, col] = pct * dc.capacity
            modalities.append(Modality(cells, pct, c_rate * float(K[:, col].sum())))
            col += 1

    hold = rng.uniform(0.5, 1.5, size=n_dcs)
    prod = rng.uniform(2.0, 4.0, size=n_dcs)
    short = rng.uniform(60.0, 80.0, size=len(shelters))
    t_rate = float(rng.uniform(0.01, 0.02))

    return HdrInstance(cfg, d_max, shelters, dcs, modalities, K, chain,
                       hold, prod, short, t_rate)


def _uniform_split(rng: np.random.Generator, n: int) -> np.ndarray:
    """Fractions summing to one via uniform spacings."""
    if n == 1:
        return np.ones(1)
    cuts = np.sort(rng.uniform(0.0, 1.0, size=n - 1))
    return np.diff(np.concatenate([[0.0], cuts, [1.0]]))


def _node_kind(inst: HdrInstance, is_root: bool, keep_capacity_state: bool) -> NodeData:
    """The data every node of one root flag shares in a layout: matrices,
    senses, bounds and the state-free entries of every vector.  The
    demand rows of b and the production and transport costs in h are
    left at zero; _StateEntries fills them in per Markov state."""
    n_i, n_j, n_l = inst.n_shelters, inst.n_dcs, inst.n_modalities
    k = 2 * n_j if keep_capacity_state else n_j
    r = n_j + n_i * n_j + n_i  # v, y(i,j), w

    def ycol(i, j):
        return n_j + i * n_j + j

    wcol0 = n_j + n_i * n_j

    rows_c, rows_d, rows_e, rows_a, rows_b, rows_w = [], [], [], [], [], []
    b_vec, sen_l = [], []

    def put(triplets, row, col, val):
        triplets.append((row, col, val))

    row = 0
    # demand rows (the stochastic rhs; first so basis_rows is a simple range)
    for i in range(n_i):
        for j in range(n_j):
            put(rows_e, row, ycol(i, j), 1.0)
        put(rows_e, row, wcol0 + i, 1.0)
        b_vec.append(0.0)
        sen_l.append("G")
        row += 1
    # inventory balance
    for j in range(n_j):
        put(rows_c, row, j, 1.0)
        put(rows_e, row, j, -1.0)
        for i in range(n_i):
            put(rows_e, row, ycol(i, j), 1.0)
        if is_root:
            b_vec.append(inst.dcs[j].inventory)
        else:
            put(rows_a, row, j, 1.0)
            b_vec.append(0.0)
        sen_l.append("E")
        row += 1
    # production capacity
    for j in range(n_j):
        put(rows_e, row, j, -1.0)
        if keep_capacity_state:
            put(rows_c, row, n_j + j, 1.0)
            b_vec.append(0.0)
        else:
            if not is_root:
                for l in range(n_l):
                    if inst.K[j, l]:
                        put(rows_w, row, l, -inst.K[j, l])
            b_vec.append(-inst.dcs[j].capacity)
        sen_l.append("G")
        row += 1
    # capacity recursion, only when the capacity state is kept
    if keep_capacity_state:
        for j in range(n_j):
            put(rows_c, row, n_j + j, 1.0)
            if is_root:
                b_vec.append(inst.dcs[j].capacity)
            else:
                put(rows_a, row, n_j + j, 1.0)
                for l in range(n_l):
                    if inst.K[j, l]:
                        put(rows_b, row, l, inst.K[j, l])
                b_vec.append(0.0)
            sen_l.append("E")
            row += 1
    # integer rows, last so that the rows above keep their indices: at
    # most one modality, and off the root an active modality stays active
    n_int = 1 if is_root else 1 + n_l
    for l in range(n_l):
        put(rows_d, row, l, -1.0)
        if not is_root:
            put(rows_d, row + 1 + l, l, 1.0)
            put(rows_b, row + 1 + l, l, 1.0)
    b_vec += [-1.0] + [0.0] * (n_int - 1)
    sen_l += ["G"] * n_int
    row += n_int

    nl = row

    def mk(trips, ncols):
        if not trips:
            return None
        ri, ci, vv = zip(*trips)
        return smat(Csr.from_triplets(ri, ci, vv, (nl, ncols)), (nl, ncols))

    h = np.zeros(r)
    h[wcol0:] = inst.shortage_cost
    d = np.zeros(k)
    d[:n_j] = inst.hold_cost

    return NodeData(
        C=mk(rows_c, k), D=mk(rows_d, n_l), E=mk(rows_e, r),  # A, B and W are empty at the root
        A=mk(rows_a, k), B=mk(rows_b, n_l), W=mk(rows_w, n_l),
        b=np.array(b_vec), sen_l=np.array(sen_l, dtype="<U1"),
        c=np.array([mod.cost for mod in inst.modalities]),
        d=d, h=h,
        x_lo=np.zeros(k), x_up=np.full(k, np.inf),
        y_lo=np.zeros(r), y_up=np.full(r, np.inf),
        z_lo=np.zeros(n_l), z_up=np.ones(n_l),
    )


class _StateEntries:
    """The state-dependent entries of a node's data, all shelters and DCs
    at once: the demand rows of b and the production and transport costs
    in h, each computed in the operation order of demand, production_cost
    and transport_cost, so every value equals theirs bit for bit."""

    def __init__(self, inst: HdrInstance):
        self.inst = inst
        self.sh_x, self.sh_y, self.sh_d = (np.array([getattr(s, a) for s in inst.shelters])
                                           for a in ("x", "y", "d_max"))
        dc_x, dc_y = (np.array([getattr(d, a) for d in inst.dcs]) for a in ("x", "y"))
        # transport_cost's rate * dist, shelter by DC
        self.rate_dist = inst.transport_rate * np.hypot(self.sh_x[:, None] - dc_x,
                                                        self.sh_y[:, None] - dc_y)

    def demands(self, state: McState) -> np.ndarray:
        """demand of every shelter at state."""
        intensity = state[2]
        if intensity == 0:
            return np.zeros(self.sh_d.size)
        hx, hy = _hurricane_xy(state)
        delta = np.hypot(hx - self.sh_x, hy - self.sh_y)
        return np.where(delta < DELTA_MAX,
                        self.sh_d * (1.0 - delta / DELTA_MAX) * (intensity / 5.0) ** 2, 0.0)

    def node(self, kind: NodeData, state: McState) -> NodeData:
        """kind's data at state: its own b and h, every other field shared."""
        n_i, n_j = self.sh_d.size, self.rate_dist.shape[1]
        scale = 1.0 + 0.3 * state[2] / 5.0
        b, h = kind.b.copy(), kind.h.copy()
        b[:n_i] = self.demands(state)
        h[:n_j] = self.inst.prod_base * scale
        h[n_j:n_j + n_i * n_j] = (self.rate_dist * scale).ravel()
        return _read_only(replace(kind, b=b, h=h))


def _read_only(nd: NodeData) -> NodeData:
    """nd with every array of it made read-only: nodes share them, so an
    edit in place would reach every node of the same kind or state."""
    for f in fields(nd):
        v = getattr(nd, f.name)
        arrays = (v.indptr, v.indices, v.data) if isinstance(v, Csr) else \
            (v,) if isinstance(v, np.ndarray) else ()
        for a in arrays:
            a.flags.writeable = False
    return nd


def _build(inst: HdrInstance, tree: ScenarioTree, keep_capacity_state: bool, name: str) -> Msilp:
    """Every node's data on tree: one shared NodeData per root flag
    (_node_kind), and per (root flag, Markov state) a copy of it with that
    state's b and h, which every node of the pair shares."""
    entries = _StateEntries(inst)
    kinds: dict[bool, NodeData] = {}
    cache: dict[tuple, NodeData] = {}
    data: list[NodeData] = []
    for node in tree.nodes:
        is_root = node.stage == 1
        key = (is_root, node.mc_state.attrs)
        if key not in cache:
            if is_root not in kinds:
                kinds[is_root] = _read_only(_node_kind(inst, is_root, keep_capacity_state))
            cache[key] = entries.node(kinds[is_root], node.mc_state)
        data.append(cache[key])
    k = 2 * inst.n_dcs if keep_capacity_state else inst.n_dcs
    r = inst.n_dcs + inst.n_shelters * inst.n_dcs + inst.n_shelters
    m = Msilp(tree=tree, data=data, k=k, l=inst.n_modalities, r=r, name=name)
    m.basis_rows = np.arange(inst.n_shelters)  # demand entries of the linking rhs
    return m


def build_hdr_msilp(inst: HdrInstance) -> Msilp:
    """Nested form with inventory and capacity as continuous states."""
    return _build(inst, build_tree(inst.chain, inst.config.T), True, "hdr")


def build_hdr_aggregated(inst: HdrInstance, agg: AggregationMap) -> Msilp:
    """Capacity-eliminated layout; production rows carry the ancestor block.

    The model is built on agg.tree, which must be the instance's tree; the
    node data itself is the same for every transformation.
    """
    return _build(inst, agg.tree, False, "hdr_aggregated")


def save_instance(inst: HdrInstance, fp) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "cols": inst.config.cols, "rows": inst.config.rows,
            "capacity_pct": inst.config.capacity_pct,
            "modality_type": inst.config.modality_type, "seed": inst.config.seed,
        },
        "d_max": inst.d_max,
        "shelters": [[s.cell, s.x, s.y, s.d_max] for s in inst.shelters],
        "dcs": [[d.cell, d.x, d.y, d.capacity, d.inventory] for d in inst.dcs],
        "modalities": [[list(mo.cells), mo.increment_pct, mo.cost]
                       for mo in inst.modalities],
        "K": inst.K.tolist(),
        "mc": {
            "states": [list(s.attrs) for s in inst.chain.states],
            "initial": inst.chain.states.index(inst.chain.initial),
            "transitions": sorted(
                [inst.chain.states.index(a), inst.chain.states.index(b), p]
                for (a, b), p in inst.chain.transition.items()
            ),
        },
        "costs": {
            "hold": inst.hold_cost.tolist(),
            "prod_base": inst.prod_base.tolist(),
            "shortage": inst.shortage_cost.tolist(),
            "transport_rate": inst.transport_rate,
        },
    }
    json.dump(doc, fp, sort_keys=True, separators=(",", ":"))


def load_instance(fp) -> HdrInstance:
    doc = json.load(fp)
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc['schema_version']}")
    cfg = HdrConfig(**doc["config"])
    states = tuple(McState(tuple(s)) for s in doc["mc"]["states"])
    chain = MarkovChain(
        states,
        {(states[a], states[b]): p for a, b, p in doc["mc"]["transitions"]},
        states[doc["mc"]["initial"]],
    )
    return HdrInstance(
        config=cfg, d_max=doc["d_max"],
        shelters=[Shelter(*row) for row in doc["shelters"]],
        dcs=[Dc(*row) for row in doc["dcs"]],
        modalities=[Modality(tuple(cells), pct, cost)
                    for cells, pct, cost in doc["modalities"]],
        K=np.array(doc["K"]), chain=chain,
        hold_cost=np.array(doc["costs"]["hold"]),
        prod_base=np.array(doc["costs"]["prod_base"]),
        shortage_cost=np.array(doc["costs"]["shortage"]),
        transport_rate=doc["costs"]["transport_rate"],
    )
