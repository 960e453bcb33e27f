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
from dataclasses import dataclass

import numpy as np

from .aggregate import AggregationMap
from .errors import ConfigError
from .markov import MarkovChain, McState, product_chain
from .model import Csr, Msilp, NodeData, smat
from .tree import build_tree

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


def _node_data(inst: HdrInstance, state: McState, is_root: bool,
               keep_capacity_state: bool) -> NodeData:
    n_i, n_j, n_l = inst.n_shelters, inst.n_dcs, inst.n_modalities
    k = 2 * n_j if keep_capacity_state else n_j
    r = n_j + n_i * n_j + n_i  # v, y(i,j), w

    def ycol(i, j):
        return n_j + i * n_j + j

    wcol0 = n_j + n_i * n_j

    # z-rows: at most one modality, plus persistence off the root
    zi, zj, zv = [0] * n_l, list(range(n_l)), [-1.0] * n_l
    g = [-1.0]
    sen_z = ["G"]
    gi, gj, gv = [], [], []
    if not is_root:
        for l in range(n_l):
            zi.append(1 + l)
            zj.append(l)
            zv.append(1.0)
            gi.append(1 + l)
            gj.append(l)
            gv.append(1.0)
            g.append(0.0)
            sen_z.append("G")
    nz = len(g)
    H = smat(Csr.from_triplets(zi, zj, zv, (nz, n_l)), (nz, n_l))
    G = None if is_root else smat(Csr.from_triplets(gi, gj, gv, (nz, n_l)), (nz, n_l))

    rows_c, rows_e, rows_a, rows_b, rows_w = [], [], [], [], []
    b_vec, sen_l = [], []

    def put(triplets, row, col, val):
        triplets.append((row, col, val))

    row = 0
    # demand rows (the stochastic rhs; first so basis_rows is a simple range)
    for i in range(n_i):
        for j in range(n_j):
            put(rows_e, row, ycol(i, j), 1.0)
        put(rows_e, row, wcol0 + i, 1.0)
        b_vec.append(demand(inst, i, state))
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

    nl = row

    def mk(trips, ncols):
        if not trips:
            return None
        ri, ci, vv = zip(*trips)
        return smat(Csr.from_triplets(ri, ci, vv, (nl, ncols)), (nl, ncols))

    h = np.zeros(r)
    for j in range(n_j):
        h[j] = production_cost(inst, j, state)
    for i in range(n_i):
        for j in range(n_j):
            h[ycol(i, j)] = transport_cost(inst, i, j, state)
        h[wcol0 + i] = inst.shortage_cost[i]
    d = np.zeros(k)
    d[:n_j] = inst.hold_cost

    return NodeData(
        H=H, G=G, g=np.array(g), sen_z=np.array(sen_z, dtype="<U1"),
        C=mk(rows_c, k), D=None, E=mk(rows_e, r),
        A=None if is_root else mk(rows_a, k),
        B=None if is_root else mk(rows_b, n_l),
        W=None if is_root else mk(rows_w, n_l),
        b=np.array(b_vec), sen_l=np.array(sen_l, dtype="<U1"),
        c=np.array([mod.cost for mod in inst.modalities]),
        d=d, h=h,
        x_lo=np.zeros(k), x_up=np.full(k, np.inf),
        y_lo=np.zeros(r), y_up=np.full(r, np.inf),
        z_lo=np.zeros(n_l), z_up=np.ones(n_l),
    )


def _build(inst: HdrInstance, keep_capacity_state: bool, name: str) -> Msilp:
    tree = build_tree(inst.chain, inst.config.T)
    cache: dict[tuple, NodeData] = {}
    data: list[NodeData] = []
    for node in tree.nodes:
        key = (node.stage == 1, node.mc_state.attrs)
        if key not in cache:
            cache[key] = _node_data(inst, node.mc_state, node.stage == 1,
                                    keep_capacity_state)
        data.append(cache[key])
    k = 2 * inst.n_dcs if keep_capacity_state else inst.n_dcs
    r = inst.n_dcs + inst.n_shelters * inst.n_dcs + inst.n_shelters
    m = Msilp(tree=tree, data=data, k=k, l=inst.n_modalities, r=r, name=name)
    m.basis_rows = np.arange(inst.n_shelters)  # demand entries of the linking rhs
    return m


def build_hdr_msilp(inst: HdrInstance) -> Msilp:
    """Nested form with inventory and capacity as continuous states."""
    return _build(inst, keep_capacity_state=True, name="hdr")


def build_hdr_aggregated(inst: HdrInstance, agg: AggregationMap) -> Msilp:
    """Capacity-eliminated layout; production rows carry the ancestor block.

    The aggregation argument pins the tree the caller intends to solve on;
    the node data itself is the same for every transformation.
    """
    m = _build(inst, keep_capacity_state=False, name="hdr_aggregated")
    if len(agg.tree) != len(m.tree):
        raise ValueError("aggregation map was built on a different tree")
    return m


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
