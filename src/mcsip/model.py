"""Generic multi-stage node data, the shared row assembler, validation.

Per-node constraint blocks, all rows normalized to sense '>= ' or '==':

    z-rows:    H z_n           {>=,==}  G z_parent + g
    linking:   C x_n + D z_n + E y_n
                               {>=,==}  A x_parent + B z_parent
                                        + W sum(z_ancestors incl. parent) + b

A row on x alone, x_n >= F x_parent + f say, is a linking row with C = I,
A = F, b = f and D, E, B, W zero: one row family couples a node to its parent.

W is an optional ancestor-coupling block used by formulations that fold a
telescoped state recursion into the integer variables; it is only legal
when the integer variables are first-stage (extensive or two-stage use).

Every matrix here is a Csr: numpy arrays in compressed sparse row form
(int32 indptr and indices, float data) with the two products the solvers
need, A x and A' y, each one np.bincount that adds a row's (or a
column's) terms in storage order, and one append, with_rows, which the
LP kernel's cut rows and rhs maps grow by.  The LP kernel also reads a
caller's scipy CSR matrix through the same attribute names (as_csr).

Every solver model turns these blocks into constraint rows by one rule: a
row block is sum(sign * M @ P) over its terms, where M is one of a node's
blocks and P maps that variable block onto model columns.  For most
blocks P is a plain column offset; for the decision-rule substitution
x_n = Lambda' basis(n) it is a sparse basis-expansion Csr.  Stacked rows
come out in one of two forms:

    assemble    models handed to branch and bound (the extensive forms,
                the S master, the LDR master): coefficients with
                |v| <= DROP_TOL are dropped, the rest rounded to 12
                decimals, and whole duplicate rows removed (first kept)
    split_rows  state LPs, A u {senses} const + R w (the S subproblems,
                the LDR node LPs): a node's rows written over the columns
                [w | u], w the incoming state and u the LP's own columns,
                split at w's width.  One row per listed row, in order,
                coefficients summed but otherwise untouched; each term on
                w moves to the right-hand side, negated, into R

The extensive-form builders share one variable layout object so that
solutions can be decoded and cross-checked between the plain and the
aggregated forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregate import AggregationMap
from .errors import DimensionMismatch, Overflow
from .tolerances import DROP_TOL, THETA_LB
from .tree import ScenarioTree, path

VAR_CAP = 5_000_000

GE, EQ, LE = "G", "E", "L"


class Csr:
    """A sparse matrix in compressed sparse row form: row i holds the values
    data[indptr[i]:indptr[i + 1]] in the columns indices[indptr[i]:indptr[i + 1]].
    indptr and indices are stored as int32, the index type HiGHS takes.

    Both products are one np.bincount from zero over the entries in
    storage order: A @ x sums each row left to right, A.rmatvec(y) = A' y
    sums each column in row order (the orders of scipy's csr_matvec and
    csc_matvec, so the sums equal scipy's bit for bit)."""

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr).astype(np.int32, copy=False)
        self.indices = np.asarray(indices).astype(np.int32, copy=False)
        self.data = np.asarray(data, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))
        self._entry_rows = None

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape) -> Csr:
        """vals[e] at (rows[e], cols[e]): duplicates summed in listed order,
        entries that are (or sum to) zero dropped, columns sorted in each row."""
        r, c, v = _coalesce(np.asarray(rows, dtype=np.int64),
                            np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=float))
        nz = v != 0.0
        return cls(_row_starts(r[nz], shape[0]), c[nz], v[nz], shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry, computed at the first call and kept."""
        if self._entry_rows is None:
            self._entry_rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return self._entry_rows

    def with_rows(self, dense) -> Csr:
        """A new matrix: this one with dense's k >= 1 rows of its width appended,
        zeros dropped; any other batch, a ragged one too, is a DimensionMismatch."""
        shapes = {np.shape(row) for row in dense}
        if shapes != {(self.shape[1],)}:
            raise DimensionMismatch(f"rows of shapes {sorted(shapes)} appended to "
                                    f"{self.shape[1]} columns")
        dense = np.asarray(dense, dtype=float)
        r, j = np.nonzero(dense)
        ends = self.indptr[-1] + np.cumsum(np.count_nonzero(dense, axis=1))
        return Csr(np.concatenate([self.indptr, ends]), np.concatenate([self.indices, j]),
                   np.concatenate([self.data, dense[r, j]]),
                   (self.shape[0] + len(dense), self.shape[1]))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self.entry_rows(), self.indices), self.data)
        return out

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.bincount(self.entry_rows(), self.data * x[self.indices],
                           minlength=self.shape[0])

    def rmatvec(self, y) -> np.ndarray:
        """A' y."""
        y = np.asarray(y, dtype=float)
        return np.bincount(self.indices, self.data * y[self.entry_rows()],
                           minlength=self.shape[1])


def as_csr(a) -> Csr:
    """a itself, or a Csr over the arrays of any other CSR matrix (one with
    indptr, indices, data and shape, as scipy's has)."""
    return a if isinstance(a, Csr) else Csr(a.indptr, a.indices, a.data, a.shape)


def smat(m, shape) -> Csr | None:
    """A matrix argument as a Csr without zeros, or None when it has no
    nonzero; m is a Csr, a dense array or a sparse matrix with toarray()."""
    if m is None:
        return None
    if isinstance(m, Csr):
        r, c, v = m.entry_rows(), m.indices, m.data
    else:
        m = np.atleast_2d(np.asarray(m.toarray() if hasattr(m, "toarray") else m, dtype=float))
        r, c = np.nonzero(m)
        v = m[r, c]
    if m.shape != shape:
        raise DimensionMismatch(f"expected {shape}, got {m.shape}")
    m = Csr.from_triplets(r, c, v, shape)
    return m if m.nnz else None


@dataclass
class NodeData:
    """Matrices, vectors and bounds of one scenario-tree node."""

    # z-rows
    H: Csr | None = None
    G: Csr | None = None
    g: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sen_z: np.ndarray = field(default_factory=lambda: np.empty(0, dtype="<U1"))
    # linking rows
    C: Csr | None = None
    D: Csr | None = None
    E: Csr | None = None
    A: Csr | None = None
    B: Csr | None = None
    W: Csr | None = None
    b: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sen_l: np.ndarray = field(default_factory=lambda: np.empty(0, dtype="<U1"))
    # costs
    c: np.ndarray = field(default_factory=lambda: np.zeros(0))  # on z
    d: np.ndarray = field(default_factory=lambda: np.zeros(0))  # on x
    h: np.ndarray = field(default_factory=lambda: np.zeros(0))  # on y
    # bounds
    x_lo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    x_up: np.ndarray = field(default_factory=lambda: np.zeros(0))
    y_lo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    y_up: np.ndarray = field(default_factory=lambda: np.zeros(0))
    z_lo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    z_up: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def signature(self) -> bytes:
        """Content hash used by the MC-measurability check."""
        import hashlib

        hsh = hashlib.sha256()
        for m in (self.H, self.G, self.C, self.D, self.E, self.A, self.B, self.W):
            if m is None:
                hsh.update(b"-")
            else:
                hsh.update(m.indptr.tobytes())
                hsh.update(m.indices.tobytes())
                hsh.update(np.round(m.data, 12).tobytes())
        for v in (self.g, self.b, self.c, self.d, self.h,
                  self.x_lo, self.x_up, self.y_lo, self.y_up, self.z_lo, self.z_up):
            hsh.update(np.round(np.asarray(v, dtype=float), 12).tobytes())
        for s in (self.sen_z, self.sen_l):
            hsh.update("".join(s).encode())
        return hsh.digest()


@dataclass
class Msilp:
    """A scenario tree plus per-node data with fixed dimensions (k, l, r)."""

    tree: ScenarioTree
    data: list[NodeData]
    k: int
    l: int
    r: int
    name: str = ""
    basis_rows: np.ndarray | None = None  # linking-row indices whose rhs is the LDR basis


@dataclass
class LpProblem:
    c: np.ndarray
    A: Csr  # or a caller's scipy CSR matrix
    senses: np.ndarray  # 'G' / 'E' / 'L' per row
    rhs: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    # (cols, rows, HighsBasis) of the last optimal solve (lp_engine)
    basis: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m(self) -> int:
        return self.rhs.size


@dataclass
class MipProblem(LpProblem):
    integer: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))


@dataclass
class Layout:
    """Column offsets of an extensive form: z blocks, then x and y per node."""

    z_off: dict = field(default_factory=dict)  # node id or group key -> column
    x_off: dict[int, int] = field(default_factory=dict)
    y_off: dict[int, int] = field(default_factory=dict)
    n_cols: int = 0


@dataclass
class RowBlock:
    """Rows sum(sign * M[rows] @ P for M, P, sign in terms) {senses} rhs.

    P is a column offset or a Csr (M columns x model columns); a
    term whose M or P is None is absent.  `rows` picks rows of the block
    (of every M, senses and rhs alike); None takes all of them.
    """

    terms: list
    senses: np.ndarray
    rhs: np.ndarray
    rows: np.ndarray | None = None


def node_rows(nd: NodeData, z, x, y, z_par, x_par, z_anc) -> list[RowBlock]:
    """The z- and linking-row blocks of one node, each variable block
    given by its P; a map is None where its block has no columns: the
    parent's at the root, or a block the caller's rows leave out.  A
    state LP maps its incoming state into w and splits the rows there
    (split_rows)."""
    return [
        RowBlock([(nd.H, z, 1.0), (nd.G, z_par, -1.0)], nd.sen_z, nd.g),
        RowBlock([(nd.C, x, 1.0), (nd.D, z, 1.0), (nd.E, y, 1.0), (nd.A, x_par, -1.0),
                  (nd.B, z_par, -1.0)] + [(nd.W, za, -1.0) for za in z_anc],
                 nd.sen_l, nd.b),
    ]


def _term_entries(mat: Csr, P, sign: float, rows):
    """(row, column, value) of sign * mat[rows] @ P, row by row in the order
    of mat's entries and, within one entry, of P's row."""
    r, k, v = mat.entry_rows(), mat.indices, sign * mat.data
    if rows is not None:
        pos = np.full(mat.shape[0], -1)
        pos[rows] = np.arange(len(rows))
        r = pos[r]
        sel = r >= 0
        r, k, v = r[sel], k[sel], v[sel]
    if not isinstance(P, Csr):
        return r, P + k, v
    cnt = np.diff(P.indptr)[k]
    e = np.repeat(np.arange(k.size), cnt)
    at = P.indptr[k][e] + np.arange(e.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return r[e], P.indices[at], v[e] * P.data[at]


def _coalesce(r, c, v):
    """Sort entries by (row, column) and sum duplicates left to right in
    the order they were listed."""
    order = np.lexsort((c, r))
    r, c, v = r[order], c[order], v[order]
    first = np.ones(r.size, dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    group = np.cumsum(first) - 1
    rank = np.arange(r.size) - np.flatnonzero(first)[group]
    out = v[first]
    for k in range(1, rank.max(initial=0) + 1):
        sel = rank == k
        out[group[sel]] += v[sel]
    return r[first], c[first], out


def _row_starts(r, m: int) -> np.ndarray:
    """indptr of m rows whose entries, sorted by row, lie in the rows r."""
    return np.concatenate([[0], np.cumsum(np.bincount(r, minlength=m))])


def _first_of_each_row(r, c, v, senses, rhs) -> np.ndarray:
    """Mask of the rows that do not repeat an earlier (sense, rhs, row)."""
    m = rhs.size
    length = np.bincount(r, minlength=m)
    start = np.cumsum(length) - length
    sense_id = np.unique(senses, return_inverse=True)[1]
    rhs_key = (np.round(rhs, 12) + 0.0).view(np.int64)  # +0.0 folds -0.0 into 0.0
    keep = np.ones(m, dtype=bool)
    for n in np.unique(length):
        ids = np.flatnonzero(length == n)
        if ids.size < 2:
            continue
        at = start[ids][:, None] + np.arange(n)
        key = np.column_stack([sense_id[ids], rhs_key[ids], c[at], v[at].view(np.int64)])
        first = np.unique(key, axis=0, return_index=True)[1]
        keep[ids] = False
        keep[ids[first]] = True
    return keep


def _stack(blocks: list[RowBlock]):
    """(row, column, value) of every block's terms, one row per listed row
    in block order and duplicates summed (_coalesce), with the rows'
    senses and rhs."""
    rs, cs, vs = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    senses, rhs = [np.empty(0, dtype="<U1")], [np.zeros(0)]
    base = 0
    for blk in blocks:
        sel = slice(None) if blk.rows is None else blk.rows
        for mat, P, sign in blk.terms:
            if mat is not None and P is not None:
                r, c, v = _term_entries(mat, P, sign, blk.rows)
                rs.append(r + base)
                cs.append(c)
                vs.append(v)
        senses.append(np.asarray(blk.senses)[sel])
        rhs.append(np.asarray(blk.rhs, dtype=float)[sel])
        base += senses[-1].size
    r, c, v = _coalesce(np.concatenate(rs), np.concatenate(cs), np.concatenate(vs))
    return r, c, v, np.concatenate(senses), np.concatenate(rhs)


def assemble(blocks: list[RowBlock], n_cols: int) -> tuple[Csr, np.ndarray, np.ndarray]:
    """Stack row blocks into the canonical (A, senses, rhs) of a model
    handed to branch and bound; see the module docstring for what it
    drops, rounds and dedupes."""
    r, c, v, senses, rhs = _stack(blocks)
    big = np.abs(v) > DROP_TOL
    r, c, v = r[big], c[big], np.round(v[big], 12)
    keep = _first_of_each_row(r, c, v, senses, rhs)
    big = keep[r]
    r, c, v = (np.cumsum(keep) - 1)[r[big]], c[big], v[big]
    senses, rhs = senses[keep], rhs[keep]
    return Csr(_row_starts(r, rhs.size), c, v, (rhs.size, n_cols)), senses, rhs


def split_rows(blocks: list[RowBlock], n_w: int, n: int
               ) -> tuple[Csr, np.ndarray, np.ndarray, Csr]:
    """The state LP A u {senses} const + R w of row blocks written over the
    columns [w | u], w the first n_w and u the next n: one row per listed
    row, in order, coefficients summed but otherwise untouched; A holds
    the u terms as they are, R the w terms negated."""
    r, c, v, senses, const = _stack(blocks)
    on_u, on_w = c >= n_w, c < n_w
    A = Csr(_row_starts(r[on_u], const.size), c[on_u] - n_w, v[on_u], (const.size, n))
    R = Csr(_row_starts(r[on_w], const.size), c[on_w], -v[on_w], (const.size, n_w))
    return A, senses, const, R


def first_stage_offsets(m: Msilp, agg: AggregationMap | None) -> tuple[dict, int, int]:
    """(z_off, x_off, y_off) of the blocks every model's columns start with:
    one l-wide integer block per aggregation group in group_index order (per
    node id without agg), then the root's x block at x_off and, in the
    two-stage models, its y block at y_off."""
    keys = agg.group_index if agg is not None else [node.id for node in m.tree.nodes]
    z_off = {key: i * m.l for i, key in enumerate(keys)}
    x_off = m.l * len(z_off)
    return z_off, x_off, x_off + m.k


def z_values(z_off: dict, l: int, x: np.ndarray) -> dict:
    """Every integer block's values in the solution vector x, keyed as z_off."""
    return {key: x[off:off + l].copy() for key, off in z_off.items()}


def first_stage_columns(m: Msilp, z_col, x_off: int, y_off: int, n: int):
    """(obj, lo, up, integer) over n columns with the first-stage blocks
    filled in: every node's probability-weighted z cost in its block (node
    id -> column by z_col; shared blocks keep the tightest member bounds)
    and the root's x and y blocks.  Other columns are free at zero cost."""
    l, k, r = m.l, m.k, m.r
    obj = np.zeros(n)
    lo = np.full(n, -np.inf)
    up = np.full(n, np.inf)
    integer = np.zeros(n, dtype=bool)
    for node in m.tree.nodes:
        nd = m.data[node.id]
        zc = z_col(node.id)
        obj[zc:zc + l] += node.p * nd.c
        lo[zc:zc + l] = np.maximum(lo[zc:zc + l], nd.z_lo)
        up[zc:zc + l] = np.minimum(up[zc:zc + l], nd.z_up)
        integer[zc:zc + l] = True
    root = m.data[m.tree.root]
    obj[x_off:x_off + k] = root.d
    obj[y_off:y_off + r] = root.h
    lo[x_off:x_off + k] = root.x_lo
    up[x_off:x_off + k] = root.x_up
    lo[y_off:y_off + r] = root.y_lo
    up[y_off:y_off + r] = root.y_up
    return obj, lo, up, integer


def _make_layout(m: Msilp, agg: AggregationMap | None) -> Layout:
    z_off, col, _ = first_stage_offsets(m, agg)
    lay = Layout(z_off=z_off)
    for node in m.tree.nodes:
        lay.x_off[node.id] = col
        col += m.k
    for node in m.tree.nodes:
        lay.y_off[node.id] = col
        col += m.r
    if col > VAR_CAP:
        raise Overflow(f"extensive form needs {col} columns, cap is {VAR_CAP}")
    lay.n_cols = col
    return lay


def _extensive_form(m: Msilp, agg: AggregationMap | None) -> MipProblem:
    tree = m.tree
    lay = _make_layout(m, agg)

    def zcol(nid):
        return lay.z_off[nid if agg is None else agg.node_to_group[nid]]

    obj, lo, up, integer = first_stage_columns(m, zcol, lay.x_off[tree.root],
                                               lay.y_off[tree.root], lay.n_cols)
    blocks = []
    for node in tree.nodes:
        nd = m.data[node.id]
        xc, yc, par = lay.x_off[node.id], lay.y_off[node.id], node.parent
        obj[xc:xc + m.k] = node.p * nd.d
        obj[yc:yc + m.r] = node.p * nd.h
        lo[xc:xc + m.k] = nd.x_lo
        up[xc:xc + m.k] = nd.x_up
        lo[yc:yc + m.r] = nd.y_lo
        up[yc:yc + m.r] = nd.y_up
        ancestors = path(tree, node.id)[:-1] if nd.W is not None else []
        blocks += node_rows(nd, zcol(node.id), xc, yc,
                            None if par is None else zcol(par),
                            None if par is None else lay.x_off[par],
                            [zcol(a) for a in ancestors])

    A, senses, rhs = assemble(blocks, lay.n_cols)
    prob = MipProblem(c=obj, A=A, senses=senses, rhs=rhs, lo=lo, up=up, integer=integer)
    prob.layout = lay
    return prob


def build_extensive_form(m: Msilp) -> MipProblem:
    """One (x, y, z) block per node; optimal value is the true optimum."""
    return _extensive_form(m, None)


def build_aggregated_extensive_form(m: Msilp, agg: AggregationMap) -> MipProblem:
    """Integer blocks shared per aggregation group; duplicate rows coalesced."""
    return _extensive_form(m, agg)


def expand_aggregated_solution(m: Msilp, agg: AggregationMap, prob_agg: MipProblem,
                               x_agg: np.ndarray, prob_plain: MipProblem) -> np.ndarray:
    """Lift an aggregated-form solution to the plain form (z_n := z of its group)."""
    la, lp_ = prob_agg.layout, prob_plain.layout
    out = np.zeros(prob_plain.n)
    for node in m.tree.nodes:
        ga = la.z_off[agg.node_to_group[node.id]]
        out[lp_.z_off[node.id]:lp_.z_off[node.id] + m.l] = x_agg[ga:ga + m.l]
        out[lp_.x_off[node.id]:lp_.x_off[node.id] + m.k] = \
            x_agg[la.x_off[node.id]:la.x_off[node.id] + m.k]
        out[lp_.y_off[node.id]:lp_.y_off[node.id] + m.r] = \
            x_agg[la.y_off[node.id]:la.y_off[node.id] + m.r]
    return out


def max_violation(p: LpProblem, x: np.ndarray) -> float:
    """Worst constraint/bound violation of x; <= tol means feasible."""
    act = p.A @ x
    v = np.max(np.where(p.senses == GE, p.rhs - act,
                        np.where(p.senses == LE, act - p.rhs, np.abs(act - p.rhs))),
               initial=0.0)
    with np.errstate(invalid="ignore"):
        v = max(v, np.max(np.where(np.isfinite(p.lo), p.lo - x, 0.0), initial=0.0))
        v = max(v, np.max(np.where(np.isfinite(p.up), x - p.up, 0.0), initial=0.0))
    return float(v)


def validate(m: Msilp) -> list[str]:
    """All NodeData invariant violations; empty list iff the instance is valid."""
    diags: list[str] = []
    if len(m.data) != len(m.tree):
        diags.append(f"data defined for {len(m.data)} nodes, tree has {len(m.tree)}")
        return diags

    def _chk(nid, mat, name, shape):
        if mat is not None and mat.shape != shape:
            diags.append(f"node {nid}: {name} has shape {mat.shape}, expected {shape}")

    for node in m.tree.nodes:
        nd = m.data[node.id]
        nz, nl = nd.g.size, nd.b.size
        _chk(node.id, nd.H, "H", (nz, m.l))
        _chk(node.id, nd.G, "G", (nz, m.l))
        _chk(node.id, nd.C, "C", (nl, m.k))
        _chk(node.id, nd.D, "D", (nl, m.l))
        _chk(node.id, nd.E, "E", (nl, m.r))
        _chk(node.id, nd.A, "A", (nl, m.k))
        _chk(node.id, nd.B, "B", (nl, m.l))
        _chk(node.id, nd.W, "W", (nl, m.l))
        for vec, size, name in ((nd.c, m.l, "c"), (nd.d, m.k, "d"), (nd.h, m.r, "h"),
                                (nd.x_lo, m.k, "x_lo"), (nd.x_up, m.k, "x_up"),
                                (nd.y_lo, m.r, "y_lo"), (nd.y_up, m.r, "y_up"),
                                (nd.z_lo, m.l, "z_lo"), (nd.z_up, m.l, "z_up")):
            if np.asarray(vec).size != size:
                diags.append(f"node {node.id}: {name} has length {np.asarray(vec).size},"
                             f" expected {size}")
        for sen, size, name in ((nd.sen_z, nz, "sen_z"), (nd.sen_l, nl, "sen_l")):
            if sen.size != size:
                diags.append(f"node {node.id}: {name} has length {sen.size}, expected {size}")
        if node.parent is None:
            for mat, name in ((nd.A, "A"), (nd.B, "B"), (nd.G, "G"), (nd.W, "W")):
                if mat is not None:
                    diags.append(f"root carries parent-coupling block {name}")
        if not (np.all(np.isfinite(nd.z_lo)) and np.all(np.isfinite(nd.z_up))):
            diags.append(f"node {node.id}: unbounded integer column")

    by_state: dict[tuple, bytes] = {}
    for node in m.tree.nodes:
        key = (node.stage, node.mc_state.attrs)
        sig = m.data[node.id].signature()
        if key in by_state and by_state[key] != sig:
            diags.append(f"MC-measurability violated at stage {node.stage},"
                         f" state {node.mc_state.attrs}")
        by_state.setdefault(key, sig)
    return diags


def check_cost_to_go_floor(m: Msilp, node_ids, with_x: bool) -> None:
    """Raise ValueError naming the first of node_ids whose stage cost, h'y
    and d'x too when with_x, can fall below THETA_LB, the lower bound of a
    decomposition's cost-to-go variables: a negative cost, or a positive
    one on a column whose lower bound is negative.  Such a model would
    solve to a wrong optimum without a diagnostic, as no cut can take a
    cost-to-go below that bound."""
    for nid in node_ids:
        nd = m.data[nid]
        parts = [("d'x", nd.d, nd.x_lo)] if with_x else []
        for name, cost, lo in parts + [("h'y", nd.h, nd.y_lo)]:
            cost, lo = np.asarray(cost, dtype=float), np.asarray(lo, dtype=float)
            if np.any(cost < 0) or np.any((cost > 0) & (lo < 0)):
                raise ValueError(f"node {nid}: stage cost {name} can be negative, below "
                                 f"the cost-to-go lower bound {THETA_LB}")
