"""LP and MIP kernel: simplex solves with duals and Farkas certificates,
the Benders cut plumbing both decompositions share, and branch and bound
with a lazy-cut callback hook.

The LP solves go to the HiGHS bundled with scipy, through its private
module scipy.optimize._highspy._core (checked at import to be HiGHS 1.x,
x >= 12, the version this kernel was verified on).  The process has one
HiGHS object (so solves run one at a time, never from several threads);
each solve hands it the model as numpy arrays and clears it again
afterwards, so no model outlives its solve.  Rows go to HiGHS in their
own order as row bounds ([rhs, inf) for '>=', (-inf, rhs] for '<=',
[rhs, rhs] for '==').

Loading HiGHS: _load_highs finds that module's file in scipy's
optimize/_highspy directory with the import system's own finder, and
registers the module in sys.modules under its full dotted name before
running it.  A later `import scipy.optimize` then reuses the same module
object; if scipy.optimize came first, its entry is used.  The usual import
would first run scipy.optimize's package init, which pulls in linprog,
minimize, scipy.linalg, scipy.special, scipy.fft and scipy.spatial (about
250 modules) that this kernel never calls, and every mcsip command is its
own process, so each one would pay that start-up.  One difference
remains: a scipy.optimize._highspy imported later has no _core attribute,
but `from scipy.optimize._highspy import _core` finds the module.

Warm starts: an LpProblem keeps the basis of its last optimal solve, as
(columns, rows, the HighsBasis HiGHS returned).  The next solve of the same
object hands HiGHS that many rows of the row-wise model (p.A's CSR arrays
as they are), then that basis unmodified (B&B siblings share it), then the
rows appended since (add_rows) with addRows, which makes them basic, and
runs dual simplex without presolve.  A column count that no longer matches
makes the solve cold; a warm solve that ends in no usable status is retried
once cold.

Matrices: p.A is a model.Csr, or any other CSR matrix with the same
attribute names (indptr, indices, data, shape; scipy's csr_matrix has
them), which the kernel reads as it is.  add_rows and infeasibility_lp
always make a Csr.

Dual convention (minimization): duals[i] = d obj / d rhs[i], so '>=' rows
carry nonnegative duals and '<=' rows nonpositive ones; this is HiGHS's own
row dual.  Infeasible solves return a ray in the same convention; see
verify_farkas for the exact certificate the ray satisfies.

Benders layer of S and LDR: each subproblem LP takes its rhs from an
RhsMap, const + R w at the incoming state w, and a cut's slope in w is
R' pi of its duals pi.  The map keeps R as the Csr arrays model.assemble
made and does both products with one np.bincount over the entries in
storage order, the order of Csr's own products, so a rhs or slope equals
R @ w or R.rmatvec(pi) bit for bit and no matrix object is built per
solve.  Cuts are read off LP duals, or off the phase-1 duals of
violation_certificate (also the Farkas ray's source), and cut_row writes
every cut as a row of the problem that hosts it.  A StateLp is such an LP
with its map.  Its identity is interned in its model's StateLpTable from
the LP's costs, bounds, rows and senses, and from (previous identity,
appended row) when it hosts a cut, so two state LPs share one exactly
when their LPs are equal row for row.  The table memoises every outcome,
infeasible ones too, by (identity, rhs), so an LP that several state LPs
share is solved once per rhs; the deadline is checked only before a solve
the memo cannot answer.  An entry keeps the LP's row duals pi, and the
asking state LP takes its slope R' pi through its own map.

Branch and bound: best-bound node selection, most-fractional branching with
lowest-index tie break, relative gap termination; each child node starts
from its parent's final basis.  A node LP's solve also returns the
Driebeek penalties of its two children (Driebeek 1966), read off the final
tableau before HiGHS clears the model: what the first dual simplex pivot
after the branching bound costs at least.  Each child carries a floor, its
parent's LP value plus its penalty, beside that LP value, which stays its
heap key, so nodes are popped in the order they would be without floors.
The gap test at the pop reads the greater of the two, so a child whose
floor already meets the incumbent is dropped and its LP is never solved;
every other LP is the same one, solved from the same basis.  The reported
bound is the least of the incumbent's value and the bound (the greater of
LP value and floor) of every node dropped within the gap or left open, so
it stays valid although the gap test prunes nodes that could hold a
slightly better solution.  When a cut oracle is supplied, every
integer-feasible relaxation solution is offered to the oracle and the node
is re-solved until the oracle returns no cut, which is what makes lazy
Benders-style decompositions exact.  Cuts are separated only at nodes that
survive the bound test: each LP of a node's cut loop is checked against the
incumbent before its point goes to the oracle, and a node whose LP value
is within the gap is dropped at once (cuts only raise that value), its LP
value counting among the dropped nodes' bounds.  The solve's one Deadline
is checked between nodes and after every round of cuts, and once it has
passed the rounding heuristic solves no further LP.
"""

from __future__ import annotations

import heapq
import importlib.util
import os
import sys
import time
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from typing import Sequence

import numpy as np
import scipy

from .errors import ConfigError, DimensionMismatch, NumericalFailure
from .model import EQ, GE, LE, Csr, LpProblem, MipProblem, as_csr
from .tolerances import FEAS_TOL, INT_TOL, MIP_GAP, VIOL_GUARD

MAX_CUT_PASSES = 100_000   # oracle re-solves per branch-and-bound node

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time_limit"


def _check_highs_version(major: int, minor: int) -> None:
    """The private HiGHS module's API is used as of HiGHS 1.12."""
    if major != 1 or minor < 12:
        raise ImportError(f"mcsip needs HiGHS 1.x with x >= 12 inside scipy, "
                          f"found {major}.{minor}")


def _load_highs():
    """scipy.optimize._highspy._core, loaded from its file without running
    scipy.optimize's package init; an entry already in sys.modules is used."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    found = PathFinder.find_spec("_core", [os.path.join(scipy.__path__[0], "optimize", "_highspy")])
    if found is None:
        raise ImportError(f"mcsip needs {name}, which this scipy does not ship")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


highs = _load_highs()
_check_highs_version(highs.HIGHS_VERSION_MAJOR, highs.HIGHS_VERSION_MINOR)


def _highs_options(presolve: str) -> highs.HighsOptions:
    opts = highs.HighsOptions()
    opts.presolve = presolve
    opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    opts.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return opts


_COLD_OPTIONS = _highs_options("on")
_WARM_OPTIONS = _highs_options("off")
_HIGHS_STATUS = {
    highs.HighsModelStatus.kOptimal: OPTIMAL,
    highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    highs.HighsModelStatus.kModelError: INFEASIBLE,   # as linprog reports it
    highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}
_ROWWISE = int(highs.MatrixFormat.kRowwise)
_ERROR = highs.HighsStatus.kError
_MINIMIZE = int(highs.ObjSense.kMinimize)
_ACCEPT_TOL = np.sqrt(1e-9) * 10  # linprog's tolerance for accepting an optimum
_HIGHS = highs._Highs()  # the process's one HiGHS object, model-free between solves
_passed_options = None   # the options object _HIGHS was last given


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float | None = None
    farkas: np.ndarray | None = None
    # (col, down, up) of a solve given int_cols: see _branching
    branch: tuple | None = None
    # (row_lo, row_up, lb, ub, HighsSolution) of an optimal solve
    _dual_data: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def dual_objective(self) -> float | None:
        """rhs'duals plus every finite bound times its multiplier, computed
        when read; None unless optimal.  A bound's multiplier is the column
        dual where the column sits at it; a fixed column's goes by its sign
        (>= 0 lower), as HiGHS's basis status does.  It reads only arrays
        the solve made, as callers edit p's rhs and bounds in place."""
        if self._dual_data is None:
            return None
        row_lo, row_up, lb, ub, highs_sol = self._dual_data
        x = self.x
        col_dual = np.array(highs_sol.col_dual)
        at_lb = (x == lb) & ((col_dual >= 0.0) | (lb != ub))
        val = float(self.duals @ np.where(row_lo == -np.inf, row_up, row_lo))
        # a multiplier is nonzero only where x sits at its (finite) bound
        for at_bound in (at_lb, (x == ub) & ~at_lb):
            mask = at_bound & (col_dual != 0.0)
            val += float(col_dual[mask] @ x[mask])
        return val


@dataclass
class MipSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    gap: float | None = None
    nodes: int = 0
    cuts: int = 0


def relative_gap(objective: float, bound: float) -> float:
    """The reported gap of an objective over its bound."""
    return (objective - bound) / max(abs(objective), 1e-9)


class DeadlineReached(Exception):
    """A time limit stopped work before it had a result to return."""


class Deadline:
    """The one clock of a solve: the time.monotonic() instant at which
    time_limit seconds from its making are over; None never passes."""

    def __init__(self, time_limit: float | None = None):
        if time_limit is not None and not time_limit >= 0:  # nan would never fire
            raise ConfigError(f"time limit must be nonnegative seconds, got {time_limit}")
        self.end = None if time_limit is None else time.monotonic() + time_limit

    def passed(self) -> bool:
        return self.end is not None and time.monotonic() > self.end

    def check(self) -> None:
        if self.passed():
            raise DeadlineReached


def _rowwise(p: LpProblem):
    """The CSR arrays of p.A that HiGHS gets, checked finite once per matrix
    object (add_rows replaces it)."""
    a = p.A
    if not getattr(a, "_mcsip_finite", False):
        if not np.isfinite(a.data).all():
            raise ValueError("constraint matrix holds inf or nan")
        a._mcsip_finite = True
    return a.indptr, a.indices, a.data


def solve_lp(p: LpProblem, want_farkas: bool = True,
             int_cols: np.ndarray | None = None) -> LpSolution:
    """Solve min c'x s.t. rows, bounds, warm from p's last optimal basis when
    it has one (deterministically either way); an optimum stores its basis
    on p.  Given the integer columns of a B&B node LP, an optimum also
    carries its branching column and penalties (LpSolution.branch)."""
    c = np.asarray(p.c, dtype=float)
    rhs = np.asarray(p.rhs, dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(rhs).all()):
        raise ValueError("objective or rhs holds inf or nan")
    row_lo = np.where(p.senses == LE, -np.inf, rhs)
    row_up = np.where(p.senses == GE, np.inf, rhs)
    # copies: dual_objective reads the bounds after callers edit p's
    lb, ub = np.array(p.lo, dtype=float), np.array(p.up, dtype=float)
    model = (c, *_rowwise(p), row_lo, row_up, lb, ub)
    basis = p.basis
    if basis is not None and (basis[0] != p.n or basis[1] > p.m):
        basis = None  # columns changed or rows dropped: a cold start
    status, res = _run_highs(*model, basis, int_cols=int_cols)
    if status is None and basis is not None:  # one cold retry
        status, res = _run_highs(*model, None, int_cols=int_cols)
    if status == INFEASIBLE:
        sol = LpSolution(status=INFEASIBLE)
        if want_farkas:
            sol.farkas = violation_certificate(p)[1]
        return sol
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)
    if status is None:
        raise NumericalFailure(f"HiGHS ended with {res['status']}")
    p.basis = res["basis"]
    return LpSolution(status=OPTIMAL, x=res["x"], duals=res["row_dual"],
                      objective=float(res["fun"]), branch=res.get("branch"),
                      _dual_data=(row_lo, row_up, lb, ub, res["solution"]))


def _run_highs(c, indptr, indices, data, row_lo, row_up, lb, ub,
               basis, int_cols=None) -> tuple[str | None, dict]:
    """One HiGHS LP solve of min c'x, row_lo <= A x <= row_up, lb <= x <= ub
    (A row-wise, int32 indices), without presolve from basis = (columns,
    rows m0, HighsBasis) when one is given: the first m0 rows go in with
    the basis, the rest are appended after it.  Given int_cols, an optimum
    also gets its "branch", read off the final tableau before the model is
    cleared.

    Returns (status, result); status is None for an outcome solve_lp cannot
    use: a HiGHS status it does not map, a rejected basis or appended rows,
    or an optimum that fails linprog's acceptance check."""
    global _passed_options
    h = _HIGHS
    m = row_lo.size
    m0 = m if basis is None else basis[1]
    nz0 = int(indptr[m0])
    try:
        options = _COLD_OPTIONS if basis is None else _WARM_OPTIONS
        if options is not _passed_options:
            h.passOptions(options)
            _passed_options = options
        if h.passModel(c.size, m0, nz0, _ROWWISE, _MINIMIZE, 0.0, c, lb, ub,
                       row_lo[:m0], row_up[:m0], indptr[:m0 + 1], indices[:nz0],
                       data[:nz0], np.zeros(c.size, dtype=np.int32)) == _ERROR:
            return INFEASIBLE, {"status": highs.HighsModelStatus.kModelError}
        if basis is not None and (h.setBasis(basis[2]) == _ERROR or m0 < m and h.addRows(
                m - m0, row_lo[m0:], row_up[m0:], int(indptr[m]) - nz0, indptr[m0:m] - nz0,
                indices[nz0:], data[nz0:]) == _ERROR):
            return None, {"status": "a rejected basis or rejected appended rows"}
        h.run()
        res = {"status": h.getModelStatus()}
        status = _HIGHS_STATUS.get(res["status"])
        if status != OPTIMAL:
            return status, res
        sol, fun = h.getSolution(), h.getObjectiveValue()
        x, ax = np.array(sol.col_value), np.array(sol.row_value)
        # linprog's check of an optimum: no nan, bounds and rows hold to its tolerance
        if (np.isnan(x).any() or np.isnan(ax).any() or np.isnan(fun)
                or (x < lb - _ACCEPT_TOL).any() or (x > ub + _ACCEPT_TOL).any()
                or (ax < row_lo - _ACCEPT_TOL).any() or (ax > row_up + _ACCEPT_TOL).any()):
            return None, res
        res.update(x=x, row_dual=np.array(sol.row_dual), solution=sol, fun=fun,
                   basis=(c.size, row_lo.size, h.getBasis()))
        if int_cols is not None:
            res["branch"] = _branching(h, res, ax, lb, ub, row_lo, row_up, int_cols)
        return OPTIMAL, res
    finally:
        h.clearModel()


def _branching(h, res, ax, lb, ub, row_lo, row_up, int_cols) -> tuple:
    """(col, down, up) of the optimum h holds: col is the most-fractional
    integer column (None when x is integral); down and up are Driebeek's
    penalties of its children x[col] <= s and x[col] >= s + 1, s the floor
    of x[col]: what the first dual simplex pivot of each child costs at
    least, so each child's LP value is at least the node's plus its
    penalty.

    Row r of the tableau reads x[col] = ... - alpha'x_N + beta'(A x)_N,
    alpha = (B^-1 A)_r and beta = (B^-1)_r.  A nonbasic column at its lower
    bound moves up (effect -alpha, cost max(d, 0) per unit), one at its upper
    bound moves down (+alpha, max(-d, 0)); a nonbasic inequality row at its
    lower activity moves up (+beta, max(y, 0)), at its upper down (-beta,
    max(-y, 0)).  A nonbasic column or row at neither bound (a free column)
    moves either way at cost 0; fixed columns and '==' rows do not move.
    With f the fractional part, down = f min g/|e| over moves with e < 0 and
    up = (1 - f) min g/e over e > 0, each 0 when no move qualifies."""
    x = res["x"]
    col = _fractional(x, int_cols)
    if col is None:
        return None, 0.0, 0.0
    basic = h.getBasicVariables()[1]
    pos = np.flatnonzero(basic == col)
    if pos.size == 0:
        return col, 0.0, 0.0
    ok_a, alpha = h.getReducedRow(int(pos[0]))
    ok_b, beta = h.getBasisInverseRow(int(pos[0]))
    if ok_a == _ERROR or ok_b == _ERROR:
        return col, 0.0, 0.0
    nb_col = np.ones(x.size, dtype=bool)
    nb_col[basic[basic >= 0]] = False
    nb_row = np.ones(ax.size, dtype=bool)
    nb_row[-1 - basic[basic < 0]] = False
    effect, cost = [], []
    for nb, val, lo, up, e, dual in (
            (nb_col & (lb < ub), x, lb, ub, -alpha, np.array(res["solution"].col_dual)),
            (nb_row & (row_lo < row_up), ax, row_lo, row_up, beta, res["row_dual"])):
        at_lo, at_up = val - lo <= FEAS_TOL, up - val <= FEAS_TOL
        inside = ~(at_lo | at_up)
        # (moves up, moves down): effect e or -e, cost 0 for a free move
        for moves, sign in ((nb & (at_lo | inside), 1.0), (nb & (at_up | inside), -1.0)):
            effect.append(sign * e[moves])
            cost.append(np.where(inside[moves], 0.0, np.maximum(sign * dual[moves], 0.0)))
    effect, cost = np.concatenate(effect), np.concatenate(cost)
    f = float(x[col] - np.floor(x[col] + INT_TOL))
    return col, f * _least_ratio(cost, -effect), (1.0 - f) * _least_ratio(cost, effect)


def _least_ratio(cost, effect) -> float:
    """min cost/effect over effect > 0; 0 when there is none or the ratio
    overflows, as a child no pivot reaches is left to its own LP."""
    pos = effect > 0
    least = float(np.min(cost[pos] / effect[pos])) if pos.any() else 0.0
    return least if least < np.inf else 0.0


def infeasibility_lp(p: LpProblem) -> LpProblem:
    """Phase-1 companion of p: minimize total row violation over the same box.

    The optimal value is 0 iff p is feasible; its row duals support the
    violation as a function of the rhs, which is what both the Farkas ray
    and feasibility cuts are made of.
    """
    n, m = p.n, p.m
    # row i gets slack column first[i] (+1, or -1 on '<=' rows); an '==' row
    # also gets first[i] + 1 (-1); each row's slacks follow its entries of
    # p.A, whose explicit zeros are dropped
    eq = p.senses == EQ
    width = np.where(eq, 2, 1)
    first = n + np.cumsum(width) - width
    n_slack = int(width.sum())
    a = as_csr(p.A)
    a = Csr.from_triplets(
        np.concatenate([a.entry_rows(), np.arange(m), np.flatnonzero(eq)]),
        np.concatenate([a.indices, first, first[eq] + 1]),
        np.concatenate([a.data, np.where(p.senses == LE, -1.0, 1.0), np.full(eq.sum(), -1.0)]),
        (m, n + n_slack))
    c = np.concatenate([np.zeros(n), np.ones(n_slack)])
    lo = np.concatenate([p.lo, np.zeros(n_slack)])
    up = np.concatenate([p.up, np.full(n_slack, np.inf)])
    return LpProblem(c=c, A=a, senses=p.senses.copy(), rhs=p.rhs.copy(),
                     lo=lo, up=up)


def violation_certificate(p: LpProblem) -> tuple[float, np.ndarray]:
    """(violation, duals) of p's phase-1 companion: the least total row
    violation over p's box and its row duals, whose support in the rhs
    certifies that violation.  Raises NumericalFailure when the phase-1 LP
    does not solve or finds no violation above VIOL_GUARD."""
    sol = solve_lp(infeasibility_lp(p), want_farkas=False)
    if sol.status != OPTIMAL:
        raise NumericalFailure("phase-1 LP did not solve")
    if sol.objective <= VIOL_GUARD:
        raise NumericalFailure("phase-1 found no violation")
    return sol.objective, sol.duals


def verify_farkas(p: LpProblem, ray: np.ndarray) -> float:
    """Margin of the box Farkas certificate; > 0 certifies infeasibility.

    Requires ray >= 0 on '>=' rows and <= 0 on '<=' rows (free on '==') to
    FEAS_TOL; the certified statement is sup_{lo<=x<=up} (A' ray)'x < ray'rhs.
    """
    if np.any(ray[p.senses == GE] < -FEAS_TOL) or np.any(ray[p.senses == LE] > FEAS_TOL):
        return -np.inf
    d = as_csr(p.A).rmatvec(ray)
    up, lo = d > FEAS_TOL, d < -FEAS_TOL
    if not (np.isfinite(p.up[up]).all() and np.isfinite(p.lo[lo]).all()):
        return -np.inf
    return float(ray @ p.rhs - d[up] @ p.up[up] - d[lo] @ p.lo[lo])


Row = tuple[dict[int, float], str, float]  # (column -> coef, sense, rhs)


def add_rows(p: LpProblem, rows: Sequence[Row]) -> LpProblem:
    """Append rows in place; the problem object keeps its identity.  The new
    CSR arrays are the old ones with the rows' entries (column-sorted within
    a row, explicit zeros kept) appended."""
    if not rows:
        return p
    sizes = np.array([len(cols) for cols, _, _ in rows])
    idx = np.fromiter((j for cols, _, _ in rows for j in cols), dtype=np.int64,
                      count=sizes.sum())
    vals = np.array([v for cols, _, _ in rows for v in cols.values()])
    bad = np.flatnonzero((idx < 0) | (idx >= p.n))
    if bad.size:
        raise DimensionMismatch(f"column {idx[bad[0]]} outside 0..{p.n - 1}")
    order = np.lexsort((idx, np.repeat(np.arange(len(rows)), sizes)))
    a = p.A
    p.A = Csr(np.concatenate([a.indptr, a.indptr[-1] + np.cumsum(sizes)]),
              np.concatenate([a.indices, idx[order].astype(np.int32)]),
              np.concatenate([a.data, vals[order]]), (a.shape[0] + len(rows), p.n))
    p.rhs = np.concatenate([p.rhs, [rhs for _, _, rhs in rows]])
    p.senses = np.concatenate([p.senses, np.array([s for _, s, _ in rows], dtype="<U1")])
    return p


def cut_row(theta_col: int | None, terms, rhs: float) -> Row:
    """The cut theta - sum coef'w >= rhs as a row of its host: terms are
    (column offset, coefficient vector) pairs, summed left to right where
    they overlap; theta_col None (a feasibility cut) leaves theta out."""
    cols: dict[int, float] = {} if theta_col is None else {theta_col: 1.0}
    for off, coefs in terms:
        for j in np.flatnonzero(coefs):
            cols[off + j] = cols.get(off + j, 0.0) - coefs[j]
    return cols, GE, rhs


class RhsMap:
    """rhs = const + R w of a subproblem LP at an incoming state w, and the
    slope R' pi of its value in w from row duals pi.

    R is kept as the Csr arrays it was built with (indptr, indices, data)
    plus each entry's row; both products are one np.bincount that adds the
    entries in storage order, as Csr's own @ (rhs) and rmatvec (slope) do,
    so they equal R @ w and R.rmatvec(pi) bit for bit."""

    def __init__(self, R: Csr, const: np.ndarray):
        self.indptr, self.indices, self.data = R.indptr, R.indices, R.data
        self.rows = R.entry_rows()
        self.const = np.asarray(const, dtype=float)
        self.n = R.shape[1]

    def rhs(self, w: np.ndarray) -> np.ndarray:
        return self.const + np.bincount(self.rows, self.data * w[self.indices],
                                        minlength=self.const.size)

    def slope(self, duals: np.ndarray) -> np.ndarray:
        """R' duals over R's first duals.size rows: a solve's duals keep
        pairing with the rows it was solved on after append."""
        nz = self.indptr[duals.size]
        return np.bincount(self.indices[:nz], self.data[:nz] * duals[self.rows[:nz]],
                           minlength=self.n)

    def append(self, row: np.ndarray, gamma: float) -> None:
        """Add the row const_i = gamma, R_i = row (a dense n-vector; its
        nonzeros are kept) in place."""
        j = np.flatnonzero(row)
        self.indptr = np.append(self.indptr, self.indptr[-1] + j.size)
        self.indices = np.concatenate([self.indices, j.astype(self.indices.dtype)])
        self.data = np.concatenate([self.data, row[j]])
        self.rows = np.concatenate([self.rows, np.full(j.size, self.const.size)])
        self.const = np.append(self.const, gamma)


@dataclass
class StateLpTable:
    """One model's state-LP identities (by LP key) and answers (by identity and rhs)."""

    ids: dict[tuple, int] = field(default_factory=dict)
    answers: dict[tuple[int, bytes], LpSolution] = field(default_factory=dict)


class StateLp:
    """An LP whose rhs is rhs_map's const + R w at an incoming state w; see
    the Benders layer above for its identity and memo."""

    def __init__(self, lp: LpProblem, rhs_map: RhsMap, table: StateLpTable):
        self.lp, self.rhs_map, self.table = lp, rhs_map, table
        self.lp_id = self._intern(tuple(a.tobytes() for a in (
            lp.c, lp.lo, lp.up, lp.A.indptr, lp.A.indices, lp.A.data, lp.senses)))

    def _intern(self, key: tuple) -> int:
        return self.table.ids.setdefault(key, len(self.table.ids))

    def solve(self, w: np.ndarray, deadline: Deadline) -> LpSolution:
        """The LP's outcome at state w, from the memo when it holds one."""
        rhs = self.rhs_map.rhs(w)
        key = (self.lp_id, rhs.tobytes())
        hit = self.table.answers.get(key)
        if hit is None:
            deadline.check()
            self.lp.rhs = rhs
            sol = solve_lp(self.lp, want_farkas=False)
            # without _dual_data: an entry must not keep HiGHS's solution alive
            hit = self.table.answers[key] = LpSolution(sol.status, sol.x, sol.duals,
                                                       sol.objective)
        return hit

    def violation(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """The least total row violation at state w and its slope in w."""
        self.lp.rhs = self.rhs_map.rhs(w)
        violation, duals = violation_certificate(self.lp)
        return violation, self.rhs_map.slope(duals)

    def host(self, row: Row, map_row: np.ndarray) -> None:
        """Append row to the LP and (map_row, row's rhs) to the map; the new
        identity is (old identity, the LP row)."""
        add_rows(self.lp, [row])
        a = self.lp.A
        start = a.indptr[-2]
        self.lp_id = self._intern((self.lp_id, a.indices[start:].tobytes(),
                                   a.data[start:].tobytes(), self.lp.senses[-1]))
        self.rhs_map.append(map_row, row[2])


class CutOracle:
    """Callback interface for lazy cuts at integer-feasible points.

    separate() must only return rows valid for every integer-feasible point
    of the true problem; returning [] accepts the candidate.
    """

    def separate(self, x: np.ndarray) -> list[Row]:  # pragma: no cover
        raise NotImplementedError


@dataclass(order=True)
class BnbNode:
    bound: float  # the parent's LP value: the heap order
    seq: int
    lo: np.ndarray = field(compare=False)
    up: np.ndarray = field(compare=False)
    basis: tuple | None = field(default=None, compare=False)  # parent's final basis
    floor: float = field(default=-np.inf, compare=False)  # bound plus its penalty

    @property
    def value_floor(self) -> float:
        """The best lower bound known on the node's LP value."""
        return max(self.bound, self.floor)


def _fractional(x, int_cols):
    if int_cols.size == 0:
        return None
    frac = np.abs(x[int_cols] - np.round(x[int_cols]))
    worst = np.argmax(frac)
    return int_cols[worst] if frac[worst] > INT_TOL else None


def _within_gap(value: float, inc_obj: float) -> bool:
    """value, a node's bound, leaves no room within MIP_GAP below the
    incumbent's inc_obj; never true before an incumbent exists."""
    return inc_obj < np.inf and value >= inc_obj - MIP_GAP * max(abs(inc_obj), 1.0)


def branch_and_cut(p: MipProblem, oracle: CutOracle | None = None,
                   deadline: Deadline = Deadline(),
                   round_heuristic: bool = True) -> MipSolution:
    """Best-bound branch and bound to gap MIP_GAP with an optional cut oracle."""
    int_cols = np.flatnonzero(p.integer)
    incumbent, inc_obj = None, np.inf
    pruned = np.inf  # the least bound of a node the gap test dropped
    heap: list[BnbNode] = []
    seq = 0
    n_cuts = 0
    n_nodes = 0
    heapq.heappush(heap, BnbNode(-np.inf, seq, p.lo.copy(), p.up.copy(), p.basis))
    status = OPTIMAL
    try:
        while heap:
            node = heapq.heappop(heap)
            if _within_gap(node.value_floor, inc_obj):
                pruned = min(pruned, node.value_floor)  # a floor prunes its LP unsolved
                continue
            if deadline.passed():
                heapq.heappush(heap, node)  # keep its bound visible in the summary
                status = TIME_LIMIT
                break
            n_nodes += 1
            sub = LpProblem(c=p.c, A=p.A, senses=p.senses, rhs=p.rhs,
                            lo=node.lo, up=node.up, basis=node.basis)
            passes = 0
            while True:
                sol = solve_lp(sub, want_farkas=False, int_cols=int_cols)
                if sol.status == INFEASIBLE:
                    break
                if sol.status == UNBOUNDED:
                    return MipSolution(status=UNBOUNDED, nodes=n_nodes, cuts=n_cuts)
                # cuts only raise the LP value, so a dominated node is not separated
                if _within_gap(sol.objective, inc_obj):
                    break
                if sol.branch[0] is not None or oracle is None:
                    break
                cuts = oracle.separate(sol.x)
                if not cuts:
                    break
                add_rows(p, cuts)
                sub.A, sub.senses, sub.rhs = p.A, p.senses, p.rhs
                n_cuts += len(cuts)
                passes += 1
                deadline.check()
                if passes > MAX_CUT_PASSES:
                    raise NumericalFailure("cut loop did not terminate")
            if sol.status == INFEASIBLE:
                continue
            if _within_gap(sol.objective, inc_obj):
                pruned = min(pruned, sol.objective)
                continue
            col, down, up = sol.branch
            if col is None:
                x = sol.x.copy()
                x[int_cols] = np.round(x[int_cols])
                if sol.objective < inc_obj:
                    incumbent, inc_obj = x, sol.objective
                continue
            if round_heuristic and oracle is None and incumbent is None \
                    and not deadline.passed():
                cand = _round_and_fix(p, sub, sol.x, int_cols)
                if cand is not None and cand[1] < inc_obj:
                    incumbent, inc_obj = cand
            split = np.floor(sol.x[col] + INT_TOL)
            for lo_v, up_v, penalty in ((None, split, down), (split + 1.0, None, up)):
                lo2, up2 = node.lo.copy(), node.up.copy()
                if lo_v is not None:
                    lo2[col] = max(lo2[col], lo_v)
                if up_v is not None:
                    up2[col] = min(up2[col], up_v)
                if lo2[col] > up2[col]:
                    continue
                seq += 1
                heapq.heappush(heap, BnbNode(sol.objective, seq, lo2, up2, sub.basis,
                                             sol.objective + max(penalty, 0.0)))
    except DeadlineReached:
        # the oracle was separating this node's LP optimum, or the clock ran
        # out after its cuts were added: the node stays open with that
        # bound, valid because cuts only raise it
        heapq.heappush(heap, BnbNode(sol.objective, node.seq, node.lo, node.up,
                                     sub.basis, node.floor))
        status = TIME_LIMIT

    open_bound = min((nd.value_floor for nd in heap), default=np.inf)
    # nodes dropped within the gap may hide a slightly better solution
    bound = min(inc_obj, pruned, open_bound)
    if incumbent is None:
        if status == TIME_LIMIT:
            # before the root LP solves, its -inf is no bound at all
            return MipSolution(status=TIME_LIMIT, bound=open_bound if n_nodes else None,
                               nodes=n_nodes, cuts=n_cuts)
        return MipSolution(status=INFEASIBLE, nodes=n_nodes, cuts=n_cuts)
    return MipSolution(status=status, x=incumbent, objective=inc_obj, bound=bound,
                       gap=relative_gap(inc_obj, bound), nodes=n_nodes, cuts=n_cuts)


def _round_and_fix(p: MipProblem, sub: LpProblem, x, int_cols):
    """Fix integers to the rounded relaxation values and re-solve; a cheap
    primal heuristic that is exact whenever the remaining variables are
    continuous."""
    lo2, up2 = sub.lo.copy(), sub.up.copy()
    vals = np.clip(np.round(x[int_cols]), lo2[int_cols], up2[int_cols])
    lo2[int_cols] = vals
    up2[int_cols] = vals
    fixed = LpProblem(c=p.c, A=p.A, senses=p.senses, rhs=p.rhs, lo=lo2, up=up2,
                      basis=sub.basis)
    sol = solve_lp(fixed, want_farkas=False)
    if sol.status != OPTIMAL:
        return None
    xx = sol.x.copy()
    xx[int_cols] = vals
    return xx, sol.objective


def solve_mip(p: MipProblem, **kw) -> MipSolution:
    """branch_and_cut without an oracle."""
    return branch_and_cut(p, oracle=None, **kw)
