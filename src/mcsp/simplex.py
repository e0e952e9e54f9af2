"""Linear programming layer: exact primal/dual solves with pluggable backends.

The restricted master problems solved during column generation need optimal
primal values and exact dual prices. Two interchangeable backends provide
them:

* ``simplex`` -- a self-contained dense bounded-variable primal simplex with
  two-phase initialization, deterministic Dantzig pricing (lowest index on
  ties) and a Bland's-rule fallback against cycling. Intended for small and
  medium problems and as an independent reference.
* ``highs`` -- HiGHS, used for large master problems: called through
  scipy's bundled bindings, or through ``scipy.optimize.linprog`` on scipy
  releases that lack them. Both give HiGHS the same model and options.

Dual convention, frozen by unit tests: the reduced cost of variable j is
``c_j - sum_rows dual_row * a_row_j``. At a minimum, duals of ``<=`` rows are
nonpositive, duals of ``>=`` rows nonnegative, duals of ``=`` rows free.
Both backends are mapped onto this convention.

Variables live in ``[0, upper]`` with ``upper`` possibly infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

try:  # scipy's HiGHS bindings: private, and absent from some scipy releases
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None

TOL_FEAS = 1e-8
TOL_GAP = 1e-6
TOL_PIVOT = 1e-9

LE, GE, EQ = "<=", ">=", "="

_REL_CODES = {LE: 0, GE: 1, EQ: 2}


class LpError(RuntimeError):
    pass


class LpInfeasibleError(LpError):
    pass


class LpUnboundedError(LpError):
    pass


class LpIterationError(LpError):
    """Iteration limit hit; carries the count as a numerical-trouble signal."""

    def __init__(self, iterations: int):
        super().__init__(f"simplex iteration limit reached after {iterations} pivots")
        self.iterations = iterations


@dataclass
class LpProblem:
    """min c.x  s.t.  A x (<=, >=, =) b,  0 <= x <= upper."""

    c: np.ndarray
    a_matrix: sparse.csr_matrix
    rel: np.ndarray  # per-row code from _REL_CODES
    b: np.ndarray
    upper: np.ndarray
    names: Optional[list[str]] = None
    row_names: Optional[list[str]] = None

    @property
    def num_vars(self) -> int:
        return len(self.c)

    @property
    def num_rows(self) -> int:
        return len(self.b)

    @staticmethod
    def build(
        c: Sequence[float],
        rows: Iterable[tuple[dict[int, float], str, float]],
        upper: Optional[Sequence[float]] = None,
        names: Optional[list[str]] = None,
    ) -> "LpProblem":
        """Small-scale constructor; rows are (sparse coefficient dict, rel, rhs)."""
        c_arr = np.asarray(c, dtype=float)
        n = len(c_arr)
        data, indices, indptr, rel, b = [], [], [0], [], []
        for coeffs, r, rhs in rows:
            if r not in _REL_CODES:
                raise ValueError(f"unknown relation {r!r}")
            for j, v in sorted(coeffs.items()):
                if not (0 <= j < n):
                    raise ValueError(f"column index {j} out of range")
                if not math.isfinite(v):
                    raise ValueError("coefficients must be finite")
                indices.append(j)
                data.append(float(v))
            indptr.append(len(data))
            rel.append(_REL_CODES[r])
            b.append(float(rhs))
        mat = sparse.csr_matrix(
            (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
            shape=(len(b), n),
        )
        up = (
            np.full(n, np.inf)
            if upper is None
            else np.asarray([math.inf if u is None else float(u) for u in upper])
        )
        return LpProblem(c=c_arr, a_matrix=mat, rel=np.array(rel), b=np.array(b), upper=up, names=names)


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float
    x: np.ndarray
    duals: np.ndarray  # one per row, in the module's convention
    iterations: int = 0

    def reduced_costs(self, prob: LpProblem) -> np.ndarray:
        return prob.c - prob.a_matrix.T @ self.duals

    def dual_objective(self, prob: LpProblem) -> float:
        """b.y plus the upper-bound contributions of variables parked at upper."""
        rc = self.reduced_costs(prob)
        bound_part = 0.0
        for j in np.nonzero(np.isfinite(prob.upper))[0]:
            if rc[j] < 0:
                bound_part += prob.upper[j] * rc[j]
        return float(self.duals @ prob.b + bound_part)

    def max_primal_violation(self, prob: LpProblem) -> float:
        ax = prob.a_matrix @ self.x
        worst = 0.0
        for i in range(prob.num_rows):
            if prob.rel[i] == _REL_CODES[LE]:
                worst = max(worst, ax[i] - prob.b[i])
            elif prob.rel[i] == _REL_CODES[GE]:
                worst = max(worst, prob.b[i] - ax[i])
            else:
                worst = max(worst, abs(ax[i] - prob.b[i]))
        worst = max(worst, float(np.max(-self.x, initial=0.0)))
        finite = np.isfinite(prob.upper)
        if finite.any():
            worst = max(worst, float(np.max(self.x[finite] - prob.upper[finite], initial=0.0)))
        return worst


def solve_lp(prob: LpProblem, backend: str = "auto") -> LpSolution:
    """Solve to optimality; raises LpInfeasibleError / LpUnboundedError.

    backend 'auto' picks the dense simplex for problems of at most 600 rows
    plus columns and HiGHS beyond.
    """
    if backend == "auto":
        backend = "simplex" if prob.num_rows + prob.num_vars <= 600 else "highs"
    if backend == "simplex":
        return _solve_dense_simplex(prob)
    if backend == "highs":
        return _solve_highs(prob)
    raise ValueError(f"unknown LP backend {backend!r}")


# ---------------------------------------------------------------------------
# HiGHS backend


def _solve_highs(prob: LpProblem) -> LpSolution:
    """Solve with HiGHS through scipy's bundled bindings when they import,
    else through ``linprog(method="highs")``. Both hand HiGHS the same model
    and options, so they return the same solution."""
    return _solve_highs_direct(prob) if _highs is not None else _solve_linprog(prob)


# linprog's result check: a claimed optimum off its bounds or rows by more
# than this counts as a numerical failure (scipy's _check_result, tol 1e-9)
_LINPROG_CHECK_TOL = math.sqrt(1e-9) * 10


def _solve_highs_direct(prob: LpProblem) -> LpSolution:
    """The model ``linprog`` builds, passed to HiGHS without its conversions:
    rows in the order <= rows, negated >= rows, = rows, as lower <= A x <=
    upper; the options ``linprog(method="highs")`` sets; model statuses
    mapped to errors as ``linprog`` maps them."""
    m = prob.num_rows
    rel = prob.rel
    order = np.concatenate([np.flatnonzero(rel == _REL_CODES[r]) for r in (LE, GE, EQ)])
    n_le = int(np.count_nonzero(rel == _REL_CODES[LE]))
    n_ineq = n_le + int(np.count_nonzero(rel == _REL_CODES[GE]))
    sign = np.ones(m)
    sign[n_le:n_ineq] = -1.0
    in_order = bool(np.all(order == np.arange(m)))
    a = (prob.a_matrix if in_order else sparse.csr_matrix(prob.a_matrix)[order]).tocsc(copy=True)
    a.sum_duplicates()
    if n_ineq > n_le:
        a.data *= sign[a.indices]
    upper = prob.b[order] * sign
    lower = upper.copy()
    lower[:n_ineq] = -np.inf

    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = prob.num_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.col_cost_ = np.asarray(prob.c, dtype=float)
    lp.col_lower_ = np.zeros(prob.num_vars)
    lp.col_upper_ = col_upper = np.asarray(prob.upper, dtype=float)
    lp.row_lower_ = lower
    lp.row_upper_ = upper
    # the matrix vectors convert element by element; from lists that is faster
    lp.a_matrix_.start_ = a.indptr.tolist()
    lp.a_matrix_.index_ = a.indices.tolist()
    lp.a_matrix_.value_ = a.data.tolist()
    highs = _highs._Highs()
    highs.passOptions(_highs_options())
    status = _highs.HighsModelStatus
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        model_status = status.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    if model_status in (status.kInfeasible, status.kModelError):
        raise LpInfeasibleError("LP infeasible (HiGHS)")
    if model_status == status.kUnbounded:
        raise LpUnboundedError("LP unbounded (HiGHS)")
    if model_status != status.kOptimal:
        raise LpError(f"HiGHS failed with model status {highs.modelStatusToString(model_status)}")

    info = highs.getInfo()
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    rows = np.array(solution.row_value)
    tol = _LINPROG_CHECK_TOL
    if not (
        np.all((x >= -tol) & (x <= col_upper + tol))
        and np.all(upper[:n_ineq] - rows[:n_ineq] >= -tol)
        and np.all(np.abs(upper[n_ineq:] - rows[n_ineq:]) <= tol)
    ):
        raise LpError("HiGHS returned an optimum that violates the model")
    duals = np.empty(m)
    duals[order] = np.array(solution.row_dual) * sign
    return LpSolution(
        status="optimal",
        objective=float(info.objective_function_value),
        x=x,
        duals=duals,
        iterations=int(info.simplex_iteration_count or info.ipm_iteration_count),
    )


def _highs_options():
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


def _solve_linprog(prob: LpProblem) -> LpSolution:
    from scipy.optimize import linprog

    le_mask = prob.rel == _REL_CODES[LE]
    ge_mask = prob.rel == _REL_CODES[GE]
    eq_mask = prob.rel == _REL_CODES[EQ]
    a = prob.a_matrix
    a_ub = sparse.vstack([a[le_mask], -a[ge_mask]]) if (le_mask.any() or ge_mask.any()) else None
    b_ub = np.concatenate([prob.b[le_mask], -prob.b[ge_mask]]) if a_ub is not None else None
    a_eq = a[eq_mask] if eq_mask.any() else None
    b_eq = prob.b[eq_mask] if a_eq is not None else None
    bounds = np.column_stack([np.zeros(prob.num_vars), prob.upper])
    res = linprog(
        c=prob.c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if res.status == 2:
        raise LpInfeasibleError("LP infeasible (HiGHS)")
    if res.status == 3:
        raise LpUnboundedError("LP unbounded (HiGHS)")
    if res.status != 0:
        raise LpError(f"HiGHS failed with status {res.status}: {res.message}")
    duals = np.zeros(prob.num_rows)
    if a_ub is not None:
        marg = res.ineqlin.marginals
        n_le = int(le_mask.sum())
        duals[np.nonzero(le_mask)[0]] = marg[:n_le]
        duals[np.nonzero(ge_mask)[0]] = -marg[n_le:]
    if a_eq is not None:
        duals[np.nonzero(eq_mask)[0]] = res.eqlin.marginals
    return LpSolution(
        status="optimal",
        objective=float(res.fun),
        x=np.asarray(res.x),
        duals=duals,
        iterations=int(getattr(res, "nit", 0)),
    )


# ---------------------------------------------------------------------------
# Dense bounded-variable two-phase simplex

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


def _solve_dense_simplex(prob: LpProblem) -> LpSolution:
    m, n = prob.num_rows, prob.num_vars
    a = prob.a_matrix.toarray() if sparse.issparse(prob.a_matrix) else np.asarray(prob.a_matrix)
    b = prob.b.astype(float).copy()
    # slacks for inequality rows; artificials complete the starting basis
    slack_of: dict[int, int] = {}
    cols: list[np.ndarray] = []
    upper = list(prob.upper.astype(float))
    cost2 = list(prob.c.astype(float))
    for i in range(m):
        if prob.rel[i] == _REL_CODES[EQ]:
            continue
        e = np.zeros(m)
        e[i] = 1.0 if prob.rel[i] == _REL_CODES[LE] else -1.0
        slack_of[i] = n + len(cols)
        cols.append(e)
        upper.append(math.inf)
        cost2.append(0.0)
    full = np.hstack([a, np.column_stack(cols)]) if cols else a.copy()
    n_real = full.shape[1]

    status = np.full(n_real, _AT_LOWER, dtype=int)
    x = np.zeros(n_real)
    basis = np.empty(m, dtype=int)
    art_cols = []
    for i in range(m):
        j = slack_of.get(i)
        if j is not None and (prob.rel[i] == _REL_CODES[LE]) == (b[i] >= 0.0):
            basis[i] = j  # slack can start basic and feasible
        else:
            e = np.zeros(m)
            e[i] = 1.0 if b[i] >= 0 else -1.0
            art_cols.append(e)
            basis[i] = n_real + len(art_cols) - 1
    if art_cols:
        full = np.hstack([full, np.column_stack(art_cols)])
        upper.extend([math.inf] * len(art_cols))
        cost2.extend([0.0] * len(art_cols))
    n_total = full.shape[1]
    upper_arr = np.array(upper)
    status = np.concatenate([status, np.full(n_total - n_real, _AT_LOWER, dtype=int)])
    status[basis] = _BASIC

    state = _SimplexState(full, b, upper_arr, basis, status)
    state.refresh_basics()

    iterations = 0
    if n_total > n_real:  # phase 1: drive artificials to zero
        cost1 = np.zeros(n_total)
        cost1[n_real:] = 1.0
        iterations = state.run(cost1, iterations)
        if state.objective(cost1) > TOL_FEAS:
            raise LpInfeasibleError("LP infeasible (phase 1 objective positive)")
        state.upper[n_real:] = 0.0  # freeze artificials at zero for phase 2

    cost = np.zeros(n_total)
    cost[:n_real] = cost2[:n_real]
    iterations = state.run(cost, iterations)

    duals_full = state.duals(cost)
    obj = float(cost[: n_real] @ state.x[: n_real])
    return LpSolution(
        status="optimal",
        objective=obj,
        x=state.x[:n].copy(),
        duals=duals_full,
        iterations=iterations,
    )


class _SimplexState:
    """Dense revised simplex with an explicitly maintained basis inverse."""

    REFACTOR_EVERY = 60

    def __init__(self, a, b, upper, basis, status):
        self.a = a
        self.b = b
        self.upper = upper
        self.basis = basis
        self.status = status
        self.x = np.zeros(a.shape[1])
        self.x[status == _AT_UPPER] = upper[status == _AT_UPPER]
        self.binv = np.linalg.inv(a[:, basis]) if len(basis) else np.zeros((0, 0))
        self._since_refactor = 0

    def refresh_basics(self) -> None:
        m = len(self.basis)
        if m == 0:
            return
        nonbasic_part = self.a @ self.x - self.a[:, self.basis] @ self.x[self.basis]
        self.x[self.basis] = self.binv @ (self.b - nonbasic_part)

    def objective(self, cost: np.ndarray) -> float:
        return float(cost @ self.x)

    def duals(self, cost: np.ndarray) -> np.ndarray:
        if len(self.basis) == 0:
            return np.zeros(0)
        return cost[self.basis] @ self.binv

    def run(self, cost: np.ndarray, iterations: int) -> int:
        m, n_total = self.a.shape
        limit = 200 * (m + n_total) + 2000
        degenerate = 0
        bland_after = 5 * (m + n_total)
        while True:
            if iterations > limit:
                raise LpIterationError(iterations)
            y = self.duals(cost)
            rc = cost - y @ self.a
            enter = self._pick_entering(rc, use_bland=degenerate > bland_after)
            if enter is None:
                return iterations
            iterations += 1
            step = self._pivot(enter, rc[enter])
            if step < TOL_PIVOT:
                degenerate += 1
            else:
                degenerate = 0

    def _pick_entering(self, rc: np.ndarray, use_bland: bool) -> Optional[int]:
        movable = self.upper > 0  # frozen artificials can never move
        at_lower = (self.status == _AT_LOWER) & movable
        at_upper = (self.status == _AT_UPPER) & movable
        viol = np.zeros(len(rc))
        viol[at_lower] = -rc[at_lower]
        viol[at_upper] = rc[at_upper]
        eligible = np.nonzero(viol > TOL_GAP * 0.01)[0]
        if len(eligible) == 0:
            return None
        if use_bland:
            return int(eligible[0])
        best = eligible[np.argmax(viol[eligible])]
        # argmax returns the first maximum, giving the lowest-index tie-break
        return int(best)

    def _pivot(self, enter: int, rc_enter: float) -> float:
        direction = 1.0 if self.status[enter] == _AT_LOWER else -1.0
        d = self.binv @ self.a[:, enter]
        xb = self.x[self.basis]
        ub = self.upper[self.basis]

        best_step = self.upper[enter]  # bound flip distance (may be inf)
        leave_pos = -1
        leave_to_upper = False
        eff = direction * d
        for k in range(len(d)):
            if eff[k] > TOL_PIVOT:  # basic value falls toward 0
                step = xb[k] / eff[k]
                if step < best_step - TOL_PIVOT or (
                    abs(step - best_step) <= TOL_PIVOT
                    and (leave_pos == -1 or abs(eff[k]) > abs(eff[leave_pos]))
                ):
                    best_step, leave_pos, leave_to_upper = step, k, False
            elif eff[k] < -TOL_PIVOT and math.isfinite(ub[k]):  # rises toward upper
                step = (ub[k] - xb[k]) / (-eff[k])
                if step < best_step - TOL_PIVOT or (
                    abs(step - best_step) <= TOL_PIVOT
                    and (leave_pos == -1 or abs(eff[k]) > abs(eff[leave_pos]))
                ):
                    best_step, leave_pos, leave_to_upper = step, k, True
        if math.isinf(best_step):
            raise LpUnboundedError("LP unbounded (no blocking bound)")
        best_step = max(best_step, 0.0)

        # move the entering variable and update basic values
        self.x[enter] += direction * best_step
        self.x[self.basis] = xb - direction * best_step * d
        if leave_pos == -1:
            # bound flip: entering variable swaps bounds, basis unchanged
            self.status[enter] = _AT_UPPER if direction > 0 else _AT_LOWER
            return best_step
        leave = self.basis[leave_pos]
        self.status[leave] = _AT_UPPER if leave_to_upper else _AT_LOWER
        self.x[leave] = self.upper[leave] if leave_to_upper else 0.0
        self.basis[leave_pos] = enter
        self.status[enter] = _BASIC
        self._update_binv(leave_pos, d)
        return best_step

    def _update_binv(self, row: int, d: np.ndarray) -> None:
        self._since_refactor += 1
        if self._since_refactor >= self.REFACTOR_EVERY:
            self.binv = np.linalg.inv(self.a[:, self.basis])
            self._since_refactor = 0
        else:
            pivot = d[row]
            if abs(pivot) < TOL_PIVOT:
                self.binv = np.linalg.inv(self.a[:, self.basis])
                self._since_refactor = 0
                return
            self.binv[row, :] /= pivot
            for k in range(len(d)):
                if k != row and abs(d[k]) > 0:
                    self.binv[k, :] -= d[k] * self.binv[row, :]
        self.refresh_basics()


# ---------------------------------------------------------------------------
# LP text export (CPLEX-style LP format)


def _format_terms(coeffs: Iterable[tuple[str, float]]) -> str:
    parts: list[str] = []
    for name, v in coeffs:
        if v == 0:
            continue
        sign = "-" if v < 0 else "+"
        mag = abs(v)
        term = name if mag == 1 else f"{mag:.12g} {name}"
        if not parts and sign == "+":
            parts.append(term)
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0 " + "x0"


def write_lp_text(
    objective: Iterable[tuple[str, float]],
    rows: Iterable[tuple[str, list[tuple[str, float]], str, float]],
    bounds: Iterable[str] = (),
    binaries: Iterable[str] = (),
    constant: float = 0.0,
    sense: str = "Minimize",
) -> str:
    """Render a model in LP text format; rows are (name, terms, rel, rhs)."""
    lines = [sense, " obj: " + _format_terms(objective) + (f" + {constant:.12g}" if constant else "")]
    lines.append("Subject To")
    for name, terms, rel, rhs in rows:
        op = {LE: "<=", GE: ">=", EQ: "="}[rel]
        lines.append(f" {name}: {_format_terms(terms)} {op} {rhs:.12g}")
    bounds = list(bounds)
    if bounds:
        lines.append("Bounds")
        lines.extend(f" {line}" for line in bounds)
    binaries = list(binaries)
    if binaries:
        lines.append("Binary")
        lines.extend(" " + name for name in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_lp(prob: LpProblem, path) -> None:
    """Write an LpProblem in LP text format for external cross-checks."""
    from pathlib import Path

    names = prob.names or [f"x{j + 1}" for j in range(prob.num_vars)]
    row_names = prob.row_names or [f"c{i + 1}" for i in range(prob.num_rows)]
    a = prob.a_matrix.tocsr()
    rows = []
    rel_names = {v: k for k, v in _REL_CODES.items()}
    for i in range(prob.num_rows):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        terms = [(names[j], float(v)) for j, v in zip(a.indices[lo:hi], a.data[lo:hi])]
        rows.append((row_names[i], terms, rel_names[int(prob.rel[i])], float(prob.b[i])))
    bound_lines = []
    for j, u in enumerate(prob.upper):
        if math.isfinite(u):
            bound_lines.append(f"0 <= {names[j]} <= {u:.12g}")
    text = write_lp_text(
        objective=[(names[j], float(prob.c[j])) for j in range(prob.num_vars)],
        rows=rows,
        bounds=bound_lines,
    )
    Path(path).write_text(text, encoding="utf-8")
