"""Linear programming layer: optimal primal values with exact duals, from HiGHS.

The restricted master problems solved during column generation need optimal
primal values and exact dual prices. ``solve_lp`` hands every LP to HiGHS's
dual simplex through scipy's bundled bindings (``scipy.optimize._highspy``),
with the model and options ``scipy.optimize.linprog(method="highs")`` would
use, and checks the returned optimum against the model.

An ``LpProblem`` holds its constraint matrix column-wise (CSC arrays), the
form HiGHS takes it in. Its rows come in the order HiGHS takes them:
``num_le`` <= rows, then = rows, and no >= rows (a >= row is written as its
negated <= row). The master and the face LP of ``mcsp.rmp`` are built so,
and a problem is handed over without a copy or a permutation.

Models of at most ``KEEP_NNZ`` nonzeros, every toy master (235 at most)
but only the first few masters of a desk solve, are solved on one kept
HiGHS handle: made on first use with the options, and emptied with
``clearModel`` before each model, so that it solves as a fresh handle does.
Making, configuring and dropping a handle costs half of HiGHS's ``run`` on
a toy master. A larger model gets a fresh handle, dropped with its solve: a
handle keeps the memory of the largest model it held (about 20 MB after
the 43.6 k-nonzero desk master; ``clearModel``, ``clearSolver``, ``clear``
or an empty model free none of it, only deleting the handle does, about
8 MB). One handle kept for every model raised the desk solves' peak RSS
from about 130 MB by 8 to 12 MB, and one handle per solve by 15 MB.

Each solve returns its optimal basis (``LpBasis``), and ``solve_lp`` takes a
start basis: given one, HiGHS skips presolve and re-optimises from it.
Column generation warm-starts every master this way (see ``mcsp.rmp``). On a
degenerate LP the optimal vertex HiGHS returns depends on where it starts,
so a warm and a cold solve of one LP can return different optimal primals
and duals with the same objective. A start basis with as many basic entries
as rows is passed as it is; one with another count is passed as HiGHS's
"alien" kind, which HiGHS repairs (see ``solve_lp``).

Dual convention, frozen by unit tests: the reduced cost of variable j is
``c_j - sum_rows dual_row * a_row_j``. At a minimum, duals of ``<=`` rows are
nonpositive and duals of ``=`` rows free; HiGHS's row duals follow it as
they come. The price of a variable's finite upper bound is not a row dual;
it shows as a negative reduced cost of a variable parked at that bound.

Variables live in ``[0, upper]`` with ``upper`` possibly infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.optimize._highspy import _core as _highs

LE, GE, EQ = "<=", ">=", "="  # the relations of ``write_lp_text``


class LpError(RuntimeError):
    pass


class LpInfeasibleError(LpError):
    pass


class LpUnboundedError(LpError):
    pass


@dataclass
class LpProblem:
    """min c.x  s.t.  A x <= b in rows 0..num_le-1, A x = b in the rest,
    0 <= x <= upper.

    A is held column-wise: column j has its nonzeros in rows
    ``index[start[j]:start[j + 1]]``, ascending, with values
    ``value[start[j]:start[j + 1]]`` (int32 ``start`` and ``index``)."""

    c: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    num_le: int  # the <= rows, which come first
    b: np.ndarray
    upper: np.ndarray

    @property
    def num_vars(self) -> int:
        return len(self.c)

    @property
    def num_rows(self) -> int:
        return len(self.b)


# basis status codes, as HiGHS numbers them (``HighsBasisStatus``)
LOWER, BASIC, UPPER = 0, 1, 2


@dataclass
class LpBasis:
    """A simplex basis: an int8 status code per variable, BASIC or nonbasic
    at its LOWER or UPPER bound, and a bool mask of the basic rows (their
    slacks), in the problem's row order. A nonbasic row sits at its
    right-hand side, which its position tells (see ``solve_lp``)."""

    cols: np.ndarray
    rows: np.ndarray

    @property
    def num_basic(self) -> int:
        return int(np.count_nonzero(self.cols == BASIC) + np.count_nonzero(self.rows))


@dataclass
class LpSolution:
    objective: float
    x: np.ndarray
    duals: np.ndarray  # one per row, in the module's convention
    iterations: int
    basis: LpBasis  # the optimal basis, a start for the next solve


def _highs_options():
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


_HIGHS_OPTIONS = _highs_options()

# a claimed optimum off its bounds or rows by more than this counts as a
# numerical failure (the tolerance of linprog's result check)
_CHECK_TOL = math.sqrt(1e-9) * 10


_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)

_STATUS = np.array(
    [_highs.HighsBasisStatus.kLower, _highs.HighsBasisStatus.kBasic,
     _highs.HighsBasisStatus.kUpper], dtype=object,
)

KEEP_NNZ = 2000  # the most nonzeros of a model solved on the kept handle
_kept = None  # the kept handle, made by the first model it takes


def _new_highs():
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    return highs


def _highs_for(nnz: int):
    """The handle a model of ``nnz`` nonzeros is solved on: the kept one,
    emptied, up to ``KEEP_NNZ`` nonzeros, else a fresh one."""
    global _kept
    if nnz > KEEP_NNZ:
        return _new_highs()
    if _kept is None:
        _kept = _new_highs()
    else:
        _kept.clearModel()
    return _kept


def solve_lp(prob: LpProblem, basis: Optional[LpBasis] = None) -> LpSolution:
    """Solve to optimality with HiGHS; raises LpInfeasibleError,
    LpUnboundedError, or LpError on any other outcome.

    The model is the one ``linprog`` builds: the rows as lower <= A x <=
    upper, the <= rows with no lower bound, solved with the dual simplex.
    Without ``basis`` the solve starts cold, with presolve; with it, HiGHS
    starts from that basis. A start basis with as many basic entries as rows
    is passed as a valid basis (HiGHS still swaps slacks in for a singular
    one); one with another count is passed as HiGHS's "alien" kind, which
    HiGHS repairs by factorizing it afresh. The handle (``_highs_for``)
    starts empty with the module's options, whether kept or fresh, so both
    give the same result, bit for bit."""
    m, n, n_le = prob.num_rows, prob.num_vars, prob.num_le
    upper = prob.b
    lower = upper.copy()
    lower[:n_le] = -np.inf
    col_upper = np.asarray(prob.upper, dtype=float)
    nnz = len(prob.index)
    highs = _highs_for(nnz)
    status = _highs.HighsModelStatus
    # the array form of passModel: column-wise matrix, minimise, no offset,
    # every column continuous
    passed = highs.passModel(
        n, m, nnz, _COLWISE, _MINIMIZE, 0.0, np.asarray(prob.c, dtype=float), np.zeros(n),
        col_upper, lower, upper, prob.start, prob.index, prob.value, np.zeros(n, dtype=np.int32),
    )
    if passed == _highs.HighsStatus.kError:
        model_status = status.kModelError
    else:
        if basis is not None:
            # a nonbasic row sits at its right-hand side: HiGHS's upper bound
            # of a <= row; either bound of an = row
            codes = np.zeros(m, dtype=np.int8)  # LOWER
            codes[:n_le] = UPPER
            codes[basis.rows] = BASIC
            start_basis = _highs.HighsBasis()
            start_basis.col_status = _STATUS[basis.cols].tolist()
            start_basis.row_status = _STATUS[codes].tolist()
            start_basis.valid = True
            start_basis.alien = basis.num_basic != m
            if highs.setBasis(start_basis) == _highs.HighsStatus.kError:
                raise LpError("HiGHS rejected the start basis")
        highs.run()
        model_status = highs.getModelStatus()
    if model_status in (status.kInfeasible, status.kModelError):
        raise LpInfeasibleError("LP infeasible (HiGHS)")
    if model_status == status.kUnbounded:
        raise LpUnboundedError("LP unbounded (HiGHS)")
    if model_status != status.kOptimal:
        raise LpError(f"HiGHS failed with model status {highs.modelStatusToString(model_status)}")

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    rows = np.array(solution.row_value)
    tol = _CHECK_TOL
    if not (
        ((x >= -tol) & (x <= col_upper + tol)).all()
        and (upper[:n_le] - rows[:n_le] >= -tol).all()
        and (np.abs(upper[n_le:] - rows[n_le:]) <= tol).all()
    ):
        raise LpError("HiGHS returned an optimum that violates the model")
    return LpSolution(
        objective=float(highs.getObjectiveValue()),
        x=x,
        duals=np.array(solution.row_dual),
        # a single info value: ``getInfo`` would copy the whole HighsInfo
        iterations=int(highs.getInfoValue("simplex_iteration_count")[1]),
        basis=_optimal_basis(highs, prob, x),
    )


_NONBASIC = np.array([LOWER, UPPER], dtype=np.int8)  # by whether the bound is the upper one


def _optimal_basis(highs, prob: LpProblem, x: np.ndarray) -> LpBasis:
    """The basis HiGHS ended with, read as its list of basic variables (a
    numpy array; ``getBasis`` would build one Python object per status).
    A nonbasic variable sits exactly at a bound, so one above half its
    upper bound is at the upper bound."""
    ok, basic = highs.getBasicVariables()
    if ok != _highs.HighsStatus.kOk:
        raise LpError("HiGHS holds no basis for its optimum")
    cols = _NONBASIC[(x > 0.5 * prob.upper).view(np.int8)]
    rows = np.zeros(prob.num_rows, dtype=bool)
    basic_cols = basic >= 0
    cols[basic[basic_cols]] = BASIC
    rows[-1 - basic[~basic_cols]] = True
    return LpBasis(cols, rows)


# ---------------------------------------------------------------------------
# LP text export (CPLEX-style LP format)


def _format_terms(coeffs: Iterable[tuple[str, float]]) -> str:
    parts: list[str] = []
    for name, v in coeffs:
        if v == 0:
            continue
        sign = "-" if v < 0 else "+"
        mag = abs(v)
        term = name if mag == 1 else f"{float(mag)!r} {name}"
        if not parts and sign == "+":
            parts.append(term)
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0 " + "x0"


def write_lp_text(
    objective: Iterable[tuple[str, float]],
    rows: Iterable[tuple[str, list[tuple[str, float]], str, float]],
    binaries: Iterable[str] = (),
    constant: float = 0.0,
) -> str:
    """Render a minimisation in LP text format; rows are (name, terms, rel,
    rhs). Every number is written as ``repr`` writes it, so it reads back
    exactly."""
    lines = ["Minimize",
             " obj: " + _format_terms(objective) + (f" + {float(constant)!r}" if constant else "")]
    lines.append("Subject To")
    for name, terms, rel, rhs in rows:
        op = {LE: "<=", GE: ">=", EQ: "="}[rel]
        lines.append(f" {name}: {_format_terms(terms)} {op} {float(rhs)!r}")
    binaries = list(binaries)
    if binaries:
        lines.append("Binary")
        lines.extend(" " + name for name in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"
