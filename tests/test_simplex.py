import random

import numpy as np
import pytest

from scipy.optimize import linprog

from mcsp.simplex import (
    BASIC,
    EQ,
    LE,
    LOWER,
    LpBasis,
    LpError,
    LpInfeasibleError,
    LpProblem,
    LpUnboundedError,
    solve_lp,
)

from conftest import all_capacity_rows, use_highs
from reference import (
    a_matrix, add_column, build_lp, dual_objective, max_primal_violation, reduced_costs)


def _assert_basic(prob: LpProblem, sol, tol: float = 1e-7) -> None:
    """The optimum is a vertex, as a simplex method returns: the variables
    strictly inside their bounds have linearly independent columns in the
    rows that hold with equality."""
    x = sol.x
    free = np.nonzero((x > tol) & (x < prob.upper - tol))[0]
    ax = a_matrix(prob) @ x
    tight = np.nonzero(
        (np.arange(prob.num_rows) >= prob.num_le) | (np.abs(ax - prob.b) <= tol)
    )[0]
    sub = a_matrix(prob).toarray()[np.ix_(tight, free)]
    assert np.linalg.matrix_rank(sub) == len(free)


def _linprog_reference(prob: LpProblem):
    """The same LP through scipy's public linprog front end to HiGHS, with
    its row marginals mapped onto the module's dual convention."""
    a, k, m = a_matrix(prob).toarray(), prob.num_le, prob.num_rows
    res = linprog(
        prob.c,
        A_ub=a[:k] if k else None,
        b_ub=prob.b[:k] if k else None,
        A_eq=a[k:] if k < m else None,
        b_eq=prob.b[k:] if k < m else None,
        bounds=[(0.0, None if np.isinf(u) else u) for u in prob.upper],
        method="highs",
    )
    duals = np.zeros(m)
    if res.status == 0:
        if k:
            duals[:k] = res.ineqlin.marginals
        if k < m:
            duals[k:] = res.eqlin.marginals
    return res, duals


@pytest.fixture(params=["simplex", "highs", "highs-linprog"])
def solve(request):
    """solve_lp with one extra check per variant: "simplex" that an optimum
    is a basic solution, "highs-linprog" that scipy's linprog reaches the
    same outcome, objective and row duals, "highs" none beyond the test's."""

    def run(prob: LpProblem):
        try:
            sol = solve_lp(prob)
        except LpError as exc:
            if request.param == "highs-linprog":
                expected = {LpInfeasibleError: 2, LpUnboundedError: 3}[type(exc)]
                assert _linprog_reference(prob)[0].status == expected
            raise
        if request.param == "simplex":
            _assert_basic(prob, sol)
        elif request.param == "highs-linprog":
            res, duals = _linprog_reference(prob)
            assert res.status == 0
            assert sol.objective == pytest.approx(res.fun, abs=1e-9)
            assert sol.duals == pytest.approx(duals, abs=1e-9)
        return sol

    return run


def test_pure_bounds(solve):
    prob = build_lp(c=[-1.0], rows=[], upper=[1.0])
    sol = solve(prob)
    assert sol.objective == pytest.approx(-1.0)
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.duals.size == 0


def test_textbook_cover_row_dual(solve):
    # min v1 + v2 s.t. v1 + v2 >= 1, written -v1 - v2 <= -1: objective 1,
    # row dual -1
    prob = build_lp(
        c=[1.0, 1.0], rows=[({0: -1.0, 1: -1.0}, LE, -1.0)], upper=[1.0, 1.0]
    )
    sol = solve(prob)
    assert sol.objective == pytest.approx(1.0)
    assert sol.duals[0] == pytest.approx(-1.0)


def test_dual_sign_convention_pinned(solve):
    """Frozen convention: rc_j = c_j - sum_rows dual * a; at a minimum the
    duals of <= rows are nonpositive."""
    prob = build_lp(
        c=[-2.0, -1.0],
        rows=[
            ({0: 1.0, 1: 1.0}, LE, 3.0),
            ({0: 1.0}, LE, 2.0),
            ({1: -1.0}, LE, -0.5),  # v2 >= 0.5
        ],
    )
    sol = solve(prob)
    assert sol.objective == pytest.approx(-5.0)
    assert sol.x[0] == pytest.approx(2.0) and sol.x[1] == pytest.approx(1.0)
    assert sol.duals[0] == pytest.approx(-1.0)
    assert sol.duals[1] == pytest.approx(-1.0)
    assert sol.duals[2] == pytest.approx(0.0, abs=1e-9)
    rc = reduced_costs(sol, prob)
    assert np.all(rc >= -1e-7)  # dual feasibility in the pinned convention


def test_equality_rows(solve):
    # roomy bounds keep the optimal vertex non-degenerate so the dual is unique
    prob = build_lp(
        c=[1.0, 2.0], rows=[({0: 1.0, 1: 1.0}, EQ, 1.0)], upper=[2.0, 2.0]
    )
    sol = solve(prob)
    assert sol.objective == pytest.approx(1.0)
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.duals[0] == pytest.approx(1.0)  # rc of v1 must vanish


def test_infeasible(solve):
    prob = build_lp(
        c=[1.0], rows=[({0: -1.0}, LE, -2.0)], upper=[1.0]  # v >= 2
    )
    with pytest.raises(LpInfeasibleError):
        solve(prob)


def test_unbounded_simplex():
    prob = build_lp(c=[-1.0], rows=[])
    with pytest.raises(LpUnboundedError):
        solve_lp(prob)


def test_degenerate_lp_terminates():
    # many redundant rows through the same vertex
    rows = [({0: 1.0, 1: 1.0}, LE, 1.0) for _ in range(12)]
    rows.append(({0: 1.0}, LE, 1.0))
    prob = build_lp(c=[-1.0, -0.5], rows=rows)
    sol = solve_lp(prob)
    assert sol.objective == pytest.approx(-1.0)


def _random_lp(rng: random.Random):
    """A random LP with <= and = rows, the <= rows first."""
    n = rng.randint(1, 7)
    m = rng.randint(0, 6)
    c = [rng.uniform(-5, 5) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = {
            j: rng.uniform(-4, 4) for j in range(n) if rng.random() < 0.7
        }
        if not coeffs:
            coeffs = {rng.randrange(n): 1.0}
        rel = rng.choice([LE, EQ])
        rhs = rng.uniform(-3, 6)
        rows.append((coeffs, rel, rhs))
    rows.sort(key=lambda row: row[1] == EQ)
    upper = [rng.choice([1.0, 2.5, None]) for _ in range(n)]
    if all(u is None for u in upper):
        upper[0] = 1.0
    return build_lp(c=c, rows=rows, upper=upper)


def test_certificates_on_random_lps():
    """Every optimum is primal feasible and matches its dual objective
    (strong duality, bound prices included)."""
    rng = random.Random(2024)
    solved = 0
    for _ in range(120):
        prob = _random_lp(rng)
        try:
            sol = solve_lp(prob)
        except (LpInfeasibleError, LpUnboundedError):
            continue
        solved += 1
        assert max_primal_violation(sol, prob) <= 1e-7
        assert dual_objective(sol, prob) == pytest.approx(sol.objective, abs=1e-6, rel=1e-6)
    assert solved >= 25


def test_complementary_slackness_and_reduced_costs():
    rng = random.Random(7)
    for _ in range(60):
        prob = _random_lp(rng)
        try:
            sol = solve_lp(prob)
        except (LpInfeasibleError, LpUnboundedError):
            continue
        rc = reduced_costs(sol, prob)
        ax = a_matrix(prob) @ sol.x
        for i in range(prob.num_rows):
            slack = abs(prob.b[i] - ax[i])
            if abs(sol.duals[i]) > 1e-7:
                assert slack <= 1e-6  # nonzero dual only on binding rows
        for j in range(prob.num_vars):
            interior = 1e-7 < sol.x[j] < prob.upper[j] - 1e-7
            if interior:
                assert abs(rc[j]) <= 1e-6  # basic variables price to zero


def test_deterministic_resolve():
    rng = random.Random(5)
    solved = 0
    while solved < 5:
        prob = _random_lp(rng)
        try:
            a = solve_lp(prob)
        except (LpInfeasibleError, LpUnboundedError):
            continue
        b = solve_lp(prob)
        assert np.array_equal(a.x, b.x) and a.iterations == b.iterations
        solved += 1


def test_random_lps_and_masters_reach_every_status():
    """Random LPs end optimal, infeasible or unbounded, each reported as
    such; sampled masters solve to optimality;
    a master no schedule can satisfy raises LpInfeasibleError, which the
    naive rounding's wedge detection relies on."""
    import dataclasses

    from conftest import random_tiny_instance
    from mcsp.columns import ColumnPool, enumerate_columns
    from mcsp.instance import build_request_index
    from mcsp.rmp import build_rmp

    rng = random.Random(11)
    statuses = set()
    for _ in range(150):
        prob = _random_lp(rng)
        try:
            solve_lp(prob)
            statuses.add("optimal")
        except (LpInfeasibleError, LpUnboundedError) as exc:
            statuses.add(type(exc))
    assert statuses == {"optimal", LpInfeasibleError, LpUnboundedError}

    for _ in range(20):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(idx, "paper")
        columns = enumerate_columns(inst.horizon)
        for key in pool.pairs:
            for col in rng.sample(columns, rng.randint(0, len(columns))):
                add_column(pool, *key, col)
        model = build_rmp(pool, all_capacity_rows(inst))
        solve_lp(model.problem)  # raises unless optimal
    # no cache may hold a negative amount: the last master is infeasible
    b = model.problem.b.copy()
    b[model.starts[2] : model.starts[3]] = -1.0
    with pytest.raises(LpInfeasibleError):
        solve_lp(dataclasses.replace(model.problem, b=b))


def test_resolve_from_optimal_basis_takes_no_iterations():
    """Started from the basis its own solve returned, an LP with <= and =
    rows re-solves to the same optimum in 0 iterations: the basic rows map
    onto HiGHS's statuses and back."""
    rng = random.Random(31)
    solved = 0
    for _ in range(150):
        prob = _random_lp(rng)
        try:
            sol = solve_lp(prob)
        except (LpInfeasibleError, LpUnboundedError):
            continue
        assert sol.basis.num_basic == prob.num_rows
        assert sol.basis.rows.dtype == bool
        again = solve_lp(prob, sol.basis)
        assert again.iterations == 0
        assert again.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)
        assert np.array_equal(again.basis.cols, sol.basis.cols)
        assert np.array_equal(again.basis.rows, sol.basis.rows)
        solved += 1
    assert solved >= 25


def test_start_basis_with_wrong_basic_count_solves():
    """A start basis with too many or too few basic entries is repaired, not
    rejected, and the solve reaches the cold optimum."""
    rng = random.Random(32)
    solved = 0
    for _ in range(100):
        prob = _random_lp(rng)
        try:
            cold = solve_lp(prob)
        except (LpInfeasibleError, LpUnboundedError):
            continue
        n, m = prob.num_vars, prob.num_rows
        for start in (LpBasis(np.full(n, BASIC, np.int8), np.ones(m, dtype=bool)),
                      LpBasis(np.full(n, LOWER, np.int8), np.zeros(m, dtype=bool))):
            if start.num_basic == m:
                continue
            warm = solve_lp(prob, start)
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert max_primal_violation(warm, prob) <= 1e-7
            solved += 1
    assert solved >= 25


def _alien_and_not(monkeypatch, prob, start):
    """Solve ``prob`` from ``start`` as solve_lp passes it, then again with
    the start basis forced to HiGHS's alien kind."""
    from mcsp import simplex

    passed = []

    class Recording(simplex._highs._Highs):
        def setBasis(self, basis):
            passed.append(basis.alien)
            return super().setBasis(basis)

    class Alien(simplex._highs._Highs):
        def setBasis(self, basis):
            basis.alien = True
            return super().setBasis(basis)

    with monkeypatch.context() as patch:
        use_highs(patch, Recording)
        plain = solve_lp(prob, start)
        use_highs(patch, Alien)
        alien = solve_lp(prob, start)
    assert passed == [start.num_basic != prob.num_rows]
    return plain, alien


def test_complete_start_basis_solves_alike_alien_or_not(monkeypatch):
    """A complete start basis (as many basic entries as rows) is passed as a
    valid basis, not an alien one; forced alien, the solve gives the same x,
    duals and iterations. The starts are optimal bases of a random LP with
    perturbed costs, and the mapped bases of masters whose pools grew."""
    from conftest import random_tiny_instance
    from mcsp.columns import ColumnPool, enumerate_columns
    from mcsp.instance import build_request_index
    from mcsp.rmp import MasterBasis, build_rmp

    def assert_alike(prob, start):
        assert start.num_basic == prob.num_rows
        plain, alien = _alien_and_not(monkeypatch, prob, start)
        assert np.array_equal(plain.x, alien.x)
        assert np.array_equal(plain.duals, alien.duals)
        assert plain.iterations == alien.iterations

    rng = random.Random(33)
    lps = 0
    for _ in range(150):
        prob = _random_lp(rng)
        shifted = LpProblem(**{**vars(prob), "c": prob.c + np.array(
            [rng.uniform(-2, 2) for _ in range(prob.num_vars)])})
        try:
            start = solve_lp(shifted).basis
            solve_lp(prob)
        except (LpInfeasibleError, LpUnboundedError):
            continue
        assert_alike(prob, start)
        lps += 1
    assert lps >= 25

    masters = 0
    for _ in range(30):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(idx, "paper")
        basis = MasterBasis()
        first = build_rmp(pool, all_capacity_rows(inst))
        basis.record(first, solve_lp(first.problem).basis)
        columns = enumerate_columns(inst.horizon)
        for key in pool.pairs:
            for col in rng.sample(columns, rng.randint(0, len(columns))):
                add_column(pool, *key, col)
        model = build_rmp(pool, all_capacity_rows(inst))
        assert_alike(model.problem, basis.start(model))
        masters += 1
    assert masters == 30


def test_complete_singular_start_basis_solves():
    """A complete start basis whose basis matrix is singular (a column and
    its copy both basic) still solves, to the cold optimum."""
    rng = random.Random(34)
    solved = 0
    for _ in range(200):
        prob = _random_lp(rng)
        m, n = prob.num_rows, prob.num_vars
        lo, hi = prob.start[0], prob.start[1]
        if m < 2 or hi == lo:
            continue
        twin = LpProblem(
            c=np.append(prob.c, prob.c[0]),
            start=np.append(prob.start, prob.start[-1] + hi - lo).astype(np.int32),
            index=np.concatenate([prob.index, prob.index[lo:hi]]),
            value=np.concatenate([prob.value, prob.value[lo:hi]]),
            num_le=prob.num_le, b=prob.b, upper=np.append(prob.upper, prob.upper[0]),
        )
        try:
            cold = solve_lp(twin)
        except (LpInfeasibleError, LpUnboundedError):
            continue
        cols = np.full(n + 1, LOWER, np.int8)
        cols[[0, n]] = BASIC
        rows = np.ones(m, dtype=bool)
        rows[:2] = False
        start = LpBasis(cols, rows)
        assert start.num_basic == m
        warm = solve_lp(twin, start)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        assert max_primal_violation(warm, twin) <= 1e-7
        solved += 1
    assert solved >= 20


def test_objective_and_iterations_equal_the_whole_info(monkeypatch):
    """``solve_lp`` reads the objective and the iteration count as single
    values; on cold and warm solves of masters of random tiny instances they
    equal the fields of the whole ``HighsInfo`` that ``getInfo`` copies."""
    from mcsp import simplex
    from mcsp.columns import ColumnPool, enumerate_columns
    from mcsp.instance import build_request_index
    from mcsp.rmp import build_rmp

    from conftest import random_tiny_instance

    infos = []

    class Recording(simplex._highs._Highs):
        def run(self):
            status = super().run()
            infos.append(self.getInfo())
            return status

    use_highs(monkeypatch, Recording)
    rng = random.Random(5)
    iterations = set()
    for _ in range(30):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(idx, "paper")
        cold = solve_lp(build_rmp(pool, all_capacity_rows(inst)).problem)
        for key in pool.pairs:
            for col in rng.sample(enumerate_columns(inst.horizon), 2):
                add_column(pool, *key, col)
        problem = build_rmp(pool, all_capacity_rows(inst)).problem
        grown = solve_lp(problem)
        warm = solve_lp(problem, grown.basis)
        for sol, info in zip((cold, grown, warm), infos[-3:]):
            assert sol.objective == info.objective_function_value
            assert sol.iterations == info.simplex_iteration_count
            iterations.add(sol.iterations)
    assert len(infos) == 90 and 0 in iterations and len(iterations) > 5


def test_kept_handle_solves_as_a_fresh_handle(monkeypatch):
    """The masters and start bases of RCGA solves of random tiny instances,
    solved in turn on the kept handle, give the x, duals, basis, objective
    and iterations of a fresh handle bit for bit. Between them run an
    infeasible LP, a start basis HiGHS rejects, and a model above
    ``KEEP_NNZ``, which goes to a fresh handle and leaves the kept one
    holding the master before it."""
    from conftest import random_tiny_instance
    from mcsp import rmp, simplex
    from mcsp.driver import run_rcga

    masters = []

    def recording(prob, basis=None):
        masters.append((prob, basis))
        return solve_lp(prob, basis)

    with monkeypatch.context() as patch:
        patch.setattr(rmp, "solve_lp", recording)
        rng = random.Random(36)
        for _ in range(8):
            run_rcga(random_tiny_instance(rng), rng.choice(["paper", "min"]))
    assert len(masters) >= 40 and any(basis is not None for _, basis in masters)
    assert max(len(prob.value) for prob, _ in masters) <= simplex.KEEP_NNZ

    def fresh(prob, basis):
        with monkeypatch.context() as patch:
            patch.setattr(simplex, "KEEP_NNZ", -1)
            return solve_lp(prob, basis)

    # v1 + v2 >= 3 and v1 + v2 >= 1, written as negated <= rows
    infeasible = build_lp(c=[1.0, 1.0], rows=[({0: -1.0, 1: -1.0}, LE, -3.0)], upper=[1.0, 1.0])
    cover = build_lp(c=[1.0, 1.0], rows=[({0: -1.0, 1: -1.0}, LE, -1.0)], upper=[1.0, 1.0])
    short = LpBasis(np.array([LOWER], dtype=np.int8), np.array([True]))
    m = n = 48  # a dense LP above the limit
    large = build_lp(
        c=[-rng.uniform(0.5, 1.5) for _ in range(n)],
        rows=[({j: rng.uniform(0.1, 1.0) for j in range(n)}, LE, rng.uniform(5, 10))
              for _ in range(m)],
        upper=[1.0] * n,
    )
    assert len(large.value) > simplex.KEEP_NNZ
    large_want = fresh(large, None)
    for k, (prob, basis) in enumerate(masters):
        got = solve_lp(prob, basis)
        handle = simplex._kept
        want = fresh(prob, basis)
        assert simplex._kept is handle
        for got_array, want_array in ((got.x, want.x), (got.duals, want.duals),
                                      (got.basis.cols, want.basis.cols),
                                      (got.basis.rows, want.basis.rows)):
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes()
        assert (got.objective, got.iterations) == (want.objective, want.iterations)
        if k % 3 == 0:
            with pytest.raises(LpInfeasibleError):
                solve_lp(infeasible)
        elif k % 3 == 1:
            with pytest.raises(LpError, match="rejected the start basis"):
                solve_lp(cover, short)
        else:
            large_got = solve_lp(large)
            assert large_got.x.tobytes() == large_want.x.tobytes()
            assert large_got.iterations == large_want.iterations
            assert simplex._kept is handle
            assert (handle.getNumCol(), handle.getNumRow(), handle.getNumNz()) == (
                prob.num_vars, prob.num_rows, len(prob.value))
            assert np.array(handle.getSolution().col_value).tobytes() == got.x.tobytes()
