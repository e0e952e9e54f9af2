import random

import numpy as np
import pytest

from mcsp import simplex
from mcsp.simplex import (
    EQ,
    GE,
    LE,
    LpInfeasibleError,
    LpProblem,
    LpUnboundedError,
    export_lp,
    solve_lp,
)


@pytest.fixture(params=["simplex", "highs", "highs-linprog"])
def backend(request, monkeypatch):
    """A backend name for solve_lp; "highs-linprog" is HiGHS reached through
    linprog, as on a scipy without the private HiGHS bindings."""
    if request.param == "highs-linprog":
        monkeypatch.setattr(simplex, "_highs", None)
        return "highs"
    return request.param


def test_pure_bounds(backend):
    prob = LpProblem.build(c=[-1.0], rows=[], upper=[1.0])
    sol = solve_lp(prob, backend=backend)
    assert sol.objective == pytest.approx(-1.0)
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.duals.size == 0


def test_textbook_cover_row_dual(backend):
    # min v1 + v2 s.t. v1 + v2 >= 1: objective 1, row dual 1
    prob = LpProblem.build(
        c=[1.0, 1.0], rows=[({0: 1.0, 1: 1.0}, GE, 1.0)], upper=[1.0, 1.0]
    )
    sol = solve_lp(prob, backend=backend)
    assert sol.objective == pytest.approx(1.0)
    assert sol.duals[0] == pytest.approx(1.0)


def test_dual_sign_convention_pinned(backend):
    """Frozen convention: rc_j = c_j - sum_rows dual * a; at a minimum the
    duals of <= rows are nonpositive and of >= rows nonnegative."""
    prob = LpProblem.build(
        c=[-2.0, -1.0],
        rows=[
            ({0: 1.0, 1: 1.0}, LE, 3.0),
            ({0: 1.0}, LE, 2.0),
            ({1: 1.0}, GE, 0.5),
        ],
    )
    sol = solve_lp(prob, backend=backend)
    assert sol.objective == pytest.approx(-5.0)
    assert sol.x[0] == pytest.approx(2.0) and sol.x[1] == pytest.approx(1.0)
    assert sol.duals[0] == pytest.approx(-1.0)
    assert sol.duals[1] == pytest.approx(-1.0)
    assert sol.duals[2] == pytest.approx(0.0, abs=1e-9)
    rc = sol.reduced_costs(prob)
    assert np.all(rc >= -1e-7)  # dual feasibility in the pinned convention


def test_equality_rows(backend):
    # roomy bounds keep the optimal vertex non-degenerate so the dual is unique
    prob = LpProblem.build(
        c=[1.0, 2.0], rows=[({0: 1.0, 1: 1.0}, EQ, 1.0)], upper=[2.0, 2.0]
    )
    sol = solve_lp(prob, backend=backend)
    assert sol.objective == pytest.approx(1.0)
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.duals[0] == pytest.approx(1.0)  # rc of v1 must vanish


def test_infeasible(backend):
    prob = LpProblem.build(
        c=[1.0], rows=[({0: 1.0}, GE, 2.0)], upper=[1.0]
    )
    with pytest.raises(LpInfeasibleError):
        solve_lp(prob, backend=backend)


def test_unbounded_simplex():
    prob = LpProblem.build(c=[-1.0], rows=[])
    with pytest.raises(LpUnboundedError):
        solve_lp(prob, backend="simplex")


def test_degenerate_lp_terminates():
    # many redundant rows through the same vertex
    rows = [({0: 1.0, 1: 1.0}, LE, 1.0) for _ in range(12)]
    rows.append(({0: 1.0}, LE, 1.0))
    prob = LpProblem.build(c=[-1.0, -0.5], rows=rows)
    sol = solve_lp(prob, backend="simplex")
    assert sol.objective == pytest.approx(-1.0)


def _random_lp(rng: random.Random):
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
        rel = rng.choice([LE, GE, EQ])
        rhs = rng.uniform(-3, 6)
        rows.append((coeffs, rel, rhs))
    upper = [rng.choice([1.0, 2.5, None]) for _ in range(n)]
    if all(u is None for u in upper):
        upper[0] = 1.0
    return LpProblem.build(c=c, rows=rows, upper=upper)


def test_cross_backend_agreement():
    """The dense simplex and HiGHS agree on objective and certificates."""
    rng = random.Random(2024)
    solved = 0
    for _ in range(120):
        prob = _random_lp(rng)
        try:
            ours = solve_lp(prob, backend="simplex")
        except LpInfeasibleError:
            with pytest.raises(LpInfeasibleError):
                solve_lp(prob, backend="highs")
            continue
        except LpUnboundedError:
            with pytest.raises((LpUnboundedError, LpInfeasibleError)):
                solve_lp(prob, backend="highs")
            continue
        ref = solve_lp(prob, backend="highs")
        assert ours.objective == pytest.approx(ref.objective, abs=1e-6, rel=1e-6)
        solved += 1
        for sol in (ours, ref):
            assert sol.max_primal_violation(prob) <= 1e-7
            # strong duality within tolerance
            assert sol.dual_objective(prob) == pytest.approx(sol.objective, abs=1e-6, rel=1e-6)
    assert solved >= 25


def test_complementary_slackness_and_reduced_costs():
    rng = random.Random(7)
    for _ in range(60):
        prob = _random_lp(rng)
        try:
            sol = solve_lp(prob, backend="simplex")
        except (LpInfeasibleError, LpUnboundedError):
            continue
        rc = sol.reduced_costs(prob)
        ax = prob.a_matrix @ sol.x
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
            a = solve_lp(prob, backend="simplex")
        except (LpInfeasibleError, LpUnboundedError):
            continue
        b = solve_lp(prob, backend="simplex")
        assert np.array_equal(a.x, b.x) and a.iterations == b.iterations
        solved += 1


def test_export_lp_text(tmp_path):
    prob = LpProblem.build(
        c=[1.0, 1.0], rows=[({0: 1.0, 1: 1.0}, GE, 1.0)], upper=[1.0, 1.0],
        names=["u", "v"],
    )
    path = tmp_path / "m.lp"
    export_lp(prob, path)
    text = path.read_text()
    assert "Minimize" in text and "Subject To" in text and "End" in text
    assert "u + v >= 1" in text
    assert "0 <= u <= 1" in text


def _highs_both_ways(prob, monkeypatch):
    """The outcome of HiGHS on ``prob`` through the bindings and through
    linprog: (objective, x, duals, iterations) or the error class."""
    outcomes = []
    for fallback in (False, True):
        with monkeypatch.context() as m:
            if fallback:
                m.setattr(simplex, "_highs", None)
            try:
                sol = solve_lp(prob, backend="highs")
            except simplex.LpError as exc:
                outcomes.append(type(exc))
            else:
                outcomes.append((sol.status, sol.objective, sol.x.tolist(), sol.duals.tolist(),
                                 sol.iterations))
    return outcomes


def test_highs_bindings_match_linprog(monkeypatch):
    """HiGHS through scipy's bindings and through linprog gives the same
    status, objective, primal, duals and iteration count to the last bit, on
    random LPs with all three relations, on sampled masters and on an
    infeasible master."""
    import dataclasses

    from conftest import random_tiny_instance
    from mcsp.columns import ColumnPool, enumerate_columns
    from mcsp.instance import build_request_index
    from mcsp.rmp import build_rmp

    assert simplex._highs is not None  # scipy 1.17 ships the bindings
    rng = random.Random(11)
    problems = [_random_lp(rng) for _ in range(150)]
    for _ in range(20):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(inst, idx, "paper")
        columns = enumerate_columns(inst.horizon)
        for key in list(pool.entries):
            for col in rng.sample(columns, rng.randint(0, len(columns))):
                pool.add(*key, col)
        model = build_rmp(pool, inst, idx)
        problems.append(model.problem)
    # no cache may hold a negative amount: the last master is infeasible
    b = model.problem.b.copy()
    b[model.starts[2] : model.starts[3]] = -1.0
    problems.append(dataclasses.replace(model.problem, b=b))

    statuses = set()
    for prob in problems:
        direct, fallback = _highs_both_ways(prob, monkeypatch)
        assert direct == fallback
        statuses.add(direct if isinstance(direct, type) else direct[0])
    assert _highs_both_ways(problems[-1], monkeypatch)[0] is LpInfeasibleError
    assert {"optimal", LpInfeasibleError, LpUnboundedError} <= statuses
