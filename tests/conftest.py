import random
from pathlib import Path

import numpy as np
import pytest

from mcsp.generator import GeneratorConfig, Topology, generate_instance
from mcsp.instance import Instance, build_request_index, load_instance
from mcsp.rmp import CapacityRows, DualPrices
from reference import explicit_duals

DATA = Path(__file__).parent / "data"

TWO_CELL = Topology(num_servers=2, edges=((1, 2),), triples=())


@pytest.fixture(scope="session")
def tiny1() -> Instance:
    """Canonical 1-server, 1-content, 2-slot fixture with one SCR; optimum 3."""
    return load_instance(DATA / "tiny1.json")


@pytest.fixture(scope="session")
def tiny1_idx(tiny1):
    return build_request_index(tiny1)


def random_tiny_config(rng: random.Random, horizon_max: int = 4) -> GeneratorConfig:
    """Small two-cell instances used by the oracle suites."""
    num_requests = rng.randint(0, 10)
    return GeneratorConfig(
        cells="custom",
        custom_topology=TWO_CELL,
        num_contents=rng.randint(1, 3),
        num_requests=num_requests,
        horizon=rng.randint(1, horizon_max),
        rho_m=rng.choice([0.0, 0.3, 0.5]) if num_requests else 0.0,
        rho_tt=0.0,
        rho_b=rng.choice([0.3, 0.6, 1.0]),
        cache_scale=rng.choice([0.5, 1.0]),
        size_range=(1, 4),
        window_max=rng.randint(0, 2),
        seed=rng.randrange(2**63),
    )


def random_tiny_instance(rng: random.Random, horizon_max: int = 4) -> Instance:
    return generate_instance(random_tiny_config(rng, horizon_max))


def random_duals(rng: random.Random, inst, pi_lo=-3.0, pi_hi=3.0, lam_hi=50.0) -> DualPrices:
    """Uniform random duals of ``inst``'s master rows: a pi per MCR service,
    a mu and a phi per (server, slot), a lambda per (server, content), drawn
    in that order. They are drawn wider than a master solve gives, on
    purpose."""
    pi, mu, phi, lam = {}, {}, {}, {}
    for r in inst.requests:
        if not r.is_mcr:
            continue
        for h in r.candidates:
            for a in range(r.deadline):
                pi[(r.id, h, a)] = rng.uniform(pi_lo, pi_hi)
    for h in range(1, inst.num_servers + 1):
        for t in range(1, inst.horizon + 1):
            mu[(h, t)] = rng.uniform(0.0, 3.0)
            phi[(h, t)] = rng.uniform(0.0, 3.0)
        for i in range(1, inst.num_contents + 1):
            lam[(h, i)] = rng.uniform(0.0, lam_hi)
    return explicit_duals(build_request_index(inst), pi=pi, mu=mu, phi=phi, lam=lam)


def all_capacity_rows(inst) -> CapacityRows:
    """The ``CapacityRows`` that holds every cache and backhaul row of
    ``inst``: a master built with it is the full master."""
    rows = CapacityRows(inst)
    rows.held[:, 1:, 1:] = True
    return rows


def by_pair(candidates, pairs) -> dict:
    """The ``Candidates`` of a pricing round as {(h, i): (column, path
    value)}, ``pairs`` numbering the pairs."""
    return {pairs[k]: (tuple(zip(*flags.view(np.uint8).tolist())), float(value))
            for k, flags, value in zip(candidates.keys.tolist(), candidates.flags,
                                       candidates.values)}


_MODEL_ARRAYS = ("c", "col_lower", "col_upper", "lower", "upper", "start", "index", "value")


def use_highs(patch, cls) -> None:
    """Make every HiGHS handle ``solve_lp`` solves on from now an instance
    of ``cls``, a subclass of ``_Highs``: swap it in where ``simplex`` makes
    its handles, and drop the kept handle so that the next small model makes
    a new one. ``patch`` (a monkeypatch) restores both."""
    from mcsp import simplex

    patch.setattr(simplex._highs, "_Highs", cls)
    patch.setattr(simplex, "_kept", None)


@pytest.fixture
def highs_calls(monkeypatch):
    """A list that every HiGHS handle ``solve_lp`` solves on during the test
    appends to, in call order: for each passModel a dict of the arrays it
    got (keyed as ``reference.highs_model`` keys them, plus ``shape``, the
    column, row and nonzero counts), for each setBasis the row statuses."""
    from mcsp import simplex

    calls = []

    class Recording(simplex._highs._Highs):
        def passModel(self, n, m, nnz, fmt, sense, offset, c, col_lower, col_upper, lower,
                      upper, start, index, value, integrality):
            arrays = (c, col_lower, col_upper, lower, upper, start, index, value)
            calls.append(dict(zip(_MODEL_ARRAYS, map(np.array, arrays)), shape=(n, m, nnz)))
            return super().passModel(n, m, nnz, fmt, sense, offset, c, col_lower, col_upper,
                                     lower, upper, start, index, value, integrality)

        def setBasis(self, basis):
            calls.append([int(status) for status in basis.row_status])
            return super().setBasis(basis)

    use_highs(monkeypatch, Recording)
    return calls


def assert_highs_model(got: dict, want: dict) -> None:
    """A model ``highs_calls`` recorded equals ``reference.highs_model``'s
    arrays bit for bit, with int32 indices and zero lower bounds."""
    assert got["shape"] == (len(want["c"]), len(want["upper"]), len(want["value"]))
    assert got["start"].dtype == got["index"].dtype == np.int32
    for name in _MODEL_ARRAYS:
        if name != "col_lower":
            assert np.array_equal(got[name], want[name]), name
    assert not got["col_lower"].any()
