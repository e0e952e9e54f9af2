"""A traced solve can be written out: every span the benchmark's tracer
(``bench/spans.py``) records is plain JSON, as ``bench/run.py --trace 1``
writes it. A span attribute of a numpy type (an ``np.int64`` count, say)
fails here instead of only in a traced benchmark run."""

import json
import random
import sys
from pathlib import Path

from mcsp import driver

from conftest import random_tiny_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from spans import Tracer  # noqa: E402


def test_traced_spans_are_json():
    """One RCGA and one NRS solve of a tiny instance, traced: each span goes
    through ``json.dumps`` and back unchanged. The instance makes pricing
    return columns and RCGA round, so the pricing, master, capacity check,
    LP and rounding spans all carry attributes."""
    inst = random_tiny_instance(random.Random(1))
    tracer = Tracer()
    tracer.install()
    try:
        for solve in (driver.run_rcga, driver.naive_round):
            with tracer.root("solve"):
                solve(inst)
    finally:
        tracer.uninstall()
    for span in tracer.spans:
        assert json.loads(json.dumps(span.to_list())) == span.to_list(), span.name
    names = {span.name for span in tracer.spans}
    assert {"pricing.price_all", "pricing.price", "rmp.build", "rmp.capacity_check",
            "simplex.solve_lp", "rounding.round"} <= names
    assert sum(span.attrs.get("returned", 0) for span in tracer.spans) > 0
