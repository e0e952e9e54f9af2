"""Hash the reports of a fixed battery of solves, to check that a change
leaves every report byte-identical.

Run it from the root of a checkout (pytest does not collect it):

    PYTHONPATH=src python tests/report_hashes.py [--out hashes.txt] [--against hashes.txt]

It prints the number of reports, how many solves raised, and one sha256 over
all of them, in battery order. ``--out`` also writes one line per report, its
label and its own sha256. ``--against`` compares each report's sha256 with a
file ``--out`` wrote on another checkout: it prints how many labels differ (a
label only one side has counts too) and the first ten of them, and exits 1 if
any do. A report is hashed as its JSON document without ``wall_time_s``; a
solve that raises is hashed as the type and message of its exception.

The battery (2351 reports):
- RCGA, LB, NRS and the exact oracle, each in ``paper`` and ``min`` mode, and
  PBA, on the benchmark's 200 ``toy-sandwich`` instances and on 60
  ``random_tiny_instance(random.Random(2024))`` draws;
- RCGA in both modes on the 3 ``desk-slack`` instances and on the binding
  instance of ``rcga-binding``;
- NRS, PBA and LB on the binding instance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from conftest import random_tiny_instance  # noqa: E402
from workloads import desk_slack, rcga_binding, toy_configs  # noqa: E402

from mcsp.baselines import run_pba, solve_exact  # noqa: E402
from mcsp.driver import naive_round, run_lower_bound, run_rcga  # noqa: E402
from mcsp.generator import generate_instance  # noqa: E402

BOTH_MODES = {"rcga": run_rcga, "lb": run_lower_bound, "nrs": naive_round, "exact": solve_exact}
TINY_SEED, TINY_DRAWS = 2024, 60


def battery():
    """(label, thunk) for every solve of the battery, in order."""
    rng = random.Random(TINY_SEED)
    tiny = [(f"toy {n}", generate_instance(cfg)) for n, cfg in enumerate(toy_configs())]
    tiny += [(f"tiny {n}", random_tiny_instance(rng)) for n in range(TINY_DRAWS)]
    for name, inst in tiny:
        for algo, solve in BOTH_MODES.items():
            for mode in ("paper", "min"):
                yield f"{name} {algo} {mode}", lambda s=solve, i=inst, m=mode: s(i, m)
        yield f"{name} pba", lambda i=inst: run_pba(i)
    binding = rcga_binding()[0]
    for case in [*desk_slack(), binding]:
        for mode in ("paper", "min"):
            yield f"{case.name} rcga {mode}", lambda i=case.instance, m=mode: run_rcga(i, m)
    inst = binding.instance
    for algo, solve in (("nrs", naive_round), ("pba", run_pba), ("lb", run_lower_bound)):
        yield f"{binding.name} {algo}", lambda s=solve: s(inst)


def report_bytes(solve) -> tuple[bytes, bool]:
    """What is hashed of a solve, and whether it raised."""
    try:
        doc = solve().to_dict()
    except Exception as exc:  # a solve that raises is part of what is compared
        return f"{type(exc).__name__}: {exc}".encode(), True
    doc.pop("wall_time_s")
    return json.dumps(doc, sort_keys=True).encode(), False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write each report's label and sha256 here")
    parser.add_argument("--against", help="compare each report's sha256 with this --out file")
    args = parser.parse_args(argv)
    total, digests, raised = hashlib.sha256(), {}, 0
    for label, solve in battery():
        data, failed = report_bytes(solve)
        digests[label] = hashlib.sha256(data).hexdigest()
        total.update(digests[label].encode())
        raised += failed
    if args.out:
        Path(args.out).write_text("".join(f"{label}\t{digest}\n" for label, digest in digests.items()),
                                  encoding="utf-8")
    print(f"{len(digests)} reports ({raised} raised), sha256 {total.hexdigest()}")
    if args.against:
        text = Path(args.against).read_text(encoding="utf-8")
        theirs = dict(line.split("\t") for line in text.splitlines())
        labels = [label for label in {**digests, **theirs}
                  if digests.get(label) != theirs.get(label)]
        print(f"{len(labels)} differ from {args.against}"
              + "".join(f"\n  {label}" for label in labels[:10]))
        return 1 if labels else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
