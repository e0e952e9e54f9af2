"""Run one benchmark workload and print its metrics as the last line.

    python3 bench/run.py --workload desk-slack --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports the program from ``src/`` there
and reads the metric names and units from ``BENCHMARK.json``. See
``harness.py`` for what a run does.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1, help="orders the cases of a round")
    p.add_argument("--seconds", type=float, default=10.0, help="least time spent solving")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mcsp" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run from the root of a checkout: {src / 'mcsp'} or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import harness

    return harness.run(args, spec, STARTED)


if __name__ == "__main__":
    sys.exit(main())
