"""End-to-end benchmark: SQL text in, rows out, checked against sqlite.

Run from the root of a checkout::

    python3 perfbench/run.py --workload olap-vector --seed 1 --seconds 11 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans go to ``perfbench/out/``).  The run
context and the per-template failure counts are printed first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="fact-table size factor (the smoke test uses a tiny one)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2

    import drive

    if args.workload not in drive.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(drive.WORKLOADS), file=sys.stderr)
        return 2
    drive.prepare_environment(ROOT)
    result, details = drive.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}")
    print("failures by template:", json.dumps(details["failures_by_template"]))
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
