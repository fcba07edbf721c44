"""Thin wrapper: run the row-vs-vector benchmark from the benchmarks/ tree.

The actual logic lives in :mod:`repro.engine.vector.bench` (inside the
installed package, so the ``repro bench`` CLI subcommand can reach it);
this script just forwards, for people who expect ``python
benchmarks/runner.py`` to work::

    PYTHONPATH=src python benchmarks/runner.py --quick
"""

from __future__ import annotations

from repro.engine.vector.bench import (  # noqa: F401  (re-export)
    main,
    run_bench,
)

if __name__ == "__main__":
    raise SystemExit(main())
