"""The backend-equivalence harness, run in its quick configuration.

One test, broad net: every workload (including the NULL-infested variant)
times every executor configuration, row backend vs. vector backend,
compared under ``=ⁿ`` multiset semantics plus ordering metadata plus the
per-operator stats signature.  Any divergence fails with the offending
case's label.
"""

from repro.engine.vector.differential import failures, run_differential


def test_every_case_equivalent_across_backends():
    results = run_differential(quick=True)
    assert results, "harness produced no comparisons"
    broken = failures(results)
    assert not broken, "backends diverge on: " + ", ".join(
        "{} [{}] results_match={} stats_match={}".format(
            r.case, r.config, r.results_match, r.stats_match
        )
        for r in broken
    )


def test_every_case_equivalent_under_tight_memory_budget():
    """The same sweep with an 8 KiB working-set budget: every blocking
    operator big enough spills on both backends, and results, ordering
    metadata, and stats signatures must still match case for case."""
    results = run_differential(quick=True, overrides={"memory_limit_bytes": 8192})
    assert results, "harness produced no comparisons"
    broken = failures(results)
    assert not broken, "backends diverge under memory pressure on: " + ", ".join(
        "{} [{}] results_match={} stats_match={}".format(
            r.case, r.config, r.results_match, r.stats_match
        )
        for r in broken
    )
    assert any(r.row_spills for r in results), "budget never forced a spill"
    unequal = [r for r in results if r.row_spills != r.vector_spills]
    assert not unequal, "spill decisions diverge on: " + ", ".join(
        f"{r.case} [{r.config}] row={r.row_spills} vector={r.vector_spills}"
        for r in unequal
    )

