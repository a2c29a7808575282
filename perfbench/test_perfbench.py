"""Self-tests of the benchmark's helpers and known answers.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``; they generate
verification conditions but run no prover.
"""

from __future__ import annotations

import pytest

from inputs import load_expected, mutants, sequent_counts, suite_sources
from measure import percentile


def _vc(source: str, class_name: str, method: str):
    from repro.java.resolver import parse_program
    from repro.vcgen.vcgen import generate_method_vc

    return generate_method_vc(parse_program(source), class_name, method)


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1000))
    assert percentile(values, 99) == 989
    with pytest.raises(ValueError):
        percentile(values[:999], 99)
    assert percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError):
        percentile(list(range(199)), 95)


def test_mutants_have_exactly_their_intended_invalid_obligation():
    from repro.form.printer import to_str

    sources = suite_sources()
    for mutant in mutants(load_expected()):
        original = _vc(sources[mutant.class_name], mutant.class_name, mutant.method)
        mutated = _vc(mutant.source(sources[mutant.class_name]), mutant.class_name, mutant.method)
        assert [s.origin for s in mutated.sequents] == [s.origin for s in original.sequents]
        changed = [
            after.origin
            for before, after in zip(original.sequents, mutated.sequents)
            if to_str(before.goal.formula) != to_str(after.goal.formula)
        ]
        assert changed == [mutant.invalid_origin], mutant


def test_expected_counts_cover_the_figure15_methods():
    from repro import suite
    from repro.java.resolver import parse_program

    counts = sequent_counts(load_expected())
    labels = set()
    for name in suite.FIGURE15_NAMES:
        for info in parse_program(suite.source(name)).methods_of(name):
            if info.decl.body is not None and info.decl.contract_text:
                labels.add(f"{name}.{info.decl.name}")
    assert labels == set(counts)
    assert sum(counts.values()) == 214


def test_benchmark_json_lists_the_metrics_run_reports():
    import json
    from pathlib import Path

    from run import END_TO_END, PER_LAYER, WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
