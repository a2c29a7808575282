"""P4 — set-of-support + ordered resolution on the FOL-heavy methods.

The portfolio's slowest path is the resolution engine on the
invariant-exit obligations of the mutating suite methods — the
fieldWrite-backbone proofs of ``AssocList.put`` took ~20s of saturation
under the earlier undirected ("fair") loop, and
``BinarySearchTree.insert``'s placement obligations drowned outright (the
method carried the portfolio's last trusted ``assume``).  This benchmark
times both methods under the shipped engine (set of support + KBO ordering
+ negative-literal selection) and pins the headline claims:

* ``AssocList.put`` discharges in well under the former ~20s, and
* ``BinarySearchTree.insert`` discharges fully with no trusted assume.
"""

from __future__ import annotations

from repro import suite, verify

from conftest import run_once

#: A generous FOL budget, so the engine's power (not its cut-off) is what
#: gets measured.
FOL_TIMEOUT = 20.0


def _verify(structure: str, method: str):
    return verify(
        suite.source(structure),
        class_name=structure,
        method=method,
        provers=["smt", "fol", "mona", "bapa"],
        prover_options={"smt": {"timeout": 2.0}, "fol": {"timeout": FOL_TIMEOUT}},
        sequent_budget=FOL_TIMEOUT + 5.0,
    )


def test_sos_discharges_assoclist_put_fast(benchmark):
    """AssocList.put's written-backbone proofs: ~20s of undirected saturation,
    now well under that (the acceptance bound is 10s for the whole FOL
    share, and the engine actually needs well under 1s)."""
    report = run_once(benchmark, lambda: _verify("AssocList", "put"))
    benchmark.extra_info.update(
        {
            "proved": report.proved_sequents,
            "total": report.total_sequents,
            "fol_time_s": round(report.time_of("fol"), 3),
            "wall_time_s": round(report.total_time, 3),
        }
    )
    assert report.succeeded, report.format()
    assert report.time_of("fol") < 10.0, (
        f"AssocList.put FOL time regressed: {report.time_of('fol'):.1f}s"
    )


def test_sos_discharges_bst_insert_without_assume(benchmark):
    """BinarySearchTree.insert end-to-end — the obligation set that used to
    require a trusted assume — discharges fully."""
    report = run_once(benchmark, lambda: _verify("BinarySearchTree", "insert"))
    benchmark.extra_info.update(
        {
            "proved": report.proved_sequents,
            "total": report.total_sequents,
            "trusted_assumes": report.trusted_assumes,
            "fol_time_s": round(report.time_of("fol"), 3),
            "wall_time_s": round(report.total_time, 3),
        }
    )
    assert report.succeeded, report.format()
    assert report.trusted_assumes == 0
