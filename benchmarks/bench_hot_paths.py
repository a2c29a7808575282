#!/usr/bin/env python3
"""Whole-suite cold-verify benchmark of the hot-path optimisations.

Runs the Figure-15 suite cold (no sequent cache) under the shipped prover
configuration: hash-consed terms, the incremental DPLL(T) trail and the
fragment gates (all unconditional now) with the profile-guided budgets
(SMT 3 s, FOL 1.5 s, MONA 2 s).  The pre-optimisation "baseline" column of
the committed ``BENCH_hot_paths.json`` (189.6 s vs 70.6 s on its reference
machine) is recorded history: the switches that reproduced that engine are
gone, so only the optimized run is re-measured.

Usage::

    python benchmarks/bench_hot_paths.py                  # full suite, writes BENCH json
    python benchmarks/bench_hot_paths.py --smoke          # 3-structure smoke scale
    python benchmarks/bench_hot_paths.py --smoke --check BENCH_hot_paths.json

``--check`` is the CI regression gate: re-measure the smoke run and fail if
its wall time regressed more than ``--tolerance`` (default 20%) against the
committed reference — after normalising by the machine-speed calibration
loop recorded alongside, so a slower runner does not fail the gate
spuriously.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

PROVERS = ["smt", "fol", "mona", "bapa"]
#: Structures whose cold verify exercises every engine, kept small enough
#: for CI: AssocList (SMT-heavy), SinglyLinkedList (MONA + open goals),
#: PriorityQueue (cardinality goals -> the fragment gates).
SMOKE_NAMES = ["AssocList", "SinglyLinkedList", "PriorityQueue"]


#: The budgets the reference numbers were measured under, spelled out so the
#: benchmark stays comparable if the defaults drift.
PROVER_OPTIONS = {
    "smt": {"timeout": 3.0},
    "fol": {"timeout": 1.5},
    "mona": {"timeout": 2.0},
}


def run_suite(names: List[str]) -> Dict[str, dict]:
    from repro import suite

    results: Dict[str, dict] = {}
    for name in names:
        start = time.perf_counter()
        report = suite.verify_structure(
            name, provers=PROVERS, prover_options=PROVER_OPTIONS, dedup=True
        )
        wall = time.perf_counter() - start
        results[name] = {
            "wall_s": round(wall, 3),
            "proved": report.proved_sequents,
            "total": report.total_sequents,
            "phase_times": {
                prover: {k: round(v, 3) for k, v in phases.items()}
                for prover, phases in report.phase_times().items()
            },
        }
        print(
            f"  {name}: {wall:.2f}s, {report.proved_sequents}/{report.total_sequents} proved",
            flush=True,
        )
    return results


def calibrate() -> float:
    """A fixed pure-Python work loop, timed: the machine-speed yardstick the
    CI gate uses to normalise wall times across runners."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1000003
    assert acc >= 0
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help=f"run only {SMOKE_NAMES}")
    parser.add_argument(
        "--output", default="BENCH_hot_paths.json", help="where to write the results json"
    )
    parser.add_argument(
        "--check", metavar="JSON", default=None,
        help="CI gate: compare the run against a committed reference "
        "instead of writing a new one",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed relative wall regression in --check mode (default: 20%%)",
    )
    args = parser.parse_args()

    names = SMOKE_NAMES if args.smoke else None
    if names is None:
        from repro import suite

        names = list(suite.FIGURE15_NAMES)
    scale = "smoke" if args.smoke else "full"
    calibration = calibrate()
    print(f"scale={scale}, calibration loop {calibration:.3f}s")

    print("cold suite:", flush=True)
    results = run_suite(names)
    wall = sum(r["wall_s"] for r in results.values())

    if args.check:
        with open(args.check) as fh:
            reference = json.load(fh)
        ref_scale = reference["scale"]
        if ref_scale != scale:
            ref_wall = reference.get("smoke_optimized_wall_s")
            if ref_wall is None:
                print(f"reference is {ref_scale}-scale and has no smoke numbers", file=sys.stderr)
                return 2
        else:
            ref_wall = reference["optimized_wall_s"]
        ref_calibration = reference["calibration_s"]
        # Normalise by machine speed: a runner 1.5x slower than the reference
        # machine is allowed 1.5x the wall before the tolerance applies.
        speed_ratio = calibration / ref_calibration
        allowed = ref_wall * speed_ratio * (1.0 + args.tolerance)
        verdict = "OK" if wall <= allowed else "REGRESSION"
        print(
            f"gate: measured {wall:.2f}s vs reference {ref_wall:.2f}s "
            f"(machine x{speed_ratio:.2f}, allowed {allowed:.2f}s) -> {verdict}"
        )
        return 0 if wall <= allowed else 1

    print(f"\nsuite cold verify: {wall:.2f}s")
    payload = {
        "benchmark": "hot_paths_cold_suite",
        "scale": scale,
        "provers": PROVERS,
        "prover_options": {"optimized": PROVER_OPTIONS},
        "calibration_s": round(calibration, 4),
        "optimized_wall_s": round(wall, 3),
        "structures": {name: {"optimized": results[name]} for name in names},
    }
    if not args.smoke:
        # Record smoke-scale numbers from the same run so the CI gate has a
        # same-machine reference without a second full run.
        payload["smoke_optimized_wall_s"] = round(
            sum(results[n]["wall_s"] for n in SMOKE_NAMES if n in results), 3
        )
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
