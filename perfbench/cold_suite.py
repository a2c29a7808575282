"""The ``cold-suite`` workload: verify every contracted Figure 15 method cold.

One closed-loop caller runs :func:`repro.verify` on each of the 34 methods
(214 obligations) with no cache, then on each known-invalid mutant.  The
calls dispatch through one persistent two-worker process farm (the same
farm width as the daemon's), so prover budgets dominate and the frontend
is close to 0% of the time.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Tuple

from daemon import ROOT, child_env
from inputs import (
    FARM_WORKERS, PROVER_OPTIONS, PROVERS, MethodInput, load_expected, mutants, sequent_counts,
    shuffled, suite_methods, suite_sources,
)
from measure import median, percentile, ru_maxrss_mb, tree_peak_rss_mb

SETUP_REPEATS = 3

#: What a user pays before the first proof: a fresh interpreter importing
#: the verifier and building the prover portfolio.
_SETUP_PROGRAM = (
    "from repro.core.verifier import verify\n"
    "from repro.provers.dispatcher import make_provers\n"
    f"make_provers({['syntactic'] + PROVERS!r}, **{PROVER_OPTIONS!r})\n"
)


def setup_once() -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_PROGRAM], cwd=str(ROOT), env=child_env(),
        check=True, stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


class ColdFarm:
    """A persistent process farm behind ``verify``'s dispatch hook, so each
    call pays for its proofs and not for starting worker processes."""

    def __init__(self) -> None:
        from repro.provers.dispatcher import ParallelDispatcher

        self.pool = ProcessPoolExecutor(max_workers=FARM_WORKERS)
        self.dispatcher = ParallelDispatcher.from_names(
            ["syntactic"] + PROVERS, workers=FARM_WORKERS, backend="process",
            dedup=True, executor=self.pool, **PROVER_OPTIONS,
        )

    def verify(self, item: MethodInput):
        from repro import verify

        return verify(
            item.source, method=item.method, class_name=item.class_name,
            provers=PROVERS, prover_options=PROVER_OPTIONS,
            dispatch=self.dispatcher.prove_all,
        )

    def close(self) -> None:
        self.pool.shutdown(wait=True)


def row_latencies(calls: List[Tuple[str, float, int]]) -> Dict[str, float]:
    """The latency metrics of a cold pass, read per Figure 15 row (all the
    methods of one class).  ``calls`` holds (class, seconds, obligations)
    per verify call.

    ``latency_p50_ms`` is the median time to verify a row (10 rows).
    ``latency_p90_ms`` is read over the 214 obligations, each waiting for
    its row: 90% of the suite's obligations are reported within it.  A
    single method's or obligation's latency is a few milliseconds of CPU
    that swings by a quarter from run to run on a shared machine; a row's
    time is dominated by prover budgets."""
    seconds: Dict[str, float] = {}
    obligations: Dict[str, int] = {}
    for class_name, elapsed, count in calls:
        seconds[class_name] = seconds.get(class_name, 0.0) + elapsed
        obligations[class_name] = obligations.get(class_name, 0) + count
    per_obligation = [seconds[name] for name in seconds for _ in range(obligations[name])]
    return {
        "latency_p50_ms": 1000.0 * median(seconds.values()),
        "latency_p90_ms": 1000.0 * percentile(per_obligation, 90),
    }


def run(seed: int, recorder=None) -> dict:
    """One pass over the suite and the mutants; returns the raw results."""
    rng = random.Random(seed)
    setup = [setup_once() for _ in range(SETUP_REPEATS)]
    expected = load_expected()
    sources = suite_sources()
    counts = sequent_counts(expected)
    order = shuffled(suite_methods(expected, sources), rng)
    mutant_list = shuffled(mutants(expected), rng)
    farm = ColdFarm()
    call = farm.verify
    if recorder is not None:
        call = recorder.wrap("request", call, new_request=True)

    calls: List[Tuple[str, float, int]] = []
    proved = 0
    failures: List[str] = []
    verdicts: Dict[str, List[str]] = {}
    try:
        pass_started = time.perf_counter()
        for item in order:
            started = time.perf_counter()
            report = call(item)
            calls.append((item.class_name, time.perf_counter() - started, report.total_sequents))
            proved += report.proved_sequents
            if report.total_sequents != counts[item.label]:
                failures.append(
                    f"{item.label}: {report.total_sequents} sequents, "
                    f"expected {counts[item.label]}"
                )
            verdicts[item.label] = sorted(report.unproved_origins)
        suite_wall = time.perf_counter() - pass_started

        # The mutants are independent, so they share the farm's two workers.
        with ThreadPoolExecutor(FARM_WORKERS) as pool:
            items = [m.as_input(sources[m.class_name]) for m in mutant_list]
            for mutant, item, report in zip(mutant_list, items, pool.map(call, items)):
                if mutant.invalid_origin not in report.unproved_origins:
                    failures.append(
                        f"mutant {item.label}: invalid obligation {mutant.invalid_origin} PROVED"
                    )
                verdicts[f"mutant:{item.label}"] = sorted(report.unproved_origins)
        farm_rss = tree_peak_rss_mb(os.getpid()) - ru_maxrss_mb()
    finally:
        farm.close()

    return {
        "setup_s": median(setup),
        "suite_wall_s": suite_wall,
        "obligations_proved": proved,
        **row_latencies(calls),
        # A closed loop never builds a backlog: it sustains the rate at
        # which it completes calls.
        "sustained_rps": len(order) / suite_wall,
        "attempted": len(order) + len(mutant_list),
        "failures": failures,
        "unproved": verdicts,
        "peak_rss_mb": ru_maxrss_mb(),
        "farm_peak_rss_mb": farm_rss,
    }
