"""The ``warm-serve`` workload: open-loop traffic to a daemon with a warm store.

It starts ``launcher.py`` on a copy of a store already filled with every
suite method, verifies the 34 suite methods once through it (the suite
pass), then sends an open loop of ``verify_method`` requests for seeded
draws of suite methods: a reference rung at a fixed rate, then a ladder of
higher rates that stops at the first rate that misses the latency limit
or builds a backlog.  Every request must replay from the store.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from daemon import STATE_DIR, Daemon, filled_store, verify_request
from inputs import (
    Deck, MethodInput, load_expected, sequent_counts,
    suite_methods, suite_sources,
)
from measure import median, percentile

#: At most ``nproc`` (here 2) connections; a request due while both are busy
#: waits on the client side, and its latency still counts from its due time.
CONNECTIONS = 2
SETUP_REPEATS = 3
#: Ladder rungs step the rate up three times.  Each lasts three seconds and
#: sends at least 60 requests, enough for a p80 with 12 samples beyond it.
#: On two cores the daemon sustains about 30/s closed-loop; the reference
#: rate sits at about half of that and the next rung at 1.4 times it, so
#: no rung lies near the knee.
LADDER_STEP = 3.0
LADDER_RUNGS = 5
LADDER_SECONDS = 3.0
LADDER_MIN_REQUESTS = 60
#: A rung is sustained when its p80 latency stays under this limit and the
#: generator's median lag over the last quarter of the rung shows no
#: growing backlog.
LIMIT_PERCENTILE = 80
LIMIT_MS = 500.0
BACKLOG_LAG_MS = 100.0


#: The reference rung, where the latency percentiles are read; it lasts
#: ``--seconds``.  It keeps the two cores about half idle: at higher load
#: the daemon's request threads queue for the interpreter lock, and the
#: latencies follow every swing in the machine's speed.
REFERENCE_RPS = 14.0


@dataclass
class Request:
    item: MethodInput
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    error: Optional[str] = None
    total: int = 0
    proved: int = 0
    unproved: List[str] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def open_loop(daemon: Daemon, requests: Sequence[Request], rate: float) -> None:
    """Send ``requests`` at ``rate`` per second from ``CONNECTIONS`` clients."""
    start = time.perf_counter() + 0.05
    for index, request in enumerate(requests):
        request.due = start + index / rate
    _drive(daemon, requests)


def closed_loop(daemon: Daemon, requests: Sequence[Request]) -> None:
    """Each request is due as soon as a connection is free."""
    _drive(daemon, requests, closed=True)


def _drive(daemon: Daemon, requests: Sequence[Request], closed: bool = False) -> None:
    cursor = iter(requests)
    lock = threading.Lock()
    failures: List[BaseException] = []

    def connection() -> None:
        try:
            with daemon.client() as client:
                while True:
                    with lock:
                        request = next(cursor, None)
                    if request is None:
                        return
                    now = time.perf_counter()
                    if closed:
                        request.due = now
                    elif request.due > now:
                        time.sleep(request.due - now)
                    request.sent = time.perf_counter()
                    try:
                        report = verify_request(client, request.item)
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        request.error = f"{type(exc).__name__}: {exc}"
                        client.close()
                    else:
                        request.total = report.total_sequents
                        request.proved = report.proved_sequents
                        request.unproved = list(report.unproved_origins)
                    request.done = time.perf_counter()
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            failures.append(exc)

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def rung_ok(requests: Sequence[Request]) -> bool:
    if any(r.error for r in requests):
        return False
    tail = percentile([r.latency_ms for r in requests], LIMIT_PERCENTILE)
    final_lag = median(r.lag_ms for r in requests[-len(requests) // 4:])
    return tail <= LIMIT_MS and final_lag <= BACKLOG_LAG_MS


class Traffic:
    """Seeded request draws of suite methods."""

    def __init__(self, seed: int) -> None:
        self.expected = load_expected()
        self.methods = suite_methods(self.expected, suite_sources())
        self.deck = Deck(self.methods, random.Random(seed))

    def draw(self, count: int) -> List[Request]:
        return [Request(self.deck.draw()) for _ in range(count)]

    def suite_pass(self) -> List[Request]:
        """Every suite method once."""
        return [Request(item) for item in self.methods]


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    delta = {}
    for section in ("service", "store"):
        for key, value in after[section].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                delta[f"{section}.{key}"] = value - before[section].get(key, 0)
    delta["lanes.peak_busy"] = after["lanes"]["peak_busy"]
    return delta


def run(seed: int, seconds: float, trace_dir: Optional[Path] = None) -> dict:
    traffic = Traffic(seed)
    counts = sequent_counts(traffic.expected)
    fill_started = time.perf_counter()
    store = filled_store(traffic.methods, CONNECTIONS)
    fill_s = time.perf_counter() - fill_started

    run_dir = STATE_DIR / "runs" / f"serve-{seed}-{time.time_ns()}"
    setup_times = []
    daemon: Optional[Daemon] = None
    try:
        for attempt in range(SETUP_REPEATS):
            shutil.rmtree(run_dir, ignore_errors=True)
            started = time.perf_counter()
            shutil.copytree(store, run_dir / "store")
            last = attempt == SETUP_REPEATS - 1
            daemon = Daemon(run_dir, run_dir / "store", trace_dir if last else None)
            daemon.start()
            with daemon.client() as client:
                client.ping()
            setup_times.append(time.perf_counter() - started)
            if not last:
                daemon.stop()
                daemon = None

        before = daemon.stats()
        suite_requests = traffic.suite_pass()
        pass_started = time.perf_counter()
        closed_loop(daemon, suite_requests)
        suite_wall = time.perf_counter() - pass_started

        reference = traffic.draw(round(REFERENCE_RPS * seconds))
        open_loop(daemon, reference, REFERENCE_RPS)
        rungs: List[Tuple[float, List[Request]]] = [(REFERENCE_RPS, reference)]
        sustained = REFERENCE_RPS if rung_ok(reference) else 0.0
        if sustained:
            for step in range(1, LADDER_RUNGS + 1):
                rate = round(REFERENCE_RPS * LADDER_STEP ** step)
                rung = traffic.draw(max(LADDER_MIN_REQUESTS, round(rate * LADDER_SECONDS)))
                open_loop(daemon, rung, rate)
                rungs.append((rate, rung))
                if not rung_ok(rung):
                    break
                sustained = rate
        after = daemon.stats()
        peak_rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    all_requests = suite_requests + [r for _, rung in rungs for r in rung]
    failures = []
    for request in all_requests:
        if request.error:
            failures.append(f"{request.item.label}: {request.error}")
        elif request.total != counts[request.item.label]:
            failures.append(
                f"{request.item.label}: {request.total} sequents, expected {counts[request.item.label]}"
            )
    delta = _stats_delta(before, after)
    for key in ("service.live_proved", "service.live_reproofs", "store.misses"):
        if delta[key]:
            failures.append(f"warm traffic: {key} = {delta[key]:g}, expected 0")

    verdicts: Dict[str, List[str]] = {}
    for request in all_requests:
        if not request.error:
            verdicts.setdefault(request.item.label, sorted(request.unproved))
    return {
        "fill_s": fill_s,
        "setup_s": median(setup_times),
        "suite_wall_s": suite_wall,
        "obligations_proved": sum(r.proved for r in suite_requests),
        # Percentiles of the reference rung, from each request's due time.
        "latency_p50_ms": median(r.latency_ms for r in reference),
        "latency_p90_ms": percentile([r.latency_ms for r in reference], 90),
        "lag_ms": [r.lag_ms for r in reference],
        "sustained_rps": sustained,
        "rungs": [
            {
                "rps": rate,
                "n": len(rung),
                "p50_ms": median(r.latency_ms for r in rung),
                "tail_ms": percentile([r.latency_ms for r in rung], LIMIT_PERCENTILE),
                "max_lag_ms": max(r.lag_ms for r in rung),
            }
            for rate, rung in rungs
        ],
        "stats": delta,
        "attempted": len(all_requests),
        "failures": failures,
        "unproved": verdicts,
        "peak_rss_mb": peak_rss,
    }
