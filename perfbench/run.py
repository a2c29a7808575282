"""The verifier benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each was chosen):

* ``cold-suite``  — the 34 contracted Figure 15 methods verified cold, plus
  the known-invalid mutants;
* ``warm-serve``  — open-loop ``verify_method`` traffic against a daemon
  whose store already holds every suite verdict.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the entry points of each layer
are wrapped by the span recorder (``spans.py``) and the JSON carries the
per-layer metrics instead.  Outputs are checked against ``expected.json``:
a wrong sequent count, a PROVED mutant, a failed request or a live proof on
warm traffic counts as failed and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cold-suite", "warm-serve")
PROVER_NAMES = ("syntactic", "smt", "fol", "mona", "bapa")

#: name -> unit of every end-to-end metric (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s",
    "suite_wall_s": "s",
    "obligations_proved": "count",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "sustained_rps": "1/s",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share") or name.endswith("_per_proof"):
        return "ratio"
    return "count"


_LAYER_NAMES = [
    "java.parse_s", "java.parse_calls",
    "vcgen.generate_s", "vcgen.sequents", "vcgen.proved_during_splitting",
    "dispatcher.prove_all_s", "dispatcher.attempts", "dispatcher.attempts_per_proof",
    "dispatcher.dedup_replayed", "dispatcher.cache_hits", "dispatcher.cache_misses",
    *(
        f"{prover}.{what}"
        for prover in PROVER_NAMES
        for what in ("attempts", "proved", "useful_share", "busy_s", "burn_s")
    ),
    "smt.instances",
    *(f"smt.phase.{phase}_s" for phase in ("translate", "clausify", "instantiation", "sat", "theory")),
    *(f"fol.phase.{phase}_s" for phase in ("translate", "saturate")),
    "wire.decode_s", "wire.encode_s", "daemon.verify_s", "service.queue_wait_s",
    "farm.prove_all_s", "farm.batches", "farm.peak_rss_mb",
    "store.lookups", "store.hit_share", "store.lookup_s", "store.stores", "store.store_s",
    "store.disk_hits", "store.miss_share",
    "service.live_proved", "service.deferred_sequents", "service.live_reproofs",
    "lanes.peak_busy", "generator.lag_ms",
    "verdicts.unstable", "trace.spans", "traced.suite_wall_s", "traced.latency_p50_ms",
]
#: name -> unit of every per-layer metric; each traced run reports all of
#: them, 0 where the workload does not exercise the layer.
PER_LAYER = {name: _unit(name) for name in _LAYER_NAMES}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- verdict stability across runs --------------------------------------------


def record_verdicts(workload: str, unproved: Dict[str, List[str]]) -> List[str]:
    """Append this run's unproved origins per method to the workload's log and
    return every origin label whose verdict differed between logged runs."""
    from daemon import STATE_DIR

    log = STATE_DIR / "verdicts" / f"{workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("a") as out:
        out.write(json.dumps(unproved, sort_keys=True) + "\n")
    runs = [json.loads(line) for line in log.read_text().splitlines() if line.strip()]
    unstable = set()
    for label in {key for run in runs for key in run}:
        seen = [set(run[label]) for run in runs if label in run]
        # An origin unproved in some runs but not in others flipped.
        unstable.update(set.union(*seen) - set.intersection(*seen))
    return sorted(unstable)


# -- per-layer metrics from spans ---------------------------------------------


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    from spans import self_times

    own = self_times(spans)
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name: str) -> List[dict]:
        return by_name.get(name, [])

    def self_sum(spans_: List[dict]) -> float:
        return sum(own[span["id"]] for span in spans_)

    def attr_sum(spans_: List[dict], key: str) -> float:
        return sum(span.get(key, 0) for span in spans_)

    vcs = named("vcgen.generate")
    dispatches = named("dispatcher.prove_all") + named("parallel.prove_all")
    attempts = attr_sum(dispatches, "attempts")
    metrics: Dict[str, float] = {
        "java.parse_s": self_sum(named("java.parse")),
        "java.parse_calls": len(named("java.parse")),
        "vcgen.generate_s": self_sum(vcs),
        "vcgen.sequents": attr_sum(vcs, "sequents"),
        "vcgen.proved_during_splitting": attr_sum(vcs, "proved_during_splitting"),
        "dispatcher.prove_all_s": self_sum(dispatches),
        "dispatcher.attempts": attempts,
        "dispatcher.attempts_per_proof": attempts / max(1.0, attr_sum(dispatches, "proved_live")),
        "dispatcher.dedup_replayed": attr_sum(dispatches, "dedup_replayed"),
        "dispatcher.cache_hits": attr_sum(dispatches, "cache_hits"),
        "dispatcher.cache_misses": attr_sum(dispatches, "cache_misses"),
    }

    answers = named("prover.prove")
    for prover in PROVER_NAMES:
        mine = [s for s in answers if s["prover"] == prover]
        proved = sum(1 for s in mine if s["proved"])
        metrics[f"{prover}.attempts"] = len(mine)
        metrics[f"{prover}.proved"] = proved
        metrics[f"{prover}.useful_share"] = proved / len(mine) if mine else 0.0
        metrics[f"{prover}.busy_s"] = sum(s["end"] - s["start"] for s in mine)
        metrics[f"{prover}.burn_s"] = sum(s["end"] - s["start"] for s in mine if not s["proved"])
    for name in PER_LAYER:
        prover, _, phase = name.partition(".phase.")
        if phase:
            metrics[name] = sum(
                s["phases"].get(phase[:-2], 0.0) for s in answers if s["prover"] == prover
            )
    metrics["smt.instances"] = sum(s["instances"] for s in answers if s["prover"] == "smt")

    # The batch dispatches that served a VerifyService.prove call are its
    # dispatch; the rest of the call is queueing (batch window and lanes).
    dispatched: Dict[str, float] = {}
    for span in named("parallel.prove_all"):
        for owner in span.get("serves", ()):
            dispatched[owner] = dispatched.get(owner, 0.0) + (span["end"] - span["start"])
    farm = [s for s in named("parallel.prove_all") if s["role"] == "daemon"]
    lookups = named("store.lookup")
    metrics.update({
        "wire.decode_s": self_sum(named("wire.decode")),
        "wire.encode_s": self_sum(named("wire.encode")),
        "daemon.verify_s": self_sum(named("daemon.verify")),
        "service.queue_wait_s": sum(
            max(0.0, (s["end"] - s["start"]) - dispatched.get(s["id"], 0.0))
            for s in named("service.prove")
        ),
        "farm.prove_all_s": self_sum(farm),
        "farm.batches": len(farm),
        "store.lookups": len(lookups),
        "store.hit_share": sum(1 for s in lookups if s["hit"]) / len(lookups) if lookups else 0.0,
        "store.lookup_s": self_sum(lookups),
        "store.stores": len(named("store.store")),
        "store.store_s": self_sum(named("store.store")),
        "trace.spans": len(spans),
    })
    return metrics


# -- the workloads ------------------------------------------------------------


def run_cold(seed: int, recorder) -> dict:
    import cold_suite

    result = cold_suite.run(seed, recorder)
    result["extra"] = {"farm.peak_rss_mb": result["farm_peak_rss_mb"]}
    return result


def run_serve(seed: int, seconds: float, trace_dir) -> dict:
    import serve

    result = serve.run(seed, seconds, trace_dir)
    stats = result["stats"]
    result["extra"] = {
        "store.disk_hits": stats["store.disk_hits"],
        # Each sequent that misses the store misses at its first prover.
        "store.miss_share": stats["store.misses"] / max(1, stats["service.sequents"]),
        "service.live_proved": stats["service.live_proved"],
        "service.deferred_sequents": stats["service.deferred_sequents"],
        "service.live_reproofs": stats["service.live_reproofs"],
        "lanes.peak_busy": stats["lanes.peak_busy"],
        "generator.lag_ms": sum(result["lag_ms"]) / len(result["lag_ms"]),
    }
    for rung in result["rungs"]:
        print(f"  rung {rung['rps']:g}/s: n={rung['n']} p50={rung['p50_ms']:.1f}ms "
              f"p{serve.LIMIT_PERCENTILE}={rung['tail_ms']:.1f}ms "
              f"max lag={rung['max_lag_ms']:.1f}ms")
    print(f"  store fill (first serve run in a checkout only): {result['fill_s']:.2f}s")
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from daemon import STATE_DIR

    trace_dir = recorder = None
    if trace:
        import spans

        trace_dir = STATE_DIR / "traces" / f"{workload}-{seed}-{time.time_ns()}"
        recorder = spans.SpanRecorder(trace_dir, "bench")
        if workload == "cold-suite":
            spans.install(recorder)
        else:
            spans.install_client(recorder)
    try:
        if workload == "cold-suite":
            result = run_cold(seed, recorder)
        else:
            result = run_serve(seed, seconds, trace_dir)
        e2e = {name: result[name] for name in END_TO_END}
        extra = result["extra"]
        unstable = record_verdicts(workload, result["unproved"])
        extra["verdicts.unstable"] = len(unstable)

        failures = result["failures"]
        print(f"workload {workload}, seed {seed}: {result['attempted']} operations, "
              f"{len(failures)} failed (failed_share {len(failures) / result['attempted']:.4f})")
        for failure in failures:
            print(f"  FAILED {failure}")
        print(f"  verdicts that differed between logged runs: {', '.join(unstable) or 'none'}")
        for name, value in sorted(extra.items()):
            print(f"  {name} = {value:g}")

        if recorder is not None:
            import spans

            recorder.flush()
            metrics = dict.fromkeys(PER_LAYER, 0.0)
            metrics.update(layer_metrics(spans.load_spans(trace_dir)))
            metrics.update(extra)
            metrics["traced.suite_wall_s"] = e2e["suite_wall_s"]
            metrics["traced.latency_p50_ms"] = e2e["latency_p50_ms"]
            units = PER_LAYER
        else:
            metrics, units = e2e, END_TO_END
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    for name in units:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no verifier sources under {ROOT / 'src'}; run from a checkout of the repository")
    # A terminated run still stops its daemon (the ``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
