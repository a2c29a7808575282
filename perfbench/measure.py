"""Measurement helpers: percentiles, medians and memory high-water marks."""

from __future__ import annotations

import math
import resource
import statistics
from pathlib import Path
from typing import Iterable, List, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by nearest rank.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    above it: a tail percentile read off fewer samples is one outlier.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def ru_maxrss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _status_kib(pid: int, field: str) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def process_tree(pid: int) -> List[int]:
    """``pid`` and its live descendants (from ``/proc``)."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        children: List[int] = []
        task_dir = Path(f"/proc/{current}/task")
        try:
            for task in task_dir.iterdir():
                text = (task / "children").read_text().split()
                children.extend(int(child) for child in text)
        except OSError:
            pass
        frontier.extend(children)
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the per-process peak RSS (``VmHWM``) over a process tree."""
    return sum(_status_kib(member, "VmHWM") for member in process_tree(pid)) / 1024.0
