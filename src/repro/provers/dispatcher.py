"""The prover dispatcher: one dispatch path, run inline or on a process
pool, with result caching.

This is the integrated-reasoning heart of the system (Sections 5.1-5.2): a
verification condition is split into sequents, and every sequent is offered
to the provers in the order the user listed them on the command line
(``-usedp spass mona bapa`` in Figure 7).  Per-prover statistics — how many
sequents each prover attempted and proved and how much time it spent,
including failed attempts — are collected for the Figure 7 / Figure 15
reports.

Every batch goes through one ``prove_all``.  In the calling thread it runs,
per sequent, the dedup pre-pass (``dedup=True``: structurally identical
sequents are proved once and the verdict fanned out to the duplicates as
replayed answers), the static tier (``static_tier=True``: sequents provable
from dataflow facts alone resolve with the ``STATIC`` verdict), the learned
ranking (``ordering=``, consulted when ``race >= 2``) and one scan of the
:class:`repro.provers.cache.SequentCache`: every prover is looked up in
chain order before any prover runs, and a cached ``PROVED`` anywhere in the
chain settles the sequent.  The provers still open then run through one
chain function, in waves of ``race`` (a wave of one is the classic
fixed-order step): inline in the calling thread, or as tasks on the
process pool that :class:`ParallelDispatcher` is lent or builds from
``workers``.  Back in the calling thread the fresh answers
are stored in the cache and the outcomes merged in sequent order, so
outcomes, per-prover :class:`ProverStats` and cache counters do not depend
on the executor.  (One exception: without ``dedup``, a sequent repeated in
a batch replays the earlier copy's verdicts only inline, where each chain
is stored before the next sequent's scan.)  Replayed answers count as
cache hits and never as :class:`ProverStats` attempts (the prover did not
run).

Only two things differ between inline and pool chains: how a chain gets
its portfolio (the dispatcher's own inline, one per worker process) and how
it gets its deadline.  Per-sequent budgets are *enforced*:
``sequent_budget=T`` turns into a :class:`repro.provers.base.Deadline`
shared by the whole chain of one sequent, bounded by the batch-level
``deadline`` passed to ``prove_all``, and every prover runs under the
earlier of that deadline and its own ``timeout`` (see the Deadline contract
in :mod:`repro.provers.base`).  A Deadline cannot cross a process boundary,
so process tasks receive the budget clipped to the batch deadline's slack
at submit time instead.  A prover that exceeds its slice answers
``TIMEOUT`` and the chain falls through to the next prover; once the whole
budget is gone the outcome is marked ``budget_exhausted``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..vcgen.sequent import Sequent
from .base import Deadline, Prover, ProverAnswer, ProverStats, Verdict, registry
from .cache import CacheStats, SequentCache
from .ordering import ProverOrdering
from .syntactic import SyntacticProver

if TYPE_CHECKING:  # import-cycle guard: repro.analysis imports the prover layer
    from ..analysis.discharge import StaticDischarger

#: Aliases mapping the paper's prover names to this reproduction's engines.
PROVER_ALIASES = {
    "spass": "fol",
    "e": "fol",
    "z3": "smt",
    "cvc3": "smt",
    "isabelle": "interactive",
    "coq": "interactive",
}

DEFAULT_ORDER = ("syntactic", "smt", "fol", "mona", "bapa", "interactive")


def _register_default_provers() -> None:
    if registry.known():
        return
    from ..bapa.prover import BapaProver
    from ..fol.prover import FirstOrderProver
    from ..interactive.prover import InteractiveProver
    from ..mona.prover import MonaProver
    from ..smt.prover import SmtProver

    registry.register("syntactic", SyntacticProver)
    registry.register("fol", FirstOrderProver)
    registry.register("smt", SmtProver)
    registry.register("mona", MonaProver)
    registry.register("bapa", BapaProver)
    registry.register("interactive", InteractiveProver)


def resolve_prover_names(names: Sequence[str]) -> List[str]:
    """Resolve aliases (spass, e, z3, cvc3, isabelle, coq) to engine names."""
    return [PROVER_ALIASES.get(name.lower(), name.lower()) for name in names]


def make_provers(names: Sequence[str], **options) -> List[Prover]:
    """Instantiate the provers named on the command line, in order.

    ``options`` maps a prover — engine name or alias — to its keyword
    options.  Options for a known prover that is not in ``names`` are
    allowed (one options dict can serve several portfolios); a key that
    names no prover is an error, not a silently ignored setting.
    """
    _register_default_provers()
    known = registry.known()
    by_engine: Dict[str, dict] = {}
    for key, value in options.items():
        engine = resolve_prover_names([key])[0]
        if engine not in known:
            raise ValueError(
                f"prover options for unknown prover {key!r}; known provers: "
                f"{', '.join(known)}; aliases: {', '.join(PROVER_ALIASES)}"
            )
        if engine in by_engine:
            raise ValueError(f"prover options for {engine!r} given twice (via {key!r})")
        by_engine[engine] = value
    return [
        registry.create(name, **by_engine.get(name, {})) for name in resolve_prover_names(names)
    ]


@dataclass
class SequentOutcome:
    """What happened to a single sequent."""

    sequent: Sequent
    proved: bool
    prover: Optional[str] = None
    answers: List[ProverAnswer] = field(default_factory=list)
    #: True when the per-sequent time budget ran out before the chain ended.
    budget_exhausted: bool = False
    #: Contended racing waves run on this sequent (waves where racers' runs
    #: overlapped; a wave whose racers ran one after another is a plain
    #: chain step).
    raced: int = 0
    #: The prover whose PROVED answer won a contended wave (portfolio-order
    #: tie-break when several proved); ``None`` when the sequent was settled
    #: outside a race.
    race_won_by: Optional[str] = None
    #: CPU seconds reclaimed by cancelling losing racers: the unspent part
    #: of each cancelled attempt's time slice.
    reclaimed: float = 0.0

    @property
    def from_cache(self) -> bool:
        """True when the *deciding* answer — the one that settled this
        outcome, whatever its verdict — was replayed (cache hit or dedup
        fan-out) rather than computed by a live prover run.

        A cached ``UNKNOWN``/``TIMEOUT`` replay is warm-cache traffic just
        like a cached ``PROVED``: the chain's final answer being a replay
        means no prover ran to settle the sequent.  (Gating on ``proved``
        here used to make cached non-PROVED replays invisible to the
        dispatch/report hit accounting.)
        """
        return bool(self.answers) and self.answers[-1].cached


@dataclass
class DispatchResult:
    """Results of dispatching a batch of sequents to the prover portfolio."""

    outcomes: List[SequentOutcome] = field(default_factory=list)
    stats: Dict[str, ProverStats] = field(default_factory=dict)
    total_time: float = 0.0
    #: Per-run cache counters (all zero when dispatched without a cache).
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Wall-clock time of the dispatch and the CPU time spent inside provers;
    #: for inline dispatch the two coincide (modulo bookkeeping).
    wall_time: float = 0.0
    cpu_time: float = 0.0
    workers: int = 1
    #: Fraction of the dispatch wall-time a pool's workers spent proving, on
    #: average (empty for inline dispatch).
    worker_utilization: Dict[str, float] = field(default_factory=dict)
    #: Sequents answered by the dedup pre-pass (a duplicate of an earlier
    #: sequent in the batch, by structural digest): their verdicts were fanned
    #: out from the representative's, not computed.
    dedup_replayed: int = 0
    #: Racing instrumentation (all zero outside ``race >= 2`` dispatch):
    #: contended waves run, winning PROVED answers per prover, attempts
    #: cancelled mid-flight, and the CPU seconds those cancellations
    #: reclaimed (the unspent remainder of each cancelled attempt's slice).
    races_run: int = 0
    race_wins: Dict[str, int] = field(default_factory=dict)
    cancelled_answers: int = 0
    cancelled_reclaimed: float = 0.0
    #: Wall time of the merged daemon batch this result was sliced from
    #: (zero for local dispatch): co-batched requests share one batch, so
    #: a slice's own ``total_time``/``wall_time`` carry only its answer-time
    #: sum while the shared batch wall lives here.
    batch_wall_time: float = 0.0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def statically_discharged(self) -> int:
        """Sequents resolved by the static-discharge pre-pass (directly or
        fanned out from a statically discharged dedup representative)."""
        return sum(1 for o in self.outcomes if o.proved and o.prover == "static")

    @property
    def proved(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.proved)

    @property
    def proved_from_cache(self) -> int:
        """Sequents whose proof was replayed from the cache (not re-proved)."""
        return sum(1 for outcome in self.outcomes if outcome.proved and outcome.from_cache)

    @property
    def replayed(self) -> int:
        """Sequents *decided* by replayed answers, whatever the verdict.

        This is the warm-traffic number: it also counts cached
        ``UNKNOWN``/``TIMEOUT`` replays, which :attr:`proved_from_cache`
        (proofs only) leaves out.
        """
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    @property
    def proved_live(self) -> int:
        """Sequents actually proved by running a prover this dispatch."""
        return self.proved - self.proved_from_cache

    @property
    def all_proved(self) -> bool:
        return self.proved == self.total

    def unproved(self) -> List[SequentOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.proved]

    def proved_by(self, prover_name: str) -> int:
        return sum(1 for o in self.outcomes if o.proved and o.prover == prover_name)


# ---------------------------------------------------------------------------
# Cross-method dedup pre-pass
# ---------------------------------------------------------------------------


def _dedup_representatives(sequents: Sequence[Sequent]) -> List[int]:
    """``rep[i]`` is the index of the first sequent sharing ``sequents[i]``'s
    structural digest (``rep[i] == i`` for group representatives).

    Identical invariant-exit obligations recur across the methods of one
    class (and across paths of one method); grouping by
    :meth:`repro.vcgen.sequent.Sequent.digest` lets the dispatcher prove one
    representative per group and replay the verdict for the rest.
    """
    first_by_digest: Dict[str, int] = {}
    return [
        first_by_digest.setdefault(sequent.digest(), index)
        for index, sequent in enumerate(sequents)
    ]


def _replayed_outcome(sequent: Sequent, representative: SequentOutcome) -> SequentOutcome:
    """Fan a representative's outcome out to a duplicate sequent.

    The replayed answers are marked ``cached`` — exactly the accounting a
    warm :class:`SequentCache` would produce for the duplicate — so they are
    counted as replays (never as live :class:`ProverStats` attempts) and the
    outcome is attributed to the same prover as the representative's.
    """
    answers = []
    for answer in representative.answers:
        if answer.verdict is Verdict.CANCELLED:
            # A cancelled racing attempt says nothing about the sequent;
            # replaying it would fabricate phantom cancellations on the
            # duplicates.  The wave's real verdicts replay on their own.
            continue
        detail = answer.detail if answer.cached else (
            f"dedup replay: {answer.detail}" if answer.detail else "dedup replay"
        )
        replay = ProverAnswer(answer.verdict, answer.prover, time=0.0, detail=detail)
        replay.cached = True
        answers.append(replay)
    return SequentOutcome(
        sequent=sequent,
        proved=representative.proved,
        prover=representative.prover,
        answers=answers,
        budget_exhausted=representative.budget_exhausted,
    )


# ---------------------------------------------------------------------------
# The static-discharge pre-pass
# ---------------------------------------------------------------------------


def _make_static_tier(enabled: bool) -> Optional["StaticDischarger"]:
    """Build the per-dispatcher :class:`StaticDischarger` (lazy import: the
    analysis package sits above the prover layer in the module hierarchy)."""
    if not enabled:
        return None
    from ..analysis.discharge import StaticDischarger

    return StaticDischarger()


def _static_outcome(sequent: Sequent, reason: str) -> SequentOutcome:
    """A sequent resolved by the static-discharge pre-pass: a ``STATIC``
    verdict attributed to the pseudo-prover ``"static"``, zero prover time.

    Static answers are never cached — deciding one costs less than the cache
    lookup would, and a stored ``STATIC`` would misattribute the verdict to a
    prover signature on later runs.
    """
    answer = ProverAnswer(
        Verdict.STATIC, "static", time=0.0, detail=f"static discharge: {reason}"
    )
    return SequentOutcome(sequent=sequent, proved=True, prover="static", answers=[answer])


# ---------------------------------------------------------------------------
# The prover chain on one sequent
# ---------------------------------------------------------------------------


def _chain_deadline(
    sequent_budget: Optional[float], deadline: Optional[Deadline]
) -> Deadline:
    """The deadline one sequent's chain runs under: the per-sequent budget
    bounded by an outer (request-level) deadline when the caller has one.
    ``bounded_by`` keeps the outer cancellation token, so a request deadline
    expiring mid-batch still cuts provers off cooperatively."""
    if deadline is not None:
        return deadline.bounded_by(sequent_budget)
    if sequent_budget is None:
        return Deadline.never()
    return Deadline.after(sequent_budget)


#: Hedged-start delay between racers of one wave: racer ``i`` starts only
#: after ``i * stagger`` seconds, and not at all if the wave has settled by
#: then.  The bundled provers are pure Python, so concurrent racers share
#: the GIL; staggering keeps a well-ordered portfolio at (almost) its
#: fixed-order speed — the rank-0 prover runs contention-free until the
#: hedge fires — while still letting a later prover overtake an engine that
#: is heading for its timeout.  0.15 s sits above the bulk of the suite's
#: genuine proof times (so winners rarely get contended) and far below the
#: engine budgets the hedge is there to cut short (1.5-3 s).
DEFAULT_RACE_STAGGER = 0.15


def _run_wave(
    wave: Sequence[Prover],
    sequent: Sequent,
    deadline: Deadline,
    stagger: float,
) -> Tuple[List[Optional[ProverAnswer]], List[float], List[bool]]:
    """Run one wave of provers on one sequent.

    Every racer runs under a copy of ``deadline`` sharing one cancellation
    token; the first racer to answer ``PROVED`` sets the token and the rest
    unwind with ``CANCELLED`` at their next checkpoint poll.  Racer ``i``
    hedges its start by ``i * stagger`` seconds, releasing early when (a)
    the wave settles — it then never starts at all, contributing no answer
    and no statistics, exactly as if the fixed-order chain had stopped
    before reaching it — or (b) ``i`` racers have already answered without
    a proof (the interpreter is idle, so waiting out the hedge would just
    sleep where the fixed-order chain falls straight through).

    Returns the per-slot answers (``None`` for never-started racers), the
    per-slot time slice each started racer was granted (for the reclaimed-
    CPU accounting of cancelled attempts), and per slot whether the racer
    ran while another racer was running.  A racer released by (b) after
    the racers before it have answered ran alone, like a fixed-order step:
    it did not contend for the interpreter.
    """
    if len(wave) == 1:
        prover = wave[0]
        slice_granted = min(deadline.remaining(), prover.timeout)
        return [prover.prove(sequent, deadline=deadline)], [slice_granted], [False]

    cancel = threading.Event()
    answers: List[Optional[ProverAnswer]] = [None] * len(wave)
    slices: List[float] = [0.0] * len(wave)
    runs: List[Optional[Tuple[float, float]]] = [None] * len(wave)
    progress = threading.Condition()
    finished = [0]  # racers that have answered (proof or not), under progress

    def racer(slot: int, prover: Prover) -> None:
        hedge_until = time.monotonic() + slot * stagger
        with progress:
            while not cancel.is_set() and finished[0] < slot:
                remaining = hedge_until - time.monotonic()
                if remaining <= 0.0:
                    break
                progress.wait(remaining)
        if cancel.is_set():
            return  # a rival settled the sequent before this hedge fired
        slices[slot] = min(deadline.remaining(), prover.timeout)
        started = time.monotonic()
        answer = prover.prove(sequent, deadline=deadline.with_cancel(cancel))
        # The run ends before ``finished`` counts it, so a racer released
        # by that count starts no earlier than this end.
        runs[slot] = (started, time.monotonic())
        answers[slot] = answer
        with progress:
            finished[0] += 1
            if answer.proved:
                cancel.set()  # stop the losers at their next checkpoint poll
            progress.notify_all()

    threads = [
        threading.Thread(
            target=racer,
            args=(slot, prover),
            name=f"racer-{slot}-{prover.name}",
            daemon=True,
        )
        for slot, prover in enumerate(wave)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    overlapped = [
        mine is not None
        and any(
            other is not None and slot != rival and mine[0] < other[1] and other[0] < mine[1]
            for rival, other in enumerate(runs)
        )
        for slot, mine in enumerate(runs)
    ]
    return answers, slices, overlapped


def _race_prover_chain(
    provers: Sequence[Prover],
    sequent: Sequent,
    race: int = 1,
    deadline: Optional[Deadline] = None,
    stagger: float = DEFAULT_RACE_STAGGER,
) -> SequentOutcome:
    """Offer one sequent to ``provers`` — its still-open provers, in chain
    order — in waves of ``race``.  This is the one chain function of every
    executor; a wave of one is the fixed-order step.

    A wave with no ``PROVED`` answer falls through to the next, so every
    prover still gets its turn and the set of provable sequents does not
    depend on ``race``.  When several racers prove, the *wave-order* answer
    wins — completion order never decides, so attribution is reproducible.
    A wave counts as a race (``raced``, ``race_won_by``) only when racers
    actually ran at the same time.  ``TIMEOUT`` answers of such racers are
    marked ``truncated`` (racers share the interpreter, so a wall-clock
    timeout under contention says nothing a cache entry should remember);
    cancelled attempts yield ``CANCELLED`` answers.  Once ``deadline`` has
    passed the remaining waves are skipped and the outcome is marked
    ``budget_exhausted``.

    The chain never touches the cache: the dispatcher scans it before and
    stores the returned answers after, in the calling thread.
    """
    if deadline is None:
        deadline = Deadline.never()
    outcome = SequentOutcome(sequent=sequent, proved=False)
    for position in range(0, len(provers), race):
        if deadline.expired():
            outcome.budget_exhausted = True
            break
        wave = provers[position:position + race]
        answers, slices, overlapped = _run_wave(wave, sequent, deadline, stagger)
        contended = any(overlapped)
        if contended:
            outcome.raced += 1
        winner: Optional[ProverAnswer] = None
        for slot, answer in enumerate(answers):
            if answer is None:
                continue  # hedge never fired: not an attempt, no record
            if overlapped[slot] and answer.verdict is Verdict.TIMEOUT:
                answer.truncated = True
            if answer.verdict is Verdict.CANCELLED:
                outcome.reclaimed += max(0.0, slices[slot] - answer.time)
            outcome.answers.append(answer)
            if winner is None and answer.proved:
                winner = answer
        if winner is not None:
            outcome.proved = True
            outcome.prover = winner.prover
            if contended:
                outcome.race_won_by = winner.prover
            break
    return outcome


def _observe_outcomes(
    ordering: Optional["ProverOrdering"], outcomes: Sequence[SequentOutcome]
) -> None:
    """Feed a batch's live answers to the learned ordering and persist it.

    Replays, ``CANCELLED`` and truncated answers teach nothing (the
    ordering skips them itself); the table is saved after the batch when it
    has a path and learned anything new.
    """
    if ordering is None:
        return
    for outcome in outcomes:
        for answer in outcome.answers:
            ordering.observe(outcome.sequent, answer)
    if ordering.dirty and ordering.path:
        ordering.save()


def _record_answer(result: DispatchResult, answer: ProverAnswer, cache_enabled: bool) -> None:
    """Account one prover answer: cached answers count as cache hits and are
    never recorded in :class:`ProverStats` (the prover did not run); live
    answers count as misses (when a cache was consulted) and accumulate
    per-prover statistics and CPU time.  ``STATIC`` answers are neither: the
    pre-pass resolved the sequent before the cache was consulted, so they
    accrue (zero-time) stats under the ``"static"`` pseudo-prover without
    touching the cache counters."""
    if answer.cached:
        result.cache_stats.hits += 1
        return
    if answer.verdict is Verdict.STATIC:
        result.stats.setdefault(answer.prover, ProverStats()).record(answer)
        return
    if answer.verdict is Verdict.CANCELLED:
        # A cancelled racing attempt is neither a hit nor a miss — the
        # lookup happened, but no verdict was computed or stored — and it
        # is not an *attempt* in the Figure 7 sense: only the dedicated
        # cancellation counters (and the real CPU it burned) are recorded.
        result.cancelled_answers += 1
        result.cpu_time += answer.time
        result.stats.setdefault(answer.prover, ProverStats()).cancelled += 1
        return
    if cache_enabled:
        result.cache_stats.misses += 1
    result.stats.setdefault(answer.prover, ProverStats()).record(answer)
    result.cpu_time += answer.time


def _merge_outcomes(
    result: DispatchResult, outcomes: Sequence[SequentOutcome], cache_enabled: bool
) -> None:
    """Fold outcomes into ``result`` in the original sequent order.

    Statistics are recorded answer by answer in sequent order, whatever
    executor produced the outcomes, which keeps per-prover
    attempted/proved/time identical between executors.
    """
    for outcome in outcomes:
        result.outcomes.append(outcome)
        for answer in outcome.answers:
            _record_answer(result, answer, cache_enabled)
        result.races_run += outcome.raced
        result.cancelled_reclaimed += outcome.reclaimed
        if outcome.race_won_by:
            result.race_wins[outcome.race_won_by] = (
                result.race_wins.get(outcome.race_won_by, 0) + 1
            )


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------


#: Per-worker-process portfolio cache: building provers once per process
#: instead of once per sequent task keeps per-task overhead negligible for
#: fine-grained sequents.
_PROCESS_PORTFOLIOS: Dict[Tuple, List[Prover]] = {}


def _process_chain(
    payload: Tuple[Sequence[str], dict, List[int], Sequent, Optional[float], int, float]
) -> SequentOutcome:
    """The chain task of a process-pool worker (top-level, so picklable).

    The portfolio comes from the per-process cache above; ``open_`` lists
    the portfolio indices of the provers still open, in chain order.  The
    deadline is rebuilt from ``budget``, the sequent budget the parent
    clipped to its batch deadline at submit time: a Deadline's monotonic
    expiry instant cannot cross the process boundary.
    """
    names, options, open_, sequent, budget, race, stagger = payload
    key = (tuple(names), repr(sorted(options.items())))
    provers = _PROCESS_PORTFOLIOS.get(key)
    if provers is None:
        provers = _PROCESS_PORTFOLIOS[key] = make_provers(names, **options)
    chain = [provers[index] for index in open_]
    return _race_prover_chain(chain, sequent, race, _chain_deadline(budget, None), stagger)


#: What the first pass of ``prove_all`` leaves per sequent: ``None`` for a
#: dedup duplicate, a settled outcome, or the replayed answers plus the
#: pool future of the open provers' chain.
_Slot = Union[None, SequentOutcome, Tuple[List[ProverAnswer], Future]]


class Dispatcher:
    """Runs the prover portfolio ``provers`` over batches of sequents, each
    sequent's chain inline in the calling thread.

    ``cache=`` is consulted before any prover runs and stores every fresh
    verdict except budget-truncated ``TIMEOUT``s and ``CANCELLED`` racers.
    ``sequent_budget=T`` bounds (and enforces) the time one sequent's chain
    may take.  ``dedup=True`` enables the digest-grouping pre-pass: one
    representative per group of structurally identical sequents is proved
    and its verdict replayed for the duplicates.

    ``static_tier=True`` enables the static-discharge pre-pass
    (:class:`repro.analysis.discharge.StaticDischarger`): sequents provable
    from dataflow facts alone — trivially true goals, goals structurally
    equal to an assumption, infeasible paths — resolve with the ``STATIC``
    verdict before the cache or any prover is consulted.

    ``race >= 2`` runs the open provers in waves of ``race`` concurrent
    racers ranked by the learned ``ordering`` (portfolio order without
    one); the first PROVED answer, wave order breaking ties, wins.
    """

    #: No pool: :class:`ParallelDispatcher` sets its own per instance.
    workers = 1

    def __init__(
        self,
        provers: Sequence[Prover],
        cache: Optional[SequentCache] = None,
        sequent_budget: Optional[float] = None,
        dedup: bool = False,
        static_tier: bool = False,
        race: int = 1,
        ordering: Optional[ProverOrdering] = None,
        race_stagger: float = DEFAULT_RACE_STAGGER,
    ) -> None:
        self.provers = list(provers)
        self.cache = cache
        self.sequent_budget = sequent_budget
        self.dedup = dedup
        # The static pre-pass runs in the calling thread, before any task
        # is submitted, so the discharger's counters stay single-threaded.
        self.static = _make_static_tier(static_tier)
        self.race = max(1, int(race))
        self.ordering = ordering
        self.race_stagger = race_stagger
        self._by_name = {prover.name: prover for prover in self.provers}
        # The portfolio runs one chain at a time, as in a worker process: a
        # prover may keep per-attempt state on the instance (the interactive
        # kernel's deadline), and the daemon's inline lanes share dispatchers.
        self._portfolio_lock = threading.Lock()

    def prove_all(
        self, sequents: Sequence[Sequent], deadline: Optional[Deadline] = None
    ) -> DispatchResult:
        """Prove a batch; outcomes come back in sequent order.

        ``deadline`` is an optional *batch-level* bound (e.g. a request
        budget): every sequent's chain runs under the earlier of it and the
        per-sequent budget, and sequents reached after it passes come back
        unproved with ``budget_exhausted``.
        """
        result = DispatchResult(workers=self.workers)
        start = time.perf_counter()
        rep = _dedup_representatives(sequents) if self.dedup else None
        pool, owned = self._open_pool()
        outcomes: List[SequentOutcome] = []
        try:
            # Pass 1 settles what needs no prover and starts the rest.
            # Inline chains finish (and store their answers) before the next
            # sequent's cache scan; pool chains run while the scan goes on.
            slots: List[_Slot] = [
                None
                if rep is not None and rep[index] != index
                else self._start(pool, sequent, deadline)
                for index, sequent in enumerate(sequents)
            ]
            # Pass 2 collects the pool's chains and fans out duplicates.
            for index, (sequent, slot) in enumerate(zip(sequents, slots)):
                if slot is None:
                    outcome = _replayed_outcome(sequent, outcomes[rep[index]])
                    result.dedup_replayed += 1
                elif isinstance(slot, SequentOutcome):
                    outcome = slot
                else:
                    cached, future = slot
                    outcome = self._settle(sequent, cached, future.result())
                outcomes.append(outcome)
        finally:
            if owned:
                pool.shutdown(wait=True)
        _merge_outcomes(result, outcomes, self.cache is not None)
        _observe_outcomes(self.ordering, outcomes)
        result.total_time = result.wall_time = time.perf_counter() - start
        if pool is not None and result.wall_time > 0:
            # The pool does not reveal which worker ran a task: report the
            # average busy fraction, the batch's prover time spread across
            # the pool.
            result.worker_utilization = {
                "process-pool-avg": result.cpu_time / self.workers / result.wall_time
            }
        return result

    def _open_pool(self) -> Tuple[Optional[Executor], bool]:
        """The executor of one batch and whether ``prove_all`` owns it:
        none, so every chain runs inline."""
        return None, False

    def _start(
        self, pool: Optional[Executor], sequent: Sequent, deadline: Optional[Deadline]
    ) -> _Slot:
        """Settle ``sequent`` from the static tier or the cache, or run its
        open provers: inline when ``pool`` is None, else as a pool task."""
        if self.static is not None:
            reason = self.static.check(sequent)
            if reason is not None:
                return _static_outcome(sequent, reason)
        cached, open_ = self._scan_cache(sequent)
        if not open_:
            return self._settle(sequent, cached, SequentOutcome(sequent=sequent, proved=False))
        live = self._run(pool, sequent, open_, deadline)
        if isinstance(live, SequentOutcome):
            return self._settle(sequent, cached, live)
        return cached, live

    def _run(
        self,
        pool: Optional[Executor],
        sequent: Sequent,
        open_: List[int],
        deadline: Optional[Deadline],
    ) -> Union[SequentOutcome, Future]:
        """Run the chain of the open provers (portfolio indices, in chain
        order) inline, on this dispatcher's own portfolio.  The chain's
        deadline starts once the portfolio is free."""
        with self._portfolio_lock:
            return _race_prover_chain(
                [self.provers[index] for index in open_], sequent, self.race,
                _chain_deadline(self.sequent_budget, deadline), self.race_stagger,
            )

    def _scan_cache(self, sequent: Sequent) -> Tuple[List[ProverAnswer], List[int]]:
        """The one cache scan: every prover is looked up, in chain order,
        before any prover runs.

        Returns the replayed answers and the portfolio indices of the
        provers still open, in chain order.  A cached ``PROVED`` anywhere
        in the chain settles the sequent (nothing is left open).  The chain
        order is the portfolio's, or the learned ordering's ranking when
        racing.
        """
        if self.ordering is not None and self.race > 1:
            order = self.ordering.rank(sequent, [prover.name for prover in self.provers])
        else:
            order = list(range(len(self.provers)))
        cached: List[ProverAnswer] = []
        open_: List[int] = []
        for index in order:
            prover = self.provers[index]
            entry = (
                self.cache.lookup(sequent, prover.name, prover.options_signature())
                if self.cache is not None
                else None
            )
            if entry is None:
                open_.append(index)
                continue
            cached.append(entry.to_answer(prover.name))
            if entry.verdict is Verdict.PROVED:
                return cached, []
        return cached, open_

    def _settle(
        self, sequent: Sequent, cached: List[ProverAnswer], live: SequentOutcome
    ) -> SequentOutcome:
        """Store the chain's fresh answers and put the replayed ones first.

        A *truncated* ``TIMEOUT`` — the deadline left the prover less than
        its configured timeout, or it contended with a racer — reflects the
        budget or the race, not the prover, and storing it would poison
        later runs; ``CANCELLED`` says nothing about the sequent.  Neither
        is stored.
        """
        live.sequent = sequent  # a process worker returns a copy
        if self.cache is not None:
            for answer in live.answers:
                if not answer.truncated and answer.verdict is not Verdict.CANCELLED:
                    prover = self._by_name[answer.prover]
                    self.cache.store(sequent, prover.name, answer, prover.options_signature())
        live.answers[:0] = cached
        if cached and cached[-1].proved:
            live.proved = True
            live.prover = cached[-1].prover
        return live


class ParallelDispatcher(Dispatcher):
    """A :class:`Dispatcher` whose chains run on a process pool.

    Built from prover names and options, from which each worker process
    rebuilds the portfolio once (``_process_chain``).  Each chain gets its
    own process and time slice, as Jahob's external provers do.

    The pool is ``executor=`` when one is lent — a long-lived pool, never
    shut down here, whose workers keep their portfolios across batches (the
    verify daemon's farm) — or else one of ``workers`` processes built for
    each ``prove_all`` call.  ``workers=1`` with no executor runs the
    chains inline: a pool of one would only make the calling thread wait.
    Whatever the executor, the cache scan, the cache stores and the merge
    happen in the calling thread, so outcomes, statistics and cache
    counters match the inline :class:`Dispatcher`.
    """

    def __init__(
        self,
        names: Sequence[str] = DEFAULT_ORDER,
        workers: Optional[int] = None,
        cache: Optional[SequentCache] = None,
        sequent_budget: Optional[float] = None,
        dedup: bool = False,
        static_tier: bool = False,
        race: int = 1,
        ordering: Optional[ProverOrdering] = None,
        race_stagger: float = DEFAULT_RACE_STAGGER,
        executor: Optional[Executor] = None,
        **options,
    ) -> None:
        self._names = resolve_prover_names(names)
        self._options = options
        super().__init__(
            make_provers(self._names, **options),
            cache=cache,
            sequent_budget=sequent_budget,
            dedup=dedup,
            static_tier=static_tier,
            race=race,
            ordering=ordering,
            race_stagger=race_stagger,
        )
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.executor = executor

    # The one implementation, bound as this class's own attribute so that
    # instrumenting either class's entry point never wraps the other's.
    prove_all = Dispatcher.prove_all

    @classmethod
    def from_names(
        cls, names: Sequence[str] = DEFAULT_ORDER, backend: str = "process", **kwargs
    ) -> "ParallelDispatcher":
        """The constructor, for callers that still name the executor with
        ``backend``: only ``"process"`` is accepted."""
        if backend != "process":
            raise ValueError(
                f"backend {backend!r} is not available: the thread backend was "
                "retired; chains run inline (workers=1) or on a process pool"
            )
        return cls(names, **kwargs)

    def _open_pool(self) -> Tuple[Optional[Executor], bool]:
        if self.executor is not None:
            return self.executor, False
        if self.workers == 1:
            return None, False
        # Imported here: ``multiprocessing`` is only worth loading once a
        # pool is actually built.
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.workers), True

    def _run(
        self,
        pool: Optional[Executor],
        sequent: Sequent,
        open_: List[int],
        deadline: Optional[Deadline],
    ) -> Union[SequentOutcome, Future]:
        """Submit the open provers' chain as a pool task (inline without a
        pool).  The task gets the sequent budget clipped to the batch
        deadline now; none is submitted once that deadline has passed."""
        if pool is None:
            return super()._run(pool, sequent, open_, deadline)
        budget = self.sequent_budget
        if deadline is not None:
            slack = deadline.remaining()
            if slack <= 0:
                return SequentOutcome(sequent=sequent, proved=False, budget_exhausted=True)
            budget = slack if budget is None else min(budget, slack)
        return pool.submit(
            _process_chain,
            (self._names, self._options, open_, sequent, budget, self.race, self.race_stagger),
        )
