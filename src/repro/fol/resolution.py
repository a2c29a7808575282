"""A resolution/saturation theorem prover for first-order logic with equality.

This engine plays the role of SPASS and E in the original Jahob system.  It
is a given-clause saturation loop in the Otter style, with two search
restrictions (set of support, ordered resolution with literal selection)
layered on top of the basic calculus:

The given-clause loop
    Clauses live in two sets: *passive* (waiting to be processed) and
    *active* (processed, eligible as inference partners).  Each iteration
    pops one *given* clause from the passive queue, simplifies it against
    the active units, discards it if an active clause subsumes it, activates
    it, discards the active clauses it subsumes (backward subsumption), and
    generates every inference between the given clause and the active set
    (plus its own factors).  New clauses are simplified and pushed back into
    the passive queue.  The loop ends when the empty clause is derived
    (refutation), the passive queue drains (saturation), or a
    limit/deadline fires.

Set of support
    The classic goal-directedness device (Wos et al.): the caller marks the
    clauses descending from the *negated goal* as the initial set of
    support.  Only SOS clauses ever enter the passive queue — axiom and
    assumption clauses are activated directly at start-up — so every given
    clause descends from the goal and **axiom–axiom resolution is
    structurally impossible**.  Every inference has the given clause as one
    premise, hence at least one SOS premise, and its conclusion joins the
    SOS.  This is complete when the non-support clauses are satisfiable
    (true here: assumptions + sound axioms have the intended model) and
    prunes exactly the inferences that made the invariant-exit obligations
    drown: saturating the axiom closure of the backbone-reachability
    theory.  Without a support set the loop is undirected (every input
    clause starts passive).

Ordered resolution with literal selection
    A Knuth–Bendix ordering (uniform symbol weight 1, name precedence)
    orients the search: a clause resolves only on its *eligible* literals —
    its selected (heaviest) negative literal if it has one, otherwise its
    KBO-maximal literals.  Eligibility is computed before unification; since
    KBO is stable under substitution this admits a superset of the
    post-unification calculus, so refutational completeness is preserved
    while the quadratic literal-pair fan-out of wide clauses collapses to
    (usually) one literal per clause.

The remaining machinery is unchanged in spirit: equality is handled by
automatically generated equality axioms (reflexivity, symmetry,
transitivity, per-position congruence); redundancy elimination is tautology
deletion, unit simplification and forward and backward subsumption —
served by the indexed clause store of :mod:`repro.fol.index` instead of
all-pairs scans;
fairness within the passive queue is the age/weight two-tier selection
(every ``age_weight_ratio``-th given clause is the *oldest* passive clause
rather than the lightest); and the enforced
:class:`repro.provers.base.Deadline` is polled via ``checkpoint`` on every
hot loop (per given clause, per partner batch, per generated batch).

The prover is refutation based: the caller passes the clauses of
``assumptions ∧ ¬goal`` (optionally marking the ¬goal clauses as the set of
support) and the prover searches for the empty clause.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..provers.base import Deadline, DeadlineExpired
from .index import LiteralIndex, SubsumptionIndex, UnitIndex
from .terms import (
    Clause,
    FApp,
    FTerm,
    FVar,
    Literal,
    apply_subst_clause,
    clause_weight,
    rename_clause,
    subsumes,
    term_size,
    term_vars,
    unify_literals,
)


@dataclass
class SaturationResult:
    """Outcome of a saturation run."""

    refuted: bool
    generated: int
    processed: int
    elapsed: float
    reason: str = ""


# ---------------------------------------------------------------------------
# Knuth–Bendix ordering (uniform weight 1, name precedence)
# ---------------------------------------------------------------------------


def _var_counts(term: FTerm, counts: Dict[str, int]) -> None:
    if isinstance(term, FVar):
        counts[term.name] = counts.get(term.name, 0) + 1
        return
    assert isinstance(term, FApp)
    for arg in term.args:
        _var_counts(arg, counts)


def kbo_greater(s: FTerm, t: FTerm) -> bool:
    """``s >_kbo t`` with every symbol and variable weighing 1.

    Total on ground terms, stable under substitution, well-founded — the
    three properties ordered resolution needs.  Precedence between distinct
    head symbols is arity-then-name (ties impossible: symbols are names).
    """
    if s == t:
        return False
    if isinstance(s, FVar):
        return False  # a variable is minimal among terms containing it
    if isinstance(t, FVar):
        # s > x iff x occurs in s.
        counts: Dict[str, int] = {}
        _var_counts(s, counts)
        return t.name in counts
    # Variable condition: every variable of t occurs at least as often in s.
    s_counts: Dict[str, int] = {}
    t_counts: Dict[str, int] = {}
    _var_counts(s, s_counts)
    _var_counts(t, t_counts)
    for name, count in t_counts.items():
        if s_counts.get(name, 0) < count:
            return False
    s_weight, t_weight = term_size(s), term_size(t)
    if s_weight != t_weight:
        return s_weight > t_weight
    if s.func != t.func:
        return (len(s.args), s.func) > (len(t.args), t.func)
    for s_arg, t_arg in zip(s.args, t.args):
        if s_arg != t_arg:
            return kbo_greater(s_arg, t_arg)
    return False


def _literal_atom(literal: Literal) -> FTerm:
    """The atom of a literal as a term, for KBO comparison."""
    return FApp(literal.pred, literal.args)


# ---------------------------------------------------------------------------
# Passive queue (weight/age two-tier, as in PR 2)
# ---------------------------------------------------------------------------


class _PassiveQueue:
    """Weight-ordered heap and age-ordered FIFO over one logical passive set;
    entries are tombstoned via ``consumed`` when popped from the other tier."""

    def __init__(self, age_weight_ratio: int) -> None:
        self.age_weight_ratio = max(1, age_weight_ratio)
        self._heap: List[Tuple[int, int, Clause]] = []
        self._by_age: deque = deque()
        self._consumed: Set[int] = set()
        self._counter = itertools.count()

    def push(self, clause: Clause) -> None:
        age = next(self._counter)
        heapq.heappush(self._heap, (clause_weight(clause), age, clause))
        self._by_age.append((age, clause))

    def pop(self, picks: int) -> Optional[Clause]:
        if picks % self.age_weight_ratio == 0:
            while self._by_age:
                age, clause = self._by_age.popleft()
                if age not in self._consumed:
                    self._consumed.add(age)
                    return clause
        while self._heap:
            _, age, clause = heapq.heappop(self._heap)
            if age not in self._consumed:
                self._consumed.add(age)
                return clause
        while self._by_age:
            age, clause = self._by_age.popleft()
            if age not in self._consumed:
                self._consumed.add(age)
                return clause
        return None


# ---------------------------------------------------------------------------
# Ground demodulation
# ---------------------------------------------------------------------------


class _GroundRewriter:
    """Forward demodulation with oriented ground unit equalities.

    Every unit clause ``l = r`` with both sides ground is oriented under
    the same KBO that orders resolution (heavy side rewrites to light
    side) and applied exhaustively to each clause before it is processed
    or queued.  Demodulation is a pure simplification — it replaces
    equals by equals under a unit the active set already contains — so it
    never adds inferences, only collapses the congruence-chain clutter
    ground equality reasoning otherwise spells out resolvent by
    resolvent.

    Restricting left-hand sides to *ground* terms keeps matching a
    dictionary lookup (no indexing, no substitution), and KBO
    well-foundedness makes exhaustive rewriting terminate: every rule
    application strictly decreases the redex in a well-founded order.
    """

    __slots__ = ("_rules", "_memo")

    def __init__(self) -> None:
        self._rules: Dict[FTerm, FTerm] = {}
        self._memo: Dict[FTerm, FTerm] = {}

    def __len__(self) -> int:
        return len(self._rules)

    def add(self, clause: Clause) -> bool:
        """Record ``clause`` as a rewrite rule if it is an orientable
        ground unit equality; returns whether a rule was added."""
        if len(clause.literals) != 1:
            return False
        lit = clause.literals[0]
        if not (lit.positive and lit.is_equality):
            return False
        lhs, rhs = lit.args
        if term_vars(lhs) or term_vars(rhs):
            return False
        if kbo_greater(lhs, rhs):
            big, small = lhs, rhs
        elif kbo_greater(rhs, lhs):
            big, small = rhs, lhs
        else:
            return False  # KBO is total on ground terms, so lhs == rhs
        # Normalise the right-hand side against the existing rules so
        # chains collapse at insertion; older rules whose stored result
        # predates this one are re-normalised lazily in rewrite_term.
        self._rules[big] = self.rewrite_term(small)
        self._memo = {}
        return True

    def rewrite_term(self, term: FTerm) -> FTerm:
        if not self._rules or isinstance(term, FVar):
            return term
        cached = self._memo.get(term)
        if cached is not None:
            return cached
        assert isinstance(term, FApp)
        args = tuple(self.rewrite_term(a) for a in term.args)
        result = term if all(a is b for a, b in zip(args, term.args)) else FApp(term.func, args)
        replacement = self._rules.get(result)
        if replacement is not None:
            # Recurse on the stored result: rules added after it was
            # recorded may reduce it further (terminates — each rule
            # application is KBO-decreasing).
            result = self.rewrite_term(replacement)
        self._memo[term] = result
        return result

    def rewrite_clause(self, clause: Clause) -> Clause:
        """Identity-preserving exhaustive rewrite of every literal."""
        if not self._rules:
            return clause
        literals: List[Literal] = []
        changed = False
        for lit in clause.literals:
            args = tuple(self.rewrite_term(a) for a in lit.args)
            if all(a is b for a, b in zip(args, lit.args)):
                literals.append(lit)
            else:
                literals.append(Literal(lit.positive, lit.pred, args))
                changed = True
        return Clause(tuple(literals)) if changed else clause


# ---------------------------------------------------------------------------
# The saturation engine
# ---------------------------------------------------------------------------


@dataclass
class ResolutionProver:
    """The saturation engine; one instance per proof attempt.

    The search restrictions documented in the module docstring limit which
    inferences are *attempted* and therefore can only affect completeness
    and speed, never soundness (every generated clause is a resolvent or
    factor).
    """

    max_seconds: float = 5.0
    max_processed: int = 2000
    max_generated: int = 30000
    max_clause_size: int = 12
    #: Every n-th given clause is selected by age (FIFO) instead of weight,
    #: the classic fairness device of saturation provers: without it, heavy
    #: input clauses (quantified loop invariants, wide negated goals) starve
    #: behind the stream of light resolvents and short proofs through them
    #: are never found.
    age_weight_ratio: int = 4

    # -- eligibility -----------------------------------------------------------

    def _eligible_indices(self, clause: Clause) -> Tuple[int, ...]:
        """Indices of the literals this clause may resolve/factor on:
        the selected negative literal if any, else the KBO-maximal ones."""
        literals = clause.literals
        if len(literals) <= 1:
            return tuple(range(len(literals)))
        negatives = [i for i, lit in enumerate(literals) if not lit.positive]
        if negatives:
            best = max(negatives, key=lambda i: (term_size(_literal_atom(literals[i])), -i))
            return (best,)
        atoms = [_literal_atom(lit) for lit in literals]
        maximal = tuple(
            i
            for i in range(len(atoms))
            if not any(j != i and kbo_greater(atoms[j], atoms[i]) for j in range(len(atoms)))
        )
        return maximal or tuple(range(len(literals)))

    # -- main loop -------------------------------------------------------------

    def refute(
        self,
        clauses: Iterable[Clause],
        deadline: Optional[Deadline] = None,
        support: Optional[Sequence[Clause]] = None,
    ) -> SaturationResult:
        """Search for the empty clause.

        ``support`` marks the initial set of support (by clause value;
        normally the clauses of the negated goal).  With a non-empty
        support only these clauses and their descendants become given
        clauses; the rest of the input is activated immediately and never
        initiates an inference.  Without one the loop is undirected.  ``deadline`` bounds the run (a fresh
        deadline of ``max_seconds`` applies when omitted); the loop polls it
        via ``checkpoint`` on every hot path, so on expiry it returns a
        ``"timeout"`` result recording the work done so far.
        """
        start = time.perf_counter()
        if deadline is None:
            deadline = Deadline.after(self.max_seconds)

        initial = [c for c in clauses if not c.is_tautology()]
        for clause in initial:
            if clause.is_empty:
                return SaturationResult(True, 0, 0, time.perf_counter() - start, "empty input clause")
        # Note: the reflexivity axiom x = x *is* a tautology by the clause
        # test, but it is also load-bearing (¬(t = t) subgoals, congruence
        # chains), so the equality axioms are deliberately not filtered.
        equality_axioms = list(_equality_axioms(_collect_signature(initial)))

        support_set = frozenset(support) if support else frozenset()
        sos = bool(support_set)

        passive = _PassiveQueue(self.age_weight_ratio)
        #: Active clauses by id (ids index the literal store for self-detection).
        active: Dict[int, Clause] = {}
        eligible: Dict[int, Tuple[int, ...]] = {}
        literal_index = LiteralIndex()
        subsumption_index = SubsumptionIndex()
        unit_index = UnitIndex()
        rewriter = _GroundRewriter()
        active_counter = itertools.count()
        generated = 0
        processed = 0

        def activate(clause: Clause, restricted: bool = True) -> Tuple[int, Clause]:
            """Add a clause to the active set and the indexes.

            ``restricted=False`` (non-support clauses under SOS) indexes
            *every* literal: the given clause is always goal-descended there,
            so the ordering restriction applies on the given side only —
            restricting the axiom side as well would re-create the selection
            ∕ set-of-support conflict (an axiom whose selected literal faces
            the wrong way could never be chained through backwards, and the
            forward inference that selection prescribes is exactly the
            axiom–axiom resolution SOS blocks).
            """
            clause_id = next(active_counter)
            clause = rename_clause(clause, f"_g{clause_id}")
            indices = (
                self._eligible_indices(clause)
                if restricted
                else tuple(range(len(clause.literals)))
            )
            active[clause_id] = clause
            eligible[clause_id] = indices
            # Index only the eligible literals: partner-side eligibility is
            # then enforced by retrieval itself.
            literal_index.add(clause_id, clause, indices)
            subsumption_index.add(clause)
            unit_index.add(clause)
            rewriter.add(clause)
            return clause_id, clause

        def progress() -> str:
            return f"{processed} clauses processed, {generated} generated"

        try:
            if sos:
                for clause in initial:
                    if clause in support_set:
                        passive.push(clause)
                    else:
                        activate(clause, restricted=False)
                for clause in equality_axioms:
                    activate(clause, restricted=False)
            else:
                for clause in initial + equality_axioms:
                    passive.push(clause)

            picks = 0
            while True:
                deadline.checkpoint(detail=progress)
                if processed > self.max_processed or generated > self.max_generated:
                    return SaturationResult(
                        False, generated, processed, time.perf_counter() - start, "limit reached"
                    )

                picks += 1
                given = passive.pop(picks)
                if given is None:
                    break

                simplified = unit_index.simplify_clause(given)
                if simplified is None:
                    continue
                if simplified.is_empty:
                    return SaturationResult(
                        True, generated, processed, time.perf_counter() - start,
                        "empty clause by unit simplification",
                    )
                simplified = rewriter.rewrite_clause(simplified)
                if simplified.is_tautology():
                    continue
                if subsumption_index.subsumed(simplified):
                    continue

                given_id, given = activate(simplified)
                processed += 1

                # Backward subsumption: discard active clauses the new
                # clause subsumes.  A pure redundancy deletion — every
                # resolvent through a subsumed clause is subsumed by one
                # through the subsumer — so it only shrinks the active set.
                for candidate_id, candidate in list(active.items()):
                    if candidate_id == given_id:
                        continue
                    deadline.checkpoint(every=128, detail=progress)
                    if subsumes(given, candidate):
                        del active[candidate_id]
                        del eligible[candidate_id]
                        literal_index.remove(candidate_id)

                new_clauses: List[Clause] = []
                given_eligible = eligible[given_id]
                new_clauses.extend(_factors(given, given_eligible))
                # Gather the index candidates, then unify in (partner, i, j)
                # order — the order the all-pairs scan used — so the passive
                # queue evolves deterministically regardless of bucket layout.
                candidates: List[Tuple[int, int, int]] = []
                for i in given_eligible:
                    literal = given.literals[i]
                    for partner_id, _partner, j in literal_index.resolution_candidates(literal):
                        deadline.checkpoint(every=256, detail=progress)
                        candidates.append((partner_id, i, j))
                candidates.sort()
                for partner_id, i, j in candidates:
                    deadline.checkpoint(every=128, detail=progress)
                    partner = active.get(partner_id)
                    if partner is None:
                        continue  # backward-subsumed while gathering
                    if partner_id == given_id:
                        partner = rename_clause(partner, "_s")
                    literal = given.literals[i]
                    other = partner.literals[j]
                    mgu = unify_literals(literal, other)
                    if mgu is None:
                        continue
                    rest1 = given.literals[:i] + given.literals[i + 1:]
                    rest2 = partner.literals[:j] + partner.literals[j + 1:]
                    new_clauses.append(apply_subst_clause(Clause(rest1 + rest2), mgu))

                for clause in new_clauses:
                    generated += 1
                    deadline.checkpoint(every=64, detail=progress)
                    if clause.is_empty:
                        return SaturationResult(
                            True, generated, processed, time.perf_counter() - start,
                            "empty clause derived",
                        )
                    clause = unit_index.simplify_clause(clause)
                    if clause is None:
                        continue
                    if clause.is_empty:
                        return SaturationResult(
                            True, generated, processed, time.perf_counter() - start,
                            "empty clause by unit simplification",
                        )
                    clause = rewriter.rewrite_clause(clause)
                    if clause.is_tautology() or len(clause) > self.max_clause_size:
                        continue
                    passive.push(clause)
        except DeadlineExpired:
            return SaturationResult(
                False, generated, processed, time.perf_counter() - start, "timeout"
            )

        reason = "set of support exhausted" if sos else "saturated without refutation"
        return SaturationResult(
            False, generated, processed, time.perf_counter() - start, reason
        )


# ---------------------------------------------------------------------------
# Inference rules
# ---------------------------------------------------------------------------


def _factors(clause: Clause, eligible: Optional[Tuple[int, ...]] = None) -> List[Clause]:
    """Binary factors of a clause, on its eligible literals (or all)."""
    out: List[Clause] = []
    indices = range(len(clause.literals)) if eligible is None else eligible
    for i in indices:
        lit1 = clause.literals[i]
        for j, lit2 in enumerate(clause.literals):
            if j == i or lit1.positive != lit2.positive:
                continue
            if j < i and (eligible is None or j in eligible):
                continue  # pair already factored from j's side
            mgu = unify_literals(lit1, lit2)
            if mgu is None:
                continue
            out.append(apply_subst_clause(clause, mgu))
    return out


def _resolvents(c1: Clause, c2: Clause) -> List[Clause]:
    """All binary resolvents of two clauses (c2 is standardised apart).

    Kept as the *unrestricted, unindexed* reference rule: the property tests
    compare the indexed engine's partner retrieval against this scan.
    """
    out: List[Clause] = []
    c2 = rename_clause(c2, "_r")
    for i, lit1 in enumerate(c1.literals):
        for j, lit2 in enumerate(c2.literals):
            if lit1.positive == lit2.positive:
                continue
            mgu = unify_literals(lit1, lit2)
            if mgu is None:
                continue
            rest1 = c1.literals[:i] + c1.literals[i + 1:]
            rest2 = c2.literals[:j] + c2.literals[j + 1:]
            resolvent = apply_subst_clause(Clause(rest1 + rest2), mgu)
            out.append(resolvent)
    return out


# ---------------------------------------------------------------------------
# Equality axioms
# ---------------------------------------------------------------------------


def _collect_signature(clauses: Iterable[Clause]) -> Tuple[Dict[str, int], Dict[str, int], bool]:
    """Function and predicate symbols (with arities) and whether '=' occurs."""
    functions: Dict[str, int] = {}
    predicates: Dict[str, int] = {}
    has_equality = False

    def visit_term(term: FTerm) -> None:
        if isinstance(term, FApp):
            if term.args:
                functions[term.func] = len(term.args)
            for arg in term.args:
                visit_term(arg)

    for clause in clauses:
        for literal in clause.literals:
            if literal.is_equality:
                has_equality = True
            elif literal.args:
                predicates[literal.pred] = len(literal.args)
            for arg in literal.args:
                visit_term(arg)
    return functions, predicates, has_equality


def _equality_axioms(signature) -> Iterable[Clause]:
    functions, predicates, has_equality = signature
    if not has_equality:
        return []
    axioms: List[Clause] = []
    x, y, z = FVar("EQX"), FVar("EQY"), FVar("EQZ")
    eq = lambda a, b: Literal(True, "=", (a, b))  # noqa: E731
    neq = lambda a, b: Literal(False, "=", (a, b))  # noqa: E731
    # Reflexivity, symmetry, transitivity.
    axioms.append(Clause((eq(x, x),)))
    axioms.append(Clause((neq(x, y), eq(y, x))))
    axioms.append(Clause((neq(x, y), neq(y, z), eq(x, z))))
    # Congruence for functions (one argument position at a time keeps the
    # axioms small and is complete in combination with transitivity).
    for func, arity in functions.items():
        if func.startswith("$int_"):
            continue
        for position in range(arity):
            vars_before = [FVar(f"C{func}_{i}") for i in range(arity)]
            changed = list(vars_before)
            fresh = FVar(f"C{func}_sub")
            changed[position] = fresh
            axioms.append(
                Clause(
                    (
                        neq(vars_before[position], fresh),
                        eq(FApp(func, tuple(vars_before)), FApp(func, tuple(changed))),
                    )
                )
            )
    # Congruence for predicates.
    for pred, arity in predicates.items():
        for position in range(arity):
            vars_before = [FVar(f"P{pred}_{i}") for i in range(arity)]
            changed = list(vars_before)
            fresh = FVar(f"P{pred}_sub")
            changed[position] = fresh
            axioms.append(
                Clause(
                    (
                        neq(vars_before[position], fresh),
                        Literal(False, pred, tuple(vars_before)),
                        Literal(True, pred, tuple(changed)),
                    )
                )
            )
    return axioms
