"""Property tests for the set-of-support + ordered resolution engine.

Three properties pin the engine (set of support, KBO ordering,
negative-literal selection and backward subsumption, all always on):

* *soundness against small models*: on randomly generated clause sets,
  whenever the engine derives the empty clause, an exhaustive search over
  every interpretation with a domain of size 1 or 2 finds no model — the
  restrictions may lose proofs, never invent them (the model search has a
  self-test of its own, so a checker that never finds models cannot pass
  vacuously);
* *completeness on a corpus*: small valid sequents are proved and small
  invalid ones are not;
* *index exactness*: the top-symbol literal index retrieves exactly the
  resolution partners the naive all-pairs scan finds, and the subsumption
  index agrees clause-for-clause with the naive subsumer scan.
"""

import itertools
import random

import pytest

from repro.fol.index import LiteralIndex, SubsumptionIndex, UnitIndex
from repro.fol.prover import FirstOrderProver
from repro.fol.resolution import ResolutionProver, _resolvents
from repro.fol.terms import (
    Clause,
    FApp,
    FVar,
    Literal,
    subsumes,
    unify_literals,
    apply_subst_clause,
)
from repro.form.parser import parse_formula as parse
from repro.vcgen.sequent import sequent

# ---------------------------------------------------------------------------
# Random clause generation (seeded: every run sees the same corpus)
# ---------------------------------------------------------------------------

_PREDICATES = [("p", 1), ("q", 1), ("r", 2)]
_CONSTANTS = ["a", "b", "c"]
_VARIABLES = ["X", "Y"]


def _random_term(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if roll < 0.4:
        return FVar(rng.choice(_VARIABLES))
    if roll < 0.85 or depth >= 1:
        return FApp(rng.choice(_CONSTANTS), ())
    return FApp("f", (_random_term(rng, depth + 1),))


def _random_literal(rng: random.Random) -> Literal:
    pred, arity = rng.choice(_PREDICATES)
    args = tuple(_random_term(rng) for _ in range(arity))
    return Literal(rng.random() < 0.55, pred, args)


def _random_clause(rng: random.Random) -> Clause:
    return Clause(tuple(_random_literal(rng) for _ in range(rng.randint(1, 3))))


def _random_clause_set(rng: random.Random):
    return [_random_clause(rng) for _ in range(rng.randint(3, 8))]


def _canonical(clause: Clause) -> str:
    """Alpha-rename variables in order of appearance, for multiset comparison."""
    mapping = {}

    def canon_term(term):
        if isinstance(term, FVar):
            if term.name not in mapping:
                mapping[term.name] = FVar(f"V{len(mapping)}")
            return mapping[term.name]
        return FApp(term.func, tuple(canon_term(a) for a in term.args))

    return " | ".join(
        str(Literal(lit.positive, lit.pred, tuple(canon_term(a) for a in lit.args)))
        for lit in clause.literals
    )


# ---------------------------------------------------------------------------
# Soundness: a refuted clause set has no small model
# ---------------------------------------------------------------------------


def _signature(clauses):
    """Function symbols (constants included) and predicates with arities;
    ``=`` is interpreted as identity and therefore not a symbol here."""
    functions, predicates = {}, {}

    def visit(term):
        if isinstance(term, FApp):
            functions[term.func] = len(term.args)
            for arg in term.args:
                visit(arg)

    for clause in clauses:
        for lit in clause.literals:
            if lit.pred != "=":
                predicates[lit.pred] = len(lit.args)
            for arg in lit.args:
                visit(arg)
    return functions, predicates


def _clause_vars(clause):
    names = []

    def visit(term):
        if isinstance(term, FVar):
            if term.name not in names:
                names.append(term.name)
        else:
            for arg in term.args:
                visit(arg)

    for lit in clause.literals:
        for arg in lit.args:
            visit(arg)
    return names


def _holds(clause, names, interpretation, size):
    """Every grounding of ``clause`` over the domain satisfies a literal."""

    def value(term, env):
        if isinstance(term, FVar):
            return env[term.name]
        return interpretation[term.func][tuple(value(a, env) for a in term.args)]

    for values in itertools.product(range(size), repeat=len(names)):
        env = dict(zip(names, values))
        satisfied = False
        for lit in clause.literals:
            args = tuple(value(a, env) for a in lit.args)
            if lit.pred == "=":
                truth = args[0] == args[1]
            else:
                truth = interpretation[lit.pred][args]
            if truth == lit.positive:
                satisfied = True
                break
        if not satisfied:
            return False
    return True


def _has_model(clauses, max_size=2):
    """Exhaustive model search over domains of size 1..``max_size``.

    Only the symbols the clause set mentions are interpreted.  Symbols are
    assigned one at a time, and each clause is checked as soon as all of
    its symbols are assigned, so a refuted set prunes early.
    """
    functions, predicates = _signature(clauses)
    symbols = [(name, arity, True) for name, arity in sorted(functions.items())]
    symbols += [(name, arity, False) for name, arity in sorted(predicates.items())]
    position = {name: i for i, (name, _arity, _func) in enumerate(symbols)}
    # ready[i]: the clauses whose symbols are all among the first i.
    ready = [[] for _ in range(len(symbols) + 1)]
    for clause in clauses:
        functions_of, predicates_of = _signature([clause])
        mentioned = {**functions_of, **predicates_of}
        level = max((position[name] + 1 for name in mentioned), default=0)
        ready[level].append((clause, _clause_vars(clause)))

    for size in range(1, max_size + 1):
        interpretation = {}

        def extend(i):
            if not all(
                _holds(clause, names, interpretation, size) for clause, names in ready[i]
            ):
                return False
            if i == len(symbols):
                return True
            name, arity, is_function = symbols[i]
            points = list(itertools.product(range(size), repeat=arity))
            outputs = range(size) if is_function else (False, True)
            for table in itertools.product(outputs, repeat=len(points)):
                interpretation[name] = dict(zip(points, table))
                if extend(i + 1):
                    return True
            del interpretation[name]
            return False

        if extend(0):
            return True
    return False


def _atom(pred, *args, positive=True):
    return Literal(positive, pred, tuple(
        FVar(a) if a[0].isupper() else FApp(a, ()) for a in args
    ))


def test_small_model_checker_finds_models_and_their_absence():
    # {p(a)}, {~p(b)}: satisfiable once a and b denote different elements.
    assert _has_model([Clause((_atom("p", "a"),)), Clause((_atom("p", "b", positive=False),))])
    # {p(X)}, {~p(a)}: unsatisfiable in every domain.
    assert not _has_model([Clause((_atom("p", "X"),)), Clause((_atom("p", "a", positive=False),))])
    # Equality is identity: p(a), ~p(b) and a = b have no model.
    assert not _has_model([
        Clause((_atom("p", "a"),)),
        Clause((_atom("p", "b", positive=False),)),
        Clause((_atom("=", "a", "b"),)),
    ])
    # Functions are interpreted too: f(a) = b, ~(f(c) = b), a = c has none.
    f_of = lambda x: FApp("f", (FApp(x, ()),))  # noqa: E731
    assert not _has_model([
        Clause((Literal(True, "=", (f_of("a"), FApp("b", ()))),)),
        Clause((Literal(False, "=", (f_of("c"), FApp("b", ()))),)),
        Clause((_atom("=", "a", "c"),)),
    ])


#: Seeds of the random soundness corpus.
_SOUNDNESS_SEEDS = list(range(40)) + list(range(3000, 3040))


def _refute_random_set(seed):
    rng = random.Random(seed)
    clauses = _random_clause_set(rng)
    # Seed the support the way the prover does: the all-negative clauses
    # (the semantic set of support of the all-atoms-true interpretation).
    support = [c for c in clauses if all(not lit.positive for lit in c.literals)]
    return clauses, ResolutionProver(max_seconds=2.0).refute(clauses, support=support)


@pytest.mark.parametrize("seed", _SOUNDNESS_SEEDS)
def test_refuted_clause_sets_have_no_small_model(seed):
    clauses, result = _refute_random_set(seed)
    if not result.refuted:
        return
    assert not _has_model(clauses), (
        f"seed {seed}: the engine refuted a clause set that has a model: "
        f"{[str(c) for c in clauses]}"
    )


def test_soundness_corpus_contains_refutations():
    """The soundness property only bites on refuted sets: pin that the
    corpus has enough of them (corpus too thin otherwise)."""
    refuted = sum(_refute_random_set(seed)[1].refuted for seed in _SOUNDNESS_SEEDS)
    assert refuted >= 10, f"only {refuted} refuted clause sets (corpus too thin)"


# ---------------------------------------------------------------------------
# Completeness on a small sequent corpus
# ---------------------------------------------------------------------------

_VALID = [
    (["p --> q", "p"], "q"),
    (["ALL x. p x --> q x", "p a"], "q a"),
    (["ALL x y. r x y --> r y x", "r a b"], "r b a"),
    (["ALL x y z. r x y & r y z --> r x z", "r a b", "r b c"], "r a c"),
    (["a = b", "p a"], "p b"),
    (["f a = b", "a = c"], "f c = b"),
    (["ALL x. x : S --> x : T", "a : S"], "a : T"),
    (["EX x. p x", "ALL x. p x --> q x"], "EX x. q x"),
    (["ALL x. p x | q x", "ALL x. ~ p x"], "q a"),
    ([], "(ALL x. p x) --> p a"),
    # Inconsistent assumptions: provable only through assumption-side
    # resolution — the case that forced the semantic (negative-clause) seed.
    # (The goal must share a symbol with the contradiction, or the
    # relevance filter soundly drops it.)
    (["p a", "~ p a"], "p b"),
]

_INVALID = [
    (["p --> q", "q"], "p"),
    (["p a"], "p b"),
    (["ALL x. p x --> q x"], "q a"),
    (["a = b"], "a = c"),
    ([], "p a"),
    (["EX x. p x"], "p a"),
    (["r a b", "r b c"], "r a c"),
]


def _verdict(assumptions, goal):
    seq = sequent([parse(a) for a in assumptions], parse(goal))
    return FirstOrderProver(timeout=5.0).prove(seq).proved


@pytest.mark.parametrize("assumptions, goal", _VALID)
def test_valid_sequents_are_proved(assumptions, goal):
    assert _verdict(assumptions, goal)


@pytest.mark.parametrize("assumptions, goal", _INVALID)
def test_invalid_sequents_are_not_proved(assumptions, goal):
    assert not _verdict(assumptions, goal)


# ---------------------------------------------------------------------------
# Index exactness: retrieval == all-pairs scan
# ---------------------------------------------------------------------------


def _resolvents_via_index(probe: Clause, actives):
    index = LiteralIndex()
    for clause_id, clause in enumerate(actives):
        index.add(clause_id, clause)
    out = []
    for i, literal in enumerate(probe.literals):
        for _cid, partner, j in index.resolution_candidates(literal):
            other = partner.literals[j]
            mgu = unify_literals(literal, other)
            if mgu is None:
                continue
            rest1 = probe.literals[:i] + probe.literals[i + 1:]
            rest2 = partner.literals[:j] + partner.literals[j + 1:]
            out.append(apply_subst_clause(Clause(rest1 + rest2), mgu))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_literal_index_finds_exactly_the_all_pairs_partners(seed):
    rng = random.Random(1000 + seed)
    actives = [_random_clause_set(rng), _random_clause_set(rng)][0]
    probe = _random_clause(rng)
    # Standardise apart, as the engine does before any inference.
    from repro.fol.terms import rename_clause

    actives = [rename_clause(c, f"_g{i}") for i, c in enumerate(actives)]
    probe = rename_clause(probe, "_probe")
    naive = [r for other in actives for r in _resolvents(probe, other)]
    indexed = _resolvents_via_index(probe, actives)
    assert sorted(map(_canonical, indexed)) == sorted(map(_canonical, naive)), (
        f"seed {seed}: index and all-pairs scan disagree"
    )


@pytest.mark.parametrize("seed", range(40))
def test_subsumption_index_agrees_with_naive_scan(seed):
    rng = random.Random(2000 + seed)
    actives = _random_clause_set(rng)
    index = SubsumptionIndex()
    for clause in actives:
        index.add(clause)
    for _ in range(10):
        probe = _random_clause(rng)
        naive = any(subsumes(general, probe) for general in actives)
        assert index.subsumed(probe) == naive


def test_unit_index_deletion_is_the_unit_resolvent():
    index = UnitIndex()
    index.add(Clause((Literal(True, "p", (FApp("a", ()),)),)))  # p(a)
    # q(X) | ~p(a): unit deletion must remove ~p(a).
    clause = Clause((
        Literal(True, "q", (FVar("X"),)),
        Literal(False, "p", (FApp("a", ()),)),
    ))
    simplified = index.simplify_clause(clause)
    assert simplified is not None
    assert [lit.pred for lit in simplified.literals] == ["q"]
    # p(a) | q(X) is an instance of the unit: the whole clause is redundant.
    subsumed = Clause((
        Literal(True, "p", (FApp("a", ()),)),
        Literal(True, "q", (FVar("X"),)),
    ))
    assert index.simplify_clause(subsumed) is None


# ---------------------------------------------------------------------------
# Backward subsumption
# ---------------------------------------------------------------------------


def test_literal_index_remove_drops_every_entry_of_the_clause():
    index = LiteralIndex()
    kept = Clause((Literal(True, "p", (FApp("a", ()),)),))
    gone = Clause((Literal(True, "p", (FApp("b", ()),)), Literal(False, "q", (FVar("X"),))))
    index.add(1, kept)
    index.add(2, gone)
    index.remove(2)
    probe_p = Literal(False, "p", (FVar("Y"),))
    assert [cid for cid, _c, _i in index.resolution_candidates(probe_p)] == [1]
    probe_q = Literal(True, "q", (FApp("c", ()),))
    assert list(index.resolution_candidates(probe_q)) == []


def test_backward_subsumption_removes_subsumed_active_clause():
    """p(X) activated after p(a) | q(b) must evict it: the only resolvent
    against ~p(c) then comes through the subsumer (the proof still closes).
    Without a support set the loop is undirected, so every clause is
    activated in turn."""
    clauses = [
        Clause((Literal(True, "p", (FApp("a", ()),)), Literal(True, "q", (FApp("b", ()),)))),
        Clause((Literal(True, "p", (FVar("X"),)),)),
        Clause((Literal(False, "p", (FApp("c", ()),)),)),
    ]
    assert ResolutionProver(max_seconds=2.0).refute(clauses).refuted


# ---------------------------------------------------------------------------
# Only the limits key the verdict cache
# ---------------------------------------------------------------------------


def test_only_limits_are_part_of_the_options_signature():
    """The search strategy is fixed, so only the budget and the clause
    limits can split the verdict cache."""
    keys = {part.split("=")[0] for part in FirstOrderProver().options_signature().split(";")}
    assert keys == {"timeout", "max_processed", "max_generated"}
    assert (
        FirstOrderProver(max_processed=10).options_signature()
        != FirstOrderProver().options_signature()
    )
