"""Clausification: HOL formulas (already first-order in shape) to CNF clauses.

The pipeline is the textbook one: negation normal form, Skolemization of
existential quantifiers (with Skolem functions over the enclosing universal
variables), removal of universal quantifiers, and distribution of
disjunction over conjunction, with a size cap that aborts pathological
blow-ups (the caller then simply fails to prove the sequent, which is
sound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..form import ast as F
from .terms import Clause, FApp, FTerm, FVar, Literal

if TYPE_CHECKING:  # import cycle: form.intern interns this module's terms
    from ..form.intern import TermBank


class ClausificationError(Exception):
    """Raised when a formula cannot be clausified (e.g. residual lambdas)."""


@dataclass
class Clausifier:
    """Stateful clausifier producing standardised-apart clauses.

    Terms go through a :class:`TermBank` (the caller's, or a fresh one per
    clausifier): every produced FOL term is the bank's canonical node, so
    downstream structural comparisons (the congruence closure's
    dictionaries, the resolution indexes) hit the pointer-identity fast
    path of :class:`FApp.__eq__`; the bank's normalisation memo also
    short-circuits the ``simplify(nnf(...))`` preamble for formulas seen
    before.
    """

    max_clauses: int = 4000
    bank: Optional["TermBank"] = None
    _var_counter: int = 0
    _skolem_counter: int = 0

    def __post_init__(self) -> None:
        if self.bank is None:
            # Imported here: repro.form.intern interns this module's terms.
            from ..form.intern import TermBank

            self.bank = TermBank()

    def fresh_var(self, base: str) -> FVar:
        self._var_counter += 1
        return FVar(f"V_{base}_{self._var_counter}")

    def fresh_skolem(self) -> str:
        self._skolem_counter += 1
        return f"sk_{self._skolem_counter}"

    def _fapp(self, func: str, args: Tuple[FTerm, ...] = ()) -> FApp:
        return self.bank.fapp(func, args)

    # -- formula -> clauses ---------------------------------------------------

    def clausify(self, formula: F.Term) -> List[Clause]:
        """Clausify one formula (conjoined with previously produced clauses)."""
        formula = self.bank.normalised(formula)
        matrix = self._transform(formula, {}, [])
        clauses = [Clause(tuple(lits)) for lits in matrix]
        return [c for c in clauses if not c.is_tautology()]

    def _transform(
        self,
        formula: F.Term,
        bound: Dict[str, FTerm],
        universals: List[FVar],
    ) -> List[List[Literal]]:
        """Return a CNF matrix (list of lists of literals)."""
        if isinstance(formula, F.BoolLit):
            return [] if formula.value else [[]]
        if isinstance(formula, F.And):
            out: List[List[Literal]] = []
            for arg in formula.args:
                out.extend(self._transform(arg, bound, universals))
                if len(out) > self.max_clauses:
                    raise ClausificationError("CNF blow-up")
            return out
        if isinstance(formula, F.Or):
            parts = [self._transform(arg, bound, universals) for arg in formula.args]
            out = [[]]
            for part in parts:
                if not part:  # True disjunct
                    return []
                new_out = []
                for existing in out:
                    for clause in part:
                        new_out.append(existing + clause)
                        if len(new_out) > self.max_clauses:
                            raise ClausificationError("CNF blow-up")
                out = new_out
            return out
        if isinstance(formula, F.Quant):
            if formula.kind == "ALL":
                new_bound = dict(bound)
                new_universals = list(universals)
                for name, _typ in formula.params:
                    var = self.fresh_var(name)
                    new_bound[name] = var
                    new_universals.append(var)
                return self._transform(formula.body, new_bound, new_universals)
            # Existential: Skolemize over the enclosing universals.
            new_bound = dict(bound)
            for name, _typ in formula.params:
                skolem = FApp(self.fresh_skolem(), tuple(universals))
                new_bound[name] = skolem
            return self._transform(formula.body, new_bound, universals)
        if isinstance(formula, F.Not):
            literal = self._atom_to_literal(formula.arg, bound, positive=False)
            return [[literal]]
        literal = self._atom_to_literal(formula, bound, positive=True)
        return [[literal]]

    # -- atoms and terms -------------------------------------------------------

    def _atom_to_literal(self, atom: F.Term, bound: Dict[str, FTerm], positive: bool) -> Literal:
        if isinstance(atom, F.Eq):
            return Literal(
                positive,
                "=",
                (self.term_to_fol(atom.lhs, bound), self.term_to_fol(atom.rhs, bound)),
            )
        if isinstance(atom, F.Iff):
            # Residual boolean equivalence between atoms: encode as equality of
            # reified boolean terms (rare; kept sound by using a dedicated symbol).
            return Literal(
                positive,
                "iff",
                (self.term_to_fol(atom.lhs, bound), self.term_to_fol(atom.rhs, bound)),
            )
        if isinstance(atom, F.App) and isinstance(atom.func, F.Var):
            args = tuple(self.term_to_fol(a, bound) for a in atom.args)
            return Literal(positive, atom.func.name, args)
        if isinstance(atom, F.Var):
            return Literal(positive, atom.name, ())
        if isinstance(atom, F.App):
            # Application of a non-variable head (e.g. a bound higher-order
            # variable): reify the whole application as a propositional term.
            return Literal(positive, "holds", (self.term_to_fol(atom, bound),))
        raise ClausificationError(f"cannot clausify atom {atom!r}")

    def term_to_fol(self, term: F.Term, bound: Dict[str, FTerm]) -> FTerm:
        # Encoding conventions ($int_N/$true/$false sentinels, $pair tuples,
        # curried-application flattening) are mirrored by the E-matcher's
        # translator (repro.smt.instantiate._HolToFol); keep them in lockstep
        # or congruence classes silently split between matcher and theories.
        if isinstance(term, F.Var):
            if term.name in bound:
                return bound[term.name]
            return self._fapp(term.name)
        if isinstance(term, F.IntLit):
            return self._fapp(f"$int_{term.value}")
        if isinstance(term, F.BoolLit):
            return self._fapp("$true" if term.value else "$false")
        if isinstance(term, F.TupleTerm):
            return self._fapp("$pair", tuple(self.term_to_fol(i, bound) for i in term.items))
        if isinstance(term, F.App):
            head = term.func
            args = list(term.args)
            # Flatten curried applications: ((f a) b) -> f(a, b).
            while isinstance(head, F.App):
                args = list(head.args) + args
                head = head.func
            if isinstance(head, F.Var):
                if head.name in bound:
                    base = bound[head.name]
                    return self._fapp(
                        "$apply",
                        (base,) + tuple(self.term_to_fol(a, bound) for a in args),
                    )
                return self._fapp(head.name, tuple(self.term_to_fol(a, bound) for a in args))
            raise ClausificationError(f"higher-order term {term!r}")
        if isinstance(term, (F.Quant, F.Lambda, F.SetCompr)):
            raise ClausificationError(f"binder in term position: {term!r}")
        if isinstance(term, F.Ite):
            raise ClausificationError("if-then-else must be eliminated before clausification")
        if isinstance(term, F.Old):
            raise ClausificationError("old() must be resolved before clausification")
        if isinstance(term, (F.And, F.Or, F.Not, F.Implies, F.Iff, F.Eq)):
            # A formula in term position (boolean-valued field); reify it.
            return self._fapp("$formula", (self._fapp(str(abs(hash(term)) % 10**8)),))
        raise ClausificationError(f"cannot translate term {term!r}")
