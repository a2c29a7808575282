"""Benchmark inputs: the suite methods, the known answers and the mutants.

Everything a workload sends to the verifier is built here from the bundled
Figure 15 sources and ``expected.json``; the seed only picks orders, draws
and fresh names, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

#: The ledger prover list and budgets (the shipped defaults, spelled out so
#: the benchmark keeps measuring the same configuration if defaults drift).
PROVERS = ["smt", "fol", "mona", "bapa"]
PROVER_OPTIONS: Dict[str, dict] = {
    "smt": {"timeout": 3.0},
    "fol": {"timeout": 1.5},
    "mona": {"timeout": 2.0},
}

#: Width of the prover farm in every workload: fixed, so every machine runs
#: the same workload whatever it reports as its core count.
FARM_WORKERS = 2

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class MethodInput:
    """One verification target: a method of a class, with its source text."""

    class_name: str
    method: str
    source: str

    @property
    def label(self) -> str:
        return f"{self.class_name}.{self.method}"


@dataclass(frozen=True)
class Mutant:
    """A false-spec variant of a suite method with one invalid obligation."""

    class_name: str
    method: str
    find: str
    replace: str
    #: Origin label of the single obligation the mutation makes invalid.
    invalid_origin: str
    fragment: str
    countermodel: str

    def source(self, original: str) -> str:
        if original.count(self.find) != 1:
            raise ValueError(f"mutant anchor not unique in {self.class_name}: {self.find!r}")
        return original.replace(self.find, self.replace)

    def as_input(self, original: str) -> MethodInput:
        return MethodInput(self.class_name, self.method, self.source(original))


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def sequent_counts(expected: dict) -> Dict[str, int]:
    """``Class.method`` -> expected number of split sequents."""
    return dict(expected["sequents"])


def mutants(expected: dict) -> List[Mutant]:
    return [Mutant(**entry) for entry in expected["mutants"]]


def suite_sources() -> Dict[str, str]:
    from repro import suite

    return {name: suite.source(name) for name in suite.names()}


def suite_methods(expected: dict, sources: Dict[str, str]) -> List[MethodInput]:
    """The contracted Figure 15 methods, in ``expected.json`` order."""
    methods = []
    for label in expected["sequents"]:
        class_name, method = label.split(".")
        methods.append(MethodInput(class_name, method, sources[class_name]))
    return methods


# -- seeded draws -------------------------------------------------------------


class Deck:
    """Seeded draws that deal every item once per round, in a fresh order
    each round: the mix of a run does not depend on the seed, only its
    order does."""

    def __init__(self, items: Sequence, rng: random.Random) -> None:
        self.items = list(items)
        self.rng = rng
        self.hand: list = []

    def draw(self):
        if not self.hand:
            self.hand = shuffled(self.items, self.rng)
        return self.hand.pop()


def shuffled(items: Sequence, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items
