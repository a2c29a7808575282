"""Each prover runs in one configuration: its constructor takes only
resource limits, and a retired engine knob is rejected by name instead
of being silently ignored (an ignored knob would still key nothing in
``options_signature`` yet suggest a different engine had run)."""

import dataclasses
import inspect

import pytest

from repro.fol.prover import FirstOrderProver
from repro.fol.resolution import ResolutionProver
from repro.mona.prover import MonaProver
from repro.provers.dispatcher import make_provers
from repro.smt.instantiate import InstantiationConfig
from repro.smt.prover import SmtProver
from repro.smt.sat import SatSolver


@pytest.mark.parametrize(
    "factory, parameters",
    [
        (SmtProver, ["timeout", "max_theory_iterations", "instantiation"]),
        (FirstOrderProver, ["timeout", "max_processed", "max_generated"]),
        (
            ResolutionProver,
            ["max_seconds", "max_processed", "max_generated", "max_clause_size",
             "age_weight_ratio"],
        ),
        (MonaProver, ["timeout", "max_states", "max_tracks"]),
        (SatSolver, ["num_vars"]),
    ],
    ids=["SmtProver", "FirstOrderProver", "ResolutionProver", "MonaProver", "SatSolver"],
)
def test_constructors_take_only_limits(factory, parameters):
    assert list(inspect.signature(factory).parameters) == parameters


def test_instantiation_config_has_only_ematch_limits():
    assert [f.name for f in dataclasses.fields(InstantiationConfig)] == [
        "max_candidates_per_sort",
        "max_instances_per_formula",
        "max_triggers",
        "ematch_rounds",
        "max_instances_per_quantifier_round",
        "max_instances_per_round",
        "max_ematch_instances",
        "max_skolem_generation",
        "max_substitution_size",
    ]


@pytest.mark.parametrize(
    "prover, knob, value",
    [
        ("smt", "interning", False),
        ("smt", "incremental", False),
        ("smt", "fragment_gate", False),
        ("fol", "strategy", "fair"),
        ("fol", "sos_seed", "goal"),
        ("fol", "ordering", "none"),
        ("fol", "selection", "none"),
        ("fol", "backward_subsumption", False),
        ("fol", "fragment_gate", False),
        ("fol", "interning", False),
        ("mona", "fragment_gate", False),
    ],
)
def test_retired_prover_option_is_rejected_by_name(prover, knob, value):
    """``prover_options`` reach the constructors through ``make_provers``;
    a retired keyword fails loudly and names itself."""
    with pytest.raises(TypeError, match=knob):
        make_provers([prover], **{prover: {knob: value}})


@pytest.mark.parametrize("knob", ["strategy", "ordering", "selection", "backward_subsumption"])
def test_retired_resolution_knob_is_rejected_by_name(knob):
    with pytest.raises(TypeError, match=knob):
        ResolutionProver(**{knob: None})


@pytest.mark.parametrize(
    "knob, value",
    [("mode", "ground"), ("rounds", 2), ("max_total_formulas", 10), ("max_candidate_size", 3)],
)
def test_retired_instantiation_field_is_rejected_by_name(knob, value):
    with pytest.raises(TypeError, match=knob):
        InstantiationConfig(**{knob: value})


def test_sat_solver_has_no_scratch_engine():
    with pytest.raises(TypeError, match="incremental"):
        SatSolver(0, incremental=False)


@pytest.mark.parametrize("mode", ["ground", "ematch"])
def test_instantiation_mode_strings_are_rejected(mode):
    """E-matching is the only instantiation engine; the old mode names
    are not accepted in place of an :class:`InstantiationConfig`."""
    with pytest.raises(TypeError, match="InstantiationConfig"):
        SmtProver(instantiation=mode)


def test_alias_option_key_reaches_its_engine():
    """``z3`` names the smt engine in the provers list and, the same way,
    as an option key."""
    (smt,) = make_provers(["z3"], z3={"timeout": 0.5})
    assert smt.name == "smt"
    assert smt.timeout == 0.5


def test_options_for_a_known_prover_outside_the_list_are_allowed():
    """One options dict serves several portfolios (the Figure 15 table
    and the benchmark share one)."""
    (syntactic,) = make_provers(["syntactic"], smt={"timeout": 0.5}, spass={"timeout": 1.0})
    assert syntactic.name == "syntactic"


def test_misspelt_option_key_is_rejected_by_name():
    with pytest.raises(ValueError, match="smtt"):
        make_provers(["smt"], smtt={"timeout": 0.5})


def test_option_key_given_under_engine_and_alias_is_rejected():
    with pytest.raises(ValueError, match="twice"):
        make_provers(["smt"], smt={"timeout": 0.5}, z3={"timeout": 1.0})
