"""Tests for dependence analysis, past cones, and the contiguity audit."""
import numpy as np
import pytest
from helpers import random_circuit

from dhsim.circuit import bind, build_bell_experiment, build_teleportation, parse
from dhsim.descriptors import evolve, init_network
from dhsim.errors import BindingError, SizeMismatchError
from dhsim.infoflow import (
    _sweep,
    audit,
    classify_information,
    classification_of,
    cone_parameters,
    contiguity_audit,
    depends_descriptor,
    depends_global,
    depends_reduced,
    descriptor_distance,
    grid_values,
    past_cone,
)
from dhsim.pauli import PauliSum
from dhsim.reconstruct import gauge_transform


GAUGE_PREFIX = "qubits 2\nparam alpha\nPHASE(alpha) 1\nH 2\nCNOT 2 1\n"
# PHASE(alpha) fixes |00> up to phase, so alpha can never reach the
# statistics; the trailing gates keep the circuit non-trivial.


def interact_then_distant_circuit():
    # interaction first, then a gate on the partner qubit alone
    return parse("qubits 2\nparam g\nCNOT 1 2\nRY(g) 2\n")


# -- descriptor distance ---------------------------------------------------------


def test_distance_zero_for_identical():
    state = init_network(2)
    assert descriptor_distance(state.descriptor(1), state.descriptor(1)) == 0.0


def test_distance_orthogonal_strings():
    a = init_network(1).descriptor(1)
    from dhsim.descriptors import Descriptor

    b = Descriptor(
        1,
        PauliSum.from_terms(1, {"Y": 1.0}),  # x component replaced by Y
        a.y,
        a.z,
    )
    assert descriptor_distance(a, b) == pytest.approx(np.sqrt(2.0))


def test_distance_gauge_closed_form():
    alpha = 1.1
    state = init_network(2)
    gauged = gauge_transform(state, np.diag([1, np.exp(1j * alpha)]), (1,))
    want = np.hypot(np.cos(alpha) - 1.0, np.sin(alpha))
    assert descriptor_distance(state.descriptor(1), gauged.descriptor(1)) == pytest.approx(want)


def test_distance_size_mismatch():
    with pytest.raises(SizeMismatchError):
        descriptor_distance(init_network(1).descriptor(1), init_network(2).descriptor(1))


def test_grid_is_deterministic():
    assert grid_values() == grid_values()
    assert len(grid_values(7, seed=3)) == 7
    assert all(0.0 <= v < 2.0 * np.pi for v in grid_values(50, seed=4))


def test_grid_rejects_negative_seed():
    with pytest.raises(BindingError):
        grid_values(seed=-1)


@pytest.mark.parametrize("grid", [(), (0.4,)])
def test_degenerate_grid_rejected(grid):
    c = build_teleportation()
    with pytest.raises(BindingError):
        classify_information(c, 2, "theta", grid=grid)
    with pytest.raises(BindingError):
        depends_descriptor(c, 2, "theta", grid=grid)
    with pytest.raises(BindingError):
        contiguity_audit(c, grid=grid)
    with pytest.raises(BindingError):
        audit(c, "theta", grid=grid)


# -- the shared-prefix sweep ------------------------------------------------------------


SYMBOL_FIRST = "qubits 3\nparam a\nparam b\nRY(a) 1\nCNOT 1 2\nH 3\nRZ(b) 3\nCNOT 2 3\n"
PREFIX_THEN_SYMBOLS = (
    "qubits 3\nparam a\nparam b\n"
    "H 1\nCNOT 1 2\nS 2\nH 3\nCNOT 2 3\nRY(a) 1\nCNOT 1 3\nRZ(b) 2\nH 2\n"
)


@pytest.mark.parametrize(
    "text, param, at",
    [
        (SYMBOL_FIRST, "a", None),  # the first gate carries a symbol
        (PREFIX_THEN_SYMBOLS, "b", None),
        (PREFIX_THEN_SYMBOLS, "a", 3),  # `at` before the first symbol
        (PREFIX_THEN_SYMBOLS, "b", 7),
    ],
)
def test_sweep_states_equal_fresh_evolves(text, param, at):
    c = parse(text)
    sweep = _sweep(c, {"a": 0.3}, at, grid_values())
    for name in (param, *(p for p in c.params if p != param)):
        bindings, states = sweep(name)
        for b, state in zip(bindings, states):
            fresh = evolve(bind(c, b), upto=at)
            assert state.step == fresh.step
            assert state.descriptors == fresh.descriptors
            assert [(g.kind, g.qubits) for g in state.history] == [
                (g.kind, g.qubits) for g in fresh.history
            ]


def test_audit_evolves_the_shared_prefix_once(monkeypatch):
    import dhsim.infoflow as infoflow

    calls = []
    monkeypatch.setattr(
        infoflow, "evolve", lambda bc, **kw: calls.append(kw) or evolve(bc, **kw)
    )
    verdicts, report = audit(parse(PREFIX_THEN_SYMBOLS), "a")
    assert calls == [{"upto": 5}]
    assert len(verdicts) == 3 and report.checks


# -- descriptor dependence ----------------------------------------------------------


def test_teleport_message_records_depend_on_theta():
    c = build_teleportation()
    for q in (2, 3):
        depends, witness = depends_descriptor(c, q, "theta", at="after-bell")
        assert depends
        assert witness.distance > 1e-8


def test_no_dependence_on_later_distant_gate():
    depends, witness = depends_descriptor(interact_then_distant_circuit(), 1, "g")
    assert not depends
    assert witness.distance == 0.0  # exact on the pauli backend


def test_bell_record_depends_on_near_not_far_angle():
    c = build_bell_experiment()
    dep_theta, _ = depends_descriptor(c, 1, "theta")
    dep_phi, _ = depends_descriptor(c, 1, "phi")
    assert dep_theta
    assert not dep_phi


def test_depends_rejects_undeclared_symbol():
    with pytest.raises(BindingError):
        depends_descriptor(build_teleportation(), 1, "nope")
    with pytest.raises(BindingError):
        depends_descriptor(build_teleportation(), 1, "theta", base={"bad": 1.0})


def test_witness_reproduces_distance():
    c = build_teleportation()
    depends, witness = depends_descriptor(c, 2, "theta", at="after-bell")
    assert depends
    a = evolve(bind(c, witness.binding_a), upto="after-bell").descriptor(2)
    b = evolve(bind(c, witness.binding_b), upto="after-bell").descriptor(2)
    assert descriptor_distance(a, b) == pytest.approx(witness.distance)


# -- reduced and global dependence ----------------------------------------------------


def test_teleport_message_qubits_locally_silent():
    c = build_teleportation()
    for q in (2, 3):
        depends, _ = depends_reduced(c, [q], "theta", at="after-bell")
        assert not depends


def test_teleport_output_locally_visible():
    depends, witness = depends_reduced(build_teleportation(), [5], "theta")
    assert depends
    assert witness.distance > 1e-3


def test_gauge_parameter_invisible_to_any_reduction():
    c = parse(GAUGE_PREFIX)
    for subset in ([1], [2], [1, 2]):
        depends, _ = depends_reduced(c, subset, "alpha")
        assert not depends


def test_teleport_global_depends_on_theta():
    depends, _ = depends_global(build_teleportation(), "theta")
    assert depends


def test_gauge_parameter_invisible_globally():
    depends, witness = depends_global(parse(GAUGE_PREFIX), "alpha")
    assert not depends
    assert witness.distance < 1e-10


def test_unused_parameter_is_no_information():
    c = parse("qubits 2\nparam dead\nH 1\nCNOT 1 2\n")
    assert not depends_global(c, "dead")[0]
    assert not depends_descriptor(c, 1, "dead")[0]
    verdict = classify_information(c, 1, "dead")
    assert verdict.classification == "no-information"


# -- classification ---------------------------------------------------------------------


def test_teleport_verdicts():
    c = build_teleportation()
    for q in (2, 3):
        verdict = classify_information(c, q, "theta", at="after-bell")
        assert verdict.classification == "locally-inaccessible"
        assert verdict.descriptor_depends and verdict.global_depends
        assert not verdict.reduced_depends
    final = classify_information(c, 5, "theta")
    assert final.classification == "locally-accessible"


def test_gauge_parameter_is_def1_only():
    verdict = classify_information(parse(GAUGE_PREFIX), 1, "alpha")
    assert verdict.classification == "def1-only"
    assert verdict.descriptor_depends
    assert not verdict.global_depends


def test_classification_truth_table():
    assert classification_of(False, False, False) == "no-information"
    assert classification_of(False, True, True) == "no-information"
    assert classification_of(True, False, False) == "def1-only"
    assert classification_of(True, True, True) == "locally-accessible"
    assert classification_of(True, True, False) == "locally-inaccessible"


def test_definition_stratification_on_real_verdicts():
    # locally-inaccessible implies both definitions; def2 implies def1.
    c = build_teleportation()
    verdicts = [
        classify_information(c, q, "theta", at="after-bell") for q in (1, 2, 3, 4, 5)
    ]
    verdicts.append(classify_information(c, 5, "theta"))
    for v in verdicts:
        if v.classification == "locally-inaccessible":
            assert v.descriptor_depends and v.global_depends
        if v.global_depends and v.descriptor_depends:
            assert v.classification in ("locally-accessible", "locally-inaccessible")
    obj = verdicts[0].to_json()
    assert obj["classification"] == verdicts[0].classification
    assert "descriptor" in obj["witnesses"]


# -- past cones ---------------------------------------------------------------------------


def test_cone_without_interactions_stays_on_wire():
    c = parse("qubits 3\nH 1\nH 2\nX 1\nZ 3\n")
    cone = past_cone(c, 1)
    assert cone.gates == (1, 3)
    assert cone.qubits == frozenset({1})


def test_cone_grows_only_after_interaction():
    c = parse("qubits 2\nparam b\nRY(b) 2\nCNOT 1 2\n")
    before = past_cone(c, 1, step=1)
    assert before.gates == ()
    after = past_cone(c, 1, step=2)
    assert after.gates == (1, 2)
    assert cone_parameters(c, after) == frozenset({"b"})


def test_bell_cone_of_first_record():
    c = build_bell_experiment()
    cone = past_cone(c, 1)
    # prep (1, 2), the theta pre-rotation (3) and the record CNOT (4);
    # the trailing RY(theta) at 5 and everything phi-side stay outside.
    assert cone.gates == (1, 2, 3, 4)
    assert cone_parameters(c, cone) == frozenset({"theta"})


def test_cone_validation():
    c = build_bell_experiment()
    with pytest.raises(ValueError):
        past_cone(c, 9)


# -- contiguity audit ----------------------------------------------------------------------


def test_empty_circuit_audit_is_empty():
    report = contiguity_audit(parse("qubits 2\n"))
    assert report.checks == ()
    assert report.violations == ()


def test_teleport_audit_clean():
    report = contiguity_audit(build_teleportation())
    assert report.violations == ()
    # every qubit's cone includes the theta rotation by the end
    assert all(cone_parameters(build_teleportation(), c) for c in report.cones)


def test_bell_audit_clean_and_scans_cross_pairs():
    c = build_bell_experiment()
    report = contiguity_audit(c)
    assert report.violations == ()
    scanned = {(ch.qubit, ch.parameter) for ch in report.checks}
    assert ("1", "phi") not in scanned  # keys are ints
    assert (1, "phi") in scanned
    assert (4, "theta") in scanned
    assert (1, "theta") not in scanned  # theta sits inside qubit 1's cone


def test_disjoint_blocks_have_no_cross_dependence():
    c = parse(
        "qubits 4\nparam a\nparam b\n"
        "H 1\nRY(a) 2\nCNOT 1 2\n"
        "H 3\nRY(b) 4\nCNOT 3 4\n"
    )
    report = contiguity_audit(c)
    assert report.violations == ()
    scanned = {(ch.qubit, ch.parameter) for ch in report.checks}
    assert (1, "b") in scanned and (3, "a") in scanned
    obj = report.to_json()
    assert obj["violations"] == 0


def test_audit_clean_on_random_circuits():
    rng = np.random.default_rng(50)
    for _ in range(5):
        c, binding = random_circuit(rng, n=4, depth=14, symbol_prob=0.5)
        report = contiguity_audit(c, base=binding)
        assert report.violations == ()


def test_no_signalling_at_statistics_level():
    # A subset whose joint past cone carries no gate with the parameter
    # can never show reduced dependence on it.
    c = parse(
        "qubits 4\nparam a\nparam b\n"
        "H 1\nRY(a) 2\nCNOT 1 2\n"
        "H 3\nRY(b) 4\nCNOT 3 4\n"
    )
    assert cone_parameters(c, past_cone(c, 1)) == frozenset({"a"})
    assert not depends_reduced(c, [1, 2], "b")[0]
    assert not depends_reduced(c, [3, 4], "a")[0]
    assert depends_reduced(c, [2], "a")[0]  # sanity: in-cone dependence shows
