"""Tests for the circuit model, text format, and protocol builders.

Protocol semantics are checked through the state-vector simulator; the
expected numbers below were frozen from that oracle (or are
hand-checkable, e.g. Bell-pair amplitudes).
"""
import re
from pathlib import Path

import numpy as np
import pytest
from helpers import random_haar
from hypothesis import given, settings
from hypothesis import strategies as st

from dhsim.circuit import (
    GATE_KINDS,
    Circuit,
    Gate,
    ParamRef,
    bind,
    build_bell_experiment,
    build_partial_teleportation,
    build_superdense,
    build_teleportation,
    circuit_from_json,
    circuit_to_json,
    is_unitary,
    measurement_gadget,
    parse,
    rotation_matrix,
    serialize,
)
from dhsim.errors import BindingError, ParseError
from dhsim.statevector import (
    density,
    evolve_state,
    measurement_distribution,
    partial_trace,
    state_fidelity,
    trace_distance,
)


def chi(theta):
    return np.array([np.cos(theta / 2), np.sin(theta / 2)])


# -- parsing ------------------------------------------------------------------


def test_parse_bell_preparation():
    c = parse("qubits 2\nH 1\nCNOT 1 2")
    assert c.n == 2
    assert c.gates == (Gate("H", (1,)), Gate("CNOT", (1, 2)))


def test_parse_empty_circuit():
    c = parse("qubits 1")
    assert c.n == 1 and c.gates == () and c.params == ()


def test_parse_undeclared_symbol():
    with pytest.raises(ParseError, match="undeclared symbol theta"):
        parse("qubits 2\nRY(theta) 1")


def test_parse_comments_and_blank_lines():
    c = parse("# header\nqubits 2\n\nH 1  # trailing\n")
    assert c.gates == (Gate("H", (1,)),)


def test_parse_error_locations():
    with pytest.raises(ParseError) as err:
        parse("qubits 2\nH 1\nFROB 1")
    assert err.value.line == 3
    with pytest.raises(ParseError, match="out of range"):
        parse("qubits 2\nH 3")
    with pytest.raises(ParseError, match="duplicate qubit"):
        parse("qubits 2\nCNOT 1 1")
    with pytest.raises(ParseError, match="qubits"):
        parse("H 1")
    with pytest.raises(ParseError, match="bad qubit index"):
        parse("qubits 2\nH x")


def test_parse_param_forms():
    c = parse("qubits 1\nparam t\nRY(t) 1\nRY(-t) 1\nRY(2*t) 1\nRY(0.25) 1")
    assert c.gates[0].param == ParamRef("t")
    assert c.gates[1].param == ParamRef("t", -1.0)
    assert c.gates[2].param == ParamRef("t", 2.0)
    assert c.gates[3].param == 0.25


def test_parse_matrix_gate():
    text = "qubits 2\nU1(0,1,1,0) 2\n"
    c = parse(text)
    assert c.gates[0].kind == "U1"
    assert np.allclose(c.gates[0].matrix, [[0, 1], [1, 0]])
    with pytest.raises(ParseError, match="not unitary"):
        parse("qubits 1\nU1(1,1,1,1) 1")
    with pytest.raises(ParseError, match="entries"):
        parse("qubits 1\nU1(1,0,0) 1")


def test_parse_argument_arity_mismatches():
    with pytest.raises(ParseError, match="takes no argument"):
        parse("qubits 1\nH(0.5) 1")
    with pytest.raises(ParseError, match="needs an angle"):
        parse("qubits 1\nRY 1")
    with pytest.raises(ParseError, match="takes 2 qubit"):
        parse("qubits 2\nCNOT 1")
    with pytest.raises(ParseError, match="duplicate qubits"):
        parse("qubits 1\nqubits 1")
    with pytest.raises(ParseError, match="duplicate param"):
        parse("qubits 1\nparam a\nparam a")


@pytest.mark.parametrize(
    "line, message",
    [
        ("RX(1e400) 1", "non-finite angle '1e400'"),
        ("RX(-1e400) 1", "non-finite angle '-1e400'"),
        ("RX(+inf) 1", "non-finite angle '[+]inf'"),
        ("RX(1e400*a) 1", "non-finite scale factor '1e400'"),
        ("RX(nan*a) 1", "non-finite scale factor 'nan'"),
    ],
)
def test_parse_rejects_non_finite_angle_with_location(line, message):
    with pytest.raises(ParseError, match=message) as err:
        parse(f"qubits 1\nparam a\nH 1\n  {line}")
    assert (err.value.line, err.value.column) == (4, 6)


@pytest.mark.parametrize(
    "line, message, column",
    [
        ("RX(2*b) 1", "undeclared symbol b", 4),
        ("RX(-b) 1", "undeclared symbol b", 4),
        ("RX(2*1a) 1", "bad symbol name '1a'", 4),
        ("RX(x2*a) 1", "bad scale factor 'x2'", 4),
        ("PHASE(0.3.1) 1", "bad angle or symbol '0.3.1'", 7),
        ("RX(  2*b) 1", "undeclared symbol b", 6),
        ("U1(0,1,1,z) 1", "bad complex literal 'z'", 4),
        ("U1(0,1,1) 1", "U1 needs 4 entries, got 3", 4),
        ("H 1 x", "bad qubit index 'x'", 5),
        ("CNOT 1 3", "qubit 3 out of range 1..2", 8),
        ("CNOT 1", "CNOT takes 2 qubit", 1),
        ("U1 1", "U1 needs a 2x2 matrix, got none", 1),
    ],
)
def test_parse_errors_point_at_the_offending_token(line, message, column):
    # Argument errors point where the argument starts, not at the gate name.
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse(f"qubits 2\nparam a\n{line}")
    assert (err.value.line, err.value.column) == (3, column)


@pytest.mark.parametrize(
    "spaced, compact, written",
    [
        ("U1(0, 1, 1, 0) 1", "U1(0,1,1,0) 1", "U1(0j,1+0j,1+0j,0j) 1"),
        ("RX(2 * a) 1", "RX(2*a) 1", "RX(2.0*a) 1"),
    ],
)
def test_parse_allows_whitespace_inside_parentheses(spaced, compact, written):
    c = parse(f"qubits 1\nparam a\n{spaced}")
    assert c == parse(f"qubits 1\nparam a\n{compact}")
    assert serialize(c).splitlines()[-1] == written


# -- serialization --------------------------------------------------------------


def test_serialize_empty():
    assert serialize(Circuit(3)) == "qubits 3\n"


def test_round_trip_builders():
    for c in (
        build_bell_experiment(),
        build_teleportation(),
        build_partial_teleportation(),
        build_superdense(1, 0),
    ):
        assert parse(serialize(c)) == c
        assert circuit_from_json(circuit_to_json(c)) == c


def test_round_trip_matrix_gates():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(raw)
    c = Circuit(3, (Gate("U2", (3, 1), matrix=u),))
    again = parse(serialize(c))
    assert again == c
    assert circuit_from_json(circuit_to_json(c)).gates[0].matrix == pytest.approx(u)


def test_circuit_from_json_rejects_a_matrix_of_the_wrong_size():
    obj = circuit_to_json(Circuit(1, (Gate("U1", (1,), matrix=np.eye(2)),)))
    obj["gates"][0]["matrix"].pop()
    with pytest.raises(ValueError, match="U1 needs a 2x2 matrix, got shape"):
        circuit_from_json(obj)


def gates_of_kind(kind, rng):
    """Gates of one kind: a literal and each reference form for rotations."""
    arity, argument = GATE_KINDS[kind]
    qubits = (3, 1)[:arity]
    if argument == "angle":
        params = (0.7, ParamRef("a"), ParamRef("a", -1.0), ParamRef("a", 2.5))
        return [Gate(kind, qubits, param=p) for p in params]
    if argument == "matrix":
        return [Gate(kind, qubits, matrix=random_haar(rng, 2**arity))]
    return [Gate(kind, qubits)]


@pytest.mark.parametrize("kind", sorted(GATE_KINDS))
def test_every_gate_kind_round_trips_and_binds(kind):
    c = Circuit(3, tuple(gates_of_kind(kind, np.random.default_rng(11))), ("a",))
    assert parse(serialize(c)) == c
    assert circuit_from_json(circuit_to_json(c)) == c
    dim = 2 ** GATE_KINDS[kind][0]
    for g in bind(c, {"a": 0.3}).gates:
        assert g.matrix.shape == (dim, dim) and is_unitary(g.matrix)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_circuit_format_matches_the_gate_table():
    section = README.read_text().split("\n## Circuit format\n", 1)[1].split("\n## ", 1)[0]
    gate_list = section.split("Gates:", 1)[1].split(".", 1)[0]
    kinds = re.findall(r"[A-Z][A-Z0-9]*", " ".join(re.findall(r"`([^`]*)`", gate_list)))
    assert sorted(kinds) == sorted(GATE_KINDS)
    example = section.split("```\n", 2)[1]
    assert parse(example).n == 5


def random_circuit_text(rng):
    n = int(rng.integers(1, 5))
    lines = [f"qubits {n}", "param a", "param b"]
    one_q = ["H", "X", "Y", "Z", "S"]
    for _ in range(int(rng.integers(0, 15))):
        roll = rng.random()
        if roll < 0.3 and n >= 2:
            qa, qb = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            kind = "CNOT" if rng.random() < 0.5 else "CZ"
            lines.append(f"{kind} {qa} {qb}")
        elif roll < 0.6:
            sym = ["a", "b", "-a", "2.5*b", repr(float(rng.uniform(0, 6)))][
                int(rng.integers(5))
            ]
            kind = ["RX", "RY", "RZ", "PHASE"][int(rng.integers(4))]
            lines.append(f"{kind}({sym}) {rng.integers(1, n + 1)}")
        else:
            lines.append(f"{one_q[rng.integers(len(one_q))]} {rng.integers(1, n + 1)}")
    return "\n".join(lines)


def test_round_trip_random_circuits_preserves_gate_order():
    rng = np.random.default_rng(42)
    for _ in range(100):
        c = parse(random_circuit_text(rng))
        assert parse(serialize(c)) == c


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["H 1", "X 2", "CNOT 1 2", "CZ 2 1", "S 2"]), max_size=12))
def test_round_trip_property(gate_lines):
    c = parse("\n".join(["qubits 2"] + gate_lines))
    assert parse(serialize(c)) == c
    assert serialize(parse(serialize(c))) == serialize(c)


# -- binding ---------------------------------------------------------------------


def test_bind_teleport_at_zero_gives_identity_rotation():
    bc = bind(build_teleportation(), {"theta": 0.0})
    assert np.allclose(bc.gates[0].matrix, np.eye(2))


def test_bind_missing_symbol_names_it():
    with pytest.raises(BindingError, match="theta"):
        bind(build_teleportation(), {})


def test_bind_rejects_non_finite():
    with pytest.raises(BindingError, match="non-finite"):
        bind(build_teleportation(), {"theta": float("nan")})


@pytest.mark.parametrize("scale, value", [(2.0, 1e308), (-2.0, 1e308), (1e300, 1e10)])
def test_bind_rejects_overflowing_scaled_angle(scale, value):
    c = Circuit(1, (Gate("RX", (1,), param=ParamRef("a", scale)),), ("a",))
    with pytest.raises(BindingError, match="overflows for symbol 'a'"):
        bind(c, {"a": value})


def test_bind_matches_inlined_constants():
    theta = 0.813
    sym = parse("qubits 2\nparam t\nH 1\nRY(t) 2\nRY(-t) 1\nCNOT 1 2")
    inline = parse(
        f"qubits 2\nH 1\nRY({theta!r}) 2\nRY({-theta!r}) 1\nCNOT 1 2"
    )
    sv_sym = evolve_state(bind(sym, {"t": theta}))
    sv_inline = evolve_state(bind(inline))
    assert np.allclose(sv_sym.amplitudes, sv_inline.amplitudes, atol=1e-14)


def test_rotation_scale_resolution():
    bc = bind(build_partial_teleportation(), {"theta": 0.0, "alpha": 0.3})
    # the resource preparation rotation carries angle 2*alpha
    assert np.allclose(bc.gates[1].matrix, rotation_matrix("RY", 0.6))


# -- measurement gadget -----------------------------------------------------------


def test_gadget_records_spin_component_deterministically():
    # Measuring at the same angle the state was prepared at must give
    # record 0 with certainty: the state is the +1 eigenstate of that axis.
    theta = 1.234
    c = Circuit(
        2,
        (Gate("RY", (1,), param=ParamRef("t")), *measurement_gadget(1, 2, ParamRef("t"))),
        ("t",),
    )
    dist = measurement_distribution(evolve_state(bind(c, {"t": theta})), [2])
    assert dist["0"] == pytest.approx(1.0, abs=1e-12)


# -- protocol builders, oracle-driven ----------------------------------------------


def test_bell_same_angle_records_perfectly_correlated():
    c = build_bell_experiment()
    for theta in (0.0, 0.7, 2.1):
        sv = evolve_state(bind(c, {"theta": theta, "phi": theta}))
        joint = measurement_distribution(sv, [1, 4])
        p_equal = joint["00"] + joint["11"]
        assert p_equal == pytest.approx(1.0, abs=1e-12)


def test_bell_record_marginal_independent_of_far_angle():
    c = build_bell_experiment()
    theta = 0.9
    base = measurement_distribution(
        evolve_state(bind(c, {"theta": theta, "phi": 0.0})), [1]
    )
    for phi in np.linspace(0, 2 * np.pi, 7):
        dist = measurement_distribution(
            evolve_state(bind(c, {"theta": theta, "phi": float(phi)})), [1]
        )
        assert dist["0"] == pytest.approx(base["0"], abs=1e-10)
        assert dist["1"] == pytest.approx(base["1"], abs=1e-10)


def test_bell_no_gates_after_preparation_gives_zero_records():
    c = build_bell_experiment()
    sv = evolve_state(bind(c, {"theta": 0.0, "phi": 0.0}), upto="prep")
    dist = measurement_distribution(sv, [1, 4])
    assert dist["00"] == pytest.approx(1.0)


def test_bell_joint_distribution_non_factorisable():
    c = build_bell_experiment()
    sv = evolve_state(bind(c, {"theta": 0.0, "phi": 0.0}))
    joint = measurement_distribution(sv, [1, 4])
    m1 = measurement_distribution(sv, [1])
    m4 = measurement_distribution(sv, [4])
    gap = max(
        abs(joint[a + b] - m1[a] * m4[b]) for a in "01" for b in "01"
    )
    assert gap > 1e-3


def test_superdense_outcomes_deterministic_and_distinct():
    outcomes = {}
    for b1 in (0, 1):
        for b2 in (0, 1):
            sv = evolve_state(bind(build_superdense(b1, b2)))
            dist = measurement_distribution(sv, [1, 2])
            top = max(dist, key=dist.get)
            assert dist[top] == pytest.approx(1.0, abs=1e-12)
            outcomes[(b1, b2)] = top
    assert len(set(outcomes.values())) == 4
    # frozen from the oracle: the decoded string equals the encoded bits
    assert outcomes == {
        (0, 0): "00",
        (0, 1): "01",
        (1, 0): "10",
        (1, 1): "11",
    }


def test_teleport_fiducial_state():
    sv = evolve_state(bind(build_teleportation(), {"theta": 0.0}))
    rho5 = partial_trace(density(sv), [5])
    assert np.allclose(rho5.entries, np.diag([1.0, 0.0]), atol=1e-12)


def test_teleport_fidelity_one_for_sampled_angles():
    c = build_teleportation()
    for theta in np.linspace(0, 2 * np.pi, 20, endpoint=False):
        sv = evolve_state(bind(c, {"theta": float(theta)}))
        rho5 = partial_trace(density(sv), [5])
        assert state_fidelity(rho5, chi(theta)) >= 1 - 1e-10


def test_teleport_all_marginals_maximally_mixed_after_bell_stage():
    c = build_teleportation()
    sv = evolve_state(bind(c, {"theta": 1.1}), upto="after-bell")
    rho = density(sv)
    for q in range(1, 6):
        reduced = partial_trace(rho, [q])
        assert trace_distance(reduced, np.eye(2) / 2) < 1e-10


def test_partial_teleport_maximally_entangled_case():
    c = build_partial_teleportation()
    for theta in (0.3, 1.9, 4.4):
        sv = evolve_state(bind(c, {"theta": theta, "alpha": np.pi / 4}))
        rho5 = partial_trace(density(sv), [5])
        assert state_fidelity(rho5, chi(theta)) >= 1 - 1e-10


def test_partial_teleport_product_resource_fails():
    sv = evolve_state(
        bind(build_partial_teleportation(), {"theta": np.pi / 2, "alpha": 0.0})
    )
    rho5 = partial_trace(density(sv), [5])
    fid = state_fidelity(rho5, chi(np.pi / 2))
    assert fid == pytest.approx(0.5, abs=1e-12)  # frozen from the oracle
    assert fid < 1 - 1e-3


def test_partial_teleport_fidelity_curve():
    # Closed form derived by branch bookkeeping: F = 1 - 2 a^2 b^2 (1 - sin 2alpha)
    # with a = cos(theta/2), b = sin(theta/2).  Equality F = 1 on a generic
    # theta requires sin(2 alpha) = 1, i.e. alpha = pi/4 mod pi.
    c = build_partial_teleportation()
    theta = 1.3
    a2b2 = (np.cos(theta / 2) * np.sin(theta / 2)) ** 2
    for alpha in np.linspace(0, np.pi, 21):
        sv = evolve_state(bind(c, {"theta": theta, "alpha": float(alpha)}))
        rho5 = partial_trace(density(sv), [5])
        fid = state_fidelity(rho5, chi(theta))
        want = 1 - 2 * a2b2 * (1 - np.sin(2 * alpha))
        assert fid == pytest.approx(want, abs=1e-10)


def test_checkpoints_resolve():
    c = build_teleportation()
    assert c.resolve_step("after-bell") == 7
    assert c.resolve_step(None) == 9
    assert c.resolve_step("final") == 9
    assert c.resolve_step(3) == 3
    with pytest.raises(KeyError):
        c.resolve_step("nope")
    with pytest.raises(ValueError):
        c.resolve_step(99)


def test_gate_validation():
    with pytest.raises(ValueError, match="unknown gate"):
        Gate("FOO", (1,))
    with pytest.raises(ValueError, match="takes 2"):
        Gate("CNOT", (1,))
    with pytest.raises(ValueError, match="duplicate"):
        Gate("CZ", (2, 2))
    with pytest.raises(ValueError, match="angle or symbol"):
        Gate("RY", (1,))
    with pytest.raises(ValueError, match="unitary"):
        Gate("U1", (1,), matrix=np.ones((2, 2)))
    with pytest.raises(ValueError, match="U2 needs a 4x4 matrix, got none"):
        Gate("U2", (1, 2))


@pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
def test_gate_rejects_non_finite_angle(angle):
    with pytest.raises(ValueError, match="RZ angle must be finite"):
        Gate("RZ", (1,), param=angle)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
def test_param_ref_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match="non-finite scale .* for symbol 'a'"):
        ParamRef("a", scale)


def test_circuit_validation():
    with pytest.raises(ValueError, match="qubit > n"):
        Circuit(1, (Gate("H", (2,)),))
    with pytest.raises(ValueError, match="undeclared"):
        Circuit(1, (Gate("RY", (1,), param=ParamRef("t")),))
