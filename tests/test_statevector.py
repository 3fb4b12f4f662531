"""Tests for the reference state-vector simulator.

Gate kernels are checked against full unitaries embedded by explicit
kron products and axis permutations, built independently here.
"""
import ast
from pathlib import Path

import numpy as np
import pytest

from dhsim import statevector
from dhsim.circuit import BoundGate, Circuit, Gate, bind, parse
from dhsim.errors import BudgetError
from dhsim.statevector import (
    ATOL_STATE,
    DensityMatrix,
    StateVector,
    apply_bound_gate,
    density,
    evolve_state,
    measurement_distribution,
    partial_trace,
    state_fidelity,
    trace_distance,
)

SQ2 = 1.0 / np.sqrt(2.0)


from helpers import embed, random_haar


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def test_empty_circuit_gives_all_zero_state():
    bc = bind(parse("qubits 3\n"))
    sv = evolve_state(bc)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(sv.amplitudes, expected)


def test_hadamard_amplitudes():
    bc = bind(parse("qubits 1\nH 1\n"))
    assert np.allclose(evolve_state(bc).amplitudes, [SQ2, SQ2])


def test_bell_pair_amplitudes():
    bc = bind(parse("qubits 2\nH 1\nCNOT 1 2\n"))
    assert np.allclose(evolve_state(bc).amplitudes, [SQ2, 0, 0, SQ2])


def test_little_endian_bit_convention():
    # X on qubit 1 flips the least significant bit of the index.
    bc = bind(parse("qubits 2\nX 1\n"))
    amps = evolve_state(bc).amplitudes
    assert amps[1] == 1.0 and amps[0] == amps[2] == amps[3] == 0.0


def test_kernels_match_embedded_unitaries():
    rng = np.random.default_rng(21)
    n = 4
    for _ in range(30):
        psi = random_state(rng, n)
        if rng.random() < 0.5:
            q = int(rng.integers(1, n + 1))
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(raw)
            gate = BoundGate("U1", (q,), u)
        else:
            qa, qb = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u, _ = np.linalg.qr(raw)
            gate = BoundGate("U2", (int(qa), int(qb)), u)
        got = apply_bound_gate(psi, gate, n)
        want = embed(gate.matrix, gate.qubits, n) @ psi
        assert np.max(np.abs(got - want)) < 1e-12
    # The kernel takes any arity; the parser makes no 3-qubit gates.
    u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    gate = BoundGate("U3", (3, 1, 4), u)
    want = embed(gate.matrix, gate.qubits, n) @ psi
    assert np.max(np.abs(apply_bound_gate(psi, gate, n) - want)) < 1e-12


def test_statevector_imports_only_circuit_config_and_errors():
    # The oracle is the reference side of the dual-picture and
    # dual-backend checks; it must not borrow the engine's code.
    tree = ast.parse(Path(statevector.__file__).read_text(encoding="utf-8"))
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute |= {alias.name for alias in node.names}
    assert relative == {"circuit", "config", "errors"}
    assert not any(name.startswith("dhsim") for name in absolute)


def test_norm_preserved_along_random_circuit():
    rng = np.random.default_rng(3)
    lines = ["qubits 4"]
    gates = ["H", "S", "X", "Y", "Z"]
    for _ in range(40):
        if rng.random() < 0.3:
            a, b = rng.choice([1, 2, 3, 4], size=2, replace=False)
            lines.append(f"CNOT {a} {b}")
        elif rng.random() < 0.5:
            lines.append(f"RY({rng.uniform(0, 6.28)!r}) {rng.integers(1, 5)}")
        else:
            lines.append(f"{gates[rng.integers(len(gates))]} {rng.integers(1, 5)}")
    bc = bind(parse("\n".join(lines)))
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    for g in bc.gates:
        amps = apply_bound_gate(amps, g, 4)
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_density_and_validation():
    sv = StateVector(1, [SQ2, SQ2])
    rho = density(sv)
    assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)))
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.4], [0.6, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.diag([0.9, 0.9]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(1, np.diag([1.5, -0.5]))  # not PSD


def eigenvalue_below_zero(defect: float) -> np.ndarray:
    """A unit-trace Hermitian 2-qubit matrix with smallest eigenvalue -defect."""
    v = random_haar(np.random.default_rng(23), 4)
    return v @ np.diag([0.5, 0.3, 0.2 + defect, -defect]) @ v.conj().T


def hermitian_gap(defect: float) -> np.ndarray:
    """A unit-trace PSD 1-qubit matrix whose off-diagonal pair differs by defect."""
    return np.array([[0.5, 0.1 + defect], [0.1, 0.5]], dtype=complex)


@pytest.mark.parametrize(
    "build, message",
    [(eigenvalue_below_zero, "positive semidefinite"), (hermitian_gap, "not Hermitian")],
)
@pytest.mark.parametrize("scale, accepted", [(2.0, False), (0.5, True)])
def test_density_tolerances_at_their_edges(build, message, scale, accepted):
    m = build(scale * ATOL_STATE)
    k = m.shape[0].bit_length() - 1
    if accepted:
        assert np.array_equal(DensityMatrix(k, m).entries, m)
    else:
        with pytest.raises(ValueError, match=message):
            DensityMatrix(k, m)


def test_partial_trace_bell_pair_is_maximally_mixed():
    bc = bind(parse("qubits 2\nH 1\nCNOT 1 2\n"))
    rho = density(evolve_state(bc))
    for q in (1, 2):
        reduced = partial_trace(rho, [q])
        assert np.allclose(reduced.entries, 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_against_brute_force():
    rng = np.random.default_rng(17)
    n = 3
    psi = random_state(rng, n)
    rho = np.outer(psi, psi.conj())
    # Keep qubits (1, 3), trace out qubit 2 by explicit index loops.
    want = np.zeros((4, 4), dtype=complex)
    for r in range(8):
        for c in range(8):
            if (r >> 1) & 1 != (c >> 1) & 1:
                continue
            rr = (r & 1) | (((r >> 2) & 1) << 1)
            cc = (c & 1) | (((c >> 2) & 1) << 1)
            want[rr, cc] += rho[r, c]
    got = partial_trace(DensityMatrix(3, rho), [1, 3])
    assert np.max(np.abs(got.entries - want)) < 1e-12
    assert abs(np.trace(got.entries) - 1.0) < 1e-12


def test_partial_trace_rejects_empty_keep():
    rho = density(StateVector.zero(2))
    with pytest.raises(ValueError):
        partial_trace(rho, [])


def test_measurement_distribution_zero_state():
    dist = measurement_distribution(StateVector.zero(3), [1, 2, 3])
    assert dist["000"] == 1.0
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_measurement_distribution_bell_marginal():
    bc = bind(parse("qubits 2\nH 1\nCNOT 1 2\n"))
    sv = evolve_state(bc)
    for q in (1, 2):
        dist = measurement_distribution(sv, [q])
        assert dist == pytest.approx({"0": 0.5, "1": 0.5})


def test_measurement_distribution_key_order():
    # |q1=1, q2=0>: the key's first character is qubit 1.
    bc = bind(parse("qubits 2\nX 1\n"))
    dist = measurement_distribution(evolve_state(bc), [1, 2])
    assert dist["10"] == pytest.approx(1.0)


def test_budget_and_prefix():
    c = Circuit(2, (Gate("H", (1,)), Gate("CNOT", (1, 2))))
    bc = bind(c)
    with pytest.raises(BudgetError):
        evolve_state(bc, dense_budget=1)
    sv = evolve_state(bc, upto=1)
    assert np.allclose(sv.amplitudes, [SQ2, SQ2, 0, 0])


def test_trace_distance_and_fidelity():
    a = DensityMatrix(1, np.diag([1.0, 0.0]))
    b = DensityMatrix(1, np.diag([0.0, 1.0]))
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-15)
    assert state_fidelity(a, np.array([1, 0])) == pytest.approx(1.0)
    assert state_fidelity(a, np.array([0, 1])) == pytest.approx(0.0, abs=1e-15)
