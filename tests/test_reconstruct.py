"""Tests for reconstruction from descriptors.

The reference for every density is the state-vector simulator; the
reference for expectations is dense linear algebra on the evolved
descriptors.
"""
import ast
import json
from pathlib import Path

import numpy as np
import pytest
from helpers import random_circuit, run_capped

from dhsim import reconstruct
from dhsim.circuit import BoundGate, bind, build_teleportation, parse, serialize
from dhsim.config import DENSE_QUBITS
from dhsim.descriptors import apply_gate, evolve
from dhsim.errors import BudgetError, GaugeError
from dhsim.pauli import PauliSum, to_dense
from dhsim.reconstruct import (
    _expectation_tensor,
    _image,
    expectation_of_product,
    expectation_table,
    gauge_transform,
    global_density,
    reduced_density,
    selection_from_label,
)
from dhsim.statevector import (
    StateVector,
    apply_bound_gate,
    density,
    evolve_state,
    partial_trace,
    state_fidelity,
    trace_distance,
)


def bell_state():
    return evolve(bind(parse("qubits 2\nH 1\nCNOT 1 2\n")))


# -- expectations ------------------------------------------------------------


def test_fresh_qubit_z_expectation():
    state = evolve(bind(parse("qubits 1\n")))
    assert expectation_of_product(state, {1: 3}) == pytest.approx(1.0)


def test_hadamard_moves_expectation_from_z_to_x():
    state = evolve(bind(parse("qubits 1\nH 1\n")))
    assert expectation_of_product(state, {1: 3}) == pytest.approx(0.0, abs=1e-12)
    assert expectation_of_product(state, {1: 1}) == pytest.approx(1.0)


def test_bell_correlations_do_not_factorize():
    state = bell_state()
    joint = expectation_of_product(state, {1: 3, 2: 3})
    single = expectation_of_product(state, {1: 3})
    assert joint == pytest.approx(1.0)
    assert single == pytest.approx(0.0, abs=1e-12)
    assert abs(joint - single * expectation_of_product(state, {2: 3})) > 0.5


def test_expectation_selection_validation():
    state = bell_state()
    with pytest.raises(ValueError):
        expectation_of_product(state, {3: 1})
    with pytest.raises(ValueError):
        expectation_of_product(state, {1: 7})


def test_expectation_table_by_labels():
    state = bell_state()
    table = expectation_table(state, ["ZZ", "ZI", "XX", "YY", "II"])
    assert table["ZZ"] == pytest.approx(1.0)
    assert table["ZI"] == pytest.approx(0.0, abs=1e-12)
    assert table["XX"] == pytest.approx(1.0)
    assert table["YY"] == pytest.approx(-1.0)
    assert table["II"] == pytest.approx(1.0)
    assert selection_from_label("IZXY", 4) == {2: 3, 3: 1, 4: 2}
    with pytest.raises(ValueError):
        selection_from_label("ZZ", 3)
    with pytest.raises(ValueError):
        selection_from_label("QZ", 2)


def test_pure_state_expectation_matches_dense():
    rng = np.random.default_rng(40)
    n = 3
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    rho0 = StateVector(n, v)
    labels = ["XIZ", "YYI", "IIZ", "ZXY"]
    s = PauliSum.from_terms(n, {l: complex(*rng.normal(size=2)) for l in labels})
    got = _expectation_tensor([[s]], rho0, DENSE_QUBITS).item()
    want = v.conj() @ to_dense(s) @ v
    assert got == pytest.approx(complex(want), abs=1e-12)


def test_pure_state_expectation_across_term_blocks():
    # At n=10 a block holds 64 strings, so 300 terms span five blocks.
    rng = np.random.default_rng(49)
    n = 10
    keys = rng.integers(0, 4**n, size=300).astype(np.uint64)
    s = PauliSum(n, keys, rng.normal(size=300) + 1j * rng.normal(size=300))
    assert s.num_terms > 256
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    rho0 = StateVector(n, v)
    got = _expectation_tensor([[s]], rho0, DENSE_QUBITS).item()
    want = v.conj() @ to_dense(s) @ v
    assert abs(got - want) < 1e-10


def test_image_gathered_over_blocks():
    # A 2**10-state support takes 64 x planes per block.  The low x planes
    # keep the support in place, and the highest, sorted last, move it to
    # a second coset, so the last block adds half of the image.
    rng = np.random.default_rng(60)
    n = 12
    support = np.arange(2**10, dtype=np.uint64)
    xs = np.concatenate([rng.choice(2**10, size=300, replace=False), [2**11 + 5]])
    zs = rng.integers(0, 2**n, size=len(xs)).astype(np.uint64)
    keys = xs.astype(np.uint64) | (zs << np.uint64(n))
    s = PauliSum(n, keys, np.ones(len(xs)))
    want = sorted({int(b) ^ int(x) for b in support for x in xs})
    assert len(want) == 2**11
    assert _image(support, [s], 1, n).tolist() == want


def test_expectation_of_product_matches_state_vector_and_density():
    rng = np.random.default_rng(41)
    c, binding = random_circuit(rng, n=4, depth=14)
    state = evolve(bind(c, binding))
    rho = global_density(state)
    for _ in range(8):
        sel = {q: int(rng.integers(0, 4)) for q in range(1, 5)}
        got = expectation_of_product(state, sel)
        # the same number read from the materialized density via the
        # equivalent unevolved string expectation Tr(rho(t) P)
        letters = [sel.get(q, 0) for q in range(1, 5)]
        from dhsim.pauli import PauliString

        bare = to_dense(PauliSum.from_string(PauliString.from_letters(letters)))
        psi = evolve_state(bind(c, binding)).amplitudes
        want = float(np.real(psi.conj() @ bare @ psi))
        assert got == pytest.approx(want, abs=1e-10)
        assert np.real(np.trace(rho.entries @ bare)) == pytest.approx(want, abs=1e-10)


# -- global density ------------------------------------------------------------


def test_global_density_empty_circuit():
    state = evolve(bind(parse("qubits 2\n")))
    rho = global_density(state)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(rho.entries, want, atol=1e-12)


def test_global_density_single_hadamard():
    state = evolve(bind(parse("qubits 1\nH 1\n")))
    rho = global_density(state)
    assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_global_density_matches_oracle_on_random_circuits():
    rng = np.random.default_rng(43)
    for _ in range(10):
        c, binding = random_circuit(rng)
        bc = bind(c, binding)
        got = global_density(evolve(bc))
        want = density(evolve_state(bc))
        assert trace_distance(got, want) < 1e-10


def test_global_density_mid_teleportation_matches_oracle():
    bc = bind(build_teleportation(), {"theta": 1.3})
    got = global_density(evolve(bc, upto="after-bell"))
    want = density(evolve_state(bc, upto="after-bell"))
    assert trace_distance(got, want) < 1e-10


def test_global_density_after_three_qubit_gate_matches_oracle():
    # A Toffoli after X 1, X 2 gives |111>; the parser makes no
    # 3-qubit gates, so the gate is applied directly on both sides.
    toffoli = np.eye(8, dtype=complex)
    toffoli[6:, 6:] = [[0, 1], [1, 0]]
    gate = BoundGate("U3", (1, 2, 3), toffoli)
    bc = bind(parse("qubits 3\nX 1\nX 2\n"))
    amps = apply_bound_gate(evolve_state(bc).amplitudes, gate, 3)
    assert abs(amps[7]) == pytest.approx(1.0)
    state = apply_gate(evolve(bc), gate)
    assert trace_distance(density(StateVector(3, amps)), global_density(state)) < 1e-10


def test_global_density_custom_initial_state():
    rng = np.random.default_rng(44)
    n = 2
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho0 = StateVector(n, v)
    bc = bind(parse("qubits 2\nH 1\nCNOT 1 2\nS 2\n"))
    got = global_density(evolve(bc), rho0)
    # oracle: evolve the custom vector through the same gates
    amps = v.copy()
    for g in bc.gates:
        amps = apply_bound_gate(amps, g, n)
    assert trace_distance(got, np.outer(amps, amps.conj())) < 1e-10


def oracle_tensor(psi: np.ndarray, n: int) -> np.ndarray:
    """<psi| sigma_{m_n} x ... x sigma_{m_1} |psi> with axes (m_n, ..., m_1)."""
    sigma = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    out = np.zeros([4] * n)
    for index in np.ndindex(*out.shape):
        string = np.ones((1, 1))
        for m in index:  # qubit n first: it is the most significant bit
            string = np.kron(string, sigma[m])
        out[index] = np.real(psi.conj() @ string @ psi)
    return out


def all_components(state):
    identity = PauliSum.identity(state.n)
    return [[identity, *d.components] for d in state.descriptors]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_expectation_tensor_halves_match_state_vector(n):
    # n=1 leaves the lower half empty; odd n splits unevenly.  The
    # reference is the evolved state vector.
    rng = np.random.default_rng(50 + n)
    c, binding = random_circuit(rng, n=n, depth=12)
    bc = bind(c, binding)
    got = _expectation_tensor(all_components(evolve(bc)), None, DENSE_QUBITS)
    want = oracle_tensor(evolve_state(bc).amplitudes, n)
    assert got.shape == (4,) * n
    assert np.max(np.abs(got - want)) < 1e-10


def test_expectation_tensor_halves_match_state_vector_custom_state():
    rng = np.random.default_rng(55)
    n = 3
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    rho0 = StateVector(n, v)
    c, binding = random_circuit(rng, n=n, depth=12)
    bc = bind(c, binding)
    got = _expectation_tensor(all_components(evolve(bc)), rho0, DENSE_QUBITS)
    psi = v.copy()
    for g in bc.gates:
        psi = apply_bound_gate(psi, g, n)
    assert np.max(np.abs(got - oracle_tensor(psi, n))) < 1e-10


def test_global_density_budget():
    state = evolve(bind(parse("qubits 3\n")))
    with pytest.raises(BudgetError):
        global_density(state, dense_budget=2)


# -- reduced density -------------------------------------------------------------


def test_bell_singleton_reduction_is_maximally_mixed():
    state = bell_state()
    for q in (1, 2):
        rho = reduced_density(state, [q])
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_teleport_marginals_after_bell_stage():
    bc = bind(build_teleportation(), {"theta": 0.9})
    state = evolve(bc, upto="after-bell")
    for q in range(1, 6):
        rho = reduced_density(state, [q])
        assert trace_distance(rho, np.eye(2) / 2) < 1e-10


def test_teleport_output_qubit_carries_message():
    theta = 2.2
    bc = bind(build_teleportation(), {"theta": theta})
    rho5 = reduced_density(evolve(bc), [5])
    chi = np.array([np.cos(theta / 2), np.sin(theta / 2)])
    assert state_fidelity(rho5, chi) >= 1 - 1e-10


def test_reduced_density_matches_oracle_partial_trace():
    rng = np.random.default_rng(45)
    for _ in range(6):
        c, binding = random_circuit(rng, n=4, depth=12)
        bc = bind(c, binding)
        state = evolve(bc)
        oracle = density(evolve_state(bc))
        for subset in ([1], [3], [1, 2], [2, 4], [1, 3, 4]):
            got = reduced_density(state, subset)
            want = partial_trace(oracle, subset)
            assert trace_distance(got, want) < 1e-10


def test_marginal_consistency_with_global_density():
    rng = np.random.default_rng(46)
    c, binding = random_circuit(rng, n=3, depth=10)
    state = evolve(bind(c, binding))
    rho = global_density(state)
    for subset in ([1], [2], [1, 3]):
        via_partial = partial_trace(rho, subset)
        direct = reduced_density(state, subset)
        assert trace_distance(via_partial, direct) < 1e-10


def reduced_from_amplitudes(psi: np.ndarray, n: int, subset) -> np.ndarray:
    """Trace the pure state psi down to `subset`, little-endian in it."""
    t = psi.reshape([2] * n)  # axis a holds qubit n - a
    keep = [n - q for q in sorted(subset, reverse=True)]
    t = np.moveaxis(t, keep, range(len(keep))).reshape(2 ** len(keep), -1)
    return t @ t.conj().T


def test_reduced_density_above_dense_budget_matches_amplitudes():
    # n=14 is over DENSE_QUBITS, but each subset's blocks stay within it.
    rng = np.random.default_rng(57)
    c, binding = random_circuit(rng, n=14, depth=150)
    bc = bind(c, binding)
    state = evolve(bc)
    psi = evolve_state(bc, dense_budget=14).amplitudes
    for subset in ([1, 2, 3], [2, 5, 9, 13], [3, 4, 5, 6, 7], [1, 4, 7, 10, 13, 14]):
        got = reduced_density(state, subset).entries
        want = reduced_from_amplitudes(psi, 14, subset)
        assert np.max(np.abs(got - want)) < 1e-10


def test_standard_initial_state_is_one_entry_at_any_width():
    # None is |0...0>: a 24-qubit reduced density builds no 2**24 vector.
    support, column = reconstruct._initial_block(None, 24)
    assert support.tolist() == [0] and column.tolist() == [[1]]
    state = evolve(bind(parse("qubits 24\nH 24\nCNOT 24 1\n")))
    bell = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]) / 2
    assert np.allclose(reduced_density(state, [1, 24]).entries, bell, atol=1e-12)
    with pytest.raises(ValueError, match="initial state has 2 qubits, need 24"):
        reduced_density(state, [1], StateVector(2, [1, 0, 0, 0]))


def test_reduced_density_of_every_qubit_is_global_density():
    rng = np.random.default_rng(59)
    c, binding = random_circuit(rng, n=8, depth=60)
    state = evolve(bind(c, binding))
    got = reduced_density(state, range(1, 9)).entries
    assert np.max(np.abs(got - global_density(state).entries)) < 1e-12


def test_reduced_density_budget():
    state = evolve(bind(parse("qubits 12\n")))
    with pytest.raises(BudgetError):
        reduced_density(state, range(1, DENSE_QUBITS + 2))


def test_reconstruction_budget_counts_block_entries_not_qubits():
    # An 11-qubit network is over DENSE_QUBITS = 10; what counts is the
    # basis states the initial state and the components reach.
    n = 11
    state = evolve(bind(parse("qubits 11\nH 1\n")))
    for width, fits in ((2**10, True), (2**10 + 1, False)):
        amps = np.zeros(2**n)
        amps[:width] = 1 / np.sqrt(width)
        rho0 = StateVector(n, amps)
        if fits:
            # qubit 1's z component is X1, which maps the support onto itself
            assert expectation_of_product(state, {1: 3}, rho0) == pytest.approx(1.0)
        else:
            with pytest.raises(BudgetError):
                expectation_of_product(state, {1: 3}, rho0)


def test_reconstruct_imports_only_types_from_statevector():
    # The dual-picture check compares reconstruction with the state-vector
    # oracle; it means nothing if reconstruction borrows the oracle's code.
    tree = ast.parse(Path(reconstruct.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and "statevector" in (node.module or ""):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any("statevector" in alias.name for alias in node.names)
    assert imported == {"DensityMatrix", "StateVector"}


def test_reduced_density_rejects_bad_subsets():
    state = bell_state()
    with pytest.raises(ValueError):
        reduced_density(state, [])
    with pytest.raises(ValueError):
        reduced_density(state, [5])


# -- gauge freedom -------------------------------------------------------------------


def test_gauge_identity_leaves_descriptors():
    state = bell_state()
    gauged = gauge_transform(state, np.eye(2), (1,))
    for q in (1, 2):
        for m in (1, 2, 3):
            assert (
                gauged.descriptor(q).component(m) - state.descriptor(q).component(m)
            ).coeff_norm() == 0.0


def test_gauge_phase_moves_descriptors_but_not_statistics():
    alpha = 0.8
    state = evolve(bind(parse("qubits 2\nH 1\nCNOT 1 2\n")))
    v = np.diag([1.0, np.exp(1j * alpha)])
    gauged = gauge_transform(state, v, (1,))
    # statistics identical
    assert trace_distance(global_density(state), global_density(gauged)) < 1e-10
    for q in (1, 2):
        assert (
            trace_distance(reduced_density(state, [q]), reduced_density(gauged, [q]))
            < 1e-10
        )
    # descriptors moved; at step 0 the image of q_x would be
    # cos(a) X - sin(a) Y, distance sqrt((cos a - 1)^2 + sin^2 a)
    fresh = evolve(bind(parse("qubits 2\n")))
    fresh_gauged = gauge_transform(fresh, v, (1,))
    moved = fresh_gauged.descriptor(1).x
    assert moved.terms() == pytest.approx(
        {"XI": np.cos(alpha), "YI": -np.sin(alpha)}
    )
    gap = (moved - fresh.descriptor(1).x).coeff_norm()
    assert gap == pytest.approx(np.hypot(np.cos(alpha) - 1.0, np.sin(alpha)))


def test_gauge_cz_changes_descriptors_invariant_statistics():
    state = bell_state()
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    gauged = gauge_transform(state, cz, (1, 2))
    assert trace_distance(global_density(state), global_density(gauged)) < 1e-10
    gaps = [
        (gauged.descriptor(q).component(m) - state.descriptor(q).component(m)).coeff_norm()
        for q in (1, 2)
        for m in (1, 2, 3)
    ]
    assert max(gaps) > 0.1


def test_gauge_rejects_non_stabilizing_unitary():
    state = bell_state()
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(GaugeError):
        gauge_transform(state, h, (1,))


@pytest.mark.parametrize(
    "qubits, v",
    [
        ((3,), np.diag([1.0, np.exp(0.5j)])),
        ((0,), np.diag([1.0, np.exp(0.5j)])),
        ((1, 1), np.diag([1, 1, 1, -1])),
        ((1, 2), np.eye(2)),  # a one-qubit matrix on two qubits
    ],
    ids=["qubits0", "qubits1", "qubits2", "matrix-too-small"],
)
def test_gauge_rejects_qubits_outside_network(qubits, v):
    with pytest.raises(ValueError, match="gate qubits"):
        gauge_transform(bell_state(), v, qubits)


def test_history_distinction_equal_marginals_different_descriptors():
    # Pairs (1,2) and (3,4) entangled by different unitaries: qubits 1
    # and 3 have identical maximally mixed marginals, yet their triples
    # differ once qubit 3's support is relabeled onto qubit 1's.
    from dhsim.pauli import permute_qubits

    c = parse("qubits 4\nH 1\nCNOT 1 2\nH 3\nCNOT 3 4\nS 3\n")
    state = evolve(bind(c))
    rho1 = reduced_density(state, [1])
    rho3 = reduced_density(state, [3])
    assert trace_distance(rho1, rho3) < 1e-10
    assert trace_distance(rho1, np.eye(2) / 2) < 1e-10
    relabel = {3: 1, 1: 3, 4: 2, 2: 4}
    gap = max(
        (
            state.descriptor(1).component(m)
            - permute_qubits(state.descriptor(3).component(m), relabel)
        ).coeff_norm()
        for m in (1, 2, 3)
    )
    assert gap > 0.1


# -- ten qubits under an address-space cap ------------------------------------------


@pytest.fixture(scope="module")
def ten_qubit_file(tmp_path_factory):
    rng = np.random.default_rng(56)
    c, _ = random_circuit(rng, n=10, depth=60, symbol_prob=0.0)
    path = tmp_path_factory.mktemp("ten") / "ten.dh"
    path.write_text(serialize(c))
    return path


def test_global_density_ten_qubits_under_memory_cap(ten_qubit_file):
    proc = run_capped(
        """
import sys
from dhsim.circuit import bind, parse
from dhsim.descriptors import evolve
from dhsim.reconstruct import global_density
from dhsim.statevector import density, evolve_state, trace_distance

with open(sys.argv[1]) as f:
    bc = bind(parse(f.read()))
print(trace_distance(global_density(evolve(bc)), density(evolve_state(bc))))
""",
        str(ten_qubit_file),
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1e-10


def test_cli_run_ten_qubits_under_memory_cap(ten_qubit_file):
    proc = run_capped(
        """
import runpy, sys
sys.argv = ["dhsim", "run", sys.argv[1], "--format", "json"]
runpy.run_module("dhsim.cli", run_name="__main__")
""",
        str(ten_qubit_file),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dual_trace_distance"] < 1e-10
