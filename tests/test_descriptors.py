"""Tests for the descriptor engine.

Ground truth is dense conjugation U^dag A U with U assembled by the
naive embedding in helpers.py, plus the state-vector simulator for
expectation identities.
"""
import numpy as np
import pytest
from helpers import (
    circuit_unitary,
    embed,
    naive_rewrite_entries,
    random_circuit,
    random_haar,
    run_capped,
)

from dhsim import descriptors, pauli
from dhsim.circuit import (
    BoundGate,
    Circuit,
    Gate,
    bind,
    build_teleportation,
    parse,
    rotation_matrix,
)
from dhsim.descriptors import (
    _TABLE_CACHE,
    _cached_table,
    algebra_deviation,
    apply_gate,
    build_rewrite_table,
    conjugate_sum,
    embed_unitary,
    evolve,
    evolve_observable,
    fold_unitary,
    gamma_product,
    init_network,
)
from dhsim.errors import BudgetError, InvariantError
from dhsim.pauli import PauliString, PauliSum, sum_mul, to_dense


def bell_bound():
    return bind(parse("qubits 2\nH 1\nCNOT 1 2\n"))


def descriptor_gap(a, b) -> float:
    return max((ax - bx).coeff_norm() for ax, bx in zip(a.components, b.components))


# -- initialization -----------------------------------------------------------


def test_init_single_qubit():
    state = init_network(1)
    assert state.descriptor(1).z.terms() == {"Z": 1.0}
    assert state.descriptor(1).x.terms() == {"X": 1.0}


def test_init_two_qubits():
    state = init_network(2)
    assert state.descriptor(1).x.terms() == {"XI": 1.0}
    assert state.descriptor(2).x.terms() == {"IX": 1.0}


def test_init_three_qubits_commuting_components():
    state = init_network(3)
    assert sum(len(d.components) for d in state.descriptors) == 9
    dev = algebra_deviation(state)
    assert dev["cross"] == 0.0
    assert dev["triple"] == 0.0


def test_init_budget():
    with pytest.raises(BudgetError):
        init_network(30)


# -- rewrite tables -----------------------------------------------------------


def test_hadamard_table_swaps_axes():
    table = build_rewrite_table(bind(parse("qubits 1\nH 1\n")).gates[0])
    assert table.image((3,)) == ((1.0, (1,)),)   # Z -> X
    assert table.image((1,)) == ((1.0, (3,)),)   # X -> Z
    assert table.image((2,)) == ((-1.0, (2,)),)  # Y -> -Y


def test_phase_table_rotates_x_toward_minus_y():
    # Convention PHASE(a) = diag(1, e^{ia}); the Heisenberg image of X is
    # cos(a) X - sin(a) Y, frozen from the dense conjugation oracle below.
    alpha = 0.6
    gate = bind(parse(f"qubits 1\nPHASE({alpha!r}) 1\n")).gates[0]
    table = build_rewrite_table(gate)
    image = dict((ls, w) for w, ls in table.image((1,)))
    assert image[(1,)] == pytest.approx(np.cos(alpha))
    assert image[(2,)] == pytest.approx(-np.sin(alpha))
    dense = gate.matrix.conj().T @ np.array([[0, 1], [1, 0]]) @ gate.matrix
    want = np.cos(alpha) * np.array([[0, 1], [1, 0]]) - np.sin(alpha) * np.array(
        [[0, -1j], [1j, 0]]
    )
    assert np.allclose(dense, want)


def test_cnot_table_copies_x_to_target():
    gate = bind(parse("qubits 2\nCNOT 1 2\n")).gates[0]
    table = build_rewrite_table(gate)
    assert table.image((1, 0)) == ((1.0, (1, 1)),)  # X(x)I -> X(x)X
    assert table.image((0, 3)) == ((1.0, (3, 3)),)  # I(x)Z -> Z(x)Z


def test_random_two_qubit_table_reproduces_dense_conjugation():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(raw)
    table = build_rewrite_table(u, (1, 2))
    sigma = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    for a in range(4):
        for b in range(4):
            if a == b == 0:
                continue
            dense = u.conj().T @ np.kron(sigma[a], sigma[b]) @ u
            rebuilt = sum(
                w * np.kron(sigma[c], sigma[d]) for w, (c, d) in table.image((a, b))
            )
            assert np.max(np.abs(dense - rebuilt)) < 1e-12


def test_table_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        build_rewrite_table(np.ones((2, 2)), (1,))


def test_table_equals_per_pair_trace_loop():
    # The batched build must give every weight to the bit of the loop.
    rng = np.random.default_rng(41)
    angles = (0.3, 1.1, 2.9)
    source = "qubits 2\nH 1\nS 1\nCNOT 1 2\nCZ 2 1\n" + "".join(
        f"{kind}({a!r}) 1\n" for kind in ("RY", "RZ", "PHASE") for a in angles
    )
    gates = [(g.matrix, len(g.qubits)) for g in bind(parse(source)).gates]
    gates += [(random_haar(rng, 2**k), k) for k in (1, 2, 3)]
    for u, arity in gates:
        want = naive_rewrite_entries(u, arity)
        assert build_rewrite_table(u, range(1, arity + 1)).entries == want


def test_table_rejects_image_with_identity_part():
    # Unitary within is_unitary's tolerance, but Z's image gains an
    # identity weight of about 3e-11, far outside the snap window.
    with pytest.raises(InvariantError, match="identity part"):
        build_rewrite_table(np.diag([1 + 3e-11, 1]), (1,))


def test_table_arity_over_budget_raises_before_any_work(monkeypatch):
    # 16**5 weights exceed TERM_BUDGET; not even the unitarity check runs.
    def refuse(_):
        raise AssertionError("work started on an over-budget table")

    monkeypatch.setattr(descriptors, "is_unitary", refuse)
    with pytest.raises(BudgetError, match="arity 5"):
        build_rewrite_table(np.eye(32), (1, 2, 3, 4, 5))


def test_table_cache_is_bounded_and_keeps_repeated_tables():
    for angle in np.linspace(0.01, 3.0, 200):
        _cached_table(rotation_matrix("RZ", float(angle)), (1,))
        assert len(_TABLE_CACHE) <= 64
    h = bind(parse("qubits 1\nH 1\n")).gates[0]
    table = _cached_table(h.matrix, h.qubits)
    assert _cached_table(h.matrix, h.qubits) is table


# -- gate application -----------------------------------------------------------


@pytest.mark.parametrize(
    "source, untouched",
    [("qubits 2\nH 2\n", 1), ("qubits 3\nCNOT 3 1\n", 2)],
    ids=["one-qubit", "two-qubit"],
)
def test_gate_elsewhere_leaves_descriptor_untouched(source, untouched):
    # The same object, not an equal one: descriptor_distance relies on it.
    bc = bind(parse(source))
    state = init_network(bc.n)
    gate = bc.gates[0]
    after = apply_gate(state, gate)
    assert after.descriptor(untouched) is state.descriptor(untouched)
    assert after.step == 1 and after.history == (gate,)


def test_three_qubit_gate_matches_dense_conjugation():
    # The update rule is arity-generic; the parser only makes 1- and
    # 2-qubit gates, so the gate is built directly.
    rng = np.random.default_rng(41)
    bc = bind(parse("qubits 4\nH 1\nRY(0.4) 2\nCNOT 2 4\nRZ(1.1) 3\n"))
    gate = BoundGate("U3", (3, 1, 4), random_haar(rng, 8))
    state = apply_gate(evolve(bc), gate)
    u = embed(gate.matrix, gate.qubits, 4) @ circuit_unitary(bc)
    for q in range(1, 5):
        for m in (1, 2, 3):
            letters = [0] * 4
            letters[q - 1] = m
            bare = to_dense(PauliSum.from_string(PauliString.from_letters(letters)))
            got = to_dense(state.descriptor(q).component(m))
            assert np.max(np.abs(got - u.conj().T @ bare @ u)) < 1e-10


def test_interaction_imports_earlier_local_operation():
    # A rotation on qubit 2 alone does not move qubit 1's descriptor,
    # but after a CNOT on (1, 2) the rotation angle shows up in it.
    beta = 0.8
    c = parse(f"qubits 2\nRY({beta!r}) 2\nCNOT 1 2\n")
    bc = bind(c)
    mid = evolve(bc, upto=1)
    assert descriptor_gap(mid.descriptor(1), init_network(2).descriptor(1)) == 0.0
    final = evolve(bc)
    other = evolve(bind(parse(f"qubits 2\nRY({0.3!r}) 2\nCNOT 1 2\n")))
    assert descriptor_gap(final.descriptor(1), other.descriptor(1)) > 1e-3


def test_later_distant_gate_factors_out_exactly():
    # Interaction first, then a gate on the partner qubit alone: the
    # first qubit's descriptor must not change at all.
    c = parse("qubits 2\nCNOT 1 2\nRY(0.9) 2\n")
    bc = bind(c)
    at1 = evolve(bc, upto=1)
    at2 = evolve(bc, upto=2)
    assert descriptor_gap(at2.descriptor(1), at1.descriptor(1)) == 0.0
    # while qubit 2's descriptor does change
    assert descriptor_gap(at2.descriptor(2), at1.descriptor(2)) > 1e-3


# -- evolve ----------------------------------------------------------------------


def test_evolve_empty_circuit_is_init():
    bc = bind(parse("qubits 3\n"))
    state = evolve(bc)
    init = init_network(3)
    for q in (1, 2, 3):
        assert descriptor_gap(state.descriptor(q), init.descriptor(q)) == 0.0


def test_backends_agree_on_teleportation():
    bc = bind(build_teleportation(), {"theta": 0.7})
    via_pauli = evolve(bc, backend="pauli")
    via_dense = evolve(bc, backend="dense")
    for q in range(1, 6):
        gap = descriptor_gap(via_pauli.descriptor(q), via_dense.descriptor(q))
        assert gap < 1e-10


def test_backends_agree_on_random_circuits():
    rng = np.random.default_rng(31)
    for _ in range(10):
        c, binding = random_circuit(rng, n=int(rng.integers(2, 5)), depth=12)
        bc = bind(c, binding)
        a = evolve(bc, backend="pauli")
        b = evolve(bc, backend="dense")
        for q in range(1, c.n + 1):
            assert descriptor_gap(a.descriptor(q), b.descriptor(q)) < 1e-10


def test_backends_agree_with_matrix_gates():
    # Generic entangling U2 gates drive the weighted-product update path
    # (up to 15-term rewrite images), unlike the Clifford CNOT/CZ.
    rng = np.random.default_rng(35)
    from dhsim.statevector import density, evolve_state, trace_distance
    from dhsim.reconstruct import global_density

    for _ in range(5):
        n = 3
        gates = []
        for _ in range(6):
            if rng.random() < 0.5:
                gates.append(Gate("U1", (int(rng.integers(1, n + 1)),),
                                  matrix=random_haar(rng, 2)))
            else:
                qa, qb = rng.choice(np.arange(1, n + 1), size=2, replace=False)
                gates.append(Gate("U2", (int(qa), int(qb)),
                                  matrix=random_haar(rng, 4)))
        bc = bind(Circuit(n, tuple(gates)))
        a = evolve(bc, backend="pauli")
        b = evolve(bc, backend="dense")
        for q in range(1, n + 1):
            assert descriptor_gap(a.descriptor(q), b.descriptor(q)) < 1e-10
        assert trace_distance(global_density(a), density(evolve_state(bc))) < 1e-10


def test_clifford_circuits_stay_single_string():
    rng = np.random.default_rng(8)
    for _ in range(10):
        c, _ = random_circuit(rng, n=4, depth=30, clifford_only=True)
        state = evolve(bind(c))
        for d in state.descriptors:
            for comp in d.components:
                assert comp.num_terms == 1
                coeff = next(iter(comp.terms().values()))
                assert coeff in (1.0, -1.0)


def test_descriptors_equal_reversed_conjugation_of_bare_strings():
    rng = np.random.default_rng(14)
    c, binding = random_circuit(rng, n=3, depth=10)
    bc = bind(c, binding)
    state = evolve(bc)
    for q in range(1, 4):
        for m in (1, 2, 3):
            letters = [0, 0, 0]
            letters[q - 1] = m
            bare = PauliSum.from_string(PauliString.from_letters(letters))
            want = evolve_observable(bc, bare)
            got = state.descriptor(q).component(m)
            assert (got - want).coeff_norm() < 1e-12


def test_descriptors_match_dense_conjugation_oracle():
    rng = np.random.default_rng(4)
    c, binding = random_circuit(rng, n=3, depth=10)
    bc = bind(c, binding)
    state = evolve(bc)
    u = circuit_unitary(bc)
    for q in range(1, 4):
        for m in (1, 2, 3):
            got = to_dense(state.descriptor(q).component(m))
            letters = [0, 0, 0]
            letters[q - 1] = m
            bare = to_dense(PauliSum.from_string(PauliString.from_letters(letters)))
            want = u.conj().T @ bare @ u
            assert np.max(np.abs(got - want)) < 1e-10


# -- homomorphism and algebra -----------------------------------------------------


def test_conjugation_is_multiplicative():
    rng = np.random.default_rng(23)
    c, binding = random_circuit(rng, n=3, depth=8)
    bc = bind(c, binding)
    labels = ["XYZ", "ZZI", "IYX", "XII"]
    a = PauliSum.from_terms(3, {labels[0]: 0.7, labels[1]: -0.2})
    b = PauliSum.from_terms(3, {labels[2]: 1.1, labels[3]: 0.4})
    lhs = evolve_observable(bc, sum_mul(a, b))
    rhs = sum_mul(evolve_observable(bc, a), evolve_observable(bc, b))
    assert (lhs - rhs).coeff_norm() < 1e-10


def test_algebra_preserved_along_circuit():
    rng = np.random.default_rng(77)
    c, binding = random_circuit(rng, n=3, depth=12)
    bc = bind(c, binding)
    for step in range(c.depth + 1):
        state = evolve(bc, upto=step)
        dev = algebra_deviation(state)
        assert dev["triple"] < 1e-10
        assert dev["square"] < 1e-10
        assert dev["cross"] < 1e-10
        assert dev["identity"] < 1e-12
        for d in state.descriptors:
            for comp in d.components:
                assert comp.is_hermitian()


def test_factorization_of_disjoint_blocks_is_exact():
    # Blocks (1,2) and (3,4) never interact: block-M descriptors after
    # the interleaved circuit equal those of the M-only subcircuit.
    full = parse(
        "qubits 4\nH 1\nRY(0.4) 3\nCNOT 1 2\nCNOT 3 4\nS 2\nPHASE(1.1) 4\n"
    )
    m_only = parse("qubits 4\nH 1\nCNOT 1 2\nS 2\n")
    a = evolve(bind(full))
    b = evolve(bind(m_only))
    for q in (1, 2):
        assert descriptor_gap(a.descriptor(q), b.descriptor(q)) == 0.0


def test_expectation_identity_between_pictures():
    from dhsim.statevector import evolve_state

    rng = np.random.default_rng(55)
    c, binding = random_circuit(rng, n=3, depth=12)
    bc = bind(c, binding)
    psi = evolve_state(bc).amplitudes
    for _ in range(5):
        labels = ["".join(rng.choice(list("IXYZ"), size=3)) for _ in range(4)]
        a = PauliSum.from_terms(3, {l: float(rng.normal()) for l in labels})
        heis = to_dense(evolve_observable(bc, a))[0, 0]  # <0...0| A(t) |0...0>
        schr = psi.conj() @ to_dense(a) @ psi
        assert heis == pytest.approx(complex(schr), abs=1e-10)


# -- gamma products ----------------------------------------------------------------


def test_gamma_product_identity_selection():
    state = init_network(3)
    g = gamma_product(state, [0, 0, 0])
    assert g.terms() == pytest.approx({"III": 2 ** (-1.5)})


def test_gamma_product_single_selection_at_step_zero():
    state = init_network(3)
    g = gamma_product(state, [3, 0, 0])
    assert g.terms() == pytest.approx({"ZII": 2 ** (-1.5)})


def test_gamma_product_matches_dense_oracle():
    rng = np.random.default_rng(66)
    c, binding = random_circuit(rng, n=3, depth=10)
    bc = bind(c, binding)
    state = evolve(bc)
    u = circuit_unitary(bc)
    for _ in range(6):
        sel = [int(rng.integers(0, 4)) for _ in range(3)]
        got = to_dense(gamma_product(state, sel))
        bare = to_dense(
            PauliSum.from_string(PauliString.from_letters(sel), 2 ** (-1.5))
        )
        want = u.conj().T @ bare @ u
        assert np.max(np.abs(got - want)) < 1e-10
    with pytest.raises(ValueError):
        gamma_product(state, [0, 0])
    with pytest.raises(ValueError):
        gamma_product(state, [5, 0, 0])


# -- dense embedding ---------------------------------------------------------------


def test_embed_unitary_matches_naive_embedding():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(raw)
            qubits = (int(rng.integers(1, n + 1)),)
        else:
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u, _ = np.linalg.qr(raw)
            qa, qb = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            qubits = (int(qa), int(qb))
        assert np.max(np.abs(embed_unitary(u, qubits, n) - embed(u, qubits, n))) < 1e-12


def test_fold_unitary_matches_naive_product():
    rng = np.random.default_rng(12)
    c, binding = random_circuit(rng, n=3, depth=9)
    bc = bind(c, binding)
    assert np.max(np.abs(fold_unitary(bc) - circuit_unitary(bc))) < 1e-12


# -- outer conjugation ---------------------------------------------------------------


def test_conjugate_sum_matches_dense():
    # IYI passes through the gate on (3, 1), and XIZ through the one on
    # qubit 2, keeping its coefficient to the bit.  The other images
    # overlap, so most output keys add several terms.
    rng = np.random.default_rng(19)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(raw)
    s = PauliSum.from_terms(
        3, {"XYI": 0.3, "IIZ": -1.2, "ZXY": 0.5, "IYI": 0.7, "XIZ": -0.4 + 0.1j}
    )
    for v, qubits in ((u, (3, 1)), (random_haar(rng, 2), (2,))):
        conjugated = conjugate_sum(s, v, qubits)
        full = embed(v, qubits, 3)
        want = full.conj().T @ to_dense(s) @ full
        assert np.max(np.abs(to_dense(conjugated) - want)) < 1e-12
    assert conjugated.coeff("XIZ") == -0.4 + 0.1j


@pytest.mark.parametrize("width", [15, 1], ids=["generic", "clifford"])
def test_conjugate_sum_blocks_match_one_merge(monkeypatch, width):
    # 300 terms of up to 15 image terms each: one merge at the default
    # block size, many blocks growing with the running sum at 64.
    rng = np.random.default_rng([20, width])
    s = PauliSum(8, rng.choice(4**8, 300, replace=False), rng.normal(size=300))
    v = random_haar(rng, 4) if width == 15 else bind(parse("qubits 2\nCNOT 1 2\n")).gates[0].matrix
    want = conjugate_sum(s, v, (6, 2))
    monkeypatch.setattr(pauli, "_BLOCK_PAIRS", 64)
    got = conjugate_sum(s, v, (6, 2))
    assert np.array_equal(got.keys(), want.keys())
    assert np.array_equal(got.coeffs(), want.coeffs())


def test_conjugate_sum_over_budget_under_small_address_space():
    # A million terms at n=24 fit TERM_BUDGET, but their images under a
    # generic two-qubit gate do not.  Rewriting every term at once took
    # a 2.5 GiB letter array and ended in MemoryError.
    proc = run_capped(
        """
import numpy as np
from dhsim.descriptors import conjugate_sum
from dhsim.errors import BudgetError
from dhsim.pauli import PauliSum
rng = np.random.default_rng(70)
s = PauliSum(24, rng.integers(0, 4**24, 10**6, dtype=np.uint64), rng.normal(size=10**6))
u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
try:
    conjugate_sum(s, u, (1, 2))
except BudgetError as exc:
    print("BudgetError:", exc)
"""
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("BudgetError:"), proc.stdout


@pytest.mark.parametrize(
    "qubits, dim",
    [
        ((4,), 2),
        ((0,), 2),
        ((2, 2), 4),
        ((1, 2), 2),  # a 2x2 matrix on two qubits
        ((), 1),
    ],
    ids=["qubits0", "qubits1", "qubits2", "matrix-too-small", "no-qubits"],
)
def test_conjugate_sum_rejects_gate_qubits_outside_network(qubits, dim):
    s = PauliSum.from_terms(3, {"XIZ": 1.0})
    u = np.eye(dim)
    with pytest.raises(ValueError, match="gate qubits"):
        conjugate_sum(s, u, qubits)


def test_network_state_json_shape():
    bc = bind(parse("qubits 2\nH 1\nCNOT 1 2\n"))
    obj = evolve(bc).to_json()
    assert obj["n"] == 2 and obj["step"] == 2
    assert [g["kind"] for g in obj["history"]] == ["H", "CNOT"]
    assert obj["descriptors"][0]["qubit"] == 1
