"""Seeded circuit generators owned by the benchmark.

They live here, not in ``tests/``, so that edits to the test helpers can
never change the benchmark's inputs.  Every generator takes a
``numpy.random.Generator`` and draws everything from it, so one seed
gives one circuit.

* `generic_circuit` mirrors the gate set of the test corpus generator:
  H S X Y Z, CNOT CZ, and RY RZ PHASE with constant angles.
* `audit_circuit` is a parameter-free Clifford prefix followed by a few
  gates that carry declared symbols, the shape `dhsim audit` sweeps.
"""
from __future__ import annotations

import numpy as np

from dhsim.circuit import Circuit, Gate, ParamRef

CLIFFORD_1Q = ("H", "S", "X", "Y", "Z")
CLIFFORD_2Q = ("CNOT", "CZ")
GENERIC_ROTATIONS = ("RY", "RZ", "PHASE")
TWO_QUBIT_PROB = 0.35


def _two_qubit(rng, n: int) -> Gate:
    kind = CLIFFORD_2Q[int(rng.integers(len(CLIFFORD_2Q)))]
    qa, qb = rng.choice(np.arange(1, n + 1), size=2, replace=False)
    return Gate(kind, (int(qa), int(qb)))


def _clifford_1q(rng, n: int) -> Gate:
    kind = CLIFFORD_1Q[int(rng.integers(len(CLIFFORD_1Q)))]
    return Gate(kind, (int(rng.integers(1, n + 1)),))


def _angle(rng) -> float:
    return float(rng.uniform(0.0, 2.0 * np.pi))


def generic_circuit(rng, n: int, depth: int, *, clifford_only: bool = False) -> Circuit:
    """Random circuit over the full corpus gate set, angles inlined.

    A one-qubit slot is a Clifford gate with probability 1/2 (always,
    with `clifford_only`), otherwise a rotation at a uniform angle.
    """
    gates = []
    for _ in range(depth):
        if rng.random() < TWO_QUBIT_PROB:
            gates.append(_two_qubit(rng, n))
        elif clifford_only or rng.random() < 0.5:
            gates.append(_clifford_1q(rng, n))
        else:
            kind = GENERIC_ROTATIONS[int(rng.integers(len(GENERIC_ROTATIONS)))]
            gates.append(Gate(kind, (int(rng.integers(1, n + 1)),), param=_angle(rng)))
    return Circuit(n, tuple(gates))


def audit_circuit(rng, n: int, prefix_depth: int, symbols: int) -> Circuit:
    """A parameter-free Clifford prefix, then `symbols` symbol-carrying rotations.

    Symbols are ``s0, s1, ...``, each on a random qubit, so the
    contiguity audit has out-of-cone pairs to check.  Every gate before
    the first symbol is the same for all grid values of the swept
    symbol, which is what an audit that evolves a shared prefix once
    would save.  The prefix is Clifford so that the audit's cost does
    not hinge on how far its terms happen to grow.
    """
    prefix = generic_circuit(rng, n, prefix_depth, clifford_only=True)
    params = tuple(f"s{i}" for i in range(symbols))
    tail = tuple(
        Gate(
            GENERIC_ROTATIONS[int(rng.integers(len(GENERIC_ROTATIONS)))],
            (int(rng.integers(1, n + 1)),),
            param=ParamRef(name),
        )
        for name in params
    )
    return Circuit(n, prefix.gates + tail, params)
