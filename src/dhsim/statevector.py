"""Schrödinger-picture state-vector simulation.

This is the reference side of every cross-check: it shares no
conjugation or rewrite logic with the descriptor engine.  Gates are
applied directly to amplitude arrays by one tensor contraction.

Basis ordering, stated once and used everywhere (including partial
traces and measurement tables): qubit 1 is the least significant bit of
the amplitude index.  The first character of a bitstring key in a
probability table refers to the smallest qubit index of the subset.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .circuit import BoundCircuit, BoundGate
from .config import DENSE_QUBITS
from .errors import BudgetError

ATOL_NORM = 1e-12
ATOL_STATE = 1e-10


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state of n qubits."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes, got {amps.shape}")
        if abs(np.linalg.norm(amps) - 1.0) > ATOL_NORM:
            raise ValueError("state vector is not normalized")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        amps = np.zeros(2**n, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n, amps)

    def to_json(self) -> list:
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix over `k` qubits (Hermitian, unit trace, PSD)."""

    k: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        dim = 2**self.k
        if m.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > ATOL_STATE:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > ATOL_STATE:
            raise ValueError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) < -ATOL_STATE:
            raise ValueError("density matrix is not positive semidefinite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def to_json(self) -> list:
        return [
            [float(v.real), float(v.imag)] for v in np.asarray(self.entries).ravel()
        ]


def apply_bound_gate(amps: np.ndarray, gate: BoundGate, n: int) -> np.ndarray:
    """Apply a gate of any arity; the first listed qubit is its high local bit.

    The amplitudes as a [2]*n tensor hold qubit q on axis n - q.
    """
    k = len(gate.qubits)
    axes = [n - q for q in gate.qubits]
    u = gate.matrix.reshape([2] * (2 * k))
    out = np.tensordot(u, amps.reshape([2] * n), axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(-1)


def evolve_state(
    bc: BoundCircuit,
    upto: Union[int, str, None] = None,
    *,
    dense_budget: int | None = None,
) -> StateVector:
    """Run the circuit (or a prefix of it) from |0...0>."""
    limit = DENSE_QUBITS if dense_budget is None else dense_budget
    if bc.n > limit:
        raise BudgetError(f"state vector of {bc.n} qubits exceeds the budget of {limit}")
    amps = np.zeros(2**bc.n, dtype=np.complex128)
    amps[0] = 1.0
    for gate in bc.prefix(upto):
        amps = apply_bound_gate(amps, gate, bc.n)
    return StateVector(bc.n, amps)


def density(s: StateVector) -> DensityMatrix:
    return DensityMatrix(s.n, np.outer(s.amplitudes, s.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every qubit not in `keep`.

    The reduced basis is little-endian over the kept qubits in ascending
    order (the smallest kept qubit becomes the least significant bit).
    """
    keep = sorted(set(keep))
    n = rho.k
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"keep set {keep} outside 1..{n}")
    tensor = np.asarray(rho.entries).reshape([2] * (2 * n))
    # Axis of qubit q: row n - q, column 2n - q.  Traced qubits share a
    # label between their row and column axes.
    row_labels = [q for q in range(n, 0, -1)]
    col_labels = [(n + q if q in keep else q) for q in range(n, 0, -1)]
    out_labels = [q for q in sorted(keep, reverse=True)]
    out_labels += [n + q for q in sorted(keep, reverse=True)]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    dim = 2 ** len(keep)
    return DensityMatrix(len(keep), reduced.reshape(dim, dim))


def measurement_distribution(s: StateVector, qubits: Iterable[int]) -> dict[str, float]:
    """Born-rule computational-basis marginal over a subset of qubits.

    Keys are bitstrings whose first character is the smallest qubit in
    the subset.
    """
    qubits = sorted(set(qubits))
    if not qubits:
        raise ValueError("qubit subset must be nonempty")
    if qubits[0] < 1 or qubits[-1] > s.n:
        raise ValueError(f"subset {qubits} outside 1..{s.n}")
    probs = np.abs(np.asarray(s.amplitudes)) ** 2
    tensor = probs.reshape([2] * s.n)
    drop = tuple(s.n - q for q in range(1, s.n + 1) if q not in qubits)
    marginal = tensor.sum(axis=drop) if drop else tensor
    k = len(qubits)
    flat = marginal.reshape(-1)
    # Axis order is descending qubit, so the flat MSB is the largest qubit;
    # reverse each key so its first character is the smallest qubit.
    return {format(i, f"0{k}b")[::-1]: float(p) for i, p in enumerate(flat)}


def trace_distance(a: Union[DensityMatrix, np.ndarray], b: Union[DensityMatrix, np.ndarray]) -> float:
    ma = a.entries if isinstance(a, DensityMatrix) else np.asarray(a)
    mb = b.entries if isinstance(b, DensityMatrix) else np.asarray(b)
    diff = ma - mb
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def state_fidelity(rho: Union[DensityMatrix, np.ndarray], psi: np.ndarray) -> float:
    """<psi| rho |psi> for a pure target state."""
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    psi = np.asarray(psi, dtype=np.complex128)
    return float(np.real(psi.conj() @ m @ psi))
