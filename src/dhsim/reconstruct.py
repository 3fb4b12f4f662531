"""Expectations and density matrices reconstructed from descriptors.

Everything here reads only the evolved descriptor triples and the fixed
initial state; the state-vector simulator is never consulted.  The
density of the full network is

    rho(t) = 2**-n * sum over selections <prod_i q_{i,m_i}(t)>  prod_i sigma_{m_i}

and a reduced density over a subset S replaces n by |S| and restricts
the selections to S.  Expectation queries for single selections are
evaluated lazily by multiplying the selected component sums and
contracting coefficients against the initial state.  The full sum over
selections is only materialized when a dense matrix is requested: the
qubits split into two halves, each half's component products are
applied to the initial vector as a 2**n x 4**(n/2) column block, and
one product of the two blocks gives all 4**n expectations.

Expectations against the standard state |0...0> use coefficient lookup:
a string contributes its coefficient iff its letters are all I or Z.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import DENSE_QUBITS
from .descriptors import NetworkState, component_product, conjugate_sum
from .errors import BudgetError, GaugeError, InvariantError
from .pauli import PauliSum, _coeff_tensor_to_dense, _string_action, sum_mul, to_dense
from .statevector import DensityMatrix, StateVector

_REAL_ATOL = 1e-10


@dataclass(frozen=True)
class InitialState:
    """The fixed state expectations are taken against.

    ``standard`` is |0...0>; a custom pure state carries its vector.
    """

    kind: str
    vector: Optional[StateVector] = None

    def __post_init__(self):
        if self.kind not in ("standard", "custom"):
            raise ValueError(f"unknown initial-state kind {self.kind!r}")
        if (self.kind == "custom") != (self.vector is not None):
            raise ValueError("custom states carry a vector; standard does not")

    @classmethod
    def standard(cls) -> "InitialState":
        return cls("standard")

    @classmethod
    def custom(cls, vector: StateVector) -> "InitialState":
        return cls("custom", vector)

    def amplitudes(self, n: int) -> np.ndarray:
        if self.kind == "standard":
            amps = np.zeros(2**n, dtype=np.complex128)
            amps[0] = 1.0
            return amps
        if self.vector.n != n:
            raise ValueError(f"initial state has {self.vector.n} qubits, need {n}")
        return np.asarray(self.vector.amplitudes)


def normalize_selection(selection: Mapping[int, int], n: int) -> dict[int, int]:
    """Validate a {qubit: component} selection; 0 entries are dropped."""
    out = {}
    for qubit, m in selection.items():
        if not 1 <= qubit <= n:
            raise ValueError(f"selection qubit {qubit} outside 1..{n}")
        if m not in (0, 1, 2, 3):
            raise ValueError(f"selection component must be 0..3, got {m}")
        if m != 0:
            out[int(qubit)] = int(m)
    return out


def _pauli_expectation_zero(s: PauliSum) -> complex:
    """<0...0| s |0...0>: only strings over {I, Z} contribute."""
    keys = s.keys()
    coeffs = s.coeffs()
    x_plane = keys & np.uint64((1 << s.n) - 1)
    return complex(np.sum(coeffs[x_plane == 0]))


def _pauli_expectation_pure(s: PauliSum, psi: np.ndarray) -> complex:
    """<psi| s |psi> over blocks of strings.

    A string with planes (x, z) maps |b> to i**|x&z| (-1)**|z&b| |b^x>,
    so its expectation is sum_b conj(psi[b^x]) i**|x&z| (-1)**|z&b| psi[b].
    """
    coeffs = s.coeffs()
    total = 0.0 + 0.0j
    for block, rows, factors in _string_action(s.n, s.keys()):
        total += coeffs[block] @ ((psi[rows].conj() * factors) @ psi)
    return complex(total)


def pauli_expectation(s: PauliSum, rho0: InitialState) -> complex:
    if rho0.kind == "standard":
        return _pauli_expectation_zero(s)
    return _pauli_expectation_pure(s, rho0.amplitudes(s.n))


def expectation_of_product(
    state: NetworkState,
    selection: Mapping[int, int],
    rho0: Optional[InitialState] = None,
) -> float:
    """<rho0| prod_{i in sel} q_{i,m_i}(t) |rho0>, evaluated lazily."""
    rho0 = rho0 or InitialState.standard()
    sel = normalize_selection(selection, state.n)
    value = pauli_expectation(component_product(state, sel), rho0)
    if abs(value.imag) > _REAL_ATOL:
        raise InvariantError(f"product expectation has imaginary part {value.imag}")
    return float(value.real)


def selection_from_label(label: str, n: int) -> dict[int, int]:
    """Parse a selection string like "ZZI" (qubit 1 first, I = omit)."""
    if len(label) != n:
        raise ValueError(f"selection string needs {n} letters, got {label!r}")
    letters = "IXYZ"
    out = {}
    for qubit, ch in enumerate(label.upper(), start=1):
        if ch not in letters:
            raise ValueError(f"bad selection letter {ch!r} in {label!r}")
        if ch != "I":
            out[qubit] = letters.index(ch)
    return out


def expectation_table(
    state: NetworkState,
    selections,
    rho0: Optional[InitialState] = None,
) -> dict[str, float]:
    """Map selection strings ("ZZI...") to their product expectations."""
    return {
        label: expectation_of_product(state, selection_from_label(label, state.n), rho0)
        for label in selections
    }


# -- dense assembly ------------------------------------------------------------


def _apply_components(
    state: NetworkState, qubits: Sequence[int], psi0: np.ndarray, dense_budget: Optional[int]
) -> np.ndarray:
    """Columns prod_{q in qubits} q_{q,m_q}(t) |psi0> for all 4**k selections.

    The last qubit applied carries the largest column stride, so columns
    are row-major over (m_last .. m_first).  Components go dense one at a time.
    """
    cols = psi0.reshape(-1, 1)
    for q in qubits:
        blocks = [cols]
        for m in (1, 2, 3):
            dense = to_dense(state.descriptor(q).component(m), dense_budget=dense_budget)
            blocks.append(dense @ cols)
        cols = np.hstack(blocks)
    return cols


def _expectation_tensor(
    state: NetworkState,
    qubits: Sequence[int],
    psi0: np.ndarray,
    dense_budget: Optional[int],
) -> np.ndarray:
    """All 4**k expectations <psi0| prod_{q in qubits} q_{q,m_q}(t) |psi0>.

    Returns a [4]*k tensor with axes ordered (m_{q_k}, ..., m_{q_1}) for
    qubits sorted ascending (largest qubit's axis first), matching the
    coefficient-tensor convention of the dense converter.

    Meet in the middle: components of distinct qubits commute and are
    Hermitian, so for a lower half A and upper half B of the sorted qubits
    <psi0| P_A P_B |psi0> = (P_A psi0)^dagger (P_B psi0), one product of
    two 2**n x 4**(k/2) column blocks instead of one 2**n x 4**k block.
    """
    qubits = sorted(qubits)
    half = len(qubits) // 2
    left = _apply_components(state, qubits[:half], psi0, dense_budget)
    right = _apply_components(state, qubits[half:], psi0, dense_budget)
    # rows index B's selections (m_{q_k} .. m_{q_half+1}), columns A's
    # (m_{q_half} .. m_{q_1}): row-major, that is (m_{q_k} .. m_{q_1}).
    values = right.T @ left.conj()
    if np.max(np.abs(values.imag)) > _REAL_ATOL:
        raise InvariantError("selection expectations are not real")
    return values.real.reshape([4] * len(qubits))


def global_density(
    state: NetworkState,
    rho0: Optional[InitialState] = None,
    *,
    dense_budget: Optional[int] = None,
) -> DensityMatrix:
    """The full network density matrix from descriptors alone.

    `_expectation_tensor` splits the qubits in halves, so the largest
    arrays are two 2**n x 4**(n/2) column blocks and 4**n tensors:
    80-110 MiB at n=10, where one 2**n x 4**n block would take 16 GiB.
    Time goes to the 3n dense components, the product of the blocks and
    validating the result.
    """
    limit = DENSE_QUBITS if dense_budget is None else dense_budget
    if state.n > limit:
        raise BudgetError(
            f"global density of {state.n} qubits exceeds the budget of {limit}"
        )
    rho0 = rho0 or InitialState.standard()
    psi0 = rho0.amplitudes(state.n)
    tensor = _expectation_tensor(state, range(1, state.n + 1), psi0, limit)
    dense = _coeff_tensor_to_dense(tensor.astype(np.complex128)) / 2**state.n
    return DensityMatrix(state.n, dense)


def _selection_expectations(
    state: NetworkState, qubits: list[int], rho0: InitialState
) -> np.ndarray:
    """Lazy [4]*k expectation tensor via prefix-reusing sum products.

    No dense objects of the full network are formed, so this works for
    any n the engine itself can hold.  Axes are (m_max .. m_min) as in
    `_expectation_tensor`; cross-qubit components commute, so building
    prefixes from the largest qubit down is equivalent.
    """
    k = len(qubits)
    out = np.zeros([4] * k)
    descending = sorted(qubits, reverse=True)

    def descend(prefix: PauliSum, index: tuple[int, ...]):
        depth = len(index)
        if depth == k:
            value = pauli_expectation(prefix, rho0)
            if abs(value.imag) > _REAL_ATOL:
                raise InvariantError("selection expectation is not real")
            out[index] = value.real
            return
        qubit = descending[depth]
        descend(prefix, index + (0,))
        for m in (1, 2, 3):
            descend(sum_mul(prefix, state.descriptor(qubit).component(m)), index + (m,))

    descend(PauliSum.identity(state.n), ())
    return out


def reduced_density(
    state: NetworkState,
    subset: Sequence[int],
    rho0: Optional[InitialState] = None,
) -> DensityMatrix:
    """Reduced density over `subset`, little-endian in the sorted subset.

    Only 4**|subset| selection expectations are evaluated, each on the
    lazy coefficient-lookup path; the only dense object is the returned
    2**|subset| matrix.
    """
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    if subset[0] < 1 or subset[-1] > state.n:
        raise ValueError(f"subset {subset} outside 1..{state.n}")
    rho0 = rho0 or InitialState.standard()
    tensor = _selection_expectations(state, subset, rho0)
    dense = _coeff_tensor_to_dense(tensor.astype(np.complex128)) / 2 ** len(subset)
    return DensityMatrix(len(subset), dense)


def local_expectation(
    state: NetworkState,
    qubit: int,
    coeffs: Sequence[float],
    rho0: Optional[InitialState] = None,
) -> float:
    """Expectation of A = A0*1 + A1*q_x + A2*q_y + A3*q_z on one qubit."""
    if len(coeffs) != 4:
        raise ValueError("need exactly four coefficients A0..A3")
    rho0 = rho0 or InitialState.standard()
    total = float(coeffs[0])
    for m in (1, 2, 3):
        if coeffs[m] != 0.0:
            total += float(coeffs[m]) * expectation_of_product(
                state, {qubit: m}, rho0
            )
    return total


# -- gauge freedom ---------------------------------------------------------------


def gauge_transform(
    state: NetworkState, matrix: np.ndarray, qubits: Sequence[int]
) -> NetworkState:
    """Conjugate every descriptor component by a unitary V that fixes
    |0...0> up to phase.

    Statistics against the standard state are unchanged, while the
    descriptors themselves generally move: the same data is carried by
    continuously many descriptor assignments.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if abs(abs(matrix[0, 0]) - 1.0) > 1e-10:
        raise GaugeError("unitary does not stabilize the standard state")
    from .descriptors import Descriptor

    qubits = tuple(qubits)
    descriptors = tuple(
        Descriptor(
            d.qubit,
            conjugate_sum(d.x, matrix, qubits),
            conjugate_sum(d.y, matrix, qubits),
            conjugate_sum(d.z, matrix, qubits),
        )
        for d in state.descriptors
    )
    return NetworkState(state.n, state.step, descriptors, state.history)
