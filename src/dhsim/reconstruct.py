"""Expectations and density matrices reconstructed from descriptors.

Everything here reads only the evolved descriptor triples and the fixed
initial state ``rho0``, a `StateVector` or None for |0...0>; the
state-vector simulator is never consulted.  The density of the full
network is

    rho(t) = 2**-n * sum over selections <prod_i q_{i,m_i}(t)>  prod_i sigma_{m_i}

and a reduced density over a subset S replaces n by |S| and restricts
the selections to S.  One function, `_expectation_tensor`, evaluates
every <psi0| prod q |psi0>, a single product or all 4**|S| at once.  A
string (x, z) maps |b> to i**|x&z| (-1)**|z&b| |b^x>, so component
products applied to psi0 are column blocks on the few basis states they
reach.  Budgets count the entries of those blocks, not qubits.
"""
from __future__ import annotations

from functools import partial, reduce
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import DENSE_QUBITS
from .descriptors import NetworkState, conjugate_sum
from .errors import BudgetError, GaugeError, InvariantError
from .pauli import PauliString, PauliSum, _coeff_tensor_to_dense, _string_action
from .statevector import DensityMatrix, StateVector

_REAL_ATOL = 1e-10


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


def expectation_of_product(
    state: NetworkState,
    selection: Mapping[int, int],
    rho0: Optional[StateVector] = None,
) -> float:
    """<rho0| prod_{i in sel} q_{i,m_i}(t) |rho0>: one column per block."""
    sel = normalize_selection(selection, state.n)
    factors = [[state.descriptor(q).component(m)] for q, m in sorted(sel.items())]
    factors = factors or [[PauliSum.identity(state.n)]]
    value = _expectation_tensor(factors, rho0, DENSE_QUBITS).item()
    if abs(value.imag) > _REAL_ATOL:
        raise InvariantError(f"product expectation has imaginary part {value.imag}")
    return float(value.real)


def selection_from_label(label: str, n: int) -> dict[int, int]:
    """Parse a selection string like "ZZI" (qubit 1 first, I = omit)."""
    if len(label) != n:
        raise ValueError(f"selection string needs {n} letters, got {label!r}")
    letters = PauliString.from_label(label).letters
    return {qubit: m for qubit, m in enumerate(letters, start=1) if m}


def expectation_table(
    state: NetworkState,
    selections,
    rho0: Optional[StateVector] = None,
) -> dict[str, float]:
    """Map selection strings ("ZZI...") to their product expectations."""
    return {
        label: expectation_of_product(state, selection_from_label(label, state.n), rho0)
        for label in selections
    }


# -- sparse column blocks --------------------------------------------------------
#
# A block (support, matrix) holds the vectors sum_r matrix[r, j] |support[r]>,
# one per column j, on a sorted uint64 array of basis states.


def _initial_block(rho0: Optional[StateVector], n: int):
    """The initial state as a one-column block on its nonzero amplitudes.

    None, |0...0>, is one entry at any n: no 2**n vector is built.
    """
    if rho0 is None:
        return np.zeros(1, dtype=np.uint64), np.ones((1, 1), dtype=np.complex128)
    if rho0.n != n:
        raise ValueError(f"initial state has {rho0.n} qubits, need {n}")
    amps = np.asarray(rho0.amplitudes)
    support = np.flatnonzero(amps)
    return support.astype(np.uint64), amps[support, None]


def _check_entries(rows: int, cols: int, limit: int):
    if rows * cols > 4**limit:
        raise BudgetError(f"a {rows} x {cols} block exceeds the 2**{limit} x 2**{limit} budget")


def _distinct(*arrays: np.ndarray) -> np.ndarray:
    """Sorted distinct entries; np.unique would import numpy.ma, 40 ms a run."""
    values = np.sort(np.concatenate(arrays, axis=None))
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _image(support: np.ndarray, sums: Sequence[PauliSum], width: int, limit: int):
    """Sorted basis states that strings of `sums` reach from `support`.

    Only the distinct x planes matter; the image is checked as the rows
    of a block `width` wide.
    """
    n = sums[0].n
    xs = _distinct(*[s._keys & np.uint64((1 << n) - 1) for s in sums])
    image = np.empty(0, dtype=np.uint64)
    step = max(1, (1 << 16) // len(support))
    for start in range(0, len(xs), step):
        image = _distinct(image, support ^ xs[start : start + step, None])
        _check_entries(len(image), width, limit)
    return image


def _restricted(s: PauliSum, support: np.ndarray, rows: np.ndarray, limit: int):
    """Dense matrix of `s` from the states `support` to the states `rows`.

    Both are sorted; a string image outside `rows` is dropped.
    """
    _check_entries(len(rows), len(support), limit)
    out = np.zeros((len(rows), len(support)), dtype=np.complex128)
    cols = np.arange(len(support))
    for terms, targets, factors in _string_action(s.n, s._keys, support):
        at = np.minimum(np.searchsorted(rows, targets), len(rows) - 1)
        factors *= s._coeffs[terms, None]
        factors *= rows[at] == targets
        np.add.at(out, (at, cols), factors)
    return out


def _apply(block, sums: Sequence[PauliSum], limit: int):
    """Each sum of `sums` applied to every column, side by side.

    Column m*w + j holds sums[m] applied to column j of the w-wide block,
    so the sums applied last carry the largest stride.
    """
    support, matrix = block
    rows = _image(support, sums, len(sums) * matrix.shape[1], limit)
    out = np.empty((len(rows), len(sums), matrix.shape[1]), dtype=np.complex128)
    for m, s in enumerate(sums):
        out[:, m] = _restricted(s, support, rows, limit) @ matrix
    return rows, out.reshape(len(rows), -1)


def _expectation_tensor(
    factors: Sequence[Sequence[PauliSum]], rho0: Optional[StateVector], limit: int
) -> np.ndarray:
    """<psi0| f_1 f_2 ... f_k |psi0> for every choice of f_i in factors[i].

    Returns a complex tensor with axes (f_k, ..., f_1): for lists
    [I, q_x, q_y, q_z] of ascending qubits, the coefficient-tensor
    convention of the dense converter.  Factors of different lists must
    commute and be Hermitian, as components of distinct qubits are.  A
    single list may hold any sums: the bra is then psi0 itself.

    Meet in the middle: the lower half of the lists, applied to psi0, is
    a bra block A; the rest but the last list a ket block B.  Each factor
    f of the last list maps B's support into A's, so <psi0| P_A f P_B
    |psi0> = (P_A psi0)^dagger f (P_B psi0).  No block or restricted
    matrix may outgrow a 2**limit x 2**limit matrix (`BudgetError`).
    """
    half = len(factors) // 2
    *upper, top = factors[half:]
    apply, start = partial(_apply, limit=limit), _initial_block(rho0, factors[0][0].n)
    bra_support, bra = reduce(apply, factors[:half], start)
    ket_support, ket = reduce(apply, upper, start)
    bra = bra.conj()
    values = np.stack(
        [(_restricted(f, ket_support, bra_support, limit) @ ket).T @ bra for f in top]
    )
    return values.reshape([len(f) for f in reversed(factors)])


def _density(
    state: NetworkState, qubits: Sequence[int], rho0: Optional[StateVector], limit: int
) -> DensityMatrix:
    """Density over `qubits` (sorted), little-endian in that order."""
    k = len(qubits)
    if k > limit:
        raise BudgetError(f"density of {k} qubits exceeds the budget of {limit}")
    identity = PauliSum.identity(state.n)
    factors = [[identity, *state.descriptor(q).components] for q in qubits]
    values = _expectation_tensor(factors, rho0, limit)
    if np.max(np.abs(values.imag)) > _REAL_ATOL:
        raise InvariantError("selection expectations are not real")
    dense = _coeff_tensor_to_dense(values.real.astype(np.complex128)) / 2**k
    return DensityMatrix(k, dense)


def global_density(
    state: NetworkState,
    rho0: Optional[StateVector] = None,
    *,
    dense_budget: Optional[int] = None,
) -> DensityMatrix:
    """The full network density matrix from descriptors alone.

    More than `dense_budget` qubits (default `DENSE_QUBITS`) raise
    `BudgetError`.  The largest arrays are then the 4**n tensor, the
    density and column blocks of at most 2**n x 4**(n/2) entries.
    """
    limit = DENSE_QUBITS if dense_budget is None else dense_budget
    return _density(state, range(1, state.n + 1), rho0, limit)


def reduced_density(
    state: NetworkState,
    subset: Sequence[int],
    rho0: Optional[StateVector] = None,
) -> DensityMatrix:
    """Reduced density over `subset`, little-endian in the sorted subset.

    The network may exceed `DENSE_QUBITS`; the subset and the blocks of
    its components must fit that budget.
    """
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    if subset[0] < 1 or subset[-1] > state.n:
        raise ValueError(f"subset {subset} outside 1..{state.n}")
    return _density(state, subset, rho0, DENSE_QUBITS)


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
