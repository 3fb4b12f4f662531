"""Descriptor evolution: per-qubit Heisenberg triples under a gate network.

Each qubit i carries a triple ``q_{i,x}, q_{i,y}, q_{i,z}`` of Pauli
sums; at time t these equal ``U(t)^dag sigma U(t)`` with
``U(t) = g_t ... g_2 g_1`` (circuit order).  The update rule follows
from the homomorphism property of conjugation:

    q_{j,m}(t+1) = sum_Q  w_Q * (product of time-t components named by Q)

where ``g^dag sigma_m g = sum_Q w_Q Q`` is the *bare* rewrite of the
arriving gate over local strings Q on the gate's support.  One rule
serves every gate arity: Q holds one letter per gate qubit, and the
product takes that qubit's time-t component for each non-identity
letter, in gate-qubit order.  Only the gate's own qubits' descriptors
change; components of every other qubit are reused untouched, which is
what makes a descriptor depend solely on its past interaction cone.

Two interchangeable backends:

* ``pauli`` (default): the rewrite tables above, exact for Clifford
  gates (single signed strings stay single signed strings).
* ``dense``: folds embedded gate unitaries into a full matrix U and
  reads descriptors as ``decompose(U^dag sigma U)``; ground truth for
  small n.

The dense backend shares no rewrite logic with the pauli backend, and
neither shares gate-application code with the state-vector simulator.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence, Union

import numpy as np

from .circuit import BoundCircuit, BoundGate, is_unitary
from .config import DENSE_QUBITS, MAX_NETWORK_QUBITS, TERM_BUDGET
from .errors import BudgetError, InvariantError
from .pauli import (
    SIGMA,
    PauliString,
    PauliSum,
    _keys,
    _letters,
    _streamed_sum,
    commutator,
    decompose,
    sum_combine,
    sum_mul,
    sum_scale,
)

_SNAP_TARGETS = (0.0, 1.0, -1.0, 0.5, -0.5, math.sqrt(0.5), -math.sqrt(0.5))
_SNAP_EPS = 1e-12
_TABLE_ATOL = 1e-12


@dataclass(frozen=True)
class Descriptor:
    """The Heisenberg triple attached to one qubit."""

    qubit: int
    x: PauliSum
    y: PauliSum
    z: PauliSum

    def component(self, m: int) -> PauliSum:
        if m not in (1, 2, 3):
            raise ValueError(f"component index must be 1..3, got {m}")
        return self.components[m - 1]

    @property
    def components(self) -> tuple[PauliSum, PauliSum, PauliSum]:
        return (self.x, self.y, self.z)

    def to_json(self) -> dict:
        return {
            "qubit": self.qubit,
            "x": self.x.to_json(),
            "y": self.y.to_json(),
            "z": self.z.to_json(),
        }


@dataclass(frozen=True)
class NetworkState:
    """All n descriptor triples after `step` gates."""

    n: int
    step: int
    descriptors: tuple[Descriptor, ...]
    history: tuple[BoundGate, ...] = ()

    def descriptor(self, qubit: int) -> Descriptor:
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit {qubit} outside 1..{self.n}")
        return self.descriptors[qubit - 1]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "step": self.step,
            "history": [
                {"kind": g.kind, "qubits": list(g.qubits)} for g in self.history
            ],
            "descriptors": [d.to_json() for d in self.descriptors],
        }


def single_string_sum(n: int, qubit: int, m: int) -> PauliSum:
    letters = [0] * n
    letters[qubit - 1] = m
    return PauliSum.from_string(PauliString.from_letters(letters))


def init_network(n: int) -> NetworkState:
    """Fresh network: each component is one unnormalized string of weight 1."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > MAX_NETWORK_QUBITS:
        raise BudgetError(f"network of {n} qubits exceeds the maximum of {MAX_NETWORK_QUBITS}")
    descriptors = tuple(
        Descriptor(
            q,
            single_string_sum(n, q, 1),
            single_string_sum(n, q, 2),
            single_string_sum(n, q, 3),
        )
        for q in range(1, n + 1)
    )
    return NetworkState(n, 0, descriptors)


# -- rewrite tables ------------------------------------------------------------


@dataclass(frozen=True)
class RewriteTable:
    """Images of bare local strings under V^dag (.) V for one gate.

    `entries` maps a local letter tuple (one letter 0..3 per gate qubit,
    not all identity) to a tuple of ``(real weight, local letters)``
    terms.  Images are traceless and carry real weights because the
    conjugate of a Hermitian traceless operator is Hermitian traceless.
    """

    arity: int
    entries: dict

    def image(self, letters: tuple[int, ...]):
        return self.entries[letters]


def _snap(values: np.ndarray) -> np.ndarray:
    """Each value within `_SNAP_EPS` of a target, set to that target.

    The targets lie much farther apart than the window, so at most one
    matches.
    """
    out = values.copy()
    for target in _SNAP_TARGETS:
        out[np.abs(values - target) < _SNAP_EPS] = target
    return out


def _local_letter_tuples(arity: int):
    return itertools.product(range(4), repeat=arity)


def _local_basis(arity: int) -> np.ndarray:
    """The 4^arity local strings as a stack of dense matrices.

    Stacked in `_local_letter_tuples` order; each string is the Kronecker
    product of its letters, first gate qubit most significant.
    """
    basis = SIGMA
    for _ in range(arity - 1):
        dim = 2 * basis.shape[1]
        basis = np.kron(basis[:, None], SIGMA[None]).reshape(4 * len(basis), dim, dim)
    return basis


def build_rewrite_table(gate_or_matrix, qubits: Optional[Sequence[int]] = None) -> RewriteTable:
    """Tabulate V^dag P V over the local string basis, then snap weights.

    Accepts a `BoundGate` or a raw unitary plus its qubit list.  Each
    image's weights come from one batched product with the whole basis,
    so a step holds 4^k matrices of 2^k x 2^k entries (1 MiB at arity 4);
    the images, their weights and the rebuilt check hold about as much.
    A table holds up to 16^k weights, so arity k with 16^k above
    `TERM_BUDGET` (k >= 5) raises `BudgetError` before any work.  Raises
    if the matrix's shape does not fit the qubits, if it is not unitary,
    or if the tabulated map fails to reproduce dense conjugation to 1e-12.
    """
    if isinstance(gate_or_matrix, BoundGate):
        gate_or_matrix, qubits = gate_or_matrix.matrix, gate_or_matrix.qubits
    arity = len(tuple(qubits))
    if arity == 0:
        raise ValueError("no gate qubits given; a gate acts on at least one qubit")
    if 16**arity > TERM_BUDGET:
        raise BudgetError(
            f"a rewrite table of arity {arity} holds up to {16**arity} weights, "
            f"over the budget of {TERM_BUDGET}"
        )
    matrix = np.asarray(gate_or_matrix, dtype=complex)
    dim = 2**arity
    if matrix.shape != (dim, dim):
        raise ValueError(
            f"gate matrix of shape {matrix.shape} cannot act on {arity} gate qubits; "
            f"it needs shape {(dim, dim)}"
        )
    if not is_unitary(matrix):
        raise ValueError("gate matrix is not unitary")
    letter_tuples = list(_local_letter_tuples(arity))
    basis = _local_basis(arity)
    images = [matrix.conj().T @ string @ matrix for string in basis[1:]]
    # One batched product per image keeps a step at 4^k matrices, and
    # np.trace over it gives each weight to the bit of a per-pair trace;
    # an einsum contraction sums in another order.
    raw = np.array([np.trace(image @ basis, axis1=1, axis2=2) for image in images]) / dim
    if np.max(np.abs(raw.imag)) > _TABLE_ATOL:
        raise InvariantError("non-real weight in a conjugation table")
    # Verify the exact (unsnapped) expansion reproduces the dense
    # conjugation; only then snap the stored weights, which moves each
    # by less than the snap window by construction.
    if np.max(np.abs(np.tensordot(raw.real, basis, 1) - images)) > _TABLE_ATOL:
        raise InvariantError("tabulated conjugation does not match the dense image")
    weights = _snap(raw.real)
    if np.any(weights[:, 0] != 0.0):
        raise InvariantError("conjugation image acquired an identity part")
    entries = {}
    for letters, row in zip(letter_tuples[1:], weights):
        kept = np.flatnonzero(row)
        entries[letters] = tuple(zip(row[kept].tolist(), [letter_tuples[j] for j in kept]))
    return RewriteTable(arity, entries)


_TABLE_CACHE: dict = {}


def _cached_table(matrix: np.ndarray, qubits: Sequence[int]) -> RewriteTable:
    # A miss costs well under a millisecond for one- and two-qubit gates,
    # so the cache need only keep tables that repeat, such as Clifford
    # gates'; clearing it when full bounds it at 64 tables.
    matrix = np.asarray(matrix, dtype=complex)
    key = (len(qubits), matrix.tobytes())
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = build_rewrite_table(matrix, qubits)
        if len(_TABLE_CACHE) >= 64:
            _TABLE_CACHE.clear()
        _TABLE_CACHE[key] = table
    return table


# -- gate application (pauli backend) -------------------------------------------


def apply_gate(state: NetworkState, gate: BoundGate) -> NetworkState:
    """Advance the network by one gate of any arity.

    Each new component of a gate qubit is one weighted merge of the
    old-component products named by its table image; each product is
    formed once per gate.  Every other triple is carried over unchanged
    (contiguity).
    """
    for q in gate.qubits:
        if not 1 <= q <= state.n:
            raise ValueError(f"gate qubit {q} outside 1..{state.n}")
    table = _cached_table(gate.matrix, gate.qubits)
    old = [state.descriptor(q) for q in gate.qubits]
    products: dict = {}

    def evolved_local(letters: tuple[int, ...]) -> PauliSum:
        if letters not in products:
            products[letters] = reduce(
                sum_mul, (d.component(m) for d, m in zip(old, letters) if m)
            )
        return products[letters]

    descriptors = list(state.descriptors)
    for i, q in enumerate(gate.qubits):
        new = []
        for m in (1, 2, 3):
            local = tuple(m if p == i else 0 for p in range(len(old)))
            image = table.image(local)
            new.append(sum_combine([(w, evolved_local(ls)) for w, ls in image]))
        descriptors[q - 1] = Descriptor(q, *new)
    return NetworkState(
        state.n, state.step + 1, tuple(descriptors), state.history + (gate,)
    )


# -- outer conjugation of arbitrary sums ------------------------------------------


def conjugate_sum(s: PauliSum, matrix: np.ndarray, qubits: Sequence[int]) -> PauliSum:
    """Return V^dag s V for a unitary V acting on the given qubits.

    Rewrites the support letters of every term through the gate's
    table; terms that are identity on the support map to themselves.
    The terms are rewritten in blocks, each merged into a running sum
    checked against the term budget, as in `sum_mul`: memory is bounded
    by a block and the result, and the result is the same to the bit as
    one merge of every image term.
    """
    support = tuple(qubits)
    if len(set(support)) != len(support) or not all(1 <= q <= s.n for q in support):
        raise ValueError(f"gate qubits {support} are not distinct qubits of 1..{s.n}")
    identity = (0,) * len(support)
    images = {identity: ((1.0, identity),), **_cached_table(matrix, support).entries}
    if s.num_terms == 0:
        return s
    n = s.n
    cols = np.array(support) - 1
    keys, coeffs = s.keys(), s.coeffs()

    def block(rows: slice):
        letters = _letters(n, keys[rows])
        per_term = [images[tuple(local)] for local in letters[:, cols].tolist()]
        counts = [len(image) for image in per_term]
        terms = [term for image in per_term for term in image]
        out = np.repeat(letters, counts, axis=0)
        out[:, cols] = [local for _, local in terms]
        weights = np.array([w for w, _ in terms])
        return _keys(n, out), weights * np.repeat(coeffs[rows], counts)

    width = max(len(image) for image in images.values())
    return _streamed_sum(n, s.num_terms, width, block)


def evolve_observable(
    bc: BoundCircuit, observable: PauliSum, upto: Union[int, str, None] = None
) -> PauliSum:
    """Heisenberg image U(t)^dag A U(t) of an arbitrary Pauli sum.

    The innermost conjugation belongs to the last gate, so the fold
    runs over the prefix in reverse order.
    """
    if observable.n != bc.n:
        raise ValueError("observable size does not match circuit")
    out = observable
    for gate in reversed(bc.prefix(upto)):
        out = conjugate_sum(out, gate.matrix, gate.qubits)
    return out


# -- dense backend -----------------------------------------------------------------


def embed_unitary(u: np.ndarray, qubits: Sequence[int], n: int) -> np.ndarray:
    """Kron the gate with identity, then permute tensor axes into place.

    The first listed gate qubit is the most significant local bit; the
    global basis is little-endian in the qubit index.
    """
    qubits = tuple(qubits)
    k = len(qubits)
    rest = [q for q in range(n, 0, -1) if q not in qubits]
    full = np.kron(np.asarray(u, dtype=complex), np.eye(2 ** (n - k)))
    # Row axes of `full`, most significant first: gate qubits in listed
    # order, then the remaining qubits descending.
    source_order = list(qubits) + rest
    target_order = list(range(n, 0, -1))
    perm = [source_order.index(q) for q in target_order]
    tensor = full.reshape([2] * (2 * n))
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return tensor.reshape(2**n, 2**n)


def fold_unitary(bc: BoundCircuit, upto: Union[int, str, None] = None) -> np.ndarray:
    """Product of embedded gate unitaries in circuit order: U = g_t ... g_1."""
    if bc.n > DENSE_QUBITS:
        raise BudgetError(
            f"dense evolution of {bc.n} qubits exceeds the budget of {DENSE_QUBITS}"
        )
    u = np.eye(2**bc.n, dtype=complex)
    for gate in bc.prefix(upto):
        u = embed_unitary(gate.matrix, gate.qubits, bc.n) @ u
    return u


def _dense_network(bc: BoundCircuit, upto) -> NetworkState:
    gates = bc.prefix(upto)
    u = fold_unitary(bc, upto)
    udag = u.conj().T
    n = bc.n
    descriptors = []
    for q in range(1, n + 1):
        comps = []
        for m in (1, 2, 3):
            bare = _string_dense_embedded(n, q, m)
            comps.append(decompose(udag @ bare @ u))
        descriptors.append(Descriptor(q, *comps))
    return NetworkState(n, len(gates), tuple(descriptors), tuple(gates))


def _string_dense_embedded(n: int, qubit: int, m: int) -> np.ndarray:
    return embed_unitary(SIGMA[m], (qubit,), n) if m != 0 else np.eye(2**n)


BACKENDS = ("pauli", "dense")


def evolve(
    bc: BoundCircuit,
    backend: str = "pauli",
    upto: Union[int, str, None] = None,
) -> NetworkState:
    """Fold the circuit's gates over a fresh network."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == "dense":
        return _dense_network(bc, upto)
    state = init_network(bc.n)
    for gate in bc.prefix(upto):
        state = apply_gate(state, gate)
    return state


# -- products of components ------------------------------------------------------


def gamma_product(state: NetworkState, selection: Sequence[int]) -> PauliSum:
    """Ordered product of selected components scaled by 2**(-n/2).

    ``selection[i]`` chooses the component of qubit i+1 (0 means the
    identity factor).  At step 0 this reproduces the orthonormal basis
    operators; after evolution it is their Heisenberg image.
    """
    if len(selection) != state.n:
        raise ValueError(f"selection needs {state.n} entries")
    product = component_product(state, dict(enumerate(selection, start=1)))
    return sum_scale(product, 2 ** (-state.n / 2))


def component_product(state: NetworkState, selection: dict) -> PauliSum:
    """Product over ``{qubit: m}`` entries in qubit order, unscaled (m = 0 is I)."""
    return reduce(
        sum_mul,
        (state.descriptor(q).component(m) for q, m in sorted(selection.items()) if m),
        PauliSum.identity(state.n),
    )


# -- consistency checks -----------------------------------------------------------


def algebra_deviation(state: NetworkState) -> dict[str, float]:
    """Largest violation of the per-qubit Pauli algebra and cross-qubit
    commutation, measured in the coefficient 2-norm."""
    worst = {"triple": 0.0, "square": 0.0, "cross": 0.0, "identity": 0.0}
    identity = PauliSum.identity(state.n)
    for d in state.descriptors:
        for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            lhs = sum_mul(d.component(a), d.component(b))
            rhs = sum_scale(d.component(c), 1j)
            worst["triple"] = max(worst["triple"], (lhs - rhs).coeff_norm())
        for m in (1, 2, 3):
            sq = sum_mul(d.component(m), d.component(m))
            worst["square"] = max(worst["square"], (sq - identity).coeff_norm())
            worst["identity"] = max(
                worst["identity"], abs(d.component(m).identity_coeff())
            )
    for i in range(len(state.descriptors)):
        for j in range(i + 1, len(state.descriptors)):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    comm = commutator(
                        state.descriptors[i].component(a),
                        state.descriptors[j].component(b),
                    )
                    worst["cross"] = max(worst["cross"], comm.coeff_norm())
    return worst
