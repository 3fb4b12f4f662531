"""Shared test utilities: an independent unitary-embedding oracle, a
per-pair rewrite-table oracle, a deterministic random-circuit generator
for cross-validation corpora, and a runner for code in a child process
under an address-space cap."""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dhsim
from dhsim.circuit import Circuit, Gate, ParamRef
from dhsim.descriptors import _SNAP_EPS, _SNAP_TARGETS
from dhsim.pauli import SIGMA

CORPUS_GATESET = ("H", "S", "X", "Y", "Z", "CNOT", "CZ", "RY", "RZ", "PHASE")


def embed(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a gate unitary into the full space by explicit index loops.

    Little-endian qubit order; the first listed qubit is the high local
    bit.  Intentionally naive and independent of any package helper.
    """
    dim = 2**n
    k = len(qubits)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        loc = 0
        for q in qubits:
            loc = (loc << 1) | ((col >> (q - 1)) & 1)
        for loc_out in range(2**k):
            row = col
            for j, q in enumerate(qubits):
                bit = (loc_out >> (k - 1 - j)) & 1
                row = (row & ~(1 << (q - 1))) | (bit << (q - 1))
            full[row, col] += u[loc_out, loc]
    return full


def naive_rewrite_entries(u: np.ndarray, arity: int) -> dict:
    """Rewrite-table entries by one trace per pair of local strings.

    Each weight of V^dag P V is Tr(V^dag P V Q) / 2^k for one string Q at
    a time, snapped to the package's targets one scalar at a time; zero
    weights are dropped.  Slow (4^k x 4^k traces) and kept as the oracle
    for `build_rewrite_table`.
    """

    def dense(letters):
        out = SIGMA[letters[0]]
        for m in letters[1:]:
            out = np.kron(out, SIGMA[m])
        return out

    def snap(value):
        for target in _SNAP_TARGETS:
            if abs(value - target) < _SNAP_EPS:
                return target
        return value

    dim = 2**arity
    letter_tuples = list(itertools.product(range(4), repeat=arity))
    entries = {}
    for letters in letter_tuples[1:]:
        image = u.conj().T @ dense(letters) @ u
        terms = []
        for out_letters in letter_tuples:
            weight = snap(float((np.trace(image @ dense(out_letters)) / dim).real))
            if weight != 0.0:
                terms.append((weight, out_letters))
        entries[letters] = tuple(terms)
    return entries


def circuit_unitary(bound_circuit, upto=None) -> np.ndarray:
    """Full unitary of a bound circuit via the naive embedding above."""
    n = bound_circuit.n
    u = np.eye(2**n, dtype=complex)
    for gate in bound_circuit.prefix(upto):
        u = embed(gate.matrix, gate.qubits, n) @ u
    return u


def random_circuit(
    rng,
    n=None,
    depth=None,
    *,
    two_qubit_prob=0.35,
    symbol_prob=0.2,
    clifford_only=False,
):
    """A random circuit over the standard gate set, plus a full binding.

    Rotation angles are mostly inlined constants; with `symbol_prob`
    a rotation instead declares a fresh symbol (bound in the returned
    mapping), so dependence audits have something to scan.
    """
    n = int(rng.integers(2, 6)) if n is None else n
    depth = int(rng.integers(8, 26)) if depth is None else depth
    gates, params, binding = [], [], {}
    cliffords_1q = ["H", "S", "X", "Y", "Z"]
    rotations = ["RY", "RZ", "PHASE"]
    for _ in range(depth):
        if n >= 2 and rng.random() < two_qubit_prob:
            kind = "CNOT" if rng.random() < 0.5 else "CZ"
            qa, qb = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(Gate(kind, (int(qa), int(qb))))
            continue
        q = int(rng.integers(1, n + 1))
        if clifford_only or rng.random() < 0.5:
            gates.append(Gate(cliffords_1q[rng.integers(len(cliffords_1q))], (q,)))
        else:
            kind = rotations[rng.integers(len(rotations))]
            if rng.random() < symbol_prob:
                sym = f"th{len(params)}"
                params.append(sym)
                binding[sym] = float(rng.uniform(0.0, 2.0 * np.pi))
                gates.append(Gate(kind, (q,), param=ParamRef(sym)))
            else:
                gates.append(Gate(kind, (q,), param=float(rng.uniform(0.0, 2.0 * np.pi))))
    return Circuit(n, tuple(gates), tuple(params)), binding


# The cap is set inside the child, so it limits only the child process.
_CAPPED_PRELUDE = """
import resource
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = {cap} if hard == resource.RLIM_INFINITY else min({cap}, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
"""


def child_env(**env_extra: str) -> dict:
    """The environment of a child process that imports this checkout's dhsim.

    One BLAS thread, so per-thread buffers on a many-core host do not
    count against an address-space cap; the cap then measures dhsim's
    own arrays.
    """
    src = str(Path(dhsim.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_capped(
    code: str, *args: str, cap: int = 3 * 2**30
) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a child under a `cap`-byte address space.

    The default of 3 GiB is the benchmark's cap.
    """
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_PRELUDE.format(cap=cap) + code, *args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
