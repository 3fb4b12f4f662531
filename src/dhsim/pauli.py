"""Exact arithmetic on n-qubit Pauli strings and weighted sums of strings.

Operators are stored as weighted sums of *unnormalized* Pauli strings
``sigma_{m_1} (x) ... (x) sigma_{m_n}`` with letters indexed 0..3 for
I, X, Y, Z.  The orthonormal operator basis used for reconstruction
carries one ``1/sqrt(2)`` per qubit; coefficients here are always
against the unnormalized strings.  The conversion appears in four
places: `decompose` divides traces by ``2**n``, `hs_inner` multiplies
coefficient contractions by ``2**n``, `descriptors.gamma_product`
scales by ``2**(-n/2)``, and `reconstruct` divides a k-qubit density's
coefficient tensor by ``2**k``.

A string is encoded as a single integer with two bit planes:

    bits 0 .. n-1       X plane (bit k-1 set iff qubit k carries X or Y)
    bits n .. 2n-1      Z plane (bit k-1+n set iff qubit k carries Y or Z)

so qubit k's letter is ``m = 2z + (x^z)``: I=0, X=1, Y=2, Z=3.  Array
code converts between keys and letters only through `_letters` and
`_keys`.

Qubits are numbered 1..n and qubit 1 is the first character of a label
such as ``"XIZ"``.  The sign bookkeeping uses the identity
``P(x,z) = i**(x.z) X**x Z**z`` per qubit, so the phase of a product of
two strings is ``i**(s1 + s2 + 2*|z1&x2| - s3) mod 4`` where ``s``
counts Y letters.

All values are immutable after construction and all operations are pure
functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .config import DENSE_QUBITS, PRUNE_EPS, TERM_BUDGET
from .errors import BudgetError, SizeMismatchError

LETTERS = "IXYZ"

# Dense 2x2 forms, indexed by letter.
SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_POWERS_OF_I = np.array([1, 1j, -1, -1j], dtype=complex)

_XBIT = (0, 1, 1, 0)
_ZBIT = (0, 0, 1, 1)
_LETTER_FROM_BITS = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}

LetterLike = Union[int, str]


def letter_index(a: LetterLike) -> int:
    """Normalize a letter given as 0..3 or one of "IXYZ" to its index."""
    if isinstance(a, str):
        try:
            return LETTERS.index(a.upper())
        except ValueError:
            raise ValueError(f"not a Pauli letter: {a!r}") from None
    if a not in (0, 1, 2, 3):
        raise ValueError(f"not a Pauli letter index: {a!r}")
    return a


def mul_letters(a: LetterLike, b: LetterLike) -> tuple[complex, int]:
    """Multiply two single-qubit Pauli letters.

    Returns ``(phase, letter)`` with phase in {1, -1, 1j, -1j} such that
    ``phase * SIGMA[letter]`` equals ``SIGMA[a] @ SIGMA[b]``.  Total
    function: identity absorbs, equal letters square to I, distinct
    non-identity letters produce the third with a factor of +-i.
    """
    ia, ib = letter_index(a), letter_index(b)
    x1, z1 = _XBIT[ia], _ZBIT[ia]
    x2, z2 = _XBIT[ib], _ZBIT[ib]
    x3, z3 = x1 ^ x2, z1 ^ z2
    exponent = (x1 * z1 + x2 * z2 + 2 * (z1 & x2) - x3 * z3) % 4
    return complex(_POWERS_OF_I[exponent]), _LETTER_FROM_BITS[(x3, z3)]


@dataclass(frozen=True)
class PauliString:
    """An n-fold tensor product of Pauli letters, without a coefficient."""

    n: int
    key: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if not 0 <= self.key < (1 << (2 * self.n)):
            raise ValueError("key out of range for this qubit count")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        return cls.from_letters(label)

    @classmethod
    def from_letters(cls, letters: Iterable[LetterLike]) -> "PauliString":
        ms = [letter_index(a) for a in letters]
        if not ms:
            raise ValueError("empty letter sequence")
        key = 0
        n = len(ms)
        for k, m in enumerate(ms):
            key |= _XBIT[m] << k
            key |= _ZBIT[m] << (n + k)
        return cls(n, key)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0)

    def letter(self, qubit: int) -> int:
        """Letter index on 1-based `qubit`."""
        x = (self.key >> (qubit - 1)) & 1
        z = (self.key >> (self.n + qubit - 1)) & 1
        return _LETTER_FROM_BITS[(x, z)]

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(self.letter(q) for q in range(1, self.n + 1))

    @property
    def label(self) -> str:
        return "".join(LETTERS[m] for m in self.letters)

    def __str__(self) -> str:
        return self.label


def _key_planes(key: int, n: int) -> tuple[int, int]:
    mask = (1 << n) - 1
    return key & mask, key >> n


def mul_strings(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Multiply two strings factor-wise; the phase makes the result exact."""
    if p.n != q.n:
        raise SizeMismatchError(f"string sizes differ: {p.n} vs {q.n}")
    x1, z1 = _key_planes(p.key, p.n)
    x2, z2 = _key_planes(q.key, q.n)
    x3, z3 = x1 ^ x2, z1 ^ z2
    exponent = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        + 2 * (z1 & x2).bit_count()
        - (x3 & z3).bit_count()
    ) % 4
    return complex(_POWERS_OF_I[exponent]), PauliString(p.n, x3 | (z3 << p.n))


def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr).astype(np.int64)


class PauliSum:
    """A weighted sum of Pauli strings over a fixed qubit count.

    Internally a pair of parallel, canonically sorted arrays: uint64
    string keys and complex128 coefficients.  Coefficients below
    `PRUNE_EPS` are dropped on construction, so a zero operator has no
    terms.  Instances are immutable.
    """

    __slots__ = ("n", "_keys", "_coeffs")

    def __init__(self, n: int, keys=None, coeffs=None):
        if n < 1:
            raise ValueError("need at least one qubit")
        if 2 * n > 63:
            raise ValueError(f"qubit count {n} exceeds the 63-bit key encoding")
        self.n = n
        if keys is None:
            keys = np.empty(0, dtype=np.uint64)
            coeffs = np.empty(0, dtype=np.complex128)
        keys = np.asarray(keys, dtype=np.uint64)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if keys.shape != coeffs.shape or keys.ndim != 1:
            raise ValueError("keys and coeffs must be parallel 1-d arrays")
        self._keys, self._coeffs = _canonical(n, keys, coeffs)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n)

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n, [0], [coeff])

    @classmethod
    def from_string(cls, s: PauliString, coeff: complex = 1.0) -> "PauliSum":
        return cls(s.n, [s.key], [coeff])

    @classmethod
    def from_terms(
        cls, n: int, terms: Mapping[Union[str, PauliString], complex]
    ) -> "PauliSum":
        keys, coeffs = [], []
        for string, c in terms.items():
            if isinstance(string, str):
                string = PauliString.from_label(string)
            if string.n != n:
                raise SizeMismatchError(f"term on {string.n} qubits in a {n}-qubit sum")
            keys.append(string.key)
            coeffs.append(c)
        return cls(n, keys, coeffs)

    # -- views -------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return len(self._keys)

    def keys(self) -> np.ndarray:
        return self._keys.copy()

    def coeffs(self) -> np.ndarray:
        return self._coeffs.copy()

    def terms(self) -> dict[str, complex]:
        return {
            PauliString(self.n, int(k)).label: complex(c)
            for k, c in zip(self._keys, self._coeffs)
        }

    def coeff(self, string: Union[str, PauliString]) -> complex:
        if isinstance(string, str):
            string = PauliString.from_label(string)
        if string.n != self.n:
            raise SizeMismatchError("string size does not match sum")
        idx = np.searchsorted(self._keys, np.uint64(string.key))
        if idx < len(self._keys) and self._keys[idx] == string.key:
            return complex(self._coeffs[idx])
        return 0.0

    def identity_coeff(self) -> complex:
        return self.coeff(PauliString.identity(self.n))

    def is_hermitian(self) -> bool:
        if self.num_terms == 0:
            return True
        return float(np.max(np.abs(self._coeffs.imag))) <= 1e-12

    def coeff_norm(self) -> float:
        """2-norm of the coefficient vector (= Frobenius norm / 2**(n/2))."""
        return float(np.linalg.norm(self._coeffs))

    def allclose(self, other: "PauliSum") -> bool:
        if self.n != other.n:
            return False
        return (self - other).coeff_norm() <= 1e-10

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._coeffs, other._coeffs)
        )

    def __hash__(self):
        return hash((self.n, self._keys.tobytes(), self._coeffs.tobytes()))

    def __repr__(self) -> str:
        if self.num_terms == 0:
            return f"PauliSum(n={self.n}, 0)"
        parts = [
            f"({c:.6g})*{PauliString(self.n, int(k)).label}"
            for k, c in zip(self._keys[:6], self._coeffs[:6])
        ]
        if self.num_terms > 6:
            parts.append(f"... [{self.num_terms} terms]")
        return f"PauliSum(n={self.n}, " + " + ".join(parts) + ")"

    # -- operator sugar (delegates to the module-level functions) -----

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return sum_add(self, other)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return sum_combine([(1.0, self), (-1.0, other)])

    def __neg__(self) -> "PauliSum":
        return sum_scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            return sum_mul(self, other)
        return sum_scale(self, other)

    def __rmul__(self, scalar) -> "PauliSum":
        return sum_scale(self, scalar)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {
                    "string": PauliString(self.n, int(k)).label,
                    "re": float(c.real),
                    "im": float(c.imag),
                }
                for k, c in zip(self._keys, self._coeffs)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PauliSum":
        n = int(obj["n"])
        return cls.from_terms(
            n, {t["string"]: complex(t["re"], t["im"]) for t in obj["terms"]}
        )


def _merge(keys: np.ndarray, coeffs: np.ndarray):
    """Sorted distinct keys, with each key's coefficients added in input order.

    The sums start from 0.0, which clears signed zeros.  `np.unique` is
    called with an index output: without one it imports `numpy.ma`,
    40-60 ms for every CLI process.
    """
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(merged, inverse, coeffs)
    return uniq, merged


def _canonical(n: int, keys: np.ndarray, coeffs: np.ndarray):
    """Sort, merge duplicate keys, prune tiny coefficients, check budget."""
    if len(keys) == 0:
        return keys, coeffs
    uniq, merged = _merge(keys, coeffs)
    keep = np.abs(merged) > PRUNE_EPS
    uniq, merged = uniq[keep], merged[keep]
    budget = min(4**n, TERM_BUDGET)
    if len(uniq) > budget:
        raise BudgetError(f"{len(uniq)} terms exceeds the budget of {budget} (n={n})")
    return uniq, merged


def _require_same_n(a: PauliSum, b: PauliSum):
    if a.n != b.n:
        raise SizeMismatchError(f"sum sizes differ: {a.n} vs {b.n}")


def sum_combine(weighted: Sequence[tuple[complex, PauliSum]]) -> PauliSum:
    """The weighted sum ``w_1 s_1 + w_2 s_2 + ...`` of at least one sum.

    All terms are concatenated and merged by one `_canonical` pass, so a
    coefficient is pruned only once its whole sum is known.
    """
    first = weighted[0][1]
    for _, s in weighted:
        _require_same_n(first, s)
    keys = np.concatenate([s._keys for _, s in weighted])
    coeffs = np.concatenate([s._coeffs * complex(w) for w, s in weighted])
    return PauliSum(first.n, keys, coeffs)


def sum_add(a: PauliSum, b: PauliSum) -> PauliSum:
    return sum_combine([(1.0, a), (1.0, b)])


def sum_scale(a: PauliSum, scalar: complex) -> PauliSum:
    return sum_combine([(scalar, a)])


# Streamed sums of more terms than this are built in row blocks.
_BLOCK_PAIRS = 1 << 16


def _pair_grid(n: int, a: PauliSum, b: PauliSum, rows: slice):
    """Keys and coefficients of the products of ``a``'s `rows` with all of `b`.

    Pairs come in row-major order, one row per term of ``a[rows]``.
    """
    mask = np.uint64((1 << n) - 1)
    shift = np.uint64(n)
    ka = a._keys[rows, None]
    kb = b._keys[None, :]
    xa, za = ka & mask, ka >> shift
    xb, zb = kb & mask, kb >> shift
    keys = ka ^ kb
    s_a = _popcount(xa & za)
    s_b = _popcount(xb & zb)
    cross = _popcount(za & xb)
    s_out = _popcount(keys & mask & (keys >> shift))
    exponent = (s_a + s_b + 2 * cross - s_out) % 4
    coeffs = a._coeffs[rows, None] * b._coeffs[None, :] * _POWERS_OF_I[exponent]
    return keys.ravel(), coeffs.ravel()


def _streamed_sum(n: int, num_rows: int, width: int, block) -> PauliSum:
    """The sum of the terms that `block` yields for rows ``0..num_rows-1``.

    ``block(rows)`` returns the keys and coefficients for a slice of rows,
    at most `width` terms per row, in order.  More than `_BLOCK_PAIRS`
    terms are built in row blocks, each merged into a running sum, so
    memory is bounded by a block and the result, not by the whole.
    Every string's terms are added in order starting from 0, as
    `_canonical` adds them in one pass, so the result is the same to the
    bit.  The running sum drops exact zeros but is otherwise unpruned,
    and is checked against the term budget: terms that would cancel
    later still count.
    """
    rows = max(1, _BLOCK_PAIRS // width)
    if num_rows <= rows:
        return PauliSum(n, *block(slice(None)))
    budget = min(4**n, TERM_BUDGET)
    keys = np.empty(0, dtype=np.uint64)
    coeffs = np.empty(0, dtype=np.complex128)
    start = 0
    while start < num_rows:
        # A block at least as large as the running sum amortises its re-sort.
        stop = start + max(rows, len(keys) // width)
        block_keys, block_coeffs = block(slice(start, stop))
        keys, coeffs = _merge(
            np.concatenate([keys, block_keys]), np.concatenate([coeffs, block_coeffs])
        )
        # An exactly cancelled string would add its later terms to 0.0
        # again, so dropping it changes no bit and keeps it out of the budget.
        nonzero = coeffs != 0
        keys, coeffs = keys[nonzero], coeffs[nonzero]
        if len(keys) > budget:
            raise BudgetError(
                f"{len(keys)} intermediate terms exceed the budget of {budget} (n={n})"
            )
        start = stop
    return PauliSum(n, keys, coeffs)


def sum_mul(a: PauliSum, b: PauliSum) -> PauliSum:
    """Distribute string multiplication over all term pairs.

    The pairs are streamed in row blocks of `a` (see `_streamed_sum`),
    so memory is bounded by a block and the result, not by |a| x |b|,
    and the result is the same to the bit as one merge of the whole grid.
    """
    _require_same_n(a, b)
    if a.num_terms == 0 or b.num_terms == 0:
        return PauliSum.zero(a.n)
    return _streamed_sum(
        a.n, a.num_terms, b.num_terms, lambda rows: _pair_grid(a.n, a, b, rows)
    )


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    return sum_mul(a, b) - sum_mul(b, a)


def hs_inner(a: PauliSum, b: PauliSum) -> complex:
    """Trace inner product Tr(ab), evaluated in the string basis.

    Equals ``2**n * sum_P c_P(a) c_P(b)`` with no conjugation, matching
    the dense trace for arbitrary inputs because distinct strings are
    traceless and each string squares to the identity.
    """
    _require_same_n(a, b)
    _, ia, ib = np.intersect1d(
        a._keys, b._keys, assume_unique=True, return_indices=True
    )
    return complex((2**a.n) * np.sum(a._coeffs[ia] * b._coeffs[ib]))


# -- dense conversions ---------------------------------------------------


def _check_dense_budget(n: int):
    if n > DENSE_QUBITS:
        raise BudgetError(f"dense form of {n} qubits exceeds the budget of {DENSE_QUBITS}")


def _string_action(n: int, keys: np.ndarray, basis: np.ndarray):
    """How strings act on a set of basis states, in blocks of terms.

    A string with planes (x, z) maps |b> to i**|x&z| (-1)**|z&b| |b^x>.
    `basis` holds the states b acted on, as uint64.  Yields
    ``(block, rows, factors)``: for term t of ``keys[block]`` and state
    ``basis[j]``, ``rows[t, j]`` is b^x_t and ``factors[t, j]`` that
    phase and sign.  A block holds about 2**16 entries (1 MiB of
    complex factors).
    """
    mask = np.uint64((1 << n) - 1)
    size = max(1, (1 << 16) // len(basis))
    for start in range(0, len(keys), size):
        block = slice(start, start + size)
        key = keys[block, None]
        x, z = key & mask, key >> np.uint64(n)
        # One expression: no sign array stays alive while the caller works.
        factors = _POWERS_OF_I[_popcount(x & z) % 4] * (1 - 2 * (_popcount(z & basis) & 1))
        yield block, basis ^ x, factors


def _letters(n: int, keys: np.ndarray) -> np.ndarray:
    """Letters of each string as a (terms, n) array; column k-1 is qubit k."""
    shifts = np.arange(n, dtype=np.uint64)
    x = (keys[:, None] >> shifts) & np.uint64(1)
    z = (keys[:, None] >> (shifts + np.uint64(n))) & np.uint64(1)
    return ((z << np.uint64(1)) | (x ^ z)).astype(np.int64)


def _keys(n: int, letters: np.ndarray) -> np.ndarray:
    """String keys of a (terms, n) letter array; inverse of `_letters`."""
    z = letters >> 1
    bits = 1 << np.arange(n)
    return ((((letters ^ z) & 1) @ bits) | ((z @ bits) << n)).astype(np.uint64)


def _coeff_tensor_to_dense(tensor: np.ndarray) -> np.ndarray:
    n = tensor.ndim
    out = tensor
    # Contract the current last m-axis each step, appending that qubit's
    # (row, col) axes at the end: m_1 first, then m_2, ...
    for step in range(n):
        out = np.tensordot(out, SIGMA, axes=([n - 1 - step], [0]))
    # axes now: r_1, c_1, r_2, c_2, ..., r_n, c_n
    rows = [2 * (n - k) for k in range(1, n + 1)]
    cols = [r + 1 for r in rows]
    return out.transpose(rows + cols).reshape(2**n, 2**n)


def to_dense(s: PauliSum) -> np.ndarray:
    """Dense matrix of a sum; qubit 1 is the least significant bit.

    The coefficients fill the [4]*n tensor (axes m_n..m_1), whose
    contraction costs about n 4**n whatever the number of terms.
    """
    _check_dense_budget(s.n)
    flat = np.zeros(4**s.n, dtype=np.complex128)
    flat[_letters(s.n, s._keys) @ 4 ** np.arange(s.n)] = s._coeffs
    return _coeff_tensor_to_dense(flat.reshape([4] * s.n))


def decompose(m: np.ndarray) -> PauliSum:
    """Expand a dense matrix over unnormalized strings: c_P = Tr(m P) / 2**n."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two >= 2")
    _check_dense_budget(n)
    tensor = m.reshape([2] * (2 * n))
    # Contract qubit n first: its (row, col) axes sit at (0, n_remaining).
    out = tensor
    for remaining in range(n, 0, -1):
        # Tr(mP) pairs m's row index with sigma's column index.
        out = np.tensordot(out, SIGMA, axes=([0, remaining], [2, 1]))
    coeff = out.reshape(-1) / dim  # axes m_n..m_1, row-major
    flat_idx = np.nonzero(np.abs(coeff) > PRUNE_EPS)[0]
    letters = (flat_idx[:, None] >> 2 * np.arange(n)) & 3  # m_1 least significant
    return PauliSum(n, _keys(n, letters), coeff[flat_idx])


def permute_qubits(s: PauliSum, mapping: Mapping[int, int]) -> PauliSum:
    """Relabel qubits: the letter on qubit q moves to ``mapping[q]``.

    `mapping` must be a permutation of 1..n (identity entries may be
    omitted).
    """
    n = s.n
    full = [mapping.get(q, q) for q in range(1, n + 1)]
    if set(mapping) - set(range(1, n + 1)) or sorted(full) != list(range(1, n + 1)):
        raise ValueError("mapping is not a permutation of 1..n")
    letters = np.empty((s.num_terms, n), dtype=np.int64)
    letters[:, np.array(full) - 1] = _letters(n, s._keys)
    return PauliSum(n, _keys(n, letters), s._coeffs.copy())
