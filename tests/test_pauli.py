"""Tests for the Pauli string/sum algebra.

The independent oracle throughout is dense matrix arithmetic on kron
products of the four 2x2 Paulis, built here without touching the
package's own conversion helpers.  The scalar product rules of
`helpers` (`mul_letters`, `mul_strings`) are checked against it, and
serve in turn as the term-by-term oracle for `sum_mul`.
"""
import ast
import functools
import itertools
from pathlib import Path

import helpers
import numpy as np
import pytest
from helpers import mul_letters, mul_strings, oracle_key, oracle_label, run_capped
from hypothesis import given, settings
from hypothesis import strategies as st

from dhsim import pauli
from dhsim.errors import BudgetError, SizeMismatchError
from dhsim.pauli import (
    LETTERS,
    SIGMA,
    PauliString,
    PauliSum,
    commutator,
    decompose,
    hs_inner,
    permute_qubits,
    sum_add,
    sum_mul,
    sum_scale,
    to_dense,
)


def dense_string(label: str) -> np.ndarray:
    """Independent dense form: qubit 1 (first character) = least significant bit."""
    mats = [SIGMA[LETTERS.index(ch)] for ch in reversed(label)]
    return functools.reduce(np.kron, mats)


def dense_sum(s: PauliSum) -> np.ndarray:
    out = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for label, c in s.terms().items():
        out += c * dense_string(label)
    return out


def random_labels(rng, n, count):
    return ["".join(rng.choice(list(LETTERS), size=n)) for _ in range(count)]


# -- letters ---------------------------------------------------------------


def test_mul_letters_against_dense_products():
    for a in range(4):
        for b in range(4):
            phase, c = mul_letters(a, b)
            assert np.allclose(phase * SIGMA[c], SIGMA[a] @ SIGMA[b])


def test_mul_letters_known_values():
    assert mul_letters("X", "Y") == (1j, LETTERS.index("Z"))
    assert mul_letters("I", "X") == (1, LETTERS.index("X"))
    assert mul_letters("X", "X") == (1, LETTERS.index("I"))


def test_mul_letters_phase_pattern():
    # +-1 exactly when the letters are equal or one is the identity,
    # +-i otherwise.
    for a in range(4):
        for b in range(4):
            phase, _ = mul_letters(a, b)
            if a == b or a == 0 or b == 0:
                assert phase in (1, -1)
            else:
                assert phase in (1j, -1j)


def test_mul_letters_rejects_garbage():
    with pytest.raises(ValueError):
        mul_letters("Q", "X")
    with pytest.raises(ValueError):
        mul_letters(5, 0)


# -- strings ---------------------------------------------------------------


def test_string_label_round_trip():
    # Every label on 1..3 qubits, then a few longer ones.
    every = ["".join(p) for n in (1, 2, 3) for p in itertools.product(LETTERS, repeat=n)]
    for label in [*every, "XIZY", "ZZZZZ", "IYXI"]:
        string = PauliString.from_label(label)
        assert string.label == label
        assert string.key == oracle_key(label)
        assert string.letters == tuple(LETTERS.index(ch) for ch in label)


def test_sum_labels_match_the_oracle():
    rng = np.random.default_rng(62)
    n = 5
    keys = rng.integers(0, 4**n, size=40).astype(np.uint64)
    s = PauliSum(n, keys, rng.normal(size=40) + 1j * rng.normal(size=40))
    want = [oracle_label(n, int(k)) for k in s.keys()]
    assert list(s.terms()) == want
    assert [term["string"] for term in s.to_json()["terms"]] == want
    assert PauliSum.from_json(s.to_json()) == s
    assert all(f")*{label}" in repr(s) for label in want[:6])


def test_helpers_oracle_takes_no_private_tables_from_pauli():
    tree = ast.parse(Path(helpers.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dhsim.pauli"
        for alias in node.names
    ]
    assert imported and [name for name in imported if name.startswith("_")] == []


def test_mul_strings_exhaustive_two_qubits():
    labels = [a + b for a in LETTERS for b in LETTERS]
    for la in labels:
        for lb in labels:
            phase, prod = mul_strings(
                PauliString.from_label(la), PauliString.from_label(lb)
            )
            assert np.allclose(
                phase * dense_string(prod.label), dense_string(la) @ dense_string(lb)
            )


def test_mul_strings_known_cases():
    phase, prod = mul_strings(PauliString.from_label("XZ"), PauliString.from_label("ZX"))
    assert phase == 1 and prod.label == "YY"
    p = PauliString.from_label("YZ")
    assert mul_strings(PauliString.identity(2), p) == (1, p)
    phase, prod = mul_strings(PauliString.from_label("XI"), PauliString.from_label("XI"))
    assert phase == 1 and prod.label == "II"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4**3 - 1), st.integers(0, 4**3 - 1), st.integers(0, 4**3 - 1))
def test_mul_strings_associative_and_matches_dense(a, b, c):
    def string(idx):
        return PauliString.from_letters([(idx >> (2 * k)) & 3 for k in range(3)])

    pa, pb, pc = string(a), string(b), string(c)
    ph1, ab = mul_strings(pa, pb)
    ph2, ab_c = mul_strings(ab, pc)
    ph3, bc = mul_strings(pb, pc)
    ph4, a_bc = mul_strings(pa, bc)
    assert ab_c == a_bc
    assert ph1 * ph2 == ph3 * ph4
    assert np.allclose(
        ph1 * ph2 * dense_string(ab_c.label),
        dense_string(pa.label) @ dense_string(pb.label) @ dense_string(pc.label),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_letters_and_keys_round_trip_every_string(n):
    keys = np.arange(4**n, dtype=np.uint64)
    letters = pauli._letters(n, keys)
    want = [[LETTERS.index(ch) for ch in oracle_label(n, k)] for k in range(4**n)]
    assert letters.tolist() == want
    assert np.array_equal(pauli._keys(n, letters), keys)


def test_letters_and_keys_round_trip_top_bits():
    # 31 qubits fill 62 of the 64 key bits; Y and Z on qubit 31 set bit 61.
    rng = np.random.default_rng(8)
    letters = [*rng.integers(0, 4, size=29), 2, 3]
    key = PauliString.from_letters(letters).key
    assert key >> 61 == 1
    assert pauli._letters(31, np.array([key], dtype=np.uint64)).tolist() == [letters]
    assert pauli._keys(31, np.array([letters])).tolist() == [key]
    assert PauliString(31, key).label == "".join(LETTERS[m] for m in letters)
    with pytest.raises(ValueError, match="63-bit key encoding"):
        PauliString(32, 0)


def test_mul_strings_size_mismatch():
    with pytest.raises(SizeMismatchError):
        mul_strings(PauliString.from_label("X"), PauliString.from_label("XX"))


# -- sums ------------------------------------------------------------------


def test_sum_mul_single_letters():
    x = PauliSum.from_terms(1, {"X": 1})
    y = PauliSum.from_terms(1, {"Y": 1})
    assert sum_mul(x, y).terms() == {"Z": 1j}


def test_sum_add_zero_identity():
    a = PauliSum.from_terms(2, {"XI": 0.5, "ZY": -2.0})
    assert sum_add(a, PauliSum.zero(2)) == a


def test_sum_mul_hadamard_axis_squares_to_identity():
    a = PauliSum.from_terms(1, {"X": 1 / np.sqrt(2), "Z": 1 / np.sqrt(2)})
    prod = sum_mul(a, a)
    assert prod.num_terms == 1
    assert prod.coeff("I") == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(dense_sum(a) @ dense_sum(a), np.eye(2))


def test_sum_ops_match_dense_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(5):
            terms_a = {l: complex(*rng.normal(size=2)) for l in random_labels(rng, n, 4)}
            terms_b = {l: complex(*rng.normal(size=2)) for l in random_labels(rng, n, 4)}
            a = PauliSum.from_terms(n, terms_a)
            b = PauliSum.from_terms(n, terms_b)
            assert np.allclose(dense_sum(sum_add(a, b)), dense_sum(a) + dense_sum(b))
            assert np.allclose(dense_sum(sum_mul(a, b)), dense_sum(a) @ dense_sum(b))
            assert np.allclose(dense_sum(sum_scale(a, 2.5j)), 2.5j * dense_sum(a))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sum_mul_matches_scalar_string_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        a, b = (
            PauliSum(
                n,
                rng.integers(0, 4**n, size=size).astype(np.uint64),
                rng.normal(size=size) + 1j * rng.normal(size=size),
            )
            for size in rng.integers(1, 40, size=2)
        )
        want: dict[int, complex] = {}
        for ka, ca in zip(a.keys(), a.coeffs()):
            for kb, cb in zip(b.keys(), b.coeffs()):
                phase, prod = mul_strings(PauliString(n, int(ka)), PauliString(n, int(kb)))
                want[prod.key] = want.get(prod.key, 0) + phase * ca * cb
        got = sum_mul(a, b)
        assert got.keys().tolist() == sorted(want)
        assert np.allclose(got.coeffs(), [want[k] for k in sorted(want)], rtol=0, atol=1e-12)


def test_sum_mul_size_mismatch():
    with pytest.raises(SizeMismatchError):
        sum_mul(PauliSum.identity(1), PauliSum.identity(2))


def test_term_budget_enforced(monkeypatch):
    import dhsim.pauli as pauli_mod

    monkeypatch.setattr(pauli_mod, "TERM_BUDGET", 8)
    rng = np.random.default_rng(0)
    labels = random_labels(rng, 3, 12)
    with pytest.raises(BudgetError):
        PauliSum.from_terms(3, {l: 1.0 for l in set(labels)})


# -- products built in row blocks ---------------------------------------------


def random_sum(rng, n, terms, planes=None, real=False):
    """`terms` distinct strings whose X and Z planes use only `planes` qubits."""
    planes = n if planes is None else planes
    index = rng.choice(4**planes, terms, replace=False).astype(np.uint64)
    keys = (index & np.uint64(2**planes - 1)) | (index >> np.uint64(planes) << np.uint64(n))
    coeffs = rng.normal(size=terms) + (0 if real else 1j * rng.normal(size=terms))
    return PauliSum(n, keys, coeffs)


def unblocked_product(a, b):
    """The whole pair grid at once, merged by the PauliSum constructor."""
    n = a.n
    mask, shift = np.uint64(2**n - 1), np.uint64(n)
    ka, kb = a.keys()[:, None], b.keys()[None, :]
    keys = ka ^ kb

    def y_count(k):
        return np.bitwise_count(k & mask & (k >> shift)).astype(np.int64)

    cross = np.bitwise_count((ka >> shift) & kb & mask).astype(np.int64)
    exponent = (y_count(ka) + y_count(kb) + 2 * cross - y_count(keys)) % 4
    coeffs = a.coeffs()[:, None] * b.coeffs()[None, :] * np.array([1, 1j, -1, -1j])[exponent]
    return PauliSum(n, keys.ravel(), coeffs.ravel())


@pytest.mark.parametrize(
    "n, planes, block",
    [
        (8, 8, None),  # most strings hit by several pairs
        (11, 11, None),  # few strings hit twice
        (11, 7, None),  # strings on 7 of 11 qubits: many pairs per string
        (8, 8, 2**10),  # many blocks
        (11, 11, 2**10),  # blocks growing with the running sum
    ],
)
def test_sum_mul_blocks_match_unblocked_grid(monkeypatch, n, planes, block):
    if block is not None:
        monkeypatch.setattr(pauli, "_BLOCK_PAIRS", block)
    rng = np.random.default_rng([60, n, planes])
    # Just above one block: 256 rows of 256 terms fit, the 257th does not.
    a, b = random_sum(rng, n, 257, planes), random_sum(rng, n, 256, planes)
    assert a.num_terms * b.num_terms > pauli._BLOCK_PAIRS
    got, want = sum_mul(a, b), unblocked_product(a, b)
    assert np.array_equal(got.keys(), want.keys())
    assert np.array_equal(got.coeffs(), want.coeffs())


@pytest.mark.parametrize("n", [8, 11])
def test_sum_mul_blocked_square_matches_unblocked_grid(n):
    # Anticommuting pairs of a Hermitian sum cancel in its square.
    a = random_sum(np.random.default_rng([61, n]), n, 300, real=True)
    got, want = sum_mul(a, a), unblocked_product(a, a)
    assert np.array_equal(got.keys(), want.keys())
    assert np.array_equal(got.coeffs(), want.coeffs())
    assert got.is_hermitian()


def test_sum_mul_budget_skips_cancelled_terms(monkeypatch):
    # The square of a real sum of 300 strings at n=11 reaches about 45,000
    # distinct strings, but the anticommuting half cancels exactly, and
    # the running sum never holds more than about 30,000 nonzero terms.
    monkeypatch.setattr(pauli, "TERM_BUDGET", 40_000)
    a = random_sum(np.random.default_rng([64, 11]), 11, 300, real=True)
    ka = a.keys()
    assert len(np.unique(ka[:, None] ^ ka[None, :])) > pauli.TERM_BUDGET
    got, want = sum_mul(a, a), unblocked_product(a, a)
    assert np.array_equal(got.keys(), want.keys())
    assert np.array_equal(got.coeffs(), want.coeffs())


def test_sum_mul_large_product_under_small_address_space():
    # 4096 x 4096 pairs: the whole grid would take about 1.4 GiB.
    proc = run_capped(
        """
import numpy as np
from dhsim.pauli import PauliSum, sum_mul
rng = np.random.default_rng(62)
a, b = (PauliSum(8, rng.choice(4**8, 4096, replace=False), rng.normal(size=4096))
        for _ in range(2))
print(sum_mul(a, b).num_terms)
""",
        cap=2**30,
    )
    assert proc.returncode == 0, proc.stderr
    assert 0 < int(proc.stdout) <= 4**8


def test_sum_mul_budget_counts_intermediate_terms():
    # 1100 x 1100 pairs at n=12 reach more than TERM_BUDGET distinct strings.
    rng = np.random.default_rng(63)
    a, b = random_sum(rng, 12, 1100), random_sum(rng, 12, 1100)
    with pytest.raises(BudgetError, match="intermediate terms"):
        sum_mul(a, b)


def test_prune_drops_tiny_coefficients():
    a = PauliSum.from_terms(1, {"X": 1.0, "Z": 1e-15})
    assert a.terms() == {"X": 1.0}
    b = PauliSum.from_terms(1, {"X": 1.0})
    assert (b - b).num_terms == 0


# -- dense conversions ------------------------------------------------------


def test_decompose_projector():
    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    assert decompose(proj).terms() == pytest.approx({"I": 0.5, "Z": 0.5})


def test_decompose_identity_two_qubits():
    assert decompose(np.eye(4)).terms() == pytest.approx({"II": 1.0})


def test_to_dense_known_values():
    assert np.allclose(to_dense(PauliSum.from_terms(1, {"Z": 1})), np.diag([1, -1]))
    assert np.allclose(
        to_dense(PauliSum.from_terms(1, {"I": 0.5, "Z": 0.5})),
        np.array([[1, 0], [0, 0]]),
    )


def test_dense_round_trips_random_hermitian():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        raw = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        h = raw + raw.conj().T
        s = decompose(h)
        assert s.is_hermitian()
        assert np.max(np.abs(to_dense(s) - h)) < 1e-12
        again = decompose(to_dense(s))
        assert (again - s).coeff_norm() < 1e-12


def test_to_dense_many_terms_matches_kron_oracle():
    rng = np.random.default_rng(3)
    n = 4
    labels = set(random_labels(rng, n, 200))
    s = PauliSum.from_terms(n, {l: complex(*rng.normal(size=2)) for l in labels})
    assert s.num_terms > 64
    assert np.max(np.abs(to_dense(s) - dense_sum(s))) < 1e-12


@pytest.mark.parametrize("extra", [0, 1])
def test_to_dense_around_two_to_the_n_terms_matches_kron_oracle(extra):
    rng = np.random.default_rng(5)
    n = 5
    count = 2**n + extra
    keys = rng.choice(4**n, size=count, replace=False).astype(np.uint64)
    s = PauliSum(n, keys, rng.normal(size=count) + 1j * rng.normal(size=count))
    assert s.num_terms == count
    assert np.max(np.abs(to_dense(s) - dense_sum(s))) < 1e-12


def test_to_dense_across_term_blocks_round_trips():
    # 300 random strings at n=10; `decompose` is an independent
    # contraction path back to the terms.
    rng = np.random.default_rng(4)
    n = 10
    keys = rng.integers(0, 4**n, size=300).astype(np.uint64)
    s = PauliSum(n, keys, rng.normal(size=300) + 1j * rng.normal(size=300))
    assert s.num_terms > 256
    assert (decompose(to_dense(s)) - s).coeff_norm() < 1e-10


def test_decompose_rejects_bad_shapes():
    with pytest.raises(ValueError):
        decompose(np.eye(3))
    with pytest.raises(ValueError):
        decompose(np.ones((2, 4)))
    with pytest.raises(ValueError):
        decompose(np.ones((1, 1)))


def test_dense_budget():
    with pytest.raises(BudgetError):
        to_dense(PauliSum.identity(11))


# -- inner product -----------------------------------------------------------


def test_hs_inner_pauli_orthogonality():
    x = PauliSum.from_terms(1, {"X": 1})
    y = PauliSum.from_terms(1, {"Y": 1})
    assert hs_inner(x, y) == 0
    assert hs_inner(x, x) == 2
    for la in ("XY", "ZI", "YY"):
        for lb in ("XY", "ZI", "YY"):
            a = PauliSum.from_terms(2, {la: 1})
            b = PauliSum.from_terms(2, {lb: 1})
            assert hs_inner(a, b) == (4 if la == lb else 0)


def test_hs_inner_zero():
    a = PauliSum.from_terms(2, {"XZ": 1.5})
    assert hs_inner(a, PauliSum.zero(2)) == 0


def test_hs_inner_matches_dense_trace():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        la = {l: complex(*rng.normal(size=2)) for l in random_labels(rng, n, 6)}
        lb = {l: complex(*rng.normal(size=2)) for l in random_labels(rng, n, 6)}
        a, b = PauliSum.from_terms(n, la), PauliSum.from_terms(n, lb)
        assert hs_inner(a, b) == pytest.approx(
            np.trace(dense_sum(a) @ dense_sum(b)), abs=1e-10
        )


# -- hermiticity --------------------------------------------------------------


def test_conjugated_hermitian_has_real_coefficients():
    rng = np.random.default_rng(13)
    n = 3
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = raw + raw.conj().T
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    s = decompose(q.conj().T @ h @ q)
    assert s.is_hermitian()


def test_commutator_of_commuting_strings_vanishes():
    a = PauliSum.from_terms(2, {"XX": 1})
    b = PauliSum.from_terms(2, {"ZZ": 1})
    assert commutator(a, b).num_terms == 0


# -- serialization and relabeling ---------------------------------------------


def test_json_round_trip():
    s = PauliSum.from_terms(3, {"XIZ": 1.25, "YYI": -0.5 + 0.25j})
    obj = s.to_json()
    assert obj["n"] == 3
    assert {t["string"] for t in obj["terms"]} == {"XIZ", "YYI"}
    assert PauliSum.from_json(obj) == s


def test_permute_qubits_matches_relabeled_terms():
    s = PauliSum.from_terms(4, {"XYII": 2.0, "IZIY": -1.0})
    moved = permute_qubits(s, {1: 3, 3: 1, 2: 4, 4: 2})
    assert moved.terms() == {"IIXY": 2.0, "IYIZ": -1.0}
    with pytest.raises(ValueError):
        permute_qubits(s, {1: 2})
    with pytest.raises(ValueError):
        permute_qubits(s, {5: 1})
