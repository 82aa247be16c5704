import numpy as np
import pytest

from dfsim import qcore
from dfsim.qcore import PauliString, anticommutes, hs_overlap, multiply, pauli_matrix


def random_unitary(rng, n=16):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2
    vals, vecs = np.linalg.eigh(h)
    return vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T


def random_pauli(rng):
    letters = "".join(rng.choice(list("IXYZ"), size=4))
    phase = rng.choice([1 + 0j, -1 + 0j, 1j, -1j])
    return PauliString(letters, phase)


def test_identity_word_is_identity_matrix():
    np.testing.assert_array_equal(pauli_matrix(PauliString("IIII")), np.eye(16))


def test_xxii_is_permutation_sending_0000_to_1100():
    m = pauli_matrix(PauliString("XXII"))
    e0 = np.zeros(16)
    e0[0] = 1
    out = m @ e0
    assert out[12] == 1 and np.count_nonzero(out) == 1
    # permutation matrix: exactly one unit entry per row and column
    assert np.all(np.isin(m, (0, 1)))
    assert np.all(m.sum(axis=0) == 1) and np.all(m.sum(axis=1) == 1)


def test_zzii_diagonal_from_parity():
    # independent oracle: ZZII eigenvalue on |b1 b2 b3 b4> is (-1)^(b1 + b2)
    m = pauli_matrix(PauliString("ZZII"))
    expected = np.diag(
        [(-1.0) ** (((b >> 3) & 1) + ((b >> 2) & 1)) for b in range(16)]
    ).astype(complex)
    np.testing.assert_array_equal(m, expected)
    assert m[0, 0] == 1 and m[12, 12] == 1
    assert m[8, 8] == -1 and m[4, 4] == -1


def test_pauli_matrix_entries_in_unit_set():
    rng = np.random.default_rng(5)
    allowed = np.array([0, 1, -1, 1j, -1j])
    for _ in range(25):
        m = random_pauli(rng).matrix()
        assert np.all(np.isin(m.reshape(-1), allowed))


def test_pauli_matrix_is_the_kron_product_of_its_letters():
    for p in qcore.pauli_basis_strings():
        expected = qcore.PAULI_1Q[p.letters[0]]
        for c in p.letters[1:]:
            expected = np.kron(expected, qcore.PAULI_1Q[c])
        for phase in (1, -1, 1j, -1j):
            got = pauli_matrix(PauliString(p.letters, phase))
            np.testing.assert_array_equal(got, phase * expected)


def test_pauli_matrix_returns_a_fresh_array_each_call():
    # word matrices are cached; a caller mutating its copy must not touch the cache
    p = PauliString("XYZI", -1j)
    expected = pauli_matrix(p).copy()
    m = pauli_matrix(p)
    assert m.flags.writeable
    m[:] = 7
    np.testing.assert_array_equal(pauli_matrix(p), expected)
    np.testing.assert_array_equal(pauli_matrix(PauliString("XYZI")), 1j * expected)


def test_multiply_identity_and_involution():
    i4 = PauliString("IIII")
    x = PauliString("XXII")
    assert multiply(i4, x) == x
    assert multiply(x, x) == i4


def test_multiply_zx_gives_plus_i_y():
    # oracle: 2x2 product ZX = iY, tensored with identities
    z1 = PauliString("ZIII")
    x1 = PauliString("XIII")
    prod = multiply(z1, x1)
    assert prod == PauliString("YIII", 1j)
    zm = np.kron(qcore.PAULI_1Q["Z"], np.eye(8))
    xm = np.kron(qcore.PAULI_1Q["X"], np.eye(8))
    np.testing.assert_array_equal(prod.matrix(), zm @ xm)


def test_multiply_matches_matrix_product_exactly():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, q = random_pauli(rng), random_pauli(rng)
        lhs = multiply(p, q).matrix()
        rhs = p.matrix() @ q.matrix()
        assert np.abs(lhs - rhs).max() == 0.0


def test_anticommutes_examples():
    assert anticommutes(PauliString("ZIII"), PauliString("XXII"))
    assert not anticommutes(PauliString("ZZII"), PauliString("XXII"))
    for letters in ("XXII", "ZZZZ", "IIII", "YXZI"):
        assert not anticommutes(PauliString("IIII"), PauliString(letters))


def test_anticommutes_matches_matrix_test():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p, q = random_pauli(rng), random_pauli(rng)
        comm = p.matrix() @ q.matrix() + q.matrix() @ p.matrix()
        assert anticommutes(p, q) == (np.abs(comm).max() == 0.0)
        assert anticommutes(p, q) == anticommutes(q, p)


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("XX")
    with pytest.raises(ValueError):
        PauliString("ABCD")
    with pytest.raises(ValueError):
        PauliString("XXII", 0.5)


def test_conjugate_with_identity():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = (m + m.conj().T) / 2
    u = np.eye(16)
    np.testing.assert_allclose(u @ rho @ u.conj().T, rho, atol=1e-14)


def test_conjugate_flip_negates_z1():
    z1 = pauli_matrix(PauliString("ZIII"))
    flip = pauli_matrix(PauliString("XXII"))
    np.testing.assert_allclose(flip @ z1 @ flip.conj().T, -z1, atol=1e-14)


def test_conjugate_leaves_encoded_00_invariant():
    rho = np.zeros((16, 16), dtype=complex)
    for idx in (0, 12, 3, 15):
        rho[idx, idx] = 0.25
    flip = pauli_matrix(PauliString("XXII"))
    np.testing.assert_allclose(flip @ rho @ flip.conj().T, rho, atol=1e-14)


def test_conjugate_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = (m + m.conj().T) / 2
        u = random_unitary(rng)
        assert qcore.is_unitary(u)
        out = u @ rho @ u.conj().T
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12
        assert qcore.frobenius_norm(out - out.conj().T) <= 1e-12


def test_hs_overlap_examples():
    v = np.zeros(16)
    v[3] = 1.0
    proj = np.outer(v, v)
    assert hs_overlap(proj, proj) == pytest.approx(1.0)

    z1 = pauli_matrix(PauliString("ZIII"))
    x1 = pauli_matrix(PauliString("XIII"))
    assert hs_overlap(z1, x1) == pytest.approx(0.0)
    assert hs_overlap(z1, -z1) == pytest.approx(-16.0)
    assert hs_overlap(z1, -z1) / 16 == pytest.approx(-1.0)


def test_pauli_basis_orthogonality():
    stack = np.stack([p.matrix() for p in qcore.pauli_basis_strings()])
    gram = np.einsum("aij,bij->ab", stack.conj(), stack)
    np.testing.assert_allclose(gram, 16 * np.eye(256), atol=1e-12)


def test_pauli_decompose_roundtrip():
    rng = np.random.default_rng(9)
    words = ("ZZII", "XIXI", "YYYY")
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    rho = sum(c * pauli_matrix(PauliString(w)) for c, w in zip(coeffs, words))
    found = qcore.pauli_decompose(rho, tol=1e-10)
    assert set(found) == set(words)
    for c, w in zip(coeffs, words):
        assert found[w] == pytest.approx(c)
