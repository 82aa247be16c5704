import numpy as np
import pytest

from dfsim import dfs, noise, qcore
from dfsim.dfs import decode, dfs_basis, encode, lift_logical_unitary
from dfsim.qcore import PauliString, pauli_matrix


def random_state(rng, n=4):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_unitary(rng, n=4):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2
    vals, vecs = np.linalg.eigh(h)
    return vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T


def sparse_vector(entries):
    v = np.zeros(16, dtype=complex)
    for idx, amp in entries.items():
        v[idx] = amp
    return v


def test_subspace1_basis_states():
    basis = dfs_basis(1)
    expected = [
        {0: 0.5, 12: 0.5, 3: 0.5, 15: 0.5},      # |00>: 0000,1100,0011,1111
        {8: 0.5, 4: 0.5, 11: 0.5, 7: 0.5},       # |01>: 1000,0100,1011,0111
        {1: 0.5, 13: 0.5, 2: 0.5, 14: 0.5},      # |10>: 0001,1101,0010,1110
        {9: 0.5, 5: 0.5, 10: 0.5, 6: 0.5},       # |11>: 1001,0101,1010,0110
    ]
    for col, entries in enumerate(expected):
        np.testing.assert_allclose(
            basis.vectors[:, col], sparse_vector(entries), atol=1e-14
        )


def test_sign_patterns_of_subspaces_2_to_4():
    # sign changes relative to subspace 1 on the kets 0000, 1100, 0011, 1111
    patterns = {
        2: {0: 0.5, 12: 0.5, 3: -0.5, 15: -0.5},
        3: {0: 0.5, 12: -0.5, 3: 0.5, 15: -0.5},
        4: {0: 0.5, 12: -0.5, 3: -0.5, 15: 0.5},
    }
    for i, entries in patterns.items():
        np.testing.assert_allclose(
            dfs_basis(i).vectors[:, 0], sparse_vector(entries), atol=1e-14
        )


def test_basis_index_validation():
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            dfs_basis(bad)


def test_signatures_match_matrix_action():
    # oracle: apply the three flip matrices to every basis vector
    flips = dfs.ERROR_MATRICES[1:]  # XXII, IIXX, XXXX
    for i in (1, 2, 3, 4):
        basis = dfs_basis(i)
        for flip, s in zip(flips, basis.signature):
            np.testing.assert_allclose(flip @ basis.vectors, s * basis.vectors, atol=1e-14)


def test_signature_values_and_product_rule():
    assert dfs_basis(1).signature == (1, 1, 1)
    assert dfs_basis(2).signature == (1, -1, -1)
    assert dfs_basis(3).signature == (-1, 1, -1)
    assert dfs_basis(4).signature == (-1, -1, 1)
    for i in (1, 2, 3, 4):
        s1, s2, s3 = dfs_basis(i).signature
        assert s3 == s1 * s2


def test_sixteen_vectors_form_orthonormal_basis():
    stacked = np.hstack([dfs_basis(i).vectors for i in (1, 2, 3, 4)])
    np.testing.assert_allclose(
        stacked.conj().T @ stacked, np.eye(16), atol=1e-12
    )
    assert dfs.gram_defect() < 1e-12


def test_error_operators_act_as_scalars_on_each_subspace():
    rng = np.random.default_rng(17)
    mats = [pauli_matrix(p) for p in dfs.ERROR_BASIS]
    for _ in range(100):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        op = sum(c * m for c, m in zip(a, mats))
        psi = random_state(rng)
        for i in (1, 2, 3, 4):
            basis = dfs_basis(i)
            s1, s2, s3 = basis.signature
            scalar = a[0] + a[1] * s1 + a[2] * s2 + a[3] * s3
            vec = basis.vectors @ psi
            assert np.linalg.norm(op @ vec - scalar * vec) < 1e-12


def test_encode_00_matches_quarter_diagonal():
    rho = encode(np.array([1, 0, 0, 0], dtype=complex))
    expected = np.zeros((16, 16), dtype=complex)
    for idx in (0, 12, 3, 15):
        expected[idx, idx] = 0.25
    np.testing.assert_allclose(rho, expected, atol=1e-14)
    # equivalently (IIII + ZZII + IIZZ + ZZZZ) / 16
    pauli_form = sum(
        pauli_matrix(PauliString(w)) for w in ("IIII", "ZZII", "IIZZ", "ZZZZ")
    ) / 16
    np.testing.assert_allclose(rho, pauli_form, atol=1e-14)


def test_encode_11_matches_quarter_diagonal():
    # cross terms between subspaces cancel, leaving the |11> orbit kets
    rho = encode(np.array([0, 0, 0, 1], dtype=complex))
    expected = np.zeros((16, 16), dtype=complex)
    for idx in (9, 5, 10, 6):
        expected[idx, idx] = 0.25
    np.testing.assert_allclose(rho, expected, atol=1e-14)


def test_encode_validates_inputs():
    with pytest.raises(ValueError):
        encode(np.array([1, 1, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        encode(np.array([1, 0, 0, 0], dtype=complex), weights=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        encode(np.array([1, 0, 0, 0], dtype=complex), weights=(-0.5, 0.5, 0.5, 0.5))


def test_decode_inverts_encode():
    rng = np.random.default_rng(23)
    np.testing.assert_allclose(
        decode(encode(np.array([1, 0, 0, 0], dtype=complex))),
        np.diag([1.0, 0, 0, 0]).astype(complex),
        atol=1e-12,
    )
    for _ in range(20):
        psi = random_state(rng)
        np.testing.assert_allclose(
            decode(encode(psi)), np.outer(psi, psi.conj()), atol=1e-12
        )


def test_decode_of_maximally_mixed_state():
    np.testing.assert_allclose(
        decode(np.eye(16, dtype=complex) / 16), np.eye(4) / 4, atol=1e-12
    )


def test_channel_fixed_point_on_encoded_states():
    rng = np.random.default_rng(29)
    for _ in range(10):
        rho = encode(random_state(rng))
        for e in (0.0, 0.1, 0.25, 0.5):
            out = noise.apply_channel(rho, noise.engineered_model(e))
            assert qcore.frobenius_norm(out - rho) < 1e-12


def test_decode_invariant_under_channel_any_weights():
    rng = np.random.default_rng(31)
    for e in (0.05, 0.3, 0.5):
        psi = random_state(rng)
        w = rng.random(4)
        w /= w.sum()
        rho = encode(psi, weights=tuple(w))
        out = noise.apply_channel(rho, noise.engineered_model(e))
        np.testing.assert_allclose(decode(out), decode(rho), atol=1e-12)


def test_general_error_model_only_reweights_subspaces():
    # a complete paired-flip error model maps encode(psi, w) to encode(psi, w')
    rng = np.random.default_rng(37)
    mats = [pauli_matrix(p) for p in dfs.ERROR_BASIS]
    chi = np.array([[1, *dfs_basis(i).signature] for i in (1, 2, 3, 4)], dtype=float)
    for _ in range(10):
        eig = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        eig /= np.linalg.norm(eig, axis=0, keepdims=True)  # completeness
        coeffs = eig @ chi / 4
        ops = tuple(sum(c * m for c, m in zip(row, mats)) for row in coeffs)
        spec = noise.ErrorModelSpec(coefficients=coeffs)
        np.testing.assert_allclose(spec.operators, ops, atol=1e-15)
        assert spec.completeness_defect < 1e-12

        psi = random_state(rng)
        w = rng.random(4)
        w /= w.sum()
        rho = encode(psi, weights=tuple(w))
        out = noise.apply_channel(rho, spec)

        # the mixture weight of out along |psi>_i, for each subspace i
        vecs = [basis @ psi for basis in dfs.all_isometries()]
        w_prime = np.array([np.real(v.conj() @ out @ v) for v in vecs])
        assert w_prime.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out, encode(psi, weights=tuple(w_prime)), atol=1e-12)
        np.testing.assert_allclose(decode(out), np.outer(psi, psi.conj()), atol=1e-12)


def test_lift_identity_and_homomorphism():
    rng = np.random.default_rng(41)
    np.testing.assert_allclose(
        lift_logical_unitary(np.eye(4)), np.eye(16), atol=1e-12
    )
    for _ in range(10):
        u, v = random_unitary(rng), random_unitary(rng)
        np.testing.assert_allclose(
            lift_logical_unitary(u) @ lift_logical_unitary(v),
            lift_logical_unitary(u @ v),
            atol=1e-12,
        )


def test_lift_is_unitary_and_commutes_with_structure():
    rng = np.random.default_rng(43)
    for _ in range(5):
        lifted = lift_logical_unitary(random_unitary(rng))
        assert qcore.is_unitary(lifted)
        for flip in dfs.ERROR_MATRICES[1:]:
            np.testing.assert_allclose(lifted @ flip, flip @ lifted, atol=1e-12)
        for i in (1, 2, 3, 4):
            v = dfs_basis(i).vectors
            proj = v @ v.conj().T
            np.testing.assert_allclose(lifted @ proj, proj @ lifted, atol=1e-12)


def test_lift_rejects_nonunitary():
    with pytest.raises(ValueError):
        lift_logical_unitary(np.ones((4, 4)))
    with pytest.raises(ValueError):
        lift_logical_unitary(np.eye(16))


def test_lift_consistent_with_encode():
    rng = np.random.default_rng(47)
    for _ in range(10):
        psi = random_state(rng)
        u = random_unitary(rng)
        np.testing.assert_allclose(
            encode(u @ psi),
            lift_logical_unitary(u) @ encode(psi) @ lift_logical_unitary(u).conj().T,
            atol=1e-12,
        )


def test_lift_xx_maps_encoded_00_to_encoded_11():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    lifted = lift_logical_unitary(np.kron(x, x))
    out = lifted @ encode(np.array([1, 0, 0, 0], dtype=complex)) @ lifted.conj().T
    np.testing.assert_allclose(
        out, encode(np.array([0, 0, 0, 1], dtype=complex)), atol=1e-12
    )
