import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieflow import liealg, rng
from lieflow.gaussian import NumericError
from lieflow.liealg import (
    GeneratorBasis,
    apply_exact,
    apply_first_order,
    assemble_A,
    block_flatten,
    block_unflatten,
    combine,
    matrix_exp,
    orthogonalize,
)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def taylor_exp(m, terms=60):
    """Raw power-series oracle, independent of the scaling-and-squaring path."""
    acc = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    return acc


class TestMatrixExp:
    def test_exp_zero_is_identity(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_quarter_turn(self):
        assert np.allclose(matrix_exp((np.pi / 2) * ROT), ROT, atol=1e-12)

    def test_diagonal(self):
        out = matrix_exp(np.diag([0.3, -1.2]))
        assert np.allclose(out, np.diag(np.exp([0.3, -1.2])), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_taylor_oracle(self, seed):
        m = rng.normal_matrix(seed, (0,), (4, 4))
        m *= 2.0 / np.linalg.norm(m)
        assert np.allclose(matrix_exp(m), taylor_exp(m), atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_exp(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("m", [
        np.array([[0.0, -1e200], [1e200, 0.0]]),  # the norm overflows
        1000.0 * np.eye(2),                       # the result overflows
        np.stack([np.eye(2), 1000.0 * np.eye(2)]),
    ])
    def test_overflow_is_numeric_error_without_warnings(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="overflows"):
                matrix_exp(m)

    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_property(self, seed):
        m = rng.normal_matrix(10 + seed, (0,), (3, 3))
        m *= 5.0 / np.linalg.norm(m)
        assert np.allclose(matrix_exp(m) @ matrix_exp(-m), np.eye(3), atol=1e-9)


class TestGroupAction:
    def test_zero_coefficients(self):
        basis = GeneratorBasis(rng.normal_matrix(1, (0,), (2, 3, 3)))
        z = rng.normals(1, (1,), 3)
        assert np.allclose(apply_first_order(basis, np.zeros(2), z), z)
        assert np.allclose(apply_exact(basis, np.zeros(2), z), z)

    def test_identity_generator_scales(self):
        basis = GeneratorBasis(np.eye(3)[None])
        z = np.array([1.0, 2.0, -1.0])
        assert np.allclose(apply_first_order(basis, [0.25], z), 1.25 * z)

    def test_first_order_error_is_second_order(self):
        basis = GeneratorBasis(rng.normal_matrix(2, (0,), (2, 3, 3)))
        z = rng.normals(2, (1,), 3)
        lam = 1e-3 * rng.normals(2, (2,), 2)
        lam /= np.linalg.norm(lam) / 1e-3
        gap = np.linalg.norm(apply_first_order(basis, lam, z)
                             - apply_exact(basis, lam, z))
        bound = 10.0 * np.linalg.norm(lam) ** 2 * np.linalg.norm(z)
        assert gap < bound

    def test_planar_rotation_half_turn(self):
        basis = GeneratorBasis(ROT[None])
        out = apply_exact(basis, [np.pi], [1.0, 0.0])
        assert np.allclose(out, [-1.0, 0.0], atol=1e-12)

    def test_one_parameter_subgroup_composes(self):
        basis = GeneratorBasis(rng.normal_matrix(3, (0,), (1, 3, 3)))
        z = rng.normals(3, (1,), 3)
        via_two = apply_exact(basis, [0.7], apply_exact(basis, [0.4], z))
        direct = apply_exact(basis, [1.1], z)
        assert np.allclose(via_two, direct, atol=1e-9)


class TestAssembleA:
    def test_single_identity_generator(self):
        basis = GeneratorBasis(np.eye(3)[None])
        z = np.array([1.0, -2.0, 0.5])
        assert np.allclose(assemble_A(basis, z), z[:, None])

    def test_zero_vector(self):
        basis = GeneratorBasis(rng.normal_matrix(4, (0,), (3, 2, 2)))
        assert np.array_equal(assemble_A(basis, np.zeros(2)), np.zeros((2, 3)))

    def test_action_identity_on_random_coefficients(self):
        basis = GeneratorBasis(rng.normal_matrix(5, (0,), (3, 4, 4)))
        z = rng.normals(5, (1,), 4)
        a = assemble_A(basis, z)
        for k in range(100):
            lam = rng.normals(5, (2, k), 3)
            direct = np.einsum("j,jab,b->a", lam, basis.generators, z)
            assert np.allclose(a @ lam, direct, atol=1e-12)


class TestBlockForm:
    def test_single_generator_flatten_is_identity(self):
        g = rng.normal_matrix(6, (0,), (1, 3, 3))
        assert np.array_equal(block_flatten(GeneratorBasis(g)), g[0])

    def test_round_trip(self):
        basis = GeneratorBasis(rng.normal_matrix(7, (0,), (3, 4, 4)))
        back = block_unflatten(block_flatten(basis), 4, 3)
        assert np.array_equal(back.generators, basis.generators)

    def test_kronecker_identity(self):
        basis = GeneratorBasis(rng.normal_matrix(8, (0,), (2, 3, 3)))
        flat = block_flatten(basis)
        z = rng.normals(8, (1,), 3)
        lam = rng.normals(8, (2,), 2)
        lhs = flat @ np.kron(z, lam)
        assert np.allclose(lhs, assemble_A(basis, z) @ lam, atol=1e-12)

    def test_three_way_consistency(self):
        basis = GeneratorBasis(rng.normal_matrix(9, (0,), (2, 3, 3)))
        z = rng.normals(9, (1,), 3)
        lam = rng.normals(9, (2,), 2)
        via_flat = block_flatten(basis) @ np.kron(z, lam)
        via_a = assemble_A(basis, z) @ lam
        via_first_order = apply_first_order(basis, lam, z) - z
        assert np.allclose(via_flat, via_a, atol=1e-12)
        assert np.allclose(via_a, via_first_order, atol=1e-12)

    def test_unflatten_shape_check(self):
        with pytest.raises(ValueError):
            block_unflatten(np.zeros((2, 5)), 2, 2)


class TestOrthogonalize:
    def test_orthonormal_basis_kept(self):
        g = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        out = orthogonalize(GeneratorBasis(g))[0]
        assert out.count == 2
        flat_in = g.reshape(2, -1)
        flat_out = out.generators.reshape(2, -1)
        # same span
        proj = flat_in.T @ flat_in
        assert np.allclose(flat_out @ proj, flat_out, atol=1e-12)

    def test_duplicate_collapses(self):
        g = rng.normal_matrix(10, (0,), (2, 2))
        out = orthogonalize(GeneratorBasis(np.stack([g, g])))[0]
        assert out.count == 1
        direction = out.generators[0].ravel()
        assert abs(abs(direction @ g.ravel()) - np.linalg.norm(g)) < 1e-10

    def test_rank_deficient_triple(self):
        a = rng.normal_matrix(11, (0,), (3, 3))
        b = rng.normal_matrix(11, (1,), (3, 3))
        c = 0.5 * a - 2.0 * b
        out = orthogonalize(GeneratorBasis(np.stack([a, b, c])))[0]
        assert out.count == 2
        flat_in = np.stack([a, b]).reshape(2, -1)
        q_in, _ = np.linalg.qr(flat_in.T)
        flat_out = out.generators.reshape(2, -1)
        residual = flat_out.T - q_in @ (q_in.T @ flat_out.T)
        assert np.linalg.norm(residual) < 1e-8

    def test_output_is_frobenius_orthonormal(self):
        basis = GeneratorBasis(rng.normal_matrix(12, (0,), (4, 3, 3)))
        out, _ = orthogonalize(basis)
        flat = out.generators.reshape(out.count, -1)
        assert np.allclose(flat @ flat.T, np.eye(out.count), atol=1e-8)

    @pytest.mark.parametrize("scale", [0.5, 0.9, 1.0])
    def test_idempotent(self, scale):
        # the PCA directions and their variance shares do not depend on a
        # positive rescaling of the input, so neither does the output
        gens = rng.normal_matrix(13, (0,), (3, 3, 3))
        once, _ = orthogonalize(GeneratorBasis(scale * gens))
        unscaled, _ = orthogonalize(GeneratorBasis(gens))
        assert np.allclose(once.generators, unscaled.generators, atol=1e-10)
        twice, _ = orthogonalize(once)
        assert twice.count == once.count
        for g1, g2 in zip(once.generators, twice.generators):
            assert min(np.abs(g1 - g2).max(), np.abs(g1 + g2).max()) < 1e-10

    def test_never_increases_count(self):
        basis = GeneratorBasis(rng.normal_matrix(14, (0,), (3, 2, 2)))
        assert orthogonalize(basis)[0].count <= basis.count

    def test_rejects_zero_basis(self):
        with pytest.raises(NumericError):
            orthogonalize(GeneratorBasis(np.zeros((2, 2, 2))))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
       j=st.integers(1, 4),
       case=st.sampled_from(["random", "collinear", "orthonormal"]))
@example(seed=3, d=2, j=3, case="collinear")
@example(seed=4, d=2, j=2, case="orthonormal")
def test_orthogonalize_coefficient_map_gives_the_new_generators(seed, d, j, case):
    # G'_k = sum_j T_kj G_j, entry by entry within 1e-12 of the magnitude
    # bound |T| |G| of the product
    gens = rng.normal_matrix(seed, (0,), (j, d, d))
    orthonormal = case == "orthonormal" and j <= d * d
    if case == "collinear" and j > 1:
        gens[-1] = -0.7 * gens[0]  # one generator is dropped
    elif orthonormal:
        q, _ = np.linalg.qr(rng.normal_matrix(seed, (1,), (d * d, d * d)))
        rows = q[:j].copy()
        lead = rows[-1][np.abs(rows[-1]) > 1e-12 * np.abs(rows[-1]).max()][0]
        rows[-1] *= -np.sign(lead)  # the sign convention flips it back
        # above (j - 1) / j every orthonormal generator is kept as it is
        gens = rows.reshape(j, d, d)
    new, coeff_map = orthogonalize(GeneratorBasis(gens))
    flat = gens.reshape(j, d * d)
    assert coeff_map.shape == (new.count, j)
    if orthonormal:
        assert np.array_equal(np.abs(coeff_map), np.eye(j))
        assert coeff_map[-1, -1] == -1.0
    elif case == "collinear" and j > 1:
        assert new.count < j
    error = np.abs(coeff_map @ flat - new.generators.reshape(new.count, -1))
    assert np.all(error <= 1e-12 * (np.abs(coeff_map) @ np.abs(flat)))


def test_generator_derivative_at_identity():
    # d/dt exp(tG) z at t=0 equals Gz (central finite difference)
    g = rng.normal_matrix(15, (0,), (3, 3))
    basis = GeneratorBasis(g[None])
    z = rng.normals(15, (1,), 3)
    h = 1e-5
    fd = (apply_exact(basis, [h], z) - apply_exact(basis, [-h], z)) / (2 * h)
    exact = g @ z
    assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) < 1e-6


def test_combine_matches_sum():
    basis = GeneratorBasis(rng.normal_matrix(16, (0,), (3, 2, 2)))
    lam = rng.normals(16, (1,), 3)
    manual = sum(l * g for l, g in zip(lam, basis.generators))
    assert np.allclose(combine(basis, lam), manual, atol=1e-15)


def assert_stack_equals_per_item_loop(basis, lam, z, items=slice(None)):
    """Every stacked output equals lone calls, item for item; of a long
    stack, only the rows ``items`` are compared."""
    stacked = {
        "matrix_exp": matrix_exp(combine(basis, lam)),
        "combine": combine(basis, lam),
        "assemble_A": assemble_A(basis, z),
        "apply_first_order": apply_first_order(basis, lam, z),
        "apply_exact": apply_exact(basis, lam, z),
    }
    lam, z = lam[items], z[items]
    looped = {
        "matrix_exp": [matrix_exp(combine(basis, l)) for l in lam],
        "combine": [combine(basis, l) for l in lam],
        "assemble_A": [assemble_A(basis, v) for v in z],
        "apply_first_order": [apply_first_order(basis, l, v) for l, v in zip(lam, z)],
        "apply_exact": [apply_exact(basis, l, v) for l, v in zip(lam, z)],
    }
    for name, out in stacked.items():
        out = out[items]
        expected = np.array(looped[name]).reshape(out.shape)
        assert np.array_equal(out, expected), name


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 5), d=st.integers(1, 5), j=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31 - 1), top=st.floats(-1.0, 1.5))
def test_stacked_action_equals_per_item_loop(n, d, j, seed, top):
    # coefficient norms span up to ~10^top * sqrt(J): from no squaring to
    # several, with a different squaring count per item of one stack
    basis = GeneratorBasis(rng.normal_matrix(seed, (0,), (j, d, d)))
    scales = 10.0 ** (top - 4.0 * rng.uniforms(seed, (1,), n))
    lam = scales[:, None] * rng.normal_matrix(seed, (2,), (n, j))
    z = rng.normal_matrix(seed, (3,), (n, d))
    assert_stack_equals_per_item_loop(basis, lam, z)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), d=st.integers(1, 4), j=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31 - 1), column_major=st.booleans())
def test_stacked_action_ignores_the_memory_order(n, d, j, seed, column_major):
    # a column-major (n, J) or (n, d) stack, as an elementwise product
    # over a strided view can return, gives each item the bits of a lone
    # call, like a row-major one
    basis = GeneratorBasis(rng.normal_matrix(seed, (0,), (j, d, d)))
    order = "F" if column_major else "C"
    assert_stack_equals_per_item_loop(
        basis, np.asarray(rng.normal_matrix(seed, (1,), (n, j)), order=order),
        np.asarray(rng.normal_matrix(seed, (2,), (n, d)), order=order))


def _block_size(d):
    """Matrices per ``apply_exact`` block at latent dimension d."""
    return max(1, liealg._EXP_BLOCK_BYTES // (8 * d * d))


def _two_blocks_and_a_tail(d, seed):
    """A basis and ``2 B + 5`` items (B the block size at d): every third
    item needs squarings, the rest do not, and item 7 of each full block
    has a series that stops a few terms before its neighbours', so the
    series' masked add runs in every block."""
    block = _block_size(d)
    n = 2 * block + 5
    basis = GeneratorBasis(rng.normal_matrix(seed, (0,), (2, d, d)))
    lam = rng.normal_matrix(seed, (1,), (n, 2))
    norms = np.linalg.norm(combine(basis, lam), axis=(1, 2))
    scales = np.where(np.arange(n) % 3 == 0, 3.0, 0.45) / norms
    scales[7::block] = 0.05 / norms[7::block]
    return basis, scales[:, None] * lam, rng.normal_matrix(seed, (2,), (n, d))


@pytest.mark.parametrize("d", [6, 2])
def test_stacked_action_across_exponential_blocks(d):
    # apply_exact exponentiates in blocks; items on either side of a
    # block boundary and in the ragged tail keep the bits of a lone call.
    # At d = 2 (8192 matrices a block) every item would take ~10 s of
    # lone calls, so there the 32 items on each side of every boundary
    # are compared: they hold the early-stopping item of each block and
    # items with and without squarings
    basis, lam, z = _two_blocks_and_a_tail(d, 40 + d)
    block = _block_size(d)
    items = slice(None) if d == 6 else np.r_[0:32, block - 32:block + 32,
                                            2 * block - 32:len(lam)]
    assert_stack_equals_per_item_loop(basis, lam, z, items)


@pytest.mark.parametrize("d", [6, 2])
def test_apply_exact_hands_matrix_exp_at_most_one_block(d, monkeypatch):
    basis, lam, z = _two_blocks_and_a_tail(d, 50 + d)
    sizes = []

    def spy(m):
        sizes.append(len(m))
        return matrix_exp(m)

    monkeypatch.setattr(liealg, "matrix_exp", spy)
    apply_exact(basis, lam, z)
    assert sizes == [_block_size(d), _block_size(d), 5]
