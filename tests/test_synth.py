import numpy as np
import pytest

from lieflow.dynamics import PairDataset
from lieflow.gaussian import NumericError
from lieflow.liealg import GeneratorBasis, apply_exact, combine, matrix_exp
from lieflow.synth import (
    SequenceSpec,
    generate_image_pairs,
    generate_latent_pairs,
    principal_angles,
    subspace_angle,
    true_generator,
)


class TestTrueGenerator:
    def test_rotation_generates_planar_rotations(self):
        basis = true_generator(SequenceSpec(group_kind="rotation2d"))
        # unit-Frobenius convention: the raw rotation generator has norm sqrt(2)
        theta = 0.7
        rot = matrix_exp(np.sqrt(2.0) * theta * basis.generators[0])
        expected = np.array([[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]])
        assert np.allclose(rot, expected, atol=1e-12)

    def test_contrast_generates_scalings(self):
        d = 3
        basis = true_generator(SequenceSpec(group_kind="contrast", latent_dim=d))
        lam = np.sqrt(d) * np.log(2.0)  # one full doubling in the unit convention
        assert np.allclose(matrix_exp(combine(basis, [lam])), 2.0 * np.eye(d),
                           atol=1e-10)

    def test_cyclic_shift_full_step_is_permutation(self):
        # odd length: the one-step cyclic permutation is even, its real
        # logarithm exists and exp(step * G) hits it exactly
        n = 5
        basis = true_generator(SequenceSpec(group_kind="cyclic_shift",
                                            latent_dim=n, width=n))
        from lieflow.synth import _cyclic_shift_generator
        step = np.linalg.norm(_cyclic_shift_generator(n))
        perm = np.roll(np.eye(n), 1, axis=0)
        assert np.allclose(matrix_exp(combine(basis, [step])), perm, atol=1e-6)

    def test_generators_have_unit_frobenius_norm(self):
        for kind, d in [("rotation2d", 2), ("cyclic_shift", 5),
                        ("contrast", 4), ("latent_random", 3)]:
            basis = true_generator(SequenceSpec(group_kind=kind, latent_dim=d,
                                                generator_count=2, width=d))
            norms = np.linalg.norm(basis.generators.reshape(basis.count, -1),
                                   axis=1)
            assert np.allclose(norms, 1.0, atol=1e-12)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            true_generator(SequenceSpec(group_kind="rotation2d", latent_dim=3))


class TestGenerateLatentPairs:
    def test_tiny_scale_no_noise_keeps_frames(self):
        spec = SequenceSpec(lambda_scale=1e-12, noise_std=0.0, pair_count=20,
                            seed=1)
        data, _ = generate_latent_pairs(spec)
        assert np.allclose(data.x_i, data.x_next, atol=1e-10)

    def test_first_order_close_to_exact(self):
        scale = 1e-3
        exact, t_exact = generate_latent_pairs(SequenceSpec(
            lambda_scale=scale, pair_count=50, seed=2))
        approx, _ = generate_latent_pairs(SequenceSpec(
            lambda_scale=scale, pair_count=50, seed=2, first_order=True))
        assert np.array_equal(exact.x_i, approx.x_i)
        for k in range(50):
            gap = np.linalg.norm(exact.x_next[k] - approx.x_next[k])
            lam = np.linalg.norm(t_exact.lambdas[k])
            assert gap < 10.0 * lam ** 2 * np.linalg.norm(exact.x_i[k]) + 1e-15

    def test_reproducible(self):
        spec = SequenceSpec(pair_count=40, seed=3, noise_std=0.01)
        a, _ = generate_latent_pairs(spec)
        b, _ = generate_latent_pairs(spec)
        assert np.array_equal(a.x_i, b.x_i)
        assert np.array_equal(a.x_next, b.x_next)

    def test_model_residual_bound(self):
        scale = 1e-2
        spec = SequenceSpec(lambda_scale=scale, noise_std=0.0, pair_count=60,
                            seed=4)
        data, truth = generate_latent_pairs(spec)
        from lieflow.liealg import assemble_A
        for k in range(60):
            a = assemble_A(truth.basis, data.x_i[k])
            resid = np.linalg.norm(data.x_next[k] - data.x_i[k]
                                   - a @ truth.lambdas[k])
            bound = 10.0 * np.linalg.norm(truth.lambdas[k]) ** 2 \
                * np.linalg.norm(data.x_i[k])
            assert resid <= bound + 1e-15


class TestGenerateImagePairs:
    def test_orthonormal_loading_inverts(self):
        spec = SequenceSpec(group_kind="rotation2d", noise_std=0.0,
                            pair_count=25, seed=5, height=4, width=4)
        data, truth = generate_image_pairs(spec, embedding="linear")
        rec = data.x_i @ truth.loading
        assert np.allclose(rec, truth.z_i, atol=1e-12)

    def test_raster_integer_step_is_exact_roll(self):
        n = 12
        spec = SequenceSpec(group_kind="cyclic_shift", latent_dim=n,
                            height=1, width=n, pair_count=5, seed=6,
                            noise_std=0.0)
        data, truth = generate_image_pairs(spec, embedding="raster")
        from lieflow.synth import _cyclic_shift_generator
        step = np.linalg.norm(_cyclic_shift_generator(n))
        shifted = apply_exact(truth.basis, [step], data.x_i[0])
        assert np.allclose(shifted, np.roll(data.x_i[0], 1), atol=1e-9)

    def test_pooled_frames_have_dominant_rank(self):
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.01, pair_count=200, seed=7,
                            height=4, width=4)
        data, _ = generate_image_pairs(spec, embedding="linear")
        stacked = np.vstack([data.x_i, data.x_next])
        svals = np.linalg.svd(stacked - stacked.mean(axis=0),
                              compute_uv=False)
        assert svals[1] / svals[2] > 10.0

    def test_reproducible(self):
        spec = SequenceSpec(group_kind="rotation2d", pair_count=10, seed=8,
                            noise_std=0.02, height=3, width=3)
        a, _ = generate_image_pairs(spec)
        b, _ = generate_image_pairs(spec)
        assert np.array_equal(a.x_i, b.x_i)
        assert np.array_equal(a.x_next, b.x_next)

    def test_frames_are_one_stack_viewed_by_both_frames(self):
        x_i = np.arange(6.0).reshape(3, 2)
        x_next = 10.0 - x_i
        data = PairDataset(x_i, x_next)
        assert data.frames.shape == (2, 3, 2)
        assert np.shares_memory(data.x_i, data.frames)
        assert np.shares_memory(data.x_next, data.frames)
        assert np.array_equal(data.x_i, x_i)
        assert np.array_equal(data.x_next, x_next)
        # the image generator returns the same one-stack dataset
        spec = SequenceSpec(group_kind="rotation2d", pair_count=4, seed=8,
                            height=3, width=3)
        generated, _ = generate_image_pairs(spec)
        assert generated.frames.shape == (2, 4, 9)
        assert np.shares_memory(generated.x_i, generated.frames)
        assert np.shares_memory(generated.x_next, generated.frames)


class TestSubspaceAngle:
    def test_identical_bases(self):
        basis = true_generator(SequenceSpec(group_kind="latent_random",
                                            latent_dim=3, generator_count=2,
                                            seed=9))
        assert subspace_angle(basis, basis) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_generators(self):
        a = GeneratorBasis(np.array([[[1.0, 0.0], [0.0, 0.0]]]))
        b = GeneratorBasis(np.array([[[0.0, 1.0], [0.0, 0.0]]]))
        assert subspace_angle(a, b) == pytest.approx(np.pi / 2)

    def test_invariant_to_rotation_within_span(self):
        basis = true_generator(SequenceSpec(group_kind="latent_random",
                                            latent_dim=3, generator_count=2,
                                            seed=10))
        theta = 0.9
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        mixed = GeneratorBasis(np.einsum("jk,kab->jab", rot, basis.generators))
        assert subspace_angle(mixed, basis) < 1e-10

    def test_symmetric(self):
        a = true_generator(SequenceSpec(group_kind="latent_random",
                                        latent_dim=3, generator_count=2,
                                        seed=11))
        b = true_generator(SequenceSpec(group_kind="latent_random",
                                        latent_dim=3, generator_count=2,
                                        seed=12))
        assert subspace_angle(a, b) == pytest.approx(subspace_angle(b, a),
                                                     abs=1e-10)

    def test_rejects_zero_basis(self):
        zero = GeneratorBasis.__new__(GeneratorBasis)
        object.__setattr__(zero, "generators", np.zeros((1, 2, 2)))
        good = true_generator(SequenceSpec())
        with pytest.raises(NumericError):
            subspace_angle(zero, good)

    def test_principal_angles_are_sorted(self):
        a = true_generator(SequenceSpec(group_kind="latent_random",
                                        latent_dim=4, generator_count=3,
                                        seed=13))
        b = true_generator(SequenceSpec(group_kind="latent_random",
                                        latent_dim=4, generator_count=3,
                                        seed=14))
        angles = principal_angles(a, b)
        assert np.all(np.diff(angles) >= -1e-12)
