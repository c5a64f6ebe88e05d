import numpy as np
import pytest

from lieflow import rng


def test_streams_are_reproducible():
    a = rng.normals(7, (3, 1), 100)
    b = rng.normals(7, (3, 1), 100)
    assert np.array_equal(a, b)


def test_distinct_paths_give_distinct_streams():
    a = rng.normals(7, (0,), 64)
    b = rng.normals(7, (1,), 64)
    c = rng.normals(8, (0,), 64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_in_unit_interval():
    u = rng.uniforms(11, (), 10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_match_moments():
    z = rng.normals(5, (2,), 200_000)
    assert abs(z.mean()) < 3.0 / np.sqrt(z.size)
    assert abs(z.std() - 1.0) < 0.01


def test_orthonormal_columns():
    q = rng.orthonormal_columns(3, (), 10, 4)
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)
    q2 = rng.orthonormal_columns(3, (), 10, 4)
    assert np.array_equal(q, q2)


def test_permutation_is_a_permutation():
    p = rng.permutation(9, (4,), 257)
    assert np.array_equal(np.sort(p), np.arange(257))


@pytest.mark.parametrize("seed, path", [(-1, ()), (2 ** 64, ()), (0, (-1,))])
def test_out_of_range_seed_or_path_word_is_a_value_error(seed, path):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        rng.normals(seed, path, 4)
