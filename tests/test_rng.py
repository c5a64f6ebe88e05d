import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_ZEROS = np.zeros((2, 1), dtype=np.uint64)


@pytest.mark.parametrize("seed, paths", [
    (-1, _ZEROS),
    (2 ** 64, _ZEROS),
    (0, np.array([[3], [-1]])),  # int64: a cast to uint64 would wrap it
    (0, np.array([[2 ** 64]], dtype=object)),
    (0, np.array([[-1]], dtype=object)),
])
def test_out_of_range_seed_or_word_in_a_stack_is_a_value_error(seed, paths):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        rng.normals(seed, paths, 4)


@pytest.mark.parametrize("path", [(0, 0, 0, 0), np.zeros((2, 4), dtype=np.uint64)])
def test_path_longer_than_3_words_is_a_value_error(path):
    with pytest.raises(ValueError, match="3 words"):
        rng.normals(0, path, 4)


_WORD = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=150, deadline=None)
@given(seed=_WORD, width=st.integers(0, 3), count=st.integers(1, 50),
       n=st.integers(1, 13), data=st.data())
def test_stacked_rows_equal_lone_path_streams(seed, width, count, n, data):
    paths = data.draw(st.lists(st.lists(_WORD, min_size=width, max_size=width),
                               min_size=count, max_size=count))
    stack = np.array(paths, dtype=np.uint64).reshape(count, width)
    for draw in (rng.uniforms, rng.normals):
        rows = draw(seed, stack, n)
        assert rows.shape == (count, n)
        for row, path in zip(rows, paths):
            assert np.array_equal(row, draw(seed, tuple(path), n))
    # the raw words follow the documented counter layout [b + 1, *path]
    raw = rng.uniforms(seed, stack, n)[0] / 2.0 ** -53
    counter = np.zeros(4, dtype=np.uint64)
    counter[1:1 + width] = paths[0]
    bits = np.random.Philox(key=np.uint64(seed), counter=counter)
    assert np.array_equal(raw, (bits.random_raw(n) >> np.uint64(11)).astype(float))


# Known answers at seed 11 for the paths (3, 1) and (2**64 - 5, 0), drawn
# lone (np.random.Philox) and as one stack (the numpy cipher): n covers
# odd and even Box-Muller lengths, and an empty draw.
_KNOWN_PATHS = [(3, 1), (2 ** 64 - 5, 0)]
_KNOWN_UNIFORMS = [  # n = 8; a shorter draw is a prefix
    [0.9807239003591536, 0.8363068118179191, 0.56657593531363,
     0.41508968539965196, 0.7323586888173627, 0.7917429122079379,
     0.3436657747984574, 0.6681366961294971],
    [0.7553050697937194, 0.27020490005567455, 0.7818851173479818,
     0.24021440844736197, 0.03731978686493653, 0.6706585538783756,
     0.5935039632376955, 0.5087167775811144],
]
_KNOWN_NORMALS = {
    0: [[], []],
    1: [[1.4503717586578104], [-0.21244478767171276]],
    2: [[1.4503717586578104, -2.4071145348301153],
        [-0.21244478767171276, 1.664437822959311]],
    3: [[-2.5679868015435146, -1.6381109265938505, -1.1415876703963037],
        [0.3339146932967793, 0.04877055302559636, -1.6443804401375393]],
    7: [[-0.3108662182300058, 0.4932846704785028, -0.7178322840687689,
         -0.5095242126214833, -2.7930522401963636, -1.837441984934587,
         1.0755436504823028],
        [1.632021861808481, -0.37949367544975904, -1.452516784267475,
         -0.7401293976255718, 0.38985984261730394, -0.6971136842634773,
         -0.9672960933127369]],
    8: [[-0.3108662182300058, 0.4932846704785028, -0.7178322840687689,
         -0.5095242126214833, -2.7930522401963636, -1.837441984934587,
         1.0755436504823028, -0.9016532484884785],
        [1.632021861808481, -0.37949367544975904, -1.452516784267475,
         -0.7401293976255718, 0.38985984261730394, -0.6971136842634773,
         -0.9672960933127369, -0.040576822630258594]],
}


@pytest.mark.parametrize("n", sorted(_KNOWN_NORMALS))
def test_streams_match_known_answers(n):
    # the moment and stack-equals-lone tests above would all pass a
    # rewrite that moved the bits of every draw alike; these cannot
    stack = np.array(_KNOWN_PATHS, dtype=np.uint64)
    expected = {rng.uniforms: np.array([row[:n] for row in _KNOWN_UNIFORMS]),
                rng.normals: np.array(_KNOWN_NORMALS[n]).reshape(2, n)}
    for draw, rows in expected.items():
        assert np.array_equal(draw(11, stack, n), rows)
        for path, row in zip(_KNOWN_PATHS, rows):
            assert np.array_equal(draw(11, path, n), row)
