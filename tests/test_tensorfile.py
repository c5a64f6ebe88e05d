import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieflow import rng
from lieflow.tensorfile import TensorFormatError, read_tensors, write_tensors


def test_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "data.lf"
    arrays = {
        "z_i": rng.normal_matrix(1, (0,), (7, 3)),
        "scalar": np.float64(np.pi),
        "cube": rng.normal_matrix(1, (1,), (2, 3, 4)),
    }
    write_tensors(path, arrays)
    back = read_tensors(path)
    assert list(back) == list(arrays)
    for name in arrays:
        assert np.array_equal(np.asarray(arrays[name]), back[name])
        assert np.asarray(arrays[name]).tobytes() == back[name].tobytes()


def test_rewrite_is_byte_identical(tmp_path):
    arrays = {"a": rng.normal_matrix(2, (0,), (5, 2))}
    p1, p2 = tmp_path / "one.lf", tmp_path / "two.lf"
    write_tensors(p1, arrays)
    write_tensors(p2, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.lf"
    path.write_bytes(b"NOTMAGIC\nend\n")
    with pytest.raises(TensorFormatError):
        read_tensors(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "data.lf"
    write_tensors(path, {"a": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(TensorFormatError):
        read_tensors(path)


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "data.lf"
    write_tensors(path, {"a": np.ones(3)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(TensorFormatError):
        read_tensors(path)


def test_rejects_missing_terminator(tmp_path):
    path = tmp_path / "bad.lf"
    path.write_bytes(b"LIEFLOW1\ndtype f64\n")
    with pytest.raises(TensorFormatError):
        read_tensors(path)


def test_rejects_duplicate_array_names(tmp_path):
    path = tmp_path / "dup.lf"
    path.write_bytes(b"LIEFLOW1\ndtype f64\nendian little\norder row-major\n"
                     b"arrays 2\na 0\na 0\nend\n" + bytes(16))
    with pytest.raises(TensorFormatError, match="duplicate"):
        read_tensors(path)


def test_rejects_empty_array_with_oversized_dimension(tmp_path):
    path = tmp_path / "huge.lf"
    path.write_bytes(b"LIEFLOW1\ndtype f64\nendian little\norder row-major\n"
                     b"arrays 1\na 2 0 99999999999999999999\nend\n")
    with pytest.raises(TensorFormatError):
        read_tensors(path)


def test_rejects_bad_array_name():
    with pytest.raises(ValueError):
        write_tensors("/tmp/never-written.lf", {"bad name": np.ones(1)})


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(0, 3).flatmap(
            lambda nd: st.tuples(*([st.integers(1, 4)] * nd))),
        st.integers(0, 2 ** 31)),
    min_size=1, max_size=4))
def test_round_trip_random_shapes(tmp_path_factory, shapes_and_seeds):
    path = tmp_path_factory.mktemp("tf") / "data.lf"
    arrays = {}
    for k, (shape, seed) in enumerate(shapes_and_seeds):
        arrays[f"arr{k}"] = rng.normal_matrix(seed, (k,), shape) \
            if shape else np.float64(seed)
    write_tensors(path, arrays)
    back = read_tensors(path)
    for name in arrays:
        assert np.array_equal(np.asarray(arrays[name]), back[name])



def _duplicate_table_line(blob: bytes, index: int, raise_count: bool) -> bytes:
    lines = blob.split(b"\n")
    count = int(lines[4].split()[1])
    k = 5 + index % count
    lines.insert(k, lines[k])
    if raise_count:             # the table then lists one name twice
        lines[4] = b"arrays %d" % (count + 1)
    return b"\n".join(lines)


def _mutate(blob: bytes, kind: str, at: int, data: bytes) -> bytes:
    """A byte flip, truncation or insertion at relative position ``at``."""
    pos = at % (len(blob) + 1)
    if kind == "flip" and pos < len(blob):
        return blob[:pos] + bytes([blob[pos] ^ (data[0] | 1)]) + blob[pos + 1:]
    if kind == "truncate":
        return blob[:pos]
    return blob[:pos] + data + blob[pos:]


@settings(max_examples=200, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 3), max_size=3),
                       min_size=1, max_size=3),
       duplicate=st.none() | st.tuples(st.integers(0, 3), st.booleans()),
       mutations=st.lists(
           st.tuples(st.sampled_from(["flip", "truncate", "insert"]),
                     st.integers(0, 2 ** 16), st.binary(min_size=1, max_size=8)),
           max_size=3))
def test_corrupted_file_raises_only_format_error(tmp_path_factory, shapes,
                                                 duplicate, mutations):
    path = tmp_path_factory.mktemp("tf") / "data.lf"
    write_tensors(path, {f"a{k}": np.full(shape, 0.5 + k)
                         for k, shape in enumerate(shapes)})
    blob = path.read_bytes()
    if duplicate is not None:
        blob = _duplicate_table_line(blob, *duplicate)
    for mutation in mutations:
        blob = _mutate(blob, *mutation)
    path.write_bytes(blob)
    try:
        back = read_tensors(path)
    except TensorFormatError:
        return
    assert all(isinstance(v, np.ndarray) for v in back.values())
