"""Named-array container with a text header and raw float64 payload.

Layout, all header lines ASCII and newline-terminated::

    LIEFLOW1
    dtype f64
    endian little
    order row-major
    arrays <count>
    <name> <ndim> <dim0> <dim1> ...
    ...
    end
    <payload>

The payload is the concatenation of each array's contiguous
little-endian float64 bytes in table order, so every array occupies
exactly ``8 * prod(shape)`` bytes and a write/read round trip is
bit-exact.  Array names are ``[A-Za-z0-9_.]+``; scalars have ``ndim 0``.
"""
from __future__ import annotations

import math
import re

import numpy as np

MAGIC = "LIEFLOW1"
_NAME_RE = re.compile(r"^[A-Za-z0-9_.]+$")


class TensorFormatError(ValueError):
    """Malformed, truncated or wrong-magic tensor file."""


def write_tensors(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays; insertion order becomes payload order."""
    lines = [MAGIC, "dtype f64", "endian little", "order row-major",
             f"arrays {len(arrays)}"]
    payloads = []
    for name, value in arrays.items():
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid array name {name!r}")
        arr = np.asarray(value, dtype="<f8")
        lines.append(" ".join([name, str(arr.ndim),
                               *(str(s) for s in arr.shape)]))
        payloads.append(arr.tobytes(order="C"))
    lines.append("end")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for blob in payloads:
            fh.write(blob)


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a tensor file back into an ordered name -> array mapping."""
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.find(b"\n")
    if newline < 0 or blob[:newline].decode("ascii", "replace") != MAGIC:
        raise TensorFormatError(f"bad magic; expected {MAGIC!r}")
    # locate the end of the header
    marker = b"\nend\n"
    header_end = blob.find(marker)
    if header_end < 0:
        raise TensorFormatError("missing header terminator")
    try:
        header = blob[:header_end].decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise TensorFormatError("header is not ASCII") from exc
    payload = blob[header_end + len(marker):]
    if len(header) < 5:
        raise TensorFormatError("header too short")

    try:
        fields = dict(line.split(" ", 1) for line in header[1:4])
    except ValueError as exc:
        raise TensorFormatError("malformed header fields") from exc
    if fields.get("dtype") != "f64" or fields.get("endian") != "little" \
            or fields.get("order") != "row-major":
        raise TensorFormatError(f"unsupported format fields {fields}")
    count_line = header[4].split()
    if len(count_line) != 2 or count_line[0] != "arrays" \
            or not count_line[1].isdigit():
        raise TensorFormatError("malformed array-count line")
    count = int(count_line[1])
    entries = header[5:]
    if len(entries) != count:
        raise TensorFormatError(
            f"array table lists {len(entries)} entries, expected {count}")

    out: dict[str, np.ndarray] = {}
    offset = 0
    for line in entries:
        parts = line.split()
        if len(parts) < 2 or not _NAME_RE.match(parts[0]) \
                or not all(p.isdigit() for p in parts[1:]):
            raise TensorFormatError(f"malformed table entry {line!r}")
        name = parts[0]
        if name in out:
            raise TensorFormatError(f"duplicate array name {name!r}")
        ndim = int(parts[1])
        shape = tuple(int(s) for s in parts[2:])
        if len(shape) != ndim:
            raise TensorFormatError(f"bad shape in table entry {line!r}")
        nbytes = 8 * math.prod(shape)
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise TensorFormatError(f"payload truncated at array {name!r}")
        try:
            out[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:   # an empty array with a huge dimension
            raise TensorFormatError(f"bad shape in table entry {line!r}") \
                from exc
        offset += nbytes
    if offset != len(payload):
        raise TensorFormatError(
            f"{len(payload) - offset} trailing payload bytes")
    return out
