"""Container and plan files whose input failed late or with the wrong error.

Each case loaded, or raised a KeyError or TypeError far from the field at
fault; each now raises a ValueError that names it.
"""

import json
import struct

import numpy as np
import pytest

from fasbar import build_port_geometry, design_plan, kernel_exponential, load_plan, save_plan
from fasbar.fileio import MAGIC, read_container, write_container


@pytest.fixture(scope="module")
def plan():
    return design_plan(kernel_exponential(build_port_geometry(12, 4.0, 3.5e9)), 2, 2, 0.5)


def _set_dtype(path, dtype):
    """Rewrite the dtype tag of the first array spec in either flavor."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        doc["arrays"][0]["dtype"] = dtype
        path.write_text(json.dumps(doc))
        return
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    head = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + hlen])
    head["arrays"][0]["dtype"] = dtype
    new_head = json.dumps(head, sort_keys=True).encode()
    path.write_bytes(raw[: len(MAGIC)] + struct.pack("<I", len(new_head)) + new_head + raw[len(MAGIC) + 4 + hlen :])


@pytest.mark.parametrize("name", ["blob.bin", "blob.json"])
@pytest.mark.parametrize("dtype", ["f4", "i8", "<f8"])
def test_unknown_array_dtype_names_the_array(tmp_path, name, dtype):
    # "f4" raised KeyError: 'f4'; "i8" read integers no fasbar writer stored
    path = tmp_path / name
    write_container(path, {"content": "test"}, {"x": np.ones(2)})
    _set_dtype(path, dtype)
    with pytest.raises(ValueError, match=f"array 'x' has dtype '{dtype}'"):
        read_container(path)


@pytest.mark.parametrize("name", ["blob.bin", "blob.json"])
def test_integer_arrays_are_written_as_f8(tmp_path, name):
    path = tmp_path / name
    write_container(path, {"content": "test"}, {"i": np.arange(6)})
    header, arrays = read_container(path)
    assert header["arrays"][0]["dtype"] == "f8"
    assert arrays["i"].dtype == np.float64 and np.array_equal(arrays["i"], np.arange(6))


@pytest.mark.parametrize("name", ["plan.bin", "plan.json"])
@pytest.mark.parametrize("fingerprint", [5, None])
def test_plan_file_with_a_fingerprint_that_is_not_a_string_is_rejected(tmp_path, plan, name, fingerprint):
    # such a file loaded, and the plan's plan_id then raised a TypeError
    path = tmp_path / name
    save_plan(path, plan)
    header, arrays = read_container(path)
    del header["arrays"], header["container_version"]
    header["kernel_fingerprint"] = fingerprint
    write_container(path, header, arrays)
    with pytest.raises(ValueError, match="kernel_fingerprint"):
        load_plan(path)
