"""On-disk formats for kernels, sampling plans, observations, estimates.

Kernels and plans share one container.  The binary flavor is

    8-byte magic "FASBAR1\\0"
    uint32 (little-endian) header length
    UTF-8 JSON header
    raw array bytes, C order, little-endian, in header["arrays"] order

where complex arrays are stored as interleaved real/imag float64 pairs.
A path ending in ".json" selects a textual flavor carrying the same header
and the arrays as flat interleaved lists; JSON floats round-trip exactly.

Port indices inside files are 1-based; in-memory objects are 0-based.

Observations and estimates are small and always JSON.

Every writer here, and ``harness.emit_csv`` and ``svgplot.emit_svg``,
goes through ``_write_new``, which writes a rewrite as a new file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import struct
import threading
from pathlib import Path

import numpy as np

from .channels import PilotObservation, _finite, _whole_number
from .kernels import Kernel
from .sbar import Reconstruction, SamplingPlan

MAGIC = b"FASBAR1\x00"
CONTAINER_VERSION = 1

_DTYPES = {"f8": "<f8", "c16": "<c16"}


def _write_new(path, chunks):
    """Write the bytes-like ``chunks`` to ``path`` as a new file.

    The bytes go to a temporary file in the target's directory, named
    ``.<name>.<pid>.<thread>.tmp`` so that no two writers share it.  Then
    the old file is unlinked and the temporary renamed into its place.
    ext4 flushes a file's data before it commits a truncate-and-rewrite or
    a rename over an existing file (its ``auto_da_alloc`` heuristic); an
    unlink followed by a rename onto the freed name is neither pattern.
    If anything raises, the temporary is removed and the old file, unless
    the failure came between the unlink and the rename, is untouched.

    A symlink is resolved first, so the link survives and its target
    gets the new bytes.  An existing path that is not a regular file, such
    as a FIFO or ``/dev/stdout``, is written in place and never unlinked.
    No fsync is made.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(path)
    folder, name = os.path.split(target)
    temp = os.path.join(folder, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    # a stray of this name was left by a dead writer; "x" then refuses a
    # file or link that appears in its place
    with contextlib.suppress(FileNotFoundError):
        os.unlink(temp)
    try:
        with open(temp, "xb") as fh:
            fh.writelines(chunks)
        if mode is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(target)
        os.rename(temp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _array_to_flat(arr, dtype):
    if dtype == "c16":
        out = np.empty(arr.size * 2, dtype=float)
        out[0::2] = arr.real.ravel()
        out[1::2] = arr.imag.ravel()
        return out.tolist()
    return np.asarray(arr).ravel().tolist()


def _array_from_flat(flat, dtype, shape):
    if dtype == "c16":
        raw = np.asarray(flat, dtype=float)
        arr = raw[0::2] + 1j * raw[1::2]
        return arr.reshape(shape)
    return np.asarray(flat, dtype=_DTYPES[dtype]).reshape(shape)


def _tag(spec):
    """The dtype tag of an array spec; ValueError naming the array unless
    it is one that ``write_container`` writes."""
    if spec["dtype"] not in _DTYPES:
        raise ValueError(f"array {spec['name']!r} has dtype {spec['dtype']!r}, not one of {', '.join(_DTYPES)}")
    return spec["dtype"]


def write_container(path, header, arrays):
    """Write named arrays under a JSON header; flavor chosen by suffix.

    ``header`` must not already contain the reserved "arrays" key.  Items of
    ``arrays`` are (name -> ndarray); complex arrays are stored as c16 and
    every other as f8.
    """
    path = Path(path)
    specs = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        tag = "c16" if np.iscomplexobj(arr) else "f8"
        arr = np.ascontiguousarray(arr, dtype=_DTYPES[tag])
        specs.append({"name": name, "dtype": tag, "shape": list(arr.shape)})
        blobs.append((arr, tag))
    full_header = dict(header)
    full_header["container_version"] = CONTAINER_VERSION
    full_header["arrays"] = specs
    if path.suffix == ".json":
        doc = dict(full_header)
        doc["array_data"] = {
            spec["name"]: _array_to_flat(arr, tag) for spec, (arr, tag) in zip(specs, blobs)
        }
        _write_new(path, [(json.dumps(doc, indent=1) + "\n").encode("utf-8")])
        return
    head_bytes = json.dumps(full_header, sort_keys=True).encode("utf-8")
    # the C-ordered little-endian buffers themselves, not tobytes() copies
    _write_new(path, [MAGIC, struct.pack("<I", len(head_bytes)), head_bytes, *(arr.data for arr, _ in blobs)])


def read_container(path):
    """Inverse of ``write_container``; returns (header, arrays)."""
    path = Path(path)
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("container_version") != CONTAINER_VERSION:
            raise ValueError(f"unsupported container version {doc.get('container_version')!r}")
        data = doc.pop("array_data")
        arrays = {
            spec["name"]: _array_from_flat(data[spec["name"]], _tag(spec), spec["shape"])
            for spec in doc["arrays"]
        }
        return doc, arrays
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path} is not a fasbar container")
        (head_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(head_len).decode("utf-8"))
        if header.get("container_version") != CONTAINER_VERSION:
            raise ValueError(f"unsupported container version {header.get('container_version')!r}")
        size = os.fstat(fh.fileno()).st_size
        arrays = {}
        for spec in header["arrays"]:
            dtype = np.dtype(_DTYPES[_tag(spec)])
            count = int(math.prod(spec["shape"]))
            # fromfile holds each array once but allocates count elements first
            if not 0 <= count * dtype.itemsize <= size - fh.tell():
                raise ValueError(f"{path} ends inside array {spec['name']!r}")
            arrays[spec["name"]] = np.fromfile(fh, dtype=dtype, count=count).reshape(spec["shape"])
    return header, arrays


def _complex_pair(pair, key):
    """A stored [re, im] pair as a complex number; ValueError naming ``key``
    unless both parts are finite numbers by the ``_finite`` rule, where
    ``complex()`` would read [true, false] as 1+0j."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"{key!r} must hold [re, im] pairs of numbers, got {pair!r}")
    name = f"{key!r} must hold [re, im] pairs of numbers; each part"
    return complex(_finite(pair[0], name), _finite(pair[1], name))


def save_kernel(path, kernel):
    """Persist a kernel with its hyperparameters.

    The "matrix" array holds ``kernel.stored`` in the form the kernel holds
    it: the (N,) lags of an analytic kernel, or the (N, N) matrix of a
    trained covariance.  The file is written as a new file, as
    ``save_plan`` writes a plan (see there).
    """
    header = {
        "content": "kernel",
        "kind": kernel.kind,
        "num_ports": kernel.num_ports,
        "alpha": kernel.alpha,
        "eta": kernel.eta,
        "jitter": kernel.jitter,
    }
    write_container(path, header, {"matrix": kernel.stored})


def load_kernel(path):
    """Read a kernel; ValueError unless the file holds a kernel with no
    Bessel order, finite-number hyperparameters and an (N,) lag column or
    (N, N) matrix for the N its header records.  The array becomes the
    kernel's read-only ``stored`` field in the form and dtype the file
    records, but a ``c16`` lag column with no imaginary part, as older
    analytic files hold, becomes float64 with the same fingerprint.
    ``Kernel`` judges the prior itself.  The carrier that older headers
    record is ignored."""
    header, arrays = read_container(path)
    if header.get("content") != "kernel":
        raise ValueError(f"{path} does not hold a kernel")
    if header.get("order", 0) != 0:
        raise ValueError(f"{path} holds a Bessel kernel of order {header['order']}; only order 0 is supported")
    n = _whole_number(header["num_ports"], "header 'num_ports'")
    stored = arrays["matrix"]
    if stored.shape not in ((n,), (n, n)):
        raise ValueError(f"kernel array must have shape ({n},) or ({n}, {n}), got {stored.shape}")
    if stored.ndim == 1 and np.iscomplexobj(stored) and not stored.imag.any():
        stored = stored.real.copy()
    stored.flags.writeable = False  # so Kernel holds it without a copy
    return Kernel(
        stored=stored,
        kind=header["kind"],
        alpha=_finite(header["alpha"], "header 'alpha'"),
        eta=_finite(header["eta"], "header 'eta'"),
        jitter=_finite(header["jitter"], "header 'jitter'"),
    )


def save_plan(path, plan):
    """Persist a sampling plan; the measurement order is stored 1-based and
    the weights as f8 or c16, the field the plan holds them in.

    The file is written as a new file (README, "File formats"), so it is
    never torn.  A reader sees the whole old file, no file for the moment
    between the unlink of the old one and the rename of the new one, or
    the whole new file.  A failed write leaves the old file; a crash
    leaves the old file or no file, plus a stray ``.<name>.*.tmp``
    temporary.  No fsync is made, and a rewrite is a new inode with
    default permissions.
    """
    header = {
        "content": "plan",
        "num_ports": plan.num_ports,
        "num_timeslots": plan.num_timeslots,
        "antennas_per_slot": plan.antennas_per_slot,
        "noise_power": plan.noise_power_design,
        "kernel_fingerprint": plan.kernel_fingerprint,
        "order": [int(p) + 1 for p in plan.order],
    }
    write_container(path, header, {"weights": plan.weights, "post_diag": plan.post_diag})


def load_plan(path):
    """Read a plan; ValueError if a dimension or port is not an integer or
    the noise power is not a finite number.  ``SamplingPlan`` judges the
    plan itself: its order and arrays against N, P, M and finite weights
    and variances.  The weights load in the field they were saved in: f8
    for a real prior, c16 for a trained one or a file written when every
    plan held complex weights."""
    header, arrays = read_container(path)
    if header.get("content") != "plan":
        raise ValueError(f"{path} does not hold a sampling plan")
    return SamplingPlan(
        num_ports=_whole_number(header["num_ports"], "header 'num_ports'"),
        num_timeslots=_whole_number(header["num_timeslots"], "header 'num_timeslots'"),
        antennas_per_slot=_whole_number(header["antennas_per_slot"], "header 'antennas_per_slot'"),
        order=tuple(_whole_number(p, "header 'order'") - 1 for p in header["order"]),
        weights=arrays["weights"],
        noise_power_design=_finite(header["noise_power"], "header 'noise_power'"),
        kernel_fingerprint=header["kernel_fingerprint"],
        post_diag=arrays["post_diag"],
    )


def save_observation(path, observation):
    """Write one round of pilots, shape (K,); ValueError for any other shape."""
    values = np.asarray(observation.values)
    if values.ndim != 1:
        raise ValueError(f"an observation file holds one round of shape (K,), got shape {values.shape}")
    doc = {
        "content": "observation",
        "plan_id": observation.plan_id,
        "noise_power": observation.noise_power,
        "values": [[float(v.real), float(v.imag)] for v in values],
    }
    _write_new(path, [(json.dumps(doc, indent=1) + "\n").encode("utf-8")])


def load_observation(path):
    """Read an observation; ValueError naming the field for a noise power
    that is not a finite number, a value that is not an [re, im] pair of
    numbers, a NaN or infinite value or a plan id that is not a string."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("content") != "observation":
        raise ValueError(f"{path} does not hold an observation")
    values = np.array([_complex_pair(pair, "values") for pair in doc["values"]])
    if not isinstance(doc["plan_id"], str):
        raise ValueError(f"observation 'plan_id' must be a string, got {doc['plan_id']!r}")
    return PilotObservation(values, _finite(doc["noise_power"], "observation 'noise_power'"), doc["plan_id"])


def save_estimate(path, reconstruction):
    """Write the estimate and the variances; the band is not stored."""
    doc = {
        "content": "estimate",
        "estimate": [[float(v.real), float(v.imag)] for v in np.asarray(reconstruction.estimate)],
        "post_variance": [float(v) for v in reconstruction.post_variance],
    }
    _write_new(path, [(json.dumps(doc, indent=1) + "\n").encode("utf-8")])


def load_estimate(path):
    """Read an estimate; ValueError naming the key unless it holds [re, im]
    pairs and one variance each, all finite numbers.  A variance a rounding
    error below zero loads, as in a plan's ``post_diag``; the band clamps it.
    The band arrays of older files are ignored: the band is derived."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("content") != "estimate":
        raise ValueError(f"{path} does not hold an estimate")
    estimate = np.array([_complex_pair(pair, "estimate") for pair in doc["estimate"]])
    variance = np.array([_finite(v, "estimate 'post_variance' entry") for v in doc["post_variance"]])
    if variance.shape != estimate.shape:
        raise ValueError(f"'post_variance' holds {variance.size} entries for {estimate.size} estimate entries")
    return Reconstruction(estimate=estimate, post_variance=variance)
