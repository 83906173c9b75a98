"""File format round-trip tests for both container flavors, and the rule
by which every output file is written."""

import errno
import io
import json
import os
import stat
import struct
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fasbar import (
    PilotObservation,
    ResultRecord,
    build_port_geometry,
    design_plan,
    emit_csv,
    emit_svg,
    kernel_bessel,
    kernel_covariance,
    kernel_exponential,
    load_estimate,
    load_kernel,
    load_observation,
    load_plan,
    reconstruct,
    save_estimate,
    save_kernel,
    save_observation,
    save_plan,
)
from fasbar import fileio
from fasbar.fileio import MAGIC, read_container, write_container
from fasbar.kernels import Kernel


@pytest.fixture(scope="module")
def kernel():
    return kernel_bessel(build_port_geometry(24, 6.0, 3.5e9))


@pytest.fixture(scope="module")
def plan(kernel):
    return design_plan(kernel, 3, 2, 0.8)


class TestContainer:
    def test_binary_round_trip_preserves_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {
            "c": rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)),
            "f": rng.standard_normal(5),
            "i": np.arange(6),
        }
        path = tmp_path / "blob.bin"
        write_container(path, {"content": "test", "note": 7}, arrays)
        header, loaded = read_container(path)
        assert header["note"] == 7
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr)

    def test_json_flavor_round_trips_floats_exactly(self, tmp_path):
        arr = np.array([0.1, 1 / 3, np.pi, 2.56])
        path = tmp_path / "blob.json"
        write_container(path, {"content": "test"}, {"x": arr})
        _, loaded = read_container(path)
        assert np.array_equal(loaded["x"], arr)
        # the file is genuinely textual
        assert json.loads(path.read_text())["content"] == "test"

    def test_rejects_foreign_bytes(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError):
            read_container(path)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "k.json"
        write_container(path, {"content": "test"}, {"x": np.ones(2)})
        doc = json.loads(path.read_text())
        doc["container_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            read_container(path)
        # and the binary flavor through a patched header
        bpath = tmp_path / "k.bin"
        write_container(bpath, {"content": "test"}, {"x": np.ones(2)})
        raw = bytearray(bpath.read_bytes())
        (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
        head = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + hlen])
        head["container_version"] = 99
        new_head = json.dumps(head, sort_keys=True).encode()
        patched = raw[: len(MAGIC)] + struct.pack("<I", len(new_head)) + new_head + raw[len(MAGIC) + 4 + hlen :]
        bpath.write_bytes(patched)
        with pytest.raises(ValueError):
            read_container(bpath)

    @pytest.mark.parametrize("cut, name", [(1, "b"), (16, "b"), (80 + 3, "a")])
    def test_truncated_file_names_the_array(self, tmp_path, cut, name):
        # "a" takes 32 bytes and "b" the last 80
        path = tmp_path / "cut.bin"
        write_container(path, {"content": "test"}, {"a": np.ones(4), "b": np.ones(5, dtype=complex)})
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=f"ends inside array '{name}'"):
            read_container(path)

    @pytest.mark.parametrize("shape", [[10**12], [2**40, 2**40], [-1]])
    def test_header_shape_beyond_the_file_names_the_array(self, tmp_path, shape):
        path = tmp_path / "big.bin"
        write_container(path, {"content": "test"}, {"a": np.ones(4)})
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
        head = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + hlen])
        head["arrays"][0]["shape"] = shape
        new_head = json.dumps(head).encode()
        path.write_bytes(raw[: len(MAGIC)] + struct.pack("<I", len(new_head)) + new_head + raw[len(MAGIC) + 4 + hlen :])
        with pytest.raises(ValueError, match="ends inside array 'a'"):
            read_container(path)

    def test_binary_read_holds_one_copy_of_each_array(self, tmp_path):
        rng = np.random.default_rng(3)
        big = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        path = tmp_path / "big.bin"
        write_container(path, {"content": "test"}, {"m": big})
        size = path.stat().st_size
        tracemalloc.start()
        try:
            _, loaded = read_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded["m"], big)
        assert peak < 1.5 * size


    def test_binary_write_makes_no_copy_of_an_array(self, tmp_path):
        rng = np.random.default_rng(4)
        big = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        path = tmp_path / "big.bin"
        tracemalloc.start()
        try:
            write_container(path, {"content": "test"}, {"m": big})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > big.nbytes
        assert peak < 0.25 * big.nbytes


class TestKernelFiles:
    @pytest.mark.parametrize("name", ["kernel.bin", "kernel.json"])
    def test_round_trip_preserves_fingerprint(self, tmp_path, kernel, name):
        path = tmp_path / name
        save_kernel(path, kernel)
        loaded = load_kernel(path)
        assert loaded.fingerprint == kernel.fingerprint
        assert loaded.kind == kernel.kind
        assert (loaded.alpha, loaded.eta) == (kernel.alpha, kernel.eta)
        assert loaded.jitter == kernel.jitter
        assert np.array_equal(loaded.matrix, kernel.matrix)

    @pytest.mark.parametrize("name", ["kernel.bin", "kernel.json"])
    @pytest.mark.parametrize("form", ["f8-lags", "f8-dense", "c16-dense"])
    def test_each_stored_form_round_trips_in_its_dtype(self, tmp_path, form, name):
        # the stored dtype is the field a prior is designed in, so a file
        # keeps it, and with it the fingerprint and the plan bits
        lags = kernel_bessel(build_port_geometry(24, 6.0, 3.5e9))
        rng = np.random.default_rng(12)
        k = {
            "f8-lags": lambda: lags,
            "f8-dense": lambda: Kernel(np.array(lags.matrix), "covariance"),
            "c16-dense": lambda: kernel_covariance(
                [rng.standard_normal(24) + 1j * rng.standard_normal(24) for _ in range(30)]),
        }[form]()
        save_kernel(tmp_path / name, k)
        loaded = load_kernel(tmp_path / name)
        assert loaded.stored.dtype == k.stored.dtype == (np.complex128 if form == "c16-dense" else np.float64)
        assert loaded.stored.shape == k.stored.shape
        assert loaded.fingerprint == k.fingerprint
        a, b = design_plan(loaded, 3, 2, 0.8), design_plan(k, 3, 2, 0.8)
        assert a.plan_id == b.plan_id
        assert a.weights.dtype == k.stored.dtype
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.post_diag.tobytes() == b.post_diag.tobytes()

    @pytest.mark.parametrize("name", ["old.bin", "old.json"])
    def test_an_old_complex_lag_file_loads_as_float64(self, tmp_path, kernel, name):
        # analytic kernel files once held their real lags as c16, with
        # imaginary parts of zero
        header = {"content": "kernel", "kind": kernel.kind, "num_ports": kernel.num_ports,
                  "alpha": kernel.alpha, "eta": kernel.eta, "jitter": kernel.jitter}
        write_container(tmp_path / name, header, {"matrix": kernel.stored.astype(complex)})
        assert read_container(tmp_path / name)[0]["arrays"][0]["dtype"] == "c16"
        loaded = load_kernel(tmp_path / name)
        assert loaded.stored.dtype == np.float64 and loaded.stored.flags.c_contiguous
        assert not loaded.stored.flags.writeable
        assert loaded.fingerprint == kernel.fingerprint
        a, b = design_plan(loaded, 3, 2, 0.8), design_plan(kernel, 3, 2, 0.8)
        assert a.plan_id == b.plan_id
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.post_diag.tobytes() == b.post_diag.tobytes()

    @pytest.mark.parametrize("build", [kernel_exponential, kernel_bessel])
    def test_an_analytic_kernel_file_is_f8_at_half_the_c16_array_bytes(self, tmp_path, build):
        k = build(build_port_geometry(1024, 10.0, 3.5e9))
        save_kernel(tmp_path / "k.bin", k)
        header = {"content": "kernel", "kind": k.kind, "num_ports": k.num_ports,
                  "alpha": k.alpha, "eta": k.eta, "jitter": k.jitter}
        write_container(tmp_path / "old.bin", header, {"matrix": k.stored.astype(complex)})

        def array_bytes(path):
            raw = path.read_bytes()
            (head_len,) = struct.unpack_from("<I", raw, len(MAGIC))
            return len(raw) - len(MAGIC) - 4 - head_len

        assert read_container(tmp_path / "k.bin")[0]["arrays"][0]["dtype"] == "f8"
        assert array_bytes(tmp_path / "k.bin") == 1024 * 8
        assert 2 * array_bytes(tmp_path / "k.bin") == array_bytes(tmp_path / "old.bin")

    def test_trained_kernel_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        ensemble = [rng.standard_normal(10) + 1j * rng.standard_normal(10) for _ in range(4)]
        k = kernel_covariance(ensemble)
        save_kernel(tmp_path / "cov.bin", k)
        assert load_kernel(tmp_path / "cov.bin").fingerprint == k.fingerprint

    def test_content_type_checked(self, tmp_path, plan):
        save_plan(tmp_path / "p.bin", plan)
        with pytest.raises(ValueError):
            load_kernel(tmp_path / "p.bin")

    @pytest.mark.parametrize("build", [kernel_exponential, kernel_bessel])
    def test_analytic_kernel_file_holds_the_lags(self, tmp_path, build):
        k = build(build_port_geometry(24, 6.0, 3.5e9))
        save_kernel(tmp_path / "k.bin", k)
        header, arrays = read_container(tmp_path / "k.bin")
        assert "order" not in header
        assert np.array_equal(arrays["matrix"], k.matrix[:, 0])

    @pytest.mark.parametrize("build", [kernel_exponential, kernel_bessel])
    def test_old_c16_dense_analytic_file_designs_complex_weights_near_the_real_plan(self, tmp_path, build):
        # analytic kernel files written before lags were stored held the
        # dense matrix as c16; its dtype is the field, so such a file is
        # designed in complex128, within rounding of the float64 design
        k = build(build_port_geometry(64, 10.0, 3.5e9))
        header = {"content": "kernel", "kind": k.kind, "num_ports": 64, "alpha": k.alpha,
                  "eta": k.eta, "order": 0, "jitter": k.jitter, "carrier_hz": 3.5e9}
        write_container(tmp_path / "old.bin", header, {"matrix": np.array(k.matrix, dtype=complex)})
        loaded = load_kernel(tmp_path / "old.bin")
        assert loaded.stored.dtype == np.complex128 and loaded.stored.shape == (64, 64)
        assert np.array_equal(loaded.matrix, k.matrix)
        a, b = design_plan(loaded, 5, 4, 0.64), design_plan(k, 5, 4, 0.64)
        assert a.weights.dtype == np.complex128 and b.weights.dtype == np.float64
        assert a.order == b.order
        # measured: 0.8 eps (exponential) and 3.2 eps (Bessel) of max|w|
        assert np.abs(a.weights - b.weights).max() <= 8 * np.finfo(float).eps * np.abs(b.weights).max()

    @pytest.mark.parametrize("name", ["old.bin", "old.json"])
    def test_header_with_a_carrier_loads_with_the_same_fingerprint(self, tmp_path, kernel, name):
        # kernel files used to record the carrier, which nothing read back
        header = {"content": "kernel", "kind": kernel.kind, "num_ports": kernel.num_ports,
                  "alpha": kernel.alpha, "eta": kernel.eta, "jitter": kernel.jitter,
                  "carrier_hz": 3.5e9}
        write_container(tmp_path / name, header, {"matrix": kernel.stored})
        assert load_kernel(tmp_path / name).fingerprint == kernel.fingerprint

    def test_new_header_has_no_carrier(self, tmp_path, kernel):
        save_kernel(tmp_path / "k.json", kernel)
        header, _ = read_container(tmp_path / "k.json")
        assert "carrier_hz" not in header

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m[:, :-1], "shape"),
            (lambda m: m[:-1], "shape"),
            (lambda m: m[0, :-1], "shape"),
            (lambda m: np.where(np.eye(16, dtype=bool), np.nan, m), "non-finite"),
            (lambda m: m + np.triu(np.full((16, 16), 0.5), 1), "not Hermitian"),
            (lambda m: m + 1e-3j * np.eye(16), "not Hermitian"),
            (lambda m: np.append(m[1:, 0], np.inf), "non-finite"),
            (lambda m: m[:, 0] + 0.5j, "must be real"),
        ],
        ids=["16x15", "15x16", "short-column", "nan-diagonal", "asymmetric",
             "complex-diagonal", "inf-column", "complex-column"],
    )
    def test_malformed_kernel_file_rejected(self, tmp_path, edit, message):
        k = kernel_exponential(build_port_geometry(16, 5.0, 3.5e9))
        header = {"content": "kernel", "kind": k.kind, "num_ports": 16, "alpha": k.alpha,
                  "eta": k.eta, "jitter": k.jitter, "carrier_hz": 3.5e9}
        write_container(tmp_path / "k.json", header, {"matrix": edit(np.array(k.matrix))})
        with pytest.raises(ValueError, match=message):
            load_kernel(tmp_path / "k.json")

    def test_file_with_a_bessel_order_rejected(self, tmp_path, kernel):
        save_kernel(tmp_path / "k.json", kernel)
        doc = json.loads((tmp_path / "k.json").read_text())
        doc["order"] = 1
        (tmp_path / "k.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="order 1"):
            load_kernel(tmp_path / "k.json")


def _repeat_first_port(doc):
    doc["order"][1] = doc["order"][0]


def _use_port_zero(doc):
    doc["order"][0] = 0  # stored orders are 1-based


def _drop_last_port(doc):
    doc["order"].pop()


def _negate_noise_power(doc):
    doc["noise_power"] = -0.5


def _nan_weight(doc):
    doc["array_data"]["weights"][3] = float("nan")


def _infinite_variance(doc):
    doc["array_data"]["post_diag"][1] = float("inf")


def _drop_weight_column(doc):
    spec = next(s for s in doc["arrays"] if s["name"] == "weights")
    rows, cols = spec["shape"]
    # f8 weights are one number per entry, c16 weights an interleaved pair
    entries = np.asarray(doc["array_data"]["weights"]).reshape(rows, cols, -1)
    doc["array_data"]["weights"] = entries[:, :-1].ravel().tolist()
    spec["shape"] = [rows, cols - 1]


class TestPlanFiles:
    @pytest.mark.parametrize("name", ["plan.bin", "plan.json"])
    def test_round_trip(self, tmp_path, plan, name):
        path = tmp_path / name
        save_plan(path, plan)
        loaded = load_plan(path)
        assert loaded.order == plan.order
        assert loaded.plan_id == plan.plan_id
        assert loaded.kernel_fingerprint == plan.kernel_fingerprint
        assert loaded.noise_power_design == plan.noise_power_design
        assert np.array_equal(loaded.weights, plan.weights)
        assert np.array_equal(loaded.post_diag, plan.post_diag)

    def test_stored_order_is_one_based(self, tmp_path, plan):
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        doc = json.loads(path.read_text())
        assert doc["order"] == [p + 1 for p in plan.order]
        assert min(doc["order"]) >= 1

    def test_reconstruction_works_from_reloaded_plan(self, tmp_path, kernel, plan):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        obs = PilotObservation(y, 0.8, plan.plan_id)
        direct = reconstruct(plan, obs)
        save_plan(tmp_path / "plan.bin", plan)
        again = reconstruct(load_plan(tmp_path / "plan.bin"), obs)
        assert np.array_equal(direct.estimate, again.estimate)

    def test_content_type_checked(self, tmp_path, kernel):
        save_kernel(tmp_path / "k.bin", kernel)
        with pytest.raises(ValueError):
            load_plan(tmp_path / "k.bin")

    @pytest.mark.parametrize(
        "edit",
        [_repeat_first_port, _use_port_zero, _drop_last_port, _drop_weight_column, _negate_noise_power,
         _nan_weight, _infinite_variance],
    )
    def test_hand_edited_plan_rejected(self, tmp_path, plan, edit):
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_plan(path)


@pytest.fixture(scope="module")
def trained_plan():
    rng = np.random.default_rng(9)
    kernel = kernel_covariance([rng.standard_normal(24) + 1j * rng.standard_normal(24) for _ in range(30)])
    return design_plan(kernel, 3, 2, 0.8)


class TestPlanWeightField:
    """A plan file holds the weights in the field the prior was designed in."""

    @pytest.mark.parametrize("name", ["plan.bin", "plan.json"])
    @pytest.mark.parametrize("flavor", ["real", "trained"])
    def test_weights_round_trip_bit_for_bit_in_their_field(self, tmp_path, plan, trained_plan, flavor, name):
        designed = plan if flavor == "real" else trained_plan
        path = tmp_path / name
        save_plan(path, designed)
        header, _ = read_container(path)
        tags = {spec["name"]: spec["dtype"] for spec in header["arrays"]}
        assert tags == {"weights": "f8" if flavor == "real" else "c16", "post_diag": "f8"}
        loaded = load_plan(path)
        assert loaded.weights.dtype == designed.weights.dtype
        assert loaded.weights.tobytes() == designed.weights.tobytes()
        assert loaded.post_diag.tobytes() == designed.post_diag.tobytes()

    def test_float64_weights_take_half_the_bytes(self, tmp_path, plan):
        assert plan.weights.dtype == np.float64
        save_plan(tmp_path / "real.bin", plan)
        save_plan(tmp_path / "complex.bin", replace(plan, weights=plan.weights.astype(complex)))
        k, n = plan.weights.shape
        saved = (tmp_path / "complex.bin").stat().st_size - (tmp_path / "real.bin").stat().st_size
        # 8 of a weight's 16 bytes, and one byte of the header's longer "c16" tag
        assert saved == k * n * 8 + 1

    @pytest.mark.parametrize("name", ["plan.bin", "plan.json"])
    def test_a_plan_saved_with_complex_weights_still_loads(self, tmp_path, plan, name):
        # as files were written when every plan held complex weights, the
        # imaginary parts of a real prior's all zero
        save_plan(tmp_path / name, replace(plan, weights=plan.weights.astype(complex)))
        loaded = load_plan(tmp_path / name)
        assert loaded.weights.dtype == np.complex128 and not loaded.weights.imag.any()
        assert loaded.plan_id == plan.plan_id
        rng = np.random.default_rng(12)
        block = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
        for values in (block[0], block):
            obs = PilotObservation(values, 0.8, plan.plan_id)
            old, new = reconstruct(loaded, obs).estimate, reconstruct(plan, obs).estimate
            assert np.abs(old - new).max() <= 1e-12 * np.abs(new).max()


# an estimate file as written when estimate files stored the band: N=5
# exponential kernel over 2 wavelengths, one slot of 2 ports, noise power 0.5
_OLD_ESTIMATE = {
    "content": "estimate",
    "estimate": [[0.5000000001653154, -0.8333333336107734], [0.10393954645756588, -0.17323291976468252],
                 [0.00031124045507464806, -0.0014005820478359163],
                 [-0.06929282959794235, 0.017322693896376556], [-0.33333333344241756, 0.08333333335773291]],
    "post_variance": [0.3333333334444444, 0.9711907221763411, 0.9999953512101949, 0.9711907221763411,
                      0.3333333334444444],
    "confidence_lo": [[-0.7247448714303978, -2.0580782052064865], [-1.9866006348815866, -2.263773101103835],
                      [-2.1210041723126443, -2.1227159948155547], [-2.1598330109370947, -2.073217487442776],
                      [-1.5580782050381308, -1.1414115382379804]],
    "confidence_hi": [[1.7247448717610285, 0.3914115379849398], [2.1944797277967183, 1.91730726157447],
                      [2.121626653222793, 2.1199148307198827], [2.02124735174121, 2.107862875235529],
                      [0.8914115381532957, 1.308078204953446]],
}


def _edit_header(path, key, edit):
    header, arrays = read_container(path)
    del header["arrays"], header["container_version"]
    header[key] = edit(header[key])
    write_container(path, header, arrays)


@pytest.mark.parametrize("name", ["file.bin", "file.json"])
@pytest.mark.parametrize(
    "content, key, edit",
    [
        ("plan", "order", lambda order: [p + 0.7 for p in order]),
        ("plan", "num_timeslots", lambda p: True),
        ("plan", "antennas_per_slot", lambda m: m + 0.5),
        ("plan", "num_ports", lambda n: n + 0.9),
        ("kernel", "num_ports", lambda n: n + 0.9),
    ],
    ids=["plan-order", "plan-timeslots-bool", "plan-antennas", "plan-ports", "kernel-ports"],
)
def test_non_integral_header_rejected(tmp_path, kernel, name, content, key, edit):
    # a bare int() read 1.7 as 1 and true as 1, so these loaded as another file
    path = tmp_path / name
    if content == "plan":
        save_plan(path, design_plan(kernel, 1, 4, 0.8))
    else:
        save_kernel(path, kernel)
    _edit_header(path, key, edit)
    with pytest.raises(ValueError, match=f"'{key}'"):
        (load_plan if content == "plan" else load_kernel)(path)


@pytest.mark.parametrize("name", ["file.bin", "file.json"])
@pytest.mark.parametrize(
    "content, key, value",
    [
        ("plan", "noise_power", True),
        ("plan", "noise_power", "0.8"),
        ("plan", "noise_power", [0.8]),
        ("kernel", "alpha", "1.0"),
        ("kernel", "alpha", False),
        ("kernel", "eta", None),
        ("kernel", "eta", {"eta": 0.4}),
        ("kernel", "jitter", True),
        ("kernel", "jitter", "1e-9"),
        ("kernel", "jitter", float("nan")),
        ("kernel", "kind", "nonsense"),
        ("kernel", "kind", 1),
    ],
    ids=[
        "plan-noise-bool",
        "plan-noise-string",
        "plan-noise-list",
        "kernel-alpha-string",
        "kernel-alpha-bool",
        "kernel-eta-null",
        "kernel-eta-mapping",
        "kernel-jitter-bool",
        "kernel-jitter-string",
        "kernel-jitter-nan",
        "kernel-kind-unknown",
        "kernel-kind-number",
    ],
)
def test_non_numeric_header_rejected(tmp_path, kernel, name, content, key, value):
    # a bare float() read true as 1.0 and "1.0" as 1.0, and any kind loaded
    path = tmp_path / name
    if content == "plan":
        save_plan(path, design_plan(kernel, 1, 4, 0.8))
    else:
        save_kernel(path, kernel)
    _edit_header(path, key, lambda _: value)
    with pytest.raises(ValueError, match=f"'{key}'"):
        (load_plan if content == "plan" else load_kernel)(path)


@pytest.mark.parametrize("name", ["file.bin", "file.json"])
@pytest.mark.parametrize("content, key", [("plan", "antennas_per_slot"), ("kernel", "num_ports")])
def test_whole_float_header_loads(tmp_path, kernel, name, content, key):
    # 4.0 is the count 4: a header written by another tool as a float still loads
    path = tmp_path / name
    original = design_plan(kernel, 1, 4, 0.8) if content == "plan" else kernel
    (save_plan if content == "plan" else save_kernel)(path, original)
    _edit_header(path, key, float)
    loaded = (load_plan if content == "plan" else load_kernel)(path)
    assert type(getattr(loaded, key)) is int
    if content == "plan":
        assert loaded.plan_id == original.plan_id
    else:
        assert loaded.fingerprint == original.fingerprint


@pytest.mark.parametrize("name", ["file.bin", "file.json"])
def test_covariance_kernel_zero_hyperparameters_load(tmp_path, name):
    # trained covariances store alpha and eta as 0.0, and an int header value is a number
    rng = np.random.default_rng(9)
    training = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(8)]
    cov = kernel_covariance(training)
    path = tmp_path / name
    save_kernel(path, cov)
    loaded = load_kernel(path)
    assert (loaded.alpha, loaded.eta) == (0.0, 0.0)
    assert loaded.fingerprint == cov.fingerprint
    _edit_header(path, "eta", lambda eta: 0)
    assert load_kernel(path).fingerprint == cov.fingerprint


class TestObservationAndEstimateFiles:
    def test_observation_round_trip(self, tmp_path):
        obs = PilotObservation(np.array([1 + 2j, -0.25j]), 0.01, "abc123")
        save_observation(tmp_path / "obs.json", obs)
        loaded = load_observation(tmp_path / "obs.json")
        assert np.array_equal(loaded.values, obs.values)
        assert loaded.noise_power == obs.noise_power
        assert loaded.plan_id == obs.plan_id

    @pytest.mark.parametrize(
        "key, value",
        [
            ("noise_power", True),
            ("noise_power", "0.01"),
            ("noise_power", float("nan")),
            ("values", [[1.0, 2.0], [float("nan"), 0.0]]),
            ("values", [[1.0, float("-inf")], [0.0, 0.0]]),
            ("plan_id", 5),
            ("plan_id", None),
        ],
        ids=["noise-bool", "noise-string", "noise-nan", "values-nan", "values-inf", "plan-id-number", "plan-id-null"],
    )
    def test_malformed_observation_file_rejected(self, tmp_path, key, value):
        # a bare float() read true as 1.0, and NaN values loaded and reconstructed to NaN
        path = tmp_path / "obs.json"
        save_observation(path, PilotObservation(np.array([1 + 2j, -0.25j]), 0.01, "abc123"))
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_observation(path)

    @pytest.mark.parametrize(
        "pair",
        [[True, False], [1.0, False], ["1.0", 0.0], [1.0, None], [1.0, 2.0, 3.0], [1.0], 1.0],
        ids=["bools", "bool-imag", "string", "null", "triple", "single", "bare-number"],
    )
    def test_values_must_be_pairs_of_numbers(self, tmp_path, pair):
        # complex(re, im) read [true, false] as 1+0j
        path = tmp_path / "obs.json"
        save_observation(path, PilotObservation(np.array([1 + 2j, -0.25j]), 0.01, "abc123"))
        doc = json.loads(path.read_text())
        doc["values"][1] = pair
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'values' must hold"):
            load_observation(path)

    def test_integer_parts_load(self, tmp_path):
        path = tmp_path / "obs.json"
        save_observation(path, PilotObservation(np.array([1 + 2j, -0.25j]), 0.01, "abc123"))
        doc = json.loads(path.read_text())
        doc["values"][0] = [1, 2]
        path.write_text(json.dumps(doc))
        assert np.array_equal(load_observation(path).values, [1 + 2j, -0.25j])

    def test_estimate_entries_must_be_pairs_of_numbers(self, tmp_path, plan):
        rec = reconstruct(plan, PilotObservation(np.ones(6, dtype=complex), 0.8, plan.plan_id))
        path = tmp_path / "est.json"
        save_estimate(path, rec)
        doc = json.loads(path.read_text())
        doc["estimate"][0] = [True, False]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'estimate' must hold"):
            load_estimate(path)

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("estimate", lambda doc: doc["estimate"].__setitem__(1, [float("nan"), 0.0])),
            ("estimate", lambda doc: doc["estimate"].__setitem__(2, [0.0, float("inf")])),
            ("post_variance", lambda doc: doc["post_variance"].__setitem__(0, float("nan"))),
            ("post_variance", lambda doc: doc["post_variance"].__setitem__(3, float("inf"))),
            ("post_variance", lambda doc: doc["post_variance"].__setitem__(3, "0.5")),
            ("post_variance", lambda doc: doc["post_variance"].pop()),
            ("post_variance", lambda doc: doc["post_variance"].append(0.5)),
        ],
        ids=["estimate-nan", "estimate-inf", "variance-nan", "variance-inf", "variance-string",
             "variance-short", "variance-long"],
    )
    def test_malformed_estimate_file_rejected(self, tmp_path, plan, key, edit):
        # these loaded and gave a NaN or infinite band, or arrays of two lengths
        rec = reconstruct(plan, PilotObservation(np.ones(6, dtype=complex), 0.8, plan.plan_id))
        path = tmp_path / "est.json"
        save_estimate(path, rec)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_estimate(path)

    def test_rounding_level_negative_variance_loads(self, tmp_path, plan):
        # a plan's post_diag may sit a rounding error below zero; the band clamps it
        rec = reconstruct(plan, PilotObservation(np.ones(6, dtype=complex), 0.8, plan.plan_id))
        path = tmp_path / "est.json"
        save_estimate(path, rec)
        doc = json.loads(path.read_text())
        doc["post_variance"][0] = -1e-12
        path.write_text(json.dumps(doc))
        loaded = load_estimate(path)
        assert loaded.post_variance[0] == -1e-12
        assert loaded.confidence_lo[0] == loaded.confidence_hi[0] == loaded.estimate[0]

    def test_block_of_rounds_is_not_saved(self, tmp_path):
        # run_sweep builds (T, K) observations; saving one raised a TypeError from float()
        obs = PilotObservation(np.ones((2, 3), dtype=complex), 0.01, "abc123")
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            save_observation(tmp_path / "obs.json", obs)
        assert not (tmp_path / "obs.json").exists()

    def test_estimate_round_trip(self, tmp_path, plan):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        rec = reconstruct(plan, PilotObservation(y, 0.8, plan.plan_id))
        save_estimate(tmp_path / "est.json", rec)
        loaded = load_estimate(tmp_path / "est.json")
        assert np.array_equal(loaded.estimate, rec.estimate)
        assert np.array_equal(loaded.post_variance, rec.post_variance)
        assert np.array_equal(loaded.confidence_lo, rec.confidence_lo)
        assert np.array_equal(loaded.confidence_hi, rec.confidence_hi)

    def test_estimate_file_holds_no_band(self, tmp_path, plan):
        rec = reconstruct(plan, PilotObservation(np.ones(6, dtype=complex), 0.8, plan.plan_id))
        save_estimate(tmp_path / "est.json", rec)
        doc = json.loads((tmp_path / "est.json").read_text())
        assert set(doc) == {"content", "estimate", "post_variance"}

    def test_old_estimate_file_with_a_band_loads(self, tmp_path):
        (tmp_path / "old.json").write_text(json.dumps(_OLD_ESTIMATE))
        loaded = load_estimate(tmp_path / "old.json")
        stored = {k: np.array([complex(re, im) for re, im in _OLD_ESTIMATE[k]])
                  for k in ("estimate", "confidence_lo", "confidence_hi")}
        assert loaded.estimate.tobytes() == stored["estimate"].tobytes()
        assert loaded.post_variance.tolist() == _OLD_ESTIMATE["post_variance"]
        assert loaded.confidence_lo.tobytes() == stored["confidence_lo"].tobytes()
        assert loaded.confidence_hi.tobytes() == stored["confidence_hi"].tobytes()

    def test_content_type_checked(self, tmp_path):
        obs = PilotObservation(np.array([1j]), 0.0, "x")
        save_observation(tmp_path / "obs.json", obs)
        with pytest.raises(ValueError):
            load_estimate(tmp_path / "obs.json")


RECORDS = [ResultRecord("sbar", "bessel", 24, 2, p, 20.0, t, 7, 0.1 * p + 0.01 * t, 0) for p in (1, 2, 3) for t in (0, 1)]


@pytest.fixture(scope="module")
def writers(kernel, plan):
    """File name -> a call that writes that file, one per writer and flavor."""
    rec = reconstruct(plan, PilotObservation(np.full(6, 1 - 0.5j), 0.8, plan.plan_id))
    obs = PilotObservation(np.array([1 + 2j, -0.25j]), 0.01, "abc123")
    return {
        "plan.bin": lambda path: save_plan(path, plan),
        "plan.json": lambda path: save_plan(path, plan),
        "kernel.bin": lambda path: save_kernel(path, kernel),
        "kernel.json": lambda path: save_kernel(path, kernel),
        "obs.json": lambda path: save_observation(path, obs),
        "est.json": lambda path: save_estimate(path, rec),
        "nmse.csv": lambda path: emit_csv(RECORDS, path),
        "nmse.svg": lambda path: emit_svg(RECORDS, path),
    }


class FullDisk(io.FileIO):
    """A file whose writes fail with ENOSPC once ``budget`` bytes are in."""

    budget = 0

    def write(self, data):
        data = memoryview(data).cast("B")
        if len(data) > self.budget:
            super().write(data[: self.budget])
            self.budget = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.budget -= len(data)
        return super().write(data)


class TestWriteRule:
    """A rewrite is a new file: the bytes go to a temporary in the same
    directory, the old file is unlinked and the temporary renamed."""

    @pytest.mark.parametrize("name", ["plan.bin", "plan.json"])
    @pytest.mark.parametrize("rewrite", [True, False], ids=["rewrite", "fresh"])
    def test_a_write_that_fails_half_way_leaves_the_old_file_and_no_temporary(
            self, tmp_path, monkeypatch, kernel, plan, name, rewrite):
        path = tmp_path / name
        new = design_plan(kernel, 3, 2, 0.5)
        save_plan(tmp_path / "new", new)
        half = (tmp_path / "new").stat().st_size // 2
        (tmp_path / "new").unlink()
        if rewrite:
            save_plan(path, plan)
        old = path.read_bytes() if rewrite else None

        def full_disk(file, mode):
            fh = FullDisk(file, mode.replace("b", ""))
            fh.budget = half
            return fh

        monkeypatch.setattr(fileio, "open", full_disk, raising=False)
        with pytest.raises(OSError) as caught:
            save_plan(path, new)
        monkeypatch.undo()
        assert caught.value.errno == errno.ENOSPC
        assert os.listdir(tmp_path) == ([name] if rewrite else [])
        if rewrite:
            assert path.read_bytes() == old
            loaded = load_plan(path)
            assert loaded.plan_id == plan.plan_id
            assert loaded.weights.tobytes() == plan.weights.tobytes()

    def test_a_reader_of_the_old_file_reads_it_whole(self, tmp_path, kernel, plan):
        path = tmp_path / "plan.bin"
        save_plan(path, plan)
        old = path.read_bytes()
        new = design_plan(kernel, 3, 2, 0.5)
        with open(path, "rb", buffering=0) as reader:
            head = reader.read(16)
            save_plan(path, new)
            rest = reader.read()
        assert head + rest == old
        assert load_plan(path).plan_id == new.plan_id

    def test_a_symlinked_path_keeps_its_link_and_its_target_takes_the_bytes(self, tmp_path, plan):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "plan.bin"
        link = tmp_path / "plan.bin"
        link.symlink_to(target)
        save_plan(tmp_path / "direct.bin", plan)
        for _ in range(2):  # through a dangling link, then over the file
            save_plan(link, plan)
            assert link.is_symlink() and os.readlink(link) == str(target)
            assert target.read_bytes() == (tmp_path / "direct.bin").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["direct.bin", "plan.bin", "real"]
        assert os.listdir(tmp_path / "real") == ["plan.bin"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_a_fifo_is_written_through_and_kept(self, tmp_path, plan):
        rec = reconstruct(plan, PilotObservation(np.ones(6, dtype=complex), 0.8, plan.plan_id))
        save_estimate(tmp_path / "est.json", rec)
        fifo = tmp_path / "est.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        save_estimate(fifo, rec)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [(tmp_path / "est.json").read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["est.fifo", "est.json"]

    def test_a_directory_in_the_way_is_not_removed(self, tmp_path, plan):
        (tmp_path / "plan.bin").mkdir()
        with pytest.raises(IsADirectoryError):
            save_plan(tmp_path / "plan.bin", plan)
        assert (tmp_path / "plan.bin").is_dir() and os.listdir(tmp_path) == ["plan.bin"]

    @pytest.mark.parametrize("name", ["plan.bin", "plan.json", "kernel.bin", "kernel.json", "obs.json", "est.json",
                                      "nmse.csv", "nmse.svg"])
    def test_each_writer_writes_the_same_bytes_fresh_and_on_a_rewrite(self, tmp_path, writers, name):
        (tmp_path / "fresh").mkdir()
        (tmp_path / "again").mkdir()
        fresh, path = tmp_path / "fresh" / name, tmp_path / "again" / name
        writers[name](fresh)
        # an old file longer than the new one, with its own mode and a second name
        path.write_bytes(b"old " * 100_000)
        path.chmod(0o600)
        os.link(path, tmp_path / "old-name")
        before = path.stat()
        writers[name](path)
        assert path.read_bytes() == fresh.read_bytes()
        after = path.stat()
        # a new inode with the mode a fresh file gets; the other name keeps the old bytes
        assert after.st_ino != before.st_ino
        assert stat.S_IMODE(after.st_mode) == stat.S_IMODE(fresh.stat().st_mode)
        assert (tmp_path / "old-name").read_bytes() == b"old " * 100_000
        assert os.listdir(tmp_path / "again") == os.listdir(tmp_path / "fresh") == [name]

    def test_a_stray_temporary_or_link_in_the_writers_name_is_replaced(self, tmp_path, plan):
        # a dead writer of the same pid and thread left its temporary, or a
        # link was planted there: neither is written through
        path = tmp_path / "plan.bin"
        victim = tmp_path / "victim"
        victim.write_bytes(b"keep")
        temp = tmp_path / f".plan.bin.{os.getpid()}.{threading.get_ident()}.tmp"
        temp.symlink_to(victim)
        save_plan(path, plan)
        assert victim.read_bytes() == b"keep"
        assert load_plan(path).plan_id == plan.plan_id
        assert sorted(os.listdir(tmp_path)) == ["plan.bin", "victim"]

    def test_threads_rewriting_one_path_leave_one_whole_plan(self, tmp_path, kernel):
        plans = [design_plan(kernel, 3, 2, s) for s in (0.2, 0.4, 0.8, 1.6)]
        path = tmp_path / "plan.bin"
        failures = []

        def rewrite(plan):
            try:
                for _ in range(200):
                    save_plan(path, plan)
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=rewrite, args=(p,), daemon=True) for p in plans]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        loaded = load_plan(path)
        (match,) = [p for p in plans if p.plan_id == loaded.plan_id]
        assert loaded.weights.tobytes() == match.weights.tobytes()
        assert os.listdir(tmp_path) == ["plan.bin"]
