"""The layer benchmark runs end to end and writes what it promises."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_layers_script_writes_every_layer_at_64_ports(tmp_path):
    out = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--ports", "64", "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["env"]["OPENBLAS_NUM_THREADS"] == report["env"]["OMP_NUM_THREADS"] == "1"
    assert {"numpy", "scipy", "python", "git_sha"} <= set(report["env"])
    seen = {(row["layer"], row["kernel"], row["trials"]) for row in report["layers"]}
    offline = {
        (layer, kind, None)
        for kind in ("bessel", "exponential", "covariance")
        for layer in (f"kernels.kernel_{kind}", "kernels.fingerprint", "sbar.design_plan")
    }
    files = {(layer, kind, None) for kind in ("bessel", "covariance")
             for layer in ("fileio.save_plan", "fileio.load_plan")}
    online = {("channels.generate_ssc_channel", None, 1), ("channels.observe_pilots", None, 1)} | {
        (layer, kind, trials)
        for layer, kind in (("sbar.reconstruct", "bessel"), ("baselines.estimate_selmmse", None),
                            ("baselines.estimate_fas_omp", None))
        for trials in (1, 20)
    }
    assert seen == offline | files | online
    assert len(report["layers"]) == len(seen)
    # the layers that take microseconds on one round are timed in batches
    batch = report["design"]["batch_calls"]
    assert batch > 1
    batched = {("channels.observe_pilots", None, 1), ("sbar.reconstruct", "bessel", 1),
               ("baselines.estimate_selmmse", None, 1)}
    sizes = {}
    for row in report["layers"]:
        assert row["num_ports"] == 64 and row["n"] == 1
        assert row["batch"] == (batch if (row["layer"], row["kernel"], row["trials"]) in batched else 1)
        assert 0 < row["q1_s"] <= row["median_s"] <= row["q3_s"]
        if row["layer"].startswith("fileio."):
            sizes.setdefault(row["kernel"], set()).add(row["bytes"])
        else:
            assert row["bytes"] is None
    # each plan file is saved and loaded at one size; the real prior's
    # float64 weights make its file smaller than the trained prior's
    (real,), (trained,) = sizes["bessel"], sizes["covariance"]
    assert 0 < real < trained
    # one fresh-interpreter import of fasbar and its CLI, beside the layers
    imports = report["import_s"]
    assert imports["n"] == 1
    assert 0 < imports["q1_s"] <= imports["median_s"] <= imports["q3_s"]
    # and one whole `fasbar estimate` process on an N = 1024 plan
    process = report["estimate_process_s"]
    assert process["num_ports"] == 1024 and process["n"] == 1
    assert 0 < process["q1_s"] <= process["median_s"] <= process["q3_s"]
