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
    env = report["env"]
    assert {"numpy", "scipy", "python", "git_sha"} <= set(env)
    # whether the tracked files differ from the commit git_sha names; null
    # only outside a git checkout
    if (SCRIPT.parents[1] / ".git").exists():
        assert isinstance(env["git_dirty"], bool)
    else:
        assert env["git_dirty"] is None
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
    # once, not per N: emit_csv on the records of the 500-trial acceptance sweep
    emit = {("harness.emit_csv", None, 500)}
    assert seen == offline | files | online | emit
    assert len(report["layers"]) == len(seen)
    # the layers that take microseconds on one round are timed in batches
    batch = report["design"]["batch_calls"]
    assert batch > 1
    batched = {("channels.observe_pilots", None, 1), ("sbar.reconstruct", "bessel", 1),
               ("baselines.estimate_selmmse", None, 1)}
    sizes = {}
    for row in report["layers"]:
        assert row["num_ports"] == (256 if row["layer"] == "harness.emit_csv" else 64) and row["n"] == 1
        assert row["batch"] == (batch if (row["layer"], row["kernel"], row["trials"]) in batched else 1)
        assert 0 < row["q1_s"] <= row["median_s"] <= row["q3_s"]
        if row["layer"].startswith("fileio.") or row["layer"] == "harness.emit_csv":
            sizes.setdefault(row["kernel"], set()).add(row["bytes"])
        else:
            assert row["bytes"] is None
    # each plan file is saved and loaded at one size; the real prior's
    # float64 weights make its file smaller than the trained prior's
    (real,), (trained,) = sizes["bessel"], sizes["covariance"]
    assert 0 < real < trained
    # the CSV holds a header and one line per record: 4 schemes x 10 P x 500 trials
    (csv,) = sizes[None]
    assert csv > 20_000 * len("sbar,bessel,")
    # one sample of the fixed numpy loop per repeat, so a slowed machine shows
    calibration = report["calibration_s"]
    assert calibration["loops"] > 0 and calibration["n"] == 1
    assert 0 < calibration["q1_s"] <= calibration["median_s"] <= calibration["q3_s"]
    # the wall time of the acceptance sweep whose records emit_csv writes
    sweep = report["acceptance_sweep_s"]
    assert (sweep["num_ports"], sweep["trials"], sweep["n"]) == (256, 500, 1)
    assert 0 < sweep["q1_s"] == sweep["median_s"] == sweep["q3_s"]
    # one fresh-interpreter import of fasbar and its CLI, beside the layers
    imports = report["import_s"]
    assert imports["n"] == 1
    assert 0 < imports["q1_s"] <= imports["median_s"] <= imports["q3_s"]
    # and one whole `fasbar design` and one `fasbar estimate` process at N = 1024
    for key in ("design_process_s", "estimate_process_s"):
        process = report[key]
        assert process["num_ports"] == 1024 and process["n"] == 1
        assert 0 < process["q1_s"] <= process["median_s"] <= process["q3_s"]
