"""Which modules a fasbar process loads, checked in fresh interpreters.

fasbar computes with numpy alone: the Bessel kernel evaluates J_0 itself,
a design inverts its K x K factor with ``np.linalg.inv`` and fas-omp takes
its coefficients from the R^-1 its pursuit keeps, so no fasbar process
loads scipy.  PyYAML is imported inside ``load_config``, the one call that
uses it, so a process that designs, sweeps, loads a plan, observes,
reconstructs, runs an estimator or plots does not load it either.  The
test process itself may hold both, so each case runs in a subprocess and
reports the ``sys.modules`` it ends with.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

from fasbar import (
    PilotObservation,
    build_port_geometry,
    config_from_dict,
    design_plan,
    emit_csv,
    kernel_bessel,
    observe_ports,
    run_sweep,
    save_observation,
    save_plan,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: prints the loaded modules that are scipy, scipy.* or yaml, as JSON
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m in ("scipy", "yaml") or m.startswith("scipy."))))
"""


def run_fresh(code, *args):
    """The JSON that ``code`` prints last, run in a fresh interpreter with
    ``args`` as sys.argv[1:]."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(code, *args):
    """The scipy and yaml modules loaded once ``code`` has run in a fresh
    interpreter with ``args`` as sys.argv[1:]."""
    return run_fresh(code + REPORT, *args)


ONLINE = """
import sys
import numpy as np
import fasbar, fasbar.cli

plan_file, obs_file, csv_file, out_dir = sys.argv[1:]
plan = fasbar.load_plan(plan_file)
geom = fasbar.build_port_geometry(plan.num_ports, 10.0, 3.5e9)
channel = fasbar.generate_ssc_channel(geom, fasbar.SscModelParams(rng_seed=3))
obs = fasbar.observe_pilots(channel, plan, 0.64, 5)
fasbar.reconstruct(plan, obs)
ports = fasbar.selmmse_ports(plan.num_ports, plan.num_measurements)
fasbar.estimate_selmmse(channel.values[ports], ports, plan.num_ports)
fasbar.cli.main(["estimate", "--plan", plan_file, "--observation", obs_file, "--out", out_dir + "/est.json"])
fasbar.cli.main(["plot", "--csv", csv_file, "--out", out_dir + "/nmse.svg"])
"""


def test_an_online_process_loads_neither_scipy_nor_yaml(tmp_path):
    # every fasbar process paid ~0.2 s for scipy at import, 0.17 s of it in
    # scipy's array-API shim, even to apply one precomputed linear map
    geom = build_port_geometry(64, 10.0, 3.5e9)
    plan = design_plan(kernel_bessel(geom), 4, 4, 0.64)
    save_plan(tmp_path / "plan.bin", plan)
    y = observe_ports(np.ones(64, dtype=complex), plan.order, 0.64, 7)
    save_observation(tmp_path / "obs.json", PilotObservation(y, 0.64, plan.plan_id))
    config = config_from_dict({
        "config_version": 1, "num_ports": 16, "antennas_per_slot": 2, "pilot_counts": [1, 2],
        "snr_db": [20.0], "trials": 2, "schemes": [{"method": "selmmse"}],
    })
    emit_csv(run_sweep(config), tmp_path / "nmse.csv")
    loaded = loaded_after(ONLINE, tmp_path / "plan.bin", tmp_path / "obs.json", tmp_path / "nmse.csv", tmp_path)
    assert loaded == []
    assert (tmp_path / "est.json").exists() and (tmp_path / "nmse.svg").exists()


REWRITE = """
import json, sys
import fasbar, fasbar.cli

plan_file, csv_file = sys.argv[1:]
geom = fasbar.build_port_geometry(32, 10.0, 3.5e9)
plan = fasbar.design_plan(fasbar.kernel_bessel(geom), 2, 2, 0.32)
records = fasbar.run_sweep(fasbar.config_from_dict({
    "config_version": 1, "num_ports": 16, "antennas_per_slot": 2, "pilot_counts": [1],
    "snr_db": [20.0], "trials": 1, "schemes": [{"method": "selmmse"}],
}))
before = set(sys.modules)
fasbar.save_plan(plan_file, plan)
fasbar.emit_csv(records, csv_file)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_rewriting_a_plan_and_a_csv_loads_no_module(tmp_path):
    # a module imported on first write would land inside a timed design
    # call, or in the set-up that saves the online plan
    (tmp_path / "plan.bin").write_bytes(b"old plan")
    (tmp_path / "nmse.csv").write_bytes(b"old csv")
    assert run_fresh(REWRITE, tmp_path / "plan.bin", tmp_path / "nmse.csv") == []
    assert sorted(os.listdir(tmp_path)) == ["nmse.csv", "plan.bin"]


OFFLINE = """
import numpy as np
import fasbar

geom = fasbar.build_port_geometry(32, 10.0, 3.5e9)
fasbar.design_plan(fasbar.kernel_bessel(geom), 2, 2, 0.32)
ports = fasbar.random_ports(32, 8, 1)
fasbar.estimate_fas_omp(np.ones(8, dtype=complex), ports, fasbar.build_steering_dictionary(geom))
# the four schemes of the acceptance sweep, at a small size
fasbar.run_sweep(fasbar.config_from_dict({
    "config_version": 1, "num_ports": 32, "antennas_per_slot": 2, "pilot_counts": [1, 2],
    "snr_db": [20.0], "trials": 2, "schemes": [
        {"method": "sbar", "kernel": "bessel"},
        {"method": "sbar", "kernel": "covariance", "train_timeslots": 10},
        {"method": "selmmse"},
        {"method": "fas-omp"},
    ],
}))
"""


def test_design_fit_and_sweep_load_neither_scipy_nor_yaml():
    # a design and a fas-omp fit each loaded scipy.linalg for one LAPACK
    # triangular solve, ~0.2 s of import for a K x K system
    assert loaded_after(OFFLINE) == []


def test_a_config_file_loads_yaml_and_no_scipy(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"config_version": 1, "schemes": [{"method": "selmmse"}]}))
    code = """
import sys
import fasbar
assert "yaml" not in sys.modules
fasbar.load_config(sys.argv[1])
"""
    assert loaded_after(code, path) == ["yaml"]
