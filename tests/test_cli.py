"""End-to-end checks of the command-line interface via main(argv)."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import fasbar.cli

from fasbar import (
    PilotObservation,
    build_port_geometry,
    design_plan,
    kernel_bessel,
    observe_ports,
    read_csv,
    reconstruct,
)
from fasbar import fileio
from fasbar.cli import main


def write_config(path, **overrides):
    doc = {
        "config_version": 1,
        "num_ports": 16,
        "antennas_per_slot": 2,
        "pilot_counts": [1, 2],
        "snr_db": [20.0],
        "trials": 2,
        "channel": {"num_clusters": 3, "rays_per_cluster": 10},
        "schemes": [{"method": "sbar", "kernel": "exponential"}, {"method": "selmmse"}],
    }
    doc.update(overrides)
    path.write_text(yaml.safe_dump(doc))
    return path


class TestDesign:
    @pytest.mark.parametrize("suffix", [".bin", ".json"])
    def test_analytic_kernel_to_plan_file(self, tmp_path, suffix, capsys):
        out = tmp_path / f"plan{suffix}"
        rc = main(
            [
                "design", "--kernel-kind", "bessel",
                "--ports", "16", "--aperture", "10.0", "--carrier-hz", "3.5e9",
                "--pilots", "2", "--antennas", "2",
                "--noise-power", "0.16", "--out", str(out),
            ]
        )
        assert rc == 0
        assert "wrote plan" in capsys.readouterr().out
        plan = fileio.load_plan(out)
        assert plan.num_ports == 16
        assert plan.num_measurements == 4

    def test_kernel_file_source_matches_library(self, tmp_path):
        geom = build_port_geometry(16, 10.0, 3.5e9)
        kernel = kernel_bessel(geom)
        kfile = tmp_path / "kernel.bin"
        fileio.save_kernel(kfile, kernel)
        out = tmp_path / "plan.bin"
        main(
            [
                "design", "--kernel-file", str(kfile),
                "--pilots", "2", "--antennas", "2",
                "--noise-power", "0.16", "--out", str(out),
            ]
        )
        expected = design_plan(kernel, 2, 2, 0.16)
        loaded = fileio.load_plan(out)
        assert loaded.order == expected.order
        assert loaded.plan_id == expected.plan_id

    def test_kernel_kind_requires_geometry_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "design", "--kernel-kind", "bessel",
                    "--pilots", "2", "--antennas", "2",
                    "--noise-power", "0.1", "--out", str(tmp_path / "p.bin"),
                ]
            )

    def test_kernel_sources_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "design", "--kernel-kind", "bessel", "--kernel-file", "x.bin",
                    "--pilots", "1", "--antennas", "1",
                    "--noise-power", "0.1", "--out", str(tmp_path / "p.bin"),
                ]
            )


class TestTrainKernel:
    def test_trains_from_config_channel_model(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml")
        out = tmp_path / "kernel.json"
        rc = main(["train-kernel", "--config", str(cfg), "--train-slots", "8", "--out", str(out)])
        assert rc == 0
        kernel = fileio.load_kernel(out)
        assert kernel.kind == "covariance"
        assert kernel.num_ports == 16
        eigs = np.linalg.eigvalsh(kernel.matrix)
        assert np.sum(eigs > 1e-6 * eigs.max()) <= 8


class TestEstimate:
    def test_matches_library_reconstruction(self, tmp_path):
        geom = build_port_geometry(16, 10.0, 3.5e9)
        kernel = kernel_bessel(geom)
        plan = design_plan(kernel, 2, 2, 0.04)
        rng = np.random.default_rng(3)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y = observe_ports(h, plan.order, 0.04, 11)
        obs = PilotObservation(y, 0.04, plan.plan_id)

        plan_file = tmp_path / "plan.bin"
        obs_file = tmp_path / "obs.json"
        out = tmp_path / "estimate.json"
        fileio.save_plan(plan_file, plan)
        fileio.save_observation(obs_file, obs)
        rc = main(["estimate", "--plan", str(plan_file), "--observation", str(obs_file), "--out", str(out)])
        assert rc == 0

        expected = reconstruct(plan, obs)
        loaded = fileio.load_estimate(out)
        assert np.array_equal(loaded.estimate, expected.estimate)
        assert np.array_equal(loaded.post_variance, expected.post_variance)


class TestSweepAndPlot:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml")
        out = tmp_path / "results.csv"
        rc = main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert "8 records" in capsys.readouterr().out
        records = read_csv(out)
        assert len(records) == 8  # 2 schemes x 2 budgets x 2 trials
        assert {r.scheme for r in records} == {"sbar", "selmmse"}

    def test_seed_flag_is_mandatory(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml")
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])

    def test_plot_renders_csv(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", trials=5)
        csv = tmp_path / "results.csv"
        main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(csv)])
        svg = tmp_path / "plot.svg"
        rc = main(["plot", "--csv", str(csv), "--out", str(svg), "--title", "demo"])
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text and "demo" in text


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])


def design_bessel_16(tmp_path, *extra):
    """One ``fasbar design`` of a 16-port Bessel plan, P = M = 2; the plan file is reread."""
    out = tmp_path / "plan.bin"
    rc = main(
        [
            "design", "--kernel-kind", "bessel",
            "--ports", "16", "--aperture", "10.0", "--carrier-hz", "3.5e9",
            "--pilots", "2", "--antennas", "2",
            "--noise-power", "0.16", "--out", str(out), *extra,
        ]
    )
    assert rc == 0
    return fileio.load_plan(out)


class TestRepeatedCalls:
    """main is called many times in one process and builds its parser once."""

    def test_options_do_not_carry_over_to_the_next_call(self, tmp_path):
        default = kernel_bessel(build_port_geometry(16, 10.0, 3.5e9))
        tuned = design_bessel_16(tmp_path, "--alpha", "2.0", "--eta", "0.5")
        plain = design_bessel_16(tmp_path)
        assert tuned.kernel_fingerprint != default.fingerprint
        assert plain.kernel_fingerprint == default.fingerprint

    def test_a_usage_error_leaves_the_next_call_working(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["design"])
        assert exc.value.code == 2
        assert design_bessel_16(tmp_path).num_measurements == 4

    def test_a_rebound_design_plan_sees_every_design_call(self, tmp_path, monkeypatch):
        design_bessel_16(tmp_path)  # the parser exists before the rebinding
        seen = []

        def recording(kernel, *args):
            seen.append(args)
            return design_plan(kernel, *args)

        monkeypatch.setattr(fasbar.cli, "design_plan", recording)
        design_bessel_16(tmp_path)
        design_bessel_16(tmp_path, "--eta", "0.5")
        assert seen == [(2, 2, 0.16)] * 2

    def test_later_calls_construct_no_parser(self, tmp_path, monkeypatch):
        plan = design_bessel_16(tmp_path)
        y = observe_ports(np.ones(16, dtype=complex), plan.order, 0.16, 11)
        fileio.save_observation(tmp_path / "obs.json", PilotObservation(y, 0.16, plan.plan_id))
        cfg = write_config(tmp_path / "cfg.yaml")
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        design_bessel_16(tmp_path)
        commands = [
            ["train-kernel", "--config", str(cfg), "--train-slots", "4", "--out", str(tmp_path / "k.bin")],
            ["estimate", "--plan", str(tmp_path / "plan.bin"), "--observation", str(tmp_path / "obs.json"),
             "--out", str(tmp_path / "est.json")],
            ["sweep", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "r.csv")],
            ["plot", "--csv", str(tmp_path / "r.csv"), "--out", str(tmp_path / "r.svg")],
        ]
        for argv in commands:
            assert main(argv) == 0
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg)])
        assert built == []


class TestConsoleEntry:
    """``python -m fasbar.cli`` reads its arguments from sys.argv, as the
    installed ``fasbar`` script does."""

    @staticmethod
    def run(*args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        return subprocess.run(
            [sys.executable, "-m", "fasbar.cli", *args], env=env, capture_output=True, text=True, timeout=120
        )

    def test_help(self):
        done = self.run("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: fasbar ")
        assert "design" in done.stdout

    def test_subcommand_help(self):
        done = self.run("design", "--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: fasbar design ")
        assert "--kernel-kind" in done.stdout

    def test_a_command_is_required(self):
        done = self.run()
        assert done.returncode == 2
        assert "usage: fasbar" in done.stderr
