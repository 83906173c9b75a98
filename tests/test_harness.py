"""Sweep harness, CSV, config, and SVG tests.

The ordering claim (planned Bayesian sampling beats equal spacing at every
pilot budget) is exercised here at a reduced size; the full-size run lives
in the acceptance suite.
"""

import re
import typing
from collections import Counter
from dataclasses import fields, replace
from xml.dom import minidom

import numpy as np
import pytest
import yaml

import fasbar.harness
from fasbar import (
    ExperimentConfig,
    SchemeSpec,
    SscModelParams,
    config_from_dict,
    emit_csv,
    emit_svg,
    load_config,
    nmse,
    read_csv,
    run_sweep,
    train_covariance_kernel,
)
from fasbar.harness import CSV_HEADER, channel_seed, derive_seed, noise_seed, ports_seed
from helpers import mean_nmse_by_point


def per_trial_records(cfg):
    """The sweep's records by one estimator call per (trial, P, scheme), each
    trial's channel and noise drawn alone, as the sweep ran before it
    stacked the trials of an SNR point; exponential sbar, selmmse, fas-omp."""
    geom = fasbar.build_port_geometry(cfg.num_ports, cfg.aperture_wavelengths, cfg.carrier_hz)
    n, m = cfg.num_ports, cfg.antennas_per_slot
    kernel = fasbar.kernel_exponential(geom)
    atoms = fasbar.build_steering_dictionary(geom)
    records = []
    for snr in cfg.snr_db:
        s2 = fasbar.noise_power_for_snr(n, snr)
        for trial in range(cfg.trials):
            seed = channel_seed(cfg.base_seed, snr, trial)
            h = fasbar.generate_ssc_channel(geom, replace(cfg.channel, rng_seed=seed)).values
            received = h + fasbar.draw_port_noise(n, s2, noise_seed(cfg.base_seed, snr, trial))
            for p in cfg.pilot_counts:
                plan = fasbar.design_plan(kernel, p, m, s2)
                obs = fasbar.PilotObservation(received[list(plan.order)], s2, plan.plan_id)
                sel = fasbar.selmmse_ports(n, p * m)
                ports = fasbar.random_ports(n, p * m, ports_seed(cfg.base_seed, p, snr, trial))
                estimates = {
                    ("sbar", "exponential"): fasbar.reconstruct(plan, obs).estimate,
                    ("selmmse", ""): fasbar.estimate_selmmse(received[sel], sel, n).values,
                    ("fas-omp", ""): fasbar.estimate_fas_omp(received[ports], ports, atoms).values,
                }
                for (scheme, kind), est in estimates.items():
                    records.append(
                        fasbar.ResultRecord(scheme, kind, n, m, p, float(snr), trial, seed, nmse(h, est), 0)
                    )
    rank = {"sbar": 0, "selmmse": 1, "fas-omp": 2}
    return sorted(records, key=lambda r: (rank[r.scheme], r.num_timeslots, r.snr_db, r.trial))


def small_config(**overrides):
    base = dict(
        num_ports=16,
        antennas_per_slot=2,
        pilot_counts=(1, 2),
        snr_db=(20.0,),
        trials=3,
        channel=SscModelParams(3, 10, 5.0),
        schemes=(SchemeSpec("sbar", kernel="exponential"), SchemeSpec("selmmse")),
        base_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestNmse:
    def test_exact_estimate_is_zero(self):
        h = np.array([1 + 1j, 2.0, -3j])
        assert nmse(h, h.copy()) == 0.0

    def test_zero_estimate_is_one(self):
        h = np.array([1 + 1j, 2.0])
        assert nmse(h, np.zeros(2)) == 1.0

    def test_error_norm_equal_to_signal_norm_is_one(self):
        assert nmse(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == 1.0

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.zeros(3), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            nmse(np.ones((2, 3)), np.ones((3, 3)))

    def test_block_rows_match_single_calls(self):
        rng = np.random.default_rng(12)
        h = rng.standard_normal((30, 256)) + 1j * rng.standard_normal((30, 256))
        hhat = h + 0.3 * (rng.standard_normal((30, 256)) + 1j * rng.standard_normal((30, 256)))
        errors = nmse(h, hhat)
        assert errors.shape == (30,)
        for error, row, row_hat in zip(errors, h, hhat):
            single = nmse(row, row_hat)
            assert isinstance(single, float)
            assert abs(error - single) <= 1e-14 * single

    def test_block_with_a_zero_truth_row_rejected(self):
        h = np.ones((3, 4), dtype=complex)
        h[1] = 0.0
        with pytest.raises(ValueError, match="zero norm"):
            nmse(h, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            nmse(np.ones((2, 2, 2)), np.ones((2, 2, 2)))


class TestSeeds:
    def test_derivation_is_deterministic_and_spread(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(1, 2, t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_streams_are_distinct(self):
        assert channel_seed(9, 20.0, 0) != noise_seed(9, 20.0, 0)

    def test_infinite_snr_has_its_own_key(self):
        assert channel_seed(9, float("inf"), 0) != channel_seed(9, 0.0, 0)


class TestConfigValidation:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            small_config(trials=0)

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("name", ["num_ports", "antennas_per_slot", "trials", "pilot_counts", "base_seed"])
    def test_counts_must_be_whole_numbers(self, name, value):
        # a bool or a fraction used to build, then fail later or run as
        # another count; base_seed=2.5 reproduced base_seed=2 record for record
        given = (1, value) if name == "pilot_counts" else value
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            small_config(**{name: given})

    def test_whole_float_counts_give_the_int_config_csv(self, tmp_path):
        exact = small_config(record_timing=False)
        floats = small_config(record_timing=False, num_ports=16.0, antennas_per_slot=2.0, pilot_counts=(1, 2.0))
        assert floats == exact
        emit_csv(run_sweep(exact), tmp_path / "int.csv")
        emit_csv(run_sweep(floats), tmp_path / "float.csv")
        assert (tmp_path / "float.csv").read_bytes() == (tmp_path / "int.csv").read_bytes()

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"pilot_counts": (1, 1)}, "pilot_counts"),
            ({"pilot_counts": (2, 1, 2.0)}, "pilot_counts"),
            ({"snr_db": (20.0, 20.0)}, "snr_db"),
            ({"snr_db": (20.0, 30.0, 20)}, "snr_db"),
            # one _snr_key, so the same channel and noise seeds
            ({"snr_db": (20.0, 20.0000001)}, "snr_db"),
            ({"snr_db": (float("inf"), np.inf)}, "snr_db"),
        ],
    )
    def test_repeated_points_rejected(self, overrides, name):
        # each ran and wrote every record of the repeated point twice
        with pytest.raises(ValueError, match=f"{name} must not repeat"):
            small_config(**overrides)

    @pytest.mark.parametrize("value", [float("nan"), True, -np.inf, "20"])
    def test_snr_points_follow_the_noise_power_rule(self, value):
        # NaN and True built the config and failed only inside run_sweep
        with pytest.raises(ValueError, match="snr_db must be a finite number"):
            small_config(snr_db=(20.0, value))

    def test_snr_points_are_stored_as_floats(self):
        cfg = small_config(snr_db=[20, np.float64(30.0), np.inf])
        assert cfg.snr_db == (20.0, 30.0, np.inf)
        assert all(type(s) is float for s in cfg.snr_db)

    def test_budget_cannot_exceed_ports(self):
        with pytest.raises(ValueError):
            small_config(pilot_counts=(9,))  # 9 slots * 2 ports > 16

    def test_duplicate_scheme_identity_rejected(self):
        # an eta sweep of two bessel schemes would share one CSV label
        twins = (SchemeSpec("sbar", kernel="bessel", eta=0.2), SchemeSpec("sbar", kernel="bessel", eta=0.8))
        with pytest.raises(ValueError, match="'sbar'.*'bessel'"):
            small_config(schemes=twins)
        with pytest.raises(ValueError, match="fas-omp"):
            small_config(schemes=(SchemeSpec("fas-omp"), SchemeSpec("fas-omp", max_atoms=4)))

    def test_unknown_scheme_method_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec("lmmse")
        with pytest.raises(ValueError):
            SchemeSpec("sbar", kernel="gaussian")

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"max_atoms": 0}, "max_atoms must be at least 1"),
            ({"max_atoms": 2.5}, "max_atoms must be a whole number"),
            ({"dict_oversampling": 0}, "dict_oversampling must be at least 1"),
            ({"dict_oversampling": True}, "dict_oversampling must be a whole number"),
            ({"train_timeslots": -3}, "train_timeslots must be at least 1"),
            ({"residual_tol": float("nan")}, "residual_tol must be a finite number"),
            ({"residual_tol": -1e-3}, "residual_tol must be nonnegative"),
            ({"alpha": 0.0}, "alpha must be positive"),
            ({"alpha": float("inf")}, "alpha must be a finite number"),
            ({"eta": -1}, "eta must be positive"),
            ({"eta": float("nan")}, "eta must be a finite number"),
            ({"eta": True}, "eta must be a finite number"),
        ],
    )
    @pytest.mark.parametrize("method", ["fas-omp", "selmmse"])
    def test_scheme_numbers_are_judged_when_built(self, method, changes, match):
        # max_atoms=0 built and failed only after channel synthesis; eta=-1 and a NaN
        # tolerance built too.  A field is judged whatever the method reads
        with pytest.raises(ValueError, match=match):
            SchemeSpec(method, **changes)

    def test_scheme_numbers_are_stored_normalized(self):
        spec = SchemeSpec(
            "sbar", "bessel", alpha=2, eta=np.float64(0.25), train_timeslots=5.0, max_atoms=np.int64(4),
            residual_tol=0, dict_oversampling=2.0,
        )
        numbers = ("alpha", "eta", "train_timeslots", "max_atoms", "residual_tol", "dict_oversampling")
        assert [getattr(spec, name) for name in numbers] == [2.0, 0.25, 5, 4, 0.0, 2]
        assert [type(getattr(spec, name)) for name in numbers] == [float, float, int, int, float, int]
        assert SchemeSpec("fas-omp").eta is None

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"num_ports": 1, "antennas_per_slot": 1, "pilot_counts": (1,)}, "num_ports"),
            ({"aperture_wavelengths": 0.0}, "aperture_in_wavelengths"),
            ({"aperture_wavelengths": True}, "aperture_in_wavelengths"),
            ({"carrier_hz": -3.5e9}, "carrier_hz"),
            ({"carrier_hz": float("inf")}, "carrier_hz"),
        ],
    )
    def test_geometry_numbers_are_judged_when_built(self, overrides, name):
        # each built a config that failed only inside run_sweep
        with pytest.raises(ValueError, match=name):
            small_config(**overrides)


class TestRunSweep:
    def test_noiseless_full_sampling_recovers(self):
        cfg = small_config(
            num_ports=16,
            antennas_per_slot=4,
            pilot_counts=(4,),
            snr_db=(float("inf"),),
            trials=1,
            schemes=(SchemeSpec("sbar", kernel="exponential"),),
        )
        records = run_sweep(cfg)
        assert len(records) == 1
        assert records[0].nmse < 1e-8

    def test_records_are_deterministic(self):
        cfg = small_config(record_timing=False)
        assert run_sweep(cfg) == run_sweep(cfg)

    @staticmethod
    def _count_passes(monkeypatch):
        """(kernel fingerprint, M, noise power, pilot counts) of every greedy
        pass the sweep runs, in call order."""
        passes = []
        original = fasbar.harness._design_plans

        def counted(kernel, pilot_counts, antennas_per_slot, noise_power):
            passes.append((kernel.fingerprint, antennas_per_slot, noise_power, tuple(pilot_counts)))
            return original(kernel, pilot_counts, antennas_per_slot, noise_power)

        monkeypatch.setattr(fasbar.harness, "_design_plans", counted)
        return passes

    def test_plan_cache_does_not_change_results(self, monkeypatch):
        cfg = small_config(
            record_timing=False,
            pilot_counts=(2, 1, 3),
            snr_db=(10.0, 20.0),
            schemes=(SchemeSpec("sbar", kernel="exponential"), SchemeSpec("sbar", kernel="bessel")),
        )
        passes = self._count_passes(monkeypatch)
        cache = {}
        cold = run_sweep(cfg, plan_cache=cache)
        # a cold cache makes one pass per (kernel, M, noise) over every budget
        assert len(passes) == len({pass_[:3] for pass_ in passes}) == 2 * 2
        assert {counts for *_, counts in passes} == {cfg.pilot_counts}
        assert len(cache) == 2 * 2 * 3
        geom = fasbar.build_port_geometry(cfg.num_ports, cfg.aperture_wavelengths, cfg.carrier_hz)
        kernels = {k.fingerprint: k for k in (fasbar.kernel_exponential(geom), fasbar.kernel_bessel(geom))}
        for (fingerprint, p, m, noise_power), plan in cache.items():
            lone = fasbar.design_plan(kernels[fingerprint], p, m, noise_power)
            assert plan.plan_id == lone.plan_id
            assert plan.weights.tobytes() == lone.weights.tobytes()
            assert plan.post_diag.tobytes() == lone.post_diag.tobytes()
        passes.clear()
        assert run_sweep(cfg, plan_cache=cache) == cold
        assert passes == []
        assert run_sweep(cfg) == cold
        assert len(passes) == 2 * 2

    def test_pass_designs_only_the_budgets_the_cache_lacks(self, monkeypatch):
        cfg = small_config(record_timing=False)
        full = {}
        cold = run_sweep(cfg, plan_cache=full)
        cache = {key: plan for key, plan in full.items() if key[1] == 1}
        passes = self._count_passes(monkeypatch)
        assert run_sweep(cfg, plan_cache=cache) == cold
        assert [counts for *_, counts in passes] == [(2,)]
        assert cache.keys() == full.keys()
        for key, plan in cache.items():
            assert plan.plan_id == full[key].plan_id

    def test_channel_seed_shared_across_schemes_and_budgets(self):
        records = run_sweep(small_config())
        by_trial = {}
        for r in records:
            by_trial.setdefault(r.trial, set()).add(r.seed)
        for seeds in by_trial.values():
            assert len(seeds) == 1  # paired draws: same channel everywhere

    def test_each_trial_draws_one_channel_and_one_noise_vector(self, monkeypatch):
        calls = Counter()

        def counted(name):
            original = getattr(fasbar.harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(fasbar.harness, name, wrapper)

        counted("generate_ssc_channel")
        counted("draw_port_noise")
        cfg = small_config(
            pilot_counts=(1, 2, 3),
            snr_db=(10.0, 20.0),
            trials=4,
            schemes=(
                SchemeSpec("sbar", kernel="covariance", train_timeslots=5),
                SchemeSpec("selmmse"),
                SchemeSpec("fas-omp"),
            ),
        )
        run_sweep(cfg)
        evaluations = len(cfg.snr_db) * cfg.trials
        assert calls["generate_ssc_channel"] == evaluations + 5  # plus the training ensemble
        assert calls["draw_port_noise"] == evaluations

    def test_records_match_per_trial_estimator_calls(self):
        cfg = small_config(
            num_ports=64,
            antennas_per_slot=4,
            pilot_counts=(1, 3, 5),
            snr_db=(5.0, 20.0),
            trials=6,
            schemes=(SchemeSpec("sbar", kernel="exponential"), SchemeSpec("selmmse"), SchemeSpec("fas-omp")),
            record_timing=False,
        )
        records, reference = run_sweep(cfg), per_trial_records(cfg)
        assert [replace(r, nmse=0.0) for r in records] == [replace(r, nmse=0.0) for r in reference]
        for r, ref in zip(records, reference):
            assert abs(r.nmse - ref.nmse) <= 1e-12 * ref.nmse

    def test_every_scheme_estimates_each_point_as_one_block(self, monkeypatch):
        calls = Counter()

        def counted(name):
            original = getattr(fasbar.harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(fasbar.harness, name, wrapper)

        for name in ("reconstruct", "estimate_selmmse", "estimate_fas_omp", "nmse"):
            counted(name)
        cfg = small_config(
            pilot_counts=(1, 2, 3),
            snr_db=(10.0, 20.0),
            trials=4,
            schemes=(
                SchemeSpec("sbar", kernel="exponential"),
                SchemeSpec("sbar", kernel="bessel"),
                SchemeSpec("selmmse"),
                SchemeSpec("fas-omp"),
            ),
        )
        records = run_sweep(cfg)
        points = len(cfg.pilot_counts) * len(cfg.snr_db)
        assert calls["reconstruct"] == 2 * points
        assert calls["estimate_selmmse"] == points
        assert calls["estimate_fas_omp"] == points
        assert calls["nmse"] == 4 * points
        assert len(records) == 4 * points * cfg.trials

    def test_pilot_budgets_see_the_same_channels_and_noise(self):
        # common random numbers: a joint sweep holds exactly the single-budget records
        cfg = small_config(
            num_ports=32,
            pilot_counts=(2, 6),
            schemes=(SchemeSpec("sbar", kernel="exponential"), SchemeSpec("selmmse"), SchemeSpec("fas-omp")),
            record_timing=False,
        )
        joint = run_sweep(cfg)
        single = [r for p in cfg.pilot_counts for r in run_sweep(replace(cfg, pilot_counts=(p,)))]
        key = lambda r: (r.scheme, r.kernel_kind, r.num_timeslots, r.snr_db, r.trial)
        assert sorted(joint, key=key) == sorted(single, key=key)

    def test_canonical_record_order(self):
        records = run_sweep(small_config())
        labels = [(r.scheme, r.num_timeslots, r.trial) for r in records]
        expect = [
            (s, p, t) for s in ("sbar", "selmmse") for p in (1, 2) for t in range(3)
        ]
        assert labels == expect

    @pytest.mark.parametrize(
        "overrides, name",
        [
            (lambda: {"aperture_wavelengths": float("nan")}, "aperture_in_wavelengths"),
            (lambda: {"snr_db": (float("nan"),)}, "snr_db"),
            (lambda: {"schemes": (SchemeSpec("sbar", kernel="covariance", train_timeslots=2.5),)}, "train_timeslots"),
        ],
        ids=["aperture-nan", "snr-nan", "train-fraction"],
    )
    def test_bad_number_fails_the_sweep_naming_it(self, overrides, name):
        # a NaN aperture gave NaN for every record, a NaN SNR failed inside the seed key,
        # and 2.5 training timeslots trained on 2; the config or its scheme now refuses
        # each when it is built, so the overrides are made inside the test
        with pytest.raises(ValueError, match=name):
            run_sweep(small_config(**overrides()))

    def test_timing_toggle(self):
        cfg = small_config(record_timing=False)
        assert all(r.wall_time_stage2_ns == 0 for r in run_sweep(cfg))

    def test_planned_sampling_beats_equal_spacing(self):
        # reduced-size ordering check: bessel-planned vs nearest-hold
        cfg = ExperimentConfig(
            num_ports=64,
            antennas_per_slot=4,
            pilot_counts=tuple(range(1, 9)),
            snr_db=(20.0,),
            trials=200,
            channel=SscModelParams(9, 100, 5.0),
            schemes=(SchemeSpec("sbar", kernel="bessel"), SchemeSpec("selmmse")),
            base_seed=424242,
        )
        records = run_sweep(cfg)
        sbar = mean_nmse_by_point(records, scheme="sbar")
        selmmse = mean_nmse_by_point(records, scheme="selmmse")
        for p in range(1, 9):
            assert sbar[(p, 20.0)] < selmmse[(p, 20.0)]


class TestTrainedKernel:
    def test_training_uses_dedicated_stream(self):
        cfg = small_config()
        k = train_covariance_kernel(cfg, 8)
        assert k.kind == "covariance"
        assert k.matrix.shape == (16, 16)
        eigs = np.linalg.eigvalsh(k.matrix)
        assert np.sum(eigs > 1e-6 * eigs.max()) <= 8

    def test_base_seed_controls_the_ensemble(self):
        a = train_covariance_kernel(small_config(base_seed=5), 2)
        b = train_covariance_kernel(small_config(base_seed=5), 2)
        c = train_covariance_kernel(small_config(base_seed=7), 2)
        assert a.fingerprint == b.fingerprint != c.fingerprint

    @pytest.mark.parametrize("count", [2.5, True])
    def test_training_count_must_be_a_whole_number(self, count):
        # int() trained on 2 channels for 2.5 and on 1 for True
        with pytest.raises(ValueError, match="train_timeslots must be a whole number"):
            train_covariance_kernel(small_config(), count)


class TestCsv:
    def test_header_and_round_trip(self, tmp_path):
        records = run_sweep(small_config())
        path = tmp_path / "out.csv"
        emit_csv(records, path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert read_csv(path) == records

    def test_emission_is_byte_stable(self, tmp_path):
        records = run_sweep(small_config(record_timing=False))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(records, a)
        emit_csv(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_row_with_missing_field_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(CSV_HEADER + "\nsbar,bessel,16,2,1,20.0,0,7,0.5\n")
        with pytest.raises(ValueError, match="fields"):
            read_csv(path)


class TestConfigFile:
    def test_yaml_round_trip(self, tmp_path):
        doc = {
            "config_version": 1,
            "num_ports": 32,
            "antennas_per_slot": 2,
            "pilot_counts": [1, 2, 4],
            "snr_db": [10.0, 20.0],
            "trials": 2,
            "base_seed": 7,
            "channel": {"num_clusters": 3, "rays_per_cluster": 10},
            "schemes": [
                {"method": "sbar", "kernel": "bessel"},
                {"method": "fas-omp", "max_atoms": 4},
            ],
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        assert cfg.num_ports == 32
        assert cfg.pilot_counts == (1, 2, 4)
        assert cfg.schemes[1].max_atoms == 4
        assert cfg.channel.num_clusters == 3

    def test_seed_override(self, tmp_path):
        doc = {
            "config_version": 1,
            "num_ports": 16,
            "antennas_per_slot": 2,
            "pilot_counts": [1],
            "snr_db": [20.0],
            "trials": 1,
            "schemes": [{"method": "selmmse"}],
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert load_config(path, seed_override=123).base_seed == 123
        # the override is a base_seed value like any other, not cast by int()
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="base_seed"):
                load_config(path, seed_override=bad)

    def test_unsigned_exponents_load_as_numbers(self, tmp_path):
        # YAML 1.1 resolves 3.5e9 / 1e-3 (no exponent sign) as strings
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "config_version: 1\n"
            "num_ports: 16\n"
            "antennas_per_slot: 2\n"
            "pilot_counts: [1]\n"
            "snr_db: [20.0]\n"
            "trials: 1\n"
            "carrier_hz: 3.5e9\n"
            "schemes:\n"
            "  - method: fas-omp\n"
            "    residual_tol: 1e-3\n"
        )
        cfg = load_config(path)
        assert cfg.carrier_hz == 3.5e9
        assert cfg.schemes[0].residual_tol == 1e-3

    def test_non_numeric_field_fails_loudly(self):
        doc = {
            "config_version": 1,
            "trials": "plenty",
            "schemes": [{"method": "selmmse"}],
        }
        with pytest.raises(ValueError):
            config_from_dict(doc)

    def test_version_is_mandatory(self):
        with pytest.raises(ValueError):
            config_from_dict({"schemes": [{"method": "selmmse"}]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict(
                {"config_version": 1, "schemes": [{"method": "selmmse"}], "n_ports": 4}
            )

    @pytest.mark.parametrize(
        "entry, key",
        [
            ({"schemes": [{"method": "sbar", "kernel": "bessel", "bessel_order": 0}]}, "bessel_order"),
            ({"schemes": [{"method": "fas-omp", "max_atom": 4}]}, "max_atom"),
            ({"schemes": [{"method": "selmmse"}], "channel": {"num_cluster": 3}}, "num_cluster"),
        ],
        ids=["removed-bessel-order", "scheme-typo", "channel-typo"],
    )
    def test_unknown_nested_keys_are_named(self, entry, key):
        with pytest.raises(ValueError, match=key):
            config_from_dict({"config_version": 1, **entry})

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"trials": 2.5}, "trials"),
            ({"pilot_counts": [1.5]}, "pilot_counts"),
            ({"schemes": [{"method": "fas-omp", "max_atoms": 4.7}]}, "max_atoms"),
            ({"num_ports": None}, "num_ports"),
            ({"channel": None}, "channel"),
            ({"record_timing": None}, "record_timing"),
            ({"channel": [3, 10]}, "channel: .*mapping"),
            ({"schemes": ["selmmse"]}, "schemes: .*mapping"),
            ({"schemes": None}, "schemes"),
            ({"schemes": [{"max_atoms": 4}]}, "method"),
            ({"trials": True}, "trials: true or false is not allowed"),
            ({"pilot_counts": [True]}, "pilot_counts: true or false is not allowed"),
            ({"aperture_wavelengths": False}, "aperture_wavelengths: true or false is not allowed"),
            ({"schemes": [{"method": "sbar", "kernel": "bessel", "eta": True}]}, "eta: true or false is not allowed"),
            ({"record_timing": "false"}, "record_timing: true or false is required"),
            ({"schemes": [{"method": "selmmse", "kernel": None}]}, "kernel: null"),
            ({"schemes": [{"method": "selmmse", "kernel": True}]}, "kernel: true or false is not allowed"),
        ],
        ids=[
            "fractional-int",
            "fractional-int-element",
            "fractional-scheme-int",
            "null-int",
            "null-channel",
            "null-bool",
            "channel-not-a-mapping",
            "scheme-not-a-mapping",
            "null-schemes",
            "scheme-without-method",
            "bool-for-int",
            "bool-for-int-element",
            "bool-for-float",
            "bool-for-optional-float",
            "string-for-bool",
            "null-str",
            "bool-for-str",
        ],
    )
    def test_value_that_does_not_fit_its_field_is_named(self, entry, field):
        doc = {"config_version": 1, "schemes": [{"method": "selmmse"}], **entry}
        with pytest.raises(ValueError, match=field):
            config_from_dict(doc)

    def test_schemes_are_required(self):
        with pytest.raises(ValueError, match="schemes"):
            config_from_dict({"config_version": 1, "num_ports": 16})


# one valid value for every field of a config document, keyed by dataclass
_CONFIG_NUMBERS = {
    ExperimentConfig: dict(
        num_ports=32,
        antennas_per_slot=2,
        pilot_counts=[1, 2],
        snr_db=[10.0, 20.5],
        trials=2,
        carrier_hz=3.5e9,
        aperture_wavelengths=8.0,
        base_seed=7,
    ),
    SscModelParams: dict(num_clusters=3, rays_per_cluster=10, angle_spread_deg=2.5, rng_seed=5),
    SchemeSpec: dict(
        alpha=0.5,
        eta=0.25,
        train_timeslots=6,
        max_atoms=4,
        residual_tol=1e-4,
        dict_oversampling=2,
    ),
}


def _mentions_number(hint):
    return hint in (int, float) or any(_mentions_number(a) for a in typing.get_args(hint))


def _numeric_fields():
    for cls in _CONFIG_NUMBERS:
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if _mentions_number(hints[f.name]):
                yield pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")


def _config_doc(numbers):
    doc = {"config_version": 1, **numbers[ExperimentConfig]}
    doc["channel"] = dict(numbers[SscModelParams])
    doc["schemes"] = [{"method": "sbar", "kernel": "bessel", **numbers[SchemeSpec]}]
    return doc


@pytest.mark.parametrize("cls, name", list(_numeric_fields()))
def test_every_numeric_field_accepts_a_numeric_string(cls, name):
    numbers = {c: dict(v) for c, v in _CONFIG_NUMBERS.items()}
    value = numbers[cls][name]  # a KeyError here means a new field lacks a sample value
    numbers[cls][name] = [str(v) for v in value] if isinstance(value, list) else str(value)
    expected = config_from_dict(_config_doc(_CONFIG_NUMBERS))
    cfg = config_from_dict(_config_doc(numbers))
    assert cfg == expected
    assert repr(cfg) == repr(expected)  # 2 == 2.0, so compare the types too


class TestSvg:
    def test_series_points_follow_the_data(self, tmp_path):
        records = run_sweep(
            small_config(pilot_counts=(1, 2, 4, 8), trials=20, record_timing=False)
        )
        path = tmp_path / "plot.svg"
        emit_svg(records, path)
        text = path.read_text()
        polylines = re.findall(r'<polyline points="([^"]+)"', text)
        assert len(polylines) == 2  # sbar and selmmse series
        # series are emitted in sorted label order: sbar first
        pts = [tuple(map(float, pair.split(","))) for pair in polylines[0].split()]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        assert xs == sorted(xs)
        # sbar mean NMSE improves with more pilots: log-scale y moves down the
        # page, i.e. pixel y grows
        sbar_means = mean_nmse_by_point(records, scheme="sbar")
        means = [sbar_means[(p, 20.0)] for p in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(means, means[1:]))
        assert all(a < b for a, b in zip(ys, ys[1:]))

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], tmp_path / "x.svg")

    def test_output_is_byte_stable(self, tmp_path):
        records = run_sweep(small_config(record_timing=False))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(records, a)
        emit_svg(records, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("title", ["NMSE & P", "a <b> c", "x > 1 && y < 2"])
    def test_markup_in_a_title_or_label_is_escaped(self, tmp_path, title):
        # the title and the labels went into the text nodes as given, so
        # "&" or "<" made a file that no XML parser reads
        records = run_sweep(small_config(record_timing=False))
        records = [replace(r, scheme=f"{r.scheme} <&>") for r in records]
        path = tmp_path / "plot.svg"
        emit_svg(records, path, title=title)
        texts = [
            "".join(child.data for child in node.childNodes)
            for node in minidom.parse(str(path)).getElementsByTagName("text")
        ]
        assert texts[0] == title
        assert {"sbar <&> (exponential)", "selmmse <&>"} <= set(texts)
