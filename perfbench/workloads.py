"""The three benchmark workloads and the loop that times them.

Every workload is a closed loop with one caller: fasbar is a library its
caller invokes synchronously, so the next operation starts when the last
one has returned.  A workload builds its inputs from the seed alone, hands
fasbar only those inputs, and checks every output it times.  Calls go
through the ``fasbar`` package namespace, so the tracer sees them.

    sweep-accept  one operation = run_sweep + emit_csv on the acceptance
                  config (N=256, M=4, P=1..10, 20 dB, four schemes) with a
                  reduced trial count
    design-n1024  one operation = one in-process ``fasbar design`` call at
                  N=1024; the calls cycle through bessel/exponential kernels
                  and P*M in {20, 40}
    online-n1024  one operation = one pilot round against a reloaded N=1024
                  bessel plan: observe_pilots, reconstruct, estimate_selmmse,
                  and estimate_fas_omp on every OMP_EVERY-th round
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import scipy

import fasbar
import fasbar.cli
from fasbar.baselines import RankDeficientFitWarning

from perfbench.tracing import Tracer, summarize

#: set-ups per untraced run; setup_s reports their median
SETUP_REPS = 3
SNR_DB = 20.0
CARRIER_HZ = 3.5e9
ANTENNAS = 4
ONLINE_PILOTS = 10
OMP_EVERY = 10
#: online rounds between direct posterior-mean solves
CHECK_EVERY = 50
CHANNEL_POOL = 8
#: posterior variances may exceed the prior by rounding only (as in criterion 7)
VARIANCE_RISE_TOL = 1e-10
DIRECT_SOLVE_RTOL = 1e-9

clock = time.perf_counter_ns


def _noise_power(num_ports):
    # E||h||^2 = N for the clustered model, so SNR = N / sigma^2
    return num_ports / 10.0 ** (SNR_DB / 10.0)


class Workload:
    """One operation per ``step``; ``check`` returns the problems it found."""

    #: steps that make one representative block; runs stop on whole cycles
    #: and traced runs alternate whole cycles
    cycle = 1

    def __init__(self, seed, out_dir):
        self.seed = int(seed)
        self.out_dir = out_dir
        self.counts = Counter()

    def setup(self):
        pass

    def hooks(self):
        return contextlib.nullcontext()


class SweepAccept(Workload):
    name = "sweep-accept"

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        self.trials, self.train_timeslots = (2, 10) if tiny else (20, 100)
        self.nmse_p10 = defaultdict(list)
        self.csv_sha256 = None

    def setup(self):
        self.config = fasbar.ExperimentConfig(
            num_ports=256,
            antennas_per_slot=ANTENNAS,
            pilot_counts=tuple(range(1, 11)),
            snr_db=(SNR_DB,),
            trials=self.trials,
            channel=fasbar.SscModelParams(9, 100, 5.0),
            schemes=(
                fasbar.SchemeSpec("sbar", kernel="bessel"),
                fasbar.SchemeSpec("sbar", kernel="covariance", train_timeslots=self.train_timeslots),
                fasbar.SchemeSpec("selmmse"),
                fasbar.SchemeSpec("fas-omp"),
            ),
            base_seed=self.seed,
            record_timing=False,
        )

    def step(self, i):
        config = replace(self.config, base_seed=self.seed * 100_000 + i)
        path = os.path.join(self.out_dir, f"sweep-accept-{self.seed}-{i}.csv")
        plan_cache = {}
        start = clock()
        records = fasbar.run_sweep(config, plan_cache=plan_cache)
        fasbar.emit_csv(records, path)
        return len(records), {"op": [clock() - start]}, (i, config, records, path, plan_cache)

    def check(self, out):
        i, config, records, path, plan_cache = out
        problems = []
        expected = len(config.schemes) * len(config.pilot_counts) * len(config.snr_db) * config.trials
        if len(records) != expected:
            problems.append(f"{len(records)} records, expected {expected}")
        if not all(np.isfinite(r.nmse) for r in records):
            problems.append("non-finite NMSE")
        p10 = defaultdict(list)
        for r in records:
            if r.num_timeslots == 10:
                p10[f"{r.scheme}-{r.kernel_kind}" if r.kernel_kind else r.scheme].append(r.nmse)
        means = {k: float(np.mean(v)) for k, v in p10.items()}
        if not means["sbar-bessel"] < min(means["selmmse"], means["fas-omp"]):
            problems.append(f"sbar-bessel not below both baselines at P=10: {means}")
        if fasbar.read_csv(path) != records:
            problems.append("read_csv(emit_csv(records)) does not round-trip")
        for k, v in p10.items():
            self.nmse_p10[k].extend(v)
        sbar_records = sum(r.scheme == "sbar" for r in records)
        self.counts["plan_cache.misses"] += len(plan_cache)
        self.counts["plan_cache.hits"] += sbar_records - len(plan_cache)
        if i == 0:
            # timing column is zeroed, so these bytes depend on the seed alone
            with open(path, "rb") as fh:
                self.csv_sha256 = hashlib.sha256(fh.read()).hexdigest()
        else:
            os.remove(path)
        return problems

    def detail(self, phase):
        return {
            "sweep_records_per_s": {"value": phase.items_per_s, "unit": "1/s", "n": phase.steps},
            **{
                f"nmse_p10.{k}": {"value": float(np.mean(v)), "unit": "ratio", "n": len(v)}
                for k, v in self.nmse_p10.items()
            },
            "csv_sha256": self.csv_sha256,
        }


class DesignN1024(Workload):
    name = "design-n1024"
    cycle = 4

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        self.num_ports = 96 if tiny else 1024
        rng = np.random.default_rng(self.seed)
        self.aperture = float(rng.uniform(9.5, 10.5))
        combos = [(kind, pm) for kind in ("bessel", "exponential") for pm in (20, 40)]
        self.plans = [combos[j] for j in rng.permutation(len(combos))]
        self.designed = None

    @contextlib.contextmanager
    def hooks(self):
        # keep the kernel and plan of the last call so check() can compare
        # the saved file against the plan the CLI held in memory
        original = fasbar.cli.design_plan

        def design_and_keep(kernel, *args):
            plan = original(kernel, *args)
            self.designed = (kernel, plan)
            return plan

        fasbar.cli.design_plan = design_and_keep
        try:
            yield
        finally:
            fasbar.cli.design_plan = original

    def step(self, i):
        kind, pm = self.plans[i % len(self.plans)]
        path = os.path.join(self.out_dir, f"design-{i % len(self.plans)}.bin")
        argv = [
            "design", "--kernel-kind", kind, "--ports", str(self.num_ports),
            "--aperture", repr(self.aperture), "--carrier-hz", repr(CARRIER_HZ),
            "--pilots", str(pm // ANTENNAS), "--antennas", str(ANTENNAS),
            "--noise-power", repr(_noise_power(self.num_ports)), "--out", path,
        ]
        start = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            fasbar.cli.main(argv)
        return 1, {"op": [clock() - start]}, (path, *self.designed)

    def check(self, out):
        path, kernel, plan = out
        problems = []
        loaded = fasbar.load_plan(path)
        for field in ("num_ports", "num_timeslots", "antennas_per_slot", "order",
                      "noise_power_design", "kernel_fingerprint"):
            if getattr(loaded, field) != getattr(plan, field):
                problems.append(f"reloaded plan differs in {field}")
        for field in ("weights", "post_diag"):
            a, b = getattr(loaded, field), getattr(plan, field)
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                problems.append(f"reloaded plan differs in {field} bits")
        prior = kernel.matrix.diagonal().real
        if not (np.all(plan.post_diag >= 0.0) and np.all(plan.post_diag <= prior + VARIANCE_RISE_TOL)):
            problems.append("post_diag outside [0, prior diagonal]")
        return problems

    def detail(self, phase):
        plan_ns = phase.latencies["op"]
        return {"plan_s": {"value": statistics.median(plan_ns) * 1e-9, "unit": "s", "n": len(plan_ns)}}


class OnlineN1024(Workload):
    name = "online-n1024"
    cycle = OMP_EVERY

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        self.num_ports = 96 if tiny else 1024
        self.noise_power = _noise_power(self.num_ports)
        self.nmse_p10 = defaultdict(list)

    def setup(self):
        # drop the previous set-up first so repeated set-ups do not stack in peak RSS
        self.kernel = self.plan = self.pool = self.dictionary = None
        n, pm = self.num_ports, ONLINE_PILOTS * ANTENNAS
        geom = fasbar.build_port_geometry(n, 10.0, CARRIER_HZ)
        self.kernel = fasbar.kernel_bessel(geom)
        path = os.path.join(self.out_dir, "online-plan.bin")
        fasbar.save_plan(path, fasbar.design_plan(self.kernel, ONLINE_PILOTS, ANTENNAS, self.noise_power))
        self.plan = fasbar.load_plan(path)
        rng = np.random.default_rng(self.seed)
        self.pool = [
            fasbar.generate_ssc_channel(geom, fasbar.SscModelParams(rng_seed=int(s)))
            for s in rng.integers(2**62, size=CHANNEL_POOL)
        ]
        self.dictionary = fasbar.build_steering_dictionary(geom, 4)
        self.selmmse_ports = fasbar.selmmse_ports(n, pm)
        self.noise_seed0 = int(rng.integers(2**62))

    def step(self, i):
        plan, s2, n = self.plan, self.noise_power, self.num_ports
        channel, seed = self.pool[i % CHANNEL_POOL], self.noise_seed0 + i
        obs = fasbar.observe_pilots(channel, plan, s2, seed)
        t0 = clock()
        rec = fasbar.reconstruct(plan, obs)
        t1 = clock()
        y = fasbar.observe_ports(channel.values, self.selmmse_ports, s2, seed)
        t2 = clock()
        sel = fasbar.estimate_selmmse(y, self.selmmse_ports, n)
        latencies = {"op": [t1 - t0], "selmmse": [clock() - t2]}
        omp = None
        if i % OMP_EVERY == 0:
            ports = fasbar.random_ports(n, plan.num_measurements, seed)
            y = fasbar.observe_ports(channel.values, ports, s2, seed)
            t3 = clock()
            omp = fasbar.estimate_fas_omp(y, ports, self.dictionary)
            latencies["fas_omp"] = [clock() - t3]
        return 1, latencies, (i, channel, obs, rec, sel, omp)

    def check(self, out):
        i, channel, obs, rec, sel, omp = out
        problems = []
        estimates = {"sbar-bessel": rec.estimate, "selmmse": sel.values}
        if omp is not None:
            estimates["fas-omp"] = omp.values
        for scheme, est in estimates.items():
            err = fasbar.nmse(channel.values, est)
            if not np.isfinite(err):
                problems.append(f"non-finite {scheme} NMSE")
            self.nmse_p10[scheme].append(err)
        if i % CHECK_EVERY == 0:
            sigma, idx = self.kernel.matrix, np.asarray(self.plan.order)
            gram = sigma[np.ix_(idx, idx)] + self.noise_power * np.eye(idx.size)
            direct = sigma[:, idx] @ np.linalg.solve(gram, obs.values)
            rel = np.linalg.norm(rec.estimate - direct) / np.linalg.norm(direct)
            if not rel <= DIRECT_SOLVE_RTOL:
                problems.append(f"reconstruct differs from the direct solve by {rel:.2e} relative")
        return problems

    def detail(self, phase):
        out = {}
        for name, key in (("sbar_us", "op"), ("selmmse_us", "selmmse"), ("fas_omp_us", "fas_omp")):
            samples = phase.latencies[key]
            out[f"{name}.p50"] = {"value": statistics.median(samples) / 1e3, "unit": "us", "n": len(samples)}
            if len(samples) >= 1000:  # at least ten samples above the 99th percentile
                p99 = statistics.quantiles(samples, n=100)[98]
                out[f"{name}.p99"] = {"value": p99 / 1e3, "unit": "us", "n": len(samples)}
        for k, v in self.nmse_p10.items():
            out[f"nmse_p10.{k}"] = {"value": float(np.mean(v)), "unit": "ratio", "n": len(v)}
        return out


WORKLOADS = {w.name: w for w in (SweepAccept, DesignN1024, OnlineN1024)}


class Phase:
    """What the steps of one mode did: count, failures, busy time, latencies."""

    def __init__(self):
        self.steps = self.failed = self.items = self.busy_ns = self.early_stops = 0
        self.latencies = defaultdict(list)
        self.counts = Counter()

    @property
    def items_per_s(self):
        return self.items / (self.busy_ns * 1e-9)


def _loop(wl, seconds, tracer=None):
    """Step ``wl`` for ``seconds``, ending on a whole cycle.

    Returns (untraced, traced) phases.  With a tracer, whole cycles
    alternate between untraced and traced, so a drift in machine speed
    during the run hits both modes alike; without one, every step is
    untraced.
    """
    phases = (Phase(), Phase())
    min_steps = wl.cycle * (2 if tracer is not None else 1)
    deadline = clock() + int(seconds * 1e9)
    i = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficientFitWarning)
        while i < min_steps or i % wl.cycle or clock() < deadline:
            traced = tracer is not None and (i // wl.cycle) % 2 == 1
            phase = phases[traced]
            phase.steps += 1
            seen = len(caught)
            if traced:
                tracer.enabled = True
            start = clock()
            try:
                items, latencies, out = wl.step(i)
            except Exception:
                traceback.print_exc()
                phase.failed += 1
                continue
            finally:
                phase.busy_ns += clock() - start
                if traced:
                    tracer.enabled = False
                i += 1
            phase.items += items
            for key, values in latencies.items():
                phase.latencies[key].extend(values)
            phase.early_stops += sum(
                issubclass(w.category, RankDeficientFitWarning) for w in caught[seen:]
            )
            try:
                problems = wl.check(out)
            except Exception as err:
                traceback.print_exc()
                problems = [f"check raised {err!r}"]
            phase.counts.update(wl.counts)
            wl.counts.clear()
            if problems:
                phase.failed += 1
                print(f"{wl.name} step {i - 1}: " + "; ".join(problems), file=sys.stderr)
    for w in caught:
        if not issubclass(w.category, RankDeficientFitWarning):
            print(warnings.formatwarning(w.message, w.category, w.filename, w.lineno), file=sys.stderr)
    return phases


def _layer_metrics(names, tracer, phase, overhead_frac):
    summary = summarize(tracer.spans)
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    exps_busy = summary.get("channels.steering_matrix", zero)["busy_s"]
    omp_calls = summary.get("baselines.estimate_fas_omp", zero)["calls"]
    derived = {
        "channels.steering_matrix.exp_per_s":
            tracer.counts["channels.steering_matrix.exps"] / exps_busy if exps_busy else 0.0,
        "fileio.save_plan.bytes": tracer.counts["fileio.save_plan.bytes"],
        "harness.csv_bytes": tracer.counts["harness.emit_csv.bytes"],
        "sbar.plan_cache.hits": phase.counts["plan_cache.hits"],
        "sbar.plan_cache.misses": phase.counts["plan_cache.misses"],
        "baselines.omp.early_stops": phase.early_stops,
        "baselines.omp.early_stop_frac": phase.early_stops / omp_calls if omp_calls else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:
            label, stat = name.rsplit(".", 1)
            out[name] = summary.get(label, zero)[stat]
    return out


def run(wl, seconds, trace, layer_names=(), import_s=0.0):
    """Set ``wl`` up, time it for ``seconds`` and return (result, detail).

    Untraced, the result holds the end-to-end metrics.  Traced, it holds
    the per-layer metrics named in ``layer_names``, taken from the traced
    cycles; the throughput ratio of the untraced to the traced cycles gives
    the tracing overhead, and the spans are written to the output directory.
    """
    tracer = Tracer() if trace else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed(fasbar))
            tracer.enabled = True
        setup_ns = []
        for _ in range(1 if trace else SETUP_REPS):
            start = clock()
            wl.setup()
            setup_ns.append(clock() - start)
        if tracer is not None:
            tracer.enabled = False
        stack.enter_context(wl.hooks())
        untraced, traced = _loop(wl, seconds, tracer)
    if tracer is None:
        phase = untraced
        metrics = {
            "setup_s": import_s + statistics.median(setup_ns) * 1e-9,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_s": phase.items_per_s,
            "op_ms.mean": statistics.fmean(phase.latencies["op"]) * 1e-6,
        }
    else:
        phase = traced
        overhead = untraced.items_per_s / traced.items_per_s - 1.0
        metrics = _layer_metrics(layer_names, tracer, traced, overhead)
        tracer.write_spans(os.path.join(wl.out_dir, f"spans-{wl.name}-{wl.seed}.jsonl"))
    attempted = untraced.steps + traced.steps
    failed = untraced.failed + traced.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {"failed_frac": {"value": failed / attempted, "unit": "ratio"}, **wl.detail(phase)}
    return result, detail


def environment(root):
    """Thread pinning, core count, library versions and git SHA of ``root``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    sha = "unknown"
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            proc = None
        if proc is not None and proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "git_sha": sha,
    }
