"""Wall time of fasbar's offline and online layers and of importing the package.

From the repository root:

    python3 bench/layers.py --out BENCH.json
    python3 bench/layers.py --ports 64 --repeats 1 --out /tmp/layers.json

For each N in ``--ports`` it builds the Bessel and exponential kernels
and, up to N = 2048, the trained covariance of T = 100 clustered channels
(at N = 4096 that kernel alone is a 268 MB matrix).  It hashes each fresh
kernel, then designs a plan with P*M = 40 (P = 10, M = 4) at 20 dB, i.e.
noise power N/100.  The Bessel plan and the trained one are saved with
``save_plan`` over an existing binary file, which one untimed save writes
first, and read back with ``load_plan``; those rows record the file's
``bytes``.  Online, it synthesizes one clustered channel, takes one round
of its pilots through the Bessel plan with
``observe_pilots``, and runs each estimator at P*M = 40 on one round and
on a block of 20 rounds: ``reconstruct`` with the Bessel plan,
``estimate_selmmse`` and ``estimate_fas_omp``.  Once, not per N, it runs
the 500-trial acceptance sweep (N = 256, M = 4, P = 1..10, 20 dB, the
four schemes of ``tests/test_acceptance.py``), records its wall time
(``acceptance_sweep_s``, one sample) and times ``emit_csv`` writing its
records.  A row's ``trials`` is the rounds one call observes or
estimates, or the sweep trials whose records it writes, and null for the
offline layers; its ``bytes`` is null but for the plan files and the
CSV.  Every layer is timed ``--repeats`` times.  A sample is one call,
except for the layers that take microseconds on one round
(``observe_pilots``, ``reconstruct`` and ``estimate_selmmse``): their
sample is a batch of back-to-back calls, divided by the row's ``batch``,
since a lone call reads timer and cache noise.  Also timed ``--repeats``
times, each in a fresh interpreter, are ``import fasbar, fasbar.cli``
(``import_s``, most of what perfbench's ``setup_s`` measures), a whole
``fasbar design`` process that builds an N = 1024 Bessel kernel and
designs and saves its P*M = 40 plan (``design_process_s``) and a whole
``fasbar estimate`` process on such a plan (``estimate_process_s``), the
wall times a user waits.  Before the layers, a fixed numpy loop that
runs no fasbar code is timed ``--repeats`` times (``calibration_s``): it
moves only with the machine, so a BENCH file whose calibration reads
slower than another's was measured on a slower machine, and its layers
are slower with it.  The JSON file records the median and quartiles in
seconds, next to the BLAS thread pinning, the core count, the library
versions, the git SHA and ``git_dirty``, whether the tracked files
differed from that commit when the script ran.

Like perfbench/run.py, the script pins OpenBLAS and OpenMP to one thread
before numpy is imported: OpenBLAS threading on a small machine can make
stage-1 design loops many times slower and the timings unrepeatable.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import fasbar  # noqa: E402
from perfbench.workloads import environment  # noqa: E402

TRAIN_TIMESLOTS = 100
#: the largest N whose trained covariance is built; one more doubling is 268 MB
TRAINED_MAX_PORTS = 2048
PILOTS, ANTENNAS = 10, 4
#: the kernels whose plans are saved and loaded: one real prior, one trained
PLAN_FILE_KINDS = ("bessel", "covariance")
#: rounds in one block call of each estimator
BLOCK_TRIALS = 20
#: calls per timed sample of ``observe_pilots`` and of the estimators in
#: ``BATCHED``, on one round each: such a call takes microseconds
BATCH_CALLS = 100
BATCHED = ("sbar.reconstruct", "baselines.estimate_selmmse")
#: ports of the plan a timed ``fasbar design`` process designs and a timed
#: ``fasbar estimate`` process reads
PROCESS_PORTS = 1024
SNR_DB = 20.0
APERTURE_WAVELENGTHS = 10.0
CARRIER_HZ = 3.5e9
#: passes of one calibration sample over a 128 x 128 matrix product and a
#: sort and an exp of 65 536 doubles, about 8 ms on a 2-vCPU machine
CALIBRATION_LOOPS = 20
#: the acceptance sweep of tests/test_acceptance.py, whose records the
#: ``harness.emit_csv`` row writes
ACCEPTANCE = fasbar.ExperimentConfig(
    num_ports=256,
    antennas_per_slot=4,
    pilot_counts=tuple(range(1, 11)),
    snr_db=(20.0,),
    trials=500,
    channel=fasbar.SscModelParams(9, 100, 5.0),
    schemes=(
        fasbar.SchemeSpec("sbar", kernel="bessel"),
        fasbar.SchemeSpec("sbar", kernel="covariance", train_timeslots=100),
        fasbar.SchemeSpec("selmmse"),
        fasbar.SchemeSpec("fas-omp"),
    ),
    base_seed=20240514,
    record_timing=False,
)


def _spread(seconds):
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"n": len(seconds), "median_s": float(median), "q1_s": float(q1), "q3_s": float(q3)}


def _summary(layer, kernel, num_ports, seconds, trials=None, size=None, batch=1):
    return {"layer": layer, "kernel": kernel, "num_ports": num_ports, "trials": trials, "bytes": size,
            "batch": batch, **_spread(seconds)}


def _timed(call):
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def _per_call(call, batch):
    """Seconds per call of ``batch`` back-to-back calls."""
    start = time.perf_counter()
    for _ in range(batch):
        call()
    return (time.perf_counter() - start) / batch


def calibration_seconds(repeats):
    """Spread of ``repeats`` samples of a fixed numpy loop that runs no
    fasbar code: ``CALIBRATION_LOOPS`` passes over a 128 x 128 matrix
    product and a sort and an exp of 65 536 doubles."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((128, 128))
    values = rng.standard_normal(1 << 16)

    def loop():
        for _ in range(CALIBRATION_LOOPS):
            matrix @ matrix
            np.sort(values)
            np.exp(values)

    return _spread([_timed(loop)[0] for _ in range(repeats)])


def measure(num_ports, repeats):
    """Summaries of every layer at one N, in the order they ran."""
    geom = fasbar.build_port_geometry(num_ports, APERTURE_WAVELENGTHS, CARRIER_HZ)
    noise_power = fasbar.noise_power_for_snr(num_ports, SNR_DB)
    builders = {"bessel": lambda: fasbar.kernel_bessel(geom),
                "exponential": lambda: fasbar.kernel_exponential(geom)}
    if num_ports <= TRAINED_MAX_PORTS:
        training = [fasbar.generate_ssc_channel(geom, fasbar.SscModelParams(rng_seed=s))
                    for s in range(TRAIN_TIMESLOTS)]
        builders["covariance"] = lambda: fasbar.kernel_covariance(training)
    rows = []
    for kind, build in builders.items():
        build_s, hash_s, design_s = [], [], []
        for _ in range(repeats):
            seconds, kernel = _timed(build)
            build_s.append(seconds)
            # a fresh kernel hashes once; later designs read the cached digest
            hash_s.append(_timed(lambda: kernel.fingerprint)[0])
        for _ in range(repeats):
            seconds, plan = _timed(lambda: fasbar.design_plan(kernel, PILOTS, ANTENNAS, noise_power))
            design_s.append(seconds)
        rows += [_summary(f"kernels.kernel_{kind}", kind, num_ports, build_s),
                 _summary("kernels.fingerprint", kind, num_ports, hash_s),
                 _summary("sbar.design_plan", kind, num_ports, design_s)]
        if kind in PLAN_FILE_KINDS:
            rows += measure_plan_file(plan, kind, repeats)
    return rows


def measure_plan_file(plan, kind, repeats):
    """Summaries of ``save_plan`` and ``load_plan`` on one binary plan file,
    each with the file's size in bytes.  One untimed save writes the file
    first, so every timed save is a rewrite, as a design saved over the
    last one is."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.bin"
        fasbar.save_plan(path, plan)
        save_s = [_timed(lambda: fasbar.save_plan(path, plan))[0] for _ in range(repeats)]
        load_s = [_timed(lambda: fasbar.load_plan(path))[0] for _ in range(repeats)]
        size = path.stat().st_size
    return [_summary(f"fileio.{layer}", kind, plan.num_ports, seconds, size=size)
            for layer, seconds in (("save_plan", save_s), ("load_plan", load_s))]


def measure_online(num_ports, repeats):
    """Summaries of channel synthesis, of pilot observation and of every
    estimator at one N, each estimator on one round and on a block of
    ``BLOCK_TRIALS`` rounds."""
    geom = fasbar.build_port_geometry(num_ports, APERTURE_WAVELENGTHS, CARRIER_HZ)
    noise_power = fasbar.noise_power_for_snr(num_ports, SNR_DB)
    measured = PILOTS * ANTENNAS
    synth_s = [_timed(lambda: fasbar.generate_ssc_channel(geom, fasbar.SscModelParams(rng_seed=s)))[0]
               for s in range(repeats)]
    # round t: channel t plus its per-port noise, as observe_pilots draws it
    received = np.array([
        fasbar.generate_ssc_channel(geom, fasbar.SscModelParams(rng_seed=t)).values
        + fasbar.draw_port_noise(num_ports, noise_power, t)
        for t in range(BLOCK_TRIALS)
    ])
    plan = fasbar.design_plan(fasbar.kernel_bessel(geom), PILOTS, ANTENNAS, noise_power)
    channel = fasbar.generate_ssc_channel(geom, fasbar.SscModelParams(rng_seed=0))
    observe_s = [_per_call(lambda: fasbar.observe_pilots(channel, plan, noise_power, s), BATCH_CALLS)
                 for s in range(repeats)]
    sbar_y = received[:, list(plan.order)]
    sel_ports = fasbar.selmmse_ports(num_ports, measured)
    sel_y = received[:, sel_ports]
    omp_ports = np.array([fasbar.random_ports(num_ports, measured, t) for t in range(BLOCK_TRIALS)])
    omp_y = np.take_along_axis(received, omp_ports, axis=1)
    dictionary = fasbar.build_steering_dictionary(geom)
    rows = [_summary("channels.generate_ssc_channel", None, num_ports, synth_s, 1),
            _summary("channels.observe_pilots", None, num_ports, observe_s, 1, batch=BATCH_CALLS)]
    # index 0 gives one round of shape (P*M,), the full slice the block
    for trials, pick in ((1, 0), (BLOCK_TRIALS, slice(None))):
        obs = fasbar.PilotObservation(sbar_y[pick], noise_power, plan.plan_id)
        calls = {
            ("sbar.reconstruct", "bessel"): lambda: fasbar.reconstruct(plan, obs),
            ("baselines.estimate_selmmse", None): lambda: fasbar.estimate_selmmse(sel_y[pick], sel_ports, num_ports),
            ("baselines.estimate_fas_omp", None): lambda: fasbar.estimate_fas_omp(
                omp_y[pick], omp_ports[pick], dictionary),
        }
        for (layer, kernel), call in calls.items():
            batch = BATCH_CALLS if trials == 1 and layer in BATCHED else 1
            seconds = [_per_call(call, batch) for _ in range(repeats)]
            rows.append(_summary(layer, kernel, num_ports, seconds, trials, batch=batch))
    return rows


def measure_sweep(repeats):
    """The wall time of one ``ACCEPTANCE`` sweep, and the summary of
    ``emit_csv`` writing its records, with the CSV's size in bytes."""
    sweep_s, records = _timed(lambda: fasbar.run_sweep(ACCEPTANCE))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nmse.csv"
        seconds = [_timed(lambda: fasbar.emit_csv(records, path))[0] for _ in range(repeats)]
        size = path.stat().st_size
    sweep = {"num_ports": ACCEPTANCE.num_ports, "trials": ACCEPTANCE.trials, **_spread([sweep_s])}
    return sweep, _summary("harness.emit_csv", None, ACCEPTANCE.num_ports, seconds, ACCEPTANCE.trials, size)


def _python(*args):
    """Run a fresh interpreter that finds fasbar in ``src`` and inherits the
    BLAS pins set above; its stdout."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True, text=True).stdout


def import_seconds(repeats):
    """Spread of ``import fasbar, fasbar.cli`` timed inside ``repeats`` fresh
    interpreters."""
    code = ("import time; start = time.perf_counter(); import fasbar, fasbar.cli; "
            "print(time.perf_counter() - start)")
    return _spread([float(_python("-c", code)) for _ in range(repeats)])


#: runs ``fasbar.cli.main`` on the arguments that follow it, as the
#: installed ``fasbar`` script does
CLI = ("-c", "import sys; from fasbar.cli import main; sys.exit(main())")


def design_process_seconds(repeats):
    """Spread of the wall time of ``repeats`` whole ``fasbar design``
    processes, each building a ``PROCESS_PORTS`` Bessel kernel, designing
    its P*M = 40 plan and saving it as a binary file."""
    with tempfile.TemporaryDirectory() as tmp:
        command = CLI + ("design", "--kernel-kind", "bessel", "--ports", str(PROCESS_PORTS),
                         "--aperture", repr(APERTURE_WAVELENGTHS), "--carrier-hz", repr(CARRIER_HZ),
                         "--pilots", str(PILOTS), "--antennas", str(ANTENNAS),
                         "--noise-power", repr(fasbar.noise_power_for_snr(PROCESS_PORTS, SNR_DB)),
                         "--out", str(Path(tmp) / "plan.bin"))
        seconds = [_timed(lambda: _python(*command))[0] for _ in range(repeats)]
    return {"num_ports": PROCESS_PORTS, **_spread(seconds)}


def estimate_process_seconds(repeats):
    """Spread of the wall time of ``repeats`` whole ``fasbar estimate``
    processes, started as ``design_process_seconds`` starts them, on one
    round of pilots through a ``PROCESS_PORTS`` Bessel plan."""
    geom = fasbar.build_port_geometry(PROCESS_PORTS, APERTURE_WAVELENGTHS, CARRIER_HZ)
    noise_power = fasbar.noise_power_for_snr(PROCESS_PORTS, SNR_DB)
    plan = fasbar.design_plan(fasbar.kernel_bessel(geom), PILOTS, ANTENNAS, noise_power)
    channel = fasbar.generate_ssc_channel(geom, fasbar.SscModelParams(rng_seed=0))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fasbar.save_plan(tmp / "plan.bin", plan)
        fasbar.save_observation(tmp / "obs.json", fasbar.observe_pilots(channel, plan, noise_power, 0))
        command = CLI + ("estimate", "--plan", str(tmp / "plan.bin"), "--observation", str(tmp / "obs.json"),
                         "--out", str(tmp / "estimate.json"))
        seconds = [_timed(lambda: _python(*command))[0] for _ in range(repeats)]
    return {"num_ports": PROCESS_PORTS, **_spread(seconds)}


def git_dirty(root):
    """Whether the tracked files of ``root`` differ from its HEAD commit, so
    that ``git_sha`` does not name the code measured; None outside a git
    checkout or without git."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "diff", "--quiet", "HEAD", "--"],
                              capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return {0: False, 1: True}.get(proc.returncode)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ports", type=int, nargs="+", default=[256, 1024, 2048, 4096])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    calibration = calibration_seconds(args.repeats)
    layers = [row for n in args.ports for row in measure(n, args.repeats) + measure_online(n, args.repeats)]
    sweep, emit = measure_sweep(args.repeats)
    layers.append(emit)
    imports = import_seconds(args.repeats)
    designs = design_process_seconds(args.repeats)
    estimates = estimate_process_seconds(args.repeats)
    report = {
        "script": "bench/layers.py",
        "design": {"num_timeslots": PILOTS, "antennas_per_slot": ANTENNAS, "snr_db": SNR_DB,
                   "aperture_wavelengths": APERTURE_WAVELENGTHS, "carrier_hz": CARRIER_HZ,
                   "train_timeslots": TRAIN_TIMESLOTS, "block_trials": BLOCK_TRIALS,
                   "batch_calls": BATCH_CALLS},
        "env": {**environment(ROOT), "git_dirty": git_dirty(ROOT)},
        "calibration_s": {"loops": CALIBRATION_LOOPS, **calibration},
        "acceptance_sweep_s": sweep,
        "import_s": imports,
        "design_process_s": designs,
        "estimate_process_s": estimates,
        "layers": layers,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for row in layers:
        size = f"  {row['bytes']} B" if row["bytes"] else ""
        batch = f"  x{row['batch']}" if row["batch"] > 1 else ""
        print("{:<30} {:<12} {:<4} N={num_ports:<5} median {median_s:.6f} s  [{q1_s:.6f}, {q3_s:.6f}]  n={n}{}{}".format(
            row["layer"], row["kernel"] or "-", row["trials"] or "-", size, batch, **row))
    for label, spread in ((f"calibration, {CALIBRATION_LOOPS} numpy loops", calibration),
                          (f"acceptance sweep, {ACCEPTANCE.trials} trials", sweep),
                          ("import fasbar, fasbar.cli", imports),
                          (f"fasbar design process, N={PROCESS_PORTS}", designs),
                          (f"fasbar estimate process, N={PROCESS_PORTS}", estimates)):
        print("{:<65} median {median_s:.6f} s  [{q1_s:.6f}, {q3_s:.6f}]  n={n}".format(label, **spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
