"""Run one fasbar benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload sweep-accept --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The line before the last holds informational detail
(the metric names of the workload's own vocabulary, output hashes, the
environment); the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload untraced, each in its own process, and prints a table.

The benchmark pins OpenBLAS and OpenMP to one thread before numpy is imported: OpenBLAS
threading on a small machine can make stage-1 design loops many times
slower and the timings unrepeatable.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SPEC = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args, spec):
    rows, results = [], {}
    for entry in spec["workloads"]:
        name = entry["name"]
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = {**result, "detail": info["detail"]}
        rows.append((name, "correct", str(result["correct"]), f"{result['failed']}/{result['attempted']} failed"))
        for metric, m in {**result["metrics"], **info["detail"]}.items():
            if isinstance(m, dict):
                rows.append((name, metric, f"{m['value']:.6g}", m["unit"] + (f"  n={m['n']}" if "n" in m else "")))
            else:
                rows.append((name, metric, m, ""))
    for row in rows:
        print("{:<14} {:<28} {:<16} {}".format(*row))
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    args = _parse(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload == "all":
        return _run_all(args, spec)
    if not (ROOT / "src" / "fasbar").is_dir():
        sys.exit(f"perfbench: no fasbar sources under {ROOT / 'src'}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    import_s = time.perf_counter() - START
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result, detail = workloads.run(
        wl, args.seconds, args.trace, [m["name"] for m in spec["per_layer"]], import_s
    )
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "env": workloads.environment(ROOT), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
