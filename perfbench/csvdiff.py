"""Compare two sweep result CSVs: identical bytes, or the largest |dNMSE|.

    python3 perfbench/csvdiff.py before.csv after.csv

Records are paired in file order (run_sweep emits a canonical order) and
must agree on every column except nmse and wall_time_stage2_ns.  Prints
one JSON object; exits 1 when the files do not hold the same records.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _key(r):
    return (r.scheme, r.kernel_kind, r.num_ports, r.antennas_per_slot,
            r.num_timeslots, r.snr_db, r.trial, r.seed)


def compare(path_a, path_b):
    from fasbar import read_csv

    a, b = read_csv(path_a), read_csv(path_b)
    pairs = list(zip(a, b))
    mismatched = abs(len(a) - len(b)) + sum(_key(x) != _key(y) for x, y in pairs)
    return {
        "identical_bytes": Path(path_a).read_bytes() == Path(path_b).read_bytes(),
        "records": len(pairs),
        "mismatched_records": mismatched,
        "max_abs_delta_nmse": max((abs(x.nmse - y.nmse) for x, y in pairs), default=0.0),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: csvdiff.py before.csv after.csv")
    sys.path.insert(0, str(ROOT / "src"))
    report = compare(*argv)
    print(json.dumps(report))
    return 1 if report["mismatched_records"] else 0


if __name__ == "__main__":
    sys.exit(main())
