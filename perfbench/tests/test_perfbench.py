"""Tiny-size smoke runs of every workload, the self-time rule, the CSV diff."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fasbar import ResultRecord, emit_csv  # noqa: E402
from perfbench import csvdiff, workloads  # noqa: E402
from perfbench.tracing import ROOT as ROOT_SPAN, self_times, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks_and_reports_every_metric(name, trace, tmp_path):
    wl = workloads.WORKLOADS[name](seed=3, out_dir=str(tmp_path), tiny=True)
    result, detail = workloads.run(wl, 0.0, trace, LAYER_NAMES)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_frac"]["value"] == 0.0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    if trace:
        spans = [json.loads(line) for line in (tmp_path / f"spans-{name}-3.jsonl").open()]
        ids = {s["id"] for s in spans}
        assert any(s["parent"] != ROOT_SPAN for s in spans)
        assert all(s["parent"] == ROOT_SPAN or s["parent"] in ids for s in spans)
    else:
        assert all(value > 0 for value in result["metrics"].values())


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        (1, ROOT_SPAN, "fasbar.m.a", "m.a", 0, 100),
        (2, 1, "fasbar.m.b", "m.b", 10, 30),
        (3, 1, "fasbar.m.c", "m.c", 20, 50),  # overlaps span 2
        (4, 2, "fasbar.m.d", "m.d", 12, 18),  # grandchild: charged to span 2 only
        (5, 1, "fasbar.x.b", "m.b", 90, 120),  # runs past its parent's end
    ]
    assert self_times(spans) == {1: 50, 2: 14, 3: 30, 4: 6, 5: 30}
    summary = summarize(spans)
    assert summary["m.b"]["calls"] == 2
    assert summary["m.b"]["busy_s"] == pytest.approx(50e-9)
    assert summary["m.b"]["self_s"] == pytest.approx(44e-9)


def test_csvdiff_reports_the_largest_nmse_change(tmp_path):
    records = [ResultRecord("sbar", "bessel", 64, 4, p, 20.0, 0, 7, 0.5, 0) for p in (1, 2)]
    emit_csv(records, tmp_path / "a.csv")
    emit_csv([records[0], ResultRecord("sbar", "bessel", 64, 4, 2, 20.0, 0, 7, 0.25, 0)], tmp_path / "b.csv")
    same = csvdiff.compare(tmp_path / "a.csv", tmp_path / "a.csv")
    assert same == {"identical_bytes": True, "records": 2, "mismatched_records": 0, "max_abs_delta_nmse": 0.0}
    diff = csvdiff.compare(tmp_path / "a.csv", tmp_path / "b.csv")
    assert not diff["identical_bytes"] and diff["max_abs_delta_nmse"] == 0.25
    assert diff["mismatched_records"] == 0
