"""Tests of the benchmark harness itself (fast; no benchmark run)."""

import json
import subprocess
import sys

import pytest

import layers
import run


def test_self_times_cover_the_root_span():
    record = {"counts": {"asymptotics.digamma.distinct": 1}, "spans": [
        ["cli.main", 0.0, 10.0, -1],
        ["measures.headline_table", 1.0, 4.0, 0],
        ["asymptotics.digamma", 2.0, 3.0, 1],
        ["asymptotics.digamma", 5.0, 9.0, 0],
    ]}
    m = layers.request_metrics(record, 12.0)
    assert m["cli.main.total_s"] == 10.0
    assert m["cli.self_s"] == 3.0
    assert m["cli.startup_s"] == 2.0
    assert m["measures.headline_table.self_s"] == 2.0
    assert m["asymptotics.digamma.calls"] == 2
    assert m["asymptotics.digamma.total_s"] == 5.0
    assert m["asymptotics.digamma.distinct_ratio"] == 0.5
    assert m["omega.compute_omega.distinct_ratio"] == 0.0
    self_sum = sum(v for k, v in m.items() if k.endswith("self_s"))
    assert self_sum == m["cli.main.total_s"]
    assert self_sum + m["cli.startup_s"] == 12.0
    assert set(m) | {"trace.overhead_frac"} == set(layers.metric_units())


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.metric_units())
    assert {w["name"] for w in spec["workloads"]} == {
        "table-paper", "search-grid", "verify-n31"}


def test_seed_picks_the_variant():
    labels = {w: [run.workload_request(w, seed)[0] for seed in range(4)]
              for w in ("table-paper", "search-grid", "verify-n31")}
    assert labels == {
        "table-paper": ["table-paper"] * 4,
        "search-grid": ["search-grid-k5", "search-grid-k7", "search-grid-k9",
                        "search-grid-k11"],
        "verify-n31": ["verify-n31-k6", "verify-n31-k8", "verify-n31-k10",
                       "verify-n31-k6"],
    }


def test_every_variant_has_a_reference():
    for label in run.all_variants():
        assert (run.REFERENCE / f"{label}.out").is_file()


def test_paper_check_is_independent_of_the_reference():
    table = (run.REFERENCE / "table-paper.out").read_bytes()
    assert run.paper_table_ok(table)
    assert not run.paper_table_ok(table.replace(b"3.51433", b"3.51450"))
    assert not run.paper_table_ok(table.replace(b"12.4084", b"12.4100"))


def test_traced_request_keeps_stdout(tmp_path):
    argv = ["bound", "--k", "6", "--a", "1", "--b", "7"]
    _, _, _, code, plain, _ = run.run_child([sys.executable, "-m", "irrbounds", *argv])
    spans = tmp_path / "spans.json"
    wall, _, _, traced_code, traced, _ = run.run_child(
        [sys.executable, str(run.HERE / "layers.py"), str(spans), *argv])
    assert code == traced_code == 0
    assert traced == plain
    m = layers.request_metrics(json.loads(spans.read_text()), wall)
    assert m["measures.mu_bound.calls"] == 1
    assert m["asymptotics.digamma.calls"] > 0   # bound via a call-time import
    assert m["omega.omega_contains.calls"] > 0
    self_sum = sum(v for k, v in m.items() if k.endswith("self_s"))
    assert self_sum == pytest.approx(m["cli.main.total_s"])
    assert 0 < m["cli.startup_s"] < wall


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "layers.py", "calibrate.py"):
        (bench / f).write_bytes((run.HERE / f).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
