"""Smoke test of the benchmark itself (``PYTHONPATH=src pytest benchmarks/perf``; not tier-1).

Runs every workload at a twentieth of its stream and checks what the
benchmark promises about its own output: names, units, exactness of the
simulated numbers, where profiled time is attributed, the predicted
zeros, and that ``compare.py`` tells a slowdown from a self-compare.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
COMPARE = os.path.join(HERE, "compare.py")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = ["append_aligned", "append_session", "rmw_sliding", "open_loop", "state_movement",
             "engine_only", "direct_drive"]
ON_EVERY_WORKLOAD = {"host_records_per_s", "host_peak_rss_mb", "setup_s", "failed_share",
                     "sim_records_per_s", "sim_write_bytes_per_record", "sim_read_bytes_per_record"}
SCOPED = {
    "open_loop": {"sim_latency_p50_s", "sim_latency_p95_s", "sim_sustainable_rate"},
    "state_movement": {"sim_recovery_downtime_ms", "sim_rescale_downtime_ms",
                       "sim_checkpoint_bytes_per_record"},
}


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], stdout=subprocess.PIPE, text=True,
                          cwd=REPO, timeout=600)


def suite(path: str, *args: str) -> dict:
    done = run("--scale", "0.05", "--reps", "1", "--out", path, *args)
    assert done.returncode == 0, done.stdout
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def report_path(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("perf") / "smoke.json")


@pytest.fixture(scope="module")
def report(report_path) -> dict:
    return suite(report_path)


def test_every_workload_runs_and_nothing_fails(report):
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name, section in report["workloads"].items():
        assert section["failed"] == 0, (name, section["failures"])
        assert section["end_to_end"]["failed_share"]["value"] == 0


def test_end_to_end_names_and_units(report, tmp_path):
    # P95 needs 200 latency samples per cell, so open_loop is checked at full length.
    full = run("--workload", "open_loop", "--reps", "1", "--out", str(tmp_path / "open.json"))
    assert full.returncode == 0, full.stdout
    with open(tmp_path / "open.json") as handle:
        sections = dict(report["workloads"], open_loop=json.load(handle)["workloads"]["open_loop"])
    seen = set()
    for name, section in sections.items():
        metrics = section["end_to_end"]
        assert set(metrics) == ON_EVERY_WORKLOAD | SCOPED.get(name, set()), name
        for metric, entry in metrics.items():
            assert NAME.match(metric) and UNIT.match(entry["unit"]), (metric, entry)
        seen |= set(metrics)
    assert len(seen) == 13


def test_result_lines_match_benchmark_json(spec):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run("--workload", "direct_drive", "--scale", "0.05", "--reps", "1", "--trace", trace)
        assert done.returncode == 0, done.stdout
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] == 12
        promised = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == promised
        for name, unit in promised.items():
            assert NAME.match(name) and UNIT.match(unit), (name, unit)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS


def test_per_layer_names_cover_every_workload(report, spec):
    promised = {m["name"] for m in spec["per_layer"]}
    for name, section in report["workloads"].items():
        assert set(section["per_layer"]) <= promised, name


def test_simulated_numbers_and_call_counts_repeat_exactly(report, tmp_path):
    host_clock = ("host_", "direct_", "trace_overhead", "store_boundary_share")
    again = suite(str(tmp_path / "again.json"))
    for name, section in again["workloads"].items():
        first = report["workloads"][name]
        for metric, entry in section["end_to_end"].items():
            if metric.startswith("sim_"):
                assert entry["value"] == first["end_to_end"][metric]["value"], (name, metric)
        for metric, entry in section["per_layer"].items():
            if not any(part in metric for part in host_clock):
                assert entry["value"] == first["per_layer"][metric]["value"], (name, metric)
        assert [c["digest"] for c in section["cells"]] == [c["digest"] for c in first["cells"]]


def test_profiled_time_lands_in_named_layers(report):
    for name, section in report["workloads"].items():
        shares = {k: v["value"] for k, v in section["per_layer"].items() if k.endswith(".host_self_share")}
        assert len(shares) == 21
        assert abs(sum(shares.values()) - 1.0) <= 0.01, name
        assert shares["other.host_self_share"] <= 0.10, name


def test_predicted_zeros(report):
    def calls(workload: str, layer: str) -> float:
        return report["workloads"][workload]["per_layer"][f"{layer}.calls"]["value"]

    for layer in ("engine", "nexmark"):
        assert calls("direct_drive", layer) == 0
    for workload in WORKLOADS:
        for layer in ("recovery", "changelog", "cluster"):
            assert (calls(workload, layer) == 0) == (workload != "state_movement"), (workload, layer)
    for layer in ("kvstores.lsm", "kvstores.hashkv", "kvstores.memory", "storage", "core.aar",
                  "core.aur", "core.rmw"):
        assert calls("engine_only", layer) <= 0.001 * calls("engine_only", "engine"), layer


def test_compare_passes_itself_and_flags_a_slowdown(report, report_path, tmp_path):
    def compare(new: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, COMPARE, report_path, new],
                              stdout=subprocess.PIPE, text=True)

    same = compare(report_path)
    assert same.returncode == 0, same.stdout
    slower = copy.deepcopy(report)
    slower["workloads"]["rmw_sliding"]["end_to_end"]["host_records_per_s"]["value"] *= 0.8
    doctored = tmp_path / "slower.json"
    doctored.write_text(json.dumps(slower))
    flagged = compare(str(doctored))
    assert flagged.returncode == 1
    assert re.search(r"rmw_sliding\s+host_records_per_s.*regressed", flagged.stdout)
