#!/usr/bin/env python3
"""Compare two reports of ``run.py --out``: ``compare.py BASE.json NEW.json``.

One row per workload and end-to-end metric: both values, the ratio
NEW / BASE, the bound, and a verdict.

* ``regressed``  -- NEW is worse than BASE by more than the bound
* ``unresolved`` -- the spread between repeats of either run is wider than
  the bound, so "no worse" cannot be claimed either way
* ``ok``         -- otherwise (``ok*`` marks a simulated number that moved
  at all: a host-only change must leave every ``sim_*`` value identical)

Bounds of the host metrics come from BENCHMARK.json; every ``sim_*``
metric is exact (relative 1e-9: the two reports used the same seed, so
the same inputs) and ``failed_share`` may not rise.  Exits 1 on any
regression or new failure, 2 if the two reports used different seeds or
scales.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

EXACT = 1e-9
HIGHER_IS_BETTER = {"host_records_per_s", "sim_records_per_s", "sim_sustainable_rate"}
SETUP_SLACK_S = 0.05  # set-up may always move by this much: it is a fraction of a second


def bounds() -> dict[str, float]:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def spread(metric: dict) -> float:
    """Interquartile range of the metric's repeats, as a share of their median."""
    rep = metric.get("per_rep")
    return (rep["q3"] - rep["q1"]) / rep["median"] if rep else 0.0


def worsening(name: str, base: float, new: float) -> float:
    """How much worse ``new`` is, as a share of ``base`` (0 if not worse)."""
    delta = base - new if name in HIGHER_IS_BETTER else new - base
    if delta <= 0:
        return 0.0
    if name == "setup_s" and delta <= SETUP_SLACK_S:
        return 0.0
    return delta / abs(base) if base else float("inf")


def verdict(name: str, base: dict, new: dict, bound: float) -> str:
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if worsening(name, base["value"], new["value"]) > bound:
        return "regressed"
    moved = abs(new["value"] - base["value"]) > EXACT * abs(base["value"])
    return "ok*" if name.startswith("sim_") and moved else "ok"


def compare(base: dict, new: dict) -> tuple[list[tuple], bool]:
    """``(rows, passed)``; a row is (workload, metric, base, new, ratio, bound, verdict)."""
    fixed = bounds()
    rows, passed = [], True
    for workload, section in new["workloads"].items():
        before = base["workloads"].get(workload)
        if before is None:
            continue
        for name, metric in section["end_to_end"].items():
            old = before["end_to_end"].get(name)
            if old is None:
                continue
            # Same seed, same inputs: a simulated number may not worsen at all.
            bound = EXACT if name.startswith("sim_") else fixed.get(name, 0.0)
            result = verdict(name, old, metric, bound)
            ratio = metric["value"] / old["value"] if old["value"] else float("nan")
            rows.append((workload, name, old["value"], metric["value"], ratio, bound, result))
            passed = passed and result != "regressed"
    return rows, passed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    base, new = reports
    if (base["seed"], base["scale"]) != (new["seed"], new["scale"]):
        print("the two reports used different seeds or scales", file=sys.stderr)
        return 2
    rows, passed = compare(base, new)
    print(f"{'workload':16s} {'metric':32s} {'base':>14s} {'new':>14s} {'new/base':>9s} {'bound':>8s}  verdict")
    for workload, name, old, value, ratio, bound, result in rows:
        print(f"{workload:16s} {name:32s} {old:14.6g} {value:14.6g} {ratio:9.4f} {bound:8.2g}  {result}")
    print("PASS" if passed else "FAIL: regression or new failure")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
