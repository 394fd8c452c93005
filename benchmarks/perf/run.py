#!/usr/bin/env python3
"""Two-clock, layer-attributed benchmark of the FlowKV reproduction.

    python benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S | --reps R]
                                  [--trace [0|1]] [--scale F] [--out PATH]

Without ``--workload`` every workload runs, one after another.  Each
workload runs in a fresh process, so peak RSS and set-up time are its
own.  ``--trace 0`` (default) measures the end-to-end metrics with no
profiler attached; ``--trace 1`` runs the separate traced pass that gives
the per-layer metrics (with no ``--workload``, both are run).  Every
metric is printed by name with its unit; with ``--workload`` the last
line of standard output is the result object the driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(REPO, "src")
if SOURCE not in sys.path:
    sys.path.insert(0, SOURCE)

import workloads as wl  # noqa: E402  (sibling modules; neither needs the program source)
from measure import summary  # noqa: E402

SETUP_RUNS = 7  # processes set up per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170


def promised_units(key: str) -> dict[str, str]:
    """``{name: unit}`` of the metrics BENCHMARK.json promises under ``key``."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


# ----------------------------------------------------------------------
# child: one workload, in this process
# ----------------------------------------------------------------------
def child(args: argparse.Namespace) -> dict:
    import adapter  # the program is imported here, inside the set-up clock
    import layers
    import measure

    workload = wl.BY_NAME[args.workload]
    measure.warm_up(adapter, workload, args.seed, args.scale)
    setup_s = time.time() - args.t0
    if args.child == "setup":
        return {"setup_s": setup_s}
    if args.child == "trace":
        traced = layers.trace(adapter, workload, args.seed, args.scale)
        failed = measure.check_outputs(workload, traced["results"], [], args.seed, args.scale)
        scoped = measure.simulated_metrics(workload, traced["results"])
        return {
            "per_layer": traced["metrics"],
            "scoped": scoped,
            "attempted": len(workload.cells),
            "failed": len(failed),
            "failures": failed,
            "hot_spots": traced["hot_spots"],
        }
    section = measure.measure(adapter, workload, args.seed, args.seconds, args.reps, args.scale)
    section["setup_s"] = setup_s
    return section


def spawn(mode: str, args: argparse.Namespace, workload: str) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--t0", repr(time.time()),
    ]
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{mode} run of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# parent: orchestrate processes, print, write
# ----------------------------------------------------------------------
def run_untraced(args: argparse.Namespace, workload: str) -> dict:
    setups = [spawn("setup", args, workload)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    section = spawn("measure", args, workload)
    setups.append(section.pop("setup_s"))
    section["end_to_end"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s", "per_rep": summary(setups)}
    return section


def run_traced(args: argparse.Namespace, workload: str) -> dict:
    traced = spawn("trace", args, workload)
    # The workload-scoped simulated end-to-end metrics ride along with the
    # per-layer ones, so the driver records them too.
    for name, metric in traced.pop("scoped").items():
        if name != "sim_records_per_s":
            traced["per_layer"][name] = metric
    return traced


def show(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")


def result_line(section: dict, metrics: dict, promised: dict[str, str]) -> str:
    """The driver's result object: exactly the promised names, 0 where undefined here."""
    picked = {
        name: {"value": metrics[name]["value"] if name in metrics else 0, "unit": unit}
        for name, unit in promised.items()
    }
    return json.dumps({
        "correct": section["failed"] == 0,
        "attempted": section["attempted"],
        "failed": section["failed"],
        "metrics": picked,
    })


def machine() -> dict:
    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        info["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        info["cpu_model"] = "unknown"
    return info


def write_expected(report: dict) -> None:
    expected = {}
    for name, section in report["workloads"].items():
        groups = {c.name: c.group for c in wl.BY_NAME[name].cells}
        expected[name] = {groups[row["cell"]]: row["digest"] for row in section["cells"]}
    with open(os.path.join(HERE, "expected_digests.json"), "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.BY_NAME))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long the timed repeats of one workload run")
    parser.add_argument("--reps", type=int, help="exact number of repeats, instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None)
    parser.add_argument("--scale", type=float, default=1.0, help="input length multiplier (smoke runs)")
    parser.add_argument("--out", help="write the full report here")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite expected_digests.json from this run (default seed, full scale)")
    parser.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"program source not found under {SOURCE}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0

    names = [args.workload] if args.workload else [w.name for w in wl.WORKLOADS]
    # One workload: the pass --trace names.  All workloads: both, unless --trace 0.
    traced_wanted = args.trace == 1 if args.workload else args.trace != 0
    untraced_wanted = not (args.workload and args.trace == 1)
    if args.write_expected and ((args.seed, args.scale) != (wl.DEFAULT_SEED, 1.0) or not untraced_wanted):
        print("--write-expected needs an untraced run at the default seed and scale", file=sys.stderr)
        return 2
    report = {"schema": 1, "machine": machine(), "seed": args.seed, "scale": args.scale,
              "workloads": {}}
    for name in names:
        section: dict = {}
        if untraced_wanted:
            section = run_untraced(args, name)
            show(f"{name}: end to end, untraced, {section['reps']} repeats", section["end_to_end"])
            for cell, why in section["failures"].items():
                print(f"FAILED {name}/{cell}: {why}")
        if traced_wanted:
            traced = run_traced(args, name)
            show(f"{name}: per layer, traced pass", traced["per_layer"])
            for cell, why in traced["failures"].items():
                print(f"FAILED {name}/{cell}: {why}")
            if section:
                section["per_layer"] = traced["per_layer"]
                section["hot_spots"] = traced["hot_spots"]
            else:
                section = traced
        report["workloads"][name] = section

    if args.write_expected:
        write_expected(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.workload:
        section = report["workloads"][args.workload]
        key = "per_layer" if args.trace == 1 else "end_to_end"
        print(result_line(section, section[key], promised_units(key)))
        return 0  # the result line carries the failures
    failed = sum(section["failed"] for section in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
