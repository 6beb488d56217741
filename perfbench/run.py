"""The repository benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch_load_check --seed 0 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` measures the end-to-end metrics with the program untraced;
``--trace 1`` is the separate traced run that splits the time per layer.
The metric names and units come from ``BENCHMARK.json`` at the root.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every figure of the run by name with its unit, the exact counts
and the reconciliation of layer times against the traced wall.  The same
figures are written to ``.perfbench/reports/``.

Seed 0 is the default.  Seed 9001 is held out: it is not used while a
change is written, so a claimed gain can be checked on it afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import REPORTS, ROOT, SRC, host_stamp, reset_work  # noqa: E402

WORKLOADS = ("batch_load_check", "batch_uml_rules", "batch_traced",
             "server_edit_check")
DEFAULT_SEED = 0
HELD_OUT_SEED = 9001


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import batch
    import serverload

    if name in batch.SPECS:
        module = batch
    elif name == "server_edit_check":
        module = serverload
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return (module.traced if trace else module.timed)(name, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for checking "
                             f"claims)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    spec = _load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    reset_work()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    finally:
        _stop_leftovers()
    stamp = host_stamp()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("host " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in sorted(outcome.report.items()):
        print(f"  {name:<34} {value:>14.6g} {unit}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_ratio':<34} {ratio:>14.6g} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    if outcome.counts:
        print("exact counts (repeated across two passes): "
              + json.dumps(outcome.counts, sort_keys=True))
    for line in outcome.reconciliation:
        print("  " + line)
    for problem in outcome.problems:
        print(f"FAILED: {problem}")

    metrics = {}
    for entry in wanted:
        value, unit = outcome.report[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} != "
                               f"{entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    result = {"correct": outcome.failed == 0 and not outcome.problems,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    with open(os.path.join(REPORTS, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "host": stamp, "result": result,
                   "report": {k: {"value": v, "unit": u} for k, (v, u)
                              in outcome.report.items()},
                   "counts": outcome.counts,
                   "problems": outcome.problems}, handle, indent=2,
                  sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(f"FAILED: {name} trace {trace} exited "
                      f"{proc.returncode}")
                merged["correct"] = False
                continue
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged, sort_keys=True))
    return 0 if merged["correct"] else 1


def _stop_leftovers() -> None:
    import serverload
    serverload.stop_all()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:            # a broken run prints no result line
        traceback.print_exc()
        sys.exit(1)
