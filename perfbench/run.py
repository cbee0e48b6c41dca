"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload live-hit --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``live-hit`` -- ``AsyncProteusFrontend.fetch_many`` over TCP; the
  working set fits in the cache nodes;
* ``live-churn`` -- the same with a catalogue three times the nodes'
  capacity, 5% puts, and a 4->3->4 ``scale_to`` cycle;
* ``sim-day`` -- the paper-day Proteus replay in the simulator.

The command runs from the root of a checkout of the repository, builds
nothing, and checks every answer.  It prints the machine it ran on, every
figure it measured by name and unit, and, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``,
measured untraced; with ``--trace 1`` they are its per-layer metrics, from
a run that adds a traced phase (and, for the live workloads, a raw-client
phase).  A per-layer metric a workload does not exercise reads 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("live-hit", "live-churn", "sim-day")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Run the workload; returns the printable record."""
    import machine

    record = {"machine": machine.fingerprint()}
    if args.workload == "sim-day":
        import simday

        result = simday.run_sim(args.seed, args.seconds, bool(args.trace))
        record["end_to_end"] = simday.end_to_end(result)
        record["per_layer"] = simday.report(result)
        record["correct"] = result["failed"] == 0 and result["deterministic"]
        record["machine"]["network"] = "none"
        record["machine"]["steal_share"] = result["steal_share"]
        record["notes"] = [
            f"replays: {len(result['replays'])}, identical outputs: "
            f"{result['deterministic']}",
            "cpu speed over the reference, per replay: " + ", ".join(
                f"{replay.scale:.3f}" for replay in result["replays"]
            ),
        ]
        if "fetch_s" in result:
            record["notes"].append(
                f"request latency samples: {len(result['fetch_s'])}, "
                f"from one replay timing every WebServer.fetch"
            )
    else:
        import live

        result = asyncio.run(
            live.run_live(args.workload, args.seed, args.seconds, bool(args.trace))
        )
        record["end_to_end"] = live.end_to_end(result)
        record["per_layer"] = live.report(result)
        record["correct"] = result["failed"] == 0
        phase, counts = result["phase"], result["counts"]
        record["machine"]["node_process"] = result["placement"]
        # Above 1.0 the two processes ran on two cores at once.
        record["machine"]["cpu_parallelism"] = (
            (counts["cpu"] + counts["node_cpu"]) / phase.wall
            if phase.wall else 0.0
        )
        record["machine"]["steal_share"] = (
            counts["steal_ticks"] / counts["ticks"] if counts["ticks"] else 0.0
        )
        record["notes"] = [
            f"unscaled cpu us per key: frontend "
            f"{1e6 * counts['cpu'] / max(1, phase.keys):.2f}, "
            f"node {1e6 * counts['node_cpu'] / max(1, phase.keys):.2f}",
            "cpu speed over the reference: frontend {:.3f}, node {:.3f}".format(
                *result["scales"]
            ),
            f"pages: {phase.pages} (page latency samples), puts: "
            f"{len(phase.put_ms)}, scale_to calls: {len(phase.scale_ms)}",
            f"stale answers: {result['stale']}",
        ]
        if result["first_error"]:
            record["notes"].append(f"first error: {result['first_error']}")
        if "node_layers" in result:
            record["node_ledger"] = {
                name: row["self"] for name, row in result["node_layers"].items()
            }
    record["attempted"] = result["attempted"]
    record["failed"] = result["failed"]
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    record = run(args)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for note in record["notes"]:
        print("note " + note)
    for name, seconds in sorted(record.get("node_ledger", {}).items()):
        print(f"node self time {name:<28s} {seconds:.4f} s")
    if args.trace:
        wanted = spec["per_layer"]
        values = record["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = record["end_to_end"]
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        print("# per-layer figures of the untraced run")
        for name, value in sorted(record["per_layer"].items()):
            print(f"{name:<40s} {value:.6g} {units[name]}")
    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<40s} {value:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
