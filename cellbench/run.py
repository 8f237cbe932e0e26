#!/usr/bin/env python3
"""Sweep-cell benchmark: builds the simulator from source, runs one
workload in a fresh process, checks every cell's simulated statistics and
prints the metrics named in BENCHMARK.json.

    python3 cellbench/run.py --workload paper_gen --seed 1 --seconds 58 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs every cell twice
(through the public entry point and rebuilt with spans around each module)
and prints the per-layer metrics. The last line of stdout is the result
object; the lines before it are the human-readable report.

    python3 cellbench/run.py --record-digests

recomputes cellbench/digests.json (every cell of both seed pools, on
TVP_JOBS workers); only do this after a deliberate change to the simulated
model.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ("paper_gen", "paper_replay", "fuzz_modern")
RUN_TIMEOUT_S = 170
# Fresh processes whose set-up time setup_s is the median of (fewer on
# paper_replay, where each records a 94 MB corpus).
SETUP_PROCESSES = {"paper_gen": 15, "paper_replay": 5, "fuzz_modern": 15}

# Units of every metric run.py emits; BENCHMARK.json lists the same names.
END_TO_END = {
    "cells_per_s": "1/s",
    "ns_per_record": "ns/record",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cell_pass_frac": "frac",
}
# Techniques every workload runs get their own kernel metric; the others
# (PARA, MRLoc, ProHit, TWiCe, CRA on the paper grid, TRR on the fuzz
# panel) share mitigation.baselines.act_ns_per_act.
COMMON_TECHNIQUES = ("none", "LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi")
PER_LAYER = {
    "trace.pull_ns_per_record": "ns/record",
    "trace.open_ms_per_cell": "ms",
    "trace.records": "count",
    "mem.self_ns_per_record": "ns/record",
    "mem.advance_ms_per_cell": "ms",
    "mem.partitioned_share": "frac",
    "mem.delayed_acts": "count",
    "mitigation.act_ns_per_act": "ns/act",
    **{f"mitigation.{t}.act_ns_per_act": "ns/act" for t in COMMON_TECHNIQUES},
    "mitigation.baselines.act_ns_per_act": "ns/act",
    "mitigation.ref_ms_per_cell": "ms",
    "mitigation.triggers": "count",
    "mitigation.extra_acts": "count",
    "mitigation.useful_extra_ratio": "frac",
    "dram.flips": "count",
    "dram.victim_flips": "count",
    "dram.rows_refreshed": "count",
    "exp.build_ms_per_cell": "ms",
    "exp.verdict_ms_per_cell": "ms",
    "exp.record_s": "s",
    "util.worker_busy_frac": "frac",
    "unattributed_frac": "frac",
    "trace_overhead_frac": "frac",
}

# Table III of the paper (overhead %, FPR %), as quoted in EXPERIMENTS.md.
PAPER_TABLE3 = {
    "PARA": (0.1, 0.062),
    "MRLoc": (0.11, 0.064),
    "ProHit": (0.6, 0.34),
    "TWiCe": (0.0037, 0.0),
    "CRA": (0.0037, 0.0),
    "LiPRoMi": (0.012, 0.013),
    "LoPRoMi": (0.016, 0.010),
    "LoLiPRoMi": (0.014, 0.011),
    "CaPRoMi": (0.008, 0.007),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return REPO / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "cellbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "cellbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "cellbench"


def run_binary(binary, args, work):
    """Runs the measuring binary in a fresh process; returns its JSON."""
    out = work / "out.json"
    cmd = [str(binary), *args, "--repo", str(REPO), "--work", str(work),
           "--out", str(out)]
    subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S,
                   stdout=sys.stderr, stderr=sys.stderr)
    with open(out) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Output check


def load_expected():
    with open(DIGESTS) as f:
        return json.load(f)["cells"]


def check_cells(cells, expected):
    """Marks each cell "ok": it raised nothing, its traced rebuild (if any)
    was bit-identical to the entry point's result, and its digest and
    record count equal the recorded ones. A cell without a recorded digest
    fails."""
    for cell in cells:
        want = expected.get(cell["key"])
        cell["ok"] = (not cell["error"] and cell["identical"] and want is not None
                      and cell["digest"] == want["digest"]
                      and cell["records"] == want["records"])
    return cells


# ---------------------------------------------------------------------------
# Metrics


def median(values):
    return statistics.median(values) if values else 0.0


def round_cells(result, r):
    return result["cells"][r["first_cell"]:r["first_cell"] + r["cells"]]


def round_costs(result):
    """Per round: (cells per second, ns per record).

    A round runs every defence once. Both come from its summed cell walls:
    cells per second is workers x cells over them, ns per record them over
    the round's demand records. The round's own wall would add the idle
    tail of its one-seed grid, which a campaign over many seeds pays once,
    not per seed; util.worker_busy_frac reports it.
    """
    costs = []
    for r in result["rounds"]:
        cells = round_cells(result, r)
        records = max(sum(c["records"] for c in cells), 1)
        busy_ns = max(sum(c["wall_ns"] for c in cells), 1)
        costs.append((result["workers"] * len(cells) / (busy_ns / 1e9),
                      busy_ns / records))
    return costs


def end_to_end(result):
    """The shared host's speed drifts by 10-20% over seconds to minutes,
    so each timing is the median over the run's rounds."""
    cells = result["cells"]
    rates, costs = zip(*round_costs(result))
    return {
        "cells_per_s": median(rates),
        "ns_per_record": median(costs),
        "setup_s": median(result["setup_ns"]) / 1e9,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "cell_pass_frac": sum(c["ok"] for c in cells) / max(len(cells), 1),
    }


def read_spans(path):
    """Spans per cell: list of (parent, name, start_ns, end_ns, count)."""
    spans = {}
    with open(path) as f:
        for line in f:
            cell, _, parent, name, start, end, count = line.rstrip("\n").split("\t")
            spans.setdefault(int(cell), []).append(
                (int(parent), name, int(start), int(end), int(count)))
    return spans


def self_times(spans):
    """Per span: its duration minus the durations of its child spans."""
    own = [end - start for _, _, start, end, _ in spans]
    for parent, _, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def technique_of(tag):
    return tag.split("-p")[0]


def per_layer(result, spans):
    cells = result["cells"]
    n = max(len(cells), 1)
    layer = {}            # span name -> summed self time (ns)
    items = {}            # span name -> summed counts
    act = {}              # technique group -> [ns, acts]
    cell_ns = root_self = 0
    for index, cell in enumerate(cells):
        cell_spans = spans.get(index, [])
        own = self_times(cell_spans)
        for (parent, name, start, end, count), t in zip(cell_spans, own):
            if parent < 0:
                cell_ns += end - start
                root_self += t
                continue
            layer[name] = layer.get(name, 0) + t
            items[name] = items.get(name, 0) + count
            if name == "mitigation.on_activates":
                group = technique_of(cell["tag"])
                if group not in COMMON_TECHNIQUES:
                    group = "baselines"
                acc = act.setdefault(group, [0, 0])
                acc[0] += t
                acc[1] += count
    records = max(sum(c["records"] for c in cells), 1)
    first = round_cells(result, result["rounds"][0])

    def total(field):
        return sum(c[field] for c in first)

    extra = total("extra_acts")
    busy = []
    for r in result["rounds"]:
        walls = sum(c["wall_ns"] + c["traced_wall_ns"] for c in round_cells(result, r))
        busy.append(walls / (result["workers"] * r["wall_ns"]))
    metrics = {
        "trace.pull_ns_per_record": layer.get("trace.pull", 0) / records,
        "trace.open_ms_per_cell": layer.get("trace.open", 0) / n / 1e6,
        "trace.records": total("records"),
        "mem.self_ns_per_record": layer.get("mem.on_records", 0) / records,
        "mem.advance_ms_per_cell": layer.get("mem.advance", 0) / n / 1e6,
        "mem.partitioned_share": total("partitioned_acts") / max(total("demand_acts"), 1),
        "mem.delayed_acts": total("delayed_acts"),
        "mitigation.act_ns_per_act": layer.get("mitigation.on_activates", 0)
        / max(items.get("mitigation.on_activates", 0), 1),
        "mitigation.ref_ms_per_cell": layer.get("mitigation.on_refresh", 0) / n / 1e6,
        "mitigation.triggers": total("triggers"),
        "mitigation.extra_acts": extra,
        "mitigation.useful_extra_ratio": (extra - total("fp_extra_acts")) / extra if extra else 0.0,
        "dram.flips": total("flips"),
        "dram.victim_flips": total("victim_flips"),
        "dram.rows_refreshed": total("rows_refreshed"),
        "exp.build_ms_per_cell": layer.get("exp.build", 0) / n / 1e6,
        "exp.verdict_ms_per_cell": layer.get("exp.verdict", 0) / n / 1e6,
        "exp.record_s": median(result["record_ns"]) / 1e9,
        "util.worker_busy_frac": median(busy),
        "unattributed_frac": root_self / max(cell_ns, 1),
        "trace_overhead_frac": sum(c["traced_wall_ns"] for c in cells)
        / max(sum(c["wall_ns"] for c in cells), 1) - 1,
    }
    for group in (*COMMON_TECHNIQUES, "baselines"):
        ns, acts = act.get(group, (0, 0))
        metrics[f"mitigation.{group}.act_ns_per_act"] = ns / max(acts, 1)
    return metrics


def layer_report(cells, spans):
    """Per cell: wall, summed layer self times and the smallest self time."""
    report = []
    for index, cell in enumerate(cells):
        cell_spans = spans.get(index, [])
        own = self_times(cell_spans)
        wall = sum(end - start for parent, _, start, end, _ in cell_spans if parent < 0)
        layers = sum(t for (parent, *_), t in zip(cell_spans, own) if parent >= 0)
        report.append({"key": cell["key"], "wall_ns": wall, "layers_ns": layers,
                       "min_self_ns": min(own, default=0)})
    return report


# ---------------------------------------------------------------------------
# Report


def print_report(workload, result, metrics):
    cells = result["cells"]
    print(f"cellbench {workload}: {len(cells)} cells in {len(result['rounds'])} rounds, "
          f"{result['workers']} worker(s)")
    for name, value in metrics.items():
        unit = END_TO_END.get(name) or PER_LAYER.get(name)
        print(f"  {name:40s} {value:16.6g} {unit}")
    walls = {}
    for c in cells:
        acc = walls.setdefault(c["defence"], [0, 0])
        acc[0] += c["wall_ns"]
        acc[1] += c["records"]
    print("  host ns/record by defence: " + ", ".join(
        f"{d} {ns / max(r, 1):.1f}" for d, (ns, r) in walls.items()))
    if workload == "fuzz_modern":
        return
    # Accuracy beside speed: simulated Table III next to the paper's.
    seen, sums = set(), {}
    for c in cells:
        if c["key"] in seen or c["defence"] not in PAPER_TABLE3:
            continue
        seen.add(c["key"])
        acc = sums.setdefault(c["defence"], [0.0, 0.0, 0])
        acc[0] += c["overhead_pct"]
        acc[1] += c["fpr_pct"]
        acc[2] += 1
    print("  Table III, simulated vs paper (overhead %, FPR %):")
    for name, (overhead, fpr, count) in sums.items():
        p_over, p_fpr = PAPER_TABLE3[name]
        print(f"    {name:10s} overhead {overhead / count:.4f} (paper {p_over})"
              f"  FPR {fpr / count:.4f} (paper {p_fpr})  over {count} seed(s)")


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def measure(args, binary, work):
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Kept after the run (the work directory is not) for inspection.
    spans_path = build_dir() / f"spans-{args.workload}-{args.seed}.tsv"
    if args.trace:
        run_args += ["--spans", str(spans_path)]
    if args.max_cells:
        run_args += ["--max-cells", str(args.max_cells)]
    result = run_binary(binary, run_args, work)
    # Set-up is paid once per process, so its repetitions are fresh
    # processes too: the measuring one plus these.
    for _ in range(SETUP_PROCESSES[args.workload] - 1):
        extra = run_binary(binary, ["--workload", args.workload, "--seed",
                                    str(args.seed), "--setup-only"], work)
        result["setup_ns"] += extra["setup_ns"]

    check_cells(result["cells"], load_expected())

    if args.trace:
        metrics = per_layer(result, read_spans(spans_path))
        units = PER_LAYER
    else:
        metrics = end_to_end(result)
        units = END_TO_END
    failed = sum(not c["ok"] for c in result["cells"])
    print_report(args.workload, result, metrics)
    return result_line(failed == 0, len(result["cells"]), failed, metrics, units)


def record_digests(binary, work):
    result = run_binary(binary, ["--pool"], work)
    errors = [k for k, v in result.items() if v["error"]]
    if errors:
        raise SystemExit(f"cellbench: pool cells failed: {errors[:3]}")
    doc = {
        "about": "Expected simulated-statistics digest and demand-record count "
                 "of every cell the benchmark can run (see README.md).",
        "cells": {k: {"digest": v["digest"], "records": v["records"]}
                  for k, v in sorted(result.items())},
    }
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"cellbench: wrote {len(doc['cells'])} digests to {DIGESTS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=58)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-cells", type=int, default=0,
                        help="stop after N cells (self-tests)")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    for needed in ("src/CMakeLists.txt", "configs/paper_campaign.cfg",
                   "configs/fuzz_campaign.cfg"):
        if not (REPO / needed).is_file():
            log(f"cellbench: {needed} not found; run from a full checkout")
            return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"cellbench: build failed: {e}")
        return 1

    work = build_dir() / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_digests:
            record_digests(binary, work)
            return 0
        line = measure(args, binary, work)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"cellbench: measurement failed: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
