#!/usr/bin/env python3
"""The repository benchmark: builds the driver, runs workloads, checks answers.

  python3 benchmark/run.py                   # every workload, one run each
  python3 benchmark/run.py --quick           # about 1 s per workload
  python3 benchmark/run.py --workload serve_churn --seed 7 --seconds 10 \
      --trace 0                              # one run; last line is JSON
  python3 benchmark/run.py --workload batch_powerlaw --trace 1
                                             # per-layer metrics + trace
  python3 benchmark/run.py compare BIN_A BIN_B [--pairs 10]
                                             # parent (A) vs change (B)

The driver (ibfs_benchmark) is built from ../src into benchmark/build.
Every run leaves one results JSON (and, traced, a Chrome trace) in
benchmark/results. Metric names, units and bounds come from the
BENCHMARK.json next to this directory; README.md explains each of them.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD_DIR = HERE / "build"
RESULTS_DIR = HERE / "results"
DRIVER_TIMEOUT_S = 150

# End-to-end metrics that are printed and compared but are not in
# BENCHMARK.json, whose end-to-end metrics must exist, non-zero, on every
# workload: error_ratio is 0 on a correct run, and the GTEPS rates exist only
# for batch workloads. A bound of 0 means exact: any loss is a regression.
EXTRA_E2E = {
    "error_ratio": {"unit": "fraction", "better": "lower", "bound": 0.0,
                    "workloads": None},
    "host_gteps": {"unit": "GTEPS", "better": "higher", "bound": 0.10,
                   "workloads": ["batch_powerlaw", "batch_uniform"]},
    "sim_gteps": {"unit": "GTEPS", "better": "higher", "bound": 0.0,
                  "workloads": ["batch_powerlaw", "batch_uniform"]},
}

BATCH = ["batch_powerlaw", "batch_uniform"]
SERVE = ["serve_churn", "serve_hot"]
ONLINE = SERVE + ["fleet_scatter"]
ALL = BATCH + ONLINE

FLEET = ["fleet_scatter"]

# Per-layer metric -> [(end-to-end metric it should move, on these
# workloads)]. The workloads listed are where the driver measures the metric;
# on any other workload it reads 0, because the driver does not reach that
# layer there.
LAYERS = {
    "gen.generate_s": [("setup_s", ALL)],
    "graph.sample_sources_s": [("setup_s", ALL)],
    "core.plan_ms": [("host_gteps", BATCH)],
    "core.execute_ms": [("host_gteps", BATCH)],
    "core.merge_ms": [("host_gteps", BATCH)],
    "core.pool_efficiency": [("host_gteps", BATCH)],
    "core.rule_matched_share": [("sim_gteps", BATCH)],
    "core.sharing_ratio": [("sim_gteps", BATCH)],
    "ibfs.sim_gteps": [("sim_gteps", BATCH), ("peak_qps", ONLINE)],
    "ibfs.td_inspect.sim_ms": [("sim_gteps", BATCH)],
    "ibfs.td_inspect.launches": [("sim_gteps", BATCH)],
    "ibfs.bu_inspect.sim_ms": [("sim_gteps", BATCH)],
    "ibfs.bu_inspect.launches": [("sim_gteps", BATCH)],
    "ibfs.fq_gen.sim_ms": [("sim_gteps", BATCH)],
    "ibfs.fq_gen.launches": [("sim_gteps", BATCH)],
    "gpusim.load_transactions": [("sim_gteps", BATCH), ("peak_qps", ONLINE)],
    "gpusim.store_transactions": [("sim_gteps", BATCH), ("peak_qps", ONLINE)],
    "gpusim.atomic_ops": [("sim_gteps", BATCH), ("peak_qps", ONLINE)],
    "gpusim.launches": [("sim_gteps", BATCH), ("peak_qps", ONLINE)],
    "gpusim.host_ns_per_load_txn": [("host_gteps", BATCH)],
    "service.submit_us.p50": [("p50_ms", SERVE)],
    "service.submit_us.p99": [("p50_ms", SERVE)],
    "service.queue_ms.p50": [("p50_ms", ONLINE)],
    "service.batch_ms.p50": [("p50_ms", ONLINE)],
    "service.deadline_close_share": [("p50_ms", ONLINE)],
    "service.execute_ms.p50": [("peak_qps", ONLINE)],
    "service.execute_ms.p99": [("peak_qps", ONLINE)],
    "service.mean_batch_size": [("peak_qps", ONLINE)],
    "service.sharing_ratio": [("peak_qps", ONLINE)],
    "service.sim_ms_per_query": [("peak_qps", ONLINE)],
    "service.cache_hit_ratio": [("p50_ms", ONLINE)],
    "service.cache_evictions_per_s": [("peak_qps", SERVE)],
    "service.plan_hit_ratio": [("peak_qps", SERVE)],
    "service.unattributed_ms.p50": [("p50_ms", ONLINE)],
    "fleet.submit_multi_us.p50": [("p50_ms", FLEET)],
    "fleet.submit_multi_us.p99": [("p50_ms", FLEET)],
    "fleet.shards_touched_mean": [("p50_ms", FLEET)],
    "fleet.imbalance": [("p50_ms", FLEET)],
    "fleet.straggler_gap_ms.p50": [("p50_ms", FLEET)],
    "load.late_ms.p99": [("p50_ms", ONLINE)],
    "load.late_ms.max": [("p50_ms", ONLINE)],
    "trace.overhead_pct": [("p50_ms", ALL)],
}

# Diagnostics reported with the per-layer metrics -> workloads measuring
# them. e2e.p99_ms is the end-to-end tail, from the same trials as p50_ms;
# it is not an end-to-end metric because it does not repeat within any
# bound BENCHMARK.json allows (README.md gives the measured spreads).
DIAGNOSTICS = {
    "e2e.p99_ms": ONLINE,
    "load.latency_samples": ONLINE,
}


def measured_on(layer):
    """Workloads on which the driver measures a per-layer metric."""
    if layer in DIAGNOSTICS:
        return set(DIAGNOSTICS[layer])
    return {w for _, workloads in LAYERS[layer] for w in workloads}


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


# ------------------------------------------------------------ statistics --

def summarize(values):
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def reported(name, better, samples):
    """A run's value of one end-to-end metric from its per-trial samples.

    setup_s is the median of the run's set-ups. Every other metric comes
    from the least disturbed trial, the best one in the metric's direction:
    neighbours on a shared machine only ever add time, so the best trial is
    the steadiest estimate of what the code itself costs. Within a trial,
    p50_ms and p99_ms are still percentiles over that trial's requests.
    """
    if name == "setup_s":
        return statistics.median(samples)
    return min(samples) if better == "lower" else max(samples)


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    s = summarize(values)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(parent, change, better, bound):
    """The choosing-metrics rule for one metric on one workload.

    parent[i] and change[i] come from pair i (same seed). Returns
    (verdict, share of pairs the change won); the verdict is "improved",
    "no worse", "unresolved" (run-to-run spread wider than the bound) or
    "worse". A bound of 0 is exact and is judged pair by pair.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    won = wins / len(parent)
    if bound == 0:
        if losses:
            return "worse", won
        return ("improved" if won >= 0.9 else "no worse"), won
    p, c = summarize(parent), summarize(change)
    gain = sign * (c["median"] - p["median"])
    if won >= 0.9 and gain > p["q3"] - p["q1"]:
        return "improved", won
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if relative_spread(parent) > bound and not all_better:
        return "unresolved", won
    if -gain > bound * abs(p["median"]):
        return "worse", won
    return "no worse", won


# ------------------------------------------------------------ BENCHMARK --

def check_spec(spec):
    """Problems with a BENCHMARK.json document; empty when it is valid."""
    problems = []

    def expect_keys(obj, keys, what):
        if not isinstance(obj, dict) or set(obj) != set(keys):
            problems.append(f"{what}: keys must be exactly {sorted(keys)}")
            return False
        return True

    if not expect_keys(spec, ["command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"], "BENCHMARK.json"):
        return problems
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths: 1 to 16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p)
                    or p.startswith("/") or ".." in p.split("/")):
                problems.append(f"paths: bad path {p!r}")
    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        problems.append("command: 1 to 32 strings")
    else:
        for arg in command:
            if (not isinstance(arg, str) or len(arg) > 200
                    or arg.startswith("/") or ".." in arg.split("/")):
                problems.append(f"command: bad argument {arg!r}")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool)
            and 1 <= seconds <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")

    names = []
    sections = [("workloads", 2, 8, ["name", "why"]),
                ("end_to_end", 1, 16, ["name", "unit", "better", "bound"]),
                ("per_layer", 1, 128, ["name", "unit", "better"])]
    for section, lo, hi, keys in sections:
        items = spec[section]
        if not (isinstance(items, list) and lo <= len(items) <= hi):
            problems.append(f"{section}: {lo} to {hi} entries")
            continue
        for i, item in enumerate(items):
            if not expect_keys(item, keys, f"{section}[{i}]"):
                continue
            name = item["name"]
            if not isinstance(name, str) or not NAME_RE.match(name):
                problems.append(f"{section}[{i}]: bad name {name!r}")
            names.append(name)
            if "why" in item:
                why = item["why"]
                if not isinstance(why, str) or not why or len(why) > 200 \
                        or "\n" in why:
                    problems.append(f"{section}[{i}]: why is one line")
            if "unit" in item and (not isinstance(item["unit"], str)
                                   or not UNIT_RE.match(item["unit"])):
                problems.append(f"{section}[{i}]: bad unit {item['unit']!r}")
            if "better" in item and item["better"] not in ("higher", "lower"):
                problems.append(f"{section}[{i}]: better is higher or lower")
            if "bound" in item:
                bound = item["bound"]
                if (not isinstance(bound, (int, float))
                        or isinstance(bound, bool) or not 0 <= bound <= 0.25):
                    problems.append(f"{section}[{i}]: bound in [0, 0.25]")
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    e2e = spec["end_to_end"] if isinstance(spec["end_to_end"], list) else []
    setup = [m for m in e2e
             if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        problems.append("end_to_end: needs setup_s in s, lower is better")
    if len(json.dumps(spec).encode()) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    return problems


def load_spec():
    spec = json.loads(SPEC_PATH.read_text())
    problems = check_spec(spec)
    if problems:
        sys.exit("BENCHMARK.json: " + "; ".join(problems))
    return spec


def e2e_metrics(spec):
    """Every end-to-end metric: name -> unit, better, bound, workloads."""
    metrics = {m["name"]: dict(m, workloads=None) for m in spec["end_to_end"]}
    metrics.update(EXTRA_E2E)
    return metrics


def applies(meta, workload):
    return meta["workloads"] is None or workload in meta["workloads"]


# ---------------------------------------------------------------- driver --

def build():
    """Configures once and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no src/ next to benchmark/; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "ibfs_benchmark",
              "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    return BUILD_DIR / "ibfs_benchmark"


def run_driver(binary, workload, seed, seconds, trace, tag=""):
    """Runs one workload in its own process; returns its results document.

    The document is the driver's JSON plus "returncode"; it is kept in
    benchmark/results.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    traced = "-traced" if trace else ""
    stem = RESULTS_DIR / f"{workload}-seed{seed}{traced}{tag}"
    out = stem.with_suffix(".json")
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out)]
    if trace:
        cmd += ["--trace-out", str(stem) + ".chrome.json"]
    if out.exists():
        out.unlink()
    proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    if not out.is_file():
        sys.exit(f"run.py: {workload} wrote no results "
                 f"(exit {proc.returncode})")
    doc = json.loads(out.read_text())
    doc["returncode"] = proc.returncode
    return doc, out


def error_ratio(doc):
    return doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0


def contract_result(spec, doc, trace):
    """The one-line result: end-to-end or per-layer values of one run."""
    metrics = {}
    workload = doc["workload"]
    if not trace:
        for m in spec["end_to_end"]:
            samples = doc["e2e"].get(m["name"])
            if samples is None or samples["unit"] != m["unit"]:
                sys.exit(f"run.py: driver gave no {m['name']} in {m['unit']}")
            metrics[m["name"]] = {
                "value": reported(m["name"], m["better"], samples["samples"]),
                "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            layer = doc["layers"].get(m["name"])
            if m["name"].startswith("e2e.") and m["name"][4:] in doc["e2e"]:
                samples = doc["e2e"][m["name"][4:]]
                layer = {"unit": samples["unit"], "value": reported(
                    m["name"], m["better"], samples["samples"])}
            if workload not in measured_on(m["name"]):
                value = 0.0
            elif layer is None or layer["unit"] != m["unit"]:
                sys.exit(f"run.py: driver gave no {m['name']} in {m['unit']}")
            else:
                value = layer["value"]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = doc["returncode"] == 0 and doc["failed"] == 0
    return {"correct": correct, "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def print_run(spec, doc):
    """Every metric of one run by name, with its unit and trial spread."""
    workload = doc["workload"]
    print(f"{workload}  seed={doc['seed']}  seconds={doc['seconds']}  "
          f"attempted={doc['attempted']}  failed={doc['failed']}")
    metrics = e2e_metrics(spec)
    print(f"  {'error_ratio':<28} {error_ratio(doc):.6g} fraction")
    for name, samples in doc["e2e"].items():
        s = summarize(samples["samples"])
        value = reported(name, metrics.get(name, {}).get("better", "lower"),
                         samples["samples"])
        print(f"  {name:<28} {value:.6g} {samples['unit']}  trials: "
              f"median {s['median']:.6g} [q1 {s['q1']:.6g}, "
              f"q3 {s['q3']:.6g}, n={s['n']}]")
    for name, layer in sorted(doc["layers"].items()):
        print(f"  {name:<28} {layer['value']:.6g} {layer['unit']}")
    for error in doc["errors"]:
        print(f"  check failed: {error}")


def run_mode(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    selected = args.workload or workloads
    unknown = sorted(set(selected) - set(workloads))
    if unknown:
        sys.exit(f"run.py: unknown workload {', '.join(unknown)}")
    seconds = 1 if args.quick else (args.seconds or spec["run_seconds"])
    binary = build()
    results = []
    for workload in selected:
        doc, out = run_driver(binary, workload, args.seed, seconds, args.trace)
        result = contract_result(spec, doc, args.trace)
        doc["result"] = result
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print_run(spec, doc)
        results.append(result)
    ok = all(r["correct"] for r in results)
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0 if ok else 1


# --------------------------------------------------------------- compare --

def compare_mode(args):
    spec = load_spec()
    metrics = e2e_metrics(spec)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = {"A": Path(args.bin_a).resolve(), "B": Path(args.bin_b).resolve()}
    rows, worse = [], False
    for workload in workloads:
        values = {"A": {}, "B": {}}
        for i in range(args.pairs):
            seed = args.seed + i
            order = "AB" if i % 2 == 0 else "BA"
            for side in order:
                doc, _ = run_driver(sides[side], workload, seed, seconds,
                                    False, tag=f"-{side}")
                if doc["returncode"] != 0 or doc["failed"]:
                    sys.exit(f"run.py: side {side} failed its checks on "
                             f"{workload}, seed {seed}")
                for name, meta in metrics.items():
                    if not applies(meta, workload):
                        continue
                    value = (error_ratio(doc) if name == "error_ratio" else
                             reported(name, meta["better"],
                                      doc["e2e"][name]["samples"]))
                    values[side].setdefault(name, []).append(value)
        for name, parent in values["A"].items():
            meta = metrics[name]
            change = values["B"][name]
            result, won = verdict(parent, change, meta["better"],
                                  meta["bound"])
            worse = worse or result == "worse"
            rows.append({"workload": workload, "metric": name,
                         "unit": meta["unit"], "bound": meta["bound"],
                         "parent": summarize(parent),
                         "change": summarize(change), "won": won,
                         "verdict": result})
    print(f"{'workload':<15} {'metric':<12} {'parent median [q1,q3]':<34} "
          f"{'change median [q1,q3]':<34} {'won':>5}  verdict")
    for r in rows:
        cells = [f"{s['median']:.5g} [{s['q1']:.4g},{s['q3']:.4g}]"
                 for s in (r["parent"], r["change"])]
        print(f"{r['workload']:<15} {r['metric']:<12} {cells[0]:<34} "
              f"{cells[1]:<34} {r['won']:>5.0%}  {r['verdict']}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "compare.json").write_text(json.dumps(
        {"parent": str(sides["A"]), "change": str(sides["B"]),
         "pairs": args.pairs, "seconds": seconds, "rows": rows}, indent=1))
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(
            prog="run.py compare",
            description="Runs parent/change pairs of two built drivers.")
        parser.add_argument("bin_a", help="driver built from the parent")
        parser.add_argument("bin_b", help="driver built from the change")
        parser.add_argument("--pairs", type=int, default=10)
        parser.add_argument("--seed", type=int, default=101,
                            help="seed of the first pair; pair i uses seed+i")
        parser.add_argument("--seconds", type=int)
        parser.add_argument("--workload", action="append")
        args = parser.parse_args(argv[1:])
        if args.pairs < 10:
            parser.error("at least 10 pairs")
        return compare_mode(args)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="measured seconds per run (BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics + trace file")
    parser.add_argument("--quick", action="store_true",
                        help="about 1 s per workload, as a smoke check")
    return run_mode(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
