#!/usr/bin/env python3
"""Regression gate for the committed bench JSONs.

Each gated bench has one entry in ``SPECS``. A run of the gate starts the
bench binary with the environment the committed JSON was produced under,
then ``compare(spec, committed, fresh, sections)`` walks the spec and
returns one failure string per violation. A spec lists:

* ``flag`` / ``committed`` / ``out_var``: the command-line option naming
  the binary, the committed JSON at the repository root, and the variable
  the bench reads its output path from;
* ``env``: bench variables set from committed values (dotted paths into
  the committed JSON), and ``fixed_env``: variables set to constants;
* ``keys``: the keyed lists. ``points`` of the partition bench is keyed by
  ``(partitions, schedule)``. A fresh keyed list must carry exactly the
  committed key set;
* ``exact``: fields equal to the committed value bit for bit. These are
  checksums, query counts, transaction counters and simulated seconds.
  They come out of deterministic code and the deterministic timing model,
  so any drift is a real behaviour change;
* ``required``: ``(field, op, value)`` predicates on the fresh run, such
  as ``checksum_match == True`` or ``unanswered == 0``;
* ``banded``: wall-clock or latency fields, which must be positive and
  at most ``BAND`` times the committed value. The band is generous: it
  catches catastrophic regressions, not CI noise.

A field path is dotted (``elastic.unanswered``); ``list[].field`` names
the field in every item of a keyed list. Every named field is required:
a field missing from the fresh run fails, as does a missing list item.

The one rule not expressible as a field is the partition comm model's
shape, the spec's ``shape`` check ``partition_shape``: all-gather comm
seconds grow with P, both schedules move the same bytes, and the
butterfly beats the all-gather at P >= 4.

``--elastic-only`` runs the fleet bench with ``IBFS_FLEET_SECTIONS=elastic``
and gates only the sections that mode emits (``FLEET_ELASTIC_SECTIONS``).

Usage:
  check_bench.py REPO_ROOT --binary PATH/TO/gpusim_bench
  check_bench.py REPO_ROOT --fleet-binary PATH/TO/fleet_bench [--elastic-only]
  check_bench.py REPO_ROOT --partition-binary PATH/TO/partition_bench

Exit status 0 on pass, 1 on any violation, 2 on harness errors.
"""

import argparse
import collections
import json
import operator
import os
import re
import subprocess
import sys
import tempfile

BAND = 4.0

OPS = {"==": operator.eq, ">=": operator.ge}

MISSING = object()


def lookup(doc, path):
    """The value at a dotted path, or MISSING."""
    for part in path.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return MISSING
        doc = doc[part]
    return doc


def items(doc, name):
    """The list at ``name``, or [] when absent or not a list."""
    value = lookup(doc, name)
    return value if isinstance(value, list) else []


def partition_shape(fresh):
    """The comm model's shape, independent of the committed values."""
    failures = []
    points = [p for p in items(fresh, "points") if isinstance(p, dict)]
    by_key = {(p.get("partitions"), p.get("schedule")): p for p in points}
    allgather = sorted((p for p in points if p.get("schedule") == "allgather"),
                       key=lambda p: p.get("partitions", 0))
    for prev, cur in zip(allgather, allgather[1:]):
        if cur.get("partitions", 0) > 1 and (
                cur.get("comm_seconds", 0) <= prev.get("comm_seconds", 0)):
            failures.append(f"all-gather comm seconds did not grow from "
                            f"P={prev.get('partitions')} to "
                            f"P={cur.get('partitions')}")
    for p in sorted({k[0] for k in by_key if k[0] != 1}):
        ag = by_key.get((p, "allgather"))
        bf = by_key.get((p, "butterfly"))
        if ag is None or bf is None:
            continue
        if ag.get("bytes_on_wire") != bf.get("bytes_on_wire"):
            failures.append(f"schedules moved different byte volumes at P={p}")
        if p >= 4 and bf.get("comm_seconds", 0) >= ag.get("comm_seconds", 0):
            failures.append(f"butterfly did not beat the all-gather at P={p} "
                            f"({bf.get('comm_seconds')} vs "
                            f"{ag.get('comm_seconds')})")
    return failures


SWEEP_EXACT = ["sim_seconds", "depth_checksum", "load_transactions",
               "store_transactions", "atomic_ops"]

SPECS = {
    "gpusim": {
        "flag": "binary",
        "committed": "BENCH_gpusim.json",
        "out_var": "IBFS_GPUSIM_BENCH_OUT",
        "env": {
            "IBFS_GPUSIM_BENCH_SCALE": "config.rmat_scale",
            "IBFS_GPUSIM_BENCH_EDGES": "config.edge_factor",
            "IBFS_GPUSIM_BENCH_INSTANCES": "config.instances",
            "IBFS_GPUSIM_BENCH_GROUP": "config.group_size",
        },
        # Best-of-2 wall clock is enough for the band; counters are exact.
        "fixed_env": {"IBFS_GPUSIM_BENCH_REPEATS": "2"},
        "keys": {},
        "exact": ["accounting.sim_seconds", "accounting.load_transactions"]
        + [f"bitwise_sweep.{k}" for k in SWEEP_EXACT]
        + [f"joint_sweep.{k}" for k in SWEEP_EXACT],
        "required": [],
        "banded": ["accounting.seconds", "bitwise_sweep.wall_seconds_best",
                   "joint_sweep.wall_seconds_best"],
    },
    "fleet": {
        "flag": "fleet_binary",
        "committed": "BENCH_fleet.json",
        "out_var": "IBFS_BENCH_OUT",
        "env": {
            "IBFS_GRAPH": "graph",
            "IBFS_FLEET_QPS": "qps",
            "IBFS_FLEET_DURATION": "duration_seconds",
            "IBFS_FLEET_VNODES": "vnodes",
        },
        "fixed_env": {"IBFS_FLEET_SECTIONS": "all"},
        "keys": {"points": ("shards",), "replication": ("replication",)},
        "exact": ["queries", "baseline.checksum"],
        "required": [
            ("points[].checksum_match", "==", True),
            ("scatter.checksum_match", "==", True),
            ("failover.unanswered", "==", 0),
            ("failover.checksum_mismatches", "==", 0),
            ("elastic.unanswered", "==", 0),
            ("elastic.checksum_mismatches", "==", 0),
            ("elastic.shard_joins", ">=", 1),
            ("replication[].checksum_match", "==", True),
            ("replication[].replica_mismatches", "==", 0),
        ],
        "banded": ["points[].p50_ms", "points[].p99_ms", "elastic.p50_ms",
                   "elastic.p99_ms", "replication[].p50_ms",
                   "replication[].p99_ms"],
    },
    "partition": {
        "flag": "partition_binary",
        "committed": "BENCH_partition.json",
        "out_var": "IBFS_BENCH_OUT",
        "env": {
            "IBFS_GRAPH": "graph",
            "IBFS_PARTITION_INSTANCES": "config.instances",
            "IBFS_PARTITION_GROUP": "config.group_size",
        },
        "fixed_env": {},
        "keys": {"points": ("partitions", "schedule")},
        "exact": ["baseline.depth_checksum"]
        + [f"points[].{k}" for k in (
            "compute_seconds", "comm_seconds", "sim_seconds",
            "bytes_on_wire", "rounds", "supersteps", "edge_imbalance")],
        "required": [("points[].checksum_match", "==", True)],
        "banded": ["points[].wall_seconds"],
        "shape": partition_shape,
    },
}

# The top-level sections fleet_bench emits with IBFS_FLEET_SECTIONS=elastic.
FLEET_ELASTIC_SECTIONS = {"queries", "baseline", "elastic", "replication"}


def item_key(item, key):
    return tuple(lookup(item, k) for k in key)


def key_label(item, key):
    return ",".join(f"{k}={lookup(item, k)}" for k in key)


def expand(doc, path, keys):
    """{label: value} for a field path; a ``list[].field`` path yields one
    entry per item, labelled by the item's key."""
    if "[]." not in path:
        return {path: lookup(doc, path)}
    name, field = path.split("[].")
    if not items(doc, name):
        return {name: MISSING}
    return {f"{name}[{key_label(item, keys[name])}].{field}":
            lookup(item, field) for item in items(doc, name)}


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(spec, committed, fresh, sections=None):
    """Walks one bench spec; returns a failure string per violation.

    ``sections`` limits the gate to those top-level keys (None: all)."""
    failures = []
    keys = spec["keys"]

    def gated(path):
        return sections is None or re.split(r"[.\[]", path)[0] in sections

    def pairs(path):
        """(label, committed, fresh) for every committed value at path."""
        got = expand(fresh, path, keys)
        out = []
        for label, want in expand(committed, path, keys).items():
            value = got.get(label, MISSING)
            if want is MISSING:
                failures.append(f"{label}: missing from the committed JSON")
            elif value is MISSING:
                failures.append(f"{label}: missing from the fresh run")
            else:
                out.append((label, want, value))
        return out

    for name, key in keys.items():
        if not gated(name):
            continue
        want = [item_key(i, key) for i in items(committed, name)]
        got = [item_key(i, key) for i in items(fresh, name)]
        if collections.Counter(got) != collections.Counter(want):
            failures.append(f"{name}: fresh keys {got} != committed {want}")

    for path in filter(gated, spec["exact"]):
        for label, want, got in pairs(path):
            if got != want:
                failures.append(f"{label}: fresh {got!r} != committed "
                                f"{want!r} (deterministic output drifted)")

    for path, op, bound in spec["required"]:
        if not gated(path):
            continue
        for label, _, got in pairs(path):
            try:
                ok = OPS[op](got, bound)
            except TypeError:
                ok = False
            if not ok:
                failures.append(f"{label}: {got!r}, required {op} {bound!r}")

    for path in filter(gated, spec["banded"]):
        for label, want, got in pairs(path):
            if not (is_number(want) and want > 0 and is_number(got)
                    and got > 0):
                failures.append(f"{label}: fresh {got!r} vs committed "
                                f"{want!r}, both must be positive")
            elif got / want > BAND:
                failures.append(f"{label}: {got:.6g} is {got / want:.2f}x "
                                f"the committed {want:.6g}, band {BAND:.1f}x")

    if "shape" in spec:
        failures += spec["shape"](fresh)
    return failures


def load_json(path):
    """Parses a JSON file; prints and returns None when unreadable."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench: cannot read {path}: {e}")
        return None


def run_bench(binary, env, out_var):
    """Runs one bench binary into a temp file and returns the parsed JSON;
    prints and returns None when the run fails."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "bench.json")
        env[out_var] = out_path
        try:
            subprocess.run([binary], env=env, check=True,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=600)
        except (subprocess.SubprocessError, OSError) as e:
            print(f"check_bench: {binary} failed: {e}")
            return None
        return load_json(out_path)


def gate(name, binary, root, elastic_only):
    """Runs one bench and gates it; returns the exit status."""
    spec = SPECS[name]
    committed = load_json(os.path.join(root, spec["committed"]))
    if committed is None:
        return 2
    env = dict(os.environ)
    for var, path in spec["env"].items():
        value = lookup(committed, path)
        if value is MISSING:
            print(f"check_bench: {spec['committed']} has no {path}")
            return 2
        env[var] = str(value)
    env.update(spec["fixed_env"])
    sections = None
    if name == "fleet" and elastic_only:
        env["IBFS_FLEET_SECTIONS"] = "elastic"
        sections = FLEET_ELASTIC_SECTIONS
    fresh = run_bench(binary, env, spec["out_var"])
    if fresh is None:
        return 2
    failures = compare(spec, committed, fresh, sections)
    for failure in failures:
        print(f"check_bench: FAIL: {name} {failure}")
    if failures:
        return 1
    print(f"check_bench: {name} PASS")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("root", help="repository root (holds the bench JSONs)")
    parser.add_argument("--binary", help="gpusim_bench executable")
    parser.add_argument("--fleet-binary", help="fleet_bench executable")
    parser.add_argument("--partition-binary",
                        help="partition_bench executable")
    parser.add_argument("--elastic-only", action="store_true",
                        help="fleet: run and gate only the elastic and "
                        "replication sections")
    args = parser.parse_args(argv)
    runs = [(name, getattr(args, spec["flag"]))
            for name, spec in SPECS.items()
            if getattr(args, spec["flag"]) is not None]
    if not runs:
        print("check_bench: pass --binary, --fleet-binary and/or "
              "--partition-binary")
        return 2
    rc = 0
    for name, binary in runs:
        status = gate(name, binary, args.root, args.elastic_only)
        if status == 2:
            return 2
        rc = rc or status
    return rc


if __name__ == "__main__":
    sys.exit(main())
