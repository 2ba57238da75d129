#!/usr/bin/env python3
"""Regression gate for the committed bench JSONs.

With ``--binary`` it runs a fresh ``gpusim_bench`` at the exact
configuration recorded in the committed ``BENCH_gpusim.json`` and compares:

* **Exact** (bit-identical, machine-independent): depth/serve checksums,
  transaction counters, and simulated seconds of every section. These come
  out of the deterministic timing model, so any drift is a real behavior
  change — the same invariant tests/gpusim_perf_test.cc pins against
  goldens, checked here end-to-end through the bench harness.
* **Banded** (machine-dependent): wall-clock per section must stay within
  ``--tolerance`` times the committed number (default 4x — generous, the
  gate is for catastrophic regressions like an accidental O(n) rescan in a
  hot loop, not for CI-noise policing).

With ``--fleet-binary`` it applies the same split to ``fleet_bench`` and
the committed ``BENCH_fleet.json``: the baseline checksum and query count
are exact (the fleet's answers are a deterministic function of the seeded
workload), every shard point and replication row must keep
``checksum_match`` true, every replication row must keep zero
``replica_mismatches`` (R = 2 reads fail over in replica order and fan
their cache entry out; the bench itself aborts if R = 2 made no replica
cache writes), the failover and elastic sections must keep zero
unanswered futures and zero mismatches (and the elastic episode must have
actually joined a shard), while the per-point and per-row p50/p99
latencies are banded. ``--elastic-only`` runs the bench with
``IBFS_FLEET_SECTIONS=elastic`` and gates only the elastic + replication
sections — the fast availability smoke wired into ctest as
``fleet_elastic_smoke``.

With ``--partition-binary`` it gates ``partition_bench`` against the
committed ``BENCH_partition.json``: the baseline depth checksum, every
point's ``checksum_match`` (partitioned depths bit-identical to the
unpartitioned engine), and the deterministic comm-model outputs
(compute/comm/sim seconds, bytes on wire, rounds, supersteps) are exact;
the comm model's shape is asserted structurally (all-gather comm seconds
grow monotonically with P, the butterfly beats the all-gather at P >= 4
on identical byte volume); ``wall_seconds`` is banded.

Usage:
  check_bench.py REPO_ROOT --binary PATH/TO/gpusim_bench [options]
  check_bench.py REPO_ROOT --fleet-binary PATH/TO/fleet_bench [options]
  check_bench.py REPO_ROOT --fleet-binary PATH --elastic-only
  check_bench.py REPO_ROOT --partition-binary PATH/TO/partition_bench

Exit status 0 on pass, 1 on any violation, 2 on harness errors.
The serve section is skipped by default (slow, latency-noisy); pass
--serve to include its checksum in the exact comparison.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Sections holding a deterministic simulated-model fingerprint.
EXACT_KEYS = {
    "accounting": ["sim_seconds", "load_transactions"],
    "bitwise_sweep": [
        "sim_seconds",
        "depth_checksum",
        "load_transactions",
        "store_transactions",
        "atomic_ops",
    ],
    "joint_sweep": [
        "sim_seconds",
        "depth_checksum",
        "load_transactions",
        "store_transactions",
        "atomic_ops",
    ],
}

WALL_KEYS = {
    "accounting": "seconds",
    "bitwise_sweep": "wall_seconds_best",
    "joint_sweep": "wall_seconds_best",
}


def fail(msg):
    print(f"check_bench: FAIL: {msg}")
    return 1


def load_committed(path):
    """Parses a committed bench JSON; prints and returns None when unreadable."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        print(f"check_bench: cannot read {path}: {e}")
        return None


def run_bench(binary, env, label, out_var="IBFS_BENCH_OUT", timeout=600):
    """Runs one bench binary into a temp file and returns the parsed JSON;
    prints and returns None when the run fails."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "bench.json")
        env[out_var] = out_path
        try:
            subprocess.run(
                [binary], env=env, check=True, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, timeout=timeout,
            )
            with open(out_path, encoding="utf-8") as f:
                return json.load(f)
        except (subprocess.SubprocessError, OSError) as e:
            print(f"check_bench: {label} run failed: {e}")
            return None


def banded(name, got, want, tolerance, unit, digits):
    """Prints one banded wall-clock comparison; returns 1 when over the band."""
    if not want or not got:
        return 0
    ratio = got / want
    status = "ok" if ratio <= tolerance else "REGRESSION"
    print(
        f"check_bench: {name}: {got:.{digits}f}{unit} vs committed "
        f"{want:.{digits}f}{unit} ({ratio:.2f}x, band {tolerance:.1f}x) "
        f"{status}"
    )
    if ratio > tolerance:
        return fail(
            f"{name} {ratio:.2f}x over committed, band {tolerance:.1f}x"
        )
    return 0


def check_fleet(args):
    """Gates fleet_bench against the committed BENCH_fleet.json."""
    committed = load_committed(
        args.committed or os.path.join(args.root, "BENCH_fleet.json")
    )
    if committed is None:
        return 2

    env = dict(os.environ)
    # Reproduce the committed workload exactly; the baseline checksum is
    # only comparable at an identical graph/seeded arrival schedule.
    env["IBFS_GRAPH"] = str(committed.get("graph", "PK"))
    env["IBFS_FLEET_QPS"] = str(committed.get("qps", 400.0))
    env["IBFS_FLEET_DURATION"] = str(committed.get("duration_seconds", 1.0))
    env["IBFS_FLEET_VNODES"] = str(committed.get("vnodes", 128))
    env["IBFS_FLEET_SECTIONS"] = "elastic" if args.elastic_only else "all"
    fresh = run_bench(args.fleet_binary, env, "fleet bench")
    if fresh is None:
        return 2

    rc = 0
    # Exact fingerprint: the deterministic answers and their coverage.
    for key in ("queries",):
        if committed.get(key) != fresh.get(key):
            rc = fail(
                f"fleet {key}: fresh {fresh.get(key)!r} != committed "
                f"{committed.get(key)!r} (workload drifted)"
            )
    want = committed.get("baseline", {}).get("checksum")
    got = fresh.get("baseline", {}).get("checksum")
    if want != got:
        rc = fail(
            f"fleet baseline.checksum: fresh {got!r} != committed {want!r} "
            "(deterministic answers drifted)"
        )
    if not args.elastic_only:
        for point in fresh.get("points", []):
            if not point.get("checksum_match"):
                rc = fail(
                    f"fleet {point.get('shards')}-shard point lost checksum "
                    "parity with the single-service baseline"
                )
        if not fresh.get("scatter", {}).get("checksum_match"):
            rc = fail("fleet scatter section lost checksum parity")
        failover = fresh.get("failover", {})
        if failover.get("unanswered", 0) != 0:
            rc = fail(f"fleet failover left {failover.get('unanswered')} "
                      "futures unanswered")
        if failover.get("checksum_mismatches", 0) != 0:
            rc = fail(f"fleet failover produced "
                      f"{failover.get('checksum_mismatches')} checksum "
                      "mismatches")

    # Elastic episode: kill + join with traffic flowing must lose nothing.
    elastic = fresh.get("elastic", {})
    if not elastic:
        rc = fail("fleet bench emitted no elastic section")
    if elastic.get("unanswered", 0) != 0:
        rc = fail(f"fleet elastic episode left {elastic.get('unanswered')} "
                  "futures unanswered")
    if elastic.get("checksum_mismatches", 0) != 0:
        rc = fail(f"fleet elastic episode produced "
                  f"{elastic.get('checksum_mismatches')} checksum "
                  "mismatches")
    if elastic.get("shard_joins", 0) < 1:
        rc = fail("fleet elastic episode never joined a shard")

    # Replication sweep: answers stay bit-identical at every R, replicas
    # never disagree.
    replication = fresh.get("replication", [])
    if not replication:
        rc = fail("fleet bench emitted no replication section")
    for row in replication:
        r = row.get("replication")
        if not row.get("checksum_match"):
            rc = fail(f"fleet R={r} row lost checksum parity with the "
                      "single-service baseline")
        if row.get("replica_mismatches", 0) != 0:
            rc = fail(f"fleet R={r} row produced "
                      f"{row.get('replica_mismatches')} replica mismatches")

    # Banded: per-point / per-row latency vs the committed run.
    rows = []
    if not args.elastic_only:
        committed_points = {
            p.get("shards"): p for p in committed.get("points", [])
        }
        for point in fresh.get("points", []):
            shards = point.get("shards")
            base = committed_points.get(shards)
            if base is not None:
                rows.append((f"fleet[{shards}]", base, point))
        if committed.get("elastic"):
            rows.append(("fleet.elastic", committed["elastic"], elastic))
    committed_rows = {
        r.get("replication"): r for r in committed.get("replication", [])
    }
    for row in replication:
        base = committed_rows.get(row.get("replication"))
        if base is not None:
            rows.append((f"fleet[R={row.get('replication')}]", base, row))
    for label, base, point in rows:
        for key in ("p50_ms", "p99_ms"):
            rc = banded(f"{label}.{key}", point.get(key), base.get(key),
                        args.tolerance, "ms", 3) or rc
    if rc == 0:
        print("check_bench: fleet PASS")
    return rc


def check_partition(args):
    """Gates partition_bench against the committed BENCH_partition.json."""
    committed = load_committed(
        args.committed or os.path.join(args.root, "BENCH_partition.json")
    )
    if committed is None:
        return 2

    config = committed.get("config", {})
    env = dict(os.environ)
    # Reproduce the committed workload exactly; the checksums and the
    # deterministic comm-model outputs are only comparable at an
    # identical graph / instance count / group size.
    env["IBFS_GRAPH"] = str(committed.get("graph", "PK"))
    env["IBFS_PARTITION_INSTANCES"] = str(config.get("instances", 64))
    env["IBFS_PARTITION_GROUP"] = str(config.get("group_size", 32))
    fresh = run_bench(args.partition_binary, env, "partition bench")
    if fresh is None:
        return 2

    rc = 0
    want = committed.get("baseline", {}).get("depth_checksum")
    got = fresh.get("baseline", {}).get("depth_checksum")
    if want != got:
        rc = fail(
            f"partition baseline.depth_checksum: fresh {got!r} != committed "
            f"{want!r} (deterministic answers drifted)"
        )

    def point_key(point):
        return (point.get("partitions"), point.get("schedule"))

    committed_points = {point_key(p): p for p in committed.get("points", [])}
    fresh_points = fresh.get("points", [])
    if {point_key(p) for p in fresh_points} != set(committed_points):
        rc = fail("partition point set differs from the committed sweep")

    # Exact: parity with the unpartitioned engine plus every deterministic
    # model output. These are pure functions of (graph, P, schedule), so
    # any drift is a real behavior change.
    exact_keys = (
        "compute_seconds",
        "comm_seconds",
        "sim_seconds",
        "bytes_on_wire",
        "rounds",
        "supersteps",
        "edge_imbalance",
    )
    for point in fresh_points:
        p, schedule = point_key(point)
        label = f"partition[P={p},{schedule}]"
        if not point.get("checksum_match"):
            rc = fail(f"{label} lost depth parity with the engine")
        base = committed_points.get((p, schedule))
        if base is None:
            continue
        for key in exact_keys:
            if base.get(key) != point.get(key):
                rc = fail(
                    f"{label}.{key}: fresh {point.get(key)!r} != committed "
                    f"{base.get(key)!r} (deterministic model output drifted)"
                )

    # Structural shape of the comm model, independent of committed values.
    allgather = sorted(
        (p for p in fresh_points if p.get("schedule") == "allgather"),
        key=lambda p: p.get("partitions", 0),
    )
    for prev, cur in zip(allgather, allgather[1:]):
        if cur.get("comm_seconds", 0) <= prev.get("comm_seconds", 0) and (
            cur.get("partitions", 0) > 1
        ):
            rc = fail(
                f"all-gather comm seconds did not grow from "
                f"P={prev.get('partitions')} to P={cur.get('partitions')}"
            )
    by_key = {point_key(p): p for p in fresh_points}
    for p in sorted({k[0] for k in by_key} - {1}):
        ag = by_key.get((p, "allgather"))
        bf = by_key.get((p, "butterfly"))
        if ag is None or bf is None:
            continue
        if ag.get("bytes_on_wire") != bf.get("bytes_on_wire"):
            rc = fail(f"schedules moved different byte volumes at P={p}")
        if p >= 4 and bf.get("comm_seconds", 0) >= ag.get("comm_seconds", 0):
            rc = fail(
                f"butterfly did not beat the all-gather at P={p} "
                f"({bf.get('comm_seconds')} vs {ag.get('comm_seconds')})"
            )

    # Banded: wall clock per point vs the committed run.
    for point in fresh_points:
        base = committed_points.get(point_key(point))
        if base is not None:
            p, schedule = point_key(point)
            rc = banded(f"partition[P={p},{schedule}].wall_seconds",
                        point.get("wall_seconds"), base.get("wall_seconds"),
                        args.tolerance, "s", 4) or rc
    if rc == 0:
        print("check_bench: partition PASS")
    return rc


def check_gpusim(args):
    """Gates gpusim_bench against the committed BENCH_gpusim.json."""
    committed = load_committed(
        args.committed or os.path.join(args.root, "BENCH_gpusim.json")
    )
    if committed is None:
        return 2

    config = committed.get("config", {})
    env = dict(os.environ)
    # Reproduce the committed workload exactly; counters and sim seconds
    # are only comparable at an identical configuration.
    env["IBFS_GPUSIM_BENCH_SCALE"] = str(config.get("rmat_scale", 14))
    env["IBFS_GPUSIM_BENCH_EDGES"] = str(config.get("edge_factor", 16))
    env["IBFS_GPUSIM_BENCH_INSTANCES"] = str(config.get("instances", 256))
    env["IBFS_GPUSIM_BENCH_GROUP"] = str(config.get("group_size", 64))
    env["IBFS_GPUSIM_BENCH_REPEATS"] = "2"  # wall best-of only; counters exact
    env["IBFS_GPUSIM_BENCH_SERVE"] = "1" if args.serve else "0"
    env.pop("IBFS_GPUSIM_BENCH_BASELINE", None)

    fresh = run_bench(args.binary, env, "bench", "IBFS_GPUSIM_BENCH_OUT")
    if fresh is None:
        return 2

    rc = 0
    for section, keys in EXACT_KEYS.items():
        for key in keys:
            want = committed.get(section, {}).get(key)
            got = fresh.get(section, {}).get(key)
            if want != got:
                rc = fail(
                    f"{section}.{key}: fresh {got!r} != committed {want!r} "
                    "(deterministic model output drifted)"
                )
    if args.serve:
        want = committed.get("serve", {}).get("checksum")
        got = fresh.get("serve", {}).get("checksum")
        if want != got:
            rc = fail(f"serve.checksum: fresh {got!r} != committed {want!r}")

    for section, key in WALL_KEYS.items():
        rc = banded(f"{section}.{key}", fresh.get(section, {}).get(key),
                    committed.get(section, {}).get(key), args.tolerance,
                    "s", 4) or rc
    return rc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", help="repository root (holds the bench JSONs)")
    parser.add_argument("--binary", default=None, help="gpusim_bench executable")
    parser.add_argument(
        "--fleet-binary", default=None, help="fleet_bench executable"
    )
    parser.add_argument(
        "--partition-binary", default=None, help="partition_bench executable"
    )
    parser.add_argument(
        "--committed",
        default=None,
        help="committed bench JSON (default: ROOT/BENCH_gpusim.json or "
        "ROOT/BENCH_fleet.json per mode)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("IBFS_BENCH_TOLERANCE", "4.0")),
        help="allowed wall-clock ratio vs committed (env IBFS_BENCH_TOLERANCE)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also run the serve section and compare its checksum",
    )
    parser.add_argument(
        "--elastic-only",
        action="store_true",
        help="fleet mode: run only the elastic + replication sections "
        "(IBFS_FLEET_SECTIONS=elastic) and gate just those",
    )
    args = parser.parse_args()
    if (
        args.binary is None
        and args.fleet_binary is None
        and args.partition_binary is None
    ):
        print(
            "check_bench: pass --binary, --fleet-binary, and/or "
            "--partition-binary"
        )
        return 2
    rc = 0
    for binary, check in (
        (args.partition_binary, check_partition),
        (args.fleet_binary, check_fleet),
        (args.binary, check_gpusim),
    ):
        if binary is not None:
            check_rc = check(args)
            if check_rc == 2:
                return 2
            rc = rc or check_rc
    if args.binary is not None and rc == 0:
        print("check_bench: PASS")
    return rc


if __name__ == "__main__":
    sys.exit(main())
