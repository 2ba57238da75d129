"""Self-test of tools/check_bench.py against the committed bench JSONs.

Needs no bench binary: each case perturbs a copy of a committed JSON and
feeds it to ``compare`` as the fresh run, and the end-to-end cases run
``main`` against a stub "binary" that writes a prepared JSON. Run from the
repository root:

  python3 -m unittest tools/check_bench_test.py
"""

import collections
import contextlib
import copy
import io
import json
import math
import stat
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
sys.path.insert(0, str(TOOLS))
import check_bench as cb  # noqa: E402

# One gate run: ``fails`` is the expected verdict; ``expect``, when set, is
# a substring one of the failures must contain.
Case = collections.namedtuple(
    "Case", "name bench elastic_only committed fresh fails expect")

MODES = [("gpusim", False), ("fleet", False), ("fleet", True),
         ("partition", False)]


def load_committed(bench):
    return json.loads((ROOT / cb.SPECS[bench]["committed"]).read_text())


def fresh_view(bench, elastic_only, doc):
    """What the bench emits in this mode: the elastic-only fleet run has no
    points, scatter or failover section."""
    doc = copy.deepcopy(doc)
    if bench == "fleet" and elastic_only:
        for key in ("points", "scatter", "failover"):
            del doc[key]
        doc["sections"] = "elastic"
    return doc


def sections(bench, elastic_only):
    return cb.FLEET_ELASTIC_SECTIONS if bench == "fleet" and elastic_only \
        else None


def targets(doc, path):
    """(container, key, label) for every value a spec path names."""
    if "[]." in path:
        name, field = path.split("[].")
        return [(item, field, f"{name}[{i}].{field}")
                for i, item in enumerate(cb.lookup(doc, name))]
    *parents, leaf = path.split(".")
    for part in parents:
        doc = doc[part]
    return [(doc, leaf, path)]


def variants(doc, path, mutate):
    """(label, copy of doc) with ``mutate(container, key)`` applied to one
    value at path, for every value at path."""
    for i in range(len(targets(doc, path))):
        out = copy.deepcopy(doc)
        container, key, label = targets(out, path)[i]
        mutate(container, key)
        yield label, out


def assign(value_fn):
    """A mutation that replaces a value by ``value_fn(value)``."""
    def mutate(container, key):
        container[key] = value_fn(container[key])
    return mutate


def remove(container, key):
    del container[key]


def perturb(value):
    """The smallest change of a value that is still the same type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    return value[:-1] + ("1" if value[-1] == "0" else "0")


def violate(op, bound):
    if op == ">=":
        return bound - 1
    return (not bound) if isinstance(bound, bool) else bound + 1


def mode_cases(bench, elastic_only):
    spec = cb.SPECS[bench]
    committed = load_committed(bench)
    base = fresh_view(bench, elastic_only, committed)
    gated = sections(bench, elastic_only)

    def top(path):
        return path.split(".")[0].split("[")[0]

    def in_mode(path):
        return gated is None or top(path) in gated

    mode = f"{bench}{'/elastic' if elastic_only else ''}"
    cases = []

    def case(name, fresh, fails):
        cases.append(Case(f"{mode} {name}", bench, elastic_only, committed,
                          fresh, fails, None))

    case("unmodified", base, False)
    exact = [p for p in spec["exact"] if in_mode(p)]
    required = [r for r in spec["required"] if in_mode(r[0])]
    banded = [p for p in spec["banded"] if in_mode(p)]
    for path in exact:
        for label, fresh in variants(base, path, assign(perturb)):
            case(f"exact {label} perturbed", fresh, True)
    for path, op, bound in required:
        for label, fresh in variants(
                base, path, assign(lambda _, o=op, b=bound: violate(o, b))):
            case(f"required {label} {op} {bound!r} violated", fresh, True)
    for path in banded:
        for factor, fails in ((4.01, True), (3.99, False), (0.0, True)):
            for label, fresh in variants(
                    base, path, assign(lambda v, f=factor: v * f)):
                case(f"banded {label} at {factor}x", fresh, fails)
    named = exact + [r[0] for r in required] + banded
    for path in named:
        for label, fresh in variants(base, path, remove):
            case(f"missing {label}", fresh, True)
    for section in sorted({top(p) for p in named}):
        fresh = copy.deepcopy(base)
        del fresh[section]
        case(f"missing section {section}", fresh, True)
    for name in filter(in_mode, spec["keys"]):
        for i in range(len(base[name])):
            fresh = copy.deepcopy(base)
            fresh[name].append(copy.deepcopy(fresh[name][i]))
            case(f"duplicate {name}[{i}]", fresh, True)
            fresh = copy.deepcopy(base)
            del fresh[name][i]
            case(f"missing item {name}[{i}]", fresh, True)
    return cases


def partition_shape_cases():
    """Each comm-model shape rule broken in the committed and the fresh run
    alike, so only the shape check can fail."""
    committed = load_committed("partition")
    index = {(p["partitions"], p["schedule"]): i
             for i, p in enumerate(committed["points"])}
    broken = [
        ("all-gather comm flat from P=1 to P=2", (2, "allgather"),
         "comm_seconds", lambda d: 0, "did not grow from P=1 to P=2"),
        ("byte volumes differ at P=2", (2, "butterfly"), "bytes_on_wire",
         lambda d: d + 1, "different byte volumes at P=2"),
        ("butterfly ties the all-gather at P=4", (4, "butterfly"),
         "comm_seconds",
         lambda d: committed["points"][index[(4, "allgather")]][
             "comm_seconds"], "did not beat the all-gather at P=4"),
    ]
    cases = []
    for name, key, field, value_fn, expect in broken:
        doc = copy.deepcopy(committed)
        point = doc["points"][index[key]]
        point[field] = value_fn(point[field])
        cases.append(Case(f"partition shape: {name}", "partition", False,
                          doc, doc, True, expect))
    return cases


def named_cases():
    """The missing-field cases a value-defaulting gate passed."""
    fleet = load_committed("fleet")
    cases = []
    fresh = copy.deepcopy(fleet)
    fresh["points"] = [p for p in fresh["points"] if p["shards"] != 8]
    cases.append(Case("fleet 8-shard point dropped", "fleet", False, fleet,
                      fresh, True, "points: fresh keys"))
    for elastic_only in (False, True):
        fresh = fresh_view("fleet", elastic_only, fleet)
        del fresh["elastic"]["unanswered"]
        del fresh["replication"][1]["replica_mismatches"]
        cases.append(Case(
            f"fleet{'/elastic' if elastic_only else ''} elastic.unanswered "
            "and replication[1].replica_mismatches dropped", "fleet",
            elastic_only, fleet, fresh, True,
            "replication[replication=2].replica_mismatches: missing"))
    return cases


def all_cases():
    cases = []
    for bench, elastic_only in MODES:
        cases += mode_cases(bench, elastic_only)
    return cases + partition_shape_cases() + named_cases()


class CompareTest(unittest.TestCase):
    def test_cases(self):
        for c in all_cases():
            with self.subTest(c.name):
                failures = cb.compare(cb.SPECS[c.bench], c.committed,
                                      c.fresh, sections(c.bench,
                                                        c.elastic_only))
                self.assertEqual(bool(failures), c.fails, failures)
                if c.expect:
                    self.assertTrue(any(c.expect in f for f in failures),
                                    failures)

    def test_case_counts(self):
        names = [c.name for c in all_cases()]
        self.assertEqual(len(names), len(set(names)))

        def count(prefix):
            return sum(n.startswith(prefix) for n in names)

        self.assertEqual(count("gpusim exact"), 12)
        self.assertEqual(count("fleet exact"), 2)
        self.assertEqual(count("partition exact"), 1 + 7 * 7)
        self.assertEqual(count("partition required"), 7)
        self.assertEqual(count("fleet required"), 4 + 1 + 2 + 3 + 2 * 2)

    def test_elastic_mode_ignores_core_sections(self):
        committed = load_committed("fleet")
        fresh = fresh_view("fleet", True, committed)
        fresh["scatter"] = {"checksum_match": False}
        self.assertEqual(cb.compare(cb.SPECS["fleet"], committed, fresh,
                                    cb.FLEET_ELASTIC_SECTIONS), [])


def write_stub(directory, fresh, out_var, env=None, exit_code=0):
    """An executable that checks its environment, then writes ``fresh``
    to the path in ``out_var``, as its bench would."""
    data = Path(directory) / "fresh.json"
    data.write_text(json.dumps(fresh))
    stub = Path(directory) / "stub_bench"
    stub.write_text(
        f"#!{sys.executable}\n"
        "import json, os, shutil, sys\n"
        f"for var, want in json.loads({json.dumps(env or {})!r}).items():\n"
        "    if os.environ.get(var) != want:\n"
        "        sys.exit(f'{var}={os.environ.get(var)!r}, want {want!r}')\n"
        f"if {exit_code}:\n"
        f"    sys.exit({exit_code})\n"
        f"shutil.copy({str(data)!r}, os.environ[{out_var!r}])\n")
    stub.chmod(stub.stat().st_mode | stat.S_IXUSR)
    return str(stub)


class MainTest(unittest.TestCase):
    """One stub-binary run per mode and exit status."""

    def run_main(self, bench, elastic_only, fresh, exit_code=0):
        spec = cb.SPECS[bench]
        committed = load_committed(bench)
        env = {var: str(cb.lookup(committed, path))
               for var, path in spec["env"].items()}
        env.update(spec["fixed_env"])
        if elastic_only:
            env["IBFS_FLEET_SECTIONS"] = "elastic"
        with tempfile.TemporaryDirectory() as tmp:
            stub = write_stub(tmp, fresh, spec["out_var"], env, exit_code)
            argv = [str(ROOT), "--" + spec["flag"].replace("_", "-"), stub]
            if elastic_only:
                argv.append("--elastic-only")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                return cb.main(argv), out.getvalue()

    def test_exit_codes(self):
        for bench, elastic_only in MODES:
            committed = load_committed(bench)
            fresh = fresh_view(bench, elastic_only, committed)
            path = cb.SPECS[bench]["exact"][-1]
            _, drifted = next(variants(fresh, path, assign(perturb)))
            with self.subTest(bench=bench, elastic_only=elastic_only):
                rc, out = self.run_main(bench, elastic_only, fresh)
                self.assertEqual(rc, 0, out)
                self.assertIn(f"{bench} PASS", out)
                rc, out = self.run_main(bench, elastic_only, drifted)
                self.assertEqual(rc, 1, out)
                self.assertIn("FAIL", out)
                rc, out = self.run_main(bench, elastic_only, fresh,
                                        exit_code=3)
                self.assertEqual(rc, 2, out)

    def test_no_binary_is_a_harness_error(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cb.main([str(ROOT)]), 2)


if __name__ == "__main__":
    unittest.main()
