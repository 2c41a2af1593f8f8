"""The benchmark's self-test.

    python3 vmbench/selftest.py

For each workload, with short traced passes in this process:

* the same seed gives the same inputs, and another seed other inputs;
* two traced passes at one seed give bit-identical simulated results
  and per-layer counts (everything but host times);
* every op verifies, the ``check`` copy and cache are removed
  afterwards, and the source tree is left as it was.

For ``check`` it also plants each known-bad edit and requires it to be
flagged under its rule id, and not under another one.
"""

import argparse
import hashlib
import sys

import run

#: Traced ops per pass here: enough to touch every layer a workload
#: uses, few enough to keep the self-test short.
SHORT_PASS = {"compile": 40, "storm": 6, "check": 1}


def tree_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((run.SRC / "repro").rglob("*.py")):
        digest.update(str(path).encode() + path.read_bytes())
    return digest.hexdigest()


def deterministic(name: str, unit: str) -> bool:
    """Metrics that must repeat exactly: counts, simulated results and
    ratios of counts (host times and their shares do not)."""
    if name.startswith("sim."):
        return True
    return unit != "s" and not name.endswith(".share") \
        and name != "trace.overhead_ratio"


def traced_metrics(workload: str, seed: int) -> dict:
    load, warm_ok = run.set_up(workload, seed)
    load.trace_ops = SHORT_PASS[workload]
    args = argparse.Namespace(workload=workload, seed=seed)
    try:
        result = run.traced(args, load, warm_ok)
    finally:
        load.close()
    assert result["correct"], (workload, result["failed"])
    return {name: m["value"] for name, m in result["metrics"].items()
            if deterministic(name, m["unit"])}


def check_bad_edits(seed: int) -> None:
    import loads
    load = run.make_load("check", seed)
    load.setup()
    try:
        rules = [rule for _p, _s, rule in loads.BAD_EDITS]
        for index, (package, source, rule) in enumerate(loads.BAD_EDITS):
            target = f"{package}/{loads.BAD_MODULE}.py"
            assert load.apply("B", target, source, rule), rule
            other = rules[(index + 1) % len(rules)]
            assert not load.apply("B", target, source, other), other
    finally:
        load.close()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    before = tree_digest()
    for workload in run.WORKLOADS:
        a, b, c = (run.make_load(workload, s).inputs_digest()
                   for s in (1, 1, 2))
        assert a == b != c, f"{workload}: inputs do not follow the seed"
        first = traced_metrics(workload, 7)
        second = traced_metrics(workload, 7)
        diff = {k: (first[k], second[k]) for k in first
                if first[k] != second[k]}
        assert not diff, f"{workload}: not repeatable: {diff}"
        print(f"{workload}: {len(first)} metrics repeat exactly")
    check_bad_edits(7)
    print("check: every known-bad edit is flagged under its rule id")
    assert not run.SCRATCH.exists(), "check left its temporary copy"
    assert tree_digest() == before, "the source tree changed"
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
