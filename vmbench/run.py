"""Run one benchmark workload at one seed in this process.

    python3 vmbench/run.py --workload compile|storm|check --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, timed with no tracing installed; with ``--trace 1``
they are the per-layer ones, from a pass with every layer's entry
points wrapped (see ``spans.py``).  A readable report goes to standard
error.  See ``README.md`` for what each workload and metric is for.
"""

import time

_START = time.perf_counter()        # set-up is measured from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (inside the checkout).
OUT = ROOT / ".vmbench-out"
#: Parent of the ``check`` workload's temporary tree copy and cache.
SCRATCH = ROOT / ".vmbench-tmp"
#: Percentiles a tail may be reported at.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
WORKLOADS = ("compile", "storm", "check")


def make_load(name: str, seed: int):
    import loads
    if name == "compile":
        return loads.CompileLoad(seed)
    if name == "storm":
        return loads.StormLoad(seed)
    return loads.CheckLoad(seed, SRC / "repro", SCRATCH)


def set_up(name: str, seed: int):
    """Inputs, boot and one warm-up op; returns (load, warm-up ok)."""
    load = make_load(name, seed)
    load.setup()
    gc.collect()
    ok = load.op(0)
    return load, ok


def run_ops(load, done, op=None):
    """Run ops from 1 until ``done(next op, now)``; returns (latencies
    in s, failures, next op)."""
    op = op or load.op
    latencies, failures = [], 0
    i = 1
    while True:
        load.prepare(i)
        t0 = time.perf_counter()
        ok = op(i)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        failures += not ok
        i += 1
        if done(i, t1):
            return latencies, failures, i


def fastest_by_kind(load, latencies: list) -> dict:
    """Each op kind's fastest latency among the timed ops (op 1 on).

    Other tenants of a shared host slow ops down in bursts and drift
    over minutes; a run's median moves with them (10-30% between runs),
    while the fastest op of a kind repeats within a few per cent.
    """
    fastest: dict = {}
    for i, took in enumerate(latencies, 1):
        kind = load.kind(i)
        fastest[kind] = min(took, fastest.get(kind, took))
    return fastest


def tail(latencies: list) -> tuple:
    """The highest percentile of :data:`TAIL_GRID` with at least ten
    ops beyond it: (percentile, seconds), or None with too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for pct in TAIL_GRID:
        if n * (1 - pct / 100) >= 10:
            best = (pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)])
    return best


def setup_samples(args, own: float, count: int) -> list:
    """*own* plus the set-up times of *count* - 1 fresh set-up-only
    processes."""
    samples = [own]
    for _ in range(count - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(args, load, warm_ok: bool, setup_s: float) -> dict:
    gc.collect()
    deadline = time.perf_counter() + args.seconds
    latencies, failures, end = run_ops(
        load, lambda _i, now: now >= deadline)
    rss = peak_rss_mb()
    failures += load.finish() + (not warm_ok)
    attempted = end                 # ops 0..end-1, warm-up included
    sim = load.sim_metrics(load.pass_len) if end >= load.pass_len else {}
    load.close()
    setups = setup_samples(args, setup_s, load.setup_samples)
    fastest = fastest_by_kind(load, latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_fastest_us": (statistics.mean(fastest.values()) * 1e6, "us"),
        "peak_rss_mb": (rss, "MB"),
        "success_ratio": ((attempted - failures) / attempted, "ratio"),
    }
    notes = [f"timed ops: {len(latencies)} in {sum(latencies):.3f} s: "
             f"{len(latencies) / sum(latencies):.4g} ops/s, median "
             f"{statistics.median(latencies) * 1e6:.1f} us",
             "fastest op by kind (us): " + ", ".join(
                 f"{kind} {took * 1e6:.1f}" for kind, took
                 in sorted(fastest.items())),
             f"setup samples (s): "
             + ", ".join(f"{s:.3f}" for s in setups)]
    worst = tail(latencies)
    notes.append(f"op tail: p{worst[0]:g} = {worst[1] * 1e6:.1f} us "
                 f"over {len(latencies)} ops" if worst else
                 f"op tail: fewer than 11 ops ({len(latencies)}), "
                 f"none reported")
    notes += [f"{name}: {value!r}" for name, value in sim.items()]
    return _result(failures, attempted, metrics, notes)


def traced(args, load, warm_ok: bool) -> dict:
    import spans

    last = load.trace_ops

    def done(i, _now):
        return i > last

    gc.collect()
    plain, failures, _ = run_ops(load, done)
    sim = load.sim_metrics(last + 1)

    tracer = spans.Tracer()
    tracer.install()
    try:
        # A fresh start with the wrappers in place, so that objects
        # built at boot see them too; the spans of this re-set-up and
        # its warm-up op are dropped.
        load.reset()
        failures += not load.op(0)
        tracer.clear()
        before = load.counters()
        gc.collect()
        bench_op = tracer.span("bench.op", "op", load.op)

        def one_op(i):
            tracer.op = i
            return bench_op(i)

        timed, more, _ = run_ops(load, done, one_op)
        failures += more
        after = load.counters()
    finally:
        tracer.uninstall()
    failures += load.finish() + (not warm_ok)
    load.close()
    counts = {key: after.get(key, 0) - before.get(key, 0)
              for key in after}
    metrics = layer_metrics(tracer, counts, sum(timed), sum(plain), sim)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.bin",
                 {"workload": args.workload, "seed": args.seed})
    notes = [f"traced ops: {len(timed)}, spans: {len(tracer.start)}"]
    return _result(failures, 2 * last + 2, metrics, notes)


def layer_metrics(tracer, counts: dict, wall: float, plain_wall: float,
                  sim: dict) -> dict:
    """The per-layer metrics of one traced pass."""
    import spans

    groups = tracer.by_group()

    def calls(prefix):
        return sum(c for g, (c, _s) in groups.items()
                   if g == prefix or g.startswith(prefix + "."))

    def busy(prefix):
        return sum(s for g, (_c, s) in groups.items()
                   if g == prefix or g.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    faults = calls("core.fault")
    analyses = counts.get("analyses", 0)
    tlb = counts.get("tlb_hits", 0) + counts.get("tlb_misses", 0)
    bcache = counts.get("bcache_hits", 0) + counts.get("bcache_misses", 0)
    evicted = counts.get("pageouts", 0) + counts.get("reactivations", 0)
    analysed = counts.get("modules_analyzed", 0)
    # Each layer's self time, calls and share of the traced wall; the
    # harness's own time is what no program layer accounts for (its op
    # spans plus the loop around them), so the shares sum to one.
    m = {}
    layer_self = {layer: busy(layer) for layer in spans.LAYERS[:-1]}
    layer_self["bench"] = wall - sum(layer_self.values())
    for layer, secs in layer_self.items():
        m[f"{layer}.self_s"] = (secs, "s")
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.share"] = (ratio(secs, wall), "ratio")
    for group in ("core.fault", "core.task", "core.access", "core.pageout",
                  "analysis.layering", "analysis.race", "analysis.flow",
                  "analysis.callgraph", "analysis.passes",
                  "analysis.conformance"):
        m[f"{group}.self_s"] = (busy(group), "s")
    m.update({
        "hw.tlb.hit_ratio": (ratio(counts.get("tlb_hits", 0), tlb),
                             "ratio"),
        "hw.tlb.flushes": (counts.get("tlb_flushes", 0), "count"),
        "pmap.ops_per_fault": (ratio(calls("pmap"), faults), "ratio"),
        "pmap.shootdowns": (counts.get("shootdowns", 0), "count"),
        "core.fault.calls": (faults, "count"),
        "core.cow_faults": (counts.get("cow_faults", 0), "count"),
        "core.zero_fills": (counts.get("zero_fills", 0), "count"),
        "core.pageins": (counts.get("pageins", 0), "count"),
        "core.pageouts": (counts.get("pageouts", 0), "count"),
        "core.reactivation_ratio": (
            ratio(counts.get("reactivations", 0), evicted), "ratio"),
        "core.object_cache_hits": (counts.get("object_cache_hits", 0),
                                   "count"),
        "core.chain_walks_per_fault": (
            ratio(counts.get("chain_walks", 0), faults), "ratio"),
        "pager.retries": (counts.get("pager_retries", 0), "count"),
        "obs.events": (calls("obs.emit"), "count"),
        "fs.buffer_cache_hit_ratio": (
            ratio(counts.get("bcache_hits", 0), bcache), "ratio"),
        "analysis.modules_per_op": (ratio(analysed, analyses), "ratio"),
        "analysis.cache_hit_ratio": (
            ratio(counts.get("modules_cached", 0),
                  counts.get("modules_cached", 0) + analysed), "ratio"),
    })
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_ratio"] = (ratio(wall, plain_wall), "ratio")
    m["trace.spans"] = (len(tracer.start), "count")
    for name in ("sim.elapsed_s", "sim.fault_p99_us",
                 "sim.paper_ratio_err"):
        unit = {"sim.elapsed_s": "sim_s",
                "sim.fault_p99_us": "sim_us"}.get(name, "ratio")
        m[name] = (sim.get(name, 0.0), unit)
    for stage in ("pager_wait", "reclaim", "copy_up", "shootdown",
                  "pmap_enter", "zero_fill", "mmu_probe"):
        name = f"sim.stage.{stage}.share"
        m[name] = (sim.get(name, 0.0), "ratio")
    return m


def _result(failures: int, attempted: int, metrics: dict,
            notes: list) -> dict:
    failures = min(failures, attempted)
    return {"correct": failures == 0, "attempted": attempted,
            "failed": failures,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and stop")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Stopped from outside, still remove check's temporary copy.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    load, warm_ok = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        load.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        result = (traced(args, load, warm_ok) if args.trace
                  else untraced(args, load, warm_ok, setup_s))
    finally:
        load.close()
    for note in result.pop("notes"):
        print(note, file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:32} {metric['value']!r:>24} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
