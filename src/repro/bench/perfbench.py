"""Wall-clock performance of the simulator itself.

The paper's tables (:mod:`repro.bench.workloads`) report *simulated*
time off the machine clock; this module instead times the simulator's
own Python hot paths with :func:`time.perf_counter`, so a regression
in the fault handler, the pmap layer, or the invariant sweeps shows up
as real seconds.  ``repro bench --json`` writes the result as a JSON
document (the repo's ``BENCH_<pr>.json`` series).

The numbers:

* **fault microbench** — forget/refault churn: every mapping of a
  warmed region is dropped through :meth:`Pmap.forget` (the "pmap may
  forget" half of the MD/MI contract) and then rebuilt by fresh
  faults.  The headline number drives the refaults through the batch
  lane (:meth:`MachKernel.fault_batch`); ``fault_microbench_scalar``
  reports the same workload page-at-a-time for comparison.  Both
  resolve the identical `rounds x pages` fault stream;
* **per-arch fault throughput** — the batch-lane microbench repeated
  on every registered pmap architecture;
* **invariant-sweep wall-clock** — how long ``repro check``'s runtime
  sweeps take serially, the dominant cost of the CI gate, plus the
  process-parallel (``--jobs``) wall-clock for the same matrix;
* **fault tail latency** — *simulated*-time percentiles
  (p50/p99/p999) and per-pipeline-stage attribution from the
  :mod:`repro.bench.storm` load generator, per architecture.  Unlike
  the wall-clock numbers these are deterministic for a given seed, so
  the compare gate can hold them to exact-ratio SLOs;
* **pager-stall storm** — the protocol-v2 serving path under injected
  pager stalls, per architecture, each cell paired with a serialized
  pre-v2 control on the same shape and seed (``p99_vs_serialized`` < 1
  means batching + borrowed-CPU backoff waits beat the blocking path).

The report records the seed (the forget order is seeded and shuffled),
the arch list, and per-arch throughput so a regression names exactly
the configuration that reproduces it.
"""

from __future__ import annotations

import os
import random
import time

from repro.bench.testing import make_spec

MB = 1024 * 1024

#: Default seed for the shuffled forget order (any 32-bit value works).
DEFAULT_SEED = 0xBE7C

#: Machine parameters per benchmarked architecture (mirrors the test
#: fixtures and the sweep matrix, plus the VAC variant).
BENCH_ARCHS: dict[str, dict] = {
    "generic": {},
    "vax": dict(hw_page_size=512, page_size=4096),
    "rt_pc": dict(hw_page_size=2048, page_size=4096),
    "sun3": dict(hw_page_size=8192, page_size=8192, mmu_contexts=8),
    "sun3_vac": dict(hw_page_size=8192, page_size=8192, mmu_contexts=8),
    "ns32082": dict(hw_page_size=512, page_size=4096,
                    va_limit=16 * MB, buggy_rmw_reports_read=True),
}

#: Quick mode still samples three distinct MMU shapes.
QUICK_ARCHS = ("generic", "vax", "sun3")


def _boot(arch: str, pages: int):
    from repro.core.kernel import MachKernel

    kwargs = dict(BENCH_ARCHS[arch])
    kwargs["memory_frames"] = pages * 4
    spec = make_spec(name=f"perf-{arch}", pmap_name=arch, **kwargs)
    return MachKernel(spec)


def _fault_microbench(rounds: int, pages: int, seed: int,
                      arch: str = "generic", batch: bool = True) -> dict:
    """Forget/refault churn on one architecture.

    ``batch=True`` resolves each round's refaults through
    :meth:`MachKernel.fault_batch` (the fast lane); ``batch=False``
    touches the pages one read at a time through the MMU (one
    single-page run per trap).  Identical fault stream either way: ``rounds * pages``
    faults over the same warmed region, forgotten in the same
    seed-shuffled order.
    """
    from repro.core.constants import FaultType

    kernel = _boot(arch, pages)
    task = kernel.task_create(name="perf")
    page = kernel.page_size
    addr = task.vm_allocate(pages * page)
    for off in range(0, pages * page, page):
        task.write(addr + off, b"warm")     # materialize (zero fill)
    forget_order = list(range(0, pages * page, page))
    random.Random(seed).shuffle(forget_order)

    faults_before = kernel.stats.faults
    start = time.perf_counter()
    for _ in range(rounds):
        for off in forget_order:
            task.pmap.forget(addr + off)
        if batch:
            kernel.fault_batch(task, addr, pages, FaultType.READ)
        else:
            for off in range(0, pages * page, page):
                task.read(addr + off, 1)    # refault: rebuild mapping
    wall_s = time.perf_counter() - start
    faults = kernel.stats.faults - faults_before
    return {
        "arch": arch,
        "lane": "batch" if batch else "scalar",
        "rounds": rounds,
        "pages": pages,
        "faults": faults,
        "wall_s": round(wall_s, 6),
        "faults_per_s": round(faults / wall_s, 1) if wall_s else None,
    }


def _sweep_wallclock(quick: bool, jobs: int | None = None) -> dict:
    from repro.analysis import run_sweeps

    start = time.perf_counter()
    results = run_sweeps(archs=["generic"] if quick else None, jobs=jobs)
    wall_s = time.perf_counter() - start
    return {
        "cells": len(results),
        "ok": all(r.ok for r in results),
        "wall_s": round(wall_s, 6),
        "jobs": jobs or 1,
    }


def run_perf_bench(quick: bool = False,
                   seed: int = DEFAULT_SEED) -> dict:
    """Run the wall-clock benchmarks; returns a JSON-ready dict."""
    rounds, pages = (3, 8) if quick else (20, 32)
    archs = list(QUICK_ARCHS if quick else BENCH_ARCHS)
    per_arch = {
        arch: _fault_microbench(rounds, pages, seed, arch=arch)
        ["faults_per_s"]
        for arch in archs
    }
    jobs = min(os.cpu_count() or 1, 8)
    payload = {
        "bench": "simulator-wallclock",
        "quick": quick,
        "seed": seed,
        "archs": archs,
        "fault_microbench": _fault_microbench(rounds, pages, seed),
        "fault_microbench_scalar": _fault_microbench(
            rounds, pages, seed, batch=False),
        "per_arch_fault_throughput": per_arch,
        "invariant_sweeps": _sweep_wallclock(quick),
    }
    if jobs > 1:
        payload["invariant_sweeps_parallel"] = _sweep_wallclock(
            quick, jobs=jobs)
    payload["fault_tail_latency"] = _fault_tail_latency(quick)
    payload["pager_storm"] = _pager_storm_latency(quick)
    return payload


def _fault_tail_latency(quick: bool) -> dict:
    """Per-arch simulated-time latency percentiles from the storm."""
    from repro.bench.storm import run_storm_matrix

    storm, _ = run_storm_matrix(quick=quick)
    return {
        "seed": storm["seed"],
        "tasks": storm["tasks"],
        "pages": storm["pages"],
        "rounds": storm["rounds"],
        "per_arch": {
            arch: {
                "faults": report["faults"],
                "p50_us": report["p50_us"],
                "p99_us": report["p99_us"],
                "p999_us": report["p999_us"],
                "max_us": report["max_us"],
                "stage_share": {
                    stage: info["share"]
                    for stage, info in report["stages"].items()
                },
            }
            for arch, report in storm["archs"].items()
        },
    }


def _pager_storm_latency(quick: bool) -> dict:
    """Pager-stall storm: v2 serving path vs the serialized control.

    Each arch cell carries the v2 percentiles, the pager-protocol-v2
    counters, and the same numbers for the pre-v2 serialized control on
    the identical shape and seed, so the ``p99_vs_serialized`` ratio is
    self-contained (< 1 means the v2 path is better).
    """
    from repro.bench.storm import PAGER_STALL_RATE, run_pager_storm_matrix

    storm, _ = run_pager_storm_matrix(quick=quick)
    return {
        "seed": storm["seed"],
        "tasks": storm["tasks"],
        "pages": storm["pages"],
        "rounds": storm["rounds"],
        "stall_rate": PAGER_STALL_RATE,
        "per_arch": {
            arch: {
                "faults": cell["faults"],
                "p50_us": cell["p50_us"],
                "p99_us": cell["p99_us"],
                "p999_us": cell["p999_us"],
                "max_us": cell["max_us"],
                "elapsed_us": cell["elapsed_us"],
                "stalls_injected": cell["stalls_injected"],
                "fault_errors": cell["fault_errors"],
                "tasks_completed_during_pager_wait":
                    cell["tasks_completed_during_pager_wait"],
                "faults_parked": cell["faults_parked"],
                "readahead_pageins": cell["readahead_pageins"],
                "serialized": cell["serialized"],
                "p99_vs_serialized": cell["p99_vs_serialized"],
                "elapsed_vs_serialized": cell["elapsed_vs_serialized"],
            }
            for arch, cell in storm["archs"].items()
        },
    }
