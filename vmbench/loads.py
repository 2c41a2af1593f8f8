"""The benchmark's three workloads: ``compile``, ``storm`` and ``check``.

Each workload is a closed loop with one client.  Its constructor turns
the workload seed into the inputs; the program under test receives only
those inputs.  ``run.py`` calls:

* ``setup()`` — boot, copy or cold-analyse, before any op;
* ``op(i)`` — op *i* of the workload's deterministic op sequence;
  returns whether the op's outputs verified;
* ``prepare(i)`` — untimed housekeeping before op *i* (a fresh boot at
  a batch boundary);
* ``finish()`` — untimed checks deferred to the end; returns the number
  of ops they failed;
* ``sim_metrics(n)`` — simulated results of the first *n* ops (one
  pass of ``pass_len`` ops in a full run; ``check`` has none);
* ``kind(i)`` — op *i*'s kind: ops of one kind do the same work
  (compile: the compiler pass; storm: the pmap; check: the edit kind);
* ``counters()`` — cumulative per-layer counts kept by the program;
* ``reset()`` — back to the state right after ``setup()``;
* ``close()`` — release what ``setup()`` created.

``setup_samples`` is how many set-ups a run times (its own plus fresh
set-up-only processes) for the median ``setup_s``: more where set-up is
short and noisy, three where it runs the cold analysis.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from pathlib import Path

#: Elapsed time of the Table 7-2 "Mach kernel, generic config" row
#: (15:50 for Mach, 34:10 for 4.3bsd); Table 7-2 was held out of the
#: cost-model calibration, so this ratio measures accuracy.
PAPER_MACH_OVER_BSD = (15 * 60 + 50) / (34 * 60 + 10)

#: 4.3bsd's "generic" buffer count, as in
#: ``benchmarks/test_table_7_2_compile.py``.
BSD_GENERIC_NBUFS = 64


def _add(total: dict, more: dict) -> dict:
    """Add the counts in *more* into *total*; returns *total*."""
    for key, value in more.items():
        total[key] = total.get(key, 0) + value
    return total


def _kernel_counters(kernels) -> dict:
    """Sum the program's own counters over *kernels*."""
    out = dict.fromkeys((
        "tlb_hits", "tlb_misses", "tlb_flushes", "shootdowns",
        "cow_faults", "zero_fills", "pageins", "pageouts",
        "reactivations", "object_cache_hits", "chain_walks",
        "pager_retries", "bcache_hits", "bcache_misses"), 0)
    for kernel in kernels:
        for cpu in kernel.machine.cpus:
            stats = cpu.tlb.stats
            out["tlb_hits"] += stats.hits
            out["tlb_misses"] += stats.misses
            out["tlb_flushes"] += stats.entry_flushes + stats.full_flushes
        out["shootdowns"] += kernel.pmap_system.shootdowns
        stats = kernel.stats
        out["cow_faults"] += stats.cow_faults
        out["zero_fills"] += stats.zero_fill_count
        out["pageins"] += stats.pageins
        out["pageouts"] += stats.pageouts
        out["reactivations"] += stats.reactivations
        out["pager_retries"] += stats.pager_retries
        out["object_cache_hits"] += kernel.vm.objects.cache_hits
        out["chain_walks"] += kernel.vm.objects.chain_walks
    return out


class Workload:
    """Defaults for the interface described above."""

    pass_len = 0
    setup_samples = 3

    def prepare(self, i: int) -> None:
        pass

    def finish(self) -> int:
        return 0

    def sim_metrics(self, nops: int) -> dict:
        return {}

    def reset(self) -> None:
        self.close()
        self.setup()


# ---------------------------------------------------------------------------
# compile: the Table 7-2 Mach kernel build
# ---------------------------------------------------------------------------

class _CompileBatch:
    """One make-style batch on one freshly booted system under test.

    Op *i* is pass ``i % 4`` of unit ``order[i // 4]``: fork the shell,
    exec the pass's program, touch its text, read its input (cpp also
    reads the shared header), dirty its working set, compute, write its
    output and exit.  Each pass checks that its input reads back
    byte-identical to what the previous pass wrote.
    """

    def __init__(self, load: "CompileLoad", sut) -> None:
        self.load = load
        self.sut = sut
        spec = load.spec
        self.programs = {
            p.name: sut.install_program(p.path, p.text_bytes, p.data_bytes)
            for p in spec.passes}
        sut.fs.write(load.HEADER, load.header)
        for unit in load.order:
            sut.fs.write(f"/src/unit{unit}.c", load.sources[unit])
        sut.fs.buffer_cache.sync()
        sut.fs.buffer_cache.invalidate()
        self.shell = sut.create_process()
        self.snap = sut.clock.snapshot()

    def op(self, i: int) -> bool:
        load, sut = self.load, self.sut
        unit, index = load.order[i // 4], i % 4
        cpass = load.spec.passes[index]
        worker = sut.fork_op(self.shell)
        worker.exec(self.programs[cpass.name])
        sut.touch_text(worker)
        ok = True
        if cpass.reads_headers:
            ok = sut.read_file_op(worker, load.HEADER) == load.header
        ok = sut.read_file_op(worker, load.input_path(unit, index)) \
            == load.input_bytes(unit, index) and ok
        sut.dirty_data(worker, cpass.working_set)
        sut.clock.charge(cpass.compute_us)
        sut.write_file_op(worker, load.output_path(unit, index),
                          load.output_bytes(unit, index))
        sut.reap(worker)
        return ok

    def elapsed_s(self) -> float:
        """Simulated elapsed seconds since the batch's first op."""
        return self.snap.interval()[1] / 1e6

    def bad_objects(self, units) -> int:
        """Read back the object files of *units*; returns how many are
        wrong (nothing reads them inside the batch)."""
        reader = self.sut.create_process()
        bad = sum(self.sut.read_file_op(reader, self.load.output_path(u, 3))
                  != self.load.output_bytes(u, 3) for u in units)
        self.sut.reap(reader)
        return bad


class CompileLoad(Workload):
    """Table 7-2 "Mach kernel, generic config" on the VAX 8650.

    160 units x cpp/ccom/c2/as = 640 compiler passes per batch; each
    pass is one op.  The seed varies each unit's source size by up to
    +-15% around the paper shape, the source bytes and the order units
    are built in; pass outputs keep the paper's sizes.
    Ops past one batch start a new batch on a freshly booted system,
    so every batch repeats the first one exactly.
    """

    HEADER = "/usr/include/all.h"
    setup_samples = 7

    def __init__(self, seed: int) -> None:
        from repro.bench import MACH_KERNEL_BUILD

        rng = random.Random(seed)
        self.spec = spec = MACH_KERNEL_BUILD
        self.pass_len = 4 * spec.n_compiles
        self.trace_ops = self.pass_len - 1
        self.order = list(range(spec.n_compiles))
        rng.shuffle(self.order)
        self.sources = {
            u: rng.randbytes(int(spec.source_bytes
                                 * rng.uniform(0.85, 1.15)))
            for u in range(spec.n_compiles)}
        self.header = b"#define H\n" * (spec.header_bytes // 10)
        self.batch = None
        self.batches = 0
        #: Simulated elapsed seconds of the first batch so far.
        self.first_elapsed_s = 0.0
        self._totals: dict = {}
        self._unverified: list[int] = []
        self.late_failures = 0

    def inputs_digest(self) -> str:
        digest = hashlib.sha256(repr(self.order).encode())
        for unit in self.order:
            digest.update(self.sources[unit])
        return digest.hexdigest()

    # -- generated file contents ------------------------------------------

    def input_path(self, unit: int, index: int) -> str:
        return (f"/src/unit{unit}.c" if index == 0
                else self.output_path(unit, index - 1))

    def input_bytes(self, unit: int, index: int) -> bytes:
        return (self.sources[unit] if index == 0
                else self.output_bytes(unit, index - 1))

    def output_path(self, unit: int, index: int) -> str:
        return (f"/obj/unit{unit}.o" if index == 3
                else f"/tmp/unit{unit}.pass{index}")

    def output_bytes(self, unit: int, index: int) -> bytes:
        size = (self.spec.object_bytes if index == 3
                else self.spec.intermediate_bytes)
        tag = f"<unit{unit}:{self.spec.passes[index].name}>".encode()
        return (tag * (size // len(tag) + 1))[:size]

    # -- the interface run.py calls ---------------------------------------

    @staticmethod
    def _boot(sut_class, **kwargs):
        from repro import hw
        return sut_class(hw.VAX_8650, **kwargs)

    def setup(self) -> None:
        from repro.bench import MachSUT
        if self.batch is not None:
            self.late_failures += self._verify_objects()
            _add(self._totals, self._batch_counters())
        self.batch = _CompileBatch(self, self._boot(MachSUT))
        self.batches += 1

    reset = setup

    def prepare(self, i: int) -> None:
        if i and i % self.pass_len == 0:
            self.setup()

    def kind(self, i: int) -> str:
        return self.spec.passes[i % 4].name

    def op(self, i: int) -> bool:
        ok = self.batch.op(i % self.pass_len)
        if i % 4 == 3:
            self._unverified.append(self.order[(i % self.pass_len) // 4])
        if self.batches == 1:
            self.first_elapsed_s = self.batch.elapsed_s()
        return ok

    def _verify_objects(self) -> int:
        bad = self.batch.bad_objects(self._unverified)
        self._unverified = []
        return bad

    def _batch_counters(self) -> dict:
        out = _kernel_counters([self.batch.sut.kernel])
        cache = self.batch.sut.fs.buffer_cache
        out["bcache_hits"] = cache.hits
        out["bcache_misses"] = cache.misses
        return out

    def finish(self) -> int:
        self.late_failures += self._verify_objects()
        return self.late_failures

    def sim_metrics(self, nops: int) -> dict:
        """``sim.elapsed_s`` of the first *nops* ops and the accuracy of
        the Mach/4.3bsd ratio against Table 7-2, with 4.3bsd run once on
        the same inputs outside the timed ops."""
        from repro.bench import BsdSUT

        bsd = _CompileBatch(self, self._boot(BsdSUT,
                                             nbufs=BSD_GENERIC_NBUFS))
        for i in range(nops):
            bsd.op(i)
        ratio = self.first_elapsed_s / bsd.elapsed_s()
        return {
            "sim.elapsed_s": self.first_elapsed_s,
            "sim.paper_ratio_err":
                abs(ratio - PAPER_MACH_OVER_BSD) / PAPER_MACH_OVER_BSD,
        }

    def counters(self) -> dict:
        return _add(dict(self._totals), self._batch_counters())

    def close(self) -> None:
        self.batch = None


# ---------------------------------------------------------------------------
# storm: pageout-pressure fault storms, one cell per op
# ---------------------------------------------------------------------------

class StormLoad(Workload):
    """``repro storm`` cells at the full load shape (8 tasks x 6 pages x
    3 rounds, about 2x overcommitted) with ``FaultTelemetry`` attached.

    One pass is ``CELLS_PER_ARCH`` seeds x all six pmaps; the workload
    seed draws the cell seeds.  Ops past one pass repeat its cells, and
    each repeat must reproduce the first run's report exactly.
    """

    CELLS_PER_ARCH = 5
    setup_samples = 7

    def __init__(self, seed: int) -> None:
        from repro.bench.perfbench import BENCH_ARCHS
        from repro.obs.metrics import Histogram

        rng = random.Random(seed)
        self.cells = [(arch, rng.getrandbits(32))
                      for _ in range(self.CELLS_PER_ARCH)
                      for arch in BENCH_ARCHS]
        self.pass_len = len(self.cells)
        self.trace_ops = self.pass_len - 1
        self.reports: dict[int, dict] = {}
        #: The first pass's fault latencies, every cell merged.
        self.latency = Histogram("storm_fault_latency_us", unit="us")
        self.stage_us: dict[str, float] = {}
        self.elapsed_us = 0.0
        self.kernels = []
        self._totals: dict = {}
        self._attach = None

    def inputs_digest(self) -> str:
        return hashlib.sha256(repr(self.cells).encode()).hexdigest()

    def setup(self) -> None:
        from repro.obs.telemetry import FaultTelemetry

        # run_storm boots its own kernel and hands it to
        # FaultTelemetry.attach; remembering it there is how the
        # benchmark reads the cell's clock and counters afterwards.
        original = FaultTelemetry.__dict__["attach"]
        kernels = self.kernels

        def attach(telemetry, kernel):
            kernels.append(kernel)
            return original(telemetry, kernel)

        FaultTelemetry.attach = attach
        self._attach = original

    def kind(self, i: int) -> str:
        return self.cells[i % self.pass_len][0]

    def op(self, i: int) -> bool:
        from repro.bench.storm import FULL_LOAD, run_storm

        index = i % self.pass_len
        arch, seed = self.cells[index]
        report, telemetry = run_storm(arch, *FULL_LOAD, seed=seed)
        kernel = self.kernels.pop()
        _add(self._totals, _kernel_counters([kernel]))
        ok = report["fault_errors"] == 0 and report["faults"] > 0
        first = self.reports.setdefault(index, report)
        if first is not report:
            return ok and report == first
        self.elapsed_us += kernel.clock.elapsed_us
        self.latency.merge(telemetry.latency)
        for stage, hist in telemetry.stage_hist.items():
            self.stage_us[stage] = self.stage_us.get(stage, 0.0) \
                + hist.total
        return ok

    def sim_metrics(self, nops: int) -> dict:
        del nops    # accumulated over the first pass as it ran
        total = self.latency.total
        out = {"sim.elapsed_s": self.elapsed_us / 1e6,
               "sim.fault_p99_us": self.latency.percentile(99)}
        for stage in ("pager_wait", "reclaim", "copy_up", "shootdown",
                      "pmap_enter", "zero_fill", "mmu_probe"):
            out[f"sim.stage.{stage}.share"] = \
                self.stage_us.get(stage, 0.0) / total
        return out

    def counters(self) -> dict:
        return dict(self._totals)

    def close(self) -> None:
        if self._attach is not None:
            from repro.obs.telemetry import FaultTelemetry
            FaultTelemetry.attach = self._attach
            self._attach = None


# ---------------------------------------------------------------------------
# check: the developer's edit -> check loop
# ---------------------------------------------------------------------------

#: Known-bad edits, one per flow pass they trip: (package, source, the
#: rule id ``repro check`` must flag).  The patterns follow the
#: known-bad fixtures the flow-pass tests use.
BAD_EDITS = (
    ("core", '''
class Cleaner:
    def clean(self, obj, offset):
        page = self.vm.resident.allocate(obj, offset, busy=True)
        try:
            self.pmap_system.copy_page(page.phys_addr, 0)
        except Exception:
            self.vm.resident.free(page)
            self.vm.resident.free(page)
            raise
        self.vm.resident.activate(page)
''', "lifecycle/double-release"),
    ("core", '''
import time


def sample_latency():
    return time.perf_counter()
''', "determinism/wall-clock"),
    ("pager", '''
class SloppyPager:
    def data_request(self, obj, offset, length):
        return self.fs.read_direct(self.inode, offset, length)
''', "errorpaths/unhandled-transient"),
)

#: Edit kind of op *i* is ``EDIT_KINDS[i % 6]``: C comment-only, S adds
#: a function (so the module's summary and its reverse-dependency cone
#: change), B adds a known-bad module that is deleted after the check.
#: The mix is fixed so that every seed weighs the kinds alike and the
#: median op is a comment-only edit.
EDIT_KINDS = "CSCCBC"

BAD_MODULE = "_vmbench_bad"


class CheckLoad(Workload):
    """``repro check``'s static analysis on a temporary copy of
    ``src/repro``, with a temporary analysis cache.

    Set-up copies the tree and runs the cold analysis that fills the
    cache.  Each op applies one seeded single-module edit to the copy
    and re-runs the layering lint, the concurrency lint and the flow
    passes (``jobs=1``: one host thread).  The seed picks each edit's
    module and text and which known-bad pattern a B op plants.
    """

    trace_ops = 5

    def __init__(self, seed: int, src: Path, scratch: Path) -> None:
        self.seed = seed
        self.src = src
        self.scratch = scratch
        self.modules = sorted(
            str(p.relative_to(src)) for p in src.rglob("*.py")
            if p.name != "__init__.py")
        self.tmp = None
        self.analyzed: list[int] = []
        self.cached: list[int] = []

    def edit(self, i: int) -> tuple[str, str, str, str]:
        """Op *i*'s edit: (kind, file relative to the tree, text, rule)."""
        rng = random.Random(f"{self.seed}/{i}")
        kind = self.kind(i)
        if kind == "B":
            package, source, rule = rng.choice(BAD_EDITS)
            return kind, f"{package}/{BAD_MODULE}.py", source, rule
        target = rng.choice(self.modules)
        if kind == "C":
            text = f"\n# edit {i}: {rng.getrandbits(64):016x}\n"
        else:
            text = (f"\n\ndef _edit_probe_{i}(value):\n"
                    f"    return value + {rng.randrange(1, 1000)}\n")
        return kind, target, text, ""

    def inputs_digest(self) -> str:
        edits = [self.edit(i) for i in range(4 * len(EDIT_KINDS))]
        return hashlib.sha256(repr(edits).encode()).hexdigest()

    def _analyse(self):
        from repro.analysis import flow, layering, race
        violations = layering.lint_package(self.tree)
        violations += race.lint_concurrency(self.tree)
        report = flow.run_flow_passes(root=self.tree,
                                      cache_dir=self.tmp / "cache", jobs=1)
        return violations, report

    def setup(self) -> None:
        self.scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="check-", dir=self.scratch))
        self.tree = self.tmp / "repro"
        shutil.copytree(self.src, self.tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        violations, report = self._analyse()
        if violations or report.findings or report.errors:
            raise RuntimeError("the pristine tree does not check clean: "
                               f"{violations[:3]} {report.findings[:3]} "
                               f"{report.errors[:3]}")

    def kind(self, i: int) -> str:
        return EDIT_KINDS[i % len(EDIT_KINDS)]

    def op(self, i: int) -> bool:
        return self.apply(*self.edit(i))

    def apply(self, kind: str, target: str, text: str, rule: str) -> bool:
        """Make one edit, check the tree, and verify the report: clean
        after a benign edit, *rule* flagged in the bad module alone
        after a known-bad one."""
        path = self.tree / target
        if kind == "B":
            path.write_text(text)
        else:
            path.write_text(path.read_text() + text)
        try:
            violations, report = self._analyse()
        finally:
            if kind == "B":
                path.unlink()
        self.analyzed.append(len(report.analyzed))
        self.cached.append(len(report.cached))
        if violations or report.errors:
            return False
        if kind != "B":
            return not report.findings
        module = "repro." + target[:-3].replace("/", ".")
        return (any(f"{f.pass_name}/{f.rule}" == rule
                    for f in report.findings)
                and all(f.module == module for f in report.findings))

    def counters(self) -> dict:
        return {"modules_analyzed": sum(self.analyzed),
                "modules_cached": sum(self.cached),
                "analyses": len(self.analyzed)}

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None
        try:
            self.scratch.rmdir()
        except OSError:
            pass        # not empty: another run's copy is in use
