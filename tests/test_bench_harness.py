"""The benchmark harness itself: SUT adapters, workloads, reporting,
and determinism of the simulation."""

import pytest

from repro import hw
from repro.bench import (
    BsdSUT,
    FORK_TEST_PROGRAM,
    MachSUT,
    Measurement,
    SunOsSUT,
    Table,
    fmt_min,
    fmt_ms,
    fmt_sys_elapsed,
    measure_fork,
    measure_read_file,
    measure_zero_fill,
    run_compile_workload,
)
from repro.bench.perfbench import BENCH_ARCHS
from repro.bench.workloads import KB


class TestSUTAdapters:
    def test_mach_sut_has_unix_personality(self):
        sut = MachSUT(hw.MICROVAX_II)
        proc = sut.create_process()
        assert proc.task is not None

    def test_bsd_sut_generic_buffers_default(self):
        sut = BsdSUT(hw.MICROVAX_II)
        assert sut.fs.buffer_cache.nbufs == 128

    def test_mach_buffer_limit_caps_object_cache(self):
        sut = MachSUT(hw.VAX_8650, buffer_limit=400)
        assert sut.kernel.vm.objects.cache_page_limit == \
            400 * 8192 // hw.VAX_8650.default_page_size
        unlimited = MachSUT(hw.VAX_8650)
        assert unlimited.kernel.vm.objects.cache_page_limit is None

    def test_all_suts_run_zero_fill(self):
        for sut_class in (MachSUT, BsdSUT, SunOsSUT):
            result = measure_zero_fill(sut_class(hw.SUN_3_160),
                                       iterations=4)
            assert result.cpu_ms > 0


class TestWorkloads:
    def test_measurements_are_simulated_not_wall(self):
        import time
        sut = MachSUT(hw.MICROVAX_II)
        start = time.monotonic()
        result = measure_fork(sut)
        wall_ms = (time.monotonic() - start) * 1000
        # 59 simulated ms happen in well under 59 wall ms.
        assert result.cpu_ms > wall_ms / 2 or wall_ms < 100

    def test_read_file_validates_data(self):
        first, second = measure_read_file(MachSUT(hw.VAX_8200),
                                          64 * KB)
        assert second.elapsed_ms < first.elapsed_ms

    def test_compile_workload_smallest_spec(self):
        result = run_compile_workload(MachSUT(hw.SUN_3_160),
                                      FORK_TEST_PROGRAM)
        assert isinstance(result, Measurement)
        assert result.elapsed_ms > result.cpu_ms / 2

    def test_determinism(self):
        """The whole simulation is deterministic: identical runs give
        identical simulated times, to the microsecond."""
        a = measure_fork(MachSUT(hw.IBM_RT_PC))
        b = measure_fork(MachSUT(hw.IBM_RT_PC))
        assert a.cpu_ms == b.cpu_ms
        assert a.elapsed_ms == b.elapsed_ms
        c1 = run_compile_workload(MachSUT(hw.SUN_3_160),
                                  FORK_TEST_PROGRAM)
        c2 = run_compile_workload(MachSUT(hw.SUN_3_160),
                                  FORK_TEST_PROGRAM)
        assert c1.elapsed_ms == c2.elapsed_ms


class TestReporting:
    def test_table_render_alignment(self):
        table = Table("T", ("Mach", "UNIX"))
        table.add("op", "1ms", "2ms", "1ms", "2ms")
        text = table.render()
        assert "Operation" in text and "paper:Mach" in text

    def test_table_markdown(self):
        table = Table("T", ("Mach", "UNIX"))
        table.add("op", "1ms", "2ms")
        md = table.markdown()
        assert md.startswith("### T")
        assert "| op | 1ms | 2ms |" in md

    def test_row_ratio_check(self):
        table = Table("T", ("Mach", "UNIX"))
        table.add("op", "10ms", "20ms", "1ms", "3ms")
        assert table.rows[0].ratio_ok() is True
        table.add("op2", "30ms", "20ms", "1ms", "3ms")
        assert table.rows[1].ratio_ok() is False

    def test_formatters(self):
        assert fmt_ms(0.456) == "0.46ms"
        assert fmt_ms(456.7) == "457ms"
        assert fmt_min(90_000) == "1:30min"
        m = Measurement(cpu_ms=5200, elapsed_ms=11000)
        assert fmt_sys_elapsed(m) == "5.2/11.0s"


class TestFastLanePerfGuards:
    """Counter-based guards for the fault path (no wall-clock, so
    no noise): a batched object-run costs at most one shadow-chain
    walk and at most one TLB shootdown, and forget/refault churn costs
    the same bounded operation counts per fault on both lanes and
    every architecture."""

    def _booted(self, pages=16, ncpus=2):
        from repro.bench.testing import make_spec
        from repro.core.kernel import MachKernel

        kernel = MachKernel(make_spec(name="fastlane", ncpus=ncpus,
                                      memory_frames=pages * 4))
        task = kernel.task_create(name="fl0")
        addr = task.vm_allocate(pages * kernel.page_size)
        for off in range(0, pages * kernel.page_size,
                         kernel.page_size):
            task.write(addr + off, b"warm")
        return kernel, task, addr, pages

    def test_batched_run_walks_chain_at_most_once(self):
        from repro.core.constants import FaultType

        kernel, task, addr, pages = self._booted()
        page = kernel.page_size
        for off in range(0, pages * page, page):
            task.pmap.forget(addr + off)
        manager = kernel.vm.objects
        walks_before = manager.chain_walks
        kernel.fault_batch(task, addr, pages, FaultType.READ)
        assert manager.chain_walks - walks_before <= 1, \
            "one object-run must cost at most one shadow-chain walk"

    def test_batched_run_shoots_down_at_most_once(self):
        from repro.core.constants import FaultType

        kernel, task, addr, pages = self._booted()
        # Refault over *live* mappings: every page displaces an old
        # mapping, the worst case for shootdown traffic.
        before = kernel.pmap_system.shootdowns
        kernel.fault_batch(task, addr, pages, FaultType.WRITE)
        issued = kernel.pmap_system.shootdowns - before
        assert issued <= 1, (
            f"one displacing object-run issued {issued} shootdowns "
            f"(scalar would issue {pages})")

    def test_scalar_equivalent_stats_per_page(self):
        """The batch lane charges exactly one fault (and the same
        modeled cost) per page — Table 7-x inputs cannot drift."""
        from repro.core.constants import FaultType

        kernel, task, addr, pages = self._booted()
        page = kernel.page_size
        for off in range(0, pages * page, page):
            task.pmap.forget(addr + off)
        faults_before = kernel.stats.faults
        clock_before = kernel.clock.elapsed_us
        kernel.fault_batch(task, addr, pages, FaultType.READ)
        assert kernel.stats.faults - faults_before == pages
        costs = kernel.machine.costs
        per_fault = costs.fault_trap_us + costs.fault_mi_us
        assert kernel.clock.elapsed_us - clock_before >= \
            pages * per_fault

    @pytest.mark.parametrize("arch", list(BENCH_ARCHS))
    def test_churn_operation_counts_per_fault(self, arch):
        """Seeded forget/refault churn (20 rounds x 32 pages, the
        forget order shuffled with seed 0xBE7C) through the batch lane
        and through the one-page trap path: the same fault stream costs
        the same bounded pmap, shootdown and shadow-chain work per
        fault on either lane, on every architecture."""
        counts = {lane: _churn_counts(arch, lane)
                  for lane in ("batch", "trap")}
        for lane, ops in counts.items():
            faults = ops["faults"]
            assert faults == 20 * 32, (lane, ops)
            assert ops["enters"] <= faults, (lane, ops)
            assert ops["forgets"] <= faults, (lane, ops)
            # The forget's remove plus at most one displacement sweep.
            assert ops["removes"] <= 2 * faults, (lane, ops)
            assert ops["shootdowns"] <= faults, (lane, ops)
            assert ops["chain_walks"] == 0, (lane, ops)
        removes = {lane: ops.pop("removes")
                   for lane, ops in counts.items()}
        assert removes["batch"] <= removes["trap"]
        assert counts["batch"] == counts["trap"]


def _churn_counts(arch: str, lane: str, rounds: int = 20,
                  pages: int = 32, seed: int = 0xBE7C) -> dict:
    """Operation counters of one forget/refault churn run: every
    mapping of a warmed region is dropped through ``Pmap.forget`` in a
    seed-shuffled order, then rebuilt by one ``fault_batch`` run
    (*lane* ``"batch"``) or by one read per page through the MMU trap
    (``"trap"``)."""
    import random

    from repro.bench.testing import make_spec
    from repro.core.constants import FaultType
    from repro.core.kernel import MachKernel

    kernel = MachKernel(make_spec(name=f"churn-{arch}", pmap_name=arch,
                                  memory_frames=pages * 4,
                                  **BENCH_ARCHS[arch]))
    task = kernel.task_create(name="churn")
    page = kernel.page_size
    addr = task.vm_allocate(pages * page)
    for off in range(0, pages * page, page):
        task.write(addr + off, b"warm")
    forget_order = list(range(0, pages * page, page))
    random.Random(seed).shuffle(forget_order)

    stats = task.pmap.stats

    def snapshot() -> dict:
        return {"faults": kernel.stats.faults, "enters": stats.enters,
                "removes": stats.removes, "forgets": stats.forgets,
                "shootdowns": kernel.pmap_system.shootdowns,
                "chain_walks": kernel.vm.objects.chain_walks}

    before = snapshot()
    for _ in range(rounds):
        for off in forget_order:
            task.pmap.forget(addr + off)
        if lane == "batch":
            kernel.fault_batch(task, addr, pages, FaultType.READ)
        else:
            for off in range(0, pages * page, page):
                task.read(addr + off, 1)
    return {key: value - before[key]
            for key, value in snapshot().items()}
