"""The pmap architecture matrix every storm, sweep and benchmark runs.

One table of machine parameters per registered pmap architecture
(mirroring the test fixtures, plus the Sun-3 VAC variant), and the
three-arch quick subset.  :mod:`repro.bench.storm`, the invariant,
fault-injection and race sweeps (:data:`repro.analysis.sweeps
.SWEEP_ARCHS` is this table without ``sun3_vac``) and ``vmbench/``
all read it from here, so an arch's MMU shape is defined once.
"""

from __future__ import annotations

MB = 1024 * 1024

#: Machine parameters per benchmarked architecture.
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
