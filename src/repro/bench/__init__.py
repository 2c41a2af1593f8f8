"""Benchmark workloads and reporting for the paper's evaluation."""

from repro.bench.reporting import Row, Table, fmt_min, fmt_ms, fmt_s, \
    fmt_sys_elapsed
from repro.bench.workloads import (
    BsdSUT,
    CompileWorkloadSpec,
    FORK_TEST_PROGRAM,
    MACH_KERNEL_BUILD,
    MachSUT,
    Measurement,
    SunOsSUT,
    THIRTEEN_PROGRAMS,
    measure_fork,
    measure_read_file,
    measure_zero_fill,
    run_compile_workload,
)

__all__ = [
    "BsdSUT", "CompileWorkloadSpec", "FORK_TEST_PROGRAM",
    "MACH_KERNEL_BUILD", "MachSUT", "Measurement", "Row", "SunOsSUT",
    "THIRTEEN_PROGRAMS", "Table", "fmt_min", "fmt_ms", "fmt_s",
    "fmt_sys_elapsed", "measure_fork", "measure_read_file",
    "measure_zero_fill", "run_compile_workload",
]
