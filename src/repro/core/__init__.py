"""Machine-independent virtual memory management (the paper's core).

Attribute access is lazy: low-level modules (``repro.hw``,
``repro.pmap``) import ``repro.core.constants``/``errors`` during their
own initialization, so this package must not eagerly pull in the
higher-level modules (kernel, fault handler) that depend back on them.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    # constants
    "FaultType": "repro.core.constants",
    "VMInherit": "repro.core.constants",
    "VMProt": "repro.core.constants",
    "page_aligned": "repro.core.constants",
    "round_page": "repro.core.constants",
    "trunc_page": "repro.core.constants",
    "validate_page_size": "repro.core.constants",
    # errors
    "InvalidAddressError": "repro.core.errors",
    "InvalidArgumentError": "repro.core.errors",
    "KernReturn": "repro.core.errors",
    "MemoryObjectError": "repro.core.errors",
    "NoSpaceError": "repro.core.errors",
    "PageFault": "repro.core.errors",
    "ProtectionFailureError": "repro.core.errors",
    "ResourceShortageError": "repro.core.errors",
    "VMError": "repro.core.errors",
    # structures
    "AddressMap": "repro.core.address_map",
    "LookupResult": "repro.core.address_map",
    "RegionInfo": "repro.core.address_map",
    "MapEntry": "repro.core.map_entry",
    "PageQueue": "repro.core.page",
    "VMPage": "repro.core.page",
    "ResidentPageTable": "repro.core.resident",
    "VMObject": "repro.core.vm_object",
    "VMObjectManager": "repro.core.vm_object",
    # machinery
    "FaultOutcome": "repro.core.fault",
    "resolve_task_fault": "repro.core.fault",
    "vm_fault_batch": "repro.core.fault",
    "MachKernel": "repro.core.kernel",
    "VMContext": "repro.core.kernel",
    "PageoutDaemon": "repro.core.pageout",
    "KernelStats": "repro.core.statistics",
    "VMStatistics": "repro.core.statistics",
    "Task": "repro.core.task",
    "Thread": "repro.core.task",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.core' has no attribute {name!r}") from None
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
