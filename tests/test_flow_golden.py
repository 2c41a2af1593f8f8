"""Golden findings: every flow pass (and the atomicity lint) over every
known fixture and every planted benchmark bug, pinned as
``(pass, rule, line)`` sets.

The per-module passes run the way ``run_flow_passes`` runs them — the
registered runner, its scope rule, and the interprocedural context —
with a module-local context.  Fixtures are analysed as
``repro.core.<name>`` (in scope for every per-module pass); the
planted bugs as the module the benchmark writes them to.  Any engine
change that moves one finding shows up here as a set difference.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.analysis import typestate
from repro.analysis.conformance import verify_pmap_class
from repro.analysis.flow import _module_pass_registry

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "data" / "flow_fixtures"


def _bad_edits() -> tuple:
    """vmbench's planted known-bad modules, read from its source."""
    tree = ast.parse((ROOT / "vmbench" / "loads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and getattr(node.targets[0], "id", "") == "BAD_EDITS":
            return ast.literal_eval(node.value)
    raise AssertionError("vmbench/loads.py defines no BAD_EDITS")


def _findings(module: str, source: str) -> set[tuple[str, str, int]]:
    tree = ast.parse(source)
    lines = source.splitlines()
    ctx = typestate.build_context([(module, tree, lines)])
    found = set()
    for mp in _module_pass_registry().values():
        if mp.in_scope(module, "repro"):
            found |= {(f.pass_name, f.rule, f.lineno)
                      for f in mp.run(module, tree, lines, ctx)}
    return found


GOLDEN = {
    "bad_pmap_stub.py": {
        ("conformance", "missing-invalidate", 18),
        ("conformance", "signature-mismatch", 24),
        ("conformance", "signature-mismatch", 27),
    },
    "clean.py": set(),
    "double_release.py": {
        ("lifecycle", "double-release", 12),
        ("typestate", "page-double-free", 12),
    },
    "leak_on_error.py": {
        ("errorpaths", "unhandled-transient", 18),
        ("lifecycle", "leak-on-exception-path", 16),
    },
    "swallowed_transient.py": {
        ("errorpaths", "bare-except", 13),
        ("errorpaths", "unhandled-transient", 8),
    },
    # HappyPath (allocate, activate, deactivate, free) is clean:
    # moving a page between queues is not a release.
    "typestate_clean.py": set(),
    "typestate_protocols.py": {
        ("lifecycle", "double-release", 19),
        ("lifecycle", "double-release", 25),
        ("lifecycle", "double-release", 48),
        ("typestate", "entry-use-after-unlink", 54),
        ("typestate", "entry-use-after-unlink", 58),
        ("typestate", "object-double-deallocate", 48),
        ("typestate", "object-use-after-deallocate", 37),
        ("typestate", "page-double-free", 25),
        ("typestate", "page-free-while-wired", 31),
        ("typestate", "page-use-after-free", 19),
        ("typestate", "shootdown-before-yield", 69),
        # A spawned thread body whose parameter is not named ``ctx``
        # preempts at its yield too.
        ("typestate", "shootdown-before-yield", 80),
    },
    "wallclock.py": {
        ("determinism", "unseeded-random", 11),
        ("determinism", "wall-clock", 10),
    },
}

#: One entry per vmbench BAD_EDITS item, in order.
GOLDEN_BAD_EDITS = [
    {("lifecycle", "double-release", 9),
     ("typestate", "page-double-free", 9)},
    {("determinism", "wall-clock", 6)},
    {("errorpaths", "unhandled-transient", 4)},
]


def test_every_fixture_is_pinned():
    assert sorted(p.name for p in FIXTURES.glob("*.py")) \
        == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_findings(name):
    path = FIXTURES / name
    found = _findings(f"repro.core.{path.stem}", path.read_text())
    if name == "bad_pmap_stub.py":
        # Conformance inspects live classes, not modules.
        spec = importlib.util.spec_from_file_location(path.stem, path)
        stub = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(stub)
        found |= {(f.pass_name, f.rule, f.lineno)
                  for f in verify_pmap_class("bad", stub.BadPmap)}
    assert found == GOLDEN[name]


def test_planted_benchmark_bugs():
    edits = _bad_edits()
    assert len(edits) == len(GOLDEN_BAD_EDITS)
    for (package, source, rule), golden in zip(edits, GOLDEN_BAD_EDITS):
        found = _findings(f"repro.{package}._vmbench_bad", source)
        assert found == golden, (package, rule)
        # The finding the benchmark's op waits for is among them.
        assert rule in {f"{p}/{r}" for p, r, _line in found}
