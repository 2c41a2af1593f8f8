"""The static half of the concurrency sanitizer: the ``#: guarded-by``
contract, the may-yield atomicity lint, and the hook-inversion
layering rule — each proven able to fail on synthetic violations, and
the real source tree proven clean."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.flow import run_flow_passes
from repro.analysis.layering import lint_package
from repro.analysis.race import (
    DISCIPLINES,
    GUARDED_CLASSES,
    lint_atomicity_source,
    lint_concurrency,
    lint_guarded_by,
    lint_source_concurrency,
)


def _write_tree(root, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def _rules(violations):
    return {v.rule for v in violations}


GUARDED = {"core.vm_object": ("VMObject",)}

VM_OBJECT_OK = """
    class VMObject:
        def __init__(self):
            #: guarded-by object-lock
            self.size = 0
            self.ref_count = 1   #: guarded-by object-ref
            self.offset = 0
    """


@pytest.fixture
def tree(tmp_path):
    """A miniature package with one guarded class."""
    root = tmp_path / "pkg"
    _write_tree(root, {
        "__init__.py": "",
        "core/__init__.py": "",
        "core/vm_object.py": VM_OBJECT_OK,
        "core/kernel.py": "def grow(obj):\n    obj.size = 4096\n",
    })
    return root


class TestGuardedByContract:
    def test_clean_tree(self, tree):
        assert lint_guarded_by(tree, "pkg", guarded=GUARDED) == []

    def test_mutation_outside_discipline_flagged(self, tree):
        # object-lock allows core.kernel/fault/pageout; pager does not.
        _write_tree(tree, {"pager/__init__.py": "",
                           "pager/rogue.py":
                           "def shrink(obj):\n    obj.size = 0\n"})
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"guarded-by"}
        v = violations[0]
        assert v.module == "pkg.pager.rogue"
        assert "VMObject.size" in v.message
        assert "object-lock" in v.message

    def test_augmented_assignment_is_a_mutation(self, tree):
        _write_tree(tree, {"pager/__init__.py": "",
                           "pager/rogue.py":
                           "def leak(obj):\n    obj.size += 1\n"})
        assert "guarded-by" in _rules(
            lint_guarded_by(tree, "pkg", guarded=GUARDED))

    def test_owner_module_may_always_mutate(self, tree):
        (tree / "core" / "vm_object.py").write_text(
            textwrap.dedent(VM_OBJECT_OK)
            + "def collapse(obj):\n    obj.size = 0\n")
        assert lint_guarded_by(tree, "pkg", guarded=GUARDED) == []

    def test_undeclared_shared_mutable_flagged(self, tree):
        # ``offset`` carries no annotation; external mutation of it is
        # flagged even though no discipline names it.
        _write_tree(tree, {"pager/__init__.py": "",
                           "pager/rogue.py":
                           "def slide(obj):\n    obj.offset = 8\n"})
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"undeclared-shared-mutable"}
        assert "no '#: guarded-by'" in violations[0].message

    def test_unrelated_receiver_not_matched(self, tree):
        # ``inode.size`` must not be mistaken for ``VMObject.size`` —
        # receiver-name hints keep the contract from over-matching.
        _write_tree(tree, {"fs/__init__.py": "",
                           "fs/inode.py":
                           "def grow(inode):\n    inode.size = 1\n"})
        assert lint_guarded_by(tree, "pkg", guarded=GUARDED) == []


class TestGuardAnnotationParser:
    """The parser itself can fail: malformed annotations are
    violations, not silently-ignored comments."""

    def test_unknown_discipline_rejected(self, tree):
        # Silence the fixture's legitimate core.kernel mutation: once
        # the declaration is broken, it would flag as undeclared too.
        (tree / "core" / "kernel.py").write_text("")
        (tree / "core" / "vm_object.py").write_text(textwrap.dedent("""
            class VMObject:
                def __init__(self):
                    #: guarded-by bogus-lock
                    self.size = 0
            """))
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"malformed-guard"}
        assert "bogus-lock" in violations[0].message

    def test_unparseable_annotation_rejected(self, tree):
        # Silence the fixture's legitimate core.kernel mutation: once
        # the declaration is broken, it would flag as undeclared too.
        (tree / "core" / "kernel.py").write_text("")
        (tree / "core" / "vm_object.py").write_text(textwrap.dedent("""
            class VMObject:
                def __init__(self):
                    # guarded-by: object-lock
                    self.size = 0
            """))
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"malformed-guard"}
        assert "unparseable" in violations[0].message

    def test_unattached_annotation_rejected(self, tree):
        # Silence the fixture's legitimate core.kernel mutation: once
        # the declaration is broken, it would flag as undeclared too.
        (tree / "core" / "kernel.py").write_text("")
        (tree / "core" / "vm_object.py").write_text(textwrap.dedent("""
            #: guarded-by object-lock
            class VMObject:
                def __init__(self):
                    self.size = 0
            """))
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"malformed-guard"}
        assert "not attached" in violations[0].message

    def test_missing_guarded_module_reported(self, tmp_path):
        root = tmp_path / "pkg"
        _write_tree(root, {"__init__.py": ""})
        violations = lint_guarded_by(root, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"malformed-guard"}


class TestAtomicityLint:
    def test_stale_local_across_yield_flagged(self):
        src = """
            def workload(sched, task, addr):
                def bump(ctx):
                    v = ctx.read(addr, 1)[0]
                    yield
                    ctx.write(addr, bytes([v + 1]))
                sched.spawn(task, bump)
            """
        violations = lint_atomicity_source(textwrap.dedent(src))
        assert "stale-read-across-yield" in _rules(violations)

    def test_straight_line_rmw_is_clean(self):
        src = """
            def workload(sched, task, addr):
                def bump(ctx):
                    v = ctx.read(addr, 1)[0]
                    ctx.write(addr, bytes([v + 1]))
                    yield
                sched.spawn(task, bump)
            """
        assert lint_atomicity_source(textwrap.dedent(src)) == []

    def test_shared_attr_across_maybe_yield_call_flagged(self):
        # The hazard travels through the call graph: ``resize`` never
        # yields itself, but it calls something that does.
        src = """
            def touch(ctx, addr):
                ctx.read(addr, 1)

            def resize(ctx, obj, addr):
                n = obj.size
                touch(ctx, addr)
                obj.size = n + 1
            """
        violations = lint_atomicity_source(textwrap.dedent(src))
        assert "atomicity-hazard" in _rules(violations)
        assert "'.size'" in violations[0].message

    def test_rewrite_between_read_and_write_is_clean(self):
        src = """
            def touch(ctx, addr):
                ctx.read(addr, 1)

            def resize(ctx, obj, addr):
                n = obj.size
                obj.size = n + 1
                touch(ctx, addr)
            """
        assert lint_atomicity_source(textwrap.dedent(src)) == []

    def test_generator_helper_yield_is_not_preemption(self):
        # Only thread bodies preempt at yield; an ordinary generator's
        # yields are iteration.
        src = """
            def pages(obj):
                n = obj.size
                yield n
                obj.size = n
            """
        assert lint_atomicity_source(textwrap.dedent(src)) == []

    def test_spawned_body_yield_is_preemption(self):
        # A function passed to .spawn() is a thread body even when its
        # parameter is not named ``ctx``: its yields preempt.
        src = """
            def workload(sched, task, obj):
                def body(t):
                    n = obj.size
                    yield
                    obj.size = n + 1
                sched.spawn(task, body)
            """
        violations = lint_atomicity_source(textwrap.dedent(src))
        assert _rules(violations) == {"atomicity-hazard"}
        assert "workload.body" in violations[0].message

    def test_duplicate_qualname_keeps_its_own_summary(self):
        # Two ``body`` definitions share the qualname ``run.body``; the
        # yielding one must not be judged by the other's summary.
        src = """
            def run(fast, obj):
                if fast:
                    def body(ctx):
                        n = obj.size
                        yield
                        obj.size = n + 1
                else:
                    def body(other):
                        return other
                return body
            """
        violations = lint_atomicity_source(textwrap.dedent(src))
        assert _rules(violations) == {"atomicity-hazard"}
        assert "run.body" in violations[0].message

    def test_syntax_error_reported_not_raised(self):
        assert _rules(lint_atomicity_source("def f(:\n")) \
            == {"syntax-error"}


class TestHookInversionRule:
    """Checked layers never import their checkers — the sanitizer
    attaches through duck-typed hooks only."""

    @pytest.fixture
    def layered(self, tmp_path):
        root = tmp_path / "pkg"
        _write_tree(root, {
            "__init__.py": "",
            "core/__init__.py": "",
            "core/kernel.py": "",
            "sched/__init__.py": "",
            "sched/scheduler.py": "",
            "analysis/__init__.py": "",
            "analysis/race.py": "",
        })
        return root

    def test_sched_importing_analysis_flagged(self, layered):
        (layered / "sched" / "scheduler.py").write_text(
            "from pkg.analysis.race import RaceDetector\n")
        assert "hook-inversion" in _rules(
            lint_package(layered, package="pkg"))

    def test_core_importing_analysis_flagged(self, layered):
        (layered / "core" / "kernel.py").write_text(
            "import pkg.analysis.race\n")
        assert "hook-inversion" in _rules(
            lint_package(layered, package="pkg"))

    def test_analysis_importing_sched_is_fine(self, layered):
        (layered / "analysis" / "race.py").write_text(
            "from pkg.sched.scheduler import Scheduler\n")
        assert "hook-inversion" not in _rules(
            lint_package(layered, package="pkg"))


class TestRealTree:
    def test_source_tree_is_concurrency_clean(self):
        violations = lint_source_concurrency()
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_every_discipline_is_used_by_the_tree(self):
        """The contract is live: real guarded classes declare real
        disciplines (a rename in either place breaks this)."""
        import repro
        from pathlib import Path
        from repro.analysis.race import _parse_class_guards
        root = Path(repro.__file__).resolve().parent
        used = set()
        for module, classes in GUARDED_CLASSES.items():
            path = root / (module.replace(".", "/") + ".py")
            decls, _, bad, _ = _parse_class_guards(
                path.read_text(encoding="utf-8"), module, classes)
            assert bad == []
            for per_class in decls.values():
                used |= {d.discipline for d in per_class.values()}
        assert used   # at least one declaration exists
        assert used <= set(DISCIPLINES)
        # The core locking story of the paper is actually declared.
        assert {"object-lock", "map-lock"} <= used

    def test_lint_concurrency_combines_both_halves(self, tmp_path):
        root = tmp_path / "pkg"
        _write_tree(root, {
            "__init__.py": "",
            "core/__init__.py": "",
            "core/vm_object.py": VM_OBJECT_OK,
            # The other guarded modules exist but define no guarded
            # class in this miniature tree.
            "core/kernel.py": "",
            "core/address_map.py": "",
            "core/resident.py": "",
            "pager/__init__.py": "",
            "pager/rogue.py": """
                def shrink(obj, ctx, addr):
                    obj.size = 0

                def stale(sched, task, addr):
                    def bump(ctx):
                        v = ctx.read(addr, 1)
                        yield
                        ctx.write(addr, v)
                    sched.spawn(task, bump)
                """,
        })
        # The guarded-by half is the tree lint; the atomicity half is
        # a cached flow pass over the same tree.
        atomicity = run_flow_passes(root, "pkg", passes=["atomicity"])
        assert atomicity.errors == []
        rules = _rules(lint_concurrency(root, "pkg")) \
            | {f.rule for f in atomicity.findings}
        assert {"guarded-by", "stale-read-across-yield"} <= rules
