"""The error-path completeness pass: transient call sites need the
retry funnel, a catching try, or a reviewed ``#: no-retry``."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.errorpaths import check_module

FIXTURES = Path(__file__).parent / "data" / "flow_fixtures"


def _findings(source: str):
    source = textwrap.dedent(source)
    return check_module("inline", ast.parse(source),
                        source.splitlines())


class TestKnownBad:
    def test_fixture_has_both_rules(self):
        source = (FIXTURES / "swallowed_transient.py").read_text()
        findings = check_module("fixture.swallowed_transient",
                                ast.parse(source), source.splitlines())
        rules = {(f.rule, f.where) for f in findings}
        assert ("unhandled-transient",
                "SloppyPager.data_request") in rules
        assert ("bare-except", "SloppyPager.drain") in rules

    def test_unprotected_transient_site_flagged(self):
        findings = _findings("""
            def pump(fs, inode):
                return fs.read_direct(inode, 0, 4096)
        """)
        assert [f.rule for f in findings] == ["unhandled-transient"]
        assert "_call_pager" in findings[0].message


class TestProtections:
    def test_catching_try_protects(self):
        assert _findings("""
            def pump(fs, inode):
                try:
                    return fs.read_direct(inode, 0, 4096)
                except DiskIOError:
                    raise
        """) == []

    def test_else_clause_is_not_protected(self):
        """A try's handlers cover its body, not its ``else:`` clause:
        the second read runs after the handler can no longer catch."""
        findings = _findings("""
            def pump(fs, inode):
                try:
                    fs.read_direct(inode, 0, 512)
                except PagerStallError:
                    return None
                else:
                    return fs.read_direct(inode, 512, 4096)
        """)
        assert [(f.rule, f.lineno) for f in findings] == [
            ("unhandled-transient", 8)]

    def test_call_pager_funnel_protects(self):
        assert _findings("""
            def pump(kernel, pager, obj):
                return kernel._call_pager(
                    pager, "data_request",
                    lambda: pager.data_request(obj, 0, 4096))
        """) == []

    def test_same_line_annotation(self):
        assert _findings("""
            def pump(fs, inode):
                return fs.read_direct(inode, 0, 4096)  #: no-retry x
        """) == []

    def test_comment_block_annotation(self):
        assert _findings("""
            def pump(fs, inode):
                #: no-retry — the caller owns the retry policy; a
                #: DiskIOError here surfaces to the faulting syscall.
                return fs.read_direct(inode, 0, 4096)
        """) == []

    def test_annotation_does_not_leak_past_code(self):
        findings = _findings("""
            def pump(fs, inode):
                #: no-retry — covers only the next call.
                first = fs.read_direct(inode, 0, 4096)
                return fs.read_direct(inode, 4096, 4096)
        """)
        assert len(findings) == 1
        assert findings[0].lineno == 5

    def test_reraising_broad_handler_is_fine(self):
        assert _findings("""
            def pump(fs, inode):
                try:
                    return fs.read_direct(inode, 0, 4096)
                except Exception:
                    fs.log("failed")
                    raise
        """) == []


def _interprocedural(*parts: str):
    from repro.analysis.typestate import build_context

    source = "\n".join(textwrap.dedent(p) for p in parts)
    tree = ast.parse(source)
    lines = source.splitlines()
    ctx = build_context([("inline", tree, lines)])
    return check_module("inline", tree, lines, ctx)


#: A helper whose ``#: no-retry`` defers retrying to its callers —
#: its summary says a transient can escape it.
_PROPAGATOR = """
    def fetch(fs, inode):
        #: no-retry — callers own the retry policy.
        return fs.read_direct(inode, 0, 4096)
"""


class TestInterprocedural:
    def test_transient_escaping_thread_body_flagged(self):
        findings = _interprocedural(_PROPAGATOR, """
            def worker(ctx, fs, inode):
                fetch(fs, inode)
        """)
        assert [(f.rule, f.where) for f in findings] == [
            ("unhandled-transient-propagated", "worker")]
        assert "thread body" in findings[0].message

    def test_ordinary_kernel_code_may_propagate(self):
        """Outside a thread body the syscall boundary surfaces the
        error like an errno — propagating further up is the idiom,
        not a bug."""
        assert _interprocedural(_PROPAGATOR, """
            def vm_read(fs, inode):
                return fetch(fs, inode)
        """) == []

    def test_catching_thread_body_is_fine(self):
        assert _interprocedural(_PROPAGATOR, """
            def worker(ctx, fs, inode):
                try:
                    fetch(fs, inode)
                except DiskIOError:
                    ctx.backoff()
        """) == []

    def test_annotated_thread_body_call_is_fine(self):
        assert _interprocedural(_PROPAGATOR, """
            def worker(ctx, fs, inode):
                fetch(fs, inode)  #: no-retry — loop retries
        """) == []

    def test_retrying_helper_does_not_taint_callers(self):
        """A helper that handles its own transients has a clean
        summary; thread bodies may call it bare."""
        assert _interprocedural("""
            def fetch(fs, inode):
                try:
                    return fs.read_direct(inode, 0, 4096)
                except DiskIOError:
                    return None

            def worker(ctx, fs, inode):
                fetch(fs, inode)
        """) == []

    def test_propagation_is_transitive(self):
        """fetch leaks a transient, relay calls fetch unprotected, a
        thread body calls relay: the summary chain reaches it."""
        findings = _interprocedural(_PROPAGATOR, """
            def relay(fs, inode):
                return fetch(fs, inode)

            def worker(ctx, fs, inode):
                relay(fs, inode)
        """)
        assert [(f.rule, f.where) for f in findings] == [
            ("unhandled-transient-propagated", "worker")]
