"""Call graph construction, resolution, and summary computation."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.callgraph import (
    EMPTY_SUMMARY, Summary, build_callgraph, compute_summaries,
    join_summaries, strongly_connected,
)


def _graph(source: str, module: str = "m"):
    return build_callgraph([(module, ast.parse(textwrap.dedent(source)))])


def _calls_in(graph, fid):
    return tuple(sorted(graph.edges.get(fid, ())))


class TestResolution:
    def test_bare_name_resolves_same_module_first(self):
        graph = _graph("""
            def helper():
                pass

            def caller():
                helper()
        """)
        assert _calls_in(graph, "m:caller") == ("m:helper",)

    def test_self_method_resolves_within_class(self):
        graph = _graph("""
            class A:
                def helper(self):
                    pass

                def caller(self):
                    self.helper()

            class B:
                def helper(self):
                    pass
        """)
        assert _calls_in(graph, "m:A.caller") == ("m:A.helper",)

    def test_hinted_receiver_narrows_to_one_class(self):
        graph = _graph("""
            class ResidentPageTable:
                def allocate(self):
                    pass

            class OtherPool:
                def allocate(self):
                    pass

            class Kernel:
                def grab(self):
                    self.resident.allocate()
        """)
        assert _calls_in(graph, "m:Kernel.grab") == \
            ("m:ResidentPageTable.allocate",)

    def test_ambient_names_stay_unresolved(self):
        graph = _graph("""
            class Widget:
                def update(self):
                    pass

            class Kernel:
                def poke(self, thing):
                    thing.update()
        """)
        assert _calls_in(graph, "m:Kernel.poke") == ()

    def test_unhinted_method_fans_out_to_all_candidates(self):
        graph = _graph("""
            class A:
                def drain(self):
                    pass

            class B:
                def drain(self):
                    pass

            def go(q):
                q.drain()
        """)
        assert set(_calls_in(graph, "m:go")) == {"m:A.drain", "m:B.drain"}


class TestFunctionIds:
    def test_duplicate_qualnames_get_distinct_fids(self):
        """A later definition of a qualname is numbered, never merged
        into the first; unique names keep ``module:qualname``."""
        graph = _graph("""
            def run(fast):
                if fast:
                    def body(ctx):
                        yield
                else:
                    def body(other):
                        return other
                return body
        """)
        assert sorted(graph.functions) == [
            "m:run", "m:run.body", "m:run.body#2"]
        first, second = (graph.functions[f]
                         for f in ("m:run.body", "m:run.body#2"))
        assert first.params == ("ctx",)
        assert second.params == ("other",)
        assert first.qualname == second.qualname == "run.body"


class TestBindArgs:
    def test_receiver_and_positionals_bind(self):
        graph = _graph("""
            class A:
                def helper(self, page, flag):
                    pass

                def caller(self, p):
                    self.helper(p, True)
        """)
        (call,) = [n for n in ast.walk(graph.functions["m:A.caller"].func)
                   if isinstance(n, ast.Call)]
        bound = graph.bind_args("m:A.helper", call, "self")
        assert bound == {"self": "self", "page": "p"}

    def test_keyword_args_bind_by_name(self):
        graph = _graph("""
            def helper(page=None, obj=None):
                pass

            def caller(o):
                helper(obj=o)
        """)
        (call,) = [n for n in ast.walk(graph.functions["m:caller"].func)
                   if isinstance(n, ast.Call)]
        assert graph.bind_args("m:helper", call, None) == {"obj": "o"}


class TestSCC:
    def test_mutual_recursion_is_one_component(self):
        sccs = strongly_connected({"a": ("b",), "b": ("a",), "c": ("a",)})
        as_sets = [frozenset(s) for s in sccs]
        assert frozenset({"a", "b"}) in as_sets
        # callees come before callers
        assert as_sets.index(frozenset({"a", "b"})) < \
            as_sets.index(frozenset({"c"}))

    def test_chain_emits_callee_first(self):
        sccs = strongly_connected({"top": ("mid",), "mid": ("leaf",),
                                   "leaf": ()})
        flat = [n for scc in sccs for n in scc]
        assert flat == ["leaf", "mid", "top"]


class TestSummaries:
    def test_transitive_summary_through_two_hops(self):
        """must-exit facts flow bottom-up: leaf frees, mid relays,
        and the computed summary for mid says so."""
        graph = _graph("""
            class K:
                def _leaf(self, page):
                    self.resident.free(page)

                def _mid(self, page):
                    self._leaf(page)
        """)
        from repro.analysis.typestate import build_context
        ctx = build_context(
            [("m", ast.parse(textwrap.dedent("""
            class K:
                def _leaf(self, page):
                    self.resident.free(page)

                def _mid(self, page):
                    self._leaf(page)
            """)), None)])
        assert ctx.summaries["m:K._leaf"].must_exit_state("page") \
            == "page:free"
        assert ctx.summaries["m:K._mid"].must_exit_state("page") \
            == "page:free"

    def test_recursive_scc_reaches_fixpoint(self):
        """Self-recursion converges; the conservative answer keeps
        the possible free as a may-effect (no false must-facts)."""
        from repro.analysis.typestate import build_context
        ctx = build_context(
            [("m", ast.parse(textwrap.dedent("""
            class K:
                def walk(self, page, depth):
                    if depth == 0:
                        self.resident.free(page)
                        return
                    self.walk(page, depth - 1)
            """)), None)])
        summary = ctx.summaries["m:K.walk"]
        assert "page:free" in summary.may_exit_states("page")
        assert summary.must_exit_state("page") is None

    def test_join_intersects_must_and_unions_may(self):
        a = Summary(must_exit=(("p", "page:free"),),
                    may_exit=(("p", "page:free"),),
                    escapes=(), returns_acquired=("page:busy",),
                    may_yield=False, propagates_transient=False)
        b = Summary(must_exit=(), may_exit=(("p", "page:active"),),
                    escapes=("q",), returns_acquired=(),
                    may_yield=True, propagates_transient=False)
        joined = join_summaries([a, b])
        assert joined.must_exit == ()
        assert set(joined.may_exit) == {("p", "page:free"),
                                        ("p", "page:active")}
        assert joined.escapes == ("q",)
        assert joined.returns_acquired == ()
        assert joined.may_yield

    def test_compute_summaries_covers_every_function(self):
        graph = _graph("""
            def a():
                b()

            def b():
                pass
        """)
        out = compute_summaries(graph, lambda info, lookup: EMPTY_SUMMARY)
        assert set(out) == {"m:a", "m:b"}
