"""Interprocedural typestate engine: declarative VM protocol specs.

The paper's machine-independent layer works because every component
honors unwritten protocols: a page cycles free→active→inactive→
laundering→free and is never touched once freed; a ``vm_object``
reference obtained from the manager is dead after ``deallocate``; a
map entry unlinked from its map must not re-enter map structure
operations; and a pmap mutation that skipped its TLB shootdown
(``remove(..., shoot=False)``) owes one before the next yield.  A
purely intraprocedural pass cannot see a violation that spans a call
— a helper that frees a page its caller still touches looks clean to
both functions in isolation.

This pass closes that hole.  Protocols are declarative
:class:`ProtocolSpec` tables (states, transitions, violations, leaks);
a :class:`Discipline` groups the specs checked together with the
classifiers that map call sites and assignments to protocol
*operations*.  One engine runs each function's CFG through the shared
forward solver (:func:`repro.analysis.flow.solve_forward`).  Calls
resolved by the call graph apply the callee's
:class:`~repro.analysis.callgraph.Summary` — the parameter states the
callee definitely establishes by exit — computed bottom-up over SCCs
by :func:`~repro.analysis.callgraph.compute_summaries`, so a protocol
violation split across any number of calls is still caught.  Joining
paths that disagree yields an unknown state that is deliberately
never reported.

Two disciplines run on the engine: :data:`TYPESTATE`, this pass (the
rules below, and the only one that computes summaries), and
:data:`repro.analysis.lifecycle.LIFECYCLE`, the acquire/release
ownership tables (leaks and double releases).

Shipped rules (each has a known-bad fixture in
``tests/data/flow_fixtures/``):

* ``page-use-after-free`` / ``page-double-free`` /
  ``page-free-while-wired`` — the resident-page lifecycle;
* ``object-use-after-deallocate`` / ``object-double-deallocate`` —
  the vm_object reference protocol;
* ``entry-use-after-unlink`` — map entries re-entering map structure
  ops (or being written) after ``_unlink``; teardown *reads* of an
  unlinked entry are the sanctioned pattern and stay legal;
* ``shootdown-before-yield`` — a pmap left TLB-dirty by
  ``remove(..., shoot=False)`` (directly or via a callee that always
  exits dirty) crossing a yield point before the covering
  ``system.shootdown(...)`` / ``system.update()``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.analysis.callgraph import (
    CallGraph, EMPTY_SUMMARY, FunctionInfo, Summary, SummaryLookup,
    attr_chain, build_callgraph, compute_summaries, ctx_params,
    is_preemption_call, is_thread_body,
)
from repro.analysis.cfg import CFG, EXC_EXIT, EXIT, CFGNode, build_cfg, \
    iter_functions, walk_local
from repro.analysis.errorpaths import catches_transient, transient_escapes
from repro.analysis.flow import Finding, iter_source_modules, solve_forward
from repro.analysis.layering import _strip

PASS_NAME = "typestate"

#: Bumped when the pass logic changes: part of every cache key, so a
#: new rule invalidates stale cached results.
PASS_VERSION = "2"

#: Top-level repro subpackages outside the simulated kernel: protocol
#: ops never originate there, and analysis tooling talking *about*
#: pages must not be held to the page protocol.
EXEMPT = ("analysis", "bench", "cli", "viz", "__main__")

TOP = "<top>"


# -- declarative protocol specs --------------------------------------------

@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol: states, transitions, and what counts as a crime.

    ``track_on`` starts tracking an untracked variable when an op hits
    it (``resident.free(p)`` proves ``p`` is a page, now ``free``);
    ``transitions`` move tracked state; ``violations`` map ``(op,
    state)`` to a reported rule; any other ``(op, state)`` pair
    degrades to unknown, which is never reported.  ``op_for_state``
    translates a callee's must-exit state back into the op applied at
    the call site, so interprocedural effects run through the same
    violation tables as direct calls.

    Ownership protocols are ``sticky``: a fact survives a join with a
    path that never tracked the variable (a resource acquired on some
    path is still owed its release).  ``leak_on_raise`` /
    ``leak_on_return`` report a variable still in their state on an
    exception / normal exit edge, at the line that put it there.
    """

    name: str
    kind: str                                  # resource kind in messages
    track_on: dict = field(default_factory=dict)
    transitions: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    dead_states: frozenset = frozenset()
    use_rule: tuple = ()                       # (rule, message)
    use_writes_only: bool = False
    op_for_state: dict = field(default_factory=dict)
    yield_hazard: tuple = ()                   # (state, rule, message)
    sticky: bool = False
    leak_on_raise: tuple = ()                  # (state, rule, message)
    leak_on_return: tuple = ()                 # (state, rule, message)


_UAF = ("page-use-after-free",
        "page {var!r} was freed on line {line} and is used here; a "
        "freed page belongs to the free pool and may be reallocated "
        "under you")

PAGE_PROTOCOL = ProtocolSpec(
    name="page", kind="resident-page",
    track_on={"page-free": "free", "page-wire": "wired",
              "page-activate": "active", "page-deactivate": "inactive"},
    transitions={
        ("page-activate", "busy"): "active",
        ("page-activate", "active"): "active",
        ("page-activate", "inactive"): "active",
        ("page-deactivate", "busy"): "inactive",
        ("page-deactivate", "active"): "inactive",
        ("page-deactivate", "inactive"): "inactive",
        ("page-wire", "busy"): "wired",
        ("page-wire", "active"): "wired",
        ("page-wire", "inactive"): "wired",
        ("page-wire", "wired"): "wired",
        ("page-free", "busy"): "free",
        ("page-free", "active"): "free",
        ("page-free", "inactive"): "free",
    },
    violations={
        ("page-free", "free"): (
            "page-double-free",
            "page {var!r} freed again; already freed on line {line}"),
        ("page-free", "wired"): (
            "page-free-while-wired",
            "page {var!r} wired on line {line} is freed here without "
            "an unwire; ResidentPageTable.free refuses wired pages"),
        ("page-activate", "free"): _UAF,
        ("page-deactivate", "free"): _UAF,
        ("page-wire", "free"): _UAF,
        ("page-unwire", "free"): _UAF,
        ("page-touch", "free"): _UAF,
    },
    dead_states=frozenset({"free"}),
    use_rule=_UAF,
    op_for_state={"free": "page-free", "active": "page-activate",
                  "inactive": "page-deactivate", "wired": "page-wire"},
)

_UAD = ("object-use-after-deallocate",
        "vm_object {var!r} was deallocated on line {line}; this "
        "reference is dead and the object may already be terminated")

OBJECT_PROTOCOL = ProtocolSpec(
    name="vmobject", kind="vm-object-ref",
    track_on={"obj-deallocate": "deallocated", "obj-reference": "live"},
    transitions={
        ("obj-deallocate", "live"): "deallocated",
        ("obj-reference", "live"): "live",
    },
    violations={
        ("obj-deallocate", "deallocated"): (
            "object-double-deallocate",
            "vm_object {var!r} deallocated again; this reference was "
            "already dropped on line {line} (over-release terminates "
            "the object under other holders)"),
        ("obj-reference", "deallocated"): _UAD,
    },
    dead_states=frozenset({"deallocated"}),
    use_rule=_UAD,
    op_for_state={"deallocated": "obj-deallocate",
                  "live": "obj-reference"},
)

ENTRY_PROTOCOL = ProtocolSpec(
    name="entry", kind="map-entry",
    track_on={"entry-unlink": "unlinked"},
    transitions={("entry-unlink", "unlinked"): "unlinked"},
    violations={
        ("entry-map-op", "unlinked"): (
            "entry-use-after-unlink",
            "map entry {var!r} was unlinked on line {line} and "
            "re-enters a map structure operation here; in Mach the "
            "entry is back in the zone by now"),
    },
    dead_states=frozenset({"unlinked"}),
    use_rule=("entry-use-after-unlink",
              "map entry {var!r} unlinked on line {line} is written "
              "here; only teardown reads of a dead entry are legal"),
    use_writes_only=True,
    op_for_state={"unlinked": "entry-unlink"},
)

PMAP_PROTOCOL = ProtocolSpec(
    name="pmap", kind="pmap-tlb",
    track_on={"pmap-mutate-unshot": "dirty"},
    transitions={
        ("pmap-mutate-unshot", "dirty"): "dirty",
        ("pmap-mutate-unshot", "clean"): "dirty",
        ("pmap-shoot", "dirty"): "clean",
        ("pmap-shoot", "clean"): "clean",
        # ``system.update()`` names no pmap: it cleans every dirty one.
        ("pmap-shoot-all", "dirty"): "clean",
    },
    op_for_state={"dirty": "pmap-mutate-unshot", "clean": "pmap-shoot"},
    yield_hazard=(
        "dirty", "shootdown-before-yield",
        "pmap {var!r} was mutated with shoot=False on line {line} and "
        "this statement can yield the CPU before the covering "
        "shootdown; another processor can observe the stale TLB entry"),
)


# -- op classification ------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """A protocol operation on one local variable (``var == ""``: on
    every variable its protocol tracks).  An ``on_return`` op takes
    effect only once its call has returned normally (an acquisition:
    if the call raised, nothing was acquired)."""

    op: str
    var: str
    line: int
    on_return: bool = False


#: ``x.resident.<op>(page)`` — the resident page table's queue ops.
_PAGE_OPS = {"free": "page-free", "activate": "page-activate",
             "deactivate": "page-deactivate", "wire": "page-wire",
             "unwire": "page-unwire", "insert": "page-touch",
             "remove": "page-touch", "rename": "page-touch"}

#: Method names that store their argument somewhere (ownership moves).
ESCAPING_METHODS = frozenset({
    "append", "add", "insert", "setdefault", "put", "push", "register",
    "extend", "appendleft"})


def _const_false(call: ast.Call, kwarg: str) -> bool:
    for kw in call.keywords:
        if kw.arg == kwarg and isinstance(kw.value, ast.Constant) \
                and kw.value.value is False:
            return True
    return False


def classify_call(call: ast.Call, cls: Optional[str],
                  standalone: bool = False) -> list[Op]:
    """Protocol ops a call applies directly to named local variables."""
    chain = attr_chain(call.func)
    if len(chain) < 2:
        return []
    tail, recv = chain[-1], chain[-2]
    line = call.lineno
    args = call.args
    arg0 = args[0].id if args and isinstance(args[0], ast.Name) else None
    ops: list[Op] = []
    if recv == "resident" and tail in _PAGE_OPS and arg0:
        ops.append(Op(_PAGE_OPS[tail], arg0, line))
    elif tail == "deallocate" and len(args) == 1 and arg0 \
            and (recv == "objects"
                 or (recv == "self" and cls == "VMObjectManager")):
        ops.append(Op("obj-deallocate", arg0, line))
    elif tail == "reference" and not args and len(chain) == 2 \
            and chain[0] != "self":
        ops.append(Op("obj-reference", chain[0], line))
    elif tail == "_unlink" and arg0:
        ops.append(Op("entry-unlink", arg0, line))
    elif tail in ("_link", "clip_start", "clip_end", "copy_entry_cow") \
            and arg0:
        ops.append(Op("entry-map-op", arg0, line))
    elif tail == "remove" and len(chain) == 2 \
            and _const_false(call, "shoot"):
        ops.append(Op("pmap-mutate-unshot", chain[0], line))
    elif tail == "shootdown" and arg0:
        ops.append(Op("pmap-shoot", arg0, line))
    elif tail == "update" and recv == "system" and not args:
        ops.append(Op("pmap-shoot-all", "", line))
    return ops


def classify_acquire(value: ast.AST,
                     cls: Optional[str]) -> Optional[tuple[str, str]]:
    """``(protocol, state)`` freshly acquired by an assignment RHS."""
    if not isinstance(value, ast.Call):
        return None
    chain = attr_chain(value.func)
    if len(chain) < 2:
        return None
    tail, recv = chain[-1], chain[-2]
    if tail == "allocate" and recv == "resident":
        return ("page", "busy")
    if tail in ("create_internal", "create_for_pager", "shadow") \
            and (recv == "objects"
                 or (recv == "self" and cls == "VMObjectManager")):
        return ("vmobject", "live")
    return None


# -- dataflow facts ----------------------------------------------------------

@dataclass(frozen=True)
class _Fact:
    proto: str       # protocol name
    state: str       # concrete state or TOP
    line: int        # line that established the current state
    acquired: bool = False   # freshly acquired in this function


_State = dict    # var -> _Fact; copied on write

_YIELDS = (ast.Yield, ast.YieldFrom, ast.Await)


def _loaded_names(expr: ast.AST) -> list[str]:
    return [n.id for n in walk_local(expr)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]


class Discipline:
    """Protocols checked together in one engine run, with the
    classifiers mapping a call site (*standalone*: the whole
    statement) to its ops and an assignment RHS to the ``(protocol,
    state)`` it acquires, and *summary_ops* mapping a callee's
    must-exit state (``"page:free"``) to its op at the call site.  A
    discipline that *borrows* keeps a fact a callee may (not must)
    change instead of degrading it.  Specs that know the ``escape`` op
    also see hand-offs: a variable returned, yielded or aliased."""

    def __init__(self, pass_name: str, specs: Iterable[ProtocolSpec],
                 classify_call: Callable[[ast.Call, Optional[str], bool],
                                         list[Op]],
                 classify_acquire: Callable[[ast.AST, Optional[str]],
                                            Optional[tuple[str, str]]],
                 summary_ops: Optional[dict[str, str]] = None,
                 borrows: bool = False) -> None:
        specs = tuple(specs)
        self.pass_name = pass_name
        self.specs = {spec.name: spec for spec in specs}
        self.classify_call = classify_call
        self.classify_acquire = classify_acquire
        self.summary_ops = summary_ops if summary_ops is not None else {
            f"{spec.name}:{state}": op for spec in specs
            for state, op in spec.op_for_state.items()}
        self.borrows = borrows
        #: op -> {protocol name: spec} of the specs whose tables
        #: mention it, in spec order
        self.op_specs: dict[str, dict[str, ProtocolSpec]] = {}
        for spec in specs:
            ops = set(spec.track_on) | {op for op, _ in spec.transitions} \
                | {op for op, _ in spec.violations}
            for op in ops:
                self.op_specs.setdefault(op, {})[spec.name] = spec
        self.sticky = frozenset(s.name for s in specs if s.sticky)
        self.tracks_escape = "escape" in self.op_specs

    def join(self, a: _State, b: _State) -> _State:
        if a == b:
            return a
        out: _State = dict(a)
        sticky = self.sticky
        # Untracked on one path means the state is unknown there, not
        # absent: a page freed on one branch only must join to unknown
        # (never reported), not stay "free".  Sticky facts survive.
        for var, mine in a.items():
            if var not in b and mine.state != TOP \
                    and mine.proto not in sticky:
                out[var] = _Fact(mine.proto, TOP, mine.line)
        for var, fact in b.items():
            mine = out.get(var)
            if mine is None:
                out[var] = fact if fact.state == TOP \
                    or fact.proto in sticky \
                    else _Fact(fact.proto, TOP, fact.line)
            elif mine != fact:
                if mine.proto == fact.proto and mine.state == fact.state:
                    out[var] = _Fact(mine.proto, mine.state,
                                     min(mine.line, fact.line),
                                     mine.acquired and fact.acquired)
                else:
                    out[var] = _Fact(mine.proto, TOP,
                                     min(mine.line, fact.line))
        return out


#: This pass: the VM protocols above, with callee summaries.
TYPESTATE = Discipline(
    PASS_NAME, (PAGE_PROTOCOL, OBJECT_PROTOCOL, ENTRY_PROTOCOL,
                PMAP_PROTOCOL),
    classify_call, classify_acquire)


# -- the engine: one function, summary mode or check mode -------------------

class _FunctionEngine:
    """Shared transfer function over one function's CFG.

    In *check mode* (``run_check``) it emits findings — but only
    during a final sweep over fixpoint states, never from the
    intermediate states the solver passes through.  In *summary mode*
    (``run_summary``, :data:`TYPESTATE` only) it harvests parameter
    exit states, escapes, and may-yield for the bottom-up fixpoint.
    """

    def __init__(self, module: str, qualname: str, func: ast.AST,
                 info: Optional[FunctionInfo], graph: Optional[CallGraph],
                 lookup: Optional[SummaryLookup],
                 discipline: Discipline = TYPESTATE) -> None:
        self.module = module
        self.qualname = qualname
        self.func = func
        self.info = info
        self.graph = graph
        self.lookup = lookup
        self.d = discipline
        self.findings: dict[tuple, Finding] = {}
        self.escaped: set[str] = set()
        self.saw_yield = False
        self._reporting = False
        self._ctx_names = ctx_params(func)
        self._thread_body = is_thread_body(
            func, info.spawned if info is not None else frozenset())
        self._cls = info.cls if info is not None else None

    # -- reporting ----------------------------------------------------------

    def _report(self, rule: str, template: str, var: str, at: int,
                **fmt) -> None:
        if not self._reporting:
            return
        key = (rule, at, var)
        self.findings.setdefault(key, Finding(
            self.d.pass_name, self.module, at, rule, self.qualname,
            template.format(var=var, **fmt)))

    # -- op application ------------------------------------------------------

    def _apply_op(self, state: _State, op: Op) -> _State:
        specs = self.d.op_specs.get(op.op)
        if specs is None:
            return state
        if not op.var:
            out = state
            for var, fact in state.items():
                spec = specs.get(fact.proto)
                nxt = spec.transitions.get((op.op, fact.state)) \
                    if spec is not None else None
                if nxt is not None:
                    if out is state:
                        out = dict(state)
                    out[var] = _Fact(spec.name, nxt, op.line)
            return out
        fact = state.get(op.var)
        if fact is None:
            for spec in specs.values():
                target = spec.track_on.get(op.op)
                if target is not None:
                    out = dict(state)
                    out[op.var] = _Fact(spec.name, target, op.line)
                    return out
            return state
        spec = specs.get(fact.proto)
        if spec is None or fact.state == TOP:
            # Another protocol claims this name, or paths disagree:
            # degrade quietly rather than invent a violation.
            out = dict(state)
            out[op.var] = _Fact(fact.proto, TOP, fact.line)
            return out
        crime = spec.violations.get((op.op, fact.state))
        if crime is not None:
            rule, template = crime
            self._report(rule, template, op.var, op.line,
                         line=fact.line, kind=spec.kind)
            return state
        nxt = spec.transitions.get((op.op, fact.state))
        out = dict(state)
        if nxt is not None:
            out[op.var] = _Fact(spec.name, nxt, op.line, fact.acquired)
        else:
            out[op.var] = _Fact(spec.name, TOP, fact.line)
        return out

    # -- summary application at call sites -----------------------------------

    def _summary_ops(self, call: ast.Call,
                     direct_vars: set[str]) -> tuple[list[Op],
                                                     list[str], bool]:
        """(ops to apply, vars to degrade to unknown, callee may
        yield).  A must-op only survives when *every* candidate callee
        binds the variable and agrees on the exit state."""
        if self.info is None:
            return [], [], False
        pairs = self.lookup(call, self.info)
        if not pairs:
            return [], [], False
        chain = attr_chain(call.func)
        receiver_var = chain[0] if len(chain) == 2 else None
        per_var_must: dict[str, set[str]] = {}
        per_var_seen: dict[str, int] = {}
        degrade: set[str] = set()
        escaped: list[str] = []
        may_yield = False
        for fid, summary in pairs:
            may_yield |= summary.may_yield
            bound = self.graph.bind_args(fid, call, receiver_var)
            for param, var in bound.items():
                if var in direct_vars:
                    continue
                must = summary.must_exit_state(param)
                if must is not None:
                    per_var_must.setdefault(var, set()).add(must)
                    per_var_seen[var] = per_var_seen.get(var, 0) + 1
                if summary.may_exit_states(param):
                    degrade.add(var)
                if param in summary.escapes:
                    self.escaped.add(var)
                    escaped.append(var)
                    degrade.add(var)
        ops = [Op("escape", var, call.lineno) for var in escaped]
        for var, states in sorted(per_var_must.items()):
            if len(states) == 1 and per_var_seen[var] == len(pairs):
                op = self.d.summary_ops.get(next(iter(states)))
                if op is not None:
                    ops.append(Op(op, var, call.lineno))
                    degrade.discard(var)
                    continue
            degrade.add(var)
        if self.d.borrows:
            degrade.clear()
        return ops, sorted(degrade), may_yield

    # -- per-statement transfer ----------------------------------------------

    def _transfer(self, node: CFGNode,
                  state: _State) -> tuple[_State, _State]:
        calls = [c for expr in node.exprs for c in walk_local(expr)
                 if isinstance(c, ast.Call)]
        stmt = node.stmt

        # Dead-state uses are judged on the state *entering* the
        # statement — the op that kills a var happens during it.
        self._check_uses(node, state)

        after = dict(state)
        # A bare generator helper's yields are iteration, not
        # preemption; only thread bodies preempt at yield.
        stmt_yields = node.has_yield and self._thread_body
        on_return: list[Op] = []

        for call in calls:
            standalone = isinstance(stmt, ast.Expr) and call is stmt.value
            direct = self.d.classify_call(call, self._cls, standalone)
            for op in direct:
                if op.on_return:
                    on_return.append(op)
                else:
                    after = self._apply_op(after, op)
            s_ops, s_degrade, callee_yields = self._summary_ops(
                call, {op.var for op in direct})
            for op in s_ops:
                after = self._apply_op(after, op)
            for var in s_degrade:
                fact = after.get(var)
                if fact is not None and fact.state != TOP:
                    after[var] = _Fact(fact.proto, TOP, fact.line)
            if callee_yields or is_preemption_call(call, self._ctx_names):
                stmt_yields = True

        for var in self._escapes(stmt, calls):
            after = self._apply_op(after, Op("escape", var, node.lineno))

        if stmt_yields:
            self.saw_yield = True
            self._check_yield_hazard(node, after)

        # Acquisitions bind on the normal out-state only — if the RHS
        # raised, nothing was acquired.
        exc_out = after
        norm_out = self._apply_stmt(node, after)
        for op in on_return:
            norm_out = self._apply_op(norm_out, op)
        return norm_out, exc_out

    def _escapes(self, stmt: Optional[ast.stmt],
                 calls: list[ast.Call]) -> list[str]:
        """Names stored into a structure or passed to a constructor or
        container method (the summaries' escapes), plus the hand-offs
        when the discipline tracks them."""
        names: list[str] = []
        for call in calls:
            chain = attr_chain(call.func)
            if chain and ((len(chain) == 1 and chain[0][:1].isupper())
                          or chain[-1] in ESCAPING_METHODS):
                names += [arg.id for arg in list(call.args)
                          + [kw.value for kw in call.keywords]
                          if isinstance(arg, ast.Name)]
        single = isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
        if single and isinstance(stmt.targets[0],
                                 (ast.Attribute, ast.Subscript)):
            names += _loaded_names(stmt.value)
        self.escaped.update(names)
        if not self.d.tracks_escape:
            return []
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            names += _loaded_names(stmt.value)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                       _YIELDS):
            names += _loaded_names(stmt.value)
        elif single and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Name):
            names.append(stmt.value.id)          # aliasing hands it off
        return names

    def _apply_stmt(self, node: CFGNode, state: _State) -> _State:
        stmt = node.stmt
        out = state
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                acq = self._acquire_of(stmt.value)
                out = dict(state)
                if acq is not None:
                    proto, st = acq
                    out[target.id] = _Fact(proto, st, stmt.lineno,
                                           acquired=True)
                else:
                    out.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                out = dict(state)
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        out.pop(elt.id, None)
        elif isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            out = dict(state)
            out.pop(stmt.target.id, None)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            out = dict(state)
            for n in walk_local(stmt.target):
                if isinstance(n, ast.Name):
                    out.pop(n.id, None)
        elif isinstance(stmt, ast.Delete):
            out = dict(state)
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    out.pop(tgt.id, None)
        return out

    def _acquire_of(self, value: ast.AST) -> Optional[tuple[str, str]]:
        acq = self.d.classify_acquire(value, self._cls)
        if acq is not None:
            return acq
        if isinstance(value, ast.Call) and self.info is not None:
            pairs = self.lookup(value, self.info)
            if pairs:
                kinds = set(pairs[0][1].returns_acquired)
                for _fid, summary in pairs[1:]:
                    kinds &= set(summary.returns_acquired)
                if len(kinds) == 1:
                    proto, _, st = next(iter(kinds)).partition(":")
                    if proto in self.d.specs:
                        return (proto, st)
        return None

    # -- check-mode detectors ------------------------------------------------

    def _check_uses(self, node: CFGNode, state: _State) -> None:
        if not self._reporting:
            return
        specs = self.d.specs
        dead = {var: fact for var, fact in state.items()
                if fact.state != TOP
                and fact.state in specs[fact.proto].dead_states}
        if not dead:
            return
        for expr in node.exprs:
            for sub in walk_local(expr):
                if not isinstance(sub, ast.Attribute) \
                        or not isinstance(sub.value, ast.Name):
                    continue
                fact = dead.get(sub.value.id)
                if fact is None:
                    continue
                spec = specs[fact.proto]
                if not spec.use_rule:
                    continue
                if spec.use_writes_only \
                        and not isinstance(sub.ctx, ast.Store):
                    continue
                rule, template = spec.use_rule
                self._report(rule, template, sub.value.id,
                             node.lineno, line=fact.line)

    def _check_yield_hazard(self, node: CFGNode, state: _State) -> None:
        if not self._reporting:
            return
        for var, fact in sorted(state.items()):
            spec = self.d.specs[fact.proto]
            if not spec.yield_hazard or fact.state == TOP:
                continue
            hazard_state, rule, template = spec.yield_hazard
            if fact.state == hazard_state:
                self._report(rule, template, var, node.lineno,
                             line=fact.line)

    def _check_leaks(self, state: _State, via: int, raised: bool) -> None:
        """A tracked variable still in a leaking state on an exit edge.
        Judged per edge, not on the joined exit state: joining a
        leaking path with a clean one would yield unknown and hide the
        leak.  One finding per leaked acquisition, at its line."""
        for var, fact in sorted(state.items()):
            spec = self.d.specs[fact.proto]
            leak = spec.leak_on_raise if raised else spec.leak_on_return
            if leak and fact.state == leak[0]:
                _state, rule, template = leak
                self._report(rule, template, var, fact.line,
                             kind=spec.kind, via=via)

    # -- drivers ---------------------------------------------------------------

    def run_check(self) -> list[Finding]:
        cfg = build_cfg(self.func)
        states = solve_forward(cfg, {}, self._transfer, self.d.join)
        # Report only from fixpoint states: an intermediate state can
        # hold a concrete fact a later join degrades to unknown.
        self._reporting = True
        for node in cfg:
            if node.nid not in states:
                continue                      # unreachable
            out_n, out_e = self._transfer(node, states[node.nid])
            if EXC_EXIT in node.exc:
                self._check_leaks(out_e, node.lineno, raised=True)
            if EXC_EXIT in node.succ:         # raise / finally rethrow
                self._check_leaks(out_n, node.lineno, raised=True)
            if EXIT in node.succ:
                self._check_leaks(out_n, node.lineno, raised=False)
        self._reporting = False
        return sorted(self.findings.values(),
                      key=lambda f: (f.lineno, f.rule))

    def run_summary(self, lines: Optional[list[str]]) -> Summary:
        """*lines*: the module's source lines, for ``#: no-retry``
        annotations (None: annotations are not seen)."""
        cfg = build_cfg(self.func)
        states = solve_forward(cfg, {}, self._transfer, self.d.join)
        params = set(self.info.params if self.info is not None else ())
        must: Optional[set[tuple[str, str]]] = None
        may: set[tuple[str, str]] = set()
        returns: Optional[set[str]] = None
        propagates = False
        for node in cfg:
            if node.nid not in states:
                continue
            propagates = propagates or self._propagates(cfg, node, lines)
            out_n, out_e = self._transfer(node, states[node.nid])
            if EXC_EXIT in node.exc or EXC_EXIT in node.succ:
                may |= self._param_states(out_e, params)
            if EXIT in node.succ:
                edge = self._param_states(out_n, params)
                may |= edge
                must = edge if must is None else (must & edge)
                ret = self._returned_kind(node, out_n)
                returns = ret if returns is None else (returns & ret)
        return Summary(
            must_exit=tuple(sorted(must or ())),
            may_exit=tuple(sorted(may)),
            escapes=tuple(sorted(v for v in self.escaped
                                 if v in params)),
            returns_acquired=tuple(sorted(returns or ())),
            may_yield=self.saw_yield,
            propagates_transient=propagates)

    def _propagates(self, cfg: CFG, node: CFGNode,
                    lines: Optional[list[str]]) -> bool:
        """Errorpaths' interprocedural half: does a transient pager/disk
        error escape through *node* to the caller?  Never when one of
        its exception edges reaches a handler that catches it."""
        if any(h in cfg.nodes and catches_transient(cfg.nodes[h].stmt)
               for h in node.exc):
            return False

        def callee_propagates(call: ast.Call) -> bool:
            return any(summary.propagates_transient
                       for _fid, summary in self.lookup(call, self.info))

        return any(transient_escapes(call, lines, callee_propagates)
                   for expr in node.exprs for call in walk_local(expr)
                   if isinstance(call, ast.Call))

    @staticmethod
    def _param_states(state: _State,
                      params: set[str]) -> set[tuple[str, str]]:
        return {(var, f"{fact.proto}:{fact.state}")
                for var, fact in state.items()
                if var in params and fact.state != TOP}

    def _returned_kind(self, node: CFGNode, state: _State) -> set[str]:
        stmt = node.stmt
        if not isinstance(stmt, ast.Return) or stmt.value is None:
            return set()
        value = stmt.value
        if isinstance(value, ast.Name):
            fact = state.get(value.id)
            if fact is not None and fact.acquired and fact.state != TOP:
                return {f"{fact.proto}:{fact.state}"}
            return set()
        acq = self._acquire_of(value)
        if acq is not None:
            return {f"{acq[0]}:{acq[1]}"}
        return set()


# -- context: call graph + summaries over a module set -----------------------

@dataclass
class AnalysisContext:
    """Everything the interprocedural passes share for one run."""

    graph: CallGraph
    summaries: dict[str, Summary]

    def lookup(self, call: ast.Call,
               caller: FunctionInfo) -> list[tuple[str, Summary]]:
        return [(f, self.summaries.get(f, EMPTY_SUMMARY))
                for f in self.graph.resolve(call, caller)]

    def caller_info(self, module: str,
                    qualname: str) -> Optional[FunctionInfo]:
        return self.graph.functions.get(f"{module}:{qualname}")

    def summary_digest(self, module: str) -> str:
        """Stable digest of every summary in *module* — the
        "dependency summary" component of incremental cache keys."""
        import hashlib
        parts = [f"{fid}={self.summaries[fid]!r}"
                 for fid in sorted(self.summaries)
                 if fid.startswith(module + ":")]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def dependencies(self, module: str) -> frozenset[str]:
        """Modules whose summaries this module's findings consult:
        every module containing a resolved callee of its functions."""
        deps: set[str] = set()
        prefix = module + ":"
        for fid, callees in self.graph.edges.items():
            if not fid.startswith(prefix):
                continue
            for callee in callees:
                dep = self.graph.functions[callee].module
                if dep != module:
                    deps.add(dep)
        return frozenset(deps)


def build_context(modules: Iterable[tuple[str, ast.AST,
                                          Optional[list[str]]]]
                  ) -> AnalysisContext:
    """Build the call graph and compute all function summaries
    bottom-up.  *modules* yields ``(dotted name, tree, source lines)``
    (lines may be None; the no-retry annotation check then degrades)."""
    modules = list(modules)
    graph = build_callgraph((m, t) for m, t, _ in modules)
    lines_of = {m: ln for m, _t, ln in modules}

    def local(info: FunctionInfo, lookup: SummaryLookup) -> Summary:
        engine = _FunctionEngine(info.module, info.qualname, info.func,
                                 info, graph, lookup)
        return engine.run_summary(lines_of.get(info.module))

    summaries = compute_summaries(graph, local)
    return AnalysisContext(graph=graph, summaries=summaries)


# -- the pass ----------------------------------------------------------------

def check_discipline(discipline: Discipline, module: str, tree: ast.AST,
                     ctx: Optional[AnalysisContext]) -> list[Finding]:
    """Run *discipline* over every function of one module.  With
    *ctx*, callee summaries apply at call sites; without one the
    discipline's syntactic tables stand alone."""
    findings: list[Finding] = []
    for qualname, func in iter_functions(tree):
        info = ctx.caller_info(module, qualname) if ctx else None
        findings += _FunctionEngine(
            module, qualname, func, info, ctx and ctx.graph,
            ctx and ctx.lookup, discipline).run_check()
    return findings


def check_module(module: str, tree: ast.AST,
                 ctx: Optional[AnalysisContext] = None) -> list[Finding]:
    """Typestate-check one module.  Without *ctx*, a module-local
    context is built, so helper/caller pairs inside the module are
    still checked interprocedurally (what the fixtures exercise)."""
    if ctx is None:
        ctx = build_context([(module, tree, None)])
    return check_discipline(TYPESTATE, module, tree, ctx)


def in_scope(module: str, package: str = "repro") -> bool:
    """Typestate scope: the simulated kernel, not the tooling."""
    inner = _strip(module, package)
    if inner is None or inner == "":
        return False
    return inner.split(".")[0] not in EXEMPT


def run_pass(root: Optional[Path] = None,
             package: str = "repro") -> list[Finding]:
    """Typestate-check every in-scope module with whole-tree context."""
    modules = list(iter_source_modules(root, package))
    ctx = build_context(
        (m, t, p.read_text().splitlines()) for m, p, t in modules)
    findings: list[Finding] = []
    for module, _path, tree in modules:
        if not in_scope(module, package):
            continue
        findings += check_module(module, tree, ctx)
    return findings
