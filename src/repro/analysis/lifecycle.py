"""Resource lifecycle lint: acquire/release pairing along all paths.

The kernel juggles manually-managed resources, each with an
acquire/release discipline the type system cannot see:

* **free-pool slots** — swap slots and physical frames popped off a
  ``_free`` list (``slot = x._free.pop()``) and returned with
  ``x._free.append(slot)`` / ``x.free_slot(slot)``.  A failed
  ``write_direct`` that drops a freshly popped swap slot is exactly
  this kind of leak;
* **vm_object references** — ``obj.reference()`` / manager ``shadow``
  / ``create_*`` paired with ``objects.deallocate(obj)``;
* **resident pages** — ``resident.allocate(...)`` returns a page that
  is *off every queue* (and usually busy) until it is activated,
  wired, or freed; an exception in that window strands the frame
  forever (and ``unwire`` pairs with an earlier ``wire``);
* **holding maps and port rights** — ``AddressMap(...)`` / ``Port(...)``
  constructions paired with ``.destroy()``.

Each is a :class:`~repro.analysis.typestate.ProtocolSpec` table run by
the typestate engine (:data:`LIFECYCLE`): a variable moves ``held ->
released`` (a resident page via ``committed`` — on a queue — to
``freed``).  Paths that disagree join to unknown (deliberately not
reported, so correlated acquire/release conditions don't produce
noise).  Reported:

* ``leak-on-exception-path`` — still held on an edge to the synthetic
  exception exit (all kinds);
* ``leak-on-return`` — still held at normal exit (free-pool slots
  only; long-lived kinds routinely outlive their creating function);
* ``double-release`` — released while already released (a page
  committed to a queue again after its free counts too; moving a
  committed page between queues does not).

Escape analysis is ownership-transfer-shaped: returning/yielding a
variable, storing it into an attribute, subscript, or container
(``.append``/``.add``/...), aliasing it, entering it into a map
(``allocate(vm_object=...)``), or passing it to a constructor or a
computed callee all end tracking; passing it as a plain call argument
is a *borrow* and does not (that borrow rule is what catches leaks
like a holding map dropped when ``copy_region`` raises mid-send).
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.callgraph import attr_chain
from repro.analysis.flow import Finding
from repro.analysis.typestate import (
    Discipline, Op, ProtocolSpec, check_discipline,
)

PASS_NAME = "lifecycle"

#: Part of the incremental-cache key: bump on any behavior change.
PASS_VERSION = "3"

HELD, RELEASED = "held", "released"

_DOUBLE = ("double-release",
           "{var!r} ({kind}) released again; already released on a path "
           "reaching here")
_LEAK = "{kind} {var!r} acquired here is never released or handed off: "
_LEAK_ON_RAISE = (HELD, "leak-on-exception-path",
                  _LEAK + "still held when line {via} can raise")
_LEAK_ON_RETURN = (HELD, "leak-on-return",
                   _LEAK + "still held at the return on line {via}")


def _resource(kind: str, releases: tuple[str, ...], leaks: bool = True,
              leak_at_return: bool = False,
              retakes: tuple[str, ...] = ()) -> ProtocolSpec:
    """A resource held from its acquisition (or one of *retakes*)
    until one of *releases*; a release of a released resource is a
    double release, an escape ends tracking."""
    return ProtocolSpec(
        name=kind, kind=kind, sticky=True,
        track_on={op: RELEASED for op in releases}
        | {op: HELD for op in retakes},
        transitions={(op, HELD): RELEASED for op in releases}
        | {(op, state): HELD for op in retakes
           for state in (HELD, RELEASED)}
        | {("escape", RELEASED): RELEASED},
        violations={(op, RELEASED): _DOUBLE for op in releases},
        leak_on_raise=_LEAK_ON_RAISE if leaks else (),
        leak_on_return=_LEAK_ON_RETURN if leak_at_return else ())


#: A resident page: allocated off every queue, then committed to one
#: (activate/deactivate/wire) and finally freed.
PAGE = ProtocolSpec(
    name="resident-page", kind="resident-page", sticky=True,
    track_on={"page-free": "freed", "page-commit": "committed"},
    transitions={
        ("page-commit", HELD): "committed",
        ("page-commit", "committed"): "committed",
        ("page-free", HELD): "freed",
        ("page-free", "committed"): "freed",
        ("escape", "committed"): "committed",
        ("escape", "freed"): "freed",
    },
    violations={("page-commit", "freed"): _DOUBLE,
                ("page-free", "freed"): _DOUBLE},
    leak_on_raise=_LEAK_ON_RAISE)

SPECS = (
    _resource("free-pool-slot", ("slot-release",), leak_at_return=True),
    # A standalone `obj.reference()` takes a fresh reference.
    _resource("vm-object-ref", ("obj-deallocate",),
              retakes=("obj-reference",)),
    PAGE,
    _resource("holding-map", ("destroy",)),
    _resource("port-right", ("destroy",)),
    # `x.destroy()` on a variable no acquisition tracked.
    _resource("destroyable", ("destroy",), leaks=False),
    _resource("page-wire", ("page-unwire",), leaks=False),
)

# -- acquisitions: assignment RHS -> resource kind -----------------------

#: constructors whose result is a tracked resource.
CONSTRUCTORS = {"AddressMap": "holding-map", "Port": "port-right",
                "VMObject": "vm-object-ref"}

#: method names acquiring a vm_object reference into their result.
OBJECT_FACTORIES = {"create_internal", "create_for_pager", "shadow"}

#: receiver names that make a bare ``.allocate(...)`` a resident-page
#: acquisition (``vm.resident.allocate`` vs ``vm_map.allocate``).
RESIDENT_RECEIVERS = {"resident"}

# -- releases: ``<recv>.<tail>(x)`` -> op on x -----------------------------

#: single-argument releases, whatever the receiver.
RELEASES = {"deallocate": "obj-deallocate", "free": "page-free",
            "activate": "page-commit", "deactivate": "page-commit",
            "wire": "page-commit", "unwire": "page-unwire"}


def classify_acquire(value: ast.AST,
                     cls: Optional[str]) -> Optional[tuple[str, str]]:
    """``(kind, "held")`` acquired when *value* (an assignment RHS)
    runs, or None."""
    if not isinstance(value, ast.Call):
        return None
    chain = attr_chain(value.func)
    kind = None
    if len(chain) == 1:
        kind = CONSTRUCTORS.get(chain[0])
    elif chain:
        tail, recv = chain[-1], chain[-2]
        if tail == "pop" and recv == "_free":
            kind = "free-pool-slot"
        elif tail in OBJECT_FACTORIES:
            kind = "vm-object-ref"
        elif tail == "allocate" and recv in RESIDENT_RECEIVERS:
            kind = "resident-page"
    return (kind, HELD) if kind else None


def classify_call(call: ast.Call, cls: Optional[str],
                  standalone: bool) -> list[Op]:
    """Release, hand-off and receiver-acquisition ops of one call."""
    chain = attr_chain(call.func)
    line = call.lineno
    args = call.args
    if not chain:
        # Complex callee (call result, subscript): be conservative,
        # its arguments escape.
        return [Op("escape", a.id, line) for a in args
                if isinstance(a, ast.Name)]
    if len(chain) == 1:
        return []
    tail, recv = chain[-1], chain[-2]
    arg0 = args[0].id if args and isinstance(args[0], ast.Name) else None
    if tail == "append" and recv == "_free" or tail == "free_slot":
        return [Op("slot-release", arg0, line)] if arg0 else []
    if tail in RELEASES and len(args) == 1 and arg0:
        return [Op(RELEASES[tail], arg0, line)]
    if len(chain) == 2 and not args:
        # Bare-name receiver only: `holder.destroy()` releases the
        # local, `region.holding.destroy()` releases state we don't
        # track (the attribute, not a local).
        if tail == "destroy":
            return [Op("destroy", recv, line)]
        # Only a whole-statement `obj.reference()` leaves the new
        # reference in obj's hands (`f(x=obj.reference())` hands it
        # to f), and only once the call has returned.
        if tail == "reference" and recv != "self" and standalone:
            return [Op("obj-reference", recv, line, on_return=True)]
    if tail == "allocate":
        # `map.allocate(vm_object=obj)` stores the object into the new
        # map entry: ownership (the caller's reference) moves with it.
        return [Op("escape", kw.value.id, line) for kw in call.keywords
                if kw.arg == "vm_object" and isinstance(kw.value, ast.Name)]
    return []


LIFECYCLE = Discipline(
    PASS_NAME, SPECS, classify_call, classify_acquire,
    # Callee summaries that always free / deallocate an argument
    # release it here.
    summary_ops={"page:free": "page-free",
                 "vmobject:deallocated": "obj-deallocate"},
    borrows=True)


def check_module(module: str, tree: ast.AST, ctx=None) -> list[Finding]:
    """Run the lifecycle discipline over one parsed module.  With a
    :class:`repro.analysis.typestate.AnalysisContext`, callee
    summaries supply interprocedural ownership handoffs (escapes and
    must-releases); without one the syntactic tables stand alone."""
    return check_discipline(LIFECYCLE, module, tree, ctx)


def in_scope(module: str, package: str = "repro") -> bool:
    """Lifecycle applies to the whole package."""
    del package
    return True
