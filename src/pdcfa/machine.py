"""Abstract machine: value domains, monotone stores, and transition rules.

Control states pair a statement position with a frame pointer; the value
and taint stores are global join-semilattices that only ever grow (no strong
updates). The continuation stack is left unbounded; the reachability engines
decide how to treat it. No state carries a stack: ``step_independent`` steps
the statements that ignore it, and ``step_dependent`` steps return, throw and
pop-handler against a hypothesis about the top frame (a frame, or an empty
stack). Both return the Dyck state graph's edges from the stepped state,
each labelled with its stack action (noop / push / pop), so both engines
read one transition relation. A step reads its statement's compiled
record (``ir.Code``), evaluates its atomic expressions with the closures
compiled onto that record on its first step (``evaluators``), and looks the
control states, register and field addresses, edges and operation results
it needs up in its program's tables (``state_at``, ``reg_addr``,
``field_addr``, ``edge_of``, ``Program.op_results``), so one analysis
builds each of them once.

All step functions are pure apart from joins into the supplied stores and
the entries they add to those tables, to the invoke memos and to the
records' evaluators, each equal to what building it afresh would give;
joins are commutative and idempotent, so evaluating disjoint worklist items
in any order (or concurrently, with atomic joins) yields the same fixpoint.
"""

from __future__ import annotations

import logging
import operator

from . import taint as taint_mod
from .ir import (
    AssignAtomic,
    AssignComplex,
    AtomicOp,
    BoolLit,
    Code,
    FieldGet,
    FieldPut,
    Goto,
    HandlerFrame,
    If,
    InstanceOf,
    IntLit,
    Invoke,
    Label,
    Line,
    MethodRef,
    MoveFromRet,
    Name,
    New,
    Nop,
    NullLit,
    PopHandler,
    Program,
    PushHandler,
    ResolveError,
    Return,
    StmtPos,
    This,
    Throw,
    VoidLit,
    record,
)

log = logging.getLogger("pdcfa.machine")

RET_REG = "ret"
EXN_REG = "exn"


# ---------------------------------------------------------------------------
# Pointers and addresses
# ---------------------------------------------------------------------------


@record(key=True)
class FramePointer:
    method: MethodRef
    context: tuple = ()  # call-site positions, length <= k

    def sort_key(self):
        return (self.method.sort_key(),
                tuple(s.sort_key() for s in self.context))

    def canonical(self) -> str:
        ctx = ";".join(f"{s.method.sig()}@{s.index}" for s in self.context)
        return f"{self.method.sig()}[{ctx}]"


@record(key=True)
class AmbientSite:
    """Allocation site of a framework-supplied object (entry receiver/arg)."""

    class_name: str

    def sort_key(self):
        return ("<ambient>", self.class_name, -1)

    def canonical(self) -> str:
        return f"<ambient:{self.class_name}>"


@record(key=True)
class ObjectPointer:
    site: object  # StmtPos | AmbientSite
    context: tuple = ()

    def sort_key(self):
        site = self.site
        skey = site.sort_key() if isinstance(site, AmbientSite) \
            else ("stmt", *site.sort_key())
        return (skey, tuple(s.sort_key() for s in self.context))

    def canonical(self) -> str:
        site = self.site
        text = site.canonical() if isinstance(site, AmbientSite) \
            else f"{site.method.sig()}@{site.index}"
        if self.context:
            ctx = ";".join(f"{s.method.sig()}@{s.index}" for s in self.context)
            return f"{text}<{ctx}>"
        return text


@record(key=True)
class RegAddr:
    fp: FramePointer
    reg: str

    def sort_key(self):
        return (0, self.fp.sort_key(), self.reg)

    def canonical(self) -> str:
        return f"reg:{self.fp.canonical()}:{self.reg}"


def reg_addr(program: Program, fp: FramePointer, reg: str) -> RegAddr:
    """The address of register ``reg`` in frame ``fp``: built the first
    time an analysis of ``program`` asks for it, then looked up."""
    regs = program.reg_addrs.get(fp)
    if regs is None:
        regs = program.reg_addrs[fp] = {}
    addr = regs.get(reg)
    if addr is None:
        addr = regs[reg] = RegAddr(fp, reg)
    return addr


@record(key=True)
class FieldAddr:
    op: ObjectPointer
    field_name: str

    def sort_key(self):
        return (1, self.op.sort_key(), self.field_name)

    def canonical(self) -> str:
        return f"field:{self.op.canonical()}.{self.field_name}"


def field_addr(program: Program, op: ObjectPointer,
               field_name: str) -> FieldAddr:
    """The address of field ``field_name`` of the objects ``op`` allocates:
    built the first time an analysis of ``program`` asks for it, then
    looked up."""
    fields = program.field_addrs.get(op)
    if fields is None:
        fields = program.field_addrs[op] = {}
    addr = fields.get(field_name)
    if addr is None:
        addr = fields[field_name] = FieldAddr(op, field_name)
    return addr


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


@record(key=True)
class ObjectValue:
    op: ObjectPointer
    class_name: str

    def sort_key(self):
        return (4, self.class_name, self.op.sort_key())

    def canonical(self) -> str:
        return f"obj:{self.op.canonical()}:{self.class_name}"


@record
class AbstractInt:
    value: int | None  # None means any integer

    def sort_key(self):
        return (0, 1, self.value) if self.value is not None else (0, 0, 0)

    def canonical(self) -> str:
        return f"int:{'any' if self.value is None else self.value}"


@record
class AbstractString:
    value: str | None  # None means any string

    def sort_key(self):
        return (3, 1, self.value) if self.value is not None else (3, 0, "")

    def canonical(self) -> str:
        return f"str:{'any' if self.value is None else self.value}"


@record
class AbstractBool:
    value: bool

    def sort_key(self):
        return (1, int(self.value))

    def canonical(self) -> str:
        return f"bool:{str(self.value).lower()}"


@record
class NullVal:
    def sort_key(self):
        return (2, 0)

    def canonical(self) -> str:
        return "null"


@record
class VoidVal:
    def sort_key(self):
        return (2, 1)

    def canonical(self) -> str:
        return "void"


ANY_INT = AbstractInt(None)
ANY_STRING = AbstractString(None)
TRUE = AbstractBool(True)
FALSE = AbstractBool(False)
NULL = NullVal()
VOID = VoidVal()
BOTH_BOOLS = frozenset({TRUE, FALSE})

# an API summary's return abstraction -> the values its call returns
SUMMARY_RETURNS = {
    "any-string": frozenset({ANY_STRING}),
    "any-int": frozenset({ANY_INT}),
    "null": frozenset({NULL}),
    "void": frozenset({VOID}),
}


def value_sort_key(v):
    return v.sort_key()


# Exact int (and string) constants kept per address before widening to Any.
INT_CONSTANT_BUDGET = 8


def normalize_vals(values) -> frozenset:
    """Apply the flat-lattice absorption: AnyInt/AnyString swallow exact
    constants once present or once the per-address constant budget is hit."""
    values = frozenset(values)
    ints = [v for v in values if isinstance(v, AbstractInt) and v.value is not None]
    strs = [v for v in values
            if isinstance(v, AbstractString) and v.value is not None]
    widen_ints = ints and (ANY_INT in values
                           or len(ints) > INT_CONSTANT_BUDGET)
    widen_strs = strs and (ANY_STRING in values
                           or len(strs) > INT_CONSTANT_BUDGET)
    if not (widen_ints or widen_strs):
        return values
    out = set(values)
    if widen_ints:
        out.difference_update(ints)
        out.add(ANY_INT)
    if widen_strs:
        out.difference_update(strs)
        out.add(ANY_STRING)
    return frozenset(out)


class Store(taint_mod.MonotoneStore):
    """Addr -> set(AbstractValue), normalized by ``normalize_vals``."""

    _normalize = staticmethod(normalize_vals)


# ---------------------------------------------------------------------------
# Allocation policy
# ---------------------------------------------------------------------------


@record
class AllocPolicy:
    k: int = 1
    heap_context: bool = False


def frame_pointer_zero(entry: MethodRef) -> FramePointer:
    return FramePointer(entry, ())


def alloc_fp(caller_fp: FramePointer, call_site: StmtPos, callee: MethodRef,
             policy: AllocPolicy) -> FramePointer:
    """Callee context: the last k call sites including the current one."""
    if policy.k <= 0:
        return FramePointer(callee, ())
    ctx = (caller_fp.context + (call_site,))[-policy.k:]
    return FramePointer(callee, ctx)


def alloc_op(site: StmtPos, fp: FramePointer, policy: AllocPolicy) -> ObjectPointer:
    """Allocation-site pointer, optionally refined by the allocating context."""
    return ObjectPointer(site, fp.context if policy.heap_context else ())


# ---------------------------------------------------------------------------
# Atomic evaluation
# ---------------------------------------------------------------------------


def truncated_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (Java semantics)."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def truncated_rem(a: int, b: int) -> int:
    return a - b * truncated_div(a, b)


# Each binary operator but eq and ne on exact operands: and, or and xor
# are bitwise on ints and logical on bools (a bool result for bools).
EXACT_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
             "div": truncated_div, "rem": truncated_rem,
             "and": operator.and_, "or": operator.or_, "xor": operator.xor,
             "lt": operator.lt, "le": operator.le, "gt": operator.gt,
             "ge": operator.ge}
COMPARE_OPS = frozenset({"lt", "le", "gt", "ge"})
LOGIC_OPS = frozenset({"and", "or", "xor"})


def _pair_op(op: str, a, b) -> frozenset:
    if op in ("eq", "ne"):
        res = _abstract_eq(a, b)
        if op == "ne":
            res = frozenset({AbstractBool(not v.value) for v in res})
        return res
    fn = EXACT_OPS[op]
    if op in LOGIC_OPS and type(a) is type(b) is AbstractBool:
        return frozenset({AbstractBool(fn(a.value, b.value))})
    if not (isinstance(a, AbstractInt) and isinstance(b, AbstractInt)):
        return frozenset()
    if a.value is None or b.value is None:
        return BOTH_BOOLS if op in COMPARE_OPS else frozenset({ANY_INT})
    if op in ("div", "rem") and b.value == 0:
        return frozenset()
    wrap = AbstractBool if op in COMPARE_OPS else AbstractInt
    return frozenset({wrap(fn(a.value, b.value))})


def _abstract_eq(a, b) -> frozenset:
    if type(a) is not type(b):
        return frozenset({FALSE})
    if isinstance(a, (AbstractInt, AbstractBool, AbstractString)):
        if a.value is None or b.value is None:  # any int or any string
            return BOTH_BOOLS
        return frozenset({AbstractBool(a.value == b.value)})
    if isinstance(a, (NullVal, VoidVal)):
        return frozenset({TRUE})
    if isinstance(a, ObjectValue):
        # Same allocation site may or may not be the same concrete object.
        return BOTH_BOOLS if a.op == b.op else frozenset({FALSE})
    return frozenset({FALSE})


def _unary_op(op: str, a) -> frozenset:
    if op == "neg":
        if isinstance(a, AbstractInt):
            return frozenset({ANY_INT if a.value is None
                              else AbstractInt(-a.value)})
        return frozenset()
    if op == "not":
        if isinstance(a, AbstractBool):
            return frozenset({AbstractBool(not a.value)})
        return frozenset()
    raise AssertionError(op)


def _op_values(op: str, *vals) -> frozenset:
    """The value set of ``op`` over operand value sets ``vals``."""
    if any(not v for v in vals):
        return frozenset()
    out: set = set()
    if len(vals) == 1:
        for a in vals[0]:
            out |= _unary_op(op, a)
    else:
        for a in vals[0]:
            for b in vals[1]:
                out |= _pair_op(op, a, b)
    return normalize_vals(out)


_NO_TAINT: frozenset = frozenset()


def _no_taint(fp: FramePointer, taint_store) -> frozenset:
    """The taint of an expression that reads no register."""
    return _NO_TAINT


def compile_atomic(program: Program, ae) -> tuple:
    """The (values, taint) pair of closures that evaluate ``ae``:
    ``values(fp, store)`` is its value set, empty when a name is unbound,
    and ``taint(fp, taint_store)`` the union of the taint of the registers
    it reads. Each reads the addresses a walk of ``ae`` would, in the same
    order. A literal's set is built here once; an operation's value set is
    read from ``program.op_results`` by operator and operand sets."""
    match ae:  # the commonest forms first
        case Name(reg):
            return _register(program, reg)
        case IntLit(n):
            return _constant(frozenset({AbstractInt(n)}))
        case AtomicOp(op, args):
            return _compile_op(program, op, args)
        case This():
            return _register(program, "this")
        case BoolLit(v):
            return _constant(frozenset({AbstractBool(v)}))
        case NullLit():
            return _constant(frozenset({NULL}))
        case VoidLit():
            return _constant(frozenset({VOID}))
        case InstanceOf(inner, cls):
            return _compile_instance_of(program, inner, cls)
    raise TypeError(f"not an atomic expression: {ae!r}")


def _register(program: Program, reg: str) -> tuple:
    def values(fp, store):
        return store.lookup(reg_addr(program, fp, reg))

    def taint(fp, taint_store):
        return taint_store.lookup(reg_addr(program, fp, reg))
    return values, taint


def _constant(vals: frozenset) -> tuple:
    def values(fp, store):
        return vals
    return values, _no_taint


def _compile_op(program: Program, op: str, args: tuple) -> tuple:
    results = program.op_results
    operands = [compile_atomic(program, a) for a in args]
    if len(operands) == 1:
        [(arg, taint)] = operands

        def values(fp, store):
            key = (op, arg(fp, store))
            out = results.get(key)
            if out is None:
                out = results[key] = _op_values(*key)
            return out
        return values, taint
    [(left, left_taint), (right, right_taint)] = operands

    def values(fp, store):
        key = (op, left(fp, store), right(fp, store))
        out = results.get(key)
        if out is None:
            out = results[key] = _op_values(*key)
        return out
    if right_taint is _no_taint:
        return values, left_taint
    if left_taint is _no_taint:
        return values, right_taint

    def taint(fp, taint_store):
        return left_taint(fp, taint_store) | right_taint(fp, taint_store)
    return values, taint


def _compile_instance_of(program: Program, inner, cls: str) -> tuple:
    inner_values, taint = compile_atomic(program, inner)

    def values(fp, store):
        out = set()
        for v in inner_values(fp, store):
            if isinstance(v, ObjectValue):
                out.add(AbstractBool(program.is_subclass(v.class_name, cls)))
            elif isinstance(v, NullVal):
                out.add(FALSE)
            elif isinstance(v, AbstractString):
                out.add(AbstractBool(
                    cls in ("java/lang/Object", "java/lang/String")))
        return frozenset(out)
    return values, taint


def _atomic_operands(stmt) -> tuple:
    """The atomic expressions a step of ``stmt`` evaluates, in order."""
    match stmt:
        case If(exp, _) | AssignAtomic(_, exp) | Return(exp) | Throw(exp):
            return (exp,)
        case FieldPut(obj, _, value):
            return (obj, value)
        case FieldGet(_, obj, _):
            return (obj,)
        case AssignComplex(_, Invoke(args=args)):
            return args
    return ()


def evaluators(program: Program, code: Code) -> tuple:
    """The compiled pairs (``compile_atomic``) of the atomic expressions
    ``code``'s statement evaluates, in order: made on the first call and
    kept on the record."""
    evals = code.evals
    if evals is None:
        evals = code.evals = tuple(compile_atomic(program, ae)
                                   for ae in _atomic_operands(code.stmt))
    return evals


def field_values(program: Program, receivers, store: Store,
                 field_name: str) -> frozenset:
    """Join of the field's values over the objects among ``receivers``."""
    out: set = set()
    for v in receivers:
        if isinstance(v, ObjectValue):
            out |= store.lookup(field_addr(program, v.op, field_name))
    return normalize_vals(out)


def field_taint(program: Program, receivers,
                taint_store: taint_mod.TaintStore,
                field_name: str) -> frozenset:
    out: frozenset = frozenset()
    for v in receivers:
        if isinstance(v, ObjectValue):
            out |= taint_store.lookup(field_addr(program, v.op, field_name))
    return out


def init_object(program: Program, store: Store, op: ObjectPointer,
                class_name: str) -> None:
    """Join type defaults into the fields of the class and all ancestors."""
    for cls in program.superclass_chain(class_name):
        cdef = program.classes.get(cls)
        if cdef is None:
            continue
        for fdef in cdef.fields:
            if fdef.field_type == "boolean":
                default: frozenset = frozenset({FALSE})
            elif fdef.field_type in ("int", "byte", "char"):
                default = frozenset({AbstractInt(0)})
            else:
                default = frozenset({NULL})
            store.join(field_addr(program, op, fdef.name), default)


# ---------------------------------------------------------------------------
# Control states, frames and edges
# ---------------------------------------------------------------------------


@record(key=True)
class ControlState:
    pos: StmtPos
    fp: FramePointer

    def sort_key(self):
        return (self.pos.sort_key(), self.fp.sort_key())


@record(key=True)
class FunFrame:
    fp: FramePointer
    ret_pos: StmtPos  # the MoveFromRet slot of the calling assign

    def sort_key(self):
        return (0, self.fp.sort_key(), self.ret_pos.sort_key())

    def canonical(self) -> str:
        return (f"fun({self.fp.canonical()}, "
                f"{self.ret_pos.method.sig()}@{self.ret_pos.index})")


NOOP = "noop"
PUSH = "push"
POP = "pop"
SUMMARY = "summary"  # an ε-summary: a balanced path, push to pop


@record(key=True)
class Edge:
    src: ControlState
    kind: str  # noop | push | pop | summary
    frame: object  # FunFrame | HandlerFrame | None
    dst: ControlState

    def sort_key(self):
        fkey = self.frame.sort_key() if self.frame is not None else ()
        return (self.src.sort_key(), self.kind, fkey, self.dst.sort_key())


def state_at(code: Code, fp: FramePointer) -> ControlState:
    """The control state at ``code``'s position in frame ``fp``: built the
    first time an analysis asks for it, then looked up."""
    state = code.states.get(fp)
    if state is None:
        state = code.states[fp] = ControlState(code.pos, fp)
    return state


def edge_of(program: Program, src: ControlState, kind: str, frame,
            dst: ControlState) -> Edge:
    """The edge with these fields: built the first time an analysis of
    ``program`` asks for it, then looked up."""
    key = (src, kind, frame, dst)
    edge = program.edge_table.get(key)
    if edge is None:
        edge = program.edge_table[key] = Edge(src, kind, frame, dst)
    return edge


def _noop(program: Program, state: ControlState, code: Code) -> Edge:
    return edge_of(program, state, NOOP, None, state_at(code, state.fp))


def _summary_chain(program: Program, class_name: str):
    if program.is_declared(class_name):
        return list(program.superclass_chain(class_name))
    return [class_name]


def _callee(program: Program, code: Code, summaries, class_name):
    """What the invoke at ``code`` runs on a receiver of ``class_name``,
    or, for None, on the class its kind fixes (static, super, or a direct
    invoke naming a class): an API summary, the record of the callee's
    first position, or None when nothing resolves. Worked out once per
    summary table and class, then read from the record."""
    key = (summaries, class_name)
    callees = code.callees
    if key in callees:
        return callees[key]
    inv = code.stmt.exp
    if inv.kind == "super":
        resolve_from = code.pos.method.class_name
        lookup_start = program.classes[resolve_from].super_name
    else:
        resolve_from = lookup_start = class_name or inv.class_name
    callee = summaries.match(_summary_chain(program, lookup_start),
                             inv.method_name)
    if callee is None and (inv.kind != "static"
                           or program.is_declared(resolve_from)):
        try:
            mdef = program.resolve_method(resolve_from, inv.method_name,
                                          inv.arg_types, inv.kind)
        except ResolveError:
            pass
        else:
            callee = program.starts[mdef.ref]
    callees[key] = callee
    return callee


def _call(program, code, state, callee, receivers, arg_vals, arg_taints,
          store, taint_store, policy, recorder) -> Edge:
    """The edge of running ``callee`` (see ``_callee``) at ``state``: an
    API summary's no-op edge to the move slot, or the push of a call to a
    method, binding ``receivers`` (None for a static call) and the
    arguments in the callee's frame."""
    fp = state.fp
    if not isinstance(callee, Code):
        ret_val, ret_taint, sink_hits = taint_mod.apply_summary(
            callee, arg_vals, arg_taints)
        ret = reg_addr(program, fp, RET_REG)
        store.join(ret, ret_val)
        taint_store.join(ret, ret_taint)
        recorder.summary_applied(state, callee, sink_hits)
        return _noop(program, state, code.move)
    fp2 = alloc_fp(fp, code.pos, callee.pos.method, policy)
    if receivers is None:
        params = enumerate(zip(arg_vals, arg_taints))
    else:
        this = reg_addr(program, fp2, "this")
        store.join(this, receivers)
        taint_store.join(this, arg_taints[0])
        params = enumerate(zip(arg_vals[1:], arg_taints[1:]))
    for i, (vals, taints) in params:
        param = reg_addr(program, fp2, f"param{i}")
        store.join(param, vals)
        taint_store.join(param, taints)
    return edge_of(program, state, PUSH, FunFrame(fp, code.move.pos),
                   state_at(callee, fp2))


def _step_invoke(program, code, state, inv: Invoke, store, taint_store,
                 summaries, policy, recorder) -> list:
    pos, fp = state.pos, state.fp
    evals = evaluators(program, code)
    arg_vals = [values(fp, store) for values, _taint in evals]
    arg_taints = [taint(fp, taint_store) for _values, taint in evals]
    if any(not v for v in arg_vals):
        log.debug("stuck invoke at %s: unbound argument", pos)
        return []
    args = (arg_vals, arg_taints, store, taint_store, policy, recorder)

    receivers = None
    if inv.kind != "static":
        receivers = [v for v in arg_vals[0] if isinstance(v, ObjectValue)]
        if not receivers:
            log.debug("stuck invoke at %s: no object receiver", pos)
            return []
    if receivers is None or inv.kind == "super" or (
            inv.kind == "direct" and inv.class_name):
        callee = _callee(program, code, summaries, None)
        if callee is None:
            log.debug("stuck invoke at %s: unresolved", pos)
            return []
        if receivers is not None:
            receivers = frozenset(receivers)
        return [_call(program, code, state, callee, receivers, *args)]

    # virtual / interface / unqualified direct: dispatch on the dynamic class
    applied: dict = {}  # summary key -> the first summary with that key
    calls: dict = {}  # callee record -> its receivers
    for ov in sorted(receivers, key=value_sort_key):
        callee = _callee(program, code, summaries, ov.class_name)
        if callee is None:
            log.debug("unresolved %s.%s at %s", ov.class_name,
                      inv.method_name, pos)
        elif isinstance(callee, Code):
            calls.setdefault(callee, []).append(ov)
        else:
            applied.setdefault(callee.key(), callee)
    edges = [_call(program, code, state, rec, None, *args)
             for _key, rec in sorted(applied.items())]
    for callee in sorted(calls, key=lambda c: c.pos.method.sort_key()):
        edges.append(_call(program, code, state, callee,
                           frozenset(calls[callee]), *args))
    return edges


ONLY_TRUE = frozenset({TRUE})
ONLY_FALSE = frozenset({FALSE})


def step_independent(program: Program, state: ControlState, store: Store,
                     taint_store: taint_mod.TaintStore,
                     summaries: taint_mod.SummaryTable,
                     policy: AllocPolicy, recorder) -> list:
    """Edges from ``state`` for a statement whose behavior ignores the
    stack; an empty list means the path is stuck. Return, throw and
    pop-handler need a top-frame hypothesis (see step_dependent).
    ``recorder.summary_applied`` is called for each API summary applied.
    """
    code = program.code[state.pos]
    fp = state.fp
    match code.stmt:
        case None:
            return []
        case Label(_) | Nop() | Line(_):
            return [_noop(program, state, code.next)]
        case Goto(_):
            return [_noop(program, state, code.target)]
        case If():
            [(values, _taint)] = evaluators(program, code)
            vals = values(fp, store)
            if not vals:
                return []
            if vals == ONLY_TRUE:
                return [_noop(program, state, code.target)]
            if vals == ONLY_FALSE:
                return [_noop(program, state, code.next)]
            return [_noop(program, state, code.next),
                    _noop(program, state, code.target)]
        case AssignAtomic(name, _):
            [(values, taint)] = evaluators(program, code)
            vals = values(fp, store)
            if not vals:
                return []
            addr = reg_addr(program, fp, name)
            store.join(addr, vals)
            taint_store.join(addr, taint(fp, taint_store))
            return [_noop(program, state, code.next)]
        case AssignComplex(name, New(class_name)):
            op = alloc_op(code.pos, fp, policy)
            store.join(reg_addr(program, fp, name),
                       frozenset({ObjectValue(op, class_name)}))
            init_object(program, store, op, class_name)
            return [_noop(program, state, code.next)]
        case AssignComplex(_, Invoke() as inv):
            return _step_invoke(program, code, state, inv, store,
                                taint_store, summaries, policy, recorder)
        case MoveFromRet(name):
            ret = reg_addr(program, fp, RET_REG)
            vals = store.lookup(ret)
            if not vals:
                return []
            addr = reg_addr(program, fp, name)
            store.join(addr, vals)
            taint_store.join(addr, taint_store.lookup(ret))
            return [_noop(program, state, code.next)]
        case FieldPut(_, field_name, _):
            [(obj, _obj_taint), (values, taint)] = evaluators(program, code)
            receivers = [v for v in obj(fp, store)
                         if isinstance(v, ObjectValue)]
            vals = values(fp, store)
            if not receivers or not vals:
                return []
            taints = taint(fp, taint_store)
            for ov in sorted(receivers, key=value_sort_key):
                addr = field_addr(program, ov.op, field_name)
                store.join(addr, vals)
                taint_store.join(addr, taints)
            return [_noop(program, state, code.next)]
        case FieldGet(name, _, field_name):
            [(obj, _taint)] = evaluators(program, code)
            vals = field_values(program, obj(fp, store), store, field_name)
            if not vals:
                return []
            addr = reg_addr(program, fp, name)
            store.join(addr, vals)
            taint_store.join(addr, field_taint(program, obj(fp, store),
                                               taint_store, field_name))
            return [_noop(program, state, code.next)]
        case PushHandler():
            return [edge_of(program, state, PUSH, code.frame,
                            state_at(code.next, fp))]
    raise TypeError(f"unhandled statement {code.stmt!r}")


def is_stack_dependent(program: Program, pos: StmtPos) -> bool:
    return program.code[pos].dependent


def step_dependent(program: Program, state: ControlState, top, store: Store,
                   taint_store: taint_mod.TaintStore,
                   policy: AllocPolicy) -> list:
    """Edges from ``state``, at a return, throw or pop-handler, when ``top``
    is on top of the stack: a frame, or None for an empty stack.

    Under an empty stack a return joins ``ret`` and an uncaught throw joins
    ``exn`` in the state's own frame; neither has a successor.
    """
    code = program.code[state.pos]
    fp = state.fp
    match code.stmt:
        case Return():
            [(values, taint)] = evaluators(program, code)
            vals = values(fp, store)
            if not vals:
                return []
            taints = taint(fp, taint_store)
            if top is None:
                ret = reg_addr(program, fp, RET_REG)
                store.join(ret, vals)
                taint_store.join(ret, taints)
                return []
            if isinstance(top, HandlerFrame):
                # handler-skipping: pop until a call frame is on top
                return [edge_of(program, state, POP, top, state)]
            ret = reg_addr(program, top.fp, RET_REG)
            store.join(ret, vals)
            taint_store.join(ret, taints)
            return [edge_of(program, state, POP, top,
                            state_at(program.code[top.ret_pos], top.fp))]
        case Throw():
            [(values, taint)] = evaluators(program, code)
            thrown = [v for v in values(fp, store)
                      if isinstance(v, ObjectValue)]
            if not thrown:
                return []
            taints = taint(fp, taint_store)
            exn = reg_addr(program, fp, EXN_REG)
            if top is None:
                store.join(exn, frozenset(thrown))
                taint_store.join(exn, taints)
                return []
            if isinstance(top, FunFrame):
                return [edge_of(program, state, POP, top, state)]
            catchable = [v for v in thrown
                         if program.is_subclass(v.class_name, top.class_name)]
            edges = []
            if catchable:
                store.join(exn, frozenset(catchable))
                taint_store.join(exn, taints)
                handler = program.labels[(top.owner, top.label)]
                edges.append(edge_of(program, state, POP, top,
                                     state_at(handler, fp)))
            if len(catchable) < len(thrown):
                edges.append(edge_of(program, state, POP, top, state))
            return edges
        case PopHandler():
            if not isinstance(top, HandlerFrame):
                # the validator pairs each pop-handler with its push
                what = top.canonical() if top is not None else "an empty stack"
                raise AssertionError(
                    f"pop-handler over {what} at "
                    f"{state.pos.method.sig()}@{state.pos.index}")
            return [edge_of(program, state, POP, top,
                            state_at(code.next, fp))]
    raise TypeError(f"not a stack-dependent statement: {code.stmt!r}")


# ---------------------------------------------------------------------------
# Ambient entry bindings
# ---------------------------------------------------------------------------


def ambient_object(class_name: str) -> ObjectValue:
    return ObjectValue(ObjectPointer(AmbientSite(class_name)), class_name)


def seed_entry_bindings(program: Program, entry: MethodRef, store: Store,
                        taint_store: taint_mod.TaintStore) -> FramePointer:
    """Bind the entry receiver and parameters to ambient framework values.

    Every entry point of a class shares one ambient receiver instance, which
    is what lets saturated field state flow between entry points. Ambient
    values carry no taint.
    """
    fp0 = frame_pointer_zero(entry)
    mdef = program.methods[entry]
    recv = ambient_object(entry.class_name)
    store.join(reg_addr(program, fp0, "this"), frozenset({recv}))
    init_object(program, store, recv.op, entry.class_name)
    for i, ptype in enumerate(mdef.param_types):
        addr = reg_addr(program, fp0, f"param{i}")
        if ptype in ("int", "byte", "char"):
            store.join(addr, frozenset({ANY_INT}))
        elif ptype == "boolean":
            store.join(addr, BOTH_BOOLS)
        else:
            obj = ambient_object(ptype)
            store.join(addr, frozenset({obj}))
            init_object(program, store, obj.op, ptype)
    return fp0
