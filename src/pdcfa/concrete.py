"""Deterministic concrete interpreter, used as a ground-truth oracle.

Runs the same IR with exact arithmetic, fresh addresses, exact dispatch, and
strong updates, under a fuel bound. The trace of visited states supports
soundness checks: every concrete state must be covered by some abstract
control state, and every concrete binding by the abstraction of its address.

API summaries are consulted exactly the way the abstract machine consults
them; their declared return abstractions become concrete stub values.
"""

from __future__ import annotations

from . import taint as taint_mod
from .ir import (
    AssignAtomic,
    AssignComplex,
    AtomicOp,
    BoolLit,
    FieldGet,
    FieldPut,
    Goto,
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
    Return,
    StmtPos,
    This,
    Throw,
    VoidLit,
    record,
)
from .machine import (
    ANY_INT,
    ANY_STRING,
    AbstractBool,
    AbstractInt,
    AbstractString,
    COMPARE_OPS,
    EXACT_OPS,
    LOGIC_OPS,
    AllocPolicy,
    AmbientSite,
    FieldAddr,
    FramePointer,
    NULL,
    ObjectPointer,
    ObjectValue,
    RegAddr,
    VOID,
)

COMPLETED = "completed"
OUT_OF_FUEL = "out-of-fuel"
UNCAUGHT = "uncaught-exception"


class ConcreteError(Exception):
    """Ill-typed primitive application or other oracle-program bug."""


# ---------------------------------------------------------------------------
# Concrete values and addresses
# ---------------------------------------------------------------------------


@record
class CInt:
    value: int


@record
class CBool:
    value: bool


@record
class CStr:
    value: str


@record
class CNull:
    pass


@record
class CVoid:
    pass


@record
class CObj:
    oid: int
    class_name: str


@record
class CRegAddr:
    fpid: int
    reg: str


@record
class CFieldAddr:
    oid: int
    field_name: str


@record
class CFun:
    fpid: int
    ret_pos: StmtPos


@record
class CHandle:
    class_name: str
    label: str
    owner: MethodRef


@record
class ConcreteState:
    pos: StmtPos
    fpid: int
    store: dict
    taint: dict
    kont: tuple


@record
class ConcreteSummaryApp:
    pos: StmtPos
    fpid: int
    summary: taint_mod.ApiSummary
    sink_hits: frozenset
    line: int


@record(mutable=True)
class ConcreteRun:
    outcome: str
    states: list
    steps: int
    fp_info: dict  # fpid -> (MethodRef, call-site history tuple)
    heap_info: dict  # oid -> (site, allocating history tuple)
    summary_apps: list = None  # a fresh list when not given

    def __post_init__(self):
        if self.summary_apps is None:
            self.summary_apps = []

    @property
    def sink_hits(self):
        return [a for a in self.summary_apps if a.sink_hits]

    @property
    def source_apps(self):
        return [a for a in self.summary_apps if a.summary.role == "source"]

    def final_store(self) -> dict:
        return self.states[-1].store


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


class _Machine:
    def __init__(self, program: Program, summaries: taint_mod.SummaryTable):
        self.program = program
        self.summaries = summaries
        self.store: dict = {}
        self.taint: dict = {}
        self.fp_info: dict = {}
        self.heap_info: dict = {}
        self.ambient_objs: dict = {}
        self.next_fp = 0
        self.next_oid = 0
        self.summary_apps: list = []

    def new_frame(self, method: MethodRef, history: tuple) -> int:
        fpid = self.next_fp
        self.next_fp += 1
        self.fp_info[fpid] = (method, history)
        return fpid

    def new_object(self, class_name: str, site, history: tuple) -> CObj:
        oid = self.next_oid
        self.next_oid += 1
        self.heap_info[oid] = (site, history)
        obj = CObj(oid, class_name)
        self._init_fields(obj)
        return obj

    def ambient(self, class_name: str) -> CObj:
        if class_name not in self.ambient_objs:
            self.ambient_objs[class_name] = self.new_object(
                class_name, AmbientSite(class_name), ())
        return self.ambient_objs[class_name]

    def _init_fields(self, obj: CObj) -> None:
        for cls in self.program.superclass_chain(obj.class_name):
            cdef = self.program.classes.get(cls)
            if cdef is None:
                continue
            for fdef in cdef.fields:
                addr = CFieldAddr(obj.oid, fdef.name)
                if fdef.field_type == "boolean":
                    self.store[addr] = CBool(False)
                elif fdef.field_type in ("int", "byte", "char"):
                    self.store[addr] = CInt(0)
                else:
                    self.store[addr] = CNull()
                self.taint[addr] = frozenset()

    # -- evaluation -------------------------------------------------------

    def read(self, addr):
        if addr not in self.store:
            raise ConcreteError(f"unbound address {addr}")
        return self.store[addr]

    def write(self, addr, value, taints=frozenset()):
        self.store[addr] = value
        self.taint[addr] = frozenset(taints)

    def eval(self, ae, fpid: int):
        match ae:
            case This():
                return self.read(CRegAddr(fpid, "this"))
            case Name(reg):
                return self.read(CRegAddr(fpid, reg))
            case IntLit(n):
                return CInt(n)
            case BoolLit(v):
                return CBool(v)
            case NullLit():
                return CNull()
            case VoidLit():
                return CVoid()
            case AtomicOp(op, args):
                vals = [self.eval(a, fpid) for a in args]
                return _apply_op(op, vals)
            case InstanceOf(inner, cls):
                v = self.eval(inner, fpid)
                if isinstance(v, CObj):
                    return CBool(self.program.is_subclass(v.class_name, cls))
                if isinstance(v, CNull):
                    return CBool(False)
                if isinstance(v, CStr):
                    return CBool(cls in ("java/lang/Object", "java/lang/String"))
                raise ConcreteError(f"instance-of on {v!r}")
        raise ConcreteError(f"not an atomic expression: {ae!r}")

    def eval_taint(self, ae, fpid: int) -> frozenset:
        match ae:
            case This():
                return self.taint.get(CRegAddr(fpid, "this"), frozenset())
            case Name(reg):
                return self.taint.get(CRegAddr(fpid, reg), frozenset())
            case AtomicOp(_, args):
                out: frozenset = frozenset()
                for a in args:
                    out |= self.eval_taint(a, fpid)
                return out
            case InstanceOf(inner, _):
                return self.eval_taint(inner, fpid)
            case _:
                return frozenset()


def _apply_op(op: str, vals: list):
    if len(vals) == 1:
        a = vals[0]
        if op == "neg" and isinstance(a, CInt):
            return CInt(-a.value)
        if op == "not" and isinstance(a, CBool):
            return CBool(not a.value)
        raise ConcreteError(f"ill-typed {op} on {a!r}")
    a, b = vals
    if op in ("eq", "ne"):
        r = _concrete_eq(a, b)
        return CBool(r if op == "eq" else not r)
    fn = EXACT_OPS.get(op)
    if fn is None:
        raise ConcreteError(f"unknown operator {op}")
    if op in LOGIC_OPS and isinstance(a, CBool) and isinstance(b, CBool):
        return CBool(fn(a.value, b.value))
    if not (isinstance(a, CInt) and isinstance(b, CInt)):
        raise ConcreteError(f"ill-typed {op} on {a!r}, {b!r}")
    if op in ("div", "rem") and b.value == 0:
        raise ConcreteError("division by zero")
    return (CBool if op in COMPARE_OPS else CInt)(fn(a.value, b.value))


def _concrete_eq(a, b) -> bool:
    if isinstance(a, CObj) and isinstance(b, CObj):
        return a.oid == b.oid
    if type(a) is type(b):
        return a == b
    return False


def run_concrete(program: Program, entry: MethodRef, args=None,
                 fuel: int = 10_000,
                 summaries: taint_mod.SummaryTable | None = None) -> ConcreteRun:
    """Execute from an entry method and return the visited-state trace.

    ``args`` binds the entry's parameters (ambient stub values when None);
    the receiver is always the per-class ambient instance. Raises
    ConcreteError on ill-typed primitive applications.
    """
    if summaries is None:
        summaries = taint_mod.SummaryTable([])
    if entry not in program.methods:
        raise ConcreteError(f"unknown entry {entry.sig()}")
    m = _Machine(program, summaries)
    mdef = program.methods[entry]
    fpid = m.new_frame(entry, ())
    m.write(CRegAddr(fpid, "this"), m.ambient(entry.class_name))
    params = mdef.param_types
    if args is None:
        args = []
        for t in params:
            if t in ("int", "byte", "char"):
                args.append(CInt(0))
            elif t == "boolean":
                args.append(CBool(False))
            else:
                args.append(m.ambient(t))
    if len(args) != len(params):
        raise ConcreteError("argument arity mismatch")
    for i, v in enumerate(args):
        m.write(CRegAddr(fpid, f"param{i}"), v)

    pos = StmtPos(entry, 0)
    kont: list = []
    states = [ConcreteState(pos, fpid, dict(m.store), dict(m.taint),
                            tuple(kont))]
    steps = 0
    outcome = OUT_OF_FUEL

    while steps < fuel:
        code = program.code[pos]
        st = code.stmt
        if st is None:
            raise ConcreteError(f"fell off the end of {pos.method.sig()}")
        steps += 1
        nxt = code.next.pos
        finished = False
        match st:
            case Label(_) | Nop() | Line(_):
                pos = nxt
            case Goto():
                pos = code.target.pos
            case If(cond, _):
                v = m.eval(cond, fpid)
                if not isinstance(v, CBool):
                    raise ConcreteError(f"non-boolean branch condition {v!r}")
                pos = code.target.pos if v.value else nxt
            case AssignAtomic(name, exp):
                m.write(CRegAddr(fpid, name), m.eval(exp, fpid),
                        m.eval_taint(exp, fpid))
                pos = nxt
            case AssignComplex(name, New(class_name)):
                obj = m.new_object(class_name, StmtPos(pos.method, pos.index),
                                   m.fp_info[fpid][1])
                m.write(CRegAddr(fpid, name), obj)
                pos = nxt
            case AssignComplex(_, Invoke() as inv):
                pos, fpid = _do_invoke(program, m, pos, fpid, kont, inv)
            case MoveFromRet(name):
                m.write(CRegAddr(fpid, name), m.read(CRegAddr(fpid, "ret")),
                        m.taint.get(CRegAddr(fpid, "ret"), frozenset()))
                pos = nxt
            case FieldPut(obj_exp, field_name, value):
                recv = m.eval(obj_exp, fpid)
                if not isinstance(recv, CObj):
                    raise ConcreteError(f"field-put on {recv!r}")
                m.write(CFieldAddr(recv.oid, field_name),
                        m.eval(value, fpid), m.eval_taint(value, fpid))
                pos = nxt
            case FieldGet(name, obj_exp, field_name):
                recv = m.eval(obj_exp, fpid)
                if not isinstance(recv, CObj):
                    raise ConcreteError(f"field-get on {recv!r}")
                addr = CFieldAddr(recv.oid, field_name)
                m.write(CRegAddr(fpid, name), m.read(addr),
                        m.taint.get(addr, frozenset()))
                pos = nxt
            case PushHandler(class_name, label):
                kont.insert(0, CHandle(class_name, label, pos.method))
                pos = nxt
            case PopHandler():
                if not kont or not isinstance(kont[0], CHandle):
                    raise ConcreteError("pop-handler over a non-handler frame")
                kont.pop(0)
                pos = nxt
            case Return(exp):
                v = m.eval(exp, fpid)
                t = m.eval_taint(exp, fpid)
                while kont and isinstance(kont[0], CHandle):
                    kont.pop(0)
                if not kont:
                    m.write(CRegAddr(fpid, "ret"), v, t)
                    outcome = COMPLETED
                    finished = True
                else:
                    frame = kont.pop(0)
                    m.write(CRegAddr(frame.fpid, "ret"), v, t)
                    pos, fpid = frame.ret_pos, frame.fpid
            case Throw(exp):
                v = m.eval(exp, fpid)
                if not isinstance(v, CObj):
                    raise ConcreteError(f"throw of non-object {v!r}")
                t = m.eval_taint(exp, fpid)
                caught = False
                while kont:
                    frame = kont.pop(0)
                    if isinstance(frame, CHandle) and program.is_subclass(
                            v.class_name, frame.class_name):
                        m.write(CRegAddr(fpid, "exn"), v, t)
                        pos = program.labels[(frame.owner,
                                              frame.label)].pos
                        caught = True
                        break
                if not caught:
                    m.write(CRegAddr(fpid, "exn"), v, t)
                    outcome = UNCAUGHT
                    finished = True
            case _:
                raise ConcreteError(f"unhandled statement {st!r}")
        states.append(ConcreteState(pos, fpid, dict(m.store), dict(m.taint),
                                    tuple(kont)))
        if finished:
            break

    return ConcreteRun(outcome if steps < fuel or outcome != OUT_OF_FUEL
                       else OUT_OF_FUEL,
                       states, steps, m.fp_info, m.heap_info, m.summary_apps)


def _do_invoke(program: Program, m: _Machine, pos: StmtPos, fpid: int,
               kont: list, inv: Invoke):
    arg_vals = [m.eval(a, fpid) for a in inv.args]
    arg_taints = [m.eval_taint(a, fpid) for a in inv.args]
    move_pos = StmtPos(pos.method, pos.index, at_move=True)

    if inv.kind == "static":
        chain = (list(program.superclass_chain(inv.class_name))
                 if program.is_declared(inv.class_name) else [inv.class_name])
        rec = m.summaries.match(chain, inv.method_name)
        if rec is not None:
            _apply_concrete_summary(program, m, pos, fpid, rec,
                                    arg_vals, arg_taints)
            return move_pos, fpid
        mdef = program.resolve_method(inv.class_name, inv.method_name,
                                      inv.arg_types, "static")
        return _enter(program, m, pos, fpid, kont, mdef, None,
                      arg_vals, arg_taints, move_pos)

    recv = arg_vals[0]
    if not isinstance(recv, CObj):
        raise ConcreteError(f"invoke on non-object receiver {recv!r}")
    if inv.kind == "super":
        start = program.classes[pos.method.class_name].super_name
    elif inv.kind == "direct" and inv.class_name:
        start = inv.class_name
    else:
        start = recv.class_name
    rec = m.summaries.match(program.superclass_chain(start), inv.method_name)
    if rec is not None:
        _apply_concrete_summary(program, m, pos, fpid, rec,
                                arg_vals, arg_taints)
        return move_pos, fpid
    kind = "super" if inv.kind == "super" else inv.kind
    mdef = program.resolve_method(start, inv.method_name, inv.arg_types,
                                  "direct" if kind == "super" else kind)
    return _enter(program, m, pos, fpid, kont, mdef, recv,
                  arg_vals, arg_taints, move_pos)


def _enter(program, m: _Machine, pos, fpid, kont, mdef, recv,
           arg_vals, arg_taints, move_pos):
    site = StmtPos(pos.method, pos.index)
    history = m.fp_info[fpid][1] + (site,)
    fp2 = m.new_frame(mdef.ref, history)
    if recv is None:
        for i, v in enumerate(arg_vals):
            m.write(CRegAddr(fp2, f"param{i}"), v, arg_taints[i])
    else:
        m.write(CRegAddr(fp2, "this"), recv, arg_taints[0])
        for i, v in enumerate(arg_vals[1:]):
            m.write(CRegAddr(fp2, f"param{i}"), v, arg_taints[i + 1])
    kont.insert(0, CFun(fpid, move_pos))
    return StmtPos(mdef.ref, 0), fp2


# a summary's return abstraction -> the value its call returns; an
# any-string value names its summary, so it is built per call
_STUBS = {"any-int": CInt(0), "null": CNull(), "void": CVoid()}


def _apply_concrete_summary(program, m: _Machine, pos, fpid, rec,
                            arg_vals, arg_taints):
    all_taint = frozenset().union(*arg_taints) if arg_taints else frozenset()
    ret_taint: frozenset = frozenset()
    sink_hits: frozenset = frozenset()
    if rec.role == "source":
        ret_taint = frozenset(rec.source_categories)
    elif rec.role == "propagate":
        ret_taint = all_taint
    elif rec.role == "sink":
        flowing = all_taint
        if rec.sink_categories is not None:
            flowing = flowing & frozenset(rec.sink_categories)
        sink_hits = frozenset((t, rec.sink_kind) for t in flowing)
    ret = rec.return_abstraction
    stub = CStr(f"<api:{rec.class_pattern}.{rec.method_name}>") \
        if ret == "any-string" else _STUBS[ret]
    m.write(CRegAddr(fpid, "ret"), stub, ret_taint)
    m.summary_apps.append(ConcreteSummaryApp(
        pos, fpid, rec, sink_hits, program.line_of(pos)))


# ---------------------------------------------------------------------------
# Abstraction maps for soundness checking
# ---------------------------------------------------------------------------


def abstract_fp(run: ConcreteRun, fpid: int, policy: AllocPolicy) -> FramePointer:
    method, history = run.fp_info[fpid]
    ctx = history[-policy.k:] if policy.k > 0 else ()
    return FramePointer(method, tuple(ctx))


def abstract_object_pointer(run: ConcreteRun, oid: int,
                            policy: AllocPolicy) -> ObjectPointer:
    site, history = run.heap_info[oid]
    ctx = history[-policy.k:] if policy.heap_context and policy.k > 0 else ()
    return ObjectPointer(site, tuple(ctx))


def abstract_addr(run: ConcreteRun, addr, policy: AllocPolicy):
    if isinstance(addr, CRegAddr):
        return RegAddr(abstract_fp(run, addr.fpid, policy), addr.reg)
    return FieldAddr(abstract_object_pointer(run, addr.oid, policy),
                     addr.field_name)


def abstract_value(run: ConcreteRun, v, policy: AllocPolicy):
    match v:
        case CInt(n):
            return AbstractInt(n)
        case CBool(b):
            return AbstractBool(b)
        case CStr(s):
            return AbstractString(s)
        case CNull():
            return NULL
        case CVoid():
            return VOID
        case CObj(oid, class_name):
            return ObjectValue(abstract_object_pointer(run, oid, policy),
                               class_name)
    raise TypeError(f"not a concrete value: {v!r}")


def value_covered(abstract_vals: frozenset, run: ConcreteRun, v,
                  policy: AllocPolicy) -> bool:
    """True when the value set contains the abstraction of v (exactly, or
    via the AnyInt/AnyString lattice points)."""
    av = abstract_value(run, v, policy)
    if av in abstract_vals:
        return True
    if isinstance(av, AbstractInt) and ANY_INT in abstract_vals:
        return True
    if isinstance(av, AbstractString) and ANY_STRING in abstract_vals:
        return True
    return False
