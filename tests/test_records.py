"""The record contract: every record class in ``pdcfa`` (``ir.record``)
keeps the fields, ``__match_args__``, ``repr``, equality, hashing and
frozenness it had as a ``dataclasses`` class."""

import importlib
import sys

import pytest

from pdcfa.ir import SrcPos, Stmt

MODULES = ("ir", "machine", "taint", "report", "eps", "permissions", "cli",
           "reach", "concrete")

# module.class -> (__match_args__, repr of the class built from 1, 2, ...)
RECORDS = {
    "ir.SrcPos": (["line", "col"], "SrcPos(line=1, col=2)"),
    "ir.This": ([], "This()"),
    "ir.BoolLit": (["value"], "BoolLit(value=1)"),
    "ir.NullLit": ([], "NullLit()"),
    "ir.VoidLit": ([], "VoidLit()"),
    "ir.Name": (["reg"], "Name(reg=1)"),
    "ir.IntLit": (["value"], "IntLit(value=1)"),
    "ir.AtomicOp": (["op", "args"], "AtomicOp(op=1, args=2)"),
    "ir.InstanceOf": (["exp", "class_name"],
        "InstanceOf(exp=1, class_name=2)"),
    "ir.New": (["class_name"], "New(class_name=1)"),
    "ir.Invoke": (["kind", "method_name", "class_name", "args", "arg_types"],
        "Invoke(kind=1, method_name=2, class_name=3, args=4, arg_types=5)"),
    "ir.Stmt": ([], "Stmt(pos=SrcPos(line=0, col=0))"),
    "ir.Label": (["name"], "Label(pos=SrcPos(line=0, col=0), name=1)"),
    "ir.Nop": ([], "Nop(pos=SrcPos(line=0, col=0))"),
    "ir.Line": (["number"], "Line(pos=SrcPos(line=0, col=0), number=1)"),
    "ir.Goto": (["label"], "Goto(pos=SrcPos(line=0, col=0), label=1)"),
    "ir.If": (["cond", "label"],
        "If(pos=SrcPos(line=0, col=0), cond=1, label=2)"),
    "ir.AssignAtomic": (["name", "exp"],
        "AssignAtomic(pos=SrcPos(line=0, col=0), name=1, exp=2)"),
    "ir.AssignComplex": (["name", "exp"],
        "AssignComplex(pos=SrcPos(line=0, col=0), name=1, exp=2)"),
    "ir.FieldPut": (["obj", "field_name", "value"],
        "FieldPut(pos=SrcPos(line=0, col=0), obj=1, field_name=2, value=3)"),
    "ir.FieldGet": (["name", "obj", "field_name"],
        "FieldGet(pos=SrcPos(line=0, col=0), name=1, obj=2, field_name=3)"),
    "ir.PushHandler": (["class_name", "label"],
        "PushHandler(pos=SrcPos(line=0, col=0), class_name=1, label=2)"),
    "ir.PopHandler": ([], "PopHandler(pos=SrcPos(line=0, col=0))"),
    "ir.Throw": (["exp"], "Throw(pos=SrcPos(line=0, col=0), exp=1)"),
    "ir.Return": (["exp"], "Return(pos=SrcPos(line=0, col=0), exp=1)"),
    "ir.MoveFromRet": (["name"],
        "MoveFromRet(pos=SrcPos(line=0, col=0), name=1)"),
    "ir.MethodRef": (["class_name", "method_name", "param_types"],
        "MethodRef(class_name=1, method_name=2, param_types=3)"),
    "ir.FieldDef": (["attributes", "name", "field_type"],
        "FieldDef(attributes=1, name=2, field_type=3, "
        "pos=SrcPos(line=0, col=0))"),
    "ir.MethodDef": ([
        "attributes", "name", "param_types", "return_type", "throws", "limit",
        "body", "ref"],
        "MethodDef(attributes=1, name=2, param_types=3, return_type=4, "
        "throws=5, limit=6, body=7, ref=8, pos=SrcPos(line=0, col=0))"),
    "ir.ClassDef": (["attributes", "name", "super_name", "fields", "methods"],
        "ClassDef(attributes=1, name=2, super_name=3, fields=4, methods=5, "
        "pos=SrcPos(line=0, col=0))"),
    "ir.StmtPos": (["method", "index", "at_move"],
        "StmtPos(method=1, index=2, at_move=3)"),
    "ir.HandlerFrame": (["class_name", "label", "owner"],
        "HandlerFrame(class_name=1, label=2, owner=3)"),
    "machine.FramePointer": (["method", "context"],
        "FramePointer(method=1, context=2)"),
    "machine.AmbientSite": (["class_name"], "AmbientSite(class_name=1)"),
    "machine.ObjectPointer": (["site", "context"],
        "ObjectPointer(site=1, context=2)"),
    "machine.RegAddr": (["fp", "reg"], "RegAddr(fp=1, reg=2)"),
    "machine.FieldAddr": (["op", "field_name"],
        "FieldAddr(op=1, field_name=2)"),
    "machine.ObjectValue": (["op", "class_name"],
        "ObjectValue(op=1, class_name=2)"),
    "machine.AbstractInt": (["value"], "AbstractInt(value=1)"),
    "machine.AbstractString": (["value"], "AbstractString(value=1)"),
    "machine.AbstractBool": (["value"], "AbstractBool(value=1)"),
    "machine.NullVal": ([], "NullVal()"),
    "machine.VoidVal": ([], "VoidVal()"),
    "machine.AllocPolicy": (["k", "heap_context"],
        "AllocPolicy(k=1, heap_context=2)"),
    "machine.ControlState": (["pos", "fp"], "ControlState(pos=1, fp=2)"),
    "machine.FunFrame": (["fp", "ret_pos"], "FunFrame(fp=1, ret_pos=2)"),
    "machine.Edge": (["src", "kind", "frame", "dst"],
        "Edge(src=1, kind=2, frame=3, dst=4)"),
    "taint.ApiSummary": ([
        "class_pattern", "method_name", "role", "source_categories",
        "sink_kind", "sink_categories", "return_abstraction", "permissions"],
        "ApiSummary(class_pattern=1, method_name=2, role=3, "
        "source_categories=4, sink_kind=5, sink_categories=6, "
        "return_abstraction=7, permissions=8)"),
    "taint.TriggerContext": (["unit", "entry_point"],
        "TriggerContext(unit=1, entry_point=2)"),
    "taint.TaintFinding": ([
        "category", "source_state", "source_line", "sink_state", "sink_kind",
        "sink_line", "trigger", "sink_permissions", "segments"],
        "TaintFinding(category=1, source_state=2, source_line=3, "
        "sink_state=4, sink_kind=5, sink_line=6, trigger=7, "
        "sink_permissions=8, segments=9)"),
    "report.PredicateAtom": (["name", "args"],
        "PredicateAtom(name=1, args=2)"),
    "report.Predicate": (["atoms"], "Predicate(atoms=1)"),
    "eps.EntryPoint": (["method_ref", "category", "registration_source"],
        "EntryPoint(method_ref=1, category=2, registration_source=3)"),
    "eps.Unit": (["name", "kind", "entry_points"],
        "Unit(name=1, kind=2, entry_points=3)"),
    "eps.SaturationTrace": ([
        "fixpoint", "triggers", "global_rounds", "complete", "limit_reason"],
        "SaturationTrace(fixpoint=1, triggers=2, global_rounds=3, "
        "complete=4, limit_reason=5)"),
    "permissions.PermissionReport": ([
        "requested", "reached", "over_privileged", "missing", "evidence",
        "lower_bound"],
        "PermissionReport(requested=1, reached=2, over_privileged=3, "
        "missing=4, evidence=5, lower_bound=6)"),
    "cli.AppBundle": ([
        "manifest", "program", "summaries", "predicates", "input_digests"],
        "AppBundle(manifest=1, program=2, summaries=3, predicates=4, "
        "input_digests=5)"),
    "reach.SummaryApplication": ([
        "state", "line", "summary_key", "sink_hits", "permissions",
        "source_categories"],
        "SummaryApplication(state=1, line=2, summary_key=3, sink_hits=4, "
        "permissions=5, source_categories=6)"),
    "reach.AnalysisConfig": ([
        "mode", "k", "heap_context", "max_states", "max_seconds"],
        "AnalysisConfig(mode='finite', k=2, heap_context=True, max_states=4, "
        "max_seconds=5.0)"),
    "reach.AnalysisResult": ([
        "mode", "dsg", "final_store", "final_taint", "visit_counts",
        "complete", "limit_reason", "applications", "masks"],
        "AnalysisResult(mode=1, dsg=2, final_store=3, final_taint=4, "
        "visit_counts=5, complete=6, limit_reason=7, applications=8, "
        "masks=9)"),
    "reach.HandlerRecord": (["frame", "region"],
        "HandlerRecord(frame=1, region=2)"),
    "concrete.CInt": (["value"], "CInt(value=1)"),
    "concrete.CBool": (["value"], "CBool(value=1)"),
    "concrete.CStr": (["value"], "CStr(value=1)"),
    "concrete.CNull": ([], "CNull()"),
    "concrete.CVoid": ([], "CVoid()"),
    "concrete.CObj": (["oid", "class_name"], "CObj(oid=1, class_name=2)"),
    "concrete.CRegAddr": (["fpid", "reg"], "CRegAddr(fpid=1, reg=2)"),
    "concrete.CFieldAddr": (["oid", "field_name"],
        "CFieldAddr(oid=1, field_name=2)"),
    "concrete.CFun": (["fpid", "ret_pos"], "CFun(fpid=1, ret_pos=2)"),
    "concrete.CHandle": (["class_name", "label", "owner"],
        "CHandle(class_name=1, label=2, owner=3)"),
    "concrete.ConcreteState": (["pos", "fpid", "store", "taint", "kont"],
        "ConcreteState(pos=1, fpid=2, store=3, taint=4, kont=5)"),
    "concrete.ConcreteSummaryApp": ([
        "pos", "fpid", "summary", "sink_hits", "line"],
        "ConcreteSummaryApp(pos=1, fpid=2, summary=3, sink_hits=4, line=5)"),
    "concrete.ConcreteRun": ([
        "outcome", "states", "steps", "fp_info", "heap_info", "summary_apps"],
        "ConcreteRun(outcome=1, states=2, steps=3, fp_info=4, heap_info=5, "
        "summary_apps=6)"),
}

MUTABLE = {"eps.SaturationTrace", "cli.AppBundle", "reach.AnalysisResult",
           "concrete.ConcreteRun"}
KEYS = {"ir.MethodRef", "ir.StmtPos", "ir.HandlerFrame",
        "machine.FramePointer", "machine.AmbientSite", "machine.ObjectPointer",
        "machine.RegAddr", "machine.FieldAddr", "machine.ObjectValue",
        "machine.ControlState", "machine.FunFrame", "machine.Edge"}


def _records() -> dict:
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"pdcfa.{name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and "__record_fields__" in vars(cls) \
                    and cls.__module__ == module.__name__:
                found[f"{name}.{cls.__name__}"] = cls
    return found


def _sample(name, cls):
    if name == "reach.AnalysisConfig":  # it checks its fields
        return cls("finite", 2, True, 4, 5.0)
    return cls(*range(1, len(cls.__match_args__) + 1))


def test_every_record_class_is_pinned():
    assert sorted(_records()) == sorted(RECORDS)
    assert MUTABLE | KEYS <= set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_match_args_and_repr_are_the_dataclass_ones(name):
    cls = _records()[name]
    match_args, text = RECORDS[name]
    assert list(cls.__match_args__) == match_args
    assert repr(_sample(name, cls)) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_hashing_and_frozenness(name):
    cls = _records()[name]
    x, y = _sample(name, cls), _sample(name, cls)
    assert x == y and not x != y and x is not y
    assert x != object()
    field = cls.__match_args__[0] if cls.__match_args__ else None
    if name in MUTABLE:
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, field, "changed")
        assert getattr(x, field) == "changed" and x != y
        return
    values = tuple(getattr(x, n) for n in cls.__match_args__)
    if name in KEYS:
        assert not hasattr(x, "__dict__")
        assert hash(x) == hash(values[0] if len(values) == 1 else values)
        object.__setattr__(x, "_sort_key", ("cached",))
        assert x == y and hash(x) == hash(y)
    else:
        assert hash(x) == hash(y) == hash(values)
    # a field, the statement position, and a name that is no field (for
    # which a frozen slotted dataclass raised TypeError on Python 3.11)
    for f in {field, "pos" if issubclass(cls, Stmt) else None,
              "extra"} - {None}:
        with pytest.raises(AttributeError):
            setattr(x, f, "changed")
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert x == y


def test_the_key_classes_are_those_with_a_hash_slot():
    assert {name for name, cls in _records().items()
            if "_hash" in getattr(cls, "__slots__", ())} == KEYS


@pytest.mark.parametrize("name", sorted(KEYS))
def test_a_key_hash_runs_no_python_frame(name):
    """A key record's ``__hash__`` is the descriptor of its ``_hash`` slot,
    which holds the hash's C method ``__index__``: ``hash`` and a dict or
    set probe run no Python frame, and the hash is still that of the
    compared fields."""
    cls = _records()[name]
    x = _sample(name, cls)
    assert cls.__hash__ is cls.__dict__["_hash"]
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(
        (event, frame.f_code.co_name)))
    try:
        value = hash(x)
        assert x in {x} and {x: 1}[x] == 1
    finally:
        sys.setprofile(None)
    assert [e for e in events if e[0] == "call"] == []
    values = tuple(getattr(x, n) for n in cls.__match_args__)
    assert value == hash(values[0] if len(values) == 1 else values)


def test_equality_and_hashing_ignore_a_statement_position():
    stmts = [cls for cls in _records().values() if issubclass(cls, Stmt)]
    assert len(stmts) == 15  # Stmt and its 14 kinds
    for cls in stmts:
        args = range(1, len(cls.__match_args__) + 1)
        x, y = cls(*args), cls(*args, pos=SrcPos(3, 4))
        assert x.pos == SrcPos(0, 0) and y.pos == SrcPos(3, 4)
        assert x == y and hash(x) == hash(y), cls.__name__
        with pytest.raises(TypeError):
            cls(*args, SrcPos(3, 4))  # the position is keyword-only


def test_equality_and_hashing_ignore_a_definition_position():
    """A class, field or method definition keeps the position of its
    opening parenthesis as a statement does: keyword-only, frozen, and out
    of equality and the hash."""
    records = _records()
    for name in ("ir.ClassDef", "ir.FieldDef", "ir.MethodDef"):
        cls = records[name]
        args = range(1, len(cls.__match_args__) + 1)
        x, y = cls(*args), cls(*args, pos=SrcPos(3, 4))
        assert x.pos == SrcPos(0, 0) and y.pos == SrcPos(3, 4)
        assert x == y and hash(x) == hash(y), name
        with pytest.raises(TypeError):
            cls(*args, SrcPos(3, 4))  # the position is keyword-only
        with pytest.raises(AttributeError):
            y.pos = SrcPos(5, 6)


def test_defaults_and_post_init():
    records = _records()
    fp = records["machine.FramePointer"]("m")
    assert fp.context == () and fp == records["machine.FramePointer"]("m", ())
    config = records["reach.AnalysisConfig"]()
    assert (config.mode, config.k, config.max_states) == ("pushdown", 1,
                                                         500_000)
    with pytest.raises(ValueError, match="k must be between 0 and 4"):
        records["reach.AnalysisConfig"](k=5)
    run = records["concrete.ConcreteRun"]
    a, b = run("done", [], 0, {}, {}), run("done", [], 0, {}, {})
    assert a.summary_apps == [] and a.summary_apps is not b.summary_apps


def test_records_are_unordered_and_a_nested_repr_is_the_dataclass_one():
    records = _records()
    pos = records["ir.StmtPos"](records["ir.MethodRef"]("a/B", "m", ()), 3)
    with pytest.raises(TypeError) as info:
        pos < pos
    assert "'StmtPos' and 'StmtPos'" in str(info.value)
    assert repr(pos) == ("StmtPos(method=MethodRef(class_name='a/B', "
                         "method_name='m', param_types=()), index=3, "
                         "at_move=False)")
