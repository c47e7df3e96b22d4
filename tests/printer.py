"""A printer of parsed programs in the ``.sdex`` syntax, for tests:
``program_to_text``'s output parses back to an equal program."""

from pdcfa.ir import (
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
    Name,
    New,
    Nop,
    NullLit,
    PopHandler,
    Program,
    PushHandler,
    Return,
    Stmt,
    This,
    Throw,
    VoidLit,
)


def _aexp_text(exp) -> str:
    match exp:
        case This():
            return "this"
        case BoolLit(v):
            return "true" if v else "false"
        case NullLit():
            return "null"
        case VoidLit():
            return "void"
        case Name(reg):
            return reg
        case IntLit(v):
            return str(v)
        case AtomicOp(op, args):
            return f"({op} {' '.join(_aexp_text(a) for a in args)})"
        case InstanceOf(inner, cls):
            return f"(instance-of {_aexp_text(inner)} {cls})"
    raise TypeError(f"not an atomic expression: {exp!r}")


def _cexp_text(exp) -> str:
    match exp:
        case New(cls):
            return f"(new {cls})"
        case Invoke(kind, name, cls, args, types):
            spec = f"{cls}->{name}" if cls is not None else name
            return (f"(invoke-{kind} {spec} "
                    f"({' '.join(_aexp_text(a) for a in args)}) "
                    f"({' '.join(types)}))")
    raise TypeError(f"not a complex expression: {exp!r}")


def _stmt_text(st: Stmt) -> str:
    match st:
        case Label(name):
            return f"(label {name})"
        case Nop():
            return "(nop)"
        case Line(n):
            return f"(line {n})"
        case Goto(label):
            return f"(goto {label})"
        case If(cond, label):
            return f"(if {_aexp_text(cond)} (goto {label}))"
        case AssignAtomic(name, exp):
            return f"(assign {name} {_aexp_text(exp)})"
        case AssignComplex(name, exp):
            return f"(assign {name} {_cexp_text(exp)})"
        case FieldPut(obj, fname, value):
            return f"(field-put {_aexp_text(obj)} {fname} {_aexp_text(value)})"
        case FieldGet(name, obj, fname):
            return f"(field-get {name} {_aexp_text(obj)} {fname})"
        case PushHandler(cls, label):
            return f"(push-handler {cls} {label})"
        case PopHandler():
            return "(pop-handler)"
        case Throw(exp):
            return f"(throw {_aexp_text(exp)})"
        case Return(exp):
            return f"(return {_aexp_text(exp)})"
    raise TypeError(f"unprintable statement: {st!r}")


def program_to_text(program: Program) -> str:
    out = []
    for cdef in program.classes.values():
        attrs = " ".join(sorted(cdef.attributes))
        head = f"({attrs} class" if attrs else "(class"
        out.append(f"{head} {cdef.name} extends {cdef.super_name}")
        if cdef.fields:
            out.append("  (" + "\n   ".join(
                f"(field {' '.join(sorted(f.attributes))}"
                f"{' ' if f.attributes else ''}{f.name} {f.field_type})"
                for f in cdef.fields) + ")")
        else:
            out.append("  ()")
        if cdef.methods:
            mtexts = []
            for m in cdef.methods:
                attrs = " ".join(sorted(m.attributes))
                lines = [f"(method {attrs}{' ' if attrs else ''}{m.name} "
                         f"({' '.join(m.param_types)}) {m.return_type} "
                         f"(throws {' '.join(m.throws)}) (limit {m.limit})"]
                lines.extend(f"  {_stmt_text(st)}" for st in m.body)
                mtexts.append("\n   ".join(lines) + ")")
            out.append("  (" + "\n   ".join(mtexts) + ")")
        else:
            out.append("  ()")
        out.append(")")
    return "\n".join(out) + "\n"
