"""Bytecode IR: S-expression parsing, validation, and hierarchy queries.

The input language is an object-oriented register bytecode written as
S-expressions (file extension ``.sdex``, ``;`` starts a line comment).
A parsed :class:`Program` is immutable after construction and safe to
share across concurrent analysis runs; the parser itself is single-threaded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter

ROOT_CLASS = "java/lang/Object"

ATTRIBUTES = frozenset({"public", "private", "protected", "final", "abstract"})
PRIMITIVE_TYPES = frozenset({"int", "byte", "char", "boolean"})
BINARY_OPS = frozenset(
    {"add", "sub", "mul", "div", "rem", "and", "or", "xor",
     "lt", "le", "gt", "ge", "eq", "ne"}
)
UNARY_OPS = frozenset({"neg", "not"})
ATOMIC_OPS = BINARY_OPS | UNARY_OPS
INVOKE_KINDS = frozenset({"static", "direct", "virtual", "interface", "super"})

_NAME_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_CLASS_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*(?:/[A-Za-z_$][A-Za-z0-9_$]*)*")
_INT_RE = re.compile(r"-?[0-9]+")


class ParseError(Exception):
    """Malformed input: bad S-expression, unknown form, or invariant violation."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


class UnknownLabel(Exception):
    pass


class UnknownClass(Exception):
    pass


class ResolveError(Exception):
    pass


def key_type(cls):
    """Make ``cls`` a frozen, slotted dataclass that hashes once and builds
    its sort key once.

    Control states, frames and addresses are nested dataclasses used as dict
    and set keys on every engine step; a generated ``__hash__`` rehashes the
    whole nest on each lookup. Here the hash of the field values is computed
    once, at construction (``__post_init__``, so ``dataclasses.replace``
    recomputes it), and ``__hash__`` returns it.

    The class's ``sort_key`` method builds a nested tuple from its fields'
    keys; every report and worklist order sorts by it. It is wrapped to
    build the tuple on the first call and keep it in a slot, so a sort reuses
    the keys of earlier sorts. The uncached builder stays reachable as
    ``sort_key.__wrapped__``. Neither slot takes part in equality, and a
    ``dataclasses.replace`` copy starts with no key.
    """
    field_values = attrgetter(*cls.__annotations__)
    build_key = cls.sort_key

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(field_values(self)))

    def __hash__(self):
        return self._hash

    def sort_key(self):
        key = self._sort_key
        if key is None:
            key = build_key(self)
            object.__setattr__(self, "_sort_key", key)
        return key

    sort_key.__wrapped__ = build_key
    cls.__annotations__["_hash"] = "int"
    cls._hash = field(init=False, compare=False, repr=False)
    cls.__annotations__["_sort_key"] = "tuple | None"
    cls._sort_key = field(init=False, compare=False, repr=False, default=None)
    cls.__post_init__ = __post_init__
    cls.__hash__ = __hash__
    cls.sort_key = sort_key
    return dataclass(frozen=True, slots=True)(cls)


@dataclass(frozen=True)
class SrcPos:
    line: int
    col: int


# ---------------------------------------------------------------------------
# Atomic and complex expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class This:
    pass


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class NullLit:
    pass


@dataclass(frozen=True)
class VoidLit:
    pass


@dataclass(frozen=True)
class Name:
    reg: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class AtomicOp:
    op: str
    args: tuple


@dataclass(frozen=True)
class InstanceOf:
    exp: object
    class_name: str


AExp = (This, BoolLit, NullLit, VoidLit, Name, IntLit, AtomicOp, InstanceOf)


@dataclass(frozen=True)
class New:
    class_name: str


@dataclass(frozen=True)
class Invoke:
    kind: str
    method_name: str
    class_name: str | None  # explicit receiver class; required for kind=static
    args: tuple
    arg_types: tuple


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    pos: SrcPos = field(compare=False, kw_only=True, default=SrcPos(0, 0))


@dataclass(frozen=True)
class Label(Stmt):
    name: str


@dataclass(frozen=True)
class Nop(Stmt):
    pass


@dataclass(frozen=True)
class Line(Stmt):
    number: int


@dataclass(frozen=True)
class Goto(Stmt):
    label: str


@dataclass(frozen=True)
class If(Stmt):
    cond: object
    label: str


@dataclass(frozen=True)
class AssignAtomic(Stmt):
    name: str
    exp: object


@dataclass(frozen=True)
class AssignComplex(Stmt):
    name: str
    exp: object  # New | Invoke


@dataclass(frozen=True)
class FieldPut(Stmt):
    obj: object
    field_name: str
    value: object


@dataclass(frozen=True)
class FieldGet(Stmt):
    name: str
    obj: object
    field_name: str


@dataclass(frozen=True)
class PushHandler(Stmt):
    class_name: str
    label: str


@dataclass(frozen=True)
class PopHandler(Stmt):
    pass


@dataclass(frozen=True)
class Throw(Stmt):
    exp: object


@dataclass(frozen=True)
class Return(Stmt):
    exp: object


@dataclass(frozen=True)
class MoveFromRet(Stmt):
    """Machine-synthesized move of the ``ret`` register into a local.

    Never parsed from source: it only appears in continuations the machine
    builds for assign-of-invoke statements.
    """

    name: str


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------


@key_type
class MethodRef:
    class_name: str
    method_name: str
    param_types: tuple

    def sig(self) -> str:
        return f"{self.class_name}.{self.method_name}({','.join(self.param_types)})"

    def sort_key(self):
        return (self.class_name, self.method_name, self.param_types)


@dataclass(frozen=True)
class FieldDef:
    attributes: frozenset
    name: str
    field_type: str


@dataclass(frozen=True)
class MethodDef:
    attributes: frozenset
    name: str
    param_types: tuple
    return_type: str
    throws: tuple
    limit: int
    body: tuple
    ref: MethodRef

    @property
    def is_abstract(self) -> bool:
        return "abstract" in self.attributes


@dataclass(frozen=True)
class ClassDef:
    attributes: frozenset
    name: str
    super_name: str
    fields: tuple
    methods: tuple


@key_type
class StmtPos:
    """A position in a method body.

    ``at_move`` marks the synthetic :class:`MoveFromRet` slot that follows
    the assign-of-invoke at ``index``; it exists only in machine-built
    continuations, keeping control states finite and position-based.
    """

    method: MethodRef
    index: int
    at_move: bool = False

    def sort_key(self):
        return (*self.method.sort_key(), self.index, int(self.at_move))


class Program:
    """A validated program: class table plus label and method indexes."""

    def __init__(self, classes: dict):
        self.classes: dict[str, ClassDef] = classes
        self.methods: dict[MethodRef, MethodDef] = {}
        self.label_table: dict[tuple, int] = {}
        # method -> {push-handler or pop-handler index: (push index, index of
        # the matching pop-handler or the body's length)}; a pop-handler with
        # no open push-handler is left out, and the validator rejects it
        self.handler_spans: dict[MethodRef, dict[int, tuple]] = {}
        self._line_cache: dict[tuple, int] = {}
        self._subclass_cache: dict[tuple, bool] = {}
        for cdef in classes.values():
            for mdef in cdef.methods:
                self.methods[mdef.ref] = mdef
                spans = self.handler_spans[mdef.ref] = {}
                open_pushes: list[int] = []
                for i, st in enumerate(mdef.body):
                    if isinstance(st, Label):
                        self.label_table[(mdef.ref, st.name)] = i + 1
                    elif isinstance(st, PushHandler):
                        open_pushes.append(i)
                    elif isinstance(st, PopHandler) and open_pushes:
                        lo = open_pushes.pop()
                        spans[lo] = spans[i] = (lo, i)
                for lo in open_pushes:
                    spans[lo] = (lo, len(mdef.body))

    # -- hierarchy ---------------------------------------------------------

    def is_declared(self, class_name: str) -> bool:
        return class_name in self.classes or class_name == ROOT_CLASS

    def superclass_chain(self, class_name: str):
        """Yield class_name, its superclass, ... up to and including the root."""
        if not self.is_declared(class_name):
            raise UnknownClass(class_name)
        cur = class_name
        while True:
            yield cur
            if cur == ROOT_CLASS:
                return
            cdef = self.classes.get(cur)
            if cdef is None:
                return
            cur = cdef.super_name

    def is_subclass(self, c1: str, c2: str) -> bool:
        """True iff c2 is reachable from c1 via zero or more extends edges.

        Answers are memoised per pair; an undeclared class raises
        ``UnknownClass`` on every call."""
        key = (c1, c2)
        answer = self._subclass_cache.get(key)
        if answer is None:
            if not self.is_declared(c2):
                raise UnknownClass(c2)
            answer = self._subclass_cache[key] = any(
                c == c2 for c in self.superclass_chain(c1))
        return answer

    # -- method resolution ---------------------------------------------------

    def resolve_method(self, static_class: str, name: str, param_types: tuple,
                       kind: str) -> MethodDef:
        """Walk the extends chain and return the first matching definition.

        virtual/interface/static/direct start the walk at ``static_class``;
        super starts at its superclass.
        """
        if not self.is_declared(static_class):
            raise UnknownClass(static_class)
        start = static_class
        if kind == "super":
            cdef = self.classes.get(static_class)
            if cdef is None:
                raise ResolveError(f"{static_class} has no superclass")
            start = cdef.super_name
        for cls in self.superclass_chain(start):
            cdef = self.classes.get(cls)
            if cdef is None:
                continue
            for mdef in cdef.methods:
                if mdef.name == name and mdef.param_types == tuple(param_types):
                    return mdef
        raise ResolveError(
            f"no method {name}({','.join(param_types)}) reachable from {start}")

    # -- statement addressing -------------------------------------------------

    def pos_of_label(self, m: MethodRef, label: str) -> StmtPos:
        key = (m, label)
        if key not in self.label_table:
            raise UnknownLabel(f"{m.sig()}:{label}")
        return StmtPos(m, self.label_table[key])

    def stmt_at(self, pos: StmtPos):
        """Statement at pos, or None past the end of the body.

        For ``at_move`` positions this synthesizes the MoveFromRet for the
        assign-of-invoke at ``pos.index``.
        """
        body = self.methods[pos.method].body
        if pos.index >= len(body):
            return None
        st = body[pos.index]
        if pos.at_move:
            assert isinstance(st, AssignComplex) and isinstance(st.exp, Invoke)
            return MoveFromRet(st.name, pos=st.pos)
        return st

    def advance(self, pos: StmtPos) -> StmtPos:
        return StmtPos(pos.method, pos.index + 1)

    def line_of(self, pos: StmtPos) -> int:
        """Most recent (line n) at or before pos; falls back to source line."""
        key = (pos.method, pos.index)
        if key in self._line_cache:
            return self._line_cache[key]
        body = self.methods[pos.method].body
        line = 0
        for i in range(min(pos.index, len(body) - 1), -1, -1):
            st = body[i]
            if isinstance(st, Line):
                line = st.number
                break
        if line == 0 and pos.index < len(body):
            line = body[pos.index].pos.line
        self._line_cache[key] = line
        return line


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Atom:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class _SList:
    items: tuple
    line: int
    col: int


def _read_sexprs(text: str) -> list:
    exprs = []
    stack: list[list] = []
    positions: list[tuple] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "(":
            stack.append([])
            positions.append((line, col))
            col += 1
            i += 1
            continue
        if ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            items = stack.pop()
            lpos = positions.pop()
            node = _SList(tuple(items), lpos[0], lpos[1])
            if stack:
                stack[-1].append(node)
            else:
                exprs.append(node)
            col += 1
            i += 1
            continue
        start_line, start_col = line, col
        j = i
        while j < n and not text[j].isspace() and text[j] not in "();":
            j += 1
        atom = _Atom(text[i:j], start_line, start_col)
        if stack:
            stack[-1].append(atom)
        else:
            exprs.append(atom)
        col += j - i
        i = j
    if stack:
        lpos = positions[-1]
        raise ParseError("unclosed '('", lpos[0], lpos[1])
    return exprs


def _expect_atom(node, what: str) -> str:
    if not isinstance(node, _Atom):
        raise ParseError(f"expected {what}", node.line, node.col)
    return node.text


def _expect_list(node, what: str) -> _SList:
    if not isinstance(node, _SList):
        raise ParseError(f"expected {what}", node.line, node.col)
    return node


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------


def _parse_type(node) -> str:
    t = _expect_atom(node, "type")
    if t in PRIMITIVE_TYPES or _CLASS_RE.fullmatch(t):
        return t
    raise ParseError(f"malformed type {t!r}", node.line, node.col)


def _parse_register(node) -> str:
    r = _expect_atom(node, "register name")
    if not _NAME_RE.fullmatch(r) or r in ("true", "false", "null", "void"):
        raise ParseError(f"ill-formed register name {r!r}", node.line, node.col)
    return r


def _parse_aexp(node):
    if isinstance(node, _Atom):
        t = node.text
        if t == "this":
            return This()
        if t == "true":
            return BoolLit(True)
        if t == "false":
            return BoolLit(False)
        if t == "null":
            return NullLit()
        if t == "void":
            return VoidLit()
        if _INT_RE.fullmatch(t):
            return IntLit(int(t))
        if _NAME_RE.fullmatch(t):
            return Name(t)
        raise ParseError(f"malformed atomic expression {t!r}", node.line, node.col)
    assert isinstance(node, _SList)
    if not node.items:
        raise ParseError("empty atomic expression", node.line, node.col)
    head = _expect_atom(node.items[0], "operator")
    if head == "instance-of":
        if len(node.items) != 3:
            raise ParseError("instance-of takes an expression and a class",
                             node.line, node.col)
        return InstanceOf(_parse_aexp(node.items[1]),
                          _expect_atom(node.items[2], "class name"))
    if head in UNARY_OPS:
        if len(node.items) != 2:
            raise ParseError(f"{head} takes one operand", node.line, node.col)
        return AtomicOp(head, (_parse_aexp(node.items[1]),))
    if head in BINARY_OPS:
        if len(node.items) != 3:
            raise ParseError(f"{head} takes two operands", node.line, node.col)
        return AtomicOp(head, (_parse_aexp(node.items[1]),
                               _parse_aexp(node.items[2])))
    raise ParseError(f"unknown atomic operator {head!r}", node.line, node.col)


def _parse_method_spec(node) -> tuple:
    """'Cls->name' or bare 'name'; returns (class_name_or_None, name)."""
    text = _expect_atom(node, "method name")
    if "->" in text:
        cls, _, name = text.rpartition("->")
        if not _CLASS_RE.fullmatch(cls) or not _NAME_RE.fullmatch(name):
            raise ParseError(f"malformed method spec {text!r}", node.line, node.col)
        return cls, name
    if not _NAME_RE.fullmatch(text):
        raise ParseError(f"malformed method name {text!r}", node.line, node.col)
    return None, text


def _parse_cexp(node: _SList):
    head = _expect_atom(node.items[0], "complex expression head")
    if head == "new":
        if len(node.items) != 2:
            raise ParseError("new takes a class name", node.line, node.col)
        return New(_expect_atom(node.items[1], "class name"))
    if head.startswith("invoke-"):
        kind = head[len("invoke-"):]
        if kind not in INVOKE_KINDS:
            raise ParseError(f"unknown invoke kind {head!r}", node.line, node.col)
        if len(node.items) != 4:
            raise ParseError("invoke takes a method, an argument list, and a "
                             "type list", node.line, node.col)
        cls, name = _parse_method_spec(node.items[1])
        args = tuple(_parse_aexp(a)
                     for a in _expect_list(node.items[2], "argument list").items)
        types = tuple(_parse_type(t)
                      for t in _expect_list(node.items[3], "type list").items)
        if kind == "static":
            if cls is None:
                raise ParseError("invoke-static requires Class->method",
                                 node.line, node.col)
            if len(args) != len(types):
                raise ParseError("static invoke arity mismatch", node.line, node.col)
        else:
            if not args:
                raise ParseError("non-static invoke needs a receiver",
                                 node.line, node.col)
            if len(args) - 1 != len(types):
                raise ParseError("invoke arity mismatch", node.line, node.col)
        return Invoke(kind, name, cls, args, types)
    raise ParseError(f"unknown complex expression {head!r}", node.line, node.col)


def _parse_stmt(node) -> Stmt:
    s = _expect_list(node, "statement")
    if not s.items:
        raise ParseError("empty statement", s.line, s.col)
    head = _expect_atom(s.items[0], "statement head")
    pos = SrcPos(s.line, s.col)
    rest = s.items[1:]

    def arity(k):
        if len(rest) != k:
            raise ParseError(f"{head} takes {k} argument(s)", s.line, s.col)

    if head == "label":
        arity(1)
        return Label(_expect_atom(rest[0], "label"), pos=pos)
    if head == "nop":
        arity(0)
        return Nop(pos=pos)
    if head == "line":
        arity(1)
        t = _expect_atom(rest[0], "line number")
        if not _INT_RE.fullmatch(t) or int(t) <= 0:
            raise ParseError("line numbers are positive", s.line, s.col)
        return Line(int(t), pos=pos)
    if head == "goto":
        arity(1)
        return Goto(_expect_atom(rest[0], "label"), pos=pos)
    if head == "if":
        arity(2)
        target = _expect_list(rest[1], "(goto label)")
        if (len(target.items) != 2
                or _expect_atom(target.items[0], "goto") != "goto"):
            raise ParseError("if target must be (goto label)", s.line, s.col)
        return If(_parse_aexp(rest[0]),
                  _expect_atom(target.items[1], "label"), pos=pos)
    if head == "assign":
        arity(2)
        name = _parse_register(rest[0])
        if name in ("this",):
            raise ParseError("cannot assign to 'this'", s.line, s.col)
        rhs = rest[1]
        if isinstance(rhs, _SList) and rhs.items and isinstance(rhs.items[0], _Atom) \
                and (rhs.items[0].text == "new" or rhs.items[0].text.startswith("invoke-")):
            return AssignComplex(name, _parse_cexp(rhs), pos=pos)
        return AssignAtomic(name, _parse_aexp(rhs), pos=pos)
    if head == "field-put":
        arity(3)
        return FieldPut(_parse_aexp(rest[0]),
                        _expect_atom(rest[1], "field name"),
                        _parse_aexp(rest[2]), pos=pos)
    if head == "field-get":
        arity(3)
        return FieldGet(_parse_register(rest[0]),
                        _parse_aexp(rest[1]),
                        _expect_atom(rest[2], "field name"), pos=pos)
    if head == "push-handler":
        arity(2)
        return PushHandler(_expect_atom(rest[0], "class name"),
                           _expect_atom(rest[1], "label"), pos=pos)
    if head == "pop-handler":
        arity(0)
        return PopHandler(pos=pos)
    if head == "throw":
        arity(1)
        return Throw(_parse_aexp(rest[0]), pos=pos)
    if head == "return":
        arity(1)
        return Return(_parse_aexp(rest[0]), pos=pos)
    raise ParseError(f"unknown statement head {head!r}", s.line, s.col)


def _parse_attrs(items, i: int) -> tuple:
    """The attributes that start at ``items[i]``, and the index after them."""
    attrs = set()
    while i < len(items) and isinstance(items[i], _Atom) \
            and items[i].text in ATTRIBUTES:
        attrs.add(items[i].text)
        i += 1
    return frozenset(attrs), i


def _parse_field(node) -> FieldDef:
    s = _expect_list(node, "field definition")
    if not s.items or _expect_atom(s.items[0], "field") != "field":
        raise ParseError("expected (field ...)", s.line, s.col)
    attrs, i = _parse_attrs(s.items, 1)
    if len(s.items) - i != 2:
        raise ParseError("field needs a name and a type", s.line, s.col)
    return FieldDef(attrs,
                    _expect_atom(s.items[i], "field name"),
                    _parse_type(s.items[i + 1]))


def _parse_method(node, class_name: str) -> MethodDef:
    s = _expect_list(node, "method definition")
    if not s.items or _expect_atom(s.items[0], "method") != "method":
        raise ParseError("expected (method ...)", s.line, s.col)
    attrs, i = _parse_attrs(s.items, 1)
    if len(s.items) - i < 4:
        raise ParseError("method needs name, params, return type, throws, limit",
                         s.line, s.col)
    name = _expect_atom(s.items[i], "method name")
    params = tuple(_parse_type(t)
                   for t in _expect_list(s.items[i + 1], "parameter types").items)
    ret_type = _parse_type(s.items[i + 2])
    throws_node = _expect_list(s.items[i + 3], "(throws ...)")
    if not throws_node.items or _expect_atom(throws_node.items[0], "throws") != "throws":
        raise ParseError("expected (throws ...)", throws_node.line, throws_node.col)
    throws = tuple(_expect_atom(c, "class name") for c in throws_node.items[1:])
    limit_node = _expect_list(s.items[i + 4], "(limit n)")
    if (len(limit_node.items) != 2
            or _expect_atom(limit_node.items[0], "limit") != "limit"):
        raise ParseError("expected (limit n)", limit_node.line, limit_node.col)
    limit = int(_expect_atom(limit_node.items[1], "limit"))
    body = tuple(_parse_stmt(st) for st in s.items[i + 5:])
    ref = MethodRef(class_name, name, params)
    return MethodDef(attrs, name, params, ret_type, throws, limit, body, ref)


def _parse_class(node) -> ClassDef:
    s = _expect_list(node, "class definition")
    attrs, i = _parse_attrs(s.items, 0)
    if i >= len(s.items) or not isinstance(s.items[i], _Atom) \
            or s.items[i].text != "class":
        raise ParseError("expected 'class'", s.line, s.col)
    i += 1
    if len(s.items) - i != 5:
        raise ParseError("class needs name, extends, superclass, fields, methods",
                         s.line, s.col)
    name = _expect_atom(s.items[i], "class name")
    if not _CLASS_RE.fullmatch(name):
        raise ParseError(f"malformed class name {name!r}", s.line, s.col)
    if _expect_atom(s.items[i + 1], "extends") != "extends":
        raise ParseError("expected 'extends'", s.line, s.col)
    super_name = _expect_atom(s.items[i + 2], "superclass name")
    fields = tuple(_parse_field(f)
                   for f in _expect_list(s.items[i + 3], "field list").items)
    methods = tuple(_parse_method(m, name)
                    for m in _expect_list(s.items[i + 4], "method list").items)
    return ClassDef(attrs, name, super_name, fields, methods)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _collect_names(exp, regs: set, classes: list):
    """Registers and ``instance-of`` classes named anywhere in an atomic
    expression, however deeply nested."""
    match exp:
        case Name(reg):
            regs.add(reg)
        case AtomicOp(_, args):
            for a in args:
                _collect_names(a, regs, classes)
        case InstanceOf(inner, cls):
            classes.append(cls)
            _collect_names(inner, regs, classes)
        case _:
            pass


def _validate(program: Program) -> None:
    classes = program.classes
    # hierarchy: declared targets, acyclic
    for cdef in classes.values():
        if cdef.super_name != ROOT_CLASS and cdef.super_name not in classes:
            raise ParseError(
                f"class {cdef.name} extends undeclared {cdef.super_name}")
        seen = {cdef.name}
        cur = cdef.super_name
        while cur != ROOT_CLASS:
            if cur in seen:
                raise ParseError(f"hierarchy cycle through {cur}")
            seen.add(cur)
            cur = classes[cur].super_name
    for cdef in classes.values():
        field_names = set()
        for fdef in cdef.fields:
            if fdef.name in field_names:
                raise ParseError(f"duplicate field {cdef.name}.{fdef.name}")
            field_names.add(fdef.name)
            if fdef.field_type not in PRIMITIVE_TYPES \
                    and not program.is_declared(fdef.field_type):
                raise ParseError(
                    f"field {cdef.name}.{fdef.name} has undeclared type "
                    f"{fdef.field_type}")
        sigs = set()
        for mdef in cdef.methods:
            key = (mdef.name, mdef.param_types)
            if key in sigs:
                raise ParseError(
                    f"duplicate method {cdef.name}.{mdef.name}"
                    f"({','.join(mdef.param_types)})")
            sigs.add(key)
            _validate_method(program, cdef, mdef)


def _validate_method(program: Program, cdef: ClassDef, mdef: MethodDef) -> None:
    where = f"{cdef.name}.{mdef.name}"
    if not mdef.body and not mdef.is_abstract:
        raise ParseError(f"non-abstract method {where} has an empty body")
    if mdef.limit < len(mdef.param_types):
        raise ParseError(f"method {where} limit below its parameter count")
    for t in mdef.param_types:
        if t not in PRIMITIVE_TYPES and not program.is_declared(t):
            raise ParseError(f"method {where} has undeclared parameter type {t}")
    rt = mdef.return_type
    if rt != "void" and rt not in PRIMITIVE_TYPES and not program.is_declared(rt):
        raise ParseError(f"method {where} has undeclared return type {rt}")
    labels: dict = {}  # label -> index
    spans = program.handler_spans[mdef.ref]
    for i, st in enumerate(mdef.body):
        if isinstance(st, Label):
            if st.name in labels:
                raise ParseError(f"duplicate label {st.name} in {where}",
                                 st.pos.line, st.pos.col)
            labels[st.name] = i
        elif isinstance(st, PopHandler) and i not in spans:
            raise ParseError(f"pop-handler without an open push-handler "
                             f"in {where}", st.pos.line, st.pos.col)

    def region(i):
        """The push index of the innermost handler region holding index i
        (a pop-handler lies in the region it closes), or None."""
        return max((lo for lo, hi in spans.values() if lo < i <= hi),
                   default=None)

    regs: set[str] = set()
    for i, st in enumerate(mdef.body):
        target = None
        match st:
            case Goto(label) | If(_, label) | PushHandler(_, label):
                target = label
            case _:
                pass
        if target is not None and target not in labels:
            raise ParseError(f"dangling label {target} in {where}",
                             st.pos.line, st.pos.col)
        if isinstance(st, (Goto, If)) and region(labels[target]) != region(i):
            raise ParseError(f"branch to {target} enters or leaves a handler "
                             f"region in {where}", st.pos.line, st.pos.col)
        classes: list = []  # classes the statement names
        match st:
            case PushHandler(cls, _):
                classes.append(cls)
            case If(cond, _):
                _collect_names(cond, regs, classes)
            case AssignAtomic(name, exp):
                regs.add(name)
                _collect_names(exp, regs, classes)
            case AssignComplex(name, exp):
                regs.add(name)
                if isinstance(exp, New):
                    classes.append(exp.class_name)
                else:
                    for a in exp.args:
                        _collect_names(a, regs, classes)
            case FieldPut(obj, _, value):
                _collect_names(obj, regs, classes)
                _collect_names(value, regs, classes)
            case FieldGet(name, obj, _):
                regs.add(name)
                _collect_names(obj, regs, classes)
            case Throw(exp) | Return(exp):
                _collect_names(exp, regs, classes)
            case MoveFromRet(_):
                raise ParseError(f"move-from-ret cannot appear in source ({where})")
            case _:
                pass
        for cls in classes:
            if not program.is_declared(cls):
                raise ParseError(f"undeclared class {cls} in {where}",
                                 st.pos.line, st.pos.col)
    for r in regs:
        if not _NAME_RE.fullmatch(r):
            raise ParseError(f"ill-formed register {r!r} in {where}")


def parse_program(text: str) -> Program:
    """Parse and validate a whole program; raises ParseError with a location."""
    classes: dict[str, ClassDef] = {}
    for node in _read_sexprs(text):
        cdef = _parse_class(node)
        if cdef.name in classes:
            raise ParseError(f"duplicate class {cdef.name}")
        classes[cdef.name] = cdef
    program = Program(classes)
    _validate(program)
    return program


# ---------------------------------------------------------------------------
# Printer (round-trips through parse_program)
# ---------------------------------------------------------------------------


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
