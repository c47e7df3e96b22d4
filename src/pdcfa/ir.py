"""Bytecode IR: S-expression parsing, validation, and hierarchy queries.

The input language is an object-oriented register bytecode written as
S-expressions (file extension ``.sdex``, ``;`` starts a line comment).
A parsed :class:`Program` holds one compiled record per statement position
(:class:`Code`). Its statements never change after construction; the key
tables analyses fill in it only grow, and an entry built twice by a race is
equal to the first, so a program is safe to share across concurrent analysis
runs. The parser itself is single-threaded.
"""

from __future__ import annotations

import re

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


class UnknownClass(Exception):
    pass


class ResolveError(Exception):
    pass


_REQUIRED = object()  # the default of a field that has none


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls=None, *, key=False, mutable=False, kw_only=()):
    """Make ``cls`` a record, as ``dataclasses.dataclass`` would, for a
    fraction of its cost to build. Its fields are its base record's, then
    those its body annotates, with the body's values as defaults. Its
    ``__init__`` takes them (those in ``kw_only`` by keyword only) and calls
    any ``__post_init__``; ``__match_args__``, equality and, unless
    ``mutable``, the hash are over the fields outside ``kw_only``. It is
    frozen unless ``mutable``. Its ``repr``, ``__init__``, ``__eq__`` and
    ``__hash__`` are a dataclass's; each method but ``repr`` is generated
    when it is first called.

    A ``key`` record (a control state, frame or address: a nested dict key
    on every engine step) is slotted. It hashes its field values (the value
    alone for one field) once, when built, and keeps its ``sort_key`` in a
    slot once built; ``sort_key.__wrapped__`` builds it afresh. Its
    ``__hash__`` is the descriptor of the ``_hash`` slot, which holds the
    hash's C method ``__index__``: the interpreter binds and calls it for
    every dict or set probe without running a Python frame."""
    if cls is None:
        return lambda cls: record(cls, key=key, mutable=mutable,
                                  kw_only=kw_only)
    own = dict(cls.__dict__)
    specs = (*getattr(cls, "__record_fields__", ()), *(
        (name, own.get(name, _REQUIRED), name in kw_only)
        for name in own.get("__annotations__", ())))
    names = tuple(spec[0] for spec in specs)
    if key:
        for name in (*names, "__dict__", "__weakref__"):
            own.pop(name, None)
        cls = type(cls.__name__, cls.__bases__,
                   {**own, "__slots__": (*names, "_hash", "_sort_key")})
        build_key = cls.sort_key

        def sort_key(self):
            built = self._sort_key
            if built is None:
                built = build_key(self)
                object.__setattr__(self, "_sort_key", built)
            return built

        sort_key.__wrapped__ = build_key
        cls.sort_key = sort_key

    def generated(method: str):
        def call(self, *args, **kwargs):  # replaced by its first call
            setattr(cls, method, _generate(cls, specs, key, method))
            return getattr(cls, method)(self, *args, **kwargs)
        return call

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({args})"

    cls.__record_fields__ = specs
    cls.__match_args__ = tuple(name for name, _, kw in specs if not kw)
    cls.__init__, cls.__eq__ = generated("__init__"), generated("__eq__")
    cls.__hash__ = None if mutable else cls.__dict__["_hash"] if key \
        else generated("__hash__")
    cls.__repr__ = __repr__
    if not mutable:
        cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def _generate(cls, specs: tuple, key: bool, method: str):
    """A dataclass's ``method`` (``__init__``, ``__eq__`` or ``__hash__``)
    for the record ``cls`` of fields ``specs`` (name, default, keyword-only);
    a key record's ``__init__`` also sets the hash (as its bound
    ``__index__``) and no sort key."""
    env: dict = {"_setattr": object.__setattr__}
    compared = "(%s)" % "".join(f"{{0}}.{n}," for n in cls.__match_args__)
    if method == "__eq__":
        lines = ["def __eq__(self, other):",
                 "    if other.__class__ is self.__class__:",
                 f"        return {compared.format('self')} == "
                 f"{compared.format('other')}",
                 "    return NotImplemented"]
    elif method == "__hash__":
        lines = ["def __hash__(self):",
                 f"    return hash({compared.format('self')})"]
    else:
        params = ["self"]
        for name, default, kw in sorted(specs, key=lambda spec: spec[2]):
            if kw and "*" not in params:
                params.append("*")
            if default is not _REQUIRED:
                env[f"_default_{name}"] = default
                name = f"{name}=_default_{name}"
            params.append(name)
        names = [name for name, _, _ in specs]
        body = [f"_setattr(self, {name!r}, {name})" for name in names]
        if key:
            for name in (*names, "_hash", "_sort_key"):
                env[f"_set_{name}"] = getattr(cls, name).__set__
            hashed = names[0] if len(names) == 1 else f"({', '.join(names)})"
            body = [*(f"_set_{name}(self, {name})" for name in names),
                    "_set__sort_key(self, None)",
                    f"_set__hash(self, hash({hashed}).__index__)"]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        lines = [f"def __init__({', '.join(params)}):",
                 *(f"    {line}" for line in body or ["pass"])]
    exec("\n".join(lines), env)
    env[method].__qualname__ = f"{cls.__qualname__}.{method}"
    return env[method]


@record
class SrcPos:
    line: int
    col: int


# ---------------------------------------------------------------------------
# Atomic and complex expressions
# ---------------------------------------------------------------------------


@record
class This:
    pass


@record
class BoolLit:
    value: bool


@record
class NullLit:
    pass


@record
class VoidLit:
    pass


@record
class Name:
    reg: str


@record
class IntLit:
    value: int


@record
class AtomicOp:
    op: str
    args: tuple


@record
class InstanceOf:
    exp: object
    class_name: str


AExp = (This, BoolLit, NullLit, VoidLit, Name, IntLit, AtomicOp, InstanceOf)


@record
class New:
    class_name: str


@record
class Invoke:
    kind: str
    method_name: str
    class_name: str | None  # explicit receiver class; required for kind=static
    args: tuple
    arg_types: tuple


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@record(kw_only=("pos",))
class Stmt:
    pos: SrcPos = SrcPos(0, 0)


@record
class Label(Stmt):
    name: str


@record
class Nop(Stmt):
    pass


@record
class Line(Stmt):
    number: int


@record
class Goto(Stmt):
    label: str


@record
class If(Stmt):
    cond: object
    label: str


@record
class AssignAtomic(Stmt):
    name: str
    exp: object


@record
class AssignComplex(Stmt):
    name: str
    exp: object  # New | Invoke


@record
class FieldPut(Stmt):
    obj: object
    field_name: str
    value: object


@record
class FieldGet(Stmt):
    name: str
    obj: object
    field_name: str


@record
class PushHandler(Stmt):
    class_name: str
    label: str


@record
class PopHandler(Stmt):
    pass


@record
class Throw(Stmt):
    exp: object


@record
class Return(Stmt):
    exp: object


@record
class MoveFromRet(Stmt):
    """Machine-synthesized move of the ``ret`` register into a local.

    Never parsed from source: it only appears in continuations the machine
    builds for assign-of-invoke statements.
    """

    name: str


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------


@record(key=True)
class MethodRef:
    class_name: str
    method_name: str
    param_types: tuple

    def sig(self) -> str:
        return f"{self.class_name}.{self.method_name}({','.join(self.param_types)})"

    def sort_key(self):
        return (self.class_name, self.method_name, self.param_types)


@record(kw_only=("pos",))
class FieldDef:
    attributes: frozenset
    name: str
    field_type: str
    pos: SrcPos = SrcPos(0, 0)


@record(kw_only=("pos",))
class MethodDef:
    attributes: frozenset
    name: str
    param_types: tuple
    return_type: str
    throws: tuple
    limit: int
    body: tuple
    ref: MethodRef
    pos: SrcPos = SrcPos(0, 0)

    @property
    def is_abstract(self) -> bool:
        return "abstract" in self.attributes


@record(kw_only=("pos",))
class ClassDef:
    attributes: frozenset
    name: str
    super_name: str
    fields: tuple
    methods: tuple
    pos: SrcPos = SrcPos(0, 0)


@record(key=True)
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


@record(key=True)
class HandlerFrame:
    class_name: str
    label: str
    owner: MethodRef

    def sort_key(self):
        return (1, self.class_name, self.label, self.owner.sort_key())

    def canonical(self) -> str:
        return f"handle({self.class_name}, {self.owner.sig()}:{self.label})"


class Code:
    """One position of a method body, compiled once when its program is
    built (abstract compilation, Boucher and Feeley, CC 1996): what every
    machine step at the position would otherwise work out again.

    ``stmt`` is None past the end of the body; at an ``at_move`` slot it
    is the slot's :class:`MoveFromRet`, made here once. ``next`` is the
    successor's record and ``target`` the record a ``goto`` or ``if``
    branches to. ``dependent`` says whether a step needs the top of the
    stack (return, throw, pop-handler). ``line`` is what
    :meth:`Program.line_of` reports. ``frame`` is the
    :class:`HandlerFrame` a push-handler pushes, or the one a pop-handler
    pops. An assign-of-invoke's ``move`` is the record of the
    ``MoveFromRet`` slot after it, and ``callees`` memoises its dispatch
    per summary table and receiver class. ``states`` holds the control
    states at the position, by frame pointer. ``evals`` holds a (values,
    taint) pair of closures per atomic expression the statement evaluates
    (``machine.compile_atomic``), or None before its first step. The
    machine fills ``callees``, ``states`` and ``evals`` as analyses of the
    program run.
    """

    __slots__ = ("pos", "stmt", "next", "target", "dependent", "line",
                 "frame", "move", "callees", "states", "evals")

    def __init__(self, pos: StmtPos, stmt, line: int):
        self.pos = pos
        self.stmt = stmt
        self.next: Code | None = None
        self.target: Code | None = None
        self.dependent = isinstance(stmt, (Return, Throw, PopHandler))
        self.line = line
        self.frame: HandlerFrame | None = None
        self.move: Code | None = None
        self.callees: dict | None = None
        self.states: dict = {}
        self.evals: tuple | None = None


class Program:
    """A validated program: class table, method and label indexes, and one
    compiled record per statement position."""

    def __init__(self, classes: dict):
        self.classes: dict[str, ClassDef] = classes
        self.methods: dict[MethodRef, MethodDef] = {}
        # method -> {push-handler or pop-handler index: (push index, index of
        # the matching pop-handler or the body's length)}; a pop-handler with
        # no open push-handler is left out, and the validator rejects it
        self.handler_spans: dict[MethodRef, dict[int, tuple]] = {}
        self.code: dict[StmtPos, Code] = {}  # at_move slots included
        self.starts: dict[MethodRef, Code] = {}  # each body's first record
        self.labels: dict[tuple, Code] = {}  # (method, label) -> its record
        # the analyses' other key objects, each built once and then looked
        # up by its fields (machine.reg_addr, machine.field_addr,
        # machine.edge_of)
        self.reg_addrs: dict = {}  # FramePointer -> {register: RegAddr}
        self.field_addrs: dict = {}  # ObjectPointer -> {field: FieldAddr}
        self.edge_table: dict = {}  # (src, kind, frame, dst) -> Edge
        # (op, operand value sets) -> the operation's value set, read by the
        # compiled evaluators of AtomicOp (machine.compile_atomic)
        self.op_results: dict = {}
        self._subclass_cache: dict[tuple, bool] = {}
        for cdef in classes.values():
            for mdef in cdef.methods:
                self.methods[mdef.ref] = mdef
                self._compile(mdef)

    def _compile(self, mdef: MethodDef):
        """Index ``mdef``'s labels and handler regions, and make the
        records of its positions: one per statement, one past the end,
        and one per assign-of-invoke's ``MoveFromRet`` slot."""
        ref, body = mdef.ref, mdef.body
        spans = self.handler_spans[ref] = {}
        open_pushes: list[int] = []
        labels: dict[str, int] = {}  # label -> index of the position after it
        codes = []
        line = 0  # the most recent (line n)
        for i, st in enumerate(body):
            if isinstance(st, Line):
                line = st.number
            code = Code(StmtPos(ref, i), st, line or st.pos.line)
            codes.append(code)
            if isinstance(st, Label):
                labels[st.name] = i + 1
            elif isinstance(st, PushHandler):
                open_pushes.append(i)
                code.frame = HandlerFrame(st.class_name, st.label, ref)
            elif isinstance(st, PopHandler) and open_pushes:
                lo = open_pushes.pop()
                spans[lo] = spans[i] = (lo, i)
                code.frame = codes[lo].frame
            elif isinstance(st, AssignComplex) and isinstance(st.exp, Invoke):
                code.move = Code(StmtPos(ref, i, at_move=True),
                                 MoveFromRet(st.name, pos=st.pos), code.line)
                code.callees = {}
        for lo in open_pushes:
            spans[lo] = (lo, len(body))
        codes.append(Code(StmtPos(ref, len(body)), None, line))
        for name, index in labels.items():
            self.labels[(ref, name)] = codes[index]
        for code, nxt in zip(codes, codes[1:] + [None]):
            code.next = nxt
            self.code[code.pos] = code
            if isinstance(code.stmt, (Goto, If)):
                # a dangling label is left None; the validator rejects it
                code.target = self.labels.get((ref, code.stmt.label))
            elif code.move is not None:
                code.move.next = nxt
                self.code[code.move.pos] = code.move
        self.starts[ref] = codes[0]

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

    def line_of(self, pos: StmtPos) -> int:
        """Most recent (line n) at or before pos; falls back to source line."""
        return self.code[pos].line


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------


class _Atom:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


class _SList:
    __slots__ = ("items", "line", "col")

    def __init__(self, items: tuple, line: int, col: int):
        self.items = items
        self.line = line
        self.col = col


# One token per match: a paren, a comment to the end of the line, or an
# atom (a run of characters that are not whitespace, parens or ';'). What
# no alternative matches is whitespace; ``\s`` is ``str.isspace``.
_TOKEN_RE = re.compile(r"[()]|;.*|[^\s();]+")


def _read_sexprs(text: str) -> list:
    r"""The S-expressions of ``text``, each node at its line:col (both
    from 1; a line ends only at ``\n``, and every other character, a tab
    or ``\r`` too, is one column)."""
    exprs = []
    items = exprs  # the innermost open list, or the top level
    open_: list[tuple] = []  # (enclosing items, line, col) per open '('
    for line, source in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(source):
            tok = m.group()
            if tok == "(":
                open_.append((items, line, m.start() + 1))
                items = []
            elif tok == ")":
                if not open_:
                    raise ParseError("unbalanced ')'", line, m.start() + 1)
                outer, lline, lcol = open_.pop()
                outer.append(_SList(tuple(items), lline, lcol))
                items = outer
            elif tok[0] != ";":
                items.append(_Atom(tok, line, m.start() + 1))
    if open_:
        _, lline, lcol = open_[-1]
        raise ParseError("unclosed '('", lline, lcol)
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
                    _parse_type(s.items[i + 1]), pos=SrcPos(s.line, s.col))


def _parse_method(node, class_name: str) -> MethodDef:
    s = _expect_list(node, "method definition")
    if not s.items or _expect_atom(s.items[0], "method") != "method":
        raise ParseError("expected (method ...)", s.line, s.col)
    attrs, i = _parse_attrs(s.items, 1)
    if len(s.items) - i < 5:
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
    limit = _expect_atom(limit_node.items[1], "limit")
    if not _INT_RE.fullmatch(limit):
        raise ParseError(f"malformed limit {limit!r}", limit_node.items[1].line,
                         limit_node.items[1].col)
    body = tuple(_parse_stmt(st) for st in s.items[i + 5:])
    ref = MethodRef(class_name, name, params)
    return MethodDef(attrs, name, params, ret_type, throws, int(limit), body,
                     ref, pos=SrcPos(s.line, s.col))


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
    return ClassDef(attrs, name, super_name, fields, methods,
                    pos=SrcPos(s.line, s.col))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _collect_classes(exp, classes: list):
    """The ``instance-of`` classes named anywhere in an atomic expression,
    however deeply nested."""
    match exp:
        case AtomicOp(_, args):
            for a in args:
                _collect_classes(a, classes)
        case InstanceOf(inner, cls):
            classes.append(cls)
            _collect_classes(inner, classes)
        case _:
            pass


def _validate(program: Program) -> None:
    classes = program.classes
    # hierarchy: declared targets, acyclic
    for cdef in classes.values():
        if cdef.super_name != ROOT_CLASS and cdef.super_name not in classes:
            raise ParseError(
                f"class {cdef.name} extends undeclared {cdef.super_name}",
                cdef.pos.line, cdef.pos.col)
        seen = {cdef.name}
        cur = cdef.super_name
        while cur != ROOT_CLASS:
            if cur in seen:
                raise ParseError(f"hierarchy cycle through {cur}",
                                 cdef.pos.line, cdef.pos.col)
            seen.add(cur)
            cur = classes[cur].super_name
    for cdef in classes.values():
        field_names = set()
        for fdef in cdef.fields:
            if fdef.name in field_names:
                raise ParseError(f"duplicate field {cdef.name}.{fdef.name}",
                                 fdef.pos.line, fdef.pos.col)
            field_names.add(fdef.name)
            if fdef.field_type not in PRIMITIVE_TYPES \
                    and not program.is_declared(fdef.field_type):
                raise ParseError(
                    f"field {cdef.name}.{fdef.name} has undeclared type "
                    f"{fdef.field_type}", fdef.pos.line, fdef.pos.col)
        sigs = set()
        for mdef in cdef.methods:
            key = (mdef.name, mdef.param_types)
            if key in sigs:
                raise ParseError(
                    f"duplicate method {cdef.name}.{mdef.name}"
                    f"({','.join(mdef.param_types)})",
                    mdef.pos.line, mdef.pos.col)
            sigs.add(key)
            _validate_method(program, cdef, mdef)


def _validate_method(program: Program, cdef: ClassDef, mdef: MethodDef) -> None:
    where = f"{cdef.name}.{mdef.name}"
    at = mdef.pos.line, mdef.pos.col
    if not mdef.body and not mdef.is_abstract:
        raise ParseError(f"non-abstract method {where} has an empty body", *at)
    if mdef.limit < len(mdef.param_types):
        raise ParseError(f"method {where} limit below its parameter count", *at)
    for t in mdef.param_types:
        if t not in PRIMITIVE_TYPES and not program.is_declared(t):
            raise ParseError(
                f"method {where} has undeclared parameter type {t}", *at)
    rt = mdef.return_type
    if rt != "void" and rt not in PRIMITIVE_TYPES and not program.is_declared(rt):
        raise ParseError(f"method {where} has undeclared return type {rt}", *at)
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
        # a catch that lands inside a region a pop-handler closes would run
        # that pop-handler without the region's frame on the stack
        if isinstance(st, PushHandler) and any(
                lo < labels[target] < hi and not lo < i < hi
                for lo, hi in spans.values() if hi in spans):
            raise ParseError(f"catch label {target} enters a closed handler "
                             f"region in {where}", st.pos.line, st.pos.col)
        classes: list = []  # classes the statement names
        match st:
            case PushHandler(cls, _) | AssignComplex(_, New(cls)):
                classes.append(cls)
            case AssignComplex(_, exp):
                for a in exp.args:
                    _collect_classes(a, classes)
            case FieldPut(obj, _, value):
                _collect_classes(obj, classes)
                _collect_classes(value, classes)
            case If(exp, _) | AssignAtomic(_, exp) | FieldGet(_, exp, _) \
                    | Throw(exp) | Return(exp):
                _collect_classes(exp, classes)
            case _:
                pass
        for cls in classes:
            if not program.is_declared(cls):
                raise ParseError(f"undeclared class {cls} in {where}",
                                 st.pos.line, st.pos.col)


def parse_program(text: str) -> Program:
    """Parse and validate a whole program; raises ParseError with a location."""
    classes: dict[str, ClassDef] = {}
    for node in _read_sexprs(text):
        cdef = _parse_class(node)
        if cdef.name in classes:
            raise ParseError(f"duplicate class {cdef.name}", cdef.pos.line,
                             cdef.pos.col)
        classes[cdef.name] = cdef
    program = Program(classes)
    _validate(program)
    return program

