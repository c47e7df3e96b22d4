"""Seeded synthetic app bundles whose shape stresses saturation and witnesses.

A bundle has U units of E ``(int)`` entry points on one class, ``app/App``,
so every entry shares the ambient receiver and its ``loc`` field. The entries
share a library of D levels with F ``(int, String)`` methods per level. Each
non-leaf library method runs a two-iteration loop that calls every method one
level down, each call under its own ``try/catch``, and returns its string
argument; its handler returns the argument too. A leaf returns its string
argument or, on a branch the analysis cannot rule out, throws ``lib/Fail``
with it as the payload.

The entry at every third position of a unit is a writer: it stores a
``Location`` source into ``this.loc``. The others are readers: they read
``this.loc``, call every top-level library method under a catch, send the
result to a network sink and, in the handler, send the exception's payload
to a log sink. Under the pushdown engine the readers' handler is dead (the
library catches every throw), so the flows are exactly writer source line x
reader network-sink line. The finite engine also routes leaf throws into the
readers' handlers, which adds spurious flows.

The seed permutes the order of units and of the entries within each unit,
and so picks which named entries are writers. Every seed gives the same
shape up to names: saturation's passes and rounds depend on where writers
sit in the declared order, so fixing the positions keeps the work the same
from seed to seed.

    bundle = generate(Shape.parse("4x6x4x2"), seed=1)
    bundle.write(directory)  # manifest.json, app.sdex, api.summaries
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

APP = "app/App"
LIB = "lib/Lib"
FAIL = "lib/Fail"
STRING = "java/lang/String"

SUMMARIES = """\
# API summaries for a generated bundle.
summary android/location/LocationManager getLastKnownLocation role=source:Location ret=any-string perms=ACCESS_FINE_LOCATION
summary java/net/HttpURLConnection post role=sink:network ret=void perms=INTERNET
summary android/util/Log d role=sink:log ret=any-int perms=
"""


@dataclass(frozen=True)
class Shape:
    units: int
    entries: int
    depth: int
    fanout: int

    @classmethod
    def parse(cls, text: str) -> "Shape":
        parts = [int(p) for p in text.lower().split("x")]
        if len(parts) != 4 or min(parts) < 1 or parts[2] < 2:
            raise ValueError(f"shape {text!r} is not UxExDxF with D >= 2")
        return cls(*parts)

    def text(self) -> str:
        return f"{self.units}x{self.entries}x{self.depth}x{self.fanout}"


@dataclass(frozen=True)
class Bundle:
    files: dict  # file name -> text
    flows: list  # construction-implied flows, see generate()

    def write(self, root) -> Path:
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (root / name).write_text(text, encoding="utf-8")
        return root


class _Lines:
    """Hands out increasing source line numbers."""

    def __init__(self):
        self.n = 0

    def next(self) -> int:
        self.n += 1
        return self.n


def _lib_name(level: int, index: int) -> str:
    return f"m{level}_{index}"


def _lib_call(level: int, index: int, args: str) -> str:
    return (f"(invoke-static {LIB}->{_lib_name(level, index)} ({args}) "
            f"(int {STRING}))")


def _library(shape: Shape, lines: _Lines) -> list:
    methods = []
    for level in range(shape.depth):
        for index in range(shape.fanout):
            name = _lib_name(level, index)
            head = (f"(method public {name} (int {STRING}) {STRING} "
                    f"(throws {FAIL}) (limit 8)")
            if level == shape.depth - 1:
                body = [f"(line {lines.next()})",
                        "(if (lt param0 0) (goto fail))",
                        "(return param1)",
                        "(label fail)",
                        f"(line {lines.next()})",
                        f"(assign err (new {FAIL}))",
                        "(field-put err payload param1)",
                        "(throw err)"]
            else:
                body = [f"(line {lines.next()})",
                        "(assign i 0)",
                        "(label top)",
                        "(if (ge i 2) (goto done))"]
                for child in range(shape.fanout):
                    call = _lib_call(level + 1, child, "param0 param1")
                    body += [f"(line {lines.next()})",
                             f"(push-handler {FAIL} caught)",
                             f"(assign r {call})",
                             "(pop-handler)"]
                body += ["(assign i (add i 1))",
                         "(goto top)",
                         "(label done)",
                         "(return param1)",
                         # A handler runs in the thrower's frame, so it
                         # touches only registers every library frame binds.
                         "(label caught)",
                         "(return param1)"]
            methods.append(head + "".join("\n     " + s for s in body) + ")")
    return methods


def _writer(lines: _Lines) -> tuple:
    src = lines.next()
    body = [f"(line {src})",
            "(assign s (invoke-static android/location/LocationManager"
            "->getLastKnownLocation () ()))",
            f"(line {lines.next()})",
            "(field-put this loc s)",
            "(return void)"]
    return body, src


def _reader(shape: Shape, lines: _Lines) -> tuple:
    body = [f"(line {lines.next()})",
            "(field-get s this loc)",
            f"(push-handler {FAIL} failed)"]
    for index in range(shape.fanout):
        body.append(f"(assign r {_lib_call(0, index, 'param0 s')})")
    sink = lines.next()
    body += ["(pop-handler)",
             f"(line {sink})",
             "(assign ok (invoke-static java/net/HttpURLConnection->post "
             f"(r) ({STRING})))",
             "(return void)",
             "(label failed)",
             f"(line {lines.next()})",
             "(field-get p exn payload)",
             "(assign ok (invoke-static android/util/Log->d "
             f"(p) ({STRING})))",
             "(return void)"]
    return body, sink


def generate(shape: Shape, seed: int) -> Bundle:
    """The bundle for ``shape`` and ``seed``, with the flows it must yield.

    Each flow is ``{"category", "sourceLine", "sinkLine", "sinkKind",
    "unit", "entryPoint"}``: a writer's source line to a reader's
    network-sink line, triggered by that reader.
    """
    rng = random.Random(seed)
    unit_ids = rng.sample(range(shape.units), shape.units)
    entry_ids = {u: rng.sample(range(shape.entries), shape.entries)
                 for u in unit_ids}

    lines = _Lines()
    app_methods = []
    sources = []  # source lines of writers
    sinks = []  # (unit name, entry name, sink line) of readers
    units = []
    for u in unit_ids:
        unit_name = f"Unit{u}"
        eps = []
        for position, e in enumerate(entry_ids[u]):
            name = f"u{u}e{e}"
            if position % 3 == 0:
                body, src = _writer(lines)
                sources.append(src)
            else:
                body, sink = _reader(shape, lines)
                sinks.append((unit_name, name, sink))
            app_methods.append(
                f"(method public {name} (int) void (throws) (limit 8)"
                + "".join("\n     " + s for s in body) + ")")
            eps.append({"class": APP, "method": name, "paramTypes": ["int"],
                        "category": "ui-handler",
                        "registrationSource": "layout"})
        units.append({"name": unit_name, "kind": "activity",
                      "entryPoints": eps})
    lib_methods = _library(shape, lines)

    program = "\n".join([
        f"; Generated bundle, shape {shape.text()}, seed {seed}.",
        "(public class java/lang/Throwable extends java/lang/Object () ())",
        "(public class java/lang/Exception extends java/lang/Throwable () ())",
        f"(public class {STRING} extends java/lang/Object () ())",
        f"(public class {FAIL} extends java/lang/Exception",
        f"  ((field public payload {STRING}))",
        "  ())",
        f"(public class {APP} extends java/lang/Object",
        f"  ((field private loc {STRING}))",
        "  (" + "\n   ".join(app_methods) + "))",
        f"(public class {LIB} extends java/lang/Object",
        "  ()",
        "  (" + "\n   ".join(lib_methods) + "))",
    ]) + "\n"
    manifest = {
        "appName": f"synth-{shape.text()}-s{seed}",
        "program": "app.sdex",
        "summaries": "api.summaries",
        "requestedPermissions": ["ACCESS_FINE_LOCATION", "INTERNET"],
        "units": units,
    }
    flows = [{"category": "Location", "sourceLine": src, "sinkLine": sink,
              "sinkKind": "network", "unit": unit, "entryPoint": entry}
             for src in sorted(sources) for unit, entry, sink in sinks]
    files = {"manifest.json": json.dumps(manifest, indent=2) + "\n",
             "app.sdex": program,
             "api.summaries": SUMMARIES}
    return Bundle(files, flows)
