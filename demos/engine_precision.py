"""Contrast the two reachability engines on one exception-heavy method.

A helper that sometimes throws is called from two guarded call sites. With
the stack kept exact, each failure lands only in its own handler. With the
stack finitized, the merged abnormal-return context lets either failure
reach either handler, and the control-state set grows accordingly.

Run:  python3 demos/engine_precision.py
"""

from pdcfa.ir import MethodRef, parse_program
from pdcfa.machine import Store, seed_entry_bindings
from pdcfa.reach import AnalysisConfig, analyze
from pdcfa.taint import TaintStore, parse_summaries

SOURCE = """
(public class java/lang/Throwable extends java/lang/Object () ())
(public class java/lang/Exception extends java/lang/Throwable () ())
(public class Fault extends java/lang/Exception () ())
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 4)
     (push-handler Fault first-catch)
     (assign x (invoke-static Main->flaky () ()))
     (pop-handler)
     (push-handler Fault second-catch)
     (assign y (invoke-static Main->flaky () ()))
     (pop-handler)
     (return 0)
     (label first-catch)
     (return 1)
     (label second-catch)
     (return 2))
   (method public flaky () int (throws Fault) (limit 3)
     (assign c (invoke-static sys/Env->status () ()))
     (if (eq c 0) (goto blow))
     (return c)
     (label blow)
     (assign e (new Fault))
     (throw e))))
"""

SUMMARIES = parse_summaries(
    "summary sys/Env status role=neutral ret=any-int perms=")

ENTRY = MethodRef("Main", "run", ())


def run(mode: str):
    program = parse_program(SOURCE)
    cfg = AnalysisConfig(mode=mode, k=1)
    store, taint = Store(), TaintStore()
    seed_entry_bindings(program, ENTRY, store, taint)
    return program, analyze(program, (ENTRY,), store, taint, cfg, SUMMARIES)


def handler_states(program, result, label):
    pos = program.labels[(ENTRY, label)].pos
    return sorted(s.fp.canonical() for s in result.dsg.nodes if s.pos == pos)


if __name__ == "__main__":
    for mode in ("pushdown", "finite"):
        program, result = run(mode)
        print(f"== {mode} engine (k=1) ==")
        print(f"  control states: {len(result.dsg.nodes)}")
        for label in ("first-catch", "second-catch"):
            states = handler_states(program, result, label)
            print(f"  {label} entered under: {states or ['(never)']}")
        print()
    print("Exact matching enters each catch block only from the call it"
          " guards; the finitized engine also pairs each failure with the"
          " other region's handler.")
