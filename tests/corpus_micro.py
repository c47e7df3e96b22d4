"""Deterministic micro-programs: oracle corpus for soundness and precision.

Every program here runs to completion (or a deliberate uncaught throw) under
the concrete interpreter with exact branches, so traces can be checked for
containment in the abstract result. Handler regions are always statically
bracketed (no goto in or out of push/pop ranges).
"""

from pdcfa.ir import MethodRef

PRELUDE = """
(public class java/lang/Throwable extends java/lang/Object () ())
(public class java/lang/Exception extends java/lang/Throwable () ())
(public class java/lang/String extends java/lang/Object () ())
(public class Fault extends java/lang/Exception
  ((field public payload java/lang/String)) ())
(public class Other extends java/lang/Exception () ())
(public class Box extends java/lang/Object
  ((field public val int)
   (field public ref java/lang/String)) ())
"""

MICRO_SUMMARIES = """
summary test/Api getNumber role=neutral ret=any-int perms=
summary test/Api getSecret role=source:Location ret=any-string perms=
summary test/Api send role=sink:network ret=void perms=INTERNET
summary test/Api log role=sink:log ret=any-int perms=
summary test/Api mix role=propagate ret=any-string perms=
"""


def _main(body: str, extra: str = "", limit: int = 8) -> str:
    return PRELUDE + f"""
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit {limit})
{body})
{extra}))
"""


RUN = MethodRef("Main", "run", ())

# name -> (source text, expected concrete outcome, expected concrete ret or None)
MICRO_PROGRAMS = {
    "ret_const": (_main("""
     (return 7)"""), "completed", 7),

    "arith_add": (_main("""
     (assign a 2)
     (assign b 3)
     (assign c (add a b))
     (return c)"""), "completed", 5),

    "arith_mix": (_main("""
     (assign a (sub 10 3))
     (assign b (mul a 2))
     (assign c (neg b))
     (assign d (rem 17 5))
     (assign e (div -7 2))
     (return (add c (add d e)))"""), "completed", -15),

    "locals_chain": (_main("""
     (assign a 1)
     (assign b a)
     (assign c b)
     (return c)"""), "completed", 1),

    "goto_skip": (_main("""
     (assign a 1)
     (goto over)
     (assign a 2)
     (label over)
     (return a)"""), "completed", 1),

    "if_exact": (_main("""
     (assign a 1)
     (if (lt a 2) (goto yes))
     (return 0)
     (label yes)
     (return 1)"""), "completed", 1),

    "call_depth4": (_main("""
     (assign r (invoke-static Main->f1 (0) (int)))
     (return r)""", extra="""
   (method public f1 (int) int (throws) (limit 3)
     (assign a (add param0 1))
     (assign b (invoke-static Main->f2 (a) (int)))
     (return b))
   (method public f2 (int) int (throws) (limit 3)
     (assign a (add param0 1))
     (assign b (invoke-static Main->f3 (a) (int)))
     (return b))
   (method public f3 (int) int (throws) (limit 3)
     (assign a (add param0 1))
     (assign b (invoke-static Main->f4 (a) (int)))
     (return b))
   (method public f4 (int) int (throws) (limit 2)
     (return (add param0 1)))"""), "completed", 4),

    "call_two_sites": (_main("""
     (assign x (invoke-static Main->inc (1) (int)))
     (assign y (invoke-static Main->inc (10) (int)))
     (return (add x y))""", extra="""
   (method public inc (int) int (throws) (limit 2)
     (return (add param0 1)))"""), "completed", 13),

    # at k=1 both of mid's frames call inc from one site, so inc has one
    # frame pointer: its return is stepped under the first mid's frame
    # before the second mid's push reaches inc's entry
    "late_second_caller": (_main("""
     (assign x (invoke-static Main->mid (1) (int)))
     (assign y (invoke-static Main->mid (10) (int)))
     (return (add x y))""", extra="""
   (method public mid (int) int (throws) (limit 2)
     (assign r (invoke-static Main->inc (param0) (int)))
     (return r))
   (method public inc (int) int (throws) (limit 1)
     (return (add param0 1)))"""), "completed", 13),

    "dispatch_override": (PRELUDE + """
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1)
     (return 1))))
(public class B extends A ()
  ((method public m () int (throws) (limit 1)
     (return 2))))
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 3)
     (assign o (new B))
     (assign r (invoke-virtual m (o) ()))
     (return r))))
""", "completed", 2),

    "dispatch_inherit": (PRELUDE + """
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1)
     (return 1))))
(public class B extends A () ())
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 3)
     (assign o (new B))
     (assign r (invoke-virtual m (o) ()))
     (return r))))
""", "completed", 1),

    "super_call": (PRELUDE + """
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1)
     (return 1))))
(public class B extends A ()
  ((method public m () int (throws) (limit 3)
     (assign r (invoke-super m (this) ()))
     (return (add r 10)))))
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 3)
     (assign o (new B))
     (assign r (invoke-virtual m (o) ()))
     (return r))))
""", "completed", 11),

    "fields_rw": (_main("""
     (assign b (new Box))
     (field-put b val 41)
     (field-get v b val)
     (return (add v 1))"""), "completed", 42),

    "field_alias": (_main("""
     (assign b1 (new Box))
     (assign b2 b1)
     (field-put b1 val 5)
     (field-get v b2 val)
     (return v)"""), "completed", 5),

    "field_two_objs": (_main("""
     (assign b1 (new Box))
     (assign b2 (new Box))
     (field-put b1 val 1)
     (field-put b2 val 2)
     (field-get x b1 val)
     (field-get y b2 val)
     (return (add x y))"""), "completed", 3),

    "try_catch_local": (_main("""
     (push-handler Fault catch)
     (assign e (new Fault))
     (throw e)
     (label catch)
     (return 9)"""), "completed", 9),

    "try_catch_interproc": (_main("""
     (push-handler java/lang/Exception catch)
     (assign x (invoke-static Main->boom () ()))
     (pop-handler)
     (return 0)
     (label catch)
     (assign y 9)
     (return y)""", extra="""
   (method public boom () int (throws Fault) (limit 2)
     (assign e (new Fault))
     (throw e))"""), "completed", 9),

    "try_nested": (_main("""
     (push-handler Fault outerc)
     (assign x (invoke-static Main->mid () ()))
     (pop-handler)
     (return 0)
     (label outerc)
     (return 9)""", extra="""
   (method public mid () int (throws Fault) (limit 3)
     (push-handler Other innerc)
     (assign y (invoke-static Main->boom () ()))
     (pop-handler)
     (return 1)
     (label innerc)
     (return 2))
   (method public boom () int (throws Fault) (limit 2)
     (assign e (new Fault))
     (throw e))"""), "completed", 9),

    "rethrow": (_main("""
     (push-handler Fault outer)
     (assign x (invoke-static Main->f () ()))
     (pop-handler)
     (return 0)
     (label outer)
     (return 9)""", extra="""
   (method public f () int (throws Fault) (limit 3)
     (push-handler Fault inner)
     (assign e (new Fault))
     (throw e)
     (label inner)
     (throw exn))"""), "completed", 9),

    "handler_skip_return": (_main("""
     (assign x (invoke-static Main->f () ()))
     (return x)""", extra="""
   (method public f () int (throws) (limit 2)
     (push-handler Fault h)
     (return 5)
     (label h)
     (return 6))"""), "completed", 5),

    "pop_handler_normal": (_main("""
     (push-handler Fault h)
     (assign a 3)
     (pop-handler)
     (return a)
     (label h)
     (return 0)"""), "completed", 3),

    "loop_counted": (_main("""
     (assign i 0)
     (label loop)
     (assign i (add i 1))
     (if (lt i 20) (goto loop))
     (return i)"""), "completed", 20),

    "instance_of_branch": (PRELUDE + """
(public class A extends java/lang/Object () ())
(public class B extends A () ())
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 3)
     (assign o (new B))
     (if (instance-of o A) (goto yes))
     (return 0)
     (label yes)
     (return 1))))
""", "completed", 1),

    "summary_stub": (_main("""
     (assign n (invoke-static test/Api->getNumber () ()))
     (assign m (add n 1))
     (return m)"""), "completed", 1),

    "taint_chain": (_main("""
     (assign s (invoke-static test/Api->getSecret () ()))
     (assign box (new Box))
     (field-put box ref s)
     (field-get t box ref)
     (assign u (invoke-static Main->ident (t) (java/lang/String)))
     (push-handler Fault c)
     (assign w (invoke-static Main->thrower (u) (java/lang/String)))
     (pop-handler)
     (return 0)
     (label c)
     (field-get z exn payload)
     (assign q (invoke-static test/Api->send (z) (java/lang/String)))
     (return 1)""", extra="""
   (method public ident (java/lang/String) java/lang/String (throws) (limit 2)
     (return param0))
   (method public thrower (java/lang/String) int (throws Fault) (limit 3)
     (assign e (new Fault))
     (field-put e payload param0)
     (throw e))"""), "completed", 1),

    "bool_logic": (_main("""
     (assign a true)
     (assign b (not a))
     (assign c (and a (not b)))
     (assign d (xor a b))
     (assign e (or b false))
     (if (and c d) (goto good))
     (return 0)
     (label good)
     (if e (goto bad))
     (return 1)
     (label bad)
     (return 2)"""), "completed", 1),

    "eq_objects": (_main("""
     (assign o1 (new Box))
     (assign o2 o1)
     (if (eq o1 o2) (goto same))
     (return 0)
     (label same)
     (return 1)"""), "completed", 1),

    "bitwise_ints": (_main("""
     (assign a 12)
     (assign b 10)
     (assign c (and a b))
     (assign d (or a b))
     (assign e (xor a b))
     (assign n (invoke-static test/Api->getNumber () ()))
     (assign f (xor (and n a) (or n 1)))
     (return (add (add c d) (add e f)))"""), "completed", 29),

    "eq_bools_ne": (_main("""
     (assign t true)
     (assign f (not t))
     (if (eq t f) (goto bad))
     (if (ne t true) (goto bad))
     (if (ne f f) (goto bad))
     (if (ne 3 4) (goto good))
     (return 0)
     (label good)
     (assign r (eq f false))
     (if r (goto done))
     (goto bad)
     (label done)
     (return 1)
     (label bad)
     (return 2)"""), "completed", 1),

    "eq_null_void_mixed": (_main("""
     (assign z null)
     (assign v void)
     (assign o (new Box))
     (if (ne z null) (goto bad))
     (if (ne v void) (goto bad))
     (if (eq z 0) (goto bad))
     (if (eq true 1) (goto bad))
     (if (eq v z) (goto bad))
     (if (eq o z) (goto bad))
     (if (ne o 0) (goto good))
     (return 0)
     (label good)
     (return 1)
     (label bad)
     (return 2)"""), "completed", 1),

    "instance_of_null_and_string": (_main("""
     (assign z null)
     (if (instance-of z java/lang/Object) (goto bad))
     (assign s (invoke-static test/Api->getSecret () ()))
     (assign b (instance-of s Box))
     (if b (goto bad))
     (if (instance-of s java/lang/String) (goto good))
     (return 0)
     (label good)
     (if (instance-of s java/lang/Object) (goto done))
     (goto bad)
     (label done)
     (return 1)
     (label bad)
     (return 2)"""), "completed", 1),

    "uncaught_throw": (_main("""
     (assign e (new Fault))
     (throw e)"""), "uncaught-exception", None),

    "recursion_factorial": (_main("""
     (assign r (invoke-static Main->fact (5) (int)))
     (return r)""", extra="""
   (method public fact (int) int (throws) (limit 4)
     (if (le param0 1) (goto base))
     (assign m (sub param0 1))
     (assign r (invoke-static Main->fact (m) (int)))
     (return (mul param0 r))
     (label base)
     (return 1))"""), "completed", 120),

    "recursion_throw_caught": (_main("""
     (push-handler Fault h)
     (assign r (invoke-static Main->descend (3) (int)))
     (pop-handler)
     (return r)
     (label h)
     (return -1)""", extra="""
   (method public descend (int) int (throws Fault) (limit 4)
     (if (le param0 0) (goto blow))
     (assign m (sub param0 1))
     (assign r (invoke-static Main->descend (m) (int)))
     (return r)
     (label blow)
     (assign e (new Fault))
     (throw e))"""), "completed", -1),
}


# Programs with merged abnormal-return contexts: the finite engine's
# context-keyed handler linking reaches handler states the exact-stack
# engine proves unreachable.
_BOOM_MAYBE = """
   (method public boom () int (throws Fault) (limit 3)
     (assign c (invoke-static test/Api->getNumber () ()))
     (if (eq c 0) (goto t))
     (return 0)
     (label t)
     (assign e (new Fault))
     (throw e))"""

STRICT_PROGRAMS = {
    "guard_gap": _main("""
     (assign x (invoke-static Main->boom () ()))
     (push-handler Fault h)
     (assign y (invoke-static Main->boom () ()))
     (pop-handler)
     (return 0)
     (label h)
     (return 9)""", extra=_BOOM_MAYBE),

    "two_handlers": _main("""
     (push-handler Fault h1)
     (assign x (invoke-static Main->boom () ()))
     (pop-handler)
     (push-handler Fault h2)
     (assign y (invoke-static Main->boom () ()))
     (pop-handler)
     (return 0)
     (label h1)
     (return 1)
     (label h2)
     (return 2)""", extra=_BOOM_MAYBE),

    "post_region": (_main("""
     (assign x (invoke-static Main->boom () ()))
     (push-handler Fault h)
     (assign y (invoke-static Main->boom () ()))
     (pop-handler)
     (assign z (invoke-static Main->boom () ()))
     (return 0)
     (label h)
     (return 9)""", extra=_BOOM_MAYBE)),
}
