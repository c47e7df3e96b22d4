"""Least-permissions analysis tests."""

from pdcfa.eps import EntryPoint, Unit, saturate_app
from pdcfa.ir import MethodRef, parse_program
from pdcfa.permissions import build_permission_report, collect_permissions
from pdcfa.reach import AnalysisConfig
from pdcfa.taint import parse_summaries
from soundness import analyze_seeded
from views import direct_trace, with_triggers

TABLE = parse_summaries("""
summary net/Http open role=neutral ret=null perms=INTERNET
summary tel/Sms send role=sink:sms ret=void perms=SEND_SMS
""")

RUN = MethodRef("Main", "run", ())


def _analyze(src):
    program = parse_program(src)
    return analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)


def test_no_api_calls_collects_nothing():
    res = _analyze("""
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 1)
     (return 0))))
""")
    assert collect_permissions(direct_trace(res)) == []


def test_reachable_api_collects_its_permission():
    res = _analyze("""
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 2)
     (line 3)
     (assign c (invoke-static net/Http->open () ()))
     (return 0))))
""")
    collected = collect_permissions(direct_trace(res))
    assert [(p, line) for p, _s, line in collected] == [("INTERNET", 3)]


def test_api_in_unreachable_code_not_collected():
    """Only reachability excludes the SMS call: the method exists but no
    declared entry reaches it (checked against the hand-built flow graph,
    where deadCode has no incoming call edge)."""
    res = _analyze("""
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 2)
     (assign c (invoke-static net/Http->open () ()))
     (return 0))
   (method public deadCode () int (throws) (limit 2)
     (assign z (invoke-static tel/Sms->send () ()))
     (return 0))))
""")
    dead = MethodRef("Main", "deadCode", ())
    assert all(s.pos.method != dead for s in res.dsg.nodes)
    perms = {p for p, _s, _l in collect_permissions(direct_trace(res))}
    assert perms == {"INTERNET"}


def test_report_over_privileged():
    report = build_permission_report(
        {"INTERNET", "SEND_SMS"},
        [("INTERNET", s, l) for s, l in _evidence()])
    assert report.over_privileged == {"SEND_SMS"}
    assert report.missing == frozenset()
    assert report.reached == {"INTERNET"}


def test_report_zero_permission_app():
    report = build_permission_report(
        frozenset(), [("INTERNET", s, l) for s, l in _evidence()])
    assert report.missing == {"INTERNET"}
    assert report.over_privileged == frozenset()


def test_report_exact_match():
    report = build_permission_report(
        {"INTERNET"}, [("INTERNET", s, l) for s, l in _evidence()])
    assert report.over_privileged == frozenset()
    assert report.missing == frozenset()
    assert report.over_privileged.isdisjoint(report.missing)


def test_every_reached_permission_has_evidence():
    res = _analyze("""
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 2)
     (assign c (invoke-static net/Http->open () ()))
     (assign z (invoke-static tel/Sms->send () ()))
     (return 0))))
""")
    report = build_permission_report({"INTERNET"},
                                     collect_permissions(direct_trace(res)))
    for perm in report.reached:
        assert report.evidence[perm]


def _evidence():
    res = _analyze("""
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 2)
     (line 3)
     (assign c (invoke-static net/Http->open () ()))
     (return 0))))
""")
    return [(s, line)
            for _p, s, line in collect_permissions(direct_trace(res))]


def test_monotone_in_analysis_result():
    src = """
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 2)
     (assign c (invoke-static net/Http->open () ()))
     (return 0))
   (method public more () int (throws) (limit 2)
     (assign z (invoke-static tel/Sms->send () ()))
     (return 0))))
"""
    unit = Unit("U", "activity", tuple(
        EntryPoint(m, "ui-handler", "layout")
        for m in (RUN, MethodRef("Main", "more", ()))))
    _s, _t, trace = saturate_app(parse_program(src), [unit],
                                 AnalysisConfig(k=1), TABLE)
    small = {p for p, _s, _l in collect_permissions(
        with_triggers(trace, trace.triggers[:1]))}
    both = {p for p, _s, _l in collect_permissions(trace)}
    assert small == {"INTERNET"} and small < both
