"""Concrete-trace containment in the pushdown result, per corpus program."""

import pytest

from corpus_micro import MICRO_PROGRAMS, MICRO_SUMMARIES, RUN
from pdcfa.concrete import run_concrete
from pdcfa.ir import parse_program
from pdcfa.reach import AnalysisConfig
from pdcfa.taint import parse_summaries
from soundness import analyze_seeded, check_containment

TABLE = parse_summaries(MICRO_SUMMARIES)


@pytest.mark.parametrize("name", sorted(MICRO_PROGRAMS))
def test_trace_containment(name):
    src, outcome, _ret = MICRO_PROGRAMS[name]
    program = parse_program(src)
    crun = run_concrete(program, RUN, fuel=10_000, summaries=TABLE)
    assert crun.outcome == outcome
    cfg = AnalysisConfig(k=1)
    result = analyze_seeded(program, RUN, cfg, TABLE)
    assert result.complete
    problems = check_containment(program, crun, result, cfg.policy())
    assert not problems, "\n".join(problems[:10])


def test_corpus_is_large_enough():
    assert len(MICRO_PROGRAMS) >= 20
