"""Path-sensitive refinement of the divergence-implicated slice
(``repro analyze --refine``): one hand-built program per merge rule of
:func:`repro.static_analysis.refine.refine_findings`, plus the CLI's
``refined`` block."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.compiler.binary import compile_module
from repro.compiler.implementations import implementation
from repro.juliet import build_suite
from repro.minic import load
from repro.static_analysis.interproc import summarize_module
from repro.static_analysis.refine import MAX_REFINE_PATHS, enumerate_paths, refine_findings
from repro.static_analysis.ub_oracle import CONFIRMED, POSSIBLE, analyze_modules

pytestmark = pytest.mark.interproc

#: The divisor is 1 on one arm and -1 on the other: the joined interval
#: [-1, 1] holds 0, but no single path does.
NO_FEASIBLE_PATH = """
int main(void) {
    int d;
    int r;
    if (input_size() > 2) { d = 1; } else { d = -1; }
    r = 10 / d;
    printf("%d\\n", r);
    return 0;
}
"""

#: ``d - e`` is 0 on both arms, but the join only keeps d, e in [1, 2],
#: so the merged state sees a divisor in [-1, 1].
EVERY_FEASIBLE_PATH = """
int main(void) {
    int d;
    int e;
    int r;
    if (input_size() > 2) { d = 1; e = 1; } else { d = 2; e = 2; }
    r = 10 / (d - e);
    printf("%d\\n", r);
    return 0;
}
"""

#: Eight independent branches (256 acyclic paths) ahead of the same
#: +/-1 divisor NO_FEASIBLE_PATH drops.
PAST_THE_PATH_CAP = """
int main(void) {
    int d;
    int r;
    int n = input_size();
    r = 0;
    if (n > 1) { r = r + 1; }
    if (n > 2) { r = r + 2; }
    if (n > 3) { r = r + 3; }
    if (n > 4) { r = r + 4; }
    if (n > 5) { r = r + 5; }
    if (n > 6) { r = r + 6; }
    if (n > 7) { r = r + 7; }
    if (n > 8) { d = 1; } else { d = -1; }
    r = r / d;
    printf("%d\\n", r);
    return 0;
}
"""


def _refine(source: str):
    module = compile_module(load(source), implementation("gcc-O0"), name="t")
    ctx = summarize_module(module)
    findings = analyze_modules(module, interproc=ctx).findings
    refined, report = refine_findings(module, ctx, findings, "main")
    return module, findings, refined, report


def _div_zero(findings):
    return [(f.confidence, f.line) for f in findings if f.checker == "div_zero"]


def test_finding_on_no_feasible_path_is_dropped():
    _module, findings, refined, report = _refine(NO_FEASIBLE_PATH)
    assert _div_zero(findings) == [(POSSIBLE, 6)]
    assert _div_zero(refined) == []
    assert report == {"main": {"dropped": 1, "upgraded": 0, "kept": 0, "skipped": 0}}


def test_finding_on_every_feasible_path_is_upgraded():
    _module, findings, refined, report = _refine(EVERY_FEASIBLE_PATH)
    assert _div_zero(findings) == [(POSSIBLE, 7)]
    assert _div_zero(refined) == [(CONFIRMED, 7)]
    assert report == {"main": {"dropped": 0, "upgraded": 1, "kept": 0, "skipped": 0}}


def test_function_past_the_path_cap_keeps_its_findings():
    module, findings, refined, report = _refine(PAST_THE_PATH_CAP)
    main_fn = module.functions["main"]
    assert enumerate_paths(main_fn) is None
    assert len(enumerate_paths(main_fn, cap=1024)) > MAX_REFINE_PATHS
    assert _div_zero(findings) == [(POSSIBLE, 15)]
    assert refined == findings
    assert report == {"main": {"dropped": 0, "upgraded": 0, "kept": 0, "skipped": 1}}


def test_cli_reports_the_refined_block(tmp_path, capsys):
    suite = build_suite(scale=0.003)
    case = next(c for c in suite.cases if c.uid == "CWE476_load_folded_plain_0000")
    path = tmp_path / "case.c"
    path.write_text(case.bad_source)
    code = main(["analyze", str(path), "--interproc", "--refine", "--json", "--input", ""])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["triage"]["diverged"] is True
    assert payload["refined"] == {
        "main": {"dropped": 0, "upgraded": 0, "kept": 1, "skipped": 0}
    }
