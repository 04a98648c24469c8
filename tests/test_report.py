import json

import pytest

import lpict.analysis
from lpict.analysis import analyze_protocol, dual_environment_verdict
from lpict.cli import run_cli
from lpict.models import builtin_dh, builtin_tls13
from lpict.report import build_dual_report, build_single_report, render_report


def tls_dual_report(duration=None):
    model = builtin_tls13()
    return build_dual_report(model, dual_environment_verdict(model), duration)


def test_text_report_contents():
    text = render_report(tls_dual_report(), "text")
    assert "verdict: secure" in text
    assert "trace: S1:11111 S2:11111111" in text
    assert "matched: yes" in text
    assert "secure: yes" in text
    assert "forward proof (13 lines):" in text
    assert "contradiction proof (15 lines):" in text
    assert "duration" not in text  # no duration recorded


def test_structured_roundtrip():
    report = tls_dual_report(duration=12.5)
    blob = render_report(report, "json")
    assert json.loads(blob) == report


def test_structured_roundtrip_flawed():
    model = builtin_dh()
    env = model.environment("nonideal")
    outcome = analyze_protocol(model, env)
    report = build_single_report(model, env, outcome)
    blob = render_report(report, "json")
    assert json.loads(blob) == report
    assert '"failing": {' in blob
    assert '"event": "public_value_send"' in blob


def test_structured_roundtrip_dual_flawed():
    model = builtin_dh()
    report = build_dual_report(model, dual_environment_verdict(model), 1.25)
    blob = render_report(report, "json")
    rebuilt = json.loads(blob)
    assert rebuilt == report
    assert rebuilt["matched"] is False and rebuilt["secure"] is False


def test_render_deterministic():
    one = render_report(tls_dual_report(), "json")
    two = render_report(tls_dual_report(), "json")
    assert one == two
    assert render_report(tls_dual_report(), "text") == render_report(tls_dual_report(), "text")


@pytest.mark.parametrize("format", ["structured", "JSON", ""])
def test_render_rejects_other_formats(format):
    with pytest.raises(ValueError, match=f"unknown report format {format!r}"):
        render_report(tls_dual_report(), format)


def test_flawed_report_has_failing_line():
    model = builtin_dh()
    env = model.environment("nonideal")
    outcome = analyze_protocol(model, env)
    text = render_report(build_single_report(model, env, outcome), "text")
    assert "verdict: flawed" in text
    assert "failing: state=ExchangeA event=public_value_send" in text
    assert "secure: no" in text


def test_empty_trace_renders_marker():
    report = {
        "model": "m",
        "mode": "ideal",
        "environments": [
            {
                "kind": "ideal",
                "attackers": [],
                "verdict": "secure",
                "trace": [],
                "judgments": {"partial_order": True, "entailment": True, "matching": None},
                "failing": None,
            }
        ],
        "matched": None,
        "secure": True,
        "proofs": None,
        "duration_ms": None,
    }
    assert "trace: (empty)" in render_report(report, "text")


def test_color_toggle():
    plain = render_report(tls_dual_report(), "text", color=False)
    painted = render_report(tls_dual_report(), "text", color=True)
    assert "\x1b[32m" not in plain
    assert "\x1b[32msecure\x1b[0m" in painted


def test_machine_and_human_forms_carry_same_facts():
    report = tls_dual_report(duration=3.0)
    text = render_report(report, "text")
    rebuilt = json.loads(render_report(report, "json"))
    for env in rebuilt["environments"]:
        assert f"verdict: {env['verdict']}" in text
        assert " ".join(env["trace"]) in text
    assert rebuilt["proofs"]["forward"] in text
    assert rebuilt["proofs"]["contradiction"] in text


def test_entailment_judged_once_per_dual_command(monkeypatch, capsys):
    calls = []
    judge = lpict.analysis.entailment_judgment

    def counting(lts):
        calls.append(lts)
        return judge(lts)

    monkeypatch.setattr(lpict.analysis, "entailment_judgment", counting)
    assert run_cli(["analyze", "--model", "tls13", "--dual"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    model = builtin_tls13()
    env = model.environment("ideal")
    verdict = dual_environment_verdict(model)
    outcome = analyze_protocol(model, env)
    calls.clear()
    render_report(build_dual_report(model, verdict), "text")
    render_report(build_single_report(model, env, outcome), "json")
    assert calls == []


def test_dual_command_searches_once_and_checks_two_proofs(tmp_path, monkeypatch, capsys):
    import lpict.logic.search

    n = 400
    lines = ['protocol "Chain"']
    for i in range(1, n + 1):
        lines += [f"state C{i} {{", f"  event e{i} resists mitm replay", "}"]
    lines += [f"transition C{i} -> C{i + 1}" for i in range(1, n)]
    lines += ["initial C1", f"terminal C{n}", "environment ideal", "environment nonideal attackers mitm replay"]
    path = tmp_path / "chain.model"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    searches, checks = [], []
    search, check = lpict.logic.search._chain_to, lpict.analysis.check_proof

    def counting_search(premises, goal):
        searches.append(goal)
        return search(premises, goal)

    def counting_check(sequent, proof):
        checks.append(proof)
        return check(sequent, proof)

    monkeypatch.setattr(lpict.logic.search, "_chain_to", counting_search)
    monkeypatch.setattr(lpict.analysis, "check_proof", counting_check)
    assert run_cli(["analyze", "--model", str(path), "--dual", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(searches) == 1
    assert [len(proof) for proof in checks] == [2 * (n - 1) + 1, 2 * (n - 1) + 3]
