import gc
import itertools
import json
import weakref

import pytest

import lpict.analysis
import lpict.cli
from lpict.analysis import analyze_protocol, dual_environment_verdict
from lpict.cli import run_cli
from lpict.errors import MissingEnvironmentError, ValidationError
from lpict.models import (
    AttackerCapability,
    EnvironmentConfig,
    ProtocolModel,
    builtin_dh,
    builtin_tls13,
    bundled_model_text,
    load_model,
    with_attackers,
)
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
    # A built-in model keeps its judgment for the whole process: load it anew,
    # and count the search that the judgment makes, not the memoized lookup.
    builtin_tls13.cache_clear()
    calls, search = [], lpict.analysis.search_both
    monkeypatch.setattr(lpict.analysis, "search_both", lambda premises, goal: calls.append(goal) or search(premises, goal))
    assert run_cli(["analyze", "--model", "tls13", "--dual"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    builtin_tls13.cache_clear()
    model = builtin_tls13()
    env = model.environment("ideal")
    verdict = dual_environment_verdict(model)
    outcome = analyze_protocol(model, env)
    assert len(calls) == 2
    kept = set(model.lts.__dict__)
    render_report(build_dual_report(model, verdict), "text")
    render_report(build_single_report(model, env, outcome), "json")
    assert len(calls) == 2
    assert set(model.lts.__dict__) == kept  # the proof text is kept on the judgment, not the system


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


# Every set of attacker capabilities, by word: the 2^5 non-ideal environments.
ATTACKER_SETS = [subset for r in range(6) for subset in itertools.combinations([c.value for c in AttackerCapability], r)]


def test_every_attacker_set_reuses_one_ideal_run_and_judgment(monkeypatch, capsys):
    # A built-in model keeps its judgment for the whole process: load it anew.
    builtin_tls13.cache_clear()
    calls = {"search": 0, "check": 0, "ideal": 0}

    def counting(key, fn, counted=lambda *args: True):
        def wrapper(*args):
            calls[key] += counted(*args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(lpict.analysis, "search_both", counting("search", lpict.analysis.search_both))
    monkeypatch.setattr(lpict.analysis, "check_proof", counting("check", lpict.analysis.check_proof))
    monkeypatch.setattr(lpict.cli, "check_proof", counting("check", lpict.cli.check_proof))
    ideal = counting("ideal", lpict.analysis.apply_environment, lambda model, env: env.kind == "ideal")
    monkeypatch.setattr(lpict.analysis, "apply_environment", ideal)
    model = builtin_tls13()
    for attackers in ATTACKER_SETS:
        assert dual_environment_verdict(with_attackers(model, attackers)).ideal.secure
    assert analyze_protocol(model, model.environment("ideal")).secure
    assert calls == {"search": 1, "check": 2, "ideal": 1}
    for style in ("forward", "contradiction"):
        assert run_cli(["prove", "--model", "tls13", "--style", style]) == 0
    assert "valid: yes" in capsys.readouterr().out
    assert calls == {"search": 1, "check": 2, "ideal": 1}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reports_from_a_kept_run_equal_those_of_a_fresh_model(fmt):
    def reports(model):
        env = model.environment("ideal")
        return (build_dual_report(model, dual_environment_verdict(model)),
                build_single_report(model, env, analyze_protocol(model, env)))

    warm = builtin_tls13()
    for report in reports(warm):  # a caller may change its report; the next one is whole
        report["proofs"]["forward"] = ""
    for attackers in ATTACKER_SETS:
        kept = reports(with_attackers(warm, attackers))
        fresh = reports(with_attackers(load_model(bundled_model_text("tls13")), attackers))
        assert [render_report(r, fmt) for r in kept] == [render_report(r, fmt) for r in fresh]


def test_a_kept_run_still_checks_the_environment():
    model = builtin_tls13()
    dual_environment_verdict(model)
    nonideal_only = ProtocolModel(model.name, model.lts, (model.environment("nonideal"),))
    with pytest.raises(ValidationError, match="does not belong"):
        analyze_protocol(nonideal_only, EnvironmentConfig("ideal"))
    with pytest.raises(MissingEnvironmentError):
        dual_environment_verdict(nonideal_only)


def test_a_model_read_from_a_file_dies_with_its_command(tmp_path, monkeypatch, capsys):
    path = tmp_path / "tls13.model"
    path.write_text(bundled_model_text("tls13"), encoding="utf-8")
    systems, load = [], lpict.cli.load_model
    monkeypatch.setattr(lpict.cli, "load_model", lambda text: systems.append(load(text)) or systems[-1])
    assert run_cli(["analyze", "--model", str(path), "--dual"]) == 0
    capsys.readouterr()
    lts = systems.pop().lts
    assert {"_entailment", "_ideal_run"} <= lts.__dict__.keys()
    assert "text" in lts.__dict__["_entailment"].__dict__
    system, judgment = weakref.ref(lts), weakref.ref(lts.__dict__["_entailment"])
    del lts
    gc.collect()
    assert system() is None and judgment() is None
