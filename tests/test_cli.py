import json

import pytest

from lpict.cli import run_cli
from lpict.models import builtin_dh, builtin_tls13, render_model


def run(capsys, *args):
    code = run_cli(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_dual_tls_secure(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "tls13", "--dual")
    assert code == 0
    assert "matched: yes" in out
    assert "secure: yes" in out


def test_analyze_dh_nonideal_mitm_flawed(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "dh", "--env", "nonideal", "--attackers", "mitm")
    assert code == 1
    assert "failing: state=ExchangeA event=public_value_send" in out


def test_analyze_json_output(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "dh", "--env", "nonideal", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["secure"] is False
    assert data["environments"][0]["failing"]["event"] == "public_value_send"


def test_analyze_model_from_file(tmp_path, capsys):
    path = tmp_path / "dh.model"
    path.write_text(render_model(builtin_dh()), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--model", str(path), "--env", "ideal")
    assert code == 0
    assert "verdict: secure" in out


def test_analyze_unknown_model(capsys):
    code, _, err = run(capsys, "analyze", "--model", "nope")
    assert code == 2
    assert "error" in err


def test_analyze_bad_attackers(capsys):
    code, _, err = run(capsys, "analyze", "--model", "dh", "--env", "nonideal", "--attackers", "quantum")
    assert code == 2
    assert "quantum" in err


def test_analyze_attackers_need_nonideal_context(capsys):
    code, _, err = run(capsys, "analyze", "--model", "dh", "--attackers", "mitm")
    assert code == 2
    assert "--env nonideal or --dual" in err
    code, _, _ = run(capsys, "analyze", "--model", "dh", "--dual", "--attackers", "mitm")
    assert code == 1  # dual with overridden attackers runs fine


def test_prove_forward(capsys):
    code, out, _ = run(capsys, "prove", "--model", "tls13", "--style", "forward")
    assert code == 0
    assert "forward proof (13 lines):" in out
    assert "valid: yes" in out


def test_prove_contradiction(capsys):
    code, out, _ = run(capsys, "prove", "--model", "tls13", "--style", "contradiction")
    assert code == 0
    assert "contradiction proof (15 lines):" in out
    assert out.rstrip().splitlines()[-2].endswith("!e 13,14")


def test_prove_json(capsys):
    code, out, _ = run(capsys, "prove", "--model", "tls13", "--style", "contradiction", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert len(data["lines"]) == 15


def test_reduce_steps(capsys):
    code, out, _ = run(capsys, "reduce", "--term", "x(y).y<c>.0 | x<z>.0", "--steps", "4")
    assert code == 0
    assert "[REACT']" in out
    assert "(stuck)" in out


def test_deep_nesting_is_exit_2(tmp_path, capsys):
    # exit 1 means "flawed", so a crash on deeply nested input must not exit 1
    term = "(" * 1200 + "0" + ")" * 1200
    code, out, err = run(capsys, "reduce", "--term", term)
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    path = tmp_path / "deep_guard.model"
    text = render_model(builtin_dh())
    path.write_text(text.replace("action exchange1", "action exchange1 when " + "!" * 1500 + "Init"), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--model", str(path), "--dual")
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_false_guard_exits_1(tmp_path, capsys):
    # ClientHello holds in both runs, so the guard blocks the first transition
    path = tmp_path / "tls13-guarded.model"
    text = render_model(builtin_tls13()).replace("action msg1", "action msg1 when !ClientHello")
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--model", str(path), "--dual", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["secure"] is False and data["proofs"] is None
    for env in data["environments"]:
        assert env["verdict"] == "flawed"
        assert env["failing"] == {"state": "S1", "event": "msg1"}
        assert env["trace"] == ["S1:11111"]
    code, out, _ = run(capsys, "analyze", "--model", str(path), "--env", "ideal")
    assert code == 1 and "failing: state=S1 event=msg1" in out


def test_reduce_parse_error(capsys):
    code, _, err = run(capsys, "reduce", "--term", "x((")
    assert code == 2
    assert "error" in err


def test_match_subcommand(tmp_path, capsys):
    ideal = tmp_path / "ideal.trace"
    actual = tmp_path / "actual.trace"
    ideal.write_text("S1:11 S2:10\n", encoding="utf-8")
    actual.write_text("S1:11 S2:10\n", encoding="utf-8")
    code, out, _ = run(capsys, "match", "--ideal", str(ideal), "--actual", str(actual))
    assert code == 0 and "match at index 1" in out

    actual.write_text("S1:11 S2:00\n", encoding="utf-8")
    code, out, _ = run(capsys, "match", "--ideal", str(ideal), "--actual", str(actual))
    assert code == 1 and "no match" in out


def test_match_with_pos(tmp_path, capsys):
    ideal = tmp_path / "p.trace"
    actual = tmp_path / "t.trace"
    ideal.write_text("A B\n", encoding="utf-8")
    actual.write_text("A B A B\n", encoding="utf-8")
    code, out, _ = run(capsys, "match", "--ideal", str(ideal), "--actual", str(actual), "--pos", "2")
    assert code == 0 and "match at index 3" in out


def test_match_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "match", "--ideal", str(tmp_path / "a"), "--actual", str(tmp_path / "b"))
    assert code == 2


def test_analyze_missing_environment(tmp_path, capsys):
    from lpict.models import EnvironmentConfig, ProtocolModel

    base = builtin_dh()
    only_ideal = ProtocolModel(base.name, base.lts, (EnvironmentConfig("ideal"),))
    path = tmp_path / "ideal_only.model"
    path.write_text(render_model(only_ideal), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--model", str(path), "--env", "nonideal")
    assert code == 2
    assert "nonideal" in err


def test_models_listing(capsys):
    code, out, _ = run(capsys, "models")
    assert code == 0
    assert "tls13" in out and "dh" in out


def test_usage_error_is_exit_2(capsys):
    assert run_cli(["analyze"]) == 2  # --model is required
    capsys.readouterr()


def test_color_env_toggle(capsys, monkeypatch):
    monkeypatch.setenv("LPICT_COLOR", "1")
    code, out, _ = run(capsys, "analyze", "--model", "tls13", "--dual")
    assert code == 0
    assert "\x1b[32m" in out
    monkeypatch.setenv("LPICT_COLOR", "0")
    code, out, _ = run(capsys, "analyze", "--model", "tls13", "--dual")
    assert "\x1b[32m" not in out


def run_main(monkeypatch, capsys, *args):
    """Exit code and stderr of the console entry point."""
    from lpict.cli import main

    monkeypatch.setattr("sys.argv", ["lpict", *args])
    with pytest.raises(SystemExit) as exc:
        main()
    return exc.value.code, capsys.readouterr().err


def test_model_path_that_is_a_directory_is_exit_2(tmp_path, monkeypatch, capsys):
    code, err = run_main(monkeypatch, capsys, "analyze", "--model", str(tmp_path), "--dual")
    assert code == 2
    assert err.startswith(f"error: cannot read model file {str(tmp_path)!r}") and len(err.splitlines()) == 1


def test_model_file_that_is_not_utf8_is_exit_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "latin1.model"
    path.write_bytes(render_model(builtin_dh()).replace("Init", "Inité").encode("latin-1"))
    code, err = run_main(monkeypatch, capsys, "analyze", "--model", str(path), "--dual")
    assert code == 2
    assert err.startswith(f"error: cannot read model file {str(path)!r}") and len(err.splitlines()) == 1
