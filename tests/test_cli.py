import json
import re
from pathlib import Path

import pytest

from lpict.cli import run_cli
from lpict.models import builtin_dh, builtin_tls13, bundled_model_text, render_model
from lpict.pi.congruence import structurally_congruent
from lpict.pi.parser import parse_process


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


def test_terminal_with_outgoing_transitions_is_exit_2(tmp_path, capsys):
    # prove used to judge such a model valid while analyze rejected it
    path = tmp_path / "terminal.model"
    states = "".join(f"state {s} {{\n  event {s.lower()}\n}}\n" for s in "ABC")
    path.write_text(
        f'protocol "T"\n{states}transition A -> B\ntransition B -> C\ninitial A\nterminal B\n'
        "environment ideal\nenvironment nonideal attackers mitm\n",
        encoding="utf-8",
    )
    for command in ("analyze", "prove"):
        code, out, err = run(capsys, command, "--model", str(path))
        assert code == 2 and out == ""
        assert err == "error: terminal state 'B' has outgoing transitions (line 12)\n"


def test_reduce_steps(capsys):
    code, out, _ = run(capsys, "reduce", "--term", "x(y).y<c>.0 | x<z>.0", "--steps", "4")
    assert code == 0
    assert "[REACT']" in out
    assert "(stuck)" in out


def test_reduce_replication_reacts_with_itself(capsys):
    # the receive of one copy of the body hears the send of another
    code, out, _ = run(capsys, "reduce", "--term", "!(a(x).x<>.0 + a<b>.0) | b.c<>.0", "--steps", "1")
    assert code == 0
    assert "(stuck)" not in out
    assert [line for line in out.splitlines() if line.strip().startswith("[")] == [
        "  [REACT'] b.c<>.0 | b<>.0 | !(a(v0).v0<>.0 + a<b>.0)"
    ]


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


def test_match_trace_that_is_not_utf8_is_exit_2(tmp_path, monkeypatch, capsys):
    ideal = tmp_path / "ideal.trace"
    actual = tmp_path / "latin1.trace"
    ideal.write_text("S1:11\n", encoding="utf-8")
    actual.write_bytes("S1:11 Inité:1\n".encode("latin-1"))
    args = ["match", "--ideal", str(ideal), "--actual", str(actual)]
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read trace file {str(actual)!r}") and len(err.splitlines()) == 1
    assert run_main(monkeypatch, capsys, *args) == (code, out, err)


def test_match_trace_behind_a_byte_order_mark(tmp_path, capsys):
    ideal = tmp_path / "ideal.trace"
    actual = tmp_path / "actual.trace"
    ideal.write_text("\ufeffS1:1\n", encoding="utf-8")
    actual.write_text("S1:1 S2:11\n", encoding="utf-8")
    code, out, _ = run(capsys, "match", "--ideal", str(ideal), "--actual", str(actual))
    assert (code, out) == (0, "match at index 1\n")


@pytest.mark.parametrize("command", ["analyze", "prove", "reduce", "match", "models"])
def test_every_subcommand_has_help(command, capsys):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: lpict {command}")


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
    """Exit code, stdout and stderr of the console entry point."""
    from lpict.cli import main

    monkeypatch.setattr("sys.argv", ["lpict", *args])
    with pytest.raises(SystemExit) as exc:
        main()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_model_path_that_is_a_directory_is_exit_2(tmp_path, monkeypatch, capsys):
    code, _, err = run_main(monkeypatch, capsys, "analyze", "--model", str(tmp_path), "--dual")
    assert code == 2
    assert err.startswith(f"error: cannot read model file {str(tmp_path)!r}") and len(err.splitlines()) == 1


def test_model_file_that_is_not_utf8_is_exit_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "latin1.model"
    path.write_bytes(render_model(builtin_dh()).replace("Init", "Inité").encode("latin-1"))
    code, _, err = run_main(monkeypatch, capsys, "analyze", "--model", str(path), "--dual")
    assert code == 2
    assert err.startswith(f"error: cannot read model file {str(path)!r}") and len(err.splitlines()) == 1


def test_model_file_behind_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.model"
    path.write_text("\ufeff" + bundled_model_text("dh"), encoding="utf-8")
    reports = []
    for model in (str(path), "dh"):
        code, out, err = run(capsys, "analyze", "--model", model, "--dual", "--format", "json")
        assert (code, err) == (1, "")
        reports.append(dict(json.loads(out), duration_ms=None))
    assert reports[0] == reports[1]


def test_state_named_false_is_exit_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "false.model"
    path.write_text(render_model(builtin_dh()).replace("Init", "false"))
    code, out, err = run_main(monkeypatch, capsys, "analyze", "--model", str(path), "--dual")
    assert (code, out) == (2, "")
    assert err.startswith("error: 'false' is a formula keyword and cannot name a state or an event (line ")
    assert len(err.splitlines()) == 1


def test_unexpected_exception_is_exit_2_through_main(monkeypatch, capsys):
    import lpict.cli

    def broken(args):
        raise KeyError("boom\nsecond line")

    monkeypatch.setattr(lpict.cli, "_cmd_models", broken)
    with pytest.raises(KeyError):
        run_cli(["models"])  # run_cli maps only lpict's own errors
    code, _, err = run_main(monkeypatch, capsys, "models")
    assert code == 2
    assert err == "error: internal error: KeyError('boom\\nsecond line')\n"


def test_reduce_wide_level_through_main(monkeypatch, capsys):
    # 1500 components side by side are one level: wide, not nested
    term = " | ".join(["x<a>.0"] * 1500)
    code, out, err = run_main(monkeypatch, capsys, "reduce", "--term", term)
    assert (code, err) == (0, "")
    assert out == f"step 0: {term}\n  (stuck)\n"


def test_reduce_wide_level_reacts_once(monkeypatch, capsys):
    # the senders are interchangeable, and so are the receivers, so the
    # 750 * 750 pairs give one successor
    term = " | ".join(["x<a>.0"] * 750 + ["x(y).y<c>.0"] * 750)
    code, out, err = run_main(monkeypatch, capsys, "reduce", "--term", term, "--steps", "1")
    assert (code, err) == (0, "")
    successors = [line for line in out.splitlines() if line.startswith("  [")]
    assert len(successors) == 1 and successors[0].startswith("  [REACT'] ")
    expected = parse_process(" | ".join(["x<a>.0"] * 749 + ["x(y).y<c>.0"] * 749 + ["a<c>.0"]))
    assert structurally_congruent(parse_process(successors[0].split("] ", 1)[1]), expected)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, color, code, args",
    [
        ("dh_dual.txt", "0", 1, ["--dual"]),
        ("dh_dual.json", "0", 1, ["--dual", "--format", "json"]),
        ("dh_nonideal.txt", "0", 1, ["--env", "nonideal"]),
        ("dh_nonideal.json", "0", 1, ["--env", "nonideal", "--format", "json"]),
        ("tls13_dual_color.txt", "1", 0, ["--dual"]),
    ],
)
def test_analyze_output_is_byte_exact(golden, color, code, args, monkeypatch, capsys):
    model = golden.split("_")[0]
    monkeypatch.setenv("LPICT_COLOR", color)
    got, out, _ = run(capsys, "analyze", "--model", model, *args)
    assert got == code
    out = re.sub(r"duration: [0-9.]+ ms", "duration: 0.0 ms", out)
    out = re.sub(r'"duration_ms": [0-9.eE+-]+', '"duration_ms": 0', out)
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


# Terms of the benchmark's pi-terms shape, and a replication that reacts with
# itself, stepped twice. The files were recorded before successors were keyed
# from their parent's labelling, and the 8 restricted one before successors
# shared their decoded components, so they pin that the output did not move.
REDUCE_GOLDENS = {
    "reduce_plain_4.txt": " | ".join(
        f"ch417<{m}>.0" if m else "ch417(y).y<c588>.0"
        for m in ["m203", None, "m911", None, None, "m350", "m764", None]
    ),
    "reduce_restricted_4.txt": " | ".join(
        f"ch602(y).y<{b}>.0" if b else "new k ch602<k>.k(v).0"
        for b in ["b319", None, None, "b847", None, "b125", "b560", None]
    ),
    "reduce_bang.txt": "!(a.0 + a<>.0) | new k a<k>.0",
    "reduce_restricted_8_steps2.txt": " | ".join(["new k x<k>.k(v).0"] * 8 + [f"x(y).y<b{i}>.0" for i in range(8)]),
}


@pytest.mark.parametrize("golden", sorted(REDUCE_GOLDENS))
def test_reduce_output_is_byte_exact(golden, capsys):
    code, out, err = run(capsys, "reduce", "--term", REDUCE_GOLDENS[golden], "--steps", "2")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
