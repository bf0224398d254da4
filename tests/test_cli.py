import json
from hashlib import sha256

import pytest

from qthook import cli, suites
from qthook.cli import main
from qthook.report import VerificationReport, timed


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_hook_exact(capsys):
    code, out, _ = run_cli(["verify", "hook", "--family", "shifted",
                            "--alpha", "2,1", "--degree", "3",
                            "--mode", "exact"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"] == "pass"
    assert report["schemaVersion"] == 1
    assert report["check"] == "hook" and report["D"] == 3


def test_verify_hook_eval_seeded(capsys):
    argv = ["verify", "hook", "--family", "bird", "--alpha", "2,1",
            "--beta", "2,1", "--f", "1", "--degree", "3", "--mode", "eval",
            "--points", "3", "--seed", "42"]
    code, out1, _ = run_cli(argv, capsys)
    assert code == 0
    code, out2, _ = run_cli(argv, capsys)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsedMs"), d2.pop("elapsedMs")
    assert d1 == d2  # byte-identical modulo timing


def test_env_seed_stands_in_for_seed(capsys, monkeypatch):
    argv = ["verify", "hook", "--family", "bird", "--alpha", "2,1",
            "--beta", "2,1", "--f", "1", "--degree", "3", "--mode", "eval",
            "--points", "3"]
    code, given, _ = run_cli(argv + ["--seed", "42"], capsys)
    monkeypatch.setenv("QTHOOK_SEED", "42")
    code_env, from_env, _ = run_cli(argv, capsys)
    code_both, both, _ = run_cli(argv + ["--seed", "7"], capsys)
    assert code == code_env == code_both == 0
    points = [json.loads(out)["points"] for out in (given, from_env, both)]
    assert points[0] == points[1] != points[2]


def test_verify_hook_usage_error(capsys):
    code, _, err = run_cli(["verify", "hook", "--family", "bird",
                            "--alpha", "2", "--beta", "2,1", "--f", "1",
                            "--degree", "3"], capsys)
    assert code == 2
    assert "length 2" in err


USAGE_ERRORS = [  # (argv, environment)
    (["verify", "hook", "--family", "shifted", "--alpha", "2,1",
      "--degree", "-1"], {}),
    (["verify", "identity", "--name", "gasper", "--trials", "-3"], {}),
    (["verify", "all", "--points", "0"], {}),
    (["verify", "hook", "--family", "shifted", "--alpha", "1", "--degree", "1",
      "--out", "/nonexistent/dir/r.json"], {}),
    (["show", "poset", "--family", "shifted", "--alpha", "2,1",
      "--format", "dot", "--out", "/nonexistent/dir/p.dot"], {}),
    (["verify", "identity", "--name", "lemma", "--trials", "5"], {}),
    (["verify", "hook", "--family", "banner", "--alpha", "4,3,2,1", "--f", "1"],
     {}),
    (["verify", "hook", "--family", "shifted", "--alpha", "2,2"], {}),
    (["verify", "hook", "--family", "shifted", "--alpha", "1", "--degree", "1"],
     {"QTHOOK_SEED": "abc"}),
    (["verify", "hook", "--family", "shifted", "--alpha", "2,1", "--beta", "1",
      "--degree", "2"], {}),
    (["verify", "hook", "--family", "shifted", "--alpha", "2,1", "--f", "3"], {}),
    (["verify", "hook", "--family", "banner", "--alpha", "4,3,2,1",
      "--beta", "3", "--f", "2"], {}),
    (["show", "poset", "--family", "shifted", "--alpha", "2,1", "--f", "3"], {}),
    (["show", "hooks", "--family", "banner", "--alpha", "4,3,2,1",
      "--beta", "3", "--f", "2"], {}),
    (["verify", "hook", "--family", "shifted", "--alpha", "3,x"], {}),
    (["verify", "hook", "--family", "shifted", "--alpha", "1,2"], {}),
    (["verify", "hook", "--family", "shifted", "--alpha", "3,-1"], {}),
    (["verify", "hook", "--family", "bird", "--alpha", "2,1", "--beta", "2,x",
      "--f", "1"], {}),
    (["verify", "hook", "--family", "shifted", "--alpha", "2,1", "--degree",
      "2", "--mode", "eval", "--points", "0"], {}),
    (["verify", "hook", "--family", "shifted", "--alpha", "3,0,1", "--degree",
      "2"], {}),
]


@pytest.mark.parametrize("argv, env", USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_usage_errors_exit_2(argv, env, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_identity(capsys):
    code, out, _ = run_cli(["verify", "identity", "--name", "gasper",
                            "--trials", "10", "--seed", "7"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == "pass"
    code, out, _ = run_cli(["verify", "identity", "--name", "lemma"], capsys)
    assert code == 0


def test_verify_identity_unknown(capsys):
    code, _, err = run_cli(["verify", "identity", "--name", "nonsuch"], capsys)
    assert code == 2


def test_show_poset_dot(capsys):
    code, out, _ = run_cli(["show", "poset", "--family", "banner",
                            "--alpha", "9,6,3,2", "--f", "2",
                            "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph hasse")
    # 22 vertices in this banner
    assert out.count("label=") == 22
    assert '(4,3):zm1' in out


def test_show_poset_json(capsys):
    code, out, _ = run_cli(["show", "poset", "--family", "bird",
                            "--alpha", "4,3", "--beta", "3,2", "--f", "2",
                            "--format", "json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["dComplete"] is True
    assert d["hookAgreement"] is True
    assert len(d["elements"]) == 14
    assert any(iv["k"] == 3 for iv in d["dkIntervals"])


def test_show_hooks(capsys):
    code, out, _ = run_cli(["show", "hooks", "--family", "shifted",
                            "--alpha", "2,1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert len(d["hooks"]) == 3 and d["agreement"] is True


def test_hook_agreement_is_per_element(capsys, monkeypatch):
    # the closed form with two elements' hooks swapped: the same multiset
    real = cli.hook_monomials_closed_form

    def swapped(poset):
        hooks = real(poset)
        (a, ha), (b, hb) = [(e, m) for e, m in hooks.items()][:2]
        assert ha != hb
        hooks[a], hooks[b] = hb, ha
        return hooks

    monkeypatch.setattr(cli, "hook_monomials_closed_form", swapped)
    argv = ["--family", "shifted", "--alpha", "2,1"]
    _, out, _ = run_cli(["show", "hooks", *argv], capsys)
    assert json.loads(out)["agreement"] is False
    _, out, _ = run_cli(["show", "poset", *argv, "--format", "json"], capsys)
    assert json.loads(out)["hookAgreement"] is False


def test_timed_fills_elapsed_ms_when_the_block_raises():
    report = VerificationReport(check="hook")
    with pytest.raises(RuntimeError):
        with timed(report):
            raise RuntimeError("stop")
    assert report.elapsed_ms > 0


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("weight plan out of order")

    monkeypatch.setattr(suites, "verify_poset", broken)
    code, out, err = run_cli(["verify", "hook", "--family", "shifted",
                              "--alpha", "2,1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "internal error: AssertionError: weight plan out of order\n"


def test_show_missing_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["show", "poset", "--format", "json"])
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", "hook", "--family", "shifted",
                          "--alpha", "1", "--degree", "4",
                          "--mode", "eval", "--points", "2",
                          "--seed", "5", "--out", str(path)], capsys)
    assert code == 0
    report = json.loads(path.read_text())
    assert report["result"] == "pass"
    assert len(report["points"]) == 2


@pytest.mark.slow
def test_verify_all_desk_profile(capsys):
    code, out, err = run_cli(["verify", "all", "--profile", "desk",
                              "--seed", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "pass"
    # all hook instances plus every named identity
    assert len(payload["checks"]) == len(suites_all_expected())
    assert "PASS" in err
    # pinned, timings aside: a speed-up must not change a report
    assert sha256(json.dumps(without_elapsed(payload), sort_keys=True)
                  .encode()).hexdigest() == VERIFY_ALL_SEED0_SHA256


VERIFY_ALL_SEED0_SHA256 = \
    "0b0659fdf1038763c45d72c777f861c50cf7a43dc45fc6ea24d190f615f55467"


def without_elapsed(obj):
    if isinstance(obj, dict):
        return {k: without_elapsed(v) for k, v in obj.items()
                if k != "elapsedMs"}
    if isinstance(obj, list):
        return [without_elapsed(v) for v in obj]
    return obj


def test_verify_all_prints_each_line_as_its_check_finishes(capsys, monkeypatch):
    # the identities are stubbed out: what matters is that every hook line
    # is on stderr before the first identity starts
    seen = []

    def run_identity(name, seed=0, trials=50):
        if not seen:
            seen.append(capsys.readouterr().err)
        return VerificationReport(check=name, mode="exact")

    monkeypatch.setattr(suites, "run_identity", run_identity)
    code, _, _ = run_cli(["verify", "all", "--seed", "0"], capsys)
    assert code == 0
    lines = seen[0].splitlines()
    assert len(lines) == len(suites.DESK_HOOKS)
    assert all(line.startswith("PASS hook ") for line in lines)


def suites_all_expected():
    from qthook.suites import DESK_HOOKS, IDENTITY_NAMES

    return DESK_HOOKS + [(n,) for n in IDENTITY_NAMES]
