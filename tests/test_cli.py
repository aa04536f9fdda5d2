from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from hvectors import cli, inverse_systems
from hvectors.cli import main
from hvectors.inverse_systems import VerificationReport
from oracles import ones

# JSON reports of fixed commands, pinned byte for byte: the ranks, verdicts
# and trial seeds must not drift between versions of the code.  The
# reports hold no sample or matrix; test_inverse_systems pins the sampled
# witnesses themselves (WITNESS_DIGESTS).
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_reports.json").read_text(encoding="utf-8")
)
GORENSTEIN_E6 = "1,10,14,20,14,10,1"
LEVEL_E6 = "1,3,6,10,8,7"


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_example(capsys) -> None:
    code, out, _ = run_cli(capsys, "check", GORENSTEIN_E6)
    assert code == 0
    assert "symmetric      ✓" in out
    assert "unimodal       ✓" in out
    assert "SI-sequence    ✗ (violation at difference step 2->3)" in out


def test_check_accepts_loose_syntax(capsys) -> None:
    code, out, _ = run_cli(capsys, "check", " (1, 3, 3, 1) ")
    assert code == 0
    assert "SI-sequence    ✓" in out


def test_check_json_roundtrip(capsys) -> None:
    code, out, _ = run_cli(capsys, "check", GORENSTEIN_E6, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["si_sequence"] is False
    assert payload["symmetric"] is True
    assert payload["violations"]["si_sequence"] == {
        "kind": "difference-growth", "index": 2,
    }
    redumped = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert redumped == out


def test_check_malformed_vector(capsys) -> None:
    code, _, err = run_cli(capsys, "check", "1,2,x")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "check", "3,2,1")
    assert code == 2


def test_construct_thm_e_example(capsys) -> None:
    code, out, _ = run_cli(capsys, "construct", "thm-e", "--e", "6")
    assert code == 0
    assert LEVEL_E6 in out
    assert GORENSTEIN_E6 in out
    assert "codimension    10" in out


def test_construct_thm_e_below_six_exits_two(capsys) -> None:
    code, _, err = run_cli(capsys, "construct", "thm-e", "--e", "5")
    assert code == 2
    assert "SI-sequence" in err


def test_construct_thm_r_csv_rows(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "construct", "thm-r", "--d", "10", "--parity", "even",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines == [
        "thm-r-even,10,level,1,3,6,10,15,21,28,36,45,55,66,67,68,"
        "56,42,30,20,12,6,2",
        "thm-r-even,10,gorenstein,1,5,12,22,35,51,70,92,113,122,132,"
        "122,113,92,70,51,35,22,12,5,1",
    ]
    json_tail = ("--d", "10", "--parity", "even", "--format", "json")
    _, built, _ = run_cli(capsys, "construct", "thm-r", *json_tail)
    _, verified, _ = run_cli(capsys, "verify", "thm-r", "--trials", "1",
                             *json_tail)
    assert json.loads(built)["kind"] == json.loads(verified)["reports"][0][
        "kind"] == "thm-r-even"


def test_construct_lift(capsys) -> None:
    code, out, _ = run_cli(capsys, "construct", "thm-e", "--e", "6", "--a", "2")
    assert code == 0
    assert "1,12,16,22,16,12,1" in out
    assert "codimension    12" in out
    # The lifted vector has no level companion, in any format.
    lifted = ("construct", "thm-e", "--e", "6", "--a", "2", "--format")
    code, out, _ = run_cli(capsys, *lifted, "csv")
    assert (code, out) == (0, "thm-e,6,gorenstein,1,12,16,22,16,12,1\n")
    code, out, _ = run_cli(capsys, *lifted, "json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["lift"], payload["level"]) == (2, None)
    assert payload["gorenstein"] == [1, 12, 16, 22, 16, 12, 1]


def test_construct_negative_lift_exits_two(capsys) -> None:
    code, out, err = run_cli(capsys, "construct", "thm-e", "--e", "6",
                             "--a", "-1")
    assert code == 2
    assert out == ""
    assert "lift amount must be nonnegative, got -1" in err


def test_construct_and_verify_refuse_a_parameter_alike(capsys) -> None:
    """The library refuses a parameter with no construction, so both
    commands give its reason, and a range stops at its first member."""
    for kind, flag, value, extra in (("thm-e", "--e", "5", ()),
                                     ("thm-r", "--d", "9", ("--parity",
                                                            "odd"))):
        errors = set()
        for command in ("construct", "verify"):
            code, out, err = run_cli(capsys, command, kind, flag, value,
                                     *extra)
            assert (code, out) == (2, "")
            errors.add(err)
        assert len(errors) == 1
    code, out, err = run_cli(capsys, "verify", "thm-e", "--e", "3..8")
    assert (code, out) == (2, "")
    assert "socle degree 3 < 6 is an SI-sequence" in err


def test_construct_missing_parameters(capsys) -> None:
    assert run_cli(capsys, "construct", "thm-r", "--d", "10")[0] == 2
    assert run_cli(capsys, "construct", "thm-e")[0] == 2
    assert run_cli(capsys, "construct", "thm-r", "--d", "9",
                   "--parity", "odd")[0] == 2
    assert run_cli(capsys, "construct", "thm-e", "--e", "6",
                   "--parity", "odd")[0] == 2


def test_verify_thm_e_range(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "verify", "thm-e", "--e", "6..7", "--trials", "1",
        "--seed", "3",
    )
    assert code == 0
    assert out.count("verdict match") == 2


def test_verify_json_is_deterministic(capsys) -> None:
    args = ("verify", "thm-e", "--e", "6", "--trials", "2", "--seed", "11",
            "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    report = payload["reports"][0]
    assert report["verdict"] == "match"
    assert report["generator"] == "splitmix64"
    assert report["seed"] == 11
    assert report["characteristic"] == 32003
    assert report["command"].startswith("hvectors verify")
    redumped = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert redumped == out1


def test_verify_mismatch_exits_one(capsys, monkeypatch) -> None:
    monkeypatch.setattr(inverse_systems, "sample_scalars", ones)
    code, out, _ = run_cli(
        capsys, "verify", "thm-e", "--e", "6", "--field", "32003",
        "--trials", "1", "--seed", "0",
    )
    assert code == 1
    assert "verdict mismatch" in out
    assert "at most (6/32003)**1 likely if the target holds" in out


def test_sweep_below_the_caps_runs_every_trial(capsys, monkeypatch) -> None:
    """With every sample 1 no trial reaches the caps, so all five
    requested trials run and are reported."""
    monkeypatch.setattr(inverse_systems, "sample_scalars", ones)
    code, out, _ = run_cli(
        capsys, "sweep", "thm-e", "--e", "6", "--chars", "32003",
        "--trials", "5", "--format", "json",
    )
    assert code == 1
    (report,) = json.loads(out)["reports"]
    assert report["verdict"] == "mismatch"
    assert report["trials"] == 5
    assert len(report["per_trial"]) == len(report["trial_seeds"]) == 5


def test_verify_validates_input(capsys) -> None:
    assert run_cli(capsys, "verify", "thm-e", "--e", "5")[0] == 2
    assert run_cli(capsys, "verify", "thm-e", "--e", "6",
                   "--field", "15")[0] == 2
    assert run_cli(capsys, "verify", "thm-e", "--e", "6",
                   "--field", "0,101")[0] == 2
    assert run_cli(capsys, "verify", "thm-e", "--e", "6",
                   "--trials", "0")[0] == 2
    assert run_cli(capsys, "verify", "thm-r", "--d", "10..9")[0] == 2
    assert run_cli(capsys, "verify", "thm-e", "--e", "oops")[0] == 2


def test_verify_inconclusive_exits_three(capsys) -> None:
    """GF(13) is too small for thm-r d=10 to reach its caps, or for a
    Schwartz-Zippel bound below 1 on missing them."""
    code, out, _ = run_cli(capsys, "sweep", "thm-r", "--d", "10",
                           "--chars", "13")
    assert code == 3
    assert out.count("verdict inconclusive") == 2
    assert out.count("GF(13) is too small to bound a miss") == 2


def test_mismatch_outranks_inconclusive(capsys, monkeypatch) -> None:
    inconclusive = VerificationReport("thm-r-odd", 10, 101, 0, 1, (1,))
    for other, expected in ((dict(verdict="match"), 3),
                            (dict(verdict="mismatch"), 1)):
        reports = [inconclusive, replace(inconclusive, **other)]
        monkeypatch.setattr(cli, "sweep_characteristics",
                            lambda *args, reports=reports: reports)
        assert run_cli(capsys, "verify", "thm-r", "--d", "10", "--parity",
                       "odd", "--trials", "1")[0] == expected


def test_verify_csv(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "verify", "thm-e", "--e", "6", "--trials", "1",
        "--seed", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("thm-e,6,target,1,3,6,10,8,7")
    assert lines[1].startswith("thm-e,6,trial0,")
    assert lines[-1].startswith("thm-e,6,best,")


def test_sweep_rejects_bad_characteristics(capsys) -> None:
    assert run_cli(capsys, "sweep", "thm-e", "--e", "6",
                   "--chars", "0,15")[0] == 2
    # Only sweep can name no characteristic: verify's ``--field ,`` is
    # refused first, as more than one.
    code, out, err = run_cli(capsys, "sweep", "thm-e", "--e", "6",
                             "--chars", ",")
    assert (code, out) == (2, "")
    assert "characteristics list is empty" in err


def test_sweep_small(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "sweep", "thm-e", "--e", "6", "--chars", "101,1009",
        "--trials", "1", "--seed", "2",
    )
    assert code == 0
    assert out.count("verdict match") == 2
    assert "GF(101)" in out and "GF(1009)" in out


# Each input is invalid for verify and sweep alike, for the reason named
# in the second column: the CLI parses and the library refuses values, so
# the two commands give one text, before any trial samples.
# "{field}" stands for --field or --chars.
INVALID_RUNS = [
    (("thm-e", "--e", "5"), "socle degree 5 < 6 is an SI-sequence"),
    (("thm-r", "--d", "9", "--parity", "odd"), "d must be >= 10, got 9"),
    (("thm-e", "--e", "6", "--d", "10"), "thm-e does not take --d"),
    (("thm-e", "--e", "6", "--parity", "odd"), "thm-e does not take --parity"),
    (("thm-r", "--d", "10", "--e", "6"), "thm-r does not take --e"),
    (("thm-e", "--e", "7..6"), "empty range"),
    (("thm-r", "--d", "12..10"), "empty range"),
    (("thm-e", "--e", "6", "--trials", "0"), "trials must be positive, got 0"),
    (("thm-e", "--e", "6", "{field}", "15"), "0 or a prime, got 15"),
    # A strong pseudoprime to the first 12 prime bases.
    (("thm-e", "--e", "6", "{field}", "318665857834031151167461"),
     "0 or a prime, got 318665857834031151167461"),
    # The first prime above 2**63, past the uint64 range of the arrays.
    (("thm-e", "--e", "6", "{field}", "9223372036854775837"), "below 2**63"),
    (("thm-e", "--e", "6", "{field}", "x"), "cannot parse characteristics"),
    (("thm-e", "--e", "6", "--seed", "-1"), "seed must be nonnegative"),
    (("thm-e", "--e", "6", "--seed", "x"), "cannot parse seed"),
    (("thm-e", "--e", "6", "--seed", "18446744073709551616"),
     "seed must be below 2**64"),
    (("thm-e",), "--e is required"),
]


@pytest.mark.parametrize("command, field", [("verify", "--field"),
                                            ("sweep", "--chars")],
                         ids=["verify", "sweep"])
@pytest.mark.parametrize("args, reason", INVALID_RUNS,
                         ids=[" ".join(args) for args, _ in INVALID_RUNS])
def test_verify_and_sweep_reject_invalid_input(capsys, monkeypatch, command,
                                              field, args, reason) -> None:
    sampled = []
    monkeypatch.setattr(inverse_systems, "sample_scalars",
                        lambda *call: sampled.append(call))
    code, out, err = run_cli(capsys, command,
                             *(a.format(field=field) for a in args))
    assert code == 2
    assert out == ""
    assert reason in err
    assert sampled == []


def test_sweep_accepts_parameter_range(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "sweep", "thm-e", "--e", "6..7", "--chars", "101",
        "--trials", "1", "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [(r["parameter"], r["verdict"]) for r in reports] == [
        (6, "match"), (7, "match"),
    ]


def test_verify_is_a_one_characteristic_sweep(capsys) -> None:
    tail = ("--trials", "2", "--seed", "5", "--format", "json")
    code_v, out_v, _ = run_cli(capsys, "verify", "thm-e", "--e", "6",
                               "--field", "101", *tail)
    code_s, out_s, _ = run_cli(capsys, "sweep", "thm-e", "--e", "6",
                               "--chars", "101", *tail)
    assert code_v == code_s == 0

    def reports(text: str) -> list[dict]:
        return [{k: v for k, v in r.items() if k != "command"}
                for r in json.loads(text)["reports"]]

    assert reports(out_v) == reports(out_s)


def test_out_writes_file(tmp_path, capsys) -> None:
    """Each handler's JSON report goes to --out, and nothing to stdout."""
    reports = {}
    for name, args in (
            ("check", ("check", GORENSTEIN_E6)),
            ("construct", ("construct", "thm-e", "--e", "6")),
            ("verify", ("verify", "thm-e", "--e", "6", "--trials", "1"))):
        target = tmp_path / f"{name}.json"
        code, out, _ = run_cli(capsys, *args, "--format", "json",
                               "--out", str(target))
        assert (code, out) == (0, "")
        reports[name] = json.loads(target.read_text())
    assert reports["check"]["si_sequence"] is False
    assert reports["check"]["vector"] == [1, 10, 14, 20, 14, 10, 1]
    payload = reports["construct"]
    assert payload["gorenstein"] == [1, 10, 14, 20, 14, 10, 1]
    assert payload["level"] == [1, 3, 6, 10, 8, 7]
    assert payload["violation_step"] == [2, 3]
    (report,) = reports["verify"]["reports"]
    assert (report["kind"], report["verdict"]) == ("thm-e", "match")


def test_unknown_command_exits_two(capsys) -> None:
    assert run_cli(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_verify_json_matches_golden_bytes(capsys, case) -> None:
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == 0
    assert out == case["stdout"]
