"""CLI surface: exit codes, output documents, determinism."""

import json
from pathlib import Path

import pytest

from bionode import cli

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def run_cli(*argv) -> int:
    return cli.main(list(argv))


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        ["run-sim", "fath-demo", "fee-quote", "score-modalities",
         "prove-linear", "verify-linear", "lwe-match", "slash-demo"],
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("fath-demo", "--no-such-flag")
        assert exc.value.code == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 1


class TestFathDemo:
    def test_supply_and_wallet_paths(self, capsys, tmp_path):
        out = tmp_path / "fath.json"
        assert run_cli("fath-demo", "--output", str(out)) == 0
        text = capsys.readouterr().out
        for value in ("10,000,000", "20,000,000", "15,000,000",
                      "1,000", "2,000", "1,500"):
            assert value in text
        doc = json.loads(out.read_text())
        assert doc["final_supply"] == 15_000_000
        assert doc["final_wallet"] == 1_500

    def test_deterministic(self, capsys):
        run_cli("fath-demo")
        first = capsys.readouterr().out
        run_cli("fath-demo")
        assert capsys.readouterr().out == first


class TestFeeQuote:
    def test_basic_quote(self, capsys):
        assert run_cli("fee-quote", "--size-gb", "0.001", "--validators", "10") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_units"] == doc["computational_units"] + doc["storage_perpetual_units"]

    def test_bad_quote_file(self, tmp_path, capsys):
        bad = tmp_path / "quote.json"
        bad.write_text("{not json")
        assert run_cli("fee-quote", "--quote", str(bad)) == 1


class TestScoreModalities:
    def test_table_and_output(self, capsys, tmp_path):
        out = tmp_path / "scores.json"
        assert run_cli("score-modalities", "--output", str(out)) == 0
        text = capsys.readouterr().out
        assert "3D Facial Recognition" in text and "198" in text
        doc = json.loads(out.read_text())
        scores = {r["name"]: r["score"] for r in doc["table"]}
        assert scores["Iris Recognition"] == 190
        assert scores["Signature Recognition"] == 117


class TestProveVerify:
    def test_round_trip(self, tmp_path, capsys):
        stmt = tmp_path / "statement.json"
        keys = tmp_path / "keys.json"
        assert run_cli(
            "prove-linear", "--inputs", "1,2,3", "--coeffs", "4,5,6",
            "--save-keys", str(keys), "--output", str(stmt), "--seed", "9",
        ) == 0
        assert keys.exists()
        assert run_cli("verify-linear", str(stmt)) == 0
        assert "accept" in capsys.readouterr().out

    def test_reusing_key_file(self, tmp_path):
        keys = tmp_path / "keys.json"
        stmt = tmp_path / "s.json"
        run_cli("prove-linear", "--inputs", "1", "--coeffs", "2",
                "--save-keys", str(keys), "--output", str(stmt))
        assert run_cli(
            "prove-linear", "--inputs", "7,8", "--coeffs", "1,1",
            "--keys", str(keys), "--output", str(stmt),
        ) == 0
        assert run_cli("verify-linear", str(stmt)) == 0

    def test_flipped_digit_rejected(self, tmp_path, capsys):
        stmt = tmp_path / "statement.json"
        run_cli("prove-linear", "--inputs", "1,2", "--coeffs", "3,4",
                "--output", str(stmt), "--seed", "4")
        doc = json.loads(stmt.read_text())
        t = doc["proof"]["t"]
        flipped = ("1" if t[-1] != "1" else "2") + t[1:] if len(t) == 1 else t[:-1] + ("1" if t[-1] != "1" else "2")
        doc["proof"]["t"] = flipped
        stmt.write_text(json.dumps(doc))
        assert run_cli("verify-linear", str(stmt)) == 3
        assert "reject" in capsys.readouterr().out

    def test_missing_key_file(self, tmp_path):
        assert run_cli(
            "prove-linear", "--inputs", "1", "--coeffs", "1",
            "--keys", str(tmp_path / "nope.json"), "--output", str(tmp_path / "s.json"),
        ) == 1

    def test_mismatched_lengths(self, tmp_path):
        assert run_cli("prove-linear", "--inputs", "1,2", "--coeffs", "3") == 1

    def test_byte_identical_documents(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli("prove-linear", "--inputs", "5,6", "--coeffs", "7,8",
                    "--output", str(out), "--seed", "17")
        assert a.read_bytes() == b.read_bytes()


class TestRunSim:
    def test_golden_scenario(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("run-sim", str(SCENARIOS / "honest.json"), "--output", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        golden = json.loads(
            (Path(__file__).parent / "golden" / "honest_report.json").read_text()
        )
        assert report == golden
        assert (out / "events.ndjson").read_text().count("\n") == report["event_count"]

    def test_malformed_scenario(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{oops")
        assert run_cli("run-sim", str(bad)) == 1

    def test_missing_scenario(self):
        assert run_cli("run-sim", "/nonexistent/x.json") == 1

    @pytest.mark.parametrize("extra", [
        {"ticket_validity_slots": "abc"},
        {"ticket_validity_slots": 0},
        {"faults": {"offline": [{"node": "node-77", "from_slot": 1, "to_slot": 5}]}},
        {"faults": {"false_transaction": [{"node": "ghost", "slot": 2}]}},
        {"faults": {"offline": [{"node": "node-01", "from_slot": 5, "to_slot": 5}]}},
        {"faults": {"offline": [{"node": "node-01", "from_slot": 1, "to_slot": 5},
                                {"node": "node-01", "from_slot": 3, "to_slot": 9}]}},
    ], ids=["validity-text", "validity-zero", "offline-unknown", "false-tx-unknown",
            "empty-window", "overlapping-windows"])
    def test_invalid_scenario_exits_one_without_traceback(self, extra, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        doc = {"num_nodes": 3, "slots_per_epoch": 5, "epochs": 1, "fees_per_epoch": 0}
        scenario.write_text(json.dumps({**doc, **extra}))
        assert run_cli("run-sim", str(scenario)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_malicious_scenario_emits_slash(self, capsys):
        assert run_cli("run-sim", str(SCENARIOS / "malicious.json")) == 0
        report = json.loads(capsys.readouterr().out)
        assert any(s["kind"] == "FalseTransaction" for s in report["slashes"])


class TestLweMatch:
    def test_self_match(self, capsys):
        assert run_cli("lwe-match", "--template", "1011", "--probe", "1011",
                       "--threshold", "3", "--profile", "test-exhaustive") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "match"

    def test_mismatch(self, capsys):
        assert run_cli("lwe-match", "--template", "1100", "--probe", "0011",
                       "--threshold", "1", "--profile", "test-exhaustive") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "no_match"

    def test_bad_bits(self):
        assert run_cli("lwe-match", "--template", "10x1", "--probe", "1011",
                       "--threshold", "1") == 1


class TestSlashDemo:
    def test_ladder_progression(self, capsys, tmp_path):
        out = tmp_path / "slash.json"
        assert run_cli("slash-demo", "--kind", "offline48h", "--repeat", "3",
                       "--output", str(out)) == 0
        text = capsys.readouterr().out
        assert "0.5 months" in text and "1 months" in text and "2 months" in text
        doc = json.loads(out.read_text())
        assert [r["period_months"] for r in doc["progression"]] == ["1/2", "1", "2"]

    def test_unknown_kind(self):
        assert run_cli("slash-demo", "--kind", "jaywalking") == 1


class TestExitCodes:
    def test_invariant_violation_maps_to_two(self, monkeypatch, tmp_path):
        from bionode import netsim as netsim_mod

        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {"num_nodes": 1, "slots_per_epoch": 1, "epochs": 1, "fees_per_epoch": 0}
        ))

        def explode(config):
            raise netsim_mod.InvariantViolation("synthetic")

        monkeypatch.setattr(netsim_mod, "run", explode)
        assert run_cli("run-sim", str(scenario)) == 2
