"""CLI surface: exit codes, output documents, determinism."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bionode import cli, groups, netsim, slashing

ROOT = Path(__file__).parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).parent / "golden"


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
        for text in [
            "{not json",
            '{"hmnd_per_usd": "1"}',
            '{"providers": 5, "hmnd_per_usd": "1"}',
            '{"providers": [{"compute_usd": "1"}], "hmnd_per_usd": "1"}',
            "[1]",
        ]:
            bad.write_text(text)
            assert run_cli("fee-quote", "--quote", str(bad)) == 1, text
            assert "Traceback" not in capsys.readouterr().err, text

    @pytest.mark.parametrize("field, value", [
        ("compute_usd", "x"),
        ("storage_gb_hour_usd", "Infinity"),
        ("hmnd_per_usd", "NaN"),
    ])
    def test_non_numeric_price_names_field_and_file(self, tmp_path, capsys, field, value):
        provider = {"compute_usd": "1", "storage_gb_hour_usd": "1"}
        doc = {"providers": [provider], "hmnd_per_usd": "1"}
        (provider if field in provider else doc)[field] = value
        bad = tmp_path / "quote.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("fee-quote", "--quote", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert field in err and str(bad) in err and "decimal" not in err

    @pytest.mark.parametrize("option", ["--size-gb", "--decline"])
    @pytest.mark.parametrize("value", ["x", "nan", "inf"])
    def test_non_finite_option_names_option_and_value(self, capsys, option, value):
        assert run_cli("fee-quote", option, value) == 1
        assert capsys.readouterr().err == f"error: {option}: {value!r} is not a finite number\n"


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


# The forged statement of Bernhard-Pereira-Warinschi's kind: in a group
# with g = 1 and pk = 1 every equation of the verifier holds.
FORGED = {
    "params": {"p": "23", "q": "11", "g": "1", "pk": "1"},
    "coefficients": ["1"],
    "inputs": [{"c": "1", "d": "1"}],
    "output": {"c": "1", "d": "1"},
    "proof": {"A": "1", "B": "1", "t": "0"},
}


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

    @pytest.mark.parametrize("option, other", [("--inputs", "--coeffs"), ("--coeffs", "--inputs")])
    @pytest.mark.parametrize("value, entry", [("1,x", "x"), ("1, 2.5", " 2.5")])
    def test_non_integer_entry_names_option_and_entry(self, capsys, option, other, value, entry):
        assert run_cli("prove-linear", option, value, other, "1,1") == 1
        assert capsys.readouterr().err == f"error: {option}: {entry!r} is not an integer\n"

    def test_overlong_entry_is_cut_to_40_characters(self, capsys):
        """An entry past int()'s digit limit is named by its first characters only."""
        assert run_cli("prove-linear", "--inputs", "7" * 5000, "--coeffs", "1") == 1
        assert capsys.readouterr().err == f"error: --inputs: '{'7' * 39} is not an integer\n"

    def test_blank_entries_are_skipped(self, tmp_path):
        stmt = tmp_path / "s.json"
        assert run_cli("prove-linear", "--inputs", "1,,2, ", "--coeffs", " ,3,4",
                       "--output", str(stmt)) == 0
        assert len(json.loads(stmt.read_text())["inputs"]) == 2

    def test_matches_golden_document(self, tmp_path):
        """16 inputs, mixed-sign inputs and coefficients, 64-bit group: the
        statement bytes for a fixed seed are pinned under tests/golden/."""
        out = tmp_path / "statement.json"
        assert run_cli(
            "prove-linear", "--inputs", "3,-1,4,1,5,9,2,-6,5,3,5,8,9,7,9,3",
            "--coeffs", "2,-7,1,8,-2,8,1,-8,2,8,4,-5,9,0,4,5",
            "--bits", "64", "--seed", "42", "--output", str(out),
        ) == 0
        assert out.read_bytes() == (GOLDEN / "prove_linear_64.json").read_bytes()
        assert run_cli("verify-linear", str(out)) == 0

    def test_matches_golden_hash_at_1024_bits(self, tmp_path):
        """The same inputs on the pinned 1024-bit group: the statement's
        SHA-256 for a fixed seed is pinned under tests/golden/."""
        out = tmp_path / "statement.json"
        assert run_cli(
            "prove-linear", "--inputs", "3,-1,4,1,5,9,2,-6,5,3,5,8,9,7,9,3",
            "--coeffs", "2,-7,1,8,-2,8,1,-8,2,8,4,-5,9,0,4,5",
            "--bits", "1024", "--seed", "42", "--output", str(out),
        ) == 0
        expected = (GOLDEN / "prove_linear_1024.sha256").read_text().strip()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
        assert run_cli("verify-linear", str(out)) == 0

    def test_saved_keys_match_golden_file(self, tmp_path):
        """--save-keys writes the params document plus sk; the bytes for a
        fixed seed are pinned, and reading them back through --keys gives
        the golden statement again."""
        keys, out = tmp_path / "keys.json", tmp_path / "statement.json"
        argv = ["prove-linear", "--inputs", "3,-1,4,1,5,9,2,-6,5,3,5,8,9,7,9,3",
                "--coeffs", "2,-7,1,8,-2,8,1,-8,2,8,4,-5,9,0,4,5", "--seed", "42",
                "--output", str(out)]
        assert run_cli(*argv, "--bits", "64", "--save-keys", str(keys)) == 0
        assert keys.read_bytes() == (GOLDEN / "keys_64.json").read_bytes()
        out.unlink()
        assert run_cli(*argv, "--keys", str(GOLDEN / "keys_64.json")) == 0
        assert out.read_bytes() == (GOLDEN / "prove_linear_64.json").read_bytes()

    def test_output_without_inverse_rejected(self, tmp_path, capsys):
        doc = json.loads((GOLDEN / "prove_linear_64.json").read_text())
        doc["output"]["c"] = "0"
        stmt = tmp_path / "statement.json"
        stmt.write_text(json.dumps(doc))
        assert run_cli("verify-linear", str(stmt)) == 3
        assert capsys.readouterr().out == "reject\n"

    @pytest.mark.parametrize("component, shift", [("c", 1), ("d", 1), ("c", -1)],
                             ids=["c-plus-p", "d-plus-p", "c-minus-p"])
    def test_input_outside_range_rejected(self, component, shift, tmp_path, capsys):
        """An input component moved by p is the same residue spelled another
        way; the proof must not carry over to that document."""
        doc = json.loads((GOLDEN / "prove_linear_64.json").read_text())
        first = doc["inputs"][0]
        first[component] = str(int(first[component]) + shift * int(doc["params"]["p"]))
        stmt = tmp_path / "statement.json"
        stmt.write_text(json.dumps(doc))
        assert run_cli("verify-linear", str(stmt)) == 3
        assert capsys.readouterr().out == "reject\n"

    def test_bits_below_floor_exits_one(self, tmp_path, capsys):
        assert run_cli("prove-linear", "--inputs", "1", "--coeffs", "1", "--bits", "8",
                       "--output", str(tmp_path / "s.json")) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("bits", [groups.MAX_SEARCHED_BITS + 1, 100_000])
    def test_bits_above_the_searched_bound_exits_one(self, bits, tmp_path, capsys):
        """A size with no pinned group above MAX_SEARCHED_BITS is refused before
        any prime search; the pinned 1024 is the golden test above."""
        out = tmp_path / "s.json"
        assert run_cli("prove-linear", "--inputs", "1", "--coeffs", "1", "--bits", str(bits),
                       "--output", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --bits: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, edit", [
        ("verify-linear", lambda d, k: FORGED),
        ("verify-linear", lambda d, k: {**FORGED, "params": {**d["params"], "g": "1", "pk": "1"}}),
        ("verify-linear", lambda d, k: [d]),
        ("verify-linear", lambda d, k: {**d, "params": [1]}),
        ("verify-linear", lambda d, k: {**d, "coefficients": 5}),
        ("verify-linear", lambda d, k: {**d, "inputs": [[1, 2]] + d["inputs"][1:]}),
        ("--keys", lambda d, k: [k]),
        ("--keys", lambda d, k: {**k, "g": str(int(k["p"]) - 1)}),
    ], ids=["forged-p23", "forged-g1-pk1-64bit", "top-level-list", "params-list",
            "coefficients-number", "input-list", "keys-list", "keys-g-order-two"])
    def test_invalid_document_exits_one_without_traceback(self, command, edit, tmp_path, capsys):
        golden = json.loads((GOLDEN / "prove_linear_64.json").read_text())
        keys = json.loads((GOLDEN / "keys_64.json").read_text())
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(edit(golden, keys)))
        if command == "verify-linear":
            argv = ["verify-linear", str(path)]
        else:
            argv = ["prove-linear", "--inputs", "1", "--coeffs", "1", "--keys", str(path),
                    "--output", str(tmp_path / "s.json")]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert "accept" not in captured.out
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["verify-linear", "--keys"])
    def test_group_above_the_largest_built_exits_one_untested(self, command, tmp_path, capsys, monkeypatch):
        """A statement or key file naming a 9,690-bit group (q = 2^9689 - 1, a
        Mersenne prime) is refused before any primality test."""
        def refuse(n, rounds=40):
            raise AssertionError("a primality test ran")

        q = 2**9689 - 1
        big = {"p": str(2 * q + 1), "q": str(q), "g": "4", "pk": "16"}
        golden = json.loads((GOLDEN / "prove_linear_64.json").read_text())
        keys = json.loads((GOLDEN / "keys_64.json").read_text())
        path = tmp_path / "doc.json"
        if command == "verify-linear":
            path.write_text(json.dumps({**golden, "params": big}))
            argv = ["verify-linear", str(path)]
        else:
            path.write_text(json.dumps({**keys, **big}))
            argv = ["prove-linear", "--inputs", "1", "--coeffs", "1", "--keys", str(path),
                    "--output", str(tmp_path / "s.json")]
        monkeypatch.setattr(groups, "is_prime", refuse)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "more than 1024 bits" in captured.err
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_key_file_with_a_foreign_sk_exits_one(self, tmp_path, capsys):
        keys = json.loads((GOLDEN / "keys_64.json").read_text())
        path = tmp_path / "keys.json"
        path.write_text(json.dumps({**keys, "sk": "5"}))
        saved, out = tmp_path / "saved.json", tmp_path / "s.json"
        assert run_cli("prove-linear", "--inputs", "1", "--coeffs", "1", "--keys", str(path),
                       "--save-keys", str(saved), "--output", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not saved.exists() and not out.exists()

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
            (GOLDEN / "honest_report.json").read_text()
        )
        assert report == golden
        assert (out / "events.ndjson").read_text().count("\n") == report["event_count"]

    @pytest.mark.parametrize("name", ["honest", "faulty", "malicious", "governed"])
    def test_output_bytes_do_not_depend_on_the_hash_seed(self, name, tmp_path):
        """run-sim writes the same stdout, events.ndjson and report.json under two
        PYTHONHASHSEED values, so no output follows the iteration order of a set."""
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / hash_seed
            done = subprocess.run(
                [sys.executable, "-m", "bionode.cli", "run-sim", str(SCENARIOS / f"{name}.json"), "--output", str(out)],
                env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed},
                capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append((done.stdout, (out / "events.ndjson").read_bytes(), (out / "report.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_missing_parent_of_output_is_not_created(self, tmp_path, capsys):
        """run-sim creates only the directory --output names, as every other
        command writes only into a directory that exists."""
        out = tmp_path / "nest" / "a" / "b"
        assert run_cli("run-sim", str(SCENARIOS / "honest.json"), "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert not (tmp_path / "nest").exists()

    @pytest.mark.parametrize("doc", [
        {"num_nodes": 3, "slots_per_epoch": 5, "epochs": 1_000_000_000, "fees_per_epoch": 0},
        {"num_nodes": 1_000_000_000, "slots_per_epoch": 5, "epochs": 1, "fees_per_epoch": 0},
        {"num_nodes": 3, "slots_per_epoch": 100_000_000, "epochs": 1, "fees_per_epoch": 0},
        {"num_nodes": 3, "slots_per_epoch": 0, "epochs": 1_000_000_000, "fees_per_epoch": 0},
    ], ids=["epochs", "nodes", "slots-per-epoch", "epochs-of-no-slots"])
    def test_oversized_scenario_is_refused_before_it_is_built(self, doc, tmp_path):
        """A scenario above netsim.MAX_NODES or MAX_SLOTS is refused by name
        before a list that grows with it is built. The child runs under a 512 MiB
        address-space limit, so a build that starts fails there, not on the host."""
        scenario = tmp_path / "big.json"
        scenario.write_text(json.dumps(doc))
        limit = 512 * 2**20
        done = subprocess.run(
            [sys.executable, "-m", "bionode.cli", "run-sim", str(scenario)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
            timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: cannot load scenario:") and "above the bound" in done.stderr
        assert "Traceback" not in done.stderr and done.stdout == ""

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
        {"faults": []},
        {"crypto_pipeline": "false"},
        {"crypto_pipeline": 0},
        {"num_nodes": 2.9},
        {"num_nodes": True},
        {"fees_per_epoch": [0.5]},
        {"faults": {"false_transaction": [{"node": "node-01", "slot": 2.5}]}},
        {"governance": [1]},
        {"governance": {"tiers": []}},
        {"governance": {"delegations": [["node-01"]]}},
        {"governance": {"governors": 5}},
        {"governance": {"delegations": [["node-01", ["node-02"]]]}},
        {"governance": {"proposals": [{"epoch": 0, "proposer": "node-01", "type": "Nope"}]}},
        {"governance": {"proposals": [1]}},
        {"governance": {"proposals": [{"epoch": 0, "type": "Product"}]}},
        {"governance": {"proposals": 5}},
        {"faults": {"offline": [{"node": "node-01", "from_slot": -5, "to_slot": 100}]}},
        {"faults": {"bioauth_fail": [{"node": "node-01", "from_slot": -5, "to_slot": 100}]}},
        {"faults": {"false_transaction": [{"node": "node-01", "slot": -3}]}},
        {"epochs": 2, "fees_per_epoch": [5, 0]},
        {"slot_seconds": 2_630_017},
        {"epochs": 1e20},  # too large to index a list; nothing is allocated
        {"governance": {"proposals": [{"epoch": 0, "proposer": "node-01", "type": "Product", "yes": -1}]}},
        {"governance": {"proposals": [{"epoch": 0, "proposer": "node-01", "type": "Product", "no": -2}]}},
        {"governance": {"proposals": [{"epoch": 0, "proposer": "node-01", "type": "Product",
                                       "pool_upvotes": -1}]}},
        {"governance": {"proposals": [{"proposer": "node-01", "type": "Product"}]}},
        {"governance": {"proposals": [{"epoch": "0", "proposer": "node-01", "type": "Product"}]}},
        {"faults": {"offline": [{"node": ["node-01"], "from_slot": 1, "to_slot": 5}]}},
        {"faults": {"bioauth_fail": [{"node": ["node-01"], "from_slot": 1, "to_slot": 5}]}},
        {"faults": {"false_transaction": [{"node": {"a": 1}, "slot": 2}]}},
        {"seed": "5"},
        {"governance": {"proposals": [{"epoch": 0, "proposer": "node-01", "type": "Product",
                                       "yes": 3, "no": 1}]}},
        {"initial_balance": -1},
        {"governance": {"proposals": [{"epoch": 1, "proposer": "ghost", "type": "Product", "yes": 2}]}},
        {"epochs": 0, "fees_per_epoch": True},
        {"fees_per_epoch": 5.5},
    ], ids=["validity-text", "validity-zero", "offline-unknown", "false-tx-unknown",
            "empty-window", "overlapping-windows", "faults-list", "crypto-text",
            "crypto-number", "nodes-fraction", "nodes-bool", "fee-fraction",
            "slot-fraction", "governance-list", "tiers-list", "delegation-single",
            "governors-number", "delegatee-list", "proposal-type-unknown",
            "proposal-number", "proposal-no-proposer", "proposals-number",
            "offline-negative", "bioauth-negative", "false-tx-negative", "fees-fall-to-zero",
            "slot-over-a-month", "epochs-huge", "proposal-yes-negative",
            "proposal-no-negative", "proposal-upvotes-negative", "proposal-no-epoch",
            "proposal-epoch-text", "offline-node-list", "bioauth-node-list",
            "false-tx-node-object", "seed-text", "proposal-votes-above-roll",
            "initial-balance-negative", "proposal-proposer-not-a-node", "fees-bool-no-epochs",
            "fees-scalar-fraction"])
    def test_invalid_scenario_exits_one_without_traceback(self, extra, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        doc = {"num_nodes": 3, "slots_per_epoch": 5, "epochs": 1, "fees_per_epoch": 0}
        scenario.write_text(json.dumps({**doc, **extra}))
        assert run_cli("run-sim", str(scenario)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load scenario:")  # from_dict or validate()
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("extra, field", [
        ({"faults": {"offline": ""}}, "faults.offline"),
        ({"faults": {"offline": {}}}, "faults.offline"),
        ({"faults": {"bioauth_fail": ""}}, "faults.bioauth_fail"),
        ({"faults": {"bioauth_fail": {}}}, "faults.bioauth_fail"),
        ({"faults": {"false_transaction": ""}}, "faults.false_transaction"),
        ({"faults": {"false_transaction": {}}}, "faults.false_transaction"),
        ({"governance": {"proposals": ""}}, "governance.proposals"),
        ({"governance": {"proposals": {}}}, "governance.proposals"),
        ({"governance": {"delegations": ""}}, "governance.delegations"),
        ({"governance": {"delegations": {}}}, "governance.delegations"),
        ({"governance": {"governors": ""}}, "governance.governors"),
        ({"governance": {"governors": {}}}, "governance.governors"),
        ({"epochs": 0, "fees_per_epoch": ""}, "fees_per_epoch"),
        ({"epochs": 0, "fees_per_epoch": {}}, "fees_per_epoch"),
        ({"governance": []}, "governance"),
        ({"governance": 0}, "governance"),
        ({"governance": False}, "governance"),
        ({"governance": ""}, "governance"),
    ], ids=["offline-text", "offline-object", "bioauth-text", "bioauth-object", "false-tx-text",
            "false-tx-object", "proposals-text", "proposals-object", "delegations-text",
            "delegations-object", "governors-text", "governors-object", "fees-text-no-epochs",
            "fees-object-no-epochs", "governance-list", "governance-zero", "governance-false",
            "governance-text"])
    def test_wrong_typed_array_exits_one_naming_the_field(self, extra, field, tmp_path, capsys):
        """An array field given as a string, an object or a scalar is refused,
        not read as empty; only null and {} mean no governance."""
        scenario = tmp_path / "s.json"
        doc = {"num_nodes": 3, "slots_per_epoch": 5, "epochs": 1, "fees_per_epoch": 0}
        scenario.write_text(json.dumps({**doc, **extra}))
        assert run_cli("run-sim", str(scenario)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: cannot load scenario:") and field in captured.err

    @pytest.mark.parametrize("epoch", [0, 9], ids=["reached", "never-reached"])
    def test_proposal_with_no_governor_exits_one_without_output(self, epoch, tmp_path, capsys):
        scenario, out = tmp_path / "s.json", tmp_path / "run"
        proposal = {"epoch": epoch, "proposer": "node-01", "type": "Product"}
        scenario.write_text(json.dumps({"num_nodes": 3, "slots_per_epoch": 5, "epochs": 1, "fees_per_epoch": 0,
                                        "governance": {"governors": [], "proposals": [proposal]}}))
        assert run_cli("run-sim", str(scenario), "--output", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "names no governor" in captured.err and "Traceback" not in captured.err
        assert not out.exists()

    def test_integral_float_fee_runs_like_the_integer(self, tmp_path, capsys):
        doc = {"num_nodes": 3, "slots_per_epoch": 5, "epochs": 2}
        outputs = []
        for fee in (5, 5.0):
            scenario = tmp_path / "s.json"
            scenario.write_text(json.dumps({**doc, "fees_per_epoch": fee}))
            assert run_cli("run-sim", str(scenario)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and json.loads(outputs[0])["fees_injected"] == 10

    @pytest.mark.parametrize("gov", [
        {"governors": ["node-00"], "tiers": {"node-01": "Consul"}},
        {"tiers": {"node-01": "Senator"}, "delegations": [["node-01", "node-00"]]},
    ], ids=["human-node", "delegator"])
    def test_tier_off_the_governor_roll_exits_one_naming_the_node(self, gov, tmp_path, capsys):
        scenario, out = tmp_path / "s.json", tmp_path / "run"
        scenario.write_text(json.dumps({"num_nodes": 3, "slots_per_epoch": 5, "epochs": 1,
                                        "fees_per_epoch": 0, "governance": gov}))
        assert run_cli("run-sim", str(scenario), "--output", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:") and "node-01" in captured.err
        assert not out.exists()

    def test_malicious_scenario_emits_slash(self, capsys):
        assert run_cli("run-sim", str(SCENARIOS / "malicious.json")) == 0
        report = json.loads(capsys.readouterr().out)
        assert any(s["kind"] == "FalseTransaction" for s in report["slashes"])

    @pytest.mark.parametrize("seed", [(), ("--seed", "5")], ids=["scenario-seed", "seed-flag"])
    def test_scenario_is_validated_once_and_seated_on_one_vortex(self, seed, monkeypatch, capsys):
        """Simulation(cfg) is the one place a config is checked, and the DAO it
        seats is the one the run uses: load_scenario validated too, and each
        validate() seated the section on a scratch Vortex, once more after
        --seed rebuilt the config."""
        calls = {"validate": 0, "Vortex": 0}
        validate = netsim.SimConfig.validate

        def counted_validate(config):
            calls["validate"] += 1
            return validate(config)

        class CountedVortex(netsim.Vortex):
            def __init__(self):
                calls["Vortex"] += 1
                super().__init__()

        monkeypatch.setattr(netsim.SimConfig, "validate", counted_validate)
        monkeypatch.setattr(netsim, "Vortex", CountedVortex)
        assert run_cli("run-sim", str(SCENARIOS / "governed.json"), *seed) == 0
        assert calls == {"validate": 1, "Vortex": 1}
        assert json.loads(capsys.readouterr().out)["governors"]  # the report reads the seated DAO

    @pytest.mark.parametrize("name", ["honest", "governed"])
    def test_seed_flag_matches_the_seed_written_in_the_scenario(self, name, tmp_path, capsys):
        """--seed N rebuilds the config with dataclasses.replace; the run must
        be the one of the same scenario with "seed": N, byte for byte."""
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps({**json.loads((SCENARIOS / f"{name}.json").read_text()), "seed": 5}))
        runs = []
        for argv in ([str(SCENARIOS / f"{name}.json"), "--seed", "5"], [str(scenario)]):
            out = tmp_path / f"out{len(runs)}"
            assert run_cli("run-sim", *argv, "--output", str(out)) == 0
            runs.append((capsys.readouterr().out, (out / "events.ndjson").read_bytes(),
                         (out / "report.json").read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][0])["config"]["seed"] == 5


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


# Written out here, not read from bionode/data/slashing_table.json, so that
# a wrong row in that file fails the test: kind -> the periods of its first
# three offenses, and the effects of the first.
SLASH_LADDERS = {
    "MissedMonthlyVerification": (["1/2", "1/2", "1/2"], ["ExcludedFromValidators", "FeesStopped"]),
    "MismatchedProposalType": (["1", "1", "1"], []),
    "FailedFormationDelivery": (["1", "2", "3"], []),
    "Offline48h": (["1/2", "1", "2"], ["Deactivated", "FeesStopped"]),
    "MismatchedProposalTypeNoRight": (["1", "2", "3"], ["Deactivated", "FeesStopped"]),
    "UptimeBelow91": (["1", "2", "3"], []),
    "FalseTransaction": (["120", "240", "forever"], ["Deactivated", "DevotionNullified", "FeesStopped"]),
}


class TestSlashDemo:
    @pytest.mark.parametrize("kind", SLASH_LADDERS)
    def test_ladder_progression(self, kind, capsys, tmp_path):
        periods, effects = SLASH_LADDERS[kind]
        out = tmp_path / "slash.json"
        assert run_cli("slash-demo", "--kind", kind, "--repeat", "3",
                       "--output", str(out)) == 0
        text = capsys.readouterr().out
        for i, months in enumerate(periods):
            label = months if months == "forever" else f"{float(Fraction(months)):g} months"
            assert f"offense {i + 1}: blacklisted {label}\n" in text
        doc = json.loads(out.read_text())
        assert [r["period_months"] for r in doc["progression"]] == periods
        assert doc["progression"][0]["effects"] == effects

    def test_unknown_kind(self):
        assert run_cli("slash-demo", "--kind", "jaywalking") == 1

    def test_long_repeat_costs_constant_time_per_offense(self, tmp_path):
        """A slash reads the node's count of that kind and indexes the kind's
        terms, so 50,000 offenses take about a second rather than hours."""
        out = tmp_path / "slash.json"
        done = subprocess.run(
            [sys.executable, "-m", "bionode.cli", "slash-demo", "--kind", "uptime",
             "--repeat", "50000", "--output", str(out)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        last = json.loads(out.read_text())["progression"][-1]
        assert last["offense_index"] == 49999 and last["period_months"] == "forever"

    def test_term_table_holds_one_entry_per_rung(self, capsys, tmp_path):
        """A kind's terms hold at most one entry per rung plus forever, and every
        offense past the last one reads the last, however long the history is."""
        bound = len(slashing.SCALING_LADDER_MONTHS) + 1
        for kind, spec in slashing.PERPETRATION_TABLE.items():
            assert 0 < len(spec.terms) <= bound
            out = tmp_path / f"{kind.value}.json"
            assert run_cli("slash-demo", "--kind", kind.value, "--repeat", "1000", "--output", str(out)) == 0
            last = json.loads(out.read_text())["progression"][-1]
            assert last["period_months"] == str(spec.terms[-1][0])
        capsys.readouterr()

    def test_repeat_above_the_bound_exits_one(self, capsys):
        assert run_cli("slash-demo", "--repeat", str(cli.MAX_REPEAT + 1)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --repeat must be at most {cli.MAX_REPEAT}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("repeat", ["-1", "0"])
    def test_repeat_below_one_exits_one(self, repeat, capsys):
        assert run_cli("slash-demo", "--kind", "Offline48h", "--repeat", repeat) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --repeat must be at least 1\n"
        assert captured.out == ""


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

    @pytest.mark.parametrize("argv, target", [
        (["fath-demo", "--output"], "missing/out.json"),
        (["fee-quote", "--output"], "missing/out.json"),
        (["score-modalities", "--output"], "missing/out.json"),
        (["prove-linear", "--inputs", "1", "--coeffs", "2", "--output"], "missing/out.json"),
        (["prove-linear", "--inputs", "1", "--coeffs", "2", "--output"], "a-directory"),
        (["prove-linear", "--inputs", "1", "--coeffs", "2", "--save-keys"], "missing/keys.json"),
        (["verify-linear", str(GOLDEN / "prove_linear_64.json"), "--output"], "missing/out.json"),
        (["lwe-match", "--template", "1011", "--probe", "1011", "--threshold", "3",
          "--profile", "test-exhaustive", "--output"], "missing/out.json"),
        (["slash-demo", "--output"], "missing/out.json"),
        (["run-sim", str(SCENARIOS / "honest.json"), "--output"], "a-file"),
    ], ids=["fath-demo", "fee-quote", "score-modalities", "prove-linear", "prove-linear-directory",
            "prove-linear-save-keys", "verify-linear", "lwe-match", "slash-demo", "run-sim-file"])
    def test_unwritable_output_exits_one_naming_the_path(self, argv, target, tmp_path, capsys):
        """A path in a missing directory, a directory where a file goes or a file
        where a directory goes is refused with one line, not a traceback."""
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "a-file").write_text("")
        path = tmp_path / target
        assert run_cli(*argv, str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err


# Every committed document, with the command that reads it; the document's
# path goes last, and prove-linear writes its statement to --output.
STATEMENT_64 = GOLDEN / "prove_linear_64.json"
PRICE_QUOTE = Path(cli.__file__).parent / "data" / "price_quote.json"
FUZZED_DOCUMENTS = {
    **{path: ["run-sim"] for path in sorted(SCENARIOS.glob("*.json"))},
    STATEMENT_64: ["verify-linear"],
    GOLDEN / "keys_64.json": ["prove-linear", "--inputs", "1,2", "--coeffs", "3,-4", "--keys"],
    PRICE_QUOTE: ["fee-quote", "--quote"],
}
OTHER_TYPE_VALUES = [None, True, 2.5, -3, 0, "x", [], [1], {}, {"k": "1"}]
INTEGER_STRINGS = ["-1", "-5", str(-(2**70)), str(2**1100), "9" * 400]
DELETE = "<delete>"


def document_paths(doc, prefix=()):
    """(key or index path, value) of every value below the top of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*prefix, key), value
        yield from document_paths(value, (*prefix, key))


def json_type(value) -> str:
    return "null" if value is None else type(value).__name__


def mutate(path: Path, keys: tuple, new) -> tuple[Path, object]:
    """The document at path with the value at keys set to new, or deleted."""
    doc = json.loads(path.read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if new == DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = new
    return path, doc


@st.composite
def mutated_documents(draw):
    """A committed document with one path set to a value of another JSON type
    or to a negative or huge integer string, or deleted."""
    path = draw(st.sampled_from(list(FUZZED_DOCUMENTS)))
    keys, old = draw(st.sampled_from(list(document_paths(json.loads(path.read_text())))))
    others = [v for v in OTHER_TYPE_VALUES if json_type(v) != json_type(old)]
    return mutate(path, keys, draw(st.sampled_from([*others, *INTEGER_STRINGS, DELETE])))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Option values of each kind a caller could type: negative, zero, huge,
# non-finite, text and empty.
ARG_VALUES = ["-1", "0", "3", str(10**30), str(-(10**30)), "nan", "inf", "-inf", "1e400", "x", ""]
# command -> its arguments in order: (flag, or None for a positional, what it
# takes): the committed document a path it reads should name, "out" for a path
# it writes, or values it accepts beyond those of ARG_VALUES.
ARGV_SURFACE = {
    "run-sim": [(None, SCENARIOS / "honest.json"), ("--seed", []), ("--output", "out")],
    "fath-demo": [("--seed", []), ("--output", "out")],
    "fee-quote": [("--size-gb", ["0.5"]), ("--validators", []), ("--quote", PRICE_QUOTE),
                  ("--decline", ["0.1", "1"]), ("--seed", []), ("--output", "out")],
    "score-modalities": [("--seed", []), ("--output", "out")],
    "prove-linear": [("--inputs", ["1,2", "5"]), ("--coeffs", ["3,-4", "2"]), ("--keys", GOLDEN / "keys_64.json"),
                     ("--save-keys", "out"), ("--bits", ["16", "1024"]), ("--seed", []), ("--output", "out")],
    "verify-linear": [(None, STATEMENT_64), ("--seed", []), ("--output", "out")],
    "lwe-match": [("--template", ["1011", "1"]), ("--probe", ["1011", "0100"]), ("--threshold", []),
                  ("--profile", ["test-exhaustive", "default"]), ("--seed", []), ("--output", "out")],
    "slash-demo": [("--kind", ["uptime", "Offline48h"]), ("--repeat", []), ("--seed", []), ("--output", "out")],
}


@st.composite
def argvs(draw, command: str, root: Path):
    """An argv for command, each option left out (unless positional), given a
    value it accepts, or given a bad one. A bad path lies under root: a file in
    a missing directory, a directory, or a file any earlier example may have
    written; a good one is the committed document to read or a fresh path."""
    bad_paths = [root / "missing" / "f.json", root / "a-directory", root / "a-file"]
    argv = [command]
    for flag, takes in ARGV_SURFACE[command]:
        if takes == "out":
            good, bad = [root / f"{command}{flag}"], bad_paths
        elif isinstance(takes, Path):
            good, bad = [takes], bad_paths
        else:
            good, bad = takes or ARG_VALUES, ARG_VALUES
        left_out = st.none() if flag else st.nothing()
        value = draw(left_out | st.sampled_from(good) | st.sampled_from(bad))
        if value is not None:
            argv += [str(value)] if flag is None else [flag, str(value)]
    return argv


class TestDocumentFuzz:
    # A negative A or B must be refused before the challenge hashes it.
    @example(case=mutate(STATEMENT_64, ("proof", "A"), "-5"))
    @example(case=mutate(STATEMENT_64, ("proof", "B"), "-1"))
    @settings(max_examples=300, deadline=None)
    @given(case=mutated_documents())
    def test_mutated_document_exits_cleanly(self, case, fuzz_dir):
        path, doc = case
        mutated = fuzz_dir / "mutated.json"
        mutated.write_text(json.dumps(doc))
        argv = [*FUZZED_DOCUMENTS[path], str(mutated)]
        if argv[0] == "prove-linear":
            argv += ["--output", str(fuzz_dir / "statement.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(*argv)
        assert code in (0, 1, 3)
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("command", ARGV_SURFACE)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_argv_exits_cleanly(self, command, data, fuzz_dir):
        """Every command, with option values of every kind and paths that are
        missing, a directory or a file, exits 0, 1 or 3 with no traceback. A
        drawn --repeat or --bits is either small or refused, so work stays small."""
        (fuzz_dir / "a-directory").mkdir(exist_ok=True)
        (fuzz_dir / "a-file").touch()
        argv = data.draw(argvs(command, fuzz_dir))
        err, cwd = io.StringIO(), os.getcwd()
        os.chdir(fuzz_dir)  # prove-linear writes statement.json here when --output is left out
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert not (fuzz_dir / "missing").exists()
