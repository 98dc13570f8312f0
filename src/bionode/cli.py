"""Command-line front end.

Commands: run-sim, fath-demo, fee-quote, score-modalities, prove-linear,
verify-linear, lwe-match, slash-demo. Every command takes --seed (default
0) and --output; all randomness flows from the seed, so identical
invocations produce identical bytes.

No command creates a missing parent directory; run-sim creates only the one
--output names. Work is bounded: --bits by groups.generate_params, --repeat by
MAX_REPEAT, a scenario by netsim.MAX_NODES and netsim.MAX_SLOTS.

Exit codes: 0 success, 1 usage, config or write error, 2 invariant violation,
3 verification rejected. Only main maps a failure to its code and error line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import biometrics, fees, groups, lwe, netsim, slashing, zkp
from .fath import LedgerSnapshot, PeriodStats, run_period

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_REJECTED = 3

MAX_REPEAT = 100_000  # the most offenses slash-demo replays


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit 1, not argparse's 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Refused(Exception):
    """A command's refusal of its input; main prints it as an error line and returns 1."""


def _write_output(path: str | None, doc: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _show(doc: dict, path: str | None) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))
    _write_output(path, doc)


# -- run-sim ---------------------------------------------------------------


def cmd_run_sim(args) -> int:
    try:
        config = netsim.load_scenario(args.scenario)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        sim = netsim.run(config)  # Simulation(config) checks the config before the first event
    except (OSError, json.JSONDecodeError, groups.DocumentInvalid) as exc:
        raise _Refused(f"cannot load scenario: {exc}") from exc
    report = json.dumps(sim.report(), indent=2, sort_keys=True)
    if args.output:
        out = Path(args.output)
        out.mkdir(exist_ok=True)
        (out / "events.ndjson").write_text(sim.event_log())
        (out / "report.json").write_text(report + "\n")
    print(report)
    return EXIT_OK


# -- fath-demo ---------------------------------------------------------------


def cmd_fath_demo(args) -> int:
    ledger = LedgerSnapshot(balances={"you": 1_000, "rest": 9_999_000})
    fees_by_year = [1_000_000, 2_000_000, 1_500_000]
    print("period  fees_paid  kind     ratio    supply      your_wallet")
    print(f"  0     {fees_by_year[0]:>9,}  -        -        {ledger.total_supply:>10,}  {ledger.balances['you']:>6,}")
    rows = []
    for year in (1, 2):
        prev = PeriodStats(fees_paid=fees_by_year[year - 1], period_index=year - 1)
        curr = PeriodStats(fees_paid=fees_by_year[year], period_index=year)
        ledger, outcome = run_period(ledger, prev, curr)
        pct = f"{float(outcome.ratio) * 100:+.0f}%"
        print(
            f"  {year}     {fees_by_year[year]:>9,}  {outcome.kind:<7}  {pct:<7}  "
            f"{ledger.total_supply:>10,}  {ledger.balances['you']:>6,}"
        )
        rows.append(outcome.to_record(year))
    _write_output(args.output, {"periods": rows, "final_supply": ledger.total_supply,
                                "final_wallet": ledger.balances["you"]})
    return EXIT_OK


# -- fee-quote ---------------------------------------------------------------


def cmd_fee_quote(args) -> int:
    try:
        quote = fees.load_quote(args.quote)
        breakdown = fees.quote_transaction(
            quote,
            fees.parse_finite(args.size_gb, "--size-gb"),
            args.validators,
            fees.parse_finite(args.decline, "--decline"),
        )
    except (OSError, ValueError, ArithmeticError, fees.DeclineOutOfRange) as exc:
        raise _Refused(str(exc)) from exc
    doc = {
        "computational_units": breakdown.computational,
        "storage_perpetual_units": breakdown.storage_perpetual,
        "total_units": breakdown.total,
        "total_tokens": f"{Fraction(breakdown.total, fees.UNITS_PER_TOKEN)}",
        "validators": breakdown.validators,
        "data_size_gb": str(breakdown.data_size_gb),
    }
    _show(doc, args.output)
    return EXIT_OK


# -- score-modalities ---------------------------------------------------------


def cmd_score_modalities(args) -> int:
    fixture = biometrics.load_modality_fixture()
    profiles = [
        biometrics.ModalityProfile(name=row["name"], levels=tuple(row["levels"]))
        for row in fixture
    ]
    table = biometrics.score_table(profiles)
    print(f"{'rank':<5} {'modality':<36} {'score':>5}  eligible")
    for rank, row in enumerate(table, start=1):
        flag = "yes" if row["eligible"] else "no"
        print(f"{rank:<5} {row['name']:<36} {row['score']:>5}  {flag}")
    _write_output(args.output, {"table": table,
                                "cutoff": biometrics.ELIGIBILITY_CUTOFF})
    return EXIT_OK


# -- prove-linear / verify-linear ------------------------------------------


def _parse_ints(text: str, name: str):
    """The comma-separated integers of text, skipping blank entries; a bad one names name."""
    for x in filter(str.strip, text.split(",")):
        try:
            yield int(x)
        except ValueError:
            raise _Refused(f"{name}: {x!r:.40} is not an integer") from None


def cmd_prove_linear(args) -> int:
    inputs = list(_parse_ints(args.inputs, "--inputs"))
    coeffs = list(_parse_ints(args.coeffs, "--coeffs"))
    if len(inputs) != len(coeffs) or not inputs:
        raise _Refused("--inputs and --coeffs must be non-empty, same length")
    if args.keys:
        try:
            params, keys = groups.read_key_doc(json.loads(Path(args.keys).read_text()))
        except (OSError, json.JSONDecodeError, groups.DocumentInvalid) as exc:
            raise _Refused(f"cannot read key file: {exc}") from exc
    else:
        try:
            params = groups.generate_params(args.bits, seed=args.seed)
        except ValueError as exc:
            raise _Refused(f"--bits: {exc}") from exc
        keys = groups.keygen(params, rng_seed=args.seed + 1)
    _write_output(args.save_keys, groups.key_doc(params, keys))
    rng = random.Random(args.seed + 2)
    randomness = [rng.randrange(1, params.q) for _ in inputs]
    statement, proof = zkp.prove_linear(params, keys.pk, inputs, randomness, coeffs, args.seed + 3)
    out = args.output or "statement.json"
    _write_output(out, zkp.statement_doc(params, keys.pk, statement, proof))
    print(f"statement and proof written to {out}")
    return EXIT_OK


def cmd_verify_linear(args) -> int:
    try:
        params, pk, statement, proof = zkp.read_statement_doc(
            json.loads(Path(args.statement).read_text())
        )
    except (OSError, json.JSONDecodeError, groups.DocumentInvalid) as exc:
        raise _Refused(f"cannot read statement: {exc}") from exc
    ok = zkp.verify_linear(params, pk, statement, proof)
    _write_output(args.output, {"accepted": ok})
    print("accept" if ok else "reject")
    return EXIT_OK if ok else EXIT_REJECTED


# -- lwe-match ---------------------------------------------------------------


def _parse_bits(text: str) -> list[int]:
    if any(ch not in "01" for ch in text):
        raise _Refused(f"bit string must be 0/1, got {text!r}")
    return [int(ch) for ch in text]


def cmd_lwe_match(args) -> int:
    template = _parse_bits(args.template)
    probe = _parse_bits(args.probe)
    params = lwe.PROFILES[args.profile]  # the parser's choices refuse an unknown profile
    try:
        keys = lwe.lwe_keygen(params, args.seed)
        result = biometrics.encrypted_match(
            params, keys, template, probe, threshold_count=args.threshold,
            rng_seed=args.seed + 1,
        )
    except (lwe.VectorTooLong, lwe.PlaintextOutOfRange, biometrics.DimensionMismatch) as exc:
        raise _Refused(str(exc)) from exc
    doc = {"result": result.value, "threshold": args.threshold, "profile": args.profile}
    _show(doc, args.output)
    return EXIT_OK


# -- slash-demo ---------------------------------------------------------------

_KIND_ALIASES = {k.value.lower(): k for k in slashing.PerpetrationKind}
_KIND_ALIASES.update({
    "missed-verification": slashing.PerpetrationKind.MissedMonthlyVerification,
    "false-transaction": slashing.PerpetrationKind.FalseTransaction,
    "uptime": slashing.PerpetrationKind.UptimeBelow91,
})


def cmd_slash_demo(args) -> int:
    kind = _KIND_ALIASES.get(args.kind.lower())
    if kind is None:
        raise _Refused(f"unknown perpetration kind {args.kind!r}; one of {sorted(_KIND_ALIASES)}")
    if args.repeat < 1:
        raise _Refused("--repeat must be at least 1")
    if args.repeat > MAX_REPEAT:
        raise _Refused(f"--repeat must be at most {MAX_REPEAT}")
    blacklist = slashing.Blacklist()
    spec = slashing.PERPETRATION_TABLE[kind]
    print(f"{kind.value}: severity {spec.severity}, scalable {spec.scalable}")
    rows = []
    for i in range(args.repeat):
        entry = blacklist.slash("demo-node", kind, now=i * slashing.MONTH_SECONDS * 12)
        months = entry.period_months
        label = "forever" if months == slashing.FOREVER else f"{float(months):g} months"
        print(f"  offense {i + 1}: blacklisted {label}")
        rows.append(entry.to_record())
    _write_output(args.output, {"kind": kind.value, "progression": rows})
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bionode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        p.add_argument("--output", help="write machine-readable output here")

    p = sub.add_parser("run-sim", help="run a scenario file through the network simulator")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's seed (default: keep it)")
    p.add_argument("--output", help="directory for events.ndjson and report.json")
    p.set_defaults(func=cmd_run_sim)

    p = sub.add_parser("fath-demo", help="replay the three-period rebase example")
    common(p)
    p.set_defaults(func=cmd_fath_demo)

    p = sub.add_parser("fee-quote", help="price a transaction from the provider quote")
    p.add_argument("--size-gb", default="0.000001", help="payload size in GB")
    p.add_argument("--validators", type=int, default=1)
    p.add_argument("--quote", help="provider quote JSON (default: bundled fixture)")
    p.add_argument("--decline", default=str(fees.DEFAULT_ANNUAL_DECLINE),
                   help="annual storage cost decline rate")
    common(p)
    p.set_defaults(func=cmd_fee_quote)

    p = sub.add_parser("score-modalities", help="rank biometric modalities by weighted score")
    common(p)
    p.set_defaults(func=cmd_score_modalities)

    p = sub.add_parser("prove-linear", help="prove an encrypted linear computation")
    p.add_argument("--inputs", required=True, help="comma-separated integers")
    p.add_argument("--coeffs", required=True, help="comma-separated public coefficients")
    p.add_argument("--keys", help="key file with p,q,g,pk,sk (default: derive from seed)")
    p.add_argument("--save-keys", help="write the key file used")
    p.add_argument("--bits", type=int, default=64, help="group size when deriving keys")
    common(p)
    p.set_defaults(func=cmd_prove_linear)

    p = sub.add_parser("verify-linear", help="verify a statement/proof document")
    p.add_argument("statement", help="statement JSON from prove-linear")
    common(p)
    p.set_defaults(func=cmd_verify_linear)

    p = sub.add_parser("lwe-match", help="match two bit templates under encryption")
    p.add_argument("--template", required=True, help="bit string, e.g. 1011")
    p.add_argument("--probe", required=True, help="bit string of same length")
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--profile", default="default", choices=sorted(lwe.PROFILES))
    common(p)
    p.set_defaults(func=cmd_lwe_match)

    p = sub.add_parser("slash-demo", help="show the blacklist ladder for repeat offenses")
    p.add_argument("--kind", default="offline48h")
    p.add_argument("--repeat", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_slash_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except netsim.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:  # each command refuses its own read errors, so this is a write
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
