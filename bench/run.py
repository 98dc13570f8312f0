"""bionode benchmark: one seeded workload per run, correctness-gated.

    python3 bench/run.py --workload sim-churn --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy. Before anything is timed,
the four committed scenarios are replayed and compared with their golden
reports and event-log hashes under ``tests/golden/``.

``--trace 0`` times the workload's operations for ``--seconds`` and reports
the end-to-end metrics. Their times are calibrated to the host's speed with
the kernel in ``reference``, which runs between the operations; the wall
times are on the detail line. ``--trace 1`` repeats a fixed unit of the same
work, alternately untraced and with every entry point in ``tracing`` wrapped,
for ``--seconds``; it reports the per-layer metrics of one traced unit
(counts exactly, times as the median over units), the tracing overhead, and
writes the first traced unit's spans under ``.bench_out/``. ``--quick``
shrinks every input for the self-test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run (machine, generated parameters, gate, event-log hash).
A missing library or golden file exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("honest", "faulty", "malicious", "governed")
# Input generation is timed once in each of this many fresh interpreters.
# Within one process, repeating a generation of a few milliseconds can halve
# its time after a while, or not, so repeats there would time warm-up luck.
SETUP_PROCESSES = 5
# Passes of the reference kernel each of those interpreters makes after it.
SETUP_REFERENCE_PASSES = 5
# Share of a run's op time spent in the reference kernel, between ops.
REFERENCE_SHARE = 0.1

# name, unit, better, meaning on sim-churn / epoch-close / bioauth-crypto
END_TO_END = [
    ("setup_s", "s", "lower",
     "input generation before the first timed op, median over fresh processes (the import is on the detail line), calibrated by the whole reference kernel"),
    ("peak_rss_mb", "MB", "lower", "peak resident set of the workload process"),
    ("ops_ok_frac", "frac", "higher",
     "1 - failed/attempted ops; the result line carries both counts"),
    ("op_ms.mean", "ms", "lower",
     "mean ms per unit of one op: per simulated slot of a netsim.run / per epoch close of a rise-and-fall pair / per renewal; calibrated by the workload's reference parts"),
]

# name, unit, better, where the value comes from, which end-to-end metric it should move
LAYER_METRICS = [
    ("slashing.is_blacklisted.calls", "count", "lower", ("calls", "slashing.is_blacklisted"), "sim-churn op_ms.mean"),
    ("slashing.is_blacklisted.s", "s", "lower", ("self", "slashing.is_blacklisted"), "sim-churn op_ms.mean"),
    ("slashing.slash.calls", "count", "lower", ("calls", "slashing.slash"), "sim-churn op_ms.mean"),
    ("slashing.blacklist_entries", "count", "lower", ("gauge", "slashing.blacklist_entries"), "sim-churn op_ms.mean"),
    ("netsim.authorized_roster.calls", "count", "lower", ("calls", "netsim.authorized_roster"), "sim-churn op_ms.mean"),
    ("netsim.authorized_roster.s", "s", "lower", ("self", "netsim.authorized_roster"), "sim-churn op_ms.mean"),
    ("netsim.renew_ticket.calls", "count", "lower", ("calls", "netsim.renew_ticket"), "sim-churn op_ms.mean"),
    ("netsim.renew_ticket.s", "s", "lower", ("self", "netsim.renew_ticket"), "sim-churn op_ms.mean"),
    ("netsim.distribute_fees.calls", "count", "lower", ("calls", "netsim.distribute_fees"), "epoch-close op_ms.mean; sim-churn op_ms.mean"),
    ("netsim.distribute_fees.s", "s", "lower", ("self", "netsim.distribute_fees"), "epoch-close op_ms.mean; sim-churn op_ms.mean"),
    ("netsim.run.self_s", "s", "lower", ("self", "netsim.run"), "sim-churn op_ms.mean"),
    ("fath.run_period.calls", "count", "lower", ("calls", "fath.run_period"), "epoch-close op_ms.mean; small on sim-churn"),
    ("fath.run_period.s", "s", "lower", ("self", "fath.run_period"), "epoch-close op_ms.mean; small on sim-churn"),
    ("fath.accounts_rebased", "count", "lower", ("counter", "fath.accounts_rebased"), "epoch-close op_ms.mean; small on sim-churn"),
    ("vortex.pool_vote.calls", "count", "lower", ("calls", "vortex.pool_vote"), "epoch-close op_ms.mean; also sim-churn op_ms.mean"),
    ("vortex.pool_vote.s", "s", "lower", ("self", "vortex.pool_vote"), "epoch-close op_ms.mean; also sim-churn op_ms.mean"),
    ("vortex.cast_vote.s", "s", "lower", ("self", "vortex.cast_vote"), "epoch-close op_ms.mean"),
    ("vortex.tally.s", "s", "lower", ("self", "vortex.tally"), "epoch-close op_ms.mean"),
    ("vortex.submit_proposal.s", "s", "lower", ("self", "vortex.submit_proposal"), "epoch-close op_ms.mean"),
    ("lwe.poly_mul.calls", "count", "lower", ("calls", "lwe.poly_mul"), "bioauth-crypto op_ms.mean (match and enroll laps)"),
    ("lwe.poly_mul.s", "s", "lower", ("self", "lwe.poly_mul"), "bioauth-crypto op_ms.mean (match and enroll laps)"),
    ("lwe.sample_gaussian_poly.calls", "count", "lower", ("calls", "lwe.sample_gaussian_poly"), "bioauth-crypto op_ms.mean (match and enroll laps)"),
    ("lwe.sample_gaussian_poly.s", "s", "lower", ("self", "lwe.sample_gaussian_poly"), "bioauth-crypto op_ms.mean (match and enroll laps)"),
    ("lwe.lwe_encrypt.s", "s", "lower", ("self", "lwe.lwe_encrypt"), "bioauth-crypto op_ms.mean (match lap)"),
    ("lwe.lwe_mul.s", "s", "lower", ("self", "lwe.lwe_mul"), "bioauth-crypto op_ms.mean (match lap)"),
    ("lwe.lwe_decrypt.s", "s", "lower", ("self", "lwe.lwe_decrypt"), "bioauth-crypto op_ms.mean (match lap)"),
    ("lwe.lwe_keygen.s", "s", "lower", ("self", "lwe.lwe_keygen"), "bioauth-crypto op_ms.mean (enroll lap)"),
    ("lwe.noise_margin", "x", "higher", ("gauge", "lwe.noise_margin"), "none: a correctness margin, 0 where no match ran"),
    ("biometrics.encrypted_match.calls", "count", "lower", ("calls", "biometrics.encrypted_match"), "bioauth-crypto op_ms.mean (match lap)"),
    ("biometrics.encrypted_match.self_s", "s", "lower", ("self", "biometrics.encrypted_match"), "bioauth-crypto op_ms.mean (match lap)"),
    ("groups.encrypt_with_nonce.calls", "count", "lower", ("calls", "groups.encrypt_with_nonce"), "bioauth-crypto op_ms.mean (prove lap)"),
    ("groups.encrypt_with_nonce.s", "s", "lower", ("self", "groups.encrypt_with_nonce"), "bioauth-crypto op_ms.mean (prove lap)"),
    ("groups.contains.calls", "count", "lower", ("calls", "groups.contains"), "bioauth-crypto op_ms.mean (prove and verify laps)"),
    ("groups.contains.s", "s", "lower", ("self", "groups.contains"), "bioauth-crypto op_ms.mean (prove and verify laps)"),
    ("zkp.aggregate.calls", "count", "lower", ("calls", "zkp.aggregate"), "bioauth-crypto op_ms.mean (prove and verify laps)"),
    ("zkp.aggregate.s", "s", "lower", ("self", "zkp.aggregate"), "bioauth-crypto op_ms.mean (prove and verify laps)"),
    ("zkp.logeq_prove.s", "s", "lower", ("self", "zkp.logeq_prove"), "bioauth-crypto op_ms.mean (prove lap)"),
    ("zkp.logeq_verify.s", "s", "lower", ("self", "zkp.logeq_verify"), "bioauth-crypto op_ms.mean (verify lap)"),
    ("zkp.prove_linear.self_s", "s", "lower", ("self", "zkp.prove_linear"), "bioauth-crypto op_ms.mean (prove lap)"),
    ("zkp.verify_linear.self_s", "s", "lower", ("self", "zkp.verify_linear"), "bioauth-crypto op_ms.mean (verify lap)"),
    ("trace.unit_s", "s", "lower", ("unit",), "none: wall time of one untraced unit"),
    ("trace.overhead_s", "s", "lower", ("overhead",), "none: traced minus untraced wall time of one unit"),
]


class SetupError(Exception):
    """The checkout lacks the library or the golden files."""


def load_library():
    src = ROOT / "src"
    if not (src / "bionode" / "__init__.py").is_file():
        raise SetupError(f"no bionode package under {src}")
    sys.path.insert(0, str(src))
    bionode = importlib.import_module("bionode")
    if Path(bionode.__file__).resolve().parent != (src / "bionode").resolve():
        raise SetupError(f"bionode imported from {bionode.__file__}, not from {src}")
    return bionode


def golden_gate(netsim) -> dict[str, bool]:
    """Replay each committed scenario against its golden report and log hash."""
    golden = ROOT / "tests" / "golden"
    outcome = {}
    for name in SCENARIOS:
        try:
            config = netsim.load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
            want_report = json.loads((golden / f"{name}_report.json").read_text())
            want_sha = (golden / f"{name}_events.sha256").read_text().strip()
        except OSError as exc:
            raise SetupError(f"scenario {name}: {exc}") from exc
        try:
            sim = netsim.run(config)
        except Exception:  # a crashing scenario fails the gate like a wrong one
            traceback.print_exc(file=sys.stderr)
            outcome[name] = False
            continue
        sha = hashlib.sha256(sim.event_log().encode()).hexdigest()
        outcome[name] = sim.report() == want_report and sha == want_sha
    return outcome


def context() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [l.split(":", 1)[1].strip() for l in cpuinfo.read_text().splitlines()
                  if l.startswith("model name")]
        cpu = models[0] if models else cpu
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "src_lines": src_lines,
    }


def setup_seconds(name: str, seed: int, quick: bool) -> tuple[float, list]:
    """Median calibrated time to generate the workload's inputs once, in fresh
    interpreters that have already imported the library; and the wall times."""
    code = (
        "import json, sys, time; sys.path[:0] = sys.argv[1:3]; import reference, workloads; "
        "t = time.perf_counter(); workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5] == '1'); "
        "took = time.perf_counter() - t; "
        f"print(json.dumps([took, [reference.run() for _ in range({SETUP_REFERENCE_PASSES})]]))"
    )
    calibrated_s, wall = [], []
    for _ in range(1 if quick else SETUP_PROCESSES):
        out = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(Path(__file__).parent),
             name, str(seed), "1" if quick else "0"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        took, passes = json.loads(out.stdout)
        calibrated_s.append(calibrated(took, passes, reference.PARTS))
        wall.append(took)
    return statistics.median(calibrated_s), wall


def run_op(workload, i, call=None):
    """One op and its check; returns (seconds, result or None, failed units)."""
    start = perf_counter()
    try:
        result = call(workload.op, i) if call else workload.op(i)
    except Exception:  # a failing op is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - start, None, workload.units
    took = perf_counter() - start
    return took, result, workload.check(result)


def calibrated(seconds: float, passes: list[dict], parts) -> float:
    """`seconds` scaled to a host on which the reference kernel's `parts` take
    their nominal time."""
    nominal = sum(reference.NOMINAL_MS[p] for p in parts) / 1e3
    return seconds * nominal / statistics.fmean(sum(run[p] for p in parts) for run in passes)


def measure(workload, seconds: float):
    """Closed loop: op after op while the next one still fits in `seconds`.
    The first op warms up and is checked but not timed. Between the others,
    the reference kernel runs for REFERENCE_SHARE of the op time."""
    workload.reset()
    reference.run()  # warm-up
    laps, passes = {}, []
    attempted = failed = 0
    busy = reference_busy = 0.0
    start = perf_counter()
    i = 0
    while True:
        took, result, bad = run_op(workload, i)
        attempted += workload.units
        failed += bad
        i += 1
        if i == 1:
            # the first op also pays for growing the heap: the op on
            # epoch-close can take 40% longer than the next one
            continue
        busy += took
        if result is not None:
            for kind, values in workload.laps(result).items():
                laps.setdefault(kind, []).extend(values)
        while reference_busy < REFERENCE_SHARE * busy:
            passes.append(reference.run())
            reference_busy += sum(passes[-1].values())
        if perf_counter() - start + took * (1 + REFERENCE_SHARE) > seconds:  # the next op would overrun
            break
    timed = attempted - workload.units
    metrics = {
        "op_ms.mean": calibrated(busy / timed, passes, workload.reference_parts) * 1e3,
        "ops_ok_frac": 1 - failed / attempted,
    }
    detail = {
        "ops": i, "timed_units": timed, "units_per_s": timed / busy,
        "op_wall_ms.mean": busy / timed * 1e3, "reference_passes": len(passes),
    }
    for part in reference.PARTS:
        detail[f"reference.{part}_ms.mean"] = statistics.fmean(p[part] for p in passes) * 1e3
    for kind, values in sorted(laps.items()):
        detail[f"{kind}_ms.p50"] = statistics.median(values) * 1e3
        # a p90 needs ten samples beyond it
        if len(values) >= 100:
            detail[f"{kind}_ms.p90"] = statistics.quantiles(values, n=10, method="inclusive")[8] * 1e3
        detail[f"{kind}.samples"] = len(values)
    return metrics, detail, attempted, failed


def measure_traced(workload, seconds: float, spans_path: Path):
    """Alternate untraced and traced runs of the fixed unit while they fit in `seconds`."""
    import tracing

    untraced, traced, units = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        for use_tracer in (False, True):
            tracer = tracing.Tracer()
            workload.reset()
            if use_tracer:
                tracer.install()
            try:
                begin = perf_counter()
                outcomes = [
                    run_op(workload, i, (lambda op, j: tracer.request(
                        f"bench.{workload.name}", op, j)) if use_tracer else None)
                    for i in range(workload.trace_ops)
                ]
                wall = perf_counter() - begin
            finally:
                tracer.uninstall()
            attempted += workload.units * len(outcomes)
            failed += sum(bad for _, _, bad in outcomes)
            if not use_tracer:
                untraced.append(wall)
                continue
            traced.append(wall)
            results = [r for _, r, _ in outcomes if r is not None]
            units.append((tracer, workload.gauges(results)))
            if len(units) == 1:
                spans_path.parent.mkdir(exist_ok=True)
                tracer.write_spans(spans_path)
        if 2 * perf_counter() - pair_start - start > seconds:  # the next pair would overrun
            break

    def value(source, tracer, gauges):
        kind = source[0]
        if kind == "calls":
            return tracer.calls[source[1]]
        if kind == "self":
            return tracer.self_time[source[1]]
        if kind == "counter":
            return tracer.counters[source[1]]
        if kind == "gauge":
            return gauges.get(source[1], 0)
        if kind == "unit":
            return statistics.median(untraced)
        return statistics.median(traced) - statistics.median(untraced)

    metrics = {}
    for name, _, _, source, _ in LAYER_METRICS:
        values = [value(source, t, g) for t, g in units]
        # counts and gauges repeat exactly from unit to unit; times take the median
        metrics[name] = values[0] if source[0] in ("calls", "counter", "gauge") else statistics.median(values)
    detail = {"units": len(units), "ops_per_unit": workload.trace_ops, "spans": str(spans_path.relative_to(ROOT))}
    return metrics, detail, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sim-churn", "epoch-close", "bioauth-crypto"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    try:
        started = perf_counter()
        load_library()
        import_s = perf_counter() - started
        from bionode import netsim
        import workloads

        gate = golden_gate(netsim)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("context " + json.dumps(context(), sort_keys=True))
    print("gate " + json.dumps(gate, sort_keys=True))

    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    print("workload " + json.dumps({"name": args.workload, "seed": args.seed, "params": workload.params}, sort_keys=True))

    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.ndjson"
        metrics, detail, attempted, failed = measure_traced(workload, args.seconds, spans)
    else:
        metrics, detail, attempted, failed = measure(workload, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"], detail["setup_wall_s"] = setup_seconds(args.workload, args.seed, args.quick)
    detail["import_s"] = import_s
    if getattr(workload, "event_sha256", None):
        print(f"events-sha256 {workload.event_sha256}")
    print("detail " + json.dumps(detail, sort_keys=True))

    table = LAYER_METRICS if args.trace else END_TO_END
    units = {row[0]: row[1] for row in table}
    result = {
        "correct": all(gate.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name, *_ in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
