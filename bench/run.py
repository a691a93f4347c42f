"""sfclosure benchmark: one workload run, from the root of a checkout.

    python3 bench/run.py --workload membership-ladder --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from the seed (gen.py), then drives the
library from one single-threaded child process (child.py), a closed loop
with one client and one query in flight.  The last stdout line is one
JSON object {correct, attempted, failed, metrics}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones
taken from a separate traced run.  Query and set-up times are scaled to a
fixed machine speed measured between queries (speed.py), because the
shared host's own speed drifts by +-20% within a minute; the raw figures
are printed on the line before the result.  Exits non-zero without a result when the
program cannot be imported from ./src or the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import speed  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".bench_out"
SETUP_PROBES = 4
CLI_PROBES = 5
CHILD_TIMEOUT_S = 150
# wall-time budget of one query; an overrun counts as a failed query
BUDGET_S = {"membership-ladder": 30.0, "cover-saturation": 30.0, "bridges": 15.0}
# layers each workload is built to stress; their share of traced busy time
# is reported as trace.lead_share
LEAD_LAYERS = {
    "membership-ladder": ("monoid", "oracles"),
    "cover-saturation": ("semiring", "covering"),
    "bridges": ("ltl", "sd", "automata"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], payload: str | None = None, timeout: float = 60.0):
    """Run a child to completion; returns (exit code, stdout, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, input=payload, capture_output=True, text=True, env=child_env(),
        timeout=timeout,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout, time.perf_counter() - start


def setup_seconds(inputs: dict) -> list[float]:
    """Spawn-to-answer time of a fresh child (interpreter start, import of
    sfclosure, and the workload's warm-up query), each scaled by the
    reference sampled just before and after it."""
    payload = json.dumps(dict(inputs, queries=[]))
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed.reference_ms()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, "probe"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
        finally:
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {code}")
        samples.append(elapsed * speed.scale((before + speed.reference_ms()) / 2.0))
    return samples


def cli_metrics() -> tuple[dict, int]:
    """Cold-start cost of the sfc command line; returns (metrics, failures)."""
    py = sys.executable
    bare, imported, cold = [], [], []
    failures = caps = 0
    for _ in range(CLI_PROBES):
        bare.append(spawn([py, "-c", "pass"])[2])
        code, _, wall = spawn([py, "-c", "import sfclosure.cli"])
        failures += code != 0
        imported.append(wall)
        code, out, wall = spawn([py, "-m", "sfclosure.cli", "regex", "_", "--alphabet", "a"])
        caps += code == 3
        if code != 0 or json.loads(out or "null") is None:
            failures += 1
        cold.append(wall)
    return {
        "cli.calls": CLI_PROBES,
        "cli.cap_hits": caps,
        "cli.import_ms": (statistics.median(imported) - statistics.median(bare)) * 1000.0,
        "cli.cold_call_ms": statistics.median(cold) * 1000.0,
    }, failures


def run_child(inputs: dict, trace: int, seconds: float, spans: str | None) -> dict:
    argv = [sys.executable, CHILD, "run", "--trace", str(trace), "--seconds", str(seconds)]
    if spans:
        argv += ["--spans", spans]
    code, out, _ = spawn(argv, json.dumps(inputs), timeout=CHILD_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"workload child exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def scaled_ms(record: list) -> float:
    """A record's wall time scaled to the reference speed (speed.py)."""
    return record[2] * speed.scale(record[3])


def raw_ms(record: list) -> float:
    return record[2]


def pass_rate(records: list, ms=scaled_ms) -> float:
    """Queries completed per second of busy time in one pass."""
    completed = sum(r[1] in ("ok", "wrong") for r in records)
    return completed / (sum(ms(r) for r in records) / 1000.0)


def timing(passes: list, ms) -> dict:
    """Rate and latency percentiles of passes under one clock.

    The rate is the median over passes, and each query's latency is its
    median over passes, so a slow spell during one pass does not decide
    the figures."""
    times = [statistics.median(t) for t in zip(*([ms(r) for r in p] for p in passes))]
    return {
        "queries_per_s": statistics.median(pass_rate(p, ms) for p in passes),
        "latency_p50_ms": statistics.median(times),
        "latency_p95_ms": statistics.quantiles(times, n=20)[18],
    }


def summarize(passes: list) -> dict:
    """Counts and timing of passes of [kind, status, ms, reference ms]
    records: scaled to the reference speed, and raw for comparison."""
    records = [r for p in passes for r in p]
    return {
        "attempted": len(records),
        "failed": sum(r[1] != "ok" for r in records),
        "wrong": sum(r[1] == "wrong" for r in records),
        "statuses": {s: sum(r[1] == s for r in records) for s in {r[1] for r in records}},
        "passes": len(passes),
        "pass_rates": [pass_rate(p) for p in passes],
        **timing(passes, scaled_ms),
        "samples": len(passes[0]),
        "reference_ms": statistics.median(r[3] for r in records),
        "raw": timing(passes, raw_ms),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    inputs = gen.WORKLOADS[args.workload](args.seed)
    inputs["budget_s"] = BUDGET_S[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "input_hash": gen.input_hash(inputs),
        "queries": len(inputs["queries"]), "config": inputs["config"],
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
    }
    try:
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
            result = run_child(inputs, 1, args.seconds, spans)
            cli, cli_failures = cli_metrics()
        else:
            # set-up is probed before and after the run, to see two spells
            # of the machine's drifting speed
            setup = setup_seconds(inputs)
            result = run_child(inputs, 0, args.seconds, None)
            setup += setup_seconds(inputs)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        untraced = summarize(result["untraced"])
        traced = summarize(result["traced"])
        layers = result["layers"]
        busy = layers["trace.busy_ms"]
        lead = sum(layers[f"{layer}.self_ms"] for layer in LEAD_LAYERS[args.workload])
        metrics = {name: metric(value, unit_of(name)) for name, value in layers.items()}
        metrics.update({name: metric(value, unit_of(name)) for name, value in cli.items()})
        metrics["trace.lead_share"] = metric(lead / busy, "share")
        metrics["trace.queries_per_s"] = metric(traced["queries_per_s"], "1/s")
        metrics["trace.untraced_queries_per_s"] = metric(untraced["queries_per_s"], "1/s")
        metrics["trace.overhead_share"] = metric(statistics.median(
            u / t - 1.0 for u, t in zip(untraced["pass_rates"], traced["pass_rates"])), "share")
        attempted = untraced["attempted"] + traced["attempted"] + CLI_PROBES
        failed = untraced["failed"] + traced["failed"] + cli_failures
        wrong = untraced["wrong"] + traced["wrong"]
        detail = {"untraced": untraced, "traced": traced, "layers": layers}
    else:
        summary = summarize(result["passes"])
        metrics = {
            "queries_per_s": metric(summary["queries_per_s"], "1/s"),
            "latency_p50_ms": metric(summary["latency_p50_ms"], "ms"),
            "latency_p95_ms": metric(summary["latency_p95_ms"], "ms"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(result["peak_rss_kb"] / 1024.0, "MB"),
        }
        attempted, failed, wrong = summary["attempted"], summary["failed"], summary["wrong"]
        detail = dict(summary, setup_samples=setup)
    print(json.dumps({**meta, "failed_share": failed / attempted, "detail": detail}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "share"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
