"""Benchmark for the ncup command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ncup is imported from its src/.
The run writes the workload's inputs (made from --seed with numpy only),
times the import of ncup.cli in fresh processes, then starts one worker
process that drives ncup.cli.main in a closed loop for --seconds (see
worker.py).  Timings are scaled by the machine-speed probe of speed.py.
Every op's exit code and report are checked, the first op's
against a numpy oracle and every later one for byte identity with it.
Human-readable lines come first; the last line of stdout is one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  Scratch files go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
import speed
from check import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = "src"
WORK = os.path.join("perfbench", ".work")
WORKER = os.path.join("perfbench", "worker.py")
SETUP_PROBES = 11
DEADLINE_S = 170.0

# The audit's thread pool gets the usable cores; that is also its default.
CORES = len(os.sched_getaffinity(0))


def _audit_small(seed: int, work: str) -> list[dict]:
    argv = ["audit", "--algebra", "1,2", "--d", "3", "--trials", "1000", "--seed", str(seed)]
    return [{"kind": "audit", "argv": argv, "out": None, "expect": {"trials": 1000}}]


def _files_large(seed: int, work: str) -> list[dict]:
    paths = {name: os.path.join(work, f"{name}.json") for name in ("tau", "omega", "raw", "x")}
    oracle = inputs.write_frame_set(np.random.default_rng(seed), (4, 4, 8), 16, 24, paths)
    for name in ("tau_residual", "omega_residual"):
        if not oracle[name] <= 1e-12:
            raise RuntimeError(f"generated frame has {name} {oracle[name]:.3e}")
    pair = ["--frame-tau", paths["tau"], "--frame-omega", paths["omega"]]
    out = os.path.join(work, "parseval.json")
    companion = {k: oracle[k] for k in ("dims", "d", "count")}
    companion["companion"] = oracle["raw_parseval"]
    return [
        {"kind": "certify", "argv": ["certify", *pair, "--vector", paths["x"]], "out": None,
         "expect": {"mu": oracle["mu"]}},
        {"kind": "coherence", "argv": ["coherence", *pair], "out": None,
         "expect": {"mu": oracle["mu"]}},
        {"kind": "parsevalize", "argv": ["parsevalize", "--frame-tau", paths["raw"], "--out", out],
         "out": out, "expect": companion},
    ]


def _tao_exhaustive(seed: int, work: str) -> list[dict]:
    # Every square minor of the critical layer |T| + |Omega| = p.
    pairs = sum(math.comb(11, s) ** 2 for s in range(1, 11))
    argv = ["tao", "--p", "11", "--mode", "exhaustive", "--force"]
    return [{"kind": "tao", "argv": argv, "out": None, "expect": {"p": 11, "pairs_checked": pairs}}]


def _fourier_sampled(seed: int, work: str) -> list[dict]:
    p = 5
    patterns = sum(
        math.comb(p, s) * sum(math.comb(p, o) for o in range(1, p - s + 1)) for s in range(1, p)
    )
    return [
        {"kind": "tao", "argv": ["tao", "--p", "13", "--mode", "sampled", "--seed", str(seed)],
         "out": None, "expect": {"p": 13, "pairs_checked": 100_000}},
        {"kind": "conjecture",
         "argv": ["conjecture", "--algebra", "2", "--p", str(p), "--trials", "10000",
                  "--seed", str(seed)],
         "out": None, "expect": {"p": p, "patterns_checked": patterns}},
    ]


# BENCHMARK.json gates files-large and fourier-sampled only; the other two
# are kept runnable but spread too much here to gate (see README.md).
WORKLOADS = {
    "audit-small": _audit_small,
    "files-large": _files_large,
    "tao-exhaustive": _tao_exhaustive,
    "fourier-sampled": _fourier_sampled,
}

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

# name, unit, better, source, key.  Every value is per traced op.  Sources:
# calls / ms / units of a span name, self_ms of a layer (span time minus its
# child spans), or a value the worker or the reports give.
PER_LAYER = [
    ("cli.self_ms", "ms", "lower", "self_ms", "cli"),
    ("cli.json_load_ms", "ms", "lower", "ms", "json.load"),
    ("cli.json_bytes_read", "B", "lower", "units", "json.load"),
    ("cli.report_bytes_written", "B", "lower", "op", "bytes_written"),
    ("uncertainty.self_ms", "ms", "lower", "self_ms", "uncertainty"),
    ("uncertainty.certify.calls", "count", "lower", "calls", "uncertainty.certify"),
    ("uncertainty.proof_chain_check.calls", "count", "lower", "calls", "uncertainty.proof_chain_check"),
    ("frames.self_ms", "ms", "lower", "self_ms", "frames"),
    ("frames.is_parseval.calls", "count", "lower", "calls", "frames.is_parseval"),
    ("frames.frame_operator.calls", "count", "lower", "calls", "frames.frame_operator"),
    ("frames.analysis.calls", "count", "lower", "calls", "frames.analysis"),
    ("frames.cross_gram_norms.calls", "count", "lower", "calls", "frames.cross_gram_norms"),
    ("frames.from_dict.calls", "count", "lower", "calls", "frames.ModularFrame.from_dict"),
    ("frames.random_frame.calls", "count", "lower", "calls", "frames.random_frame"),
    ("frames.random_parseval_frame.calls", "count", "lower", "calls", "frames.random_parseval_frame"),
    ("frames.generation_yield", "ratio", "higher", "yield", None),
    ("csmodule.self_ms", "ms", "lower", "self_ms", "csmodule"),
    ("csmodule.op_inv_sqrt.calls", "count", "lower", "calls", "csmodule.op_inv_sqrt"),
    ("csmodule.op_norm.calls", "count", "lower", "calls", "csmodule.op_norm"),
    ("csmodule.inner_product.calls", "count", "lower", "calls", "csmodule.inner_product"),
    ("algebra.self_ms", "ms", "lower", "self_ms", "algebra"),
    ("algebra.norm.calls", "count", "lower", "calls", "algebra.norm"),
    ("ncft.self_ms", "ms", "lower", "self_ms", "ncft"),
    ("ncft.pairs_checked", "count", "lower", "report", "pairs_checked"),
    ("ncft.patterns_checked", "count", "lower", "report", "patterns_checked"),
    ("ncft.pattern_feasible_minor.calls", "count", "lower", "calls", "ncft.pattern_feasible_minor"),
    ("numpy.einsum.calls", "count", "lower", "calls", "numpy.einsum"),
    ("numpy.einsum.ms", "ms", "lower", "ms", "numpy.einsum"),
    ("numpy.svd.calls", "count", "lower", "calls", "numpy.svd"),
    ("numpy.svd.matrices", "count", "lower", "units", "numpy.svd"),
    ("numpy.svd.ms", "ms", "lower", "ms", "numpy.svd"),
    ("numpy.eigh.calls", "count", "lower", "calls", "numpy.eigh"),
    ("numpy.eigh.ms", "ms", "lower", "ms", "numpy.eigh"),
    ("numpy.norm.calls", "count", "lower", "calls", "numpy.norm"),
    ("numpy.norm.ms", "ms", "lower", "ms", "numpy.norm"),
    ("trace.spans", "count", "lower", "trace", "spans"),
    ("trace.threads", "count", "lower", "trace", "threads"),
    ("trace.untraced_ops_per_s", "1/s", "higher", "overhead", "untraced"),
    ("trace.traced_ops_per_s", "1/s", "higher", "overhead", "traced"),
    ("trace.overhead_pct", "%", "lower", "overhead", "pct"),
]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": CORES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})",
        "NCUP_THREADS": str(CORES),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["NCUP_THREADS"] = str(CORES)
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise RuntimeError(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def setup_seconds(env: dict, started: float) -> tuple[float, float]:
    """Median import time of ncup.cli over fresh processes: raw, scaled."""
    raw, scaled_ = [], []
    before = speed.probe(0.05)
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, WORKER, "--import-time", SRC], env=env, check=True,
            stdout=subprocess.PIPE, text=True, timeout=remaining(started),
        )
        seconds = float(proc.stdout.strip().splitlines()[-1])
        after = speed.probe(0.05)
        raw.append(seconds)
        scaled_.append(speed.scale(seconds, (before + after) / 2))
        before = after
    return statistics.median(raw), statistics.median(scaled_)


def layer_metrics(result: dict, commands: list[dict], work: str) -> dict:
    traced = [op for op in result["ops"] if op["traced"]]
    untraced = [op for op in result["ops"] if not op["traced"]]
    n = len(traced)
    info = result["trace"]
    totals = info["totals"]
    empty = [0, 0.0, 0.0, 0]

    def self_ms(layer: str) -> float:
        return sum(t[2] for name, t in totals.items() if name.split(".")[0] == layer) * 1e3 / n

    report_counts = {}
    for i, cmd in enumerate(commands):
        if cmd["kind"] in ("tao", "conjecture"):
            with open(os.path.join(work, f"ref-{i}.out"), encoding="utf-8") as fh:
                report = json.load(fh)
            for key in ("pairs_checked", "patterns_checked"):
                report_counts[key] = report_counts.get(key, 0) + report.get(key, 0)

    def throughput(ops) -> float:
        return len(ops) / sum(op["scaled_s"] for op in ops)

    overhead = {"untraced": throughput(untraced), "traced": throughput(traced)}
    overhead["pct"] = (overhead["untraced"] / overhead["traced"] - 1.0) * 100.0
    attempts = totals.get("frames.random_frame", empty)[0]

    values = {}
    for name, _, _, source, key in PER_LAYER:
        if source == "calls":
            values[name] = totals.get(key, empty)[0] / n
        elif source == "ms":
            values[name] = totals.get(key, empty)[1] * 1e3 / n
        elif source == "units":
            values[name] = totals.get(key, empty)[3] / n
        elif source == "self_ms":
            values[name] = self_ms(key)
        elif source == "op":
            values[name] = statistics.mean(op[key] for op in traced)
        elif source == "report":
            values[name] = report_counts.get(key, 0)
        elif source == "trace":
            values[name] = info[key] / n if key == "spans" else info[key]
        elif source == "overhead":
            values[name] = overhead[key]
        elif source == "yield":
            values[name] = (
                totals.get("frames.random_parseval_frame", empty)[0] / attempts if attempts else 0.0
            )
    return values


def e2e_metrics(seconds: list[float], peak_rss_mib: float, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(seconds) / sum(seconds),
        "op_p50_ms": float(np.percentile(seconds, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(seconds, 90)) * 1e3,
        "peak_rss_mib": peak_rss_mib,
    }


def run(args) -> int:
    started = time.monotonic()
    work = os.path.join(WORK, args.workload)
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))

    commands = WORKLOADS[args.workload](args.seed, work)
    env = child_env()
    for key, value in environment().items():
        print(f"env {key} = {value}")
    for cmd in commands:
        print(f"command: ncup {' '.join(cmd['argv'])}")

    setup_raw_s, setup_s = setup_seconds(env, started)
    job = {
        "src": SRC,
        "work": work,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commands": [{"argv": c["argv"], "out": c["out"]} for c in commands],
    }
    job_path = os.path.join(work, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    subprocess.run(
        [sys.executable, WORKER, job_path], env=env, check=True,
        stdout=sys.stderr, timeout=remaining(started),
    )
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    # Every op reproduced the first op's reports (the worker compared
    # digests), so checking the first op's reports checks every op.
    problems = []
    for i, (cmd, code) in enumerate(zip(commands, result["codes"])):
        with open(os.path.join(work, f"ref-{i}.out"), encoding="utf-8") as fh:
            problems += check(cmd["kind"], code, fh.read(), cmd["expect"])
    ops = result["ops"]
    attempted = len(ops) + 1
    failed = attempted if problems else sum(1 for op in ops if op["failed"])
    for problem in problems + sorted({op["failed"] for op in ops if op["failed"]}):
        print(f"FAILED: {problem}")

    untraced = [op for op in ops if not op["traced"]]
    if args.trace:
        values = layer_metrics(result, commands, work)
        table = [(name, unit) for name, unit, *_ in PER_LAYER]
        print(f"traced ops = {len(ops) - len(untraced)}, spans in {work}/spans.tsv")
    else:
        rss = result["peak_rss_mib"]
        values = e2e_metrics([op["scaled_s"] for op in untraced], rss, setup_s)
        table = [(name, unit) for name, unit, _ in END_TO_END]
        raw = e2e_metrics([op["latency_s"] for op in untraced], rss, setup_raw_s)
        probes = statistics.median(p for op in untraced for p in op["probes_s"])
        print(f"timed ops = {len(untraced)} (op_p90_ms is over these), warm-up ops = 1")
        print(f"speed probe median = {probes * 1e3:.4g} ms, reference {speed.REFERENCE_S * 1e3:g} ms")
        print("unscaled: " + ", ".join(f"{name} = {raw[name]:.6g} {unit}" for name, unit in table))
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    for name, unit in table:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        parser.error("--seed must be a nonnegative 63-bit integer and --seconds positive")
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "ncup", "cli.py")):
        print(f"run.py: no ncup sources under {os.path.join(ROOT, SRC)}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (subprocess.SubprocessError, OSError, RuntimeError) as exc:
        print(f"run.py: benchmark aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
