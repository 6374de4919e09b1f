"""Workload process: one closed-loop client driving ncup.cli.main in-process.

    python3 perfbench/worker.py --import-time SRC   print the import time of ncup.cli
    python3 perfbench/worker.py JOB.json            run the ops a job file describes

The import of ncup.cli is the first thing timed, in a fresh process.  An op
is one pass over the job's command list and its latency is the summed wall
time of its commands.  The speed probe (speed.py) runs before and after
every command, outside the timed region, and each command's time is also
reported scaled by the mean of the two probes around it.  The first op
warms caches and its latency is not used; its reports are saved for run.py
to check against the oracle, and every later op must reproduce them byte
for byte.  Digests and checks run outside the timed region.  With tracing on, half of the run is untraced and half traced, so
the tracing overhead is measured in the same process.
"""

import time

_T0 = time.perf_counter()
import ncup.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

# Each command is followed by a speed probe lasting this share of its time.
PROBE_SHARE = 0.1


def run_command(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = ncup.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # A raw traceback is a failed op, not a crashed benchmark.
            traceback.print_exc()
            code = -1
    return code, buf.getvalue()


def run_op(commands, probe_s: float):
    """Returns raw and scaled seconds, the results and the probes taken."""
    raw = scaled = 0.0
    results = []
    probes = [probe_s]
    for cmd in commands:
        start = time.perf_counter()
        results.append(run_command(cmd["argv"]))
        seconds = time.perf_counter() - start
        probes.append(speed.probe(PROBE_SHARE * seconds))
        raw += seconds
        scaled += speed.scale(seconds, (probes[-2] + probes[-1]) / 2)
    return raw, scaled, results, probes


def reports(commands, results):
    """(exit code, report bytes) per command; --out files are read back."""
    out = []
    for cmd, (code, text) in zip(commands, results):
        data = text.encode("utf-8")
        if cmd["out"] is not None:
            with open(cmd["out"], "rb") as fh:
                data += fh.read()
        out.append((code, data))
    return out


def digest(written) -> str:
    h = hashlib.sha256()
    for code, data in written:
        h.update(f"{code}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


class Loop:
    def __init__(self, commands, reference: str) -> None:
        self.commands = commands
        self.reference = reference
        self.ops = []

    def run(self, seconds: float, tracer=None) -> None:
        """Run ops until the next one would take the phase past `seconds`."""
        elapsed = 0.0
        probe_s = speed.probe(0.1)
        while True:
            if tracer is not None:
                tracer.op = len(self.ops)
            latency, scaled, results, probes = run_op(self.commands, probe_s)
            probe_s = probes[-1]
            written = reports(self.commands, results)
            codes = [code for code, _ in written]
            failed = None
            if any(codes):
                failed = f"exit codes {codes}"
            elif digest(written) != self.reference:
                failed = "report differs from the first op's"
            self.ops.append(
                {
                    "latency_s": latency,
                    "scaled_s": scaled,
                    "probes_s": probes,
                    "traced": tracer is not None,
                    "failed": failed,
                    "bytes_written": sum(len(data) for _, data in written),
                }
            )
            elapsed += latency
            if elapsed + latency > seconds:
                return


def trace_summary(tracer, spans_path: str) -> dict:
    tracer.write_spans(spans_path)
    totals = tracer.totals()
    return {
        "threads": tracer.threads(),
        "spans": sum(t[0] for t in totals.values()),
        "totals": totals,
    }


def main(argv) -> int:
    if argv[0] == "--import-time":
        check_source(argv[1])
        print(repr(SETUP_S))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    check_source(job["src"])
    commands = job["commands"]

    _, _, results, _ = run_op(commands, speed.probe(0.1))
    written = reports(commands, results)
    for i, (code, data) in enumerate(written):
        with open(os.path.join(job["work"], f"ref-{i}.out"), "wb") as fh:
            fh.write(data)
    loop = Loop(commands, digest(written))

    seconds = job["seconds"]
    result = {"codes": [c for c, _ in written]}
    if job["trace"]:
        loop.run(seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        loop.run(seconds / 2, tracer)
        result["trace"] = trace_summary(tracer, os.path.join(job["work"], "spans.tsv"))
    else:
        loop.run(seconds)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = loop.ops
    with open(os.path.join(job["work"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def check_source(src: str) -> None:
    """Refuse to measure an ncup imported from anywhere but the checkout."""
    where = os.path.realpath(ncup.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"worker: ncup.cli was imported from {where}, not from {src}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
