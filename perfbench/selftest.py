"""Self-tests of the benchmark: the output checker, the inputs and the trace.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

Run from the root of a source checkout.  The trace test runs the
tao-exhaustive workload twice and takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import ncup.cli  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from check import check  # noqa: E402

WORK = os.path.join(HERE, ".work", "selftest")


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ncup.cli.main(argv)
    return code, buf.getvalue()


def _small_frames(seed: int):
    work = _fresh_dir(os.path.join(WORK, f"frames-{seed}"))
    paths = {name: os.path.join(work, f"{name}.json") for name in ("tau", "omega", "raw", "x")}
    oracle = inputs.write_frame_set(np.random.default_rng(seed), (1, 2), 3, 5, paths)
    return paths, oracle


def test_inputs_repeat_for_a_seed_and_are_parseval():
    paths_a, oracle_a = _small_frames(1)
    with open(paths_a["tau"], "rb") as fh:
        first = fh.read()
    paths_b, oracle_b = _small_frames(1)
    with open(paths_b["tau"], "rb") as fh:
        assert fh.read() == first
    assert oracle_a["mu"] == oracle_b["mu"]
    assert oracle_a["tau_residual"] <= 1e-12 and oracle_a["omega_residual"] <= 1e-12
    assert _small_frames(2)[1]["mu"] != oracle_a["mu"]


def test_checker_passes_real_frame_reports_and_rejects_tampering():
    paths, oracle = _small_frames(3)
    pair = ["--frame-tau", paths["tau"], "--frame-omega", paths["omega"]]
    expect_mu = {"mu": oracle["mu"]}

    code, text = _cli(["certify", *pair, "--vector", paths["x"]])
    assert check("certify", code, text, expect_mu) == []
    flipped = json.loads(text)
    flipped["holds"] = False
    assert check("certify", code, json.dumps(flipped), expect_mu)
    assert check("certify", 1, text, expect_mu)

    code, text = _cli(["coherence", *pair])
    assert check("coherence", code, text, expect_mu) == []
    assert check("coherence", code, text, {"mu": oracle["mu"] * (1 + 1e-9)})

    out = os.path.join(os.path.dirname(paths["raw"]), "parseval.json")
    code, _ = _cli(["parsevalize", "--frame-tau", paths["raw"], "--out", out])
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    expect = {"dims": [1, 2], "d": 3, "count": 5, "companion": oracle["raw_parseval"]}
    assert check("parsevalize", code, text, expect) == []
    tampered = json.loads(text)
    tampered["vectors"][0]["entries"][0]["blocks"][1][0][0][0] += 1e-3
    problems = check("parsevalize", code, json.dumps(tampered), expect)
    assert any("residual" in p for p in problems)
    assert check("parsevalize", 2, text, expect)


def test_checker_passes_real_search_reports_and_rejects_wrong_values():
    code, text = _cli(["tao", "--p", "5", "--mode", "exhaustive"])
    expect = {"p": 5, "pairs_checked": sum(math.comb(5, s) ** 2 for s in range(1, 5))}
    assert check("tao", code, text, expect) == []
    wrong = json.loads(text)
    wrong["min_sum"] = 5
    assert check("tao", code, json.dumps(wrong), expect)
    wrong = json.loads(text)
    wrong["violating_patterns"] = [{"support": [0], "fourier_support": [1, 2, 3, 4]}]
    assert check("tao", code, json.dumps(wrong), expect)
    assert check("tao", 1, text, expect)

    code, text = _cli(["conjecture", "--algebra", "2", "--p", "3", "--trials", "200"])
    expect = {"p": 3, "patterns_checked": 3 * (3 + 3) + 3 * 3}
    assert check("conjecture", code, text, expect) == []
    flipped = json.loads(text)
    flipped["holds"] = False
    assert check("conjecture", code, json.dumps(flipped), expect)

    code, text = _cli(["audit", "--algebra", "1,2", "--d", "3", "--trials", "20"])
    assert check("audit", code, text, {"trials": 20}) == []
    lines = text.splitlines()
    summary = json.loads(lines[-1])
    summary["summary"]["violations"] = 1
    assert check("audit", code, "\n".join(lines[:-1] + [json.dumps(summary)]), {"trials": 20})
    assert check("audit", code, "\n".join(lines[1:]), {"trials": 20})


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in run.PER_LAYER
    ]


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def test_refuses_to_run_without_the_sources():
    bare = _fresh_dir(os.path.join(WORK, "bare"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work"))
    proc = _bench(bare, "--workload", "tao-exhaustive", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_svd_matrix_count_is_exact_and_repeats():
    counts = []
    for seed in (1, 2):
        proc = _bench(ROOT, "--workload", "tao-exhaustive", "--seed", str(seed),
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append(result["metrics"]["numpy.svd.matrices"]["value"])
    assert counts == [705_430, 705_430]


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
