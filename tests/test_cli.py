"""End-to-end checks of the command line entry point via subprocess."""

import json
import pathlib
import subprocess
import sys

import pytest

from ncup import AlgebraShape, ModularFrame, SingularOperatorError, basis_vector, cli, module_norm
from ncup.ncft import dirac_comb, fourier_frame, standard_frame

from oracles import vec_sub

C = AlgebraShape((1,))


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "ncup", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture()
def comb_files(tmp_path):
    paths = {
        "tau": tmp_path / "tau.json",
        "omega": tmp_path / "omega.json",
        "x": tmp_path / "x.json",
    }
    paths["tau"].write_text(json.dumps(standard_frame(C, 4).to_dict()))
    paths["omega"].write_text(json.dumps(fourier_frame(C, 4).to_dict()))
    paths["x"].write_text(json.dumps(dirac_comb(C, 4, 2).to_dict()))
    return paths


def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_certify_comb(comb_files):
    proc = run_cli(
        "certify",
        "--frame-tau", str(comb_files["tau"]),
        "--frame-omega", str(comb_files["omega"]),
        "--vector", str(comb_files["x"]),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["tool"] == "ncup"
    assert report["command"] == "certify"
    cert = report["certificate"]
    assert cert["s_tau"] == 2 and cert["s_omega"] == 2
    assert cert["product_lhs"] == 4
    assert abs(cert["rhs"] - 4.0) < 1e-9
    assert report["holds"] is True
    assert len(report["chain"]) == 6
    assert all(step[3] for step in report["chain"])


def test_certify_writes_out_file(comb_files, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "certify",
        "--frame-tau", str(comb_files["tau"]),
        "--frame-omega", str(comb_files["omega"]),
        "--vector", str(comb_files["x"]),
        "--out", str(out),
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["holds"] is True


def test_certify_missing_file(tmp_path, comb_files):
    proc = run_cli(
        "certify",
        "--frame-tau", str(tmp_path / "nope.json"),
        "--frame-omega", str(comb_files["omega"]),
        "--vector", str(comb_files["x"]),
    )
    assert proc.returncode == 2
    assert "ncup: error" in proc.stderr
    assert "nope.json" in proc.stderr


def test_certify_malformed_json(tmp_path, comb_files):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli(
        "certify",
        "--frame-tau", str(bad),
        "--frame-omega", str(comb_files["omega"]),
        "--vector", str(comb_files["x"]),
    )
    assert proc.returncode == 2
    assert "bad.json" in proc.stderr


def test_certify_non_parseval_input(tmp_path, comb_files):
    e0 = basis_vector(C, 4, 0)
    lousy = ModularFrame.from_vectors([e0, e0, e0, e0])
    path = tmp_path / "lousy.json"
    path.write_text(json.dumps(lousy.to_dict()))
    proc = run_cli(
        "certify",
        "--frame-tau", str(path),
        "--frame-omega", str(comb_files["omega"]),
        "--vector", str(comb_files["x"]),
    )
    assert proc.returncode == 2
    assert "Parseval" in proc.stderr


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "command, target",
    [("certify", "x"), ("certify", "tau"), ("coherence", "tau"), ("parsevalize", "tau")],
)
def test_non_finite_values_rejected(comb_files, command, target, value):
    path = comb_files[target]
    payload = json.loads(path.read_text())
    entries = payload["entries"] if target == "x" else payload["vectors"][2]["entries"]
    entries[1]["blocks"][0][0][0][1] = float(value)
    path.write_text(json.dumps(payload))
    assert value in path.read_text()
    args = {
        "certify": ("--frame-tau", "--frame-omega", "--vector"),
        "coherence": ("--frame-tau", "--frame-omega"),
        "parsevalize": ("--frame-tau",),
    }[command]
    files = [comb_files[key] for key in ("tau", "omega", "x")]
    proc = run_cli(command, *[str(a) for pair in zip(args, files) for a in pair])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    where = "entry 1: block 0" if target == "x" else "vector 2: entry 1: block 0"
    assert f"{path}: {where}: non-finite value" in proc.stderr


def assert_single_error_line(stderr, message):
    """stderr is the one error line: no traceback, no numpy warnings."""
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    assert lines[0].startswith("ncup: error: ") and message in lines[0]


def test_parsevalize_rejects_overflowing_frame(tmp_path):
    payload = ModularFrame.from_vectors([basis_vector(C, 2, 0), basis_vector(C, 2, 1)]).to_dict()
    payload["vectors"][0]["entries"][0]["blocks"][0][0][0] = [1e300, 0.0]
    payload["parseval"] = False
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(payload))
    proc = run_cli("parsevalize", "--frame-tau", str(src))
    assert proc.returncode == 2
    assert_single_error_line(proc.stderr, "frame operator overflows")


@pytest.mark.parametrize(
    "command, omega, message",
    [
        ("coherence", "huge", "cross Gram overflows"),
        ("coherence", "omega", "overflows when squared"),
        ("certify", "omega", "first (tau) frame is not Parseval"),
    ],
)
def test_overflowing_frame_rejected(comb_files, tmp_path, command, omega, message):
    payload = json.loads(comb_files["tau"].read_text())
    payload["vectors"][0]["entries"][0]["blocks"][0][0][0] = [1e300, 0.0]
    payload["parseval"] = False
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(payload))
    files = {"huge": huge, **comb_files}
    args = ["--frame-tau", str(huge), "--frame-omega", str(files[omega])]
    if command == "certify":
        args += ["--vector", str(comb_files["x"])]
    proc = run_cli(command, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert_single_error_line(proc.stderr, message)


def test_certify_rejects_overflowing_vector(comb_files, tmp_path):
    payload = json.loads(comb_files["x"].read_text())
    for entry in payload["entries"]:
        entry["blocks"][0][0][0] = [1e200, 0.0]
    huge = tmp_path / "huge_x.json"
    huge.write_text(json.dumps(payload))
    proc = run_cli(
        "certify",
        "--frame-tau", str(comb_files["tau"]),
        "--frame-omega", str(comb_files["omega"]),
        "--vector", str(huge),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert_single_error_line(proc.stderr, "Gram products overflow")


@pytest.mark.parametrize("d", ["0", "-1"])
def test_audit_rejects_nonpositive_d(d):
    proc = run_cli("audit", "--algebra", "1", "--d", d, "--trials", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert_single_error_line(proc.stderr, f"module rank d must be positive, got {int(d)}")


def test_every_package_error_exits_2(monkeypatch, capsys):
    def singular(args):
        raise SingularOperatorError("operator is singular")

    monkeypatch.setattr(cli, "_cmd_tao", singular)
    assert cli.main(["tao", "--p", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ncup: error: operator is singular" in captured.err
    assert "Traceback" not in captured.err


def test_certify_rejects_bad_rel_tol(comb_files):
    proc = run_cli(
        "certify",
        "--frame-tau", str(comb_files["tau"]),
        "--frame-omega", str(comb_files["omega"]),
        "--vector", str(comb_files["x"]),
        "--rel-tol", "2.0",
    )
    assert proc.returncode == 2
    assert "rel-tol" in proc.stderr or "rel_tol" in proc.stderr


def test_certify_accepts_zero_rel_tol(comb_files):
    proc = run_cli(
        "certify",
        "--frame-tau", str(comb_files["tau"]),
        "--frame-omega", str(comb_files["omega"]),
        "--vector", str(comb_files["x"]),
        "--rel-tol", "0",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["tolerances"]["rel_tol"] == 0.0
    assert report["certificate"]["s_tau"] == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        ("certify", "--seed"),
        ("coherence", "--seed"),
        ("parsevalize", "--seed"),
        ("coherence", "--rel-tol"),
        ("parsevalize", "--rel-tol"),
        ("tao", "--rel-tol"),
    ],
)
def test_flag_the_command_does_not_read_is_rejected(comb_files, command, flag):
    frames = ["--frame-tau", str(comb_files["tau"]), "--frame-omega", str(comb_files["omega"])]
    args = {
        "certify": [*frames, "--vector", str(comb_files["x"])],
        "coherence": frames,
        "parsevalize": frames[:2],
        "tao": ["--p", "7"],
    }[command]
    proc = run_cli(command, *args, flag, "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"unrecognized arguments: {flag} 1" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_rejected(seed):
    proc = run_cli("tao", "--p", "7", "--seed", seed)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--seed: must fit in 64 bits" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_coherence_command(comb_files):
    proc = run_cli(
        "coherence",
        "--frame-tau", str(comb_files["tau"]),
        "--frame-omega", str(comb_files["omega"]),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert abs(report["mu"] - 0.5) < 1e-12
    assert abs(report["rhs"] - 4.0) < 1e-12


def test_parsevalize_round_trip(tmp_path):
    e0 = basis_vector(C, 2, 0)
    e1 = basis_vector(C, 2, 1)
    src = tmp_path / "frame.json"
    src.write_text(json.dumps(ModularFrame.from_vectors([e0, e0, e1]).to_dict()))
    out = tmp_path / "parseval.json"
    proc = run_cli("parsevalize", "--frame-tau", str(src), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    frame = ModularFrame.from_dict(json.loads(out.read_text()))
    assert frame.to_dict()["parseval"] is True
    assert "0.7071067811865476" in out.read_text()

    again = tmp_path / "again.json"
    proc2 = run_cli("parsevalize", "--frame-tau", str(out), "--out", str(again))
    assert proc2.returncode == 0
    redone = ModularFrame.from_dict(json.loads(again.read_text()))
    worst = max(
        module_norm(vec_sub(a, b))
        for a, b in zip(frame.vectors, redone.vectors)
    )
    assert worst <= 1e-10


def test_parsevalize_rejects_non_spanning_family(tmp_path):
    src = tmp_path / "thin.json"
    src.write_text(
        json.dumps(ModularFrame.from_vectors([basis_vector(C, 3, 0)]).to_dict())
    )
    proc = run_cli("parsevalize", "--frame-tau", str(src))
    assert proc.returncode == 2
    assert "singular" in proc.stderr


def test_audit_deterministic_jsonl(tmp_path):
    args = (
        "audit",
        "--algebra", "1,2",
        "--d", "2",
        "--trials", "6",
        "--seed", "5",
    )
    first = run_cli(*args, "--out", str(tmp_path / "a.jsonl"))
    second = run_cli(*args, "--out", str(tmp_path / "b.jsonl"))
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    a = (tmp_path / "a.jsonl").read_text()
    assert a == (tmp_path / "b.jsonl").read_text()
    lines = [json.loads(line) for line in a.strip().splitlines()]
    assert len(lines) == 7
    trials, wrapper = lines[:-1], lines[-1]
    assert all(rec["product_holds"] for rec in trials)
    assert wrapper["command"] == "audit"
    assert wrapper["summary"]["violations"] == 0
    assert wrapper["summary"]["trials"] == 6


def test_audit_bad_algebra_string():
    proc = run_cli("audit", "--algebra", "1,zebra", "--d", "2", "--trials", "1")
    assert proc.returncode == 2
    assert "algebra" in proc.stderr


def test_tao_command():
    proc = run_cli("tao", "--p", "5", "--mode", "exhaustive")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["min_sum"] == 6
    assert report["holds"] is True
    assert report["tolerances"]["threshold"] == 1e-10


def test_tao_refuses_large_exhaustive():
    proc = run_cli("tao", "--p", "11", "--mode", "exhaustive")
    assert proc.returncode == 2
    assert "force" in proc.stderr


def test_conjecture_command():
    proc = run_cli(
        "conjecture",
        "--algebra", "2",
        "--p", "3",
        "--trials", "200",
        "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["holds"] is True
    assert report["delta_witness_sum"] == 4


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, args",
    [
        ("tao_p7.json", "tao --p 7"),
        ("tao_p11_sampled_seed3.json", "tao --p 11 --mode sampled --samples 20000 --seed 3"),
        ("tao_p13_sampled_seed77.json", "tao --p 13 --mode sampled --seed 77"),
        ("tao_p11_exhaustive_force.json", "tao --p 11 --mode exhaustive --force"),
        ("conjecture_m2_p5.json", "conjecture --algebra 2 --p 5 --trials 2000"),
        ("conjecture_c2_p5.json", "conjecture --algebra 1,1 --p 5 --trials 2000"),
        ("conjecture_m2_p7.json", "conjecture --algebra 2 --p 7 --trials 2000"),
        ("conjecture_c2_p7.json", "conjecture --algebra 1,1 --p 7 --trials 2000"),
    ],
)
def test_report_matches_golden(name, args):
    # These reports hold only counts, supports and input tolerances, so the
    # stored bytes are the same on every platform.
    proc = run_cli(*args.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text()


def test_canonical_json_output(comb_files):
    proc = run_cli(
        "coherence",
        "--frame-tau", str(comb_files["tau"]),
        "--frame-omega", str(comb_files["omega"]),
    )
    text = proc.stdout.strip()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
