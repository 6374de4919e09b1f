"""End-to-end checks of the command line entry point via subprocess."""

import gc
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ncup import (
    AlgebraShape,
    ModularFrame,
    SingularOperatorError,
    basis_vector,
    cli,
    module_norm,
    parsevalize,
    random_frame,
    random_vector,
)
from ncup.csmodule import _vector_texts
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
    # Invalid JSON, bytes that are not UTF-8, nesting deeper than the
    # decoder's recursion limit and an integer longer than int() reads (4,300
    # digits), in a matrix slot or in "d", each give one error line, not a
    # traceback.
    bad = tmp_path / "bad.json"
    frame, big = comb_files["tau"].read_text(), "7" * 5000
    assert '"d": 4' in frame and "[1.0, 0.0]" in frame
    for content in (
        b"{not json",
        b'\xff\xfe{"d": 4}',
        b"[" * 200_000 + b"]" * 200_000,
        frame.replace("[1.0, 0.0]", f"[{big}, 0.0]", 1).encode(),
        frame.replace('"d": 4', f'"d": {big}').encode(),
    ):
        bad.write_bytes(content)
        proc = run_cli(
            "certify",
            "--frame-tau", str(bad),
            "--frame-omega", str(comb_files["omega"]),
            "--vector", str(comb_files["x"]),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"ncup: error: {bad}: ")
        assert proc.stderr.count("\n") == 1


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


def test_parsevalize_normalizes_a_frame_whose_hermitian_sum_overflows(tmp_path):
    # S = 1.44e308 is finite, but S + S^* is not: the Hermitian part is taken
    # halves first, so eigh sees S and the frame normalizes to [[1]].
    src, out = tmp_path / "huge.json", tmp_path / "parseval.json"
    src.write_text(json.dumps(ModularFrame(C, 1, [np.full((1, 1, 1, 1), 1.2e154)]).to_dict()))
    proc = run_cli("parsevalize", "--frame-tau", str(src), "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(out.read_text())
    assert payload["parseval"] is True
    assert payload["vectors"][0]["entries"][0]["blocks"] == [[[[1.0, 0.0]]]]


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


def test_vector_in_place_of_a_shape_is_one_error_line(comb_files, tmp_path, capsys):
    # The reader decodes the inner vector before the outer one refuses it as
    # its declared shape; the message quotes it with its entries elided.
    x = json.loads(comb_files["x"].read_text())
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({**x, "shape": x}))
    argv = ["certify", "--frame-tau", str(comb_files["tau"]), "--frame-omega", str(comb_files["omega"])]
    assert cli.main([*argv, "--vector", str(nested)]) == 2
    assert_single_error_line(
        capsys.readouterr().err,
        f"{nested}: declared shape {{'shape': [1], 'entries': [...]}} does not match entries [1]",
    )


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


@pytest.mark.parametrize(
    "argv",
    [
        ("conjecture", "--algebra", "10000000", "--p", "3", "--trials", "1"),
        ("audit", "--algebra", "10000000", "--d", "1", "--trials", "1"),
        ("conjecture", "--algebra", "1000000000", "--p", "3", "--trials", "1"),
        ("audit", "--algebra", "3000000000", "--d", "1", "--trials", "1"),
        ("conjecture", "--algebra", "300000000", "--p", "13", "--trials", "20000"),
        ("tao", "--p", "13", "--mode", "sampled", "--samples", "4611686018427387904"),
        ("tao", "--p", "13", "--mode", "sampled", "--samples", "100000000000000000000"),
    ],
    ids=["conjecture", "audit", "conjecture-beyond-address-space",
         "audit-beyond-address-space", "conjecture-chunk-beyond-address-space",
         "tao-samples-beyond-address-space", "tao-samples-beyond-int64"],
)
def test_memory_exhaustion_exits_2(argv):
    # A 10^7 x 10^7 block asks for more than 2^47 bytes, which fails at once
    # under any overcommit policy without touching memory.  The larger blocks,
    # and 2^62 or 10^20 sampled tao pairs, ask for more than 2^63 bytes, which
    # numpy would refuse with ValueError; the draws, and sampled tao for its
    # sample count, check the size first and raise MemoryError instead.
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert_single_error_line(proc.stderr, "out of memory: Unable to allocate")


def _zero_algebra(path):
    payload = json.loads(path.read_text())
    payload["algebra"] = [0]
    return payload


def _negative_entry_shapes(path):
    payload = json.loads(path.read_text())
    payload["shape"] = [-1]
    for entry in payload["entries"]:
        entry["shape"] = [-1]
    return payload


@pytest.mark.parametrize(
    "command, target, fault, message",
    [
        ("coherence", "tau", _zero_algebra, "block dimensions must be positive, got (0,)"),
        ("certify", "x", _negative_entry_shapes, "entry 0: block dimensions must be positive, got (-1,)"),
    ],
    ids=["frame-algebra", "vector-shape"],
)
def test_bad_block_dimension_names_the_file(comb_files, command, target, fault, message):
    path = comb_files[target]
    path.write_text(json.dumps(fault(path)))
    args = ["--frame-tau", str(comb_files["tau"]), "--frame-omega", str(comb_files["omega"])]
    if command == "certify":
        args += ["--vector", str(comb_files["x"])]
    proc = run_cli(command, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert_single_error_line(proc.stderr, f"ncup: error: {path}: {message}")


def _cyclic_garbage(run):
    """Objects the cyclic collector finds after run(), the collector paused throughout."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "command",
    ["certify", "coherence", "parsevalize", "audit", "tao-exhaustive", "tao-sampled", "conjecture"],
)
def test_commands_build_no_reference_cycles(comb_files, tmp_path, capsys, command):
    # cli.main pauses the cyclic collector because reference counting alone
    # frees what a command builds.  A command may leave no cyclic garbage
    # beyond what parsing its argv with the parser main uses leaves.
    frames = ["--frame-tau", str(comb_files["tau"]), "--frame-omega", str(comb_files["omega"])]
    argv = {
        "certify": ["certify", *frames, "--vector", str(comb_files["x"])],
        "coherence": ["coherence", *frames],
        "parsevalize": ["parsevalize", *frames[:2], "--out", str(tmp_path / "p.json")],
        "audit": ["audit", "--algebra", "1,2", "--d", "2", "--trials", "5"],
        "tao-exhaustive": ["tao", "--p", "5"],
        "tao-sampled": ["tao", "--p", "7", "--mode", "sampled", "--samples", "200"],
        "conjecture": ["conjecture", "--algebra", "2", "--p", "3", "--trials", "50"],
    }[command]

    def run():
        assert cli.main(argv) == 0

    cli._parser()  # built once per process, by the first command; its build leaves garbage
    assert _cyclic_garbage(run) == _cyclic_garbage(lambda: cli._parser().parse_args(argv))
    capsys.readouterr()  # keeps the reports out of the log under -s


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("p, code", [("5", 0), ("4", 2)], ids=["exit-0", "exit-2"])
def test_main_pauses_the_collector_and_restores_it(monkeypatch, capsys, enabled, p, code):
    seen = []

    def recording(args, real=cli._cmd_tao):
        seen.append(gc.isenabled())
        return real(args)

    monkeypatch.setattr(cli, "_cmd_tao", recording)
    was_enabled = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert cli.main(["tao", "--p", p]) == code
        assert gc.isenabled() == enabled
    finally:
        if was_enabled:
            gc.enable()
    assert seen == [False]
    assert capsys.readouterr().err == ("ncup: error: 4 is not prime\n" if code else "")


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
    proc = run_cli("tao", "--p", "7", "--mode", "sampled", "--seed", seed)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"ncup: error: seed must fit in 64 bits, got {seed}\n"


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


@pytest.fixture(scope="module")
def large_frame_file(tmp_path_factory):
    """A Gaussian (4,4,8), d=16, N=24 frame file, 1.6 MB of JSON."""
    path = tmp_path_factory.mktemp("large") / "raw.json"
    frame = random_frame(AlgebraShape((4, 4, 8)), 16, 24, np.random.default_rng(2031))
    path.write_text(json.dumps(frame.to_dict()))
    return path


def _traced_peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_frame_files_are_read_and_written_one_vector_at_a_time(large_frame_file, tmp_path):
    # The reader decodes each vector as it closes it and parsevalize writes the
    # frame vector by vector, so the JSON tree of the whole file never exists.
    # Holding it peaked at 7.2 MiB for the load and 10.5 MiB for parsevalize;
    # streaming takes 3.1 and 4.5 MiB.
    path, out = str(large_frame_file), str(tmp_path / "out.json")
    cli._load_frame(path)  # imports and first-call caches stay out of the peaks
    assert _traced_peak_mib(lambda: cli._load_frame(path)) < 5.0
    assert _traced_peak_mib(lambda: cli.main(["parsevalize", "--frame-tau", path, "--out", out])) < 7.0


def test_frame_text_is_filled_one_vector_at_a_time(large_frame_file):
    # Each vector's template is filled from that vector's numbers alone, so the
    # writer peaks at the joined text and its parts, 2.0 times the text's length.
    # One float list of the whole frame took 2.5 times, within the 7.0 MiB above.
    fixed = parsevalize(cli._load_frame(str(large_frame_file)))
    blocks = fixed.blocks
    size = len(",".join(_vector_texts(fixed.shape, blocks)))
    peak = _traced_peak_mib(lambda: ",".join(_vector_texts(fixed.shape, blocks))) * 2**20
    assert peak < 2.25 * size


@pytest.mark.parametrize("dims", [(1,), (1, 2), (4, 4, 8)], ids=["C", "C+M2", "4,4,8"])
def test_parsevalize_writes_the_canonical_frame(large_frame_file, tmp_path, dims):
    # The frame is written one vector at a time, with the bytes of its whole canonical text.
    if dims == (4, 4, 8):
        src = large_frame_file
    else:
        src = tmp_path / "raw.json"
        frame = random_frame(AlgebraShape(dims), 3, 5, np.random.default_rng(11))
        src.write_text(json.dumps(frame.to_dict()))
    out = tmp_path / "out.json"
    assert cli.main(["parsevalize", "--frame-tau", str(src), "--out", str(out)]) == 0
    fixed = parsevalize(cli._load_frame(str(src)))
    assert out.read_text() == cli._canonical(fixed.to_dict()) + "\n"


# Inline forces every file through the one-process path; every_file forks for any file size.
INLINE, EVERY_FILE = 1 << 62, 0
TWO_CPUS = len(getattr(os, "sched_getaffinity", lambda _: ())(0)) >= 2


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """One entry per os.fork the CLI makes in this process."""
    made, real = [], os.fork
    monkeypatch.setattr(cli.os, "fork", lambda: made.append(1) or real())
    return made


def _run(monkeypatch, capsys, threshold, argv):
    """(exit code, stdout, stderr) of cli.main(argv) with FORK_MIN_BYTES set to threshold."""
    monkeypatch.setattr(cli, "FORK_MIN_BYTES", threshold)
    code = cli.main(argv)
    assert_no_child_left()
    return (code, *capsys.readouterr())


def _invalid_json(path):
    path.write_text("{not json")


def _false_parseval_claim(path):
    payload = ModularFrame.from_vectors([basis_vector(C, 4, 0)] * 4).to_dict()
    payload["parseval"] = True
    path.write_text(json.dumps(payload))


def _unreadable(path):
    path.unlink()


@pytest.mark.parametrize(
    "command, faults, named, message",
    [
        ("certify", {"tau": _invalid_json, "omega": _invalid_json}, "tau", "invalid JSON"),
        ("coherence", {"tau": _invalid_json, "omega": _invalid_json}, "tau", "invalid JSON"),
        ("certify", {"tau": _false_parseval_claim, "omega": _unreadable}, "tau", "file claims a Parseval"),
        ("coherence", {"tau": _false_parseval_claim, "omega": _unreadable}, "tau", "file claims a Parseval"),
        ("certify", {"omega": _invalid_json}, "omega", "invalid JSON"),
        ("coherence", {"omega": _unreadable}, "omega", "cannot read file"),
        ("certify", {"x": _invalid_json}, "x", "invalid JSON"),
        ("certify", {"omega": _false_parseval_claim, "x": _unreadable}, "omega", "file claims a Parseval"),
    ],
    ids=["certify-both-json", "coherence-both-json", "certify-claim-then-unreadable",
         "coherence-claim-then-unreadable", "certify-omega", "coherence-omega", "certify-x",
         "certify-omega-claim-then-x"],
)
def test_first_faulty_input_is_reported_forked_or_inline(
    comb_files, monkeypatch, capsys, forks, command, faults, named, message
):
    # tau is decoded in a forked child while omega and x are decoded here, yet
    # of several faulty files the first in input order is named, with the
    # message the one-process path gives.
    for target, fault in faults.items():
        fault(comb_files[target])
    argv = [command, "--frame-tau", str(comb_files["tau"]), "--frame-omega", str(comb_files["omega"])]
    if command == "certify":
        argv += ["--vector", str(comb_files["x"])]
    inline = _run(monkeypatch, capsys, INLINE, argv)
    assert not forks
    assert _run(monkeypatch, capsys, EVERY_FILE, argv) == inline
    assert len(forks) == TWO_CPUS
    code, out, err = inline
    assert code == 2 and out == ""
    assert_single_error_line(err, f"{comb_files[named]}: {message}")


@pytest.fixture(scope="module")
def large_inputs(large_frame_file, tmp_path_factory):
    """The large raw frame, its Parseval companion and a vector of the same shape and d."""
    work = tmp_path_factory.mktemp("large-inputs")
    paths = {"raw": large_frame_file, "parseval": work / "parseval.json", "x": work / "x.json"}
    fixed = parsevalize(cli._load_frame(str(large_frame_file)))
    paths["parseval"].write_text(cli._canonical(fixed.to_dict()))
    x = random_vector(fixed.shape, fixed.d, np.random.default_rng(5))
    paths["x"].write_text(json.dumps(x.to_dict()))
    return {k: str(v) for k, v in paths.items()}


def _large_report(large_inputs, tmp_path, monkeypatch, capsys, threshold, command):
    """(exit code, stdout, stderr, --out file) of command on the large inputs."""
    out = tmp_path / f"{command}-{threshold}.json"
    frames = {"certify": ("parseval", "parseval"), "coherence": ("raw", "parseval"), "parsevalize": ("raw",)}
    argv = [command, "--out", str(out)]
    for flag, name in zip(("--frame-tau", "--frame-omega"), frames[command]):
        argv += [flag, large_inputs[name]]
    if command == "certify":
        argv += ["--vector", large_inputs["x"]]
    return (*_run(monkeypatch, capsys, threshold, argv), out.read_text())


@pytest.mark.parametrize("command", ["certify", "coherence", "parsevalize"])
def test_large_reports_are_the_same_bytes_forked_or_inline(
    large_inputs, tmp_path, monkeypatch, capsys, forks, command
):
    forked = _large_report(large_inputs, tmp_path, monkeypatch, capsys, cli.FORK_MIN_BYTES, command)
    assert len(forks) == TWO_CPUS
    assert forked[:3] == (0, "", "")
    assert _large_report(large_inputs, tmp_path, monkeypatch, capsys, INLINE, command) == forked
    assert len(forks) == TWO_CPUS


def test_a_failed_read_here_reaps_the_child(large_frame_file, tmp_path, capsys, forks):
    # omega is missing, so its read fails at once while the child is still
    # decoding tau's 1.6 MB; the child is waited for before the error line.
    missing = tmp_path / "missing.json"
    code = cli.main(["coherence", "--frame-tau", str(large_frame_file), "--frame-omega", str(missing)])
    assert_no_child_left()
    assert code == 2
    assert_single_error_line(capsys.readouterr().err, f"{missing}: cannot read file")
    assert len(forks) == TWO_CPUS


@pytest.mark.parametrize("command, name", [("coherence", "_load_json"), ("parsevalize", "_vector_texts")])
def test_a_child_that_sends_no_value_falls_back_inline(
    large_inputs, tmp_path, monkeypatch, capsys, forks, command, name
):
    # The child's function leaves at once with exit status 1: the parent runs
    # the same function itself and gives the same report, without a traceback.
    forked = cli.FORK_MIN_BYTES
    expected = _large_report(large_inputs, tmp_path, monkeypatch, capsys, INLINE, command)
    parent, real = os.getpid(), getattr(cli, name)

    def leaves_in_the_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(cli, name, leaves_in_the_child)
    assert _large_report(large_inputs, tmp_path, monkeypatch, capsys, forked, command) == expected
    assert expected[:3] == (0, "", "")
    assert len(forks) == TWO_CPUS


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
    # The gate is the command-line contract's cap, not the scan's cost:
    # sampled mode runs the same scan.  One stderr line names both ways round it.
    proc = run_cli("tao", "--p", "11", "--mode", "exhaustive")
    assert proc.returncode == 2
    assert "force" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "capped at p <= 7 by the command-line contract" in proc.stderr
    assert "--mode sampled" in proc.stderr


@pytest.mark.parametrize(
    "mode, flag",
    [
        ("exhaustive", ["--samples", "500"]),
        ("exhaustive", ["--seed", "0"]),
        ("sampled", ["--force"]),
    ],
)
def test_tao_rejects_flag_its_mode_does_not_read(mode, flag):
    proc = run_cli("tao", "--p", "7", "--mode", mode, *flag)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"ncup: error: {flag[0]} is not read in {mode} mode\n"


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
        ("tao_p13_exhaustive_force.json", "tao --p 13 --mode exhaustive --force"),
        ("conjecture_m2_p5.json", "conjecture --algebra 2 --p 5 --trials 2000"),
        ("conjecture_c2_p5.json", "conjecture --algebra 1,1 --p 5 --trials 2000"),
        ("conjecture_m2_p7.json", "conjecture --algebra 2 --p 7 --trials 2000"),
        ("conjecture_c2_p7.json", "conjecture --algebra 1,1 --p 7 --trials 2000"),
        ("conjecture_m2_p11.json", "conjecture --algebra 2 --p 11 --trials 2000"),
        ("conjecture_c2_p11.json", "conjecture --algebra 1,1 --p 11 --trials 2000"),
        ("conjecture_m2_p13.json", "conjecture --algebra 2 --p 13 --trials 2000"),
        ("conjecture_c2_p13.json", "conjecture --algebra 1,1 --p 13 --trials 2000"),
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
