"""Command-line front end: certificates, audits, and search reports as JSON.

Subcommands map one-to-one onto the library: certify, coherence,
parsevalize, audit, tao, conjecture.  Frames and vectors are read from
JSON files in the documented formats; algebras are given inline as
comma-separated block dimensions (e.g. "1,2" for C + M2).  All output is
canonical JSON (sorted keys, no whitespace), so identical runs produce
byte-identical reports.

Exit codes: 0 all checks hold, 1 a mathematical check failed (the report
says whether it looks like an implementation defect or a genuine
counterexample), 2 invalid input, or input too large to fit in memory.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import pickle
import sys

from . import __version__
from .algebra import AlgebraShape
from .csmodule import ModuleVector, _vector_hook, _vector_texts
from .errors import InputError, NcupError, NonParsevalFrameError
from .frames import PARSEVAL_TOL, RANK_TOL, SUPPORT_REL_TOL, ModularFrame, coherence, parsevalize
from .ncft import DEFAULT_SAMPLES, conjecture_audit, tao_min_sum
from .uncertainty import CHAIN_TOL, SLACK_TOL, evaluate, random_audit

__all__ = ["build_parser", "main"]

# Smaller files are decoded and written inline: below about 0.4 MB a 4 ms fork saves nothing.
FORK_MIN_BYTES = 1 << 19


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report(command: str, tolerances: dict, payload: dict) -> dict:
    return {
        "tool": "ncup",
        "version": __version__,
        "command": command,
        "tolerances": tolerances,
        **payload,
    }


def _load_json(path: str):
    """The file's JSON value, each vector payload decoded as the reader closes it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_hook=_vector_hook)
    except OSError as exc:
        raise InputError(f"{path}: cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply to read") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer longer than int() reads
        raise InputError(f"{path}: unreadable JSON number: {str(exc).split(';')[0]}") from exc


def _load_frame(path: str) -> ModularFrame:
    return ModularFrame.from_dict(_load_json(path), where=path)


def _forked(path: str, fn):
    """Start fn() in a forked child; returns a function giving its value or raising its error.

    Forks with two usable CPUs and FORK_MIN_BYTES at path; fn must be pure Python (the child has no
    BLAS threads).  Call the result once: it reaps the child, then runs fn here if no value came."""
    try:
        if len(os.sched_getaffinity(0)) < 2 or os.stat(path).st_size < FORK_MIN_BYTES:
            return fn
        read_fd, write_fd = os.pipe()
    except (AttributeError, OSError):  # not Linux, no such file, no descriptor left
        return fn
    try:
        pid = os.fork()
    except OSError:  # no process left
        os.close(read_fd)
        os.close(write_fd)
        return fn
    if pid == 0:  # the child sends the value and leaves, skipping the parent's cleanup
        try:
            with open(write_fd, "wb") as fh:
                fh.write(pickle.dumps(fn(), pickle.HIGHEST_PROTOCOL))
        finally:
            os._exit(0)
    os.close(write_fd)

    def wait():
        try:
            with open(read_fd, "rb") as fh:
                data = fh.read()
        finally:
            status = os.waitpid(pid, 0)[1]
        return pickle.loads(data) if data and not status else fn()  # killed: maybe mid-write
    return wait


def _read_inputs(*paths):
    """The frames tau and omega at paths[:2], then the vector at paths[2] if given, built in order
    (so the first input's fault is raised) after tau's file is decoded in a forked child."""
    wait = _forked(paths[0], lambda: _load_json(paths[0]))
    values = []
    try:
        for path in paths[1:]:
            values.append(_load_json(path))
    finally:  # reaps the child; a fault of an earlier input replaces a failed read's error
        values[:0] = [wait()]
        kinds = zip(paths, (ModularFrame, ModularFrame, ModuleVector), values)
        built = [cls.from_dict(value, where=path) for path, cls, value in kinds]
    return built


def _parse_algebra(text: str) -> AlgebraShape:
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(
            f"--algebra must be comma-separated block dimensions, got {text!r}"
        ) from exc
    return AlgebraShape(dims)


def _cmd_certify(args):
    tau, omega, x = _read_inputs(args.frame_tau, args.frame_omega, args.vector)
    cert, chain = evaluate(tau, omega, x, rel_tol=args.rel_tol)
    chain_rows = [
        [name, float(lhs), float(rhs), bool(holds)] for name, lhs, rhs, holds in chain
    ]
    holds = bool(
        cert.product_holds
        and cert.additive_holds
        and all(row[3] for row in chain_rows)
    )
    report = _report(
        "certify",
        {
            "rel_tol": args.rel_tol,
            "parseval_tol": PARSEVAL_TOL,
            "slack_tol": SLACK_TOL,
            "chain_tol": CHAIN_TOL,
        },
        {
            "certificate": cert.to_dict(),
            "chain": chain_rows,
            "holds": holds,
            "diagnosis": None if holds else "implementation-defect",
        },
    )
    return (0 if holds else 1), _canonical(report) + "\n"


def _cmd_coherence(args):
    tau, omega = _read_inputs(args.frame_tau, args.frame_omega)
    mu = coherence(tau, omega)
    if not math.isfinite(mu * mu):
        raise InputError(
            f"coherence {mu:.3e} overflows when squared: the frames' entries are too large"
        )
    report = _report(
        "coherence",
        {},
        {"mu": mu, "rhs": (1.0 / mu**2) if mu > 0 else None},
    )
    return 0, _canonical(report) + "\n"


def _cmd_parsevalize(args):
    frame = _load_frame(args.frame_tau)
    try:
        fixed = parsevalize(frame)
    except NonParsevalFrameError as exc:
        report = _report(
            "parsevalize",
            {"parseval_tol": PARSEVAL_TOL},
            {"holds": False, "diagnosis": "implementation-defect", "error": str(exc)},
        )
        return 1, _canonical(report) + "\n"
    # The text of fixed.to_dict(), written one vector at a time by _vector_texts, the first half in
    # a forked child: sorted keys put "vectors" last, and fixed's numbers passed the residual check.
    blocks, half = fixed.blocks, fixed.count // 2
    wait = _forked(args.frame_tau, lambda: list(_vector_texts(fixed.shape, [b[:half] for b in blocks])))
    texts = []
    try:
        texts.extend(_vector_texts(fixed.shape, [b[half:] for b in blocks]))
    finally:
        texts[:0] = wait()
    texts[0] = _canonical(fixed._payload([]))[:-2] + texts[0]
    texts[-1] += "]}\n"
    return 0, ",".join(texts)


def _cmd_audit(args):
    result = random_audit(
        _parse_algebra(args.algebra),
        args.d,
        args.d + 2 if args.n_tau is None else args.n_tau,
        args.d + 2 if args.n_omega is None else args.n_omega,
        args.trials,
        seed=args.seed,
        rel_tol=args.rel_tol,
    )
    summary = {k: v for k, v in result.items() if k != "records"}
    summary_line = _report(
        "audit",
        {"rel_tol": args.rel_tol, "slack_tol": SLACK_TOL, "parseval_tol": PARSEVAL_TOL},
        {"summary": summary},
    )
    lines = [_canonical(r) for r in result["records"]]
    lines.append(_canonical(summary_line))
    code = 0 if result["violations"] == 0 else 1
    return code, "\n".join(lines) + "\n"


def _cmd_tao(args):
    # A flag left out is None and takes tao_min_sum's default; one the mode never reads is refused.
    given = {k: v for k in ("samples", "seed", "force") if (v := getattr(args, k)) is not None}
    unread = {"exhaustive": ("samples", "seed"), "sampled": ("force",)}[args.mode]
    unread = [k for k in given if k in unread]
    if unread:
        raise InputError(f"--{unread[0]} is not read in {args.mode} mode")
    result = tao_min_sum(args.p, mode=args.mode, **given)
    report = _report("tao", {"threshold": RANK_TOL}, {**result, "seed": given.get("seed", 0)})
    return (0 if result["holds"] else 1), _canonical(report) + "\n"


def _cmd_conjecture(args):
    result = conjecture_audit(
        _parse_algebra(args.algebra), args.p, args.trials, seed=args.seed, rel_tol=args.rel_tol
    )
    report = _report("conjecture", {"threshold": RANK_TOL, "rel_tol": args.rel_tol}, result)
    return (0 if result["holds"] else 1), _canonical(report) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"{out}: cannot write report: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncup",
        description=(
            "Frames over direct sums of matrix algebras: uncertainty "
            "certificates, Parseval normalization, and Fourier support searches."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=False, rel_tol=False):
        sp.add_argument("--out", default=None, help="write the report to this path instead of stdout")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
        if rel_tol:
            sp.add_argument(
                "--rel-tol", dest="rel_tol", type=float, default=SUPPORT_REL_TOL,
                help=f"relative threshold for support counting (default {SUPPORT_REL_TOL:g})",
            )

    sp = sub.add_parser("certify", help="evaluate both uncertainty inequalities on a frame pair and vector")
    sp.add_argument("--frame-tau", required=True, help="JSON file with the first Parseval frame")
    sp.add_argument("--frame-omega", required=True, help="JSON file with the second Parseval frame")
    sp.add_argument("--vector", required=True, help="JSON file with the test vector")
    common(sp, rel_tol=True)

    sp = sub.add_parser("coherence", help="largest cross inner-product norm of a frame pair")
    sp.add_argument("--frame-tau", required=True)
    sp.add_argument("--frame-omega", required=True)
    common(sp)

    sp = sub.add_parser("parsevalize", help="write the canonical Parseval companion of a frame")
    sp.add_argument("--frame-tau", required=True, help="JSON file with the input frame")
    common(sp)

    sp = sub.add_parser("audit", help="certify many random Parseval pairs (JSON lines report)")
    sp.add_argument("--algebra", required=True, help="block dimensions, e.g. 1,2 for C+M2")
    sp.add_argument("--d", type=int, required=True, help="module rank")
    sp.add_argument("--n-tau", dest="n_tau", type=int, default=None, help="first frame size (default d+2)")
    sp.add_argument("--n-omega", dest="n_omega", type=int, default=None, help="second frame size (default d+2)")
    sp.add_argument("--trials", type=int, default=100)
    common(sp, seed=True, rel_tol=True)

    sp = sub.add_parser("tao", help="minimum support sum under the length-p transform")
    sp.add_argument("--p", type=int, required=True, help="prime length")
    sp.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    sp.add_argument("--samples", type=int, help=f"pairs to draw in sampled mode (default {DEFAULT_SAMPLES})")
    sp.add_argument("--force", action="store_true", default=None, help="allow exhaustive mode beyond p=7")
    common(sp, seed=True)
    sp.set_defaults(seed=None)  # read in sampled mode only

    sp = sub.add_parser("conjecture", help="audit the additive bound for algebra-valued vectors")
    sp.add_argument("--algebra", required=True, help="block dimensions, e.g. 1,2 for C+M2")
    sp.add_argument("--p", type=int, required=True, help="prime length")
    sp.add_argument("--trials", type=int, default=10_000)
    common(sp, seed=True, rel_tol=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line; returns the process exit code.

    The command runs with the cyclic garbage collector paused.  What it
    builds (parsed JSON, arrays, reports) holds no reference cycles, so
    reference counting frees all of it, and the collector's passes over
    those large trees would free nothing.  The caller's setting is restored
    on every exit.
    """
    args = _parser().parse_args(argv)
    collector_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # The handler is looked up per call: the parser, built once, holds none.
        code, text = globals()[f"_cmd_{args.command}"](args)
        _emit(text, args.out)
        return code
    except NcupError as exc:
        print(f"ncup: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"ncup: error: out of memory: {exc}", file=sys.stderr)
        return 2
    finally:
        if collector_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
