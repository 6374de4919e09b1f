"""Command-line front end: certificates, audits, and search reports as JSON.

Subcommands map one-to-one onto the library: certify, coherence,
parsevalize, audit, tao, conjecture.  Frames and vectors are read from
JSON files in the documented formats; algebras are given inline as
comma-separated block dimensions (e.g. "1,2" for C + M2).  All output is
canonical JSON (sorted keys, no whitespace), so identical runs produce
byte-identical reports.

Exit codes: 0 all checks hold, 1 a mathematical check failed (the report
says whether it looks like an implementation defect or a genuine
counterexample), 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .algebra import AlgebraShape
from .csmodule import ModuleVector
from .errors import InputError, NcupError, NonParsevalFrameError
from .frames import PARSEVAL_TOL, RANK_TOL, SUPPORT_REL_TOL, ModularFrame, coherence, parsevalize
from .ncft import DEFAULT_SAMPLES, conjecture_audit, tao_min_sum
from .uncertainty import CHAIN_TOL, SLACK_TOL, evaluate, random_audit

__all__ = ["build_parser", "main"]


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
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _load_frame(path: str) -> ModularFrame:
    return ModularFrame.from_dict(_load_json(path), where=path)


def _parse_algebra(text: str) -> AlgebraShape:
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(
            f"--algebra must be comma-separated block dimensions, got {text!r}"
        ) from exc
    return AlgebraShape(dims)


def _cmd_certify(args):
    tau = _load_frame(args.frame_tau)
    omega = _load_frame(args.frame_omega)
    x = ModuleVector.from_dict(_load_json(args.vector), where=args.vector)
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
    tau = _load_frame(args.frame_tau)
    omega = _load_frame(args.frame_omega)
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
    return 0, _canonical(fixed.to_dict()) + "\n"


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
    result = tao_min_sum(
        args.p,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        force=args.force,
    )
    holds = result["min_sum"] >= args.p + 1
    report = _report(
        "tao",
        {"threshold": RANK_TOL},
        {**result, "holds": bool(holds), "seed": args.seed},
    )
    return (0 if holds else 1), _canonical(report) + "\n"


def _cmd_conjecture(args):
    result = conjecture_audit(
        _parse_algebra(args.algebra), args.p, args.trials, seed=args.seed, rel_tol=args.rel_tol
    )
    report = _report("conjecture", {"threshold": RANK_TOL, "rel_tol": args.rel_tol}, result)
    return (0 if result["holds"] else 1), _canonical(report) + "\n"


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"must fit in 64 bits, got {seed}")
    return seed


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

    def common(sp, handler, seed=False, rel_tol=False):
        sp.set_defaults(handler=handler)
        sp.add_argument("--out", default=None, help="write the report to this path instead of stdout")
        if seed:
            sp.add_argument("--seed", type=_seed, default=0, help="seed for all randomness (default 0)")
        if rel_tol:
            sp.add_argument(
                "--rel-tol", dest="rel_tol", type=float, default=SUPPORT_REL_TOL,
                help=f"relative threshold for support counting (default {SUPPORT_REL_TOL:g})",
            )

    sp = sub.add_parser("certify", help="evaluate both uncertainty inequalities on a frame pair and vector")
    sp.add_argument("--frame-tau", required=True, help="JSON file with the first Parseval frame")
    sp.add_argument("--frame-omega", required=True, help="JSON file with the second Parseval frame")
    sp.add_argument("--vector", required=True, help="JSON file with the test vector")
    common(sp, _cmd_certify, rel_tol=True)

    sp = sub.add_parser("coherence", help="largest cross inner-product norm of a frame pair")
    sp.add_argument("--frame-tau", required=True)
    sp.add_argument("--frame-omega", required=True)
    common(sp, _cmd_coherence)

    sp = sub.add_parser("parsevalize", help="write the canonical Parseval companion of a frame")
    sp.add_argument("--frame-tau", required=True, help="JSON file with the input frame")
    common(sp, _cmd_parsevalize)

    sp = sub.add_parser("audit", help="certify many random Parseval pairs (JSON lines report)")
    sp.add_argument("--algebra", required=True, help="block dimensions, e.g. 1,2 for C+M2")
    sp.add_argument("--d", type=int, required=True, help="module rank")
    sp.add_argument("--n-tau", dest="n_tau", type=int, default=None, help="first frame size (default d+2)")
    sp.add_argument("--n-omega", dest="n_omega", type=int, default=None, help="second frame size (default d+2)")
    sp.add_argument("--trials", type=int, default=100)
    common(sp, _cmd_audit, seed=True, rel_tol=True)

    sp = sub.add_parser("tao", help="minimum support sum under the length-p transform")
    sp.add_argument("--p", type=int, required=True, help="prime length")
    sp.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    sp.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES, help="support pairs to draw in sampled mode"
    )
    sp.add_argument("--force", action="store_true", help="allow exhaustive mode beyond p=7")
    common(sp, _cmd_tao, seed=True)

    sp = sub.add_parser("conjecture", help="audit the additive bound for algebra-valued vectors")
    sp.add_argument("--algebra", required=True, help="block dimensions, e.g. 1,2 for C+M2")
    sp.add_argument("--p", type=int, required=True, help="prime length")
    sp.add_argument("--trials", type=int, default=10_000)
    common(sp, _cmd_conjecture, seed=True, rel_tol=True)

    return parser


def main(argv=None) -> int:
    """Run one command line; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        code, text = args.handler(args)
        _emit(text, args.out)
        return code
    except NcupError as exc:
        print(f"ncup: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
