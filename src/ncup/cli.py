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
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

from . import __version__
from .algebra import AlgebraShape
from .csmodule import ModuleVector
from .errors import InputError, NcupError, NonParsevalFrameError
from .frames import PARSEVAL_TOL, RANK_TOL, ModularFrame, coherence, parsevalize
from .ncft import conjecture_audit, tao_min_sum
from .uncertainty import CHAIN_TOL, SLACK_TOL, evaluate, random_audit

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    """Everything one invocation needs; fully determines the report."""

    command: str
    algebra: str | None = None
    frame_tau: str | None = None
    frame_omega: str | None = None
    vector: str | None = None
    out: str | None = None
    seed: int = 0
    trials: int = 100
    rel_tol: float = 1e-8
    mode: str = "exhaustive"
    p: int | None = None
    d: int | None = None
    n_tau: int | None = None
    n_omega: int | None = None
    samples: int = 100_000
    force: bool = False


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


def _load_frame(path: str | None, flag: str) -> ModularFrame:
    if path is None:
        raise InputError(f"{flag} is required for this command")
    return ModularFrame.from_dict(_load_json(path), where=path)


def _load_vector(path: str | None) -> ModuleVector:
    if path is None:
        raise InputError("--vector is required for this command")
    return ModuleVector.from_dict(_load_json(path), where=path)


def _parse_algebra(text: str | None) -> AlgebraShape:
    if text is None:
        raise InputError("--algebra is required for this command")
    try:
        dims = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(
            f"--algebra must be comma-separated block dimensions, got {text!r}"
        ) from exc
    return AlgebraShape(dims)


def _require_p(config: RunConfig) -> int:
    if config.p is None:
        raise InputError("--p is required for this command")
    return config.p


def _cmd_certify(config: RunConfig):
    tau = _load_frame(config.frame_tau, "--frame-tau")
    omega = _load_frame(config.frame_omega, "--frame-omega")
    x = _load_vector(config.vector)
    cert, chain = evaluate(tau, omega, x, rel_tol=config.rel_tol)
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
            "rel_tol": config.rel_tol,
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


def _cmd_coherence(config: RunConfig):
    tau = _load_frame(config.frame_tau, "--frame-tau")
    omega = _load_frame(config.frame_omega, "--frame-omega")
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


def _cmd_parsevalize(config: RunConfig):
    frame = _load_frame(config.frame_tau, "--frame-tau")
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


def _cmd_audit(config: RunConfig):
    shape = _parse_algebra(config.algebra)
    if config.d is None:
        raise InputError("--d is required for this command")
    n_tau = config.n_tau if config.n_tau is not None else config.d + 2
    n_omega = config.n_omega if config.n_omega is not None else config.d + 2
    result = random_audit(
        shape,
        config.d,
        n_tau,
        n_omega,
        config.trials,
        seed=config.seed,
        rel_tol=config.rel_tol,
    )
    summary = {k: v for k, v in result.items() if k != "records"}
    summary_line = _report(
        "audit",
        {"rel_tol": config.rel_tol, "slack_tol": SLACK_TOL, "parseval_tol": PARSEVAL_TOL},
        {"summary": summary},
    )
    lines = [_canonical(r) for r in result["records"]]
    lines.append(_canonical(summary_line))
    code = 0 if result["violations"] == 0 else 1
    return code, "\n".join(lines) + "\n"


def _cmd_tao(config: RunConfig):
    p = _require_p(config)
    result = tao_min_sum(
        p,
        mode=config.mode,
        samples=config.samples,
        seed=config.seed,
        force=config.force,
    )
    holds = result["min_sum"] >= p + 1
    report = _report(
        "tao",
        {"threshold": RANK_TOL},
        {**result, "holds": bool(holds), "seed": config.seed},
    )
    return (0 if holds else 1), _canonical(report) + "\n"


def _cmd_conjecture(config: RunConfig):
    shape = _parse_algebra(config.algebra)
    p = _require_p(config)
    result = conjecture_audit(
        shape, p, config.trials, seed=config.seed, rel_tol=config.rel_tol
    )
    report = _report("conjecture", {"threshold": RANK_TOL, "rel_tol": config.rel_tol}, result)
    return (0 if result["holds"] else 1), _canonical(report) + "\n"


_HANDLERS = {
    "certify": _cmd_certify,
    "coherence": _cmd_coherence,
    "parsevalize": _cmd_parsevalize,
    "audit": _cmd_audit,
    "tao": _cmd_tao,
    "conjecture": _cmd_conjecture,
}


def _validate_config(config: RunConfig) -> None:
    if config.command not in _HANDLERS:
        raise InputError(f"unknown command {config.command!r}")
    if not 0.0 < config.rel_tol < 1.0:
        raise InputError(f"--rel-tol must lie strictly between 0 and 1, got {config.rel_tol}")
    if not 0 <= config.seed < 2**64:
        raise InputError(f"--seed must fit in 64 bits, got {config.seed}")
    if config.trials < 1:
        raise InputError(f"--trials must be positive, got {config.trials}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"{out}: cannot write report: {exc}") from exc


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    try:
        _validate_config(config)
        code, text = _HANDLERS[config.command](config)
        _emit(text, config.out)
        return code
    except NcupError as exc:
        print(f"ncup: error: {exc}", file=sys.stderr)
        return 2


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

    def common(sp, rel_tol=True):
        sp.add_argument("--out", default=None, help="write the report to this path instead of stdout")
        sp.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
        if rel_tol:
            sp.add_argument(
                "--rel-tol", dest="rel_tol", type=float, default=1e-8,
                help="relative threshold for support counting (default 1e-8)",
            )

    sp = sub.add_parser("certify", help="evaluate both uncertainty inequalities on a frame pair and vector")
    sp.add_argument("--frame-tau", required=True, help="JSON file with the first Parseval frame")
    sp.add_argument("--frame-omega", required=True, help="JSON file with the second Parseval frame")
    sp.add_argument("--vector", required=True, help="JSON file with the test vector")
    common(sp)

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
    common(sp)

    sp = sub.add_parser("tao", help="minimum support sum under the length-p transform")
    sp.add_argument("--p", type=int, required=True, help="prime length")
    sp.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    sp.add_argument("--samples", type=int, default=100_000, help="support pairs to draw in sampled mode")
    sp.add_argument("--force", action="store_true", help="allow exhaustive mode beyond p=7")
    common(sp, rel_tol=False)

    sp = sub.add_parser("conjecture", help="audit the additive bound for algebra-valued vectors")
    sp.add_argument("--algebra", required=True, help="block dimensions, e.g. 1,2 for C+M2")
    sp.add_argument("--p", type=int, required=True, help="prime length")
    sp.add_argument("--trials", type=int, default=10_000)
    common(sp)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    names = {f.name for f in dataclasses.fields(RunConfig)}
    kwargs = {k: v for k, v in vars(ns).items() if k in names and v is not None}
    return run(RunConfig(**kwargs))


if __name__ == "__main__":
    sys.exit(main())
