"""Correctness checks for one CLI command's exit code and report.

Each check returns a list of problems; an empty list means the report is
correct.  Expected values come from the workload definition and the dense
numpy oracle in inputs.py, never from ncup itself.  Report digests are not
pinned, so reports may gain fields without failing the benchmark.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import matrices_from_payload, parseval_residual

MU_TOL = 1e-12
PARSEVAL_TOL = 1e-8
COMPANION_TOL = 1e-9


def _audit(text: str, expect: dict) -> list[str]:
    lines = text.splitlines()
    records, summary = lines[:-1], json.loads(lines[-1])["summary"]
    problems = []
    if summary["violations"] != 0:
        problems.append(f"audit: {summary['violations']} violations")
    if summary["trials"] != expect["trials"] or len(records) != expect["trials"]:
        problems.append(f"audit: {len(records)} records for {expect['trials']} trials")
    return problems


def _certify(report: dict, expect: dict) -> list[str]:
    problems = []
    if report["holds"] is not True:
        problems.append("certify: holds is not true")
    mu = report["certificate"]["mu"]
    if abs(mu - expect["mu"]) > MU_TOL:
        problems.append(f"certify: mu {mu!r} differs from oracle {expect['mu']!r}")
    return problems


def _coherence(report: dict, expect: dict) -> list[str]:
    if abs(report["mu"] - expect["mu"]) > MU_TOL:
        return [f"coherence: mu {report['mu']!r} differs from oracle {expect['mu']!r}"]
    return []


def _parsevalize(report: dict, expect: dict) -> list[str]:
    if report.get("parseval") is not True:
        return ["parsevalize: output is not declared Parseval"]
    if report["algebra"] != expect["dims"] or report["d"] != expect["d"]:
        return ["parsevalize: output lives in another module"]
    if len(report["vectors"]) != expect["count"]:
        return [f"parsevalize: {len(report['vectors'])} vectors, expected {expect['count']}"]
    mats = matrices_from_payload(report)
    problems = []
    residual = parseval_residual(mats)
    if not residual <= PARSEVAL_TOL:
        problems.append(f"parsevalize: residual {residual:.3e} above {PARSEVAL_TOL:g}")
    gap = max(float(np.abs(m - c).max()) for m, c in zip(mats, expect["companion"]))
    if not gap <= COMPANION_TOL:
        problems.append(f"parsevalize: output is {gap:.3e} from T S^(-1/2)")
    return problems


def _tao(report: dict, expect: dict) -> list[str]:
    p = expect["p"]
    problems = []
    if report["min_sum"] != p + 1:
        problems.append(f"tao: min_sum {report['min_sum']} != p+1 = {p + 1}")
    if report.get("violating_patterns"):
        problems.append("tao: violating patterns reported")
    if report["holds"] is not True:
        problems.append("tao: holds is not true")
    if report["pairs_checked"] != expect["pairs_checked"]:
        problems.append(
            f"tao: {report['pairs_checked']} pairs checked, expected {expect['pairs_checked']}"
        )
    return problems


def _conjecture(report: dict, expect: dict) -> list[str]:
    problems = []
    if report["holds"] is not True:
        problems.append("conjecture: holds is not true")
    if report["min_sum"] < expect["p"] + 1:
        problems.append(f"conjecture: min_sum {report['min_sum']} below p+1")
    if report["patterns_checked"] != expect["patterns_checked"]:
        problems.append(
            f"conjecture: {report['patterns_checked']} patterns checked, "
            f"expected {expect['patterns_checked']}"
        )
    return problems


_REPORT_CHECKS = {
    "certify": _certify,
    "coherence": _coherence,
    "parsevalize": _parsevalize,
    "tao": _tao,
    "conjecture": _conjecture,
}


def check(kind: str, code: int, text: str, expect: dict) -> list[str]:
    """Problems with one command's result; `text` is the report it wrote."""
    if code != 0:
        return [f"{kind}: exit code {code}"]
    try:
        if kind == "audit":
            return _audit(text, expect)
        return _REPORT_CHECKS[kind](json.loads(text), expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{kind}: malformed report ({type(exc).__name__}: {exc})"]
