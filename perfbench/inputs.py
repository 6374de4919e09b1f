"""Seeded input files for the benchmark, and the dense numpy oracle for them.

Block b of a frame with N vectors over A^d, A = M_{n1} + ... + M_{nB}, is
held here as its analysis matrix T_b of shape (N*n, d*n): row block k is
the horizontal stack [(tau_k)_0 | ... | (tau_k)_{d-1}] of n x n matrices.
Then the frame operator is T^H T, the cross Gram of two frames is T W^H,
and a Parseval frame is one with orthonormal columns, which the reduced QR
of a complex Gaussian matrix gives.  Only numpy is used, never ncup, so
the program under test receives nothing but the files.
"""

from __future__ import annotations

import json

import numpy as np


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def parseval_matrices(rng, dims, d: int, count: int) -> list[np.ndarray]:
    """One (count*n, d*n) matrix with orthonormal columns per block."""
    return [np.linalg.qr(gaussian(rng, (count * n, d * n)))[0] for n in dims]


def frame_matrices(rng, dims, d: int, count: int) -> list[np.ndarray]:
    """Gaussian analysis matrices: a frame, but not a Parseval one."""
    return [gaussian(rng, (count * n, d * n)) for n in dims]


def vector_blocks(rng, dims, d: int) -> list[np.ndarray]:
    """A Gaussian vector of A^d as one (d, n, n) stack per block."""
    return [gaussian(rng, (d, n, n)) for n in dims]


def to_entries(matrix: np.ndarray, n: int) -> np.ndarray:
    """(count*n, d*n) analysis matrix -> (count, d, n, n) entry stack."""
    rows, cols = matrix.shape
    return matrix.reshape(rows // n, n, cols // n, n).transpose(0, 2, 1, 3)


def from_entries(stack: np.ndarray) -> np.ndarray:
    """(count, d, n, n) entry stack -> (count*n, d*n) analysis matrix."""
    count, d, n, _ = stack.shape
    return stack.transpose(0, 2, 1, 3).reshape(count * n, d * n)


def _element(dims, mats) -> dict:
    return {
        "shape": list(dims),
        "blocks": [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in mats],
    }


def vector_payload(dims, blocks) -> dict:
    """A vector of A^d in the format the CLI reads and parsevalize writes."""
    d = blocks[0].shape[0]
    return {
        "shape": list(dims),
        "entries": [_element(dims, [blk[i] for blk in blocks]) for i in range(d)],
    }


def frame_payload(dims, matrices, parseval: bool) -> dict:
    stacks = [to_entries(m, n) for m, n in zip(matrices, dims)]
    count, d = stacks[0].shape[:2]
    return {
        "algebra": list(dims),
        "d": int(d),
        "vectors": [vector_payload(dims, [s[k] for s in stacks]) for k in range(count)],
        "parseval": parseval,
    }


def matrices_from_payload(payload: dict) -> list[np.ndarray]:
    """Analysis matrices of a frame file, read back with numpy alone."""
    dims = payload["algebra"]
    stacks = []
    for b in range(len(dims)):
        stack = [
            [np.array(entry["blocks"][b], dtype=float) for entry in vec["entries"]]
            for vec in payload["vectors"]
        ]
        arr = np.array(stack)
        stacks.append(arr[..., 0] + 1j * arr[..., 1])
    return [from_entries(s) for s in stacks]


def parseval_residual(matrices) -> float:
    """Largest spectral norm of T^H T - I over the blocks."""
    return max(
        float(np.linalg.norm(t.conj().T @ t - np.eye(t.shape[1]), 2)) for t in matrices
    )


def coherence(tau, omega, dims) -> float:
    """max over n, m and blocks of ||<tau_n, omega_m>||, from the dense T W^H."""
    mu = 0.0
    for t, w, n in zip(tau, omega, dims):
        gram = to_entries(t @ w.conj().T, n)
        mu = max(mu, float(np.linalg.svd(gram, compute_uv=False)[..., 0].max()))
    return mu


def canonical_parseval(matrices) -> list[np.ndarray]:
    """T S^(-1/2) with S = T^H T: the frame parsevalize must produce."""
    out = []
    for t in matrices:
        vals, vecs = np.linalg.eigh(t.conj().T @ t)
        out.append(t @ ((vecs * vals**-0.5) @ vecs.conj().T))
    return out


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def write_frame_set(rng, dims, d: int, count: int, paths: dict) -> dict:
    """Write tau, omega (Parseval), raw (not Parseval) and x; return the oracle.

    `paths` maps "tau", "omega", "raw" and "x" to file names.
    """
    tau = parseval_matrices(rng, dims, d, count)
    omega = parseval_matrices(rng, dims, d, count)
    raw = frame_matrices(rng, dims, d, count)
    x = vector_blocks(rng, dims, d)
    write_json(paths["tau"], frame_payload(dims, tau, True))
    write_json(paths["omega"], frame_payload(dims, omega, True))
    write_json(paths["raw"], frame_payload(dims, raw, False))
    write_json(paths["x"], vector_payload(dims, x))
    return {
        "mu": coherence(tau, omega, dims),
        "tau_residual": parseval_residual(tau),
        "omega_residual": parseval_residual(omega),
        "raw_parseval": canonical_parseval(raw),
        "dims": list(dims),
        "d": d,
        "count": count,
    }
