"""Row-at-a-time reference for the stacked Bogoliubov step.

The pairing of mode energies, the Krein-positive transform and the
vacuum moments of one mode, written for one 2n x 2n matrix at a time
with a Python loop over the stack.  gaussian._bogoliubov_stack must
reproduce these bit for bit; the tests assert that on every double-model
ray of the benchmark's thermo request set and on hand-made stacks.
"""

from __future__ import annotations

import math

import numpy as np

from hpdicke.errors import GaplessError, HpDickeError, InstabilityError

__all__ = [
    "paired_gaps",
    "krein_transform",
    "vacuum_moments",
    "bogoliubov_rows",
]


def _sigma_z(n: int) -> np.ndarray:
    s = np.ones(2 * n)
    s[n:] = -1.0
    return np.diag(s)


def _swap_blocks(n: int) -> np.ndarray:
    x = np.zeros((2 * n, 2 * n))
    x[:n, n:] = np.eye(n)
    x[n:, :n] = np.eye(n)
    return x


def paired_gaps(ev: np.ndarray, n: int, scale: float,
                tol: float) -> np.ndarray:
    """Ascending mode energies from the 2n eigenvalues of Sigma_z M;
    overwrites ev."""
    ev[np.abs(ev) < 1e-7 * scale] = 0.0
    if np.abs(ev.imag).max() > tol * scale:
        raise InstabilityError(
            f"complex mode energies (max imag {np.abs(ev.imag).max():.3e})")
    re = np.sort(ev.real)
    pos = re[n:]
    if np.abs(pos + re[:n][::-1]).max() > tol * scale:
        raise InstabilityError("mode energies do not come in +/- pairs")
    return np.clip(pos, 0.0, None)


def krein_transform(ev: np.ndarray, vec: np.ndarray, n: int, scale: float,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaps and polariton transform T from the eigenpairs of Sigma_z M:
    keeps the Krein-positive branch and normalizes each row to the
    bosonic commutator."""
    if np.abs(ev.imag).max() > tol * scale:
        raise InstabilityError(
            f"complex mode energies (max imag {np.abs(ev.imag).max():.3e}); "
            "expansion point is on the wrong side of a phase boundary")
    ev = ev.real
    order = np.argsort(ev)
    pos = order[ev[order] > tol * scale]
    if pos.size != n:
        raise (GaplessError if pos.size == n - 1 else InstabilityError)(
            f"{pos.size} positive mode energies for {n} modes; "
            "form is gapless or unstable")

    sz = _sigma_z(n)
    gaps = ev[pos].copy()
    rows = np.empty((n, 2 * n), dtype=complex)
    group_tol = max(1e-8 * scale, 10 * tol * scale)
    i = 0
    kept: list[np.ndarray] = []
    while i < n:
        j = i
        while j + 1 < n and gaps[j + 1] - gaps[i] < group_tol:
            j += 1
        for k in range(i, j + 1):
            xi = vec[:, pos[k]].copy()
            for prev in kept[i:k]:
                xi -= prev * (prev.conj() @ (sz @ xi))
            s = float(np.real(xi.conj() @ (sz @ xi)))
            if s <= tol:
                raise InstabilityError(
                    f"non-positive Krein norm {s:.3e} at gap {gaps[k]:.6g}")
            kept.append(xi / math.sqrt(s))
        i = j + 1
    for k, xi in enumerate(kept):
        w = xi.conj() @ sz
        a = w[np.argmax(np.abs(w))]
        w = w * (abs(a) / a)
        rows[k] = w

    X = _swap_blocks(n)
    return gaps, np.vstack([rows, rows.conj() @ X])


def vacuum_moments(T: np.ndarray, mean: complex,
                   mode_index: int) -> tuple[complex, complex, float]:
    """<a>, <a^2> and <a^dag a> of one mode in the polariton vacuum."""
    n = T.shape[0] // 2
    sz = _sigma_z(n)
    t_inv = sz @ T.conj().T @ sz
    row = t_inv[mode_index]
    P, Q = row[:n], row[n:]
    n_occ = float(np.sum(np.abs(Q) ** 2))
    sq = complex(np.sum(P * Q))
    return mean, sq + mean * mean, n_occ + abs(mean) ** 2


def bogoliubov_rows(M: np.ndarray, stable: np.ndarray, tol: float = 1e-9):
    """Paired gaps, Krein gaps, transforms, mode-0 moments and errors of a
    stack of 2n x 2n matrices, one row at a time.  A row gets its
    transform and moments where stable[k] is set and nothing raised."""
    n = M.shape[-1] // 2
    ev, vec = np.linalg.eig(_sigma_z(n) @ M)
    gaps = np.full((len(M), n), math.nan)
    modes: list[np.ndarray | None] = [None] * len(M)
    transforms: list[np.ndarray | None] = [None] * len(M)
    moments: list[tuple | None] = [None] * len(M)
    errors: list[HpDickeError | None] = [None] * len(M)
    for k, m in enumerate(M):
        scale = max(np.linalg.norm(m), 1e-300)
        try:
            gaps[k] = paired_gaps(ev[k].copy(), n, scale, tol)
            if stable[k]:
                modes[k], transforms[k] = krein_transform(ev[k], vec[k], n,
                                                          scale, tol)
                moments[k] = vacuum_moments(transforms[k], 0j, 0)
        except HpDickeError as exc:
            errors[k] = exc
    return gaps, modes, transforms, moments, errors
