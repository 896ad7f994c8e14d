"""Brute-force Fock-space reference implementations.

Represents a QuadraticForm on a truncated multimode Fock space, finds the
ground state directly, and evaluates the photon reduced density matrix by
partial trace.  Exists so the closed-form Gaussian pipeline can be checked
against something that never touches a Bogoliubov transform.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hpdicke.errors import ConvergenceError, DomainError
from hpdicke.gaussian import QuadraticForm

__all__ = [
    "build_fock_hamiltonian",
    "fock_ground_state",
    "reduced_entropy_bits",
    "mode0_moments",
]


def _ladder(cutoff: int) -> sp.csr_matrix:
    data = np.sqrt(np.arange(1, cutoff + 1, dtype=float))
    return sp.diags(data, offsets=1, format="csr")


def build_fock_hamiltonian(form: QuadraticForm,
                           cutoffs: tuple[int, ...]) -> sp.csr_matrix:
    """Sparse complex Hermitian matrix of the form on prod_i (cutoffs[i]+1)
    Fock levels per mode."""
    n = form.n_modes
    if len(cutoffs) != n:
        raise DomainError("one cutoff per mode required")
    dims = [c + 1 for c in cutoffs]
    eyes = [sp.identity(dim, format="csr") for dim in dims]

    def embed(op: sp.spmatrix, mode: int) -> sp.csr_matrix:
        factors = [eyes[k] if k != mode else op for k in range(n)]
        out = factors[0]
        for f in factors[1:]:
            out = sp.kron(out, f, format="csr")
        return out

    a_ops = [embed(_ladder(cutoffs[k]), k) for k in range(n)]
    dim = int(np.prod(dims))
    H = sp.csr_matrix((dim, dim), dtype=complex)
    A = np.asarray(form.A, dtype=complex)
    B = np.asarray(form.B, dtype=complex)
    d = np.asarray(form.d, dtype=complex)
    for i in range(n):
        for j in range(n):
            if A[i, j] != 0:
                H = H + A[i, j] * (a_ops[i].getH() @ a_ops[j])
            if B[i, j] != 0:
                bij = B[i, j] * (a_ops[i] @ a_ops[j])
                H = H + bij + bij.getH()
    for i in range(n):
        if d[i] != 0:
            di = d[i] * a_ops[i]
            H = H + di + di.getH()
    if form.e0:
        H = H + form.e0 * sp.identity(dim, format="csr", dtype=complex)
    return H.tocsr()


def fock_ground_state(form: QuadraticForm, cutoffs: tuple[int, ...],
                      seed: int = 7) -> tuple[float, np.ndarray]:
    """Ground energy and state vector, reshaped to one axis per mode."""
    H = build_fock_hamiltonian(form, cutoffs)
    dim = H.shape[0]
    if dim <= 2500:
        w, v = np.linalg.eigh(H.toarray())
        energy, psi = float(w[0]), v[:, 0]
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim)
        v0 /= np.linalg.norm(v0)
        try:
            w, v = spla.eigsh(H, k=1, which="SA", v0=v0, tol=1e-12,
                              maxiter=50 * dim)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(f"Fock ground state did not converge: {exc}")
        energy, psi = float(w[0]), v[:, 0]
    dims = tuple(c + 1 for c in cutoffs)
    return energy, psi.reshape(dims)


def reduced_entropy_bits(psi: np.ndarray, axis: int = 0,
                         floor: float = 1e-16) -> float:
    """Entanglement entropy (bits) between one mode and the rest.

    Works on the Schmidt values of the state matrix, which squares to the
    spectrum of the reduced density matrix.
    """
    mat = np.moveaxis(psi, axis, 0).reshape(psi.shape[axis], -1)
    svals = np.linalg.svd(mat, compute_uv=False)
    w = svals ** 2
    w = w[w > floor]
    return float(-np.sum(w * np.log2(w)))


def mode0_moments(psi: np.ndarray) -> tuple[complex, complex, float, float]:
    """<a>, <a^2>, <a^dag a> of the first mode of a normalized state,
    plus the total weight sitting on that mode's top Fock level."""
    mat = psi.reshape(psi.shape[0], -1)
    levels = np.arange(mat.shape[0])
    probs = np.sum(np.abs(mat) ** 2, axis=1)
    occupation = float(np.dot(levels, probs))
    root1 = np.sqrt(levels[1:].astype(float))
    mean_a = complex(np.sum(root1[:, None] * mat[:-1].conj() * mat[1:]))
    if mat.shape[0] > 2:
        root2 = np.sqrt((levels[:-2] + 1.0) * (levels[:-2] + 2.0))
        a_sq = complex(np.sum(root2[:, None] * mat[:-2].conj() * mat[2:]))
    else:
        a_sq = 0.0 + 0.0j
    return mean_a, a_sq, occupation, float(probs[-1])
