"""Shared test helpers: random gate generators and independent oracles."""

import numpy as np
from scipy.linalg import schur

from matchgates.circuits import Circuit
from matchgates.fermion import MajoranaRotation
from matchgates.gates import I2, X, Y, Z, build_pp, det2, kron


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pp(rng: np.random.Generator) -> np.ndarray:
    return build_pp(haar_unitary(rng, 2), haar_unitary(rng, 2))


def random_matchgate(rng: np.random.Generator) -> np.ndarray:
    """Random G(A, B) conditioned on det A = det B (phase-adjust B)."""
    a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
    phase = (np.angle(det2(a)) - np.angle(det2(b))) / 2.0
    return build_pp(a, b * np.exp(1j * phase))


def random_nonmatchgate_pp(rng: np.random.Generator) -> np.ndarray:
    """Random P.P. gate with det ratio bounded away from 1."""
    while True:
        g = random_pp(rng)
        a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
        g = build_pp(a, b)
        if abs(det2(a) - det2(b)) > 0.1:
            return g


def random_matchgate_circuit(
    rng: np.random.Generator, n: int, depth: int
) -> Circuit:
    circuit = Circuit(n)
    for _ in range(depth):
        site = int(rng.integers(0, n - 1))
        circuit.append(random_matchgate(rng), (site, site + 1))
    return circuit


def majorana_operators(n: int) -> list[np.ndarray]:
    """Dense Jordan-Wigner Majoranas: c_{2k} = Z..Z X_k, c_{2k+1} = Z..Z Y_k."""
    ops = []
    for k in range(n):
        for pauli in (X, Y):
            m = np.eye(1, dtype=complex)
            for j in range(n):
                if j < k:
                    m = np.kron(m, Z)
                elif j == k:
                    m = np.kron(m, pauli)
                else:
                    m = np.kron(m, I2)
            ops.append(m)
    return ops


def embed_two_qubit(gate: np.ndarray, site: int, n: int) -> np.ndarray:
    """Dense embedding of a two-qubit gate on (site, site+1) via kron."""
    m = np.eye(1, dtype=complex)
    j = 0
    while j < n:
        if j == site:
            m = np.kron(m, gate)
            j += 2
        else:
            m = np.kron(m, I2)
            j += 1
    return m


def rotation_matrix(rot: MajoranaRotation) -> np.ndarray:
    """Dense SO(2n) matrix of a Majorana rotation: the identity with the 4x4
    block at Majorana indices 2*site .. 2*site+3."""
    r = np.eye(2 * rot.n)
    s = 2 * rot.site
    r[s : s + 4, s : s + 4] = rot.block
    return r


def principal_log_pauli_coefficients(g: np.ndarray) -> dict[str, float]:
    """Projection of the principal log of a P.P. gate onto its Pauli support
    {II, XX, YY, XY, YX, ZI, IZ, ZZ}.

    Cross-check for the matchgate test: the gate is a matchgate iff the ZZ
    coefficient is 0 mod pi/2 (the principal branch can land on +-pi/2 for
    legitimate matchgates, which is why the library's rotation extraction
    works blockwise instead).
    """
    g = np.asarray(g, dtype=complex)
    t, z = schur(g, output="complex")
    h = z @ np.diag(np.angle(np.diag(t))) @ z.conj().T
    labels = {
        "II": kron(I2, I2),
        "XX": kron(X, X),
        "YY": kron(Y, Y),
        "XY": kron(X, Y),
        "YX": kron(Y, X),
        "ZI": kron(Z, I2),
        "IZ": kron(I2, Z),
        "ZZ": kron(Z, Z),
    }
    coeffs = {k: float((np.trace(p @ h) / 4.0).real) for k, p in labels.items()}
    recon = sum(c * labels[k] for k, c in coeffs.items())
    coeffs["residual"] = float(np.max(np.abs(h - recon)))
    return coeffs
