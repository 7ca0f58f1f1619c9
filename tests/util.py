"""Shared test helpers: random gate generators and independent oracles."""

import numpy as np
from scipy.linalg import expm, schur

from matchgates.circuits import Circuit
from matchgates.fermion import MajoranaRotation, matchgate_generator_coefficients
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


def embed(gate: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Dense 2^n matrix of ``gate`` on the ordered ``targets``: gate (x) I on
    the qubit order targets + the rest, with its basis permuted back to
    qubit 0 as the most-significant bit."""
    rest = [q for q in range(n) if q not in targets]
    full = np.kron(gate, np.eye(2 ** len(rest)))
    index = np.arange(2**n)
    canonical = sum(
        ((index >> (n - 1 - a)) & 1) << (n - 1 - q)
        for a, q in enumerate(list(targets) + rest)
    )
    perm = np.zeros((2**n, 2**n))
    perm[canonical, index] = 1.0
    return perm @ full @ perm.T


def rotation_matrix(rot: MajoranaRotation) -> np.ndarray:
    """Dense SO(2n) matrix of a Majorana rotation: the identity with the
    block at Majorana indices 2*site onwards."""
    r = np.eye(2 * rot.n)
    s = 2 * rot.site
    r[s : s + len(rot.block), s : s + len(rot.block)] = rot.block
    return r


def generator_rotation_block(g: np.ndarray) -> np.ndarray:
    """SO(4) block of a matchgate from its quadratic generator: with
    G = e^{i delta} exp(i H),  H = sum_{u<v} alpha_uv (-i c_u c_v),  the block
    is exp(2 alpha).  Independent of the conjugation kernel."""
    coeff = matchgate_generator_coefficients(g)
    alpha = np.zeros((4, 4))
    alpha[0, 1] = coeff["ZI"]
    alpha[2, 3] = coeff["IZ"]
    alpha[1, 2] = coeff["XX"]
    alpha[0, 3] = -coeff["YY"]
    alpha[1, 3] = coeff["XY"]
    alpha[0, 2] = -coeff["YX"]
    return expm(2.0 * (alpha - alpha.T))


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
