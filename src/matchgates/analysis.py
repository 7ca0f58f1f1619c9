"""Two-qubit gate analysis.

Classifies gates as parity-preserving / matchgate, extracts the seven-angle
parity-preserving parametrization and the nonlocal interaction triple
(a, b, c) of the Cartan (KAK) form

    U = e^{i phi} (u1 x u2) exp(i(a XX + b YY + c ZZ)) (v1 x v2),

and computes entangling power (closed form and Monte-Carlo) plus the Makhlin
local invariants.

Angle conventions:

* theta, phi (block mixing angles) lie in [0, pi/2].
* beta, the block-determinant phase with det(A)/det(B) = e^{4i beta}, is
  canonicalized to (-pi/4, pi/4].  A parity-preserving gate is a matchgate
  exactly when beta == 0 after canonicalization.
* KAK cores are reduced to the Weyl chamber pi/4 >= a >= b >= |c|, with
  c >= 0 when a = pi/4, where every locally equivalent gate has one point.
  The moves are pi/2 shifts (exp(i(pi/2) P x P) = i P x P), sign flips of
  two strengths (conjugation by P x I) and swaps of two strengths
  (conjugation by Q x Q, Q = (P + P')/sqrt(2)); :func:`kak` folds each into
  the local gates and the global phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadSampleCount,
    DecompositionFailure,
    NonUnitaryInput,
    NotParityPreserving,
    TooLarge,
)
from .gates import (
    Mat2,
    Mat4,
    PAULIS,
    TOL_CLASSIFY,
    TOL_UNITARY,
    build_pp,
    det2,
    extract_blocks,
    is_unitary,
    kron,
    nl,
    off_block_weight,
)

# Columns are the magic-basis (Bell-like) states; local unitaries become real
# orthogonal matrices in this basis.
MAGIC = np.array(
    [
        [1, -1j, 0, 0],
        [0, 0, 1, -1j],
        [0, 0, -1, -1j],
        [1, 1j, 0, 0],
    ],
    dtype=complex,
) / np.sqrt(2)
_MAGIC_DAG = MAGIC.conj().T

# Eigenvalue signs of XX, YY, ZZ on the four magic-basis states: the phase of
# exp(i(a XX + b YY + c ZZ)) on magic column k is a*_SIG_A[k] + b*_SIG_B[k] + c*_SIG_C[k].
_SIG_A = np.array([1.0, -1.0, -1.0, 1.0])
_SIG_B = np.array([-1.0, 1.0, -1.0, 1.0])
_SIG_C = np.array([1.0, 1.0, -1.0, -1.0])

_HALF_PI = np.pi / 2
_QUARTER_PI = np.pi / 4


@dataclass(frozen=True)
class NonlocalTriple:
    """Interaction strengths of the XX/YY/ZZ core."""

    a: float
    b: float
    c: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def matrix(self) -> Mat4:
        return nl(self.a, self.b, self.c)


@dataclass(frozen=True)
class Classification:
    is_unitary: bool
    is_pp: bool
    is_matchgate: bool
    blocks: tuple[Mat2, Mat2] | None = None
    det_ratio: complex | None = None


@dataclass(frozen=True)
class PPParams:
    """Angles of the seven-parameter parity-preserving form.

    The even block is e^{i beta} [[cos(theta) e^{i alpha}, i sin(theta) e^{i mu}],
    [i sin(theta) e^{-i mu}, cos(theta) e^{-i alpha}]] and the odd block the
    same with (phi, gamma, nu) and e^{-i beta}.  ``global_phase`` makes the
    reconstruction exact rather than merely up-to-phase.  ``degenerate`` names
    phases that were pinned to 0 because the block was (anti)diagonal.
    """

    theta: float
    alpha: float
    gamma: float
    phi: float
    mu: float
    nu: float
    beta: float
    global_phase: float = 0.0
    degenerate: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class KAKResult:
    u1: Mat2
    u2: Mat2
    v1: Mat2
    v2: Mat2
    core: NonlocalTriple
    global_phase: float

    def reconstruct(self) -> Mat4:
        return (
            np.exp(1j * self.global_phase)
            * kron(self.u1, self.u2)
            @ self.core.matrix()
            @ kron(self.v1, self.v2)
        )


def classify(u: Mat4) -> Classification:
    """Parity-preserving / matchgate classification of a two-qubit unitary.

    Matchgate test is |det(A) - det(B)| <= TOL_CLASSIFY, which is invariant
    under a global phase (both determinants scale by e^{2i phi}).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise NonUnitaryInput("classify expects a 4x4 unitary")
    if not is_unitary(u):
        raise NonUnitaryInput(f"gate is not unitary within {TOL_UNITARY:g}")
    pp, matchgate = (flags[0] for flags in classify_stack(u[None]))
    if not pp:
        return Classification(True, False, False)
    a, b = extract_blocks(u)
    return Classification(True, True, bool(matchgate), (a, b), det2(a) / det2(b))


def classify_stack(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parity and matchgate tests of :func:`classify` over an (N, 4, 4)
    stack of gates already admitted as unitary.

    Returns boolean arrays (parity-preserving, matchgate) of shape (N,); a
    matchgate is parity-preserving.  ``classify`` checks unitarity and then
    takes the N = 1 case, so a gate gets the same verdict alone or in a
    stack.
    """
    pp = off_block_weight(u) <= TOL_CLASSIFY
    det_a = u[:, 0, 0] * u[:, 3, 3] - u[:, 0, 3] * u[:, 3, 0]
    det_b = u[:, 1, 1] * u[:, 2, 2] - u[:, 1, 2] * u[:, 2, 1]
    return pp, pp & (np.abs(det_a - det_b) <= TOL_CLASSIFY)


def _su2_angles(m0: Mat2, eps: float) -> tuple[float, float, float, list[str], list[str]]:
    """Mixing angle and the two phases of an SU(2) block in the
    [[cos t e^{i p}, i sin t e^{i q}], [i sin t e^{-i q}, cos t e^{-i p}]] form."""
    t = math.atan2(abs(m0[0, 1]), abs(m0[0, 0]))
    diag_names, off_names = [], []
    if abs(m0[0, 0]) > eps:
        p = cmath.phase(m0[0, 0])
    else:
        p = 0.0
        diag_names.append("diag")
    if abs(m0[0, 1]) > eps:
        q = cmath.phase(-1j * m0[0, 1])
    else:
        q = 0.0
        off_names.append("off")
    return t, p, q, diag_names, off_names


def pp_params(u: Mat4) -> PPParams:
    """Extract {theta, alpha, gamma, phi, mu, nu, beta} from a P.P. gate."""
    cls = classify(u)
    if not cls.is_pp:
        raise NotParityPreserving(
            f"off-block weight {off_block_weight(np.asarray(u)):.3e} exceeds "
            f"{TOL_CLASSIFY:g}"
        )
    a, b = cls.blocks
    det_a = det2(a)
    beta = cmath.phase(cls.det_ratio) / 4.0
    # Canonical range (-pi/4, pi/4]; snap the branch-cut boundary so that
    # det ratio exactly -1 (e.g. SWAP) lands on +pi/4, not -pi/4.
    if beta <= -_QUARTER_PI + 1e-12:
        beta += _HALF_PI
    delta = (cmath.phase(det_a) - 2.0 * beta) / 2.0
    a0 = a * np.exp(-1j * (beta + delta))
    b0 = b * np.exp(-1j * (-beta + delta))

    eps = 10.0 * TOL_CLASSIFY
    theta, alpha, mu, d1, o1 = _su2_angles(a0, eps)
    phi, gamma, nu, d2, o2 = _su2_angles(b0, eps)
    degenerate = tuple(
        f"{block}_{kind}"
        for block, diag, off in (("even", d1, o1), ("odd", d2, o2))
        for kind in diag + off
    )
    return PPParams(
        theta=theta,
        alpha=alpha,
        gamma=gamma,
        phi=phi,
        mu=mu,
        nu=nu,
        beta=beta,
        global_phase=delta,
        degenerate=degenerate,
    )


def reconstruct_pp(p: PPParams, with_phase: bool = True) -> Mat4:
    """Evaluate the seven-angle form; with_phase=True restores the source gate
    exactly, otherwise only up to the recorded global phase."""
    ea = np.exp(1j * p.beta)
    eb = np.exp(-1j * p.beta)
    ct, st = np.cos(p.theta), np.sin(p.theta)
    cp, sp = np.cos(p.phi), np.sin(p.phi)
    a = ea * np.array(
        [
            [ct * np.exp(1j * p.alpha), 1j * st * np.exp(1j * p.mu)],
            [1j * st * np.exp(-1j * p.mu), ct * np.exp(-1j * p.alpha)],
        ]
    )
    b = eb * np.array(
        [
            [cp * np.exp(1j * p.gamma), 1j * sp * np.exp(1j * p.nu)],
            [1j * sp * np.exp(-1j * p.nu), cp * np.exp(-1j * p.gamma)],
        ]
    )
    g = build_pp(a, b)
    if with_phase:
        g = g * np.exp(1j * p.global_phase)
    return g


def nonlocal_from_pp(p: PPParams) -> NonlocalTriple:
    """Nonlocal triple of a P.P. gate: {(theta+phi)/2, (phi-theta)/2, beta}."""
    return NonlocalTriple((p.theta + p.phi) / 2.0, (p.phi - p.theta) / 2.0, p.beta)


# ---------------------------------------------------------------------------
# KAK / Cartan decomposition
# ---------------------------------------------------------------------------


def _cluster_indices(values: np.ndarray) -> list[list[int]]:
    """Groups of indices of sorted ``values`` whose neighbours lie within 1e-8."""
    order = np.argsort(values)
    clusters: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= 1e-8:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return clusters


def _diag_residual(p: np.ndarray, m: np.ndarray) -> float:
    t = p.T @ m @ p
    return float(np.max(np.abs(t - np.diag(np.diag(t)))))


def _simultaneous_diagonalize(s: Mat4) -> np.ndarray:
    """Real orthogonal P diagonalizing both Re(S) and Im(S) of a symmetric
    unitary S.  Degeneracies are split by re-diagonalizing the other part
    inside each eigenvalue cluster."""
    s_re, s_im = s.real.copy(), s.imag.copy()
    s_re = (s_re + s_re.T) / 2
    s_im = (s_im + s_im.T) / 2
    # Deterministic sweep of mixing angles; t=0 is the plain two-stage split.
    for t in (0.0, 0.7853, 0.3141, 1.1, 0.55):
        first = math.cos(t) * s_re + math.sin(t) * s_im
        second = -math.sin(t) * s_re + math.cos(t) * s_im
        w, p = np.linalg.eigh(first)
        for cluster in _cluster_indices(w):
            if len(cluster) > 1:
                sub = p[:, cluster].T @ second @ p[:, cluster]
                _, q = np.linalg.eigh((sub + sub.T) / 2)
                p[:, cluster] = p[:, cluster] @ q
        if max(_diag_residual(p, s_re), _diag_residual(p, s_im)) < 1e-8:
            return p
    raise DecompositionFailure("simultaneous diagonalization did not converge")


def _kron_factor(k: Mat4) -> tuple[complex, Mat2, Mat2]:
    """Split k = g * (f1 x f2) with f1, f2 in SU(2); k must be a tensor
    product of unitaries."""
    r, c = np.unravel_index(int(np.argmax(np.abs(k))), (4, 4))
    f1 = np.zeros((2, 2), dtype=complex)
    f2 = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            f1[(r >> 1) ^ i, (c >> 1) ^ j] = k[r ^ (i << 1), c ^ (j << 1)]
            f2[(r & 1) ^ i, (c & 1) ^ j] = k[r ^ i, c ^ j]
    g = 1.0 / k[r, c]
    for f in (f1, f2):
        d = complex(np.linalg.det(f))
        if abs(d) < 1e-12:
            raise DecompositionFailure("kron factor is singular")
        root = cmath.sqrt(d)
        f /= root
        g *= root
    # g now carries all modulus/phase slack; |g| should be 1 for unitary input.
    residual = np.max(np.abs(g * kron(f1, f2) - k))
    if residual > 1e-8:
        raise DecompositionFailure(f"kron factorization residual {residual:.3e}")
    return complex(g), f1, f2


# Strength k of the core multiplies axes[k] x axes[k].
_AXES = (PAULIS["X"], PAULIS["Y"], PAULIS["Z"])
# A strength this close to pi/4 lies on the chamber's a = pi/4 face.
_FACE_TOL = 1e-12


def _chamber_moves(triple) -> tuple[list[float], list[tuple]]:
    """The Weyl chamber point of a triple and the moves that reach it, in
    order (module docstring).  A move is ("shift", k, n): strength k less
    n pi/2; ("negate", k): the two strengths other than k change sign; or
    ("swap", i, j): strengths i and j trade places."""
    t = list(triple)
    moves: list[tuple] = []
    for k in range(3):
        n = round(t[k] / _HALF_PI)
        if n:
            t[k] -= n * _HALF_PI
            moves.append(("shift", k, n))
    for i, j in ((0, 1), (1, 2), (0, 1)):
        if abs(t[i]) < abs(t[j]):
            t[i], t[j] = t[j], t[i]
            moves.append(("swap", i, j))
    if t[0] < 0 or t[1] < 0:
        # a and b become non-negative; c flips with one of them alone.
        keep = 2 if t[0] < 0 and t[1] < 0 else (1 if t[0] < 0 else 0)
        t = [x if k == keep else -x for k, x in enumerate(t)]
        moves.append(("negate", keep))
    if t[0] > _QUARTER_PI - _FACE_TOL and t[2] < 0:
        # (pi/4, b, c) and (pi/4, b, -c) are locally equivalent.
        t = [_HALF_PI - t[0], t[1], -t[2]]
        moves += [("shift", 0, 1), ("negate", 1)]
    # + 0.0 writes a negated zero as 0.0.
    return [x + 0.0 for x in t], moves


def weyl_chamber(triple: NonlocalTriple) -> NonlocalTriple:
    """The point of the Weyl chamber pi/4 >= a >= b >= |c| locally
    equivalent to ``triple``."""
    point, _ = _chamber_moves(triple.as_tuple())
    return NonlocalTriple(*point)


def kak(u: Mat4) -> KAKResult:
    """Cartan decomposition via magic-basis diagonalization of U^T U.

    The returned core is the Weyl chamber point pi/4 >= a >= b >= |c|; the
    local factors and global phase absorb every move that reaches it, so
    ``KAKResult.reconstruct()`` reproduces the input to ~1e-10.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or not is_unitary(u):
        raise NonUnitaryInput("kak expects a 4x4 unitary")

    phase = cmath.phase(complex(np.linalg.det(u))) / 4.0
    u_su = u * np.exp(-1j * phase)

    m = _MAGIC_DAG @ u_su @ MAGIC
    s = m.T @ m
    p = _simultaneous_diagonalize(s)
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]

    d = np.diag(p.T @ s @ p)
    lam = np.angle(d) / 2.0
    o1 = m @ p @ np.diag(np.exp(-1j * lam))
    if np.linalg.det(o1).real < 0:
        lam[0] += np.pi
        o1[:, 0] = -o1[:, 0]
    if np.max(np.abs(o1.imag)) > 1e-7:
        raise DecompositionFailure("left orthogonal factor is not real")
    o1 = o1.real

    a = float(lam @ _SIG_A) / 4.0
    b = float(lam @ _SIG_B) / 4.0
    c = float(lam @ _SIG_C) / 4.0
    phase += float(np.sum(lam)) / 4.0

    g1, u1, u2 = _kron_factor(MAGIC @ o1 @ _MAGIC_DAG)
    g2, v1, v2 = _kron_factor(MAGIC @ p.T @ _MAGIC_DAG)
    phase += cmath.phase(g1) + cmath.phase(g2)

    # Each move takes N(old) to a product with N(new) and local gates.
    core, moves = _chamber_moves((a, b, c))
    for kind, *args in moves:
        if kind == "shift":
            # N(old) = N(new) (i P x P)^n, P x P commuting with N(new).
            k, n = args
            phase += n * _HALF_PI
            if n % 2:
                u1, u2 = u1 @ _AXES[k], u2 @ _AXES[k]
        elif kind == "negate":
            # N(old) = (P x I) N(new) (P x I).
            (k,) = args
            u1, v1 = u1 @ _AXES[k], _AXES[k] @ v1
        else:
            # N(old) = (Q x Q) N(new) (Q x Q), Q Hermitian and unitary.
            i, j = args
            q = (_AXES[i] + _AXES[j]) / math.sqrt(2.0)
            u1, u2, v1, v2 = u1 @ q, u2 @ q, q @ v1, q @ v2

    result = KAKResult(
        u1=u1,
        u2=u2,
        v1=v1,
        v2=v2,
        core=NonlocalTriple(core[0], core[1], core[2]),
        global_phase=float(np.mod(phase + np.pi, 2 * np.pi) - np.pi),
    )
    residual = float(np.max(np.abs(result.reconstruct() - u)))
    if residual > 1e-9:
        raise DecompositionFailure(f"KAK reconstruction residual {residual:.3e}")
    return result


# ---------------------------------------------------------------------------
# Entangling power and local invariants
# ---------------------------------------------------------------------------


def entangling_power_closed(t: NonlocalTriple | tuple[float, float, float]) -> float:
    """1 - cos^2(2a)cos^2(2b)cos^2(2c) - sin^2(2a)sin^2(2b)sin^2(2c).

    Normalized so local gates and SWAP give 0 and perfect entanglers give 1;
    symmetric under permutations and sign flips of the triple.
    """
    if isinstance(t, NonlocalTriple):
        a, b, c = t.as_tuple()
    else:
        a, b, c = t
    ca, cb, cc = np.cos(2 * a) ** 2, np.cos(2 * b) ** 2, np.cos(2 * c) ** 2
    sa, sb, sc = np.sin(2 * a) ** 2, np.sin(2 * b) ** 2, np.sin(2 * c) ** 2
    return float(1.0 - ca * cb * cc - sa * sb * sc)


# Haar-average linear entropy of a perfect entangler is 2/9; rescale so the
# estimator agrees with entangling_power_closed (validated in tests).
MC_RESCALE = 4.5
# Each sample holds about 320 bytes of draws and intermediates, so the cap
# bounds one estimate at about 320 MB.
MC_SAMPLE_CAP = 1_000_000


def entangling_power_mc(u: Mat4, samples: int, seed: int) -> float:
    """Monte-Carlo entangling power over Haar-random product states.

    Averages the linear entropy 1 - tr(rho_A^2) of U|psi1>|psi2> and rescales
    by 9/2.  Deterministic for a fixed seed: the stream is the first child
    of ``numpy.random.SeedSequence(seed)``.  TooLarge refuses more than
    MC_SAMPLE_CAP samples before any draw.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise BadSampleCount(f"samples must be a positive integer, got {samples!r}")
    if samples > MC_SAMPLE_CAP:
        raise TooLarge(f"{samples} Monte-Carlo samples is past the cap of {MC_SAMPLE_CAP}")
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise NonUnitaryInput("entangling_power_mc expects a unitary")

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    z1 = rng.normal(size=(samples, 2)) + 1j * rng.normal(size=(samples, 2))
    z2 = rng.normal(size=(samples, 2)) + 1j * rng.normal(size=(samples, 2))
    z1 /= np.linalg.norm(z1, axis=1, keepdims=True)
    z2 /= np.linalg.norm(z2, axis=1, keepdims=True)
    prod = np.einsum("si,sj->sij", z1, z2).reshape(samples, 4)
    out = prod @ u.T
    psi = out.reshape(samples, 2, 2)
    rho = np.einsum("sij,skj->sik", psi, psi.conj())
    purity = np.einsum("sik,ski->s", rho, rho).real
    return MC_RESCALE * float(np.sum(1.0 - purity)) / samples


def makhlin_invariants(u: Mat4) -> tuple[complex, float]:
    """Makhlin local invariants (G1, G2) computed in the magic basis.

    Two gates are locally equivalent iff both invariants agree.  The input is
    normalized to det = 1 internally; the fourth-root branch cancels in both
    invariants.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or not is_unitary(u):
        raise NonUnitaryInput("makhlin_invariants expects a 4x4 unitary")
    u_su = u * np.exp(-1j * cmath.phase(complex(np.linalg.det(u))) / 4.0)
    m = _MAGIC_DAG @ u_su @ MAGIC
    mm = m.T @ m
    t = complex(np.trace(mm))
    g1 = t * t / 16.0
    g2 = (t * t - complex(np.trace(mm @ mm))) / 4.0
    return g1, float(g2.real)

