"""Polynomial-time simulation of nearest-neighbor matchgate circuits.

Works in the Majorana covariance picture.  Conventions (fixed here because
the literature varies in signs):

* Majorana operators, 0-indexed:  c_{2k} = (prod_{j<k} Z_j) X_k  and
  c_{2k+1} = (prod_{j<k} Z_j) Y_k.
* Covariance matrix  M_{uv} = -i <[c_u, c_v]> / 2, real antisymmetric, so
  M_{2k,2k+1} = <Z_k> and p(bit_k = 0) = (1 + M_{2k,2k+1}) / 2.
* A matchgate G on qubits (s, s+1) acts by  G^dag c_u G = sum_v R_{uv} c_v
  with R in SO(4) embedded at Majorana indices 2s..2s+3, and the state
  updates as  M -> R M R^T.

R is obtained from the quadratic generator expansion of G: with
G = e^{i delta} exp(i H),  H = sum_{u<v} alpha_{uv} (-i c_u c_v),  one has
R = exp(2 alpha).  Nonmatchgate parity-preserving gates have a Z x Z term in
their log (an interaction quartic in fermion operators), so they are refused.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .analysis import classify
from .circuits import Circuit
from .errors import (
    BackendRefusal,
    BadSampleCount,
    BadTargets,
    DimensionMismatch,
    NonUnitaryInput,
    NotMatchgate,
)
from .gates import DEFAULT_TOL, I2, PAULIS, Mat2, Mat4, ToleranceConfig, det2, kron

# Probability below which a measurement outcome is treated as impossible.
PROB_FLOOR = 1e-12

# Bytes of conditioned covariances the sampler keeps alive at once, shared
# equally among the n levels of its prefix tree.
SAMPLER_BUDGET_BYTES = 32 * 2**20


@dataclass
class CovarianceState:
    n: int
    m: np.ndarray

    def copy(self) -> "CovarianceState":
        return CovarianceState(self.n, self.m.copy())

    def expectation_z(self, k: int) -> float:
        if not 0 <= k < self.n:
            raise BadTargets(f"qubit {k} out of range")
        return float(self.m[2 * k, 2 * k + 1])

    def antisymmetry_defect(self) -> float:
        return float(np.max(np.abs(self.m + self.m.T)))

    def purity_defect(self) -> float:
        return float(np.max(np.abs(self.m @ self.m.T - np.eye(2 * self.n))))


@dataclass(frozen=True)
class MajoranaRotation:
    """SO(2n) action on Majorana modes; ``block`` is the 4x4 piece at
    Majorana indices 2*site .. 2*site+3."""

    n: int
    site: int
    block: np.ndarray


def _su2_log(m: Mat2) -> Mat2:
    """Hermitian h with exp(i h) = m for m in SU(2); h = t (n . sigma),
    t in [0, pi]."""
    cos_t = ((m[0, 0] + m[1, 1]) / 2.0).real
    skew = (m - m.conj().T) / 2j
    s = float(np.linalg.norm(skew, "fro")) / math.sqrt(2.0)
    if s < 1e-12:
        if cos_t > 0:
            return np.zeros((2, 2), dtype=complex)
        return math.pi * PAULIS["Z"]  # m = -I; any axis works, pin Z
    t = math.atan2(s, min(max(cos_t, -1.0), 1.0))
    return (t / s) * skew


def _pauli_coeffs(h: Mat2) -> tuple[float, float, float]:
    return (
        float((np.trace(PAULIS["X"] @ h) / 2.0).real),
        float((np.trace(PAULIS["Y"] @ h) / 2.0).real),
        float((np.trace(PAULIS["Z"] @ h) / 2.0).real),
    )


def matchgate_generator_coefficients(g: Mat4, tol: ToleranceConfig = DEFAULT_TOL) -> dict[str, float]:
    """Coefficients of a matchgate's Hamiltonian on the six quadratic
    generators {XX, YY, XY, YX, ZI, IZ}, via per-block su(2) logarithms."""
    cls = classify(g, tol)
    if not cls.is_pp:
        raise NotMatchgate("gate is not parity-preserving, hence not a matchgate")
    if not cls.is_matchgate:
        raise NotMatchgate(
            f"det(A)/det(B) = {cls.det_ratio:.6f} != 1: the gate's generator has a "
            "Z x Z component (a fermionic interaction), no quadratic expansion exists"
        )
    a, b = cls.blocks
    pa = cmath.phase(det2(a)) / 2.0
    pb = cmath.phase(det2(b)) / 2.0
    h_a = _su2_log(a * np.exp(-1j * pa))
    h_b = _su2_log(b * np.exp(-1j * pb))
    ax, ay, az = _pauli_coeffs(h_a)
    bx, by, bz = _pauli_coeffs(h_b)
    return {
        "XX": (ax + bx) / 2.0,
        "YY": (bx - ax) / 2.0,
        "XY": (ay - by) / 2.0,
        "YX": (ay + by) / 2.0,
        "ZI": (az + bz) / 2.0,
        "IZ": (az - bz) / 2.0,
    }


def matchgate_to_rotation(
    g: Mat4, site: int, n: int, tol: ToleranceConfig = DEFAULT_TOL
) -> MajoranaRotation:
    """SO(4) Majorana rotation of a matchgate acting on qubits (site, site+1)."""
    if not 0 <= site < n - 1:
        raise BadTargets(f"site {site} has no right neighbor in n={n}")
    coeff = matchgate_generator_coefficients(g, tol)
    alpha = np.zeros((4, 4))
    alpha[0, 1] = coeff["ZI"]
    alpha[2, 3] = coeff["IZ"]
    alpha[1, 2] = coeff["XX"]
    alpha[0, 3] = -coeff["YY"]
    alpha[1, 3] = coeff["XY"]
    alpha[0, 2] = -coeff["YX"]
    alpha -= alpha.T
    block = expm(2.0 * alpha)
    return MajoranaRotation(n=n, site=site, block=block)


def init_covariance(n: int, bits: int | str = 0) -> CovarianceState:
    """Covariance matrix of a computational basis state."""
    if isinstance(bits, str):
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise BadTargets(f"bad basis label {bits!r} for n={n}")
        values = [int(ch) for ch in bits]
    else:
        values = [(int(bits) >> (n - 1 - k)) & 1 for k in range(n)]
    m = np.zeros((2 * n, 2 * n))
    for k, bit in enumerate(values):
        sign = 1.0 - 2.0 * bit
        m[2 * k, 2 * k + 1] = sign
        m[2 * k + 1, 2 * k] = -sign
    return CovarianceState(n, m)


def _rotate(m: np.ndarray, rot: MajoranaRotation) -> None:
    """In place M -> R M R^T; only the four rows and columns of the block change."""
    sl = slice(2 * rot.site, 2 * rot.site + 4)
    m[sl, :] = rot.block @ m[sl, :]
    m[:, sl] = m[:, sl] @ rot.block.T


def evolve(state: CovarianceState, rot: MajoranaRotation) -> CovarianceState:
    """M -> R M R^T; local O(n) update using the 4x4 block."""
    if rot.n != state.n:
        raise DimensionMismatch(f"rotation is for n={rot.n}, state has n={state.n}")
    m = state.m.copy()
    _rotate(m, rot)
    return CovarianceState(state.n, m)


def _condition(m: np.ndarray, parent: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Condition covariances on the Z outcome of their first qubit.

    ``m`` stacks covariance matrices, shape (g, d, d).  Child i is
    ``m[parent[i]]`` after outcome ``sign[i]`` (+1 for 0, -1 for 1) on the
    Majorana pair (0, 1):

        M -> M + sign / (2 p) (M[:, 1] M[:, 0]^T - M[:, 0] M[:, 1]^T)

    with p the outcome's probability, floored at PROB_FLOOR.  After the update
    the pair's rows and columns are zero apart from the (0, 1) entry, so only
    the block of the other modes is returned, shape (len(parent), d-2, d-2).
    """
    p_out = np.maximum((1.0 + sign * m[parent, 0, 1]) / 2.0, PROB_FLOOR)
    out = m[parent, 2:, 2:]
    col_u = m[parent, 2:, 0]
    col_v = m[parent, 2:, 1] * (sign / (2.0 * p_out))[:, None]
    # The rank-2 update as one (d-2, 2) x (2, d-2) product per child.
    out += np.stack([col_v, -col_u], axis=2) @ np.stack([col_u, col_v], axis=1)
    return out


def measure_z(
    state: CovarianceState,
    k: int,
    seed_or_rng: int | np.random.Generator,
    force_outcome: int | None = None,
) -> tuple[int, CovarianceState]:
    """Measure Z_k; returns (outcome bit, post-measurement state).

    ``force_outcome`` post-selects (used by exact-distribution oracles); it
    is an error to force an outcome of probability below PROB_FLOOR.
    """
    if not 0 <= k < state.n:
        raise BadTargets(f"qubit {k} out of range")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    u, v = 2 * k, 2 * k + 1
    m = state.m
    p0 = min(max((1.0 + m[u, v]) / 2.0, 0.0), 1.0)
    if force_outcome is None:
        if p0 >= 1.0 - PROB_FLOOR:
            outcome = 0
        elif p0 <= PROB_FLOOR:
            outcome = 1
        else:
            outcome = 0 if rng.random() < p0 else 1
    else:
        outcome = int(force_outcome)
    sign = 1.0 - 2.0 * outcome
    if (1.0 + sign * m[u, v]) / 2.0 < PROB_FLOOR:
        raise BadSampleCount(f"outcome {outcome} on qubit {k} has probability ~0")

    # Move the measured pair to the front, condition, and put the rest back.
    rest = np.r_[0:u, v + 1 : 2 * state.n]
    order = np.r_[u, v, rest]
    new = np.zeros_like(m)
    new[np.ix_(rest, rest)] = _condition(
        m[np.ix_(order, order)][None], np.zeros(1, dtype=np.intp), np.array([sign])
    )[0]
    new[u, v] = sign
    new[v, u] = -sign
    return outcome, CovarianceState(state.n, new)


def measurement_probability(state: CovarianceState, k: int, outcome: int) -> float:
    mz = state.m[2 * k, 2 * k + 1]
    return float((1.0 + (1.0 - 2.0 * outcome) * mz) / 2.0)


def _op_rotation(op, n: int, tol: ToleranceConfig, index: int) -> MajoranaRotation:
    """Rotation for a circuit op, embedding single-qubit gates into a
    nearest-neighbor pair; refusals name the op index."""
    gate, targets = op.gate, op.targets
    if len(targets) == 1:
        (q,) = targets
        if q < n - 1:
            gate, targets = kron(gate, I2), (q, q + 1)
        else:
            gate, targets = kron(I2, gate), (q - 1, q)
    if targets[1] != targets[0] + 1:
        if targets[0] == targets[1] + 1:
            # Reversed pair: conjugate by the index swap to normal order.
            swap = np.array(
                [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
            )
            gate, targets = swap @ gate @ swap, (targets[1], targets[0])
        else:
            raise BackendRefusal(
                f"op {index} ({op.name or 'gate'} on {op.targets}) is not nearest-neighbor"
            )
    try:
        return matchgate_to_rotation(gate, targets[0], n, tol)
    except NonUnitaryInput as exc:
        raise NonUnitaryInput(
            f"op {index} ({op.name or 'gate'} on {op.targets}) is not unitary: {exc}"
        ) from exc
    except NotMatchgate as exc:
        raise BackendRefusal(
            f"op {index} ({op.name or 'gate'} on {op.targets}) is not a matchgate: {exc}"
        ) from exc


def circuit_rotations(
    circuit: Circuit, tol: ToleranceConfig = DEFAULT_TOL
) -> list[MajoranaRotation]:
    """Validate a matchgate circuit and return its per-op Majorana rotations."""
    return [
        _op_rotation(op, circuit.n, tol, idx) for idx, op in enumerate(circuit.flat())
    ]


def run_covariance(
    circuit: Circuit,
    initial: int | str = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CovarianceState:
    state = init_covariance(circuit.n, initial)
    for idx, op in enumerate(circuit.flat()):
        _rotate(state.m, _op_rotation(op, circuit.n, tol, idx))
    return state


def sample_covariance(state: CovarianceState, shots: int, seed: int) -> dict[int, int]:
    """Full-register measurement histogram, qubits read left to right.

    Prefix-tree sampling: qubit k is measured after qubits 0..k-1, and all
    shots that share an outcome prefix share one conditioned covariance.  At
    qubit k each prefix's shot count splits binomially with
    p0 = (1 + M[2k, 2k+1]) / 2 of that prefix's covariance.  By the chain
    rule this is an exact multinomial draw from the joint distribution.  A
    prefix of length k keeps only the covariance of the 2(n-k) modes not yet
    measured.  Outcomes with probability within PROB_FLOOR of 0 or 1 are
    clamped to certain.

    Prefixes are expanded depth first, in batches sized so that each level
    of the tree holds at most SAMPLER_BUDGET_BYTES / n bytes of covariances
    (and at least one parent's children).  Live memory is therefore about
    SAMPLER_BUDGET_BYTES plus one batch of temporaries, or O(n^3) bytes if
    that is larger, whatever ``shots`` is.  Time is O(n^2) per distinct
    prefix per level, at most O(shots n^3).  Keys are Python ints, exact
    for any n.
    """
    if not isinstance(shots, (int, np.integer)) or not 1 <= shots < 2**63:
        raise BadSampleCount(f"shots must be an integer in [1, 2**63), got {shots!r}")
    n = state.n
    rng = np.random.default_rng(seed)
    level_budget = SAMPLER_BUDGET_BYTES // n
    hist: dict[int, int] = {}
    # Batches of prefixes of length k: (k, covariances of modes 2k.., shot
    # counts, prefix bits).  Bit n-1-k of a key, qubit k's outcome, is bit
    # (n-1-k) % 64 of word (n-1-k) // 64.
    words = np.zeros((1, (n + 63) // 64), dtype=np.uint64)
    stack = [(0, state.m[None], np.array([int(shots)]), words)]
    while stack:
        k, m, counts, prefixes = stack.pop()
        if k == n:
            for row, count in zip(prefixes.tolist(), counts.tolist()):
                hist[sum(w << (64 * j) for j, w in enumerate(row))] = count
            continue
        child_dim = 2 * (n - k - 1)
        take = max(1, level_budget // (2 * 8 * max(child_dim, 1) ** 2))
        if len(counts) > take:
            stack.append((k, m[take:], counts[take:], prefixes[take:]))
            m, counts, prefixes = m[:take], counts[:take], prefixes[:take]
        p0 = np.clip((1.0 + m[:, 0, 1]) / 2.0, 0.0, 1.0)
        p0[p0 >= 1.0 - PROB_FLOOR] = 1.0
        p0[p0 <= PROB_FLOOR] = 0.0
        zeros = rng.binomial(counts, p0)
        # Children interleaved as (prefix 0, outcome 0), (prefix 0, outcome 1), ...
        child_counts = np.stack([zeros, counts - zeros], axis=1).ravel()
        live = np.flatnonzero(child_counts)
        parent, outcome = np.divmod(live, 2)
        child_prefixes = prefixes[parent]
        word, bit = divmod(n - 1 - k, 64)
        child_prefixes[:, word] |= outcome.astype(np.uint64) << np.uint64(bit)
        stack.append(
            (k + 1, _condition(m, parent, 1.0 - 2.0 * outcome), child_counts[live], child_prefixes)
        )
    return hist
