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

R is read off by conjugation.  The Jordan-Wigner string in front of the
pair commutes with G, so only the pair's local Majoranas XI, YI, ZX, ZY
enter: R_{uv} = Re tr(G^dag c_u G c_v) / 4.  A one-qubit Z rotation gives
the 2x2 block of its own qubit's (X, Y) the same way.  Nonmatchgate
parity-preserving gates have a Z x Z term in their log (quartic in fermion
operators) and map Majoranas out of their span, so they are refused.

``run_covariance`` works on stacks: it takes the circuit OP_CHUNK ops at a
time in walk order, checks the chunk's gates with one ``classify_stack``
call (a one-qubit gate as kron(g, I), a reversed pair conjugated by the
index swap), reads every block off one batched conjugation, and then folds
and applies them in order.  The per-gate work left is the O(n) update of
the block's rows and columns of M.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import Classification, classify, classify_stack
from .circuits import Circuit, describe_op
from .errors import (
    BackendRefusal,
    BadSampleCount,
    BadTargets,
    DimensionMismatch,
    NonUnitaryInput,
    NotMatchgate,
    TooLarge,
)
from .gates import DEFAULT_TOL, I2, PAULIS, Mat2, Mat4, ToleranceConfig, X, Y, Z, det2, kron

# Probability below which a measurement outcome is treated as impossible.
PROB_FLOOR = 1e-12

# Bytes of conditioned covariances the sampler keeps alive at once, shared
# equally among the n levels of its prefix tree.
SAMPLER_BUDGET_BYTES = 32 * 2**20

# Ops that run_covariance checks and converts in one stacked call.  The
# stacked temporaries take about 3 KiB per op, so memory stays near 0.5 MiB
# above the circuit's own whatever its length.
OP_CHUNK = 128

# Largest register the covariance backend accepts.  Past n of about 115 the
# sampler's pending branches hold 10-21 n^3 bytes, 0.17-0.35 GB at this cap.
QUBIT_CAP = 256


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


@dataclass(frozen=True)
class MajoranaRotation:
    """SO(2n) action on Majorana modes; ``block`` is the square piece
    starting at Majorana index 2*site (4x4 for a two-qubit gate on qubits
    (site, site+1), 2x2 for a one-qubit gate on qubit site)."""

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


def _require_matchgate(g: Mat4, tol: ToleranceConfig) -> Classification:
    """``classify(g)``, raising NotMatchgate unless g is a matchgate."""
    cls = classify(g, tol)
    if not cls.is_pp:
        raise NotMatchgate("gate is not parity-preserving, hence not a matchgate")
    if not cls.is_matchgate:
        raise NotMatchgate(
            f"det(A)/det(B) = {cls.det_ratio:.6f} != 1: the gate's generator has a "
            "Z x Z component (a fermionic interaction), no quadratic expansion exists"
        )
    return cls


def matchgate_generator_coefficients(g: Mat4, tol: ToleranceConfig = DEFAULT_TOL) -> dict[str, float]:
    """Coefficients of a matchgate's Hamiltonian on the six quadratic
    generators {XX, YY, XY, YX, ZI, IZ}, via per-block su(2) logarithms."""
    a, b = _require_matchgate(g, tol).blocks
    # One global phase for both blocks: halving each determinant's phase
    # alone can pick opposite branches at det = -1, an error of Z x Z.
    pa = cmath.phase(det2(a)) / 2.0
    pb = pa + cmath.phase(det2(b) / det2(a)) / 2.0
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


# Majoranas local to a qubit pair (XI, YI, ZX, ZY) and to one qubit (X, Y).
_PAIR_MAJORANAS = np.array([kron(X, I2), kron(Y, I2), kron(Z, X), kron(Z, Y)])
_QUBIT_MAJORANAS = np.array([X, Y])

# Basis order that conjugates a gate on the reversed pair (s+1, s) by the
# index swap, putting it on (s, s+1).
_SWAP_ORDER = [0, 2, 1, 3]


def _conjugation_block(g: np.ndarray, majoranas: np.ndarray) -> np.ndarray:
    """R with g^dag c_u g = sum_v R_uv c_v over the local ``majoranas``, for
    each g of an (N, d, d) stack: R_uv = Re tr(g^dag c_u g c_v) / d, shape
    (N, len(majoranas), len(majoranas))."""
    heis = np.conj(np.swapaxes(g, -1, -2))[:, None] @ majoranas @ g[:, None]
    return np.einsum("kuij,vji->kuv", heis, majoranas).real / g.shape[-1]


def matchgate_to_rotation(
    g: Mat4, site: int, n: int, tol: ToleranceConfig = DEFAULT_TOL
) -> MajoranaRotation:
    """SO(4) Majorana rotation of a matchgate acting on qubits (site, site+1)."""
    if not 0 <= site < n - 1:
        raise BadTargets(f"site {site} has no right neighbor in n={n}")
    _require_matchgate(g, tol)
    block = _conjugation_block(np.asarray(g, dtype=complex)[None], _PAIR_MAJORANAS)[0]
    return MajoranaRotation(n=n, site=site, block=block)


def init_covariance(n: int, bits: int | str = 0) -> CovarianceState:
    """Covariance matrix of a computational basis state."""
    if n < 1 or n > QUBIT_CAP:
        raise TooLarge(f"n={n} outside supported range 1..{QUBIT_CAP}")
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


def _rotate(m: np.ndarray, site: int, block: np.ndarray) -> None:
    """In place M -> R M R^T for R = ``block`` at Majorana index 2*site; only
    the rows and columns of the block change."""
    sl = slice(2 * site, 2 * site + len(block))
    m[sl, :] = block @ m[sl, :]
    m[:, sl] = m[:, sl] @ block.T


def evolve(state: CovarianceState, rot: MajoranaRotation) -> CovarianceState:
    """M -> R M R^T; local O(n) update using the block."""
    if rot.n != state.n:
        raise DimensionMismatch(f"rotation is for n={rot.n}, state has n={state.n}")
    m = state.m.copy()
    _rotate(m, rot.site, rot.block)
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


def _chunk_blocks(chunk: list, tol: ToleranceConfig) -> list[tuple[int, np.ndarray]]:
    """(site, block) of each op in ``chunk``, items (entry, position, ops,
    count) in walk order.  All ops are checked in one stacked call; the first
    that fails is refused, named by its entry and position."""
    ops = [body[position] for _, position, body, _ in chunk]
    single = np.array([len(op.targets) == 1 for op in ops], dtype=bool)
    first = np.array([op.targets[0] for op in ops])
    last = np.array([op.targets[-1] for op in ops])
    reverse = ~single & (first == last + 1)
    nearest = single | (last == first + 1) | reverse
    singles = np.array([op.gate for op in ops if len(op.targets) == 1], dtype=complex)
    pairs = np.array([op.gate for op in ops if len(op.targets) == 2], dtype=complex)
    singles, pairs = singles.reshape(-1, 2, 2), pairs.reshape(-1, 4, 4)
    flip = reverse[~single]
    pairs[flip] = pairs[flip][:, _SWAP_ORDER][:, :, _SWAP_ORDER]
    # A one-qubit op is checked as kron(g, I); an op that is not
    # nearest-neighbour is refused before its gate is looked at.
    checks = np.empty((len(ops), 4, 4), dtype=complex)
    checks[single] = np.einsum("kab,ij->kaibj", singles, I2).reshape(-1, 4, 4)
    checks[~single] = pairs
    checks[~nearest] = np.eye(4)
    for k in np.flatnonzero(~(nearest & classify_stack(checks, tol)[2])):
        # The per-op check on the first failure, for its words.
        entry, position, body, count = chunk[k]
        name = describe_op(body, count, entry, position)
        if not nearest[k]:
            raise BackendRefusal(f"{name} is not nearest-neighbor")
        try:
            _require_matchgate(checks[k], tol)
        except NonUnitaryInput as exc:
            raise NonUnitaryInput(f"{name} is not unitary: {exc}") from exc
        except NotMatchgate as exc:
            raise BackendRefusal(f"{name} is not a matchgate: {exc}") from exc
    single_blocks = iter(_conjugation_block(singles, _QUBIT_MAJORANAS))
    pair_blocks = iter(_conjugation_block(pairs, _PAIR_MAJORANAS))
    blocks = [next(single_blocks if one else pair_blocks) for one in single.tolist()]
    return list(zip(np.minimum(first, last).tolist(), blocks))


def run_covariance(
    circuit: Circuit,
    initial: int | str = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CovarianceState:
    """Covariance after the circuit acts on a basis state.

    Ops are checked and converted to Majorana blocks OP_CHUNK at a time, in
    walk order, so the first op that fails is the one refused and memory
    stays bounded whatever the circuit's length.  Every op is checked once;
    a repetition group is applied as one folded rotation on the Majorana
    span of its body.
    """
    state = init_covariance(circuit.n, initial)
    items = (
        (i, j, ops, count)
        for i, (ops, count) in enumerate(circuit.walk())
        for j in range(len(ops))
    )
    while chunk := list(itertools.islice(items, OP_CHUNK)):
        for (_, j, ops, count), (site, block) in zip(chunk, _chunk_blocks(chunk, tol)):
            if count == 1:
                _rotate(state.m, site, block)
                continue
            if j == 0:
                lo = min(min(op.targets) for op in ops)
                group = np.eye(2 * (max(max(op.targets) for op in ops) - lo + 1))
            sl = slice(2 * (site - lo), 2 * (site - lo) + len(block))
            group[sl, :] = block @ group[sl, :]
            if j == len(ops) - 1:
                _rotate(state.m, lo, np.linalg.matrix_power(group, count))
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
