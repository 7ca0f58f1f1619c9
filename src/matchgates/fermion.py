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

The traces of a stack of gates are one matrix product: for a d x d gate g
and k local Majoranas, the constant K_{(b,a,c,e),(u,v)} = (c_u)_bc (c_v)_ea
gives R_uv = Re[(conj(vec g) (x) vec g) K]_{(u,v)} / d.  A matchgate has
nonzero entries only in its parity blocks, 8 of 16 on a pair and the
diagonal of a one-qubit gate, so K keeps only the rows of those entries and
N pair gates take one (N, 64) x (64, 16) product.

``run_covariance`` works in the Heisenberg picture and on stacks: it takes
the circuit OP_CHUNK ops at a time in walk order, tests the chunk's gates
for parity and det A = det B with one ``classify_stack`` call (a one-qubit
gate as kron(g, I), a reversed pair conjugated by the index swap; unitarity
was checked when the ops were admitted), reads every block off one
conjugation product, and then folds them in order into the rows of
P = R_L ... R_1.
The per-gate work left is the O(n) update of the block's rows of P.  M is
formed once at the end, on the Majorana pairs the circuit touched.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import Classification, classify, classify_stack
from .circuits import Circuit, describe_op
from .errors import (
    BackendRefusal,
    BadSampleCount,
    BadTargets,
    NotMatchgate,
    TooLarge,
)
from .gates import I2, PAULIS, Mat2, Mat4, X, Y, Z, det2, extract_blocks, kron

# Probability below which a measurement outcome is treated as impossible.
PROB_FLOOR = 1e-12

# Bytes of conditioned covariances the sampler keeps alive at once, shared
# equally among the n levels of its prefix tree.
SAMPLER_BUDGET_BYTES = 32 * 2**20

# Ops that run_covariance checks and converts in one stacked call.  The
# stacked temporaries take about 2.5 KiB per op, 1 KiB of it the (N, 64)
# outer-product stack of the conjugation, so memory stays under 1 MiB above
# the circuit's own and M whatever its length.  Forming M on the touched
# Majoranas T at the end takes three more |T| x |T| matrices.
OP_CHUNK = 256

# Largest register the covariance backend accepts.  Past n of about 115 the
# sampler's pending branches hold 10-21 n^3 bytes, 0.17-0.35 GB at this cap.
QUBIT_CAP = 256


@dataclass
class CovarianceState:
    n: int
    m: np.ndarray

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


def _not_matchgate(g: Mat4, pp: bool) -> NotMatchgate:
    """The NotMatchgate refusal of a gate that failed the matchgate test;
    ``pp`` says whether it passed the parity half."""
    if not pp:
        return NotMatchgate("gate is not parity-preserving, hence not a matchgate")
    a, b = extract_blocks(g)
    return NotMatchgate(
        f"det(A)/det(B) = {det2(a) / det2(b):.6f} != 1: the gate's generator has a "
        "Z x Z component (a fermionic interaction), no quadratic expansion exists"
    )


def _require_matchgate(g: Mat4) -> Classification:
    """``classify(g)``, raising NotMatchgate unless g is a matchgate."""
    cls = classify(g)
    if not cls.is_matchgate:
        raise _not_matchgate(g, cls.is_pp)
    return cls


def matchgate_generator_coefficients(g: Mat4) -> dict[str, float]:
    """Coefficients of a matchgate's Hamiltonian on the six quadratic
    generators {XX, YY, XY, YX, ZI, IZ}, via per-block su(2) logarithms."""
    a, b = _require_matchgate(g).blocks
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


# Row-major entries of a gate that can be nonzero in a matchgate: the eight
# of G(A, B) on a pair, the diagonal of a one-qubit gate.
_PAIR_ENTRIES = np.array([0, 3, 5, 6, 9, 10, 12, 15])
_QUBIT_ENTRIES = np.array([0, 3])


class _Kernel(NamedTuple):
    """Entries of vec g that a conjugation reads, and its (e^2, k^2) constant."""

    entries: np.ndarray
    matrix: np.ndarray


def _trace_kernel(majoranas: np.ndarray, entries: np.ndarray) -> _Kernel:
    """K with rows (b, a, c, e) and columns (u, v): (c_u)_bc (c_v)_ea / d, so
    that tr(g^dag c_u g c_v) / d = (conj(vec g) (x) vec g) . K[:, (u, v)].
    Only the rows whose entries (b, a) and (c, e) are both in ``entries``
    are kept."""
    k, d = len(majoranas), majoranas.shape[-1]
    full = np.einsum("ubc,vea->baceuv", majoranas, majoranas).reshape(d * d, d * d, k * k) / d
    return _Kernel(entries, full[np.ix_(entries, entries)].reshape(len(entries) ** 2, k * k))


_PAIR_KERNEL = _trace_kernel(_PAIR_MAJORANAS, _PAIR_ENTRIES)
_QUBIT_KERNEL = _trace_kernel(_QUBIT_MAJORANAS, _QUBIT_ENTRIES)


def _conjugation_block(g: np.ndarray, kernel: _Kernel) -> np.ndarray:
    """R with g^dag c_u g = sum_v R_uv c_v over the Majoranas of ``kernel``
    (``_PAIR_KERNEL`` or ``_QUBIT_KERNEL``), for each g of an (N, d, d)
    stack of matchgates: R_uv = Re tr(g^dag c_u g c_v) / d, shape (N, k, k).
    Only the kernel's entries of g are read; the others are taken as 0."""
    count, d = len(g), g.shape[-1]
    k = math.isqrt(kernel.matrix.shape[1])
    flat = g.reshape(count, d * d)[:, kernel.entries]
    outer = (flat.conj()[:, :, None] * flat[:, None, :]).reshape(count, len(kernel.matrix))
    return (outer @ kernel.matrix).real.reshape(count, k, k)


def matchgate_to_rotation(g: Mat4, site: int, n: int) -> MajoranaRotation:
    """SO(4) Majorana rotation of a matchgate acting on qubits (site, site+1)."""
    if not 0 <= site < n - 1:
        raise BadTargets(f"site {site} has no right neighbor in n={n}")
    _require_matchgate(g)
    block = _conjugation_block(np.asarray(g, dtype=complex)[None], _PAIR_KERNEL)[0]
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


def _chunk_blocks(chunk: list) -> tuple[list, list, np.ndarray]:
    """(sites, blocks, qubits) of the ops in ``chunk``, items (entry,
    position, ops, count) in walk order: each op's lowest qubit and Majorana
    block, and the qubits the chunk acts on.  All ops are checked in one
    stacked call; the first that fails is refused, named by its entry and
    position."""
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
    pp, matchgate = classify_stack(checks)
    for k in np.flatnonzero(~(nearest & matchgate)):
        # The first failure is refused, in the words of the per-op check.
        entry, position, body, count = chunk[k]
        name = describe_op(body, count, entry, position)
        if not nearest[k]:
            raise BackendRefusal(f"{name} is not nearest-neighbor")
        exc = _not_matchgate(checks[k], pp[k])
        raise BackendRefusal(f"{name} is not a matchgate: {exc}") from exc
    single_blocks = iter(_conjugation_block(singles, _QUBIT_KERNEL))
    pair_blocks = iter(_conjugation_block(pairs, _PAIR_KERNEL))
    blocks = [next(single_blocks if one else pair_blocks) for one in single.tolist()]
    return np.minimum(first, last).tolist(), blocks, np.concatenate([first, last])


def run_covariance(circuit: Circuit, initial: int | str = 0) -> CovarianceState:
    """Covariance after the circuit acts on a basis state.

    Ops are checked and converted to Majorana blocks OP_CHUNK at a time, in
    walk order, so the first op that fails is the one refused and memory
    stays bounded whatever the circuit's length.  Every op is checked once;
    a repetition group is applied as one folded rotation on the Majorana
    span of its body.

    The blocks accumulate as rows of the Heisenberg rotation P = R_L ... R_1
    (an op on Majorana rows ``sl`` does P[sl] <- block P[sl]), and M = P M0
    P^T is formed once at the end on the touched Majorana pairs T only.  Rows
    of P outside T are identity rows, rows in T vanish outside T, and M0 is
    block-diagonal in qubit pairs, so M outside T x T stays M0.  P's rows in
    T are therefore kept in M's own rows, each set to an identity row when
    its qubit is first touched; the other rows of M never change.
    """
    state = init_covariance(circuit.n, initial)
    m = state.m
    signs = m[0::2, 1::2].diagonal().copy()  # M0[2k, 2k+1] = <Z_k>
    touched = np.zeros(circuit.n, dtype=bool)
    items = (
        (i, j, ops, count)
        for i, (ops, count) in enumerate(circuit.walk())
        for j in range(len(ops))
    )
    while chunk := list(itertools.islice(items, OP_CHUNK)):
        sites, blocks, qubits = _chunk_blocks(chunk)
        fresh = qubits[~touched[qubits]]
        rows = np.concatenate([2 * fresh, 2 * fresh + 1])
        m[rows] = 0.0
        m[rows, rows] = 1.0
        touched[fresh] = True
        for (_, j, ops, count), site, block in zip(chunk, sites, blocks):
            if count == 1:
                sl = slice(2 * site, 2 * site + len(block))
                m[sl] = block @ m[sl]
                continue
            if j == 0:
                lo = min(min(op.targets) for op in ops)
                group = np.eye(2 * (max(max(op.targets) for op in ops) - lo + 1))
            sl = slice(2 * (site - lo), 2 * (site - lo) + len(block))
            group[sl, :] = block @ group[sl, :]
            if j == len(ops) - 1:
                span = slice(2 * lo, 2 * lo + len(group))
                m[span] = np.linalg.matrix_power(group, count) @ m[span]
    # M_TT = P_TT M0_TT P_TT^T, with P_TT M0_TT taken pair by pair: M0's
    # block on qubit k is [[0, s_k], [-s_k, 0]].
    t = np.flatnonzero(np.repeat(touched, 2))
    p, s = m[np.ix_(t, t)], signs[touched]
    pm = np.empty_like(p)
    pm[:, 1::2] = p[:, 0::2] * s
    pm[:, 0::2] = -p[:, 1::2] * s
    m[np.ix_(t, t)] = pm @ p.T
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
