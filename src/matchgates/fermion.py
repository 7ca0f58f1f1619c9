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
enter: R_{uv} = Re tr(G^dag c_u G c_v) / 4.  A one-qubit Z rotation g is
read as kron(g, I): the top-left 2x2 of that block is g's on its own
qubit's (X, Y), and the qubit need not have a right neighbour.  Nonmatchgate
parity-preserving gates have a Z x Z term in their log (quartic in fermion
operators) and map Majoranas out of their span, so they are refused.

The traces of a stack of gates are one matrix product: for a 4 x 4 gate g,
the constant K_{(b,a,c,e),(u,v)} = (c_u)_bc (c_v)_ea / 4 gives
R_uv = Re[(conj(vec g) (x) vec g) K]_{(u,v)}.  A matchgate has nonzero
entries only in its parity blocks, 8 of 16, so K keeps only the rows of
those entries and N gates take one (N, 64) x (64, 16) product.

``run_covariance`` works in the Heisenberg picture and on the circuit's
columns (see :mod:`matchgates.circuits`): it takes OP_CHUNK rows at a time
in order, gathers their gates from the gate stacks, embeds the
one-qubit ones as kron(g, I) and conjugates reversed pairs by the index
swap, all stacked, tests them for parity and det A = det B with one
``classify_stack`` call (unitarity was checked when the ops were admitted),
reads every block off one conjugation product, and then folds them in
order into the rows of P = R_L ... R_1.
The per-gate work left is the O(n) update of the block's rows of P.  M is
formed once at the end, on the Majorana pairs the circuit touched.

``sample_covariance`` measures the qubits in order, each outcome a rank-2
update of M (Terhal and DiVincenzo, PRA 65, 032325 (2002)), with all shots
that share an outcome prefix sharing one conditioned covariance.  Each
prefix keeps only a window of modes: those that M's exact nonzero pattern
couples to a mode measured so far.  A depth-D circuit's M vanishes beyond
about 4D modes of the diagonal, so the window is that light cone's width,
not the register's; on a dense M it is the whole unmeasured register.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analysis import Classification, classify, classify_stack
from .circuits import Circuit, Columns, basis_index, check_shots
from .errors import (
    BackendRefusal,
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

# Largest register the covariance backend accepts.  On a dense covariance,
# past n of about 115 the sampler's pending branches hold 10-21 n^3 bytes,
# 0.17-0.35 GB at this cap; on a banded one, O(n w^2) bytes for a light cone
# w modes wide.
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


# Majoranas local to a qubit pair: XI, YI, ZX, ZY.
_PAIR_MAJORANAS = np.array([kron(X, I2), kron(Y, I2), kron(Z, X), kron(Z, Y)])

# Basis order that conjugates a gate on the reversed pair (s+1, s) by the
# index swap, putting it on (s, s+1).
_SWAP_ORDER = [0, 2, 1, 3]


# Row-major entries of a pair gate that can be nonzero in a matchgate G(A, B).
_PAIR_ENTRIES = np.array([0, 3, 5, 6, 9, 10, 12, 15])


def _trace_kernel(majoranas: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """K with rows (b, a, c, e) and columns (u, v): (c_u)_bc (c_v)_ea / d, so
    that tr(g^dag c_u g c_v) / d = (conj(vec g) (x) vec g) . K[:, (u, v)].
    Only the rows whose entries (b, a) and (c, e) are both in ``entries``
    are kept."""
    k, d = len(majoranas), majoranas.shape[-1]
    full = np.einsum("ubc,vea->baceuv", majoranas, majoranas).reshape(d * d, d * d, k * k) / d
    return full[np.ix_(entries, entries)].reshape(len(entries) ** 2, k * k)


_PAIR_KERNEL = _trace_kernel(_PAIR_MAJORANAS, _PAIR_ENTRIES)


def _conjugation_block(g: np.ndarray) -> np.ndarray:
    """R with g^dag c_u g = sum_v R_uv c_v over the pair's Majoranas, for
    each g of an (N, 4, 4) stack of matchgates: R_uv = Re tr(g^dag c_u g
    c_v) / 4, shape (N, 4, 4).  Only the parity-block entries of g are read;
    the others are taken as 0.  For g = kron(h, I) the top-left 2 x 2 is the
    block of the one-qubit h on its own (X, Y)."""
    flat = g.reshape(len(g), 16)[:, _PAIR_ENTRIES]
    outer = (flat.conj()[:, :, None] * flat[:, None, :]).reshape(len(g), len(_PAIR_KERNEL))
    return (outer @ _PAIR_KERNEL).real.reshape(len(g), 4, 4)


def matchgate_to_rotation(g: Mat4, site: int, n: int) -> MajoranaRotation:
    """SO(4) Majorana rotation of a matchgate acting on qubits (site, site+1)."""
    if not 0 <= site < n - 1:
        raise BadTargets(f"site {site} has no right neighbor in n={n}")
    _require_matchgate(g)
    block = _conjugation_block(np.asarray(g, dtype=complex)[None])[0]
    return MajoranaRotation(n=n, site=site, block=block)


def init_covariance(n: int, bits: int | str = 0) -> CovarianceState:
    """Covariance matrix of a computational basis state."""
    if n < 1 or n > QUBIT_CAP:
        raise TooLarge(f"n={n} outside supported range 1..{QUBIT_CAP}")
    index = basis_index(n, bits)
    m = np.zeros((2 * n, 2 * n))
    for k in range(n):
        sign = 1.0 - 2.0 * ((index >> (n - 1 - k)) & 1)
        m[2 * k, 2 * k + 1] = sign
        m[2 * k + 1, 2 * k] = -sign
    return CovarianceState(n, m)


def _condition(m: np.ndarray, parent: np.ndarray, sign: np.ndarray, out: np.ndarray) -> None:
    """Condition covariances on the Z outcome of their first qubit.

    ``m`` stacks covariance matrices, shape (g, d, d).  Child i is
    ``m[parent[i]]`` after outcome ``sign[i]`` (+1 for 0, -1 for 1) on the
    Majorana pair (0, 1):

        M -> M + sign / (2 p) (M[:, 1] M[:, 0]^T - M[:, 0] M[:, 1]^T)

    with p the outcome's probability, floored at PROB_FLOOR.  After the update
    the pair's rows and columns are zero apart from the (0, 1) entry, so only
    the block of the other modes is written, into ``out`` of shape
    (len(parent), d-2, d-2).
    """
    p_out = np.maximum((1.0 + sign * m[parent, 0, 1]) / 2.0, PROB_FLOOR)
    col_u = m[parent, 2:, 0]
    col_v = m[parent, 2:, 1] * (sign / (2.0 * p_out))[:, None]
    out[...] = m[parent, 2:, 2:]
    # The rank-2 update as one (d-2, 2) x (2, d-2) product per child.
    out += np.stack([col_v, -col_u], axis=2) @ np.stack([col_u, col_v], axis=1)


def _chunk_blocks(circuit: Circuit, columns: Columns, start: int, stop: int) -> np.ndarray:
    """The (stop - start, 4, 4) Majorana blocks of rows start..stop-1, each
    on its op's lowest qubit and the next.  The rows are checked in one
    stacked call; the first that fails is refused, named by
    :meth:`Circuit.describe`."""
    first, last = columns.targets[start:stop].T
    single = first == last
    reverse = first == last + 1
    nearest = single | (last == first + 1) | reverse
    slots = columns.slots[start:stop]
    # A one-qubit op is checked and converted as kron(g, I); an op that is
    # not nearest-neighbour is refused before its gate is looked at.
    checks = np.empty((stop - start, 4, 4), dtype=complex)
    checks[~single] = columns.stacks[4][slots[~single]]
    if single.any():
        checks[single] = np.einsum("kab,ij->kaibj", columns.stacks[2][slots[single]], I2).reshape(-1, 4, 4)
    if reverse.any():
        checks[reverse] = checks[reverse][:, _SWAP_ORDER][:, :, _SWAP_ORDER]
    checks[~nearest] = np.eye(4)
    pp, matchgate = classify_stack(checks)
    for k in np.flatnonzero(~(nearest & matchgate)):
        # The first failure is refused, in the words of the per-op check.
        name = circuit.describe(start + int(k))
        if not nearest[k]:
            raise BackendRefusal(f"{name} is not nearest-neighbor")
        exc = _not_matchgate(checks[k], pp[k])
        raise BackendRefusal(f"{name} is not a matchgate: {exc}") from exc
    return _conjugation_block(checks)


def run_covariance(circuit: Circuit, initial: int | str = 0) -> CovarianceState:
    """Covariance after the circuit acts on a basis state.

    Rows are checked and converted to Majorana blocks OP_CHUNK at a time,
    in order, so the first op that fails is the one refused and memory
    stays bounded whatever the circuit's length.  Every op is checked once;
    a repetition group is applied as one folded rotation on the Majorana
    span of its body.

    The blocks accumulate as rows of the Heisenberg rotation P = R_L ... R_1
    (an op on Majorana rows ``sl`` does P[sl] <- block P[sl]), and M = P M0
    P^T is formed once at the end on the touched Majorana pairs T only.  Rows
    of P outside T are identity rows, rows in T vanish outside T, and M0 is
    block-diagonal in qubit pairs, so M outside T x T stays M0.  P's rows in
    T are therefore kept in M's own rows, set to identity rows before the
    first op; the other rows of M never change.
    """
    state = init_covariance(circuit.n, initial)
    m = state.m
    signs = m[0::2, 1::2].diagonal().copy()  # M0[2k, 2k+1] = <Z_k>
    columns = circuit.columns
    rows = len(columns.names)
    targets = columns.targets
    # P = I before any op: the rows of every qubit that a row targets start
    # as identity rows.
    touched = np.zeros(circuit.n, dtype=bool)
    touched[targets.ravel()] = True
    t = np.flatnonzero(np.repeat(touched, 2))
    m[t] = 0.0
    m[t, t] = 1.0
    # Runs of rows (start, stop, count) in order: a group of count > 1
    # is folded, every other row applied on its own.
    runs, row = [], 0
    for start, stop, count in circuit.groups:
        if count > 1 and stop > start:
            runs += [(row, start, 1), (start, stop, count)]
            row = stop
    runs.append((row, rows, 1))
    lows = (2 * targets.min(axis=1)).tolist()
    widths = np.where(targets[:, 0] == targets[:, 1], 2, 4).tolist()
    runs = iter(runs)
    start, stop, count = next(runs)
    for c0 in range(0, rows, OP_CHUNK):
        c1 = min(c0 + OP_CHUNK, rows)
        blocks = _chunk_blocks(circuit, columns, c0, c1)
        r = c0
        while r < c1:
            while stop <= r:
                start, stop, count = next(runs)
            end = min(stop, c1)
            if count > 1 and r == start:
                base = 2 * int(targets[start:stop].min())
                group = np.eye(2 * int(targets[start:stop].max()) + 2 - base)
            # A folded group's rows update its own rotation, offset to its span.
            dest, offset = (m, 0) if count == 1 else (group, base)
            for block, lo, w in zip(blocks[r - c0 : end - c0], lows[r:end], widths[r:end]):
                if w == 2:  # a one-qubit op's block: the top-left 2 x 2 of kron(g, I)'s
                    block = block[:2, :2]
                lo -= offset
                dest[lo : lo + w] = block @ dest[lo : lo + w]
            if count > 1 and end == stop:
                span = slice(base, base + len(group))
                m[span] = np.linalg.matrix_power(group, count) @ m[span]
            r = end
    # M_TT = P_TT M0_TT P_TT^T, with P_TT M0_TT taken pair by pair: M0's
    # block on qubit k is [[0, s_k], [-s_k, 0]].
    p, s = m[np.ix_(t, t)], signs[touched]
    pm = np.empty_like(p)
    pm[:, 1::2] = p[:, 0::2] * s
    pm[:, 0::2] = -p[:, 1::2] * s
    m[np.ix_(t, t)] = pm @ p.T
    return state


def _reach(m: np.ndarray) -> np.ndarray:
    """reach[k], k = 0..n, of a 2n x 2n covariance: 1 + the largest mode that
    M's exact nonzero pattern (rows and columns) couples to any of modes
    0..2k+1, at least 2k+2 and made non-decreasing; reach[n] = 2n."""
    d = len(m)
    nz = m != 0
    nz |= nz.T
    last = np.where(nz.any(axis=1), d - np.argmax(nz[:, ::-1], axis=1), 0)
    reach = np.maximum(np.maximum(last[0::2], last[1::2]), np.arange(2, d + 1, 2))
    return np.append(np.maximum.accumulate(reach), d)


def sample_covariance(state: CovarianceState, shots: int, seed: int) -> dict[int, int]:
    """Full-register measurement histogram, qubits read left to right.

    Prefix-tree sampling: qubit k is measured after qubits 0..k-1, and all
    shots that share an outcome prefix share one conditioned covariance.  At
    qubit k each prefix's shot count splits binomially with
    p0 = (1 + M[2k, 2k+1]) / 2 of that prefix's covariance.  By the chain
    rule this is an exact multinomial draw from the joint distribution.
    Outcomes with probability within PROB_FLOOR of 0 or 1 are clamped to
    certain.

    Light cone.  Let reach[k] be 1 + the largest j with M[i, j] or M[j, i]
    exactly nonzero for some i <= 2k+1, made non-decreasing (``_reach``).
    Invariant: after conditioning on qubits 0..k-1, every entry (i, j) with
    max(i, j) >= reach[k-1] still equals M's.  Proof, by induction on k:
    conditioning on qubit k adds a rank-2 term in columns 2k and 2k+1 of the
    conditioned matrix.  Their rows i >= reach[k] >= reach[k-1] are M's by
    the invariant (and antisymmetry), hence 0 by the definition of reach[k].
    So the term vanishes outside [0, reach[k])^2 and the invariant holds
    for k+1.
    A prefix of length k therefore holds only its window over modes
    [2k, reach[k]).  Conditioning gives the child's window over
    [2k+2, reach[k]), and the rows and columns of M over
    [reach[k], reach[k+1]) are appended to it.  On a dense M, reach[k] = 2n
    and the window is the whole unmeasured covariance.

    Prefixes are expanded depth first, in batches sized so that each level
    of the tree holds at most SAMPLER_BUDGET_BYTES / n bytes of child
    windows (and at least one parent's children).  Live memory is therefore
    about SAMPLER_BUDGET_BYTES plus one batch of temporaries, or O(n w^2)
    bytes if that is larger, whatever ``shots`` is, with w the widest
    window.  Time is O(w^2) per distinct prefix per level, at most
    O(shots n w^2); w is 2n on a dense M and about the light cone's width
    on a shallow circuit.  Keys are Python ints, exact for any n.
    """
    check_shots(shots)
    n, full = state.n, state.m
    rng = np.random.default_rng(seed)
    level_budget = SAMPLER_BUDGET_BYTES // n
    reach = _reach(full).tolist()
    hist: dict[int, int] = {}
    # Batches of prefixes of length k: (k, windows over modes 2k..reach[k],
    # shot counts, prefix bits).  Bit n-1-k of a key, qubit k's outcome, is
    # bit (n-1-k) % 64 of word (n-1-k) // 64.
    words = np.zeros((1, (n + 63) // 64), dtype=np.uint64)
    stack = [(0, full[None, : reach[0], : reach[0]], np.array([int(shots)]), words)]
    while stack:
        k, m, counts, prefixes = stack.pop()
        if k == n:
            keys = prefixes[:, 0].tolist()
            for j in range(1, prefixes.shape[1]):
                keys = [key | w << (64 * j) for key, w in zip(keys, prefixes[:, j].tolist())]
            hist.update(zip(keys, counts.tolist()))
            continue
        # The child window spans modes lo..new, its first kept = old - lo
        # of them conditioned and the rest M's own.
        lo, old, new = 2 * k + 2, reach[k], reach[k + 1]
        child_dim, kept = new - lo, old - lo
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
        child = np.empty((len(live), child_dim, child_dim))
        child[:, kept:] = full[old:new, lo:new]
        child[:, :kept, kept:] = full[lo:old, old:new]
        _condition(m, parent, 1.0 - 2.0 * outcome, child[:, :kept, :kept])
        stack.append((k + 1, child, child_counts[live], child_prefixes))
    return hist
