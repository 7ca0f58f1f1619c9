"""Dense two-qubit gate algebra: parity-preserving constructors and the gate zoo.

Conventions used throughout the package:

* Two-qubit basis order is |q0 q1> with qubit 0 the most-significant bit,
  i.e. rows/cols run |00>, |01>, |10>, |11>.
* A parity-preserving gate G(A, B) carries A on the even-parity block
  {|00>, |11>} and B on the odd-parity block {|01>, |10>}::

      G(A, B) = [[A00, 0,   0,   A01],
                 [0,   B00, B01, 0  ],
                 [0,   B10, B11, 0  ],
                 [A10, 0,   0,   A11]]

* ``nl(a, b, c)`` is exp(i(a XX + b YY + c ZZ)), evaluated in closed form.
* RX/RY/RZ use the standard half-angle convention exp(-i theta P / 2).

Every check in the package reads one of two fixed thresholds:

* ``TOL_UNITARY`` bounds max |U^dag U - I| of a gate or block accepted as
  unitary;
* ``TOL_CLASSIFY`` bounds the off-block weight of a parity-preserving gate,
  |det A - det B| of a matchgate, and the effective ZZ strength below which
  a compiler target cannot entangle.

Neither is a setting: the matchgate/nonmatchgate decision is made in one
place with one threshold.
"""

from __future__ import annotations

import numpy as np

from .errors import BadArity, NonUnitaryInput, UnknownGate

# Gates are plain complex128 ndarrays; 2x2 for one qubit, 4x4 for two.
Mat2 = np.ndarray
Mat4 = np.ndarray


TOL_UNITARY = 1e-9
TOL_CLASSIFY = 1e-9

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def det2(m: Mat2) -> complex:
    """Explicit 2x2 determinant; avoids LU sign noise (-0.0 imaginary parts
    flip the branch of arg at the cut) for exact-valued gates."""
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def unitarity_defect(m: np.ndarray) -> np.ndarray:
    """max |m^dag m - I| of each matrix in a (..., d, d) stack.  A 2 x 2
    stack takes the closed form over its columns c0, c1, with no matrix
    product: max(||c0|^2 - 1|, ||c1|^2 - 1|, |<c0, c1>|).  The defect is NaN
    or inf where the entries overflow, so test it as
    ``defect <= TOL_UNITARY``."""
    d = m.shape[-1]
    if d == 2:
        sq = m.real**2 + m.imag**2
        norms = np.abs(sq[..., 0, :] + sq[..., 1, :] - 1.0)
        inner = np.abs(np.conj(m[..., 0, 0]) * m[..., 0, 1] + np.conj(m[..., 1, 0]) * m[..., 1, 1])
        return np.maximum(np.maximum(norms[..., 0], norms[..., 1]), inner)
    prod = np.conj(np.swapaxes(m, -1, -2)) @ m
    return np.abs(prod - np.eye(d)).reshape(m.shape[:-2] + (d * d,)).max(axis=-1)


def is_unitary(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(unitarity_defect(m) <= TOL_UNITARY)


def _require_unitary(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not is_unitary(m):
        raise NonUnitaryInput(f"{what} is not unitary within {TOL_UNITARY:g}")
    return m


def rx(theta: float) -> Mat2:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> Mat2:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> Mat2:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)


def phase_rz(chi: float) -> Mat2:
    """diag(e^{i chi}, e^{-i chi}); the Z-rotation convention of the
    parity-preserving decomposition (equals rz(-2 chi))."""
    return np.array([[np.exp(1j * chi), 0], [0, np.exp(-1j * chi)]], dtype=complex)


def build_pp(a: Mat2, b: Mat2) -> Mat4:
    """Assemble the parity-preserving gate G(A, B) from its unitary blocks."""
    a = _require_unitary(a, "even block A")
    b = _require_unitary(b, "odd block B")
    return assemble_pp(a, b)


# Row-major positions of G(A, B)'s even-block and odd-block entries.
_EVEN_BLOCK = np.array([0, 3, 12, 15])
_ODD_BLOCK = np.array([5, 6, 9, 10])


def assemble_pp(a: Mat2, b: Mat2) -> Mat4:
    """G(A, B) from 2x2 blocks as given, or a stack of gates from (..., 2, 2)
    stacks of blocks; :func:`build_pp` checks the blocks first."""
    a, b = np.asarray(a), np.asarray(b)
    lead = a.shape[:-2]
    g = np.zeros(lead + (16,), dtype=complex)
    g[..., _EVEN_BLOCK] = a.reshape(lead + (4,))
    g[..., _ODD_BLOCK] = b.reshape(lead + (4,))
    return g.reshape(lead + (4, 4))


def extract_blocks(g: Mat4) -> tuple[Mat2, Mat2]:
    """Return (A, B) of a gate laid out as G(A, B), or the (..., 2, 2)
    stacks of blocks of a (..., 4, 4) stack of gates; no parity check."""
    g = np.asarray(g, dtype=complex)
    flat, lead = g.reshape(g.shape[:-2] + (16,)), g.shape[:-2] + (2, 2)
    return flat[..., _EVEN_BLOCK].reshape(lead), flat[..., _ODD_BLOCK].reshape(lead)


# The eight entries of a two-qubit gate that vanish when it is parity-preserving.
_OFF_BLOCK = np.array(
    [
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [0, 1, 1, 0],
    ],
    dtype=bool,
)


def off_block_weight(g: Mat4) -> float | np.ndarray:
    """Largest modulus among the eight entries that vanish for a P.P. gate;
    one value per gate of a (..., 4, 4) stack."""
    g = np.asarray(g, dtype=complex)
    return np.max(np.abs(g[..., _OFF_BLOCK]), axis=-1)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; qubit 0 (the left factor) is the most-significant bit."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def nl(a: float, b: float, c: float) -> Mat4:
    """exp(i(a XX + b YY + c ZZ)) by closed-form block evaluation.

    The even block is e^{ic}(cos(a-b) I + i sin(a-b) X), the odd block
    e^{-ic}(cos(a+b) I + i sin(a+b) X).
    """
    ea, eb = np.exp(1j * c), np.exp(-1j * c)
    cm, sm = np.cos(a - b), np.sin(a - b)
    cp, sp = np.cos(a + b), np.sin(a + b)
    return np.array(
        [
            [ea * cm, 0, 0, 1j * ea * sm],
            [0, eb * cp, 1j * eb * sp, 0],
            [0, 1j * eb * sp, eb * cp, 0],
            [1j * ea * sm, 0, 0, ea * cm],
        ],
        dtype=complex,
    )


def _as_angle_list(params, arity: int, name: str):
    if len(params) != arity:
        raise BadArity(f"{name} takes {arity} parameter(s), got {len(params)}")
    return [float(p) for p in params]


_FIXED: dict[str, np.ndarray] = {}


def _register_fixed():
    swap = build_pp(I2, X)
    iswap = build_pp(I2, 1j * X)
    fswap = build_pp(Z, X)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    _FIXED.update(
        {
            "I": I2,
            "X": X,
            "Y": Y,
            "Z": Z,
            "H": H,
            "S": S,
            "T": T,
            "SWAP": swap,
            "ISWAP": iswap,
            "FSWAP": fswap,
            "CZ": cz,
            "CNOT": cnot,
            "CX": cnot,
        }
    )


_register_fixed()

_PARAMETRIC = {
    "RX": (1, lambda p: rx(p[0])),
    "RY": (1, lambda p: ry(p[0])),
    "RZ": (1, lambda p: rz(p[0])),
    "NL": (3, lambda p: nl(p[0], p[1], p[2])),
}


def gate_library(name: str, params=()) -> np.ndarray:
    """Look up a standard gate by name; parametric gates take radians."""
    key = name.upper()
    if key in _FIXED:
        if params:
            raise BadArity(f"{name} takes no parameters")
        return _FIXED[key].copy()
    if key in _PARAMETRIC:
        arity, builder = _PARAMETRIC[key]
        return builder(_as_angle_list(params, arity, name))
    raise UnknownGate(f"unknown gate {name!r}")
