"""Matrix models of the complex Clifford algebras and their gap-preserving
embeddings and periodicity reductions.

Every generator, and every grading, is a phase permutation: each row and
each column holds one entry, and that entry is +-1 or +-i.  The even
algebra CCl_{2m} acts on M_{2^m} by the Jordan-Wigner Pauli strings,
built by index arithmetic (a column map, a phase and the stable parity
sort that makes the grading exactly diag(I, -I)), with no tensor or
permutation product.  The odd algebra CCl_{2m+1} sits block-diagonally
inside M_{2^{m+1}} with the swap grading, which lives in the multiplier
algebra rather than the algebra itself.

:func:`relation_residuals` decides the defining relations exact first: a
relation between phase permutations whose products cancel by their index
maps is exactly 0.0, with no product formed; any other takes the dense
residual and its spectral norm.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ModeMismatchError, NotOddError, NotSelfAdjointError
from .gap import OperatorElement, bordered
from .linalg import (
    DEFAULT_POLICY, TolerancePolicy, _ArrayValue, _monomial, _read_only, as_matrix, direct_sum,
    doubled_matrix, is_self_adjoint, operator_norm, residual_ok, verify_similarity,
)


@dataclass(frozen=True, eq=False)
class CliffordRep(_ArrayValue):
    rep_dim: int
    generators: tuple
    grading: np.ndarray
    parity: str  # "even": diagonal grading; "odd": block-swap grading

    def __post_init__(self):
        generators = tuple(_read_only(as_matrix(g)) for g in self.generators)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "grading", _read_only(as_matrix(self.grading)))


def _jordan_wigner(m: int):
    """Generators of CCl_{2m} in M_{2^m} with the grading sorted to diag(I, -I).

    Generators 2k-2 and 2k-1 are the Pauli strings Z^(k-1) (x) X (x) I^(m-k)
    and Z^(k-1) (x) Y (x) I^(m-k), the first factor acting on the highest
    bit of the basis index.  The string with X or Y on bit ``b`` maps basis
    index r to r XOR 2^b, with the Z signs of r's bits above b times the X
    or Y entry (-i from a 0 bit, i from a 1 bit).  The grading Z^(x)m is
    (-1)^(parity of r); the basis is sorted stably by parity, even first.
    X-type generators and the grading are float64, Y-type ones complex128.
    """
    n = 2**m
    parity = np.zeros(1, dtype=np.intp)  # parity[r]: the parity of r's bits
    for _ in range(m):
        parity = np.concatenate([parity, 1 - parity])
    order = np.argsort(parity, kind="stable")  # sorted row i is basis index order[i]
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    rows = np.arange(n)
    gens = []
    for bit in range(m - 1, -1, -1):
        cols = position[order ^ (1 << bit)]
        signs = 1.0 - 2.0 * parity[order >> (bit + 1)]
        x = np.zeros((n, n))
        x[rows, cols] = signs
        y = np.zeros((n, n), dtype=np.complex128)
        y[rows, cols] = signs * np.where(order >> bit & 1, 1j, -1j)
        gens += [x, y]
    return gens, np.diag(1.0 - 2.0 * parity[order])


def clifford_rep(p: int) -> CliffordRep:
    """Concrete representation of CCl_p with self-adjoint unitary generators."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if p % 2 == 0:
        gens, grading = _jordan_wigner(p // 2)
        return CliffordRep(2 ** (p // 2), gens, grading, "even")
    m = (p - 1) // 2
    base, base_grading = _jordan_wigner(m)
    base.append(base_grading)  # the volume element anticommutes with all others
    gens = [direct_sum(b, -b) for b in base]
    return CliffordRep(2 ** (m + 1), gens, doubled_matrix(np.eye(2**m)), "odd")


def _phase_permutation(a: np.ndarray):
    """``(cols, vals)``, a's entries ``a[i, cols[i]] = vals[i]``, or None.

    None unless every row and every column of a holds exactly one nonzero
    entry, and each entry is real or imaginary.  A product of two such
    entries has at most one nonzero term in its real part and one in its
    imaginary part, so it rounds alike elementwise and in a dense product.
    """
    entries = _monomial(a != 0)
    # at most one entry in each line, and n of them: exactly one in each
    if entries is None or len(entries[0]) != len(a):
        return None
    rows, cols = entries
    vals = a[rows, cols]
    if ((vals.real != 0) & (vals.imag != 0)).any():
        return None
    return cols, vals


def _exact_anticommutators(reads) -> np.ndarray:
    """Booleans ``e[i, j]``: whether ``a_i a_j + a_j a_i - 2 delta_ij I`` is exactly zero.

    ``reads`` are the :func:`_phase_permutation` reads ``(cols, vals)`` of
    the a_i, and no product is formed: ``a_i a_j`` sends row r to
    ``cols_j[cols_i[r]]``, with the value ``vals_i[r] * vals_j[cols_i[r]]``.
    The anticommutator is exactly zero when ``a_i a_j`` and ``a_j a_i``
    share one column map and their values cancel, and exactly 2I when that
    map is the identity and the values sum to 2.  A dense product forms
    the same entries, so its residual is the same exact zero.
    """
    cols = np.stack([c for c, _ in reads])
    vals = np.stack([v for _, v in reads])
    k, n = cols.shape
    second = np.arange(k)[None, :, None]
    via = cols[:, None, :]  # [i, 0, r]: cols_i[r]
    product_cols = cols[second, via]  # [i, j, r]: where a_i a_j sends row r
    product_vals = vals[:, None, :] * vals[second, via]
    diagonal = np.eye(k, dtype=bool)
    same = (product_cols == product_cols.transpose(1, 0, 2)).all(axis=2)
    identity = (product_cols == np.arange(n)).all(axis=2)
    total = product_vals + product_vals.transpose(1, 0, 2)
    return same & (identity | ~diagonal) & (total == 2.0 * diagonal[:, :, None]).all(axis=2)


def _adjoint_residual(a: np.ndarray) -> float:
    """``||a - a*||_2``: 0.0 with no norm when ``a == a*`` exactly."""
    return 0.0 if np.array_equal(a, a.conj().T) else operator_norm(a - a.conj().T)


def relation_residuals(rep: CliffordRep) -> dict:
    """The spectral norm of the residual of each defining relation of rep, by name.

    With generators g_i and grading G: ``hermitian_i`` is ``||g_i - g_i*||``,
    ``grading_anticommute_i`` is ``||G g_i + g_i G||``, ``clifford_ji`` (for
    j <= i) is ``||g_i g_j + g_j g_i - 2 delta_ij I||``, ``grading_square``
    is ``||G G - I||`` and ``grading_hermitian`` is ``||G - G*||``.

    Exact first: a matrix equal to its adjoint has an adjoint residual of
    0.0.  When the generators and the grading are all phase permutations,
    each product relation that cancels by their index maps has a residual
    of 0.0 (:func:`_exact_anticommutators`; ``G G - I`` is zero exactly
    when ``G G + G G - 2I`` is).  Every other residual, of a rotated or
    perturbed representation say, is formed densely and its
    ``operator_norm`` taken.
    """
    gens, g = rep.generators, rep.grading
    k = len(gens)
    reads = [_phase_permutation(a) for a in (*gens, g)]
    if all(r is not None for r in reads):
        exact = _exact_anticommutators(reads)
    else:
        exact = np.zeros((k + 1, k + 1), dtype=bool)
    eye = np.eye(rep.rep_dim)
    residuals = {}
    for i, gi in enumerate(gens):
        residuals[f"hermitian_{i}"] = _adjoint_residual(gi)
        residuals[f"grading_anticommute_{i}"] = (
            0.0 if exact[k, i] else operator_norm(g @ gi + gi @ g)
        )
        for j, gj in enumerate(gens[: i + 1]):
            target = 2.0 * eye if i == j else 0.0 * eye
            residuals[f"clifford_{j}{i}"] = (
                0.0 if exact[i, j] else operator_norm(gi @ gj + gj @ gi - target)
            )
    residuals["grading_square"] = 0.0 if exact[k, k] else operator_norm(g @ g - eye)
    residuals["grading_hermitian"] = _adjoint_residual(g)
    return residuals


def graded_part(a, rep: CliffordRep, parity: int) -> np.ndarray:
    """(a + (-1)^parity * G a G) / 2 relative to the representation's grading."""
    a = as_matrix(a)
    c = rep.rep_dim
    if a.shape[0] != a.shape[1] or a.shape[0] % c:
        raise DimensionMismatchError(f"size {a.shape} incompatible with rep_dim {c}")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    g = np.kron(rep.grading, np.eye(a.shape[0] // c))
    sign = 1.0 if parity == 0 else -1.0
    return (a + sign * (g @ a @ g)) / 2.0


def embed_low(x: OperatorElement, target: str) -> OperatorElement:
    """Embed x as an odd self-adjoint element of E (x) CCl_1 or CCl_2.

    V0 (self-adjoint x): diag(x, -x), the odd part of the CCl_1 picture.
    V1 (general x): [[0, x], [x*, 0]], the odd part of the CCl_2 picture.
    The Clifford factor is the outer tensor slot.
    """
    if target not in ("V0", "V1"):
        raise ValueError("target must be 'V0' or 'V1'")
    m = x.matrix
    if target == "V0":
        if not x.self_adjoint:
            raise ModeMismatchError("V0 embedding requires a self-adjoint element")
        doubled = direct_sum(m, -m)
    else:
        doubled = doubled_matrix(m)
    return OperatorElement(doubled, x.block_size, 2 * x.ambient_dim, True)


def reduce_periodic(
    y: OperatorElement, p: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> OperatorElement:
    """Invert the periodicity embedding: extract x from an odd self-adjoint
    element y of M_n(E (x) CCl_{p+1}).

    For even p the odd part is {diag(x, -x)} and x is returned as a
    self-adjoint element; for odd p it is the corner-block form
    [[0, x], [x*, 0]] and the (generally non-self-adjoint) corner is
    returned.  Gap data is preserved: max_delta(y) = max_delta(result), up
    to rounding, as x's blocks in y are solved apart.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    m = y.matrix
    dim = m.shape[0]
    if dim % 2:
        raise DimensionMismatchError("odd-sized matrix cannot be graded-reduced")
    half = dim // 2
    if not is_self_adjoint(m, policy):
        raise NotSelfAdjointError("reduction input is not self-adjoint within tau")

    # CCl_{p+1} acts on 2^(p//2 + 1) rows; its grading, amplified to full size, is
    # the swap (odd algebra, even p) or diag(I, -I) (even algebra, odd p)
    rep_dim = 2 ** (p // 2 + 1)
    if dim % rep_dim:
        raise DimensionMismatchError(
            f"size {dim} incompatible with the CCl_{p + 1} representation "
            f"dimension {rep_dim}"
        )
    eye = np.eye(half)
    grading = doubled_matrix(eye) if p % 2 == 0 else direct_sum(eye, -eye)
    if not residual_ok(grading @ m + m @ grading, m, policy=policy):
        raise NotOddError("element does not anticommute with the grading")

    if p % 2 == 0:
        block = m[:half, :half]
        expected = direct_sum(block, -block)
    else:
        block = m[:half, half:]
        expected = doubled_matrix(block)
    if not residual_ok(m - expected, m, policy=policy):
        raise NotOddError("element is odd but not in the represented algebra")
    return OperatorElement(np.array(block), y.block_size, y.ambient_dim // 2, p % 2 == 0)


def verify_doubling(
    x: OperatorElement, s: float, policy: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Check that the doubling embedding's probe is similar to bordered(x, s) (x) I_2.

    The probe is ``bordered(embed_low(x), s)``: the V0 form for
    self-adjoint x (which needs a signed permutation conjugator) and the
    V1 form otherwise (plain permutation); the conjugator is constructed
    by index bookkeeping.
    """
    four = bordered(embed_low(x, "V0" if x.self_adjoint else "V1"), s)
    if x.self_adjoint:
        block_map = {0: (0, 0, 1.0), 1: (0, 1, 1.0), 2: (1, 0, 1.0), 3: (1, 1, -1.0)}
    else:
        block_map = {0: (0, 0, 1.0), 1: (1, 1, 1.0), 2: (0, 1, 1.0), 3: (1, 0, 1.0)}

    q = x.dim
    conj = np.zeros((4 * q, 4 * q))
    for u, (beta, t, sign) in block_map.items():
        for j in range(q):
            conj[(beta * q + j) * 2 + t, u * q + j] = sign
    target = np.kron(bordered(x, s), np.eye(2))
    return verify_similarity(four, target, conj, policy)
