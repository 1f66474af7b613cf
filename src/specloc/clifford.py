"""Matrix models of the complex Clifford algebras and their gap-preserving
embeddings and periodicity reductions.

Generators are built by the Jordan-Wigner tensor recursion and then
conjugated into the normal form where the grading of an even algebra is
exactly diag(I, -I); the odd algebra CCl_{2m+1} sits block-diagonally
inside M_{2^{m+1}} with the swap grading, which lives in the multiplier
algebra rather than the algebra itself.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ModeMismatchError, NotOddError, NotSelfAdjointError
from .gap import OperatorElement, bordered
from .linalg import (
    DEFAULT_POLICY, TolerancePolicy, _ArrayValue, _read_only, as_matrix, direct_sum,
    doubled_matrix, is_self_adjoint, residual_ok, verify_similarity,
)

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


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
    """Generators of CCl_{2m} in M_{2^m} with the grading sorted to diag(I, -I)."""
    gens = []
    for k in range(1, m + 1):
        for seed in (_SX, _SY):
            factors = [_SZ] * (k - 1) + [seed] + [np.eye(2)] * (m - k)
            g = np.array([[1.0]])
            for f in factors:
                g = np.kron(g, f)
            gens.append(g)
    grading = np.array([[1.0]])
    for _ in range(m):
        grading = np.kron(grading, _SZ)
    order = np.argsort(-np.real(np.diag(grading)), kind="stable")
    perm = np.eye(2**m)[order]
    return [perm @ g @ perm.T for g in gens], perm @ grading @ perm.T


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
    returned.  Gap data is preserved: max_delta(y) = max_delta(result).
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

    rep = clifford_rep(p + 1)
    if dim % rep.rep_dim:
        raise DimensionMismatchError(
            f"size {dim} incompatible with the CCl_{p + 1} representation "
            f"dimension {rep.rep_dim}"
        )
    grading = np.kron(rep.grading, np.eye(dim // rep.rep_dim))
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
