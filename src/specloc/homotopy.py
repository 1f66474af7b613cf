"""Certification of discrete homotopies, stabilization, contraction paths,
and Grothendieck-class witnesses.

A sampled path x_0, ..., x_m is certified at delta when

* every sample passes its delta-gap test (``delta_singular_check``), and
* each segment x_k -> x_{k+1} keeps ``bordered(y, delta/2)`` invertible.

The second holds by Weyl's inequality, because ``bordered(y, delta/2)`` is
1-Lipschitz in y.  Let g_k = min |delta/2 + Sigma_{x_k}| be the smallest
absolute eigenvalue of ``bordered(x_k, delta/2)``, and tau_k the sample's
doubled-spectrum zero threshold, the margin by which the computed g_k may
be off.  The point y = x_k + t (x_{k+1} - x_k) lies within t h_k of x_k and
(1 - t) h_k of x_{k+1}, where h_k = ||x_{k+1} - x_k||_2, so

    h_k < a_k = (g_k - tau_k) + (g_{k+1} - tau_{k+1})

leaves it closer to one end than that end's certified gap, for every t in
[0, 1].  g_k and tau_k are read from the sample's memoized spectrum, so the
guard solves nothing new.  h_k is compared through an upper bound,
``linalg.operator_norm_bound``: sqrt(||Delta||_1 ||Delta||_inf) first, the
SVD only when that does not decide.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    LevelTooSmallError,
    NotGappedError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .gap import (
    OperatorElement,
    delta_singular_check,
    identity_element,
)
from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    direct_sum,
    operator_norm_bound,
    residual_ok,
)
from . import localizer as _localizer


@dataclass(frozen=True)
class HomotopyPath:
    samples: tuple  # OperatorElement values of identical shape
    parameters: tuple  # strictly increasing, 0 = first, 1 = last

    def __post_init__(self):
        samples = tuple(self.samples)
        params = tuple(float(t) for t in self.parameters)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "parameters", params)
        if len(samples) != len(params) or len(samples) < 2:
            raise ShapeMismatchError("need matching samples/parameters, at least 2")
        # parameters are numbers in [0, 1], not matrices, and a path has no
        # policy: 1e-12 absorbs decimal rounding of hand-written endpoints.
        # Each comparison is written to hold, so that a NaN parameter fails it.
        if not (abs(params[0]) <= 1e-12 and abs(params[-1] - 1.0) <= 1e-12):
            raise ShapeMismatchError("parameters must start at 0 and end at 1")
        if not all(a < b for a, b in zip(params, params[1:])):
            raise ShapeMismatchError("parameters must be strictly increasing")
        shapes = {s.matrix.shape for s in samples}
        if len(shapes) != 1:
            raise ShapeMismatchError(f"inhomogeneous sample shapes {shapes}")


@dataclass(frozen=True)
class PathCertificate:
    verdict: bool
    delta: float
    sample_trace: tuple  # (t, sample verdict, delta_max) per sample
    step_guard: float  # min_k a_k
    max_step: float  # largest certified upper bound of a step h_k
    step_margins: tuple  # a_k - (upper bound of h_k) per segment; <= 0 is a step violation
    violations: tuple  # ("gap"|"step", index)


def verify_path(
    path: HomotopyPath,
    delta: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> PathCertificate:
    """Certify a sampled path at delta: every sample gapped, every segment guarded.

    The verdict holds when every sample passes its delta-gap test and every
    segment passes the Weyl guard ``h_k < a_k`` of the module docstring, so
    ``bordered(y, delta/2)`` is invertible along each segment.  Each step is
    bounded by ``operator_norm_bound(x_{k+1} - x_k, a_k)``, whose SVD runs
    only when sqrt(||Delta||_1 ||Delta||_inf) is not below a_k.  The report's
    ``step_guard`` is min_k a_k, ``max_step`` the largest step bound, and
    ``step_margins`` holds a_k less the step bound, per segment.
    """
    violations = []
    trace = []
    slack = []  # g_k - tau_k per sample
    for k, x in enumerate(path.samples):
        cert = delta_singular_check(x, delta, policy=policy)
        trace.append((path.parameters[k], cert.verdict, cert.delta_max))
        # s-gap at s = delta/2, from eig(bordered) = s + Sigma_x, less the sample's tau
        gap = float(np.min(np.abs(delta / 2.0 + cert.sigma_x)))
        slack.append(gap - x.doubled(policy).tau)
        if not cert.verdict:
            violations.append(("gap", k))

    guards = [a + b for a, b in zip(slack, slack[1:])]
    steps = [
        operator_norm_bound(path.samples[k + 1].matrix - path.samples[k].matrix, guard)
        for k, guard in enumerate(guards)
    ]
    margins = tuple(guard - step for guard, step in zip(guards, steps))
    violations.extend(("step", k) for k, margin in enumerate(margins) if margin <= 0)

    return PathCertificate(
        not violations,
        float(delta),
        tuple(trace),
        min(guards),
        max(steps),
        margins,
        tuple(violations),
    )


def stabilize(x: OperatorElement, target_level: int) -> OperatorElement:
    """Pad with identity blocks: x in M_n(E) -> x (+) e_{m-n} in M_m(E)."""
    if target_level < x.block_size:
        raise LevelTooSmallError(
            f"target level {target_level} below current level {x.block_size}"
        )
    if target_level == x.block_size:
        return x
    pad = np.eye((target_level - x.block_size) * x.ambient_dim)
    return OperatorElement(
        direct_sum(x.matrix, pad), target_level, x.ambient_dim, x.self_adjoint
    )


def direct_sum_class(x: OperatorElement, y: OperatorElement) -> OperatorElement:
    """Semigroup sum of representatives: [x] + [y] = [x (+) y]."""
    if x.ambient_dim != y.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {x.ambient_dim} vs {y.ambient_dim}"
        )
    return OperatorElement(
        direct_sum(x.matrix, y.matrix),
        x.block_size + y.block_size,
        x.ambient_dim,
        x.self_adjoint and y.self_adjoint,
    )


def contract_invertible(
    x: OperatorElement,
    steps: int = 33,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> HomotopyPath:
    """Linear contraction of an invertible element onto a scalar multiple of e.

    Chooses z on the unit circle in the widest angular gap of the
    eigenvalue arguments of x (antipodes included, so the whole line
    through +-z avoids the spectrum); the segment (1-t) x + t z e is
    then invertible for every t.  The gap recurs around -z, and -z is
    taken when every eigenvalue lies within 90 degrees of it and not all
    within 90 degrees of z, so that no eigenvalue's path lambda -> z bends
    towards 0.  Each sample is certified by its zero test, which a
    non-normal x can still fail at a later sample (``NotInvertibleError``).
    Sample 0 is x, the last sample is z*e.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps")
    m = x.matrix
    eigs = np.linalg.eigvals(m)
    args = np.angle(eigs)
    points = np.sort(np.mod(np.concatenate([args, args + np.pi]), 2 * np.pi))
    gaps = np.diff(np.concatenate([points, [points[0] + 2 * np.pi]]))
    # the 2n points split the circle into gaps of which the widest is at least
    # pi / n; a NaN eigenvalue makes z NaN, and sample 0 is refused as non-finite
    widest = int(np.argmax(gaps))
    z = np.exp(1j * (points[widest] + gaps[widest] / 2.0))
    # the gap recurs around -z; turn there when every eigenvalue faces -z
    # (Re(lambda conj(z)) < 0), for then no segment lambda -> -z bends towards 0
    if np.all((eigs * np.conj(z)).real < 0):
        z = -z

    eye = np.eye(m.shape[0])
    params = [k / (steps - 1) for k in range(steps)]
    samples = []
    for t in params:
        sample = OperatorElement((1.0 - t) * m + t * z * eye, x.block_size, x.ambient_dim, False)
        # the doubled zero test of verify_path(path, 0), memoized on the sample
        if sample.doubled(policy).inertia.n_zero > 0:
            if t == 0:
                raise NotInvertibleError("element is singular at tolerance")
            raise NotInvertibleError(f"contraction sample t={t:.4f} singular")
        samples.append(sample)
    return HomotopyPath(tuple(samples), tuple(params))


@dataclass(frozen=True)
class KClassWitness:
    """Formal Grothendieck pair [plus] - [minus] of stabilized representatives."""

    plus: OperatorElement
    minus: OperatorElement
    level: int
    delta: float


def make_witness(
    x: OperatorElement, delta: float, policy: TolerancePolicy = DEFAULT_POLICY
) -> KClassWitness:
    """Witness for [x] - [e] at the declared delta."""
    if not delta_singular_check(x, delta, policy=policy).verdict:
        raise NotGappedError(f"representative is not {delta}-singular")
    minus = identity_element(x.ambient_dim, x.block_size)
    return KClassWitness(x, minus, x.block_size, float(delta))


def equal_certified(
    w: KClassWitness,
    w2: KClassWitness,
    path: HomotopyPath,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> bool:
    """Certify [w] = [w2] via a user-supplied path between stabilized pluses."""
    level = max(w.level, w2.level)
    a = stabilize(w.plus, level)
    b = stabilize(w2.plus, level)
    if path.samples[0].matrix.shape != a.matrix.shape:
        raise ShapeMismatchError("path samples do not match the stabilized level")
    if not (
        residual_ok(path.samples[0].matrix - a.matrix, a.matrix, policy=policy)
        and residual_ok(path.samples[-1].matrix - b.matrix, b.matrix, policy=policy)
    ):
        raise ShapeMismatchError("path endpoints do not match the witnesses")
    delta = min(w.delta, w2.delta)
    return verify_path(path, delta, policy=policy).verdict


def distinct_by_index(
    w: KClassWitness,
    w2: KClassWitness,
    triple,
    kappa: float | None = None,
    s: float | None = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> bool:
    """Sound refutation of equality: True when the localizer indices differ.

    A False return never proves equality.
    """

    def _pair_index(witness):
        plus, _ = _localizer.index(
            triple, witness.plus, witness.delta, kappa=kappa, s=s, policy=policy
        )
        minus, _ = _localizer.index(
            triple, witness.minus, witness.delta, kappa=kappa, s=s, policy=policy
        )
        return plus - minus

    return _pair_index(w) != _pair_index(w2)
