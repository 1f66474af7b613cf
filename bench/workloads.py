"""The four benchmark workloads: seeded inputs, one round of answers each, and
an oracle for every answer.

Every answer is one or two calls into specloc's public API, or one command
line run through the CLI entry point.  Its expected result comes from
theory or from this file's own numpy, never from specloc.  A round has a fixed composition per workload,
so medians, percentiles and per-answer counts do not depend on how many
rounds fit into a run; the seed picks the inputs and the order.

Importing this module imports specloc, so the set-up probe in ``run.py``
times that import as part of set-up.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import specloc as sl
import specloc.cli


@dataclass(frozen=True)
class Answer:
    """One call to time, and its oracle.

    ``call()`` performs the timed work and returns its result;
    ``check(result, expected)`` returns ``None`` when the result is right and
    a one-line reason otherwise.
    """

    label: str
    call: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], str | None]


@dataclass(frozen=True)
class Workload:
    round: Callable[[int], list]  # round number -> answers, fixed composition
    warmup: Answer  # the cheapest kind of answer, run untimed before measuring


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _shuffled(rng, answers):
    return [answers[i] for i in rng.permutation(len(answers))]


def _signature(eigs, tol) -> int:
    return int(np.count_nonzero(eigs > tol) - np.count_nonzero(eigs < -tol))


# --------------------------------------------------------------------------
# circle_winding: the paper's flagship, winding_demo at s = 0 on banded input.

CIRCLE_MS = (-3, -1, 1, 2, 3)
CIRCLE_KAPPA = 0.1
# answers per round at each N
CIRCLE_ROUND = {"full": ((25, 5), (50, 2), (100, 1)), "tiny": ((3, 5), (4, 2), (5, 1))}


def _check_winding(result, m):
    idx, report = result
    if idx != m or report.index != m:
        return f"index {idx} (report {report.index}), expected {m}"
    if report.signature != 4 * m:
        return f"signature {report.signature}, expected {4 * m}"
    if report.reduced_signature != 2 * m:  # L(kappa, 0) = R (+) R
        return f"reduced signature {report.reduced_signature}, expected {2 * m}"
    if report.s != 0.0 or report.kappa != CIRCLE_KAPPA:
        return f"evaluated at (kappa={report.kappa}, s={report.s})"
    return None


def _winding_answer(m, N):
    return Answer(f"N={N}", lambda: sl.winding_demo(m, N, kappa=CIRCLE_KAPPA),
                  m, _check_winding)


def circle_winding(seed: int, size: str, workdir: Path) -> Workload:
    plan = CIRCLE_ROUND[size]
    offset = seed % len(CIRCLE_MS)

    def round_(k):
        # round k takes the next `count` values of m for each N, cycling from a
        # seeded offset, so every m gets the same share of every N over five rounds
        answers = [_winding_answer(CIRCLE_MS[(offset + k * count + j) % len(CIRCLE_MS)], N)
                   for N, count in plan for j in range(count)]
        return _shuffled(_rng(seed, k), answers)

    return Workload(round_, _winding_answer(CIRCLE_MS[0], plan[0][0]))


# --------------------------------------------------------------------------
# region_index: default-region index on dense odd and even inputs at s > 0.

REGION_DELTA = 0.3
REGION_GAP = 0.4  # generated gap; the index is asked at REGION_DELTA < REGION_GAP
# A run draws every answer from a fresh input for this many rounds, so that
# its latencies average over many inputs: LAPACK time varies with the input.
POOL_ROUNDS = 8
# (parity, rows of the Dirac block, amplification n, answers per round);
# element dimension = rows * n for odd, 2 * rows * n for even
REGION_ROUND = {
    "full": (("even", 8, 4, 1), ("even", 12, 4, 2), ("odd", 16, 4, 3),
             ("even", 16, 4, 3), ("odd", 24, 4, 1)),
    "tiny": (("even", 2, 2, 1), ("even", 3, 2, 2), ("odd", 4, 2, 3),
             ("even", 4, 2, 3), ("odd", 6, 2, 1)),
}


def _odd_region_input(rng, d, n):
    x = sl.random_gapped(d, n, REGION_GAP, seed=int(rng.integers(2**31)))
    sv = np.linalg.svd(x.matrix, compute_uv=False)
    if sv.min() < REGION_GAP * (1 - 1e-9):
        raise RuntimeError(f"generated odd input has singular value {sv.min()}")
    dirac = np.diag(np.sort(rng.uniform(-1.0, 1.0, d)))
    # small-coupling limit of an invertible element: index 0
    return sl.odd_triple(dirac), x, 0


def _even_region_input(rng, h, n):
    halves = [sl.random_gapped(h, n, REGION_GAP, self_adjoint=True,
                               seed=int(rng.integers(2**31))).matrix for _ in range(2)]
    eigs = [np.linalg.eigvalsh((a + a.conj().T) / 2) for a in halves]
    if min(np.abs(e).min() for e in eigs) < REGION_GAP * (1 - 1e-9):
        raise RuntimeError("generated even input is not gapped")
    d = 2 * h
    blocks = np.zeros((n, d, n, d), dtype=np.complex128)
    blocks[:, :h, :, :h] = halves[0].reshape(n, h, n, h)
    blocks[:, h:, :, h:] = halves[1].reshape(n, h, n, h)
    x = sl.OperatorElement(blocks.reshape(n * d, n * d), n, d, True)
    d0 = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    d0 /= np.linalg.norm(d0, 2)
    # small-coupling limit: (sig x_+ - sig x_-) / 2
    expected = (_signature(eigs[0], 0.0) - _signature(eigs[1], 0.0)) // 2
    return sl.even_triple(d0), x, expected


def _check_region(result, expected):
    idx, report = result
    if idx != expected:
        return f"index {idx}, expected {expected}"
    sigs = [sig for _, _, sig in report.samples]
    if len(sigs) != 5 or set(sigs) != {4 * expected}:
        return f"sampled signatures {sigs}, expected five of {4 * expected}"
    if not all(s > 0 for s, _, _ in report.samples):
        return "a sample point has s = 0"
    return None


def _region_answer(parity, dim, triple, x, expected):
    return Answer(f"{parity}-{dim}", lambda: sl.index(triple, x, REGION_DELTA),
                  expected, _check_region)


def region_index(seed: int, size: str, workdir: Path) -> Workload:
    plan = REGION_ROUND[size]
    rng = _rng(seed, 1)
    pools = []
    for parity, rows, n, count in plan:
        make = _odd_region_input if parity == "odd" else _even_region_input
        pools.append([make(rng, rows, n) for _ in range(count * POOL_ROUNDS)])

    def answers(k, counts):
        out = []
        for (parity, _, _, _), pool, count in zip(plan, pools, counts):
            for j in range(count):
                triple, x, expected = pool[(k * count + j) % len(pool)]
                out.append(_region_answer(parity, x.dim, triple, x, expected))
        return out

    return Workload(lambda k: _shuffled(_rng(seed, 2, k), answers(k, [c for *_, c in plan])),
                    answers(0, [1] + [0] * (len(plan) - 1))[0])


# --------------------------------------------------------------------------
# path_certify: contract_invertible + verify_path, and a refuted segment.

PATH_STEPS = 33
PATH_SEGMENT_SAMPLES = 9  # odd, so the middle sample of x -> -x is exactly 0
PATH_CERTIFY_PER_ROUND = 3
PATH_SIZE = {"full": 48, "tiny": 6}
PATH_PERTURBATION = 0.3


def _well_conditioned(rng, n):
    """e + 0.3 G with ||G|| = 1: eigenvalue arguments stay within asin(0.3) of
    0 or pi, so z lies within asin(0.3) of +-i and the contraction to z*e keeps
    every singular value above 0.43 and every step (<= 0.06) below the guard
    (>= 0.21); the verdict is True."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g /= np.linalg.norm(g, 2)
    return sl.OperatorElement(np.eye(n) + PATH_PERTURBATION * g, 1, n, False)


def _contract_and_verify(x):
    path = sl.contract_invertible(x, steps=PATH_STEPS)
    return path, sl.verify_path(path, 0.0)


def _check_certified(result, x):
    path, cert = result
    if cert.verdict is not True or cert.violations:
        return f"verdict {cert.verdict}, violations {cert.violations[:3]}"
    if len(path.samples) != PATH_STEPS:
        return f"{len(path.samples)} samples, expected {PATH_STEPS}"
    if not np.array_equal(path.samples[0].matrix, x.matrix):
        return "path does not start at x"
    end = path.samples[-1].matrix
    z = end[0, 0]
    if abs(abs(z) - 1.0) > 1e-12 or not np.allclose(end, z * np.eye(len(end)), atol=1e-12):
        return "path does not end at a unit scalar"
    return None


def _check_refuted(cert, zero_index):
    if cert.verdict is not False or ("gap", zero_index) not in cert.violations:
        return f"verdict {cert.verdict}, violations {cert.violations[:3]}: zero sample not refuted"
    return None


def path_certify(seed: int, size: str, workdir: Path) -> Workload:
    n = PATH_SIZE[size]
    rng = _rng(seed, 3)
    xs = [_well_conditioned(rng, n) for _ in range(PATH_CERTIFY_PER_ROUND * POOL_ROUNDS)]
    ts = [k / (PATH_SEGMENT_SAMPLES - 1) for k in range(PATH_SEGMENT_SAMPLES)]
    segments = [sl.HomotopyPath(tuple(sl.OperatorElement((1 - 2 * t) * x.matrix, 1, n, False)
                                      for t in ts), tuple(ts)) for x in xs[:POOL_ROUNDS]]
    zero_index = PATH_SEGMENT_SAMPLES // 2

    def certify(x):
        return Answer("certify", lambda: _contract_and_verify(x), x, _check_certified)

    def refute(seg):
        return Answer("refute", lambda: sl.verify_path(seg, 0.0), zero_index,
                      _check_refuted)

    def round_(k):
        answers = [certify(xs[(k * PATH_CERTIFY_PER_ROUND + j) % len(xs)])
                   for j in range(PATH_CERTIFY_PER_ROUND)]
        answers.append(refute(segments[k % len(segments)]))
        return _shuffled(_rng(seed, 4, k), answers)

    return Workload(round_, refute(segments[0]))


# --------------------------------------------------------------------------
# cli_reports: specloc.cli.main called in-process, one call per answer.

CLI_CLIFFORD_P = {"full": range(2, 13), "tiny": range(2, 5)}
CLI_CIRCLE = {"full": (2, 25), "tiny": (2, 3)}
CLI_PATH_SAMPLES = 17
CLI_INDEX_SIZE = 16
# Copies per round.  Sorted by latency a full round reads: 11 quick commands
# (gap-check, clifford-verify p <= 10), homotopy-verify, index, clifford-verify
# p = 11 and 12, circle.  These counts put the median (answer 20 of 39) well
# inside the index block (answers 14-23) and p75 (answer 29.5) well inside
# the circle block (26-39), so neither falls into a gap between two kinds of
# command, where jitter would move it by a class.
CLI_ROUND = {"homotopy": 2, "index": 10, "circle": 14}


def _matrix_json(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[float(v.real), float(v.imag)] for v in m.reshape(-1)]}


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(argv):
    """One ``specloc`` command line: its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = specloc.cli.main(argv)
    return code, out.getvalue()


def _cli_report(result, exit_code, subcommand):
    code, stdout = result
    if code != exit_code:
        return None, f"exit {code}, expected {exit_code}: {stdout.strip()[-200:]}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"
    if payload.get("subcommand") != subcommand or payload.get("tolerance_factor") != 16.0:
        return None, f"envelope {payload.get('subcommand')}/{payload.get('tolerance_factor')}"
    return payload["report"], None


def _check_gap(result, expected):
    verdict = expected
    report, err = _cli_report(result, 0 if verdict else 2, "gap-check")
    if err:
        return err
    # 5x5 shift: singular values 1,1,1,1,0, so Sigma_x = {-1 x4, 0 x2, 1 x4}
    if report["verdict"] is not verdict or report["delta_max"] != 1.0:
        return f"verdict {report['verdict']}, delta_max {report['delta_max']}"
    return None


def _check_clifford(result, p):
    report, err = _cli_report(result, 0, "clifford-verify")
    if err:
        return err
    if report["verdict"] is not True or report["rep_dim"] != 2 ** ((p + 1) // 2):
        return f"verdict {report['verdict']}, rep_dim {report['rep_dim']}"
    if report["parity"] != ("even" if p % 2 == 0 else "odd"):
        return f"parity {report['parity']}"
    return None


def _check_index(result, expected):
    report, err = _cli_report(result, 0, "index")
    if err:
        return err
    if report["index"] != expected or report["signature"] != 4 * expected:
        return f"index {report['index']}, signature {report['signature']}"
    if len(report["samples"]) != 5 or report["inertia"]["n_zero"] != 0:
        return f"{len(report['samples'])} samples, n_zero {report['inertia']['n_zero']}"
    return None


def _check_homotopy(result, samples):
    report, err = _cli_report(result, 0, "homotopy-verify")
    if err:
        return err
    if report["verdict"] is not True or report["violations"] or len(report["samples"]) != samples:
        return f"verdict {report['verdict']}, {len(report['samples'])} samples"
    return None


def _check_circle(result, expected):
    (m, N), svg, csv = expected
    report, err = _cli_report(result, 0, "circle")
    if err:
        return err
    if report["index"] != m or report["signature"] != 4 * m or report["m"] != m or report["N"] != N:
        return f"index {report['index']}, signature {report['signature']}"
    if not svg.is_file() or not svg.read_text(encoding="utf-8").startswith("<svg"):
        return "SVG plot missing"
    eigs = np.array([float(v) for v in csv.read_text(encoding="utf-8").split()])
    if len(eigs) != 4 * (2 * N + 1) or _signature(eigs, 0.0) != 4 * m:
        return f"CSV has {len(eigs)} eigenvalues, signature {_signature(eigs, 0.0)}"
    return None


def cli_reports(seed: int, size: str, workdir: Path) -> Workload:
    rng = _rng(seed, 5)
    workdir.mkdir(parents=True, exist_ok=True)
    shift = np.eye(5, k=1)
    shift_file = _write_json(workdir / "shift5.json", _matrix_json(shift))

    q, _ = np.linalg.qr(rng.standard_normal((CLI_INDEX_SIZE,) * 2)
                        + 1j * rng.standard_normal((CLI_INDEX_SIZE,) * 2))
    x_file = _write_json(workdir / "unitary.json", _matrix_json(q))  # invertible: index 0
    dirac_file = _write_json(workdir / "dirac.json",
                             _matrix_json(np.diag(np.arange(CLI_INDEX_SIZE) - CLI_INDEX_SIZE / 2)))

    n = 8
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g /= np.linalg.norm(g, 2)
    ts = [k / (CLI_PATH_SAMPLES - 1) for k in range(CLI_PATH_SAMPLES)]
    # ((1-t) + i t) e + 0.3 (1-t) G: invertible throughout, steps far below the guard
    samples = [{"t": t, "matrix": _matrix_json(((1 - t) + 1j * t) * np.eye(n)
                                               + PATH_PERTURBATION * (1 - t) * g)} for t in ts]
    path_file = _write_json(workdir / "path.json",
                            {"delta": 0.0, "mode": "general", "samples": samples})

    m, N = CLI_CIRCLE[size]
    svg, csv = workdir / "circle.svg", workdir / "circle.csv"

    def circle_call():
        for f in (svg, csv):  # so that the check sees this call's plot
            f.unlink(missing_ok=True)
        return run_cli(["circle", "--m", str(m), "--N", str(N), "--plot", str(svg)])

    def cli(label, argv, expected, check):
        return Answer(label, lambda: run_cli(argv), expected, check)

    index_call = cli("index", ["index", "--matrix", x_file, "--dirac", dirac_file,
                               "--delta", "0.5"], 0, _check_index)
    homotopy_call = cli("homotopy-verify", ["homotopy-verify", "--path", path_file],
                        CLI_PATH_SAMPLES, _check_homotopy)
    circle = Answer("circle", circle_call, ((m, N), svg, csv), _check_circle)
    answers = [
        cli("gap-check", ["gap-check", "--matrix", shift_file, "--delta", "0.5"], True, _check_gap),
        cli("gap-check", ["gap-check", "--matrix", shift_file, "--delta", "1.2"], False, _check_gap),
        *[cli(f"clifford-verify-p{p}", ["clifford-verify", "--p", str(p)], p, _check_clifford)
          for p in CLI_CLIFFORD_P[size]],
        *[homotopy_call] * CLI_ROUND["homotopy"],
        *[index_call] * CLI_ROUND["index"],
        *[circle] * CLI_ROUND["circle"],
    ]
    return Workload(lambda k: _shuffled(_rng(seed, 6, k), answers), answers[0])


WORKLOADS = {
    "circle_winding": circle_winding,
    "region_index": region_index,
    "path_certify": path_certify,
    "cli_reports": cli_reports,
}
