"""Command-line front end.

One verb per module capability: ``gap-check``, ``localizer``, ``index``,
``circle``, ``clifford-verify``, ``homotopy-verify``, ``contract``.
Every subcommand takes --tol-factor and --out: reports are JSON, on stdout
or in the --out file.  ``localizer``, ``index`` and ``circle``, the three
that solve a localizer spectrum, also take --plot, which writes an SVG
eigenvalue scatter plus a CSV eigenvalue dump next to it.  Each input has
one route: a flag, or the file a flag names.

Exit codes: 0 success, 2 verdict-false or singular localizer, 1 errors,
64 usage errors.

``main`` may be called any number of times in one process; the parser is
built on the first call and reused.  What may change between calls is read
per call: the help width when help is formatted, and every argument into a
fresh namespace.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import clifford as _clifford
from .errors import SpeclocError
from .gap import delta_singular_check, operator_element
from .homotopy import contract_invertible, verify_path
from .linalg import TolerancePolicy
from .localizer import (
    _localizer_spectrum,
    even_triple,
    index as _index,
    odd_triple,
)
from .models import winding_demo
from .serialize import (
    certificate_to_json,
    dumps,
    element_to_json,
    eigenvalues_to_csv,
    load_matrix,
    localizer_report_to_json,
    path_certificate_to_json,
    path_from_json,
    path_to_json,
    report_envelope,
)
from .svgplot import eigenvalue_scatter

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``, else a usage error."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def _policy(args) -> TolerancePolicy:
    return TolerancePolicy() if args.tol_factor is None else TolerancePolicy(args.tol_factor)


def _emit_plot(plot_path: str, eigenvalues, signature: int, title: str):
    with open(plot_path, "w", encoding="utf-8") as fh:
        fh.write(eigenvalue_scatter(eigenvalues, signature, title))
    csv_path = os.path.splitext(plot_path)[0] + ".csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(eigenvalues_to_csv(eigenvalues))


def _load_element(args, policy, infer_self_adjoint=False):
    # inferring the self-adjoint flag takes up to two norms; only the even localizer reads it
    flag = None if infer_self_adjoint else False
    return operator_element(load_matrix(args.matrix), self_adjoint=flag, policy=policy)


def _load_triple(args, policy):
    dirac = load_matrix(args.dirac)
    if args.parity == "even":
        return even_triple(dirac)
    return odd_triple(dirac, policy=policy)


# Each command takes the parsed arguments and the policy, writes its plot if
# asked, and returns (subcommand, report, exit code); ``main`` wraps the
# report in the envelope and emits it.


def _cmd_gap_check(args, policy):
    x = _load_element(args, policy)
    cert = delta_singular_check(x, args.delta, policy=policy)
    return "gap-check", certificate_to_json(cert), 0 if cert.verdict else 2


def _cmd_localizer(args, policy):
    x = _load_element(args, policy, infer_self_adjoint=args.parity == "even")
    triple = _load_triple(args, policy)
    spectrum = _localizer_spectrum(triple, x, args.kappa, None if args.reduced else args.s, policy)
    if args.reduced:
        title = f"reduced localizer (kappa={args.kappa})"
    else:
        title = f"localizer (kappa={args.kappa}, s={args.s})"
    report = {
        "kappa": args.kappa,
        "s": None if args.reduced else args.s,
        "reduced": bool(args.reduced),
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "inertia": spectrum.inertia._asdict(),
        "signature": spectrum.signature,
        "min_abs_eig": float(np.min(np.abs(spectrum.eigenvalues))),
    }
    if args.plot:
        _emit_plot(args.plot, spectrum.eigenvalues, spectrum.signature, title)
    return "localizer", report, 2 if spectrum.inertia.n_zero > 0 else 0


def _cmd_index(args, policy):
    x = _load_element(args, policy, infer_self_adjoint=args.parity == "even")
    triple = _load_triple(args, policy)
    idx, report = _index(
        triple, x, args.delta, kappa=args.kappa, s=args.s, policy=policy
    )
    if args.plot:
        _emit_plot(args.plot, report.eigenvalues, report.signature, f"localizer index = {idx}")
    return "index", localizer_report_to_json(report), 0


def _cmd_circle(args, policy):
    _, report = winding_demo(args.m, args.N, kappa=args.kappa, s=args.s, policy=policy)
    if args.plot:
        title = f"circle m={args.m}, N={args.N}, kappa={report.kappa}"
        _emit_plot(args.plot, report.eigenvalues, report.signature, title)
    return "circle", {**localizer_report_to_json(report), "m": args.m, "N": args.N}, 0


def _cmd_clifford_verify(args, policy):
    rep = _clifford.clifford_rep(args.p)
    residuals = _clifford.relation_residuals(rep)
    worst = max(residuals.values())
    report = {
        "p": args.p,
        "rep_dim": rep.rep_dim,
        "parity": rep.parity,
        "max_residual": float(worst),
        "residuals": {k: float(v) for k, v in sorted(residuals.items())},
        # generators and grading are unitary: residual threshold at scale 1
        "verdict": bool(worst <= policy.residual_tol(rep.rep_dim, 1.0)),
    }
    return "clifford-verify", report, 0 if report["verdict"] else 2


def _cmd_homotopy_verify(args, policy):
    with open(args.path, "r", encoding="utf-8") as fh:
        path, delta = path_from_json(json.load(fh))
    if args.delta is not None:
        delta = args.delta
    cert = verify_path(path, delta, policy=policy)
    return "homotopy-verify", path_certificate_to_json(cert), 0 if cert.verdict else 2


def _cmd_contract(args, policy):
    x = _load_element(args, policy)
    path = contract_invertible(x, steps=args.steps, policy=policy)
    # sigma_min of each sample is min|Sigma_x|, memoized by contract_invertible
    min_sv = min(float(np.abs(s.doubled(policy).eigenvalues).min()) for s in path.samples)
    report = path_to_json(path, 0.0)
    report["steps"] = args.steps
    report["min_singular_value"] = min_sv
    report["endpoint"] = element_to_json(path.samples[-1])
    return "contract", report, 0


def _add_shared(sub, plot=False):
    # the subcommand's own parser reports the arguments it does not take (see main)
    sub.set_defaults(parser=sub)
    sub.add_argument(
        "--tol-factor", type=float, default=None,
        help="zero-threshold factor (default: the policy default, 16)",
    )
    sub.add_argument("--out", default=None, help="write the JSON report here")
    if plot:
        sub.add_argument("--plot", default=None,
                         help="write an SVG eigenvalue scatter (plus CSV dump) here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built on the first call and shared by every later one."""
    parser = _Parser(prog="specloc")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gap-check", help="delta-singularity certificate")
    p.add_argument("--matrix", required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_shared(p)
    p.set_defaults(func=_cmd_gap_check)

    p = subs.add_parser("localizer", help="assemble a localizer and report its spectrum")
    p.add_argument("--matrix", required=True)
    p.add_argument("--dirac", required=True)
    p.add_argument("--parity", choices=["odd", "even"], default="odd")
    p.add_argument("--kappa", type=float, required=True)
    point = p.add_mutually_exclusive_group()
    point.add_argument("--s", type=float, default=0.0)
    point.add_argument("--reduced", action="store_true")
    _add_shared(p, plot=True)
    p.set_defaults(func=_cmd_localizer)

    p = subs.add_parser("index", help="quarter-signature index of a gapped element")
    p.add_argument("--matrix", required=True)
    p.add_argument("--dirac", required=True)
    p.add_argument("--parity", choices=["odd", "even"], default="odd")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    _add_shared(p, plot=True)
    p.set_defaults(func=_cmd_index)

    p = subs.add_parser("circle", help="winding-number demo on the truncated circle")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    _add_shared(p, plot=True)
    p.set_defaults(func=_cmd_circle)

    p = subs.add_parser("clifford-verify", help="verify Clifford matrix-model relations")
    p.add_argument("--p", type=_int_at_least(1), required=True)
    _add_shared(p)
    p.set_defaults(func=_cmd_clifford_verify)

    p = subs.add_parser("homotopy-verify", help="certify a sampled homotopy path")
    p.add_argument("--path", required=True, help="path JSON file")
    p.add_argument("--delta", type=float, default=None)
    _add_shared(p)
    p.set_defaults(func=_cmd_homotopy_verify)

    p = subs.add_parser("contract", help="contract an invertible element to a scalar")
    p.add_argument("--matrix", required=True)
    p.add_argument("--steps", type=_int_at_least(2), default=33)
    _add_shared(p)
    p.set_defaults(func=_cmd_contract)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # parse_args would report these as "specloc: error: ..."; name the subcommand
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        policy = _policy(args)
        subcommand, report, exit_code = args.func(args, policy)
        text = dumps(report_envelope(subcommand, report, policy))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return exit_code
    except SpeclocError as exc:
        sys.stdout.write(dumps({"error": exc.code, "detail": str(exc)}))
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stdout.write(dumps({"error": "parse_error", "detail": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
