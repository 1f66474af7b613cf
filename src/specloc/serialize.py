"""JSON and CSV wire formats.

Matrix JSON: ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with
``data`` row-major.  Matrix CSV: one row per line, cells separated by
semicolons, each cell a ``re,im`` pair.  Readers raise ``ValueError``,
never ``TypeError``, on JSON of the wrong structure, on a JSON boolean
where a number belongs, and on a size that is not an integer.  All report
serialization sorts keys and leaves floats in ``repr`` form, so identical
inputs produce byte-identical output.
"""

import json
import math

import numpy as np

from . import __version__
from .gap import GapCertificate, OperatorElement, operator_element
from .homotopy import HomotopyPath, PathCertificate
from .linalg import TolerancePolicy, as_matrix
from .localizer import LocalizerReport


def matrix_to_json(matrix) -> dict:
    m = as_matrix(matrix)
    data = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


_NUMBER = (int, float, str)  # int() and float() read numeric strings too


def _expect(value, kind, what: str):
    """``value`` if it is an instance of ``kind`` and no JSON boolean, else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} has the wrong JSON type {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    """An integral JSON number, or an integer string such as ``"3"``; ``2.7`` is refused."""
    number = _expect(value, _NUMBER, what)
    if isinstance(number, float) and not number.is_integer():
        raise ValueError(f"{what} must be an integer, got {number!r}")
    return int(number)


def matrix_from_json(payload: dict) -> np.ndarray:
    payload = _expect(payload, dict, "matrix")
    rows = _integer(payload["rows"], "matrix rows")
    cols = _integer(payload["cols"], "matrix cols")
    data = _expect(payload["data"], list, "matrix data")
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols = {rows * cols}")
    try:
        if any(isinstance(v, bool) for pair in data for v in pair):
            raise ValueError("a JSON boolean is not a number")
        flat = np.array(
            [complex(float(re), float(im)) for re, im in data], dtype=np.complex128
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix data must be [re, im] pairs: {exc}") from None
    return flat.reshape(rows, cols)


def matrix_to_csv(matrix) -> str:
    m = as_matrix(matrix)
    lines = []
    for row in m:
        lines.append(";".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        cells = []
        for cell in line.strip().split(";"):
            re, im = cell.split(",")
            cells.append(complex(float(re), float(im)))
        rows.append(cells)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged or empty CSV matrix")
    return np.array(rows, dtype=np.complex128)


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix from a .json or .csv file by extension."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return matrix_from_csv(text)
    return matrix_from_json(json.loads(text))


def _number(x: float):
    return "inf" if math.isinf(x) else float(x)


def certificate_to_json(cert: GapCertificate) -> dict:
    return {
        "sigma_x": [float(v) for v in cert.sigma_x],
        "delta_max": _number(cert.delta_max),
        "delta": float(cert.queried_delta),
        "verdict": bool(cert.verdict),
        "marginal": bool(cert.marginal),
        "s_gaps": [[float(s), float(g)] for s, g in cert.s_gaps],
    }


def localizer_report_to_json(report: LocalizerReport) -> dict:
    return {
        "parity": report.parity,
        "kappa": float(report.kappa),
        "s": float(report.s),
        "delta": float(report.delta),
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "inertia": {
            "n_plus": report.inertia.n_plus,
            "n_zero": report.inertia.n_zero,
            "n_minus": report.inertia.n_minus,
        },
        "signature": int(report.signature),
        "index": int(report.index),
        "min_abs_eig": float(report.min_abs_eig),
        "samples": [[float(s), float(k), int(sig)] for s, k, sig in report.samples],
        "reduced_signature": report.reduced_signature,
    }


def path_certificate_to_json(cert: PathCertificate) -> dict:
    return {
        "verdict": bool(cert.verdict),
        "delta": float(cert.delta),
        "samples": [
            {"t": float(t), "verdict": bool(v), "delta_max": _number(dm)}
            for t, v, dm in cert.sample_trace
        ],
        "step_guard": float(cert.step_guard),
        "max_step": float(cert.max_step),
        "step_margins": [float(m) for m in cert.step_margins],
        "violations": [[kind, int(i)] for kind, i in cert.violations],
    }


def path_to_json(path: HomotopyPath, delta: float) -> dict:
    return {
        "delta": float(delta),
        "samples": [
            {"t": float(t), "matrix": matrix_to_json(x.matrix)}
            for t, x in zip(path.parameters, path.samples)
        ],
    }


def path_from_json(payload: dict) -> tuple[HomotopyPath, float]:
    """Read a path file, samples unflagged; a ``"mode"`` key left by older writers is ignored.

    A ``contract`` report envelope, as ``specloc contract --out`` writes it,
    is read through its ``"report"``.
    """
    payload = _expect(payload, dict, "path")
    if payload.get("subcommand") == "contract":
        payload = _expect(payload["report"], dict, "contract report")
    samples = []
    params = []
    for entry in _expect(payload["samples"], list, "path samples"):
        entry = _expect(entry, dict, "path sample")
        params.append(float(_expect(entry["t"], _NUMBER, "sample t")))
        samples.append(
            operator_element(
                matrix_from_json(entry["matrix"]),
                block_size=_integer(entry.get("block_size", 1), "block_size"),
                self_adjoint=False,
            )
        )
    path = HomotopyPath(tuple(samples), tuple(params))
    return path, float(_expect(payload["delta"], _NUMBER, "path delta"))


def eigenvalues_to_csv(eigenvalues) -> str:
    return "\n".join(repr(float(v)) for v in eigenvalues) + "\n"


def element_to_json(x: OperatorElement) -> dict:
    return dict(
        matrix_to_json(x.matrix), block_size=x.block_size, self_adjoint=bool(x.self_adjoint)
    )


def report_envelope(subcommand: str, payload: dict, policy: TolerancePolicy) -> dict:
    """Common wrapper: every report embeds the tolerance policy and version."""
    return {
        "subcommand": subcommand,
        "version": __version__,
        "tolerance_factor": float(policy.zero_threshold_factor),
        "report": payload,
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
