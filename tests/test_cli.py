import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import specloc
from specloc import (
    bilateral_shift_truncation,
    circle_dirac,
    circle_unitary_truncation,
    even_triple,
    hermitian_spectrum,
    identity_element,
    index,
    localizer_halves,
    operator_element,
)
from specloc.cli import build_parser, main
from specloc.serialize import (
    dumps,
    load_matrix,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    path_to_json,
)
from specloc.homotopy import HomotopyPath

# the keys of an index report; circle adds m and N
LOCALIZER_REPORT_KEYS = {
    "parity", "kappa", "s", "delta", "eigenvalues", "inertia", "signature", "index",
    "min_abs_eig", "samples", "reduced_signature",
}

@pytest.fixture
def shift_file(tmp_path):
    path = tmp_path / "shift.json"
    path.write_text(dumps(matrix_to_json(bilateral_shift_truncation(5).matrix)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_matrix_json_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_sizes_read_integer_strings_and_integral_floats():
    # the refused sizes (fractions, booleans) are inputs of test_machine_readable_error
    payload = {"rows": "1", "cols": 1.0, "data": [[1.0, 0.0]]}
    assert matrix_from_json(payload).shape == (1, 1)


def test_matrix_csv_round_trip():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(matrix_from_csv(matrix_to_csv(m)), m)
    with pytest.raises(ValueError, match="ragged"):
        matrix_from_csv("1.0,0.0;2.0,0.0\n3.0,0.0\n")


def test_csv_matrix_file(capsys, shift_file, tmp_path):
    x = bilateral_shift_truncation(5).matrix
    csv = tmp_path / "shift.csv"
    csv.write_text(matrix_to_csv(x))
    np.testing.assert_array_equal(load_matrix(str(csv)), x)
    reports = [
        run(capsys, ["gap-check", "--matrix", path, "--delta", "0.5"])
        for path in (str(csv), shift_file)
    ]
    assert reports[0] == reports[1] and reports[0][0] == 0


def test_gap_check_verdict_true(capsys, shift_file, monkeypatch):
    # the factor has one route, --tol-factor: no environment variable sets it
    monkeypatch.setenv("SPECLOC_TOL_FACTOR", "32")
    code, report = run(capsys, ["gap-check", "--matrix", shift_file, "--delta", "0.5"])
    assert code == 0
    assert report["report"]["verdict"] is True
    assert report["report"]["delta_max"] == 1.0
    assert report["version"]
    assert report["tolerance_factor"] == 16.0
    assert set(report) == {"subcommand", "version", "tolerance_factor", "report"}


def test_gap_check_verdict_false_exit_2(capsys, shift_file):
    code, report = run(capsys, ["gap-check", "--matrix", shift_file, "--delta", "1.2"])
    assert code == 2
    assert report["report"]["verdict"] is False


def test_a_real_matrix_file_reaches_lapack_as_float64(capsys, shift_file, solve_inputs):
    # the JSON parser reads every matrix as complex128; the element holds it as
    # float64, so gap-check's one SVD runs in real arithmetic
    assert load_matrix(shift_file).dtype == np.complex128
    code, _ = run(capsys, ["gap-check", "--matrix", shift_file, "--delta", "0.5"])
    assert code == 0
    assert [(name, a.dtype) for name, a in solve_inputs] == [("svd", np.dtype(np.float64))]


def test_gap_check_report_keys_and_no_mode_flags(capsys, shift_file):
    # one certification route: the report carries no "mode", and the former
    # --mode and --grid-points flags are usage errors
    code, report = run(capsys, ["gap-check", "--matrix", shift_file, "--delta", "0.5"])
    assert code == 0
    keys = {"sigma_x", "delta_max", "delta", "verdict", "marginal", "s_gaps"}
    assert set(report["report"]) == keys
    assert len(report["report"]["s_gaps"]) == 9
    for flag in (["--mode", "grid"], ["--grid-points", "9"]):
        with pytest.raises(SystemExit) as exc:
            main(["gap-check", "--matrix", shift_file, "--delta", "0.5", *flag])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""


def test_circle_with_plot(capsys, tmp_path):
    svg = tmp_path / "fig1.svg"
    code, report = run(
        capsys,
        ["circle", "--m", "1", "--N", "3", "--kappa", "1", "--plot", str(svg)],
    )
    assert code == 0
    assert report["report"]["index"] == 1
    assert report["report"]["reduced_signature"] == 2
    assert set(report["report"]) == LOCALIZER_REPORT_KEYS | {"m", "N"}
    text = svg.read_text()
    assert text.startswith("<svg") and "signature = 4" in text
    csv = (tmp_path / "fig1.csv").read_text().strip().splitlines()
    assert len(csv) == 28  # 4 * (2N+1)


def test_localizer_and_index_plots(capsys, tmp_path):
    # the SVG is written, and the CSV beside it holds the reported spectrum
    dirac = tmp_path / "dirac.json"
    dirac.write_text(dumps(matrix_to_json(circle_dirac(3).D0)))
    matrix = tmp_path / "u.json"
    matrix.write_text(dumps(matrix_to_json(circle_unitary_truncation(1, 3).matrix)))
    pencil = ["--matrix", str(matrix), "--dirac", str(dirac)]
    for name, argv in (
        ("localizer", ["localizer", *pencil, "--kappa", "1", "--s", "0"]),
        ("index", ["index", *pencil, "--delta", "1", "--kappa", "1", "--s", "0"]),
    ):
        svg = tmp_path / f"{name}.svg"
        code, report = run(capsys, [*argv, "--plot", str(svg)])
        assert code == 0 and svg.read_text().startswith("<svg")
        eigs = [float(v) for v in (tmp_path / f"{name}.csv").read_text().split()]
        assert eigs == report["report"]["eigenvalues"]
        assert hermitian_spectrum(np.diag(eigs)).signature == report["report"]["signature"] == 4


def test_index_subcommand(capsys, tmp_path):
    dirac = tmp_path / "dirac.json"
    dirac.write_text(dumps(matrix_to_json(circle_dirac(3).D0)))
    matrix = tmp_path / "x.json"
    from specloc import circle_unitary_truncation

    matrix.write_text(dumps(matrix_to_json(circle_unitary_truncation(2, 3).matrix)))
    code, report = run(
        capsys,
        [
            "index", "--matrix", str(matrix), "--dirac", str(dirac),
            "--delta", "1", "--kappa", "0.1", "--s", "0",
        ],
    )
    assert code == 0
    assert report["report"]["index"] == 2
    assert report["report"]["signature"] == 8
    assert set(report["report"]) == LOCALIZER_REPORT_KEYS


def test_localizer_subcommand(capsys, tmp_path):
    dirac = tmp_path / "dirac.json"
    dirac.write_text(dumps(matrix_to_json(circle_dirac(3).D0)))
    matrix = tmp_path / "e.json"
    matrix.write_text(dumps(matrix_to_json(identity_element(7).matrix)))
    code, report = run(
        capsys,
        ["localizer", "--matrix", str(matrix), "--dirac", str(dirac),
         "--kappa", "0.5", "--s", "0.3"],
    )
    assert code == 0
    assert report["report"]["signature"] == 0
    assert len(report["report"]["eigenvalues"]) == 28


def test_even_localizer_and_index_subcommands(capsys, tmp_path):
    # x = I_3 (+) diag(1, -1, -1) commutes with the grading; its index is
    # (sig x_+ - sig x_-) / 2 = (3 - (-1)) / 2 = 2
    rng = np.random.default_rng(2)
    d0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = np.diag([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    dirac, matrix = tmp_path / "d0.json", tmp_path / "x.json"
    dirac.write_text(dumps(matrix_to_json(d0)))
    matrix.write_text(dumps(matrix_to_json(x)))
    common = ["--matrix", str(matrix), "--dirac", str(dirac), "--parity", "even"]
    triple, element = even_triple(d0), operator_element(x)

    code, report = run(capsys, ["localizer", *common, "--kappa", "0.1", "--s", "0.2"])
    expected = hermitian_spectrum(*localizer_halves(triple, element, 0.1, 0.2))
    assert code == 0
    assert report["report"]["eigenvalues"] == [float(v) for v in expected.eigenvalues]
    assert report["report"]["signature"] == expected.signature == 8

    code, report = run(capsys, ["index", *common, "--delta", "0.5"])
    assert (code, report["report"]["parity"]) == (0, "even")
    assert report["report"]["index"] == index(triple, element, 0.5)[0] == 2

    # the flag is inferred, so a non-self-adjoint even element is refused
    matrix.write_text(dumps(matrix_to_json(x + np.diag([0, 0.5j, 0, 0, 0, 0]))))
    for argv in (["localizer", *common, "--kappa", "0.1"], ["index", *common, "--delta", "0.5"]):
        code, report = run(capsys, argv)
        assert (code, report["error"]) == (1, "mode_mismatch")


def test_self_adjoint_flag_is_inferred_only_where_it_is_read(capsys, shift_file, tmp_path,
                                                            solve_counts):
    # gap-check solves Sigma_x only: no ||x - x*|| and no ||x|| for a flag
    solve_counts.clear()
    code, _ = run(capsys, ["gap-check", "--matrix", shift_file, "--delta", "0.5"])
    assert (code, solve_counts["svd"]) == (0, 1)
    # homotopy-verify: one SVD per sample; sqrt(||D||_1 ||D||_inf) decides every step
    rng = np.random.default_rng(6)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = np.eye(4) + 0.3 * g / np.linalg.norm(g, 2)
    samples = [{"t": t, "matrix": matrix_to_json((1 - t) * x + t * np.eye(4))}
               for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    path_file = tmp_path / "path.json"
    path_file.write_text(dumps({"delta": 0.0, "samples": samples}))
    solve_counts.clear()
    code, _ = run(capsys, ["homotopy-verify", "--path", str(path_file)])
    assert (code, solve_counts["svd"]) == (0, 5)


def test_localizer_singular_exit_2(capsys, tmp_path):
    dirac = tmp_path / "dirac.json"
    dirac.write_text(dumps(matrix_to_json(np.diag([-1.0, 0.0, 1.0]))))
    matrix = tmp_path / "zero.json"
    matrix.write_text(dumps(matrix_to_json(np.zeros((3, 3)))))
    code, report = run(
        capsys,
        ["localizer", "--matrix", str(matrix), "--dirac", str(dirac),
         "--kappa", "1", "--reduced"],
    )
    assert code == 2
    assert report["report"]["min_abs_eig"] == 0.0
    assert report["report"]["inertia"] == {"n_plus": 2, "n_zero": 2, "n_minus": 2}


def test_clifford_verify(capsys):
    code, report = run(capsys, ["clifford-verify", "--p", "4"])
    assert code == 0
    assert report["report"]["max_residual"] < 1e-12
    assert report["report"]["verdict"] is True


def test_clifford_verify_at_the_tightest_factor(capsys):
    # the verdict threshold is the policy's residual tolerance at rep_dim
    code, report = run(capsys, ["clifford-verify", "--p", "12", "--tol-factor", "1"])
    assert code == 0
    assert report["tolerance_factor"] == 1.0
    assert report["report"]["rep_dim"] == 64
    assert report["report"]["verdict"] is True


def test_homotopy_verify(capsys, tmp_path):
    e = identity_element(2)
    params = (0.0, 0.5, 1.0)
    path = HomotopyPath((e, e, e), params)
    payload = path_to_json(path, 0.5)
    path_file = tmp_path / "path.json"
    path_file.write_text(dumps(payload))
    code, report = run(capsys, ["homotopy-verify", "--path", str(path_file)])
    assert code == 0
    assert report["report"]["verdict"] is True


def test_homotopy_verify_delta_flag_overrides_the_file(capsys, tmp_path):
    # e has Sigma = {-1, 1}: gapped at the file's 0.5, not at the flag's 1.5
    e = identity_element(2)
    path_file = tmp_path / "path.json"
    path_file.write_text(dumps(path_to_json(HomotopyPath((e, e), (0.0, 1.0)), 0.5)))
    code, report = run(capsys, ["homotopy-verify", "--path", str(path_file)])
    assert (code, report["report"]["delta"]) == (0, 0.5)
    code, report = run(capsys, ["homotopy-verify", "--path", str(path_file), "--delta", "1.5"])
    assert (code, report["report"]["delta"]) == (2, 1.5)
    assert report["report"]["violations"] == [["gap", 0], ["gap", 1]]


def test_homotopy_verify_failure_exit_2(capsys, tmp_path):
    e = identity_element(1).matrix
    samples = [
        {"t": t, "matrix": matrix_to_json((1 - t) * e + t * (-e))}
        for t in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    path_file = tmp_path / "bad.json"
    path_file.write_text(dumps({"delta": 0.5, "mode": "general", "samples": samples}))
    code, report = run(capsys, ["homotopy-verify", "--path", str(path_file)])
    assert code == 2
    assert report["report"]["verdict"] is False
    assert report["report"]["violations"]


def test_homotopy_verify_ignores_a_mode_key(capsys, tmp_path):
    # path files written with the former "mode" key still load; the key selects nothing
    e = identity_element(2)
    payload = path_to_json(HomotopyPath((e, e), (0.0, 1.0)), 0.5)
    assert "mode" not in payload
    reports = []
    for mode in (None, "general", "sa"):
        path_file = tmp_path / f"path-{mode}.json"
        path_file.write_text(dumps(payload if mode is None else {**payload, "mode": mode}))
        code, report = run(capsys, ["homotopy-verify", "--path", str(path_file)])
        assert code == 0 and "mode" not in report["report"]
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


def test_contract_subcommand(capsys, tmp_path):
    matrix = tmp_path / "x.json"
    matrix.write_text(dumps(matrix_to_json(np.eye(2))))
    code, report = run(capsys, ["contract", "--matrix", str(matrix), "--steps", "9"])
    assert code == 0
    assert len(report["report"]["samples"]) == 9
    assert "mode" not in report["report"]
    assert report["report"]["min_singular_value"] > 0.7


def test_homotopy_verify_reads_the_file_contract_writes(capsys, tmp_path):
    matrix = tmp_path / "x.json"
    matrix.write_text(dumps(matrix_to_json(np.array([[2.0, 1.0], [0.0, 1.5j]]))))
    out = tmp_path / "p.json"
    code, _ = run(capsys, ["contract", "--matrix", str(matrix), "--steps", "9", "--out", str(out)])
    assert code == 0
    code, report = run(capsys, ["homotopy-verify", "--path", str(out)])
    assert code == 0 and report["report"]["verdict"] is True
    margins = report["report"]["step_margins"]
    assert len(margins) == 8 and min(margins) > 0
    # only a contract envelope is unwrapped: any other envelope is not a path
    envelope = json.loads(out.read_text())
    other = tmp_path / "other.json"
    other.write_text(dumps({**envelope, "subcommand": "gap-check"}))
    code, report = run(capsys, ["homotopy-verify", "--path", str(other)])
    assert (code, report["error"]) == (1, "parse_error")


def test_contract_solves_each_sample_once(capsys, tmp_path, solve_counts):
    # one SVD per sample certifies it, and the report's min_singular_value
    # reads the samples' memoized spectra; no flag is inferred
    rng = np.random.default_rng(5)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = np.eye(8) + 0.3 * g / np.linalg.norm(g, 2)
    matrix = tmp_path / "x.json"
    matrix.write_text(dumps(matrix_to_json(x)))
    solve_counts.clear()
    code, report = run(capsys, ["contract", "--matrix", str(matrix)])
    assert code == 0 and solve_counts["svd"] == 33
    samples = [matrix_from_json(s["matrix"]) for s in report["report"]["samples"]]
    worst = min(np.linalg.svd(m, compute_uv=False)[-1] for m in samples)
    assert report["report"]["min_singular_value"] == worst


def test_reports_byte_identical(capsys, shift_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["gap-check", "--matrix", shift_file, "--delta", "0.5",
                     "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_machine_readable_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, report = run(capsys, ["gap-check", "--matrix", str(missing), "--delta", "0.5"])
    assert code == 1
    assert report["error"] == "parse_error"
    # JSON of the wrong structure is a parse error, not a traceback
    good = {"t": 0.0, "matrix": matrix_to_json(np.eye(2))}
    cases = [
        ("gap-check", [1, 2]),
        ("gap-check", None),
        ("gap-check", {"rows": 1, "cols": 1, "data": 5}),
        ("gap-check", {"rows": None, "cols": 1, "data": [[1.0, 0.0]]}),
        ("gap-check", {"rows": 2, "cols": 1, "data": [[1.0, 0.0]]}),
        ("homotopy-verify", {"delta": 0.5, "samples": 5}),
        ("homotopy-verify", {"delta": 0.5, "samples": [good, {"t": 1.0, "matrix": [1, 2]}]}),
        ("homotopy-verify", {"delta": 0.5, "samples": [good, {**good, "t": None}]}),
        ("homotopy-verify", [good]),
        # a block size below 1, a fractional size, a boolean for a number
        ("homotopy-verify", {"delta": 0.5, "samples": [{**good, "block_size": 0}, good]}),
        ("homotopy-verify", {"delta": 0.5, "samples": [{**good, "block_size": 2.7}, good]}),
        ("homotopy-verify", {"delta": True, "samples": [good, {**good, "t": 1.0}]}),
        ("homotopy-verify", {"delta": 0.5, "samples": [good, {**good, "t": True}]}),
        ("gap-check", {"rows": 1.9, "cols": 1, "data": [[1.0, 0.0]]}),
        ("gap-check", {"rows": True, "cols": 1, "data": [[1.0, 0.0]]}),
        ("gap-check", {"rows": float("inf"), "cols": 1, "data": [[1.0, 0.0]]}),
        ("gap-check", {"rows": 1, "cols": 1, "data": [[True, 0.0]]}),
    ]
    flags = {"gap-check": ["--matrix"], "homotopy-verify": ["--path"]}
    for k, (command, payload) in enumerate(cases):
        bad = tmp_path / f"bad-{k}.json"
        bad.write_text(json.dumps(payload))
        extra = ["--delta", "0.5"] if command == "gap-check" else []
        code, report = run(capsys, [command, *flags[command], str(bad), *extra])
        assert (code, report["error"]) == (1, "parse_error"), (command, payload)


def test_a_bad_kappa_is_a_parse_error_on_every_route(capsys, tmp_path):
    # the point check runs before any assembly, so no inf * 0 warns on the way
    dirac = tmp_path / "dirac.json"
    dirac.write_text(dumps(matrix_to_json(circle_dirac(3).D0)))
    matrix = tmp_path / "x.json"
    matrix.write_text(dumps(matrix_to_json(circle_unitary_truncation(1, 3).matrix)))
    files = ["--matrix", str(matrix), "--dirac", str(dirac)]
    commands = [
        ["circle", "--m", "1", "--N", "3", "--kappa", "inf"],
        ["localizer", *files, "--kappa", "-1", "--reduced"],
        ["localizer", *files, "--kappa", "inf"],
        ["index", *files, "--delta", "0.5", "--kappa", "inf"],
    ]
    for argv in commands:
        code, report = run(capsys, argv)
        assert (code, report["error"]) == (1, "parse_error"), argv
        assert "kappa must be finite and positive" in report["detail"]


def test_a_kappa_whose_product_with_the_dirac_block_overflows_is_a_parse_error(capsys, tmp_path):
    # kappa = 1e308 is finite, but kappa * D0 is not: refused before any product
    # is formed, so nothing warns, on the split route and on the dense one
    files = {}
    for name, m in (("dirac", circle_dirac(3).D0), ("x", circle_unitary_truncation(1, 3).matrix),
                    ("complex_dirac", [[0.0, 1e300j], [-1e300j, 0.0]]), ("unit", np.eye(2))):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(dumps(matrix_to_json(np.asarray(m))))
    circle = ["--matrix", str(files["x"]), "--dirac", str(files["dirac"])]
    dense = ["--matrix", str(files["unit"]), "--dirac", str(files["complex_dirac"])]
    commands = [
        ["circle", "--m", "1", "--N", "3", "--kappa", "1e308"],
        ["circle", "--m", "1", "--N", "3", "--kappa", "1e308", "--s", "0.3"],
        ["localizer", *circle, "--kappa", "1e308"],
        ["localizer", *circle, "--kappa", "1e308", "--reduced"],
        ["index", *circle, "--delta", "0.5", "--kappa", "1e308"],
        ["localizer", *dense, "--kappa", "1e10"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in commands:
            code, report = run(capsys, argv)
            assert (code, report["error"]) == (1, "parse_error"), argv
            assert "kappa * D0 overflows" in report["detail"]


def test_an_empty_dirac_block_is_a_dimension_mismatch_on_both_routes(capsys, tmp_path):
    one, empty = tmp_path / "one.json", tmp_path / "empty.json"
    one.write_text(dumps(matrix_to_json(np.eye(1))))
    empty.write_text(json.dumps({"rows": 0, "cols": 0, "data": []}))
    files = ["--matrix", str(one), "--dirac", str(empty)]
    for parity in ("odd", "even"):
        for argv in (["index", *files, "--delta", "0.5"], ["localizer", *files, "--kappa", "1"]):
            code, report = run(capsys, [*argv, "--parity", parity])
            assert (code, report["error"]) == (1, "dimension_mismatch"), argv
            assert "empty" in report["detail"]


def test_default_region_index_refuses_a_singular_non_normal_element(capsys, tmp_path):
    # the circle truncation m = 1, N = 3: its route is an explicit (kappa, s)
    dirac, matrix = tmp_path / "dirac.json", tmp_path / "x.json"
    dirac.write_text(dumps(matrix_to_json(circle_dirac(3).D0)))
    matrix.write_text(dumps(matrix_to_json(circle_unitary_truncation(1, 3).matrix)))
    files = ["--matrix", str(matrix), "--dirac", str(dirac), "--delta", "1"]
    code, report = run(capsys, ["index", *files])
    assert (code, report["error"]) == (1, "not_gapped")
    code, report = run(capsys, ["index", *files, "--kappa", "1", "--s", "0"])
    assert (code, report["report"]["index"]) == (0, 1)


def test_module_error_code(capsys, tmp_path):
    matrix = tmp_path / "x.json"
    matrix.write_text(dumps(matrix_to_json(bilateral_shift_truncation(3).matrix)))
    code, report = run(capsys, ["contract", "--matrix", str(matrix)])
    assert code == 1
    assert report["error"] == "not_invertible"


def test_usage_error_exit_64(capsys):
    gap = ["gap-check", "--matrix", "x.json", "--delta", "0.5"]
    cases = [
        ["gap-check", "--matrix"],
        [*gap, "--mode", "self-adjoint"],
        ["homotopy-verify", "--path", "path.json", "--mode", "sa"],
        # circle reads m and N from its flags only, and both are required
        ["circle", "--config", "model.json"],
        ["circle", "--m", "1"],
        ["circle", "--N", "3"],
        # --plot belongs to the three commands that solve a localizer spectrum
        [*gap, "--plot", "x.svg"],
        ["clifford-verify", "--p", "4", "--plot", "x.svg"],
        ["homotopy-verify", "--path", "path.json", "--plot", "x.svg"],
        ["contract", "--matrix", "x.json", "--plot", "x.svg"],
        # the reduced localizer has no shift
        ["localizer", "--matrix", "x.json", "--dirac", "d.json", "--kappa", "1",
         "--reduced", "--s", "0.3"],
        # no number of any command depends on the block size: the localizer's
        # level is the element's size over the Dirac's, a zero size included
        [*gap, "--block-size", "2"],
        ["contract", "--matrix", "x.json", "--block-size", "2"],
        ["index", "--matrix", "x.json", "--dirac", "d.json", "--delta", "0.5",
         "--block-size", "0"],
        ["localizer", "--matrix", "x.json", "--dirac", "d.json", "--kappa", "1",
         "--block-size", "3"],
        # p below 1 and a path of fewer than two samples: refused before any input is read
        ["clifford-verify", "--p", "0"],
        ["clifford-verify", "--p", "-2"],
        ["clifford-verify", "--p", "x"],
        ["contract", "--matrix", "x.json", "--steps", "1"],
    ]
    # no subcommand takes a seed
    cases += [[*argv, "--seed", "1"] for argv in (
        gap,
        ["localizer", "--matrix", "x.json", "--dirac", "d.json", "--kappa", "1"],
        ["index", "--matrix", "x.json", "--dirac", "d.json", "--delta", "1"],
        ["circle", "--m", "1", "--N", "3"],
        ["clifford-verify", "--p", "4"],
        ["homotopy-verify", "--path", "path.json"],
        ["contract", "--matrix", "x.json"],
    )]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        if argv[-2:] == ["--seed", "1"]:
            # reported by the subcommand's parser, which names itself
            message = f"specloc {argv[0]}: error: unrecognized arguments: --seed 1"
            assert message in captured.err, argv
        if argv[-2:] in (["--p", "0"], ["--steps", "1"]):
            low = 1 if argv[-2] == "--p" else 2
            assert f"argument {argv[-2]}: must be at least {low}, got {argv[-1]}" in captured.err


def test_every_subcommand_takes_the_shared_flags_and_three_take_plot():
    flags = {}
    for action in build_parser()._subparsers._group_actions:
        for name, sub in action.choices.items():
            flags[name] = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
    assert sum(map(len, flags.values())) == 40
    for name, options in flags.items():
        assert {"--tol-factor", "--out"} <= options and "--seed" not in options
        assert ("--plot" in options) == (name in ("localizer", "index", "circle")), name


@pytest.mark.parametrize("factor", ["inf", "nan", "-1"])
def test_tol_factor_must_be_finite_and_positive(capsys, shift_file, factor):
    argv = ["gap-check", "--matrix", shift_file, "--delta", "0.5", "--tol-factor", factor]
    code, report = run(capsys, argv)
    assert (code, report["error"]) == (1, "parse_error")


def test_homotopy_verify_rejects_a_nan_parameter(capsys, tmp_path):
    e = matrix_to_json(np.eye(2))
    samples = [{"t": t, "matrix": e} for t in (0.0, float("nan"), 1.0)]
    path_file = tmp_path / "nan.json"
    path_file.write_text(json.dumps({"delta": 0.5, "samples": samples}))
    assert "NaN" in path_file.read_text()
    code, report = run(capsys, ["homotopy-verify", "--path", str(path_file)])
    assert (code, report["error"]) == (1, "shape_mismatch")


def _call(capsys, argv):
    """Exit code, stdout and stderr of one ``main`` call, usage errors and help included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_match_a_freshly_built_parser(capsys, shift_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    matrix, dirac = tmp_path / "x.json", tmp_path / "dirac.json"
    matrix.write_text(dumps(matrix_to_json(circle_unitary_truncation(2, 3).matrix)))
    dirac.write_text(dumps(matrix_to_json(circle_dirac(3).D0)))
    sequence = [
        (["gap-check", "--matrix", shift_file, "--delta", "0.5"], 0),
        (["gap-check", "--matrix"], 64),
        (["--help"], 0),
        (["gap-check", "--matrix", str(bad), "--delta", "0.5"], 1),
        (["circle", "--m", "1", "--N", "3", "--kappa", "1"], 0),
        (["index", "--matrix", str(matrix), "--dirac", str(dirac),
          "--delta", "1", "--kappa", "0.1", "--s", "0"], 0),
    ]
    build_parser.cache_clear()
    shared = [_call(capsys, argv) for argv, _ in sequence]
    assert [code for code, _, _ in shared] == [code for _, code in sequence]
    assert "parse_error" in shared[3][1] and "usage:" in shared[2][1]
    for (argv, _), result in zip(sequence, shared):
        build_parser.cache_clear()
        assert _call(capsys, argv) == result, argv


def test_the_parser_is_built_once_per_process(capsys, shift_file):
    build_parser.cache_clear()
    for _ in range(3):
        assert main(["gap-check", "--matrix", shift_file, "--delta", "0.5"]) == 0
    with pytest.raises(SystemExit):
        main(["gap-check", "--matrix"])
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # importing the CLI builds nothing; the first call does
    probe = "import specloc.cli as c; print(c.build_parser.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(specloc.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"
