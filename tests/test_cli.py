import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cstarlab
from cstarlab import HermitianDefectError, HermitianMatrix, InputError, cli, convexity, hull, io
from cstarlab.cli import main
from cstarlab.io import (
    canonical_dumps,
    decode_complex_matrix,
    encode_complex_matrix,
    load_matrix,
    load_report,
    report_body_bytes,
    save_matrix,
)

from conftest import non_native_leaves


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def diag13(tmp_path):
    return write_json(
        tmp_path / "T.json",
        {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [3, 0]]]},
    )


@pytest.fixture
def two_eye(tmp_path):
    return write_json(
        tmp_path / "X.json",
        {"dim": 2, "entries": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]},
    )


class TestMatrixIO:
    def test_load_complex(self, tmp_path):
        path = write_json(
            tmp_path / "m.json",
            {"dim": 2, "entries": [[[1, 0], [0, 1]], [[0, -1], [2, 0]]]},
        )
        h = load_matrix(path)
        assert np.allclose(h.array, [[1.0, 1j], [-1j, 2.0]])

    def test_reject_non_hermitian(self, tmp_path):
        path = write_json(
            tmp_path / "bad.json",
            {"dim": 2, "entries": [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]},
        )
        with pytest.raises(HermitianDefectError):
            load_matrix(path)

    def test_round_trip_bit_exact(self, tmp_path):
        h = HermitianMatrix([[0.1 + 0j, 0.2 - 0.7j], [0.2 + 0.7j, -1.5 + 0j]])
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_matrix(p1, h)
        save_matrix(p2, load_matrix(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_encoding_round_trips_bit_exactly(self):
        # strided views, a real array, signed zeros, subnormals and huge
        # entries; the JSON is the per-entry [float(re), float(im)] encoding
        base = np.empty((3, 3), dtype=np.complex128)
        base.real = [[-0.0, 1e300, 1.0], [0.25, -1e300, 5e-324], [-5e-324, 0.1, -0.0]]
        base.imag = [[5e-324, -0.0, 0.5], [-2.0, 0.0, -1e300], [1e300, -0.0, -5e-324]]
        cases = {
            "transposed": (base.T, '{"dim":3,"entries":[[[-0.0,5e-324],[0.25,-2.0],[-5e-324,1e+300]],'
                           '[[1e+300,-0.0],[-1e+300,0.0],[0.1,-0.0]],'
                           '[[1.0,0.5],[5e-324,-1e+300],[-0.0,-5e-324]]]}\n'),
            "row-sliced": (base[::2], '{"dim":2,"entries":[[[-0.0,5e-324],[1e+300,-0.0],[1.0,0.5]],'
                           '[[-5e-324,1e+300],[0.1,-0.0],[-0.0,-5e-324]]]}\n'),
            "real": (base.real, '{"dim":3,"entries":[[[-0.0,0.0],[1e+300,0.0],[1.0,0.0]],'
                     '[[0.25,0.0],[-1e+300,0.0],[5e-324,0.0]],'
                     '[[-5e-324,0.0],[0.1,0.0],[-0.0,0.0]]]}\n'),
        }
        for name, (arr, pinned) in cases.items():
            text = canonical_dumps(encode_complex_matrix(arr))
            assert text == pinned, name
            decoded = decode_complex_matrix(json.loads(text))
            assert decoded.tobytes() == np.asarray(arr, dtype=np.complex128).tobytes(), name


class TestClassify:
    def test_square_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "classify", "--function", "t^2", "--dims", "2,3",
            "--samples", "120", "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        body = load_report(out)["body"]
        assert body["observed_class"] == "operator-convex"
        assert not body["classification_conflict"]
        assert b'"classification_conflict":false' in report_body_bytes(load_report(out))

    def test_quartic_fails_with_payload(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "classify", "--function", "t^4", "--dims", "2",
            "--samples", "500", "--seed", "42", "--out", str(out),
        ])
        assert code == 1
        body = load_report(out)["body"]
        payloads = [r["counterexample"] for r in body["results"] if r["counterexample"]]
        assert payloads
        assert payloads[0]["violation"] < 0

    def test_inverse_log_suites_pass(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "classify", "--function", "t^-1", "--dims", "2",
            "--samples", "150", "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        body = load_report(out)["body"]
        suites = {r["suite"] for r in body["results"]}
        assert "log-midpoint" in suites and "log-harmonic-jensen" in suites
        assert body["observed_class"] == "operator-log-convex"

    def test_unknown_label(self):
        assert main(["classify", "--function", "zeta", "--dims", "2", "--seed", "1"]) == 2

    @pytest.mark.parametrize("label", ["t^nan", "t^inf", "const:nan", "const:inf",
                                       "poly:1,nan", "poly:inf"])
    def test_non_finite_parameter_is_an_input_error(self, label, capsys):
        assert main(["classify", "--function", label, "--dims", "2", "--samples", "5",
                     "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_required(self, capsys):
        assert main(["classify", "--function", "t^2", "--dims", "2"]) == 2

    @pytest.mark.parametrize("max_m", ["0", "-1", "two"])
    def test_max_m_below_one_is_a_parse_error(self, max_m, capsys):
        # with no jensen suite run, classify would call t^2 operator-convex
        # on the midpoint suite alone
        assert main(["classify", "--function", "t^2", "--dims", "2", "--seed", "1",
                     "--max-m", max_m]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --max-m: expected a positive integer" in err


class TestSuiteCommands:
    def test_jensen(self, tmp_path):
        assert main([
            "jensen", "--function", "t^1.5", "--dims", "2", "--m", "2",
            "--samples", "100", "--seed", "7",
        ]) == 0
        assert main([
            "jensen", "--function", "t^4", "--dims", "2", "--m", "2",
            "--samples", "800", "--seed", "42",
        ]) == 1

    def test_epigraph(self):
        assert main([
            "epigraph", "--function", "t^2", "--dims", "2", "--m", "2",
            "--samples", "100", "--seed", "42",
        ]) == 0
        assert main([
            "epigraph", "--function", "t^4", "--dims", "2", "--m", "2",
            "--samples", "500", "--seed", "42",
        ]) == 1

    def test_log_epigraph(self):
        assert main([
            "log-epigraph", "--function", "t^-1", "--dims", "2", "--m", "2",
            "--samples", "100", "--seed", "42",
        ]) == 0

    def test_non_finite_tol_is_an_input_error(self, capsys):
        # a NaN or infinite band would pass every margin and clear t^3
        run = ["jensen", "--function", "t^3", "--dims", "2", "--samples", "50", "--seed", "1"]
        assert main(run) == 1
        for tol in ("nan", "inf", "-inf", "0", "-1"):
            capsys.readouterr()
            assert main([*run, f"--tol={tol}"]) == 2
            assert capsys.readouterr().err.startswith("error: tolerances must be finite")

    @pytest.mark.parametrize("command", ["epigraph", "log-epigraph"])
    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_bad_noise_is_an_input_error(self, command, noise, capsys):
        assert main([command, "--function", "t^-1", "--dims", "2", "--samples", "20",
                     "--seed", "1", "--noise", noise]) == 2
        assert capsys.readouterr().err == (
            f"error: noise_scale must be finite and non-negative, got {float(noise)}\n")

    def test_overflow_reports_only_the_numerical_failure(self, capsys):
        # 5e305 t^2 overflows on the sampled spectra: the suite stops with
        # the tracker's error alone, with no numpy warnings before it
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["jensen", "--function", "poly:0,0,5e305", "--dims", "2", "--m", "1",
                         "--samples", "300", "--seed", "1"])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "numerical failure: sample 207 has margin nan at scale nan; both must be finite\n")

    def test_interval_set(self, tmp_path):
        a_bad = write_json(
            tmp_path / "A.json",
            {"dim": 2, "entries": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]},
        )
        assert main(["interval-set", "--a", a_bad, "--samples", "50", "--seed", "3"]) == 1
        a_good = write_json(
            tmp_path / "I.json",
            {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        )
        assert main(["interval-set", "--a", a_good, "--samples", "200", "--seed", "3"]) == 0


class TestHullCommands:
    def test_member_exit_codes(self, tmp_path, diag13, two_eye):
        assert main(["hull", "member", "--t", diag13, "--x", two_eye]) == 0
        outside = write_json(
            tmp_path / "O.json",
            {"dim": 2, "entries": [[[0, 0], [0, 0]], [[0, 0], [2, 0]]]},
        )
        assert main(["hull", "member", "--t", diag13, "--x", outside]) == 1

    @pytest.mark.parametrize("xe,code", [
        ((1.0 + 5e-10, 1.0 + 5e-10), 0),
        ((1.0 + 1.5e-9, 1.0 + 1.5e-9), 1),
    ], ids=("lam-max", "escape"))
    def test_member_near_degenerate_tol_verifies(self, tmp_path, xe, code):
        # T's gap 5e-10 lies beyond the solver band of --tol 1e-11: X = lam_max I
        # is a member, and an escape of 1e-9 is a non-member whose report verifies
        def diag(values):
            return {"dim": 2, "entries": [[[v if j == k else 0, 0] for k in range(2)]
                                          for j, v in enumerate(values)]}

        t = write_json(tmp_path / "T.json", diag([1.0, 1.0 + 5e-10]))
        x = write_json(tmp_path / "X.json", diag(xe))
        out = tmp_path / "r.json"
        assert main(["hull", "member", "--t", t, "--x", x, "--tol", "1e-11",
                     "--out", str(out)]) == code
        assert main(["verify", "--report", str(out)]) == 0

    def test_tol_flag_widens_psd_band(self, tmp_path):
        # lam_max(X) exceeds lam_max(T) = 4 by 1.2e-6: outside the default
        # band of 4e-8, inside the band of 4e-6 that --tol 1e-6 sets, where
        # the witness fails validation and the verdict is a boundary tie
        def diag(values):
            return {"dim": 3, "entries": [[[v if j == k else 0, 0] for k in range(3)]
                                          for j, v in enumerate(values)]}

        t = write_json(tmp_path / "T.json", diag([1.0, 2.0, 4.0]))
        x = write_json(tmp_path / "X.json", diag([1.5, 2.0, 4.0 * (1 + 3e-7)]))
        out = tmp_path / "r.json"
        assert main(["hull", "member", "--t", t, "--x", x]) == 1
        assert main(["hull", "member", "--t", t, "--x", x, "--tol", "1e-6", "--out", str(out)]) == 3
        assert load_report(out)["body"]["tolerances"] == {
            "abs_floor": 1e-14, "construction_tol": 1e-12, "psd_tol": 1e-6, "solver_tol": 1e-9,
        }

    def test_witness_degenerate_boundary(self, tmp_path, two_eye, capsys):
        # 1e-8 from 2I: inside the psd band of the degenerate T = 2I but
        # beyond its solver band, so the valid witness E_1 = I still gives
        # `boundary`, and its defects are printed from that one decision
        x = write_json(
            tmp_path / "X-tie.json",
            {"dim": 2, "entries": [[[2, 0], [0, 0]], [[0, 0], [2 + 1e-8, 0]]]},
        )
        capsys.readouterr()
        assert main(["hull", "witness", "--t", two_eye, "--x", x,
                     "--out", str(tmp_path / "w.json")]) == 3
        assert capsys.readouterr().out == (
            "boundary: residual 1.00e-08; closed-form witness min_eig 0.00e+00, "
            "sum defect 0.00e+00, moment defect 1.00e-08\n")
        assert not (tmp_path / "w.json").exists()

    def test_witness_blocks_written(self, tmp_path, diag13, two_eye):
        wpath = tmp_path / "w.json"
        assert main(["hull", "witness", "--t", diag13, "--x", two_eye, "--out", str(wpath)]) == 0
        payload = json.loads(wpath.read_text())
        assert payload["eigenvalues"] == [1.0, 3.0]
        blocks = [np.array([[complex(*p) for p in row] for row in b["entries"]])
                  for b in payload["blocks"]]
        assert np.allclose(blocks[0], 0.5 * np.eye(2), atol=1e-7)
        assert np.allclose(blocks[0] + blocks[1], np.eye(2), atol=1e-8)

    def test_sample_member_round_trip(self, tmp_path, diag13):
        sample_path = tmp_path / "member.json"
        assert main([
            "hull", "sample", "--t", diag13, "--m", "3", "--seed", "9",
            "--out", str(sample_path),
        ]) == 0
        assert main(["hull", "member", "--t", diag13, "--x", str(sample_path)]) == 0

    def test_lch_member(self, tmp_path, two_eye):
        t = write_json(
            tmp_path / "T14.json",
            {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [4, 0]]]},
        )
        assert main(["lch", "member", "--t", t, "--x", two_eye]) == 0
        half = write_json(
            tmp_path / "half.json",
            {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        )
        assert main(["lch", "member", "--t", t, "--x", half]) == 1

    def test_dim_mismatch_exit(self, tmp_path, diag13):
        x3 = write_json(
            tmp_path / "x3.json",
            {"dim": 3, "entries": [[[1, 0], [0, 0], [0, 0]],
                                   [[0, 0], [1, 0], [0, 0]],
                                   [[0, 0], [0, 0], [1, 0]]]},
        )
        assert main(["hull", "member", "--t", diag13, "--x", x3]) == 2

    def test_missing_file_exit(self, diag13):
        assert main(["hull", "member", "--t", diag13, "--x", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("argv", [
        ["classify", "--function", "t^2", "--dims", "2", "--samples", "5", "--seed", "1"],
        ["hull", "witness", "--t", "{t}", "--x", "{x}"],
        ["hull", "sample", "--t", "{t}", "--seed", "1"],
    ], ids=("classify", "hull witness", "hull sample"))
    def test_unwritable_out_is_an_input_error(self, tmp_path, diag13, two_eye, capsys, argv):
        # a directory that does not exist; exit 1 would read as a violation
        out = str(tmp_path / "missing" / "r.json")
        argv = [a.format(t=diag13, x=two_eye) for a in argv] + ["--out", out]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")


class TestVerifyAndReport:
    def test_verify_counterexamples(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main([
            "classify", "--function", "t^4", "--dims", "2",
            "--samples", "500", "--seed", "42", "--out", str(out),
        ])
        assert main(["verify", "--report", str(out)]) == 0

    def test_verify_detects_tampering(self, tmp_path):
        out = tmp_path / "r.json"
        main([
            "classify", "--function", "t^4", "--dims", "2",
            "--samples", "500", "--seed", "42", "--out", str(out),
        ])
        report = json.loads(out.read_text())
        for entry in report["body"]["results"]:
            if entry["counterexample"]:
                entry["counterexample"]["violation"] *= 100.0
        out.write_text(json.dumps(report))
        assert main(["verify", "--report", str(out)]) == 1

    def test_verify_map_family_transpose_flags(self, tmp_path):
        out = tmp_path / "r.json"
        assert main([
            "jensen", "--mode", "map-family", "--function", "t^4", "--dims", "2", "--m", "2",
            "--samples", "1000", "--seed", "43", "--out", str(out),
        ]) == 1
        body = report_body_bytes(load_report(out))
        assert b'"transpose":true' in body or b'"transpose":false' in body
        assert main(["verify", "--report", str(out)]) == 0
        # reports written before the flags were JSON booleans hold 0 and 1
        report = json.loads(out.read_text())
        for entry in report["body"]["results"]:
            for spec in entry["counterexample"]["inputs"]["maps"]:
                spec["transpose"] = int(spec["transpose"])
        out.write_text(json.dumps(report))
        assert main(["verify", "--report", str(out)]) == 0

    def test_verify_certificates(self, tmp_path, diag13):
        outside = write_json(
            tmp_path / "O.json",
            {"dim": 2, "entries": [[[0, 0], [0, 0]], [[0, 0], [2, 0]]]},
        )
        out = tmp_path / "r.json"
        main(["hull", "member", "--t", diag13, "--x", outside, "--out", str(out)])
        assert main(["verify", "--report", str(out)]) == 0

    def test_verify_lch_certificate(self, tmp_path):
        t = write_json(
            tmp_path / "T14.json",
            {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [4, 0]]]},
        )
        half = write_json(
            tmp_path / "half.json",
            {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        )
        out = tmp_path / "r.json"
        assert main(["lch", "member", "--t", t, "--x", half, "--out", str(out)]) == 1
        assert main(["verify", "--report", str(out)]) == 0

    def test_verify_rejects_forged_certificate_fields(self, tmp_path, diag13, capsys):
        outside = write_json(
            tmp_path / "O.json",
            {"dim": 2, "entries": [[[0, 0], [0, 0]], [[0, 0], [2, 0]]]},
        )
        out = tmp_path / "r.json"
        assert main(["hull", "member", "--t", diag13, "--x", outside, "--out", str(out)]) == 1
        clean = json.loads(out.read_text())
        forgeries = {"interval": {"interval": [100.0, 200.0]}, "value": {"value": -7.0},
                     "both": {"interval": [100.0, 200.0], "value": -7.0}}
        for name, fields in forgeries.items():
            report = json.loads(json.dumps(clean))
            report["body"]["results"][0]["certificate"].update(fields)
            out.write_text(json.dumps(report))
            capsys.readouterr()
            assert main(["verify", "--report", str(out)]) == 1, name
            named = "stored interval" if name == "interval" else "stored value"
            assert f"FAILED ({named}" in capsys.readouterr().out

    def test_verify_rejects_lch_certificate_on_uninverted_operands(self, tmp_path, capsys):
        # the certificate of X = I/2 against T = diag(1, 4) refers to the
        # inverted pair; paired with T and X themselves its escape is half
        # the stored margin, which the factor-of-two check alone accepts
        t = write_json(
            tmp_path / "T14.json",
            {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [4, 0]]]},
        )
        half = write_json(
            tmp_path / "half.json",
            {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        )
        out = tmp_path / "r.json"
        assert main(["lch", "member", "--t", t, "--x", half, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        cert = report["body"]["results"][0]["certificate"]
        cert["t"], cert["x"] = json.loads(open(t).read()), json.loads(open(half).read())
        out.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", "--report", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "recomputed -5.000000e-01" in printed and "FAILED (stored value" in printed

    def test_report_summary(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main([
            "jensen", "--function", "t^2", "--dims", "2", "--m", "2",
            "--samples", "50", "--seed", "5", "--out", str(out),
        ])
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "jensen" in printed and "no-violation-found" in printed

    def test_report_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", "--in", str(bad)]) == 2

    @pytest.mark.parametrize("body", [{"results": "abc"}, {"results": [1, 2]}, "abc"])
    def test_results_must_be_a_list_of_objects(self, tmp_path, capsys, body):
        # `verify` used to find nothing to verify in a string and exit 0
        bad = write_json(tmp_path / "bad.json", {"body": body})
        with pytest.raises(InputError):
            load_report(bad)
        for argv in (["verify", "--report", bad], ["report", "--in", bad]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("body, message", [
        ({"results": [{"status": "violated", "suite": "jensen"}]},
         "error: result 0 (jensen) has no numeric worst_margin, got None"),
        ({"results": [{"status": "member"}]},
         "error: result 0 (hull) has no numeric residual, got None"),
        ({"command": 5}, "error: the report's command is not a list, got 5"),
    ])
    def test_report_names_a_malformed_field(self, tmp_path, capsys, body, message):
        # `report` used to die with a TypeError and a traceback, exit 1
        bad = write_json(tmp_path / "bad.json", {"body": body})
        assert main(["report", "--in", bad]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_report_prints_fields_of_any_type(self, tmp_path, capsys):
        entry = {"status": "violated", "suite": ["jensen"], "function": 7, "worst_margin": -1}
        report = write_json(tmp_path / "r.json", {"body": {"command": [1, "x"], "results": [entry]}})
        assert main(["report", "--in", report]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "command: 1 x", "seed: None",
            "  ['jensen'] 7: violated (worst margin -1.000e+00, None samples)"]

    def test_verify_malformed_payload_exits_2_without_traceback(self, tmp_path):
        eye = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        payload = {"kind": "midpoint", "dim": 2, "function": "t^4", "inputs": {"xs": [eye]},
                   "violation": -1.0}
        report = write_json(tmp_path / "r.json", {"body": {"results": [{"counterexample": payload}]}})
        src = os.path.dirname(os.path.dirname(cstarlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "cstarlab.cli", "verify", "--report", report],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: midpoint payload")
        assert "Traceback" not in proc.stderr

    def test_verify_eigensolver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # scipy's LinAlgError is a ValueError, but a solver failure is not bad input
        import scipy.linalg

        out = tmp_path / "r.json"
        assert main(["jensen", "--function", "t^4", "--dims", "2", "--m", "2",
                     "--samples", "30", "--seed", "7", "--out", str(out)]) == 1

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        capsys.readouterr()
        assert main(["verify", "--report", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: scipy eigensolver failed")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--function", "t^2", "--dims", "2", "--samples", "60", "--seed", "42"],
            ["jensen", "--function", "t^1.5", "--dims", "2,3", "--m", "2",
             "--samples", "60", "--seed", "11"],
            ["epigraph", "--function", "t^4", "--dims", "2", "--m", "2",
             "--samples", "200", "--seed", "42"],
        ],
    )
    def test_repeat_runs_byte_identical(self, tmp_path, argv):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(argv + ["--out", str(p1)])
        main(argv + ["--out", str(p2)])
        b1 = report_body_bytes(load_report(p1))
        b2 = report_body_bytes(load_report(p2))
        assert b1 == b2

    def test_hull_member_deterministic(self, tmp_path, diag13, two_eye):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["hull", "member", "--t", diag13, "--x", two_eye, "--out", str(p1)])
        main(["hull", "member", "--t", diag13, "--x", two_eye, "--out", str(p2)])
        assert report_body_bytes(load_report(p1)) == report_body_bytes(load_report(p2))

    def test_options_are_taken_by_full_name_only(self, tmp_path, diag13, two_eye, capsys):
        # an abbreviated --out would escape the echo's filter and put the
        # output path in the body, so no option may be abbreviated
        run = ["jensen", "--function", "t^4", "--dims", "2", "--samples", "30", "--seed", "7"]
        out = str(tmp_path / "abbrev.json")
        for argv in (
            [*run, "--ou", out],
            [*run, "--o=" + out],
            [*run, "--ou=" + out],
            ["jensen", "--func", "t^4", "--dims", "2", "--seed", "7"],
            ["hull", "member", "--t", diag13, "--x", two_eye, "--to", "1e-6", "--out", out],
            ["--he"],
        ):
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main([*run, "--out", str(p1)]) == 1
        assert main([*run, f"--out={p2}"]) == 1
        b1, b2 = load_report(p1)["body"], load_report(p2)["body"]
        assert b1 == b2 and b1["command"] == run

    def test_reused_parser_matches_fresh(self, tmp_path, capsys):
        # one parser serves every call in a process; failed parses, help and
        # failed runs in between must change neither bodies nor exit codes
        run = ["jensen", "--function", "t^4", "--dims", "2", "--m", "2",
               "--samples", "30", "--seed", "7"]
        missing = str(tmp_path / "missing.json")
        between = [
            [*run, "--format", "json"],
            run[:-2],
            ["jensen", "--help"],
            ["hull", "member", "--t", missing, "--x", missing],
            ["epigraph", "--function", "t^2", "--dims", "2", "--noise", "0.3",
             "--samples", "5", "--seed", "1"],
        ]

        def outcome(argv):
            code = main(argv)
            printed = capsys.readouterr()
            return code, printed.out, printed.err

        capsys.readouterr()
        fresh = []
        for argv in between:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        assert [code for code, _, _ in fresh] == [2, 2, 0, 2, 0]
        assert "unrecognized arguments: --format json" in fresh[0][2]
        assert "required: --seed" in fresh[1][2]
        assert "--noise" not in fresh[2][1] and "--function" in fresh[2][1]
        assert fresh[3][2].startswith("error: ")

        cli._parser.cache_clear()
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        first = outcome([*run, "--out", str(p1)])
        assert [outcome(argv) for argv in between] == fresh
        assert outcome([*run, "--out", str(p2)]) == first == (1, "jensen t^4 dims [2]: violated\n", "")
        assert report_body_bytes(load_report(p1)) == report_body_bytes(load_report(p2))
        parsed = vars(cli._parser().parse_args(run))
        assert "noise" not in parsed
        assert parsed == vars(cli.build_parser().parse_args(run))

    def test_report_bodies_hold_json_native_leaves(self, tmp_path, monkeypatch):
        # the body each command hands to io.write_report, which serializes
        # it as it stands: violations, certificates and witnesses included
        def matrix(name, values):
            path = tmp_path / name
            save_matrix(path, HermitianMatrix(np.diag(values)))
            return str(path)

        spread, flat = matrix("spread.json", [0.5, 1.0, 4.0]), matrix("flat.json", [1.5, 1.5, 1.5])
        t13, t14 = matrix("t13.json", [1.0, 3.0]), matrix("t14.json", [1.0, 4.0])
        two, low, half = (matrix(f"x{i}.json", v) for i, v in
                          enumerate(([2.0, 2.0], [0.0, 2.0], [0.5, 0.5])))
        run = ["--samples", "30", "--seed", "7"]
        suite = ["--dims", "2", *run]
        cases = [
            (["classify", "--function", "t^4", *suite], 1),
            (["classify", "--function", "t^-1", *suite], 0),
            (["jensen", "--mode", "isometry", "--function", "t^4", *suite], 0),
            (["jensen", "--mode", "tuple", "--function", "t^4", *suite], 1),
            (["jensen", "--mode", "map-family", "--function", "t^4", *suite], 1),
            (["epigraph", "--function", "t^4", "--noise", "0", *suite], 1),
            (["log-epigraph", "--function", "t^0.5", *suite], 1),
            (["interval-set", "--a", spread, *run], 1),
            (["interval-set", "--a", flat, *run], 0),
            (["hull", "member", "--t", t13, "--x", two], 0),
            (["hull", "member", "--t", t13, "--x", low], 1),
            (["lch", "member", "--t", t14, "--x", two], 0),
            (["lch", "member", "--t", t14, "--x", half], 1),
        ]
        bodies = []
        write_report = io.write_report

        def spy(path, body, meta):
            bodies.append(body)
            return write_report(path, body, meta)

        monkeypatch.setattr(io, "write_report", spy)
        for argv, code in cases:
            assert main(argv) == code, argv
            assert non_native_leaves(bodies.pop()) == [], argv

    def test_canonical_dumps_stable(self):
        assert canonical_dumps({"b": 1.5, "a": [1, 2]}) == '{"a":[1,2],"b":1.5}\n'


class TestPatchPoints:
    """Commands reach recheck, the suites and the hull decisions through
    module attributes read when they run, so a patched attribute (a
    profiler's or a tracer's wrapper) sees every call."""

    @staticmethod
    def spy(monkeypatch, module, name) -> list:
        calls, original = [], getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_verify_calls_the_patched_recheck(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        assert main(["jensen", "--function", "t^4", "--dims", "2,3", "--samples", "30",
                     "--seed", "7", "--out", str(out)]) == 1
        payloads = [e["counterexample"] for e in load_report(out)["body"]["results"]
                    if e.get("counterexample")]
        assert payloads
        calls = self.spy(monkeypatch, cli, "recheck_payload")
        assert main(["verify", "--report", str(out)]) == 0
        assert [args[0] for args in calls] == payloads

    def test_jensen_calls_the_patched_suite(self, monkeypatch):
        calls = self.spy(monkeypatch, convexity, "jensen_test")
        assert main(["jensen", "--mode", "map-family", "--function", "t^2", "--dims", "2,3",
                     "--m", "3", "--samples", "10", "--seed", "7"]) == 0
        assert [args[1:4] for args in calls] == [("map-family", 2, 3), ("map-family", 3, 3)]

    def test_hull_member_calls_the_patched_decision(self, diag13, two_eye, monkeypatch):
        calls = self.spy(monkeypatch, hull, "hull_membership")
        assert main(["hull", "member", "--t", diag13, "--x", two_eye]) == 0
        assert [args[0].array.tolist() for args in calls] == [[[1, 0], [0, 3]]]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cstarlab.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # no subcommand
    proc = subprocess.run(
        [sys.executable, "-c", "from cstarlab.cli import main; raise SystemExit(main(['classify', '--help']))"],
        capture_output=True,
        text=True,
    )
    assert "--function" in proc.stdout


def test_scipy_loads_only_for_verify(tmp_path):
    # scipy.linalg is most of the import time of the CLI and only `verify`
    # uses it; a fresh interpreter shows whether anything imports it early
    script = """
import sys
import cstarlab, cstarlab.cli
cstarlab.cli.build_parser()
assert "scipy" not in sys.modules, "scipy imported with the CLI"
report = sys.argv[1]
assert cstarlab.cli.main(["jensen", "--function", "t^4", "--dims", "2", "--m", "2",
                          "--samples", "30", "--seed", "7", "--out", report]) == 1
assert "scipy" not in sys.modules, "scipy imported by a suite"
assert cstarlab.cli.main(["verify", "--report", report]) == 0
assert "scipy.linalg" in sys.modules
"""
    src = os.path.dirname(os.path.dirname(cstarlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("-> ok")
