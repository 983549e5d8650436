import json
import subprocess
import sys

import numpy as np
import pytest

from cstarlab import HermitianMatrix, HermitianDefectError
from cstarlab.cli import main
from cstarlab.io import (
    canonical_dumps,
    load_matrix,
    load_report,
    report_body_bytes,
    save_matrix,
)


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

    def test_seed_required(self, capsys):
        assert main(["classify", "--function", "t^2", "--dims", "2"]) == 2


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

    def test_canonical_dumps_stable(self):
        assert canonical_dumps({"b": 1.5, "a": [1, 2]}) == '{"a":[1,2],"b":1.5}\n'


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
