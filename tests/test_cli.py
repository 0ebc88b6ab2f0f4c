"""Command-line contract: verdict lines, exit codes, deterministic output."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_subset_engine import assert_inclusion_minimal, large_space

from distgeo.cli import fmt12

FIXTURES = Path(__file__).parent / "fixtures"

EQUILATERAL_1E308 = "0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n"


def run_cli(*args, timeout=None):
    # pyproject's filterwarnings does not reach the child, so a numpy
    # RuntimeWarning there is made an error (and a traceback) explicitly.
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "distgeo", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def scaled_fixture(name, k):
    m = np.loadtxt(FIXTURES / name) * k
    return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in m)


class TestCheckEdm:
    def test_triangle_345(self):
        r = run_cli("check-edm", FIXTURES / "triangle345.txt")
        assert r.returncode == 0
        assert r.stdout == "EDM r=2\n"

    def test_triangle_violation(self):
        r = run_cli("check-edm", FIXTURES / "triangle113.txt")
        assert r.returncode == 1
        assert r.stdout.startswith("NOT-EDM lambda_min=-0.8333333")

    def test_ragged_file(self):
        r = run_cli("check-edm", FIXTURES / "ragged.txt")
        assert r.returncode == 2
        assert "line 2" in r.stderr

    def test_missing_file(self):
        r = run_cli("check-edm", FIXTURES / "does_not_exist.txt")
        assert r.returncode == 2

    @pytest.mark.parametrize("text", ["inf 1\n1 0\n", "inf 1\n2 0\n", "0 -inf\n-inf 0\n", "0 -inf\n3 0\n"])
    def test_infinite_entries(self, tmp_path, text):
        f = tmp_path / "infinite.txt"
        f.write_text(text)
        r = run_cli("check-edm", f)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: matrix contains non-finite entries\n"

    @pytest.mark.parametrize("k", [1e-170, 1e160])
    def test_triangle_345_over_the_float_range(self, tmp_path, k):
        f = tmp_path / "triangle345_scaled.txt"
        f.write_text(scaled_fixture("triangle345.txt", k))
        r = run_cli("check-edm", f)
        assert (r.returncode, r.stdout, r.stderr) == (0, "EDM r=2\n", "")

    # At 1e-160 the witness, about -8.3e-321, would keep only a few bits.
    @pytest.mark.parametrize(
        "k, magnitude",
        [(1e-170, "10^-340.1"), (1e-160, "10^-320.1"), (1e160, "10^319.9")],
    )
    def test_witness_beyond_float_range_is_an_error(self, tmp_path, k, magnitude):
        f = tmp_path / "triangle113_scaled.txt"
        f.write_text(scaled_fixture("triangle113.txt", k))
        r = run_cli("check-edm", f)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: eigenvalue of about {magnitude} does not fit in a float\n"

    def test_equilateral_triangle_of_side_1e308(self, tmp_path):
        f = tmp_path / "equilateral.txt"
        f.write_text(EQUILATERAL_1E308)
        r = run_cli("check-edm", f)
        assert (r.returncode, r.stdout, r.stderr) == (0, "EDM r=2\n", "")

    def test_asymmetric_matrix(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n2 0\n")
        r = run_cli("check-edm", bad)
        assert r.returncode == 2
        assert "symmetric" in r.stderr


class TestMds:
    def test_square(self):
        r = run_cli("mds", FIXTURES / "square.txt")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0].startswith("eigenvalues:")
        assert lines[1] == "H=2"
        coords = [line.split("\t") for line in lines[2:]]
        assert len(coords) == 4 and all(len(row) == 2 for row in coords)

    def test_out_file(self, tmp_path):
        out = tmp_path / "coords.txt"
        r = run_cli("mds", FIXTURES / "square.txt", "--out", out)
        assert r.returncode == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 4
        pts = np.array([[float(v) for v in row.split("\t")] for row in rows])
        d01 = np.linalg.norm(pts[0] - pts[1])
        assert d01 == pytest.approx(1.0, abs=1e-9)

    def test_two_points(self, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("0 3\n3 0\n")
        r = run_cli("mds", f)
        assert r.returncode == 0
        assert "H=1" in r.stdout

    def test_zero_matrix(self, tmp_path):
        f = tmp_path / "zero.txt"
        f.write_text("0 0\n0 0\n")
        r = run_cli("mds", f)
        assert r.returncode == 0
        assert "H=0" in r.stdout

    def test_eigenvalue_beyond_float_range_is_an_error(self, tmp_path):
        f = tmp_path / "triangle345_1e160.txt"
        f.write_text(scaled_fixture("triangle345.txt", 1e160))
        r = run_cli("mds", f)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: eigenvalue of about 10^321.1 does not fit in a float\n"

    def test_eigenvalues_of_side_1e308_are_an_error(self, tmp_path):
        f = tmp_path / "equilateral.txt"
        f.write_text(EQUILATERAL_1E308)
        r = run_cli("mds", f)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: eigenvalue of about 10^615.7 does not fit in a float\n"

    # The rounding residue below the rank cut leaves the float range here,
    # while both eigenvalues above it fit.
    @pytest.mark.parametrize("k", [1e-146, 1e-150])
    def test_residue_below_float_range_is_zero(self, tmp_path, k):
        f = tmp_path / "square_scaled.txt"
        f.write_text(scaled_fixture("square.txt", k))
        r = run_cli("mds", f)
        assert (r.returncode, r.stderr) == (0, "")
        lines = r.stdout.splitlines()
        assert lines[0].split("\t")[3:] == ["0.00000000000", "0.00000000000"]
        assert lines[1] == "H=2"

    def test_dim_cap(self):
        r = run_cli("mds", FIXTURES / "square.txt", "--dim", "1")
        assert "H=1" in r.stdout


class TestVolumeAndHeron:
    def test_heron_345(self):
        r = run_cli("heron", 3, 4, 5)
        assert r.returncode == 0
        assert r.stdout == "6.00000000000\n"

    def test_heron_infeasible(self):
        r = run_cli("heron", 1, 1, 3)
        assert r.returncode == 1
        assert r.stdout.startswith("INFEASIBLE radicand=")

    def test_heron_rejects_nonpositive(self):
        r = run_cli("heron", 0, 1, 1)
        assert r.returncode == 2
        assert r.stderr == "error: side a must be a positive real, got 0.0\n"

    @pytest.mark.parametrize("k", [1e-80, 1e150])
    def test_heron_at_extreme_units(self, k):
        r = run_cli("heron", 3 * k, 4 * k, 5 * k)
        assert r.returncode == 0
        assert float(r.stdout) == pytest.approx(6 * k * k, rel=1e-11, abs=0.0)

    def test_heron_beyond_float_range_is_an_error(self):
        r = run_cli("heron", 3e160, 4e160, 5e160)
        assert r.returncode == 2
        assert r.stderr == "error: area of about 10^320.8 does not fit in a float\n"
        assert "inf" not in r.stdout

    def test_heron_radicand_below_float_range_is_an_error(self):
        r = run_cli("heron", 1e-170, 1e-170, 3e-170)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: radicand of about 10^-679.6 does not fit in a float\n"

    def test_volume_triangle(self):
        r = run_cli("volume", FIXTURES / "triangle345.txt")
        assert r.returncode == 0
        assert r.stdout == "6.00000000000\n"

    def test_volume_tetrahedron(self):
        r = run_cli("volume", FIXTURES / "tetra_unit.txt")
        assert r.returncode == 0
        assert float(r.stdout) == pytest.approx(1 / (6 * math.sqrt(2)), abs=1e-9)

    def test_volume_infeasible(self):
        r = run_cli("volume", FIXTURES / "triangle113.txt")
        assert r.returncode == 1
        assert r.stdout.startswith("INFEASIBLE V2=")

    def test_volume_five_points_vanishes(self):
        r = run_cli("volume", FIXTURES / "five_points_3d.txt")
        assert r.returncode == 0
        assert float(r.stdout) == 0.0

    def test_volume_beyond_float_range_is_an_error(self, tmp_path):
        f = tmp_path / "triangle345_1e160.txt"
        f.write_text(scaled_fixture("triangle345.txt", 1e160))
        r = run_cli("volume", f)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert "Traceback" not in r.stderr
        assert "nan" not in r.stdout and "inf" not in r.stdout


    def test_volume_of_side_1e308_is_an_error(self, tmp_path):
        f = tmp_path / "equilateral.txt"
        f.write_text(EQUILATERAL_1E308)
        r = run_cli("volume", f)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: volume of about 10^615.6 does not fit in a float\n"

    def test_volume_below_float_range_is_an_error(self, tmp_path):
        f = tmp_path / "tetra_1e-110.txt"
        f.write_text(scaled_fixture("tetra_unit.txt", 1e-110))
        r = run_cli("volume", f)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: volume of about 10^-330.9 does not fit in a float\n"


class TestTrilaterate:
    DISTS = "1.7320508075688772,1.4142135623730951,1.4142135623730951,1.4142135623730951"

    def test_forward(self):
        r = run_cli(
            "trilaterate", "--anchors", FIXTURES / "anchors3d.txt", "--dists", self.DISTS
        )
        assert r.returncode == 0
        point = [float(v) for v in r.stdout.strip().split("\t")]
        np.testing.assert_allclose(point, [1.0, 1.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("k", [1e-170, 1e160])
    def test_forward_over_the_float_range(self, tmp_path, k):
        point = np.array([0.3, 0.2, 0.1])
        anchors = np.loadtxt(FIXTURES / "anchors3d.txt")
        dists = ",".join(repr(k * float(v)) for v in np.linalg.norm(anchors - point, axis=1))
        f = tmp_path / "anchors_scaled.txt"
        f.write_text(scaled_fixture("anchors3d.txt", k))
        r = run_cli("trilaterate", "--anchors", f, "--dists", dists)
        assert r.returncode == 0
        assert r.stderr == ""
        got = [float(v) for v in r.stdout.strip().split("\t")]
        np.testing.assert_allclose(got, k * point, rtol=1e-9)

    def test_inconsistent(self):
        r = run_cli(
            "trilaterate", "--anchors", FIXTURES / "anchors3d.txt", "--dists", "10,10,10,10"
        )
        assert r.returncode == 1
        assert r.stdout.startswith("NO-SOLUTION residual=")

    def test_count_mismatch(self):
        r = run_cli(
            "trilaterate", "--anchors", FIXTURES / "anchors3d.txt", "--dists", "1,2"
        )
        assert r.returncode == 2
        assert r.stderr == "error: need one distance per anchor: 4 anchors, 2 distances\n"

    def test_dependent_anchors(self, tmp_path):
        f = tmp_path / "line.txt"
        f.write_text("0 0\n1 0\n2 0\n")
        r = run_cli("trilaterate", "--anchors", f, "--dists", "1,1,1")
        assert r.returncode == 2
        assert r.stderr == "error: anchors are affinely dependent\n"


class TestSphereEmbed:
    def test_regular(self):
        r = run_cli("sphere-embed", FIXTURES / "regular_geodesics.txt")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0].startswith("radius=")
        radius = float(lines[0].split("=")[1])
        assert radius == pytest.approx(1.0, abs=1e-6)
        assert len(lines) == 5

    @pytest.mark.parametrize("k", [1e-170, 1e160])
    def test_radius_scales_at_extreme_units(self, tmp_path, k):
        f = tmp_path / "regular_scaled.txt"
        f.write_text(scaled_fixture("regular_geodesics.txt", k))
        r = run_cli("sphere-embed", f)
        assert r.returncode == 0
        radius = float(r.stdout.splitlines()[0].split("=")[1])
        assert radius == pytest.approx(k, rel=1e-6)

    def test_planar_not_applicable(self, tmp_path):
        s2 = repr(math.sqrt(2))
        f = tmp_path / "square_diag.txt"
        f.write_text(f"0 1 {s2} 1\n1 0 1 {s2}\n{s2} 1 0 1\n1 {s2} 1 0\n")
        r = run_cli("sphere-embed", f)
        assert r.returncode == 1
        assert r.stdout.startswith("NOT-APPLICABLE")

    def test_wrong_size(self):
        path = FIXTURES / "triangle345.txt"
        r = run_cli("sphere-embed", path)
        assert r.returncode == 2
        assert r.stderr == f"error: {path}: spherical embedding needs a 4x4 matrix, got 3x3\n"

    def test_no_convergence(self, monkeypatch, capsys):
        from distgeo import cli, sphere

        # a residual that never changes sign on (0, pi/a_max)
        monkeypatch.setattr(sphere, "_inverse_circumradii", lambda xs, g, tol: 2 * xs + 1)
        code = cli.main(["sphere-embed", str(FIXTURES / "regular_geodesics.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("NO-CONVERGENCE ")
        assert captured.err == ""


class TestMenger:
    def test_tetrahedron_in_plane(self):
        r = run_cli("menger", FIXTURES / "tetra_unit.txt", "--dim", "2")
        assert r.returncode == 1
        assert r.stdout.splitlines()[0] == "NOT-EMBEDDABLE subset=[0,1,2,3]"

    def test_tetrahedron_in_space(self):
        r = run_cli("menger", FIXTURES / "tetra_unit.txt", "--dim", "3")
        assert r.returncode == 0
        assert r.stdout.splitlines()[0] == "EMBEDDABLE r=3"

    def test_detail_block_lists_conditions(self):
        r = run_cli("menger", FIXTURES / "tetra_unit.txt", "--dim", "2")
        assert "base(size=3):" in r.stdout
        assert "flat(size=4):" in r.stdout

    @pytest.mark.parametrize("k", [1e-170, 1e-160, 1e160])
    def test_triangle_345_on_a_line_over_the_float_range(self, tmp_path, k):
        f = tmp_path / "triangle345_scaled.txt"
        f.write_text(scaled_fixture("triangle345.txt", k))
        r = run_cli("menger", f, "--dim", "1")
        assert r.returncode == 1
        assert r.stderr == ""
        lines = r.stdout.splitlines()
        assert lines[0] == "NOT-EMBEDDABLE subset=[0,1,2]"
        assert "flat(size=3): checked=1 failed=1" in lines

    @pytest.mark.parametrize("kind", ["lifted", "perturbed", "collinear", "collinear-far"])
    def test_witness_search_on_500_points_is_bounded(self, tmp_path, kind):
        space, must, dim = large_space(kind)
        f = tmp_path / f"{kind}.txt"
        f.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in space.d.d))
        r = run_cli("menger", f, "--dim", dim, timeout=30)
        assert (r.returncode, r.stderr) == (1, "")
        line = r.stdout.strip()
        assert line.startswith("NOT-EMBEDDABLE subset=[")
        witness = tuple(int(i) for i in line.split("[")[1].rstrip("]").split(","))
        assert len(witness) <= dim + 3 and set(must) <= set(witness)
        assert_inclusion_minimal(space, witness, dim)

    def test_equilateral_triangle_of_side_1e308(self, tmp_path):
        f = tmp_path / "equilateral.txt"
        f.write_text(EQUILATERAL_1E308)
        r = run_cli("menger", f, "--dim", "2")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.splitlines()[0] == "EMBEDDABLE r=2"

    def test_semi_metric_violation(self, tmp_path):
        f = tmp_path / "zero_off.txt"
        f.write_text("0 0\n0 0\n")
        r = run_cli("menger", f, "--dim", "1")
        assert r.returncode == 2


class TestSignsAndEuler:
    def test_signs(self):
        assert run_cli("signs", 1, -1, 1, -1).stdout == "4\n"
        assert run_cli("signs", 1, 0, -1, 0).stdout == "2\n"
        assert run_cli("signs", 1, 1, 1).stdout == "0\n"

    def test_signs_rejects_bad_entry(self):
        r = run_cli("signs", 1, 2)
        assert r.returncode == 2
        assert r.stderr == "error: entries must be -1, 0 or +1, got (1, 2)\n"

    def test_euler(self):
        ok = run_cli("euler", 8, 12, 6)
        assert ok.returncode == 0 and ok.stdout == "EULER-OK chi=2\n"
        bad = run_cli("euler", 5, 6, 4)
        assert bad.returncode == 1 and bad.stdout == "EULER-FAIL chi=3\n"

    def test_euler_rejects_negative_count(self):
        r = run_cli("euler", -1, 2, 3)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: vertices must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize(
    "value, text",
    [
        # These printed fewer than 12 significant digits before.
        (0.5, "0.500000000000"),
        (-0.5, "-0.500000000000"),
        (0.83579127781, "0.835791277810"),
        (2.5e-07, "0.000000250000000000"),
        (3e-13, "0.000000000000300000000000"),
        (2e-20, "0.0000000000000000000200000000000"),
        # These printed 12 and are unchanged.
        (6.0, "6.00000000000"),
        (123.456, "123.456000000"),
        (1e-05, "0.0000100000000000"),
        (0.999999999999951, "1.00000000000"),
        (1.23456789012345e20, "123456789012000000000."),
        (2e-100, "0." + "0" * 99 + "200000000000"),
        (0.0, "0.00000000000"),
        (-0.0, "0.00000000000"),
    ],
)
def test_fmt12_prints_12_significant_digits(value, text):
    assert fmt12(value) == text


class TestLibraryErrors:
    def test_unhandled_library_error_exits_2(self, monkeypatch, capsys):
        from distgeo import cli
        from distgeo.errors import NotRealizableError

        def fail(*args, **kwargs):
            raise NotRealizableError(-1.0)

        monkeypatch.setattr(cli, "classify_edm", fail)
        code = cli.main(["check-edm", str(FIXTURES / "triangle345.txt")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: chord lengths are not realizable")


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("heron", "3", "4", "5"),
            ("check-edm", str(FIXTURES / "triangle345.txt")),
            ("mds", str(FIXTURES / "square.txt")),
            ("volume", str(FIXTURES / "five_points_3d.txt")),
            ("sphere-embed", str(FIXTURES / "regular_geodesics.txt")),
            ("menger", str(FIXTURES / "tetra_unit.txt"), "--dim", "2"),
        ],
    )
    def test_byte_identical_runs(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
