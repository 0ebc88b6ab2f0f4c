"""Command-line contract: verdict lines, exit codes, deterministic output."""

import io
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_subset_engine import assert_inclusion_minimal, large_space, make_space

from distgeo import cli
from distgeo.cli import fmt12
from distgeo.matrices import Realization, edm_from_realization
from distgeo.semimetric import validate_semi_metric, verify_menger_criterion

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


class TestVolume:
    """The regular simplex ones(m, m) - eye(m), whose volume is
    sqrt(m / (2^(m-1) ((m-1)!)^2)): the denominator exceeds the float range
    from m = 100, and the volume itself lies below the normal range from
    m = 162."""

    @staticmethod
    def run_regular(tmp_path, m):
        f = tmp_path / f"regular{m}.txt"
        np.savetxt(f, np.ones((m, m)) - np.eye(m), fmt="%g")
        return run_cli("volume", f)

    @pytest.mark.parametrize(
        "m, digits, exponent", [(99, "187490535570", -168), (100, "134589617823", -170)]
    )
    def test_regular_simplex_below_1e_minus_100(self, tmp_path, m, digits, exponent):
        r = self.run_regular(tmp_path, m)
        assert r.returncode == 0
        assert r.stderr == ""
        assert r.stdout == "0." + "0" * (-exponent - 1) + digits + "\n"

    def test_regular_simplex_below_the_float_range_is_an_error(self, tmp_path):
        r = self.run_regular(tmp_path, 171)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: volume of about 10^-331.3 does not fit in a float\n"

    def test_tall_tetrahedron_agrees_with_check_edm(self, tmp_path):
        # a unit equilateral base with the apex 1e4 above its centroid
        h = math.sqrt(3)
        pts = np.array([[0, 0, 0], [1, 0, 0], [0.5, h / 2, 0], [0.5, h / 6, 1e4]])
        f = tmp_path / "tall.txt"
        np.savetxt(f, np.linalg.norm(pts[:, None] - pts[None, :], axis=-1), fmt="%.17g")
        assert run_cli("check-edm", f).stdout == "EDM r=3\n"
        r = run_cli("volume", f)
        assert r.returncode == 0
        assert r.stdout == "1443.37567297\n"

    @pytest.mark.parametrize("m", [14, 20])
    def test_long_side_in_a_regular_simplex_is_infeasible(self, tmp_path, m):
        d = np.ones((m, m)) - np.eye(m)
        d[0, 1] = d[1, 0] = 3.0
        f = tmp_path / f"long_side{m}.txt"
        np.savetxt(f, d, fmt="%g")
        assert run_cli("check-edm", f).stdout.startswith("NOT-EDM lambda_min=-")
        r = run_cli("volume", f)
        assert r.returncode == 1
        assert r.stderr == ""
        assert r.stdout.startswith("INFEASIBLE V2=")


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

    # at 1e-309 the longest geodesic is subnormal and pi / a_max overflows
    @pytest.mark.parametrize("k", [1e-309, 1e-170, 1e160])
    def test_radius_scales_at_extreme_units(self, tmp_path, k):
        f = tmp_path / "regular_scaled.txt"
        f.write_text(scaled_fixture("regular_geodesics.txt", k))
        r = run_cli("sphere-embed", f)
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.startswith("radius=")
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

    def test_space_that_fails_only_as_a_whole_prints_an_empty_subset(self, tmp_path):
        space, dim = make_space("thin_lift", 1590)
        f = tmp_path / "thin_lift.txt"
        f.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in space.d.d))
        r = run_cli("menger", f, "--dim", dim)
        assert (r.returncode, r.stderr) == (1, "")
        assert r.stdout.splitlines()[0] == "NOT-EMBEDDABLE subset=[]"

    @pytest.mark.parametrize("dim", [1022, 100_000])
    def test_sizes_past_n_are_checked_empty(self, dim):
        # A size-1025 flatness factor overflowed at dim 1022, and at dim 10^5
        # the 100 002-point basis of an empty stack asked for 74.5 GiB.
        r = run_cli("menger", FIXTURES / "tetra_unit.txt", "--dim", dim)
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.splitlines() == [
            "EMBEDDABLE r=3",
            "base(size=4): checked=1 failed=0",
            f"flat(size={dim + 2}): checked=0 failed=0",
            f"flat(size={dim + 3}): checked=0 failed=0",
        ]

    def test_equilateral_triangle_of_side_1e308(self, tmp_path):
        f = tmp_path / "equilateral.txt"
        f.write_text(EQUILATERAL_1E308)
        r = run_cli("menger", f, "--dim", "2")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.splitlines()[0] == "EMBEDDABLE r=2"

    def test_stretched_pair_on_a_line_fails_flatness(self, tmp_path):
        # 12 points at 0..11 on a line with d(10, 11) stretched to 1.0001:
        # the witness is one of the 4-point subsets that are not flat.
        x = np.arange(12.0)
        d = np.abs(x[:, None] - x[None, :])
        d[10, 11] = d[11, 10] = 1.0001
        f = tmp_path / "line.txt"
        f.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in d))
        r = run_cli("menger", f, "--dim", "2")
        assert (r.returncode, r.stderr) == (1, "")
        assert r.stdout.splitlines()[:3] == [
            "NOT-EMBEDDABLE subset=[0,1,10,11]",
            "base(size=3): checked=220 failed=0",
            "flat(size=4): checked=495 failed=45",
        ]
        report = verify_menger_criterion(validate_semi_metric(d), 2)
        assert (0, 1, 10, 11) in report.flat2_failures

    def test_needle_is_not_flat(self, tmp_path):
        # Two small eigenvalues, each well above the cut, make a small determinant.
        t = 1e-3
        pts = Realization(np.array([[0, 0, 0], [1, 0, 0], [0, t, 0], [1, 0, t]], dtype=float))
        f = tmp_path / "needle.txt"
        d = edm_from_realization(pts).d
        f.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in d))
        r = run_cli("menger", f, "--dim", "2")
        assert (r.returncode, r.stderr) == (1, "")
        assert r.stdout.splitlines()[:3] == [
            "NOT-EMBEDDABLE subset=[0,1,2,3]",
            "base(size=3): checked=4 failed=0",
            "flat(size=4): checked=1 failed=1",
        ]

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


# A relative cutoff of 1 or more zeroes every spectrum: the triangle-inequality
# violation printed "EDM r=0" and the tetrahedron "EMBEDDABLE r=0" in the plane.
@pytest.mark.parametrize(
    "args",
    [
        ("check-edm", FIXTURES / "triangle113.txt", "--tol", "inf"),
        ("menger", FIXTURES / "tetra_unit.txt", "--dim", "2", "--tol", "1e300"),
    ],
)
def test_tolerance_of_one_or_more_is_an_error(args):
    r = run_cli(*args)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: rank_tol must lie strictly between 0 and 1, got ")


# Below the eigensolver's rounding level the centering null eigenvalue
# counted as signal: 4 points gave "EDM r=4" and the unit square failed in
# the plane.
@pytest.mark.parametrize(
    "args",
    [
        ("check-edm", FIXTURES / "tetra_unit.txt"),
        ("check-edm", FIXTURES / "square.txt"),
        ("mds", FIXTURES / "square.txt"),
        ("menger", FIXTURES / "square.txt", "--dim", "2"),
    ],
)
def test_tolerance_below_the_rounding_level_is_an_error(args):
    r = run_cli(*args, "--tol", "1e-17")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: rank_tol must be at least 1e-12")


def _matrix_file(kind, n, seed):
    """A random n-point EDM ("edm"), symmetric positive matrix ("semi") or
    4x4 matrix of geodesic lengths on a sphere ("geodesic"), in one of a
    wide range of units."""
    rng = np.random.default_rng(seed)
    if kind == "geodesic":
        pts = rng.standard_normal((4, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        d = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0))
    elif kind == "edm":
        pts = rng.standard_normal((n, int(rng.integers(1, 5))))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=-1))
    else:
        m = rng.uniform(0.3, 3.0, (n, n))
        d = m + m.T
    d = d * 10 ** rng.uniform(-6, 6)
    np.fill_diagonal(d, 0.0)
    return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in d)


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("matrices")


# --dim skips 2 000-50 000: should a size past n run its flatness kernel
# again, its basis there would take 64 MB to 40 GB instead of failing at once.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["check-edm", "mds", "volume", "sphere-embed", "menger"]),
    kind=st.sampled_from(["edm", "semi", "geodesic"]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([*range(13), 1021, 1022, 10**5, 10**6]),
    log_tol=st.none() | st.floats(-300.0, 0.0, exclude_max=True),
)
def test_every_matrix_command_answers_or_exits_2(matrix_dir, command, kind, n, seed, dim, log_tol):
    path = matrix_dir / f"{kind}-{n}-{seed}.txt"
    path.write_text(_matrix_file(kind, n, seed))
    argv = [command, str(path)]
    if command in ("mds", "menger"):
        argv += ["--dim", str(dim)]
    if log_tol is not None:
        argv += ["--tol", repr(10**log_tol)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1, 2)


class TestLibraryErrors:
    def test_unhandled_library_error_exits_2(self, monkeypatch, capsys):
        from distgeo import cli, embedding
        from distgeo.errors import NotRealizableError

        def fail(*args, **kwargs):
            raise NotRealizableError(-1.0)

        # check-edm imports classify_edm from its module when it runs.
        monkeypatch.setattr(embedding, "classify_edm", fail)
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
