"""Command-line surface over the library.

Plain-text files in, deterministic single-line verdicts out.  Exit codes:
0 for a positive verdict, 1 for a negative verdict (not an EDM, not
embeddable, infeasible sides, no solution, sphere construction not
applicable, Euler check failed), 2 for parse or validation errors and any
other library error a command does not turn into a verdict; these go to
standard error, with line numbers where they come from a file.

Matrix files hold one whitespace-separated row per line; lines starting
with '#' are comments.  Coordinate files hold one point per row.  Numeric
output is printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .embedding import TrilaterationProblem, classical_mds, classify_edm, trilaterate
from .errors import (
    DistanceGeometryError,
    InfeasibleError,
    NoConvergenceError,
    NoSolutionError,
    NotApplicableError,
)
from .matrices import DEFAULT_TOLERANCES, DistanceMatrix, Realization, Tolerances
from .matrices import _in_units, _unit_squares, validate_distance_matrix
from .rigidity import PolyhedralCounts, cyclic_sign_changes, euler_characteristic_holds
from .semimetric import (
    MENGER_SUBSET_CAP,
    congruently_embeddable,
    validate_semi_metric,
    verify_menger_criterion,
)
from .simplex import SimplexSides, TriangleSides, heron_area, simplex_volume
from .sphere import GeodesicTetrahedron, embed_on_sphere

__all__ = ["main"]


class CliInputError(Exception):
    """Unparseable or structurally invalid command-line input."""


def fmt12(value: float) -> str:
    """Fixed 12-significant-digit positional decimal (deterministic output)."""
    return np.format_float_positional(
        value + 0.0, precision=12, unique=False, fractional=False, trim="k"
    )


def read_table(path: str) -> np.ndarray:
    """Rectangular numeric table from a text file ('#' lines ignored)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        raise CliInputError(f"{path}: {err.strerror or err}") from err
    rows = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        values = []
        for token in stripped.split():
            try:
                values.append(float(token))
            except ValueError:
                raise CliInputError(
                    f"{path}: line {lineno}: not a number: {token!r}"
                ) from None
        rows.append((lineno, values))
    if not rows:
        raise CliInputError(f"{path}: no data rows")
    width = len(rows[0][1])
    for lineno, values in rows:
        if len(values) != width:
            raise CliInputError(
                f"{path}: line {lineno}: expected {width} values, got {len(values)}"
            )
    return np.array([values for _, values in rows], dtype=float)


def read_square_matrix(path: str) -> np.ndarray:
    m = read_table(path)
    if m.shape[0] != m.shape[1]:
        raise CliInputError(
            f"{path}: expected a square matrix, got {m.shape[0]}x{m.shape[1]}"
        )
    return m


def _tolerances(args) -> Tolerances:
    override = getattr(args, "tol", None)
    if override is None:
        return DEFAULT_TOLERANCES
    return Tolerances(rank_tol=override, dist_tol=override)


def _print_coords(coords: np.ndarray, stream) -> None:
    for row in coords:
        print("\t".join(fmt12(v) for v in row), file=stream)


def cmd_check_edm(args) -> int:
    d = validate_distance_matrix(read_square_matrix(args.matrix), _tolerances(args))
    # In units of the largest distance, so a witness past the float range is an error.
    _, unit = _unit_squares(d.d)
    verdict = classify_edm(DistanceMatrix(d.d / unit), _tolerances(args))
    if verdict.is_edm:
        print(f"EDM r={verdict.dim}")
        return 0
    witness = _in_units(verdict.witness_eigenvalue, unit, 2, "eigenvalue")
    print(f"NOT-EDM lambda_min={fmt12(witness)}")
    return 1


def cmd_mds(args) -> int:
    d = validate_distance_matrix(read_square_matrix(args.matrix), _tolerances(args))
    result = classical_mds(d, _tolerances(args), dim_cap=args.dim)
    print("eigenvalues:\t" + "\t".join(fmt12(v) for v in result.eigenvalues))
    print(f"H={result.inherent_dim}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            _print_coords(result.realization.coords, handle)
    else:
        _print_coords(result.realization.coords, sys.stdout)
    return 0


def cmd_volume(args) -> int:
    d = validate_distance_matrix(read_square_matrix(args.matrix), _tolerances(args))
    try:
        volume = simplex_volume(SimplexSides(d), _tolerances(args))
    except InfeasibleError as err:
        print(f"INFEASIBLE V2={fmt12(err.value)}")
        return 1
    print(fmt12(volume))
    return 0


def cmd_heron(args) -> int:
    triangle = TriangleSides(args.a, args.b, args.c)
    try:
        area = heron_area(triangle)
    except InfeasibleError as err:
        print(f"INFEASIBLE radicand={fmt12(err.value)}")
        return 1
    print(fmt12(area))
    return 0


def cmd_trilaterate(args) -> int:
    anchors = read_table(args.anchors)
    try:
        dists = np.array([float(t) for t in args.dists.split(",") if t.strip()])
    except ValueError:
        raise CliInputError(f"--dists: not a comma-separated list of numbers: {args.dists!r}") from None
    problem = TrilaterationProblem(Realization(anchors), dists)
    try:
        point = trilaterate(problem, _tolerances(args))
    except NoSolutionError as err:
        print(f"NO-SOLUTION residual={fmt12(err.residual)}")
        return 1
    _print_coords(point.coords, sys.stdout)
    return 0


def cmd_sphere_embed(args) -> int:
    m = read_square_matrix(args.matrix)
    if m.shape != (4, 4):
        raise CliInputError(
            f"{args.matrix}: spherical embedding needs a 4x4 matrix, got {m.shape[0]}x{m.shape[1]}"
        )
    d = validate_distance_matrix(m, _tolerances(args))
    geodesics = GeodesicTetrahedron.from_distance_matrix(d)
    try:
        embedding = embed_on_sphere(geodesics, _tolerances(args))
    except NotApplicableError as err:
        print(f"NOT-APPLICABLE {err}")
        return 1
    except NoConvergenceError as err:
        print(f"NO-CONVERGENCE {err}")
        return 1
    print(f"radius={fmt12(embedding.radius)}")
    _print_coords(embedding.points, sys.stdout)
    return 0


def cmd_menger(args) -> int:
    space = validate_semi_metric(read_square_matrix(args.matrix), tol=_tolerances(args))
    verdict = congruently_embeddable(space, args.dim, _tolerances(args))
    code = 0
    if verdict.embeddable:
        print(f"EMBEDDABLE r={verdict.realization.k}")
    else:
        subset = (
            "[" + ",".join(str(i) for i in verdict.failing_subset) + "]"
            if verdict.failing_subset is not None
            else "[]"
        )
        print(f"NOT-EMBEDDABLE subset={subset}")
        code = 1
    if space.n <= MENGER_SUBSET_CAP:
        report = verify_menger_criterion(space, args.dim, _tolerances(args))
        print(
            f"base(size={report.base_size}): checked={report.base_checked}"
            f" failed={len(report.base_failures)}"
        )
        print(
            f"flat(size={args.dim + 2}): checked={report.flat2_checked}"
            f" failed={len(report.flat2_failures)}"
        )
        print(
            f"flat(size={args.dim + 3}): checked={report.flat3_checked}"
            f" failed={len(report.flat3_failures)}"
        )
    return code


def cmd_signs(args) -> int:
    print(cyclic_sign_changes(args.entries))
    return 0


def cmd_euler(args) -> int:
    counts = PolyhedralCounts(args.V, args.E, args.F)
    chi = counts.vertices + counts.faces - counts.edges
    if euler_characteristic_holds(counts):
        print(f"EULER-OK chi={chi}")
        return 0
    print(f"EULER-FAIL chi={chi}")
    return 1


def _add_tol(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override the rank/distance tolerance (default: rank 1e-9, distance 1e-8)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distgeo",
        description="Distance geometry toolkit: classify distance matrices, embed them, "
        "measure simplices, and place 4-point metrics on spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-edm", help="decide whether a matrix is a Euclidean distance matrix")
    p.add_argument("matrix", help="distance matrix file")
    _add_tol(p)
    p.set_defaults(func=cmd_check_edm)

    p = sub.add_parser("mds", help="classical multidimensional scaling")
    p.add_argument("matrix", help="distance matrix file")
    p.add_argument("--dim", type=int, default=None, help="cap the embedding dimension")
    p.add_argument("--out", default=None, help="write coordinates to this file")
    _add_tol(p)
    p.set_defaults(func=cmd_mds)

    p = sub.add_parser("volume", help="simplex volume from a side-length matrix")
    p.add_argument("matrix", help="side-length matrix file")
    _add_tol(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("heron", help="triangle area from three side lengths")
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)
    p.add_argument("c", type=float)
    p.set_defaults(func=cmd_heron)

    p = sub.add_parser("trilaterate", help="locate a point from anchor distances")
    p.add_argument("--anchors", required=True, help="coordinates file, one anchor per row")
    p.add_argument("--dists", required=True, help="comma-separated distances to the anchors")
    _add_tol(p)
    p.set_defaults(func=cmd_trilaterate)

    p = sub.add_parser("sphere-embed", help="embed a 4-point metric on a sphere")
    p.add_argument("matrix", help="4x4 geodesic length matrix file")
    _add_tol(p)
    p.set_defaults(func=cmd_sphere_embed)

    p = sub.add_parser("menger", help="embeddability of a semi-metric space in R^n")
    p.add_argument("matrix", help="semi-metric matrix file")
    p.add_argument("--dim", type=int, required=True, help="target dimension n")
    _add_tol(p)
    p.set_defaults(func=cmd_menger)

    p = sub.add_parser("signs", help="cyclic sign-change count of a +-1/0 sequence")
    p.add_argument("entries", type=int, nargs="+", help="sequence entries (-1, 0 or 1)")
    p.set_defaults(func=cmd_signs)

    p = sub.add_parser("euler", help="Euler characteristic check V + F - E = 2")
    p.add_argument("V", type=int, help="vertex count")
    p.add_argument("E", type=int, help="edge count")
    p.add_argument("F", type=int, help="face count")
    p.set_defaults(func=cmd_euler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, DistanceGeometryError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
