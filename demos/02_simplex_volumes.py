"""Simplex volumes from side lengths alone.

The Cayley-Menger determinant, the determinant of the squared distances
bordered by ones, measures simplex volume in any dimension: for triangles
it reproduces the semiperimeter-product formula, for a regular tetrahedron
the textbook volume, and it vanishes on flat configurations.  distgeo takes
it as one log determinant of the projected Gram -1/2 R^T D^2 R, with the
factorial of the volume formula as lgamma, so a volume far below 1 (the
regular simplex on 150 vertices, about 1e-282) comes back in full.
Whether sides have a volume at all, whether it is zero, and whether they
are flat is read off the same centered Gram spectrum that classify_edm
reads, so a tall, thin tetrahedron keeps its volume and is not flat, though
one long side drives its Cayley-Menger determinant, in units of that side,
toward 0.
"""

import math

import numpy as np

from distgeo import (
    DistanceMatrix,
    Realization,
    SimplexSides,
    TriangleSides,
    cayley_menger_determinant,
    classify_edm,
    edm_from_realization,
    heron_area,
    inradius,
    is_flat,
    simplex_volume,
)


def main():
    t = TriangleSides(3, 4, 5)
    print(f"triangle (3,4,5): area={heron_area(t)}, inradius={inradius(t)}")
    s = SimplexSides.from_triangle(t)
    print(f"bordered determinant={cayley_menger_determinant(s):.12g}  (equals -16 * 36)")
    print(f"volume route gives the same area: {simplex_volume(s):.12g}")

    tetra = SimplexSides(DistanceMatrix(np.ones((4, 4)) - np.eye(4)))
    print(f"\nregular tetrahedron side 1: volume={simplex_volume(tetra):.12f}")
    print(f"analytic 1/(6 sqrt 2)      = {1 / (6 * math.sqrt(2)):.12f}")
    big = SimplexSides(DistanceMatrix(np.ones((150, 150)) - np.eye(150)))
    print(f"regular simplex on 150 vertices: volume={simplex_volume(big):.11e}"
          "  (sqrt(150 / (2^149 (149!)^2)) = 1.20367378120e-282)")

    # a unit equilateral base with the apex 1e4 above its centroid
    tall_points = [[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0], [0.5, math.sqrt(3) / 6, 1e4]]
    tall = SimplexSides(edm_from_realization(Realization(tall_points)))
    print(f"tall tetrahedron of height 1e4: rank={classify_edm(tall.d).dim}, "
          f"volume={simplex_volume(tall):.12g}  (sqrt(3)/12 * 1e4 = {math.sqrt(3) / 12 * 1e4:.12g})")
    print(f"  and it is not flat: is_flat={is_flat(tall)}")

    s2 = math.sqrt(2)
    square = SimplexSides(
        DistanceMatrix([[0, 1, s2, 1], [1, 0, 1, s2], [s2, 1, 0, 1], [1, s2, 1, 0]])
    )
    print(f"\nunit square corners as a 'tetrahedron': flat={is_flat(square)}")

    # five points in 3-space: the 4-simplex on them always has zero volume
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, (5, 3))
    dm = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    dm = np.maximum(dm, dm.T)
    np.fill_diagonal(dm, 0.0)
    five = SimplexSides(DistanceMatrix(dm))
    print(f"five random points in 3-space: flat={is_flat(five)}, "
          f"determinant={cayley_menger_determinant(five):.2e}")


if __name__ == "__main__":
    main()
