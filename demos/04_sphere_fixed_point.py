"""Put four points on a sphere so geodesic arcs reproduce given distances.

Any 4-point metric realizable in 3-space but not in the plane also lives on
the surface of some sphere.  The construction turns geodesics into chords
for a trial inverse radius x and compares the chord tetrahedron's inverse
circumradius with x; the sphere that works is a fixed point.  The inverse
circumradius comes from the chord lengths alone, by the circumcentre
equation on the centred tetrahedron, R^2 = sum(c^2) / 16 + u^T P^-1 u with
P = L L^T its Gram matrix (the Cholesky factor gives the circumcentre
y = L^-1 u), and the same factor gives the answer's points: the vertices
R L of the tetrahedron, R the Helmert basis, less y.  No eigensolver or
linear solve runs.  This script tabulates the residual, then solves it.
"""

import math

import numpy as np

from distgeo import (
    GeodesicTetrahedron,
    VERTEX_PAIRS,
    chord_length,
    embed_on_sphere,
    inverse_circumradius,
)

REGULAR = 2 * math.asin(math.sqrt(2 / 3))  # geodesic of the regular tetrahedron on the unit sphere


def main():
    g = GeodesicTetrahedron(np.full(6, REGULAR))
    print(f"six geodesics of {REGULAR:.6f} (regular tetrahedron on the unit sphere)")
    print(f"chord at x=1: {chord_length(REGULAR, 1.0):.6f} = sqrt(8/3)")

    print("\nresidual phi(x) - x across the admissible interval:")
    hi = math.pi / g.a_max
    for x in np.linspace(0.2, hi - 1e-9, 8):
        value = inverse_circumradius(float(x), g)
        shown = "undefined" if value is None else f"{value - x:+.6f}"
        print(f"  x={x:.4f}  phi(x)-x = {shown}")

    emb = embed_on_sphere(g)
    print(f"\nfixed point found: radius={emb.radius:.12f}")
    print("points on the sphere:")
    print(np.round(emb.points, 6) + 0.0)  # + 0.0 shows -0.0 as 0.0
    print("realized geodesics:", np.round(emb.geodesics, 6))

    # a generic non-planar input: distances of four random points
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((4, 3))
    dm = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    generic = GeodesicTetrahedron(np.array([dm[i, j] for i, j in VERTEX_PAIRS]))
    emb2 = embed_on_sphere(generic)
    err = np.abs(emb2.geodesics / generic.a - 1).max()
    print(f"\ngeneric tetrahedron: radius={emb2.radius:.6f}, "
          f"worst geodesic error={err:.2e}")


if __name__ == "__main__":
    main()
