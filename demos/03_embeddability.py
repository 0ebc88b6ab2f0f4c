"""Embeddability of abstract semi-metric spaces in R^n.

A semi-metric space only promises symmetric positive distances, not the
triangle inequality.  Whether it embeds in R^n can be decided globally (PSD
test on the centered Gram matrix) or finitistically, by checking subsets of
at most n+3 points -- both routes agree.
"""

import numpy as np

from distgeo import (
    congruently_embeddable,
    find_congruence,
    validate_semi_metric,
    verify_menger_criterion,
)


def main():
    # four points, pairwise distance 1: a regular tetrahedron
    tetra = validate_semi_metric(np.ones((4, 4)) - np.eye(4))
    for dim in (1, 2, 3):
        v = congruently_embeddable(tetra, dim)
        label = "embeddable" if v.embeddable else f"not embeddable (witness {v.failing_subset})"
        print(f"regular tetrahedron in R^{dim}: {label}")

    print("\nsubset criterion at n=2:")
    report = verify_menger_criterion(tetra, 2)
    print(f"  base subsets (size {report.base_size}): "
          f"{report.base_checked - len(report.base_failures)}/{report.base_checked} pass")
    print(f"  size-4 subsets flat: {report.flat2_checked - len(report.flat2_failures)}"
          f"/{report.flat2_checked} pass -> verdict embeddable={report.embeddable}")

    # 199 points on a plane and one lifted off it: the witness search takes
    # one greedy pass over the points, not a scan of all C(200, 4) subsets
    rng = np.random.default_rng(3)
    pts = np.zeros((200, 3))
    pts[:, :2] = rng.standard_normal((200, 2))
    pts[150, 2] = 0.5
    lifted = validate_semi_metric(np.linalg.norm(pts[:, None] - pts[None], axis=-1))
    print("\n200 points, point 150 lifted off the plane; witness in R^2:",
          congruently_embeddable(lifted, 2).failing_subset)

    # triangle-inequality violation: a legal semi-metric, Euclidean nowhere
    bad = validate_semi_metric([[0, 1, 1], [1, 0, 3], [1, 3, 0]])
    print("\n(1,1,3) is a valid semi-metric; embeddable in R^3:",
          congruently_embeddable(bad, 3).embeddable)

    # congruence: the same square under a relabelling, and against a rhombus
    import math
    s2, s3 = math.sqrt(2), math.sqrt(3)
    square = validate_semi_metric([[0, 1, s2, 1], [1, 0, 1, s2], [s2, 1, 0, 1], [1, s2, 1, 0]])
    perm = [2, 0, 3, 1]
    shuffled = validate_semi_metric(square.d.d[np.ix_(perm, perm)])
    rhombus = validate_semi_metric([[0, 1, s3, 1], [1, 0, 1, 1], [s3, 1, 0, 1], [1, 1, 1, 0]])
    print("\nsquare ~ shuffled square:", find_congruence(square, shuffled).mapping)
    print("square ~ rhombus:", find_congruence(square, rhombus))


if __name__ == "__main__":
    main()
