"""Answer checks built from how each input was made, never from distgeo.

Every check returns a list of failure reasons; an empty list means the
answer passed.  The checks read only public result attributes and redo the
geometry with numpy, so they stay valid when distgeo's internals change.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

# Coordinates recovered by MDS or an embeddability realization must
# reproduce the input distances to this relative accuracy (per pair).
DISTANCE_REL = 1e-8
# Spherical embedding: radius and realized geodesics, relative.
SPHERE_REL = 1e-6
# Relative eigenvalue threshold of the independent embeddability check.
RANK_REL = 1e-9
VERTEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def edm(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def centered_gram_spectrum(d: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of -1/2 J D^2 J."""
    n = d.shape[0]
    j = np.eye(n) - 1.0 / n
    g = -0.5 * (j @ (d**2) @ j)
    return np.linalg.eigvalsh(0.5 * (g + g.T))[::-1]


def embeds_in(d: np.ndarray, dim: int) -> bool:
    """Independent test: is d the distance matrix of points in R^dim?"""
    w = centered_gram_spectrum(d)
    cut = RANK_REL * max(float(w[0]), 0.0)
    return bool(w[-1] >= -cut and int(np.sum(w > cut)) <= dim)


def pair_mismatch(coords: np.ndarray, d: np.ndarray) -> float:
    """Largest relative error of the realized pairwise distances."""
    n = d.shape[0]
    if n < 2:
        return 0.0
    iu = np.triu_indices(n, 1)
    want = d[iu]
    got = edm(np.asarray(coords, dtype=float).reshape(n, -1))[iu]
    return float(np.max(np.abs(got - want) / np.maximum(want, 1e-300)))


def spectral(q, cls, mds) -> list[str]:
    errs = []
    if cls.is_edm != q.truth["is_edm"]:
        errs.append(f"is_edm={cls.is_edm}, expected {q.truth['is_edm']}")
    elif cls.is_edm:
        if cls.dim != q.truth["dim"]:
            errs.append(f"dim={cls.dim}, expected {q.truth['dim']}")
        r = pair_mismatch(mds.realization.coords, q.d)
        if not r <= DISTANCE_REL:
            errs.append(f"mds residual {r:.3g} > {DISTANCE_REL:g}")
    elif not float(np.min(mds.eigenvalues)) < 0.0:
        errs.append("mds spectrum of a non-EDM has no negative eigenvalue")
    return errs


def subsets(q, verdict, report) -> list[str]:
    errs = []
    want = q.truth["embeddable"]
    if want is not None and verdict.embeddable != want:
        errs.append(f"embeddable={verdict.embeddable}, expected {want}")
    if report is not None and report.embeddable != verdict.embeddable:
        errs.append(
            f"PSD route says {verdict.embeddable}, Menger route says {report.embeddable}"
        )
    if verdict.embeddable:
        coords = np.asarray(verdict.realization.coords)
        if coords.shape[1] > q.dim:
            errs.append(f"realization has {coords.shape[1]} > {q.dim} columns")
        r = pair_mismatch(coords, q.d)
        if not r <= DISTANCE_REL:
            errs.append(f"realization residual {r:.3g} > {DISTANCE_REL:g}")
        return errs
    w = verdict.failing_subset
    if w is None:
        return errs + ["negative verdict without a witness"]
    w = tuple(int(i) for i in w)
    if len(w) > q.dim + 3:
        errs.append(f"witness {w} has more than dim+3={q.dim + 3} points")
    lifted = q.truth.get("lifted")
    if lifted is not None and lifted not in w:
        errs.append(f"witness {w} misses the lifted point {lifted}")
    size = q.truth.get("witness_size")
    if size is not None and len(w) != size:
        errs.append(f"witness {w} has {len(w)} points, expected {size}")
    if embeds_in(q.d[np.ix_(w, w)], q.dim):
        errs.append(f"witness {w} embeds in R^{q.dim}")
    return errs


def sphere(q, emb) -> list[str]:
    errs = []
    big_r = q.truth["R"]
    rel = abs(emb.radius / big_r - 1.0)
    if not rel <= SPHERE_REL:
        errs.append(f"radius {emb.radius!r} vs {big_r!r} (rel {rel:.3g})")
    p = np.asarray(emb.points, dtype=float)
    off = float(np.max(np.abs(np.linalg.norm(p, axis=1) / emb.radius - 1.0)))
    if not off <= SPHERE_REL:
        errs.append(f"points off the sphere by rel {off:.3g}")
    geo = np.array(
        [
            emb.radius * math.atan2(np.linalg.norm(np.cross(p[i], p[j])), float(p[i] @ p[j]))
            for i, j in VERTEX_PAIRS
        ]
    )
    bad = float(np.max(np.abs(geo / q.d - 1.0)))
    if not bad <= SPHERE_REL:
        errs.append(f"realized geodesics off by rel {bad:.3g}")
    return errs


def cli(expect, code: int, out: str, err: str) -> list[str]:
    """Exit code, first line and optional numeric or structural checks."""
    errs = []
    if code != expect.code:
        errs.append(f"exit {code}, expected {expect.code}")
    first = out.split("\n", 1)[0]
    if expect.code == 2:
        if out or not err.startswith("error:"):
            errs.append("a rejected input must print nothing on stdout and 'error:' on stderr")
        return errs
    if expect.exact and first != expect.prefix:
        return errs + [f"first line {first[:60]!r}, expected {expect.prefix!r}"]
    if not first.startswith(expect.prefix):
        return errs + [f"first line {first[:60]!r} does not start with {expect.prefix!r}"]
    if expect.value is not None:
        try:
            got = float(first[len(expect.prefix):])
        except ValueError:
            return errs + [f"first line {first[:60]!r} carries no number"]
        if not abs(got - expect.value) <= expect.rel * abs(expect.value):
            errs.append(f"value {got!r} vs {expect.value!r}")
    if expect.extra is not None:
        errs.extend(expect.extra(out))
    return errs


def rerun(first: tuple, second: tuple) -> list[str]:
    """A repeated CLI command must give the same exit code and bytes."""
    if first == second:
        return []
    return ["rerun differs from the first run (exit code, stdout or stderr)"]


# --- self-tests: each oracle must flag a corrupted answer -------------------


def _ns(**kw):
    return SimpleNamespace(**kw)


def _require(condition) -> None:
    if not condition:
        raise AssertionError


def _selftest_spectral():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
    q = _ns(d=edm(pts), truth={"is_edm": True, "dim": 2})
    good = (_ns(is_edm=True, dim=2), _ns(realization=_ns(coords=pts), eigenvalues=np.ones(4)))
    _require(spectral(q, *good) == [])
    _require(spectral(q, _ns(is_edm=False, dim=2), good[1]))


def _selftest_subsets():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.4]])
    lifted = np.hstack([pts, [[0.0], [0.0], [0.0], [1.0]]])
    q = _ns(d=edm(lifted), dim=2, truth={"embeddable": False, "lifted": 3})
    good = _ns(embeddable=False, failing_subset=(0, 1, 2, 3), realization=None)
    _require(subsets(q, good, _ns(embeddable=False)) == [])
    flipped = _ns(embeddable=True, failing_subset=None, realization=_ns(coords=pts))
    _require(subsets(q, flipped, None))
    _require(subsets(q, good, _ns(embeddable=True)))


def _selftest_sphere():
    p = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, 0, 0]]) * 2.0
    geo = np.array([2.0 * math.acos(float(p[i] @ p[j]) / 4.0) for i, j in VERTEX_PAIRS])
    q = _ns(d=geo, truth={"R": 2.0})
    _require(sphere(q, _ns(radius=2.0, points=p)) == [])
    _require(sphere(q, _ns(radius=2.0 * (1 + 1e-5), points=p)))


def _selftest_cli():
    expect = _ns(code=0, prefix="EDM r=2", value=None, rel=0.0, extra=None, exact=True)
    _require(cli(expect, 0, "EDM r=2\n", "") == [])
    _require(cli(expect, 1, "EDM r=2\n", ""))
    run = (0, "radius=1.000000000000\n", "")
    _require(rerun(run, run) == [])
    _require(rerun(run, (0, "radius=1.000000000001\n", "")))


SELF_TESTS = {
    "spectral flipped verdict": _selftest_spectral,
    "subsets flipped verdict": _selftest_subsets,
    "sphere radius x (1+1e-5)": _selftest_sphere,
    "cli changed stdout byte": _selftest_cli,
}


def self_test() -> list[str]:
    """Run every oracle self-test; raise AssertionError on the first miss."""
    for name, fn in SELF_TESTS.items():
        try:
            fn()
        except AssertionError as err:
            raise AssertionError(f"oracle self-test failed: {name}") from err
    return list(SELF_TESTS)
