"""The four workloads: seeded inputs, the timed query, oracles and scale twins.

A workload's pass is a fixed design of cells (size, dimension, kind) whose
geometry is drawn from the seed, so two seeds give the same mix of work
and only the instances differ.  distgeo sees only the generated inputs.
"""

from __future__ import annotations

import io
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import oracles
from oracles import centered_gram_spectrum, edm

# verify_menger_criterion runs on queries up to this size (the seed's
# MENGER_SUBSET_CAP); larger subsets queries are witness-only.
MENGER_MAX_N = 12
SPECTRAL_QUERIES = 100
SPHERE_QUERIES = 120


@dataclass
class Query:
    qid: int
    kind: str
    d: np.ndarray
    dim: int = 0
    truth: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """inputs(rng) -> (pass, warm-ups); run(dg, q) is the timed query;
    check(q, answer) -> failure reasons; scaled(q, f) is the scale twin
    of q; agree(answer, twin_answer) compares their discrete outputs."""

    inputs: Callable
    run: Callable
    check: Callable
    scaled: Callable
    agree: Callable = lambda a, b: []


def unit_scale(rng) -> float:
    return float(np.exp(rng.uniform(math.log(0.5), math.log(5.0))))


def stratified(rng, m: int) -> np.ndarray:
    """m draws from U[0, 1), one per equal stratum, in random order."""
    return rng.permutation((np.arange(m) + rng.uniform(size=m)) / m)


def spread(lo: int, hi: int, count: int) -> list[int]:
    return [int(v) for v in np.linspace(lo, hi, count).round()]


def renumber(rng, queries: list) -> list:
    return [replace(queries[j], qid=i) for i, j in enumerate(rng.permutation(len(queries)))]


def symmetric_hollow(m: np.ndarray) -> np.ndarray:
    upper = np.triu(m, 1)
    return upper + upper.T


# --- spectral: validate, classify and MDS on matrices of n in [8, 128] -------


def spectral_query(rng, n: int, k: int, broken: bool) -> Query:
    d = edm(rng.standard_normal((n, k)) * unit_scale(rng))
    if broken:
        i, j = rng.choice(n, 2, replace=False)
        d[i, j] = d[j, i] = 3.0 * d.max()
    truth = {"is_edm": not broken, "dim": min(k, n - 1)}
    return Query(0, "non_edm" if broken else "edm", d, truth=truth)


def spectral_inputs(rng):
    # n follows the quantiles of log-uniform [8, 128]; k cycles through
    # 1..6 and every third query is a certain non-EDM.  The cells are the
    # same for every seed, so seeds differ in geometry and order only.
    qs = [
        spectral_query(rng, round(8 * 16 ** ((i + 0.5) / SPECTRAL_QUERIES)), 1 + i % 6, i % 3 == 0)
        for i in range(SPECTRAL_QUERIES)
    ]
    warm = [spectral_query(rng, 8, 2, broken) for broken in (False, True, False)]
    return renumber(rng, qs), warm


def spectral_run(dg, q: Query):
    d = dg.validate_distance_matrix(q.d)
    return dg.classify_edm(d), dg.classical_mds(d)


SPECTRAL = Workload(
    inputs=spectral_inputs,
    run=spectral_run,
    check=lambda q, a: oracles.spectral(q, *a),
    scaled=lambda q, f: replace(q, d=q.d * f),
)


# --- subsets: PSD route, Menger route and witness search on small spaces -----


def embeddable_query(rng, n: int, dim: int, k: int) -> Query:
    d = edm(rng.standard_normal((n, k)) * unit_scale(rng))
    return Query(0, "embeddable", d, dim, {"embeddable": True, "rank": min(k, n - 1)})


def lifted_query(rng, n: int, dim: int, kind: str) -> Query:
    """n-1 generic points in a dim-flat plus one point lifted off it."""
    s = unit_scale(rng)
    pts = np.zeros((n, dim + 1))
    pts[:, :dim] = rng.standard_normal((n, dim)) * s
    pts[-1, dim] = s * rng.uniform(0.5, 1.5)
    return Query(0, kind, edm(pts), dim, {"embeddable": False, "lifted": n - 1})


def semimetric_query(rng, n: int, dim: int) -> Query:
    """Random semi-metric with one planted triangle-inequality violation."""
    m = symmetric_hollow(rng.uniform(0.3, 3.0, (n, n)) * unit_scale(rng))
    a, b, c = (int(i) for i in rng.choice(n, 3, replace=False))
    m[a, b] = m[b, a] = 1.2 * (m[a, c] + m[c, b])
    return Query(0, "semimetric", m, dim, {"embeddable": False, "witness_size": 3})


def noisy_query(rng, n: int, dim: int, k: int) -> Query:
    """An EDM with +-10 % multiplicative noise, as in acceptance criterion 4."""
    d = edm(rng.standard_normal((n, k)) * unit_scale(rng))
    d = symmetric_hollow(d * rng.uniform(0.9, 1.1, d.shape))
    return Query(0, "noisy", d, dim, {"embeddable": None})


# Witness-only cells: the search costs about C(n, dim + 2), so dim 3 stops
# at n = 14 (n = 18 alone would take a quarter of the pass).
WITNESS_ONLY = {1: (13, 15, 18), 2: (13, 15, 18), 3: (13, 14)}


def subsets_inputs(rng):
    # The intrinsic dimension k of the EDM kinds cycles, because k < dim
    # makes verify_menger_criterion scan for an anchor it never finds.
    qs = []
    for dim in (1, 2, 3):
        qs += [
            embeddable_query(rng, n, dim, 1 + i % dim)
            for i, n in enumerate(spread(dim + 2, MENGER_MAX_N, 10))
        ]
        qs += [lifted_query(rng, n, dim, "late_witness") for n in spread(dim + 3, MENGER_MAX_N, 6)]
        qs += [semimetric_query(rng, n, dim) for n in spread(5, 16, 14)]
        qs += [noisy_query(rng, n, dim, 1 + i % 3) for i, n in enumerate(spread(4, 8, 16))]
        qs += [lifted_query(rng, n, dim, "witness_only") for n in WITNESS_ONLY[dim]]
    warm = [
        embeddable_query(rng, 5, 2, 2),
        lifted_query(rng, 6, 2, "late_witness"),
        semimetric_query(rng, 5, 1),
    ]
    return renumber(rng, qs), warm


def subsets_run(dg, q: Query):
    space = dg.validate_semi_metric(q.d)
    verdict = dg.congruently_embeddable(space, q.dim)
    report = dg.verify_menger_criterion(space, q.dim) if q.d.shape[0] <= MENGER_MAX_N else None
    return verdict, report


def subsets_agree(a, b) -> list[str]:
    w1, w2 = a[0].failing_subset, b[0].failing_subset
    if a[0].embeddable == b[0].embeddable and w1 == w2:
        return []
    return [f"verdict/witness {a[0].embeddable}/{w1} became {b[0].embeddable}/{w2}"]


SUBSETS = Workload(
    inputs=subsets_inputs,
    run=subsets_run,
    check=lambda q, a: oracles.subsets(q, *a),
    scaled=lambda q, f: replace(q, d=q.d * f),
    agree=subsets_agree,
)


# --- sphere: fixed-point spherical embedding of 4-point geodesic metrics -----


def geodesic_matrix(a: np.ndarray) -> np.ndarray:
    """4x4 symmetric matrix of the six lengths in VERTEX_PAIRS order."""
    m = np.zeros((4, 4))
    for value, (i, j) in zip(a, oracles.VERTEX_PAIRS):
        m[i, j] = m[j, i] = value
    return m


def cap_geodesics(rng, theta: float, radius: float) -> np.ndarray:
    """Geodesic lengths of 4 random points in a cap of angular radius theta.

    Draws are kept only when the lengths, read as Euclidean distances, are
    realizable and clearly non-planar in R^3: the three non-null
    eigenvalues of the centered Gram matrix are all above 1e-3 of the
    largest (the fourth is the centering null vector).
    """
    pairs = oracles.VERTEX_PAIRS
    while True:
        z = rng.uniform(math.cos(theta), 1.0, 4)
        phi = rng.uniform(0.0, 2.0 * math.pi, 4)
        rho = np.sqrt(1.0 - z * z)
        u = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        ang = [math.atan2(np.linalg.norm(np.cross(u[i], u[j])), float(u[i] @ u[j])) for i, j in pairs]
        a = radius * np.array(ang)
        w = centered_gram_spectrum(geodesic_matrix(a))
        if w[2] > 1e-3 * w[0]:
            return a


def sphere_query(rng, theta: float, radius: float) -> Query:
    return Query(0, "cap", cap_geodesics(rng, theta, radius), truth={"R": radius})


def sphere_inputs(rng):
    thetas = 0.3 + 0.9 * stratified(rng, SPHERE_QUERIES)
    radii = np.exp(math.log(0.1) + math.log(100.0) * stratified(rng, SPHERE_QUERIES))
    qs = [sphere_query(rng, float(t), float(r)) for t, r in zip(thetas, radii)]
    warm = [sphere_query(rng, 0.8, 1.0), sphere_query(rng, 0.5, 2.0)]
    return renumber(rng, qs), warm


SPHERE = Workload(
    inputs=sphere_inputs,
    run=lambda dg, q: dg.embed_on_sphere(dg.GeodesicTetrahedron(q.d)),
    check=oracles.sphere,
    scaled=lambda q, f: replace(q, d=q.d * f, truth={"R": q.truth["R"] * f}),
)

IN_PROCESS = {"spectral": SPECTRAL, "subsets": SUBSETS, "sphere": SPHERE}


# --- cli: python -m distgeo subprocesses over all nine commands --------------


def expect(code: int, prefix: str = "", value=None, rel: float = 1e-9, extra=None, exact: bool = False):
    """Expected exit code and first line: a prefix (the whole line when
    exact), optionally followed by a number within rel of value."""
    return SimpleNamespace(code=code, prefix=prefix, value=value, rel=rel, extra=extra, exact=exact)


def write_matrix(path: Path, m: np.ndarray) -> str:
    path.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in m))
    return str(path)


def mds_lines(d: np.ndarray, k: int):
    """Second line H=k, then coordinates reproducing d (12 printed digits)."""

    def check(out: str) -> list[str]:
        lines = out.splitlines()
        if len(lines) < 2 + d.shape[0] or lines[1] != f"H={k}":
            return [f"expected H={k} and {d.shape[0]} coordinate rows"]
        coords = np.array([[float(v) for v in line.split("\t")] for line in lines[2:]])
        err = float(np.max(np.abs(edm(coords) - d))) / float(d.max())
        return [] if err <= 1e-8 else [f"coordinates off by {err:.3g} of the largest distance"]

    return check


def coords_near(target: np.ndarray, scale: float):
    def check(out: str) -> list[str]:
        got = np.array([float(v) for v in out.split("\n", 1)[0].split("\t")])
        if got.shape != target.shape or not np.max(np.abs(got - target)) <= 1e-8 * scale:
            return [f"point {out.strip()[:60]!r}, expected {target.tolist()}"]
        return []

    return check


def witness_has(point: int):
    def check(out: str) -> list[str]:
        inside = out.split("[", 1)[1].split("]", 1)[0]
        return [] if str(point) in inside.split(",") else [f"witness [{inside}] misses point {point}"]

    return check


def cli_inputs(rng, workdir: Path):
    """Fifty commands, each run twice in a row by the loop."""
    files = iter(workdir / f"m{i}.txt" for i in range(1000))
    cmds = []

    def add(argv, exp, kind=None):
        cmds.append(Query(0, kind or argv[0], np.empty(0), truth={"argv": argv, "expect": exp}))

    for _ in range(4):
        p = rng.standard_normal((3, 2)) * unit_scale(rng)
        sides = edm(p)
        area = 0.5 * abs(float(np.cross(p[1] - p[0], p[2] - p[0])))
        add(["heron", *(repr(float(sides[i, j])) for i, j in ((0, 1), (0, 2), (1, 2)))], expect(0, "", area))
    s = unit_scale(rng)
    add(["heron", repr(s), repr(s), repr(3 * s)], expect(1, "INFEASIBLE radicand="))

    for _ in range(4):
        entries = [int(v) for v in rng.integers(-1, 2, int(rng.integers(6, 21)))]
        signs = [e for e in entries if e]
        changes = sum(a != b for a, b in zip(signs, signs[1:] + signs[:1])) if len(signs) > 1 else 0
        add(["signs", *map(str, entries)], expect(0, "", changes, 0.0))

    # prisms over k-gons: V = 2k, E = 3k, F = k + 2; one face too many fails
    for k, ok in zip(rng.choice(np.arange(3, 12), 5, replace=False), (True, False, True, False, True)):
        v, e, f = 2 * int(k), 3 * int(k), int(k) + (2 if ok else 3)
        verdict = "OK" if ok else "FAIL"
        add(["euler", str(v), str(e), str(f)], expect(0 if ok else 1, f"EULER-{verdict} chi={v + f - e}", exact=True))

    for n, k, broken in zip(spread(4, 20, 7), (1, 2, 3, 4, 2, 3, 1), (0, 1, 0, 1, 0, 1, 0)):
        q = spectral_query(rng, n, k, bool(broken))
        path = write_matrix(next(files), q.d)
        exp = expect(1, "NOT-EDM lambda_min=") if broken else expect(0, f"EDM r={min(k, n - 1)}", exact=True)
        add(["check-edm", path], exp)

    for n, k in zip(spread(5, 40, 5), (1, 2, 3, 2, 3)):
        d = edm(rng.standard_normal((n, k)) * unit_scale(rng))
        add(["mds", write_matrix(next(files), d)], expect(0, "eigenvalues:", extra=mds_lines(d, k)))

    for m in (3, 4, 5, 6):
        p = rng.standard_normal((m, m - 1)) * unit_scale(rng)
        volume = abs(float(np.linalg.det(p[1:] - p[0]))) / math.factorial(m - 1)
        add(["volume", write_matrix(next(files), edm(p))], expect(0, "", volume, 1e-8))
    add(["volume", write_matrix(next(files), symmetric_hollow(np.array([[0, 1, 1], [0, 0, 3], [0, 0, 0.0]])))],
        expect(1, "INFEASIBLE V2="))

    for k in (1, 2, 3, 2, 3):
        s = unit_scale(rng)
        anchors = rng.standard_normal((k + 1 + int(rng.integers(3)), k)) * s
        target = rng.standard_normal(k) * s
        dists = ",".join(repr(float(v)) for v in np.linalg.norm(anchors - target, axis=1))
        argv = ["trilaterate", "--anchors", write_matrix(next(files), anchors), "--dists", dists]
        add(argv, expect(0, "", extra=coords_near(target, s)))

    for theta, radius in ((0.4, 0.3), (0.7, 1.0), (1.0, 3.0), (1.2, 8.0)):
        m = geodesic_matrix(cap_geodesics(rng, theta, radius))
        add(["sphere-embed", write_matrix(next(files), m)], expect(0, "radius=", radius, 1e-6))
    square = edm(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]) * unit_scale(rng))
    add(["sphere-embed", write_matrix(next(files), square)], expect(1, "NOT-APPLICABLE"))

    for n, dim, lifted in ((5, 2, False), (7, 3, True), (9, 2, True), (10, 3, False)):
        q = lifted_query(rng, n, dim, "") if lifted else embeddable_query(rng, n, dim, dim)
        path = write_matrix(next(files), q.d)
        if lifted:
            exp = expect(1, "NOT-EMBEDDABLE subset=[", extra=witness_has(n - 1))
        else:
            exp = expect(0, f"EMBEDDABLE r={q.truth['rank']}", exact=True)
        add(["menger", path, "--dim", str(dim)], exp)

    ragged = next(files)
    ragged.write_text("0 1 2\n1 0\n2 1 0\n")
    bad_token = next(files)
    bad_token.write_text("0 1\n1 zero\n")
    asym = write_matrix(next(files), np.array([[0, 1, 2], [1, 0, 1], [3, 1, 0.0]]))
    wide = write_matrix(next(files), np.ones((3, 4)))
    for argv in (
        ["check-edm", str(ragged)],
        ["mds", str(bad_token)],
        ["check-edm", asym],
        ["sphere-embed", wide],
        ["volume", str(workdir / "missing.txt")],
    ):
        add(argv, expect(2), "malformed")

    warm = [["heron", "3", "4", "5"], ["signs", "1", "-1", "0", "1"]]
    return renumber(rng, cmds), warm


def cli_subprocess(argv: list[str], env: dict, cwd: Path) -> tuple:
    """(exit code, stdout, stderr) of one python -m distgeo child."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "distgeo", *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            timeout=60,
            check=False,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return -1, b"", b"timed out after 60 s"
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(cli_module, argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_module.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def cli_check(q: Query, result: tuple) -> list[str]:
    code, out, err = result
    return oracles.cli(q.truth["expect"], code, out.decode(), err.decode())
