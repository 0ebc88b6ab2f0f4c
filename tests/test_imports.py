"""What importing the package and running a command loads, and where the
rank cut is read.

Each CLI command is a fresh interpreter, so its start-up time is mostly the
modules it imports.  ``import distgeo`` loads no submodule, and a command
loads only the modules it runs: ``signs`` and ``euler`` never load numpy.
The checks run in child processes, because this one has loaded everything.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import distgeo

SUBMODULES = ("errors", "matrices", "simplex", "embedding", "semimetric", "sphere", "rigidity")


def loaded_after(code):
    """Sorted names of numpy, numpy.ma and distgeo submodules loaded after running code."""
    probe = (
        f"import sys\n{code}\n"
        "import json\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m in ('numpy', 'numpy.ma') or m.startswith('distgeo.'))))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return json.loads(r.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert loaded_after("import distgeo") == []
    # A submodule is still an attribute of the package, loaded on first use.
    assert loaded_after("import distgeo\ndistgeo.rigidity") == ["distgeo.rigidity"]


@pytest.mark.parametrize("argv", [["signs", "1", "-1", "0"], ["euler", "8", "12", "6"]])
def test_rigidity_commands_leave_numpy_unloaded(argv):
    loaded = loaded_after(f"from distgeo import cli\ncli.main({argv!r})")
    assert loaded == ["distgeo.cli", "distgeo.errors", "distgeo.rigidity"]


def test_heron_loads_only_simplex_and_matrices():
    loaded = loaded_after("from distgeo import cli\ncli.main(['heron', '3', '4', '5'])")
    assert not {"distgeo.semimetric", "distgeo.sphere", "distgeo.embedding"} & set(loaded)
    assert {"numpy", "distgeo.simplex", "distgeo.matrices"} <= set(loaded)


@pytest.mark.parametrize("command", ["check-edm", "mds"])
def test_spectral_commands_load_only_embedding_and_matrices(command):
    matrix = str(Path(__file__).parent / "fixtures" / "triangle345.txt")
    loaded = loaded_after(f"from distgeo import cli\ncli.main([{command!r}, {matrix!r}])")
    assert loaded == ["distgeo.cli", "distgeo.embedding", "distgeo.errors", "distgeo.matrices", "numpy"]


def test_menger_loads_only_semimetric_and_matrices():
    matrix = str(Path(__file__).parent / "fixtures" / "tetra_unit.txt")
    loaded = loaded_after(f"from distgeo import cli\ncli.main(['menger', {matrix!r}, '--dim', '2'])")
    assert loaded == ["distgeo.cli", "distgeo.errors", "distgeo.matrices", "distgeo.semimetric", "numpy"]


def test_sphere_embed_loads_only_sphere_and_matrices():
    matrix = str(Path(__file__).parent / "fixtures" / "regular_geodesics.txt")
    loaded = loaded_after(f"from distgeo import cli\ncli.main(['sphere-embed', {matrix!r}])")
    assert loaded == ["distgeo.cli", "distgeo.errors", "distgeo.matrices", "distgeo.sphere", "numpy"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check-edm", "triangle345.txt"],
        ["mds", "triangle345.txt"],
        ["volume", "tetra_unit.txt"],
        ["menger", "tetra_unit.txt", "--dim", "2"],
        ["sphere-embed", "regular_geodesics.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_matrix_commands_leave_numpy_ma_unloaded(argv):
    # numpy.ma loads lazily, from np.unique among others, and costs about
    # 1 MB of resident memory
    argv = [argv[0], str(Path(__file__).parent / "fixtures" / argv[1]), *argv[2:]]
    assert "numpy.ma" not in loaded_after(f"from distgeo import cli\ncli.main({argv!r})")


def sources_where(found):
    """Names of the package's source files with an AST node for which ``found`` holds."""
    return sorted(
        path.name
        for path in Path(distgeo.__file__).parent.glob("*.py")
        if any(found(node) for node in ast.walk(ast.parse(path.read_text())))
    )


def test_determinants_are_taken_only_in_matrices():
    # Every determinant of a distance matrix is one log determinant of the
    # projected Gram, so no other module calls a determinant routine or reads
    # the basis, and no module calls linalg.det at all.
    def found(node):
        if isinstance(node, ast.Attribute):
            return ast.unparse(node).endswith(("linalg.det", "linalg.slogdet", "._helmert"))
        if isinstance(node, ast.ImportFrom):
            return any(alias.name in ("det", "slogdet", "_helmert") for alias in node.names)
        return isinstance(node, ast.Name) and node.id == "_helmert"

    def det(node):
        if isinstance(node, ast.Attribute):
            return ast.unparse(node).endswith("linalg.det")
        return isinstance(node, ast.ImportFrom) and any(alias.name == "det" for alias in node.names)

    assert sources_where(found) == ["matrices.py"]
    assert sources_where(det) == []


def top_level_users(name):
    """``(file, statement)`` pairs, sorted: each top-level statement of the
    package's sources that refers to ``name``, named by its function or class."""
    def uses(node):
        if isinstance(node, ast.Attribute):
            return node.attr == name
        return isinstance(node, ast.Name) and node.id == name

    return sorted(
        (path.name, getattr(top, "name", "<module>"))
        for path in Path(distgeo.__file__).parent.glob("*.py")
        for top in ast.parse(path.read_text()).body
        if any(map(uses, ast.walk(top)))
    )


def test_rank_tol_is_read_only_in_matrices():
    # The matrices docstring says every rank cut is taken there, by one
    # function; the flatness rule is one, so no other code reads the threshold.
    assert top_level_users("rank_tol") == [("matrices.py", "Tolerances"), ("matrices.py", "_cut")]


def test_the_rank_cut_has_no_second_home():
    assert top_level_users("_threshold") == []


def test_only_the_unit_reads_a_binary_exponent():
    # One unit of length: the largest power of two not above the largest entry.
    assert top_level_users("frexp") == [("matrices.py", "_unit")]


def test_only_the_loss_check_reads_the_smallest_normal_float():
    # Read once, at import, by _in_units, the one loss check, and by
    # _distances_in, the distance kernel, which finds the squares in units
    # that lost bits.
    assert top_level_users("tiny") == [("matrices.py", "<module>")]
    assert top_level_users("_TINY") == [
        ("matrices.py", "<module>"),
        ("matrices.py", "_distances_in"),
        ("matrices.py", "_in_units"),
    ]


def test_no_decision_reads_a_determinant():
    # Realizability, zero volume and flatness are read off eigenvalues at the
    # rank cut.  The flatness kernel's determinant is only a certificate
    # inside it, and the Cayley-Menger log serves values alone: the
    # determinant and the volume (or squared volume) that a verdict carries.
    assert top_level_users("_flat_stack") == [("semimetric.py", "verify_menger_criterion")]
    assert top_level_users("_cayley_menger_log") == [
        ("simplex.py", "cayley_menger_determinant"),
        ("simplex.py", "simplex_volume"),
    ]


def test_the_solid_certificate_serves_only_the_sphere_scan():
    # Chord tetrahedra are nearly always solid and subsets mostly are not,
    # so only the sphere's residual scan tries the Cholesky certificate
    # before the eigensolver; the same factor gives the scan's radii and
    # the final sphere's centre and points.
    assert top_level_users("_solid_tetrahedra") == [("sphere.py", "_circumspheres")]


def test_only_the_final_circumsphere_solves_a_linear_system():
    # The sphere kernel reads each chord tetrahedron's radius, centre and
    # vertices off a Cholesky factor of its projected Gram, so an embedding
    # solves no linear system; the one np.linalg.solve is that of the public
    # circumradius of four given points.
    assert top_level_users("solve") == [("sphere.py", "circumradius")]


def test_validity_is_checked_only_by_the_records():
    # Each distance matrix is checked once, by the DistanceMatrix
    # constructor: validate_distance_matrix constructs, and repairs only
    # what the constructor rejects.  So only the record classes test
    # finiteness or compare an array with its transpose.
    assert top_level_users("_require_finite") == [
        ("matrices.py", "DistanceMatrix"),
        ("matrices.py", "GramMatrix"),
        ("matrices.py", "Realization"),
    ]
    assert top_level_users("array_equal") == [
        ("matrices.py", "DistanceMatrix"),
        ("matrices.py", "GramMatrix"),
        ("matrices.py", "_ValueRecord"),
    ]


def test_exports_are_the_submodules_own_names():
    union = []
    for short in SUBMODULES:
        module = importlib.import_module(f"distgeo.{short}")
        union += module.__all__
        for name in module.__all__:
            assert getattr(distgeo, name) is getattr(module, name)
    assert sorted(distgeo.__all__) == sorted(union)
    assert len(set(union)) == len(union)
    namespace = {}
    exec("from distgeo import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(distgeo.__all__)
    assert set(distgeo.__all__) | set(SUBMODULES) <= set(dir(distgeo))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        distgeo.no_such_name
    with pytest.raises(ImportError):
        exec("from distgeo import no_such_name", {})
