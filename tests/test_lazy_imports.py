"""The exact regime runs without numpy or scipy, p = 2 and the
finite-group ranks without scipy, and p != 2 and `lab verify-all` without
the scipy.linalg package.

`lplab` resolves its float names lazily and the CLI and the check registry
import the float modules inside the float runners and checks; scipy is
imported only by the loader of the IRLS drivers, which loads scipy's
compiled LAPACK extension alone.  These tests pin that in a fresh
interpreter, and pin that every name the package exports still resolves.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lplab
from lplab import group_ring, groups, lp_complex, vanishing

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "lplab"
GOLDEN_DIR = Path(__file__).parent / "golden"

EXACT_EXPORTS = (
    "BallCapError", "DEFAULT_BALL_CAP", "Group", "GroupElement",
    "InvariantViolation", "group_from_name",
    "RingElement", "class_sum", "conjugacy_class", "format_ring_element",
    "parse_ring_element",
    "Resolution", "ValidationReport",
    "cyclic_infinite_resolution", "fox_derivative", "fox_partial_resolution",
    "lattice_resolution", "periodic_cyclic_resolution", "relator_words",
    "resolution_from_name", "validate",
    "EquivariantCochain", "ResidualForm", "ResidualReport",
    "class_sum_homotopy_residual", "coboundary",
    "homotopy_residual", "multiplier_homotopy", "random_cochain",
    "zero_cochain",
)
FLOAT_EXPORTS = {
    "lp_complex": (
        "BoundaryOperator", "TruncatedSpace", "Vector", "assemble_boundary",
        "conjugate_exponent", "delta_chain", "dual_boundary", "embed",
        "export_matrix_coordinate", "export_vector_csv", "lp_norm", "pairing",
        "translate", "translate_ring", "vector_from_ring_parts",
    ),
    "vanishing": (
        "CentralSequence", "CurveRow", "DecayCurve", "FiniteIndexReport",
        "MinimizationResult", "boundary_distance_curve", "central_catalog",
        "finite_group_homology_ranks", "finite_index_compare", "lp_distance",
        "translation_pairing_decay",
    ),
}
FLOAT_NAMES = [name for names in FLOAT_EXPORTS.values() for name in names]

# Runs each step in one fresh interpreter and prints, as its last line, the
# exit code of each step and the numpy/scipy modules loaded after it.
PROBE = r"""
import json, sys

def float_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in ("numpy", "scipy"))

steps = []
import lplab
steps.append(["import lplab", None, float_modules()])
from lplab.cli import main
for label, argv in json.loads(sys.argv[1]):
    code = main(argv)
    steps.append([label, code, float_modules()])
print(json.dumps(steps))
"""


def _config(path: Path, **fields) -> str:
    path.write_text("".join(f"{key}={value}\n" for key, value in fields.items()),
                    encoding="utf-8")
    return str(path)


def _probe(tmp_path: Path, steps) -> list:
    """Run PROBE on steps in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(steps)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _linalg_modules(loaded: list) -> list:
    return [name for name in loaded if name.startswith("scipy.linalg")]


def test_exact_runs_load_no_float_module(tmp_path):
    steps = [
        ("lab list", ["list"]),
        ("verify-homotopy", ["run", _config(
            tmp_path / "vh.cfg", experiment="verify-homotopy", group="heisenberg",
            degree=1, R=2, count=2, output=tmp_path / "vh.csv")]),
        ("class-sum-homotopy", ["run", _config(
            tmp_path / "cs.cfg", experiment="class-sum-homotopy",
            group="dihedral-inf", **{"class": "r"}, degree=1, R=2, count=1,
            output=tmp_path / "cs.csv")]),
        ("verify-resolutions", ["run", _config(
            tmp_path / "vr.cfg", experiment="verify-resolutions",
            output=tmp_path / "vr.csv")]),
        ("distance-curve", ["run", _config(
            tmp_path / "dc.cfg", experiment="distance-curve",
            resolution="cyclic-inf", degree=0, p="1.5,2,3", R="1..12",
            output=tmp_path / "dc.csv")]),
    ]
    report = _probe(tmp_path, steps)
    *exact, (label, code, loaded) = report
    assert [step[0] for step in exact] == ["import lplab"] + [
        name for name, _ in steps[:-1]]
    for step, step_code, step_loaded in exact:
        assert step_code in (None, 0), step
        assert step_loaded == [], f"{step} loaded {step_loaded[:5]}"
    # the float run still loads what it needs and writes the golden curve
    assert label == "distance-curve" and code == 0
    assert "numpy" in loaded and "scipy" in loaded
    assert _linalg_modules(loaded) == []
    # the p = 2 solve runs on numpy's bincount; scipy.sparse.linalg alone
    # would add about 3.6 MB, 5% of lab verify-all's peak RSS
    assert [name for name in loaded if name.startswith("scipy.sparse")] == []
    assert (tmp_path / "dc.csv").read_bytes() == \
        (GOLDEN_DIR / "distance_curve.csv").read_bytes()


def test_irls_weighted_steps_load_no_sparse_module(tmp_path):
    # lattice:2 degree 1 is not certified at the start, so IRLS takes
    # weighted steps; they sum their normal equations with numpy's bincount
    out = tmp_path / "irls.csv"
    steps = [("distance-curve", ["run", _config(
        tmp_path / "irls.cfg", experiment="distance-curve",
        resolution="lattice:2", degree=1, p="1.5", R="2..3", output=out)])]
    (_, _, _), (label, code, loaded) = _probe(tmp_path, steps)
    assert label == "distance-curve" and code == 0
    assert "scipy" in loaded and _linalg_modules(loaded) == []
    assert [name for name in loaded if name.startswith("scipy.sparse")] == []
    iterations = [int(line.split(",")[8])
                  for line in out.read_text().splitlines()[1:]]
    assert len(iterations) == 2 and min(iterations) > 0


def test_verify_all_loads_no_scipy_linalg_module(tmp_path):
    # check_minimization runs p != 2 distances, so verify-all loads the
    # IRLS drivers, and no more of scipy than their loader
    (_, _, _), (label, code, loaded) = _probe(
        tmp_path, [("verify-all", ["verify-all"])])
    assert label == "verify-all" and code == 0
    assert "scipy" in loaded and _linalg_modules(loaded) == []


def test_least_squares_runs_load_no_scipy_module(tmp_path):
    # p = 2 solves by CGLS on numpy alone; scipy is imported only by the
    # functions that call it
    out = tmp_path / "p2.csv"
    steps = [("distance-curve", ["run", _config(
        tmp_path / "p2.cfg", experiment="distance-curve",
        resolution="lattice:2", degree=0, p="2", R="1..3", output=out)])]
    (_, _, _), (label, code, loaded) = _probe(tmp_path, steps)
    assert label == "distance-curve" and code == 0
    assert "numpy" in loaded
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []
    assert len(out.read_text().splitlines()) == 4


def test_finite_group_ranks_load_no_scipy_module(tmp_path):
    # the ranks of finite-homology and finite-index are counts of numpy's
    # singular values
    steps = [
        ("finite-homology", ["run", _config(
            tmp_path / "fh.cfg", experiment="finite-homology", n=4, N=3,
            output=tmp_path / "fh.csv")]),
        ("finite-index", ["run", _config(
            tmp_path / "fi.cfg", experiment="finite-index", n=6, m=3, N=3,
            output=tmp_path / "fi.csv")]),
    ]
    _, *runs = _probe(tmp_path, steps)
    assert [label for label, _, _ in runs] == ["finite-homology", "finite-index"]
    for label, code, loaded in runs:
        assert code == 0, label
        assert "numpy" in loaded, label
        assert [name for name in loaded if name.split(".")[0] == "scipy"] == [], label


def test_every_export_resolves():
    from lplab import central_catalog, lp_distance, Vector

    assert lp_distance is vanishing.lp_distance
    assert central_catalog is vanishing.central_catalog
    assert Vector is lp_complex.Vector
    for module_name, names in FLOAT_EXPORTS.items():
        module = getattr(lplab, module_name)
        for name in names:
            assert getattr(lplab, name) is getattr(module, name), name
    for name in EXACT_EXPORTS:
        assert name in vars(lplab), name
    assert set(dir(lplab)) >= set(EXACT_EXPORTS) | set(FLOAT_NAMES)


def test_float_names_are_never_stored_in_the_package():
    for name in FLOAT_NAMES:
        getattr(lplab, name)
    assert not set(vars(lplab)) & set(FLOAT_NAMES)


def test_float_names_follow_the_module_attribute(monkeypatch):
    def replacement():
        pass

    monkeypatch.setattr(vanishing, "lp_distance", replacement)
    assert lplab.lp_distance is replacement
    monkeypatch.undo()
    assert lplab.lp_distance is vanishing.lp_distance


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'lplab' has no attribute 'no_such_name'$"):
        lplab.no_such_name
    with pytest.raises(ImportError):
        from lplab import no_such_name  # noqa: F401


def test_moved_names_are_shared():
    assert vanishing.InvariantViolation is groups.InvariantViolation
    assert lplab.InvariantViolation is groups.InvariantViolation
    assert vanishing.DEFAULT_CLASS_CAP == group_ring.DEFAULT_CLASS_CAP == 10_000


def _scipy_import_sites(node: ast.AST, scope: str):
    """The scope (module.function) of each scipy import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        if any(module.split(".")[0] == "scipy" for module in modules):
            yield scope
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
        yield from _scipy_import_sites(
            child, f"{scope}.{child.name}" if named else scope)


def test_scipy_is_imported_only_by_the_lapack_lookups():
    # the float regime is meant to move to numpy alone; a new scipy call
    # site must be added here on purpose
    sites = [site for path in sorted(SOURCE.glob("*.py"))
             for site in _scipy_import_sites(
                 ast.parse(path.read_text(), str(path)), path.stem)]
    assert sites == ["vanishing._lapack_drivers"]
