"""The exact regime runs without numpy or scipy.

`lplab` resolves its float names lazily and the CLI and the check registry
import the float modules inside the float runners and checks.  These tests
pin that in a fresh interpreter, and pin that every name the package
exports still resolves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lplab
from lplab import group_ring, groups, lp_complex, vanishing

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"

EXACT_EXPORTS = (
    "BallCapError", "DEFAULT_BALL_CAP", "Group", "GroupElement",
    "InvariantViolation", "group_from_name",
    "RingElement", "class_sum", "conjugacy_class", "format_ring_element",
    "parse_ring_element",
    "Resolution", "ValidationReport", "bar_resolution_basis",
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
        "BoundaryOperator", "TruncatedSpace", "Vector", "annihilator_residual",
        "assemble_boundary", "conjugate_exponent", "delta_chain",
        "dual_boundary", "embed", "export_matrix_coordinate",
        "export_vector_csv", "lp_norm", "pairing", "translate",
        "translate_ring", "vector_from_ring_parts",
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(steps)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    *exact, (label, code, loaded) = report
    assert [step[0] for step in exact] == ["import lplab"] + [
        name for name, _ in steps[:-1]]
    for step, step_code, step_loaded in exact:
        assert step_code in (None, 0), step
        assert step_loaded == [], f"{step} loaded {step_loaded[:5]}"
    # the float run still loads what it needs and writes the golden curve
    assert label == "distance-curve" and code == 0
    assert "numpy" in loaded and "scipy.linalg" in loaded
    # the p = 2 solve runs on numpy's bincount; scipy.sparse.linalg alone
    # would add about 3.6 MB, 5% of lab verify-all's peak RSS
    assert [name for name in loaded if name.startswith("scipy.sparse")] == []
    assert (tmp_path / "dc.csv").read_bytes() == \
        (GOLDEN_DIR / "distance_curve.csv").read_bytes()


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
