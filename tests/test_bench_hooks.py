"""The benchmark's trace hooks still find every name they patch.

`perfbench/tracing.py` instruments the program by replacing functions and
methods of the lplab modules by name, so renaming one of them breaks a
traced benchmark run.  These tests install the tracer, run configs through
`cli.main` (a tiny homotopy experiment and a ring-heavy resolution check;
a small distance curve whose p != 2 solves take IRLS steps), and check
that the runs were traced, that every layer counter they assert moved, and
that uninstalling puts every original back.  They only read `perfbench/`.
"""

import sys
from pathlib import Path

from lplab import cli, group_ring, groups

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _lplab_attributes():
    """(owner, attribute name, value) for every module-level name of the
    loaded lplab modules and every attribute of the patched classes."""
    owners = [module for name, module in sorted(sys.modules.items())
              if module is not None and name.split(".")[0] == "lplab"]
    owners += [groups.Group, group_ring.RingElement]
    return [(owner, attr, value) for owner in owners
            for attr, value in list(vars(owner).items())]


def _traced_runs(tmp_path, configs):
    """Install the tracer, run each config, uninstall; returns the tracer
    after checking that every run succeeded under its own span and that
    no lplab name is left patched."""
    import tracing

    before = _lplab_attributes()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        codes = [cli.main(["run", str(_write_config(tmp_path, name, text))])
                 for name, text in configs.items()]
    finally:
        uninstall()
    assert codes == [cli.EXIT_OK] * len(configs)
    assert all((tmp_path / f"{name}.csv").exists() for name in configs)
    assert sum(span[0] == "cli.run" for span in tracer.spans) == len(configs)
    moved = [f"{getattr(owner, '__name__', owner)}.{attr}"
             for owner, attr, value in before
             if vars(owner).get(attr) is not value]
    assert moved == []
    return tracer


def _write_config(tmp_path, name, text):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text + f"output={tmp_path / name}.csv\n", encoding="utf-8")
    return cfg


def test_tracer_installs_traces_a_run_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = _traced_runs(tmp_path, {
        "tiny": "experiment=verify-homotopy\ngroup=Z^1\nR=1\ncount=1\n",
        "resolutions": "experiment=verify-resolutions\n",
    })
    assert tracer.count["homotopy.tuples_checked"] > 0
    assert tracer.count["groups.mul_calls"] > 0
    assert tracer.count["group_ring.elements_built"] > 0
    assert tracer.count["group_ring.convolve_calls"] > 0


def test_tracer_times_the_solves_of_a_distance_curve(tmp_path, monkeypatch):
    # lattice:2 degree 1 takes 14 and 15 weighted steps at p = 1.5, R = 2, 3;
    # the tracer reads every p != 2 call's T as a dense matrix for its KKT
    # residual, and the traced run must write the untraced bytes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    curve = ("experiment=distance-curve\nresolution=lattice:2\ndegree=1\n"
             "p=1.5,2\nR=2..3\n")
    assert cli.main(["run", str(_write_config(tmp_path, "plain", curve))]) \
        == cli.EXIT_OK
    tracer = _traced_runs(tmp_path, {"curve": curve})
    names = {span[0] for span in tracer.spans}
    assert {"vanishing.curve", "vanishing.lstsq_solve",
            "vanishing.irls_solve"} <= names
    assert tracer.count["vanishing.irls_iterations"] > 0
    assert 0.0 < tracer.peak["vanishing.kkt_rel_max"] < 1e-3
    assert not any(".raised." in name for name in tracer.count)
    assert (tmp_path / "curve.csv").read_bytes() == \
        (tmp_path / "plain.csv").read_bytes()
