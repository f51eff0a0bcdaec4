"""The benchmark's trace hooks still find every name they patch.

`perfbench/tracing.py` instruments the program by replacing functions and
methods of the lplab modules by name, so renaming one of them breaks a
traced benchmark run.  This test installs the tracer, runs a tiny homotopy
experiment and a ring-heavy resolution check through `cli.main`, and checks
that the runs were traced, that every layer counter it asserts moved, and
that uninstalling puts every original back.  It only reads `perfbench/`.
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


def test_tracer_installs_traces_a_run_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = _lplab_attributes()
    configs = {
        "tiny": "experiment=verify-homotopy\ngroup=Z^1\nR=1\ncount=1\n",
        "resolutions": "experiment=verify-resolutions\n",
    }
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        codes = []
        for name, text in configs.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text + f"output={tmp_path / name}.csv\n",
                           encoding="utf-8")
            codes.append(cli.main(["run", str(cfg)]))
    finally:
        uninstall()
    assert codes == [cli.EXIT_OK] * len(configs)
    assert all((tmp_path / f"{name}.csv").exists() for name in configs)
    assert sum(span[0] == "cli.run" for span in tracer.spans) == len(configs)
    assert tracer.count["homotopy.tuples_checked"] > 0
    assert tracer.count["groups.mul_calls"] > 0
    assert tracer.count["group_ring.elements_built"] > 0
    assert tracer.count["group_ring.convolve_calls"] > 0
    moved = [f"{getattr(owner, '__name__', owner)}.{attr}"
             for owner, attr, value in before
             if vars(owner).get(attr) is not value]
    assert moved == []
