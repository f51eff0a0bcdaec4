"""Driver behavior: configs, exit codes, CSV schemas, SVG output, determinism."""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from lplab import checks, cli, homotopy, lp_complex, vanishing
from lplab.group_ring import parse_ring_element
from lplab.lp_complex import (TruncatedSpace, assemble_boundary, dual_boundary,
                              pairing, vector_from_ring_parts)
from lplab.groups import GROUP_CATALOG, group_from_name
from lplab.homotopy import (ResidualReport, class_sum_homotopy_residual,
                            random_cochain)
from lplab.resolutions import RESOLUTION_CATALOG
from lplab.vanishing import translation_pairing_decay
from lplab.cli import (
    ADJOINTNESS_HEADER,
    DECAY_HEADER,
    DISTANCE_HEADER,
    HOMOTOPY_HEADER,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    list_catalog,
    main,
    parse_config,
    run_config,
    svg_line_plot,
)


def write_config(tmp_path, name, **kwargs):
    path = tmp_path / name
    lines = [f"{key}={value}" for key, value in kwargs.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_list_catalog_names():
    text = list_catalog()
    for token in ("heisenberg", "cyclic:<n>:<N>", "dihedral-inf",
                  "verify-homotopy", "distance-curve"):
        assert token in text


def test_list_matches_golden(capsys):
    assert main(["list"]) == EXIT_OK
    golden = Path(__file__).parent / "golden" / "lab_list.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_list_catalog_forms_match_name_syntax():
    lines = list_catalog().splitlines()

    def forms(section):
        start = lines.index(section + ":") + 1
        block = []
        for line in lines[start:]:
            if not line.startswith("  "):
                break
            block.append(line.split()[0])
        return sorted(block)

    assert forms("groups") == sorted(entry.form for entry in GROUP_CATALOG)
    assert forms("resolutions") == sorted(
        entry.form for entry in RESOLUTION_CATALOG)


def test_verify_homotopy_run(tmp_path, capsys):
    out = tmp_path / "residuals.csv"
    cfg = write_config(tmp_path, "vh.cfg", experiment="verify-homotopy",
                       group="heisenberg", degree=1, R=2, count=3, seed=7,
                       output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(HOMOTOPY_HEADER)
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.endswith(",0,1")


def test_distance_curve_rows_and_svg(tmp_path):
    out = tmp_path / "curve.csv"
    cfg = write_config(tmp_path, "dc.cfg", experiment="distance-curve",
                       resolution="cyclic-inf", degree=0, p="1.5,2,3",
                       R="1..8", seed=0, output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(DISTANCE_HEADER)
    assert len(lines) == 1 + 24
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[-1]) <= float(cells[7])  # lower <= value
    svg = out.with_suffix(".svg").read_text()
    assert svg.count("<polyline") == 3
    assert "xmlns" in svg and "</svg>" in svg


def test_p_must_exceed_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.cfg", experiment="distance-curve",
                       resolution="cyclic-inf", degree=0, p="1", R="1..4",
                       output=tmp_path / "x.csv")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "p must exceed 1" in capsys.readouterr().err


def test_unknown_experiment_and_group(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad1.cfg", experiment="nonsense")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "experiment" in capsys.readouterr().err

    cfg = write_config(tmp_path, "bad2.cfg", experiment="verify-homotopy",
                       group="nope")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "group" in capsys.readouterr().err


def test_config_errors_name_their_field_once(tmp_path, capsys):
    cfg = write_config(tmp_path, "only.cfg", experiment="verify-homotopy")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"{cfg}: config error: field group: required for experiment "
        "'verify-homotopy'\n")

    cfg = write_config(tmp_path, "cap.cfg", experiment="verify-homotopy",
                       group="Z^1", max_ball="abc")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"{cfg}: config error: field max_ball: not an integer: 'abc'\n")

    cfg = write_config(tmp_path, "class.cfg", experiment="class-sum-homotopy",
                       group="dihedral-inf")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"{cfg}: config error: field class: required for experiment "
        "'class-sum-homotopy'\n")

    cfg = write_config(tmp_path, "n.cfg", experiment="finite-homology", N=2)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"{cfg}: config error: field n: required for experiment "
        "'finite-homology'\n")


@pytest.mark.parametrize("field, settings", [
    ("R", dict(experiment="verify-homotopy", group="Z^1", R=-1)),
    ("degree", dict(experiment="verify-homotopy", group="Z^1", degree=0)),
    ("degree", dict(experiment="verify-homotopy", group="Z^1", degree=5)),
    ("count", dict(experiment="verify-homotopy", group="Z^1", count=-2)),
    ("R", dict(experiment="distance-curve", resolution="cyclic-inf",
               R="-1..2")),
    ("degree", dict(experiment="class-sum-homotopy", group="dihedral-inf",
                    **{"class": "r"}, degree=0)),
    ("cap", dict(experiment="class-sum-homotopy", group="dihedral-inf",
                 **{"class": "r"}, cap=0)),
    ("degree", dict(experiment="pairing-adjointness",
                    resolution="cyclic-inf", degree=9)),
    ("seed", dict(experiment="translation-decay", group="Z^1", indices="0..3",
                  seed=-1)),
    ("radius", dict(experiment="translation-decay", group="Z^1",
                    indices="0..3", radius=-1)),
    ("N", dict(experiment="finite-homology", n=3, N=0)),
    ("n", dict(experiment="finite-homology", n=1)),
    ("degree", dict(experiment="distance-curve", resolution="cyclic-inf",
                    R="1..3", degree=1)),
    ("n", dict(experiment="finite-index", n=1, m=2)),
    ("N", dict(experiment="finite-index", n=4, m=2, N=0)),
    ("max_ball", dict(experiment="verify-homotopy", group="Z^1", max_ball=0)),
    ("max_ball", dict(experiment="verify-homotopy", group="Z^1",
                      max_ball=-3)),
    # a key the experiment does not read is refused, the first one given;
    # the finite experiments build groups no cap reaches, so take no max_ball
    ("p", dict(experiment="pairing-adjointness", resolution="cyclic-inf",
               p="abc", seed="xyz", count=-5)),
    ("seed", dict(experiment="distance-curve", resolution="cyclic-inf",
                  R="1..2", seed="xyz")),
    ("max_ball", dict(experiment="finite-homology", n=6, max_ball=1)),
    ("max_ball", dict(experiment="finite-index", n=4, m=2, max_ball=1)),
    ("max_iter", dict(experiment="distance-curve", resolution="cyclic-inf",
                      R="1..3", p=1.5, max_iter=0)),
    ("p", dict(experiment="distance-curve", resolution="cyclic-inf",
               R="1..3", p="inf")),
    ("p", dict(experiment="translation-decay", group="Z^1", indices="0..3",
               p="inf")),
    ("p", dict(experiment="finite-homology", n=3, p="inf")),
    ("h", dict(experiment="verify-homotopy", group="dihedral-inf", h="r")),
    ("x", dict(experiment="translation-decay", group="Z^1", radius=1,
               indices="0..3", x="1*t^9")),
    ("y", dict(experiment="translation-decay", group="Z^1", radius=1,
               indices="0..3", y="1*t^9")),
    ("x", dict(experiment="distance-curve", resolution="cyclic-inf",
               R="1..3", x="1*t^9")),
    ("x", dict(experiment="distance-curve", resolution="cyclic-inf",
               R="1..3", x="1/0*t")),
    ("y", dict(experiment="translation-decay", group="Z^1", radius=1,
               indices="0..3", y="1/0")),
], ids=lambda v: v if isinstance(v, str) else "-".join(
    [v["experiment"]] + [f"{k}={v[k]}" for k in v
                         if k not in ("experiment", "group", "resolution",
                                      "class")]))
def test_out_of_range_fields_are_config_errors(tmp_path, capsys, field,
                                               settings):
    cfg = write_config(tmp_path, "range.cfg", **settings,
                       output=tmp_path / "range.csv")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert f"config error: field {field}: " in capsys.readouterr().err
    assert not (tmp_path / "range.csv").exists()


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment=finite-homology\nbogus=1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(path)


def test_every_known_key_is_read_by_some_experiment():
    read = {key for _, keys in cli._RUNNERS.values() for key in keys}
    assert read | {"experiment", "output"} == set(cli._KNOWN_KEYS)


def test_repeated_key_rejected(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("experiment=distance-curve\nresolution=cyclic-inf\n"
                    "R=1..3\nR=5\n", encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert f"{path}:4: repeated key 'R'" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    path = tmp_path / "absent.cfg"
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"{path}: config error: [Errno 2] No such file or directory: "
        f"'{path}'\n")


def test_unreadable_config_and_unwritable_output(tmp_path, capsys):
    # each is one config error line, and the configs after it still run
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"experiment=finite-homology\nn=4\xff\n")
    out_dir = tmp_path / "taken.csv"
    out_dir.mkdir()
    to_dir = write_config(tmp_path, "to_dir.cfg", experiment="finite-homology",
                          n=4, output=out_dir)
    good = write_config(tmp_path, "good.cfg", experiment="finite-homology",
                        n=4, output=tmp_path / "good.csv")
    failing = [tmp_path, binary, to_dir]  # tmp_path is a directory
    assert main(["run", *map(str, failing + [good])]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert [line.partition(": config error: ")[0]
            for line in captured.err.splitlines()] == list(map(str, failing))
    assert captured.out == f"{good}: wrote {tmp_path / 'good.csv'}\n"
    # the failed replace removed its temporary file
    assert not (tmp_path / "taken.csv.tmp").exists()
    assert out_dir.is_dir() and not any(out_dir.iterdir())


@pytest.mark.parametrize("taken", [".csv", ".svg", ".svg.tmp"])
def test_a_curve_that_cannot_be_written_leaves_neither_file(tmp_path, capsys,
                                                             taken):
    # a directory in the way of the CSV, of its plot or of the plot's
    # temporary fails the run, and no CSV or SVG is left
    out = tmp_path / "x.csv"
    out.with_suffix(taken).mkdir()
    cfg = write_config(tmp_path, "dc.cfg", experiment="distance-curve",
                       resolution="cyclic-inf", p=2, R="1..2", output=out)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert f"{cfg}: config error: " in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        sorted(["dc.cfg", "x" + taken])
    assert not any(out.with_suffix(taken).iterdir())


def test_translation_decay_run(tmp_path):
    out = tmp_path / "decay.csv"
    cfg = write_config(tmp_path, "td.cfg", experiment="translation-decay",
                       group="dihedral-inf", radius=4, indices="1..12", p=2,
                       seed=5, output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(DECAY_HEADER)
    assert len(lines) == 13
    # class-sum rows are tagged with index kind n
    assert all(line.split(",")[5] == "n" for line in lines[1:])
    tail_values = [float(line.split(",")[7]) for line in lines[1:]
                   if int(line.split(",")[6]) > 8]
    assert all(value == 0.0 for value in tail_values)


def test_translation_decay_pairs_once_for_every_p(tmp_path, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return translation_pairing_decay(*args)

    monkeypatch.setattr(vanishing, "translation_pairing_decay", counting)
    out = tmp_path / "decay.csv"
    cfg = write_config(tmp_path, "td.cfg", experiment="translation-decay",
                       group="heisenberg", radius=2, indices="-2..2",
                       p="1.5,2,3", output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert len(calls) == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    # grouped by p in config order, each group over every index
    assert [(row[4], row[6]) for row in rows] == [
        (p, str(i)) for p in ("1.5", "2", "3") for i in range(-2, 3)]
    # the pairing does not depend on p
    assert len({tuple(row[6:8]) for row in rows}) == 5


@pytest.mark.parametrize("n", [64, 65, 100])
def test_translation_decay_rejects_finite_cyclic_groups(tmp_path, capsys, n):
    cfg = write_config(tmp_path, "cyc.cfg", experiment="translation-decay",
                       group=f"cyclic:{n}", indices="1..3",
                       output=tmp_path / "cyc.csv")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert f"finite order {n}" in capsys.readouterr().err


def test_finite_homology_and_index_runs(tmp_path):
    from lplab.cli import FINITE_HOMOLOGY_HEADER, FINITE_INDEX_HEADER
    out = tmp_path / "fh.csv"
    cfg = write_config(tmp_path, "fh.cfg", experiment="finite-homology", n=4,
                       N=3, p="1.5,2,3", output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(FINITE_HOMOLOGY_HEADER)
    assert len(lines) == 1 + 3 * 4
    dims = [line.split(",")[-1] for line in lines[1:5]]
    assert dims == ["1", "0", "0", "0"]

    out2 = tmp_path / "fi.csv"
    cfg = write_config(tmp_path, "fi.cfg", experiment="finite-index", n=4, m=2,
                       p=2, output=out2)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = out2.read_text().splitlines()
    assert lines[0] == ",".join(FINITE_INDEX_HEADER)
    assert all(line.endswith("true") for line in lines[1:])

    cfg = write_config(tmp_path, "fi_bad.cfg", experiment="finite-index", n=4,
                       m=3, p=2, output=tmp_path / "fb.csv")
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def test_distance_curve_radii_must_be_nondecreasing(tmp_path, capsys):
    out = tmp_path / "dec.csv"
    cfg = write_config(tmp_path, "dec.cfg", experiment="distance-curve",
                       resolution="cyclic-inf", p=2, R="4,2", output=out)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"{cfg}: config error: field R: radii must be nondecreasing\n")
    assert not out.exists()
    # a repeated radius is no decrease
    cfg = write_config(tmp_path, "rep.cfg", experiment="distance-curve",
                       resolution="cyclic-inf", p=2, R="2,2,3", output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 4


def test_pairing_adjointness_assembles_once(tmp_path, monkeypatch):
    calls = []

    def counting(res, i, radius):
        calls.append(radius)
        return assemble_boundary(res, i, radius)

    monkeypatch.setattr(lp_complex, "assemble_boundary", counting)
    cfg = write_config(tmp_path, "adj.cfg", experiment="pairing-adjointness",
                       resolution="cyclic-inf", R=2,
                       output=tmp_path / "adj.csv")
    assert main(["run", str(cfg)]) == EXIT_OK
    assert calls == [2]


def test_pairing_adjointness_run(tmp_path):
    out = tmp_path / "adj.csv"
    cfg = write_config(tmp_path, "adj.cfg", experiment="pairing-adjointness",
                       resolution="lattice:2", degree=2, R=2, output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(ADJOINTNESS_HEADER) == \
        "group,resolution,degree,R,nonzeros"
    # one exact row.  Both entries of the boundary are t_j - 1, and each of
    # their two terms meets each of the 13 elements of the radius-2 ball
    # once: 2 * 2 * 13.
    assert lines[1:] == ["Z^2,lattice:2,2,2,52"]


def test_pairing_adjointness_fails_on_a_dual_that_is_not_the_coboundary(
        tmp_path, monkeypatch, capsys):
    def flipped(res, i, radius):
        dual = dual_boundary(res, i, radius)
        values = -dual.nonzeros.values
        return lp_complex.BoundaryOperator(
            dual.domain, dual.codomain, dual.nonzeros._replace(values=values))

    monkeypatch.setattr(lp_complex, "dual_boundary", flipped)
    out = tmp_path / "adj.csv"
    cfg = write_config(tmp_path, "adj.cfg", experiment="pairing-adjointness",
                       resolution="lattice:2", degree=2, R=2, output=out)
    assert main(["run", str(cfg)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        f"{cfg}: invariant failure: the dual of boundary 2 of lattice:2 at "
        f"R=2 is not its coboundary\n")
    assert not out.exists()


def test_a_product_escaping_the_ball_is_an_invariant_failure(
        tmp_path, monkeypatch, capsys):
    # with no room for growth the codomain ball is the domain ball, and the
    # boundary's entries carry its outer layer beyond it
    monkeypatch.setattr(lp_complex, "boundary_growth", lambda res, i: 0)
    out = tmp_path / "dc.csv"
    cfg = write_config(tmp_path, "dc.cfg", experiment="distance-curve",
                       resolution="cyclic-inf", degree=0, R="1..3", output=out)
    assert main(["run", str(cfg)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        f"{cfg}: invariant failure: convolution support escaped the enlarged "
        f"ball\n")
    assert not out.exists()


def test_verify_resolutions_run(tmp_path):
    out = tmp_path / "vr.csv"
    cfg = write_config(tmp_path, "vr.cfg", experiment="verify-resolutions",
                       output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert all(",true," in line or line.endswith("true,")
               or ",true" in line for line in lines[1:])


# Runs whose CSVs hold only exact integers, so their bytes do not depend on
# the BLAS build; each golden file is the output of its config.
GOLDEN_RUNS = {
    "pairing_adjointness_cyclic_inf.csv": {
        "experiment": "pairing-adjointness", "resolution": "cyclic-inf",
        "degree": 1, "R": 3},
    "verify_resolutions.csv": {"experiment": "verify-resolutions"},
    "translation_decay_dihedral.csv": {
        "experiment": "translation-decay", "group": "dihedral-inf",
        "radius": 3, "indices": "0..4", "x": "1*r + -2*s",
        "y": "3*r^2*s + 1*r", "p": "1.5,2"},
    "translation_decay_heisenberg.csv": {
        "experiment": "translation-decay", "group": "heisenberg",
        "radius": 4, "indices": "-3..3", "x": "1*x + -1*(0,0,1)",
        "y": "2*(0,0,-1) + 1*x*y"},
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_run_matches_golden(tmp_path, golden):
    out = tmp_path / golden
    cfg = write_config(tmp_path, "golden.cfg", **GOLDEN_RUNS[golden],
                       output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    expected = Path(__file__).parent / "golden" / golden
    assert out.read_bytes() == expected.read_bytes()


def test_class_sum_homotopy_run(tmp_path):
    out = tmp_path / "cs.csv"
    cfg = write_config(tmp_path, "cs.cfg", experiment="class-sum-homotopy",
                       group="dihedral-inf", **{"class": "r"}, degree=1, R=3,
                       count=2, seed=3, output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert "class:1*r^-1 + 1*r" in lines[1]

    cfg = write_config(tmp_path, "cs_bad.cfg", experiment="class-sum-homotopy",
                       group="dihedral-inf", **{"class": "s"}, degree=1, R=2,
                       cap=50, output=tmp_path / "csb.csv")
    assert main(["run", str(cfg)]) == EXIT_CONFIG  # infinite class rejected


@pytest.mark.parametrize("experiment, fields, code", [
    ("verify-homotopy", dict(group="Z^1"), EXIT_INVARIANT),
    ("class-sum-homotopy", dict(group="heisenberg", **{"class": "(0,0,1)"}),
     EXIT_INVARIANT),
    ("class-sum-homotopy", dict(group="dihedral-inf", **{"class": "r"}), EXIT_OK),
])
def test_homotopy_residual_must_vanish_for_a_single_multiplier(
        tmp_path, monkeypatch, capsys, experiment, fields, code):
    # a nonzero residual is an invariant failure only for a central
    # multiplier; a larger class is measured, and the rows are written either way
    monkeypatch.setattr(homotopy, "_residual_scan",
                        lambda form, phi: ResidualReport(
                            Fraction(1, 2), 1, 0, None))
    out = tmp_path / "h.csv"
    cfg = write_config(tmp_path, "h.cfg", experiment=experiment, **fields,
                       degree=1, R=1, count=2, output=out)
    assert main(["run", str(cfg)]) == code
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert all(line.endswith(",1,2") for line in lines[1:])
    err = capsys.readouterr().err
    assert ("invariant failure: homotopy residual must vanish" in err) == (
        code == EXIT_INVARIANT)


@pytest.mark.parametrize("experiment, fields", [
    ("verify-homotopy", dict(group="heisenberg", degree=2)),
    ("class-sum-homotopy", dict(group="dihedral-inf", **{"class": "r^2"})),
])
def test_a_form_with_no_surviving_rows_draws_no_cochain(
        tmp_path, monkeypatch, experiment, fields):
    # the empty form certifies residual 0 for every cochain, so the rows are
    # written without a draw from the seed
    def no_draws(*args):
        raise AssertionError("drew a random cochain")

    monkeypatch.setattr(cli, "random_cochain", no_draws)
    out = tmp_path / "h.csv"
    cfg = write_config(tmp_path, "h.cfg", experiment=experiment, **fields,
                       R=3, count=3, output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert all(line.endswith(",0,1") for line in lines[1:])


def test_a_form_with_surviving_rows_samples_the_seed(tmp_path, monkeypatch):
    # r alone is not central in dihedral-inf, so symbols survive and each row
    # is the residual of the next cochain drawn from Random(seed)
    monkeypatch.setattr(cli, "_class_multipliers",
                        lambda cfg, group: ([group.parse_element("r")],
                                            "class:r"))
    out = tmp_path / "h.csv"
    cfg = write_config(tmp_path, "h.cfg", experiment="class-sum-homotopy",
                       group="dihedral-inf", **{"class": "r"}, degree=1, R=2,
                       count=3, seed=5, output=out)
    assert main(["run", str(cfg)]) == EXIT_INVARIANT
    written = [Fraction(int(num), int(den)) for num, den in
               (line.split(",")[-2:] for line in
                out.read_text().splitlines()[1:])]
    group = group_from_name("dihedral-inf")
    r = group.parse_element("r")
    rng = Random(5)
    expected = [class_sum_homotopy_residual(
        random_cochain(group, 1, 2, rng), [r]).max_abs for _ in range(3)]
    assert written == expected
    assert any(expected)


def test_determinism_byte_identical(tmp_path):
    configs = [
        dict(experiment="verify-homotopy", group="Z^1", degree=1, R=3,
             count=3, seed=11),
        dict(experiment="distance-curve", resolution="cyclic-inf", degree=0,
             p="1.5,2", R="1..5", seed=11),
        dict(experiment="translation-decay", group="Z^1", radius=5,
             indices="-6..6", p=2, seed=11),
        dict(experiment="class-sum-homotopy", group="dihedral-inf", degree=1,
             R=2, count=2, seed=11, **{"class": "r^2"}),
    ]
    for idx, base in enumerate(configs):
        out_a = tmp_path / f"a{idx}.csv"
        out_b = tmp_path / f"b{idx}.csv"
        cfg_a = write_config(tmp_path, f"a{idx}.cfg", **base, output=out_a)
        cfg_b = write_config(tmp_path, f"b{idx}.cfg", **base, output=out_b)
        assert main(["run", str(cfg_a)]) == EXIT_OK
        assert main(["run", str(cfg_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        svg_a, svg_b = out_a.with_suffix(".svg"), out_b.with_suffix(".svg")
        if svg_a.exists():
            assert svg_a.read_bytes() == svg_b.read_bytes()


def test_ball_cap_is_set_by_max_ball(tmp_path, capsys):
    cfg = write_config(tmp_path, "cap.cfg", experiment="verify-homotopy",
                       group="heisenberg", degree=1, R=3, count=1, seed=0,
                       max_ball=10, output=tmp_path / "cap.csv")
    assert main(["run", str(cfg)]) == EXIT_INVARIANT  # ball cap trips
    # a resolution's group takes the cap too, a fox: one included
    fox = write_config(tmp_path, "capfox.cfg", experiment="distance-curve",
                       resolution="fox:free:2", degree=0, p=2, R="1..3",
                       max_ball=10, output=tmp_path / "capfox.csv")
    assert main(["run", str(fox)]) == EXIT_INVARIANT
    assert f"{fox}: invariant failure: ball of free:2 would exceed the cap " \
        f"of 10 elements\n" in capsys.readouterr().err
    cfg0 = write_config(tmp_path, "cap0.cfg", experiment="verify-homotopy",
                        group="heisenberg", degree=1, R=3, count=1, seed=0,
                        max_ball=0, output=tmp_path / "cap0.csv")
    assert main(["run", str(cfg0)]) == EXIT_CONFIG
    assert "config error: field max_ball: must be at least 1, got 0" in \
        capsys.readouterr().err
    cfg2 = write_config(tmp_path, "cap2.cfg", experiment="verify-homotopy",
                        group="heisenberg", degree=1, R=2, count=1, seed=0,
                        max_ball=100000, output=tmp_path / "cap2.csv")
    assert main(["run", str(cfg2)]) == EXIT_OK


def test_distance_curve_over_the_ball_cap_writes_nothing(tmp_path, capsys):
    # the cap trips inside the curve, at whichever radius first outgrows it
    out = tmp_path / "capped.csv"
    cfg = write_config(tmp_path, "capped.cfg", experiment="distance-curve",
                       resolution="lattice:2", degree=0, p="1.5,3", R="2..8",
                       max_ball=100, output=out)
    assert main(["run", str(cfg)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        f"{cfg}: invariant failure: ball of Z^2 would exceed the cap of 100 "
        f"elements\n")
    assert not out.exists() and not out.with_suffix(".svg").exists()


def test_verify_homotopy_needs_h_without_central_generator(tmp_path, capsys):
    cfg = write_config(tmp_path, "noh.cfg", experiment="verify-homotopy",
                       group="dihedral-inf", degree=1, R=2,
                       output=tmp_path / "noh.csv")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "field h" in capsys.readouterr().err


def test_translation_decay_with_exact_vectors(tmp_path):
    out = tmp_path / "exact.csv"
    cfg = write_config(tmp_path, "ex.cfg", experiment="translation-decay",
                       group="Z^1", radius=5, indices="-12..12", p=2,
                       x="1*1", y="1*t^2", output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    values = {int(line.split(",")[6]): float(line.split(",")[7])
              for line in out.read_text().splitlines()[1:]}
    # pairing of delta at t^2 against the translate of delta at identity
    assert values[2] == 1.0
    assert all(value == 0.0 for idx, value in values.items() if idx != 2)


@pytest.mark.parametrize("group, x, y", [
    ("Z^2", "2*1 + 1*t1", "3*1 + 5*t1 + -1*t2"),
    ("dihedral-inf", "2*1 + 1*r", "3*1 + 5*r + -1*s"),
], ids=["Z^2", "dihedral-inf"])
def test_translation_decay_index_zero_pairs_untranslated(tmp_path, group, x,
                                                         y):
    out = tmp_path / "zero.csv"
    cfg = write_config(tmp_path, "zero.cfg", experiment="translation-decay",
                       group=group, radius=2, indices=0, p=2, x=x, y=y,
                       output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1
    g = group_from_name(group)
    space = TruncatedSpace(g, 1, 2)
    xv, yv = (vector_from_ring_parts(space, [parse_ring_element(g, text)])
              for text in (x, y))
    assert float(rows[0].split(",")[7]) == pairing(yv, xv) == 11.0


def test_translation_decay_rejects_negative_class_indices(tmp_path, capsys):
    cfg = write_config(tmp_path, "neg.cfg", experiment="translation-decay",
                       group="dihedral-inf", radius=3, indices="-2..2", p=2,
                       output=tmp_path / "n.csv")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "indices" in capsys.readouterr().err


def test_distance_curve_rank_two_x_parts(tmp_path):
    out = tmp_path / "rank2.csv"
    cfg = write_config(tmp_path, "r2.cfg", experiment="distance-curve",
                       resolution="lattice:2", degree=1, p=2, R="1..3",
                       x="1*1; 1*t2", output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 4


def test_distance_curve_x_fits_the_codomain_ball(tmp_path):
    # the boundary t - 1 of cyclic-inf reaches one step past R, so at R=1 the
    # chain lives on ball(2) and t^2 lies in it
    out = tmp_path / "reach.csv"
    cfg = write_config(tmp_path, "reach.cfg", experiment="distance-curve",
                       resolution="cyclic-inf", R="1..3", p=2, x="1*t^2",
                       output=out)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 4


def test_run_accepts_multiple_configs(tmp_path):
    cfg1 = write_config(tmp_path, "one.cfg", experiment="finite-homology", n=2,
                        N=1, p=2, output=tmp_path / "one.csv")
    cfg2 = write_config(tmp_path, "two.cfg", experiment="finite-index", n=4,
                        m=2, p=2, output=tmp_path / "two.csv")
    assert main(["run", str(cfg1), str(cfg2)]) == EXIT_OK
    assert (tmp_path / "one.csv").exists() and (tmp_path / "two.csv").exists()
    # one bad config makes the batch exit with the config code
    bad = write_config(tmp_path, "bad.cfg", experiment="finite-homology", n=1,
                       p=2, output=tmp_path / "bad.csv")
    assert main(["run", str(cfg1), str(bad)]) == EXIT_CONFIG


def test_svg_plot_structure():
    svg = svg_line_plot([("p=2", [(1, 0.5), (2, 0.4), (3, 0.35)]),
                         ("p=3", [(1, 0.4), (2, 0.3), (3, 0.25)])],
                        "demo", "R", "value")
    assert svg.count("<polyline") == 2
    assert "demo" in svg and "value" in svg


def test_run_config_returns_output_path(tmp_path):
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, "ok.cfg", experiment="finite-homology", n=2,
                       N=2, p=2, output=out)
    assert run_config(cfg) == out
    assert out.exists()


def test_verify_all_passes_every_check(capsys):
    assert main(["verify-all"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == \
        [[name, "PASS"] for name, _ in checks.ALL_CHECKS]


def test_verify_all_reports_a_failing_check(monkeypatch, capsys):
    def broken():
        raise AssertionError("injected failure")

    registered = checks.ALL_CHECKS
    monkeypatch.setattr(checks, "ALL_CHECKS", (("broken", broken),) + registered)
    assert main(["verify-all"]) == EXIT_INVARIANT
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["broken", "FAIL", "injected", "failure"]
    # a failing check does not stop the ones after it
    assert [line.split() for line in lines[1:]] == \
        [[name, "PASS"] for name, _ in registered]
