"""Per-group catalog facts pinned against a golden file.

For each group it records the element `verify-homotopy` uses when no `h` is
given, the first three members of the `central_catalog` family and the
relator words of the catalog presentation, or that each is rejected.  Run
this file as a script to print the facts.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

from lplab import checks
from lplab.cli import EXIT_OK, main
from lplab.group_ring import format_ring_element
from lplab.groups import group_from_name
from lplab.resolutions import relator_words
from lplab.vanishing import central_catalog

GOLDEN = Path(__file__).parent / "golden" / "catalog_facts.txt"


def _default_h(name: str, workdir: Path) -> str:
    out = workdir / "h.csv"
    cfg = workdir / "h.cfg"
    cfg.write_text(f"experiment=verify-homotopy\ngroup={name}\ndegree=1\n"
                   f"R=0\ncount=1\noutput={out}\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(cfg)])
    if code != EXIT_OK:
        return f"rejected (exit {code})"
    with out.open(encoding="utf-8") as handle:
        return list(csv.reader(handle))[1][1]


def _format_word(word, labels) -> str:
    return "*".join(labels[idx] if exp == 1 else f"{labels[idx]}^-1"
                    for idx, exp in word)


def catalog_facts() -> str:
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in checks.FACT_GROUPS:
            lines.append(f"group {name}")
            lines.append(f"  default h: {_default_h(name, Path(workdir))}")
            group = group_from_name(name)
            try:
                seq = central_catalog(group, 3)
            except ValueError:
                lines.append("  central catalog: rejected")
            else:
                lines.append(f"  central catalog: {seq.kind}")
                lines.extend(
                    f"    {i}: {format_ring_element(seq.ring_element(i))}"
                    for i in (1, 2, 3))
            try:
                words = relator_words(group)
            except ValueError:
                lines.append("  presentation: rejected")
            else:
                lines.append(f"  presentation: {len(words)} relator(s)")
                lines.extend(f"    {_format_word(word, group.generator_labels)}"
                             for word in words)
    return "\n".join(lines) + "\n"


def test_catalog_facts_match_golden():
    assert catalog_facts() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(catalog_facts(), end="")
