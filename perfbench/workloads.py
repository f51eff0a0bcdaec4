"""The lab configs each benchmark workload runs, generated from the workload seed.

An op is one call into the program: `lab run <config>` or `lab verify-all`.
The seed only fills the `seed=` key of each config.  `distance-curve` accepts
that key but does not read it (its chain is the fixed default), so the two
`lp-*` workloads run the same inputs at every seed; the homotopy experiments
draw their random cochains from it.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    """One program call.  `cfg` is None for `lab verify-all`."""

    name: str
    cfg: dict | None

    @property
    def experiment(self) -> str:
        return "verify-all" if self.cfg is None else self.cfg["experiment"]

    def config_text(self) -> str:
        lines = [f"{key}={value}" for key, value in self.cfg.items()]
        lines.append(f"output=out/{self.name}.csv")
        return "\n".join(lines) + "\n"


def _homotopy(group: str, degree: int, radius: int, count: int, seed: int) -> Op:
    name = f"homotopy-{group.replace('^', '').replace(':', '')}-d{degree}-R{radius}"
    return Op(name, {"experiment": "verify-homotopy", "group": group,
                     "degree": degree, "R": radius, "count": count,
                     "seed": seed})


def _class_sum(cls: str, degree: int, radius: int, seed: int) -> Op:
    name = f"class-sum-{cls.replace('^', '')}-d{degree}-R{radius}"
    return Op(name, {"experiment": "class-sum-homotopy", "group": "dihedral-inf",
                     "class": cls, "degree": degree, "R": radius, "count": 3,
                     "seed": seed})


def _curve(resolution: str, degree: int, radii: str, p: str, seed: int) -> Op:
    name = (f"curve-{resolution.replace(':', '')}-d{degree}-R{radii.replace('..', '-')}"
            f"-p{p.replace(',', '_')}")
    return Op(name, {"experiment": "distance-curve", "resolution": resolution,
                     "degree": degree, "p": p, "R": radii, "seed": seed})


# The exact and IRLS workloads are sized so that a pass takes about 6 s and
# a run holds several passes.

def exact_homotopy(seed: int) -> list[Op]:
    return [
        _homotopy("heisenberg", 2, 3, 1, seed),
        _homotopy("heisenberg", 1, 3, 20, seed),
        _homotopy("Z^1", 3, 3, 1, seed),
        _homotopy("Z^1", 2, 3, 20, seed),
        _homotopy("cyclic:4", 3, 3, 3, seed),
        _class_sum("r", 2, 3, seed),
        _class_sum("r^2", 2, 3, seed),
    ]


def lp_irls(seed: int) -> list[Op]:
    return [
        _curve("lattice:2", 0, "2..8", "1.5,3", seed),
        _curve("lattice:2", 1, "2..8", "1.5,3", seed),
        _curve("fox:heisenberg", 0, "1..4", "1.5,3", seed),
        _curve("fox:free:2", 0, "1..3", "1.5,3", seed),
        _curve("cyclic-inf", 0, "1..32", "1.5,3", seed),
    ]


def lp_direct(seed: int) -> list[Op]:
    # One radius per op: a failed orthogonality gate aborts only its own op.
    # A pass takes about 3 s.  Three ops (fox:heisenberg deg 0 R4 and deg 1
    # R4, lattice:3 deg 1 R4) fail the program's own gate.
    return [
        _curve("fox:free:2", 0, "4", "2", seed),
        _curve("fox:heisenberg", 0, "4", "2", seed),
        _curve("fox:heisenberg", 0, "5", "2", seed),
        _curve("fox:heisenberg", 1, "4", "2", seed),
        _curve("lattice:3", 0, "6", "2", seed),
        _curve("lattice:3", 1, "4", "2", seed),
        _curve("lattice:2", 0, "16", "2", seed),
    ]


def verify_all(seed: int) -> list[Op]:
    return [Op("verify-all", None)]


WORKLOADS = {
    "exact-homotopy": exact_homotopy,
    "lp-irls": lp_irls,
    "lp-direct": lp_direct,
    "verify-all": verify_all,
}

# One tiny op per workload: the warm-up before timing, and the smoke mode.
SMOKE = {
    "exact-homotopy": lambda seed: [_homotopy("Z^1", 1, 2, 1, seed)],
    "lp-irls": lambda seed: [_curve("cyclic-inf", 0, "1..3", "1.5", seed)],
    "lp-direct": lambda seed: [_curve("lattice:2", 0, "3", "2", seed)],
    "verify-all": verify_all,
}
