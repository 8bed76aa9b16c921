"""Properties the benchmark checks on each workload's outputs.

Every check recomputes its property with numpy from the outputs and from the
benchmark's own knowledge of the models; none calls into ntcentral, so a
fault in the program cannot vouch for itself.  Each check returns a list of
problems, empty when the property holds.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Per model: species in CSV column order, groups of species whose summed mass
# a periodic run without net source conserves, and the admissible range.
MODELS = {
    "arrhenius": {
        "species": ("rho",),
        "conserved": ((0,),),
        "range": (0.0, 1.0),
    },
    "keyfitz-kranzer": {
        "species": ("rho1", "rho2"),
        "conserved": ((0,), (1,)),
        "range": (None, None),
    },
    "multilane": {
        "species": ("rho1", "rho2"),
        # lane exchange moves mass between lanes; only the total is conserved
        "conserved": ((0, 1),),
        "range": (0.0, 1.0),
    },
    "nonlocal-euler": {
        "species": ("rho", "u"),
        # u relaxes toward the kernel average, so only rho is conserved
        "conserved": ((0,),),
        "range": (None, None),
    },
    "garz": {
        "species": ("rho", "q"),
        "conserved": ((0,), (1,)),
        "range": (0.0, None),
    },
}

#: Observed order of accuracy of each scheme column in a convergence table.
ORDER = {"lxf1": 1.0, "lxf2": 2.0, "nt-v1": 2.0, "nt-v2": 2.0}
#: Largest distance of the finest observed rate from the scheme's order.
RATE_TOLERANCE = 0.3
#: Conserved masses may drift by this share of the L1 mass (round-off only).
MASS_RTOL = 1e-12

_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "pi": np.pi,
    "where": np.where,
    "abs": np.abs,
}


def cell_averages(exprs, x_left: float, x_right: float, cells: int) -> np.ndarray:
    """Cell averages of per-species expressions in ``x``, 5-point Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(5)
    weights = weights / weights.sum()
    dx = (x_right - x_left) / cells
    centers = x_left + (np.arange(cells) + 0.5) * dx
    x = centers[:, None] + 0.5 * dx * nodes[None, :]
    out = np.empty((len(exprs), cells))
    for k, expr in enumerate(exprs):
        samples = eval(expr, {"__builtins__": {}}, {**_EXPR_NAMES, "x": x})
        out[k] = np.broadcast_to(np.asarray(samples, dtype=float), x.shape) @ weights
    return out


def rate_problems(label: str, errors: "dict[str, list[tuple[int, float]]]") -> list:
    """Finest rate near each scheme's order; every nt error below lxf1's."""
    problems = []
    for scheme, rows in errors.items():
        errs = [e for _, e in rows]
        if not all(math.isfinite(e) and e > 0.0 for e in errs):
            problems.append(f"{label}/{scheme}: errors not finite and positive: {errs}")
            continue
        rate = math.log2(errs[-2] / errs[-1])
        if abs(rate - ORDER[scheme]) > RATE_TOLERANCE:
            problems.append(
                f"{label}/{scheme}: final rate {rate:.3f}, expected "
                f"{ORDER[scheme]:g} +- {RATE_TOLERANCE}"
            )
    lxf1 = dict(errors.get("lxf1", []))
    for scheme, rows in errors.items():
        if not scheme.startswith("nt"):
            continue
        for level, err in rows:
            if not err < lxf1.get(level, -math.inf):
                problems.append(
                    f"{label}/{scheme}: error {err:.3e} at level {level} is not "
                    f"below lxf1's {lxf1.get(level)}"
                )
    return problems


def range_problems(label: str, model: str, values: np.ndarray) -> list:
    """Finite state inside the model's admissible range."""
    if not np.isfinite(values).all():
        return [f"{label}: non-finite state"]
    lo, hi = MODELS[model]["range"]
    problems = []
    if lo is not None and values.min() < lo:
        problems.append(f"{label}: minimum {values.min():.6g} below {lo}")
    if hi is not None and values.max() > hi:
        problems.append(f"{label}: maximum {values.max():.6g} above {hi}")
    return problems


def mass_problems(label: str, model: str, initial: np.ndarray, final: np.ndarray, dx: float) -> list:
    """Every conserved mass of ``final`` equals that of ``initial`` to round-off."""
    problems = []
    for group in MODELS[model]["conserved"]:
        rows = list(group)
        m0 = dx * initial[rows].sum()
        m1 = dx * final[rows].sum()
        scale = dx * np.abs(initial[rows]).sum()
        if not abs(m1 - m0) <= MASS_RTOL * scale:
            names = "+".join(MODELS[model]["species"][k] for k in rows)
            problems.append(
                f"{label}: mass of {names} moved from {m0!r} to {m1!r} "
                f"(allowed {MASS_RTOL * scale:.3g})"
            )
    return problems


def read_csv(path: str) -> "tuple[list[str], np.ndarray]":
    """Header and float rows of a CSV table."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def monitor_problems(label: str, path: str, steps: int, t_final: float) -> list:
    """One monitor row per step plus the initial one, ending exactly at T."""
    header, table = read_csv(path)
    t = table[:, header.index("t")]
    problems = []
    if len(t) != steps + 1:
        problems.append(f"{label}: {len(t)} monitor rows, expected {steps + 1}")
    if t[0] != 0.0 or t[-1] != t_final:
        problems.append(f"{label}: monitor spans [{t[0]!r}, {t[-1]!r}], expected [0, {t_final!r}]")
    if not (np.diff(t) > 0.0).all():
        problems.append(f"{label}: monitor times do not increase")
    return problems


def snapshot_problems(label: str, path: str, model: str) -> list:
    """Species columns of a solution snapshot stay finite and in range."""
    header, table = read_csv(path)
    cols = [header.index(s) for s in MODELS[model]["species"]]
    return range_problems(label, model, table[:, cols].T)


def ordering_problems(label: str, path: str, model: str) -> list:
    """In a compare table, lxf1 is the farthest (L1) from the reference."""
    header, table = read_csv(path)
    x = table[:, header.index("x")]
    dx = float(x[1] - x[0])
    dist: dict[str, float] = {}
    for i, name in enumerate(header):
        scheme, _, species = name.partition(":")
        if species not in MODELS[model]["species"] or scheme == "reference":
            continue
        ref = table[:, header.index(f"reference:{species}")]
        dist[scheme] = dist.get(scheme, 0.0) + dx * float(np.abs(table[:, i] - ref).sum())
    if "lxf1" not in dist:
        return [f"{label}: no lxf1 column"]
    worst = max(dist, key=dist.get)
    others = [d for s, d in dist.items() if s != "lxf1"]
    if not others or not all(dist["lxf1"] > d for d in others):
        return [f"{label}: {worst} is farthest from the reference, not lxf1: {dist}"]
    return []
