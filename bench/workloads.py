"""The benchmark's workloads: per-pass inputs, the CLI invocations of one
pass, and the output check of every invocation.

Each workload is a function ``(seed, workdir) -> list[Op]`` that generates
and writes the pass's inputs under ``workdir`` and returns the invocations.
The same seed gives the same inputs.  A check returns ``None`` when the
invocation's output is correct, otherwise a one-line reason.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from ccsched.asymmetric import schedule_asymmetric
from ccsched.dof import RegionBudget, asymmetric_region
from ccsched.model import table_from_json, table_to_json
from ccsched.symmetric import schedule_symmetric
from ccsched.verifier import decodability_check

# Fig. 3 shapes at (L, G) = (11, 8): (omega, t) -> (symmetric DoFs, all DoFs),
# the values acceptance criterion 4 fixes.
FIG3 = {
    (4, 1): ([4, 8, 12, 16], list(range(4, 21, 2))),
    (6, 2): ([6, 12, 18], list(range(6, 31, 3))),
    (8, 3): ([8, 16], list(range(8, 41, 4))),
}
# (L, G, t, omega): dense shapes whose donor ladders mostly fail; (9, 3)
# also runs the backtracking base-partition search.
DENSE = ((13, 6, 2, 7), (21, 8, 3, 9))
# Trials per table in the oracle workload; 100 (criterion 6) takes ~149 s.
ORACLE_TRIALS = 4
ORACLE_LEAKAGE_MAX = 1e-9
ORACLE_SIGMA_MIN = 1e-6
SWEEP_SNR = "0:5:35"
SWEEP_TRIALS = 200
SLOPE_RATIO = (1.4 * 0.85, 1.4 * 1.15)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its standard output."""

    argv: list[str]
    check: Callable[[str], str | None]


# -- construct ---------------------------------------------------------------


def construct(seed: int, workdir: Path) -> list[Op]:
    """`reproduce --case all`, then `dof-region` on the Fig. 3 and dense shapes."""
    ops = [Op(["reproduce", "--case", "all", "--seed", str(seed)], check_reproduce)]
    shapes = [(11, 8, t, omega) for omega, t in FIG3] + list(DENSE)
    for L, G, t, omega in shapes:
        out = workdir / f"region_L{L}_G{G}_t{t}_omega{omega}.csv"
        argv = ["dof-region", "--L", str(L), "--G", str(G), "--t", str(t), "--omega", str(omega)]
        argv += ["--seed", str(seed), "-o", str(out)]
        want = FIG3[(omega, t)][1] if (L, G) == (11, 8) else None
        ops.append(Op(argv, partial(check_region, out, want)))
    return ops


def check_reproduce(stdout: str) -> str | None:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "PASS  overall":
        return f"reproduce summary does not read PASS overall: {lines[-1:] or 'empty'}"
    for (omega, t), (sym_want, asym_want) in FIG3.items():
        for kind, want in (("sym", sym_want), ("asym", asym_want)):
            pattern = rf"region {kind} omega={omega} t={t}: (\[[0-9, ]*\])$"
            found = [json.loads(m.group(1)) for m in map(partial(re.search, pattern), lines) if m]
            if found != [want]:
                return f"reproduce region {kind} omega={omega} t={t}: {found} != {want}"
    return None


def check_region(out: Path, want: list[int] | None, stdout: str) -> str | None:
    """Every witness re-passes the symbolic check with the DoF of its row;
    on Fig. 3 shapes the DoF set also matches criterion 4."""
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    dofs = [int(row["dof"]) for row in rows]
    if want is not None and dofs != want:
        return f"{out.name}: DoF set {dofs} != {want}"
    if not rows:
        return f"{out.name}: no witnessed DoF"
    for row in rows:
        text = (out.parent / row["witness_file"]).read_text()
        totals = {sum(len(g) for g in col) for col in json.loads(text)["columns"]}
        if totals != {int(row["dof"])}:
            return f"{row['witness_file']}: column stream totals {sorted(totals)} != {row['dof']}"
        if not decodability_check(table_from_json(text)).ok:
            return f"{row['witness_file']}: symbolic check fails"
    return None


# -- oracle ------------------------------------------------------------------


def oracle(seed: int, workdir: Path) -> list[Op]:
    """`verify --numeric` on each of the 27 Fig. 3 witness tables."""
    ops = []
    for omega, t in FIG3:
        region = asymmetric_region(11, 8, t, omega, RegionBudget(seed=seed))
        for dof, witness in sorted(region.witnesses.items()):
            path = workdir / f"fig3_omega{omega}_t{t}_dof{dof}.json"
            path.write_text(table_to_json(witness.table))
            argv = ["verify", "--table", str(path), "--numeric"]
            argv += ["--trials", str(ORACLE_TRIALS), "--seed", str(2024 + seed)]
            ops.append(Op(argv, check_oracle))
    return ops


def check_oracle(stdout: str) -> str | None:
    doc = json.loads(stdout)
    numeric = doc.get("numeric", {})
    if doc["symbolic"] != "PASS" or numeric.get("ok") is not True:
        return f"verify verdict: symbolic {doc['symbolic']}, numeric {numeric}"
    if not numeric["max_leakage"] <= ORACLE_LEAKAGE_MAX:
        return f"max leakage {numeric['max_leakage']:.3g} > {ORACLE_LEAKAGE_MAX:g}"
    if not numeric["min_sigma"] > ORACLE_SIGMA_MIN:
        return f"min sigma {numeric['min_sigma']:.3g} <= {ORACLE_SIGMA_MIN:g}"
    return None


# -- sweep -------------------------------------------------------------------


def sweep(seed: int, workdir: Path) -> list[Op]:
    """`rate-sweep` on the Example 1 tables (10, 3, 1, 5, 2) with m = 0, 1, 2."""
    baseline = schedule_symmetric(10, 3, 1, 5, 2)
    tables = {10: baseline}
    for m in (1, 2):
        tables[10 + 2 * m] = schedule_asymmetric(baseline, m=m, seed=seed)[0]
    ops = []
    for dof, table in tables.items():
        path = workdir / f"example1_dof{dof}.json"
        path.write_text(table_to_json(table))
        out = workdir / f"sweep_dof{dof}.csv"
        argv = ["rate-sweep", "--table", str(path), "--snr", SWEEP_SNR]
        argv += ["--trials", str(SWEEP_TRIALS), "--seed", str(42 + seed), "-o", str(out)]
        reference = workdir / "sweep_dof10.csv" if dof == 14 else None
        ops.append(Op(argv, partial(check_sweep, out, dof, reference)))
    return ops


def read_sweep(path: Path) -> list[tuple[float, float, int]]:
    with path.open() as fh:
        return [
            (float(row["snr_db"]), float(row["mean_rsym"]), int(row["dof"]))
            for row in csv.DictReader(fh)
        ]


def high_snr_slope(points: list[tuple[float, float, int]], top_db: float = 10.0) -> float:
    """Least-squares slope of the rate over the top SNR decade."""
    cutoff = max(snr for snr, _, _ in points) - top_db
    xs, ys = zip(*[(snr, rate) for snr, rate, _ in points if snr >= cutoff])
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return num / sum((x - x_mean) ** 2 for x in xs)


def check_sweep(out: Path, dof: int, reference: Path | None, stdout: str) -> str | None:
    """Rate monotone in SNR; against the dof-10 sweep, the dof-14 table
    wins at 30 dB and its high-SNR slope is 1.4x within 15 %."""
    points = read_sweep(out)
    if {d for _, _, d in points} != {dof}:
        return f"{out.name}: dof column does not read {dof}"
    rates = [rate for _, rate, _ in points]
    if any(a > b for a, b in zip(rates, rates[1:])):
        return f"{out.name}: rate not monotone in SNR: {rates}"
    if reference is None:
        return None
    base = read_sweep(reference)
    at30 = {snr: rate for snr, rate, _ in points}.get(30.0)
    base30 = {snr: rate for snr, rate, _ in base}.get(30.0)
    if at30 is None or base30 is None or not at30 > base30:
        return f"dof {dof} does not beat dof 10 at 30 dB: {at30} vs {base30}"
    ratio = high_snr_slope(points) / high_snr_slope(base)
    if not SLOPE_RATIO[0] <= ratio <= SLOPE_RATIO[1]:
        return f"high-SNR slope ratio {ratio:.4f} outside {SLOPE_RATIO}"
    return None


WORKLOADS = {"construct": construct, "oracle": oracle, "sweep": sweep}
