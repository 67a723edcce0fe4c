"""Command-line front end: schedule construction, verification, DoF region
enumeration, rate sweeps, and the bundled reproduction runner.

``--seed`` keys only the channel draws, each addressed by a (trial, column)
cell (``verifier``'s module docstring): ``verify --numeric`` draws cell
(trial, 0) for all columns, ``rate-sweep`` cell (trial, column).  The
constructions are deterministic: ``schedule``, ``dof-region`` and
``reproduce`` accept ``--seed`` and ignore it, so identical (config, seed)
runs produce byte-identical artifacts.  Parameter problems, unreadable input files and
requests too large for memory (a table whose antenna counts no channel draw
can hold) exit 2, construction failures 3, verification failures 4, with a
machine-readable JSON reason on stderr.

The argument parser is built once per process, on the first call of
``main``, and parses every call.  A config file's values become the
subcommand's own flags on the command line, so argparse checks them as it
checks any flag, with the same messages, and they reach no other call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .asymmetric import dof_of_table, schedule_asymmetric
from .dof import RegionBudget, asymmetric_region, region_to_csv_rows, symmetric_region
from .errors import CcschedError, ParameterError, VerificationError
from .model import ScheduleTable, table_from_json, table_to_json
from .rates import snr_sweep, sweep_to_csv
from .symmetric import DEFAULT_DELTA_MAX, feasible_beta_set, schedule_symmetric
from .verifier import _key_word, decodability_check, verify_table_numeric


def load_config(path: str) -> dict[str, str]:
    """Flat key = value document mirroring the CLI flags; # starts a comment."""
    config = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        if "\0" in raw:  # no file name or flag value holds one
            raise ParameterError(f"{path}:{lineno}: NUL character")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        config[key.replace("-", "_")] = value.strip("\"'")
    return config


def config_argv(subparser: argparse.ArgumentParser, config: dict[str, str]) -> list[str]:
    """Config values as the subcommand's own flags: ``--flag=value``, or the
    bare switch for ``true`` (nothing for ``false``)."""
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    argv = []
    for key, value in config.items():
        action = actions.get(key)
        if action is None:
            raise ParameterError(f"unknown config key: {key}")
        flag = action.option_strings[-1]  # the long spelling
        if action.nargs != 0:
            argv.append(f"{flag}={value}")
        elif value.lower() not in ("true", "false"):  # a flag without a value (store_true)
            raise ParameterError(f"config key {key}: expected true or false, got {value!r}")
        elif value.lower() == "true":
            argv.append(flag)
    return argv


# SNR grids: a sweep's arrays grow with the point count, and above ~3082 dB
# the linear power 10**(snr/10) overflows a float
MAX_SNR_POINTS = 1000
MAX_SNR_DB = 3000.0
# a sweep holds one rate per (grid point, trial, column), 80 MB of floats at
# this many, and a few arrays of that size at once; a numeric verification,
# whose time grows with its column-trials, counts as a sweep of one point
MAX_SWEEP_RATES = 10**7


def parse_snr_grid(spec: str) -> list[float]:
    """Either "start:step:stop" (inclusive) or a comma-separated list, in dB.

    Every number must be finite and at most MAX_SNR_DB, and the grid must
    hold 1..MAX_SNR_POINTS points; anything else raises ParameterError.
    """

    def number(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ParameterError(f"bad SNR grid {spec!r}: {text!r} is not a number") from None
        if not (math.isfinite(value) and value <= MAX_SNR_DB):
            raise ParameterError(
                f"bad SNR grid {spec!r}: {text!r} is not a finite value up to {MAX_SNR_DB:g} dB"
            )
        return value

    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParameterError(f"bad SNR grid {spec!r}: expected start:step:stop")
        start, step, stop = map(number, parts)
        if step <= 0:
            raise ParameterError("SNR grid step must be positive")
        if (stop - start) / step >= MAX_SNR_POINTS:
            raise ParameterError(f"bad SNR grid {spec!r}: more than {MAX_SNR_POINTS} points")
        grid = []
        value = start
        while value <= stop + 1e-9:
            grid.append(round(value, 9))
            value += step
    else:
        grid = [number(p) for p in spec.split(",")]
    if not 1 <= len(grid) <= MAX_SNR_POINTS:
        raise ParameterError(f"bad SNR grid {spec!r}: {len(grid)} points, expected 1 to {MAX_SNR_POINTS}")
    return grid


def write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


def cmd_feasible_beta(args) -> int:
    betas = feasible_beta_set(args.L, args.G, args.t, args.omega, args.delta_max)
    print(" ".join(str(b) for b in betas))
    return 0


def build_table(args) -> ScheduleTable:
    if args.mode == "sym":
        return schedule_symmetric(args.L, args.G, args.t, args.omega, args.beta, args.delta_max)
    baseline = schedule_symmetric(
        args.L, args.G, args.t, args.omega, args.beta, args.delta_max, min_columns=2
    )
    table, _, _ = schedule_asymmetric(baseline, args.m, tau=args.tau, I_max=args.imax)
    return table


def cmd_schedule(args) -> int:
    if args.imax is not None and args.imax < 1:
        raise ParameterError(f"--imax must be at least 1, got {args.imax}")
    if args.tau is not None and args.tau < 0:
        raise ParameterError(f"--tau must be non-negative, got {args.tau}")
    if args.beta is None:
        betas = feasible_beta_set(args.L, args.G, args.t, args.omega, args.delta_max)
        if not betas:
            raise ParameterError("feasible stream-count set is empty at these parameters")
        args.beta = betas[-1]
    table = build_table(args)
    write_text(args.output, table_to_json(table))
    return 0


def check_draw_flags(args) -> None:
    """Channel draws need at least one trial and a seed that is a Philox key
    word, in [0, 2**64), checked by the draws' own rule before the table is
    read, so a table that fails the symbolic check is refused too; a
    leakage tolerance, where the command takes one, must be finite and
    positive, or the leakage check would pass everything (inf, nan)."""
    if args.trials < 1:
        raise ParameterError(f"--trials must be at least 1, got {args.trials}")
    if not _key_word(args.seed):
        rule = "non-negative" if args.seed < 0 else "an integer in [0, 2**64)"
        raise ParameterError(f"--seed must be {rule}, got {args.seed}")
    if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
        raise ParameterError(f"--tol must be a finite positive number, got {args.tol}")


def check_rate_budget(points: int, trials: int, columns: int) -> None:
    """Refuse a run of more than MAX_SWEEP_RATES (SNR point, trial, column)
    rates; a numeric verification counts as a sweep of one point."""
    rates = points * trials * columns
    if rates > MAX_SWEEP_RATES:
        raise ParameterError(
            f"{points} SNR point{'s' * (points != 1)} x {trials} trials x {columns} columns "
            f"is {rates} rates, more than {MAX_SWEEP_RATES}: use fewer trials or SNR points"
        )


def cmd_verify(args) -> int:
    if args.numeric:
        check_draw_flags(args)
    table = table_from_json(Path(args.table).read_text())
    table.validate()
    if args.numeric:
        check_rate_budget(1, args.trials, len(table.columns))
    report = decodability_check(table)
    doc = {
        "symbolic": "PASS" if report.ok else "FAIL",
        "witnesses": [w._asdict() for w in report.witnesses],
        "min_slack": report.min_slack,
    }
    ok = report.ok
    if args.numeric:
        if not ok:
            doc["numeric"] = {"skipped": "symbolic check failed"}
        else:
            numeric = verify_table_numeric(
                table, trials=args.trials, seed=args.seed, tol=args.tol, symbolic=report
            )
            doc["numeric"] = {
                "trials": args.trials,
                "max_leakage": numeric.max_leakage,
                "max_leakage_at": numeric.max_leakage_at,
                "min_sigma": numeric.min_sigma,
                "min_sigma_at": numeric.min_sigma_at,
                "ok": numeric.ok,
            }
            ok = ok and numeric.ok
    print(json.dumps(doc, indent=2))
    if not ok:
        raise VerificationError("table failed verification")
    return 0


def cmd_dof_region(args) -> int:
    budget = RegionBudget(delta_max=args.delta_max)
    region = asymmetric_region(args.L, args.G, args.t, args.omega, budget)
    out = Path(args.output) if args.output not in (None, "-") else None
    witness_dir = Path(args.witness_dir) if args.witness_dir else (
        out.parent / f"{out.stem}_witnesses" if out else None
    )

    def witness_name(dof: int) -> str:
        name = f"witness_omega{args.omega}_t{args.t}_dof{dof}.json"
        if witness_dir is not None:
            witness_dir.mkdir(parents=True, exist_ok=True)
            (witness_dir / name).write_text(table_to_json(region.witnesses[dof].table))
            return os.path.relpath(witness_dir / name, out.parent) if out else str(witness_dir / name)
        return name

    rows = ["scheme,omega,t,beta,m,dof,witness_file"]
    rows.extend(region_to_csv_rows(region, witness_name))
    write_text(args.output, "\n".join(rows) + "\n")
    return 0


def cmd_rate_sweep(args) -> int:
    check_draw_flags(args)
    grid = parse_snr_grid(args.snr)
    table = table_from_json(Path(args.table).read_text())
    table.validate()
    check_rate_budget(len(grid), args.trials, len(table.columns))
    dof = dof_of_table(table)
    # refused before the sweep runs; an empty column keeps the sweep's own
    # reason, "no scheduled streams" (exit 2)
    if not isinstance(dof, int) and all(dof):
        raise VerificationError(f"non-uniform per-column stream totals: {dof}")
    points = snr_sweep(table, grid, trials=args.trials, seed=args.seed)
    write_text(args.output, sweep_to_csv(points, dof, table.subpacketization))
    return 0


def _reproduce_example(name: str, L, G, t, omega, beta, m, plan_want, dof, shape, outdir):
    baseline = schedule_symmetric(L, G, t, omega, beta, min_columns=2)
    table, plan, _ = schedule_asymmetric(baseline, m)
    if outdir is not None:
        (outdir / f"{name}.json").write_text(table_to_json(table))
    return [
        (f"{name}: plan (d, r, delta_tilde, S_tilde)",
         (plan.d, plan.r, plan.delta_tilde, plan.S_tilde) == plan_want),
        (f"{name}: dof = {dof}", dof_of_table(table) == dof),
        (f"{name}: columns", (len(table.columns), len(table.columns[0].groups)) == shape),
        (f"{name}: symbolic check", decodability_check(table).ok),
    ]


def _reproduce_feasible_sets(outdir):
    checks = []
    for (L, G, t, omega), want in (
        ((11, 8, 2, 4), [3, 6]),
        ((10, 3, 1, 3), [2]),
        ((10, 3, 1, 5), [2]),
        ((10, 3, 1, 10), [1]),
    ):
        got = feasible_beta_set(L, G, t, omega)
        checks.append((f"feasible-set L={L} G={G} t={t} omega={omega}: {got}", got == want))
    return checks


def _reproduce_fig3(outdir):
    checks = []
    for (omega, t), (sym_want, asym_want) in {
        (4, 1): ([4, 8, 12, 16], list(range(4, 21, 2))),
        (6, 2): ([6, 12, 18], list(range(6, 31, 3))),
        (8, 3): ([8, 16], list(range(8, 41, 4))),
    }.items():
        sym = symmetric_region(11, 8, t, omega)
        region = asymmetric_region(11, 8, t, omega)
        asym = list(region.asymmetric_dofs)
        checks.append((f"region sym omega={omega} t={t}: {sym}", sym == sym_want))
        checks.append((f"region asym omega={omega} t={t}: {asym}", asym == asym_want))
        if outdir is not None:
            for dof, witness in sorted(region.witnesses.items()):
                path = outdir / f"fig3_omega{omega}_t{t}_dof{dof}.json"
                path.write_text(table_to_json(witness.table))
    return checks


# each case takes the artifact directory (or None) and returns its (label, passed) checks
REPRODUCE_CASES = {
    "example1": partial(_reproduce_example, "example1", 10, 3, 1, 5, 2, 2, (5, 2, 7, 10), 14, (10, 7)),
    "example2": partial(_reproduce_example, "example2", 11, 6, 2, 5, 3, 3, (5, 3, 8, 10), 24, (10, 8)),
    "feasible-sets": _reproduce_feasible_sets,
    "fig3": _reproduce_fig3,
}


def cmd_reproduce(args) -> int:
    outdir = Path(args.output) if args.output else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    cases = list(REPRODUCE_CASES) if args.case == "all" else [args.case]
    checks = [check for case in cases for check in REPRODUCE_CASES[case](outdir)]
    checks.append(("overall", all(ok for _, ok in checks)))
    summary = "".join(f"{'PASS' if ok else 'FAIL'}  {label}\n" for label, ok in checks)
    sys.stdout.write(summary)
    if outdir is not None:
        (outdir / "summary.txt").write_text(summary)
    if not checks[-1][1]:
        raise VerificationError("reproduction summary contains failures")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors (a missing or unknown flag, a bad flag value) raise
    ParameterError, so they exit 2 with a JSON reason like any bad input."""

    def error(self, message: str):
        raise ParameterError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ccsched",
        description="multicast schedule construction and verification for "
        "cache-aided multi-antenna downlinks",
    )
    parser.add_argument("--version", action="version", version=f"ccsched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    inert_seed = "accepted for compatibility; the construction ignores it"

    def add_common(p, *names):
        p.add_argument("--config", help="key = value file mirroring the flags")
        if "params" in names:
            p.add_argument("--L", type=int, required=True, help="transmit antennas")
            p.add_argument("--G", type=int, required=True, help="receive antennas per user")
            p.add_argument("--t", type=int, required=True, help="coded-caching gain")
            p.add_argument("--omega", type=int, required=True, help="served user count")
            p.add_argument("--delta-max", type=int, default=DEFAULT_DELTA_MAX)
        if "seed" in names:
            p.add_argument("--seed", type=int, default=0, help=inert_seed)

    p = sub.add_parser("feasible-beta", help="symmetric per-user stream counts")
    add_common(p, "params")
    p.set_defaults(func=cmd_feasible_beta)

    p = sub.add_parser("schedule", help="construct a schedule table")
    add_common(p, "params", "seed")
    p.add_argument("--mode", choices=["sym", "asym"], default="asym")
    p.add_argument("--beta", type=int, default=None, help="per-user streams (default: largest feasible)")
    p.add_argument("--m", type=int, default=0, help="groups added per retained column")
    p.add_argument("--tau", type=int, default=None, help="pairwise overlap threshold")
    p.add_argument("--imax", type=int, default=None, help="greedy iteration cap")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("verify", help="check a table symbolically and numerically")
    p.add_argument("--config", help="key = value file mirroring the flags")
    p.add_argument("--table", required=True)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dof-region", help="achievable DoF values with witnesses")
    add_common(p, "params", "seed")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--witness-dir", default=None)
    p.set_defaults(func=cmd_dof_region)

    p = sub.add_parser("rate-sweep", help="symmetric rate over an SNR grid")
    p.add_argument("--config", help="key = value file mirroring the flags")
    p.add_argument("--table", required=True)
    p.add_argument("--snr", default="0:5:35", help="start:step:stop in dB, or a list")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_rate_sweep)

    p = sub.add_parser("reproduce", help="re-run the bundled reference checks")
    p.add_argument("--config", help="key = value file mirroring the flags")
    p.add_argument("--case", choices=[*REPRODUCE_CASES, "all"], default="all")
    p.add_argument("--seed", type=int, default=0, help=inert_seed)
    p.add_argument("-o", "--output", default=None, help="artifact directory")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a.choices for a in parser._actions if isinstance(a.choices, dict))


# finds --config in a command line; one without a file name is left to parse_args
_CONFIG_FLAG = _ArgumentParser(prog="ccsched", add_help=False)
_CONFIG_FLAG.add_argument("--config", nargs="?")


def parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv``; the values of a ``--config`` file become the
    subcommand's own flags, placed right after the subcommand, so argparse
    types and checks them as it does every flag, explicit flags win and the
    file may supply required flags.  ``parser`` is never changed, so it can
    serve every call."""
    path = _CONFIG_FLAG.parse_known_args(argv)[0].config
    subcommands = _subcommands(parser)
    if path is not None and argv[0] in subcommands:
        argv = [argv[0], *config_argv(subcommands[argv[0]], load_config(path)), *argv[1:]]
    try:
        return parser.parse_args(argv)
    except ParameterError:
        # argparse names a missing required flag before an unknown one: name
        # an unknown one first, found on a parser of its own with none required
        lenient = make_parser()
        for subparser in _subcommands(lenient).values():
            for action in subparser._actions:
                action.required = False
        lenient.parse_args(argv)
        raise


def join_snr_grid(argv: list[str]) -> list[str]:
    """``--snr -10:5:30`` as ``--snr=-10:5:30``: argparse reads a token that
    starts with "-" and is not a plain number as a flag of its own."""
    joined: list[str] = []
    for token in argv:
        if joined[-1:] == ["--snr"] and re.match(r"-\.?\d", token):
            token = f"{joined.pop()}={token}"
        joined.append(token)
    return joined


# the parser of every call, built on the first call
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = make_parser()
    try:
        args = parse_args(_PARSER, join_snr_grid(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except CcschedError as exc:
        error = {"error": {"type": type(exc).__name__, "reason": str(exc)}}
        print(json.dumps(error), file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        # an input file that is missing, unreadable or not UTF-8 text
        kind = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        print(json.dumps({"error": {"type": kind, "reason": str(exc)}}), file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an array the request needs that cannot be allocated, such as the
        # channel draw of a table with a huge L or G
        reason = str(exc) or "out of memory"
        print(json.dumps({"error": {"type": "MemoryError", "reason": reason}}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
