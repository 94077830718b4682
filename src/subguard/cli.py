"""Command-line interface.

Five subcommands, all reading one scenario JSON file:

* ``classify`` - winner of the game of kind plus the governing surface piece
* ``solve``    - saddle-point solution (target point, value, headings)
* ``barrier``  - sampled barrier surface mesh (CSV or JSON)
* ``simulate`` - forward run under equilibrium policies (CSV or JSON)
* ``verify``   - closed-form results cross-checked against brute-force oracles

Exit codes: 0 on success, 2 on validation errors (malformed scenario,
step or ``--tol``, a violated assumption, a bad or over-budget
``--grid-points`` or a simulation over its step budget, named in the
error), 3 on numeric or domain failures.
Errors go to stderr as single-line JSON. Outputs are deterministic: the
same invocation produces byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from ._text import fmt as _fmt
from .config import Tolerances
from .degree import _saddle, solution_to_json
from .errors import (
    AssumptionViolation,
    BudgetExceededError,
    EmptyGridError,
    NotInDWSError,
    NumericalDegeneracyError,
    ScenarioFormatError,
    SubguardError,
)
from .geometry import _largest_distance, canonicalize, load_scenario
from .kind import (
    DEFENDERS_WIN,
    ON_BARRIER,
    _kind,
    evaluate_kind,
    mesh_to_csv,
    mesh_to_json,
    sample_barrier,
)
from .oracle import GridSpec, f_value, oracle_kind, oracle_min_boundary_height
from .simulate import optimal_policies, simulate, trajectory_to_csv, trajectory_to_json


def _tols(args) -> Tolerances:
    if args.tol is None:
        return Tolerances()
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ScenarioFormatError(f"--tol must be finite and nonnegative, got {args.tol}")
    return Tolerances(rel=args.tol)


def _cmd_classify(canon, xf, args, tols) -> str:
    outcome = evaluate_kind(canon, tols)
    if not math.isfinite(outcome.form_value):
        raise NumericalDegeneracyError(
            f"form value of the {outcome.outcome} state overflows the float range")
    return (f'{{"outcome": "{outcome.outcome}", "piece": "{outcome.piece}", '
            f'"form_value": {_fmt(outcome.form_value)}}}\n')


def _cmd_solve(canon, xf, args, tols) -> str:
    sol = _saddle(_kind(canon, tols), tols)
    if sol is None:
        raise NotInDWSError(
            "attacker wins from this state; no defender saddle exists "
            "(run simulate for closed-form breach play)")
    return solution_to_json(sol, xf)


def _cmd_barrier(canon, xf, args, tols) -> str:
    # box: three times the defenders' lateral bounding box, floored at
    # half-width 1 so stacked defenders still get a window
    lat = np.stack([canon.x_d1[:-1], canon.x_d2[:-1]])
    center = 0.5 * (lat.min(axis=0) + lat.max(axis=0))
    half = 3.0 * np.maximum(0.5 * (lat.max(axis=0) - lat.min(axis=0)), 1.0)
    counts = args.grid_points if args.grid_points is not None else 101
    mesh = sample_barrier(canon.x_d1, canon.x_d2, canon.alpha,
                          center - half, center + half, counts)
    return mesh_to_json(mesh) if args.format == "json" else mesh_to_csv(mesh)


def _cmd_simulate(canon, xf, args, tols) -> str:
    bundle = optimal_policies(canon, tols)
    dt = args.dt if args.dt is not None else 1e-3
    t_max = args.tmax if args.tmax is not None else 20.0
    traj = simulate(canon, bundle.triple, dt=dt, t_max=t_max)
    return trajectory_to_json(traj) if args.format == "json" else trajectory_to_csv(traj)


def _cmd_verify(canon, xf, args, tols) -> str:
    """Cross-check the closed forms against the brute-force oracles, with
    numeric agreement to 1e-6 of the largest distance between two players."""
    records = []
    k = _kind(canon, tols)
    grid = (GridSpec(points_per_axis=args.grid_points)
            if args.grid_points is not None else None)
    probe = oracle_kind(canon, grid)
    # on an exact barrier state the oracle's maximum lies inside its margin,
    # so "inconclusive" is the only verdict it can give there
    expected = "inconclusive" if k.outcome == ON_BARRIER else k.outcome
    agree = "true" if probe.label == expected else "false"
    records.append(
        f'{{"instance": "kind", "closed_form": "{k.outcome}", '
        f'"oracle": "{probe.label}", "abs_diff": null, "agree": {agree}}}')
    sol = _saddle(k, tols)
    band = 1e-6 * _largest_distance((canon.x_d1, canon.x_d2, canon.x_a))
    if k.outcome == DEFENDERS_WIN:
        _, floor = oracle_min_boundary_height(canon)
        diff = abs(sol.value - floor)
        agree = "true" if diff <= band else "false"
        records.append(
            f'{{"instance": "degree_value", "closed_form": {_fmt(sol.value)}, '
            f'"oracle": {_fmt(floor)}, "abs_diff": {_fmt(diff)}, "agree": {agree}}}')
    elif k.outcome == ON_BARRIER:
        leads = [f_value(sol.otp, canon.x_a, x_d, canon.alpha)
                 for x_d in (canon.x_d1, canon.x_d2)]
        # binding defenders tie the attacker exactly on the barrier
        resid = max(abs(leads[i - 1]) for i in sol.effective)
        agree = "true" if resid <= band else "false"
        records.append(
            f'{{"instance": "barrier_equal_time", "closed_form": 0, '
            f'"oracle": {_fmt(resid)}, "abs_diff": {_fmt(resid)}, "agree": {agree}}}')
    return "[" + ", ".join(records) + "]\n"


_COMMANDS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "barrier": _cmd_barrier,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subguard",
        description="Two-defender subspace-guarding game: classify, solve, "
                    "sample the barrier, simulate, verify against oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("classify", "winner of the game of kind"),
            ("solve", "saddle-point solution in the defender-winning region"),
            ("barrier", "sample the barrier surface over a lateral grid"),
            ("simulate", "forward-run the game under equilibrium policies"),
            ("verify", "cross-check closed forms against brute-force oracles")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="path to scenario JSON")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format for mesh/trajectory commands")
        p.add_argument("--dt", type=float, default=None, help="simulation step")
        p.add_argument("--tmax", type=float, default=None, help="simulation horizon")
        p.add_argument("--grid-points", type=int, default=None,
                       help="grid nodes per axis (mesh or oracle)")
        p.add_argument("--tol", type=float, default=None,
                       help="on-barrier band, a fraction of the largest "
                            "distance between two players")
    return parser


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, AssumptionViolation):
        payload["assumption"] = exc.assumption
    sys.stderr.write(json.dumps(payload) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        canon, xf = canonicalize(scenario)
        text = _COMMANDS[args.command](canon, xf, args, _tols(args))
    except (AssumptionViolation, ScenarioFormatError, EmptyGridError,
            BudgetExceededError) as exc:
        _emit_error(exc)
        return 2
    except OSError as exc:
        _emit_error(exc)
        return 2
    except SubguardError as exc:
        _emit_error(exc)
        return 3
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
