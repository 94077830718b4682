"""Run one workload: spans, passes, checks and metrics.

Imported by worker.py after it has timed ``import subguard``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time

import numpy as np
import subguard as S

import tracing
import workloads as W

SETUP_CLI_PROCESSES = 5  # cold `classify` processes timed for the cli set-up
MIN_PASSES = 3  # the best of fewer runs of a case is hardly better than one


def main(argv, import_s: float, modules_loaded: int) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(W.WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("trace", type=int, choices=(0, 1))
    p.add_argument("outdir")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tr = tracing.Tracer() if args.trace else tracing.NO_TRACE
    workdir = os.path.join(args.outdir, f"tmp-{os.getpid()}")
    try:
        wl = W.WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        if args.workload == "cli":
            # one cold `classify` process, several times
            first = next(c for c in wl.cases if c.kw["cmd"] == "classify")
            setup = []
            for _ in range(SETUP_CLI_PROCESSES):
                t = time.perf_counter()
                subprocess.run(wl.command(first), capture_output=True, check=True, timeout=120)
                setup.append(time.perf_counter() - t)
        else:
            t = time.perf_counter()
            run_op(wl, wl.cases[0], tracing.NO_TRACE)  # the untimed warm-up operation
            setup = [import_s + time.perf_counter() - t]
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0

        passes = max(MIN_PASSES, round(args.seconds / wl.PASS_SECONDS))
        own = run_passes(wl, passes, tr)
        result = {"setup_s": setup, "attempted": own.attempted, "failed": own.failed,
                  "problems": own.problems}
        if args.trace:
            result["problems"] += sweep(wl, args.seed, workdir, tr)
            result["layers"] = layer_metrics(tr, import_s, modules_loaded, own.ops_per_s)
            tr.write(os.path.join(args.outdir, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
        else:
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            result["end_to_end"] = {
                "ops_per_s": own.ops_per_s,
                "latency_p50_ms": own.quantile(0.5),
                "latency_p90_ms": own.quantile(0.9),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            }
        result["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


class Tally:
    """Outcome of whole passes over one workload's cases.

    The machine's speed drifts by up to a fifth within seconds (other
    tenants share its cores), so a case's latency is the best of its runs
    over all passes: the run least disturbed. ``ops_per_s`` and the
    quantiles are taken over those per-case latencies, counting completed
    cases only.
    """

    def __init__(self, ncases: int):
        self.attempted = 0
        self.failed = 0
        self.best_ns = [None] * ncases  # best completed wall time of each case
        self.problems = []  # failures not caused by a named fault

    def add(self, i: int, wall_ns: int, problem) -> None:
        self.attempted += 1
        if problem is None:
            best = self.best_ns[i]
            self.best_ns[i] = wall_ns if best is None else min(best, wall_ns)
        else:
            self.failed += 1

    @property
    def completed_ns(self) -> list:
        return sorted(b for b in self.best_ns if b is not None)

    @property
    def ops_per_s(self) -> float:
        lat = self.completed_ns
        return len(lat) / (sum(lat) * 1e-9)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the per-case latencies, in ms."""
        lat = self.completed_ns
        return lat[min(len(lat) - 1, int(q * len(lat)))] * 1e-6


def run_op(wl, case, tr):
    """Run one operation; returns (output, error text or None, wall ns)."""
    with tr.span("op." + wl.name, case=case.label):
        t = time.perf_counter_ns()
        try:
            out, err = wl.run(case, tr), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter_ns() - t
    return out, err, wall


def run_passes(wl, passes: int, tr) -> Tally:
    tally = Tally(len(wl.cases))
    for _ in range(passes):
        for i, case in enumerate(wl.cases):
            out, err, wall = run_op(wl, case, tr)
            problem = err or wl.check(case, out)
            tally.add(i, wall, problem)
            report = f"{wl.name} {case.label}: {problem}"
            if problem is not None and not case.known_fault and report not in tally.problems:
                tally.problems.append(report)
    return tally


# ---------------------------------------------------------------------------
# the traced run's extra work, and the per-layer metrics it yields
# ---------------------------------------------------------------------------

def sweep(own, seed: int, workdir: str, tr) -> list:
    """Give every layer spans, whichever workload the traced run is for.

    Runs one pass of each other workload, the cli pass's serialisers
    in-process, and each command once under ``python -X importtime``.
    Returns the failures not caused by a named fault.
    """
    problems = []
    cli = own
    for cls in W.WORKLOADS.values():
        if cls.name != own.name:
            wl = cls(np.random.default_rng(seed), workdir)
            problems += run_passes(wl, 1, tr).problems
            if cls.name == "cli":
                cli = wl
    replay_cli(cli, tr)
    for cmd in W.Cli.COMMANDS:
        case = next(c for c in cli.cases if c.kw["cmd"] == cmd)
        with tr.span("cli.importtime." + cmd) as counts:
            proc = subprocess.run(cli.command(case, "-X", "importtime"),
                                    capture_output=True, check=True, timeout=120)
        names = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()
                 if line.startswith("import time:")]
        counts["scipy_loaded"] = int(any(m == "scipy" or m.startswith("scipy.") for m in names))
    return problems


def replay_cli(cli, tr):
    """The cli pass's solve, barrier and simulate work, in this process,
    with spans around the serialisers and the barrier sampler."""
    for case in cli.cases:
        cmd = case.kw["cmd"]
        canon, xf = S.canonicalize(S.load_scenario(case.kw["path"]))
        if cmd == "solve":
            sol = (S.solve_dws(canon) if S.evaluate_kind(canon).outcome == S.DEFENDERS_WIN
                   else S.barrier_solution(canon))
            with tr.span("wire.solution_to_json"):
                S.solution_to_json(sol, xf)
        elif cmd == "barrier":
            # the command's box: three times the defenders' lateral bounding
            # box, at least 1 wide on each side
            lat = np.stack([canon.x_d1[:-1], canon.x_d2[:-1]])
            mid = 0.5 * (lat.min(axis=0) + lat.max(axis=0))
            half = 3.0 * np.maximum(0.5 * (lat.max(axis=0) - lat.min(axis=0)), 1.0)
            with tr.span("kind.sample_barrier"):
                mesh = S.sample_barrier(canon.x_d1, canon.x_d2, canon.alpha,
                                        mid - half, mid + half, 101)
            with tr.span("wire.mesh_to_csv"):
                S.mesh_to_csv(mesh)
        elif cmd == "simulate":
            traj = S.simulate(canon, S.optimal_policies(canon).triple, dt=W.DT, t_max=20.0)
            with tr.span("wire.trajectory_to_csv"):
                S.trajectory_to_csv(traj)


def layer_metrics(tr, import_s: float, modules_loaded: int, ops_per_s: float) -> dict:
    def secs(span):
        return (span[4] - span[3]) * 1e-9

    def median_ms(name, **match):
        return 1e3 * statistics.median(
            secs(s) for s in tr.named(name) if all(s[5].get(k) == v for k, v in match.items()))

    m = {"import.subguard_ms": (1e3 * import_s, "ms"),
         "import.modules_loaded": (modules_loaded, "count")}
    for cmd in W.Cli.COMMANDS:
        m[f"import.scipy_loaded.{cmd}"] = (tr.named("cli.importtime." + cmd)[0][5]["scipy_loaded"],
                                           "flag")
    for cmd in W.Cli.COMMANDS:
        m[f"cli.{cmd}_ms"] = (median_ms("cli." + cmd), "ms")
        m[f"cli.{cmd}_stdout_bytes"] = (
            statistics.median(s[5]["stdout_bytes"] for s in tr.named("cli." + cmd)), "B")
    for name in ("geometry.canonicalize", "kind.evaluate_kind", "degree.solve_dws",
                 "degree.barrier_solution"):
        m[name + "_us"] = (1e3 * median_ms(name), "us")
    for name in ("kind.sample_barrier", "wire.solution_to_json", "wire.mesh_to_csv",
                 "wire.trajectory_to_csv"):
        m[name + "_ms"] = (median_ms(name), "ms")
    for n in (2, 3, 4, 5):
        m[f"oracle.kind_ms.n{n}"] = (median_ms("oracle.kind", n=n), "ms")
    m["oracle.min_boundary_height_ms"] = (median_ms("oracle.min_boundary_height"), "ms")
    m["oracle.aws_target_ms"] = (median_ms("oracle.aws_target"), "ms")
    grid = tr.named("oracle.kind") + tr.named("oracle.aws_target")
    m["oracle.grid_points_per_s"] = (sum(s[5]["grid_points"] for s in grid)
                                     / sum(secs(s) for s in grid), "1/s")
    runs = tr.named("simulate.run")
    m["simulate.optimal_policies_ms"] = (median_ms("simulate.optimal_policies"), "ms")
    m["simulate.run_ms"] = (median_ms("simulate.run"), "ms")
    m["simulate.steps_per_run"] = (statistics.median(s[5]["steps"] for s in runs), "count")
    m["simulate.steps_per_s"] = (sum(s[5]["steps"] for s in runs)
                                 / sum(secs(s) for s in runs), "1/s")
    m["trace.ops_per_s"] = (ops_per_s, "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine()}
    for dist in ("numpy", "scipy"):
        env[dist] = importlib.metadata.version(dist)
    if hasattr(S, "backend_name"):
        env["backend"] = S.backend_name()
    return env

