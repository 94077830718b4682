"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload {cli,closed_form,oracle,simulate} \
        --seed N --seconds S --trace {0,1}

Each workload runs in its own fresh interpreter (worker.py), driven by one
client in a closed loop. With --trace 0 the last line of stdout is the
end-to-end result; with --trace 1 it holds the per-layer metrics of a
traced run. Either way the full record, with the environment it ran in,
is also written to perfbench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s; the median is reported
DEADLINE_S = 170.0


def child(cmd, env, deadline):
    """Run a child in its own process group; on overrun kill the group."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: {cmd[1:3]} ran past the deadline")
    if proc.returncode != 0:
        sys.exit(f"run.py: {cmd[1:3]} exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli", "closed_form", "oracle", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "subguard", "__init__.py")):
        print(f"run.py: no subguard package under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [d for d in os.environ.get("PYTHONPATH", "").split(os.pathsep) if d]))
    # where bytecode is cached, compile it once so no timed interpreter
    # pays for it (with PYTHONDONTWRITEBYTECODE set, every one compiles)
    subprocess.run([sys.executable, "-c", "import subguard"], cwd=ROOT, env=env,
                   check=True, timeout=120)

    worker = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
              str(args.seed), str(args.seconds), str(args.trace), OUT]
    setup = []
    if not args.trace and args.workload != "cli":
        for _ in range(SETUP_SAMPLES - 1):
            setup += child(worker + ["--setup-only"], env, deadline)["setup_s"]
    res = child(worker, env, deadline)
    setup += res["setup_s"]

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {k: {"value": v, "unit": u} for k, v, u in (
            ("ops_per_s", res["end_to_end"]["ops_per_s"], "1/s"),
            ("latency_p50_ms", res["end_to_end"]["latency_p50_ms"], "ms"),
            ("latency_p90_ms", res["end_to_end"]["latency_p90_ms"], "ms"),
            ("setup_s", statistics.median(setup), "s"),
            ("peak_rss_mb", res["end_to_end"]["peak_rss_mb"], "MB"))}
    if sorted(metrics) != sorted(m["name"] for m in declared):
        sys.exit("run.py: the metrics measured are not the ones BENCHMARK.json declares")
    for problem in res["problems"][:20]:
        print("FAILED", problem, file=sys.stderr)
    line = {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup, problems=res["problems"],
                  env=res["env"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
