"""mzbell benchmark: time CLI workloads end to end, or trace them by layer.

    python3 bench/run.py --workload analyze-catalog --seed 1 --seconds 30
    python3 bench/run.py --workload bell-grid --seed 1 --seconds 30 --trace 1
    python3 bench/run.py                 # every workload in turn, untraced

Run from anywhere inside a checkout of the repository; the program is
imported from ``src/``. Each workload run gets its own fresh worker
process (``worker.py``); workloads never run at the same time. Set-up
time is the median cold start of 20 fresh interpreters importing
``mzbell.cli``, half timed before the worker and half after it, so that
the median spans the whole run. With ``--trace 1`` the untraced run is
followed by a traced run of exactly the same rounds (each gets half of
``--seconds``), and the per-layer metrics come from its spans. The last
stdout line is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
#: Cold starts per untraced run, half before the worker and half after.
SETUP_SAMPLES = 20
#: Every child must be done by then; the whole command stays under 180 s.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mib": "MiB",
}

#: ``<span name>.<what>``; counts, times and bytes are per workload round.
PER_LAYER = {
    "fock.apply_beamsplitter.calls": "count/round",
    "fock.apply_beamsplitter.self_s": "s/round",
    "fock.apply_beamsplitter.bytes_in": "B/round",
    "fock.expect_normal_ordered.calls": "count/round",
    "fock.expect_normal_ordered.self_s": "s/round",
    "fock.eigen_components.calls": "count/round",
    "fock.eigen_components.self_s": "s/round",
    "fock.eigen_components.rank": "count",
    "fock.tensor.calls": "count/round",
    "fock.tensor.self_s": "s/round",
    "fock.coherent_state.calls": "count/round",
    "fock.coherent_state.self_s": "s/round",
    "fock.apply_phase.self_s": "s/round",
    "fock.make_mixed.self_s": "s/round",
    "homodyne.modulation_depth_numeric.input_operator.calls": "count/round",
    "homodyne.modulation_depth_numeric.input_operator.self_s": "s/round",
    "homodyne.modulation_depth_numeric.unitary.calls": "count/round",
    "homodyne.modulation_depth_numeric.unitary.self_s": "s/round",
    "homodyne.modulation_depth_analytic.self_s": "s/round",
    "homodyne.fringe_coefficients_at.self_s": "s/round",
    "homodyne.maximize_chsh.calls": "count/round",
    "homodyne.maximize_chsh.self_s": "s/round",
    "homodyne.local_realism_verdict.self_s": "s/round",
    "coherence.fringe_scan.self_s": "s/round",
    "coherence.compute_moments.calls": "count/round",
    "coherence.compute_moments.self_s": "s/round",
    "catalog.build_state.calls": "count/round",
    "catalog.build_state.self_s": "s/round",
    "catalog.build_state.failed": "count/round",
    "cli.main.calls": "count/round",
    "cli.main.self_s": "s/round",
    "trace.overhead_s": "s/round",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run to the end."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONOPTIMIZE", None)  # keeps homodyne's __debug__ check on
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (perf_counter() - started)
    if left <= 0:
        raise BenchError(f"out of time ({DEADLINE_S:.0f} s)")
    return left


def cold_start(env, started: float) -> float:
    """Seconds from spawning an interpreter until it has imported
    ``mzbell.cli`` and could make its first invocation."""
    code = "import mzbell.cli; print('ready', flush=True)"
    begin = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - begin
        try:
            proc.wait(timeout=_remaining(started))
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("a fresh interpreter could not import mzbell.cli")
    return elapsed


def run_worker(env, started: float, workload: str, seed: int,
               seconds: float, rounds: int = 0, spans: Path | None = None):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--spec-dir", str(OUT)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=_remaining(started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_times(op_s: list[list[float | None]]) -> list[float]:
    """Each successful op's time: the median over the timed rounds of the
    op at that place in the round. Every round has the same ops in the
    same cost classes, so this takes the jitter out of single calls."""
    times = []
    for column in zip(*op_s):
        ok = [t for t in column if t is not None]
        if ok:
            times.append(statistics.median(ok))
    return times


def end_to_end_metrics(setup: list[float], res: dict) -> dict[str, float]:
    times = op_times(res["op_s"])
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] \
        if len(times) > 1 else times[0]
    return {
        "setup_s": statistics.median(setup),
        "points_per_s": statistics.median(
            u / w for u, w in zip(res["round_units"], res["round_wall_s"])),
        "op_p50_s": statistics.median(times),
        "op_p90_s": p90,
        "peak_rss_mib": res["peak_rss_mib"],
    }


def per_layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    rounds = traced["rounds"]
    layers = traced["layers"]
    out = {}
    for name in PER_LAYER:
        span, what = name.rsplit(".", 1)
        row = layers.get(span, {"calls": 0, "self_s": 0.0, "size": 0,
                                "failed": 0})
        if name == "trace.overhead_s":
            value = (sum(traced["round_wall_s"])
                     - sum(untraced["round_wall_s"])) / rounds
        elif what == "rank":
            value = row["size"] / row["calls"] if row["calls"] else 0.0
        elif what == "bytes_in":
            value = row["size"] / rounds
        else:
            value = row[what] / rounds
        out[name] = value
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    started = perf_counter()
    env = child_env()
    setup = [] if trace else [cold_start(env, started)
                              for _ in range(SETUP_SAMPLES // 2)]
    # A traced run splits its time: half untraced, then the same rounds
    # traced, so it takes about as long as an untraced run.
    res = run_worker(env, started, workload, seed,
                     seconds / 2 if trace else seconds)
    if not trace:
        setup += [cold_start(env, started)
                  for _ in range(SETUP_SAMPLES - len(setup))]
    traced = None
    if trace:
        spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
        traced = run_worker(env, started, workload, seed, seconds,
                            rounds=res["rounds"], spans=spans)
        if (traced["attempted"], traced["failed"]) != \
                (res["attempted"], res["failed"]):
            raise BenchError("traced run did not repeat the untraced ops")
    bad = res["bad"] + (traced["bad"] if traced else 0)
    values = per_layer_metrics(res, traced) if trace \
        else end_to_end_metrics(setup, res)
    units = PER_LAYER if trace else END_TO_END

    env_line = ", ".join(
        [f"python {res['env']['python']}", f"numpy {res['env']['numpy']}",
         f"blas {res['env']['blas']}", f"nproc {os.cpu_count()}"]
        + [f"{v}={env[v]}" for v in THREAD_VARS])
    print(f"workload {workload}  seed {seed}  seconds {seconds}  "
          f"rounds {res['rounds']}  trace {int(trace)}")
    print(f"  env: {env_line}")
    print(f"  attempted {res['attempted']}  failed {res['failed']}  "
          f"output or failure errors {bad}")
    for how, count in sorted(res["failures"].items()):
        print(f"    failed {count:5d}  {how}")
    for err in res["errors"] + (traced["errors"] if traced else []):
        print(f"    ERROR {err}")
    for name, value in values.items():
        print(f"  {name:58s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": bad == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mzbell" / "cli.py").is_file():
        print(f"error: no mzbell sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    todo = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in todo:
            run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
