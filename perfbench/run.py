#!/usr/bin/env python3
"""Repository benchmark: four workloads, measured end to end, traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds tr_opt and perfbench_probe from the checkout's sources (Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), makes
the workload's inputs from --seed, measures for --seconds, checks every
op's output against an oracle computed outside the timed regions, prints
every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run (spans written as Chrome trace-event
JSON under the build directory). The exit code is non-zero when any
output check failed. README.md in this directory describes the
workloads and what each metric should move.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("batch_catalog", "batch_budgeted", "serve_closed", "validate_table3")

# Load stays within one process and at most 2 workers per layer.
JOBS = 2             # tr_opt --jobs on the batch workloads
CLIENTS = 2          # closed-loop client threads = open connections
DAEMON_WORKERS = 2   # tr_opt --serve --workers
DELAY_BUDGET = 0.05
MIN_PASSES = 3       # batch: timed passes per run, at least
SETUP_REPS = 4       # in-process set-ups per chunk, after one untimed
SETUP_EVERY_S = 3.0  # batch: a set-up chunk at least this often
EFFICIENCY_PASSES = 3  # batch traced: timed --jobs passes for the efficiency
SERVE_ROUNDS = 6     # serve: sequence rounds each daemon serves after warm-up
SERVE_MIN_DAEMONS = 4  # serve: daemons per run, at least (>= 1000 requests)
TRACE_ROUNDS = 26    # serve traced: untraced rounds, enough for a p99
SMALL_GATES = 20     # serve: "small request" = classic circuit of <= 20 gates
PERCENTILE_MIN_BEYOND = 10
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("gates_per_s", "gates/s"),
    ("latency_p50_ms", "ms"),
    ("power_saved_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_pct", "%"),
]

PER_LAYER = [
    ("benchgen.load_ms", "ms"),
    ("power.stats_ms", "ms"),
    ("celllib.catalog_ms", "ms"),
    ("celllib.catalog_misses", "count"),
    ("celllib.catalog_hit_rate", "ratio"),
    ("opt.score_ms", "ms"),
    ("opt.configs_scored", "count"),
    ("opt.optimize_ms", "ms"),
    ("opt.gates_reordered_pct", "%"),
    ("opt.configs_rejected_by_delay", "count"),
    ("delay.timing_ms", "ms"),
    ("opt.render_ms", "ms"),
    ("opt.batch_efficiency", "ratio"),
    ("search.scorer_setup_ms", "ms"),
    ("search.greedy_ms", "ms"),
    ("server.service_ms_p50", "ms"),
    ("server.small_request_ms_p50", "ms"),
    ("server.latency_p99_ms", "ms"),
    ("server.rss_kb_per_request", "KB"),
    ("server.vm_size_mb", "MB"),
    ("server.map_count", "count"),
    ("server.rejected", "count"),
    ("sim.mc_ms", "ms"),
    ("sim.events_per_s", "1/s"),
    ("sim.events", "count"),
    ("sim.truncated_replications", "count"),
    ("power.model_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    """Set-up or environment failure: the run ends without a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and process helpers.
# ---------------------------------------------------------------------------

def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("repository sources not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs,
         "--target", "tr_opt", "perfbench_probe"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    tools = {"tr_opt": out / "tools" / "tr_opt",
             "probe": out / "perfbench_probe"}
    for path in tools.values():
        if not path.is_file():
            raise BenchError(f"build did not produce {path}")
    return tools


def run_child(cmd, stdout_path=None):
    """Runs cmd to completion; returns (wall_s, exit_code, peak_rss_mb).

    Waits with wait4 so the peak RSS is the child's own.
    """
    with open(stdout_path or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                stderr=subprocess.DEVNULL, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe(tools, args, work):
    """Runs the probe; returns (parsed JSON output, peak_rss_mb)."""
    out_path = work / "probe.json"
    _, code, rss = run_child([tools["probe"], *args], out_path)
    if code != 0:
        raise BenchError(f"probe {args[0]} exited with {code}")
    return json.loads(out_path.read_text()), rss


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile, the number of samples beyond it, and n."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    value = xs[rank - 1]
    return value, sum(1 for x in xs if x > value), len(xs)


def tail_percentile(values, p):
    """The p-th percentile, or None when fewer than 10 samples lie beyond it."""
    if not values:
        return None, 0, 0
    value, beyond, n = percentile(values, p)
    return (value if beyond >= PERCENTILE_MIN_BEYOND else None), beyond, n


# ---------------------------------------------------------------------------
# Batch workloads: tr_opt as a user runs it.
# ---------------------------------------------------------------------------

def suite_flags(suites):
    return [flag for s in suites for flag in ("--suite", s)]


def batch_workload(tools, work, opts, suites, budget, notes):
    seed = str(opts.seed)
    flags = suite_flags(suites)
    budget_flags = ["--delay-budget", str(budget)] if budget is not None else []
    notes.append(f"threads: tr_opt --jobs {JOBS} (1 gate worker per circuit), "
                 f"connections: 0, nproc: {os.cpu_count()}")

    # Oracle: the serial report for the same seed, outside every timer.
    oracle_path = work / "oracle.json"
    _, code, _ = run_child([tools["tr_opt"], *flags, *budget_flags,
                            "--jobs", "1", "--seed", seed, "--no-timing"],
                           oracle_path)
    oracle = oracle_path.read_bytes()
    totals = json.loads(oracle)["totals"]
    if code != 0 or totals["circuits_ok"] != totals["circuits"]:
        raise BenchError("oracle run failed")

    if opts.trace:
        return batch_traced(tools, work, opts, flags + budget_flags,
                            oracle_path, notes)

    # Set-up is sampled in chunks spread over the run, between the timed
    # passes, so its median does not hang on one moment of the host.
    setup_s = []

    def setup_chunk():
        out, _ = probe(tools, ["setup", *flags, "--seed", seed,
                               "--reps", str(SETUP_REPS)], work)
        setup_s.extend(out["setup_s"])
        return out["gates"], time.perf_counter()

    gates, last_setup = setup_chunk()
    cmd = [tools["tr_opt"], *flags, *budget_flags, "--jobs", str(JOBS),
           "--seed", seed, "--no-timing"]
    pass_path = work / "pass.json"
    walls, oks, rss = [], [], []
    t0 = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - t0 < opts.seconds:
        wall, code, peak = run_child(cmd, pass_path)
        walls.append(wall)
        rss.append(peak)
        oks.append(code == 0 and pass_path.read_bytes() == oracle)
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            _, last_setup = setup_chunk()
    ok = sum(oks)
    notes.append(f"latency_p50_ms is the median pass (n={len(walls)} passes); "
                 "no p99: fewer than 10 passes lie beyond it")
    notes.append(f"setup_s is the median of n={len(setup_s)} set-ups")
    return {
        "attempted": len(walls), "failed": len(walls) - ok,
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "gates_per_s": gates * ok / sum(walls),
            "latency_p50_ms": statistics.median(walls) * 1e3,
            "power_saved_pct": totals["power_reduction_pct"],
            "peak_rss_mb": max(rss),
            "ok_ops_pct": 100.0 * ok / len(walls),
        },
    }


def batch_traced(tools, work, opts, flags, oracle_path, notes):
    trace_path = traces_dir() / f"{opts.workload}-seed{opts.seed}.json"
    out, _ = probe(tools, ["batch", *flags, "--seed", str(opts.seed),
                           "--oracle", str(oracle_path),
                           "--seconds", str(opts.seconds * 0.6),
                           "--trace-out", str(trace_path)], work)
    passes = out["passes"]
    failed = out["failed"]
    notes.append(f"per-layer times are medians over n={len(passes)} traced "
                 f"passes; overhead against n={len(out['untraced_ms'])} "
                 "untraced passes")
    # Counts are fixed per seed: every traced pass must agree.
    exact = ("catalog_misses", "catalog_hits", "configs_scored", "gates",
             "gates_changed", "rejected_delay")
    failed += sum(1 for p in passes[1:]
                  if any(p[k] != passes[0][k] for k in exact))

    # Timed passes at the workload's --jobs for the batch efficiency.
    timed_path = work / "timed.json"
    efficiency = []
    for _ in range(EFFICIENCY_PASSES):
        _, code, _ = run_child([tools["tr_opt"], *flags, "--jobs", str(JOBS),
                                "--seed", str(opts.seed), "--no-gate-configs"],
                               timed_path)
        timed = json.loads(timed_path.read_text())
        failed += code != 0
        busy = sum(c["elapsed_ms"] for c in timed["circuits"])
        efficiency.append(busy / (timed["timing"]["jobs"]
                                  * timed["timing"]["elapsed_ms"]))
    notes.append(f"opt.batch_efficiency is the median of n={len(efficiency)} "
                 f"timed --jobs {JOBS} passes")

    def median_ms(part, *names):
        return statistics.median(
            sum(p[part]["ms"].get(n, 0.0) for n in names) for p in passes)

    load_calls = ("CellLibrary::standard", "load_circuit_spec",
                  "make_scenario_circuit")
    # Share of the traced op that the per-layer calls account for: its
    # own set-up and render spans, plus the shadow's optimize() and
    # static timing calls that BatchOptimizer::run makes per circuit.
    coverage = [100.0 * (sum(p["op"]["ms"].get(n, 0.0)
                             for n in (*load_calls, "write_batch_json"))
                         + p["shadow"]["ms"].get("optimize", 0.0)
                         + p["shadow"]["ms"].get("circuit_delay", 0.0))
                / p["op"]["wall_ms"] for p in passes]
    first = passes[0]
    lookups = first["catalog_hits"] + first["catalog_misses"]
    traced_wall = statistics.median(p["op"]["wall_ms"] for p in passes)
    untraced_wall = statistics.median(out["untraced_ms"])
    return {
        "attempted": out["attempted"] + EFFICIENCY_PASSES,
        "failed": failed,
        "trace_file": trace_path,
        "metrics": {
            "benchgen.load_ms": median_ms("op", "load_circuit_spec",
                                          "make_scenario_circuit"),
            "power.stats_ms": median_ms("shadow", "propagate_activity"),
            "celllib.catalog_ms": median_ms("shadow", "CellLibrary::catalog"),
            "celllib.catalog_misses": first["catalog_misses"],
            "celllib.catalog_hit_rate":
                first["catalog_hits"] / lookups if lookups else 0.0,
            "opt.score_ms": median_ms("shadow", "score_catalog"),
            "opt.configs_scored": first["configs_scored"],
            "opt.optimize_ms": median_ms("shadow", "optimize"),
            "opt.gates_reordered_pct":
                100.0 * first["gates_changed"] / first["gates"],
            "opt.configs_rejected_by_delay": first["rejected_delay"],
            "delay.timing_ms": median_ms("shadow", "circuit_delay"),
            "opt.render_ms": median_ms("op", "write_batch_json"),
            "opt.batch_efficiency": statistics.median(efficiency),
            "search.scorer_setup_ms": median_ms("shadow", "IncrementalScorer"),
            "search.greedy_ms": median_ms("shadow", "greedy_seed"),
            "trace.coverage_pct": statistics.median(coverage),
            "trace.overhead_pct":
                100.0 * (traced_wall - untraced_wall) / untraced_wall,
        },
    }


# ---------------------------------------------------------------------------
# Serve workload: the daemon under closed-loop clients.
# ---------------------------------------------------------------------------

def proc_status(pid):
    fields = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            if value.strip().endswith("kB"):
                fields[key] = int(value.split()[0])
    return fields


def map_count(pid):
    with open(f"/proc/{pid}/maps") as f:
        return sum(1 for _ in f)


class Daemon:
    """A tr_opt --serve process; stop() drains it and returns its metrics."""

    def __init__(self, tools, work, index):
        self.tools = tools
        self.port_file = work / f"port{index}"
        self.out_path = work / f"daemon{index}.json"
        self.out = open(self.out_path, "wb")
        self.proc = subprocess.Popen(
            [str(tools["tr_opt"]), "--serve", "--port", "0",
             "--workers", str(DAEMON_WORKERS),
             "--port-file", str(self.port_file)],
            stdout=self.out, stderr=subprocess.DEVNULL, cwd=ROOT)
        deadline = time.perf_counter() + 30
        while True:
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.kill()
                raise BenchError("daemon did not start")
            time.sleep(0.002)

    def stop(self):
        subprocess.run([str(self.tools["tr_opt"]), "--connect",
                        f"127.0.0.1:{self.port}", "--shutdown"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S)
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.out.close()
        return json.loads(self.out_path.read_text())

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
        self.out.close()


def start_daemon(tools, work, index, client_args):
    """Spawns and warms a daemon: (daemon, set-up seconds, failed warm-ups).

    Set-up is spawn to ready plus one warm-up request per distinct
    circuit, which fills the shared catalog cache.
    """
    t0 = time.perf_counter()
    daemon = Daemon(tools, work, index)
    try:
        ready = time.perf_counter() - t0
        warm, _ = probe(tools, [*client_args, "--port", str(daemon.port),
                                "--warmup-only"], work)
    except BaseException:
        daemon.kill()
        raise
    return daemon, ready + warm["warmup_s"], warm["failed"]


def serve_workload(tools, work, opts, notes):
    seed = str(opts.seed)
    notes.append(f"threads: {CLIENTS} closed-loop clients, daemon --workers "
                 f"{DAEMON_WORKERS}; connections: one per request, at most "
                 f"{CLIENTS} open; nproc: {os.cpu_count()}")
    names, _ = probe(tools, ["setup", "--suite", "classic", "--suite",
                             "table3", "--seed", seed, "--reps", "1"], work)
    circuits = names["names"]
    circuits_file = work / "circuits.txt"
    circuits_file.write_text("".join(c + "\n" for c in circuits))
    # Rounds of every circuit once, each round in seeded order: the seed
    # changes the order but not the mix, which sets the latency median.
    rounds = len(circuits)
    rng = random.Random(opts.seed)
    sequence = []
    for _ in range(max(SERVE_ROUNDS, TRACE_ROUNDS)):
        round_ = list(range(rounds))
        rng.shuffle(round_)
        sequence += round_
    head_count = SERVE_ROUNDS * rounds
    sequence_file = work / "sequence.txt"
    sequence_file.write_text("".join(f"{i}\n" for i in sequence))

    # Oracles: the one-shot render of each distinct request.
    oracle_dir = work / "oracle"
    oracle_dir.mkdir()

    def one_shot(name):
        path = oracle_dir / f"{name}.json"
        _, code, _ = run_child([tools["tr_opt"], name, "--seed", seed,
                                "--jobs", "1", "--no-timing",
                                "--no-cache-stats", "--no-gate-configs"], path)
        if code != 0:
            raise BenchError(f"oracle for {name} failed")
        return json.loads(path.read_text())["totals"]

    with ThreadPoolExecutor(max_workers=2) as pool:
        totals = list(pool.map(one_shot, circuits))
    gates = [t["gates"] for t in totals]

    client_args = ["serve", "--seed", seed, "--circuits", str(circuits_file),
                   "--oracle-dir", str(oracle_dir),
                   "--clients", str(CLIENTS)]
    sequence_args = ["--sequence", str(sequence_file)]
    if opts.trace:
        return serve_traced(tools, work, opts, notes, client_args,
                            sequence_args, gates, head_count)

    # Every daemon serves the same warm-up and the same first requests of
    # the sequence and is then stopped, so each goes through the same
    # states: the daemon slows and grows with every request it has served,
    # and a count bounded by time would make that follow host speed.
    setups, samples, walls, peaks = [], [], [], []
    warm_failed = 0
    t0 = time.perf_counter()
    while len(setups) < SERVE_MIN_DAEMONS or \
            time.perf_counter() - t0 < opts.seconds:
        daemon, setup, failed = start_daemon(tools, work, len(setups),
                                             client_args)
        try:
            out, _ = probe(tools, [*client_args, "--port", str(daemon.port),
                                   *sequence_args,
                                   "--requests", str(head_count)], work)
            peaks.append(proc_status(daemon.proc.pid)["VmHWM"])
            daemon.stop()
        finally:
            daemon.kill()
        setups.append(setup)
        warm_failed += failed
        samples += out["socket"]["samples"]
        walls.append(out["socket"]["wall_s"])

    latencies = [s[2] for s in samples]
    ok = sum(s[3] for s in samples)
    attempted = len(samples) + len(setups) * rounds
    failed = len(samples) - ok + warm_failed
    p50, _, n = percentile(latencies, 50)
    p99, beyond, _ = tail_percentile(latencies, 99)
    notes.append(f"{len(setups)} daemons, each warmed with {rounds} requests "
                 f"and then serving the first {head_count} of the sequence")
    notes.append(f"latency_p50_ms over n={n} requests")
    notes.append(f"latency_p99_ms = {p99} ms over n={n} requests, {beyond} "
                 "beyond it" if p99 is not None else
                 f"latency_p99_ms refused: {beyond} samples beyond p99")
    # Fixed per seed: every daemon serves the same requests, and each
    # response must equal its oracle.
    head_totals = [totals[i] for i in sequence[:head_count]]
    before = sum(t["model_power_before_w"] for t in head_totals)
    after = sum(t["model_power_after_w"] for t in head_totals)
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "gates_per_s": sum(gates[s[1]] for s in samples if s[3])
                           / sum(walls),
            "latency_p50_ms": p50,
            "power_saved_pct": 100.0 * (before - after) / before,
            "peak_rss_mb": statistics.median(peaks) / 1024.0,
            "ok_ops_pct": 100.0 * (attempted - failed) / attempted,
        },
    }


def serve_traced(tools, work, opts, notes, client_args, sequence_args, gates,
                 head_count):
    """One daemon serves fixed request counts: untraced (enough for a p99),
    traced, and the same requests through an in-process OptimizeService."""
    trace_path = traces_dir() / f"{opts.workload}-seed{opts.seed}.json"
    untraced_count = TRACE_ROUNDS * len(gates)
    daemon, _, warm_failed = start_daemon(tools, work, 0, client_args)
    try:
        pid = daemon.proc.pid
        rss_before = proc_status(pid)["VmRSS"]
        out, _ = probe(tools, [*client_args, "--port", str(daemon.port),
                               *sequence_args,
                               "--requests", str(untraced_count),
                               "--traced-requests", str(head_count),
                               "--service-requests", str(2 * head_count),
                               "--trace-out", str(trace_path)], work)
        status = proc_status(pid)
        maps = map_count(pid)
        final = daemon.stop()
    finally:
        daemon.kill()

    socket = out["socket"]["samples"]
    traced = out["socket_traced"]
    service = out["service"]["samples"]
    served = socket + traced["samples"]
    latencies = [s[2] for s in socket]
    failed = warm_failed + sum(1 - s[3] for s in served + service)
    p99, beyond, n = tail_percentile(latencies, 99)
    notes.append(f"server.latency_p99_ms over n={n} requests, {beyond} "
                 "beyond it" + ("" if p99 is not None else ": refused"))
    small = [s[2] for s in socket if gates[s[1]] <= SMALL_GATES]
    notes.append(f"server.service_ms_p50 over n={len(service)} requests, "
                 f"server.small_request_ms_p50 over n={len(small)}")
    traced_lat = [s[2] for s in traced["samples"]]
    cache = final["catalog_cache"]
    return {
        "attempted": len(gates) + len(served) + len(service),
        "failed": failed,
        "trace_file": trace_path,
        "metrics": {
            "celllib.catalog_misses": cache["misses"],
            "celllib.catalog_hit_rate": cache["hit_rate"],
            "server.service_ms_p50": statistics.median(s[2] for s in service),
            "server.small_request_ms_p50": statistics.median(small),
            "server.latency_p99_ms": p99 or 0.0,
            "server.rss_kb_per_request":
                (status["VmRSS"] - rss_before) / len(served),
            "server.vm_size_mb": status["VmSize"] / 1024.0,
            "server.map_count": maps,
            "server.rejected": final["requests"]["rejected"],
            "trace.coverage_pct": 100.0 * sum(traced_lat)
                                  / (CLIENTS * traced["wall_s"] * 1e3),
            "trace.overhead_pct": 100.0 * (
                statistics.mean(traced_lat) / statistics.mean(latencies)
                - 1.0),
        },
    }


# ---------------------------------------------------------------------------
# Validate workload: the paper's column-S pipeline, in the probe.
# ---------------------------------------------------------------------------

def validate_workload(tools, work, opts, notes):
    notes.append("threads: optimize and Monte-Carlo 2 workers each, "
                 f"connections: 0, nproc: {os.cpu_count()}")
    args = ["validate", "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--setup-reps", str(SETUP_REPS)]
    if opts.trace:
        trace_path = traces_dir() / f"{opts.workload}-seed{opts.seed}.json"
        args += ["--trace-out", str(trace_path)]
    out, rss = probe(tools, args, work)
    attempted, failed = out["attempted"], out["failed"]
    if opts.trace:
        passes = out["passes"]
        notes.append(f"per-layer times are medians over n={len(passes)} "
                     f"traced passes; overhead against "
                     f"n={len(out['pass_ms'])} untraced passes")

        def op_ms(*names):
            return statistics.median(
                sum(p["ms"].get(n, 0.0) for n in names) for p in passes)

        mc_ms = op_ms("monte_carlo")
        traced_wall = statistics.median(p["wall_ms"] for p in passes)
        untraced_wall = statistics.median(out["pass_ms"])
        return {
            "attempted": attempted, "failed": failed,
            "trace_file": trace_path,
            "metrics": {
                "benchgen.load_ms": statistics.median(out["setup_s"]) * 1e3,
                "power.stats_ms": op_ms("propagate_activity"),
                "power.model_ms": op_ms("circuit_power"),
                "opt.optimize_ms": op_ms("optimize"),
                "delay.timing_ms": op_ms("circuit_delay"),
                "sim.mc_ms": mc_ms,
                "sim.events": out["events"],
                "sim.events_per_s": out["events"] / (mc_ms / 1e3),
                "sim.truncated_replications": out["truncated"],
                "trace.coverage_pct": statistics.median(
                    p["coverage_pct"] for p in passes),
                "trace.overhead_pct":
                    100.0 * (traced_wall - untraced_wall) / untraced_wall,
            },
        }
    # A pass's time is taken circuit by circuit: each circuit's median
    # over the run's passes, summed. A slow spell of the host that hits
    # one pass part-way then moves no circuit's median.
    pass_ms = out["pass_ms"]
    per_pass = len(out["circuit_ms"]) // len(pass_ms)
    circuit_medians = [statistics.median(out["circuit_ms"][i::per_pass])
                       for i in range(per_pass)]
    notes.append(f"gates_per_s: one pass's gates over the sum of each "
                 f"circuit's median time (n={len(pass_ms)} passes of "
                 f"{per_pass} circuits); latency_p50_ms is the median pass "
                 f"(n={len(pass_ms)}); no p99: fewer than 10 passes lie "
                 "beyond it")
    notes.append(f"setup_s is the median of n={len(out['setup_s'])} "
                 "set-ups, a chunk before the first pass and after each")
    ok_ops = attempted - failed
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": statistics.median(out["setup_s"]),
            "gates_per_s": out["gates"] * ok_ops / attempted
                           / (sum(circuit_medians) / 1e3),
            "latency_p50_ms": statistics.median(pass_ms),
            "power_saved_pct": out["power_saved_pct"],
            "peak_rss_mb": rss,
            "ok_ops_pct": 100.0 * ok_ops / attempted,
        },
    }


# ---------------------------------------------------------------------------

def traces_dir():
    path = build_dir() / "traces"
    path.mkdir(parents=True, exist_ok=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # A terminated run unwinds, so every child and daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    tools = build(out)
    work = out / "work" / f"{opts.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    notes = []
    try:
        if opts.workload == "batch_catalog":
            result = batch_workload(tools, work, opts, ["table3", "scaled"],
                                    None, notes)
        elif opts.workload == "batch_budgeted":
            result = batch_workload(tools, work, opts, ["table3"],
                                    DELAY_BUDGET, notes)
        elif opts.workload == "serve_closed":
            result = serve_workload(tools, work, opts, notes)
        else:
            result = validate_workload(tools, work, opts, notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(PER_LAYER if opts.trace else END_TO_END)
    reported = result["metrics"]
    metrics = {name: {"value": float(reported.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    correct = result["failed"] == 0
    print(f"workload {opts.workload} seed {opts.seed} "
          f"trace {opts.trace}: {result['attempted']} ops, "
          f"{result['failed']} failed")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        exercised = "" if name in reported else "  (layer not exercised)"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{exercised}")
    if "trace_file" in result:
        print(f"  trace written to {result['trace_file']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        sys.exit(2)
