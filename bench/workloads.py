"""The three workloads, their end-to-end metrics and the traced profile.

One client drives every workload, with no worker threads:
each operation starts only after the previous one has finished (a closed
loop).  Inputs come from ``random.Random`` seeded with the workload name and
``--seed``; the program only ever receives the generated positions.
"""

import json
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from colorlattice import (
    Board,
    b_map,
    c_lattice,
    cached_isomorphism,
    enumerate_tilings,
    l_inv,
    solve_domino,
    solve_mixedmiddleswitch,
    solve_snakes,
    z_lattice,
)
from colorlattice.switchgame import format_bits, format_tuple, int_to_bits

import checks
from layers import (
    INSTANCES,
    KINDS,
    Tracer,
    build_instances,
    family_lattice,
    layer_metrics,
    profile_core,
    profile_solves,
)
from reference import HostSpeed

WORKLOADS = ("cold-solve", "warm-library", "verify-sweep")
ROOT = Path(__file__).resolve().parent.parent

CLI_TIMEOUT_S = 120
STARTUP_SAMPLES = 9     # fresh ``import colorlattice.cli`` processes
SETUP_SAMPLES = 3       # warm builds: this process plus two children
MIN_SOLVES = 1000       # so that at least ten solves lie beyond p99
ORACLE_SAMPLE = 20      # warm answers per instance compared with the search
SEGMENT_S = 1.0         # warm solves between two reference samples
PROFILE_PAIRS = 40      # pairs per instance in the traced step profile

CLI_FAMILY = {"switch": "mixedmiddleswitch", "ballot": "domino-ballot",
              "staircase": "domino-staircase", "full": "domino-full",
              "snakes": "snakes"}


class Run:
    """State of one benchmark run: settings, spans and every operation."""

    def __init__(self, workload, seed, trace, sizes):
        self.seed = seed
        self.sizes = sizes
        self.tracer = Tracer(enabled=trace)
        self.rng = random.Random(f"{workload}:{seed}")
        self.ops = []           # dicts: inst, seconds, scaled, traced, problem
        self.speed = HostSpeed()
        self.report = []        # (name, value, unit, samples, note)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    @property
    def trace(self):
        return self.tracer.enabled

    def metric(self, name, value, unit, samples, note):
        self.report.append((name, value, unit, samples, note))


def spawn(run, args):
    """Run ``python3 <args>`` from the repository root; return (seconds, process).

    A process that outlives CLI_TIMEOUT_S is killed, waited for and returned
    with exit code -9, so it counts as one failed operation.
    """
    cmd = [sys.executable] + args
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=run.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(cmd, -9, "", "timed out")
    return perf_counter() - start, proc


def solve(inst, sizes, s, t, via):
    """One library solve; the self-test wraps this to doctor an answer."""
    if inst == "switch":
        return solve_mixedmiddleswitch(sizes["switch"], s, t, via=via)
    if inst == "snakes":
        return solve_snakes(sizes["snakes"], s, t, via=via)
    return solve_domino(inst, *sizes["board"], s, t, via=via)


def members(inst, sizes):
    if inst == "switch":
        n = sizes["switch"]
        return [int_to_bits(v, n) for v in range(2 ** n)]
    if inst == "snakes":
        return enumerate_tilings(sizes["snakes"])
    return Board(inst, *sizes["board"]).partitions()


def bottom(inst, sizes):
    """The position at the lattice minimum, through the solver's own maps."""
    if inst == "switch":
        return b_map(z_lattice(sizes["switch"]).minimum)
    if inst == "snakes":
        n = sizes["snakes"]
        return cached_isomorphism(n)[c_lattice(n).minimum]
    k, n = sizes["board"]
    return l_inv(family_lattice(inst, k, n).minimum, k, n)


def warm_stream(rng, sizes):
    """Endless interleaved (inst, start, target, via) with an equal share each.

    On each instance the j-th pair is uniform for even j and runs from the
    bottom for odd j; ``via`` flips every two pairs, so all four mixes recur.
    """
    pool = {inst: members(inst, sizes) for inst in INSTANCES}
    low = {inst: bottom(inst, sizes) for inst in INSTANCES}
    seen = dict.fromkeys(INSTANCES, 0)
    while True:
        block = list(INSTANCES)
        rng.shuffle(block)
        for inst in block:
            j = seen[inst]
            seen[inst] += 1
            start = rng.choice(pool[inst]) if j % 2 == 0 else low[inst]
            yield inst, j, start, rng.choice(pool[inst]), ("join", "meet")[(j // 2) % 2]


def cli_args(inst, sizes, s, t, via):
    if inst == "switch":
        params, fmt = ["--n", str(sizes["switch"])], format_bits
    elif inst == "snakes":
        params, fmt = ["--n", str(sizes["snakes"])], format_tuple
    else:
        k, n = sizes["board"]
        params, fmt = ["--k", str(k), "--n", str(n)], format_tuple
    return (["-m", "colorlattice.cli", "solve", CLI_FAMILY[inst]] + params
            + ["--from", fmt(s), "--to", fmt(t), "--via", via, "--json"])


def rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def peak_rss_mb():
    return max(rss_mb(resource.RUSAGE_SELF), rss_mb(resource.RUSAGE_CHILDREN))


def startup_probes(run, samples):
    """Fresh ``import colorlattice.cli`` processes: median wall and scaled time."""
    spawn(run, ["-c", "import colorlattice.cli"])   # compiles bytecode once
    walls, scaled = [], []
    for _ in range(samples):
        with run.tracer.span("cli.startup"):
            wall, proc = spawn(run, ["-c", "import colorlattice.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"colorlattice does not import: {proc.stderr}")
        walls.append(wall)
        scaled.append(wall * run.speed.factor())
    return statistics.median(walls), statistics.median(scaled)


def verify_probe(run):
    """One fresh process running every verify suite in turn, timed per suite."""
    wall, proc = spawn(run, [str(ROOT / "bench" / "probe.py"), "verify",
                             str(run.sizes["verify_max_n"])])
    if proc.returncode != 0:
        return wall, f"verify probe exit code {proc.returncode}: {proc.stderr[-200:]}"
    result = json.loads(proc.stdout)
    for suite, (start, end) in result["suites"].items():
        run.tracer.add(f"cli.verify.{suite}", start, end)
    return wall, (f"{result['failures']} verify checks failed"
                  if result["failures"] else None)


def pinned_cli(run):
    p = checks.PINNED
    _, proc = spawn(run, ["-m", "colorlattice.cli", "solve", "mixedmiddleswitch",
                          "--n", str(p["n"]), "--from", p["from"], "--to", p["to"],
                          "--json"])
    if proc.returncode != 0:
        return f"pinned instance: exit code {proc.returncode}"
    payload = json.loads(proc.stdout)
    return checks.check_pinned(payload["distance"],
                               [m["flip"] for m in payload["moves"]])


def pinned_library():
    p = checks.PINNED
    sol = solve_mixedmiddleswitch(p["n"], tuple(map(int, p["from"])),
                                  tuple(map(int, p["to"])))
    return checks.check_pinned(sol.distance, sol.flips)


# --------------------------------------------------------------------------
# cold-solve: a closed loop of fresh ``solve --json`` processes

def cold_solve(run, seconds):
    sizes = run.sizes
    setup = startup_probes(run, STARTUP_SAMPLES)
    pool = {inst: members(inst, sizes) for inst in INSTANCES}
    pending, rounds = [], 0
    deadline = perf_counter() + seconds
    # whole rounds only, so every family has the same number of samples;
    # a traced run needs two, to pair traced rounds with untraced ones
    while rounds < (2 if run.trace else 1) or perf_counter() < deadline:
        via = ("join", "meet")[rounds % 2]
        traced = run.trace and rounds % 2 == 1
        order = list(INSTANCES)
        run.rng.shuffle(order)
        for inst in order:
            s, t = run.rng.choice(pool[inst]), run.rng.choice(pool[inst])
            args = cli_args(inst, sizes, s, t, via)
            if traced:
                with run.tracer.span(f"cli.solve.{inst}"):
                    wall, proc = spawn(run, args)
            else:
                wall, proc = spawn(run, args)
            op = {"inst": inst, "round": rounds, "seconds": wall,
                  "scaled": wall * run.speed.factor(), "traced": traced,
                  "problem": None}
            run.ops.append(op)
            pending.append((op, s, t, proc))
        rounds += 1
    return setup, STARTUP_SAMPLES, peak_rss_mb(), lambda: check_cold(run, pending)


def check_cold(run, pending):
    oracle = checks.Oracle(run.sizes)
    for op, s, t, proc in pending:
        op["problem"] = checks.check_cli_solve(
            op["inst"], run.sizes, s, t, proc, oracle.distance(op["inst"], s, t))
    run.ops.append({"inst": "pinned", "seconds": None, "traced": False,
                    "problem": pinned_cli(run)})


def cold_rounds(run, key="seconds"):
    """Per round, the wall (or scaled) time of each instance's process."""
    by_round = {}
    for op in run.ops:
        if op["seconds"] is not None:
            by_round.setdefault(op["round"], {})[op["inst"]] = op[key]
    return list(by_round.values())


def report_cold(run):
    rounds = cold_rounds(run)
    n = len(rounds)
    run.metric("cold_switch_s", statistics.median(r["switch"] for r in rounds),
               "s", n, "median over rounds of one switch process")
    run.metric("cold_domino_s",
               statistics.median(sum(r[k] for k in KINDS) for r in rounds),
               "s", n, "median over rounds of ballot + staircase + full processes")
    run.metric("cold_snakes_s", statistics.median(r["snakes"] for r in rounds),
               "s", n, "median over rounds of one snakes process")
    for kind in KINDS:
        run.metric(f"cold_{kind}_s", statistics.median(r[kind] for r in rounds),
                   "s", n, f"median over rounds of one {kind} process")


# --------------------------------------------------------------------------
# warm-library: a process builds the five instances once, then streams solves

def warm_share(sizes, rng, seconds, min_solves, tracer):
    """Build the five instances, then solve a share of the stream.

    Every answer is replayed here, outside the timed call.  Per solve only
    its time, instance and traced flag are kept, in flat arrays, so that
    the bookkeeping adds little to the peak memory this process reports.
    ``sampled`` lists (solve index, inst, start, target, distance) for the
    first ORACLE_SAMPLE answers per instance, for the search oracle.
    The solves are scaled by host speed in segments of SEGMENT_S, each
    between two reference samples.
    """
    speed = HostSpeed()
    start = perf_counter()
    build_instances(sizes, tracer)
    setup_s = perf_counter() - start
    setup_scaled = setup_s * speed.factor()
    walls, scaled, insts, flags = array("d"), array("d"), bytearray(), bytearray()
    problems, sampled = {}, []
    stream = warm_stream(rng, sizes)
    deadline = perf_counter() + seconds
    segment_end = perf_counter() + SEGMENT_S
    while len(walls) < min_solves or perf_counter() < deadline:
        if perf_counter() > segment_end:
            factor = speed.factor()
            scaled.extend(w * factor for w in walls[len(scaled):])
            segment_end = perf_counter() + SEGMENT_S
        inst, j, s, t, via = next(stream)
        traced = tracer.enabled and (j // 4) % 2 == 1
        problem = sol = None
        start = perf_counter()
        try:
            if traced:
                with tracer.span("library.solve"):
                    sol = solve(inst, sizes, s, t, via)
            else:
                sol = solve(inst, sizes, s, t, via)
        except Exception as err:  # a crash is a failed operation, not a stop
            problem = f"{type(err).__name__}: {err}"
        wall = perf_counter() - start
        if sol is not None:
            problem = checks.check_solution(
                inst, sizes, s, t, sol, getattr(sol, "color_counts", None))
        if problem is not None:
            problems[len(walls)] = problem
        elif j < ORACLE_SAMPLE:
            sampled.append((len(walls), inst, s, t, sol.distance))
        walls.append(wall)
        insts.append(INSTANCES.index(inst))
        flags.append(traced)
    factor = speed.factor()
    scaled.extend(w * factor for w in walls[len(scaled):])
    rss = rss_mb(resource.RUSAGE_SELF)
    return {"setup_s": setup_s, "setup_scaled": setup_scaled,
            "walls": list(walls), "scaled": list(scaled), "insts": list(insts),
            "traced": list(flags), "problems": problems, "sampled": sampled,
            "ref_samples": speed.samples, "rss_mb": rss}


def warm_library(run, seconds):
    """This process and SETUP_SAMPLES - 1 fresh children each take a share.

    Each process adds one build to the ``setup_s`` samples, and pooling the
    solves of several processes evens out how fast one process happens to
    run.  A traced run keeps everything in this process.
    """
    shares = 1 if run.trace else SETUP_SAMPLES
    share = [seconds / shares, -(-MIN_SOLVES // shares)]
    results = []
    for k in range(shares):
        if k == 0:
            rng = random.Random(f"warm-library:{run.seed}:{k}")
            results.append(warm_share(run.sizes, rng, *share, run.tracer))
        else:
            _, proc = spawn(run, [str(ROOT / "bench" / "probe.py"), "warm",
                                  json.dumps([run.sizes, run.seed, k] + share)])
            if proc.returncode != 0:
                raise RuntimeError(f"warm probe failed: {proc.stderr[-500:]}")
            results.append(json.loads(proc.stdout))
    # the children's peak, and this process's before it read their results
    rss = max([rss_mb(resource.RUSAGE_CHILDREN)] + [r["rss_mb"] for r in results])
    sampled = []
    for r in results:
        run.speed.samples += r["ref_samples"]
        base = len(run.ops)
        sampled += [(base + i, inst, tuple(s), tuple(t), distance)
                    for (i, inst, s, t, distance) in r["sampled"]]
        problems = {int(i): p for i, p in r["problems"].items()}
        run.ops += [{"inst": INSTANCES[inst], "seconds": wall, "scaled": scaled,
                     "traced": bool(traced), "problem": problems.get(i)}
                    for i, (wall, scaled, inst, traced) in enumerate(
                        zip(r["walls"], r["scaled"], r["insts"], r["traced"]))]
    setup = (statistics.median(r["setup_s"] for r in results),
             statistics.median(r["setup_scaled"] for r in results))
    return setup, shares, rss, lambda: check_warm(run, sampled)


def check_warm(run, sampled):
    oracle = checks.Oracle(run.sizes)
    for index, inst, s, t, distance in sampled:
        expected = oracle.distance(inst, s, t)
        if distance != expected:
            run.ops[index]["problem"] = (f"distance {distance}, "
                                         f"breadth-first search {expected}")
    run.ops.append({"inst": "pinned", "seconds": None, "traced": False,
                    "problem": pinned_library()})


def report_warm(run, walls):
    q = statistics.quantiles(walls, n=100, method="inclusive")
    n = len(walls)
    run.metric("solve_p50_ms", statistics.median(walls) * 1e3, "ms", n,
               "median library solve")
    run.metric("solve_p99_ms", q[98] * 1e3, "ms", n,
               f"{sum(w > q[98] for w in walls)} solves lie beyond it")
    run.metric("solves_per_s", n / sum(walls), "1/s", n,
               "solves per second spent solving")


# --------------------------------------------------------------------------
# verify-sweep: a closed loop of fresh ``verify all --json`` processes

def verify_sweep(run, seconds):
    setup = startup_probes(run, STARTUP_SAMPLES)
    args = ["-m", "colorlattice.cli", "verify", "all", "--json"]
    if run.sizes["verify_max_n"] != "default":
        args += ["--max-n", str(run.sizes["verify_max_n"])]
    pending = []
    i = 0
    deadline = perf_counter() + seconds
    while i < (2 if run.trace else 1) or perf_counter() < deadline:
        traced = run.trace and i % 2 == 1
        if traced:
            wall, problem = verify_probe(run)
        else:
            wall, proc = spawn(run, args)
            problem = None
        op = {"inst": "verify", "seconds": wall,
              "scaled": wall * run.speed.factor(), "traced": traced,
              "problem": problem}
        run.ops.append(op)
        if not traced:
            pending.append((op, proc))
        i += 1
    return setup, STARTUP_SAMPLES, peak_rss_mb(), lambda: check_verify(run, pending)


def check_verify(run, pending):
    counts = []
    for _, proc in pending:
        try:
            counts.append(len(json.loads(proc.stdout)["checks"]))
        except (ValueError, KeyError):
            pass   # check_verify reports this process
    expected = statistics.mode(counts) if counts else None
    for op, proc in pending:
        op["problem"] = checks.check_verify(proc, expected)
    run.ops.append({"inst": "pinned", "seconds": None, "traced": False,
                    "problem": pinned_cli(run)})


# --------------------------------------------------------------------------
# one run

def overhead_pct(run):
    """Traced against untraced operations of the same run, per instance.

    The median of per-instance ratios of medians of scaled times, as a
    percentage above 1.
    """
    ratios = []
    for inst in {op["inst"] for op in run.ops}:
        timed = [op for op in run.ops
                 if op["inst"] == inst and op["seconds"] is not None]
        on = [op["scaled"] for op in timed if op["traced"]]
        off = [op["scaled"] for op in timed if not op["traced"]]
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    return 100.0 * (statistics.median(ratios) - 1.0)


def profile_pairs(run):
    """The first PROFILE_PAIRS pairs per instance of this seed's warm stream."""
    rng = random.Random(f"warm-library:{run.seed}:0")
    picked = []
    for inst, j, s, t, via in warm_stream(rng, run.sizes):
        if j < PROFILE_PAIRS:
            picked.append((inst, s, t, via))
        if len(picked) == PROFILE_PAIRS * len(INSTANCES):
            return picked


def run_workload(workload, seed, seconds, trace, sizes):
    """Run one workload.

    Returns the result object printed as the last line, the report rows
    (name, value, unit, samples, note), the tracer and the failure reasons.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    run = Run(workload, seed, trace, sizes)
    loop = {"cold-solve": cold_solve, "warm-library": warm_library,
            "verify-sweep": verify_sweep}[workload]
    (setup_wall, setup_s), setup_n, rss, check = loop(run, seconds)

    timed = [op for op in run.ops if op["seconds"] is not None]
    walls = [op["seconds"] for op in timed]
    scaled = [op["scaled"] for op in timed]
    if trace:
        if workload != "warm-library":
            build_instances(sizes, run.tracer)
        profile_core(sizes, run.tracer)
        profile_solves(sizes, profile_pairs(run), run.tracer)
        if workload != "verify-sweep":
            _, problem = verify_probe(run)
            run.ops.append({"inst": "verify-probe", "seconds": None,
                            "traced": True, "problem": problem})
        if workload == "warm-library":
            startup_probes(run, STARTUP_SAMPLES)
    check()

    failed = sum(op["problem"] is not None for op in run.ops)
    if workload == "cold-solve":
        # one latency per round, so the five families always weigh the same
        latencies = [sum(r.values()) for r in cold_rounds(run)]
        scaled_latencies = [sum(r.values()) for r in cold_rounds(run, "scaled")]
    else:
        latencies, scaled_latencies = walls, scaled
    what = ("median build of the five instances" if workload == "warm-library"
            else "median fresh import colorlattice.cli process")
    gated = {
        "setup_s": (setup_s, "s", setup_n, what + ", scaled"),
        "scaled_latency_p50_ms": (statistics.median(scaled_latencies) * 1e3,
                                  "ms", len(latencies), "median operation, scaled"),
        "scaled_throughput_per_s": (len(scaled) / sum(scaled), "1/s", len(scaled),
                                    "operations per scaled second spent in them"),
        "peak_rss_mb": (rss, "MB", 1, "ru_maxrss of this process and children"),
    }
    for name in ("setup_s", "scaled_latency_p50_ms", "scaled_throughput_per_s"):
        run.metric(name, *gated[name])
    run.metric("setup_wall_s", setup_wall, "s", setup_n, what)
    run.metric("latency_p50_ms", statistics.median(latencies) * 1e3, "ms",
               len(latencies), "median operation, wall clock")
    run.metric("throughput_per_s", len(walls) / sum(walls), "1/s", len(walls),
               "operations per wall-clock second spent in them")
    run.metric("host_ref_ms", statistics.median(run.speed.samples) * 1e3, "ms",
               len(run.speed.samples), "median reference loop of the run")
    if workload == "cold-solve":
        report_cold(run)
    elif workload == "warm-library":
        report_warm(run, walls)
    else:
        run.metric("verify_s", statistics.median(walls), "s", len(walls),
                   "median verify all process")
    run.metric("peak_rss_mb", *gated["peak_rss_mb"])
    run.metric("failed_frac", failed / len(run.ops), "1", len(run.ops),
               "operations failed over operations attempted")

    if trace:
        metrics = layer_metrics(run.tracer)
        metrics["trace.overhead_pct"] = {"value": overhead_pct(run), "unit": "%"}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _, _) in gated.items()}
    result = {"correct": failed == 0, "attempted": len(run.ops),
              "failed": failed, "metrics": metrics}
    problems = [op["problem"] for op in run.ops if op["problem"]]
    return result, run.report, run.tracer, problems

