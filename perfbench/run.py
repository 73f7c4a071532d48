#!/usr/bin/env python3
"""DieHard allocator benchmark: three workloads through libdiehard.so.

Run from the repository root:

  python3 perfbench/run.py --workload server --seed 1 --seconds 10 --trace 0

--trace 0 runs timed trials of the workload under LD_PRELOAD=libdiehard.so
and prints the end-to-end metrics; --trace 1 runs the per-layer ledger.
Both print human-readable lines, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("server", "handoff", "phases")

# Shim configuration per workload on top of the shipped defaults
# (DIEHARD_TCACHE=32, one shard per CPU, no sweeper).
WORKLOAD_ENV = {
    "server": {},
    "handoff": {},
    "phases": {"DIEHARD_SWEEPER": "1", "DIEHARD_MESH": "1"},
}

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("malloc_p50_ns", "ns"),
    ("malloc_p99_ns", "ns"),
    ("free_p50_ns", "ns"),
    ("free_p99_ns", "ns"),
    ("peak_rss_kb", "KB"),
    ("idle_rss_kb", "KB"),
    ("cpu_ns_per_op", "ns"),
    ("setup_s", "s"),
]

# (name, unit) of every per-layer metric, bottom layer first.
PER_LAYER = [
    ("RandomizedPartition.ns_per_op", "ns"),
    ("RandomizedPartition.probes_per_alloc", "count"),
    ("RandomizedPartition.probes_analytic", "count"),
    ("RandomizedPartition.faults_per_kop", "count"),
    ("RandomizedPartition.touched_kb", "KB"),
    ("DieHardHeap.self_ns_per_op", "ns"),
    ("DieHardHeap.large_ns", "ns"),
    ("DieHardHeap.realloc_ns", "ns"),
    ("ShardedHeap.self_ns_per_op", "ns"),
    ("ShardedHeap.remote_free_ns", "ns"),
    ("ShardedHeap.remote_frees_per_kop", "count"),
    ("ShardedHeap.drains_per_kop", "count"),
    ("ShardedHeap.drain_ns", "ns"),
    ("ShardedHeap.sweep_pass_ns", "ns"),
    ("ShardedHeap.pages_returned", "count"),
    ("ShardedHeap.pages_meshed", "count"),
    ("ShardedHeap.aged_caches", "count"),
    ("ThreadCache.self_ns_per_op", "ns"),
    ("ThreadCache.refills_per_kop", "count"),
    ("ThreadCache.flushes_per_kop", "count"),
    ("ThreadCache.flush_ns", "ns"),
    ("ThreadCache.cached_slots_end", "count"),
    ("interpose.self_ns_per_op", "ns"),
    ("interpose.first_malloc_ns", "ns"),
    ("harness.queue_wait_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]
TIERS = ["RandomizedPartition", "DieHardHeap", "ShardedHeap", "ThreadCache",
         "interpose"]
for _tier in TIERS:
    for _q in ("malloc_p50_ns", "malloc_p99_ns", "free_p50_ns", "free_p99_ns"):
        PER_LAYER.append((_tier + "." + _q, "ns"))

# Trials per run are bounded so a fast allocator cannot stretch a run.
MIN_TRIALS, MAX_TRIALS = 5, 400
LEDGER_REPS = 5
MASK64 = (1 << 64) - 1


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def mix64(x):
    """SplitMix64 finalizer, identical to pb::mix64 in src/Common.h."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def trial_seed(seed, index):
    """Op-stream seed of trial `index` of a run with seed `seed`."""
    return mix64((seed * 1000003 + index) & MASK64) >> 1


def heap_seed(stream_seed):
    """DIEHARD_SEED for an op stream: derived, never 0 (0 means random)."""
    return mix64(stream_seed) | 1


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Inter-quartile distance as a share of the median (0 if undefined)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q3 - q1) / m if m else 0.0


def last_json(text):
    """The last line of `text` that parses as a JSON object."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    raise BenchError("no JSON result in output: %r" % text[-300:])


def json_lines(text):
    return [json.loads(l) for l in text.splitlines() if l.startswith("{")]


def parse_shim_stats(text):
    """The counters of the last DIEHARD_STATS exit line in `text`."""
    for line in reversed(text.strip().splitlines()):
        try:
            return json.loads(line)["diehard_stats"]
        except (ValueError, KeyError):
            continue
    raise BenchError("no DIEHARD_STATS line")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", os.path.join("src", "interpose",
                                                "Interpose.cpp")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError("repository source missing: " + need)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return {
        "load": os.path.join(BUILD, "pb_load"),
        "ledger": os.path.join(BUILD, "pb_ledger"),
        "shim": os.path.join(BUILD, "diehard", "libdiehard.so"),
    }


# --- processes ----------------------------------------------------------------

def spawn(argv, env, spawn_arg=False):
    """Runs argv to completion; returns (stdout, rusage, exit status).

    With spawn_arg, the monotonic time taken just before the spawn is
    appended to argv, so the child can report set-up time against it."""
    r, w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, w, 1), (os.POSIX_SPAWN_CLOSE, r),
               (os.POSIX_SPAWN_CLOSE, w)]
    t0 = time.monotonic_ns()
    args = argv + [str(t0)] if spawn_arg else argv
    pid = os.posix_spawn(argv[0], args, env, file_actions=actions)
    os.close(w)
    chunks = []
    with os.fdopen(r, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    return b"".join(chunks).decode(), usage, os.waitstatus_to_exitcode(status)


def child_env(shim, extra):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DIEHARD_") and k != "LD_PRELOAD"}
    if shim:
        env["LD_PRELOAD"] = shim
    env.update(extra)
    return env


# --- correctness --------------------------------------------------------------

def check_trial(res, oracle, stats):
    """Failures of one trial: a list of (reason, count)."""
    problems = []
    if res["failed"]:
        problems.append(("allocations returned null", res["failed"]))
    if res["bad_tags"]:
        problems.append(("objects lost their contents", res["bad_tags"]))
    if res["observed"] != res["expected"]:
        problems.append(("checksum read back != checksum written", 1))
    for key in ("expected", "mallocs", "frees", "reallocs", "ops"):
        if res[key] != oracle[key]:
            problems.append(("%s differs from the oracle replay" % key, 1))
    if res["mallocs"] != res["frees"]:
        problems.append(("allocations != frees",
                         abs(res["mallocs"] - res["frees"])))
    if stats is not None:
        for key in ("failed", "ignored_frees", "realloc_rejects"):
            if stats.get(key, 0):
                problems.append(("shim reports %s" % key, stats[key]))
        if stats["allocations"] + stats["large_allocations"] < res["mallocs"]:
            problems.append(("shim saw fewer allocations than were made", 1))
    return problems


# --- end-to-end run -----------------------------------------------------------

def run_trial(bins, workload, seed, index):
    s = trial_seed(seed, index)
    os.makedirs(OUT, exist_ok=True)
    stats_path = os.path.join(OUT, "stats-%s.json" % workload)
    if os.path.exists(stats_path):
        os.remove(stats_path)
    env = child_env(bins["shim"], dict(WORKLOAD_ENV[workload],
                                       DIEHARD_SEED=str(heap_seed(s)),
                                       DIEHARD_STATS=stats_path))
    out, usage, code = spawn([bins["load"], "run", workload, str(s)], env,
                             spawn_arg=True)
    if code != 0:
        raise BenchError("trial %d of %s exited with %d" % (index, workload,
                                                          code))
    res = last_json(out)
    with open(stats_path) as f:
        stats = parse_shim_stats(f.read())
    res["peak_rss_kb"] = usage.ru_maxrss
    res["cpu_ns"] = (usage.ru_utime + usage.ru_stime) * 1e9
    res["stream_seed"] = s
    return res, stats


def oracle_for(bins, workload, stream_seed):
    out, _, code = spawn([bins["load"], "oracle", workload, str(stream_seed)],
                         child_env(None, {}))
    if code != 0:
        raise BenchError("oracle failed")
    return last_json(out)


def trial_metrics(res):
    return {
        "ops_per_s": res["ops"] / (res["timed_ns"] / 1e9),
        "malloc_p50_ns": res["malloc_p50_ns"],
        "malloc_p99_ns": res["malloc_p99_ns"],
        "free_p50_ns": res["free_p50_ns"],
        "free_p99_ns": res["free_p99_ns"],
        "peak_rss_kb": res["peak_rss_kb"],
        "idle_rss_kb": res["idle_rss_kb"],
        "cpu_ns_per_op": res["cpu_ns"] / res["ops"],
        "setup_s": res["setup_ns"] / 1e9,
    }


def run_end_to_end(bins, workload, seed, seconds):
    deadline = time.monotonic() + seconds
    per_trial, attempted, failed, problems = [], 0, 0, []
    samples = {"malloc": 0, "free": 0}
    index = 0
    while index < MIN_TRIALS or (time.monotonic() < deadline
                                 and index < MAX_TRIALS):
        res, stats = run_trial(bins, workload, seed, index)
        oracle = oracle_for(bins, workload, res["stream_seed"])
        found = check_trial(res, oracle, stats)
        attempted += res["ops"]
        failed += sum(n for _, n in found)
        problems += ["trial %d: %s (%d)" % (index, why, n)
                     for why, n in found]
        per_trial.append(trial_metrics(res))
        samples["malloc"] += res["malloc_samples"]
        samples["free"] += res["free_samples"]
        index += 1

    metrics = {}
    print("workload %s: %d trials, seed %d, %d ops" % (workload, index, seed,
                                                       attempted))
    for name, unit in END_TO_END:
        values = [t[name] for t in per_trial]
        metrics[name] = {"value": median(values), "unit": unit}
        note = ""
        if name.startswith("malloc_p"):
            note = "  (%d samples)" % samples["malloc"]
        elif name.startswith("free_p"):
            note = "  (%d samples)" % samples["free"]
        print("  %-15s %14.6g %-6s trial spread %5.1f%%%s" % (
            name, metrics[name]["value"], unit, 100 * spread(values), note))
    print("  %-15s %14.6g %-6s (%d of %d)" % (
        "failed_ratio", failed / attempted, "ratio", failed, attempted))
    for p in problems:
        print("  FAILED " + p)
    return not problems, attempted, failed, metrics


# --- traced run: the per-layer ledger ------------------------------------------

def run_ledger(bins, workload, seed):
    out_dir = os.path.join(OUT, workload)
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans.csv")
    with open(spans, "w") as f:
        f.write("tier,rep,op,kind,start_ns,dur_ns,size\n")
    s = trial_seed(seed, 0)
    problems = []

    out, _, code = spawn([bins["ledger"], workload, str(s), str(LEDGER_REPS),
                          spans], child_env(None, {}))
    if code != 0:
        raise BenchError("pb_ledger exited with %d" % code)
    rows = json_lines(out)

    # The shim tier: the same single-thread stream through malloc, each
    # repetition in a fresh process like every in-process tier's fresh heap.
    env = child_env(bins["shim"], dict(WORKLOAD_ENV[workload],
                                       DIEHARD_SEED=str(heap_seed(s))))
    for rep in range(LEDGER_REPS):
        for traced in ("0", "1"):
            argv = [bins["load"], "replay", workload, str(s), traced,
                    spans if (traced == "1" and rep == 0) else "-"]
            out, _, code = spawn(argv, env)
            if code != 0:
                raise BenchError("shim replay exited with %d" % code)
            row = last_json(out)
            row["tier"] = "interpose" if traced == "1" else "interpose.untraced"
            row["rep"] = rep
            rows.append(row)

    # Counts of the shim's own mechanisms come from its exit line on one
    # full multi-threaded trial.
    res, stats = run_trial(bins, workload, seed, 0)
    oracle = oracle_for(bins, workload, res["stream_seed"])
    problems += ["shim trial: %s (%d)" % p for p in check_trial(res, oracle,
                                                                stats)]

    by_tier = {}
    for row in rows:
        by_tier.setdefault(row["tier"], []).append(row)
    single = TIERS[:-1] + ["interpose"]
    for tier in single + ["interpose.untraced"]:
        for row in by_tier[tier]:
            if (row["expected"] != row["oracle_expected"]
                    or row["observed"] != row["expected"]
                    or row["failed"] or row["bad_tags"]):
                problems.append("%s rep %d: replay does not match its oracle"
                                % (tier, row["rep"]))
    ops = {row["ops"] for t in single for row in by_tier[t]}
    if len(ops) != 1:
        problems.append("tiers replayed different op counts: %s" % sorted(ops))
    for tier in ("ShardedHeap.mt", "ThreadCache.mt"):
        row = by_tier[tier][0]
        if (row["observed"] != row["expected"] or row["failed"]
                or row["bad_tags"] or row["heap_failed"]
                or row["heap_ignored_frees"]):
            problems.append("%s: run does not check out" % tier)

    def med(tier, key):
        return median([r[key] for r in by_tier[tier]])

    cost = {t: med(t, "ns_per_op") for t in single}
    m = {}
    below = 0.0
    for t in single:
        name = "RandomizedPartition.ns_per_op" if t == TIERS[0] else \
            t + ".self_ns_per_op"
        m[name] = cost[t] - below
        below = cost[t]
        for q in ("malloc_p50_ns", "malloc_p99_ns", "free_p50_ns",
                  "free_p99_ns"):
            m[t + "." + q] = med(t, q)
    kop = res["ops"] / 1000.0
    rp = by_tier["RandomizedPartition"]
    mt0, mt1 = by_tier["ShardedHeap.mt"][0], by_tier["ThreadCache.mt"][0]
    m.update({
        "RandomizedPartition.probes_per_alloc": med("RandomizedPartition",
                                                    "probes_per_alloc"),
        "RandomizedPartition.probes_analytic": med("RandomizedPartition",
                                                   "probes_analytic"),
        "RandomizedPartition.faults_per_kop": median(
            [r["faults"] / (r["ops"] / 1000.0) for r in rp]),
        "RandomizedPartition.touched_kb": med("RandomizedPartition",
                                              "touched_kb"),
        "DieHardHeap.large_ns": med("DieHardHeap", "large_ns"),
        "DieHardHeap.realloc_ns": med("DieHardHeap", "realloc_ns"),
        "ShardedHeap.remote_free_ns": mt0["remote_free_ns"],
        "ShardedHeap.remote_frees_per_kop": stats["remote_frees"] / kop,
        "ShardedHeap.drains_per_kop": stats["sidecar_drains"] / kop,
        "ShardedHeap.drain_ns": mt0["drain_ns"],
        "ShardedHeap.sweep_pass_ns": mt1["sweep_pass_ns"],
        "ShardedHeap.pages_returned": stats["pages_returned"],
        "ShardedHeap.pages_meshed": stats["pages_meshed"],
        "ShardedHeap.aged_caches": stats["aged_caches"],
        "ThreadCache.refills_per_kop": stats["cache_refills"] / kop,
        "ThreadCache.flushes_per_kop": stats["cache_flushes"] / kop,
        "ThreadCache.flush_ns": mt1["flush_ns"],
        "ThreadCache.cached_slots_end": res["cached_slots_idle"],
        "interpose.first_malloc_ns": med("interpose", "first_malloc_ns"),
        "harness.queue_wait_share": res["queue_wait_ns"] / res["thread_ns"],
        "trace.overhead_ratio": med("interpose", "wall_ns_per_op")
        / med("interpose.untraced", "wall_ns_per_op"),
    })

    # The layers' self costs telescope to the shim tier's cost; the check
    # that makes the subtraction meaningful is that every tier replayed the
    # same stream (same op count, same oracle checksum), verified above.
    total = sum(m[n] for n in ("RandomizedPartition.ns_per_op",
                               "DieHardHeap.self_ns_per_op",
                               "ShardedHeap.self_ns_per_op",
                               "ThreadCache.self_ns_per_op",
                               "interpose.self_ns_per_op"))
    if abs(total - cost["interpose"]) > 1e-6 * max(1.0, cost["interpose"]):
        problems.append("layer costs do not add up to the shim tier")

    print("ledger %s: seed %d, %d reps per tier, single-thread stream of %d "
          "ops" % (workload, seed, LEDGER_REPS, by_tier["DieHardHeap"][0]
                   ["ops"]))
    print("  timer cost %.1f ns (subtracted from every span)" %
          by_tier["timer"][0]["timer_ns"])
    for t in single:
        print("  tier %-20s %8.1f ns/op (traced spans)" % (t, cost[t]))
    print("  layers add up: %.1f ns/op = shim tier %.1f ns/op" %
          (total, cost["interpose"]))
    print("  untraced shim %.1f ns/op wall, traced %.1f: overhead ratio %.3f" %
          (med("interpose.untraced", "wall_ns_per_op"),
           med("interpose", "wall_ns_per_op"), m["trace.overhead_ratio"]))
    print("  probes/alloc %.4f, analytic 1/(1-f) %.4f" % (
        m["RandomizedPartition.probes_per_alloc"],
        m["RandomizedPartition.probes_analytic"]))
    metrics = {}
    table = os.path.join(out_dir, "ledger.tsv")
    with open(table, "w") as f:
        f.write("metric\tvalue\tunit\n")
        for name, unit in PER_LAYER:
            metrics[name] = {"value": m[name], "unit": unit}
            f.write("%s\t%.6g\t%s\n" % (name, m[name], unit))
            print("  %-36s %14.6g %s" % (name, m[name], unit))
    print("  spans: %s; table: %s" % (os.path.relpath(spans, ROOT),
                                      os.path.relpath(table, ROOT)))
    for p in problems:
        print("  FAILED " + p)
    return not problems, res["ops"], len(problems), metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bins = build()
        if args.trace:
            correct, attempted, failed, metrics = run_ledger(
                bins, args.workload, args.seed)
        else:
            correct, attempted, failed, metrics = run_end_to_end(
                bins, args.workload, args.seed, args.seconds)
    except (BenchError, OSError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
