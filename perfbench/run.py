#!/usr/bin/env python3
"""perfbench: the reproduction's benchmark, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures-all --seed 2026 --seconds 55 --trace 0

It builds the `repro` binary and the per-layer probe (`perfbench/probe`)
in release mode, then drives `repro`'s own entry points as closed-loop
batch jobs, one repetition after another, from this single process:

  figures-all  `repro all --n 12 --csv DIR`: every table and figure plus
               the QoE table (the only workload where the session cache
               serves hits). Its work and peak memory vary with the seed
               (see ROTATION), so untraced runs take eight consecutive
               seeds starting at the workload seed, one per repetition.
  qoe-lrd      `repro ext-qoe --n 12 --csv DIR` at four consecutive seeds
               starting at the workload seed: DASH under LRD cross-traffic,
               loss recovery and cross-traffic events dominate; the cache
               stores every session and serves none.

`repro campaign` is not a workload: its cross-validation gate fails (exit
1) at some seeds, and a workload must not fail. The traced run still
times `run_campaign` through the probe.

Every process runs with `--jobs` equal to the usable core count and
without the program's `VSTREAM_*` environment switches (`VSTREAM_WALL=off`
would zero the ledger's timings, `VSTREAM_QUEUE` changes the event queue).

`--trace 0` (untraced: no `--metrics`, `--progress` or `--trace-dir`)
repeats the workload until `--seconds` are used (at least three times, and
in whole rounds of seeds for figures-all) and reports the medians of the
end-to-end metrics:

  wall_s       spawn to exit of one repetition;
  cpu_s        user + sys CPU of its processes (kernel rusage);
  peak_rss_mb  kernel high-water resident set of its largest process;
  setup_s      spawn to the first `==>` header, the median over every
               process spawned, plus extra spawns stopped at that header
               before each repetition (so the samples span the run).

`--trace 1` runs the probe, then alternates untraced and `--metrics`
repetitions at the workload seed (at least two of each) until `--seconds`
are used. It checks that every metered ledger gives the same
deterministic work counts (sessions, events, packets, segments) and
reports the `per_layer` metrics of BENCHMARK.json; the tracing overhead
is the median ratio of each metered repetition's wall time to the
untraced one just before it, so host drift between minutes cancels.
Layers a workload does not run report 0 there.

Every repetition's outputs are checked: each CSV and the normalised
stdout, against the SHA-256 digests in `perfbench/refs.json`. A process
that exits nonzero fails all its outputs. Each output must also have the
recorded shape (a CSV's header and row widths, stdout's title lines),
which is the same at every seed. At a seed with no recorded content
digest the outputs must instead repeat wherever the seed repeats within
the run. `failed_frac` (failed / checked) is printed with the metrics; the
last line of stdout is the JSON result
`{"correct", "attempted", "failed", "metrics"}`.

`--record-refs SEEDS` (e.g. `2026-2033,0-63`) runs `repro all` and
`repro ext-qoe` once per listed program seed, checks that every seed
shares one shape and that seeds recorded before still give their digests,
and records the new ones in refs.json. When a change alters the program's
output on purpose, delete the entries and record them again.
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("figures-all", "qoe-lrd")
DEFAULT_SEED = 2026
QOE_SEEDS = 4
# `repro all`'s work and peak memory depend on its seed (between quartiles
# of seeds 1-10: events 8%, peak RSS 18%, against a bound of 24%; see
# `figures_all_per_seed` in baseline.json), so untraced runs of figures-all
# rotate through this many consecutive seeds, in whole rounds, to keep that
# out of the spread between workload seeds.
ROTATION = {"figures-all": 8}
MIN_REPS = 3
SETUP_SPAWNS = 10  # extra setup samples before each untraced repetition
# A process still running PROC_TIMEOUT_S after its spawn, or at the run's
# deadline RUN_LIMIT_S after measuring began, is killed and its outputs
# count as failed; no repetition starts that would end past MEASURE_CAP_S.
# So a run ends inside 180 s even on a slow host.
PROC_TIMEOUT_S = 60
MEASURE_CAP_S = 100
RUN_LIMIT_S = 150
deadline = float("inf")
# Ledger counters that are pure functions of the code and seed.
WORK_COUNTS = ("sim_sessions", "sim_events_scheduled",
               "net_packets_delivered", "tcp_data_segments_sent")


def fail(msg, code=2):
    print(f"perfbench: error: {msg}", file=sys.stderr)
    sys.exit(code)


def jobs():
    return len(os.sched_getaffinity(0))


# The environment of every measured process: the caller's, without the
# program's own switches.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("VSTREAM_")}


# --------------------------------------------------------------- build ---

def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Builds `repro` and the probe; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml / crates/bench)")
    if shutil.which("cargo") is None:
        fail("cargo not found")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "repro"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", str(BENCH / "probe" / "Cargo.toml")]):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), code=1)
    rel = target_dir() / "release"
    return rel / "repro", rel / "perfbench-probe"


# ----------------------------------------------------------- processes ---

class Proc:
    """One `repro` invocation: its command, output directory and the
    reference kind/seed its outputs are checked against."""

    def __init__(self, argv, out, kind, seed):
        self.argv, self.out, self.kind, self.seed = argv, out, kind, seed


def plan(workload, repro, seed, out, metrics=False):
    """The processes of one repetition of `workload`."""
    j = str(jobs())
    if workload == "figures-all":
        specs = [(["all", "--n", "12"], "figures-all", seed)]
    else:
        specs = [(["ext-qoe", "--n", "12"], "ext-qoe", seed + k) for k in range(QOE_SEEDS)]
    procs = []
    for k, (args, kind, s) in enumerate(specs):
        d = out / f"p{k}"
        argv = [str(repro)] + args + ["--seed", str(s), "--jobs", j, "--csv", str(d)]
        if metrics:
            argv += ["--metrics", str(out / f"ledger{k}.json")]
        procs.append(Proc(argv, d, kind, s))
    return procs


def spawn(argv, stop_at_header=False):
    """Runs one process to exit (or kills it at its first `==>` header);
    returns (wall_s, cpu_s, maxrss_kb, setup_s, stdout_bytes, exit_code).

    Single-threaded on purpose: a helper thread (e.g. a timeout timer)
    starting while the child prints its header can hold the interpreter
    lock for milliseconds and inflate the measured setup time. Kills go
    through `os.kill`, not `Popen.kill`, which may reap the child first
    and leave `wait4` without its rusage."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    fd = p.stdout.fileno()
    setup, out = None, b""
    try:
        while True:
            left = min(t0 + PROC_TIMEOUT_S, deadline) - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                os.kill(p.pid, signal.SIGKILL)
                break
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup is None and (out.startswith(b"==>") or b"\n==>" in out):
                setup = time.perf_counter() - t0
                if stop_at_header:
                    os.kill(p.pid, signal.SIGKILL)
                    break
    finally:
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, setup, out, p.returncode


NUMBER = re.compile(rb"\d+(?:\.\d+)?")


def shape(name, content):
    """What an output looks like at every seed: a CSV's header and the set
    of field counts of its rows; stdout's `==>` and `[figure]` title lines,
    in order, each number replaced by 0. It checks outputs at seeds without
    a recorded reference: a missing figure or a changed column changes it."""
    lines = content.splitlines()
    if name.endswith(".csv"):
        forms = lines[:1] + sorted({b"%d" % len(line.split(b",")) for line in lines[1:]})
    else:
        forms = [NUMBER.sub(b"0", line) for line in lines if line.startswith((b"==>", b"["))]
    return b"\n".join(forms)


def digests(proc, stdout):
    """(content digest, shape digest) of every output of one process, keyed
    by output name; each digest is the first 64 bits of a SHA-256, in hex."""
    out = {"stdout": stdout.replace(str(proc.out).encode(), b"<out>")}
    if proc.out.is_dir():
        for f in sorted(proc.out.iterdir()):
            out[f.name] = f.read_bytes()
    sha = lambda b: hashlib.sha256(b).hexdigest()[:16]
    return {k: (sha(v), sha(shape(k, v))) for k, v in out.items()}


# ------------------------------------------------------------- checking ---

class Checker:
    """Counts checked and failed outputs across a run's repetitions."""

    def __init__(self, refs):
        self.refs = refs
        self.first = {}  # (kind, seed) -> digests of the first repetition
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.unreferenced = []

    def expected(self, kind, seed):
        """The content digests `kind` must produce at `seed` (None where any
        content passes), whether they are recorded references, and the
        shape digests it must produce at every seed."""
        if kind not in self.refs:
            fail(f"refs.json has no outputs for {kind}; record them first", code=1)
        names, recorded = self.refs[kind]["names"], self.refs[kind]["seeds"]
        shapes = dict(zip(names, self.refs[kind]["shapes"].split()))
        if str(seed) in recorded:
            return dict(zip(names, recorded[str(seed)].split())), True, shapes
        # Unreferenced seed: the output names and shapes do not depend on
        # the seed, the contents must repeat across this run's repetitions.
        return self.first.get((kind, seed), dict.fromkeys(names)), False, shapes

    def check(self, proc, got, exit_code):
        want, referenced, shapes = self.expected(proc.kind, proc.seed)
        if not referenced and (proc.kind, proc.seed) not in self.first:
            self.unreferenced.append(f"{proc.kind} {proc.seed}")
            if exit_code == 0:
                self.first[(proc.kind, proc.seed)] = {k: v[0] for k, v in got.items()}
        bad = [name for name, digest in want.items()
               if exit_code != 0 or name not in got or got[name][1] != shapes[name]
               or (digest is not None and got[name][0] != digest)]
        self.attempted += len(want)
        self.failed += len(bad)
        if bad:
            self.notes.append(f"{proc.kind} seed {proc.seed}: exit {exit_code}, "
                              f"failed outputs: {', '.join(bad[:6])}"
                              + (" ..." if len(bad) > 6 else ""))


# ---------------------------------------------------------- repetition ---

class Rep:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_mb = 0.0
        self.setups = []
        self.ledgers = []


def run_rep(workload, repro, seed, tmp, checker, metrics=False):
    out = tmp / "rep"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rep = Rep()
    for k, proc in enumerate(plan(workload, repro, seed, out, metrics)):
        wall, cpu, rss_kb, setup, stdout, code = spawn(proc.argv)
        rep.wall += wall
        rep.cpu += cpu
        rep.rss_mb = max(rep.rss_mb, rss_kb * 1024 / 1e6)
        if setup is not None:
            rep.setups.append(setup)
        checker.check(proc, digests(proc, stdout), code)
        if metrics:
            ledger = out / f"ledger{k}.json"
            rep.ledgers.append(json.loads(ledger.read_text()) if ledger.is_file() else None)
    shutil.rmtree(out, ignore_errors=True)
    return rep


def setup_spawns(workload, repro, seed, tmp, n):
    """Setup times of `n` extra spawns of the workload's first process,
    each stopped at its first `==>` header."""
    out = []
    for i in range(n):
        d = tmp / f"setup{i}"
        proc = plan(workload, repro, seed, d)[0]
        setup = spawn(proc.argv, stop_at_header=True)[3]
        shutil.rmtree(d, ignore_errors=True)
        if setup is not None:
            out.append(setup)
    return out


def reps_until(started, seconds, reps, run, rounds_of=1):
    """Appends repetitions `run(i)` until `MIN_REPS` are done and another
    round of `rounds_of` would overrun `seconds` since `started`."""
    while True:
        elapsed = time.perf_counter() - started
        per = statistics.mean(r.wall for r in reps) if reps else 0.0
        if len(reps) % rounds_of == 0 and (
                elapsed + per * rounds_of > MEASURE_CAP_S
                or (len(reps) >= MIN_REPS and elapsed + per * rounds_of > seconds)):
            return reps
        reps.append(run(len(reps)))


# -------------------------------------------------------------- metrics ---

def median(xs):
    return statistics.median(xs) if xs else 0.0


def merge_ledgers(ledgers):
    """Sums counters, maxes gauges and sums spans by figure id across the
    processes of one repetition."""
    counters, gauges, spans = {}, {}, {}
    for led in ledgers:
        for k, v in led["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in led["gauges"].items():
            gauges[k] = max(gauges.get(k, 0), v)
        for s in led["spans"]:
            acc = spans.setdefault(s["name"], {"events": 0, "sessions": 0, "wall_ns": 0})
            for key in acc:
                acc[key] += s[key]
    return counters, gauges, spans


def work_counts(rep):
    """The deterministic work counts of one metered repetition."""
    if not rep.ledgers or None in rep.ledgers:
        return None
    counters = merge_ledgers(rep.ledgers)[0]
    return tuple(counters[k] for k in WORK_COUNTS)


def frac(a, b):
    return a / b if b else 0.0


def layer_metrics(names, baseline, traced, probe):
    """The per-layer values, from two traced ledgers, the untraced
    baseline repetitions and the probe's report."""
    c, g, _ = merge_ledgers(traced[0].ledgers)
    span_sets = [merge_ledgers(r.ledgers)[2] for r in traced]
    wall = median([r.wall for r in baseline])
    cpu = median([r.cpu for r in baseline])
    events = c["sim_events_scheduled"]
    drops = c["net_queue_drops"] + c["net_random_drops"]
    lookups = c["cache_hits"] + c["cache_misses"]
    v = {
        "sim.events": events,
        "sim.spill_frac": frac(c["sim_wheel_spill_pushes"], events),
        "sim.queue_peak_len": g["sim_queue_peak_len"],
        "exec.sessions": c["sim_sessions"] - c["cache_hits"],
        "exec.cpu_util": frac(cpu, wall * jobs()),
        "engine.cpu_ns_per_event": frac(cpu * 1e9, events),
        "net.packets": c["net_packets_delivered"],
        "net.drop_frac": frac(drops, c["net_packets_delivered"] + drops),
        "net.down_backlog_hwm_kb": g["net_down_backlog_hwm_bytes"] / 1e3,
        "tcp.data_segments": c["tcp_data_segments_sent"],
        "tcp.retx_frac": frac(c["tcp_retx_segments"],
                               c["tcp_data_segments_sent"] + c["tcp_retx_segments"]),
        "tcp.rto_fires": c["tcp_rto_fires"],
        "app.blocks": c["app_blocks"],
        "app.stalls": c["app_player_stalls"],
        "capture.packets": c["capture_packets"],
        "capture.peak_trace_mb": g["peak_trace_bytes"] / 1e6,
        "cache.lookups": lookups,
        "cache.hit_frac": frac(c["cache_hits"], lookups),
        "cache.retained_mb": c["cache_bytes_retained"] / 1e6,
        "analysis.peak_flowstate_kb": g["peak_flowstate_bytes"] / 1e3,
        "obs.trace_overhead_frac": median([t.wall / b.wall
                                           for b, t in zip(baseline, traced)]) - 1.0,
    }
    v.update(probe)
    for name in names:
        parts = name.split(".")
        if parts[0] != "figures" or len(parts) != 3:
            continue
        fig, kind = parts[1], parts[2]
        wall_ns = median([s[fig]["wall_ns"] for s in span_sets if fig in s])
        ev = span_sets[0].get(fig, {}).get("events", 0)
        v[name] = wall_ns / 1e6 if kind == "ms" else frac(wall_ns, ev)
    ran = set(span_sets[0])
    unknown = ran - {n.split(".")[1] for n in names if n.startswith("figures.")}
    return v, sorted(unknown)


def run_probe(probe, seed, tmp):
    ledger = tmp / "campaign-ledger"
    shutil.rmtree(ledger, ignore_errors=True)
    ledger.mkdir(parents=True)
    argv = [str(probe), "--seed", str(seed), "--jobs", str(jobs()),
            "--campaign-ledger", str(ledger)]
    try:
        r = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                           timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None
    if r.returncode != 0:
        return None
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


# ----------------------------------------------------------------- main ---

def load_spec():
    spec = json.loads(SPEC.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def show(name, value, unit, extra=""):
    print(f"  {name:<34} {value:>14.6g} {unit:<8} {extra}")


def spread_note(xs):
    """Sample count, the highest of p75/p90/p95/p99 that has at least ten
    samples beyond it, and the extremes."""
    parts = [f"n={len(xs)}"]
    q = next((q for q in (99, 95, 90, 75) if len(xs) * (100 - q) >= 1000), None)
    if q:
        parts.append(f"p{q} {statistics.quantiles(xs, n=100)[q - 1]:.4g}")
    return f"({', '.join(parts)}, min {min(xs):.4g}, max {max(xs):.4g})"


def measure(args, repro, probe, tmp):
    e2e_units, layer_units = load_spec()
    refs = json.loads(REFS.read_text()).get("outputs", {})
    checker = Checker(refs)
    seed, workload = args.seed, args.workload
    rotation = ROTATION.get(workload, 1)
    rep = lambda i=0, metrics=False: run_rep(workload, repro, seed + i % rotation, tmp,
                                             checker, metrics)
    print(f"perfbench {workload} seed {seed} jobs {jobs()} "
          f"{'traced' if args.trace else 'untraced'} ({args.seconds} s)")
    started = time.perf_counter()
    correct = True
    if not args.trace:
        setups = []

        def sampled_rep(i):
            setups.extend(setup_spawns(workload, repro, seed + i % rotation, tmp,
                                       SETUP_SPAWNS))
            return rep(i)

        reps = reps_until(started, args.seconds, [], sampled_rep, rotation)
        samples = {
            "wall_s": [r.wall for r in reps],
            "cpu_s": [r.cpu for r in reps],
            "peak_rss_mb": [r.rss_mb for r in reps],
            "setup_s": setups + [s for r in reps for s in r.setups],
        }
        seeds = f"seeds {seed}..{seed + rotation - 1}" if rotation > 1 else f"seed {seed}"
        print(f"  {len(reps)} repetitions at {seeds}; medians:")
        metrics = {}
        for name, unit in e2e_units.items():
            xs = samples[name]
            metrics[name] = {"value": median(xs), "unit": unit}
            show(name, median(xs), unit, spread_note(xs))
    else:
        probe_values = run_probe(probe, seed, tmp)
        reps = reps_until(started, args.seconds, [],
                          lambda i: rep(metrics=i % 2 == 1), rounds_of=2)
        baseline, traced = reps[0::2], reps[1::2]
        counts = [work_counts(r) for r in traced]
        if probe_values is None or len(counts) < 2 or None in counts:
            correct = False
            print("  the probe or a metered run failed")
        elif len(set(counts)) != 1:
            correct = False
            print(f"  work counts differ between the traced runs: {counts}")
        else:
            print(f"  work counts (equal in all {len(traced)} traced runs): "
                  + ", ".join(f"{k} {v}" for k, v in zip(WORK_COUNTS, counts[0])))
        values = {}
        if correct:
            values, unknown = layer_metrics(layer_units, baseline, traced, probe_values)
            if unknown:
                print(f"  figure ids without a per-layer metric: {', '.join(unknown)}")
        print(f"  {len(baseline)} untraced + {len(traced)} traced repetitions:")
        metrics = {}
        for name, unit in layer_units.items():
            value = float(values.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            show(name, value, unit)
    if checker.unreferenced:
        print("  note: no recorded reference at " + ", ".join(checker.unreferenced)
              + "; checking shape and repeatability only")
    for note in dict.fromkeys(checker.notes):
        print(f"  note: {note}")
    ff = frac(checker.failed, checker.attempted)
    print(f"  {'failed_frac':<34} {ff:>14.6g} fraction "
          f"({checker.failed}/{checker.attempted} checked outputs)")
    return {"correct": correct and checker.failed == 0 and checker.attempted > 0,
            "attempted": checker.attempted, "failed": checker.failed, "metrics": metrics}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_refs(seeds, repro, tmp):
    """Runs each workload's first process once per program seed and records
    its output digests, and the shape digests, which every seed must share.
    A seed recorded before must reproduce its digests; to record an
    intended change of output, delete the seeds' entries first."""
    doc = json.loads(REFS.read_text()) if REFS.is_file() else {}
    outputs = doc.setdefault("outputs", {})
    for workload in WORKLOADS:
        for seed in seeds:
            proc = plan(workload, repro, seed, tmp / "record")[0]
            stdout, code = spawn(proc.argv)[4:]
            got = digests(proc, stdout)
            shutil.rmtree(tmp / "record", ignore_errors=True)
            names = sorted(got)
            content = " ".join(got[n][0] for n in names)
            shapes = " ".join(got[n][1] for n in names)
            entry = outputs.setdefault(proc.kind, {"names": names, "seeds": {}})
            if names != entry["names"]:
                fail(f"{proc.kind} seed {seed} wrote {names}, other seeds {entry['names']}",
                     code=1)
            if entry.setdefault("shapes", shapes) != shapes:
                fail(f"{proc.kind} seed {seed}: outputs differ in shape from other seeds'",
                     code=1)
            if entry["seeds"].setdefault(str(seed), content) != content:
                fail(f"{proc.kind} seed {seed} no longer reproduces its recorded outputs",
                     code=1)
            print(f"recorded {proc.kind} seed {seed}"
                  + (f" (exit {code}: its outputs will count as failed)" if code else ""),
                  file=sys.stderr)
    for kind in sorted(outputs):
        entry = outputs.pop(kind)
        outputs[kind] = {"names": entry["names"], "shapes": entry["shapes"],
                         "seeds": dict(sorted(entry["seeds"].items(),
                                              key=lambda kv: int(kv[0])))}
    REFS.write_text(json.dumps(doc, indent=1) + "\n")


def main():
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-refs", metavar="SEEDS")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if args.workload is None and args.record_refs is None:
        ap.error("--workload is required")
    if not SPEC.is_file():
        fail(f"{SPEC} missing")
    repro, probe = build()
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_refs:
            record_refs(parse_seeds(args.record_refs), repro, tmp)
            return
        deadline = time.perf_counter() + RUN_LIMIT_S
        result = measure(args, repro, probe, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
