#!/usr/bin/env python3
"""Host-time benchmark of whole DI-GRUBER runs (see hostbench/README.md).

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --selftest [--seed N]

Run from the repository root.  Builds hostbench-plain and hostbench-traced
from source into .bench_build/hostbench, then runs the workload's scenario
for each of the workload's seeds derived from N, one process per
repetition, and keeps cycling through them until S seconds have gone by:

  --trace 0  untraced repetitions; prints the end-to-end metrics;
  --trace 1  an untraced and a traced repetition per seed; prints the
             per-layer metrics (medians over the traced repetitions).

Every repetition is checked for correctness and must reproduce its seed's
simulated fingerprint; a violation, a crash or a hang is a failed
operation.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "hostbench")
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 150      # a whole run must end well inside 180 s
REP_TIMEOUT_S = 60      # one repetition; a hang is a failure, not a stall
REP_MEMORY_BYTES = 3 << 30

# Each workload is a digruber-run configuration run for `minutes` of
# simulated time.  A run cycles through `seeds` scenarios whose seeds are
# derived from --seed; the simulated guards average over them, since one
# scenario's accuracy or tail latency swings widely from seed to seed (most
# on the 30-site grid, whose sites are drawn afresh for every seed).
WORKLOADS = {
    "paper-10x": {
        "minutes": 10,
        "seeds": 16,
        "config": ["dps=10"],
    },
    "osg-100x": {
        "minutes": 10,
        "seeds": 4,
        "config": ["dps=10", "grid_scale=100"],
    },
    "gossip-durable": {
        "minutes": 6,
        "seeds": 20,
        # A 1-minute exchange and 2-minute checkpoints bring the write
        # path an hour-long run settles into (round-gap catch-up after the
        # third round, checkpoints) inside six simulated minutes.
        "config": ["dps=20", "overlay=gossip", "grid_scale=1", "durability=true",
                   "allocator=karma", "request_ids=true", "checksums=true",
                   "exchange_minutes=1", "checkpoint_minutes=2"],
    },
}
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
    ("sim_response_p50_s", "s"),
    ("sim_response_p99_s", "s"),
    ("placed_frac", "ratio"),
    ("accuracy", "ratio"),
]
SPANS = [
    "gruber.candidates", "gruber.select", "gruber.view_read", "gruber.view_write",
    "usla.eval", "net.crc32c", "net.transport_send", "net.container_submit",
    "digruber.serve", "sim.schedule", "durable.append", "durable.checkpoint",
    "economy.admit", "economy.charge",
]
# Counters the binary reports as they are (name -> unit).
COUNTERS = [
    ("sim.events", "count"),
    ("net.crc32c.bytes", "B"),
    ("digruber.records_applied", "count"),
    ("digruber.dup_frac", "ratio"),
    ("digruber.catchup_records", "count"),
    ("overlay.bytes_sent", "B"),
    ("overlay.rounds", "count"),
    ("wire.encodes", "count"),
    ("wire.encode_bytes", "B"),
    ("durable.appends_per_fsync", "ratio"),
    ("gruber.view_digest.calls", "count"),
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and build both binaries; None if the build fails."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("hostbench: run from the repository root (src/ not found)")
        return None
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"hostbench: build failed: {e}")
            return None
        if done.returncode != 0:
            log(f"hostbench: build step failed: {' '.join(cmd)}")
            return None
    return {v: os.path.join(BUILD_DIR, f"hostbench-{v}") for v in ("plain", "traced")}


ADDR_NO_RANDOMIZE = 0x0040000


def child_setup():
    """Cap the repetition's memory, and give every repetition the same
    address-space layout so layout luck does not add to the spread."""
    resource.setrlimit(resource.RLIMIT_AS, (REP_MEMORY_BYTES, REP_MEMORY_BYTES))
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_rep(binary, workload, seed, minutes, timeout):
    """One scenario in its own process: (result dict, None) or (None, why)."""
    cmd = [binary, f"seed={seed}", f"duration_minutes={minutes}",
           f"name={workload}"] + WORKLOADS[workload]["config"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, preexec_fn=child_setup)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-300:]}"
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unparseable output"
    if result["violations"]:
        return None, "; ".join(result["violations"])
    return result, None


def subseeds(seed, count):
    """`count` scenario seeds for benchmark seed `seed`; disjoint across
    benchmark seeds."""
    return [seed * 64 + i + 1 for i in range(count)]


class Repetitions:
    """Repetitions of one workload over a set of seeds, with failure
    accounting and the determinism guard: a seed must reproduce its
    simulated fingerprint in every repetition, traced or not, and no two
    seeds may share one."""

    def __init__(self, binaries, workload, seeds, minutes):
        self.binaries = binaries
        self.workload = workload
        self.seeds = seeds
        self.minutes = minutes
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.fingerprints = {}  # seed -> fingerprint
        self.results = {"plain": [], "traced": []}
        self.pairs = []  # (plain, traced) repetitions of one seed, back to back

    def remaining(self):
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def fail(self, why):
        self.failed += 1
        log(f"hostbench: {self.workload}: {why}")

    def rep(self, variant, seed):
        self.attempted += 1
        timeout = min(REP_TIMEOUT_S, max(1.0, self.remaining()))
        result, why = run_rep(self.binaries[variant], self.workload, seed,
                              self.minutes, timeout)
        if result is not None:
            known = self.fingerprints.setdefault(seed, result["fingerprint"])
            if known != result["fingerprint"]:
                result, why = None, "simulated fingerprint differs between repetitions"
            elif list(self.fingerprints.values()).count(known) > 1:
                result, why = None, "two seeds give the same simulated fingerprint"
        if result is None:
            self.fail(f"seed {seed} {variant}: {why}")
            return None
        result["seed"] = seed
        log(f"hostbench: {self.workload} seed {seed} {variant}: wall "
            f"{result['wall_s']:.4f} s, set-up {result['setup_s'] * 1e3:.3f} ms")
        self.results[variant].append(result)
        return result

    def measure(self, seconds, variants):
        """Every seed once under each variant, then more passes until
        `seconds` have gone by."""
        longest = 0.0
        first_pass = True
        while True:
            for seed in self.seeds:
                if self.remaining() < 1.5 * longest or self.failed > len(self.seeds):
                    if first_pass:
                        self.fail("time budget spent before every seed ran")
                    return
                t = time.monotonic()
                got = [self.rep(v, seed) for v in variants]
                if len(got) == 2 and None not in got:
                    self.pairs.append(tuple(got))
                longest = max(longest, time.monotonic() - t)
                if not first_pass and time.monotonic() - self.started >= seconds:
                    return
            first_pass = False
            if time.monotonic() - self.started >= seconds:
                return


def median(results, key):
    values = [r[key] for r in results]
    return statistics.median(values) if values else 0.0


GUARDS = {"sim_response_p50_s", "sim_response_p99_s", "placed_frac", "accuracy"}


def end_to_end(plain):
    """Host metrics: medians over every repetition.  Simulated guards: the
    mean over seeds, one repetition each (they repeat exactly)."""
    first = {}
    for r in plain:
        r["queries_per_s"] = r["queries"] / r["wall_s"] if r["wall_s"] > 0 else 0.0
        first.setdefault(r["seed"], r)
    m = {}
    for name, unit in END_TO_END:
        if name in GUARDS:
            values = [r[name] for r in first.values()]
            m[name] = (statistics.fmean(values) if values else 0.0, unit)
        else:
            m[name] = (median(plain, name), unit)
    return m


def per_layer(traced, pairs):
    def span_median(span, field):
        return statistics.median(r["spans"][span][field] for r in traced) if traced else 0.0

    def counter(name):
        return median([r["counters"] for r in traced], name)

    m = {}
    for span in SPANS:
        m[f"{span}.calls"] = (span_median(span, "calls"), "count")
        m[f"{span}.self_s"] = (span_median(span, "self_s"), "s")
        m[f"{span}.call_us_p50"] = (span_median(span, "call_us_p50"), "us")
        m[f"{span}.call_us_p99"] = (span_median(span, "call_us_p99"), "us")
    m["gruber.candidates.incl_s"] = (span_median("gruber.candidates", "incl_s"), "s")
    calls = span_median("gruber.candidates", "calls")
    scored = counter("gruber.sites_scored")
    m["gruber.sites_per_candidates"] = (scored / calls if calls else 0.0, "count")
    m["gruber.kept_frac"] = (counter("gruber.candidates_kept") / scored
                             if scored else 0.0, "ratio")
    for name, unit in COUNTERS:
        m[name] = (counter(name), unit)
    # Attribution, per traced repetition: self time of every layer span
    # against the traced run's wall time (the kernel's own span excluded).
    unattributed, fractions = [], []
    for r in traced:
        attributed = sum(s["self_s"] for s in r["spans"].values() if not s["kernel"])
        unattributed.append(r["wall_s"] - attributed)
        fractions.append(attributed / r["wall_s"] if r["wall_s"] > 0 else 0.0)
    m["unattributed_s"] = (statistics.median(unattributed) if traced else 0.0, "s")
    m["attributed_frac"] = (statistics.median(fractions) if traced else 0.0, "ratio")
    # Tracing overhead, paired: each traced repetition against the untraced
    # repetition of the same seed just before it.
    overhead = [t["wall_s"] / p["wall_s"] - 1.0 for p, t in pairs if p["wall_s"] > 0]
    m["trace_overhead_frac"] = (statistics.median(overhead) if overhead else 0.0, "ratio")
    return m


def emit(reps, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    correct = reps.failed == 0 and reps.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def selftest(binaries, seed):
    """Checks of the benchmark itself; returns the number of failed checks."""
    failures = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    layers = {}
    for workload, spec in WORKLOADS.items():
        s = Repetitions(binaries, workload, subseeds(seed, 2), spec["minutes"])
        s.measure(0, ["plain", "traced"])
        check(s.failed == 0, f"{workload}: every repetition correct; traced and "
                             f"untraced fingerprints equal per seed, distinct across seeds")
        layers[workload] = lm = per_layer(s.results["traced"], s.pairs)
        log(f"     {workload}: trace_overhead_frac {lm['trace_overhead_frac'][0]:.3f}, "
            f"attributed_frac {lm['attributed_frac'][0]:.3f}, "
            f"GridView::digest calls {lm['gruber.view_digest.calls'][0]:.0f}")

    check(layers["paper-10x"]["attributed_frac"][0] >= 0.8,
          "paper-10x: attributed_frac >= 0.8")
    write_path = ("net.crc32c.calls", "durable.append.calls",
                  "durable.checkpoint.calls", "economy.admit.calls",
                  "digruber.catchup_records")
    for workload in ("paper-10x", "osg-100x"):
        for name in write_path:
            check(layers[workload][name][0] == 0, f"{workload}: {name} == 0 (bypassed)")
    for name in write_path:
        check(layers["gossip-durable"][name][0] > 0, f"gossip-durable: {name} > 0")

    # Sensitivity: twice the simulated time must cost more host time and
    # more kernel events and candidate scorings.
    workload = "paper-10x"
    minutes = WORKLOADS[workload]["minutes"]
    runs = {}
    for scale in (1, 2):
        s = Repetitions(binaries, workload, subseeds(seed, 1), minutes * scale)
        s.measure(0, ["plain", "traced"])
        runs[scale] = (end_to_end(s.results["plain"]), per_layer(s.results["traced"], s.pairs))
    for name, table in (("wall_s", 0), ("sim.events", 1),
                        ("gruber.candidates.calls", 1)):
        a, b = runs[1][table][name][0], runs[2][table][name][0]
        check(b > a, f"{workload}: {name} grows with doubled duration "
                     f"({a:.6g} -> {b:.6g}, x{b / a if a else 0:.2f})")
    log(f"selftest: {len(failures)} failure(s)")
    return len(failures)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the benchmark itself instead of measuring")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    binaries = build()
    if binaries is None:
        return 2
    if args.selftest:
        return 1 if selftest(binaries, args.seed) else 0

    spec = WORKLOADS[args.workload]
    reps = Repetitions(binaries, args.workload, subseeds(args.seed, spec["seeds"]),
                      spec["minutes"])
    if args.trace:
        reps.measure(args.seconds, ["plain", "traced"])
        metrics = per_layer(reps.results["traced"], reps.pairs)
    else:
        reps.measure(args.seconds, ["plain"])
        metrics = end_to_end(reps.results["plain"])
    emit(reps, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
