#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload fleet_homog --seed 1 --seconds 20 --trace 0

Builds the `perfbench` harness (a Cargo package of its own that links
the repository's crates by path), runs the workload's phases as child
processes, each under a deadline, checks the program's outputs against
its oracles, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FLEETS = ("fleet_homog", "fleet_diverse")
WORKLOADS = FLEETS + ("serve_mixed", "paper_sweep")

# Deadlines, in seconds: (longest silence between two output lines,
# whole phase). A phase past either is killed and counted as a hang.
# The phases of one run stay within 180 s even when every one is killed.
SHORT = (30, 45)
TRACE = (90, 100)
PROBE = (15, 20)
WIDE_PROBE = (3, 4)


def build():
    """Builds the harness; returns its path, or exits 1 without a result."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "greenhetero-perfbench")


class Phase:
    """The JSON lines one child process printed, and how it ended."""

    def __init__(self, lines, killed, code):
        self.lines = lines
        self.killed = killed
        self.ok = code == 0 and not killed

    def of(self, kind):
        return [line for line in self.lines if line.get("kind") == kind]

    def one(self, kind):
        found = self.of(kind)
        return found[-1] if found else None


def run_phase(binary, phase, workload, seed, seconds, deadline):
    """Runs one phase, reading its lines as they come, and kills it (and
    waits for it) when it falls silent or overruns its deadline."""
    idle, total = deadline
    env = dict(os.environ)
    # Pool widths are the harness's: one worker in the timed windows,
    # nproc outside them.
    env.pop("GH_SIM_THREADS", None)
    args = [binary, phase, workload, "--seed", str(seed), "--seconds", repr(seconds)]
    proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    fd = proc.stdout.fileno()
    lines, buf, killed = [], b"", False
    start = last = time.monotonic()
    while True:
        wait = min(last + idle, start + total) - time.monotonic()
        if wait <= 0:
            proc.kill()
            killed = True
            break
        ready, _, _ = select.select([fd], [], [], wait)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        last = time.monotonic()
        buf += chunk
        while b"\n" in buf:
            raw, buf = buf.split(b"\n", 1)
            try:
                lines.append(json.loads(raw))
            except ValueError:
                pass
    code = proc.wait()
    proc.stdout.close()
    return Phase(lines, killed, code)


def ratio(a, b):
    return a / b if b else 0.0


class Bench:
    def __init__(self, binary, workload, seed, seconds):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.complete = True
        self.hangs = 0

    def phase(self, name, deadline, workload=None):
        done = run_phase(
            self.binary, name, workload or self.workload, self.seed, self.seconds, deadline
        )
        if done.killed:
            self.hangs += 1
        if not done.ok:
            self.complete = False
        return done

    def count(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    # -- end-to-end --------------------------------------------------------

    def steady_rate(self, reps):
        """Work per second over the timed reps, without the first rep
        when there are more: it pays for cold caches and a cold heap.
        Each rep is rescaled to the reference pace taken beside it. The
        upper quartile, not the median: the shared host only ever slows
        a rep down, by up to 40% for seconds at a time and more than the
        pace shows, so the faster reps are the program's own speed."""
        steady = reps[1:] if len(reps) > 1 else reps
        rates = [r["ops"] / r["wall_s"] / r["pace"] for r in steady]
        if len(rates) < 2:
            return rates[0] if rates else 0.0
        return statistics.quantiles(rates, n=4, method="inclusive")[2]

    def end_to_end(self):
        setup = self.phase("setup", SHORT).one("setup")
        timed = self.phase("timed", (SHORT[0], self.seconds + SHORT[1]))
        reps = timed.of("rep")
        quality = timed.one("quality")
        if self.workload in FLEETS:
            check = self.phase("check", SHORT)
            oracle = check.one("oracle")
            quality = check.one("quality")
            if oracle is None:
                self.complete = False
            for rep in reps:
                match = oracle is not None and rep["csv"] == oracle["csv"]
                self.count(rep["ops"], 0 if match else rep["ops"])
            # The nproc run: a wedge or a differing CSV fails all of it.
            wide, whole = check.one("wide"), check.one("whole_oracle")
            lost = whole["ops"] if whole else 1
            if wide is None or whole is None:
                self.count(lost, lost)
            else:
                match = wide["csv"] == whole["csv"]
                self.count(wide["ops"], 0 if match else wide["ops"])
        else:
            for rep in reps:
                self.count(rep["attempted"], rep["failed"])
            oracle = timed.one("oracle")
            if oracle:
                self.count(0, oracle["failed"])
        if timed.killed or not reps:
            # The run in flight wedged or died: all its operations failed.
            lost = reps[0]["attempted" if "attempted" in reps[0] else "ops"] if reps else 1
            self.count(lost, lost)
        # Memory is read after the first run of the phase (the fleets' is
        # a warm-up run of a whole pass's racks), before the pace first
        # runs and before any later run's leftovers inflate the peak.
        first = timed.one("memory") or (reps[0] if reps else {"peak_rss_kb": 0, "held": 1})
        return {
            "rack_epochs_per_s": self.steady_rate(reps),
            "rss_kb_per_rack": ratio(first["peak_rss_kb"], first["held"]),
            "setup_s": setup["setup_s"] if setup else 0.0,
            "gh_gain_vs_uniform": quality["gain"] if quality else 0.0,
            "gh_epu_gain": quality["epu_gain"] if quality else 0.0,
        }

    # -- per-layer ---------------------------------------------------------

    def per_layer(self, names):
        found = {}
        trace = self.phase("trace", TRACE)
        for kind in ("trace", "serve", "runner"):
            line = trace.one(kind)
            if line:
                found.update(line)
        main = trace.one("trace")
        if main:
            self.count(main["ops"], main["ops"] if main["mismatched_runs"] else 0)
        else:
            self.count(1, 1)
        if self.workload in FLEETS:
            scale = self.phase("scale", SHORT)
            line = scale.one("scale")
            if line:
                self.count(line["ops"])
                found["sched.scaling"] = line["sched.scaling"]
            else:
                # The nproc run wedged: all its rack-epochs failed.
                one = scale.one("scale_one")
                lost = one["ops"] if one else 1
                self.count(lost, lost)
        probe = self.phase("probe", PROBE, workload="-").one("probe")
        if probe:
            found.update(probe)
        # The nproc epoch probe may wedge on the rollover race; a kill is
        # the measurement, so it does not make the run incomplete.
        wide = run_phase(self.binary, "probe_wide", "-", self.seed, self.seconds, WIDE_PROBE)
        if wide.killed:
            self.hangs += 1
        found["sched.hangs"] = self.hangs
        # Layers a workload does not exercise read 0.
        return {name: float(found.get(name, 0.0)) for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    binary = build()
    bench = Bench(binary, args.workload, args.seed, args.seconds)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = bench.per_layer(list(units))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = bench.end_to_end()
    result = {
        "correct": bench.complete and bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
