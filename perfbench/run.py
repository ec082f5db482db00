#!/usr/bin/env python3
"""Benchmark of record for the FPB simulator: host wall time of the `fpb`
CLI, end to end and per layer.

    python3 perfbench/run.py --workload run-short --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the release `fpb` binary (and, for
the traced run, `perfbench/tracer`) into $CARGO_TARGET_DIR (default
`.bench_build`), then drives `fpb` as a closed loop: one client, one op at
a time, the next op only after the previous one finished. An op is the
workload's full command sequence in a fresh directory under `.bench_work/`.

--trace 0 times ops and reports the end-to-end metrics of BENCHMARK.json.
--trace 1 alternates untraced ops with traced ones (the same commands run
by `perfbench-tracer` through the library, with spans at every layer
boundary) and reports the per-layer metrics. `--workload all` interleaves
every workload round by round. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_work"

# Every catalog workload simulates 8 cores (SystemConfig::default).
CORES = 8
# The seed of the set-up ops, whose stdout digests golden.json pins.
REFERENCE_SEED = 1
# Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 3
SWEEP_AXES = ["--axis", "pt-dimm=466,512,560,608", "--axis", "e-gcp=0.4,0.7,0.95",
              "--axis", "line-bytes=64,256"]
SWEEP_POINTS = 4 * 3 * 2
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def op_commands(workload, seed, jobs):
    """The op's command sequence: (phase name, fpb arguments) pairs."""
    s = str(seed)
    if workload == "run-short":
        return [("run", ["run", "--workload", "mcf_m", "--scheme", "fpb",
                         "--instructions", "120000", "--seed", s])]
    if workload == "run-long":
        return [("run", ["run", "--workload", "mum_m", "--scheme", "fpb",
                         "--instructions", "10000000", "--seed", s])]
    if workload == "sweep-figure":
        sweep = ["sweep", "--workload", "mcf_m", "--scheme", "fpb", "--instructions", "200000",
                 *SWEEP_AXES, "--jobs", str(jobs), "--seed", s, "--result-cache", "cache.v1"]
        return [("sweep_cold", sweep + ["--quiet", "--journal", "sweep.fpbj",
                                        "--json-out", "cold.json"]),
                ("sweep_warm", sweep + ["--json-out", "warm.json"])]
    if workload == "inspect-replay":
        return [("record", ["inspect", "record", "--workload", "lbm_m", "--scheme", "fpb",
                            "--instructions", "1000000", "--seed", s, "--log", "events.fpbi"]),
                ("replay", ["inspect", "replay", "--log", "events.fpbi", "--require-complete",
                            "--metrics-out", "replay.json"]),
                ("stalls", ["inspect", "stalls", "--log", "events.fpbi"])]
    raise ValueError(workload)


WORKLOADS = ["run-short", "run-long", "sweep-figure", "inspect-replay"]


def requested_instructions(workload):
    """Simulated instructions an op requests: cores x budget for every
    run, including sweep runs (scheme and baseline per point) that dedup
    or the result cache serve."""
    total = 0
    for _, args in op_commands(workload, REFERENCE_SEED, 1):
        if "--instructions" in args:
            budget = CORES * int(args[args.index("--instructions") + 1])
            total += 2 * SWEEP_POINTS * budget if args[0] == "sweep" else budget
    return total


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(trace):
    """Builds the release binaries; untimed and outside set-up."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    target = target if target.is_absolute() else ROOT / target
    if not (ROOT / "Cargo.toml").is_file():
        fail(f"no Cargo.toml at {ROOT}: run from a checkout of the repository")
    steps = [["cargo", "build", "--release", "--offline", "--quiet", "--bin", "fpb"]]
    if trace:
        steps.append(["cargo", "build", "--release", "--offline", "--quiet",
                      "--manifest-path", str(BENCH / "tracer" / "Cargo.toml")])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}\n{done.stderr[-4000:]}")
    return target / "release" / "fpb", target / "release" / "perfbench-tracer"


def spawn(argv, cwd, name):
    """Runs one process to completion; returns (exit code, wall s, peak RSS
    MiB, stdout, stderr)."""
    out_path, err_path = cwd / f"{name}.out", cwd / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(), err_path.read_text())


def metrics_row(stdout, label):
    """The numeric columns of the `<label>` metrics row, or None."""
    for line in stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["row"]:
            parts = parts[1:]
        if len(parts) == 7 and parts[0] == label:
            return parts[1:]
    return None


class Op:
    """One op: the workload's command sequence in a fresh directory."""

    def __init__(self, workload, seed, jobs, fpb, index):
        self.workload, self.seed, self.jobs, self.fpb = workload, seed, jobs, fpb
        self.dir = WORK / f"{workload}-{os.getpid()}-{index}"
        self.traced_dir = self.dir.with_name(self.dir.name + "-traced")
        self.phases = {}
        self.wall = 0.0
        self.rss = 0.0
        self.stdout = []
        self.problems = []

    def run(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for phase, args in op_commands(self.workload, self.seed, self.jobs):
            code, wall, rss, out, err = spawn([str(self.fpb), *args], self.dir, phase)
            self.phases[phase] = wall
            self.wall += wall
            self.rss = max(self.rss, rss)
            self.stdout.append(out)
            if code != 0:
                self.problems.append(f"{phase} exited {code}: {err.strip()[-300:]}")
                return self
        self.check()
        return self

    def digest(self):
        return hashlib.sha256("\0".join(self.stdout).encode()).hexdigest()

    def check(self):
        """Per-op correctness checks on the program's outputs."""
        w, out = self.workload, self.stdout
        if w in ("run-short", "run-long") and metrics_row(out[0], "FPB") is None:
            self.problems.append("run printed no FPB metrics row")
        if w == "sweep-figure":
            if f"outcomes: {SWEEP_POINTS} ok, 0 retried, 0 panicked" not in out[0]:
                self.problems.append(f"cold sweep did not complete all {SWEEP_POINTS} points")
            if (self.dir / "cold.json").read_bytes() != (self.dir / "warm.json").read_bytes():
                self.problems.append("warm sweep --json-out differs from the cold one")
            err = (self.dir / "sweep_warm.err").read_text()
            if f"{2 * SWEEP_POINTS} run(s) ->" not in err or ", 0 simulated" not in err:
                self.problems.append(f"warm sweep was not served from the cache: {err.strip()}")
        if w == "inspect-replay":
            rec, rep = metrics_row(out[0], "FPB"), metrics_row(out[1], "replayed")
            if rec is None or rec != rep:
                self.problems.append(f"replay row {rep} differs from record row {rec}")
            if not (self.dir / "replay.json").is_file():
                self.problems.append("replay wrote no --metrics-out file")
            if "stall attribution" not in out[2]:
                self.problems.append("stalls printed no attribution")

    def cross_check_run(self):
        """inspect-replay: the record row equals `fpb run` at the same seed."""
        args = op_commands(self.workload, self.seed, self.jobs)[0][1][2:]
        args = [a for a in args if a not in ("--log", "events.fpbi")]
        code, _, _, out, _ = spawn([str(self.fpb), "run", *args], self.dir, "run_check")
        if code != 0 or metrics_row(out, "FPB") != metrics_row(self.stdout[0], "FPB"):
            self.problems.append("record row differs from `fpb run` at the same seed")

    def trace(self, tracer):
        """The same commands through the tracer; returns its metrics."""
        argv = [str(tracer), "spans.json"]
        for _, args in op_commands(self.workload, self.seed, self.jobs):
            argv += ["::", *args]
        # A directory of its own: the traced cold sweep must not find the
        # untraced op's cache.
        shutil.rmtree(self.traced_dir, ignore_errors=True)
        self.traced_dir.mkdir(parents=True)
        code, _, _, out, err = spawn(argv, self.traced_dir, "tracer")
        if code != 0:
            self.problems.append(f"tracer exited {code}: {err.strip()[-300:]}")
            return None
        lines = out.strip().splitlines()
        rows = [r for r in (metrics_row(o, label) for o in self.stdout
                            for label in ("FPB", "replayed")) if r]
        traced_rows = [r for r in (metrics_row(line, label) for line in lines[:-1]
                                   for label in ("FPB", "replayed")) if r]
        if traced_rows != rows:
            self.problems.append(f"traced rows {traced_rows} != untraced rows {rows}")
        json_out = self.dir / "cold.json"
        if json_out.exists() and json_out.read_bytes() != (self.traced_dir / "cold.json").read_bytes():
            self.problems.append("traced sweep --json-out differs from the untraced one")
        spans = json.loads((self.traced_dir / "spans.json").read_text())
        return json.loads(lines[-1]), spans


def remove(op):
    shutil.rmtree(op.dir, ignore_errors=True)
    shutil.rmtree(op.traced_dir, ignore_errors=True)


def op_seeds(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def describe(name, unit, values):
    """Median, quartile spread, sample count and the highest percentile
    with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if n >= 2 else [med, med, med]
    tails = [p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10]
    tail = f"p{tails[-1]:g} {percentile(values, tails[-1]):.6g}" if tails else "no tail (n<20)"
    spread = (q[2] - q[0]) / med if med else 0.0
    return (f"  {name:<20} {med:>12.6g} {unit:<6} median  IQR {spread:6.2%}  "
            f"n={n:<4} {tail}")


def environment(jobs):
    def cmd(*argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  check=False).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    commit = cmd("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "jobs": jobs,
            "rustc": cmd("rustc", "--version"), "commit": commit, "profile": "release"}


def setup(workload, fpb, jobs, golden):
    """Work-dir preparation plus the untimed priming op, SETUP_REPS times,
    all at the reference seed: their stdout must match each other and
    golden.json. Returns (set-up seconds, ops)."""
    times, ops = [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        op = Op(workload, REFERENCE_SEED, jobs, fpb, f"setup{rep}").run()
        times.append(time.perf_counter() - t0)
        if not op.problems and workload == "inspect-replay":
            op.cross_check_run()
        if not op.problems and op.digest() != golden.get(workload):
            op.problems.append(f"reference-seed stdout digest {op.digest()} != golden.json")
        remove(op)
        ops.append(op)
    return times, ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH / "golden.json").read_text())
    fpb, tracer = build(a.trace)
    jobs = min(2, len(os.sched_getaffinity(0)))
    selected = WORKLOADS if a.workload == "all" else [a.workload]
    env = environment(jobs)
    print("env " + json.dumps(env, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    setups, all_ops = {}, []
    for w in selected:
        setups[w], ops = setup(w, fpb, jobs, golden)
        all_ops += ops

    seeds = {w: op_seeds(w, a.seed) for w in selected}
    timed = {w: [] for w in selected}
    traced = {w: [] for w in selected}
    spans = []
    deadline = time.perf_counter() + a.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        for w in selected:
            op = Op(w, next(seeds[w]), jobs, fpb, k).run()
            all_ops.append(op)
            timed[w].append(op)
            if a.trace and not op.problems:
                got = op.trace(tracer)
                if got:
                    layer, op_spans = got
                    traced[w].append(layer)
                    spans.append({"workload": w, "seed": op.seed, "spans": op_spans})
            remove(op)
        k += 1

    failed = sum(1 for op in all_ops if op.problems)
    for op in all_ops:
        for p in op.problems:
            print(f"FAILED {op.workload} seed {op.seed}: {p}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}

    def report(w, name, value):
        key = f"{w}/{name}" if len(selected) > 1 else name
        metrics[key] = {"value": value, "unit": units[name]}

    for w in selected:
        ok = [op for op in timed[w] if not op.problems]
        walls = [op.wall for op in ok]
        print(f"{w}: {len(timed[w])} op(s), {sum(1 for op in timed[w] if op.problems)} failed, "
              f"reference digest {golden.get(w)}")
        if not walls:
            continue
        e2e = {
            "wall_s": walls,
            "sim_minstr_per_s": [requested_instructions(w) / 1e6 / t for t in walls],
            "peak_rss_mib": [op.rss for op in ok],
            "setup_s": setups[w],
        }
        for phase in ok[0].phases:
            e2e[f"{phase}_s"] = [op.phases[phase] for op in ok]
            units[f"{phase}_s"] = "s"
        for name, values in e2e.items():
            print(describe(name, units[name], values))
        share = sum(1 for op in timed[w] if op.problems) / len(timed[w])
        print(f"  {'failed_op_share':<20} {share:>12.6g} ratio")
        if a.trace:
            layers = traced[w]
            for m in spec["per_layer"]:
                vals = [row.get(m["name"], 0.0) for row in layers]
                if m["name"] == "bench.trace_overhead":
                    untraced = statistics.median(walls)
                    vals = [row["bench.traced_op_s"] / untraced for row in layers]
                value = statistics.median(vals) if vals else 0.0
                report(w, m["name"], value)
                print(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
        else:
            for m in spec["end_to_end"]:
                report(w, m["name"], statistics.median(e2e[m["name"]]))

    if a.trace:
        out = WORK / f"spans-{a.workload}-seed{a.seed}.json"
        out.write_text(json.dumps({"env": env, "ops": spans}))
        print(f"spans written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
