#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One run:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the harness (`perfbench/harness`, a cargo package of its own
that uses the program's crates by path), runs one seeded workload, and
prints a host stamp line followed by the result as the last line of
standard output (the exit code is 1 if the result is not correct):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
the per-layer ones (see perfbench/README.md).

Repeat mode:

    python3 perfbench/run.py --workload <name> --repeat <k> [--seed <first>]

runs the workload k times in fresh processes (seeds first..first+k-1)
and prints the host stamp and, per metric, the median, quartiles, min,
max and the quartile spread as a share of the median.

Everything the benchmark writes stays in the checkout: the build in
$CARGO_TARGET_DIR (default `.bench_build`), scratch files and traces
in `.bench_run`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "harness", "Cargo.toml")
WORKDIR = os.path.join(ROOT, ".bench_run")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def env_for_children():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    tmp = os.path.join(WORKDIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env, target


def build(env, target):
    """Builds the harness; returns its path, or None on failure."""
    if not os.path.exists(MANIFEST):
        print("benchmark harness missing: " + MANIFEST, file=sys.stderr)
        return None
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "ticc-perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=20, cwd=ROOT)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def host_stamp(args):
    return {
        "host": {
            "nproc": os.cpu_count(),
            "kernel": os.uname().release,
            "wal_fs": fs_type(WORKDIR),
            "rustc": command_output(["rustc", "--version"]),
            "commit": command_output(["git", "rev-parse", "--short=12", "HEAD"]),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
    }


def run_once(binary, env, workload, seed, seconds, trace):
    """Runs the harness once; returns (result dict or None, raw last line)."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", WORKDIR,
    ]
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return None, None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"harness exited with code {done.returncode}", file=sys.stderr)
        return None, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("harness printed no result line", file=sys.stderr)
        return None, None
    return result, lines[-1]


def repeat(binary, env, args, stamp):
    values = {}
    units = {}
    correct = True
    for k in range(args.repeat):
        seed = args.seed + k
        result, _ = run_once(binary, env, args.workload, seed, args.seconds, args.trace)
        if result is None:
            return 1
        correct = correct and result["correct"]
        print(f"run {k + 1}/{args.repeat} seed {seed}: correct={result['correct']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
          f"{args.seconds} s each, trace {args.trace}, all correct: {correct}")
    print(f"{'metric':40s} {'unit':>6s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'min':>14s} {'max':>14s} {'iqr/med':>8s}")
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(vals),
                         "max": max(vals), "spread": spread, "unit": units[name],
                         "values": vals}
        print(f"{name:40s} {units[name]:>6s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{min(vals):14.6g} {max(vals):14.6g} {spread:8.3f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, **stamp,
                      "summary": summary}))
    return 0 if correct else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run k times in fresh processes and summarise")
    args = p.parse_args()

    env, target = env_for_children()
    binary = build(env, target)
    if binary is None:
        return 1
    stamp = host_stamp(args)
    print(json.dumps(stamp))
    sys.stdout.flush()
    if args.repeat > 0:
        return repeat(binary, env, args, stamp)
    result, line = run_once(binary, env, args.workload, args.seed, args.seconds, args.trace)
    if line is None:
        return 1
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
