#!/usr/bin/env python3
"""Repository benchmark: build perfbench.exe against lib/ and run one workload.

    python3 perfbench/run.py --workload sim_table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The harness is built in a dune workspace
of its own under .bench_build/ (a mirror of dune-project, lib/ and
perfbench/_ml/), so the repository's own build never sees it. The last
line of standard output is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit status: 0 all gates passed, 1 a correctness gate failed, 2 usage or
not inside a checkout, 3 build failure, 4 harness failure.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKSPACE = os.path.join(BUILD, "ws")
WORKLOADS = ("sim_table2", "sim_n64_lowload", "tcp_n4")
SETUP_SAMPLES = 9  # set-ups timed per untraced run; setup_s is their median
# Seconds of measurement per process in an untraced run.
PART_S = {"sim_table2": 10, "sim_n64_lowload": 5, "tcp_n4": 2.5}
RUN_TIMEOUT_S = 170


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def mirror(src, dst):
    """Make dst a copy of src, rewriting only files whose bytes differ so
    the incremental build stays incremental."""
    os.makedirs(dst, exist_ok=True)
    keep = set()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = [d for d in dirnames if d != "_build"]
        rel = os.path.relpath(dirpath, src)
        os.makedirs(os.path.join(dst, rel), exist_ok=True)
        keep.add(os.path.normpath(rel))
        for name in filenames:
            s = os.path.join(dirpath, name)
            d = os.path.join(dst, rel, name)
            keep.add(os.path.normpath(os.path.join(rel, name)))
            with open(s, "rb") as f:
                data = f.read()
            if os.path.exists(d):
                with open(d, "rb") as f:
                    if f.read() == data:
                        continue
            with open(d, "wb") as f:
                f.write(data)
    for dirpath, dirnames, filenames in os.walk(dst, topdown=False):
        rel = os.path.relpath(dirpath, dst)
        for name in filenames:
            if os.path.normpath(os.path.join(rel, name)) not in keep:
                os.remove(os.path.join(dirpath, name))
        if os.path.normpath(rel) not in keep:
            shutil.rmtree(dirpath)


def build():
    """Build the harness and its tests; returns the build's output directory."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("run from the root of a repository checkout (dune-project and "
            "lib/ not found)", 2)
    if shutil.which("dune") is None:
        die("dune not found on PATH", 3)
    os.makedirs(WORKSPACE, exist_ok=True)
    shutil.copyfile(os.path.join(ROOT, "dune-project"),
                    os.path.join(WORKSPACE, "dune-project"))
    mirror(os.path.join(ROOT, "lib"), os.path.join(WORKSPACE, "lib"))
    mirror(os.path.join(HERE, "_ml"), os.path.join(WORKSPACE, "perfbench"))
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD, "cache"))
    proc = subprocess.run(
        ["dune", "build", "--root", WORKSPACE, "--profile", "release",
         "--display", "quiet", "./perfbench/perfbench.exe",
         "./perfbench/selftest.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build failed", 3)
    return os.path.join(WORKSPACE, "_build", "default", "perfbench")


def run_harness(exe, mode, args, deadline):
    """Runs one harness process to completion. Returns the seconds from its
    start until it printed READY (its set-up was done), its exit code and
    the rest of its standard output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([exe, mode] + args, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    ready = None
    if proc.stdout.readline().strip() == "READY":
        ready = time.perf_counter() - t0
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"harness {mode} did not finish in time", 4)
    if ready is None or proc.returncode not in (0, 1):
        die(f"harness {mode} failed (exit {proc.returncode})", 4)
    return ready, proc.returncode, out


def measure(exe, args, deadline):
    """One measurement process: (set-up seconds, its result object)."""
    ready, _, out = run_harness(exe, "run", args, deadline)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die("harness printed no result", 4)
    return ready, json.loads(lines[-1])


def time_setup(exe, args, deadline):
    """One set-up-only process: seconds from start to READY."""
    ready, code, _ = run_harness(exe, "setup", args, deadline)
    if code != 0:
        die("set-up process failed", 4)
    return ready


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    opts = ap.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if opts.selftest:
        exe = os.path.join(build(), "selftest.exe")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)
    if opts.workload is None:
        ap.error("--workload is required")

    exe = os.path.join(build(), "perfbench.exe")
    deadline = time.monotonic() + RUN_TIMEOUT_S  # the build is not timed
    args = ["--workload", opts.workload, "--seed", str(opts.seed)]
    workdir = os.path.join(BUILD, "run", opts.workload)
    os.makedirs(workdir, exist_ok=True)

    # An untraced run is split over several measurement processes, so
    # per-process luck (thread placement, heap layout) is averaged out:
    # each metric is the median over the parts.
    parts = 1 if opts.trace else max(1, int(opts.seconds // PART_S[opts.workload]))
    results, setups = [], []
    for part in range(parts):
        ready, result = measure(exe, args + [
            "--seconds", str(opts.seconds / parts), "--trace", str(opts.trace),
            "--workdir", workdir, "--part", str(part)], deadline)
        setups.append(ready)
        results.append(result)
    if not opts.trace:
        setups += [time_setup(exe, args, deadline)
                   for _ in range(SETUP_SAMPLES - parts)]

    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(
                       [r["metrics"][name]["value"] for r in results]),
                   "unit": m["unit"]}
            for name, m in results[0]["metrics"].items()},
    }
    if not opts.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    expected = declared_metrics(opts.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        die(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, or units differ", 4)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
