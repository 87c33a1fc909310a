#!/usr/bin/env python3
"""Build and run the streamad benchmark, or compare two result sets.

Run from the root of the repository:

    python3 perfbench/run.py --workload grid_quick --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload grid_quick --full-grid
    python3 perfbench/run.py compare OLD NEW

The first form builds `perfbench/` in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload and passes its output through:
the last line of standard output is the result JSON. Every run also saves
its result set, with the environment fingerprint, under
`.bench_out/results/`. The second form is a check without metrics (the
whole quick grid against the committed table) and saves nothing.

`compare` takes two result-set files or directories of them, refuses when
their nproc or simd leg differ, and prints each metric's median per side.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
RESULTS = pathlib.Path(".bench_out") / "results"


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_rev(root):
    top = tool_output(["git", "-C", str(root), "rev-parse", "--show-toplevel"])
    if top is None or pathlib.Path(top).resolve() != root.resolve():
        return "unknown"
    return tool_output(["git", "-C", str(root), "rev-parse", "HEAD"]) or "unknown"


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return target / "release" / "perfbench"


def parse_run_args(argv):
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--full-grid", action="store_true")
    return parser.parse_args(argv)


def run(argv):
    opts = parse_run_args(argv)
    root = pathlib.Path.cwd()
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    binary = build(target)
    env = dict(os.environ,
               PERFBENCH_GIT_REV=git_rev(root),
               PERFBENCH_RUSTC=tool_output(["rustc", "--version"]) or "unknown")
    child = subprocess.Popen([str(binary)] + argv, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(child.returncode or 1)
    fingerprint = next((json.loads(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("fingerprint ")), None)
    result = json.loads(lines[-1])
    if opts.full_grid:
        return
    record = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
              "fingerprint": fingerprint, "result": result}
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = "{}-seed{}-trace{}-{}.json".format(
        opts.workload, opts.seed, opts.trace, time.strftime("%Y%m%dT%H%M%S"))
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")


def load(path):
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(old_path, new_path):
    old, new = load(old_path), load(new_path)
    if not old or not new:
        sys.exit("perfbench: compare needs result sets on both sides")
    for key in ("nproc", "simd_leg"):
        values = {r["fingerprint"][key] for r in old + new}
        if len(values) > 1:
            sys.exit(f"perfbench: refusing to compare result sets with different {key}: "
                     f"{sorted(map(str, values))}")
    groups = sorted({(r["workload"], r["trace"]) for r in old + new})
    for workload, trace in groups:
        print(f"{workload} (trace {trace})")
        side = lambda rs: [r["result"]["metrics"] for r in rs
                           if r["workload"] == workload and r["trace"] == trace]
        a, b = side(old), side(new)
        for name in sorted({n for m in a + b for n in m}):
            va = [m[name]["value"] for m in a if name in m]
            vb = [m[name]["value"] for m in b if name in m]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = f"{mb / ma:.3f}x" if ma else "n/a"
            print(f"  {name:32} {ma:14.6g} -> {mb:14.6g}  {ratio}  (n={len(va)}/{len(vb)})")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare OLD NEW")
        compare(argv[1], argv[2])
    else:
        run(argv)


if __name__ == "__main__":
    main()
