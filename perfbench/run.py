#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hitlist-sharded --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports
the repository's packages through a replace directive. It is built from
source into the build directory — $CARGO_TARGET_DIR when set, else
.bench_build — with the Go build cache, module cache and home directory
kept there too, so a run reads and writes nothing outside the checkout.
The benchmark's standard output passes through; its last line is the
JSON result. Any build or run failure exits non-zero without a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 1
    gobin = shutil.which("go")
    if gobin is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    exe = os.path.join(build, "perfbench")
    try:
        built = subprocess.run([gobin, "build", "-o", exe, "."], cwd=bench, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [exe, "--state-root", os.path.join(build, "state")] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
