#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload default-band --seed 42 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's sources through a relative replace directive.
Everything the build writes -- the Go build cache, module cache and the
binary -- stays under .bench_build/ in the current directory. The last
line of standard output is the JSON result; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

# Longest a single run may take, build excluded.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(bench_dir, "go.mod")):
        sys.stderr.write("run.py: run from the repository root (perfbench/go.mod not found)\n")
        return 2
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("run.py: the repository's go.mod is missing; nothing to build\n")
        return 2
    go = shutil.which("go")
    if go is None:
        sys.stderr.write("run.py: no go toolchain on PATH\n")
        return 2

    home = os.path.join(out_dir, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out_dir, "gocache"),
        GOPATH=os.path.join(out_dir, "gopath"),
        GOMODCACHE=os.path.join(out_dir, "gopath", "pkg", "mod"),
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    binary = os.path.join(out_dir, "perfbench")
    try:
        subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 1

    try:
        proc = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
