#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds the Go module in
perfbench/ (which imports the simulator from the parent directory) into
.bench_build/ and replaces itself with the built binary, passing every
argument through (see `--help` of the binary for the flags). Every
cache, temporary file and config file the Go toolchain writes goes under
.bench_build/, so a run reads and writes only inside the checkout.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"), env=env,
        stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "PERFBENCH_COMMIT" not in env and os.path.isdir(os.path.join(root, ".git")):
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            env["PERFBENCH_COMMIT"] = head.stdout.strip()
    os.chdir(root)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
