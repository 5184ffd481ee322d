#!/usr/bin/env python3
"""Build dard, darc and the perfbench harness from this checkout, then run it.

Usage, from the checkout root:

    python3 perfbench/run.py --workload ingest|cluster_ingest|query \
        --seed N --seconds S --trace 0|1

The arguments pass through to the harness (see main.go). Every build
output, data dir, span file and Go cache stays under .bench_build/ in
the checkout. The exit code is non-zero when a build fails or any op
is wrong; the last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    dirs = {name: os.path.join(BUILD, name)
            for name in ("bin", "gocache", "gopath", "tmp", "home", "work", "traces")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    # Runtime knobs never reach the harness; the harness gives the
    # daemons a minimal environment of their own.
    env = {k: v for k, v in os.environ.items()
           if k not in ("GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS", "GOFLAGS", "GOWORK")}
    env.update(
        GOCACHE=dirs["gocache"], GOPATH=dirs["gopath"], GOTMPDIR=dirs["tmp"],
        TMPDIR=dirs["tmp"], HOME=dirs["home"], XDG_CONFIG_HOME=dirs["home"],
        GOENV="off", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off",
    )
    bindir = dirs["bin"]
    builds = [
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "dard"), "./cmd/dard"]),
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "darc"), "./cmd/darc"]),
        (HERE, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in builds:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    harness = os.path.join(bindir, "perfbench")
    args = [harness, "-root", ROOT, "-bin", bindir, "-work", dirs["work"],
            "-traces", dirs["traces"]] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(harness, args, env)


if __name__ == "__main__":
    sys.exit(main())
