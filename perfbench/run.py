#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The Go toolchain's caches, the binary and the harness's span and result
files all live under .bench_build/ in the repository root. Arguments are
passed through to the harness; its exit code is returned.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def main():
    home = os.path.join(BUILD, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
