#!/usr/bin/env python3
"""Build and run enrichdb's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_enrich --seed 1 --seconds 20 --trace 0

The Go program in this directory is built into .bench_build/ (module and
build caches included, so nothing is written outside the checkout) and run
with the given arguments; its standard output, whose last line is the JSON
result, is passed through. A failed build exits non-zero without a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(OUT, "perfbench")


def go_env():
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                      ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        path = os.path.join(OUT, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOTOOLCHAIN="local", GOFLAGS="-mod=mod", GOWORK="off", GOENV="off",
               GOPROXY="off", GOSUMDB="off", CGO_ENABLED="0")
    return env


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    return os.path.join(os.environ.get("GOROOT", ""), "bin", "go")


def main():
    env = go_env()
    try:
        build = subprocess.run([go_binary(), "build", "-o", BIN, "."], cwd=HERE, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("perfbench: build: %s\n" % err)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1
    try:
        run = subprocess.run([BIN] + sys.argv[1:], cwd=ROOT, env=env, timeout=175)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
