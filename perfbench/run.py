#!/usr/bin/env python3
"""Build and run the ntpscan benchmark (the Go program in this directory).

Run from the root of an ntpscan checkout:

    python3 perfbench/run.py --workload campaign --seed 11 --seconds 15 --trace 0

Arguments are passed to the benchmark unchanged. The build and its
caches live under .bench_build/ in the checkout, and the benchmark's
last line of standard output is its JSON result.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    missing = [p for p in ("go.mod", "internal", os.path.join("perfbench", "go.mod"))
               if not os.path.exists(os.path.join(root, p))]
    if missing:
        print("perfbench: run from the root of an ntpscan checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "bin", "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(root, "perfbench"),
                       env=env, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
