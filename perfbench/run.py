#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory (its own module, which
imports the repository's module through a replace directive). This script
builds it into the build directory, .bench_build at the repository root
unless CARGO_TARGET_DIR names another, and then replaces itself with the
built program, passing every argument through. All of Go's caches and
temporary files stay inside the build directory. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "go-cache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", os.path.join("gopath", "pkg", "mod")),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
