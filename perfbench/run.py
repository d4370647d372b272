#!/usr/bin/env python3
"""Build and run the sforder benchmark from the root of a checkout.

    python3 perfbench/run.py --workload dense-reads --seed 1 --seconds 20 --trace 0

Builds the perfbench Go module (which uses the checkout's sforder module
through a replace directive) into the build directory named by
CARGO_TARGET_DIR, default .bench_build, keeping the Go build cache there
too, then replaces itself with the benchmark binary, passing every
argument through. A traced run (--trace 1) writes its spans to
spans.jsonl in the build directory unless --spans names another file.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def flag(args, name):
    """Returns the value after flag name in args, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--spans" not in args and flag(args, "--trace") == "1":
        args += ["--spans", os.path.join(build, "spans.jsonl")]
    sys.stdout.flush()
    os.execve(binary, [binary] + args, env)


if __name__ == "__main__":
    sys.exit(main())
