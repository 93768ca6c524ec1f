#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload core-bound --seed 1 --seconds 15 --trace 0

The script builds the benchmark binary (this directory's Go module) and
the repository's expsd from source into .bench_build/ at the repository
root, with the Go build cache, temporary files and Go's configuration
directory kept there too, then runs the benchmark with the given
arguments. Build output goes to stderr; the benchmark's last stdout
line is its JSON result. See README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="", GOPROXY="off",
               CGO_ENABLED="0")
    bench = os.path.join(BUILD, "bin", "perfbench")
    expsd = os.path.join(BUILD, "bin", "expsd")
    builds = ((["go", "build", "-o", bench, "."], HERE),
              (["go", "build", "-o", expsd, "./cmd/expsd"], ROOT))
    for cmd, cwd in builds:
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return 1
    args = [bench] + sys.argv[1:] + ["-expsd", expsd,
                                     "-workdir", os.path.join(BUILD, "run"),
                                     "-spec", os.path.join(ROOT, "BENCHMARK.json")]
    sys.stdout.flush()
    os.execve(bench, args, env)


if __name__ == "__main__":
    sys.exit(main())
