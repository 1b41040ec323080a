#!/usr/bin/env python3
"""Build the benchmark driver from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload mucfuzz --seed 1 --seconds 20 --trace 0

The arguments go to the driver unchanged; it rejects anything it does not
know.  The build stays inside the checkout: dune's shared cache is off and
temporary files go to .bench_build/tmp.
"""
import os
import subprocess
import sys

DRIVER = os.path.join("_build", "default", "perfbench", "driver", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the repository root (dune-project and lib/ not found)")
    tmp = os.path.join(os.getcwd(), ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--no-config", "--cache=disabled",
         "--display=quiet", "./perfbench/driver/bench.exe"],
        env=env,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    os.execve(DRIVER, [DRIVER] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
