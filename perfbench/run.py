#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_ctrl --seed 1 --seconds 25 --trace 0

The script builds perfbench/perfbench.exe with dune inside the checkout
(the shared dune cache is disabled so nothing is written outside it), then
runs it with the same arguments.  The benchmark's last line of standard
output is its JSON result; this script adds nothing after it.  Without the
library sources next to it the build fails and the script exits non-zero
without printing a result.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("cold_ctrl", "warm_arith", "mig_warm")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "15", "--trace": "0"}
    i = 0
    while i < len(argv):
        if argv[i] not in opts or i + 1 >= len(argv):
            fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
        opts[argv[i]] = argv[i + 1]
        i += 2
    if opts["--workload"] not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (opts["--workload"], ", ".join(WORKLOADS)))
    for key in ("--seed", "--seconds"):
        if not opts[key].isdigit():
            fail("%s takes a whole number" % key)
    if opts["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return opts


def source_stamp(root):
    """A commit id for the run metadata: git's when the checkout is a
    repository of its own, else a hash of the library sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    opts = parse_args(sys.argv[1:])
    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("%s not found: run from the root of a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/perfbench.exe"],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 1)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed", 1)
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    env["GENLOG_GIT_COMMIT"] = env.get("GENLOG_GIT_COMMIT") or source_stamp(root)
    args = [exe]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        args += [key, opts[key]]
    sys.stdout.flush()
    proc = subprocess.Popen(args, cwd=root, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
