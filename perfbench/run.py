#!/usr/bin/env python3
"""Build and run one workload of the Best-Path performance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bestpath_ndlog --seed 1 --seconds 40 --trace 0

The benchmark is built from source with dune (build directory:
$CARGO_TARGET_DIR, default .bench_build; dune's shared cache outside the
checkout is not used), then perfbench.exe runs the workload.  Its standard output is passed through; the last line is the
JSON result ({"correct", "attempted", "failed", "metrics"}).  With
--trace 1 the benchmark's own spans are written to
.perfbench_out/spans-<workload>-<seed>.jsonl.  Provenance logs live in
a temporary directory under .perfbench_tmp/ that is removed on every
exit path.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            return fail(f"{needed} not found: run from the root of a full checkout", 2)
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH", 2)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", build_dir, "--cache=disabled",
             "./perfbench/perfbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        return fail("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")

    tmp = os.path.join(".perfbench_tmp", str(os.getpid()))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    if args.trace == 1:
        os.makedirs(".perfbench_out", exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(".perfbench_out", f"spans-{args.workload}-{args.seed}.jsonl")]

    # SIGTERM unwinds through the finally block like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(tmp, exist_ok=True)
    child = None
    try:
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        lines = out.rstrip("\n").splitlines()
        if child.returncode != 0 or not lines:
            sys.stdout.write(out)
            return fail(f"benchmark exited with code {child.returncode}")
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            return fail("malformed result line")
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
        return 0
    except subprocess.TimeoutExpired:
        return fail(f"benchmark did not finish within {CHILD_TIMEOUT_S}s")
    except json.JSONDecodeError:
        return fail("last line of the benchmark's output is not JSON")
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
