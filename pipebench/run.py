#!/usr/bin/env python3
"""End-to-end DCS pipeline benchmark: packets -> digest -> wire -> EpochRing -> report.

Builds the benchmark package (pipebench/CMakeLists.txt, on top of ../src) and
runs one workload. Run from the repository root:

  python3 pipebench/run.py --workload aligned_scale --seed 1 --seconds 30 --trace 0
  python3 pipebench/run.py --quick              # every workload, tiny, all checks
  python3 pipebench/run.py --reference --workload router_fanin --seed 7

The last line of standard output is the JSON result. --trace 1 reports the
per-layer metrics instead of the end-to-end ones. See pipebench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["aligned_scale", "unaligned_groups", "router_fanin"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # The build tree lives in the checkout, beside any other build output.
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "pipebench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("pipebench: build failed: " + " ".join(cmd))
            return None
    gen = os.path.join(out, "pipebench_gen")
    server = os.path.join(out, "pipebench_server")
    if not (os.path.exists(gen) and os.path.exists(server)):
        log("pipebench: build produced no binaries")
        return None
    return gen, server


def run_gen(gen, server, args, timeout):
    cmd = [gen, "--server", server, "--socket-dir", build_dir()] + args
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        log("pipebench: generator timed out")
        sys.stdout.write(exc.stdout or "")
        return None, 1
    return res.stdout, res.returncode


def last_json(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def quick(gen, server):
    """Every workload at a tiny size, untraced and traced, with every check."""
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out, rc = run_gen(gen, server, [
                "--workload", workload, "--seed", "1", "--seconds", "2",
                "--trace", trace, "--quick"], timeout=170)
            result = last_json(out)
            good = (rc == 0 and result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] > 0)
            if result is not None:
                good = good and all(v["value"] == v["value"]
                                    for v in result["metrics"].values())
            print("quick %-17s trace=%s %s" % (workload, trace,
                                                "ok" if good else "FAILED"))
            if not good:
                print(out or "")
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="server analysis threads (default min(4, nproc - 1); "
                             "1 on router_fanin)")
    parser.add_argument("--quick", action="store_true",
                        help="run every workload at a tiny size and check it")
    parser.add_argument("--reference", action="store_true",
                        help="print the planted ground truth and the one-shot "
                             "in-process reports for --workload/--seed")
    args = parser.parse_args()
    if not args.quick and not args.workload:
        parser.error("--workload is required")

    binaries = build()
    if binaries is None:
        return 1
    gen, server = binaries
    if args.quick:
        return quick(gen, server)
    extra = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.threads:
        extra += ["--threads", str(args.threads)]
    if args.reference:
        out, rc = run_gen(gen, server, extra + ["--reference"], timeout=170)
        sys.stdout.write(out or "")
        return rc
    out, rc = run_gen(gen, server, extra + [
        "--seconds", str(args.seconds), "--trace", str(args.trace)], timeout=170)
    if rc != 0 or last_json(out) is None:
        # No result line on a failed run.
        for line in (out or "").splitlines():
            if not line.startswith("{"):
                log(line)
        return rc or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
