#!/usr/bin/env python3
"""End-to-end benchmark of p2prm: builds the benchmark program from source and
runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
that is set, else to .bench_build/. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. The traced run also writes its spans under
<build dir>/spans/. See perfbench/README.md.
"""
import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170  # a run must end within 180 s
BUILD_TIMEOUT_S = 840  # the first run in a checkout builds; 900 s allowed


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def no_aslr():
    """Runs in the child before exec: turns off address-space randomization
    for the benchmark process only. With it on, peak RSS differed by 7 % and
    lazy-million's run_s by up to 30 % between processes given one seed."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_child(cmd, timeout, **kw):
    """Runs cmd to completion; kills it (and waits) if it overruns."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build(build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "p2prm_perfbench",
                 "-j", "4"]):
        code, out = run_child(cmd, BUILD_TIMEOUT_S, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if code != 0:
            sys.stderr.write(out.decode(errors="replace"))
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "p2prm_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no " + binary)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload, workloads))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--span-dir", span_dir]
    code, out = run_child(cmd, CHILD_TIMEOUT_S, stdout=subprocess.PIPE,
                          preexec_fn=no_aslr)
    lines = out.decode(errors="replace").strip().splitlines()
    if code != 0 or not lines:
        fail("benchmark exited with %d" % code)
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1])
    got = set(raw["metrics"])
    if got != set(units):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(units) - got), sorted(got - set(units))))
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    if result["attempted"] < 1:
        fail("no operation attempted")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
