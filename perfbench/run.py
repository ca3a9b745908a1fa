#!/usr/bin/env python3
"""Real-binary benchmark of the FETCH pipeline and its analysis service.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold_realbin --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/realbench.cpp against the repository sources into
.bench_build/, checks every input of the workload against the pinned
manifest (path, size, SHA-256), runs one workload and prints its result as
one JSON object on the last line of stdout. The metric names and units are
checked against BENCHMARK.json at the checkout root. See README.md here.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_BUILD = BUILD / "perfbench"
BINARY = CMAKE_BUILD / "realbench"
RUN_TIMEOUT_S = 170
# Environment the program would otherwise consult; a run must not depend on it.
SCRUBBED_ENV = ("FETCH_JOBS", "FETCH_CACHE_DIR", "FETCH_SOCKET", "FETCH_LOG")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources at {ROOT}")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (CMAKE_BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_BUILD), "--target", "realbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def pinned_inputs(manifest, sets, only=None):
    """(set, entry) for every input of `sets`, each checked against its pin."""
    by_name = {entry["name"]: entry for entry in manifest["inputs"]}
    out = []
    for set_name in sets:
        for name in manifest["sets"][set_name]:
            if only is not None and name != only:
                continue
            entry = by_name[name]
            path = entry["path"]
            if not os.path.isfile(path):
                raise BenchError(f"input {name} is missing: {path}")
            size = os.path.getsize(path)
            digest = sha256(path)
            if size != entry["size"] or digest != entry["sha256"]:
                raise BenchError(f"input {name} changed: {path} has size {size} "
                                 f"sha256 {digest}, pinned {entry['size']} {entry['sha256']}")
            print(f"input {set_name:7} {name:12} {path} size={size} sha256={digest}")
            out.append((set_name, entry))
    return out


def run_program(workload, seed, seconds, trace, inputs, extra=()):
    """Runs one workload; returns (result dict, stdout lines before it)."""
    binary_hash = sha256(BINARY)[:16]
    argv = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--socket-dir", os.path.relpath(BUILD),
            "--digest-store", str(BUILD / f"digests-{binary_hash}.txt")]
    for set_name, entry in inputs:
        argv += ["--input", f"{set_name}:{entry['name']}:{entry['size']}:{entry['path']}"]
    argv += list(extra)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(result, declared, input_names):
    """Every declared metric is present with its declared unit, and no other.
    `input.<name>.ms` is expected only for the inputs the run was given."""
    expected = {}
    for metric in declared:
        name = metric["name"]
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "input" and parts[1] not in input_names:
            continue
        expected[name] = metric["unit"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    wrong = sorted(n for n in expected if n in got and got[n] != expected[n])
    if missing or extra or wrong:
        raise BenchError(f"metric set mismatch: missing {missing}, undeclared {extra}, "
                         f"wrong unit {wrong}")


def measure(args, bench, manifest):
    workload = manifest["workloads"].get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload}")
    sets = workload["traced_sets" if args.trace else "sets"]
    inputs = pinned_inputs(manifest, sets)
    result, lines = run_program(args.workload, args.seed, args.seconds, args.trace, inputs)
    print("\n".join(lines))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    check_metrics(result, declared, {entry["name"] for _, entry in inputs})
    print(json.dumps(result))


def self_test(bench, manifest):
    """Every metric is emitted with its unit, and a planted wrong digest
    fails the output check."""
    spec = manifest["self_test"]
    inputs = [("realbin", entry) for _, entry in
              pinned_inputs(manifest, ["realbin"], only=spec["input"])]
    names = {spec["input"]}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result, _ = run_program(workload, 1, spec["seconds"], trace, inputs,
                                    ["--self-test"])
            check_metrics(result, bench["per_layer" if trace else "end_to_end"], names)
            if not result["correct"] or result["failed"] != 0:
                raise BenchError(f"self-test: {workload} trace={trace} failed its output check")
            log(f"self-test: {workload} trace={trace}: {len(result['metrics'])} metrics ok")
        result, _ = run_program(workload, 1, spec["seconds"], 0, inputs,
                                ["--self-test", "--expect-digest", spec["input"] + "=1"])
        if result["correct"] or result["failed"] == 0:
            raise BenchError(f"self-test: {workload} accepted a planted wrong digest")
        log(f"self-test: {workload}: planted wrong digest failed "
            f"{result['failed']}/{result['attempted']} operations")
    print("self-test: ok")


def main():
    # subprocess.run kills and reaps the running workload on any exception,
    # so turning SIGTERM into one stops the whole run cleanly.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        manifest = json.loads((HERE / "manifest.json").read_text())
        build()
        if args.self_test:
            self_test(bench, manifest)
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            measure(args, bench, manifest)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: error: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
