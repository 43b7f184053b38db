#!/usr/bin/env python3
"""Pipeline benchmark: ingredient lines in, per-recipe nutrition profiles out.

Run from the repository root:

    python3 perfbench/run.py --workload corpus|longtail \
        --seed N --seconds S --trace 0|1

Builds the program and the harness with sbt when their sources changed since
the last build, runs one workload in a fresh JVM, and prints a report whose
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Build outputs and Spark scratch files stay inside the repository, under
target/ directories and .bench_build/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "longtail")
# Driver heap, passed to the program's own JVM options through the
# SPARK_DRIVER_MEM variable its build reads. Fixed so that runs compare.
DRIVER_MEM = "4g"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file that decides what the build produces."""
    files = [ROOT / "build.sbt", HERE / "build.sbt"]
    for project in (ROOT / "project", HERE / "project"):
        files += [p for p in project.glob("*") if p.suffix in (".sbt", ".scala", ".properties")]
    for tree in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src" / "main"):
        files += [p for p in tree.rglob("*") if p.is_file()]
    return sorted(p for p in files if p.is_file())


def stamp():
    h = hashlib.sha256(DRIVER_MEM.encode())
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def launch_args(build):
    """JVM options and classpath, building first when the sources changed."""
    launch = HERE / "target" / "launch.txt"
    stamp_file = build / "stamp"
    want = stamp()
    if not (launch.is_file() and stamp_file.is_file() and stamp_file.read_text() == want):
        env = dict(os.environ, SPARK_DRIVER_MEM=DRIVER_MEM)
        env.setdefault("COURSIER_MODE", "offline")
        env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", ""), "-Dsbt.offline=true", "-XX:-UsePerfData",
                                    f"-Djava.io.tmpdir={build / 'tmp'}"]).strip()
        print("perfbench: building", file=sys.stderr, flush=True)
        try:
            # sbt's own output goes to stderr: stdout carries only the report.
            subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeLaunch"],
                           cwd=HERE, env=env, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}")
        stamp_file.write_text(want)
    return launch.read_text().splitlines()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid(line, trace):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    want = expected_metrics(trace)
    return (isinstance(r, dict) and set(r) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(r["correct"], bool)
            and isinstance(r["attempted"], int) and r["attempted"] >= 1
            and isinstance(r["failed"], int) and 0 <= r["failed"] <= r["attempted"]
            and {k: v.get("unit") for k, v in r["metrics"].items()} == want)


def main():
    # On SIGTERM, unwind through the handlers below, which stop the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    if not ((ROOT / "build.sbt").is_file() and (ROOT / "src" / "main" / "scala").is_dir()):
        fail(f"no program to build: {ROOT} lacks build.sbt or src/main/scala")

    build = build_dir()
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    args = launch_args(build)

    env = dict(os.environ, SPARK_LOCAL_DIRS=str(build / "spark-local"))
    # The program's own defaults decide master and shuffle partitions.
    for var in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"):
        env.pop(var, None)
    cmd = (["java", "-XX:-UsePerfData", f"-Djava.io.tmpdir={build / 'tmp'}"] + args +
           ["perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith('{"correct"'):
                result = line.strip()
            else:
                print(line, end="", flush=True)
        proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if timed_out.is_set():
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"run exited with code {proc.returncode}")
    if result is None or not valid(result, a.trace):
        fail(f"run printed no valid result: {result}")
    print(result, flush=True)


if __name__ == "__main__":
    main()
