#!/usr/bin/env python3
"""Run the PBDS benchmark on one workload, or the smoke check on all.

    python3 perfbench/run.py --workload crimes-having --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Builds first (see build.py), then runs one JVM with Spark in local mode.
Every metric is printed by name with its unit; the last line of stdout is
the result JSON, holding the metrics BENCHMARK.json lists for the mode
(`end_to_end` untraced, `per_layer` traced). Exits non-zero without a
result when the build or the run fails. Everything is written under
.bench_build/perfbench.
"""
import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout clean: outputs go to .bench_build
import build  # noqa: E402

JAVA_OPTS = [
    "-Xmx2g", "-Xss64m", "-XX:-UsePerfData",
    "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]

RUN_LIMIT_S = 170

# Every workload the benchmark knows. BENCHMARK.json lists the ones a full
# measurement runs; sof-having stays runnable by name and in the smoke check.
ALL_WORKLOADS = ["crimes-having", "sof-having", "tpch-topk"]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "--short=12", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                           timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_java(cp, digest, args, trace, deadline):
    """Run the benchmark JVM; returns its stdout lines, or None on failure."""
    tmp = os.path.join(build.WORK, "tmp")
    logs = os.path.join(build.WORK, "logs")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(logs, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    opts = JAVA_OPTS + ["-Djava.io.tmpdir=" + tmp]
    if trace:
        opts.append("-javaagent:" + build.AGENT_JAR)
    cmd = ["java"] + opts + ["-cp", cp, "perfbench.Main",
                             "--work", build.WORK, "--sha", git_sha() or "src-" + digest] + args
    log_path = os.path.join(logs, "-".join(a.lstrip("-") for a in args) + ".log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=log, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.stderr.write("perfbench: run exceeded its time limit\n")
            return None
    lines = out.splitlines()
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        return None
    return lines


def result_of(lines, names):
    """The result JSON restricted to `names`; None if any is missing."""
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: the run did not end with a result line\n")
        return None
    missing = [n for n in names if n not in res["metrics"]]
    if missing:
        sys.stderr.write("perfbench: metrics not emitted: %s\n" % ", ".join(missing))
        return None
    res["metrics"] = {n: res["metrics"][n] for n in names}
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale, every workload, both modes; checks every metric is emitted")
    a = ap.parse_args()
    start = time.time()
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    try:
        cp, digest = build.build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench build: %s" % e)

    if a.smoke:
        ok = True
        for w in ALL_WORKLOADS:
            for trace in (0, 1):
                args = ["--workload", w, "--seed", str(a.seed), "--seconds", "1",
                        "--trace", str(trace), "--smoke"]
                lines = run_java(cp, digest, args, trace, time.time() + RUN_LIMIT_S)
                res = lines and result_of(lines, names[trace])
                good = bool(res) and res["correct"] and res["failed"] == 0
                print("SMOKE %-14s trace=%d %s" % (w, trace, "ok" if good else "FAILED"))
                ok = ok and good
        sys.exit(0 if ok else 1)

    if a.workload not in ALL_WORKLOADS:
        sys.exit("perfbench: unknown workload %r; known: %s" % (a.workload, ", ".join(ALL_WORKLOADS)))
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    lines = run_java(cp, digest, args, a.trace == 1, start + RUN_LIMIT_S)
    res = lines and result_of(lines, names[a.trace])
    if not res:
        sys.exit(1)
    print("\n".join(lines[:-1]))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
