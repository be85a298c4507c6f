#!/usr/bin/env python3
"""Build file of the benchmark.

Compiles the program's Scala sources (src/main/scala) together with the
benchmark's own (perfbench/src) into .bench_build/perfbench/classes, using
the Scala compiler that ships in Spark's jars directory, and writes the
manifest-only jar that loads the trace agent. Nothing is rebuilt while the
sources are unchanged.

    python3 perfbench/build.py
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(WORK, "classes")
AGENT_JAR = os.path.join(WORK, "trace-agent.jar")


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        exe = shutil.which("spark-submit")
        if exe:
            home = os.path.dirname(os.path.dirname(os.path.realpath(exe)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise RuntimeError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def sources():
    prog = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"),
                            recursive=True))
    if not prog:
        raise RuntimeError("no program sources under src/main/scala")
    own = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    return prog + own


def source_digest(srcs):
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def compiler_jars(jars):
    found = []
    for part in ("compiler", "library", "reflect"):
        hits = sorted(glob.glob(os.path.join(jars, f"scala-{part}-2.13.*.jar")))
        if not hits:
            raise RuntimeError(f"scala-{part} jar not found in {jars}")
        found.append(hits[-1])
    return found


def build():
    """Compile if needed; returns (classpath, source digest)."""
    jars = spark_jars()
    srcs = sources()
    digest = source_digest(srcs)
    stamp = os.path.join(WORK, "classes.stamp")
    fresh = os.path.exists(stamp) and open(stamp).read() == digest
    if not fresh:
        shutil.rmtree(CLASSES, ignore_errors=True)
        os.makedirs(CLASSES)
        argfile = os.path.join(WORK, "sources.txt")
        with open(argfile, "w") as f:
            f.write("\n".join(srcs) + "\n")
        cmd = ["java", "-Xss64m", "-Xmx1g", "-XX:-UsePerfData", "-cp", ":".join(compiler_jars(jars)),
               "scala.tools.nsc.Main", "-nowarn", "-d", CLASSES,
               "-classpath", os.path.join(jars, "*"), "@" + argfile]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=600)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            raise RuntimeError("compilation failed")
        with zipfile.ZipFile(AGENT_JAR, "w") as z:
            z.writestr("META-INF/MANIFEST.MF",
                       "Manifest-Version: 1.0\nPremain-Class: perfbench.TraceAgent\n\n")
        with open(stamp, "w") as f:
            f.write(digest)
    return CLASSES + ":" + os.path.join(jars, "*"), digest


if __name__ == "__main__":
    try:
        cp, digest = build()
    except RuntimeError as e:
        sys.exit(f"perfbench build: {e}")
    print(f"built {digest} into {CLASSES}")
