"""LCP benchmark entry point.

    python3 perfbench/run.py --workload md-temporal --seed 1 --seconds 20 --trace 0

Builds the harness (perfbench/build.py), then runs the workload in a fresh
JVM with fixed heap and collector. The JVM prints a detail line (settings,
every raw sample, archive digest, checks) and, last, the result line:
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics (README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import build  # noqa: E402

# Fixed JVM settings. The heap is fixed (-Xms = -Xmx) and ParallelGC replaces
# G1, whose pauses made per-rep compress times bimodal. Adaptive sizing is
# off so the young generation, and with it the GC rhythm, is the same in
# every run. md-temporal never loads Spark: its classpath has only
# the Scala library and zstd-jni.
GC_FLAGS = ["-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy", "-XX:+AlwaysPreTouch"]
# With background compilation at the default thresholds, LcpT.compress
# reached C2 only after about 70 s, and when each method got compiled
# differed between JVMs: per-run compress medians spread by about 20 %.
# -Xbatch compiles in the calling thread, so md-temporal's single client
# thread reaches the same compiled code in every JVM, and the scaled-down
# thresholds get it there within set-up. Spark's many threads stall on
# -Xbatch (a lake run did not finish in 180 s), so lake keeps the defaults.
MD_JIT_FLAGS = ["-Xbatch", "-XX:CompileThresholdScaling=0.1"]
WORKLOADS = {
    "md-temporal": {"heap": "2g", "spark": False, "jit": MD_JIT_FLAGS},
    "lake": {"heap": "3g", "spark": True, "jit": []},
}
SPARK_OPENS = ["--add-opens=java.base/" + p + "=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def jvm_timeout_s(seconds):
    """Set-up, warm-up and a traced run's replay come on top of the
    measured loop, which runs at least `seconds`."""
    return 120 + 2 * seconds


def classpath(classes, spark):
    jar_dir = build.spark_jars(ROOT)
    if spark:
        jars = sorted(os.path.join(jar_dir, j) for j in os.listdir(jar_dir) if j.endswith(".jar"))
    else:
        jars = [build.jar(ROOT, f"scala-library-{build.SCALA_VERSION}.jar")] + [
            os.path.join(jar_dir, j) for j in os.listdir(jar_dir) if j.startswith("zstd-jni-")]
    return os.pathsep.join([classes] + jars)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    classes = build.build(ROOT)
    out_dir = build.build_dir(ROOT)
    work = os.path.join(out_dir, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))

    spec = WORKLOADS[args.workload]
    cmd = ["java", f"-Xms{spec['heap']}", f"-Xmx{spec['heap']}"] + GC_FLAGS + spec["jit"] + [
        "-Djava.io.tmpdir=" + os.path.join(work, "tmp")]
    if spec["spark"]:
        cmd += SPARK_OPENS + ["-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")]
    cmd += ["-cp", classpath(classes, spec["spark"]), "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", out_dir, "--work", work]
    timeout = jvm_timeout_s(args.seconds)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} did not finish in {timeout:g} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(stdout)
        raise SystemExit(f"perfbench: {args.workload} failed with exit code {proc.returncode}")
    detail, result = lines[-2], json.loads(lines[-1])
    print(detail)
    print(json.dumps(result))
    if not result["correct"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
