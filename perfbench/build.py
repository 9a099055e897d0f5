"""Build file of the benchmark: compiles the codec packages of the repo
(src/main/scala/repro/{core,coding,data,metrics,sparkio}) together with the
harness in perfbench/src into one class directory, with the Scala compiler
that ships in the Spark distribution whose jars build.sbt compiles against.
No sbt and no dependency resolution.

    python3 perfbench/build.py            # builds into .bench_build/perfbench

The output is rebuilt only when a source file changes (a SHA-256 stamp over
every compiled file). CARGO_TARGET_DIR, when set, replaces `.bench_build`.
"""

import glob
import hashlib
import os
import re
import subprocess
import sys

SCALA_VERSION = "2.13.17"
# The codec layers the benchmark calls. The rest of src/main (baselines,
# bench tables, the DuckDB oracle) is not on the benchmark's path.
CODEC_PACKAGES = ["core", "coding", "data", "metrics", "sparkio"]


def spark_jars(root):
    """The Spark jars directory named by build.sbt's `sparkJars`."""
    with open(os.path.join(root, "build.sbt")) as f:
        found = re.search(r'val sparkJars = file\("([^"]+)"\)', f.read())
    if not found:
        raise SystemExit("perfbench: build.sbt names no sparkJars directory")
    return found.group(1)


def jar(root, name):
    return os.path.join(spark_jars(root), name)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def sources(root):
    srcs = []
    for pkg in CODEC_PACKAGES:
        pkg_dir = os.path.join(root, "src", "main", "scala", "repro", pkg)
        found = sorted(glob.glob(os.path.join(pkg_dir, "*.scala")))
        if not found:
            raise SystemExit(f"perfbench: no Scala sources in {pkg_dir}")
        srcs += found
    srcs += sorted(glob.glob(os.path.join(root, "perfbench", "src", "**", "*.scala"), recursive=True))
    return srcs


def build(root):
    """Compile if needed; return the class directory."""
    srcs = sources(root)
    digest = hashlib.sha256()
    for path in srcs:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = digest.hexdigest()
    out = build_dir(root)
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "classes.sha256")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return classes
    os.makedirs(classes, exist_ok=True)
    for old in glob.glob(os.path.join(classes, "**", "*.class"), recursive=True):
        os.remove(old)
    compiler_cp = os.pathsep.join(
        jar(root, f"scala-{m}-{SCALA_VERSION}.jar") for m in ("compiler", "library", "reflect"))
    compile_cp = os.pathsep.join(sorted(glob.glob(os.path.join(spark_jars(root), "*.jar"))))
    cmd = ["java", "-Xss4m", "-Xmx1g", "-cp", compiler_cp, "scala.tools.nsc.Main",
           "-nowarn", "-classpath", compile_cp, "-d", classes] + srcs
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: compilation failed ({proc.returncode})")
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classes


if __name__ == "__main__":
    print(build(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
