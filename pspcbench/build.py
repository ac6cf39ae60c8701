"""Build file of the benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (pspcbench/src) into .bench_build/pspcbench/classes, with
the Scala compiler that ships in Spark's jars directory ($SPARK_HOME/jars,
or next to spark-submit on PATH). Rebuilds only when a source changed.

    python3 pspcbench/build.py
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BENCH_SRC = ROOT / "pspcbench" / "src"
OUT = ROOT / ".bench_build" / "pspcbench"
CLASSES = OUT / "classes"


def fail(msg):
    print(f"pspcbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(os.path.realpath(shutil.which("spark-submit"))).parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("no Spark jars: set SPARK_HOME or put spark-submit on PATH")
    return Path(home) / "jars"


def sources():
    if not PROGRAM_SRC.is_dir():
        fail(f"program sources not found at {PROGRAM_SRC.relative_to(ROOT)}")
    return sorted(PROGRAM_SRC.rglob("*.scala")) + sorted(BENCH_SRC.rglob("*.scala"))


def fingerprint(files):
    h = hashlib.sha256(Path(__file__).read_bytes())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compile if needed; return (classes dir, Spark jars dir, source fingerprint)."""
    jars = spark_jars()
    files = sources()
    digest = fingerprint(files)
    stamp = OUT / "stamp"
    if CLASSES.is_dir() and stamp.is_file() and stamp.read_text() == digest:
        return CLASSES, jars, digest
    compiler = [next(jars.glob(f"scala-{name}-2.13.*.jar"), None) for name in ("compiler", "library", "reflect")]
    if None in compiler:
        fail(f"no Scala 2.13 compiler in {jars}")
    tmp = OUT / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(map(str, compiler)),
           "scala.tools.nsc.Main", "-nowarn", "-usejavacp", "-cp", str(jars / "*"),
           "-d", str(tmp)] + [str(f) for f in files]
    print(f"pspcbench: compiling {len(files)} sources", file=sys.stderr)
    if subprocess.run(cmd, timeout=800).returncode != 0:
        fail("compilation failed")
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    stamp.write_text(digest)
    return CLASSES, jars, digest


if __name__ == "__main__":
    print(build()[0])
