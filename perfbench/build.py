"""Build file of the benchmark: compiles the program (src/main/scala) and the
harness (perfbench/src) with the Scala compiler that ships in Spark's jars,
packs the classes into a jar, and records a class-data-sharing archive of a
short training run so that later JVMs start in ~3 s instead of ~7 s.

Everything goes to .bench_build/build-<hash of every source and jar name>,
so a checkout builds once and a source change forces a rebuild. No sbt and no
network: the classpath is exactly Spark's jar directory, found from
SPARK_HOME or from `spark-submit` on PATH.

    python3 perfbench/build.py        # build if needed, print the build directory
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
OUT = os.path.join(ROOT, ".bench_build")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
HARNESS_SRC = os.path.join(HERE, "src")

# Spark 4 on JDK 17 needs the module system opened up, as spark-submit does.
JVM_FLAGS = [
    "-Xms2g",
    "-Xmx2g",
    "-XX:-UsePerfData",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}",
    f"-Dlog4j.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


class BuildError(Exception):
    pass


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found (set JAVA_HOME or put java on PATH)")
    return exe


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not glob.glob(os.path.join(jars, "spark-core_*.jar")):
        raise BuildError("no Spark jars found (set SPARK_HOME)")
    return jars


def sources():
    prog = sorted(glob.glob(os.path.join(PROGRAM_SRC, "**", "*.scala"), recursive=True))
    if not prog:
        raise BuildError(f"no program sources under {os.path.relpath(PROGRAM_SRC, ROOT)}")
    return prog + sorted(glob.glob(os.path.join(HARNESS_SRC, "**", "*.scala"), recursive=True))


def build_inputs():
    """Every file a build depends on: the sources, and this file and the
    log configuration (JVM flags and logging shape the recorded archive)."""
    return sources() + [os.path.abspath(__file__), os.path.join(HERE, "log4j2.properties")]


def main_command(build_dir, args, dump_archive=False):
    """JVM command running perfbench.Main from a build: it uses the build's
    class-data-sharing archive, or records it at exit with `dump_archive`."""
    jars = spark_jars()
    jsa = os.path.join(build_dir, "app.jsa")
    cds = [f"-XX:ArchiveClassesAtExit={jsa}.tmp"] if dump_archive else [f"-XX:SharedArchiveFile={jsa}"]
    classpath = os.path.join(build_dir, "app.jar") + os.pathsep + os.path.join(jars, "*")
    return [java(), *JVM_FLAGS, *cds, "-cp", classpath, "perfbench.Main", *args]


def compile_jar(build_dir, files, jars):
    compiler = [os.path.join(jars, n) for n in os.listdir(jars)
                if n.startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("Spark's jars lack the Scala compiler")
    classes = os.path.join(build_dir, "classes")
    os.makedirs(classes)
    argfile = os.path.join(build_dir, "scalac.args")
    with open(argfile, "w") as fh:
        jar_list = sorted(glob.glob(os.path.join(jars, "*.jar")))
        fh.write("-nowarn\n-classpath\n" + os.pathsep.join(jar_list) + "\n-d\n" + classes + "\n")
        fh.write("\n".join(files) + "\n")
    print(f"compiling {len(files)} sources into {os.path.relpath(build_dir, ROOT)}", file=sys.stderr)
    res = subprocess.run([java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
                          "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main", "@" + argfile],
                         stdout=sys.stderr, timeout=600)
    if res.returncode != 0:
        raise BuildError(f"scalac exited with {res.returncode}")
    # The class-data-sharing archive accepts jars only on the classpath.
    with zipfile.ZipFile(os.path.join(build_dir, "app.jar"), "w", zipfile.ZIP_STORED) as z:
        for d, _, fs in os.walk(classes):
            for f in sorted(fs):
                z.write(os.path.join(d, f), os.path.relpath(os.path.join(d, f), classes))
    shutil.rmtree(classes)
    os.remove(argfile)


def record_archive(build_dir):
    """Run a short traced `search` (it touches every layer) and keep the
    classes it loaded in app.jsa."""
    print("recording the class-data-sharing archive", file=sys.stderr)
    train = os.path.join(build_dir, "train")
    args = ["--workload", "search", "--seed", "0", "--seconds", "0", "--trace", "1", "--out", train]
    res = subprocess.run(main_command(build_dir, args, dump_archive=True), cwd=ROOT,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
    shutil.rmtree(train, ignore_errors=True)
    jsa = os.path.join(build_dir, "app.jsa")
    if res.returncode != 0 or not os.path.exists(jsa + ".tmp"):
        raise BuildError(f"training run exited with {res.returncode}")
    os.rename(jsa + ".tmp", jsa)


def ensure_built():
    """Build if needed; return the build directory."""
    jars = spark_jars()
    files = sources()
    digest = hashlib.sha256()
    for f in build_inputs():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    for j in sorted(os.listdir(jars)):
        digest.update(j.encode())
    build_dir = os.path.join(OUT, "build-" + digest.hexdigest()[:16])
    done = os.path.join(build_dir, ".complete")
    if os.path.exists(done):
        return build_dir
    shutil.rmtree(build_dir, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    try:
        compile_jar(build_dir, files, jars)
        record_archive(build_dir)
    except (BuildError, subprocess.TimeoutExpired, OSError):
        shutil.rmtree(build_dir, ignore_errors=True)
        raise
    open(done, "w").close()
    return build_dir


if __name__ == "__main__":
    try:
        print(ensure_built())
    except (BuildError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
