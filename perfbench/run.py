#!/usr/bin/env python3
"""Benchmark of the connected-components reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository. The first run builds the program and
the benchmark driver from source with sbt (perfbench/build.sbt depends on
the repository's own build); later runs reuse the build while neither a
source file nor a file on the built classpath has changed. Each run then starts one JVM with one local Spark session
(see Main.scala), labels the workload's graph for the given seconds and
checks every labelling against union-find. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.

--selftest runs every workload at a tiny size with and without tracing,
checks that the printed metric names and units are the ones BENCHMARK.json
declares and that perfbench/metrics.json explains every per-layer metric,
and checks that the partition check rejects a labelling with two
components merged.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CLASSPATH = BENCH / "target" / "bench-classpath.txt"

HEAP = "3g"
RUN_LIMIT_S = 175    # a run, including JVM start, must end within this
BUILD_LIMIT_S = 840  # a run that also builds must end within this

# Module access Spark needs on Java 17 (what spark-submit adds by itself).
JAVA_OPENS = [
    f"--add-opens=java.base/{pkg}=ALL-UNNAMED"
    for pkg in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
                "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
                "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]

STARTED = time.monotonic()


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, cwd, limit_s, stdout, env=None):
    """Run cmd in its own process group; kill the group if it outlives limit_s."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, limit_s))
        return proc.returncode, out
    except BaseException:
        for sig, wait_s in ((signal.SIGTERM, 5), (signal.SIGKILL, 30)):
            try:
                os.killpg(proc.pid, sig)
                proc.wait(timeout=wait_s)
                break
            except (ProcessLookupError, subprocess.TimeoutExpired):
                continue
        raise


def source_files():
    """Every file the build reads, program and benchmark."""
    roots = [ROOT / "build.sbt", ROOT / "project", ROOT / "src" / "main", ROOT / "jobs",
             BENCH / "build.sbt", BENCH / "project", BENCH / "src"]
    for r in roots:
        if r.is_file():
            yield r
        elif r.is_dir():
            for p in sorted(r.rglob("*")):
                rel = p.relative_to(r).parts
                if p.is_file() and "target" not in rel and "project" not in rel[:-1]:
                    yield p


def classpath_stamp(cp):
    """Path, size and modification time of every file on the classpath.

    The program's classes live in the root build's target/, which a root
    `sbt compile` or `sbt test` rewrites; this notices that, so the sources
    matching the recorded stamp is not taken to mean the classes do.
    """
    digest = hashlib.sha256()
    for entry in cp.split(os.pathsep):
        p = Path(entry)
        for f in sorted(p.rglob("*")) if p.is_dir() else [p]:
            if f.is_file():
                st = f.stat()
                digest.update(f"{f}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return digest.hexdigest()


def build():
    """Compile with sbt unless the recorded build matches the sources and the
    classpath is as that build left it."""
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources next to {BENCH.name}/; run from a full checkout")
    digest = hashlib.sha256()
    for p in source_files():
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    stamp = digest.hexdigest()
    if CLASSPATH.is_file():
        recorded, classes, cp = (CLASSPATH.read_text().split("\n") + ["", ""])[:3]
        if recorded == stamp and classes == classpath_stamp(cp):
            return cp, False
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Djava.io.tmpdir={tmp}", "-J-XX:-UsePerfData",
           "compile", "export Runtime/fullClasspath"]
    code, out = run_child(cmd, BENCH, BUILD_LIMIT_S - 120 - (time.monotonic() - STARTED),
                          subprocess.PIPE)
    sys.stderr.write(out)
    lines = [l for l in out.splitlines() if not l.startswith("[") and (".jar" in l or "classes" in l)]
    if code != 0 or not lines:
        fail(f"build failed (sbt exit {code})")
    cp = lines[-1].strip()
    CLASSPATH.parent.mkdir(parents=True, exist_ok=True)
    CLASSPATH.write_text(f"{stamp}\n{classpath_stamp(cp)}\n{cp}\n")
    return cp, True


def driver(cp, args, limit_s, capture=False):
    """Run the Scala driver; stream its output unless capture is set."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xmx{HEAP}", "-XX:-UsePerfData", *JAVA_OPENS,
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={tmp}",
           "-cp", cp, "repro.perfbench.Main", *args, "--out", str(OUT)]
    # SPARK_LOCAL_DIRS would override spark.local.dir; keep Spark's local files here.
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(OUT / "spark-local"))
    return run_child(cmd, ROOT, limit_s, subprocess.PIPE if capture else None, env)


def result_of(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(cp):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((BENCH / "metrics.json").read_text())
    problems = []
    for kind in ("end_to_end", "per_layer"):
        missing = {m["name"] for m in spec[kind]} - set(notes[kind])
        if missing:
            problems.append(f"metrics.json does not explain {kind} {sorted(missing)}")
    for w in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = driver(cp, ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                                    "--trace", trace, "--tiny"], RUN_LIMIT_S, capture=True)
            sys.stderr.write(out)
            res = result_of(out) if code == 0 else None
            if res is None:
                problems.append(f"{w['name']} trace {trace}: exit {code}, no result")
                continue
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace {trace}: metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(want.items())}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: {res['failed']} of "
                                f"{res['attempted']} labellings failed")
    code, out = driver(cp, ["--workload", "streets-cr", "--check-bad"], RUN_LIMIT_S, capture=True)
    print(out, end="")
    if code != 0:
        problems.append("the partition check accepted a wrong labelling")
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(parents=True, exist_ok=True)
    cp, built = build()
    if a.selftest:
        return selftest(cp)
    limit = (BUILD_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - STARTED)
    code, _ = driver(cp, ["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace", a.trace], limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
