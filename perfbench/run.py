#!/usr/bin/env python3
"""Build and run the VISA campaign benchmark.

    python3 perfbench/run.py --workload visa-fig2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form configures and builds perfbench/ (which compiles the
simulator from ../src) into .bench_build/ (or $CARGO_TARGET_DIR), runs
one workload and passes its output through: the last line of stdout is
the result JSON. Per-unit times, the host identity and, for traced
runs, the span log are written to .bench_build/results/.

--smoke runs every workload briefly, twice untraced and once traced,
and checks that each run is correct, that the digest repeats, and that
every metric BENCHMARK.json names is printed with its unit.

See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("visa-fig2", "chip-sched", "fuzz-verify")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configure (first time) and build; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs,
                    "--target", "visa-perfbench"],
                   stdout=sys.stderr, check=True)
    return bdir / "visa-perfbench"


def source_id():
    """git commit when available, plus a hash of the sources built."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "nogit"
    h = hashlib.sha256()
    files = [p for base in ("src", "bench", "perfbench")
             for p in (ROOT / base).rglob("*")
             if p.is_file() and p.suffix in (".cc", ".hh", ".txt", ".py")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return f"{commit}:{h.hexdigest()[:16]}"


def run_one(binary, workload, seed, seconds, trace, sid, capture=False):
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(results), "--source-id", sid]
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def smoke(binary, sid):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for wl in names:
        digests = []
        for trace in (0, 0, 1):
            p = run_one(binary, wl, 1, 1, trace, sid, capture=True)
            lines = p.stdout.strip().splitlines()
            tag = f"{wl} trace {trace}"
            if p.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {p.returncode}: "
                                f"{p.stderr.strip()[-300:]}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                problems.append(f"{tag}: correct={res['correct']} "
                                f"failed={res['failed']}")
            got = res["metrics"]
            for name, unit in want[trace].items():
                if name not in got:
                    problems.append(f"{tag}: metric {name} missing")
                elif got[name]["unit"] != unit:
                    problems.append(f"{tag}: metric {name} unit "
                                    f"{got[name]['unit']}, want {unit}")
            extra = set(got) - set(want[trace])
            if extra:
                problems.append(f"{tag}: unlisted metrics {sorted(extra)}")
            m = re.search(r"^# workload .* digest ([0-9a-f]+)$", p.stdout,
                          re.M)
            digests.append(m.group(1) if m else None)
            log(f"{tag}: {res['attempted']} units, digest "
                f"{digests[-1]}, ok")
        if len(set(digests)) != 1:
            problems.append(f"{wl}: digest differs across runs: {digests}")
    for msg in problems:
        log(f"SMOKE FAIL {msg}")
    log("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short check of every workload and metric")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    try:
        binary = build(build_dir())
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    sid = source_id()
    if args.smoke:
        return smoke(binary, sid)
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    return run_one(binary, args.workload, args.seed, seconds, args.trace,
                   sid).returncode


if __name__ == "__main__":
    sys.exit(main())
