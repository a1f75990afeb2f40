#!/usr/bin/env python3
"""Benchmark of the liftgeo command line: cut, cover and regions.

Run from the repository root:

    python3 perfbench/run.py --workload cut_zn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload as a closed loop with a single client and no
think time: it writes the next operation's body and tableau files (from the
seeded generator in gen.py), calls ``liftgeo.cli.main`` in-process on them,
checks the report with the independent oracle in oracle.py, and repeats.
Only the CLI call is timed; generation and checks sit outside it.  The loop
stops at the first end of a round (one operation per family) after
``--seconds`` of CLI time and the workload's minimum number of operations.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation with the layer wrappers of tracing.py installed and reports
per-layer calls, self times and work counts.  Every fourth operation also
runs plain (alternating which goes first); on those, traced minus plain CLI
time is the tracing overhead, and the two reports must be identical.
``--workload all`` runs every workload both ways in child processes and
prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
(``info``) carries the fail ratio, sample counts and the sha256 of the
concatenated CLI stdout, so that reports can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 15
WALL_LIMIT_S = 150.0  # a run stops early rather than last past 180 s
TWIN_EVERY = 4  # traced runs also time every 4th operation without tracing
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import liftgeo, liftgeo.cli\n"
    "t1 = time.perf_counter()\n"
    "if not liftgeo.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit(3)\n"
    "print(repr(t1 - t0))\n"
)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import liftgeo and its CLI.

    The first child, which may compile bytecode, is not counted."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(proc.stdout))
    return statistics.median(times)


def import_liftgeo():
    sys.path.insert(0, str(SRC))
    import liftgeo.cli

    if not Path(liftgeo.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"liftgeo was imported from {liftgeo.__file__}, not {SRC}")
    return liftgeo.cli


def call_cli(cli, argv: list[str]) -> tuple[float, object, str, str]:
    """Time one in-process CLI call; returns (seconds, exit code, stdout,
    stderr).  An exception from the program is reported as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # counted as a failed operation
        code = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


def write_inputs(op: dict, workdir: Path) -> list[str]:
    body = workdir / "body.json"
    body.write_text(json.dumps(op["body"], indent=2) + "\n")
    argv = [op["cmd"], str(body)]
    if op["tableau"] is not None:
        row = workdir / "row.json"
        row.write_text(json.dumps(op["tableau"], indent=2) + "\n")
        argv.append(str(row))
    return argv + ["--window", "10"]


def check(op: dict, idx: int, seed: int, code, text: str, stats: dict) -> list[str]:
    if op["cmd"] == "cut":
        problems, tight = oracle.check_cut(op["body"], op["tableau"], text, code)
        stats["int_columns"] = stats.get("int_columns", 0) + sum(
            1 for c in op["tableau"]["columns"] if c["kind"] == "integer"
        )
        stats["grid_tight"] = stats.get("grid_tight", 0) + tight
        return problems
    if op["cmd"] == "cover":
        problems = oracle.check_cover(op["body"], text, code)
        if code in (0, 1):
            key = "unique" if code == 0 else "not_unique"
            stats[key] = stats.get(key, 0) + 1
        return problems
    rng = random.Random(f"rays:{seed}:{idx}")
    return oracle.check_regions(op["body"], text, code, rng)


def percentile(samples: list[float], p: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup_s = None if trace else measure_setup()
    cli = import_liftgeo()
    workload = gen.WORKLOADS[name]
    per_round = gen.round_size(name)
    tracer = tracing.Tracer() if trace else None
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    latencies: list[float] = []
    busy = 0.0
    twin_plain_s = twin_traced_s = 0.0
    twins = 0
    failed = 0
    failures: list[dict] = []
    stats: dict = {}
    digest = hashlib.sha256()
    wall0 = time.perf_counter()
    truncated = False
    try:
        for idx, op in enumerate(gen.stream(name, seed)):
            if idx % per_round == 0 and busy >= seconds and idx >= workload.min_ops:
                break
            if time.perf_counter() - wall0 > WALL_LIMIT_S:
                truncated = True
                break
            argv = write_inputs(op, workdir)
            if trace:
                runs = {}
                twin = (False, True) if idx % (2 * TWIN_EVERY) == 0 else (True, False)
                for traced in twin if idx % TWIN_EVERY == 0 else (True,):
                    if traced:
                        tracer.install()
                    try:
                        runs[traced] = call_cli(cli, argv)
                    finally:
                        tracer.uninstall()
                dt, code, text, err = runs[True]
                mismatch = False
                if False in runs:
                    twin_plain_s += runs[False][0]
                    twin_traced_s += dt
                    twins += 1
                    mismatch = runs[False][1:3] != (code, text)
            else:
                dt, code, text, err = call_cli(cli, argv)
                mismatch = False
            latencies.append(dt)
            busy += dt
            if idx < workload.min_ops:
                digest.update(text.encode())
            problems = check(op, idx, seed, code, text, stats)
            if mismatch:
                problems.append("traced and plain runs differ in exit code or stdout")
            if problems:
                failed += 1
                if len(failures) < 5:
                    failures.append({"op": idx, "family": op["family"], "problems": problems[:3],
                                     "stderr": err[-500:], "body": op["body"], "tableau": op["tableau"]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    n = len(latencies)
    p90 = percentile(latencies, 90)
    info = {
        "info": {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "ops": n,
            "rounds": n // per_round,
            "failed": failed,
            "fail_ratio": failed / n if n else 1.0,
            "cli_busy_s": busy,
            "wall_s": time.perf_counter() - wall0,
            "samples_above_p90": sum(1 for t in latencies if t > p90),
            "stdout_sha256": digest.hexdigest() if n >= workload.min_ops else None,
            "stdout_sha256_ops": workload.min_ops,
            "truncated": truncated,
            **stats,
        }
    }
    print(json.dumps(info, sort_keys=True))
    for f in failures:
        print(json.dumps({"failure": f}, sort_keys=True), file=sys.stderr)
    if trace:
        values = tracer.metrics(twin_traced_s, twin_plain_s, twins)
        units = {s["name"]: s["unit"] for s in tracing.metric_specs()}
        if tracer.missing:
            print(f"not found in liftgeo, reported as 0: {', '.join(tracer.missing)}", file=sys.stderr)
    else:
        values = {
            "ops_per_s": (n - failed) / busy,
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * p90,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": failed == 0 and not truncated,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, plain then traced, each in its own process."""
    status = 0
    for name in gen.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            info = json.loads(lines[-2])["info"]
            result = json.loads(lines[-1])
            print(f"== {name} trace={trace}: ops={info['ops']} failed={info['failed']} "
                  f"fail_ratio={info['fail_ratio']:.4f} (ratio) "
                  f"above_p90={info['samples_above_p90']} stdout_sha256={info['stdout_sha256']}")
            for key, m in result["metrics"].items():
                if trace and m["value"] == 0:
                    continue  # a layer this workload never reaches
                print(f"  {key:48s} {m['value']:>14.6g} {m['unit']}")
            if not result["correct"]:
                status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "liftgeo" / "__init__.py").is_file():
        print(f"liftgeo sources not found under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still removes its input files (finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
