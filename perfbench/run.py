#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

    python3 perfbench/run.py --workload kv_mem --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The driver is built with CMake into
.bench_build/perfbench-build (incrementally, so only the first run pays for
the compile); build output goes to stderr. The driver's stdout is passed
through unchanged, so the last stdout line is its JSON result, and the exit
code is the driver's: nonzero when an operation failed or an audit found a
violation. Traced runs also write their spans under .bench_build/perfbench/.

--self-test runs every workload briefly in both modes, checks that each
metric BENCHMARK.json names is printed with its declared unit, and checks
that erasing one loaded key before the audit makes the command fail.
"""
import argparse
import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench-build"
OUT = ".bench_build/perfbench"
DRIVER = BUILD / "perfbench_driver"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. False on any failure."""
    if not (ROOT / "include" / "dlht" / "dlht.hpp").is_file():
        log(f"library headers not found under {ROOT / 'include'}; "
            "run from a full checkout of the repository")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if r.returncode != 0:
            log(f"build step failed ({r.returncode}): {' '.join(cmd)}")
            return False
    return DRIVER.is_file()


def run_driver(args):
    """Run the driver to completion; returns (exit code, stdout text)."""
    cmd = [str(DRIVER), "--out", OUT] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the driver.
        log(f"driver exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, ""
    return r.returncode, r.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return res


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, wanted in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            before = len(problems)
            code, out = run_driver(["--workload", name, "--seed", "101",
                                    "--seconds", "1", "--trace", trace])
            res = result_of(out)
            tag = f"{name} --trace {trace}"
            if code != 0 or res is None or res["correct"] is not True:
                problems.append(f"{tag}: exit {code}, result {res}")
                continue
            got = res["metrics"]
            for m in wanted:
                v = got.get(m["name"])
                if v is None:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif v.get("unit") != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit {v.get('unit')}"
                                    f" != {m['unit']}")
                elif not (isinstance(v.get("value"), (int, float))
                          and math.isfinite(v["value"])):
                    problems.append(f"{tag}: {m['name']} value {v}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{tag}: unlisted metrics {sorted(extra)}")
            if not (res["attempted"] >= 1 and res["failed"] == 0):
                problems.append(f"{tag}: attempted/failed {res['attempted']}"
                                f"/{res['failed']}")
            log(f"self-test {tag}: "
                + ("ok" if len(problems) == before else "FAILED"))
    # Negative case: one loaded key erased through the public API before the
    # audit. kv_mem covers the wire audit kv_durable shares; table_dram covers
    # the in-process one.
    for name in ("kv_mem", "table_dram"):
        code, out = run_driver(["--workload", name, "--seed", "102",
                                "--seconds", "1", "--trace", "0",
                                "--fault", "erase-key"])
        res = result_of(out)
        if code == 0 or res is None or res["correct"] is not False \
                or res["failed"] < 1:
            problems.append(f"{name} erase-key: expected a failed audit, got "
                            f"exit {code}, result {res}")
        else:
            log(f"self-test {name} erase-key: audit failed as it must "
                f"(exit {code}, failed {res['failed']})")
    for p in problems:
        log(f"SELF-TEST FAIL: {p}")
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--fault", choices=["erase-key"],
                    help="erase one loaded key before the audit (self-test)")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 2
    if a.self_test:
        return self_test()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace]
    if a.fault:
        args += ["--fault", a.fault]
    code, out = run_driver(args)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and result_of(out) is None:
        log("driver printed no result line")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
