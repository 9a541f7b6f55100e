#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json parses and has the shape its readers expect
(keys, name and unit syntax, bounds, a setup_s metric), that every
metric it names is printed (in the report and in the JSON result) with
its unit, that no printed metric is missing from it,
that every per-layer metric is mapped in perfbench/METRICS.md, that the
short runs are correct, and that run.py fails without a result in a
directory holding only the benchmark's own files.
"""
import json
import os
import re
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# "<name> <value> <unit>" lines of sqp_perfbench's human-readable report.
REPORT_LINE = re.compile(r"^(\S+)\s+(-?[0-9][0-9.e+-]*)\s+(\S+)$")
# Short runs: one pass over a few sessions (multi-user needs one group).
SHORT_SESSIONS = {"multiuser-sharded": 3}


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = set()
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}, w
        assert NAME.match(w["name"]) and "\n" not in w["why"], w
        assert len(w["why"]) <= 200, w["name"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
        assert m["name"] not in names, f"duplicate metric {m['name']}"
        names.add(m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_run(spec, workload, trace):
    sessions = SHORT_SESSIONS.get(workload, 2)
    out, result = run.run_bench(workload, 7, 0, trace, sessions)
    run.check_result(spec, result, trace)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    printed = {}
    for line in out.splitlines()[:-1]:
        m = REPORT_LINE.match(line.strip())
        if m:
            printed[m.group(1)] = m.group(3)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    assert printed == expected, (
        f"report lines differ: missing {sorted(set(expected) - set(printed))}"
        f", unlisted {sorted(set(printed) - set(expected))}")


def check_metric_map(spec):
    with open(os.path.join(run.ROOT, "perfbench", "METRICS.md")) as f:
        text = f.read()
    unmapped = [m["name"] for m in spec["per_layer"]
                if f"`{m['name']}`" not in text]
    assert not unmapped, f"per-layer metrics missing from METRICS.md: {unmapped}"


def check_bare_directory_fails(spec):
    """Without src/ the build fails: non-zero exit and no result line."""
    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare directory run succeeded"
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{"), "bare run printed a result"


def main():
    spec = run.load_spec()
    check_spec(spec)
    check_metric_map(spec)
    assert run.build(), "build failed"
    for w in spec["workloads"]:
        for trace in (False, True):
            check_run(spec, w["name"], trace)
            print(f"ok  {w['name']} trace {int(trace)}")
    check_bare_directory_fails(spec)
    print("ok  bare directory fails without a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
