#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at minimum size (one pass or round), untraced and
traced, and checks that the last output line carries every metric of
BENCHMARK.json with its unit, and that a traced verify run reports each
flavor's exploration share.  It also checks that a deliberately wrong
expected verdict is counted as a failed operation, and that the
benchmark refuses to run without the ccss sources.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=600)


def check_result(workload, trace):
    proc = run("perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, (workload, trace, proc.stdout, proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, sorted(got)
    for metric in wanted:
        value = got[metric["name"]]
        assert value["unit"] == metric["unit"], (metric, value)
        assert isinstance(value["value"], (int, float)), (metric, value)
        if not trace:
            assert value["value"] > 0, (metric, value)
    if workload == "verify" and trace:
        # each flavor's share of verdict time in lts + sos
        for flavor in ("ccss", "ccs"):
            line = f"  {flavor}.verify.explore_share "
            assert any(row.startswith(line)
                       for row in proc.stdout.splitlines()), flavor
    print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_wrong_expectation():
    sys.path.insert(0, str(HERE))
    import run as bench
    wl = bench._load()
    expected = dict(wl.EXPECTED)
    expected[("peterson2", "ccss")] = (True, "violated", False)
    out = wl.run_verify(0, 0, expected=expected, entries=wl.CATALOG[:1])
    assert out.attempted == 2 and len(out.failures) == 1, out.failures
    print(f"ok  wrong expected verdict: fail_ratio "
          f"{len(out.failures) / out.attempted} ({out.failures[0]})")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".smoke-", dir=HERE) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, pathlib.Path(tmp) / path,
                            ignore=shutil.ignore_patterns(".*", "__pycache__"))
        proc = run(*SPEC["command"][1:], "--workload", "verify",
                   "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  refuses to run without the ccss sources")


def main():
    check_refuses_without_sources()
    check_wrong_expectation()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            check_result(workload, trace)
    print("smoke test passed")


if __name__ == "__main__":
    main()
