#!/usr/bin/env python3
"""ccss benchmark: one run of one workload.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0

Run from the root of a ccss checkout; the library is imported from its
`src/` directory and the justness oracle from `tests/`.  `--trace 0`
reports the end-to-end metrics of BENCHMARK.json, `--trace 1` the
per-layer metrics of a separately traced run.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`; the lines before it give every metric by name with its
unit and sample count, the environment, and any failed check.  The exit
code is 0 when every check passed, 1 when one failed and 2 when the
checkout has no ccss sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "queries")
RECORDS = HERE / ".records"

# per-layer figures that depend only on the code and the inputs
COUNTS = ("lts.states", "lts.transitions", "sos.derivations",
          "bisim.union_states")
# per-layer figures a traced verify run also prints for each flavor
FLAVOR_LAYERS = ("lts.", "sos.", "verify.")


def _load():
    """Import the checkout's ccss and oracle, never an installed copy."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "ccss" / "__init__.py").is_file() \
            or not (tests / "_oracle.py").is_file():
        raise ImportError(f"no ccss sources under {ROOT}")
    sys.path[:0] = [str(src), str(tests)]
    import ccss
    if pathlib.Path(ccss.__file__).resolve().parent != src / "ccss":
        raise ImportError(f"ccss imported from {ccss.__file__}")
    import workloads
    return workloads


def environment():
    """Where the numbers come from: results from different interpreters
    or machines must not be compared."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ccss").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout: the source hash identifies the code


def check_repeats(workload, seed, out, source):
    """Exact counts must repeat and are never averaged away: across the
    traced passes of a verify run, which all do identical work, and
    across runs of the same source, recorded under `perfbench/.records`:
    model sizes for every run, per-unit counts for the same workload (and
    seed, on queries)."""
    units = [{k: v for k, v in u.items()
              if k.endswith("_calls") or k in COUNTS} for u in out.layers]
    if workload != "queries":
        for i, unit in enumerate(units[1:], 1):
            diff = sorted(k for k in unit if unit[k] != units[0][k])
            if diff:
                out.mismatch(f"counts of pass {i} differ from pass 0: {diff}")
    path = RECORDS / f"{source[:16]}.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    sizes = record.setdefault("sizes", {})
    for model, size in out.sizes.items():
        known = sizes.setdefault(model, list(size))
        if known != list(size):
            out.mismatch(f"{model}: {list(size)} states/transitions, an "
                         f"earlier run of the same source explored {known}")
    key = workload + (f"/{seed}" if workload == "queries" else "")
    previous = record.get(key, [])
    for i, (mine, theirs) in enumerate(zip(units, previous)):
        diff = sorted(k for k in mine if theirs.get(k) != mine[k])
        if diff:
            out.mismatch(f"counts of unit {i} differ from an earlier run of "
                         f"the same source: {diff}")
    if len(units) > len(previous):
        record[key] = units
    RECORDS.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)


def end_to_end(workload, out):
    """{metric: (value, samples)}; each workload asks two kinds of
    question, so the two latency metrics carry both names."""
    light, heavy = (("lasso_s", "bisim_s") if workload == "queries"
                    else ("safety_s", "liveness_s"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(out.setup), len(out.setup)),
        "wall_s": (statistics.median(out.passes), len(out.passes)),
        "safety_or_lasso_s": (statistics.median(out.parts[light]),
                              len(out.parts[light])),
        "liveness_or_bisim_s": (statistics.median(out.parts[heavy]),
                                len(out.parts[heavy])),
        "peak_rss_mb": (rss_mb, 1),
    }


def detail(out, wl):
    """The workload's own figures: per-part medians (rescaled to the
    reference speed, then as measured), per-query latency percentiles, and
    the host's speed, each as (name, value, unit, samples)."""
    rows = [(part, statistics.median(values), "s", len(values))
            for part, values in out.parts.items()]
    rows += [(f"raw.{part}", statistics.median(values), "s", len(values))
             for part, values in out.raw_parts.items()]
    rows.append(("speed.probe_ms", out.speed.median_probe() * 1000, "ms",
                 len(out.speed.durations)))
    for kind, values in out.latencies.items():
        rows.append((f"{kind}_p50_ms", statistics.median(values) * 1000,
                     "ms", len(values)))
        tail = wl.tail_percentile(values)
        if tail:
            rows.append((f"{kind}_p{tail[0]}_ms", tail[1] * 1000, "ms",
                         len(values)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wl = _load()
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot load ccss: {exc}", file=sys.stderr)
        return 2
    env = environment()
    if args.workload == "queries":
        out = wl.run_queries(args.seed, args.seconds, args.trace)
    else:
        out = wl.run_verify(args.seconds, args.trace)

    unit_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.trace:
        layers = wl.tracing.median_layers(out.layers)
        layers["trace.overhead_s"] = (statistics.median(out.traced_passes)
                                      - statistics.median(out.passes))
        values = {k: (v, len(out.layers)) for k, v in layers.items()}
        wanted = spec["per_layer"]
        extra = [(f"{flavor}.{k}", v, unit_of.get(k, ""), len(units))
                 for flavor, units in out.flavor_layers.items()
                 for k, v in wl.tracing.median_layers(units).items()
                 if k.startswith(FLAVOR_LAYERS)]
    else:
        values = end_to_end(args.workload, out)
        wanted = spec["end_to_end"]
        extra = detail(out, wl)
    check_repeats(args.workload, args.seed, out, env["source_sha256"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"environment {json.dumps(env, sort_keys=True)}")
    metrics = {}
    rows = []
    for m in wanted:
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        rows.append((m["name"], value, m["unit"], samples))
    for name, value, unit, samples in rows + extra:
        print(f"  {name:40} {value:.6g} {unit}  [{samples} samples]")
    failed = len(out.failures)
    print(f"  {'fail_ratio':40} {failed / out.attempted:.6g}  "
          f"[{failed} of {out.attempted} operations]")
    if out.unchecked:
        print(f"  {'unchecked':40} {out.unchecked}  [answers no reference "
              f"can judge, of {out.attempted}]")
    for name, value in out.setup_layers.items():
        print(f"  set-up {name:33} {value:.6g}")
    for model, size in sorted(out.sizes.items()):
        print(f"  model {model}: {size[0]} states, {size[1]} transitions")
    for problem in out.failures[:20] + out.mismatches[:20]:
        print(f"  FAILED {problem}")
    correct = not out.failures and not out.mismatches
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
