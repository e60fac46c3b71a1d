"""Run every workload and print every metric by name and unit.

    python3 perfbench/report.py [--seeds 1-10] [--out FILE] [--against FILE]
    python3 perfbench/report.py --record-fingerprints 0-12

For each workload this makes one untraced run per seed and one traced run
at the first seed, each of BENCHMARK.json's ``run_seconds``, then prints:

* each end-to-end metric as its median and quartiles over the seeds, and
  its spread (quartile distance over median); the same for the two times
  ``unit_time_ref`` is the ratio of: the wall time of one unit in
  milliseconds and the reference kernel's time;
* the median and tail latency of one command over all runs, with the
  sample count;
* the tracing overhead: the traced run's unit_time_ref against the median
  of the untraced runs, and the part of it the span bookkeeping explains;
* whether the traced run wrote the same bytes as the untraced one;
* how much of the traced wall time lies outside the root ``cli.main``
  span, and how much of it no named layer below ``cli.main`` accounts
  for. (Self times always add up to the root span, by construction.)

``--out`` also writes all of it, with the environment, as JSON.
``--against`` compares the medians with those of an earlier ``--out`` file
and tells, per workload and metric, whether the change stays within the
metric's bound in BENCHMARK.json.

``--record-fingerprints`` reruns each workload on the given seeds and
stores the byte fingerprints of every command's output in
fingerprints.json, which run.py checks from then on. Only do this when the
program's output is meant to change, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from run import FINGERPRINTS, ROOT, BenchError, measure, tail, unit_costs
from workloads import WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
FINGERPRINT_SECONDS = 15  # long enough for every attack and sweep variant


def bench(workload: str, seed: int, trace: int,
          seconds: int = SPEC["run_seconds"]) -> dict:
    """One run: its result object merged with the workload's details."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds,
                              trace=trace)
    try:
        result, details = measure(args)
    except BenchError as exc:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: {exc}")
    return dict(details, **result)


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def wall_per_unit(run: dict) -> float:
    return sum(run["durations_ms"]) / (run["attempted"] - run["failed"])


def report(seeds: list[int]) -> dict:
    out = {"seeds": seeds, "run_seconds": SPEC["run_seconds"],
           "workloads": {}}
    for name in WORKLOADS:
        runs = [bench(name, seed, 0) for seed in seeds]
        traced = bench(name, seeds[0], 1)
        out.setdefault("env", runs[0]["env"])
        e2e = {}
        for metric, entry in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            e2e[metric] = dict(quartiles(values), unit=entry["unit"],
                               values=values)
        latencies = [d for r in runs for d in r["durations_ms"]]
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = layers["trace.wall_ms"]
        untraced = [wall_per_unit(r) for r in runs]
        out["workloads"][name] = {
            "unit": WORKLOADS[name].unit,
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "problems": sorted({p for r in runs + [traced]
                                for p in r["problems"]}),
            "end_to_end": e2e,
            "command_ms": {"samples": len(latencies),
                           "p50": statistics.median(latencies),
                           "tail": tail(latencies)},
            # what unit_time_ref divides: the raw time and the yardstick
            "unit_ms": quartiles(untraced),
            "yardstick_ms": quartiles([1000.0 * statistics.median(
                r["yardstick_s"]) for r in runs]),
            # in yardstick units, as the host's speed drifts between runs
            "tracing_overhead_frac": (
                statistics.median(unit_costs(traced))
                / e2e["unit_time_ref"]["median"] - 1.0),
            "span_cost_frac": layers["trace.overhead_ms"] / wall,
            "traced_fingerprints_equal": (traced["fingerprints"]
                                          == runs[0]["fingerprints"]),
            "outside_root_frac": (wall - layers["cli.main.ms"]) / wall,
            "unattributed_frac": layers["cli.main.self_ms"] / wall,
            "layers": layers,
        }
    return out


def print_report(rep: dict) -> None:
    print(f"env {json.dumps(rep['env'], sort_keys=True)}")
    print(f"seeds {rep['seeds']}, {rep['run_seconds']} s per run")
    for name, w in rep["workloads"].items():
        print(f"\n{name} (unit: {w['unit']}): correct {w['correct']}, "
              f"failed {w['failed']} of {w['attempted']} attempted")
        for metric, m in w["end_to_end"].items():
            print(f"  {metric:16s} {m['median']:12.4f} {m['unit']:4s} "
                  f"[q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, "
                  f"spread {m['spread']:.2%}]")
        lat = w["command_ms"]
        print(f"  command latency over {lat['samples']} commands: p50 "
              f"{lat['p50']:.1f} ms" + (
                  f", p{lat['tail'][0]:.3g} {lat['tail'][1]:.1f} ms"
                  if lat["tail"] else ""))
        for label in ("unit_ms", "yardstick_ms"):
            q = w[label]
            print(f"  {label:16s} {q['median']:12.4f} ms   [q1 {q['q1']:.4f}, "
                  f"q3 {q['q3']:.4f}, spread {q['spread']:.2%}]")
        print(f"  traced wall {w['layers']['trace.wall_ms']:.2f} ms/unit "
              f"(untraced median {w['unit_ms']['median']:.2f}); tracing "
              f"overhead in unit_time_ref {w['tracing_overhead_frac']:.2%}, "
              f"span cost "
              f"{w['span_cost_frac']:.2%}; traced output bytes equal "
              f"untraced: {w['traced_fingerprints_equal']}")
        print(f"  traced wall outside cli.main {w['outside_root_frac']:.3%}; "
              f"in cli.main but in no named layer "
              f"{w['unattributed_frac']:.2%}")
        for problem in w["problems"]:
            print(f"  problem: {problem}")


def compare(old: dict, new: dict) -> bool:
    """Print each workload's median change against the earlier report;
    True when no metric got worse by more than its bound."""
    specs = {m["name"]: m for m in SPEC["end_to_end"]}
    print(f"\nmedians against seeds {old['seeds']} (worse by: share of the "
          f"earlier median; bound from BENCHMARK.json)")
    ok = True
    for name, w in new["workloads"].items():
        for metric, m in w["end_to_end"].items():
            before = old["workloads"][name]["end_to_end"][metric]["median"]
            spec = specs[metric]
            worse = (m["median"] - before) / before
            if spec["better"] == "higher":
                worse = -worse
            within = worse <= spec["bound"]
            ok &= within
            print(f"  {name:20s} {metric:12s} {before:10.4f} -> "
                  f"{m['median']:10.4f} {m['unit']:4s} worse by "
                  f"{worse:+7.2%} (bound {spec['bound']:.0%}): "
                  f"{'within' if within else 'OUTSIDE'}")
    return ok


def record_fingerprints(seeds: list[int]) -> None:
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        table = json.load(fh)
    for name in WORKLOADS:
        for seed in seeds:
            res = bench(name, seed, 0, FINGERPRINT_SECONDS)
            other = [p for p in res["problems"]
                     if "differ from recorded" not in p]
            if res["failed"] or other:
                raise SystemExit(f"{name} seed {seed}: {other}")
            table.setdefault(name, {})[str(seed)] = res["fingerprints"]
            print(f"{name} seed {seed}: {res['fingerprints']}", flush=True)
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[1])
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None, metavar="FILE")
    parser.add_argument("--record-fingerprints", type=parse_seeds,
                        default=None, metavar="SEEDS")
    args = parser.parse_args(argv)
    if args.record_fingerprints:
        record_fingerprints(args.record_fingerprints)
        return 0
    rep = report(args.seeds)
    print_report(rep)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rep, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(w["correct"] for w in rep["workloads"].values())
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            ok &= compare(json.load(fh), rep)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
