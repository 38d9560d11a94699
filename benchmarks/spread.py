"""Run the benchmark on several seeds and report each metric's median,
quartiles and spread (quartile distance over median), next to the bound
``BENCHMARK.json`` gives it.

    python3 benchmarks/spread.py --workloads desk-pair paper-image \\
        --seeds 1-10 --trace 0 --out benchmarks/BENCH_baseline.json

Each run is a separate ``bench.py`` process with the configured
``run_seconds``; the per-run reports are kept in the output file next to
the summary, so a later change can be compared run by run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"][0],
            "result": json.loads(lines[-1])}


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=_seeds, required=True,
                   help="a range like 1-10 or a list like 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary, runs = {}, {}
    for wl in args.workloads:
        results = []
        for seed in args.seeds:
            r = run_once(wl, seed, spec["run_seconds"], args.trace)
            res = r["result"]
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed {res['failed']} of {res['attempted']}", flush=True)
            results.append(r)
        runs[wl] = results
        names = results[0]["result"]["metrics"]
        summary[wl] = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in results]
            s = summarize(values)
            s["unit"] = names[name]["unit"]
            summary[wl][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {name:<40} median {s['median']:<12.6g} q1 "
                  f"{s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread "
                  f"{s['spread']:.4f} bound {bound} {flag}", flush=True)
        failed = sum(r["result"]["failed"] for r in results)
        attempted = sum(r["result"]["attempted"] for r in results)
        print(f"  failed_share {failed}/{attempted}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "trace": args.trace,
                       "run_seconds": spec["run_seconds"],
                       "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
