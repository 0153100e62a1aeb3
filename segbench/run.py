"""segcoder benchmark: runs each workload in its own subprocess and prints
every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit.

    python3 segbench/run.py                      # every workload, end to end
    python3 segbench/run.py --workload serve-largek --seed 3 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A traced run runs the
workload twice on the same seed, untraced for half of ``--seconds`` and then
traced for as many rounds, and reports the ratio of their measured wall
times as ``trace.overhead``. The full record of
each run, with the environment and every sample, is written to
``.bench_work/<workload>-seed<n>-trace<t>.json`` at the repository root.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# A workload whose children have not finished by then has hung.
WORKLOAD_TIMEOUT_S = 170


def definition():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_child(workload, seed, seconds, trace, tiny, deadline, rounds=0):
    out = WORK / f"{workload}-seed{seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--rounds", str(rounds), "--work-dir", str(WORK), "--out", str(out)]
    if tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, check=True, timeout=max(1.0, deadline - perf_counter()),
                   stdout=sys.stderr)
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def end_to_end(r):
    return {
        "setup_s": r["setup_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "train_tokens_per_s": r["train"]["tokens_per_s"],
        "step_ms_p50": r["train"]["step_ms"]["p50"],
        "predict_ms_p50": r["predict"]["predict_ms"]["p50"],
        "eval_s": r["eval"]["eval_s"],
    }


def run_workload(defn, workload, seed, seconds, trace, tiny):
    """(attempted, failed, {metric: value}) for one workload."""
    deadline = perf_counter() + WORKLOAD_TIMEOUT_S
    plain = run_child(workload, seed, seconds / 2 if trace else seconds, 0, tiny, deadline)
    runs = [plain]
    if trace:
        traced = run_child(workload, seed, seconds, 1, tiny, deadline, rounds=plain["rounds"])
        runs.append(traced)
        values = dict(traced["per_layer"])
        values["trace.overhead"] = traced["measured_wall_s"] / plain["measured_wall_s"]
        names = [m["name"] for m in defn["per_layer"]]
    else:
        values = end_to_end(plain)
        names = [m["name"] for m in defn["end_to_end"]]
    for r in runs:
        print(f"# {workload} seed={seed} trace={r['trace']} rounds={r['rounds']} "
              f"env={json.dumps(r['env'])}")
        for name in ("step_ms", "predict_ms"):
            part = r["train" if name == "step_ms" else "predict"][name]
            p90 = part["p90"]
            p90 = "n/a (under 100 samples)" if p90 is None else f"{p90:.3f} ms"
            print(f"#   {name}: n={part['n']} p50={part['p50']:.3f} ms p90={p90}")
        print(f"#   failed_ops_share: {r['failed']}/{r['attempted']}")
        for failure in r["failures"]:
            print(f"#   FAILED {failure}")
    return (sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs),
            {n: values[n] for n in names})


def main():
    defn = definition()
    workloads = [w["name"] for w in defn["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=defn["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken configs that run in seconds (smoke test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "segcoder" / "__init__.py").is_file():
        sys.exit(f"no segcoder sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)

    units = {m["name"]: m["unit"] for m in defn["end_to_end"] + defn["per_layer"]}
    selected = workloads if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for w in selected:
        a, f, values = run_workload(defn, w, args.seed, args.seconds, args.trace, args.tiny)
        attempted += a
        failed += f
        for name, v in values.items():
            print(f"{w}  {name} = {v:.6g} {units[name]}")
            key = name if len(selected) == 1 else f"{w}.{name}"
            metrics[key] = {"value": v, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
