"""Summarize saved benchmark outputs into one results file.

Usage: python3 perfbench/summarize.py LABEL RUN_OUTPUT... > perfbench/results/LABEL.json

Each RUN_OUTPUT is the stdout of one ``run.py`` run.  Untraced runs give, per
workload and end-to-end metric, the median, quartiles
(``statistics.quantiles(n=4)``), the quartile spread as a share of the
median, every value and the seeds; traced runs give the per-layer values.
"""

import json
import statistics
import sys


def parse(path: str) -> tuple[dict, dict]:
    lines = open(path).read().strip().splitlines()
    settings = json.loads(next(line for line in lines if line.startswith("# settings "))
                          [len("# settings "):])
    return settings, json.loads(lines[-1])


def main(label: str, paths: list) -> int:
    end_to_end, per_layer, machine = {}, {}, {}
    for path in paths:
        settings, result = parse(path)
        if not result["correct"]:
            print(f"{path}: {result['failed']} of {result['attempted']} operations failed",
                  file=sys.stderr)
            return 1
        machine = {k: settings[k] for k in ("nproc", "machine", "python", "numpy", "scipy",
                                            "blas", "blas_threads_env", "setup_samples")}
        workload = settings["workload"]
        if settings["trace"]:
            per_layer[workload] = {"seed": settings["seed"], "metrics": {
                name: m["value"] for name, m in result["metrics"].items()}}
            continue
        runs = end_to_end.setdefault(workload, {"seeds": [], "metrics": {}})
        runs["seeds"].append(settings["seed"])
        for name, m in result["metrics"].items():
            runs["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            runs["metrics"][name]["values"].append(m["value"])
    for runs in end_to_end.values():
        for m in runs["metrics"].values():
            values = m["values"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                m.update(q1=q1, q3=q3, spread=(q3 - q1) / median)
            m.update(median=median, n=len(values))
    json.dump({"label": label, "machine": machine, "end_to_end": end_to_end,
               "per_layer": per_layer}, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
