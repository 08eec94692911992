"""qforecast benchmark: named workloads through the public CLI and API.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``desk_pipeline``: preprocess, hybrid and bayes tuning, the genhyb and
  bo-q ensembles, forecast and evaluate, each a fresh ``qforecast``
  process, at desk size with every model n=2, L=1.
* ``paper_scale_combine``: preprocess of the paper-length record, a K^m
  bo-q enumeration of untrained base models through the API
  (``combine.py``), then CLI forecast and evaluate.

The seed makes the input CSV; every command runs with ``--seed`` RUN_SEED.
With ``--trace 0`` the workload runs its minimum number of passes and more
while another fits in ``--seconds``, ``preprocess`` runs at least
SETUP_SAMPLES times, and the end-to-end metrics are medians over those:
``wall_s`` sums, over the steps of a pass, each step's median wall time, so
a slow spell of the host that hits one step of one pass does not count.
With ``--trace 1`` one untraced pass, one traced pass (each command started
through ``traced_cli.py``, which wraps the layers' public functions) and the
fixed-size layer timings of ``layers.py`` give the per-layer metrics.  Child
processes run one at a time with every BLAS pinned to one thread; this
process imports no numeric library.

Every command's exit status and every output check counts as one attempted
operation; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import write_weather_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# sizes: (full, smoke)
DESK_HOURS = (240, 150)
HYBRID_BUDGET = 50  # pop 20 x qga_fraction 0.4 funds one QGA generation from 50 up
BAYES_BUDGET = (8, 4)
PROBE_EPOCHS = 1
TUNED_EPOCHS = (2, 1)  # epochs the tuned configurations train for in the ensembles
PAPER_HOURS = (96432, 3000)
PAPER_SPLIT = {"rows": 96432, "train_rows": 83895, "test_rows": 12537, "segment_steps": 8389}
HORIZON = 24
RUN_SEED = 0  # every command's --seed; the benchmark's --seed makes the input data


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline


@dataclass
class Child:
    code: int
    seconds: float
    spawn_wall: float


@dataclass
class Harness:
    """Counts operations, runs children one at a time, tracks their peak RSS."""

    seed: int
    work: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    peak_rss_kb: int = 0
    passes: int = 0
    log_index: int = 0
    env: dict = field(default_factory=dict)

    def __post_init__(self):
        env = {k: v for k, v in os.environ.items()
               if k not in ("QFORECAST_OUT_ROOT", "PERFBENCH_SPANS", "PYTHONSTARTUP")}
        env.update({var: "1" for var in THREAD_VARS})
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# FAILED: {what}", file=sys.stderr)
        return ok

    def run(self, argv: list, *, spans: Path | None = None, run_id: str = "") -> Child:
        self.log_index += 1
        log = self.work / f"child{self.log_index:03d}.log"
        env = dict(self.env)
        if spans is not None:
            env["PERFBENCH_SPANS"] = str(spans)
            env["PERFBENCH_RUN_ID"] = run_id
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Child(code=-1, seconds=0.0, spawn_wall=time.time())
        with open(log, "wb") as fh:
            spawn_wall = time.time()
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=env,
                                    stdout=fh, stderr=subprocess.STDOUT)
        status = usage = None
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Deadline:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if status is None:  # over the run's deadline
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            print(f"# killed at the run deadline: {argv[:4]}", file=sys.stderr)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-1500:]
            print(f"# exit {proc.returncode}: {' '.join(map(str, argv[1:6]))}\n{tail}",
                  file=sys.stderr)
        return Child(proc.returncode, seconds, spawn_wall)


class Pass:
    """One run of a workload's commands in a fresh run directory."""

    def __init__(self, harness: Harness, tag: str, traced: bool):
        self.harness = harness
        self.tag = tag
        self.traced = traced
        self.dir = harness.work / tag
        self.dir.mkdir(parents=True)
        self.started = time.perf_counter()
        self.wall = None
        self.setup = None
        self.ok = True
        self.spans: list = []  # (span file, spawn wall time, is a CLI command)
        self.steps: list = []  # wall seconds of each child, in order

    def _child(self, argv: list, name: str, is_cli: bool) -> bool:
        if not self.ok:
            return False
        spans = self.dir / f"spans{len(self.spans)}.json" if self.traced else None
        child = self.harness.run(argv, spans=spans,
                                 run_id=f"{self.tag}:{len(self.spans)}:{name}")
        if spans is not None:
            self.spans.append((spans, child.spawn_wall, is_cli))
        self.steps.append(child.seconds)
        if name == "preprocess":
            self.setup = child.seconds
        self.ok = self.harness.check(child.code == 0, f"{self.tag}: {name} exits 0 "
                                                      f"(exit {child.code})")
        return self.ok

    def cli(self, *args) -> bool:
        entry = [HERE / "traced_cli.py"] if self.traced else ["-m", "qforecast.cli"]
        return self._child([sys.executable, *entry, *args], str(args[0]), True)

    def script(self, name: str, *args) -> bool:
        return self._child([sys.executable, HERE / name, *args], name, False)


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def stage_seconds(manifest: Path) -> float:
    return float(sum(read_json(manifest)["wall_times_sec"].values()))


def is_simplex(weights) -> bool:
    return (len(weights) > 0 and all(math.isfinite(w) and w >= 0.0 for w in weights)
            and abs(math.fsum(weights) - 1.0) <= 1e-12)


def horizon_rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1


def ensemble_mse(run_dir: Path) -> float:
    rows = read_json(run_dir / "evaluate" / "metrics.json")
    return float(next(r["mse_standardized"] for r in rows if r["model"] == "bo-q-ensemble"))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs, the commands of one pass, their stage times and output checks."""

    name = ""
    min_passes = 1  # untraced passes a run makes whatever --seconds says

    def __init__(self, harness: Harness, smoke: bool, fault: bool):
        self.harness = harness
        self.size = 1 if smoke else 0
        self.fault = fault
        self.csv = harness.work / "input.csv"

    def make_inputs(self) -> None:
        write_weather_csv(self.csv, self.hours[self.size], self.harness.seed)

    def preprocess(self, p: Pass) -> bool:
        return p.cli("preprocess", "--run", p.dir, "--csv", self.csv, "--seed", RUN_SEED)

    def run_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def stages(self, run_dir: Path) -> dict:
        raise NotImplementedError

    def check_outputs(self, run_dir: Path) -> None:
        raise NotImplementedError

    def truncate(self, path: Path) -> None:
        """The deliberate fault: cut a binary artifact the next command reads."""
        if self.fault:
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

    def forecast_and_evaluate(self, p: Pass) -> None:
        if p.cli("forecast", "--run", p.dir, "--arch", "bo-q", "--horizon", HORIZON,
                 "--seed", RUN_SEED):
            self.truncate(p.dir / "ensemble-bo-q" / "checkpoint.npz")
            p.cli("evaluate", "--run", p.dir, "--arch", "bo-q", "--seed", RUN_SEED)

    def check_forecast(self, run_dir: Path) -> None:
        s = self.harness
        s.check(horizon_rows(run_dir / "forecast" / f"horizon{HORIZON}.tsv") == HORIZON,
                f"forecast TSV has {HORIZON} rows")
        rows = read_json(run_dir / "evaluate" / "metrics.json")
        combined = ensemble_mse(run_dir)
        worst_base = max(r["mse_standardized"] for r in rows if r["model"] != "bo-q-ensemble")
        s.check(math.isfinite(combined) and combined <= worst_base + 1e-12,
                f"bo-q ensemble MSE {combined} is finite and no worse than its worst "
                f"base model ({worst_base})")
        rerun = s.run([sys.executable, "-m", "qforecast.cli", "rerun", "--manifest",
                       run_dir / "evaluate" / "manifest.json"])
        s.check(rerun.code == 0, "rerun of the evaluate manifest is hash-identical")


class DeskPipeline(Workload):
    name = "desk_pipeline"
    hours = DESK_HOURS
    min_passes = 3

    def tune_flags(self):
        return ["--seq", 3, 5, "--max-qubits", 2, "--max-layers", 1,
                "--probe-epochs", PROBE_EPOCHS, "--epochs", TUNED_EPOCHS[self.size],
                "--seed", RUN_SEED]

    def run_pass(self, p: Pass) -> None:
        d = p.dir
        (self.preprocess(p)
         and p.cli("tune", "--run", d, "--tuner", "hybrid", "--budget", HYBRID_BUDGET,
                   *self.tune_flags())
         and p.cli("tune", "--run", d, "--tuner", "bayes", "--budget",
                   BAYES_BUDGET[self.size], "--k", 2, *self.tune_flags())
         and p.cli("ensemble", "--run", d, "--arch", "genhyb", "--seq", 3, 5,
                   "--seed", RUN_SEED)
         and p.cli("ensemble", "--run", d, "--arch", "bo-q", "--seq", 3, 5, "--k", 2,
                   "--seed", RUN_SEED)
         and self.forecast_and_evaluate(p))

    def stages(self, d: Path) -> dict:
        return {
            "tune_s": stage_seconds(d / "tune-hybrid" / "manifest.json")
            + stage_seconds(d / "tune-bayes" / "manifest.json"),
            "ensemble_s": stage_seconds(d / "ensemble-genhyb" / "manifest.json")
            + stage_seconds(d / "ensemble-bo-q" / "manifest.json"),
            "forecast_s": stage_seconds(d / "forecast" / "manifest.json")
            + stage_seconds(d / "evaluate" / "manifest.json"),
        }

    def check_outputs(self, d: Path) -> None:
        s = self.harness
        for arch in ("genhyb", "bo-q"):
            weights = read_json(d / f"ensemble-{arch}" / "weights.json")["weights"]
            s.check(is_simplex(weights), f"{arch} weights lie on the simplex: {weights}")
        enum = read_json(d / "ensemble-bo-q" / "enumeration.json")
        s.check(enum["n_tuples"] == 2**2, f"bo-q enumerates K^m = 4 tuples ({enum['n_tuples']})")
        s.check(enum["best_objective"] == min(enum["objectives"]),
                "bo-q best objective is the minimum")
        self.check_forecast(d)


class PaperScaleCombine(Workload):
    name = "paper_scale_combine"
    hours = PAPER_HOURS

    def expected_split(self) -> dict:
        if self.size == 0:
            return PAPER_SPLIT
        rows = self.hours[self.size]
        train = math.floor(0.87 * rows)
        return {"rows": rows, "train_rows": train, "test_rows": rows - train,
                "segment_steps": math.floor(0.1 * train)}

    def run_pass(self, p: Pass) -> None:
        (self.preprocess(p)
         and p.script("combine.py", p.dir, RUN_SEED, p.dir / "combine.json")
         and self.forecast_and_evaluate(p))

    def stages(self, d: Path) -> dict:
        combine = read_json(d / "combine.json")
        return {
            "ensemble_s": combine["predict_s"] + combine["enumerate_s"]
            + combine["checkpoint_s"],
            "forecast_s": stage_seconds(d / "forecast" / "manifest.json")
            + stage_seconds(d / "evaluate" / "manifest.json"),
        }

    def check_outputs(self, d: Path) -> None:
        s = self.harness
        expected = self.expected_split()
        summary = read_json(d / "summary.json")
        got = {k: summary[k] for k in ("rows", "train_rows", "test_rows")}
        s.check(got == {k: expected[k] for k in got}, f"preprocess split {got}")
        combine = read_json(d / "combine.json")
        s.check(combine["segment_steps"] == expected["segment_steps"],
                f"validation segment has T = {combine['segment_steps']}")
        s.check(combine["n_tuples"] == combine["k"] ** combine["m"],
                f"enumeration covers K^m tuples ({combine['n_tuples']})")
        s.check(combine["best_objective"] == min(combine["objectives"]),
                "best objective is the minimum")
        s.check(is_simplex(combine["weights"]), f"weights lie on the simplex: "
                                                f"{combine['weights']}")
        self.check_forecast(d)


WORKLOADS = {w.name: w for w in (DeskPipeline, PaperScaleCombine)}
STAGES = ("tune_s", "ensemble_s", "forecast_s")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_workload_pass(workload: Workload, tag: str, traced: bool) -> Pass:
    p = Pass(workload.harness, tag, traced)
    workload.harness.passes += 1
    workload.run_pass(p)
    p.wall = time.perf_counter() - p.started
    return p


def measure_untraced(workload: Workload, seconds: float) -> dict:
    """The workload's minimum passes and more while another fits in ``seconds``,
    then extra set-up samples."""
    s = workload.harness
    passes, started = [], time.perf_counter()
    while True:
        p = run_workload_pass(workload, f"pass{len(passes) + 1}", traced=False)
        passes.append(p)
        if not p.ok:
            return {}
        if len(passes) == 1:
            workload.check_outputs(p.dir)
        elapsed = time.perf_counter() - started
        if len(passes) >= workload.min_passes and elapsed + p.wall > seconds:
            break
    setups = [p.setup for p in passes]
    while len(setups) < SETUP_SAMPLES:
        extra = Pass(s, f"setup{len(setups) + 1}", traced=False)
        if not workload.preprocess(extra):
            return {}
        setups.append(extra.setup)

    if len(passes) > 1:
        mses = [ensemble_mse(p.dir) for p in passes]
        s.check(len(set(mses)) == 1, f"every pass gives the same result ({mses})")
    for i, p in enumerate(passes, 1):
        print(f"# pass {i}: wall {p.wall:.3f} s, setup {p.setup:.3f} s, "
              f"steps {[round(v, 3) for v in p.steps]}, "
              f"stages {json.dumps(workload.stages(p.dir))}")
    print(f"# setup samples (s): {[round(v, 4) for v in setups]}")
    step_medians = [statistics.median(steps) for steps in zip(*(p.steps for p in passes))]
    return {
        "wall_s": (math.fsum(step_medians), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (s.peak_rss_kb / 1024.0, "MiB"),
    }


def aggregate_spans(files: list) -> tuple[dict, dict]:
    """Per span name: calls, busy seconds, self seconds and summed counts;
    plus the derived memo and start-up figures."""
    stats: dict = {}
    memo = {"calls": 0, "trained": 0}
    startup = 0.0
    for path, spawn_wall, is_cli in files:
        payload = read_json(path)
        spans = payload["spans"]
        child_time: dict = {}
        parents_of_train = set()
        for _, parent, name, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
                if name == "qlstm.train":
                    parents_of_train.add(parent)
        for span_id, _, name, start, end, count in spans:
            entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                            "count": 0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
            entry["count"] += count
            if name == "runner.train_base_model":
                memo["calls"] += 1
                memo["trained"] += span_id in parents_of_train
        if is_cli and payload["handler_entries"]:
            startup += payload["handler_entries"][0] - spawn_wall
    return stats, {"memo": memo, "startup_s": startup}


def tuner_trace_stats(run_dir: Path, tuner: str) -> tuple[int, int]:
    """(evaluations, distinct configurations) from the tune command's traces."""
    evals = distinct = 0
    for path in sorted((run_dir / f"tune-{tuner}").glob("trace_seq*.jsonl")):
        configs = [json.dumps(json.loads(line)["config"], sort_keys=True)
                   for line in path.read_text().splitlines() if line]
        evals += len(configs)
        distinct += len(set(configs))
    return evals, distinct


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: dict, derived: dict, run_dir: Path) -> dict:
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def total(names, key):
        return sum(get(n, key) for n in names)

    hybrid_evals, hybrid_distinct = tuner_trace_stats(run_dir, "hybrid")
    bayes_evals, bayes_distinct = tuner_trace_stats(run_dir, "bayes")
    memo = derived["memo"]
    c, s = "count", "s"
    return {
        "quantum.forward.calls": (get("quantum.forward", "calls"), c),
        "quantum.forward.rows": (get("quantum.forward", "count"), c),
        "quantum.forward.self_s": (get("quantum.forward", "self_s"), s),
        "quantum.gradient.calls": (get("quantum.gradient", "calls"), c),
        "quantum.gradient.rows": (get("quantum.gradient", "count"), c),
        "quantum.gradient.self_s": (get("quantum.gradient", "self_s"), s),
        "qlstm.train.calls": (get("qlstm.train", "calls"), c),
        "qlstm.train.busy_s": (get("qlstm.train", "busy_s"), s),
        "qlstm.backward.calls": (get("qlstm.backward", "calls"), c),
        "qlstm.backward.self_s": (get("qlstm.backward", "self_s"), s),
        "qlstm.forward.calls": (get("qlstm.forward", "calls"), c),
        "qlstm.forward.self_s": (get("qlstm.forward", "self_s"), s),
        "metaheuristics.evals": (hybrid_evals, c),
        "metaheuristics.self_s": (total(("metaheuristics.hybrid", "metaheuristics.pso",
                                         "metaheuristics.qga"), "self_s"), s),
        "metaheuristics.distinct_ratio": (ratio(hybrid_distinct, hybrid_evals), "ratio"),
        "bayesopt.gp_fit.calls": (get("bayesopt.gp_fit", "calls"), c),
        "bayesopt.gp_fit.busy_s": (get("bayesopt.gp_fit", "busy_s"), s),
        "bayesopt.acquire.calls": (get("bayesopt.acquire", "calls"), c),
        "bayesopt.acquire.busy_s": (get("bayesopt.acquire", "busy_s"), s),
        "bayesopt.distinct_ratio": (ratio(bayes_distinct, bayes_evals), "ratio"),
        "bayesopt.enumerate.tuples": (get("bayesopt.enumerate", "count"), c),
        "bayesopt.enumerate.self_s": (get("bayesopt.enumerate", "self_s"), s),
        "ensemble.evolve.calls": (get("ensemble.evolve", "calls"), c),
        "ensemble.evolve.steps": (get("ensemble.evolve", "count"), c),
        "ensemble.evolve.busy_s": (get("ensemble.evolve", "busy_s"), s),
        "data.ingest.rows": (get("data.ingest", "count"), c),
        "data.ingest.busy_s": (get("data.ingest", "busy_s"), s),
        "data.prepare.busy_s": (get("data.prepare", "busy_s"), s),
        "data.windows.calls": (get("data.windows", "calls"), c),
        "data.windows.busy_s": (get("data.windows", "busy_s"), s),
        "data.dataset_io.busy_s": (total(("data.save_dataset", "data.load_dataset"),
                                         "busy_s"), s),
        "metrics.forecast.busy_s": (get("metrics.forecast", "busy_s"), s),
        "metrics.forecast.model_calls": (get("metrics.model_call", "calls"), c),
        "runner.train_base_model.calls": (memo["calls"], c),
        "runner.memo_hit_ratio": (ratio(memo["calls"] - memo["trained"], memo["calls"]),
                                  "ratio"),
        "runner.manifest.busy_s": (get("runner.manifest", "busy_s"), s),
        "runner.checkpoint.busy_s": (total(("runner.save_ensemble", "runner.load_ensemble",
                                            "runner.save_model"), "busy_s"), s),
        "cli.startup_s": (derived["startup_s"], s),
    }


def measure_traced(workload: Workload) -> dict:
    """One untraced pass, one traced pass, and the fixed-size layer timings."""
    s = workload.harness
    plain = run_workload_pass(workload, "untraced", traced=False)
    if not plain.ok:
        return {}
    workload.check_outputs(plain.dir)
    traced = run_workload_pass(workload, "traced", traced=True)
    if not traced.ok:
        return {}
    s.check(ensemble_mse(traced.dir) == ensemble_mse(plain.dir),
            "tracing leaves the result unchanged")
    stats, derived = aggregate_spans(traced.spans)
    metrics = layer_metrics(stats, derived, traced.dir)
    stages = workload.stages(plain.dir)
    for name in STAGES:
        metrics[f"stage.{name}"] = (stages.get(name, 0.0), "s")
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    metrics["result.forecast_mse"] = (ensemble_mse(plain.dir), "std-mse")

    layers_out = s.work / "layers.json"
    child = s.run([sys.executable, HERE / "layers.py", RUN_SEED, layers_out])
    if not s.check(child.code == 0, "layers.py exits 0"):
        return {}
    layers = read_json(layers_out)
    for what, ok, detail in layers["checks"]:
        s.check(ok, f"{what} ({detail})")
    metrics.update({name: tuple(pair) for name, pair in layers["metrics"].items()})
    print(f"# untraced wall {plain.wall:.3f} s, traced wall {traced.wall:.3f} s")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--fault", action="store_true",
                        help="truncate the binary artifact one command reads, for the "
                             "self-test (the run must then report failures)")
    return parser.parse_args(argv)


def machine_info(harness: Harness) -> dict:
    """Byte-compiles the package (so the first pass does not pay for it) and
    records the numeric stack the children see."""
    child = harness.run([sys.executable, HERE / "env_probe.py", SRC / "qforecast"])
    if not harness.check(child.code == 0, "environment probe exits 0"):
        return {}
    log = harness.work / f"child{harness.log_index:03d}.log"
    return json.loads(log.read_text().strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qforecast" / "cli.py").is_file():
        print(f"error: no qforecast source tree at {SRC}; run from the root of a "
              f"qforecast checkout", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    harness = Harness(seed=args.seed, work=work,
                      deadline=time.monotonic() + RUN_DEADLINE_S)
    workload = WORKLOADS[args.workload](harness, smoke=args.smoke, fault=args.fault)
    info = {}
    try:
        info = machine_info(harness)
        workload.make_inputs()
        if args.trace:
            metrics = measure_traced(workload)
        else:
            metrics = measure_untraced(workload, args.seconds)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        harness.check(False, f"reading the outputs: {exc!r}")
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print("# settings " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "fault": args.fault, "run_seed": RUN_SEED,
        "passes": harness.passes, "setup_samples": SETUP_SAMPLES, **info}, sort_keys=True))
    result = {
        "correct": harness.failed == 0 and bool(metrics),
        "attempted": max(harness.attempted, 1),
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
