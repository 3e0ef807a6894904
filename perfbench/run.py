"""Seeded benchmark of the closurekernels CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs to be installed. The
benchmark writes its inputs and outputs under `.bench_work/` and nowhere
else.

--trace 0 times `python -m closurekernels ...` subprocesses, one at a time,
pass after pass over the workload's corpus, and reports the end-to-end
metrics, scaled to the speed of a reference job (reference.py) timed
between the passes. --trace 1 instead runs the same passes in-process,
once plain and once with every layer function wrapped (see tracing.py),
and reports the per-layer metrics. Both check every output with check.py, which shares no
code with the package, and both end with a negative control: a tampered
reduced file or witness and a wrong params or verify line must fail the
checks. --negative-control also counts those tampered outputs as failed ops.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; every line before it is for people.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import check
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, SRC)
import corpus  # noqa: E402  (imports the package from SRC)

OP_TIMEOUT = 150
# The reference job's time on the machine the benchmark was tuned on (Intel
# Xeon, 2 vCPUs, CPython 3.11): time metrics are scaled by REFERENCE_S over
# the mean of the run's reference times, so they read as seconds on that
# machine at its usual speed.
REFERENCE_S = 0.30
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
# Before every pass, corpus builds repeat this long (at least once), so that
# set-up is timed all through the run, next to the reference jobs.
SETUP_SLICE = 0.25
STARTUP_REPEATS = 5

# The metrics BENCHMARK.json declares: every workload reports each of them.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.startup_s": "s",
    "instance_io.parse_s": "s",
    "instance_io.write_s": "s",
    "instance_io.bytes": "count",
    "closure.weak_closure_ordering.s": "s",
    "closure.weak_closure_ordering.calls": "count",
    "closure.closure_number.s": "s",
    "closure.degeneracy.s": "s",
    "closure.wedges": "count",
    "graph.induced_subgraph.s": "s",
    "graph.induced_subgraph.calls": "count",
    "capvc.fires": "count",
    "capvc.rule_calls": "count",
    "convc.fires": "count",
    "convc.rule_calls": "count",
    "induced_matching.fires": "count",
    "induced_matching.rule_calls": "count",
    "domset.fires": "count",
    "domset.rule_calls": "count",
    "combinatorics.vclp_half_integral.calls": "count",
    "oracles.work": "count",
    "verify.checks": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}
KIND_METRIC = {"kernel": "kernel_s", "params": "params_s", "solve": "solve_s",
               "verify": "verify_s"}

def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def stamp() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit or "unknown"}


# ---------------------------------------------------------------------------
# one op


def run_subprocess(op, env, workdir) -> tuple[float, int, str]:
    """(wall seconds, exit code, stdout) of one CLI call."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "closurekernels", *op.argv],
                              capture_output=True, text=True, env=env,
                              cwd=workdir, timeout=OP_TIMEOUT)
        code, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, stdout = -1, ""
    return time.perf_counter() - start, code, stdout


def run_reference(env, workdir) -> float:
    """Wall seconds of one reference job."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, REFERENCE], capture_output=True, text=True,
                          env=env, cwd=workdir, timeout=OP_TIMEOUT)
    secs = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"reference job failed: {proc.stderr.strip()}")
    return secs


def run_inprocess(op, cli) -> tuple[float, int, str]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(op.argv))
        except Exception:  # a crash is a failed op, like a traceback exit
            traceback.print_exc(file=sys.__stderr__)
            code = -1
    return time.perf_counter() - start, code, out.getvalue()


class Pass:
    """Closed loop, one client: runs every op of the corpus in order and
    checks each output right after it, outside the op's timing."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stdout: dict[str, str] = {}
        self.op_s: dict[str, list[float]] = {}
        self.self_s: list[tuple[str, float]] = []  # traced passes only

    def run(self, call) -> dict[str, float]:
        """One pass; returns its wall time, in total and per kind of op."""
        sums = {"wall_s": 0.0, **{key: 0.0 for key in KIND_METRIC.values()}}
        for op in self.ops:
            secs, code, stdout = call(op)
            sums["wall_s"] += secs
            sums[KIND_METRIC[op.kind]] += secs
            self.op_s.setdefault(op.name, []).append(secs)
            problems = check.check_op(op, stdout) if code == 0 else [f"exit code {code}"]
            self.attempted += 1
            self.stdout[op.name] = stdout
            if problems:
                self.failed += 1
                self.problems += [f"{op.name}: {p}" for p in problems]
        return sums


def repeat(seconds: float, one_pass) -> list:
    """Repeat one_pass while the next one is expected to end within
    `seconds` of the start; always at least once."""
    results, walls = [], []
    start = time.perf_counter()
    while not results or (time.perf_counter() - start
                          + statistics.median(walls) <= seconds):
        t = time.perf_counter()
        results.append(one_pass())
        walls.append(time.perf_counter() - t)
    return results


def typical_pass(ops, op_s: dict[str, list[float]]) -> dict[str, float]:
    """A pass's wall time, in total and per kind of op, summed from each
    op's median time over the run's passes."""
    sums = {"wall_s": 0.0, **{key: 0.0 for key in KIND_METRIC.values()}}
    for op in ops:
        secs = statistics.median(op_s[op.name])
        sums["wall_s"] += secs
        sums[KIND_METRIC[op.kind]] += secs
    return sums


def median_of(dicts: list[dict]) -> dict[str, float]:
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


# ---------------------------------------------------------------------------
# negative control


def negative_control(ops, stdout: dict[str, str], workdir) -> list[bool]:
    """Tamper with the first checkable output of each kind in the workload;
    returns, per tampered output, whether the checks caught it."""
    caught, done = [], set()
    for op in ops:
        if op.kind in done:
            continue
        text = stdout.get(op.name, "")
        if op.kind == "params":
            caught.append(bool(check.check_op(op, text.replace("\nclosure: ", "\nclosure: 1", 1))))
        elif op.kind == "verify":
            caught.append(bool(check.check_op(op, text.replace(": ok", ": FAIL", 1))))
        elif op.kind == "kernel" and op.expect["mode"] != "c":
            with open(op.expect["trace"], encoding="utf-8") as fh:
                decided = json.load(fh)["decided"]
            with open(op.expect["out"], encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            head = lines[0].split()
            if decided or head[3] == "0":
                continue
            # drop the last edge and keep the header's edge count honest
            head[3] = str(int(head[3]) - 1)
            path = os.path.join(workdir, "tampered.ck")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join([" ".join(head)] + lines[1:-1]) + "\n")
            tampered = corpus.Op(op.name, op.kind, op.argv, op.graph, dict(op.expect, out=path))
            caught.append(bool(check.check_op(tampered, text)))
        elif op.kind == "solve" and op.expect["answer"]:
            path = os.path.join(workdir, "tampered.witness")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("c tampered: empty witness\n")
            tampered = corpus.Op(op.name, op.kind, op.argv, op.graph,
                                 dict(op.expect, witness=path))
            caught.append(bool(check.check_op(tampered, text)))
        else:
            continue
        done.add(op.kind)
    return caught


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(args, ops, workdir, env) -> tuple[dict, Pass]:
    """Before every pass: one reference job, then SETUP_SLICE seconds of
    corpus builds into a directory of their own; one more reference job
    after the last pass. Time metrics are scaled by REFERENCE_S over the
    mean reference time."""
    run = Pass(ops)
    refs, builds = [], []

    def one_pass():
        refs.append(run_reference(env, workdir))
        start, before = time.perf_counter(), len(builds)
        while len(builds) == before or time.perf_counter() - start < SETUP_SLICE:
            shutil.rmtree(workdir + ".setup", ignore_errors=True)
            builds.append(corpus.build(args.workload, args.seed, workdir + ".setup")[1].s)
        return run.run(lambda op: run_subprocess(op, env, workdir))

    passes = repeat(args.seconds, one_pass)
    refs.append(run_reference(env, workdir))
    scale = REFERENCE_S / statistics.mean(refs)
    metrics = {name: secs * scale for name, secs in typical_pass(ops, run.op_s).items()}
    metrics["raw_wall_s"] = statistics.median(p["wall_s"] for p in passes)
    metrics["raw_setup_s"] = statistics.median(builds)
    metrics["setup_s"] = metrics["raw_setup_s"] * scale
    metrics["reference_s"] = statistics.mean(refs)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics["passes"] = len(passes)
    return metrics, run


def traced(args, ops, workdir, env, setup_tracer) -> tuple[dict, Pass]:
    from closurekernels import cli

    startup = []
    for _ in range(STARTUP_REPEATS):
        secs, _code, _out = run_subprocess(
            corpus.Op("startup", "generate", ["generate", "k-ab", "--a", "1", "--b", "1"]),
            env, workdir)
        startup.append(secs)

    run = Pass(ops)
    tracers = []

    def pair():
        plain = run.run(lambda op: run_inprocess(op, cli))["wall_s"]
        tracer = tracing.Tracer()
        tracers.append(tracer)

        def call(op):
            tracer.op = op.name
            return run_inprocess(op, cli)

        tracer.install()
        try:
            wall = run.run(call)["wall_s"]
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer, wall)
        layers["trace.overhead_frac"] = wall / plain - 1
        kernels = {op.name for op in ops if op.kind == "kernel"}
        kernel_wall = sum(run.op_s[name][-1] for name in kernels)
        engine = sum(end - start for name, start, end, _parent, op in tracer.spans
                     if name == "closure.weak_closure_ordering" and op in kernels)
        layers["closure.kernel_share_frac"] = engine / kernel_wall if kernel_wall else 0.0
        layers["traced_wall_s"] = wall
        layers["untraced_wall_s"] = plain
        return layers

    per_pass = repeat(args.seconds, pair)
    metrics = median_of(per_pass)
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["generators.s"] = tracing.layer_metrics(setup_tracer, 0.0)["generators.s"]
    graphs = {id(op.graph): op.graph for op in ops if op.graph is not None}
    metrics["closure.wedges"] = sum(g.wedges() for g in graphs.values())
    metrics["passes"] = len(per_pass)
    tracers[-1].write(os.path.join(workdir, "spans.jsonl"))
    run.self_s = tracing.self_times(tracers[-1])
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="count the tampered outputs as failed ops")
    args = parser.parse_args(argv)

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(corpus.WORKLOADS), file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-trace{args.trace}")
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    os.environ.update(TMPDIR=tmp, PYTHONPATH=env["PYTHONPATH"])

    if args.trace:
        setup_tracer = tracing.Tracer()
        shutil.rmtree(workdir, ignore_errors=True)
        setup_tracer.install()
        try:
            ops, setup = corpus.build(args.workload, args.seed, workdir)
        finally:
            setup_tracer.uninstall()
        metrics, run = traced(args, ops, workdir, env, setup_tracer)
        declared = PER_LAYER
    else:
        shutil.rmtree(workdir, ignore_errors=True)
        ops, setup = corpus.build(args.workload, args.seed, workdir)
        metrics, run = end_to_end(args, ops, workdir, env)
        declared = END_TO_END

    caught = negative_control(ops, run.stdout, workdir)
    attempted, failed = run.attempted, run.failed
    if args.negative_control:
        attempted += len(caught)
        failed += sum(caught)
    metrics["failed_frac"] = failed / attempted
    correct = failed == 0 and all(caught) and bool(caught)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "stamp": stamp(), "input_bytes": setup.bytes, "attempted": attempted,
            "failed": failed, "problems": run.problems,
            "negative_control_caught": caught, "metrics": metrics,
            "op_s": {name: statistics.median(v) for name, v in run.op_s.items()},
            "self_s": run.self_s}
    with open(workdir + ".json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)

    print(" ".join(f"{k}={v}" for k, v in info["stamp"].items()))
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"negative control: {sum(caught)} of {len(caught)} tampered outputs caught")
    for name, value in sorted(metrics.items()):
        print(f"{args.workload} {name}: {value:.6g} {unit_of(name)}")
    for name, secs in run.self_s[:12]:
        print(f"{args.workload} self {name}: {secs:.6g} s")
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in declared.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
