#!/usr/bin/env python3
"""End-to-end solve benchmark for gridopt, with a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload desk-opo --seed 0 --seconds 40 --trace 0

One process and one caller solve the workload's instances one at a time, in
order, with no time limit (a closed loop). The whole list is solved again and
again for about ``--seconds``; each pass is one sample of the batch time.
Every returned solution is checked against the IR and a stored reference
objective (verify.py), and results and work counts must repeat exactly
between passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the traced
ones (tracer.py), plus the tracing overhead. The last line of standard output
is one JSON object; the full record, with the environment and the spans of
the traced passes, is written to perfbench/out/.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; child processes inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DECLARED = HERE.parent / "BENCHMARK.json"

SETUP_SAMPLES = 7  # set-up is timed in this many fresh processes
REF_KERNEL_S = 0.016  # reference kernel time that setup_s is scaled to
KERNEL_REPEAT = 3  # reference-kernel runs before each solve and after the last
MIN_PASSES = 3  # untraced run: fewest passes, even past --seconds
MIN_EACH = 2  # traced run: fewest untraced and traced passes each


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup(workload: str, seed: int, trace: bool):
    """Import the solver, build the workload's instances, load references.

    Returns the solve function, the instances as (key, ir, reference
    objective) in solve order, and the installed tracer or None.
    """
    if not (SRC / "gridopt" / "__init__.py").is_file():
        _fail(f"no gridopt sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from gridopt import rfe

    import workloads

    if workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    entry = "solve_rfe" if workloads.WORKLOADS[workload].solver == "rfe" else "solve_by_enumeration"
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(entry)
        tracer.install()
        tracer.instance = "setup"
    refs = json.loads(REFERENCE.read_text())
    instances = []
    for family, s in workloads.solve_order(workload, seed):
        key = workloads.instance_key(family, s)
        instances.append((key, workloads.build_instance(family, s), refs[key]["objective"]))

    def solve(ir):
        return getattr(rfe, entry)(ir)  # looked up per call, so tracing can wrap it

    return solve, instances, tracer


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall seconds from process start to ready-to-solve, in fresh processes,
    and the reference kernel's time measured in each process right after.
    """
    samples, kernel = [], []
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            rest = proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                _fail("set-up probe failed")
        samples.append(t1 - t0)
        kernel.append(float(rest))
    return samples, kernel


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def reference_kernel() -> float:
    """Wall seconds of a fixed pure-Python loop that does not use gridopt.

    The speed of this machine's interpreter drifts by up to 2x over seconds
    to minutes. Run before every solve, the kernel drifts with the solver, so
    a pass's wall time divided by the kernel's median time in that pass
    (``batch_norm``) cancels most of the drift seen in raw wall time. Set-up
    time is scaled the same way, to a kernel time of ``REF_KERNEL_S``.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += (i * 7) % 13
        if acc > 1000:
            acc -= 999
    return perf_counter() - t0


def run_pass(solve, instances, tracer):
    """Solve every instance once, in order, timing the reference kernel
    ``KERNEL_REPEAT`` times before each solve and after the last.

    Returns the pass's wall seconds (solves only), the kernel's times and,
    per instance, (result or None, error or None, wall seconds of the solve).
    """
    outcomes = []
    kernel = []
    for key, ir, _ in instances:
        kernel += [reference_kernel() for _ in range(KERNEL_REPEAT)]
        if tracer is not None:
            tracer.instance = key
        t = perf_counter()
        try:
            res, err = solve(ir), None
        except Exception as exc:  # a solve that raises is counted as failed
            res, err = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((res, err, perf_counter() - t))
    kernel += [reference_kernel() for _ in range(KERNEL_REPEAT)]
    return sum(o[2] for o in outcomes), kernel, outcomes


class Checker:
    """Checks each solve's output and that results repeat between passes."""

    def __init__(self, check_solution) -> None:
        self.check_solution = check_solution
        self.first_result: dict = {}
        self.first_counts: dict = {}

    def records(self, instances, outcomes, counts=None) -> list[dict]:
        out = []
        for (key, ir, ref), (res, err, solve_s) in zip(instances, outcomes):
            rec = {"instance": key, "solve_s": solve_s, "problems": [err] if err else []}
            if res is not None:
                sig = [res.status, res.objective, res.iterations, res.subproblems_solved, res.milp_nodes]
                rec.update(zip(("status", "objective", "iterations", "subproblems", "milp_nodes"), sig))
                rec["problems"] += self.check_solution(ir, res.status, res.x, res.objective, ref)
                if self.first_result.setdefault(key, sig) != sig:
                    rec["problems"].append(f"result {sig} differs from first pass {self.first_result[key]}")
            if counts is not None:
                c = dict(counts.get(key, {}), **{"rfe.iterations": rec.get("iterations")})
                rec["counts"] = c
                if self.first_counts.setdefault(key, c) != c:
                    rec["problems"].append(f"work counts {c} differ from first traced pass {self.first_counts[key]}")
            out.append(rec)
        return out


def run_passes(args, solve, instances, tracer, checker) -> list[dict]:
    """Passes until the next one would end after ``--seconds``."""
    import tracer as tracing

    passes: list[dict] = []
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        dt, kernel, outcomes = run_pass(solve, instances, tracer if traced else None)
        spans = []
        if traced:
            tracer.uninstall()
            spans = tracer.take()
        counts = tracing.instance_counts(spans) if traced else None
        records = checker.records(instances, outcomes, counts)
        passes.append(
            {"traced": traced, "seconds": dt, "kernel_s": kernel, "records": records, "spans": spans}
        )
        n_traced = sum(p["traced"] for p in passes)
        if args.trace:
            enough = min(n_traced, len(passes) - n_traced) >= MIN_EACH
        else:
            enough = len(passes) >= MIN_PASSES
        if enough and perf_counter() + max(p["seconds"] for p in passes) > deadline:
            return passes


def _normalised(p: dict) -> float:
    """A pass's wall time in reference-kernel runs."""
    return p["seconds"] / statistics.median(p["kernel_s"])


def layer_values(passes, setup_spans) -> tuple[dict, dict]:
    """Per-layer values (counts per pass, median times) and self-time shares."""
    import tracer as tracing
    from tracer import END, NAME, START

    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        m = tracing.layer_metrics(p["spans"], tracing.useful_subproblems(p["spans"]))
        m["rfe.iterations"] = sum(r.get("iterations", 0) for r in p["records"])
        m["rfe.subproblems"] = sum(r.get("subproblems", 0) for r in p["records"])
        per_pass.append(m)
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    for name, key in (("opo.build", "opo.build_s"), ("model.build_problem", "model.build_problem_s")):
        values[key] = sum(s[END] - s[START] for s in setup_spans if s[NAME] == name)
    # overhead from kernel-normalised passes, so machine drift cancels
    t_norm = statistics.median(_normalised(p) for p in traced)
    u_norm = statistics.median(_normalised(p) for p in passes if not p["traced"])
    u_med = statistics.median(p["seconds"] for p in passes if not p["traced"])
    values["trace.overhead_frac"] = t_norm / u_norm - 1.0
    values["trace.overhead_s"] = values["trace.overhead_frac"] * u_med
    values["batch_wall_s"] = u_med
    values["kernel_s"] = statistics.median(k for p in passes for k in p["kernel_s"])

    shares: dict[str, float] = {}
    last = traced[-1]["spans"]
    for s, own in zip(last, tracing.self_times(last)):
        layer = s[NAME] if s[NAME].startswith("simplex.") else s[NAME].split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own
    total = sum(shares.values())
    shares = {k: round(v / total, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}
    return values, shares


def write_spans(path: Path, setup_spans, passes) -> None:
    groups = [("setup", setup_spans)] + [(str(i), p["spans"]) for i, p in enumerate(passes) if p["traced"]]
    with open(path, "w") as f:
        f.write("pass,index,name,start,end,parent,instance\n")
        for label, spans in groups:
            for k, s in enumerate(spans):
                f.write(f"{label},{k},{s[0]},{s[1]:.9f},{s[2]:.9f},{s[3]},{s[4]}\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    solve, instances, tracer = setup(args.workload, args.seed, bool(args.trace))
    if args.setup_probe:
        print("ready", flush=True)
        print(statistics.median(reference_kernel() for _ in range(3)))
        return
    import workloads
    from verify import check_solution

    setup_spans = []
    if tracer is not None:
        tracer.uninstall()
        setup_spans = tracer.take()
    setup_samples, setup_kernel = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    passes = run_passes(args, solve, instances, tracer, Checker(check_solution))

    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(bool(r["problems"]) for p in passes for r in p["records"])
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    norm = [_normalised(p) for p in passes if not p["traced"]]
    shares = None
    if args.trace:
        values, shares = layer_values(passes, setup_spans)
    else:
        values = {
            "batch_norm": statistics.median(norm),
            "setup_s": statistics.median(
                t * REF_KERNEL_S / k for t, k in zip(setup_samples, setup_kernel)
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = json.loads(DECLARED.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env = environment()
    order = [k for k, _, _ in instances]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "why": workloads.WORKLOADS[args.workload].why,
        "order": order,
        "environment": env,
        "setup_samples_s": setup_samples,
        "setup_kernel_s": setup_kernel,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "self_time_shares": shares,
        "metrics": metrics,
    }
    if args.trace:
        write_spans(OUT / f"{stem}-spans.csv", setup_spans, passes)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  order {' '.join(order)}")
    print("environment " + json.dumps(env))
    for i, p in enumerate(passes):
        print(f"pass {i}  {'traced  ' if p['traced'] else 'untraced'}  {p['seconds']:.4f} s")
    print(f"batch wall s: median {statistics.median(untraced):.4f}, max {max(untraced):.4f}; "
          f"batch_norm: median {statistics.median(norm):.2f}, max {max(norm):.2f}; "
          f"{len(untraced)} untraced passes")
    if setup_samples:
        print(f"setup wall s: median {statistics.median(setup_samples):.4f} over {len(setup_samples)} processes")
    print(f"failed_frac {failed}/{attempted}")
    for p in passes:
        for r in p["records"]:
            for prob in r["problems"]:
                print(f"FAILED {r['instance']}: {prob}")
    if shares is not None:
        print("self_time_shares " + json.dumps(shares))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
