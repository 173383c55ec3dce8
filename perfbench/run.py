"""memlab's benchmark: run one workload through `memlab.cli.main` for a fixed
time, check every CSV row it emits, and report the metrics as JSON.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With `--trace 0` every pass runs untraced and the end-to-end metrics are
reported.  With `--trace 1` untraced and traced passes alternate, pairs share
their inputs and must emit byte-identical CSVs, and the per-layer metrics are
reported.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the full record, and in traced
runs every span, is written under `.perfbench_out/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
OUT = workloads.ROOT / ".perfbench_out"
SETUP_PROBES = 7
DEFAULT_SEED = 1


@dataclass
class Pass:
    wall: float
    cpu: float
    rows: int
    attempted: int
    failed: int
    texts: list[str] = field(repr=False)


def _cpu() -> float:
    """User plus system CPU seconds of this process and its children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _invoke(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing cell is one failed operation; the run goes on
        traceback.print_exc()
        return 1


def run_pass(main, cells, cli_seed: int, out_dir: Path) -> Pass:
    """Run every cell once and check every row.  An operation is one CSV data
    row, plus one per invocation that exits nonzero; a missing or extra row
    counts as a failed one."""
    t0, c0 = perf_counter(), _cpu()
    rows = attempted = failed = 0
    texts = []
    for k, cell in enumerate(cells):
        path = out_dir / f"cell{k:02d}.csv"
        path.unlink(missing_ok=True)
        code = _invoke(main, workloads.argv(cell, cli_seed, path))
        try:
            text = path.read_text()
        except FileNotFoundError:
            text = ""
        n, bad = checks.check_csv(cell.kind, text)
        ops = max(n, cell.rows) + (code != 0)
        rows += n
        attempted += ops
        failed += min(ops, bad + abs(n - cell.rows) + (code != 0))
        texts.append(text)
    return Pass(perf_counter() - t0, _cpu() - c0, rows, attempted, failed, texts)


def measure(seconds: float, one):
    """Call one(k) for k = 0, 1, ... until the next call would end past
    `seconds`; at least once."""
    results, start = [], perf_counter()
    while True:
        t = perf_counter()
        results.append(one(len(results)))
        if perf_counter() - start + (perf_counter() - t) > seconds:
            return results


def setup_time(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first cell being ready."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                          stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith(("_ratio", "overhead", "ok_rate")):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def plain_run(main, cells, seed: int, seconds: int, out_dir: Path):
    passes = measure(seconds, lambda k: run_pass(main, cells, workloads.pass_seed(seed, k), out_dir))
    walls = [p.wall for p in passes]
    cpus = [p.cpu for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": (attempted - failed) / attempted,
    }
    detail = {"passes": len(passes), "wall_s": walls, "cpu_s": cpus}
    return metrics, attempted, failed, True, detail


def traced_run(main, cells, seed: int, seconds: int, out_dir: Path):
    import memlab.adversary
    import memlab.cli
    import tracer as tracing

    tracer = tracing.Tracer()

    def pair(k: int) -> tuple[Pass, Pass]:
        cli_seed = workloads.pass_seed(seed, k)

        def untraced() -> Pass:
            return run_pass(main, cells, cli_seed, out_dir)

        def traced() -> Pass:
            tracer.trace_id = k
            with tracer.installed(memlab.cli, memlab.adversary):
                return run_pass(main, cells, cli_seed, out_dir)

        if k % 2:  # alternate the order so drift during a run cancels
            t = traced()
            return untraced(), t
        u = untraced()
        return u, traced()

    pairs = measure(seconds, pair)
    identical = all(u.texts == t.texts for u, t in pairs)
    traced_passes = [t for _, t in pairs]
    metrics = tracer.metrics([t.wall for t in traced_passes], sum(t.rows for t in traced_passes))
    metrics["trace.overhead"] = statistics.median(t.wall / u.wall for u, t in pairs) - 1
    tracer.write_spans(out_dir / f"spans-seed{seed}.jsonl")
    attempted = sum(p.attempted for pr in pairs for p in pr)
    failed = sum(p.failed for pr in pairs for p in pr)
    detail = {"pairs": len(pairs), "csv_identical": identical,
              "untraced_wall_s": [u.wall for u, _ in pairs],
              "traced_wall_s": [t.wall for t in traced_passes]}
    return metrics, attempted, failed, identical, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workloads.use_source_tree()
    setups = [] if args.trace else [setup_time(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]

    import numpy
    import memlab.cli

    cells = workloads.WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    selftest_ok = checks.selftest()
    run = traced_run if args.trace else plain_run
    metrics, attempted, failed, identical, detail = run(
        memlab.cli.main, cells, args.seed, args.seconds, out_dir)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        detail["setup_s"] = setups
    correct = selftest_ok and identical and failed == 0

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "commit": git_commit()}
    print(f"perfbench {args.workload}: closed loop, one client, --jobs 1, "
          f"seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r} {unit(name)}")
    if args.trace:
        print(f"  traced CSVs byte-identical to untraced: {identical}")
    else:
        lo, hi = _quartiles(detail["wall_s"])
        print(f"  wall_s is the median of {detail['passes']} passes, quartiles {lo!r} .. {hi!r}; "
              "too few passes for a higher percentile with 10 samples beyond it")
    print(f"  error_rate {failed}/{attempted} operations = {failed / attempted!r}; "
          f"checker self-test {'passed' if selftest_ok else 'FAILED'}")
    print(f"  env {json.dumps(env)}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit(name)}
                          for name, value in metrics.items()}}
    record = dict(result, env=env, detail=detail, selftest=selftest_ok)
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
