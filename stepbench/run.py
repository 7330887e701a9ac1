"""Session-step benchmark: one command, three workloads.

Run from the root of a repository checkout::

    python3 stepbench/run.py --workload a3-3k-ref --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of the untraced run;
``--trace 1`` runs each unit untraced and then traced, and prints the
per-layer metrics.  Every metric appears in a table with its unit and
sample count; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when an output check fails and 2 when the program's source is missing.

All load comes from this process (and, for the serving workload, its
shard workers), each with one BLAS thread.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for recorded streams and checkpoints, removed at exit.
WORK_DIR = ROOT / ".stepbench_work"
#: Traced runs write their spans here.
OUT_DIR = ROOT / ".stepbench_out"


def _children() -> list:
    """PIDs of this process's live children (Linux ``/proc``; else none)."""
    pids = []
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids.extend(int(p) for p in (task / "children").read_text().split())
        except (OSError, ValueError):
            continue
    return pids


def stop_children(grace: float = 5.0) -> None:
    """Stop and reap every child process still running.

    Pools shut down their workers before this point; this is the last
    line of defence on every path out of the benchmark, so nothing it
    started outlives it.
    """
    pids = _children()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    for pid in pids:
        while True:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"stepbench: no program source under {src}; run from a "
              f"repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads
    from report import result_line, table

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"stepbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("stepbench: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(workload, args.seed, args.seconds, workdir)
        if args.trace:
            plain, out, rows = run.trace()
            problems = plain.problems + out.problems
            metrics = workloads.per_layer(plain, out, run.n_sources)
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl.gz"
            with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
                for row in rows:
                    handle.write(json.dumps(row) + "\n")
            listed = metrics
        else:
            out = run.measure()
            problems = out.problems
            metrics = workloads.end_to_end(out)
            listed = metrics + list(workloads.accuracy(out, run.n_sources).values())
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    n_steps = len(out.latencies)
    print(f"# stepbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} steps={n_steps}")
    print(table(listed))
    for problem in problems:
        print(f"# check failed: {problem}")
    correct = not problems
    print(result_line(correct, out.attempted, out.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
