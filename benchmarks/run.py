"""Benchmark of the `lightcone` command line.

    python3 benchmarks/run.py --workload verify-pointwise --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src`` and
need not be installed.  Set-up time is measured on fresh interpreters.  Then
this one process issues the workload's invocations one at a time through
`lightcone.cli.main` (a closed loop), in a fixed number of whole passes,
and checks every output.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs two untraced passes and one traced pass and prints the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when an invocation exits nonzero or fails a check of its output, and
when the program cannot be found.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS pool before numpy loads, here and in the set-up interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LIGHTCONE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
#: whole passes of an untraced run, whatever --seconds says; two, so that
#: outputs can be compared byte for byte across passes
PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def setup_seconds():
    """Median wall time of a fresh interpreter importing lightcone.cli.

    One untimed import first writes the bytecode cache, which a user pays
    once per install, not once per command.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    cmd = [sys.executable, "-c", "import lightcone.cli"]
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, timeout=120)
        if k:
            times.append(perf_counter() - t0)
    return statistics.median(times)


def fingerprint():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def invoke(main, argv, log):
    """Run one `lightcone` command in this process; return (exit code, seconds).

    The command's standard output and error go to ``log`` at the descriptor
    level, because the manifest summary writes to the stdout object bound
    when `lightcone.cli` was imported.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(1), os.dup(2)
    with open(log, "w") as fh:
        os.dup2(fh.fileno(), 1)
        os.dup2(fh.fileno(), 2)
        try:
            t0 = perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed invocation, not a crash
                traceback.print_exc()
                code = 1
            seconds = perf_counter() - t0
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])
    return code, seconds


def judge(inv, code, out_dir, first_dir):
    """Problems of one invocation: a nonzero exit, failed output checks, and
    outputs that differ from the first pass."""
    problems = [f"exit {code}"] if code else []
    try:
        problems += inv.check(out_dir)
        for name in inv.stable if first_dir is not None else ():
            problems += checks.identical(
                name, (first_dir / name).read_bytes(), (out_dir / name).read_bytes()
            )
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def run_pass(main, invocations, out_dir, first_dir, tracer=None):
    """One closed-loop pass; returns (pass seconds, per-invocation results)."""
    out_dir.mkdir(parents=True)
    call = tracer.wrap(invoke, "cli") if tracer is not None else invoke
    t0 = perf_counter()
    timed = [call(main, inv.argv(out_dir), out_dir / f"{k}.log")
             for k, inv in enumerate(invocations)]
    wall = perf_counter() - t0
    results = [(inv.label, code, seconds, judge(inv, code, out_dir, first_dir))
               for inv, (code, seconds) in zip(invocations, timed)]
    return wall, results


def tally(passes):
    """Print the outcome of every invocation; return (attempted, failed)."""
    attempted = failed = 0
    for k, (wall, results) in enumerate(passes):
        print(f"pass {k}: {wall:.3f} s")
        for label, code, seconds, problems in results:
            attempted += 1
            failed += bool(problems)
            print(f"  {label:<22} exit {code}  {seconds:8.3f} s  "
                  + ("ok" if not problems else "; ".join(problems)))
    return attempted, failed


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lightcone" / "cli.py").is_file():
        print(f"error: no lightcone package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2

    setup = None if args.trace else setup_seconds()
    sys.path.insert(0, str(SRC))
    from lightcone import cli

    print("env " + json.dumps(fingerprint()))
    run_dir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    invocations = workloads.WORKLOADS[args.workload](args.seed, inputs)

    passes = []  # (pass seconds, results)
    tracer = None
    # A traced run times a cold pass, a warm pass and a traced pass; the
    # tracing overhead is the traced pass minus the warm one.
    n_passes = 3 if args.trace else PASSES
    for k in range(n_passes):
        first_dir = run_dir / "pass0" if k else None
        if args.trace and k == 2:
            tracer = Tracer()
            tracer.install()
        try:
            passes.append(run_pass(cli.main, invocations, run_dir / f"pass{k}", first_dir, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
    if tracer is not None:
        tracer.write(run_dir / "spans.npz")

    attempted, failed = tally(passes)
    correct = failed == 0
    if args.trace:
        metrics = tracer.metrics()
        metrics["search.nm_iterations"] = (workloads.nm_iterations(run_dir / "pass2"), "count")
        metrics["trace.overhead_s"] = (passes[2][0] - passes[1][0], "s")
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "run_s": (statistics.median(w for w, _ in passes), "s"),
            "op_max_s": (statistics.median(max(r[2] for r in res) for _, res in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(f"{args.workload}: attempted {attempted}, failed {failed}, passes {len(passes)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
