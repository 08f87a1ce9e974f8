"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-steady --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats set-up plus one measured run ``--seconds`` divided
by the workload's nominal repeat length times (at least twice) and
reports the end-to-end metrics.  ``--trace 1`` makes one untraced and one traced
set-up plus run and reports the per-layer metrics.  In both modes each repeat's
outputs are checked right after its run, outside the timing.

The second-to-last line of standard output is a detail record
(environment, sizes, tail percentile and sample count, guards); the
last line is ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every check and guard passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 2
LOOP = (
    "closed loop: one caller per pipeline; feed producers are held back by "
    "the bounded ingest queue (256, block); replay-stale validates one "
    "snapshot after another"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload, for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


def one_rep(workload, first: bool):
    """Set up (timed, ``setup_repeats`` times) and run once."""
    from perfbench.workloads import CLOCK, maxrss_mb

    gc.collect()
    setups = []
    system = None
    for _ in range(workload.setup_repeats):
        system = None
        start = CLOCK()
        system = workload.setup()
        setups.append(CLOCK() - start)
    setup_rss = maxrss_mb()
    gc.collect()
    rep = workload.run(system)
    system = None
    rep.setup_s = setups
    rep.setup_rss_mb = setup_rss
    if first:
        rep.peak_rss_mb = workload.peak_rss_mb()
    return rep


def _verified(workload, rep):
    """Check a repeat's outputs, then drop them before the next repeat."""
    rep.failed = workload.verify(rep)
    rep.outcome = None
    return rep


def measure(workload, seconds: float, trace: bool):
    """Returns ``(reps, per-layer metrics or None)``.

    Each repeat is checked right after its run, outside the timing, so
    no repeat runs with an earlier one's outputs still alive."""
    from perfbench import adapter
    from perfbench.trace import Tracer

    if trace:
        untraced = _verified(workload, one_rep(workload, first=True))
        with Tracer(adapter.trace_points()) as rec:
            traced = one_rep(workload, first=False)
        layers = workload.layers(rec, traced)
        layers["setup.rss_mb"] = untraced.setup_rss_mb
        layers["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
        return [untraced, _verified(workload, traced)], layers
    count = max(MIN_REPS, int(seconds // workload.rep_seconds))
    return [_verified(workload, one_rep(workload, first=i == 0)) for i in range(count)], None


def end_to_end(reps) -> tuple:
    from perfbench.metrics import epoch_means, p50, tail

    latencies = [x for rep in reps for x in rep.latencies_s]
    tail_value, percentile, samples = tail(latencies)
    values = {
        "setup_s": statistics.median(s for rep in reps for s in rep.setup_s),
        "updates_per_s": statistics.median(rep.updates / rep.wall_s for rep in reps),
        "epochs_per_s": statistics.median(rep.validated / rep.wall_s for rep in reps),
        "verdict_p50_ms": 1000.0 * p50(epoch_means([rep.latencies_s for rep in reps])),
        "verdict_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": reps[0].peak_rss_mb,
    }
    return values, {"percentile": percentile, "samples": samples}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A launcher that ignores SIGINT (a background job) would stop
    # asyncio.run from installing its handler, and with it the teardown
    # that restoring the handler costs; measure the interactive default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import metrics
    from perfbench.workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tmp_root = ROOT / "perfbench" / ".tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        workload = WORKLOADS[args.workload](SIZES[args.size], args.seed, workdir)
        reps, layers = measure(workload, args.seconds, bool(args.trace))
        guards = workload.guards()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(rep.expected for rep in reps)
    failed = sum(rep.failed for rep in reps)
    values, tail_info = end_to_end(reps)
    if layers is None:
        emitted = {name: (values[name], unit) for name, (unit, _b, _d) in metrics.END_TO_END.items()}
    else:
        emitted = {name: (layers[name], unit) for name, (unit, _b, _t) in metrics.PER_LAYER.items()}
    guards_ok = all(guard["ok"] for guard in guards.values())
    correct = failed == 0 and guards_ok
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "loop": LOOP,
        "shape": workload.describe(),
        "reps": len(reps),
        "setup_s": [s for rep in reps for s in rep.setup_s][:8],
        "run_wall_s": [rep.wall_s for rep in reps],
        "verdict_tail": tail_info,
        "epoch_failure_frac": failed / attempted,
        "guards": guards,
        "end_to_end": values,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in emitted.items()},
    }))
    if not correct:
        print(f"perfbench: checks failed: {failed} epochs, guards {guards}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
