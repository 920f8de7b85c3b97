"""The repository benchmark: one command, three workloads, layer-attributed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign_fresh --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced (wrappers on the
system's public calls, see ``layers.py``) and prints the per-layer
metrics, including the tracing overhead.  ``--smoke`` shrinks every
workload to seconds of work (the benchmark's own test uses it).

Earlier lines of standard output carry the environment block, sample
counts and every check; the last line is the result object.  A failed
correctness check prints ``"correct": false`` and exits 1; a run that
cannot execute (no program in the checkout, a child that dies) prints no
result and exits 2.  See ``METRICS.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import common

WORKLOADS = ("campaign_fresh", "campaign_resume", "serve_mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-sized workloads, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _log(tag: str, payload) -> None:
    print(f"perfbench {tag} {json.dumps(payload, sort_keys=True)}",
          flush=True)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        common.import_system()
    except (common.BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import campaign_workloads
    import serve_workload

    module = (
        serve_workload if args.workload == "serve_mixed"
        else campaign_workloads
    )
    deadline = time.monotonic() + common.RUN_BUDGET_S
    env = common.environment_start(args.seed)
    if module is serve_workload:
        env["offered_rate"] = (
            serve_workload.SMOKE_RATE if args.smoke
            else serve_workload.OFFERED_RATE
        )
    env.update(workload=args.workload, seconds=args.seconds,
               trace=args.trace, smoke=args.smoke)
    common.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=common.WORK_ROOT)
    try:
        checks, attempted, failed, metrics = module.run(
            args.workload, args.seed, args.seconds, args.smoke,
            bool(args.trace), Path(workdir), _log, deadline,
        )
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _log("environment", common.environment_end(env))
    for name, passed, detail in checks:
        _log("check", {"check": name, "passed": passed, "detail": detail})
    correct = all(passed for _, passed, _ in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
