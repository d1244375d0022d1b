"""The benchmark's measured process: set up one workload, then run passes.

Started by ``run.py`` with the inputs already generated.  It imports repfit
from the checkout's ``src``, runs the workload's one-off set-up, prints
``ready`` on stdout, and (unless ``--setup-only``) runs passes in a closed
loop, one at a time, for ``--seconds``.  With ``--trace 1`` it alternates
untraced and traced passes, after one traced pass that also measures the
census's tracemalloc peak.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from spans import Recorder

MIN_PASSES = 3
# A fit-scoring pass makes ~50,000 spans: write out only the first timed
# traced pass (pass 0 measured memory).
SPANS_WRITTEN = range(1, 2)


def _import_repfit(src: str) -> None:
    sys.path.insert(0, src)
    import repfit

    if os.path.dirname(os.path.dirname(os.path.abspath(repfit.__file__))) != os.path.abspath(src):
        raise SystemExit(f"repfit imported from {repfit.__file__}, not from {src}")


def run_one(workload, recorder=None, patches=()):
    """One pass and its checks: (seconds, digests or None, error or None)."""
    start = time.perf_counter()
    try:
        if recorder is None:
            outputs = workload.run_pass()
        else:
            with recorder.traced_pass(patches):
                outputs = workload.run_pass()
        elapsed = time.perf_counter() - start
        return elapsed, workload.check(outputs), None
    except Exception as exc:  # a failed pass is counted, reported, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"


def measure(workload, seconds: float, trace: bool, spans_path: str | None = None) -> dict:
    from workloads import patches  # imports repfit, so only after _import_repfit

    recorder = Recorder() if trace else None
    layer_patches = patches() if trace else ()
    untraced, traced, errors, digests = [], [], [], []

    def record(outcome):
        seconds, digest, error = outcome
        if error:
            errors.append(error)
        else:
            digests.append(digest)
        return seconds

    if trace:
        recorder.measure_memory = True
        record(run_one(workload, recorder, layer_patches))
        recorder.measure_memory = False
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(record(run_one(workload)))
        if trace:
            traced.append(record(run_one(workload, recorder, layer_patches)))
        now = time.perf_counter()
        if len(untraced) >= MIN_PASSES and now + (now - round_start) > begin + seconds:
            break

    result = {
        "pass_s": untraced,
        "attempted": len(untraced) + len(traced) + (1 if trace else 0),
        "failed": len(errors),
        "errors": errors[:10],
        "digests": digests[-1] if digests else {},
        "digests_stable": all(d == digests[0] for d in digests),
        "units": workload.units,
    }
    if trace:
        result["summaries"] = recorder.pass_summaries()
        result["expected_accept"] = getattr(workload, "expected_accept", 0.0)
        if spans_path:
            recorder.write(spans_path, SPANS_WRITTEN)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True, help="directory with the generated inputs")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    _import_repfit(args.src)
    from workloads import WORKLOADS

    with open(os.path.join(args.dir, "manifest.json")) as handle:
        manifest = json.load(handle)
    workload = WORKLOADS[args.workload](manifest, args.dir)
    try:
        workload.setup()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args.seconds, bool(args.trace), args.spans)
    finally:
        workload.close()
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
