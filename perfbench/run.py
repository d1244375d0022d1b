"""repfit benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-pipeline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Workloads (see ``inputs.SIZES`` for sizes, ``workloads.py`` for passes):

* ``corpus-pipeline``: ``stats --strip --rmax 9`` on 4x10^6 letters of
  Zipf-word text in 4 files, ``urn --from-stats``, ``score --a --b`` at 5
  shifts of a 2000-letter depth pair.  The only workload where corpus
  normalization and the census do the work.
* ``calibration``: ``simulate`` at the acceptance configuration (c=4,
  10^5-letter corpus, 2x10^5 pairs, overlap 50).  Traffic generation and
  the run-length table dominate; the census is a few percent.
* ``fit-scoring``: ``sample --overlap 100 --count 10000`` from an urn fitted
  at set-up, then ``odds_of_fit`` on every sampled figure and on all 1999
  shifts of a 1000-letter depth pair.  Exercises figures, the scalar
  scoring path and the urn sampler; bypasses the census and simlab.

This process generates the inputs (numpy only), then starts ``worker.py``,
which imports repfit from ``src`` and drives ``repfit.cli.main`` and the
public API in-process: a closed loop of one pass at a time.  ``setup_s`` is
the median over several worker starts of the time from process start to
ready; ``peak_rss_mb`` is the worker's peak RSS.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (passes; a pass fails on a non-zero exit code, an exception or a
failed output check) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A full record, with the sha256 of every input and seeded artifact, is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from spans import LAYERS, layer_of  # noqa: E402

WORKLOADS = ("corpus-pipeline", "calibration", "fit-scoring")
UNIT_OF_WORK = {"corpus-pipeline": "letters", "calibration": "pairs", "fit-scoring": "fits"}
SETUP_RUNS = 7
# Allowance beyond the measuring time for set-up, the last pass and checks;
# a stuck worker is stopped well inside the 180 s a run may take.
WORKER_GRACE_S = 100.0
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed pass)."""


def _run_worker(workload: str, work: str, seconds: float, trace: int, extra: list[str]) -> float:
    """Run one worker to its end; return the seconds from its start to ``ready``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--dir", work, "--src", os.path.join(ROOT, "src"),
           "--seconds", repr(seconds), "--trace", str(trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **WORKER_ENV})
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_GRACE_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker did not get ready")
        proc.wait(timeout=seconds + WORKER_GRACE_S)
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited {proc.returncode}")
        return setup_s
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker still running after its time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def tail_percentile(values: list[float]):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(result: dict, setup_times: list[float]) -> dict:
    pass_s = statistics.median(result["pass_s"])
    return {
        "work_per_s": {"value": result["units"] / pass_s, "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def per_layer(result: dict) -> dict:
    """Per-layer metrics: means over the timed traced passes, so that the
    ``*.self_s`` times plus ``cli.normalize_s`` add up to ``trace.pass_s``.
    The first traced pass measured the census's tracemalloc peak and is used
    only for that."""
    memory, timed = result["summaries"][0], result["summaries"][1:]

    def mean(get):
        return sum(get(s) for s in timed) / len(timed)

    def incl(name):
        return mean(lambda s: s["inclusive_s"].get(name, 0.0))

    def own(name):
        return mean(lambda s: s["self_s"].get(name, 0.0))

    def count(key):
        return mean(lambda s: s["counts"].get(key, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    traced_s = mean(lambda s: s["pass_s"])
    untraced_s = statistics.fmean(result["pass_s"])
    figures, scrapped = count("urn.figures_sampled"), count("urn.scrapped")
    m = {
        "trace.pass_s": (traced_s, "s"),
        "trace.untraced_pass_s": (untraced_s, "s"),
        "trace_overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (mean(lambda s: sum(
            v for k, v in s["self_s"].items() if layer_of(k) == layer)), "s")
    # Normalization is reported on its own, so cli.self_s is what remains of
    # cli.main: argparse, JSON and artifact writes.
    m["cli.self_s"] = (own("cli.main"), "s")
    m.update({
        "cli.normalize_s": (incl("cli.normalize"), "s"),
        "cli.normalize_mb_per_s": (ratio(count("cli.normalize.bytes") / 1e6,
                                         incl("cli.normalize")), "MB/s"),
        "corpus.build_s": (incl("corpus.build"), "s"),
        "corpus.census_s": (incl("corpus.census"), "s"),
        "corpus.census_letters_per_s": (ratio(count("corpus.census.letters"),
                                              incl("corpus.census")), "1/s"),
        "corpus.census_peak_b_per_letter": (ratio(
            memory["counts"].get("corpus.census.peak_bytes", 0),
            memory["counts"].get("corpus.census.letters", 0)), "B"),
        "urn.fit_s": (incl("urn.fit"), "s"),
        "urn.sample_s": (incl("urn.sample"), "s"),
        "urn.figures_sampled": (figures, "count"),
        "urn.scrapped": (scrapped, "count"),
        "urn.accept_ratio": (ratio(figures, figures + scrapped), "ratio"),
        "urn.accept_expected": (result["expected_accept"], "ratio"),
        "figures.parse_s": (incl("figures.parse"), "s"),
        "figures.compare_s": (incl("figures.compare"), "s"),
        "figures.spectrum_s": (incl("figures.spectrum"), "s"),
        "figures.cells_compared": (count("figures.cells_compared"), "count"),
        "scoring.score_s": (incl("scoring.score"), "s"),
        "scoring.score_self_s": (own("scoring.score"), "s"),
        "scoring.weights_s": (incl("scoring.weights"), "s"),
        "scoring.fits": (count("scoring.fits"), "count"),
        "scoring.weights_per_fit": (ratio(count("scoring.weights_calls"),
                                          count("scoring.fits")), "ratio"),
        "simlab.experiment_self_s": (own("simlab.experiment"), "s"),
        "simlab.lm_sample_s": (incl("simlab.lm_sample"), "s"),
        "simlab.traffic_s": (incl("simlab.traffic"), "s"),
        "simlab.runlength_s": (incl("simlab.runlength"), "s"),
        "simlab.runs": (count("simlab.runs"), "count"),
        "simlab.cells": (count("simlab.cells"), "count"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}")
    try:
        manifest = inputs.generate(workload, seed, work, size)
        setup_times = [] if trace else [
            _run_worker(workload, work, seconds, trace, ["--setup-only"])
            for _ in range(SETUP_RUNS - 1)]
        result_path = os.path.join(work, "result.json")
        extra = ["--result", result_path] + (["--spans", stem + "-spans.jsonl.gz"] if trace else [])
        setup_times.append(_run_worker(workload, work, seconds, trace, extra))
        with open(result_path) as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(result) if trace else end_to_end(result, setup_times)
    record = {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds, "trace": trace,
        "inputs_sha256": manifest["sha256"], "artifacts_sha256": result["digests"],
        "artifacts_stable": result["digests_stable"], "pass_s": result["pass_s"],
        "setup_s": setup_times, "traced_passes": len(result.get("summaries", [None])) - 1,
        "attempted": result["attempted"], "failed": result["failed"],
        "errors": result["errors"], "metrics": metrics,
    }
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return record


def report(record: dict) -> None:
    """Human-readable lines for one workload run."""
    w = record["workload"]
    print(f"== {w}  seed {record['seed']}  size {record['size']}  trace {record['trace']}")
    for name, digest in sorted(record["inputs_sha256"].items()):
        print(f"   input    {name:<16} sha256 {digest}")
    for name, digest in sorted(record["artifacts_sha256"].items()):
        print(f"   artifact {name:<16} sha256 {digest}")
    if not record["artifacts_stable"]:
        print("   note: artifacts differed between passes")
    n = len(record["pass_s"])
    if record["trace"]:
        print(f"   per-layer values: means over {record['traced_passes']} traced passes")
    for name, metric in record["metrics"].items():
        samples = ""
        if name == "work_per_s":
            name = f"work_per_s ({UNIT_OF_WORK[w]}_per_s)"
            samples = f"median of {n} passes"
            tail = tail_percentile(record["pass_s"])
            if tail:
                samples += f", p{tail[0]} pass {tail[1]:.4f} s"
        elif name == "setup_s":
            samples = f"median of {len(record['setup_s'])} set-ups"
        elif name == "peak_rss_mb":
            samples = "1 sample"
        print(f"   {name:<34} {metric['value']:>16.6g} {metric['unit']:<6} {samples}")
    print(f"   failed_frac {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.4g}")
    for error in record["errors"]:
        print(f"   error: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repfit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repfit", "__init__.py")):
        print(f"perfbench: no repfit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit, so a worker still running is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace, args.size) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
