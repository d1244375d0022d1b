"""Seed handling and threads shared by the samplers and the census."""

import copy
import os
import threading

import numpy as np

from .errors import ValidationError


def checked_rng(seed: int | None) -> np.random.Generator:
    """A fresh generator, rejecting seeds numpy would choke on."""
    if seed is not None:
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _split(rng: np.random.Generator, sizes: list[int]) -> list[np.random.Generator]:
    """One generator per size, each drawing the float64 uniforms that
    ``rng.random`` would draw for its part of ``sum(sizes)`` laid end to end;
    ``rng`` is moved past them all.

    A float64 uniform takes one 64-bit output of the bit generator, so each
    part is a copy advanced to the part's start.  ``advance`` drops the
    32-bit value that PCG64 buffers for its next 32-bit draw; ``rng`` gets
    its own back.  Bit generators whose ``advance`` counts other steps, or
    which have none, are rejected.
    """
    bit = rng.bit_generator
    if not isinstance(bit, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ValidationError(
            f"draws need a PCG64 or PCG64DXSM bit generator, got {type(bit).__name__}"
        )
    parts, start = [], 0
    for size in sizes:
        part = copy.deepcopy(bit)
        part.advance(start)
        parts.append(np.random.Generator(part))
        start += size
    state = bit.state
    bit.advance(start)
    bit.state = {**bit.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    return parts


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_threads(jobs: list) -> list:
    """Call every job at once, the first on this thread and each other on a
    thread of its own; their results in order.  The first exception a job
    raises is raised here, after every thread has ended."""
    results, errors = [None] * len(jobs), []

    def run(i):
        try:
            results[i] = jobs[i]()
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(jobs))]
    for thread in threads:
        thread.start()
    if jobs:
        run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results
