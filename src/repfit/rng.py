"""Seed handling, draws and threads shared by the samplers and the census.

This module owns the one categorical fill, which draws the letters of an
i.i.d. text and the cards of an urn alike, the one rule that cuts work
into thread parts, and the split of a power-of-two key stream: its parts
fill whole 64-bit outputs, and numpy draws the few keys at either edge.
"""

import copy
import os
import threading
from functools import partial

import numpy as np

from .errors import ValidationError

# Fewest cells per thread part: below this, starting a thread costs more
# than the second core saves.
_MIN_PART = 1 << 20
# Values worked per step, 2^16 of 8 bytes, kept in cache across many passes:
# a categorical fill's uniforms, one pass per cdf entry (the urn sampler's
# cards, or a sampled text's fill jobs in sum, half each for traffic's two
# texts), and the census's keys, one per symbol column packed or order counted.
_SAMPLE_CHUNK = 1 << 16


def checked_rng(seed: int | None) -> np.random.Generator:
    """A fresh generator, rejecting seeds numpy would choke on."""
    if seed is not None:
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _advanceable(rng: np.random.Generator) -> np.random.BitGenerator:
    """``rng``'s bit generator, if its ``advance`` counts 64-bit outputs."""
    bit = rng.bit_generator
    if not isinstance(bit, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ValidationError(
            f"draws need a PCG64 or PCG64DXSM bit generator, got {type(bit).__name__}"
        )
    return bit


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
    bit = _advanceable(rng)
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


def _parts(n: int, cells: int, cpus: int) -> list[tuple[int, int]]:
    """Bounds (lo, hi) cutting 0..n into near-equal parts for ``cells`` cells
    of work: parts of at least _MIN_PART cells, one per CPU at most, and at
    least one."""
    parts = max(1, min(cpus, cells // _MIN_PART))
    bounds = [n * p // parts for p in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _fill_categorical(codes: np.ndarray, p: np.ndarray, rng: np.random.Generator,
                      chunk: int) -> None:
    """Each of ``codes`` a category drawn with proportions ``p`` as
    ``Generator.choice`` draws it: from one float64 uniform u, the count of
    entries <= u of the cdf, ``p.cumsum()`` over its last entry, which is
    ``cdf.searchsorted(u, side="right")``.  The count is tallied one entry
    at a time over ``chunk`` uniforms, and stops at the first entry of 1.0:
    u < 1, and no entry exceeds the last, which is 1.0."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    top = int(cdf.searchsorted(1.0))
    u = np.empty(min(codes.size, chunk))
    hit = np.empty(u.size, dtype=bool)
    for lo in range(0, codes.size, chunk):
        part = codes[lo : lo + chunk]
        draws = rng.random(out=u[: part.size])
        np.greater_equal(draws, cdf[0], out=part)
        for k in range(1, top):
            np.greater_equal(draws, cdf[k], out=hit[: part.size])
            part += hit[: part.size]


def _split_keys(rng: np.random.Generator, shape: tuple[int, ...], c: int,
                cpus: int) -> tuple[np.ndarray, list]:
    """int16 keys equal to ``rng.integers(0, c, shape, dtype=np.int16)`` for c
    a power of two, and the jobs that fill them, one per part (see _parts);
    ``rng`` is left where that draw leaves it.  The jobs may run in any
    order, at once.

    For c = 2**b numpy's bounded draw rejects nothing: a key is the top b
    bits of one 16-bit half of a 32-bit draw, low half first, so keys come
    four to a 64-bit output.  The parts cover whole outputs only, split as
    rng._split's uniforms are; numpy draws the keys at either edge: first
    those of a 32-bit value the bit generator buffers, then the last one to
    four keys, leaving the buffer as its own draw of them all would.
    """
    keys = np.empty(shape, dtype=np.int16)
    flat = keys.reshape(-1)
    head = min(flat.size, 2) if _advanceable(rng).state["has_uint32"] else 0
    flat[:head] = rng.integers(0, c, head, dtype=np.int16)
    outputs = max(0, flat.size - head - 1) // 4
    parts = _parts(outputs, flat.size, cpus)
    gens = _split(rng, [hi - lo for lo, hi in parts])
    tail = head + 4 * outputs
    flat[tail:] = rng.integers(0, c, flat.size - tail, dtype=np.int16)
    body = flat[head:tail].view(np.uint16)
    # A part draws a 64th of its outputs at a time, from 8 to 128 KB of them.
    step = min(max(outputs // len(parts) // 64, 1 << 10), 1 << 14)
    return keys, [partial(_fill_keys, body[4 * lo : 4 * hi], gen.bit_generator, c, step)
                  for (lo, hi), gen in zip(parts, gens)]


def _fill_keys(keys: np.ndarray, bit: np.random.BitGenerator, c: int, step: int) -> None:
    """Each uint16 of ``keys`` the top log2(c) bits of the next little-endian
    16-bit half of ``bit``'s 64-bit outputs, ``step`` outputs at a time."""
    for lo in range(0, keys.size, 4 * step):
        part = keys[lo : lo + 4 * step]
        raw = bit.random_raw(part.size // 4).astype("<u8", copy=False)
        np.right_shift(raw.view("<u2"), 17 - c.bit_length(), out=part)


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_threads(jobs: list) -> list:
    """Call every job at once, the first on this thread and each other on a
    thread of its own; their results in order.  The exception of the first
    job in the list that raises one is raised here, after every thread has
    ended."""
    results, errors = [None] * len(jobs), [None] * len(jobs)

    def run(i):
        try:
            results[i] = jobs[i]()
        except BaseException as exc:  # re-raised in the caller
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(jobs))]
    for thread in threads:
        thread.start()
    if jobs:
        run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
