"""Seed handling, draws and threads shared by the samplers and the census.

This module owns the one categorical fill, which draws the letters of an
i.i.d. text and the cards of an urn alike, the one rule that cuts work
into thread parts, and key streams read a block at a time: numpy draws the
few keys at either edge of a stream, and each reader filters the whole
64-bit outputs between, as numpy would, from its own copy of the generator.
"""

import copy
import os
import threading
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# Fewest cells per thread part: below this, starting a thread costs more
# than the second core saves.
_MIN_PART = 1 << 20
# Values worked per step, 2^16 of 8 bytes, kept in cache across many passes:
# a categorical fill's uniforms, one pass per cdf entry, or a chain's c sums
# a row, twice over (the urn sampler's cards, a sampled text's fill jobs in
# sum, or a block of traffic's pairs), and the census's keys, one per
# doubling step packed or order counted.
_SAMPLE_CHUNK = 1 << 16
# Outputs a key stream's keys are counted by: a reader starts at a block.
_KEY_BLOCK = _SAMPLE_CHUNK // 4
# Cdf entries below 1.0 past which a categorical fill searches the cdf per
# uniform, not passes over the uniforms per entry: on 2^16 uniforms, ~4.5 ms
# both ways at 256, 6 against 19 ms at 1,024 (2 vCPU Xeon VM, numpy 2.4).
_SEARCH_FROM = 256


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


def _advanced(bit: np.random.BitGenerator, steps: int) -> np.random.BitGenerator:
    """A copy of ``bit`` moved on ``steps`` 64-bit outputs."""
    bit = copy.deepcopy(bit)
    bit.advance(steps)
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
        parts.append(np.random.Generator(_advanced(bit, start)))
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
    ``cdf.searchsorted(u, side="right")``.  The count stops at the first
    entry of 1.0: u < 1, and no entry exceeds the last, which is 1.0.  It
    is tallied one entry at a time over ``chunk`` uniforms, or, past
    _SEARCH_FROM entries below 1.0, searched for."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    top = int(cdf.searchsorted(1.0))
    u = np.empty(min(codes.size, chunk))
    hit = np.empty(u.size, dtype=bool)
    for lo in range(0, codes.size, chunk):
        part = codes[lo : lo + chunk]
        draws = rng.random(out=u[: part.size])
        if top > _SEARCH_FROM:
            part[:] = cdf[:top].searchsorted(draws, side="right")
            continue
        np.greater_equal(draws, cdf[0], out=part)
        for k in range(1, top):
            np.greater_equal(draws, cdf[k], out=hit[: part.size])
            part += hit[: part.size]


def _halves(bit: np.random.BitGenerator, outputs: int) -> np.ndarray:
    """The 16-bit halves of ``bit``'s next ``outputs`` outputs, low first."""
    return bit.random_raw(outputs).astype("<u8", copy=False).view("<u2")


def _kept(halves: np.ndarray, c: int) -> np.ndarray:
    """Which ``halves`` x numpy's bounded draw of keys < c keeps: those whose
    wrapping uint16 product x * c is at least 2**16 mod c (0 for c = 2**b)."""
    return np.multiply(halves, np.uint16(c)) >= (1 << 16) % c


class _Keys(NamedTuple):
    """A stream of keys: ``head``, then the key (x * c) >> 16 of each half x
    of ``body``'s outputs that _kept keeps.  ``kept[i]`` counts the body's
    keys before output i * _KEY_BLOCK."""

    head: np.ndarray
    body: np.random.BitGenerator
    kept: np.ndarray
    c: int


def _split_keys(rng: np.random.Generator, n: int, c: int) -> _Keys:
    """The ``n`` keys of ``rng.integers(0, c, n, dtype=np.int16)``, to read
    with _KeyReader; ``rng`` is left where that draw leaves it.

    numpy draws the keys at either edge here: first those of the kept
    halves of a 32-bit value the bit generator buffers, then those from the
    last output whose count of keys before it is known, leaving the buffer
    as its own draw of them all would.  The body between is a copy of the
    bit generator at its first whole output; ``rng`` advances past it,
    dropping a buffered value whose halves numpy would drop too.  For
    c = 2**b each output holds four keys; otherwise a pass over a copy of
    the body counts each block's keys up to the block of the last.
    """
    state = _advanceable(rng).state
    buffered = np.array([state["uinteger"]] * state["has_uint32"], "<u4").view("<u2")
    head = rng.integers(0, c, min(n, np.count_nonzero(_kept(buffered, c))), dtype=np.int16)
    n, body = n - head.size, _advanced(rng.bit_generator, 0)
    if (1 << 16) % c:
        kept, counter = [0], _advanced(body, 0)
        while (total := kept[-1] + np.count_nonzero(_kept(_halves(counter, _KEY_BLOCK), c))) < n:
            kept.append(total)
        last, before = (len(kept) - 1) * _KEY_BLOCK, kept[-1]
    else:
        kept, last = range(0, max(n, 1), 4 * _KEY_BLOCK), max(n - 1, 0) // 4
        before = 4 * last
    if n:
        rng.bit_generator.advance(last)
        rng.integers(0, c, n - before, dtype=np.int16)
    return _Keys(head, body, np.array(kept), c)


class _KeyReader:
    """Reads the keys of a stream in order from key ``start``, a block at a
    time, from its own copy of the body advanced to the block that holds
    key ``start``, and on past the body's last whole output.  Keys not yet
    read wait as values whose bits past ``shift`` are keys: a kept half x at
    c = 2**b, else x * c, and the head's keys shifted up."""

    def __init__(self, keys: _Keys, start: int):
        self.keys = keys
        skip = max(start - keys.head.size, 0)
        block = int(keys.kept.searchsorted(skip, side="right")) - 1
        self.body, self.skip = _advanced(keys.body, block * _KEY_BLOCK), skip - keys.kept[block]
        self.shift = 16 if (1 << 16) % keys.c else 17 - keys.c.bit_length()
        self.halves = keys.head[start:].astype(np.uint32) << self.shift

    def read(self, out: np.ndarray) -> np.ndarray:
        """``out``, a contiguous uint8 array, filled with the next keys."""
        dst, c = out.reshape(-1), self.keys.c
        while dst.size:
            if not self.halves.size:
                halves = _halves(self.body, -(-(dst.size + self.skip) // 4))
                if (1 << 16) % c:
                    halves = np.multiply(halves[_kept(halves, c)], c, dtype=np.uint32)
                self.halves, self.skip = halves[self.skip :], max(0, self.skip - halves.size)
            k = min(dst.size, self.halves.size)
            np.right_shift(self.halves[:k], self.shift, out=dst[:k], casting="unsafe")
            self.halves, dst = self.halves[k:].copy(), dst[k:]
        return out


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_threads(jobs: list) -> list:
    """Call the jobs, at least one, at once: the first on this thread and
    each other on a thread of its own; their results in order.  The
    exception of the first job in the list that raises one is raised here,
    after every thread has ended."""
    results, errors = [None] * len(jobs), [None] * len(jobs)

    def run(i):
        try:
            results[i] = jobs[i]()
        except BaseException as exc:  # re-raised in the caller
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(jobs))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
