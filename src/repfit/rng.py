"""Seed handling, draws and threads shared by the samplers and the census.

This module owns the one categorical fill, which draws the letters of an
i.i.d. text and the cards of an urn alike, the one rule that cuts work
into thread parts, and key streams read a block at a time: numpy draws the
few keys at either edge of a power-of-two stream, and each reader draws
the whole 64-bit outputs between from its own copy of the generator.
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
# a categorical fill's uniforms, one pass per cdf entry (the urn sampler's
# cards, a sampled text's fill jobs in sum, or a block of traffic's pairs,
# half each for its two markov-1 texts), and the census's keys, one per
# doubling step packed or order counted.
_SAMPLE_CHUNK = 1 << 16
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


class _Keys(NamedTuple):
    """A stream of keys: ``head``, then four keys from each of ``outputs``
    64-bit outputs of ``body``, each the top 16 - ``shift`` bits of a
    little-endian 16-bit half, then ``tail``."""

    head: np.ndarray
    body: np.random.BitGenerator | None
    outputs: int
    tail: np.ndarray
    shift: int


def _split_keys(rng: np.random.Generator, n: int, c: int) -> _Keys:
    """The ``n`` keys of ``rng.integers(0, c, n, dtype=np.int16)``, to read
    with _KeyReader; ``rng`` is left where that draw leaves it.

    For c = 2**b numpy's bounded draw rejects nothing: a key is the top b
    bits of one 16-bit half of a 32-bit draw, low half first, so keys come
    four to a 64-bit output.  numpy draws the keys at either edge here:
    first those of a 32-bit value the bit generator buffers, then the last
    one to four keys, leaving the buffer as its own draw of them all would.
    The body between is a copy of the bit generator at its first whole
    output, split as rng._split's uniforms are.  Other alphabets reject a
    data-dependent count of draws, so all their keys are drawn here, as the
    head.
    """
    if c & (c - 1):
        return _Keys(rng.integers(0, c, n, dtype=np.int16), None, 0, np.empty(0, np.int16), 0)
    head = rng.integers(0, c, min(n, 2) if _advanceable(rng).state["has_uint32"] else 0,
                        dtype=np.int16)
    outputs = max(0, n - head.size - 1) // 4
    (body,) = _split(rng, [outputs])
    tail = rng.integers(0, c, n - head.size - 4 * outputs, dtype=np.int16)
    return _Keys(head, body.bit_generator, outputs, tail, 17 - c.bit_length())


class _KeyReader:
    """Reads the keys of a stream in order from key ``start``, a block at a
    time, from its own copy of the body advanced to the output that holds
    key ``start``.  The first block drops that output's leading keys; the
    last output read is kept for a block that starts inside it."""

    def __init__(self, keys: _Keys, start: int):
        self.keys, self.pos = keys, start
        self.next = min(max(start - keys.head.size, 0) // 4, keys.outputs)
        self.last = np.empty(4, dtype=np.uint16)
        if keys.body is not None:
            self.body = _advanced(keys.body, self.next)

    def read(self, out: np.ndarray) -> np.ndarray:
        """``out``, a contiguous uint8 array, filled with the next keys."""
        head, _, outputs, tail, shift = self.keys
        flat = out.reshape(-1)
        lo, hi = self.pos, self.pos + flat.size
        self.pos = hi
        start, stop = head.size, head.size + 4 * outputs
        flat[: max(0, min(hi, start) - lo)] = head[lo : min(hi, start)]
        flat[max(lo, stop) - lo :] = tail[max(lo, stop) - stop : max(hi, stop) - stop]
        # The body's keys s..e, counted from its first.
        s, e = max(lo, start) - start, min(hi, stop) - start
        dst = flat[s + start - lo :]
        if s < e and s < 4 * self.next:
            k = min(e, 4 * self.next) - s
            np.right_shift(self.last[s % 4 : s % 4 + k], shift, out=dst[:k], casting="unsafe")
            dst, s = dst[k:], s + k
        if s < e:
            raw = self.body.random_raw(-(-e // 4) - self.next).astype("<u8", copy=False)
            halves = raw.view("<u2")
            np.right_shift(halves[s - 4 * self.next : e - 4 * self.next], shift,
                           out=dst[: e - s], casting="unsafe")
            self.next += raw.size
            self.last[:] = halves[-4:]
        return out


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
