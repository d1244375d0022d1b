"""Independent reference implementations used to pin expected values.

Everything here deliberately takes the slow, direct route: pairwise
comparisons over all rotation positions, exhaustive enumeration of figures,
and hand-rolled scans.  None of it shares code with the package; the
normalizer raises the package's own exception type so that its errors can
be compared field by field.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
from math import comb, factorial

import numpy as np

from repfit.errors import NormalizationError


def normalize_oracle(policy, data: bytes) -> np.ndarray:
    """Letter codes of raw corpus bytes under a normalization policy, one byte
    at a time: skip whitespace, fold case toward the alphabet, look the byte
    up, and strip or report (with the raw input byte) whatever is left."""
    codes = {ord(ch): i for i, ch in enumerate(policy.alphabet)}
    fold_to_lower = policy.fold_case and any(ch.islower() for ch in policy.alphabet)
    out = []
    for offset, raw in enumerate(data):
        if raw in b" \t\r\n\v\f":
            continue
        byte = raw
        if policy.fold_case:
            if fold_to_lower and 0x41 <= byte <= 0x5A:
                byte += 0x20
            elif not fold_to_lower and 0x61 <= byte <= 0x7A:
                byte -= 0x20
        code = codes.get(byte)
        if code is None:
            if policy.on_invalid == "error":
                raise NormalizationError(
                    f"byte {bytes([raw])!r} at offset {offset} is not in the alphabet",
                    offset,
                )
            continue
        out.append(code)
    return np.array(out, dtype=np.uint8 if policy.alphabet_size <= 256 else np.int32)


def circular_gram(circle, i: int, r: int) -> tuple:
    n = len(circle)
    return tuple(circle[(i + j) % n] for j in range(r))


def apparent_oracle(circle, r_max: int) -> list[int]:
    """M_r by comparing every unordered pair of circle positions directly."""
    n = len(circle)
    out = []
    for r in range(1, r_max + 1):
        grams = [circular_gram(circle, i, r) for i in range(n)]
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                if grams[i] == grams[j]:
                    count += 1
        out.append(count)
    return out


def actual_oracle(circle, r_max: int) -> list[int]:
    """N_r by counting flanked pairs: equal r-grams whose neighbours differ on
    both sides."""
    n = len(circle)
    out = []
    for r in range(1, r_max + 1):
        grams = [circular_gram(circle, i, r) for i in range(n)]
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                if grams[i] != grams[j]:
                    continue
                if circle[(i - 1) % n] == circle[(j - 1) % n]:
                    continue
                if circle[(i + r) % n] == circle[(j + r) % n]:
                    continue
                count += 1
        out.append(count)
    return out


def rotation_figures(circle) -> list[list[bool]]:
    """Circular coincidence figures of all distinct rotation comparisons.

    Rotations s and n-s give the same comparison, so s runs to n//2; the
    exact half-turn (even n) pairs every position twice and is recorded once
    as a half-length circular figure.
    """
    n = len(circle)
    figures = []
    for s in range(1, n // 2 + 1):
        if 2 * s == n:
            cells = [circle[i] == circle[i + s] for i in range(s)]
        else:
            cells = [circle[i] == circle[(i - s) % n] for i in range(n)]
        figures.append(cells)
    return figures


def circular_max_run(cells: list[bool]) -> int | None:
    """Longest circular run of True cells; None if every cell is True."""
    if all(cells):
        return None
    start = cells.index(False)
    rotated = cells[start:] + cells[:start]
    best = run = 0
    for cell in rotated:
        run = run + 1 if cell else 0
        best = max(best, run)
    return best


def scan_run_spectrum(cells: str) -> dict[int, int]:
    """Maximal X-run counts via an explicit index walk (no grouping library)."""
    counts: dict[int, int] = {}
    i = 0
    while i < len(cells):
        if cells[i] == "X":
            j = i
            while j < len(cells) and cells[j] == "X":
                j += 1
            counts[j - i] = counts.get(j - i, 0) + 1
            i = j
        else:
            i += 1
    return counts


def markov_sample_oracle(transition, rows: int, cols: int, rng) -> np.ndarray:
    """First-order chain letter by letter, with the package's draws: a start
    state per row, then one uniform per row per column; the next state is the
    number of the current row's cumulative sums, bar the last, that are <= u."""
    c = len(transition)
    cum = [list(itertools.accumulate(row))[:-1] for row in np.asarray(transition).tolist()]
    out = np.empty((rows, cols), dtype=np.uint8)
    state = rng.integers(0, c, size=rows).tolist()
    out[:, 0] = state
    for j in range(1, cols):
        state = [bisect_right(cum[s], u) for s, u in zip(state, rng.random(rows).tolist())]
        out[:, j] = state
    return out


def traffic_oracle(lm, n_pairs: int, msg_len: int, overlap: int, fraction_right: float, seed: int):
    """(plain_a, plain_b, cipher_a, cipher_b, is_right) drawn in the package's
    order from default_rng(seed): letters by rng.choice (iid) or the chain
    oracle, then the shared and B-only int16 key streams, then the labels;
    enciphered as (plain + key) % c."""
    rng = np.random.default_rng(seed)
    c = lm.alphabet_size
    shift = msg_len - overlap
    if lm.kind == "iid-skewed":
        plain = [rng.choice(c, size=(n_pairs, msg_len), p=lm.letter_probs) for _ in "ab"]
    else:
        plain = [markov_sample_oracle(lm.transition, n_pairs, msg_len, rng) for _ in "ab"]
    key = rng.integers(0, c, size=(n_pairs, msg_len + shift), dtype=np.int16)
    key_b_own = rng.integers(0, c, size=(n_pairs, msg_len), dtype=np.int16)
    is_right = np.zeros(n_pairs, dtype=bool)
    is_right[rng.permutation(n_pairs)[: round(n_pairs * fraction_right)]] = True
    key_b = np.where(is_right[:, None], key[:, shift:], key_b_own)
    cipher_a = (plain[0].astype(int) + key[:, :msg_len]) % c
    cipher_b = (plain[1].astype(int) + key_b) % c
    return plain[0], plain[1], cipher_a, cipher_b, is_right


def completing_figures(overlap: int):
    """Every X/O string of the given length that ends in O."""
    if overlap == 0:
        yield ""
        return
    for prefix in itertools.product("XO", repeat=overlap - 1):
        yield "".join(prefix) + "O"


def block_probability(figure: str, alpha: dict[int, float], no_repeat: float) -> float:
    """Probability that a drawing session spells out this exact figure.

    Unique block decomposition: every O terminates one draw; the X-run in
    front of it (possibly empty) names the card drawn.
    """
    p = 1.0
    run = 0
    for cell in figure:
        if cell == "X":
            run += 1
        else:
            p *= no_repeat if run == 0 else alpha.get(run, 0.0)
            run = 0
    if run:
        raise ValueError("completing figures must end in O")
    return p


def spectrum_multiplicity(spectrum: dict[int, int], overlap: int) -> int:
    """Number of ordered figures of the given length with this run spectrum.

    Place the m runs into the L-R+1 slots around the O cells (at most one run
    per slot), then order the runs: C(L-R+1, m) * m! / prod k_r!.
    """
    repeated = sum(r * k for r, k in spectrum.items())
    runs = sum(spectrum.values())
    ways = comb(overlap - repeated + 1, runs) * factorial(runs)
    for k in spectrum.values():
        ways //= factorial(k)
    return ways


def partitions(total: int):
    """All integer partitions of total, as non-increasing part lists."""
    if total == 0:
        yield []
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield [part] + rest

    yield from rec(total, total)


def feasible_spectra(overlap: int):
    """Every run spectrum realizable in a figure of the given length."""
    for repeated in range(overlap + 1):
        for parts in partitions(repeated):
            if repeated + len(parts) - 1 <= overlap:
                yield dict(Counter(parts))
