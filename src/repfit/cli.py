"""Command-line front end: stats -> urn -> score, plus sampling and simulation.

Artifacts are JSON documents written atomically (temp file, then rename), so
every command is idempotent on identical inputs; ``--reproducible`` drops the
timestamp field for byte-identical reruns.

Exit codes: 0 success, 2 usage error, 3 data/validation error or out of
memory, 4 numeric/model error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import os
import re
import string
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import simlab
from .artifacts import dump, read_object
from .corpus import _census_bytes, build_corpus, compute_statistics, stats_from_json, stats_to_json
from .errors import ModelError, NormalizationError, ValidationError
from .figures import RepetitionFigure, figure_from_comparison, parse_figure
from .scoring import odds_of_fit, score_to_json
from .urn import hatted_urn, sample_figures, urn_from_json, urn_from_stats, urn_to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MODEL = 4

_WHITESPACE = b" \t\r\n\v\f"
# Byte-table entries that are not letter codes; ASCII alphabets have at most
# 128 symbols, so letter codes stay below both.
_SKIP = 254
_INVALID = 255


@dataclass(frozen=True)
class NormalizationPolicy:
    """How raw corpus bytes become letter codes.

    The alphabet is an explicit list of distinct ASCII symbols.  Whitespace
    is always treated as framing and skipped; any other byte outside the
    alphabet is either stripped or reported with its byte offset.
    """

    alphabet: str = string.ascii_uppercase
    fold_case: bool = True
    on_invalid: str = "error"

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValidationError("alphabet symbols must be distinct")
        if len(self.alphabet) < 2:
            raise ValidationError("alphabet must have at least 2 symbols")
        if not self.alphabet.isascii():
            raise ValidationError("alphabet must be ASCII")
        if self.on_invalid not in ("strip", "error"):
            raise ValidationError("on_invalid must be 'strip' or 'error'")
        if self.fold_case and any(ch.isupper() for ch in self.alphabet) \
                and any(ch.islower() for ch in self.alphabet):
            raise ValidationError(
                "case folding is ambiguous for a mixed-case alphabet; disable folding"
            )

    @property
    def alphabet_size(self) -> int:
        return len(self.alphabet)

    def normalize(self, data: bytes) -> np.ndarray:
        """A read-only view of the letter codes of ``data``, mapped by one
        ``bytes.translate`` through a table of each byte's letter code, _SKIP
        or _INVALID, which deletes the _SKIP bytes (and _INVALID, stripping)."""
        table = np.full(256, _INVALID, dtype=np.uint8)
        table[[ord(ch) for ch in self.alphabet]] = np.arange(self.alphabet_size)
        if self.fold_case:
            # Folding maps input onto the alphabet's own case.
            upper, lower = slice(0x41, 0x5B), slice(0x61, 0x7B)
            if any(ch.islower() for ch in self.alphabet):
                table[upper] = table[lower]
            else:
                table[lower] = table[upper]
        table[list(_WHITESPACE)] = _SKIP
        dropped = np.isin(table, (_SKIP,) if self.on_invalid == "error" else (_SKIP, _INVALID))
        mapped = data.translate(table.tobytes(), np.flatnonzero(dropped).astype(np.uint8).tobytes())
        if self.on_invalid == "error" and _INVALID in mapped:
            offset = data.translate(table.tobytes()).find(_INVALID)  # nothing deleted
            raise NormalizationError(
                f"byte {data[offset:offset + 1]!r} at offset {offset} is not in the alphabet",
                offset,
            )
        return np.frombuffer(mapped, dtype=np.uint8)


def _policy_from_args(args) -> NormalizationPolicy:
    return NormalizationPolicy(
        alphabet=args.alphabet,
        fold_case=not args.no_fold,
        on_invalid="strip" if args.strip else "error",
    )


def _add_normalization_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alphabet", default=string.ascii_uppercase,
                        help="explicit symbol list (default A-Z)")
    parser.add_argument("--no-fold", action="store_true",
                        help="disable case folding")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--strip", action="store_true",
                      help="silently drop non-alphabet characters")
    mode.add_argument("--error", action="store_true",
                      help="reject non-alphabet characters, reporting the byte offset (default)")


def _seed(text: str) -> int:
    value = int(text, 10)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _write_artifact(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".repfit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stamp(args) -> dict:
    if args.reproducible:
        return {}
    return {"generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def _info(args, message: str) -> None:
    # Human-readable summaries go to stderr when the artifact itself is
    # streaming to stdout.
    stream = sys.stdout if args.out else sys.stderr
    print(message, file=stream)


def _cmd_stats(args) -> int:
    policy = _policy_from_args(args)
    texts = []
    for path in args.inputs:
        try:
            texts.append(policy.normalize(Path(path).read_bytes()))
        except NormalizationError as exc:
            raise NormalizationError(f"{path}: {exc}", exc.offset) from exc
        if not texts[-1].size:
            raise ValidationError(f"{path}: holds no letters")
    letters = sum(text.size for text in texts)
    if args.rmax >= letters:
        raise ValidationError(f"--rmax {args.rmax} must be below the N = {letters} letters read")
    _check_fits_in_memory({f"{letters} letters censused to --rmax {args.rmax}":
                           letters + _census_bytes(letters, policy.alphabet_size, args.rmax)})
    corpus = build_corpus(texts, policy.alphabet_size)
    del texts  # the census runs beside the joined letters alone
    stats = compute_statistics(corpus, r_max=args.rmax)
    _write_artifact(args.out, stats_to_json(stats, **_stamp(args)))
    _info(args, f"N = {stats.n_letters}, alphabet {stats.alphabet_size}, "
                f"total cards {stats.total_cards}")
    _info(args, "  r    M_r    N_r")
    for r in range(1, stats.r_max + 1):
        n_r = str(stats.actual[r - 1]) if r <= len(stats.actual) else "-"
        _info(args, f"{r:>3}  {stats.apparent[r - 1]:>6}  {n_r:>5}")
    return EXIT_OK


def _cmd_urn(args) -> int:
    if args.from_stats:
        stats = stats_from_json(Path(args.from_stats).read_bytes())
        urn = urn_from_stats(stats)
    else:
        urn = hatted_urn(args.alphabet_size, r_max=args.rmax)
    _write_artifact(args.out, urn_to_json(urn, **_stamp(args)))
    _info(args, f"alphabet {urn.alphabet_size}, no-repeat share {urn.no_repeat:.6f}, "
                f"{len(urn.alpha)} repeat card kinds")
    return EXIT_OK


def _cmd_score(args) -> int:
    urn = urn_from_json(Path(args.urn).read_bytes())
    if args.figure is not None:
        figure = parse_figure(args.figure)
    else:
        if args.b is None:
            raise ValidationError("--a requires --b (and usually --shift)")
        policy = _policy_from_args(args)
        if policy.alphabet_size != urn.alphabet_size:
            raise ValidationError(
                f"the alphabet has {policy.alphabet_size} symbols "
                f"but the urn was fitted to {urn.alphabet_size}"
            )
        text_a = policy.normalize(Path(args.a).read_bytes())
        text_b = policy.normalize(Path(args.b).read_bytes())
        figure = figure_from_comparison(text_a, text_b, args.shift)
    score = odds_of_fit(
        urn,
        figure=figure,
        prior_log_odds=args.prior_log_odds,
        log_base=args.unit,
        floor=args.smoothing_floor,
    )
    _write_artifact(args.out, score_to_json(score, **_stamp(args)))
    _info(args, f"log odds {score.log_odds:.6f} {score.log_base}, "
                f"posterior {score.posterior:.6f} (overlap {figure.length})")
    return EXIT_OK


def _physical_memory() -> int | None:
    """Bytes of physical memory on this machine, or None where sysconf
    cannot tell; a size check then leaves it to MemoryError."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_fits_in_memory(needs: dict[str, int]) -> None:
    """Reject work that would outgrow physical memory: ``needs`` maps each
    part of it, named as the error names it, to the bytes it takes."""
    memory = _physical_memory()
    for what, need in needs.items():
        if memory is not None and need > memory:
            raise ValidationError(
                f"{what} need about {need} bytes, more than the {memory} bytes of memory "
                "this machine has"
            )


def _cmd_sample(args) -> int:
    urn = urn_from_json(Path(args.urn).read_bytes())
    # Each figure holds up to --overlap cells in a str, one figure object
    # and a list slot.
    per_figure = sys.getsizeof("") + args.overlap + sys.getsizeof(RepetitionFigure("")) + 8
    _check_fits_in_memory({f"--overlap {args.overlap} x --count {args.count} figures":
                           args.count * per_figure})
    figures, scrapped = sample_figures(
        urn,
        overlap=args.overlap,
        count=args.count,
        seed=args.seed,
        keep_trailing_o=args.keep_trailing_o,
    )
    if args.out:
        doc = {
            "figures": [f.cells for f in figures],
            "scrapped": scrapped,
            "overlap": args.overlap,
            "seed": args.seed,
        }
        doc.update(_stamp(args))
        _write_artifact(args.out, dump(doc))
    else:
        for figure in figures:
            print(figure.cells)
    _info(args, f"scrapped {scrapped} of {scrapped + len(figures)} comparisons")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    doc = read_object(Path(args.config).read_bytes(), "experiment config")
    config = simlab.ExperimentConfig.from_dict(doc)
    # The census runs beside the joined corpus letters, a byte each, and the
    # pair stream's set-up; the traffic after the letters are freed.
    letters = config.corpus_size if config.urn == "from-corpus" else 0
    length = ("overlap", config.overlap) if config.msg_len is None else ("msg_len", config.msg_len)
    cells = f"n_pairs {config.n_pairs} x {length[0]} {length[1]} message cells"
    _check_fits_in_memory({
        f"corpus_size {letters} letters beside the set-up of {cells}":
            letters + _census_bytes(letters, config.language.alphabet_size, config.r_max)
            + simlab._setup_bytes(config.n_pairs),
        cells: simlab._traffic_bytes(config.n_pairs, length[1]),
    })
    report = simlab.calibration_experiment(config)
    _write_artifact(args.out, report.to_json())
    if args.csv:
        _write_artifact(args.csv, "\n".join(report.csv_rows()) + "\n")
    _info(args, f"{report.totals['n_pairs']} pairs scored, "
                f"{len(report.bins)} log-odds bins")
    for b in report.bins:
        _info(args, f"  [{b.lo:>7.2f},{b.hi:>7.2f})  n={b.n_total:<7} "
                    f"predicted {b.mean_posterior:.4f}  empirical {b.empirical_right_fraction:.4f}")
    return EXIT_OK


_NEGATIVE_FLOAT = re.compile(r"^-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[+-]?\d+)?)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads any negative float literal after a flag
    as its value, as argparse itself reads -2.5: -1e5, -1E+5 and -inf too.
    No repfit option looks like a number.

    This replaces argparse's private ``_negative_number_matcher``, which
    argparse 3.11 sets in ``_ActionsContainer.__init__`` and reads in
    ``_parse_optional``; test_negative_float_flags_read_as_their_equals_form
    fails if a later argparse stops reading it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repfit",
        description="Repetition statistics, urn models, and log-odds scoring of alignment fits.",
    )
    parser.add_argument("--reproducible", action="store_true",
                        help="omit timestamps so identical inputs give byte-identical artifacts")
    commands = parser.add_subparsers(dest="command", required=True)

    p_stats = commands.add_parser("stats", help="compute repeat statistics from plaintext files")
    p_stats.add_argument("inputs", nargs="+", metavar="FILE")
    p_stats.add_argument("--rmax", type=int, default=9,
                         help="highest repeat order to census (default 9)")
    _add_normalization_flags(p_stats)
    p_stats.add_argument("--out", help="statistics artifact path (default: stdout)")
    p_stats.set_defaults(handler=_cmd_stats)

    p_urn = commands.add_parser("urn", help="build an urn model")
    source = p_urn.add_mutually_exclusive_group(required=True)
    source.add_argument("--from-stats", metavar="PATH", help="statistics artifact to fit from")
    source.add_argument("--hatted", action="store_true", help="flat-random null urn")
    p_urn.add_argument("--alphabet-size", type=int, default=26)
    p_urn.add_argument("--rmax", type=int, default=None,
                       help="truncation depth for the hatted urn (default: alphabet-dependent)")
    p_urn.add_argument("--out", help="urn artifact path (default: stdout)")
    p_urn.set_defaults(handler=_cmd_urn)

    p_score = commands.add_parser("score", help="score one fit as Bayesian log-odds")
    p_score.add_argument("--urn", required=True, metavar="PATH")
    what = p_score.add_mutually_exclusive_group(required=True)
    what.add_argument("--figure", help="repetition figure as an X/O string")
    what.add_argument("--a", metavar="PATH", help="first message file (with --b and --shift)")
    p_score.add_argument("--b", metavar="PATH", help="second message file")
    p_score.add_argument("--shift", type=int, default=0,
                         help="signed offset of B relative to A (default 0)")
    p_score.add_argument("--prior-log-odds", type=float, default=0.0)
    p_score.add_argument("--unit", choices=("nat", "db"), default="nat")
    p_score.add_argument("--smoothing-floor", type=float, default=None,
                         help="card-proportion floor for repeat lengths absent from the urn")
    _add_normalization_flags(p_score)
    p_score.add_argument("--out", help="score report path (default: stdout)")
    p_score.set_defaults(handler=_cmd_score)

    p_sample = commands.add_parser("sample", help="draw repetition figures from an urn")
    p_sample.add_argument("--urn", required=True, metavar="PATH")
    p_sample.add_argument("--overlap", type=int, required=True)
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--seed", type=_seed, default=None,
                          help="unsigned decimal seed for reproducible draws")
    p_sample.add_argument("--keep-trailing-o", action="store_true",
                          help="emit raw drawn figures, final O included")
    p_sample.add_argument("--out", help="write figures and scrap count as JSON")
    p_sample.set_defaults(handler=_cmd_sample)

    p_sim = commands.add_parser("simulate", help="run a calibration experiment")
    p_sim.add_argument("--config", required=True, metavar="PATH")
    p_sim.add_argument("--out", help="report path (default: stdout)")
    p_sim.add_argument("--csv", help="also write per-bin rows as CSV")
    p_sim.set_defaults(handler=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls: each returns a new namespace.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except ModelError as exc:
        print(f"repfit: model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValidationError as exc:
        print(f"repfit: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"repfit: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        # Past _check_fits_in_memory, as under a cgroup limit below physical memory.
        print(f"repfit {args.command}: out of memory", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
