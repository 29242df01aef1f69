"""Command-line interface.

Exit codes: 0 success, 1 usage or I/O error, 2 validation failure.
Results go to standard output (or --out); diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import sys
from collections import deque

from . import __version__
from .core import (
    FORMATS,
    KINDS,
    ORIENTATIONS,
    SCHEMES,
    StudyConfig,
    WEIGHTINGS,
    enumerate_minimal_sequence_pairs,
    extract_sequences,
    list_pairs_for,
    run_study,
    scheme_key,
)
from .errors import InventoryError, LexiconError, PtracError, StudyError
from .inventory import FEATURES, parse_inventory, featural_pairs, split_lines
from .lexicon import read_entries, strict_error, tokenize_transcription
from .syllabifier import format_syllables, syllabify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    p = _Parser(prog="ptrac", description=__doc__)
    p.add_argument("--version", action="version", version="ptrac %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    sy = sub.add_parser("syllabify", help="syllabify words or a lexicon")
    sy.add_argument("--inventory", required=True)
    sy.add_argument("--lexicon")
    sy.add_argument("words", nargs="*")

    pr = sub.add_parser("pairs", help="list featural minimal pairs")
    pr.add_argument("--inventory", required=True)
    pr.add_argument("--feature", choices=FEATURES)
    pr.add_argument("--orientation", choices=ORIENTATIONS, default="unordered")

    an = sub.add_parser("analyze", help="run a study and render the matrix")
    an.add_argument("--inventory", required=True)
    an.add_argument("--lexicon", required=True)
    an.add_argument("--study", required=True, choices=KINDS)
    an.add_argument("--weighting", choices=WEIGHTINGS, default="type-frequency")
    an.add_argument("--orientation", choices=ORIENTATIONS, default="unordered")
    an.add_argument("--aggregate", choices=SCHEMES, default="frame")
    an.add_argument("--format", choices=FORMATS, default="csv")
    an.add_argument("--feature", choices=FEATURES)
    an.add_argument("--out")
    an.add_argument("--strict", action="store_true",
                    help="treat lexicon diagnostics as fatal")

    lp = sub.add_parser("list-pairs", help="drill into one feature/context")
    lp.add_argument("--inventory", required=True)
    lp.add_argument("--lexicon", required=True)
    lp.add_argument("--study", required=True, choices=KINDS)
    lp.add_argument("--feature", required=True, choices=FEATURES)
    lp.add_argument("--context", required=True)
    lp.add_argument("--scheme", choices=SCHEMES, default="frame")
    lp.add_argument("--limit", type=int, default=5)
    return p


def _read(path, error):
    """The text of a UTF-8 file, less a leading byte-order mark. Bytes that
    are not UTF-8 raise `error` (LexiconError or InventoryError), naming
    the line, counted as `split_lines` counts it, and the byte offset in
    the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    bom = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return raw[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = bom + exc.start
        line = sum(1 for _ in split_lines(raw[bom:at].decode("utf-8")))
        raise error("line %d: byte 0x%02x at offset %d of %s is not valid UTF-8"
                    % (line, raw[at], at, path)) from None


def _load_inventory(path):
    return parse_inventory(_read(path, InventoryError))


def _warn(lines):
    """Write a command's warnings to stderr in one call."""
    if lines:
        sys.stderr.write("".join("warning: %s\n" % line for line in lines))


def _diagnose(diags, strict=False, rest=()):
    """Warn of the lexicon's diagnostics, once the lines left in `rest`
    (an iterator of `read_entries`) are read; under `strict`, raise them
    instead, as `parse_lexicon` does."""
    deque(rest, maxlen=0)
    if strict and diags:
        raise strict_error(diags)
    _warn(diags)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_syllabify(args):
    inv = _load_inventory(args.inventory)
    failures = 0
    if args.lexicon:
        diags = []
        items = list(read_entries(_read(args.lexicon, LexiconError), inv, diags))
        _warn(diags)
    else:
        if not args.words:
            print("ptrac syllabify: give words or --lexicon", file=sys.stderr)
            return EXIT_USAGE
        items = []
        for w in args.words:
            try:
                items.append((w, tokenize_transcription(w, inv)))
            except PtracError as exc:
                print("error: %s: %s" % (w, exc), file=sys.stderr)
                failures += 1
    for label, seq in items:
        try:
            print(format_syllables(syllabify(seq, inv)))
        except PtracError as exc:
            print("error: %s: %s" % (label, exc), file=sys.stderr)
            failures += 1
    return EXIT_VALIDATION if failures else EXIT_OK


def _cmd_pairs(args):
    inv = _load_inventory(args.inventory)
    features = (args.feature,) if args.feature else FEATURES
    for feature in features:
        for a, b in featural_pairs(inv, feature, args.orientation):
            print("%s %s %s" % (a, b, feature))
    return EXIT_OK


def _cmd_analyze(args):
    from .report import RenderSpec, render  # loads csv and json, which no other command needs

    inv = _load_inventory(args.inventory)
    diags = []
    entries = read_entries(_read(args.lexicon, LexiconError), inv, diags)
    cfg = StudyConfig(kind=args.study, weighting=args.weighting,
                      orientation=args.orientation, feature=args.feature)
    try:
        report = run_study(entries, inv, cfg, scheme=args.aggregate)  # refuses the scheme first
    except StudyError:  # it follows every line's diagnostic
        _diagnose(diags, args.strict, rest=entries)
        raise
    _diagnose(diags, args.strict)
    _warn(["entry %d (%s) excluded: %s" % (ex.index, ex.orthography, ex.reason)
           for ex in report.excluded])
    spec = RenderSpec(format=args.format, scheme=args.aggregate)
    meta = {"diagnostics": len(diags) + len(report.excluded),
            "weighting": cfg.weighting, "orientation": cfg.orientation}
    _emit(render(report.matrix, spec, inv=inv, meta=meta), args.out)
    return EXIT_OK


def _cmd_list_pairs(args):
    if args.limit < 1:
        raise StudyError("limit must be at least 1, got %d" % args.limit)
    inv = _load_inventory(args.inventory)
    diags = []
    entries = read_entries(_read(args.lexicon, LexiconError), inv, diags)
    try:
        scheme_key(args.scheme, args.study, inv)  # refuses a scheme the study cannot take
    except StudyError:  # it follows every line's diagnostic
        _diagnose(diags, rest=entries)
        raise
    cfg = StudyConfig(kind=args.study)
    table, _ = extract_sequences(entries, inv, cfg, carriers=True)
    _warn(diags)
    pairs = enumerate_minimal_sequence_pairs(table, inv, cfg)
    rows = list_pairs_for(pairs, args.feature, args.context, None, inv, cfg,
                          scheme=args.scheme, limit=args.limit, carriers=table.carriers)
    for row in rows:
        p = row.pair
        wit = " ".join("(%s, %s)" % w for w in row.witnesses)
        print("%s\t%s\t%s\t%s\t%d\t%s"
              % ("".join(p.seq_a), "".join(p.seq_b), p.frame, p.feature,
                 p.weight, wit))
    return EXIT_OK


_COMMANDS = {
    "syllabify": _cmd_syllabify,
    "pairs": _cmd_pairs,
    "analyze": _cmd_analyze,
    "list-pairs": _cmd_list_pairs,
}


def cli_main(argv=None) -> int:
    # A command builds long-lived tables (sequences, plans, and for
    # list-pairs and syllabify an entry per carrier or word) and no
    # reference cycles, so the cyclic collector would only walk that heap
    # again and again; it is paused for the command and restored after.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except PtracError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
