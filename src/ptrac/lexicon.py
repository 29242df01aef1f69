"""Word-list ingestion.

The lexicon file is plain UTF-8 TSV: one word type per line,
``orthography<TAB>transcription`` with an optional third column that is
accepted and ignored. ``#`` starts a comment line; blank lines are skipped.
Counts downstream are type frequencies, so no numeric column is read.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .errors import LexiconError, TokenizeError
from .inventory import GLOTTAL_ALIAS, Inventory, line_slices, normalize_symbol


class LexEntry(NamedTuple):
    orthography: str
    transcription: tuple  # tuple of phoneme symbols


class Diagnostic(NamedTuple):
    line: int
    reason: str

    def __str__(self):
        return "line %d: %s" % (self.line, self.reason)


class Lexicon:
    """Entries of one inventory, in one list, `_rows`: the
    ``(orthography, text)`` pairs `read_entries` yields, each symbol one
    character of `inventory.char_of`; `entries` reads them as symbols."""

    def __init__(self, entries, inventory: Inventory):
        # a text transcription is read one symbol per character
        entries, char_of = list(entries), inventory.char_of
        for ix, e in enumerate(entries):
            if not (isinstance(e, (tuple, list)) and len(e) == 2):
                raise LexiconError("entry %d: %r is not an (orthography, transcription) pair"
                                   % (ix, e))
        unknown = set().union(*(e[1] for e in entries)).difference(char_of)
        if unknown:
            first = next(e[0] for e in entries if not unknown.isdisjoint(e[1]))
            raise LexiconError(
                "symbol(s) not in the inventory: %s (first in entry %r)"
                % (", ".join(map(repr, sorted(unknown))), first)
            )
        self._rows = [(e[0], "".join(map(char_of.__getitem__, e[1]))) for e in entries]
        self.inventory = inventory

    @property
    def entries(self) -> list:
        """The rows as LexEntry named tuples with tuple transcriptions, in a
        new list at every read; the lexicon does not change with it."""
        decode = self.inventory.decode
        # tuple.__new__ skips the Python-level __new__ of the named tuple
        return [tuple.__new__(LexEntry, (o, decode(t))) for o, t in self._rows]

    def __len__(self):
        return len(self._rows)


def tokenize_transcription(text: str, inv: Inventory):
    """Greedy longest-match segmentation of `text` into inventory symbols.

    Returns a tuple of symbols: the characters of a text made only of
    `inv.char_symbols`, else the longest-first matches. "?" normalizes to
    the glottal stop."""
    if not text:
        raise TokenizeError("empty transcription", offset=0, fragment="")
    if inv.char_symbols.issuperset(text):
        return tuple(text)
    tokens = inv.token_re.findall(text)
    # findall skips what no symbol matches; the tokens tile the text iff
    # their lengths add up to it.
    if sum(map(len, tokens)) != len(text):
        i = 0
        while m := inv.token_re.match(text, i):
            i = m.end()
        frag = text[i]
        raise TokenizeError(
            "no inventory symbol matches %r at offset %d" % (frag, i),
            offset=i,
            fragment=frag,
        )
    if GLOTTAL_ALIAS in text:
        tokens = map(normalize_symbol, tokens)
    return tuple(tokens)


def read_entries(text: str, inv: Inventory, diagnostics: list):
    """An iterator of ``(orthography, transcription)`` for each well-formed
    line of a lexicon file, in line order; each malformed line instead
    appends a Diagnostic to `diagnostics`. This is the lexicon's only line
    rule.

    The transcription is a str, one character per symbol: a symbol's
    `inv.char_of`, "?" already read as the glottal stop; `inv.decode`
    gives its symbols. Nothing is kept per line: `line_slices` splits the
    text one slice of about 64 KiB at a time, and when a slice's first row
    is pulled, its rows are read into one list and its diagnostics
    appended. So beside `text` only one slice's lines and rows are held,
    and `core.extract_sequences` can read a file of any size through it."""
    return chain.from_iterable(_slice_rows(text, inv, diagnostics))


def _slice_rows(text, inv, diagnostics):
    chars, char_of = inv.char_symbols, inv.char_of.__getitem__
    no = 0
    for lines in line_slices(text):
        rows = []
        for no, line in enumerate(lines, start=no + 1):
            head = line.lstrip()
            if not head or head[0] == "#":
                continue
            parts = line.split("\t")
            if len(parts) < 2 or not parts[0] or not parts[1]:
                diagnostics.append(Diagnostic(no, "expected 'orthography<TAB>transcription'"))
                continue
            trans = parts[1]
            if not chars.issuperset(trans):
                try:
                    trans = "".join(map(char_of, tokenize_transcription(trans, inv)))
                except TokenizeError as exc:
                    diagnostics.append(Diagnostic(no, str(exc)))
                    continue
            rows.append((parts[0], trans))
        del lines  # before the next slice's lines are split
        yield rows


def strict_error(diagnostics) -> LexiconError:
    """The error of a strict parse: every diagnostic, in line order."""
    return LexiconError(
        "%d malformed line(s): %s" % (len(diagnostics), "; ".join(map(str, diagnostics))))


def parse_lexicon(text: str, inv: Inventory, strict: bool = False):
    """Parse a lexicon file; returns (Lexicon, diagnostics).

    Malformed lines become diagnostics and are skipped (see
    `read_entries`). In strict mode any diagnostic is fatal: one
    LexiconError lists them all, in line order.
    """
    diagnostics = []
    rows = list(read_entries(text, inv, diagnostics))
    if strict and diagnostics:
        raise strict_error(diagnostics)
    lex = Lexicon.__new__(Lexicon)  # skips the symbol check: `read_entries` made them
    lex._rows, lex.inventory = rows, inv
    return lex, diagnostics
