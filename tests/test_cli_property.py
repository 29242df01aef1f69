"""One property over the whole CLI: every input ends in parseable output
and exit 0, or a message and exit 2; exit 1 only for a usage error."""

import contextlib
import csv
import io
import json
import re
import tempfile
import xml.dom.minidom
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ptrac import FEATURES, data
from ptrac.cli import cli_main
from ptrac.core import KINDS, ORIENTATIONS, SCHEMES, WEIGHTINGS
from ptrac.report import CSV_HEADER, FORMATS
from randlex import CHARS
from test_inventory import inventory_texts
from test_report import _markdown_cells

BOM = b"\xef\xbb\xbf"
# Symbols of the shipped inventory and of the inventory-text grammar, so
# that words often tokenize and syllabify against either.
CONSONANTS = ["b", "p", "d", "t", "s", "z", "r", "n", "l", "k", "ts", "?", "'"]
VOWELS = ["a", "e", "o", "ai"]
# Shipped-inventory words, most of which form minimal pairs, and two that
# do not syllabify.
WORDS = ["band", "pand", "sard", "sart", "hosn", "hozn", "kabk", "kapk", "dast", "dazd",
         "akt", "brak"]
CONTEXTS = ["_r", "_n", "_d", "b_", "C1", "C2", "C3", "liquid", "nasal", "total", "_", ""]

syllable = st.tuples(st.sampled_from(CONSONANTS), st.sampled_from(VOWELS),
                     st.lists(st.sampled_from(CONSONANTS), max_size=3)).map(
    lambda s: s[0] + s[1] + "".join(s[2]))
word = st.one_of(st.sampled_from(WORDS), st.sampled_from(WORDS),
                 st.lists(syllable, min_size=1, max_size=2).map("".join))
# hostile text: any character but a surrogate, tabs and controls included
loose = st.text(st.one_of(CHARS, st.sampled_from("\t\x00\x0b\x0c\x85 ")), max_size=12)
entry = st.tuples(st.one_of(word, loose), word).map("\t".join)
line = st.one_of(entry, entry, st.tuples(loose, loose).map("\t".join), loose,
                 st.just("# comment"), st.just(""))


@st.composite
def lexicon_bytes(draw):
    """UTF-8 lexicon lines with mixed line ends, now and then a BOM and now
    and then a byte that is not UTF-8."""
    lines = draw(st.lists(line, max_size=12))
    raw = "".join(l + draw(st.sampled_from(["\n", "\r\n", "\r"])) for l in lines).encode()
    if draw(st.integers(0, 4)) == 0:
        raw = BOM + raw
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])) \
            + raw[at:]
    return raw


def _option(draw, flag, values):
    return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []


@st.composite
def argvs(draw):
    """(argv tail after the file options, whether the lexicon is read)."""
    command = draw(st.sampled_from(["syllabify", "pairs", "analyze", "list-pairs"]))
    if command == "syllabify":
        if draw(st.booleans()):
            return ["syllabify"], True
        return ["syllabify", *draw(st.lists(st.one_of(word, loose), min_size=1, max_size=3))], \
            False
    if command == "pairs":
        return ["pairs", *_option(draw, "--feature", FEATURES),
                *_option(draw, "--orientation", ORIENTATIONS)], False
    study = ["--study", draw(st.sampled_from(KINDS))]
    if command == "analyze":
        return ["analyze", *study, "--format", draw(st.sampled_from(FORMATS)),
                "--aggregate", draw(st.sampled_from(SCHEMES)),
                *_option(draw, "--weighting", WEIGHTINGS),
                *_option(draw, "--orientation", ORIENTATIONS),
                *_option(draw, "--feature", FEATURES),
                *(["--strict"] if draw(st.integers(0, 4)) == 0 else [])], True
    return ["list-pairs", *study, "--feature", draw(st.sampled_from(FEATURES)),
            "--context", draw(st.one_of(st.sampled_from(CONTEXTS), loose)),
            *_option(draw, "--scheme", SCHEMES),
            *_option(draw, "--limit", ["-1", "0", "1", "3"])], True


def _check_stdout(argv, out):
    """Stdout of a successful run parses as its format says."""
    command = argv[0]
    if command == "analyze":
        fmt = argv[argv.index("--format") + 1]
        features = 1 if "--feature" in argv else len(FEATURES)
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(out, newline="")))
            assert rows[0] == CSV_HEADER.split(",")
            assert all(len(r) == 4 and r[2].isdigit() and r[3].isdigit() for r in rows[1:])
            assert (len(rows) - 1) % features == 0
        elif fmt == "json":
            doc = json.loads(out)
            assert len(doc["records"]) % features == 0 and doc["meta"]["study"] in KINDS
        elif fmt == "svg":
            xml.dom.minidom.parseString(out.encode("utf-8"))
        else:
            lines = out.split("\n")
            assert lines[0] == "| context | feature | weighted_count | pair_count |"
            assert lines[1] == "| --- | --- | --- | --- |" and lines[-1] == ""
            rows = [_markdown_cells(l) for l in lines[2:-1]]
            assert all(len(r) == 4 and r[2].isdigit() and r[3].isdigit() for r in rows)
            assert len(rows) % features == 0
    elif command == "list-pairs":
        for row in out.splitlines():
            fields = row.split("\t")
            assert len(fields) == 6 and fields[3] == argv[argv.index("--feature") + 1]
            assert int(fields[4]) >= 1
    elif command == "pairs":
        for row in out.split("\n")[:-1]:
            a, b, feature = row.split(" ")
            assert a != b and feature in FEATURES
    else:
        assert all(out.split("\n")[:-1]) and out.endswith("\n") or out == ""


_NOT_UTF8 = re.compile(r"error: line (\d+): byte 0x([0-9a-f]{2}) at offset (\d+) of (.*) "
                       r"is not valid UTF-8\n", re.S)


# The shipped inventory twice as often as a drawn one, most of which
# the inventory parser rejects.
SHIPPED = st.just(data.persian_inventory_text())


@settings(max_examples=200, deadline=None)
@given(inventory=st.one_of(SHIPPED, SHIPPED, inventory_texts()),
       inventory_bom=st.booleans(), lexicon=lexicon_bytes(), command=argvs())
def test_every_cli_run_ends_in_output_or_exit_2(inventory, inventory_bom, lexicon, command):
    argv, reads_lexicon = command
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        inv_path, lex_path = Path(folder, "inv.inv"), Path(folder, "lex.tsv")
        inv_path.write_bytes((BOM if inventory_bom else b"") + inventory.encode("utf-8"))
        lex_path.write_bytes(lexicon)
        argv = argv[:1] + ["--inventory", str(inv_path)] \
            + (["--lexicon", str(lex_path)] if reads_lexicon else []) + argv[1:]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        _check_stdout(argv, out)
    elif code == 2:
        assert "error: " in err
        assert argv[0] == "syllabify" or out == ""
    else:  # an argparse usage error: a word or context that reads as an option
        assert code == 1 and err.startswith("usage: "), (code, err)
    bad = _NOT_UTF8.fullmatch(err)
    if bad:  # only the lexicon can hold such a byte here
        # the named byte is the first that is not UTF-8, on the line that
        # universal newlines give it
        line, byte, at = int(bad.group(1)), int(bad.group(2), 16), int(bad.group(3))
        assert code == 2 and bad.group(4) == str(lex_path)
        start = len(BOM) if lexicon.startswith(BOM) else 0
        assert lexicon[at] == byte
        lexicon[start:at].decode("utf-8")
        assert line == 1 + lexicon.count(b"\n", 0, at) + lexicon.count(b"\r", 0, at) \
            - lexicon.count(b"\r\n", 0, at)
