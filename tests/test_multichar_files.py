"""Multi-character inventories read from files, end to end: every symbol is
one character of transcription text inside ptrac (a longer symbol a private
code, see `Inventory.char_of`), and no such code ever reaches the output.
The commands print the brute-force oracle's matrix, and print the same
bytes under any string hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptrac
from ptrac import PtracError, StudyConfig, StudyError, data, parse_inventory, parse_lexicon
from ptrac import syllabify, tokenize_transcription
from ptrac.inventory import FORMATS, KINDS, SCHEMES
from ptrac.oracle import oracle_matrix
from ptrac.report import RenderSpec, render
from randlex import joined_lines, make_case
from test_cli import inventory_text, run

SRC = str(Path(ptrac.__file__).resolve().parent.parent)


def multichar_files(tmp_path, seed):
    """The inventory and lexicon files of `make_case(seed, mode="multichar")`,
    the lexicon written by `joined_lines`, with one more word, whose
    three-consonant coda `syllabify` rejects, spelled with multi-character
    symbols where the inventory has them."""
    inv, lex = make_case(seed, mode="multichar")
    cons = sorted(inv.consonants, key=len, reverse=True)
    long_coda = "".join((cons[0], max(inv.vowels, key=len), cons[1], cons[0], cons[1]))
    with pytest.raises(PtracError, match="coda %r longer" % "".join(cons[1::-1] + cons[1:2])):
        syllabify(tokenize_transcription(long_coda, inv), inv)
    assert len(cons[0]) > 1
    inv_file, lex_file = tmp_path / "multi.inv", tmp_path / "multi.tsv"
    inv_file.write_text(inventory_text(inv), encoding="utf-8")
    lex_file.write_text(joined_lines(lex) + "long\t%s\n" % long_coda, encoding="utf-8")
    return inv_file, lex_file


def codes_of(inv):
    """The private code characters of `inv`'s multi-character symbols."""
    return {c for s, c in inv.char_of.items() if c != s}


@pytest.mark.parametrize("seed", range(4))
def test_analyze_prints_the_oracle_matrix(capsys, tmp_path, seed):
    inv_file, lex_file = multichar_files(tmp_path, seed)
    inv = parse_inventory(inv_file.read_text(encoding="utf-8"))
    # Greedy longest match may read a serialized word otherwise, or not at
    # all ("kha" is "kh", then no symbol, when "ha" and "kh" are symbols).
    lex, diags = parse_lexicon(lex_file.read_text(encoding="utf-8"), inv)
    assert codes_of(inv)
    excluded = []
    for e in lex.entries:
        try:
            syllabify(e.transcription, inv)
        except PtracError:
            excluded.append(e.orthography)
    assert excluded[-1] == "long"
    meta = {"diagnostics": len(diags) + len(excluded), "weighting": "type-frequency",
            "orientation": "unordered"}
    outcomes = set()
    for kind in KINDS:
        oracle = oracle_matrix(lex, inv, StudyConfig(kind=kind))
        for scheme in SCHEMES:
            for fmt in FORMATS:
                try:
                    want = 0, render(oracle, RenderSpec(fmt, scheme), inv=inv, meta=meta)
                except StudyError as exc:  # a refused scheme, or contexts that render alike
                    want = 2, "error: %s\n" % exc
                argv = ["analyze", "--inventory", str(inv_file), "--lexicon", str(lex_file),
                        "--study", kind, "--aggregate", scheme, "--format", fmt]
                code, out, err = run(capsys, argv)
                if want[0] == 0:
                    assert (code, out) == want, argv
                else:
                    assert code == 2 and out == "" and err.endswith(want[1]), argv
                if kind == "positions" or scheme != "position":  # else refused unread
                    assert "warning: entry %d (long) excluded: coda" % (len(lex) - 1) in err
                outcomes.add(code)
    assert 0 in outcomes


@pytest.mark.parametrize("seed", range(4))
def test_no_code_character_is_shown(capsys, tmp_path, seed):
    inv_file, lex_file = multichar_files(tmp_path, seed)
    inv = parse_inventory(inv_file.read_text(encoding="utf-8"))
    codes = codes_of(inv)
    base = ["--inventory", str(inv_file), "--lexicon", str(lex_file)]
    argvs = [["syllabify", *base]]
    for kind in KINDS:
        argvs += [["analyze", *base, "--study", kind, "--aggregate", scheme, "--format", fmt]
                  for scheme in ("frame", "following-segment") for fmt in ("csv", "svg")]
        for scheme in ("frame", "following-segment", "total"):
            _, out, _ = run(capsys, ["analyze", *base, "--study", kind, "--aggregate", scheme])
            for context in sorted({line.split(",")[0] for line in out.splitlines()[1:]})[:4]:
                argvs += [["list-pairs", *base, "--study", kind, "--scheme", scheme,
                           "--feature", feature, "--context", context]
                          for feature in ("manner", "place", "voice")]
    shown = {"out": 0, "witnesses": 0, "excluded": 0}
    for argv in argvs:
        code, out, err = run(capsys, argv)
        assert codes.isdisjoint(out + err), argv
        assert not any("\ud800" <= ch <= "\udfff" for ch in out + err), argv
        shown["out"] += bool(out)
        shown["witnesses"] += argv[0] == "list-pairs" and "(w" in out
        shown["excluded"] += "(long) excluded: coda" in err
    assert all(shown.values()), shown


def _bytes_under_hash_seed(argvs, seed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed))
    done = [subprocess.run([sys.executable, "-m", "ptrac.cli", *argv], capture_output=True,
                           env=env, timeout=60) for argv in argvs]
    return [(d.returncode, d.stdout, d.stderr) for d in done]


def test_output_does_not_depend_on_the_hash_seed(capsys, tmp_path):
    # Sets and dicts keyed by text iterate in an order the hash seed moves;
    # no output, nor the codes given to multi-character symbols, may follow it.
    multi_inv, multi_lex = multichar_files(tmp_path, 1)
    argvs = []
    for inv_file, lex_file in ((data.data_path("persian.inv"),
                                data.data_path("voicing_fixture.tsv")), (multi_inv, multi_lex)):
        base = ["--inventory", str(inv_file), "--lexicon", str(lex_file)]
        argvs += [["analyze", *base, "--study", "clusters", "--format", "csv"],
                  ["analyze", *base, "--study", "positions", "--aggregate", "following-segment",
                   "--format", "json"],
                  ["analyze", *base, "--study", "clusters", "--aggregate", "following-class",
                   "--format", "svg"],
                  ["syllabify", *base]]
        _, out, _ = run(capsys, argvs[-4])  # the frame with the most pairs
        row = max((line.split(",") for line in out.splitlines()[1:]), key=lambda r: int(r[3]))
        argvs.append(["list-pairs", *base, "--study", "clusters", "--feature", row[1],
                      "--context", row[0]])
    first = _bytes_under_hash_seed(argvs, 0)
    assert all(out for _, out, _ in first)
    assert _bytes_under_hash_seed(argvs, 1) == first
