"""CLI contract tests: subcommands, exit codes, determinism."""

import gc
import itertools

import pytest

from ptrac import StudyConfig, StudyError, data, parse_lexicon
from ptrac.cli import cli_main
from ptrac.core import KINDS, ORIENTATIONS, SCHEMES, WEIGHTINGS
from ptrac.oracle import oracle_matrix
from ptrac.report import RenderSpec, render


@pytest.fixture(scope="module")
def inv_path():
    return str(data.data_path("persian.inv"))


@pytest.fixture(scope="module")
def lex_path():
    return str(data.data_path("voicing_fixture.tsv"))


def run(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_syllabify_words(capsys, inv_path):
    code, out, err = run(capsys, ["syllabify", "--inventory", inv_path, "bara", "satr"])
    assert code == 0
    assert out.splitlines() == ["ba.ra", "satr"]


def test_syllabify_lexicon(capsys, inv_path, lex_path):
    code, out, _ = run(capsys, ["syllabify", "--inventory", inv_path, "--lexicon", lex_path])
    assert code == 0
    assert len(out.splitlines()) == 16
    assert out.splitlines()[0] == "?asl".replace("?", "'")


def test_syllabify_invalid_word(capsys, inv_path):
    code, out, err = run(capsys, ["syllabify", "--inventory", inv_path, "ab"])
    assert code == 2
    assert "error" in err


def test_pairs_voice_ordered(capsys, inv_path):
    code, out, _ = run(
        capsys,
        ["pairs", "--inventory", inv_path, "--feature", "voice", "--orientation", "ordered"],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 20
    assert "b p voice" in lines and "p b voice" in lines


def test_pairs_all_features(capsys, inv_path):
    code, out, _ = run(capsys, ["pairs", "--inventory", inv_path])
    assert code == 0
    assert len(out.splitlines()) == 35 + 25 + 10


def test_analyze_csv(capsys, inv_path, lex_path):
    code, out, err = run(
        capsys,
        [
            "analyze", "--inventory", inv_path, "--lexicon", lex_path,
            "--study", "clusters", "--aggregate", "following-segment",
            "--format", "csv",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "context,feature,weighted_count,pair_count"
    assert "_r,voice,5,3" in lines
    assert "_l,voice,2,1" in lines


def test_analyze_missing_lexicon_flag(capsys, inv_path):
    code, out, err = run(capsys, ["analyze", "--inventory", inv_path, "--study", "clusters"])
    assert code == 1
    assert "usage" in err


def test_analyze_missing_file(capsys, inv_path):
    code, _, err = run(
        capsys,
        ["analyze", "--inventory", inv_path, "--lexicon", "/nonexistent.tsv",
         "--study", "clusters"],
    )
    assert code == 1
    assert "error" in err


def test_analyze_strict_bad_lexicon(capsys, inv_path, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("w\tba5d\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        ["analyze", "--inventory", inv_path, "--lexicon", str(bad),
         "--study", "clusters", "--strict"],
    )
    assert code == 2
    assert "error" in err


def test_analyze_invalid_inventory(capsys, tmp_path, lex_path):
    inv = tmp_path / "bad.inv"
    inv.write_text("[phonemes]\nb consonant\nb vowel\n[pairs]\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        ["analyze", "--inventory", str(inv), "--lexicon", lex_path, "--study", "clusters"],
    )
    assert code == 2


def test_analyze_oracle_flag_agrees(capsys, persian, inv_path, lex_path):
    # `analyze` prints the rendering of the brute-force oracle's matrix.
    lex, diags = parse_lexicon(data.voicing_fixture_text(), persian)
    for study, scheme, orientation, weighting in itertools.product(
            KINDS, SCHEMES, ORIENTATIONS, WEIGHTINGS):
        if scheme == "position" and study != "positions":
            continue
        cfg = StudyConfig(kind=study, weighting=weighting, orientation=orientation)
        meta = {"diagnostics": len(diags), "weighting": weighting, "orientation": orientation}
        for fmt in ("csv", "json"):
            argv = ["analyze", "--inventory", inv_path, "--lexicon", lex_path, "--study", study,
                    "--aggregate", scheme, "--orientation", orientation,
                    "--weighting", weighting, "--format", fmt]
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert out == render(oracle_matrix(lex, persian, cfg),
                                 RenderSpec(format=fmt, scheme=scheme),
                                 inv=persian, meta=meta), argv
            assert out.count("\n") > 1, argv  # a matrix, not just the header


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown", "svg"])
def test_analyze_oracle_flag_reports_excluded_entries(capsys, inv_path, tmp_path, fmt):
    lex = tmp_path / "lex.tsv"
    lex.write_text("band\tband\npand\tpand\nakt\takt\nsard\tsard\n", encoding="utf-8")
    code, out, err = run(capsys, ["analyze", "--inventory", inv_path, "--lexicon", str(lex),
                                  "--study", "clusters", "--format", fmt])
    assert code == 0 and out
    assert err == ("warning: entry 2 (akt) excluded: sequence starts with vowel 'a' "
                   "(onset is obligatory)\n")


def test_analyze_out_file(capsys, inv_path, lex_path, tmp_path):
    target = tmp_path / "m.csv"
    code, out, _ = run(
        capsys,
        ["analyze", "--inventory", inv_path, "--lexicon", lex_path,
         "--study", "clusters", "--format", "csv", "--out", str(target)],
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8").startswith("context,feature")


def test_list_pairs(capsys, inv_path, lex_path):
    code, out, _ = run(
        capsys,
        ["list-pairs", "--inventory", inv_path, "--lexicon", lex_path,
         "--study", "clusters", "--feature", "voice", "--context", "_n"],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    fields = lines[0].split("\t")
    assert fields[:5] == ["sn", "zn", "_n", "voice", "1"]
    assert "(hosn, hozn)" in fields[5]


def count_extractions(monkeypatch):
    """The study configs of the `extract_sequences` calls that follow, made
    from the CLI or from inside `ptrac.core` (`run_study`, `list_pairs_for`)."""
    import ptrac.cli
    import ptrac.core

    configs = []
    extract = ptrac.core.extract_sequences

    def counting_extract(lex, inv, cfg, *args, **kwargs):
        configs.append(cfg)
        return extract(lex, inv, cfg, *args, **kwargs)

    for module in (ptrac.cli, ptrac.core):
        monkeypatch.setattr(module, "extract_sequences", counting_extract)
    return configs


def test_list_pairs_extracts_the_lexicon_once(capsys, monkeypatch, inv_path, lex_path):
    configs = count_extractions(monkeypatch)
    code, out, _ = run(
        capsys,
        ["list-pairs", "--inventory", inv_path, "--lexicon", lex_path,
         "--study", "positions", "--scheme", "position", "--feature", "voice",
         "--context", "C2"],
    )
    assert code == 0 and out
    assert [cfg.kind for cfg in configs] == ["positions"]


def test_list_pairs_absent_context(capsys, inv_path, lex_path):
    code, out, _ = run(
        capsys,
        ["list-pairs", "--inventory", inv_path, "--lexicon", lex_path,
         "--study", "clusters", "--feature", "voice", "--context", "_b"],
    )
    assert code == 0 and out == ""


def test_determinism_csv_and_svg(capsys, inv_path, lex_path):
    for fmt, agg in (("csv", "following-segment"), ("svg", "following-class"),
                     ("json", "total"), ("markdown", "frame")):
        argv = ["analyze", "--inventory", inv_path, "--lexicon", lex_path,
                "--study", "clusters", "--aggregate", agg, "--format", fmt]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


def test_unknown_symbol_is_a_validation_error(capsys, inv_path, tmp_path):
    # From a file, a symbol outside the inventory stops the tokenizer; the
    # Lexicon constructor rejects the same for entries built in code.
    bad = tmp_path / "bad.tsv"
    bad.write_text("w\tbaXd\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        ["analyze", "--inventory", inv_path, "--lexicon", str(bad),
         "--study", "clusters", "--strict"],
    )
    assert code == 2
    assert err.startswith("error: ") and "'X'" in err and "Traceback" not in err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_list_pairs_limit_below_one(capsys, inv_path, lex_path, limit):
    code, out, err = run(
        capsys,
        ["list-pairs", "--inventory", inv_path, "--lexicon", lex_path,
         "--study", "clusters", "--feature", "voice", "--context", "_n",
         "--limit", limit],
    )
    assert code == 2 and out == ""
    assert "limit must be at least 1" in err


def test_control_character_in_inventory_is_a_validation_error(capsys, lex_path, tmp_path):
    # XML 1.0 cannot carry U+0001 even escaped, so such a symbol would
    # make the SVG unparseable; the inventory is rejected instead.
    bad = tmp_path / "ctrl.inv"
    bad.write_text(data.persian_inventory_text() + "[phonemes]\nb\x01 consonant\n",
                   encoding="utf-8")
    code, out, err = run(
        capsys,
        ["analyze", "--inventory", str(bad), "--lexicon", lex_path,
         "--study", "clusters", "--format", "svg"],
    )
    assert code == 2 and out == ""
    assert "control character" in err and "Traceback" not in err


def test_list_pairs_limit_checked_before_reading_files(capsys, inv_path, tmp_path):
    code, out, err = run(
        capsys,
        ["list-pairs", "--inventory", inv_path, "--lexicon", str(tmp_path / "missing.tsv"),
         "--study", "clusters", "--feature", "voice", "--context", "_n",
         "--limit", "0"],
    )
    assert code == 2 and out == ""
    assert "limit must be at least 1" in err


def test_inventory_with_bom(capsys, inv_path, tmp_path):
    bom = tmp_path / "bom.inv"
    bom.write_text("\ufeff" + data.persian_inventory_text(), encoding="utf-8")
    expected = run(capsys, ["pairs", "--inventory", inv_path])
    assert expected[0] == 0
    assert run(capsys, ["pairs", "--inventory", str(bom)]) == expected


def test_lexicon_with_bom(capsys, inv_path, tmp_path):
    bom = tmp_path / "bom.tsv"
    bom.write_text("\ufeffhosn\thosn\nhozn\thozn\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        ["list-pairs", "--inventory", inv_path, "--lexicon", str(bom),
         "--study", "clusters", "--feature", "voice", "--context", "_n"],
    )
    assert code == 0
    assert out.endswith("\t(hosn, hozn)\n")


# 10,000 lines ending in \n, \r\n and a lone \r in turn: 142,223
# characters, more than two of the 65,536-character slices `split_lines`
# splits at a time. Each "ö" is two bytes, so a byte offset is not a
# character count.
PAST_TWO_SLICES = "".join("wörd%d\tband%s" % (i, ("\n", "\r\n", "\r")[i % 3])
                          for i in range(10000)).encode("utf-8")


@pytest.mark.parametrize("command", ["analyze", "syllabify", "list-pairs"])
@pytest.mark.parametrize("raw, line, offset", [
    (b"ab\tsa\xffk\n", 1, 5),
    (b"\xef\xbb\xbfab\tsak\r\ncd\tsa\xffk\n", 2, 16),  # the mark counts, \r\n is one break
    (b"# x\r# y\n\n\xc3", 4, 9),  # a lone \r ends a line; a sequence cut short
    pytest.param(PAST_TWO_SLICES + b"ab\tsa\xffk\n", 10001, len(PAST_TWO_SLICES) + 5,
                 id="past-two-slices"),
])
def test_non_utf8_lexicon_is_a_validation_error(capsys, inv_path, tmp_path, command,
                                                 raw, line, offset):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(raw)
    argv = {"analyze": ["--study", "positions"], "syllabify": [],
            "list-pairs": ["--study", "clusters", "--feature", "voice", "--context", "_r"]}
    code, out, err = run(capsys, [command, "--inventory", inv_path, "--lexicon", str(bad),
                                  *argv[command]])
    assert (code, out) == (2, "")
    assert err == "error: line %d: byte 0x%02x at offset %d of %s is not valid UTF-8\n" % (
        line, raw[offset], offset, bad)


@pytest.mark.parametrize("command", ["pairs", "analyze"])
def test_non_utf8_inventory_is_a_validation_error(capsys, lex_path, tmp_path, command):
    bad = tmp_path / "bad.inv"
    bad.write_bytes(b"\xff\xfe[phonemes]\n")  # a UTF-16 byte-order mark
    argv = ["--lexicon", lex_path, "--study", "clusters"] if command == "analyze" else []
    code, out, err = run(capsys, [command, "--inventory", str(bad), *argv])
    assert (code, out) == (2, "")
    assert err == "error: line 1: byte 0xff at offset 0 of %s is not valid UTF-8\n" % bad


@pytest.mark.parametrize("command", [
    ["analyze", "--study", "positions"],
    ["list-pairs", "--study", "positions", "--feature", "voice", "--context", "tsak_"],
])
def test_contexts_that_render_alike_are_a_validation_error(capsys, monkeypatch, tmp_path,
                                                           join_alike, command):
    # Greedy longest-match tokenizing reads equal text the same way, so
    # colliding frames are hard to reach from a lexicon file; the lexicon
    # is handed in through the library instead.
    import ptrac.cli

    inv, lex = join_alike
    monkeypatch.setattr(ptrac.cli, "_load_inventory", lambda path: inv)
    monkeypatch.setattr(ptrac.cli, "read_entries", lambda text, inv, diagnostics: iter(lex))
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("", encoding="utf-8")
    code, out, err = run(capsys, command[:1] + ["--inventory", "unused", "--lexicon",
                                                str(lexicon)] + command[1:])
    assert code == 2 and out == ""
    assert err == ("error: contexts ('t', 'sa', 'k', '_') and ('ts', 'a', 'k', '_') "
                   "both render as 'tsak_'\n")


# A malformed line, an untokenizable line and two unsyllabifiable words.
MIXED_LEXICON = ("band\tband\n# comment\nbad line\npand\tpand\nw5\tba5d\nakt\takt\n\n"
                 "sard\tsard\nno trans\t\nsart\tsart\nbrak\tbrak\n")
MIXED_DIAGNOSTICS = ("warning: line 3: expected 'orthography<TAB>transcription'\n"
                     "warning: line 5: no inventory symbol matches '5' at offset 2\n"
                     "warning: line 9: expected 'orthography<TAB>transcription'\n")


@pytest.mark.parametrize("command, code, err", [
    (["analyze", "--study", "clusters"], 0, MIXED_DIAGNOSTICS
     + "warning: entry 2 (akt) excluded: sequence starts with vowel 'a' (onset is obligatory)\n"
     "warning: entry 5 (brak) excluded: word-initial consonant cluster 'br' "
     "(onsets are single consonants)\n"),
    (["list-pairs", "--study", "clusters", "--feature", "voice", "--context", "_d"], 0,
     MIXED_DIAGNOSTICS),
    (["syllabify"], 2, MIXED_DIAGNOSTICS
     + "error: akt: sequence starts with vowel 'a' (onset is obligatory)\n"
     "error: brak: word-initial consonant cluster 'br' (onsets are single consonants)\n"),
])
def test_stderr_text_and_order(capsys, inv_path, tmp_path, command, code, err):
    # Lexicon diagnostics first, then exclusions (or syllabify's errors).
    lex = tmp_path / "mixed.tsv"
    lex.write_text(MIXED_LEXICON, encoding="utf-8")
    got = run(capsys, command[:1] + ["--inventory", inv_path, "--lexicon", str(lex)]
              + command[1:])
    assert got[0] == code and got[2] == err


@pytest.mark.parametrize("lexicon, warnings", [
    (None, ""),
    (MIXED_LEXICON, MIXED_DIAGNOSTICS),
], ids=["fixture", "warnings"])
def test_list_pairs_refuses_a_scheme_analyze_refuses(capsys, inv_path, lex_path, tmp_path,
                                                     lexicon, warnings):
    # The position scheme needs a positions study: the drill-down exits as
    # `analyze` does, after the lexicon warnings, and prints no rows.
    if lexicon is not None:
        lex_path = str(tmp_path / "mixed.tsv")
        (tmp_path / "mixed.tsv").write_text(lexicon, encoding="utf-8")
    base = ["--inventory", inv_path, "--lexicon", lex_path, "--study", "clusters"]
    code, out, err = run(capsys, ["list-pairs", *base, "--scheme", "position",
                                  "--feature", "voice", "--context", "C1"])
    message = "error: position scheme requires a positions study\n"
    assert (code, out, err) == (2, "", warnings + message)
    # `analyze` refuses the scheme before the study, so no exclusions follow
    code, out, err = run(capsys, ["analyze", *base, "--aggregate", "position"])
    assert (code, out, err) == (2, "", warnings + message)


@pytest.mark.parametrize("command", [
    ["analyze", "--aggregate", "position"],
    ["list-pairs", "--scheme", "position", "--feature", "voice", "--context", "C1"],
])
def test_refused_scheme_extracts_nothing(capsys, monkeypatch, inv_path, lex_path, command):
    configs = count_extractions(monkeypatch)
    code, out, err = run(capsys, command[:1] + ["--inventory", inv_path, "--lexicon", lex_path,
                                                "--study", "clusters"] + command[1:])
    assert (code, out, err) == (2, "", "error: position scheme requires a positions study\n")
    assert configs == []


MIXED_STRICT_ERROR = (
    "error: 3 malformed line(s): line 3: expected 'orthography<TAB>transcription'; "
    "line 5: no inventory symbol matches '5' at offset 2; "
    "line 9: expected 'orthography<TAB>transcription'\n")


@pytest.mark.parametrize("aggregate", [[], ["--aggregate", "position"]],
                         ids=["accepted", "refused"])
def test_analyze_strict_error_alone(capsys, inv_path, tmp_path, aggregate):
    # The strict error wins over a refused scheme, and no warning is written.
    lex = tmp_path / "mixed.tsv"
    lex.write_text(MIXED_LEXICON, encoding="utf-8")
    code, out, err = run(capsys, ["analyze", "--inventory", inv_path, "--lexicon", str(lex),
                                  "--study", "clusters", "--strict", *aggregate])
    assert (code, out, err) == (2, "", MIXED_STRICT_ERROR)


def test_list_pairs_refused_scheme_follows_every_diagnostic(capsys, inv_path, tmp_path):
    # The scheme is refused before the lexicon is extracted; the lines are
    # still read to the last, so every diagnostic comes before the error.
    lex = tmp_path / "mixed.tsv"
    lex.write_text(MIXED_LEXICON + "last\n", encoding="utf-8")
    code, out, err = run(capsys, ["list-pairs", "--inventory", inv_path, "--lexicon", str(lex),
                                  "--study", "clusters", "--scheme", "position",
                                  "--feature", "voice", "--context", "C1"])
    assert (code, out) == (2, "")
    assert err == (MIXED_DIAGNOSTICS
                   + "warning: line 12: expected 'orthography<TAB>transcription'\n"
                   + "error: position scheme requires a positions study\n")


def test_analyze_diagnostics_written_before_a_failing_study(capsys, monkeypatch, inv_path,
                                                            tmp_path):
    import ptrac.cli

    def fail(lex, inv, cfg, scheme="frame"):
        raise StudyError("study failed")

    monkeypatch.setattr(ptrac.cli, "run_study", fail)
    lex = tmp_path / "mixed.tsv"
    lex.write_text(MIXED_LEXICON, encoding="utf-8")
    code, out, err = run(capsys, ["analyze", "--inventory", inv_path, "--lexicon", str(lex),
                                  "--study", "clusters"])
    assert code == 2 and out == ""
    assert err == MIXED_DIAGNOSTICS + "error: study failed\n"


def test_unicode_line_separator_stays_inside_its_line(capsys, inv_path, tmp_path):
    # U+2028 is a line boundary to str.splitlines but not to a file read
    # with universal newlines; it is part of the orthography here.
    lex = tmp_path / "u2028.tsv"
    lex.write_text("a\u2028b\tsak\nw\tsaXk\n", encoding="utf-8")
    code, out, err = run(capsys, ["syllabify", "--inventory", inv_path, "--lexicon", str(lex)])
    assert (code, out) == (0, "sak\n")
    assert err == "warning: line 2: no inventory symbol matches 'X' at offset 2\n"


def _argvs(inv_path, lex_path):
    return {
        "success": (0, ["analyze", "--inventory", inv_path, "--lexicon", lex_path,
                        "--study", "clusters"]),
        "validation error": (2, ["list-pairs", "--inventory", inv_path, "--lexicon", lex_path,
                                 "--study", "clusters", "--feature", "voice",
                                 "--context", "_n", "--limit", "0"]),
        "missing file": (1, ["analyze", "--inventory", inv_path,
                             "--lexicon", "/nonexistent.tsv", "--study", "clusters"]),
        "argparse error": (1, ["analyze", "--inventory", inv_path, "--study", "nope"]),
    }


@pytest.mark.parametrize("case", ["success", "validation error", "missing file",
                                  "argparse error"])
@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored(capsys, inv_path, lex_path, case, enabled):
    code, argv = _argvs(inv_path, lex_path)[case]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli_main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_collector_paused_inside_a_command(capsys, monkeypatch, inv_path, lex_path):
    import ptrac.cli

    seen = []
    run_study = ptrac.cli.run_study

    def recording_run_study(*args, **kwargs):
        seen.append(gc.isenabled())
        return run_study(*args, **kwargs)

    monkeypatch.setattr(ptrac.cli, "run_study", recording_run_study)
    assert gc.isenabled()
    code, _, _ = run(capsys, _argvs(inv_path, lex_path)["success"][1])
    assert code == 0 and seen == [False] and gc.isenabled()


def _mixed_lexicon(n):
    """n lines: a tenth unsyllabifiable, a tenth malformed, a tenth
    untokenizable, the rest words that form pairs."""
    words = ("band", "pand", "sard", "sart", "hosn", "hozn", "satr", "kabk")
    lines = []
    for i in range(n):
        kind = i % 10
        if kind == 0:
            lines.append("akt%d\takt" % i)
        elif kind == 1:
            lines.append("bad line %d" % i)
        elif kind == 2:
            lines.append("w%d\tba5d" % i)
        else:
            lines.append("w%d\t%s" % (i, words[i % len(words)]))
    return "\n".join(lines) + "\n"


def test_analyze_leaves_no_per_entry_cycles(capsys, inv_path, tmp_path):
    # Pausing the collector is sound because a command builds no reference
    # cycles per entry: the cyclic garbage it leaves does not grow with the
    # lexicon. An excluded entry that kept its exception (and so the
    # traceback and its frames) would make one cycle per exclusion.
    garbage = {}
    was_enabled = gc.isenabled()
    try:
        for n in (20, 4000):
            lex = tmp_path / ("lex%d.tsv" % n)
            lex.write_text(_mixed_lexicon(n), encoding="utf-8")
            gc.collect()
            gc.disable()
            code = cli_main(["analyze", "--inventory", inv_path, "--lexicon", str(lex),
                             "--study", "clusters"])
            garbage[n] = gc.collect()
            gc.enable()
            assert code == 0
            assert capsys.readouterr().err.count("excluded") == n // 10
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert abs(garbage[4000] - garbage[20]) <= 20, garbage


def with_multichar_vowel(inventory_text):
    """The inventory with an unused two-character vowel. No longer are all
    symbols one character, so `char_symbols` and `skeleton_table` are empty
    and tokenizing and extraction take their general paths (the token
    regex, bytes skeletons)."""
    assert "[phonemes]\n" in inventory_text
    return inventory_text.replace("[phonemes]\n", "[phonemes]\nŋŋ vowel\n", 1)


def inventory_text(inv):
    """A pair-list inventory file with the symbols, vowels and relation of `inv`."""
    lines = ["[phonemes]"]
    lines += ["%s %s" % (s, "vowel" if v else "consonant") for s, v in inv.vowel_map.items()]
    lines.append("[pairs]")
    lines += ["%s %s %s" % (a, b, f) for a, rel in inv.relation.items()
              for b, f in rel.items() if a < b]
    return "\n".join(lines) + "\n"


def _path_argvs(capsys, inv_path, lex_path):
    """`analyze` for every kind, scheme and format, and `list-pairs` for
    every kind and feature on a few contexts of each scheme but position."""
    from ptrac.core import FORMATS

    base = ["--inventory", inv_path, "--lexicon", lex_path]
    argvs = [["analyze", *base, "--study", kind, "--aggregate", scheme, "--format", fmt]
             for kind in KINDS for scheme in SCHEMES for fmt in FORMATS]
    for kind in KINDS:
        for scheme in ("frame", "following-segment", "total"):
            _, out, _ = run(capsys, ["analyze", *base, "--study", kind, "--aggregate", scheme])
            contexts = sorted({line.split(",")[0] for line in out.splitlines()[1:]})
            for context in contexts[:3]:
                argvs += [["list-pairs", *base, "--study", kind, "--scheme", scheme,
                           "--feature", feature, "--context", context, "--limit", "3"]
                          for feature in ("manner", "place", "voice")]
    argvs.append(["list-pairs", *base, "--study", "positions", "--scheme", "position",
                  "--feature", "voice", "--context", "C2"])
    return argvs


def _lexicon_cases():
    from randlex import make_case
    from ptrac import serialize_lexicon

    yield "fixture", data.persian_inventory_text(), data.voicing_fixture_text()
    # foreign characters, a "?" (no glottal stop in these inventories) and
    # malformed lines, so the tokenizer's diagnostics are compared too
    extra = "# comment\nbad line\nq\t?a\nz\tab5\n"
    for mode, seed in (("pair-list", 0), ("pair-list", 1), ("vector", 2), ("vector", 3)):
        inv, lex = make_case(seed, max_words=120, mode=mode)
        yield "%s-%d" % (mode, seed), inventory_text(inv), serialize_lexicon(lex) + extra


@pytest.mark.parametrize("case", list(_lexicon_cases()), ids=lambda case: case[0])
def test_one_character_paths_print_what_the_general_paths_print(capsys, tmp_path, case):
    from ptrac import parse_inventory

    _, inv_text, lex_text = case
    one, multi = tmp_path / "one.inv", tmp_path / "multi.inv"
    one.write_text(inv_text, encoding="utf-8")
    multi.write_text(with_multichar_vowel(inv_text), encoding="utf-8")
    assert parse_inventory(inv_text).skeleton_table
    assert not parse_inventory(multi.read_text(encoding="utf-8")).char_symbols
    lex = tmp_path / "lex.tsv"
    lex.write_text(lex_text, encoding="utf-8")
    argvs = _path_argvs(capsys, str(one), str(lex))
    outcomes, listed = set(), []
    for argv in argvs:
        want = run(capsys, argv)
        assert run(capsys, [str(multi) if a == str(one) else a for a in argv]) == want, argv
        outcomes.add(want[0])
        if argv[0] == "list-pairs":
            listed.append(want[1])
    assert outcomes == {0, 2}  # clusters with the position scheme is refused
    assert any(listed)
