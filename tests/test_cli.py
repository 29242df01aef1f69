"""CLI contract tests: subcommands, exit codes, determinism."""

import gc

import pytest

from ptrac import StudyError, data
from ptrac.cli import cli_main


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


def test_analyze_oracle_flag_agrees(capsys, inv_path, lex_path):
    base = ["analyze", "--inventory", inv_path, "--lexicon", lex_path,
            "--study", "clusters", "--aggregate", "frame", "--format", "csv"]
    code1, out1, _ = run(capsys, base)
    code2, out2, _ = run(capsys, base + ["--oracle"])
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown", "svg"])
def test_analyze_oracle_flag_reports_excluded_entries(capsys, inv_path, tmp_path, fmt):
    lex = tmp_path / "lex.tsv"
    lex.write_text("band\tband\npand\tpand\nakt\takt\nsard\tsard\n", encoding="utf-8")
    base = ["analyze", "--inventory", inv_path, "--lexicon", str(lex),
            "--study", "clusters", "--format", fmt]
    engine = run(capsys, base)
    assert engine[0] == 0 and "entry 2 (akt) excluded" in engine[2]
    assert run(capsys, base + ["--oracle"]) == engine


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


def test_list_pairs_extracts_the_lexicon_once(capsys, monkeypatch, inv_path, lex_path):
    import ptrac.core

    kinds = []
    entry_plans = ptrac.core._entry_plans

    def counting_entry_plans(entries, inv, kind):
        kinds.append(kind)
        return entry_plans(entries, inv, kind)

    monkeypatch.setattr(ptrac.core, "_entry_plans", counting_entry_plans)
    code, out, _ = run(
        capsys,
        ["list-pairs", "--inventory", inv_path, "--lexicon", lex_path,
         "--study", "positions", "--scheme", "position", "--feature", "voice",
         "--context", "C2"],
    )
    assert code == 0 and out
    assert kinds == ["positions"]


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
    monkeypatch.setattr(ptrac.cli, "parse_lexicon", lambda text, inv, strict=False: (lex, []))
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


def test_analyze_diagnostics_written_before_a_failing_study(capsys, monkeypatch, inv_path,
                                                            tmp_path):
    import ptrac.cli

    def fail(lex, inv, cfg):
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

    def recording_run_study(*args):
        seen.append(gc.isenabled())
        return run_study(*args)

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
