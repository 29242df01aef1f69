"""CLI contract tests: subcommands, exit codes, determinism."""

import pytest

from ptrac import data
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
