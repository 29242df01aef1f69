"""What `import ptrac` and each command load: the package's public names
load their module on first use, and a command imports only the modules it
runs."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ptrac
from ptrac import data

INV = str(data.data_path("persian.inv"))
LEX = str(data.data_path("voicing_fixture.tsv"))
SRC = str(Path(ptrac.__file__).resolve().parent.parent)

START = ["ptrac", "ptrac.cli", "ptrac.errors", "ptrac.inventory"]
TEXT = START + ["ptrac.lexicon", "ptrac.syllabifier"]
ENGINE = TEXT + ["ptrac.core"]


def loaded_by(code):
    """The ptrac modules that running `code` in a fresh interpreter adds to
    `sys.modules`, sorted."""
    check = ("import sys\n"
             "before = set(sys.modules)\n"
             "%s\n"
             "print(sorted(m for m in set(sys.modules) - before\n"
             "             if m.partition('.')[0] == 'ptrac'))\n" % code)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.splitlines()[-1]


def test_importing_the_package_loads_no_submodule():
    assert loaded_by("import ptrac") == str(["ptrac"])


@pytest.mark.parametrize("argv, modules", [
    (["pairs", "--inventory", INV], START),
    (["syllabify", "--inventory", INV, "fasl", "band"], TEXT),
    (["syllabify", "--inventory", INV, "--lexicon", LEX], TEXT),
    (["list-pairs", "--inventory", INV, "--lexicon", LEX, "--study", "clusters",
      "--feature", "voice", "--context", "_l"], ENGINE),
    (["analyze", "--inventory", INV, "--lexicon", LEX, "--study", "clusters"],
     ENGINE + ["ptrac.report"]),
], ids=["pairs", "syllabify words", "syllabify lexicon", "list-pairs", "analyze"])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    code = "from ptrac.cli import cli_main\nassert cli_main(%r) == 0" % (argv,)
    assert loaded_by(code) == str(sorted(modules))


def test_each_public_name_is_its_modules_object():
    for name, module in ptrac._HOMES.items():
        home = import_module("ptrac." + module)
        assert getattr(ptrac, name) is getattr(home, name)
        assert getattr(getattr(home, name), "__module__", home.__name__) == home.__name__
    assert set(ptrac.__all__) <= set(dir(ptrac))
    names = {}
    exec("from ptrac import *", names)
    assert set(names) - {"__builtins__"} == set(ptrac.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'ptrac' has no attribute 'no_such_name'"):
        ptrac.no_such_name  # noqa: B018
    assert data.__name__ == "ptrac.data"  # `from ptrac import data` imported the subpackage
