"""What each entry point imports, and the lazy ``hri`` namespace.

The module sets are checked in a fresh interpreter, because this test process
has already imported every submodule.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hri
from hri.cli import main
from hri.fixtures import BASELINE_CORRIDOR_FILE, SURVEY17_RATINGS_FILE, SURVEY17_RESPONDENTS_FILE, fixture_path
from hri.ivim import encode, to_canonical_text

from test_ivim import one_zone_message

CLI_MODULES = {"hri", "hri.cli", "hri._util", "hri.errors"}


def loaded_after(code: str) -> set[str]:
    """The ``hri`` modules in ``sys.modules`` after running ``code`` afresh."""
    report = "\nimport sys\nprint(*sorted(m for m in sys.modules if m == 'hri' or m.startswith('hri.')))"
    src = str(Path(hri.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code + report], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())  # the CLI's own output comes first


def cli_run(*argv: object, code: int = 0) -> str:
    return f"from hri.cli import main\nassert main({[str(a) for a in argv]!r}) == {code}"


def score_profile(tmp_path: Path) -> Path:
    """The JSON score profile of the fixture corridor, written in this process."""
    profile = tmp_path / "p.json"
    args = ["score", fixture_path(BASELINE_CORRIDOR_FILE), "--out-csv", tmp_path / "p.csv", "--out-json", profile]
    assert main([str(arg) for arg in args]) == 0
    return profile


def encoded_message(tmp_path: Path) -> Path:
    message = tmp_path / "m.ivim"
    message.write_bytes(encode(one_zone_message()))
    return message


def test_import_hri_loads_no_submodule():
    assert loaded_after("import hri") == {"hri"}


def test_import_cli_loads_no_domain_module():
    assert loaded_after("import hri.cli") == CLI_MODULES


def test_score_loads_corridor_and_scoring(tmp_path):
    code = cli_run(
        "score", fixture_path(BASELINE_CORRIDOR_FILE),
        "--out-csv", tmp_path / "p.csv", "--out-json", tmp_path / "p.json",
    )
    assert loaded_after(code) == CLI_MODULES | {"hri.taxonomy", "hri.corridor", "hri.scoring"}


def test_help_and_usage_error_load_no_domain_module():
    assert loaded_after(cli_run("--help")) == CLI_MODULES
    assert loaded_after(cli_run("score", code=1)) == CLI_MODULES


def test_ivim_build_loads_scoring_and_ivim(tmp_path):
    code = cli_run("ivim", "build", score_profile(tmp_path), "--station-id", 1, "--out", tmp_path / "m.ivim.txt")
    assert loaded_after(code) == CLI_MODULES | {"hri.scoring", "hri.ivim"}


def test_ivim_encode_loads_only_ivim(tmp_path):
    text_in = tmp_path / "m.ivim.txt"
    text_in.write_text(to_canonical_text(one_zone_message()), encoding="utf-8")
    code = cli_run("ivim", "encode", text_in, "--out", tmp_path / "m.ivim")
    assert loaded_after(code) == CLI_MODULES | {"hri.ivim"}


@pytest.mark.parametrize("command", ["decode", "inspect"])
def test_ivim_decode_and_inspect_load_only_ivim(tmp_path, command):
    assert loaded_after(cli_run("ivim", command, encoded_message(tmp_path))) == CLI_MODULES | {"hri.ivim"}


def test_sensitivity_loads_scoring_and_taxonomy():
    assert loaded_after(cli_run("sensitivity")) == CLI_MODULES | {"hri.scoring", "hri.taxonomy"}


def test_survey_loads_survey_and_taxonomy(tmp_path):
    code = cli_run(
        "survey", fixture_path(SURVEY17_RATINGS_FILE), fixture_path(SURVEY17_RESPONDENTS_FILE),
        "--out-weights", tmp_path / "w.csv", "--out-diff", tmp_path / "d.csv", "--out-days", tmp_path / "days.csv",
    )
    assert loaded_after(code) == CLI_MODULES | {"hri.survey", "hri.taxonomy"}


def test_simulate_rsu_loads_ivim_and_rsu(tmp_path):
    options = ["--dry-run", "--period", 0.01, "--count", 1, "--timestamp", 5]
    code = cli_run("simulate-rsu", "--message", encoded_message(tmp_path), *options)
    assert loaded_after(code) == CLI_MODULES | {"hri.ivim", "hri.rsu"}
    code = cli_run("simulate-rsu", "--profile", score_profile(tmp_path), *options)
    assert loaded_after(code) == CLI_MODULES | {"hri.scoring", "hri.ivim", "hri.rsu"}


def test_public_names_are_their_submodule_attributes():
    for name in hri.__all__:
        value = getattr(hri, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_namespace_listing_and_unknown_name():
    assert set(hri.__all__) <= set(dir(hri))
    namespace: dict = {}
    exec("from hri import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(hri.__all__)
    with pytest.raises(AttributeError, match="'nope'"):
        hri.nope  # noqa: B018
    from hri import corridor

    assert corridor is sys.modules["hri.corridor"]
