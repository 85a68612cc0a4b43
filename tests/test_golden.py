"""Golden-output corpus: each pinned CLI invocation prints exactly its committed bytes.

The cases, their inputs and their expected outputs live in
``tests/data/golden/`` and come from ``tests/data/golden/make_corpus.py``.

Rule: the expected files are regenerated only by a change that declares a
deliberate output change, and its ``CHANGES.md`` entry names the files
that moved. A refactor or speed-up leaves every file as it is.
"""

import json
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from relbel.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_output_matches_golden_bytes(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    res = CliRunner().invoke(main, case["args"])
    assert res.exit_code == case["exit"], res.output
    assert res.stderr == case["stderr"]
    assert res.stdout_bytes == (GOLDEN / "out" / f"{case['name']}.txt").read_bytes()


def _no_constant(name: str):
    raise ValueError(f"{name} is not RFC 8259 JSON")


# every command but limits and classify table1, which write CSV, writes one JSON report
JSON_CASES = [
    c for c in CASES
    if c["exit"] == 0 and c["args"][0] != "limits" and c["args"][:2] != ["classify", "table1"]
]


@pytest.mark.parametrize("case", JSON_CASES, ids=[c["name"] for c in JSON_CASES])
def test_json_reports_have_no_nan_or_infinity(case):
    text = (GOLDEN / "out" / f"{case['name']}.txt").read_text()
    assert isinstance(json.loads(text, parse_constant=_no_constant), dict)


def _invocations(group: click.Group, prefix: tuple = ()):
    """Every leaf of the command tree, with each value of a choice argument."""
    for name, cmd in group.commands.items():
        path = (*prefix, name)
        if isinstance(cmd, click.Group):
            yield from _invocations(cmd, path)
            continue
        choices = [
            p.type.choices
            for p in cmd.params
            if isinstance(p, click.Argument) and isinstance(p.type, click.Choice)
        ]
        if choices:
            yield from ((*path, choice) for choice in choices[0])
        else:
            yield path


def test_every_command_has_a_case():
    invocations = list(_invocations(main))
    assert ("classify", "table1") in invocations and ("limits", "lambda") in invocations
    missing = [
        inv for inv in invocations
        if not any(tuple(c["args"][: len(inv)]) == inv for c in CASES)
    ]
    assert not missing
