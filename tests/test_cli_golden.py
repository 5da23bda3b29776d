"""Every subcommand on every fixture against recorded stdout digests.

tests/golden_cli.json maps "<subcommand> <fixture>" to the exit code and the
sha256 of stdout of `sheafflow <subcommand> --input fixtures/<fixture>
--seed 3`.  A refactor that keeps the CLI's behaviour keeps every entry.
"""
import hashlib
import json
import os

import pytest

from sheafflow.cli import main

GOLDEN = json.loads(open(os.path.join(os.path.dirname(__file__), "golden_cli.json")).read())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_matches_golden(case, fixture_path, capsys):
    command, fixture = case.split()
    code = main([command, "--input", fixture_path(fixture), "--seed", "3"])
    out = capsys.readouterr().out
    assert {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()} == GOLDEN[case]
