"""Mutated fixtures never crash the command line.

Each example takes one fixture, applies one or two mutations (drop a field,
change a value's type, or put NaN, "inf", -1, "x" or [] in its place) and
runs every subcommand that accepts the fixture's kind in-process.  Every
run must exit 0, 1 or 2 without an exception escaping `main`, and every
exit 2 must name the offending field.
"""
import contextlib
import copy
import io
import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sheafflow.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

COMMANDS = {
    "quantale": ("validate", "verify"),
    "category": ("validate", "verify"),
    "sheaf": ("validate", "verify", "flow", "sections"),
    "des": ("validate", "verify", "flow", "sections", "des"),
    "paths": ("validate", "verify", "paths"),
    "prefs": ("validate", "verify", "prefs"),
}
FLAGS = {"flow": ["--max-iter", "20"], "des": ["--max-iter", "20"],
         "paths": ["--max-iter", "20"], "prefs": ["--max-iter", "20"],
         "verify": ["--grid", "10"]}
ACTIONS = ("drop", "retype", float("nan"), "inf", -1, "x", [])


def _paths(node, prefix=()):
    """Every location in a JSON tree, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _retype(v):
    if isinstance(v, dict):
        return list(v.values())
    if isinstance(v, list):
        return {str(i): c for i, c in enumerate(v)}
    if isinstance(v, str):
        return 7
    return str(v)


def _mutate(payload, path, action):
    """Apply one mutation; a location that an earlier mutation removed is skipped."""
    if not path:
        return _retype(payload) if action == "retype" else payload if action == "drop" else action
    node = payload
    try:
        for key in path[:-1]:
            node = node[key]
        if action == "drop":
            del node[path[-1]]
        else:
            node[path[-1]] = _retype(node[path[-1]]) if action == "retype" else action
    except (KeyError, IndexError, TypeError):
        pass
    return payload


def _fixtures():
    return sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", _fixtures())
@settings(derandomize=True, database=None, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_fixture_exits_cleanly(workdir, name, data):
    base = json.loads(open(os.path.join(FIXTURES, name)).read())
    locations = list(_paths(base))
    mutations = data.draw(st.lists(st.tuples(st.sampled_from(locations), st.sampled_from(ACTIONS)),
                                   min_size=1, max_size=2))
    payload = copy.deepcopy(base)
    for path, action in mutations:
        payload = _mutate(payload, path, action)
    target = workdir / name
    target.write_text(json.dumps(payload))
    for command in COMMANDS[base["kind"]]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(target), *FLAGS.get(command, [])])
        assert code in (0, 1, 2), (command, mutations)
        if code == 2:
            assert re.search(r"field '[^']+'", err.getvalue()), (command, mutations, err.getvalue())
