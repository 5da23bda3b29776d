"""Mutated fixtures never crash the command line.

Each example takes one fixture, applies one or two mutations (drop a field,
change a value's type, put NaN, "inf", -1, "x", [], a boolean or a 400-digit
integer in its place, or make it structurally invalid) and runs every
subcommand that accepts the fixture's kind in-process.  Every run must exit
0, 1 or 2 without an exception escaping `main`, and every exit 2 must name
the offending field.

The structural mutations add a key "zz", which names no field, vertex, edge
or incidence, to a JSON object, write the first name of a JSON object twice,
or repeat the first entry of a list of names.  Applied alone at any
location, each must exit 2 naming a field.
"""
import contextlib
import copy
import functools
import io
import json
import operator
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
STRUCTURAL = ("add-key", "repeat-key", "repeat-name")
ACTIONS = ("drop", "retype", float("nan"), "inf", -1, "x", [], True, 10 ** 400, *STRUCTURAL)


class _RepeatedKey(dict):
    """A JSON object that json.dumps, which reads a dict subclass through
    items(), writes with its first name twice."""

    def items(self):
        items = list(super().items())
        return items[:1] + items


def _paths(node, prefix=()):
    """Every location in a JSON tree, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    return functools.reduce(operator.getitem, path, node)


def _retype(v):
    if isinstance(v, dict):
        return list(v.values())
    if isinstance(v, list):
        return {str(i): c for i, c in enumerate(v)}
    if isinstance(v, str):
        return 7
    return str(v)


def _structural(v, action):
    """v made structurally invalid by `action`, or None where it does not apply:
    "add-key" needs a JSON object and copies one of its values under the new
    key, "repeat-key" a nonempty JSON object, "repeat-name" a nonempty list of
    strings."""
    if action == "add-key" and isinstance(v, dict):
        return {**v, "zz": copy.deepcopy(next(iter(v.values()), {}))}
    if action == "repeat-key" and isinstance(v, dict) and v:
        return _RepeatedKey(v)
    if action == "repeat-name" and isinstance(v, list) and v and all(isinstance(c, str) for c in v):
        return v + v[:1]
    return None


def _replace(v, action):
    if action == "retype":
        return _retype(v)
    if action in STRUCTURAL:
        return _structural(v, action) or v  # an earlier mutation may have reshaped v
    return action


def _mutate(payload, path, action):
    """Apply one mutation; a location that an earlier mutation removed is skipped."""
    if not path:
        return _replace(payload, action)
    node = payload
    try:
        for key in path[:-1]:
            node = node[key]
        if action == "drop":
            del node[path[-1]]
        else:
            node[path[-1]] = _replace(node[path[-1]], action)
    except (KeyError, IndexError, TypeError):
        pass
    return payload


def _applicable(base, actions):
    """(location, action) pairs: "drop" below the root only, a structural
    action only where it applies."""
    return [(path, action) for path in _paths(base) for action in actions
            if (path or action != "drop")
            and (action not in STRUCTURAL or _structural(_at(base, path), action) is not None)]


def _fixtures():
    return sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run_commands(target, kind):
    """(command, exit code, stderr) for every subcommand that accepts `kind`."""
    for command in COMMANDS[kind]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(target), *FLAGS.get(command, [])])
        yield command, code, err.getvalue()


@pytest.mark.parametrize("name", _fixtures())
@settings(derandomize=True, database=None, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_fixture_exits_cleanly(workdir, name, data):
    base = json.loads(open(os.path.join(FIXTURES, name)).read())
    mutations = data.draw(st.lists(st.sampled_from(_applicable(base, ACTIONS)),
                                   min_size=1, max_size=2))
    payload = copy.deepcopy(base)
    for path, action in mutations:
        payload = _mutate(payload, path, action)
    target = workdir / name
    target.write_text(json.dumps(payload))
    for command, code, err in _run_commands(target, base["kind"]):
        assert code in (0, 1, 2), (command, mutations)
        if code == 2:
            assert re.search(r"field '[^']+'", err), (command, mutations, err)


@pytest.mark.parametrize("name", _fixtures())
def test_structurally_invalid_fixture_exits_two(workdir, name):
    base = json.loads(open(os.path.join(FIXTURES, name)).read())
    target = workdir / f"structural-{name}"
    cases = _applicable(base, STRUCTURAL)
    assert cases
    for path, action in cases:
        target.write_text(json.dumps(_mutate(copy.deepcopy(base), path, action)))
        for command, code, err in _run_commands(target, base["kind"]):
            assert code == 2 and re.search(r"field '[^']+'", err), (command, path, action, err)
