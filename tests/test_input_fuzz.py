"""Input fuzz test: one node of a shipped scenario or of its frames file is
replaced, deleted or added, at any depth, and `zenolab run` on the result
must end in exit 0, 1 or 2 without a traceback, 1 only with an
`invariant violation:` line and 2 only with one `configuration error:` line.

Every plan is cut to {"uniform": [2, 4]}. No drawn value is a size that
allocates: N is capped by the plan rule and dim must match the eigenvalue
list, so each example runs in milliseconds. The examples are derandomized.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenolab.cli import main

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
RUNS = ("qubit_static", "sampled_rotation", "unitary_approx", "zeno_diagonal")
FRAMES = "rotation_frames.json"


def _read(name):
    with open(os.path.join(SCENARIOS, name)) as fh:
        return json.load(fh)


# The documents a mutation may touch: each shipped scenario, its plan cut to
# two small sizes, and the frames file that sampled_rotation reads.
DOCS = {f"{name}.json": {**_read(f"{name}.json"), "partitions": {"uniform": [2, 4]}} for name in RUNS}
DOCS[FRAMES] = _read(FRAMES)


def _paths(node, path=()):
    """The path of every node of a JSON tree, its root () included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


NODES = [(doc, path) for doc in DOCS for path in _paths(DOCS[doc])]
KEYS = st.sampled_from(["x", "_note", "dim", "tau", "a", "basis", "eigenvalues", "norm", "seed", "n", "diagonal",
                        "dense", "random", "uniform", "generator", "file", "times", "frames"])
LEAVES = (st.none() | st.booleans() | st.sampled_from([-1, 0, 1, 2, 3, 64, 2**63])
          | st.sampled_from([-0.0, 0.5, 1e308, math.nan, math.inf, -math.inf])
          | st.sampled_from(["", "x", "_note", "pauli_y", "standard", "curve", FRAMES]))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=2),
                      max_leaves=4)


@st.composite
def mutations(draw):
    """(document, path, op, value): replace or delete the node at path, or add
    value at path, a new key of an object or a new index of a list."""
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    doc, path = draw(st.sampled_from(NODES))
    if op == "add":
        node = _at(DOCS[doc], path)
        if isinstance(node, dict):
            path += (draw(KEYS),)
        elif isinstance(node, list):
            path += (draw(st.integers(0, len(node))),)
        else:
            op = "replace"
    return doc, path, op, None if op == "delete" else draw(VALUES)


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _mutated(doc, path, op, value):
    """A copy of DOCS with one node changed; a deleted root leaves the document out."""
    docs = copy.deepcopy(DOCS)
    if not path:
        if op == "delete":
            del docs[doc]
        else:
            docs[doc] = value
        return docs
    parent, key = _at(docs[doc], path[:-1]), path[-1]
    if op == "delete":
        del parent[key]
    elif op == "add" and isinstance(parent, list):
        parent.insert(key, value)
    else:
        parent[key] = value
    return docs


@contextlib.contextmanager
def _inside(directory):
    """Work in directory, so a scenario's relative output path lands there."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutation=mutations())
# Each of these raised before every value passed one set of rules: a traceback, or a
# RuntimeWarning, which this suite turns into an error.
@example(mutation=("zeno_diagonal.json", ("hamiltonian", "diagonal"), "replace", 3))
@example(mutation=("zeno_diagonal.json", ("hamiltonian", "diagonal", 0), "replace", 1e308))
@example(mutation=("sampled_rotation.json", ("tau",), "replace", math.inf))
@example(mutation=("sampled_rotation.json", ("a",), "replace", 1e308))
@example(mutation=("rotation_frames.json", ("frames", 0, 0, 0, 0), "replace", 1e308))
# These reached a catch-all except that no longer exists.
@example(mutation=("unitary_approx.json", ("curve", "generated", "generator", "random", "seed"), "replace", -1))
@example(mutation=("sampled_rotation.json", ("curve", "sampled", "file"), "replace", 3))
def test_a_mutated_scenario_ends_in_a_known_exit(mutation):
    doc = mutation[0]
    run = "sampled_rotation.json" if doc == FRAMES else doc
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, _inside(workdir):
        for name, tree in _mutated(*mutation).items():
            with open(name, "w") as fh:
                json.dump(tree, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["run", run])
    message = err.getvalue()
    assert rc in (0, 1, 2)
    if rc == 0:
        assert message == ""
    elif rc == 1:
        assert message.startswith("invariant violation:")
    else:
        assert message.startswith("configuration error:") and message.count("\n") == 1
