"""Source hygiene without a linter: every name a zenolab module imports is
used in that module, every module-level definition is read somewhere in
the package or exported, every public method is read somewhere in the
package or the benchmark, a Hermitian operator is validated only where it
enters the program, scenario.py parses input only in its reader and its
number helpers, a partition's run becomes checked outcomes only in
bounds.check_run, and the two routes of measurement.py never read each
other. __init__.py is skipped by the import check, since its imports are
the package's exports."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "zenolab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCHMARKS = PACKAGE.parent.parent / "benchmarks"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def dead_definitions(sources: dict, readers: tuple = ()) -> list[str]:
    """module:name for each module-level function, class or constant of the
    non-__init__ modules in sources (file name -> text) that no Name node of
    any module reads and that __init__.py does not import; and
    module:Class.name for each public method, classmethod or property of
    their classes that no Name or Attribute node of sources or of the
    reader texts reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loads = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)]
    live = {node.id for node in loads if isinstance(node, ast.Name)}
    live |= {alias.name for node in ast.walk(trees["__init__.py"])
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    loads += [node for text in readers for node in ast.walk(ast.parse(text))
              if isinstance(getattr(node, "ctx", None), ast.Load)]
    read = {node.id if isinstance(node, ast.Name) else node.attr for node in loads
            if isinstance(node, (ast.Name, ast.Attribute))}
    dead = []
    for module, tree in sorted(trees.items()):
        if module == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            dead += [f"{module}:{name}" for name in names if name not in live]
            if isinstance(node, ast.ClassDef):
                dead += [f"{module}:{node.name}.{m.name}" for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_") and m.name not in read]
    return dead


# Where hermitian_eigendecompose may run outside linalg.py: the places an
# operator enters the program. Everything downstream takes the HermitianEigen.
VALIDATION_HOMES = {"scenario.py:load_scenario", "corpus.py:build_scenario", "curves.py:GeneratedCurve.__init__"}
# Inside linalg.py, the public entries that may call require_hermitian; a kernel behind them takes
# what they built, and no kernel re-checks a product the program formed.
HERMITIAN_ENTRIES = {"hermitian_eigendecompose", "trace_norm"}


def _scoped(node, scope="<module>"):
    """(scope, node) for every node below node; scope is the dotted name of the
    innermost enclosing function or class, "<module>" outside all of them."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        yield from _scoped(child, inner)


def validation_breaches(sources: dict) -> list[str]:
    """module:scope for each place outside linalg.py that names require_hermitian, for each
    require_hermitian call in linalg.py outside HERMITIAN_ENTRIES, and for each
    hermitian_eigendecompose call outside linalg.py and VALIDATION_HOMES."""
    breaches = []
    for module, text in sorted(sources.items()):
        for scope, node in _scoped(ast.parse(text)):
            func = node.func if isinstance(node, ast.Call) else None
            called = {getattr(func, "id", None), getattr(func, "attr", None)}
            if module == "linalg.py":
                if "require_hermitian" in called and scope not in HERMITIAN_ENTRIES:
                    breaches.append(f"{module}:{scope} calls require_hermitian")
                continue
            if isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if "require_hermitian" in names:
                breaches.append(f"{module}:{scope} names require_hermitian")
            if "hermitian_eigendecompose" in called:
                if f"{module}:{scope}" not in VALIDATION_HOMES:
                    breaches.append(f"{module}:{scope} calls hermitian_eigendecompose")
    return breaches


# The one place that runs the protocol and builds the check table's inputs; sweeps and the battery call it.
RUNNER_HOME = "bounds.py:check_run"
RUNNER_CALLS = {"run_measurement", "CheckInputs"}


def runner_breaches(sources: dict) -> list[str]:
    """module:scope for each call of run_measurement or CheckInputs outside RUNNER_HOME."""
    breaches = []
    for module, text in sorted(sources.items()):
        for scope, node in _scoped(ast.parse(text)):
            if isinstance(node, ast.Call) and f"{module}:{scope}" != RUNNER_HOME:
                called = {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & RUNNER_CALLS
                breaches += [f"{module}:{scope} calls {name}" for name in sorted(called)]
    return breaches


# The calls that turn file contents into values, and the functions of scenario.py that may make
# them: the one reader and the number helpers. Module constants, such as the Pauli matrices, are
# literals rather than input, so module scope is not checked.
PARSING_CALLS = {"open", "json.load", "int", "complex", "np.asarray", "np.array"}
PARSING_HOMES = {"_read_json", "_numbers"}


def parsing_breaches(source: str) -> list[str]:
    """The functions of a scenario.py source, other than PARSING_HOMES, that make one of PARSING_CALLS;
    a nested function counts as the function it is defined in."""
    return sorted({scope.split(".")[0] for scope, node in _scoped(ast.parse(source))
                   if isinstance(node, ast.Call) and ast.unparse(node.func) in PARSING_CALLS
                   and scope != "<module>" and scope.split(".")[0] not in PARSING_HOMES})


# The two independent computations of measurement.py: the functions of each
# route, and the carry run_measurement passes to each route's block step.
TRANSFER_ROUTE = ("_transfer_block", "_transfer_matrices", "_chain")
CHANNEL_ROUTE = ("_channel_route",)
CARRIES = {"_transfer_block": "transfer", "_channel_route": "state"}


def _names(node) -> set:
    """Every name node reads or calls, as a bare name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def route_crossings(source: str) -> list[str]:
    """Where one route of measurement.py reaches the other: a function of one
    route that names a function of the other, or a call in run_measurement
    that hands a route any carry but its own."""
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    crossings = []
    for own, other in ((TRANSFER_ROUTE, CHANNEL_ROUTE), (CHANNEL_ROUTE, TRANSFER_ROUTE)):
        for name in own:
            crossings += [f"{name} names {x}" for x in other if x in _names(functions[name])]
    for call in ast.walk(functions["run_measurement"]):
        route = getattr(call.func, "id", None) if isinstance(call, ast.Call) else None
        if route in CARRIES:
            carries = _names(ast.Tuple(elts=call.args + [k.value for k in call.keywords])) & set(CARRIES.values())
            if carries != {CARRIES[route]}:
                crossings.append(f"run_measurement passes {sorted(carries)} to {route}")
    return crossings


def test_the_walk_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .linalg import a, b\n\nx = np.zeros(a)\n"
    assert unused_imports(source) == ["b", "os"]
    assert {"bounds.py", "channels.py", "measurement.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_walk_finds_a_dead_definition():
    sources = {
        "__init__.py": "from .a import public\n",
        "a.py": "TOL = 1e-9\nUNUSED = 2\n\ndef public(x):\n    return _helper(x) < TOL\n\n"
                "def _helper(x):\n    return x\n\nclass Orphan:\n    pass\n",
        "b.py": "def orphan():\n    return 0\n",
    }
    assert dead_definitions(sources) == ["a.py:UNUSED", "a.py:Orphan", "b.py:orphan"]


def test_the_walk_finds_a_dead_method():
    sources = {
        "__init__.py": "from .a import State\n",
        "a.py": "class State:\n    def __post_init__(self):\n        self._check()\n\n"
                "    def _check(self):\n        return self.dim\n\n"
                "    @property\n    def dim(self):\n        return 2\n\n"
                "    @property\n    def rank(self):\n        return 1\n\n"
                "    @classmethod\n    def mixed(cls, d):\n        return cls()\n\n"
                "    @classmethod\n    def pure(cls, v):\n        return cls()\n\n"
                "    def evaluate(self, t):\n        return t\n\n"
                "    def spectrum(self):\n        return [1.0]\n",
        "b.py": "from .a import State\n\ndef entropy(s):\n    return s.spectrum()\n\nentropy(State())\n",
    }
    readers = ("import a\nmixed = a.State.mixed(2)\n", "def evaluate(t):\n    pass\n")
    # A read counts, as a Name or as an Attribute; a definition of the same name does not.
    assert dead_definitions(sources, readers) == ["a.py:State.rank", "a.py:State.pure", "a.py:State.evaluate"]
    assert dead_definitions(sources) == ["a.py:State.rank", "a.py:State.mixed", "a.py:State.pure",
                                         "a.py:State.evaluate"]


def test_every_definition_is_read_or_exported():
    readers = tuple(p.read_text() for p in sorted(BENCHMARKS.rglob("*.py")))
    assert readers
    assert dead_definitions({p.name: p.read_text() for p in PACKAGE.glob("*.py")}, readers) == []


def test_the_walk_finds_a_validation_outside_its_homes():
    sources = {
        "linalg.py": "def require_hermitian(m):\n    return m\n\n"
                     "def hermitian_eigendecompose(m):\n    return require_hermitian(m)\n\n"
                     "def trace_norm(t):\n    return abs(require_hermitian(t))\n\n"
                     "def operator_norm(h):\n    return abs(require_hermitian(h))\n\n"
                     "def commutator_norm(a, h):\n    return operator_norm(a @ h - h @ a)\n",
        "scenario.py": "from .linalg import hermitian_eigendecompose\n\n"
                       "def load_scenario(h):\n    return hermitian_eigendecompose(h)\n\n"
                       "def build_operator(h):\n    return hermitian_eigendecompose(h)\n",
        "curves.py": "from . import linalg\nfrom .linalg import require_hermitian as check\n\n"
                     "class GeneratedCurve:\n    def __init__(self, g):\n"
                     "        self.eig = linalg.hermitian_eigendecompose(g)\n\n"
                     "    def sup(self, h):\n        return linalg.hermitian_eigendecompose(check(h))\n",
    }
    assert validation_breaches(sources) == [
        "curves.py:<module> names require_hermitian",
        "curves.py:GeneratedCurve.sup calls hermitian_eigendecompose",
        "linalg.py:operator_norm calls require_hermitian",
        "scenario.py:build_operator calls hermitian_eigendecompose",
    ]


def test_operators_are_validated_only_where_they_enter():
    assert validation_breaches({p.name: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def test_the_walk_finds_a_run_outside_check_run():
    sources = {
        "bounds.py": "from .measurement import run_measurement\n\n"
                     "class CheckInputs:\n    pass\n\n"
                     "def check_run(s, p):\n    return CheckInputs(run_measurement(s, p))\n\n"
                     "def outcomes(inputs):\n    return dataclasses.replace(inputs, seed=1)\n",
        "sweep.py": "from . import measurement\nfrom .bounds import CheckInputs, check_run\n\n"
                    "def run_sweep(s):\n    return [check_run(s, p) for p in s.partitions]\n\n"
                    "def rerun(s, p):\n    return CheckInputs(measurement.run_measurement(s, p))\n",
        "corpus.py": "def run_battery(s):\n    def once(p):\n        return run_measurement(s, p)\n\n"
                     "    return once(s.partition)\n",
    }
    assert runner_breaches(sources) == [
        "corpus.py:run_battery.once calls run_measurement",
        "sweep.py:rerun calls CheckInputs",
        "sweep.py:rerun calls run_measurement",
    ]


def test_a_partition_is_run_and_checked_only_in_check_run():
    assert runner_breaches({p.name: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def test_the_walk_finds_parsing_outside_the_reader_and_the_number_helpers():
    source = (
        "import json\nimport numpy as np\n\nPAULI = np.array([[0, 1], [1, 0]])\n\n"
        "def _read_json(path):\n    with open(path) as fh:\n        return json.load(fh)\n\n"
        "def _numbers(value):\n    return np.array(value, dtype=object).astype(float)\n\n"
        "def build(spec):\n    return np.diag([float(spec['x'])]) * complex(1, int(spec['n']))\n\n"
        "def load(path):\n    def grab(key):\n        return np.asarray(key)\n\n    return grab(path)\n"
    )
    assert parsing_breaches(source) == ["build", "load"]


def test_a_scenario_file_is_read_by_one_reader_and_one_number_rule():
    assert parsing_breaches((PACKAGE / "scenario.py").read_text()) == []


def test_the_walk_finds_a_route_reading_the_other():
    source = (
        "def _transfer_matrices(frames, unitaries):\n    return frames\n\n"
        "def _chain(mats):\n    return _channel_route(mats, None, None)\n\n"
        "def _transfer_block(carry, frames, unitaries, first):\n"
        "    return _chain(_transfer_matrices(frames, unitaries))\n\n"
        "def _channel_route(m, frames, unitaries):\n"
        "    return m @ measurement._transfer_matrices(frames, unitaries)\n\n"
        "def run_measurement(weights):\n    transfer, state = weights, weights\n"
        "    transfer = _transfer_block((transfer, state), None, None, 0)\n"
        "    state = _channel_route(m=state)\n"
        "    return _channel_route(weights, None, None)\n"
    )
    assert route_crossings(source) == [
        "_chain names _channel_route",
        "_channel_route names _transfer_matrices",
        "run_measurement passes ['state', 'transfer'] to _transfer_block",
        "run_measurement passes [] to _channel_route",
    ]


def test_the_two_routes_never_read_each_other():
    assert route_crossings((PACKAGE / "measurement.py").read_text()) == []
