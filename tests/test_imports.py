"""Every name a module of the package imports is used in that module,
every private module-level name is used somewhere in the package, and no
module imports `scipy.stats` or `scipy.signal`.

No linter ships with the test dependencies, so this walks each module's
syntax tree: an imported name that is never referenced afterwards is dead.
`__init__.py` is skipped because its imports are the package's re-exports,
and `from __future__` imports are compiler directives, not names. A
private (single-underscore) function, class or constant defined at module
level that no module of the package references is dead code too, and so
is a method of a private class in `detector.py` whose name no module
references: a `_HighsModel` edit goes with its last caller.
`scipy.signal` loads `scipy.stats`, and the two cost about 26 MB of
resident memory and 0.6 s on first import; the package needs neither.
The detector keeps one LP assembly and one owner of HiGHS: `sparse` is
referenced only inside `LpProblem`, and scipy's HiGHS binding (`_Highs`,
`HighsLp`, `HighsModelStatus`, `MatrixFormat`) only inside `_HighsModel`,
which alone reads the model status: each LP has one solver path, and a
non-optimal status ends it. No module mentions `linprog`, so there is no
second way to HiGHS. Every HiGHS model but the cut loop's master is posed
by `LpProblem.highs_args`, the level-free threshold and interior LPs
included, so no function builds LP costs or bounds by hand. A portfolio
is evaluated in one place: `tail_envelope` is referenced
only inside `_evaluate`, so the ES_p and VaR_p a certificate reports come
from the one evaluation of its x. It copies no LP per level
or LP kind either: it does not use `dataclasses.replace`. `min_p` calls
`solve_lp` only on the cut path: every `solve_lp` call but phase 1's in
`detect` sits in the body of an `if not ....on_highs:` block (the
confirmation LP in `_boundary`, which `min_p` runs at lo), so on HiGHS no
confirmation LP runs, and the threshold LP's own portfolio witnesses
arbitrage at p0. scipy's private SLSQP
kernel (`_slsqplib.slsqp`) is referenced only inside `utility._slsqp`, and
no module asks `minimize` for SLSQP, so each SLSQP run has one loop. No
module mentions Nelder-Mead or imports scipy's `minimize` at all: the
package's searches are `least_squares` for the mixture calibration and
`utility._slsqp`, which takes a box and inequality rows, for the capped
supremum and the GARCH fit.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "esarb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = (
        "import math\n"
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    sep: str = os.sep\n"
    )
    assert _unused_imports(source) == ["line 1: math", "line 3: field"]
    assert "cli.py" in [p.name for p in MODULES]


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module references: a load of the
    name, an attribute of that name, or an import of it by name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [
        f"{name}: {defined}"
        for name, tree in trees.items()
        for defined in _private_definitions(tree)
        if defined not in used
    ]


def test_no_dead_private_code():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _dead_private_names(sources) == []


def _dead_private_methods(sources: dict[str, str], module: str) -> list[str]:
    """Methods (not dunders) of `module`'s private module-level classes
    whose name no module of `sources` references: as an attribute
    (`model.add_row`) or a name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
    return [
        f"{cls.name}.{method.name}"
        for cls in trees[module].body
        if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
        and method.name not in used
    ]


def test_no_dead_private_methods_in_the_detector():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _dead_private_methods(sources, "detector.py") == []


def test_checker_flags_dead_private_methods():
    sources = {
        "a.py": (
            "class _Model:\n"
            "    def __init__(self):\n"
            "        self.solve()\n"
            "    def solve(self):\n"
            "        pass\n"
            "    def set_basis(self, basis):\n"
            "        pass\n"
            "    def drop(self):\n"
            "        pass\n"
            "class Public:\n"
            "    def unused(self):\n"
            "        pass\n"
        ),
        "b.py": "from .a import _Model\n_Model().drop()\n",
    }
    assert _dead_private_methods(sources, "a.py") == ["_Model.set_basis"]


def test_checker_flags_dead_private_code():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _dead():\n"
            "    pass\n"
            "class _Gone:\n"
            "    pass\n"
        ),
        "b.py": "from .a import _helper\nprint(_helper())\n",
    }
    assert _dead_private_names(sources) == ["a.py: _UNUSED", "a.py: _dead", "a.py: _Gone"]


_HEAVY = ("scipy.stats", "scipy.signal")


def _heavy_imports(source: str) -> list[str]:
    """Imports of scipy.stats or scipy.signal or anything in them, at any
    depth: `import scipy.stats`, `from scipy.signal import x`, `from scipy
    import stats`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in modules
            if any(name == heavy or name.startswith(heavy + ".") for heavy in _HEAVY)
        ]
    return found


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_stats_or_signal_imports(module):
    assert _heavy_imports(module.read_text(encoding="utf-8")) == []


def test_checker_flags_stats_and_signal_imports():
    source = (
        "import scipy.stats\n"
        "from scipy.special import ndtr\n"
        "from scipy import optimize, signal\n"
        "def f():\n"
        "    from scipy.stats.qmc import Sobol\n"
        "    import scipy.signal as sig\n"
        "from .stats import x\n"
    )
    assert _heavy_imports(source) == [
        "line 1: scipy.stats",
        "line 3: scipy.signal",
        "line 5: scipy.stats.qmc.Sobol",
        "line 6: scipy.signal",
    ]


_HIGHS_BINDING = ("_Highs", "HighsLp", "HighsModelStatus", "MatrixFormat")
_CONFINED = {"sparse": "LpProblem", **dict.fromkeys(_HIGHS_BINDING, "_HighsModel")}


def _stray_references(source: str, confined: dict[str, str]) -> list[str]:
    """References to a confined name outside the one module-level
    definition it belongs to; import statements are not references."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        found += [
            (node.lineno, node.id)
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and confined.get(node.id, owner) != owner
        ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detector_has_one_lp_assembly_and_one_highs_owner():
    assert _stray_references((SRC / "detector.py").read_text(encoding="utf-8"), _CONFINED) == []


def test_no_module_mentions_linprog():
    # HiGHS is reached through `_HighsModel` alone, not also through linprog
    assert [p.name for p in SRC.glob("*.py") if "linprog" in p.read_text(encoding="utf-8")] == []


def test_scipy_ships_the_highs_binding():
    # the detector drives scipy's private HiGHS binding, verified on scipy 1.17
    from scipy.optimize._highspy import _core

    missing = [name for name in _HIGHS_BINDING if not hasattr(_core, name)]
    assert missing == [], f"scipy.optimize._highspy._core lacks {missing}: esarb needs scipy >= 1.17"


def test_checker_flags_stray_references():
    source = (
        "import scipy.sparse as sparse\n"
        "from scipy.optimize._highspy._core import HighsLp, _Highs\n"
        "class LpProblem:\n"
        "    def matrix(self) -> sparse.csr_matrix:\n"
        "        return sparse.eye(2)\n"
        "class _HighsModel:\n"
        "    def __init__(self, c):\n"
        "        self._highs, self._lp = _Highs(), HighsLp()\n"
        "def _threshold_density(problem):\n"
        "    A = sparse.vstack([problem.matrix()])\n"
        "    return _Highs().passModel(HighsLp())\n"
        "EMPTY = sparse.csr_matrix((0, 0))\n"
    )
    assert _stray_references(source, _CONFINED) == [
        "line 10: sparse",
        "line 11: HighsLp",
        "line 11: _Highs",
        "line 12: sparse",
    ]


def _stray_attribute_reads(source: str, attr: str, owner: str) -> list[str]:
    """Reads of the attribute `attr` (`res.status`) outside the module-level
    definition `owner`."""
    lines = [
        node.lineno
        for top in ast.parse(source).body
        if getattr(top, "name", None) != owner
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]
    return [f"line {line}: .{attr}" for line in sorted(lines)]


_STATUS_READS = ("status", "getModelStatus")


def test_detector_reads_highs_status_in_one_place():
    source = (SRC / "detector.py").read_text(encoding="utf-8")
    for attr in _STATUS_READS:
        assert _stray_attribute_reads(source, attr, "_HighsModel") == []


def test_checker_flags_stray_status_reads():
    source = (
        "class _HighsModel:\n"
        "    def solve(self):\n"
        "        if self._highs.getModelStatus() != HighsModelStatus.kOptimal:\n"
        "            raise SolverError(self._highs.modelStatusToString(status))\n"
        "def _solve_cuts(problem):\n"
        "    status = 'found'\n"
        "    if master._highs.getModelStatus() != 7 or res.status:\n"
        "        return MinPResult(status=status)\n"
        "class MinPResult:\n"
        "    status: str\n"
        "OK = (lambda r: r.status)(None)\n"
    )
    found = [_stray_attribute_reads(source, attr, "_HighsModel") for attr in _STATUS_READS]
    assert found == [["line 7: .status", "line 11: .status"], ["line 7: .getModelStatus"]]


def _stray_calls(source: str, name: str, owner: str) -> list[str]:
    """Calls of `name` (`LpSolution(...)`, by name or as an attribute)
    outside the module-level definition `owner`."""
    lines = [
        node.lineno
        for top in ast.parse(source).body
        if getattr(top, "name", None) != owner
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]
    return [f"line {line}: {name}(" for line in sorted(lines)]


def test_detector_builds_lp_solutions_in_the_certificate_alone():
    # no solver path can hand back a value that `_certify` has not checked
    source = (SRC / "detector.py").read_text(encoding="utf-8")
    assert _stray_calls(source, "LpSolution", "_certify") == []
    assert len(_stray_calls(source, "LpSolution", "")) == 1  # and it builds one


def test_checker_flags_stray_lp_solution_calls():
    source = (
        "class LpSolution:\n"
        "    value: float\n"
        "def _certify(problem, x) -> LpSolution:\n"
        "    return LpSolution(x)\n"
        "def _solve_highs(problem) -> LpSolution:\n"
        "    return LpSolution(problem)\n"
        "def solve_lp(problem):\n"
        "    make = lambda v: detector.LpSolution(v)\n"
        "    return make, LpSolution, LpSolutions(problem)\n"
        "ZERO = LpSolution(0.0)\n"
    )
    assert _stray_calls(source, "LpSolution", "_certify") == [
        "line 6: LpSolution(",
        "line 8: LpSolution(",
        "line 10: LpSolution(",
    ]


def _hand_built_highs_calls(source: str) -> list[str]:
    """Calls of `_HighsModel` outside `_solve_cuts` whose arguments are
    anything but exactly `*<expr>.highs_args(...)`."""
    found = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) == "_solve_cuts":
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", getattr(node.func, "attr", None)) != "_HighsModel":
                continue
            (arg,) = node.args if len(node.args) == 1 else (None,)
            posed = (isinstance(arg, ast.Starred) and isinstance(arg.value, ast.Call)
                     and isinstance(arg.value.func, ast.Attribute)
                     and arg.value.func.attr == "highs_args")
            if not posed or node.keywords:
                found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_detector_poses_every_highs_lp_with_highs_args():
    # only the cut loop's master, over (x, t), is built outside LpProblem
    source = (SRC / "detector.py").read_text(encoding="utf-8")
    assert _hand_built_highs_calls(source) == []
    assert len(_stray_calls(source, "_HighsModel", "_solve_cuts")) == 2  # and it has two


def test_checker_flags_hand_built_highs_calls():
    source = (
        "def _solve_highs(problem, p, kind):\n"
        "    return _HighsModel(*problem.highs_args(kind, p)).solve()\n"
        "def _threshold_density(problem):\n"
        "    c, A, b, bounds = problem.highs_args('threshold')\n"
        "    res = _HighsModel(c, A, b, bounds).solve()\n"
        "    res = detector._HighsModel(*problem.highs_args('threshold'), x0=None)\n"
        "    return _HighsModel(*args), _HighsModel(*highs_args(problem))\n"
        "def _solve_cuts(problem, c, bounds):\n"
        "    return _HighsModel(c, None, None, bounds)\n"
    )
    assert _hand_built_highs_calls(source) == ["line 5", "line 6", "line 7", "line 7"]


def _stray_envelopes(source: str) -> list[str]:
    """References to `tail_envelope`, by name or as an attribute, outside
    `_evaluate`."""
    return (_stray_references(source, {"tail_envelope": "_evaluate"})
            + _stray_attribute_reads(source, "tail_envelope", "_evaluate"))


def test_detector_evaluates_portfolios_in_one_helper():
    # the cut loop's evaluation of its answer is the one `_certify` reads
    source = (SRC / "detector.py").read_text(encoding="utf-8")
    assert _stray_envelopes(source) == []
    assert len(_stray_references(source, {"tail_envelope": "nowhere"})) == 1  # and it has one


def test_checker_flags_stray_tail_envelopes():
    source = (
        "from .risk import tail_envelope\n"
        "def _evaluate(problem, x, p):\n"
        "    return tail_envelope(problem.payoffs @ x, problem.weights, p)\n"
        "def _certify(problem, x, p):\n"
        "    es, _, alpha = tail_envelope(problem.payoffs @ x, problem.weights, p)\n"
        "def _solve_cuts(problem, p):\n"
        "    sort = tail_envelope\n"
        "    return risk.tail_envelope(x, w, p), tail_envelope_of(x)\n"
        "ES = lambda X, w, p: tail_envelope(X, w, p)[0]\n"
    )
    assert _stray_envelopes(source) == [
        "line 5: tail_envelope",
        "line 7: tail_envelope",
        "line 9: tail_envelope",
        "line 8: .tail_envelope",
    ]


def _replace_uses(source: str) -> list[str]:
    """Imports and attribute reads of `dataclasses.replace`: `from
    dataclasses import replace` under any alias, or `dataclasses.replace`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hit = node.module == "dataclasses" and any(a.name == "replace" for a in node.names)
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "replace"
                   and isinstance(node.value, ast.Name) and node.value.id == "dataclasses")
        if hit:
            found.append(f"line {node.lineno}")
    return found


def test_detector_copies_no_lp():
    assert _replace_uses((SRC / "detector.py").read_text(encoding="utf-8")) == []


def test_checker_flags_dataclasses_replace():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, replace\n"
        "from dataclasses import replace as copy_with\n"
        "lp = dataclasses.replace(lp, level=0.5)\n"
        "label = 'a-b'.replace('-', '_')\n"
        "from .market import replace\n"
    )
    assert _replace_uses(source) == ["line 2", "line 3", "line 4"]


def _solve_lp_calls(source: str, function: str) -> list[str]:
    """Calls of `solve_lp` inside the module-level function `function`,
    by name or as an attribute (`detector.solve_lp(...)`)."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            found += [
                f"line {node.lineno}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "solve_lp"
            ]
    return found


def test_min_p_solves_at_most_one_lp_through_solve_lp():
    assert len(_solve_lp_calls((SRC / "detector.py").read_text(encoding="utf-8"), "min_p")) <= 1


def _highs_path_solve_lp_calls(source: str, phase_one: str = "detect") -> list[str]:
    """Calls of `solve_lp` (by name or as an attribute) in module-level
    functions other than `phase_one` that are not in the body of an
    `if not <expr>.on_highs:` block, and so could run on the HiGHS path."""
    found = []

    def visit(node, guarded):
        if isinstance(node, ast.If):
            test = node.test
            cut_path = (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
                        and isinstance(test.operand, ast.Attribute)
                        and test.operand.attr == "on_highs")
            visit(node.test, guarded)
            for child in node.body:
                visit(child, guarded or cut_path)
            for child in node.orelse:
                visit(child, guarded)
            return
        if (isinstance(node, ast.Call) and not guarded
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "solve_lp"):
            found.append(f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name != phase_one:
            visit(top, False)
    return found


def test_confirmation_lp_runs_on_the_cut_path_alone():
    # `min_p` and `detect` decide a boundary optimum on HiGHS from the
    # level-free LPs: no `solve_lp` call outside phase 1 can reach HiGHS
    source = (SRC / "detector.py").read_text(encoding="utf-8")
    assert _highs_path_solve_lp_calls(source) == []
    assert len(_solve_lp_calls(source, "_boundary")) == 1  # and the cut path has one


def test_checker_flags_highs_path_solve_lp_calls():
    source = (
        "def detect(problem):\n"
        "    return solve_lp(problem, 0.1)\n"
        "def _boundary(problem):\n"
        "    if not problem.on_highs:\n"
        "        return solve_lp(problem, 0.1, 'max_expected')\n"
        "    if problem.on_highs:\n"
        "        return solve_lp(problem, 0.2)\n"
        "    if not problem.on_highs:\n"
        "        pass\n"
        "    else:\n"
        "        detector.solve_lp(problem, 0.3)\n"
        "def min_p(problem):\n"
        "    return solve_lp(problem, 0.4)\n"
    )
    assert _highs_path_solve_lp_calls(source) == ["line 7", "line 11", "line 13"]


def test_checker_counts_solve_lp_calls():
    source = (
        "def min_p(problem):\n"
        "    a = solve_lp(problem, 0.1)\n"
        "    def inner():\n"
        "        return detector.solve_lp(problem, 0.2)\n"
        "    solve = solve_lp\n"
        "    return build_lp(problem), solve_lp_helper(problem)\n"
        "def detect(problem):\n"
        "    return solve_lp(problem, 0.3)\n"
    )
    assert _solve_lp_calls(source, "min_p") == ["line 2", "line 4"]
    assert _solve_lp_calls(source, "detect") == ["line 8"]


_SLSQP_KERNEL = ("_slsqplib", "slsqp")


def _slsqp_kernel_uses(source: str, owner: str = "_slsqp") -> list[str]:
    """References to scipy's SLSQP kernel (the module `_slsqplib` or its
    `slsqp`: in an import, as a name or as an attribute) outside the
    module-level function `owner`, and every string "SLSQP", in any case
    (`minimize(..., method="SLSQP")`), anywhere."""
    found = []
    for top in ast.parse(source).body:
        inside = getattr(top, "name", None) == owner
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and str(node.value).lower() == "slsqp":
                found.append((node.lineno, repr(node.value)))
            if inside:
                continue
            if isinstance(node, ast.Import):
                names = [part for alias in node.names for part in alias.name.split(".")]
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(node.lineno, name) for name in names if name in _SLSQP_KERNEL]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_slsqp_kernel_has_one_owner(module):
    assert _slsqp_kernel_uses(module.read_text(encoding="utf-8")) == []


def test_utility_slsqp_drives_the_kernel():
    source = (SRC / "utility.py").read_text(encoding="utf-8")
    assert _slsqp_kernel_uses(source, owner="nowhere") != []  # and it has a driver


def test_scipy_ships_the_slsqp_kernel():
    # `utility._slsqp` drives scipy's private SLSQP kernel, verified on scipy 1.17
    from scipy.optimize import _slsqplib

    assert callable(getattr(_slsqplib, "slsqp", None)), (
        "scipy.optimize._slsqplib lacks slsqp: esarb needs scipy >= 1.17"
    )


def test_checker_flags_stray_slsqp_kernel_uses():
    source = (
        "from scipy.optimize import minimize\n"
        "from scipy.optimize._slsqplib import slsqp\n"
        "def _slsqp(values, x):\n"
        "    from scipy.optimize._slsqplib import slsqp\n"
        "    return slsqp(values, x)\n"
        "def polish(f, x):\n"
        "    kernel = scipy.optimize._slsqplib.slsqp\n"
        "    return minimize(f, x, method='slsqp'), _slsqp(f, x)\n"
        "import scipy.optimize._slsqplib as kernel\n"
        "from scipy.optimize import _slsqplib\n"
        "METHOD = 'SLSQP'\n"
    )
    assert _slsqp_kernel_uses(source) == [
        "line 2: _slsqplib",
        "line 2: slsqp",
        "line 7: _slsqplib",
        "line 7: slsqp",
        "line 8: 'slsqp'",
        "line 9: _slsqplib",
        "line 10: _slsqplib",
        "line 11: 'SLSQP'",
    ]


def _general_minimizers(source: str) -> list[str]:
    """Every line that mentions Nelder-Mead (any case, any dash), and every
    use of scipy's `minimize`: imported from `scipy.optimize` or one of its
    modules, or read as the attribute `optimize.minimize`."""
    found = [(line, "Nelder-Mead")
             for line, text in enumerate(source.splitlines(), 1) if "nelder" in text.lower()]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.optimize"):
            found += [(node.lineno, "minimize") for alias in node.names if alias.name == "minimize"]
        elif isinstance(node, ast.Attribute) and node.attr == "minimize":
            owner = node.value
            if "optimize" in (getattr(owner, "id", None), getattr(owner, "attr", None)):
                found.append((node.lineno, "optimize.minimize"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_general_minimizer(module):
    assert _general_minimizers(module.read_text(encoding="utf-8")) == []


def test_checker_flags_general_minimizers():
    source = (
        "from scipy.optimize import brentq, minimize\n"
        "from scipy.optimize._minimize import minimize as local\n"
        "import scipy.optimize as optimize\n"
        "def fit(f, x):\n"
        "    # polish by nelder-mead\n"
        "    return optimize.minimize(f, x, method='Nelder\u2013Mead')\n"
        "def other(f, x):\n"
        "    return scipy.optimize.minimize(f, x), solver.minimize(f), brentq(f, 0, 1)\n"
        "from numpy import minimize\n"
    )
    assert _general_minimizers(source) == [
        "line 1: minimize",
        "line 2: minimize",
        "line 5: Nelder-Mead",
        "line 6: Nelder-Mead",
        "line 6: optimize.minimize",
        "line 8: optimize.minimize",
    ]
