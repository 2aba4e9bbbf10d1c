"""Dead-code, layering and ownership scans: no linter runs on this tree, so
AST scans do twelve checks.

- Every name a module of `src/dualflow` or `tests` imports is read
  somewhere in that module (or listed in its `__all__`).
- Every private (`_name`) module-level function or class, and every
  private method, of `src/dualflow` is read somewhere in the package.
- Every public function of `dualflow.kernels`, `dualflow.assemble`,
  `dualflow.elements`, `dualflow.spaces`, `dualflow.mesh`,
  `dualflow.quadrature`, `dualflow.linsolve`, `dualflow.stepper`,
  `dualflow.driver` and `dualflow.diagnostics` is read by another module
  of the package: a kernel, an assembly, an element table, a space
  helper, a mesh helper, a rule, a solver, a step, a run helper or a
  diagnostic that only tests call is a test helper or an oracle.
- Every field of a dataclass of `src/dualflow` is read somewhere in
  `src/dualflow`, `tests` or `perfbench`: as an attribute, or by name as
  a string (`CSV_COLUMNS` and the benchmark read fields by name).
- No module of `src/dualflow` imports, at the top or lazily, a module
  later than itself in the layer order `LAYERS`.
- `CachedLU` is constructed only in `linsolve` and in `assemble.System`,
  which owns each static factor of a run.
- Outside `assemble`, a `System` is built only in `stepper.Model.__init__`:
  no factor is made on first use.
- `splu` is called only in `linsolve.CachedLU.__init__`, once, so every
  factor is made with the same SuperLU settings.
- `SimulationState` is constructed only in `stepper`, whose steps and
  `restore` fill in the history a step's starts read.
- `SolverReport` is constructed only in `linsolve`: only a solve against
  a factor reports.
- No module of `src/dualflow` calls `np.add.at`: `np.bincount` is the one
  scatter-add.
- No public function of `dualflow.elements`, `dualflow.kernels` or
  `dualflow.assemble` takes a quadrature degree: `elements` derives the
  rule of every form from its integrand's polynomial degree.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/dualflow", "tests")
READERS = SCANNED + ("perfbench",)


def unused_imports(source):
    """(line, name) of each imported name that `source` never reads."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def read_names(tree):
    """Every name, attribute and imported name that `tree` reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unreferenced_private_names(sources):
    """(path, line, name) of each private module-level function or class,
    or private method, that no module in `sources` (path, text) reads."""
    defined, read = [], set()
    for path, source in sources:
        tree = ast.parse(source)
        for scope in [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]:
            defined += [(path, node.lineno, node.name) for node in scope.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name.startswith("_") and not node.name.endswith("__")]
        read |= read_names(tree)
    return [entry for entry in defined if entry[2] not in read]


def unread_public_functions(source, others):
    """(line, name) of each public module-level function of `source` that
    none of the sources in `others` reads."""
    read = set()
    for other in others:
        read |= read_names(ast.parse(other))
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in read]


def unread_dataclass_fields(sources, readers):
    """(path, line, Class.field) of each field of a dataclass in `sources`
    (path, text) that no text in `readers` reads, as an attribute load or
    as a string constant."""
    fields = []
    for path, source in sources:
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in cls.decorator_list
            ):
                fields += [(path, node.lineno, cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [(path, line, f"{cls}.{name}") for path, line, cls, name in fields if name not in read]


def python_files(folders=SCANNED):
    for folder in folders:
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            if name.endswith(".py"):
                yield f"{folder}/{name}"


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c\nc(np)\n") == [(1, "os")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from m import f\n__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", list(python_files()))
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert not unused, f"{path}: imported but never read: " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_scan_finds_an_unreferenced_private_name():
    a = "def _used():\n    pass\ndef _dead():\n    pass\nclass C:\n    def __init__(self):\n        self._m()\n" \
        "    def _m(self):\n        pass\n    def _n(self):\n        pass\n"
    b = "from a import _used\n"
    assert unreferenced_private_names([("a", a), ("b", b)]) == [("a", 3, "_dead"), ("a", 10, "_n")]


def test_no_unreferenced_private_names():
    package = [path for path in python_files() if path.startswith("src/dualflow/")]
    sources = []
    for path in package:
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            sources.append((path, fh.read()))
    dead = unreferenced_private_names(sources)
    assert not dead, "private but never read: " + ", ".join(f"{path}:{line} {name}" for path, line, name in dead)


def test_scan_finds_an_unread_public_function():
    kernels = "def used():\n    pass\ndef imported():\n    pass\ndef dead():\n    pass\n" \
        "def _private():\n    pass\n"
    others = ["from . import kernels\nkernels.used()\n", "from .kernels import imported\n",
              "def dead():\n    pass\n"]
    assert unread_public_functions(kernels, others) == [(5, "dead")]


def unread_package_functions(module, extra=""):
    """unread_public_functions of `dualflow.<module>`, its source followed
    by `extra`, against the other modules of the package."""
    sources = {}
    for path in python_files():
        if path.startswith("src/dualflow/"):
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                sources[path] = fh.read()
    source = sources.pop(f"src/dualflow/{module}.py") + extra
    return unread_public_functions(source, sources.values())


def test_no_dead_kernels():
    dead = unread_package_functions("kernels")
    assert not dead, "kernels no other package module reads: " + ", ".join(
        f"{name} (line {line})" for line, name in dead)


def test_scan_finds_an_unread_assembly_function():
    """An assembly function that only tests would call, put back at the
    end of the real module, is the one the scan reports."""
    dead = unread_package_functions("assemble", "\n\ndef assemble_unread(U, qdegree):\n    pass\n")
    assert [name for line, name in dead] == ["assemble_unread"]


def test_no_dead_assembly():
    """A public function of dualflow.assemble that no other package module
    reads is an oracle: it belongs in tests/ (as util_rotation.py and the
    weak curl of util_curl.py)."""
    dead = unread_package_functions("assemble")
    assert not dead, "assemble functions no other package module reads: " + ", ".join(
        f"{name} (line {line})" for line, name in dead)


SCANNED_MODULES = ["elements", "spaces", "mesh", "quadrature", "linsolve", "stepper", "driver",
                   "diagnostics"]


@pytest.mark.parametrize("module", SCANNED_MODULES)
def test_scan_finds_an_unread_element_or_space_function(module):
    """The same scan on dualflow.elements, spaces, mesh, quadrature,
    linsolve, stepper, driver and diagnostics: a function put back at the
    end of the real module is the one it reports."""
    dead = unread_package_functions(module, "\n\ndef only_tests_call(space):\n    pass\n")
    assert [name for line, name in dead] == ["only_tests_call"]


@pytest.mark.parametrize("module", SCANNED_MODULES)
def test_no_dead_element_or_space_functions(module):
    """An element table, a space or mesh helper, a quadrature rule, a
    solver, a step, a run helper or a diagnostic that only tests call
    belongs in tests/."""
    dead = unread_package_functions(module)
    assert not dead, f"{module} functions no other package module reads: " + ", ".join(
        f"{name} (line {line})" for line, name in dead)


def test_scan_finds_an_unread_dataclass_field():
    a = "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass A:\n    x: int\n" \
        "    y: int = 0\n    z: list = None\n@dataclass\nclass B:\n    w: float\n" \
        "class C:\n    v: int\n"
    b = "def f(a, b):\n    a.z = [a.x]\n    return b.w\nCOLUMNS = ('y',)\n"
    assert unread_dataclass_fields([("a", a)], [a, b]) == [("a", 6, "A.z")]


def test_no_unread_dataclass_fields():
    texts = {}
    for path in python_files(READERS):
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            texts[path] = fh.read()
    package = [(path, text) for path, text in texts.items() if path.startswith("src/dualflow/")]
    unread = unread_dataclass_fields(package, texts.values())
    assert not unread, "dataclass fields never read: " + ", ".join(
        f"{path}:{line} {name}" for path, line, name in unread)


LAYERS = ("quadrature", "elements", "mesh", "spaces", "kernels", "linsolve", "assemble", "stepper",
          "diagnostics", "io", "config", "driver", "cli")


def upward_imports(module, source):
    """(line, name) of each module later than `module` in LAYERS that
    `source` imports from the package, at the top or inside a function:
    `from . import x`, `from .x import y`, `from dualflow.x import y`,
    `from dualflow import x` or `import dualflow.x`."""
    rank = {name: i for i, name in enumerate(LAYERS)}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "dualflow":
                    continue
                path = path[1:]
            names = path[:1] if path and path[0] else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names
                     if alias.name.startswith("dualflow.")]
        else:
            continue
        found += [(node.lineno, name) for name in names if rank.get(name, -1) > rank[module]]
    return sorted(found)


def test_scan_finds_an_upward_import():
    source = ("from . import kernels\nfrom .mesh import X\nimport numpy\n"
              "def f():\n    from .assemble import a\n    from . import io as dfio\n"
              "from dualflow.stepper import s\nfrom dualflow import driver\nimport dualflow.cli\n")
    assert upward_imports("spaces", source) == [(1, "kernels"), (5, "assemble"), (6, "io"),
                                                (7, "stepper"), (8, "driver"), (9, "cli")]
    assert upward_imports("cli", source) == []


def test_every_module_has_a_layer():
    modules = {path[len("src/dualflow/"):-3] for path in python_files()
               if path.startswith("src/dualflow/")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_no_upward_imports(module):
    with open(os.path.join(ROOT, f"src/dualflow/{module}.py"), encoding="utf-8") as fh:
        upward = upward_imports(module, fh.read())
    assert not upward, f"{module} imports later layers: " + ", ".join(
        f"{name} (line {line})" for line, name in upward)


def constructions(source, name="CachedLU", scope=ast.ClassDef):
    """(line, where) of each `name(...)` call in `source`, where the dotted
    names of the `scope` nodes (classes, functions, or a tuple of both)
    it is made in, outermost first, or None outside every one."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.append((child.lineno, where))
            inner = where
            if isinstance(child, scope):
                inner = child.name if where is None else f"{where}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_scan_finds_every_factor_construction():
    source = ("from .linsolve import CachedLU\nfrom . import linsolve\nclass System:\n"
              "    def __init__(self, A):\n        self.lu = CachedLU(A)\n"
              "class Model:\n    def __init__(self, A):\n        self.lu = linsolve.CachedLU(A)\n"
              "lu = CachedLU(None)\n")
    assert constructions(source) == [(5, "System"), (8, "Model"), (9, None)]


@pytest.mark.parametrize("module", LAYERS)
def test_factors_are_built_by_systems_alone(module):
    """A static factor belongs to the System it factors: outside linsolve,
    whose fallback factors afresh, only assemble.System builds a CachedLU."""
    with open(os.path.join(ROOT, f"src/dualflow/{module}.py"), encoding="utf-8") as fh:
        found = constructions(fh.read())
    outside = [(line, where) for line, where in found
               if module != "linsolve" and (module, where) != ("assemble", "System")]
    assert not outside, f"{module} constructs CachedLU outside linsolve and assemble.System: " + ", ".join(
        f"{where or 'module level'} (line {line})" for line, where in outside)


SYSTEM_BUILDERS = ("System", "on_cells", "sharing_factor")


def system_constructions(source):
    """(line, where) of each call in `source` that builds a System: the
    class itself or one of its constructors in SYSTEM_BUILDERS, `where`
    the dotted names of the classes and functions it is made in."""
    return sorted(found for name in SYSTEM_BUILDERS
                  for found in constructions(source, name, (ast.ClassDef, ast.FunctionDef)))


def test_scan_finds_every_system_construction():
    source = ("from . import assemble\nclass Model:\n    def __init__(self, W):\n"
              "        curl = assemble.System.on_cells('curl', W, None)\n"
              "        self.systems = {'vorticity': curl.sharing_factor('vorticity', None, 1.0)}\n"
              "    def pressure_system(self):\n        return assemble.System('pressure', None)\n")
    assert system_constructions(source) == [(4, "Model.__init__"), (5, "Model.__init__"),
                                            (7, "Model.pressure_system")]


@pytest.mark.parametrize("module", LAYERS)
def test_systems_are_built_at_model_construction(module):
    """Every System of a run, and so every static factor, is built when
    its stepper.Model is: none is built on first use, by a step, a
    snapshot or a run helper."""
    with open(os.path.join(ROOT, f"src/dualflow/{module}.py"), encoding="utf-8") as fh:
        found = system_constructions(fh.read())
    outside = [(line, where) for line, where in found
               if module != "assemble" and (module, where) != ("stepper", "Model.__init__")]
    assert not outside, f"{module} builds a System outside stepper.Model.__init__: " + ", ".join(
        f"{where or 'module level'} (line {line})" for line, where in outside)


def test_scan_finds_every_factorization():
    source = ("import scipy.sparse.linalg as spla\nclass CachedLU:\n    def __init__(self, A):\n"
              "        self._lu = spla.splu(A, relax=1)\n"
              "    def refactor(self, A):\n        return spla.splu(A)\n"
              "def factor(A):\n    return splu(A)\n")
    assert constructions(source, "splu", (ast.ClassDef, ast.FunctionDef)) == [
        (4, "CachedLU.__init__"), (6, "CachedLU.refactor"), (8, "factor")]


@pytest.mark.parametrize("module", LAYERS)
def test_factors_are_made_by_cached_lu_alone(module):
    """Every sparse LU factor of the package is made by one call, in
    linsolve.CachedLU.__init__, so the SuperLU settings cannot fork."""
    with open(os.path.join(ROOT, f"src/dualflow/{module}.py"), encoding="utf-8") as fh:
        found = constructions(fh.read(), "splu", (ast.ClassDef, ast.FunctionDef))
    outside = [(line, where) for line, where in found
               if (module, where) != ("linsolve", "CachedLU.__init__")]
    assert not outside, f"{module} calls splu outside linsolve.CachedLU.__init__: " + ", ".join(
        f"{where or 'module level'} (line {line})" for line, where in outside)
    if module == "linsolve":
        assert len(found) == 1


def test_scan_finds_every_state_construction():
    source = ("from .stepper import SimulationState\nfrom . import stepper\n"
              "def restore_state(data):\n    return SimulationState(k=0)\n"
              "def other():\n    return stepper.SimulationState(k=1)\n")
    assert constructions(source, "SimulationState", ast.FunctionDef) == [(4, "restore_state"),
                                                                         (6, "other")]


@pytest.mark.parametrize("module", LAYERS)
def test_states_are_built_by_steps_and_restore_alone(module):
    """A state carries the history its step's starts read: only stepper,
    whose steps fill it in and whose restore rebuilds it from a
    checkpoint's vectors, constructs one.  A state built elsewhere without
    it would still step, from other starts, and a resume would no longer
    be bitwise."""
    with open(os.path.join(ROOT, f"src/dualflow/{module}.py"), encoding="utf-8") as fh:
        found = constructions(fh.read(), "SimulationState", ast.FunctionDef)
    outside = found if module != "stepper" else []
    assert not outside, f"{module} constructs SimulationState outside stepper: " + ", ".join(
        f"{where or 'module level'} (line {line})" for line, where in outside)


def test_scan_finds_every_report_construction():
    source = ("from .linsolve import SolverReport\nfrom . import linsolve\n"
              "def lu_solve(A, b):\n    return SolverReport(refinements=0, residual=0.0)\n"
              "class Model:\n    def pressure(self):\n        return linsolve.SolverReport(0, 0.0)\n")
    assert constructions(source, "SolverReport", (ast.ClassDef, ast.FunctionDef)) == [
        (4, "lu_solve"), (7, "Model.pressure")]


@pytest.mark.parametrize("module", LAYERS)
def test_reports_are_made_by_solves_alone(module):
    """A SolverReport says how a solve against a factor went: only linsolve,
    which refines and falls back, makes one.  What solves nothing, as the
    snapshot pressure on its tree of cells, reports nothing."""
    with open(os.path.join(ROOT, f"src/dualflow/{module}.py"), encoding="utf-8") as fh:
        found = constructions(fh.read(), "SolverReport", (ast.ClassDef, ast.FunctionDef))
    outside = found if module != "linsolve" else []
    assert not outside, f"{module} constructs SolverReport outside linsolve: " + ", ".join(
        f"{where or 'module level'} (line {line})" for line, where in outside)


def add_at_calls(source):
    """Line of each `<x>.add.at(...)` call in `source`: numpy's unbuffered
    scatter-add, np.add.at or numpy.add.at."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at" and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "add"]


def test_scan_finds_an_add_at():
    source = ("import numpy as np\nimport numpy\nnp.add.at(a, i, v)\nnp.add(a, v)\n"
              "x.at(i)\nnumpy.add.at(a, i, v)\nnp.bincount(i, weights=v)\n")
    assert add_at_calls(source) == [3, 6]


@pytest.mark.parametrize("module", LAYERS)
def test_scatters_are_bincounts(module):
    """np.bincount with weights is the package's one scatter-add: no
    np.add.at, so every sum over cells has the one idiom."""
    with open(os.path.join(ROOT, f"src/dualflow/{module}.py"), encoding="utf-8") as fh:
        found = add_at_calls(fh.read())
    assert not found, f"{module} scatters with np.add.at at lines {found}"


QUADRATURE_PARAMETERS = ("qdegree", "bdegree", "qdeg")


def quadrature_parameters(source):
    """(line, function, parameter) of each parameter of a public
    module-level function of `source` named in QUADRATURE_PARAMETERS."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            found += [(node.lineno, node.name, p.arg) for p in params if p.arg in QUADRATURE_PARAMETERS]
    return found


def test_scan_finds_a_quadrature_parameter():
    source = ("def assemble_mass(space, qdegree):\n    pass\n"
              "def drift(u_s, U, W, *, bdegree=3):\n    pass\n"
              "def _form(test, qdeg):\n    pass\n"
              "def assemble_div(U, Q):\n    pass\n")
    assert quadrature_parameters(source) == [(1, "assemble_mass", "qdegree"), (3, "drift", "bdegree")]


@pytest.mark.parametrize("module", ["elements", "kernels", "assemble"])
def test_no_quadrature_degree_parameters(module):
    """Every form is integrated exactly, at the rule `elements` derives
    from its integrand's degree: no caller chooses one."""
    with open(os.path.join(ROOT, f"src/dualflow/{module}.py"), encoding="utf-8") as fh:
        found = quadrature_parameters(fh.read())
    assert not found, f"{module} functions take a quadrature degree: " + ", ".join(
        f"{name}({param}) (line {line})" for line, name, param in found)
