"""Source hygiene: every name a module of the package or of the tests
imports is used in that module, every private module-level function of
the package is used somewhere in it, no module of the package but
siegel_trop and cli uses a float, none but _geometry calls the
cofactor determinant _det, none imports numpy when it is imported,
neither the package namespace nor the CLI imports a library module but
errors when it is imported, none imports the oracles or any other module
of the tests, nor dataclasses or typing, none holds an assert statement,
which ``python -O`` strips, and none writes an attribute of an object
other than self or cls.  A function is private when its name or its
module's file name starts with an underscore."""

import ast
from pathlib import Path, PurePath

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names bound by the imports of a module and never read in it."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\n"
                          "import x.y\nprint(e, x.y)\n") == ["d", "os"]


def test_no_module_imports_a_name_it_does_not_use():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + \
            sorted((ROOT / "tests").glob("*.py")):
        names = unused_imports(path.read_text())
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def _names_read(node):
    """Every name a syntax tree reads: Names, attributes and the names
    an ``from ... import`` brings in."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private_functions(sources):
    """(path, name) of each module-level function of the given sources
    (a dict of path -> text) that is private, a ``_name`` or any function
    of a ``_module.py``, and that nothing outside its own definition
    reads."""
    defined, reads = [], []
    for path, text in sources.items():
        private_module = _is_private(PurePath(path).name)
        for node in ast.parse(text).body:
            own = node.name if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if own and (private_module or _is_private(own)):
                defined.append((path, own))
            reads.append(((path, own), _names_read(node)))
    return sorted(fn for fn in defined
                  if not any(fn[1] in names for where, names in reads
                             if where != fn))


def test_the_scan_finds_an_orphaned_private_function():
    sources = {"a.py": "def _kept():\n    pass\n\n"
                       "def _orphan(n):\n    return n and _orphan(n - 1)\n\n"
                       "def public():\n    return _kept()\n",
               "b.py": "from a import _helper\n\n"
                       "def _helper():\n    pass\n"}
    # reading itself does not keep a function
    assert unreferenced_private_functions(sources) == [("a.py", "_orphan")]
    sources["b.py"] += "\nX = [a._orphan]\n"
    assert unreferenced_private_functions(sources) == []
    # every function of a private module is private
    sources["pkg/_util.py"] = "def helper():\n    pass\n"
    assert unreferenced_private_functions(sources) == [
        ("pkg/_util.py", "helper")]
    sources["b.py"] += "\nY = _util.helper\n"
    assert unreferenced_private_functions(sources) == []


def test_no_private_function_of_the_package_is_orphaned():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert unreferenced_private_functions(sources) == []


# binary64 stays in siegel_trop (and the CLI's --tol option); every other
# module of the package is exact
FLOAT_MODULES = {"siegel_trop.py", "cli.py"}
MATH_FLOAT_FUNCTIONS = {"sqrt", "log", "log2", "log10", "log1p", "exp",
                        "expm1", "pow"}
NUMPY_FLOAT_TYPES = {"float16", "float32", "float64", "float128", "half",
                     "single", "double", "longdouble", "floating"}


def float_uses(source):
    """(line, what) for each float literal, each call of ``float``,
    each math function that returns a float (math.sqrt, log, exp, ...)
    and each numpy float dtype in a module.  The name ``float`` alone,
    as in ``isinstance(x, float)``, which refuses floats, is allowed."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            out.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append((node.lineno, "float("))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and (
                    node.value.id == "math"
                    and node.attr in MATH_FLOAT_FUNCTIONS
                    or node.value.id in ("np", "numpy")
                    and node.attr in NUMPY_FLOAT_TYPES):
            out.append((node.lineno, "%s.%s" % (node.value.id, node.attr)))
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "math", "numpy"):
            banned = MATH_FLOAT_FUNCTIONS if node.module == "math" \
                else NUMPY_FLOAT_TYPES
            out += [(node.lineno, "%s.%s" % (node.module, alias.name))
                    for alias in node.names if alias.name in banned]
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and \
                isinstance(node.value, ast.Constant) and \
                _is_float_dtype(node.value.value):
            out.append((node.lineno, "dtype=%r" % node.value.value))
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and \
                isinstance(node.value, ast.Name) and node.value.id == "float":
            out.append((node.lineno, "dtype=float"))
    return sorted(out)


def _is_float_dtype(name):
    try:
        return np.dtype(name).kind in "fc"
    except TypeError:
        return False


def test_the_scan_finds_every_kind_of_float():
    source = ("import math\nimport numpy as np\n"
              "from math import isqrt, sqrt\n"
              "x = 0.5 + 1e-9\n"
              "y = float(3)\n"
              "z = math.log(2) + math.exp(1) + math.gcd(4, 6)\n"
              "a = np.zeros(2, dtype=np.float64)\n"
              "b = np.ones(2, dtype='float32') + np.ones(2, dtype='d')\n"
              "c = np.array([1], dtype=object)\n"
              "d = isqrt(10)  # a float would be wrong here\n"
              "e = 'float'\n"
              "if isinstance(e, float):\n    raise ValueError(e)\n"
              "f = np.zeros(2, dtype=float)\n")
    assert float_uses(source) == [
        (3, "math.sqrt"), (4, "0.5"), (4, "1e-09"), (5, "float("),
        (6, "math.exp"), (6, "math.log"), (7, "np.float64"),
        (8, "dtype='d'"), (8, "dtype='float32'"), (14, "dtype=float")]


def test_the_exact_modules_use_no_floats():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name in FLOAT_MODULES:
            continue
        uses = float_uses(path.read_text())
        if uses:
            found[str(path.relative_to(ROOT))] = uses
    assert found == {}


# the cofactor determinant _geometry._det computes the normals of
# _geometry and nothing else: every other solve, determinant and inverse
# goes through exact_linalg's elimination
DET_MODULES = {"_geometry.py"}


def det_calls(source):
    """The line of each call of ``_det``, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and (
                      isinstance(node.func, ast.Name)
                      and node.func.id == "_det"
                      or isinstance(node.func, ast.Attribute)
                      and node.func.attr == "_det"))


def test_the_scan_finds_every_call_of_det():
    source = ("from . import _geometry as geom\n"
              "from ._geometry import _det\n"
              "a = geom._det([[1]])\n"
              "b = _det([[2]]) + geom.det([[3]]) + frac_det([[4]])\n"
              "c = [geom._det, _det]\n"
              "d = max(x for x in [_det([[5]])])\n")
    assert det_calls(source) == [3, 4, 6]


def test_only_the_geometry_module_calls_det():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name in DET_MODULES:
            continue
        lines = det_calls(path.read_text())
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert found == {}


def import_time_imports(source, modules):
    """The line of each import that runs when the module is imported,
    any outside a function body, of a module in modules or a submodule
    of one.  A relative import is read in the package tropab, and ``from
    m import a`` imports m and m.a, which may be a submodule."""
    out = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["tropab" if node.level else None,
                                          node.module]))
            names = [base] + [base + "." + alias.name for alias in node.names]
        else:
            todo.extend(ast.iter_child_nodes(node))
            continue
        if any(n == m or n.startswith(m + ".") for n in names
               for m in modules):
            out.append(node.lineno)
    return sorted(out)


def test_the_scan_finds_every_import_time_numpy_import():
    source = ("import numpy as np\n"
              "from numpy.linalg import inv\n"
              "import numbers, numpy\n"
              "def build():\n    import numpy as np\n    return np\n"
              "class A:\n    import numpy\n"
              "    def f(self):\n        from numpy import array\n"
              "try:\n    import numpy\nexcept ImportError:\n    pass\n"
              "import numpyish\n")
    assert import_time_imports(source, {"numpy"}) == [1, 2, 3, 8, 12]


def test_no_module_imports_numpy_at_import_time():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = import_time_imports(path.read_text(), {"numpy"})
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert found == {}


def test_the_scan_reads_relative_imports_in_the_package():
    source = ("from .errors import DomainError\n"
              "from . import (errors,\n               exact_linalg)\n"
              "from tropab.siegel_trop import SiegelPoint\n"
              "import tropab.pavings_pwl as pw\n"
              "from tropab import errors\n"
              "from .exact_linalgs import x\n"
              "def f():\n    from . import theta_heisenberg\n")
    modules = {"tropab.exact_linalg", "tropab.siegel_trop",
               "tropab.pavings_pwl", "tropab.theta_heisenberg"}
    assert import_time_imports(source, modules) == [2, 4, 5]


# a CLI call imports the namespace and the CLI before it knows its
# subcommand, so neither loads a library module but the errors the CLI
# catches: each handler imports what it calls
PACKAGE = ROOT / "src" / "tropab"
LIBRARY_MODULES = {"tropab." + path.stem for path in PACKAGE.glob("*.py")
                   if path.stem not in ("__init__", "cli", "errors")}


def test_the_namespace_and_the_cli_import_no_library_module():
    assert len(LIBRARY_MODULES) == 7
    found = {}
    for name in ("__init__.py", "cli.py"):
        lines = import_time_imports((PACKAGE / name).read_text(),
                                    LIBRARY_MODULES)
        if lines:
            found[name] = lines
    assert found == {}


# the oracles are the references the package is checked against, so the
# package never reads them, nor anything else of the test suite
TEST_SUITE = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}


def absolute_imports(source, names=TEST_SUITE):
    """The line of each absolute import, at any depth, of a module whose
    top-level name is in names, by default the test package and its
    modules."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] in names for m in modules):
            out.append(node.lineno)
    return sorted(out)


def test_the_scan_finds_every_import_of_the_test_suite():
    source = ("import oracles\n"
              "from oracles import fourier_motzkin_projection\n"
              "import tests.oracles as reference\n"
              "from tests import oracles\n"
              "def f():\n    import test_cli\n"
              "import oracles_extra\n"
              "from tropab import oracles\n"
              "from . import oracles\n"
              "import numpy, oracles\n"
              "checked = 'import oracles'\n")
    assert "oracles" in TEST_SUITE and "test_cli" in TEST_SUITE
    assert absolute_imports(source) == [1, 2, 3, 4, 6, 10]


def test_the_package_imports_nothing_of_the_test_suite():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = absolute_imports(path.read_text())
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert found == {}


# the records are built on exact_linalg.Record: dataclasses loads inspect,
# ast, dis and tokenize when a CLI call starts, and the annotations are
# builtins, so typing is not needed either
def test_the_package_imports_neither_dataclasses_nor_typing():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = absolute_imports(path.read_text(), {"dataclasses", "typing"})
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert found == {}


def assert_statements(source):
    """The line of each assert statement in a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_the_scan_finds_every_assert_statement():
    source = ("assert x\n"
              "def f(y):\n    assert y > 0, 'positive'\n    return y\n"
              "class A:\n    def g(self):\n"
              "        if self:\n            assert False\n"
              "checked = 'assert z'\n"
              "raise AssertionError('not a statement')\n")
    assert assert_statements(source) == [1, 3, 8]


def test_the_package_holds_no_assert_statement():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = assert_statements(path.read_text())
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert found == {}


def foreign_attribute_writes(source):
    """The line of each write to an attribute of an object other than
    ``self`` or ``cls``: an assignment, augmented assignment or ``del``
    of such an attribute, or a setattr or object.__setattr__ call on
    such an object.  A numpy array's ``flags`` are not the package's
    state and are not counted."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and \
                not isinstance(node.ctx, ast.Load):
            obj = node.value
        elif isinstance(node, ast.Call) and node.args and ast.unparse(
                node.func) in {"setattr", "object.__setattr__"}:
            obj = node.args[0]
        else:
            continue
        if not (isinstance(obj, ast.Name) and obj.id in {"self", "cls"}
                or isinstance(obj, ast.Attribute) and obj.attr == "flags"):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_finds_every_foreign_attribute_write():
    source = ("def f(p, q, self, cls):\n"
              "    p.cells = []\n"
              "    q.a, self.b = 1, 2\n"
              "    p.lattice.den += 1\n"
              "    setattr(p, 'x', 1)\n"
              "    object.__setattr__(q, 'y', 2)\n"
              "    del p.z\n"
              "    self.c = cls.d = p.cells\n"
              "    object.__setattr__(self, 'e', 4)\n"
              "    out.flags.writeable = False\n"
              "    return getattr(p, 'x')\n")
    assert foreign_attribute_writes(source) == [2, 3, 4, 5, 6, 7]


def test_the_package_writes_only_its_own_attributes():
    """Every object of the package sets its own state: no function
    writes into a paving, a form or any other object it is handed."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = foreign_attribute_writes(path.read_text())
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert found == {}
