"""Import and export gates, built on the stdlib ``ast`` module.

Unused imports: no module of the package imports a name it never uses. A
stand-in for a linter's unused-import rule. A name counts as used when the
module reads it anywhere (including annotations) or lists it in ``__all__``.
``__init__.py`` is exempt: its imports are the package's re-exports.

Uncalled exports: every name in a module's ``__all__``, and every public
method or property defined in the body of a public class, is read (as a name
or an attribute) somewhere in the package outside ``__init__.py`` or in the
benchmark's non-test modules, or is on PUBLIC_API with the reason it is kept
without a caller.

One eigensolver: the package calls ``np.linalg.eigh`` exactly once, inside
``psdlinalg.eigh``, so every eigendecomposition goes through that function
and its reconstruction check, and no second variant of it can come back.

No scipy: no module of the package imports scipy at any scope; numpy is
its one numerical library.

Read parameters: every parameter of every function or lambda in the package
is read in that function's body, so no argument is accepted and ignored.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covshift import experiments
from covshift.experiments import ExperimentSpec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covshift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)

PUBLIC_API = {
    "model.instance_to_json": "writes the explicit instance format the CLI reads",
    "estimators.estimate": "the paper's estimator w_hat(A) (ROADMAP item 6)",
    "estimators.mc_risk": "Monte-Carlo risk of w_hat(A) (ROADMAP item 6)",
    "riskoracle.semi_stochastic_variance_bound": "kept or deleted by ROADMAP item 3",
}


def exported(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list[str]:
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
    used.update(exported(tree))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def public_names(tree) -> list[str]:
    """The names in ``__all__``, then ``Class.member`` for each public method
    or property defined in the body of a public class."""
    names = exported(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")]
    return names


def uncalled_exports(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` for each public name of a module (see public_names)
    whose last part no caller source reads as a name or an attribute."""
    read = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, source in modules.items()
                  for name in public_names(ast.parse(source))
                  if name.rsplit(".", 1)[-1] not in read)


def eigh_calls(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of each call of an ``eigh`` reached through
    a ``linalg`` module (``np.linalg.eigh``, ``numpy.linalg.eigh``); the
    function is its dotted path, or "<module>" outside every function."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "eigh" and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "linalg"):
                calls.append((child.lineno, scope or "<module>"))
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(calls)


def scipy_imports(source: str) -> list[int]:
    """Line of each ``import scipy...`` or ``from scipy... import``, at any
    scope."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def unread_parameters(source: str) -> list[str]:
    """``function(parameter) (line N)`` for each parameter of a function or
    lambda that its body never reads; a nested function's reads count for
    the functions around it."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
        params += [arg.arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for part in body for name in ast.walk(part)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        function = getattr(node, "name", "<lambda>")
        unread += [f"{function}({p}) (line {node.lineno})" for p in params if p not in read]
    return sorted(unread)


def test_gate_flags_an_unused_name():
    src = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    assert unused_imports(src) == ["pi (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_gate_flags_an_uncalled_export():
    lib = ("__all__ = ['run', 'Err', 'fit', 'spare']\n"
           "class Err(Exception): pass\n"
           "def run(): raise Err\n"
           "def fit(): pass\n"
           "def spare(): pass\n")
    app = "import lib\nlib.fit()\nlib.run()\n"
    assert uncalled_exports({"lib": lib}, [lib, app]) == ["lib.spare"]


def test_gate_flags_an_uncalled_method():
    lib = ("__all__ = ['Box']\n"
           "class Box:\n"
           "    def __len__(self): return 0\n"
           "    def _helper(self): return 1\n"
           "    @property\n"
           "    def size(self): return self._helper()\n"
           "    def grow(self): pass\n"
           "    def spare(self): pass\n"
           "class _Hidden:\n"
           "    def spare(self): pass\n")
    app = "import lib\nbox = lib.Box()\nbox.grow()\nprint(box.size)\n"
    assert uncalled_exports({"lib": lib}, [lib, app]) == ["lib.Box.spare"]


def test_every_export_has_a_caller_or_a_reason():
    modules = {p.stem: p.read_text() for p in MODULES}
    callers = [p.read_text() for p in CALLERS]
    assert uncalled_exports(modules, callers) == sorted(PUBLIC_API)


def test_gate_flags_an_eigh_call():
    src = ("import numpy as np\n"
           "from .psdlinalg import eigh\n"
           "w, U = np.linalg.eigh(X)\n"
           "dec = eigh(X)\n"
           "w = np.linalg.eigvalsh(X)\n"
           "def eigh(X):\n"
           "    return np.linalg.eigh(X)\n"
           "class Twin:\n"
           "    def unsigned(self, X):\n"
           "        return f(numpy.linalg.eigh(X))\n")
    assert eigh_calls(src) == [(3, "<module>"), (7, "eigh"), (10, "Twin.unsigned")]


def test_only_psdlinalg_calls_eigh():
    calls = {p.stem: [scope for _, scope in eigh_calls(p.read_text())]
             for p in PACKAGE.glob("*.py")}
    assert {name: scopes for name, scopes in calls.items() if scopes} == {
        "psdlinalg": ["eigh"]
    }


def test_gate_flags_a_scipy_import():
    src = ("import numpy as np\n"
           "from scipy.linalg import cho_factor\n"
           "try:\n"
           "    import scipy.integrate as si\n"
           "except ImportError:\n"
           "    si = None\n"
           "class Solver:\n"
           "    import scipy\n"
           "    def solve(self):\n"
           "        from scipy.linalg import cho_solve\n"
           "        import os, scipy.special\n"
           "from .scipy import helper\n"
           "import scipyx\n")
    assert scipy_imports(src) == [2, 4, 8, 10, 11]


def test_no_module_imports_scipy():
    lines = {p.stem: scipy_imports(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: found for name, found in lines.items() if found} == {}


def test_gate_flags_an_unread_parameter():
    src = ("def f(a, b, *args, c=1, **kw):\n"
           "    return a + c\n"
           "class Box:\n"
           "    def grow(self, by, /, step):\n"
           "        def inner(x):\n"
           "            return x * by\n"
           "        self.size = inner(2)\n"
           "def g(n):\n"
           "    return sorted([3, 1], key=lambda k, rev=True: -k)\n")
    assert unread_parameters(src) == [
        "<lambda>(rev) (line 9)",
        "f(args) (line 1)",
        "f(b) (line 1)",
        "f(kw) (line 1)",
        "g(n) (line 8)",
        "grow(step) (line 4)",
    ]


def test_every_parameter_is_read():
    unread = {p.stem: unread_parameters(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: found for name, found in unread.items() if found} == {}


POWER_LAW = {"type": "powerlaw", "d": 10, "a": 2.0, "s": 1.0, "r": 0.0,
             "sigma2": 0.5, "seed": 0}
STUDIES = {
    "run_rate_sweep": dict(kind="rate_sweep", instance=POWER_LAW,
                           n_grid=(16, 32, 64, 128), seeds=2),
    "run_bound_check": dict(kind="bound_check", instance=POWER_LAW, n_grid=(64,), seeds=2),
    "run_duality": dict(kind="duality", instance=dict(POWER_LAW, d=3),
                        n_grid=(16, 64), seeds=1),
}
STUDIES_WITHOUT_SCIPY = f"""
import sys
from covshift import experiments
for name, spec in {STUDIES!r}.items():
    rows = getattr(experiments, name)(experiments.ExperimentSpec(**spec)).rows
    print(repr(rows))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_studies_load_no_scipy():
    # a fresh interpreter: this one may have loaded scipy in other tests
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", STUDIES_WITHOUT_SCIPY],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=300)
    *rows, loaded = out.stdout.splitlines()
    assert loaded == "[]"
    assert rows == [repr(getattr(experiments, name)(ExperimentSpec(**spec)).rows)
                    for name, spec in STUDIES.items()]
