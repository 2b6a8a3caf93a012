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

Passed defaults: every defaulted parameter of a function, and every
defaulted field of a dataclass, in a module's ``__all__`` is passed, by
keyword or by position, by some call of that name in the package or in the
benchmark's non-test modules. A default that no caller changes is a knob
that does nothing.

Set params: the spec-level twin of passed defaults. Every params key a study
reads (``experiments._STUDIES``) is set by a ``params`` dict literal of a
spec of that kind (a call or dict with a literal ``kind``; a literal without
one counts for every kind) in the package or the benchmark, or by a CLI
option (``cli.PARAM_OPTIONS``).

Set instance keys: the instance-level twin of set params. Every key of an
instance description table (``model.POWER_LAW_KEYS``, ``EXPLICIT_KEYS``)
that accepts more than one value is set by an instance literal of that
type in the package or the benchmark, or is on INSTANCE_KEYS_KEPT with the
reason it is kept unset.
"""
import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covshift import cli, experiments
from covshift.experiments import ExperimentSpec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covshift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)

PUBLIC_API = {
    "model.instance_to_json": "writes the explicit instance format the CLI reads",
    "estimators.mc_risk": "Monte-Carlo risk of w_hat(A) (ROADMAP item 17)",
    "riskoracle.semi_stochastic_variance_bound": "kept or deleted by ROADMAP item 3",
}

INSTANCE_KEYS_KEPT = {
    "powerlaw.nu": "the rank-one target family (nu = 1): only tests run it, and ROADMAP "
                   "items 19 and 23 use it",
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


def defaulted_parameters(node) -> list[tuple[float, ast.arg]]:
    """(position, parameter) of each defaulted parameter of a function
    definition; keyword-only ones have position inf."""
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = list(enumerate(positional))[len(positional) - len(args.defaults):]
    return defaulted + [(math.inf, arg) for arg, default
                        in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


def defaulted_fields(node) -> list[tuple[float, ast.arg]]:
    """(position, field) of each defaulted ``__init__`` field of a dataclass
    definition: an annotated name with a value, unless the value is a
    ``field(...)`` call with ``init=False`` or with neither ``default`` nor
    ``default_factory``. The field comes as an ``ast.arg`` of its name."""
    fields = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            options = {kw.arg: kw.value for kw in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            value = options.get("default", options.get("default_factory"))
        fields.append((ast.arg(arg=item.target.id), value is not None))
    return [(at, arg) for at, (arg, defaulted) in enumerate(fields) if defaulted]


def is_dataclass(node) -> bool:
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def unpassed_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name(parameter)`` for each defaulted parameter of a function,
    or defaulted field of a dataclass, in a module's ``__all__`` that no call
    of that name in ``callers`` passes, by keyword or by position; a
    ``**mapping`` argument passes every name, and a ``*args`` one every
    position."""
    keywords, positions = {}, {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
            spread = any(isinstance(arg, ast.Starred) for arg in node.args)
            positions[name] = max(positions.get(name, 0),
                                  math.inf if spread else len(node.args))
    unpassed = []
    for module, source in modules.items():
        tree = ast.parse(source)
        public = set(exported(tree))
        for node in tree.body:
            if getattr(node, "name", None) not in public:
                continue
            if isinstance(node, ast.FunctionDef):
                defaulted = defaulted_parameters(node)
            elif isinstance(node, ast.ClassDef) and is_dataclass(node):
                defaulted = defaulted_fields(node)
            else:
                continue
            passed = keywords.get(node.name, set())
            if None in passed:  # a **mapping
                continue
            unpassed += [f"{module}.{node.name}({arg.arg})" for at, arg in defaulted
                         if arg.arg not in passed and not at < positions.get(node.name, 0)]
    return sorted(unpassed)


def unset_params(reads: dict[str, dict], callers: list[str], options) -> list[str]:
    """``kind.key`` for each key of ``reads[kind]`` that no ``params`` dict
    literal of a ``kind`` spec in ``callers`` sets and ``options`` lacks. A
    spec is a call with ``kind=`` and ``params=`` keywords or a dict with
    "kind" and "params" keys; a kind that is not a string literal sets the
    key for every kind."""
    set_by = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                fields = {kw.arg: kw.value for kw in node.keywords}
            elif isinstance(node, ast.Dict):
                fields = {getattr(k, "value", None): v for k, v in zip(node.keys, node.values)}
            else:
                continue
            kind, params = fields.get("kind"), fields.get("params")
            if isinstance(params, ast.Dict):
                kind = kind.value if isinstance(kind, ast.Constant) else None
                set_by |= {(kind, key.value) for key in params.keys
                           if isinstance(key, ast.Constant)}
    return sorted(f"{kind}.{key}" for kind, table in reads.items() for key in table
                  if key not in options and not {(kind, key), (None, key)} & set_by)


def unset_instance_keys(tables: dict[str, dict], callers: list[str]) -> list[str]:
    """``type.key`` for each key of ``tables[type]`` that accepts more than
    one value (its kind is not a one-value tuple) and that no instance
    literal of that type in ``callers`` sets. An instance literal is a dict
    literal whose "type" is a string literal (so the tables, whose "type"
    is a tuple, are not)."""
    set_by = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            keys = [getattr(k, "value", None) for k in getattr(node, "keys", [])]
            if isinstance(node, ast.Dict) and "type" in keys:
                kind = getattr(node.values[keys.index("type")], "value", None)
                set_by |= {(kind, key) for key in keys if isinstance(kind, str)}
    return sorted(f"{kind}.{key}" for kind, table in tables.items()
                  for key, (value_kind, _) in table.items()
                  if not (isinstance(value_kind, tuple) and len(value_kind) == 1)
                  and (kind, key) not in set_by)


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


def test_gate_flags_an_unpassed_default():
    lib = ("__all__ = ['fit', 'run', 'spread']\n"
           "def fit(x, steps=10, *, tol=1e-6, seed=0): pass\n"
           "def run(a, b=1, c=2): pass\n"
           "def spread(a, b=1, *, c=2): pass\n"
           "def _hidden(a, spare=0): pass\n"
           "def solo(a, spare=0): pass\n")
    app = ("import lib\n"
           "lib.fit(1, tol=1e-3)\n"
           "lib.run(1, 2)\n"
           "lib.spread(*xs, **opts)\n")
    assert unpassed_defaults({"lib": lib}, [lib, app]) == [
        "lib.fit(seed)", "lib.fit(steps)", "lib.run(c)"]


def test_gate_flags_an_unpassed_field_default():
    lib = ("from dataclasses import dataclass, field\n"
           "__all__ = ['Prog', 'Spec', 'Plain']\n"
           "@dataclass(frozen=True)\n"
           "class Prog:\n"
           "    triple: object\n"
           "    shown: int = field(repr=False)\n"
           "    coeff: float = 1.0\n"
           "    ridge: float | None = None\n"
           "    size: int = field(init=False)\n"
           "    cache: dict = field(default_factory=dict)\n"
           "    scale = 3.0\n"
           "@dataclass\n"
           "class Spec:\n"
           "    n: int = 1\n"
           "class Plain:\n"
           "    x: int = 0\n")
    app = ("import lib\n"
           "lib.Prog(t, 1, 2.0)\n"
           "lib.Spec(**opts)\n"
           "lib.Plain()\n")
    assert unpassed_defaults({"lib": lib}, [lib, app]) == ["lib.Prog(cache)", "lib.Prog(ridge)"]


def test_every_default_is_passed_by_a_caller():
    modules = {p.stem: p.read_text() for p in MODULES}
    callers = [p.read_text() for p in CALLERS]
    assert unpassed_defaults(modules, callers) == []


def test_gate_flags_an_unset_param():
    reads = {"sweep": {"tol": 0, "base": 0, "seed": 0},
             "curve": {"base": 0, "ref": 0, "exponent": 0, "seed": 0},
             "bound": {"kappa": 0, "width": 0}}
    lib = ("SPEC = Spec(kind='curve', grid=(8,), params={'base': 0.5, 'ref': 64})\n"
           "DOC = {'kind': 'bound', 'params': {'width': 2}}\n"
           "spec = replace(spec, params=params)\n")
    app = "def f(kind):\n    return Spec(kind=kind, params={'tol': 0.1})\n"
    assert unset_params(reads, [lib, app], {"seed": None}) == [
        "bound.kappa", "curve.exponent", "sweep.base"]


def test_every_study_param_is_set_by_a_spec_or_an_option():
    reads = {kind: study.reads for kind, study in experiments._STUDIES.items()}
    callers = [p.read_text() for p in CALLERS]
    assert unset_params(reads, callers, cli.PARAM_OPTIONS) == []


def test_gate_flags_an_unset_instance_key():
    tables = {"powerlaw": {"type": (("powerlaw",), "powerlaw"), "d": (int, ...),
                           "rho": (float, 1.0), "psi": ((3.0,), 3.0)},
              "explicit": {"type": (("explicit",), ...), "S": ([[float]], ...),
                           "M": ([[float]], ...), "sigma2": (float, ...)}}
    lib = ("TABLE = {'type': (('powerlaw',), 'powerlaw'), 'rho': (float, 1.0)}\n"
           "SPEC = Spec(kind='duality', instance={'type': 'powerlaw', 'd': 4})\n"
           "DOC = {'type': 'explicit', 'S': [[1.0]], **law}\n"
           "PARAMS = {'M': 2, 'rho': 0.5}\n")
    app = "def f(t):\n    return {'type': t, 'sigma2': 1.0}\n"
    assert unset_instance_keys(tables, [lib, app]) == [
        "explicit.M", "explicit.sigma2", "powerlaw.rho"]


def test_every_instance_key_is_set_by_an_instance_or_kept():
    callers = [p.read_text() for p in CALLERS]
    assert unset_instance_keys(experiments._INSTANCES, callers) == sorted(INSTANCE_KEYS_KEPT)


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
