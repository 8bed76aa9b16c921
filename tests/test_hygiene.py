"""Static checks of the package source.

No unused imports or parameters, a resolvable __all__, one module that
tells a derived-field nonlocal term from a species one, one function that
turns text into code (the checked initial-data expressions), no numerics
chosen by a library heuristic (scipy.signal's direct/FFT ``method="auto"``),
no scipy on the import path (numpy alone runs the package; scipy stays a
test oracle), no public function or class that only tests read, one loop
over the step schedule, and every layer the benchmark's tracer times still
reached through its module attribute.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ntcentral
from ntcentral import harness, kernels, schemes
from ntcentral.core import Grid, init_cell_averages
from ntcentral.harness import Experiment, SchemeSpec, run_simulation
from ntcentral.models import make_model
from ntcentral.schemes import Stepper

SOURCE_DIR = pathlib.Path(ntcentral.__file__).parent
MODULES = sorted(p.name for p in SOURCE_DIR.glob("*.py") if p.name != "__init__.py")


def _annotation_names(tree):
    """Names inside annotations, including the quoted ones."""
    nodes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            nodes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            nodes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            nodes.append(node.annotation)
    names = set()
    for ann in nodes:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                quoted = ast.parse(sub.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_detector_flags_and_spares():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .core import Grid, extend_array\n"
        "def f(g: 'Grid') -> None:\n"
        "    return np.zeros(3)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: extend_array"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    source = (SOURCE_DIR / module).read_text()
    assert unused_imports(source) == []


def unused_parameters(source: str) -> list[str]:
    """Parameters of module-level functions and methods that go unread.

    ``self`` and ``cls`` are spared, and so are functions nested in another
    function: callbacks such as a model's ``lip_flux(sbox, nbox)`` have their
    signature set by the caller's contract.
    """
    tree = ast.parse(source)
    functions = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [
                (f"{node.name}.{f.name}", f)
                for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    found = []
    for name, fn in functions:
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        used = {
            n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name)
        }
        found += [
            f"{name}: {p.arg}"
            for p in params
            if p.arg not in used and p.arg not in ("self", "cls")
        ]
    return found


def test_unused_parameter_detector_flags_and_spares():
    source = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    def g(u, R):\n"
        "        return a\n"
        "    return g, c\n"
        "class K:\n"
        "    def m(self, x, y):\n"
        "        return [x for _ in ()]\n"
        "    @classmethod\n"
        "    def n(cls, z):\n"
        "        return lambda: z\n"
    )
    assert unused_parameters(source) == [
        "f: b",
        "f: args",
        "f: kw",
        "K.m: y",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_parameters(module):
    source = (SOURCE_DIR / module).read_text()
    assert unused_parameters(source) == []


def library_heuristics(source: str) -> list[str]:
    """scipy imports and method="auto" keywords anywhere in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "method":
            if isinstance(node.value, ast.Constant) and node.value.value == "auto":
                found.append(f"line {node.value.lineno}: method='auto'")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            names = [prefix + a.name for a in node.names]
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append(f"line {node.lineno}: scipy import")
    return found


def test_library_heuristic_detector_flags_and_spares():
    source = (
        "import numpy as np\n"
        "from scipy import integrate\n"
        "from scipy.signal import correlate\n"
        "import scipy\n"
        "import scipy.fft as sf\n"
        "from numpy.fft import rfft\n"
        "import scipyish\n"
        "def f(u, w):\n"
        "    np.sort(u, kind='stable')\n"
        "    return correlate(u, w, mode='valid', method='auto')\n"
    )
    assert library_heuristics(source) == [
        "line 2: scipy import",
        "line 3: scipy import",
        "line 4: scipy import",
        "line 5: scipy import",
        "line 10: method='auto'",
    ]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_uses_no_library_heuristic(module):
    source = (SOURCE_DIR / module).read_text()
    assert library_heuristics(source) == []


def identifiers(source: str) -> set[str]:
    """Every name a module imports, reads or takes as an attribute, quoted
    annotations included."""
    tree = ast.parse(source)
    found = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def test_identifier_detector_flags_and_spares():
    hook = "DerivedFieldHook"
    assert hook in identifiers("from .models import DerivedFieldHook as H\n")
    assert hook in identifiers("from . import models\nmodels.DerivedFieldHook\n")
    assert hook in identifiers("def f(h: 'DerivedFieldHook'): pass\n")
    assert hook not in identifiers("x = 'a DerivedFieldHook in a string'\n")


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_the_models_module_names_the_derived_field_hook(module):
    # which nonlocal terms read a derived field is the model's to state once
    # (ModelDef.source_rows and source_stack), not each caller's to work out
    names = identifiers((SOURCE_DIR / module).read_text())
    assert ("DerivedFieldHook" in names) == (module == "models.py")


def code_runners(source: str) -> list[str]:
    """``definition: name`` of every call of eval, exec or compile, bare or
    through ``builtins``, by the top-level definition it sits in."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                name = f.attr if f.value.id == "builtins" else None
            else:
                name = getattr(f, "id", None)
            if name in ("eval", "exec", "compile"):
                found.append(f"{getattr(top, 'name', '<module>')}: {name}")
    return sorted(found)


def test_code_runner_detector_flags_and_spares():
    source = (
        "import builtins, re\n"
        "exec('x = 1')\n"
        "def f(s):\n"
        "    def g():\n"
        "        return eval(s)\n"
        "    return re.compile(s), g, s.eval()\n"
        "class C:\n"
        "    def m(self, s):\n"
        "        return builtins.compile(s, '', 'eval')\n"
    )
    assert code_runners(source) == ["<module>: exec", "C: compile", "f: eval"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_the_expression_profile_turns_text_into_code(module):
    # config text reaches eval on one path, the one that checks its names
    found = code_runners((SOURCE_DIR / module).read_text())
    if module == "harness.py":
        assert found == ["expression_profile: compile", "expression_profile: eval"]
    else:
        assert found == []


def public_definitions(source: str) -> list[str]:
    """Names of a module's public top-level functions and classes."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_public_definition_detector_flags_and_spares():
    source = (
        "import numpy as np\n"
        "def f(): pass\n"
        "class K:\n"
        "    def m(self): pass\n"
        "def _g(): pass\n"
        "h = 1\n"
        "if True:\n"
        "    def i(): pass\n"
    )
    assert public_definitions(source) == ["f", "K"]


def test_every_public_definition_has_a_reader():
    # the public surface holds what the package, the README or the benchmark
    # reads; a diagnostic that only tests read belongs in tests/oracles.py
    root = SOURCE_DIR.parents[1]
    modules = MODULES + ["__init__.py"]
    used = set().union(*(identifiers((SOURCE_DIR / m).read_text()) for m in modules))
    bench = sorted((root / "perfbench").rglob("*.py")) + sorted((root / "perfbench").rglob("*.md"))
    text = "".join(p.read_text() for p in [root / "README.md", *bench])
    unread = [
        f"{module}: {name}"
        for module in MODULES
        for name in public_definitions((SOURCE_DIR / module).read_text())
        if name not in used and not re.search(rf"\b{name}\b", text)
    ]
    assert unread == []


def callers(source: str, name: str) -> list[str]:
    """The top-level definitions of a module that call ``name``, bare or as
    an attribute, once per call."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                if name in (getattr(f, "id", None), getattr(f, "attr", None)):
                    found.append(getattr(top, "name", "<module>"))
    return found


def test_caller_detector_flags_and_spares():
    source = (
        "from . import harness\n"
        "harness.step()\n"
        "def f():\n"
        "    return [step(t) for t in step]\n"
        "class C:\n"
        "    def m(self):\n"
        "        return self.step, steps(), step\n"
    )
    assert callers(source, "step") == ["<module>", "f"]


def test_the_package_has_one_time_loop():
    # run_simulation is the one loop over the step schedule; a diagnostic
    # that needs its own loop is a test oracle (tests/oracles.py)
    found = [c for m in MODULES for c in callers((SOURCE_DIR / m).read_text(), "_time_steps")]
    assert found == ["run_simulation"]


def fresh_modules(imports: str, prefixes: tuple) -> list:
    """Modules under ``prefixes`` that a fresh interpreter holds after ``import <imports>``."""
    code = (
        f"import sys, {imports}\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))\n"
    )
    path = os.pathsep.join(filter(None, [str(SOURCE_DIR.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(out.stdout.strip())


def test_fresh_import_loads_no_scipy():
    # scipy, jsonschema and sympy are test oracles; numpy.polynomial is used by no run
    unwanted = ("scipy", "jsonschema", "sympy", "numpy.polynomial")
    assert fresh_modules("ntcentral, ntcentral.cli", unwanted) == []


def test_fresh_import_loads_no_process_pool():
    # only a convergence study with a worker process imports them, so run,
    # compare and the figure commands start without them
    unwanted = ("multiprocessing", "concurrent.futures")
    assert fresh_modules("ntcentral, ntcentral.cli, ntcentral.harness", unwanted) == []


def test_runtime_dependencies_exclude_scipy():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    test_extra = project["optional-dependencies"]["test"]
    for oracle in ("scipy", "jsonschema", "sympy"):
        assert any(d.startswith(oracle) for d in test_extra), oracle


def test_public_names_resolve():
    missing = [name for name in ntcentral.__all__ if not hasattr(ntcentral, name)]
    assert missing == []


# The per-layer timer of the benchmark wraps these module attributes; a layer
# called some other way would read zero and drop out of the traced run.
TRACED_LAYERS = [
    (schemes, "correlate_band"),
    (schemes, "slopes_of_extended"),
    (schemes, "extend_array"),
    (schemes, "half_step"),
    (schemes, "staggered_predictor"),
    (schemes, "nonstaggered_projection"),
    (harness, "flux_speed_estimate"),
]
# and these class attributes, once per step and once per recorded state
TRACED_METHODS = [(harness.MonitorLog, "record"), (Stepper, "step")]


# correlate_band calls per step, whatever the number of nonlocal fields: one
# for R (with its space derivative under nt-v2) and one for its time
# derivative (nt), R once per stage (lxf)
QUADRATURES_PER_STEP = {"nt-v1": 2, "nt-v2": 2, "lxf1": 1, "lxf2": 2}


def test_traced_layers_are_called_through_their_module_attributes(monkeypatch):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in TRACED_LAYERS + TRACED_METHODS:
        calls[attr] = 0
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    for model, data in (("arrhenius", "arrhenius-sine"), ("multilane", "multilane-sine")):
        for bc in ("periodic", "zero"):
            for name, spec in (
                ("nt-v1", SchemeSpec("nt", "v1")),
                ("nt-v2", SchemeSpec("nt", "v2")),
                ("lxf1", SchemeSpec("lxf1")),
                ("lxf2", SchemeSpec("lxf2")),
            ):
                calls.update(dict.fromkeys(calls, 0))
                exp = Experiment(
                    model=model,
                    t_final=0.0025,
                    initial_data=data,
                    model_params={"eta": 0.2},
                    bc=bc,
                    levels=(0,),
                    reference_level=1,
                    time_ratio=0.05,
                    schemes=(spec,),
                )
                run_simulation(exp, 0, record=False)  # one step: dt = 0.05 * dx
                key = (model, bc, name)
                assert calls["correlate_band"] == QUADRATURES_PER_STEP[name], key
                assert calls["flux_speed_estimate"] == 1, key
                assert (calls["step"], calls["record"]) == (1, 0), key
                if name.startswith("nt"):
                    assert {a: n for a, n in calls.items() if n < 1 and a != "record"} == {}, key
                calls.update(dict.fromkeys(calls, 0))
                run_simulation(exp, 0, record=True)  # the initial state and the step's
                assert (calls["step"], calls["record"]) == (1, 2), key
                assert calls["flux_speed_estimate"] == 1, key


def _count_nt_v2_step(monkeypatch, bc: str):
    """{model: (calls, stepper)}: the rfft, irfft and correlate_band calls of
    one warm nt-v2 step at 2560 cells, for one field (arrhenius) and two."""
    calls = {"rfft": 0, "irfft": 0, "correlate_band": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in ((kernels, "rfft"), (kernels, "irfft"), (schemes, "correlate_band")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    counts = {}
    for model_name in ("arrhenius", "multilane"):
        model = make_model(model_name, eta=0.2)
        grid = Grid(-1.0, 1.0, 2560)
        stepper = Stepper(model, grid, bc, SchemeSpec("nt", "v2"))
        v = stepper.step(
            init_cell_averages(harness.resolve_profiles(f"{model_name}-sine"), grid),
            0.1 * grid.dx,
        )  # warm-up: the band spectra are computed on first use
        calls.update(dict.fromkeys(calls, 0))
        stepper.step(v, 0.1 * grid.dx)
        counts[model_name] = dict(calls), stepper
    return counts


def _spectrum_lengths(stepper):
    """Check that each transform length caches one spectrum of all kinds, and
    list the lengths."""
    for views in stepper.bands.spectra.values():
        assert [v.shape[0] for v in views] == [1, 2]
        assert views[0].base is views[1].base
    return sorted(stepper.bands.spectra)


def test_periodic_nt_v2_step_shares_one_forward_transform_per_field(monkeypatch):
    # each quadrature call stacks its fields: R and its space derivative take
    # one rfft of the cells and one irfft of all band x field products, and
    # the time derivative's integrand one of each, for one field as for two
    for model_name, (calls, stepper) in _count_nt_v2_step(monkeypatch, "periodic").items():
        assert calls == {"rfft": 2, "irfft": 2, "correlate_band": 2}, model_name
        assert _spectrum_lengths(stepper) == [2560], model_name


@pytest.mark.parametrize("bc", ["constant", "zero"])
def test_ghost_padded_nt_v2_step_shares_one_window_per_call(monkeypatch, bc):
    # off the torus R and its space derivative read one ghost-padded window
    # and share one transform pair, as the time derivative takes one: 2 + 2
    for model_name, (calls, stepper) in _count_nt_v2_step(monkeypatch, bc).items():
        assert calls == {"rfft": 2, "irfft": 2, "correlate_band": 2}, model_name
        M, reach = stepper.margins, stepper.qw[0].weights.size - 1
        windows = {kernels.fft_length(2560 + 2 * M[m] + reach) for m in ("R", "half")}
        assert _spectrum_lengths(stepper) == sorted(windows), model_name
