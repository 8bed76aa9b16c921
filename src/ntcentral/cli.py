"""Command-line frontend: validated JSON configs, presets, CSV emission.

Config documents mirror :class:`~ntcentral.harness.Experiment`; a preset is
the same document with an ``experiments`` list so one file can describe, for
example, one study per kernel.  All artifacts are CSV files written
atomically with shortest round-trip float formatting, so repeated runs of
the same config produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources

from .core import BoundaryCondition
from .errors import ConfigurationError, NumericsError, SolverError
from .harness import (
    CONVERGENCE_CSV_HEADER,
    Experiment,
    SchemeSpec,
    _atomic_write,
    compute_reference,
    convergence_study,
    csv_table,
    resolve_time_ratio,
    restrict_values,
    run_simulation,
    snapshot_columns,
    stored_run,
)
from .limiters import NO_CLIP, ClipConfig
from .models import MODEL_FACTORIES, make_model, model_parameters
from .schemes import SCHEMES, SLOPE_VARIANTS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_INITIAL_DATA = {
    "keyfitz-kranzer": "kk-sine",
    "arrhenius": "arrhenius-sine",
    "multilane": "multilane-sine",
    "nonlocal-euler": "euler-sine",
    "garz": "garz-sine",
}

_SCHEME_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["scheme"],
    "properties": {
        "scheme": {"enum": list(SCHEMES)},
        "slope_variant": {"enum": list(SLOPE_VARIANTS)},
        "theta": {"type": "number"},
        "label": {"type": "string", "minLength": 1},
    },
}

_EXPERIMENT_PROPERTIES = {
    "label": {"type": "string"},
    "model": {"enum": sorted(MODEL_FACTORIES)},
    "eta": {"type": "number"},
    "kernel": {"type": "string"},
    "T": {"type": "number"},
    "initial_data": {"type": ["string", "array"], "items": {"type": "string"}, "minItems": 1},
    "domain": {
        "type": "array",
        "items": {"type": "number"},
        "minItems": 2,
        "maxItems": 2,
    },
    "bc": {"enum": [b.value for b in BoundaryCondition]},
    "base_dx": {"type": "number"},
    "level": {"type": "integer"},
    "levels": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
    "reference_level": {"type": "integer"},
    "time_ratio": {"type": "number"},
    "schemes": {"type": "array", "items": _SCHEME_SCHEMA, "minItems": 1},
    "clip": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "enabled": {"type": "boolean"},
            "C": {"type": "number"},
            "delta": {"type": "number"},
        },
    },
    "positivity": {"type": "boolean"},
    "safety": {"type": "number"},
}

_TOP_LEVEL_EXTRA = {
    "name": {"type": "string"},
    "out": {"type": "string"},
}

_SINGLE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "T"],
    "properties": {**_EXPERIMENT_PROPERTIES, **_TOP_LEVEL_EXTRA},
}

_PRESET_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiments"],
    "properties": {
        **_TOP_LEVEL_EXTRA,
        "experiments": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["model", "T"],
                "properties": _EXPERIMENT_PROPERTIES,
            },
        },
    },
}


# ---------------------------------------------------------------------------
# schema checking
# ---------------------------------------------------------------------------
#
# The two schemas above use a small part of JSON Schema (draft 2020-12), and
# this walk implements exactly that part, _SCHEMA_KEYWORDS.  It reports the
# error jsonschema's best_match would pick, with the same message and path.
# The schemas check structure only: types, keys, enums and sizes.  Every rule
# on a value (ranges, finiteness) is checked once, by the dataclass or factory
# that holds the value.  An error is a tuple (path, message).


def _is_type(x, kind: "str | list[str]") -> bool:
    if isinstance(kind, list):  # any of the kinds
        return any(_is_type(x, k) for k in kind)
    if kind in ("number", "integer"):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        return kind == "number" or isinstance(x, int) or x.is_integer()
    return isinstance(x, {"object": dict, "array": list, "string": str, "boolean": bool}[kind])


def _type(kind, x):
    if not _is_type(x, kind):
        shown = ", ".join(map(repr, kind if isinstance(kind, list) else [kind]))
        yield f"{x!r} is not of type {shown}"


def _extras(x, schema):
    # additionalProperties is false in every schema here
    extras = sorted(set(x) - set(schema.get("properties", {}))) if isinstance(x, dict) else []
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        names = ", ".join(map(repr, extras))
        yield f"Additional properties are not allowed ({names} {verb} unexpected)"


def _size(bound, x, kind, low):
    if _is_type(x, kind) and (len(x) < bound if low else len(x) > bound):
        if low:
            yield f"{x!r} {'should be non-empty' if bound == 1 else 'is too short'}"
        else:
            yield f"{x!r} {'is expected to be empty' if bound == 0 else 'is too long'}"


# keyword -> (value, instance, schema) -> messages of the instance's own errors
_CHECKS = {
    "type": lambda kind, x, _: _type(kind, x),
    "enum": lambda values, x, _: [] if x in values else [f"{x!r} is not one of {values!r}"],
    "required": lambda names, x, _: [
        f"{name!r} is a required property"
        for name in names
        if isinstance(x, dict) and name not in x
    ],
    "additionalProperties": lambda _, x, schema: _extras(x, schema),
    "minItems": lambda n, x, _: _size(n, x, "array", True),
    "maxItems": lambda n, x, _: _size(n, x, "array", False),
    "minLength": lambda n, x, _: _size(n, x, "string", True),
}
#: the keywords the walk implements; the two schemas may use no others
_SCHEMA_KEYWORDS = frozenset(_CHECKS) | {"properties", "items"}


def _errors(schema: dict, x, path: tuple = ()):
    """Every error of ``x`` under ``schema`` as (path, message), in the order
    jsonschema yields them."""
    for keyword, value in schema.items():
        if keyword == "properties":
            if isinstance(x, dict):
                for name, sub in value.items():
                    if name in x:
                        yield from _errors(sub, x[name], path + (name,))
        elif keyword == "items":
            if isinstance(x, list):
                for i, item in enumerate(x):
                    yield from _errors(value, item, path + (i,))
        else:
            for message in _CHECKS[keyword](value, x, schema):
                yield path, message


def _relevance(error):
    # best_match's order: shallower first, then the later sibling
    path, _ = error
    return -len(path), path


def _best_match(errors) -> tuple | None:
    """(path, message) of the error jsonschema.exceptions.best_match picks."""
    return max(errors, key=_relevance, default=None)


@dataclass
class RunConfig:
    """Validated, default-filled description of what to execute."""

    name: str
    out_dir: str
    experiments: tuple[Experiment, ...]


def _schema_path(path: tuple) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def _experiment_from_doc(doc: dict) -> Experiment:
    """The Experiment a document describes; Experiment checks that it can run."""
    params = {key: doc[key] for key in ("eta", "kernel") if key in doc}

    data = doc.get("initial_data", DEFAULT_INITIAL_DATA[doc["model"]])
    if not isinstance(data, str):
        data = tuple(data)

    if "schemes" in doc:
        schemes = tuple(
            SchemeSpec(
                scheme=s["scheme"],
                slope_variant=s.get("slope_variant", "v1"),
                theta=s.get("theta"),
                label=s.get("label"),
            )
            for s in doc["schemes"]
        )
    else:
        schemes = (
            SchemeSpec("lxf1"),
            SchemeSpec("lxf2"),
            SchemeSpec("nt", "v1"),
        )
        if make_model(doc["model"], **params).supports_v2:
            schemes = schemes + (SchemeSpec("nt", "v2"),)

    clip = NO_CLIP
    if "clip" in doc:  # a clip block turns clipping on unless it says otherwise
        clip = ClipConfig(**{"enabled": True, **doc["clip"]})

    if "level" in doc and "levels" in doc:
        raise ConfigurationError("'level' and 'levels' exclude each other; give one")
    # the schema, like JSON Schema, counts integral floats such as 3.0 as integers
    if "levels" in doc:
        levels = tuple(map(int, doc["levels"]))
    else:
        levels = (int(doc.get("level", 0)),)

    # keys the document sets go to the Experiment field of the same name;
    # Experiment states the default of each
    keys = ("domain", "bc", "base_dx", "reference_level", "time_ratio", "positivity",
            "safety")
    given = {key: doc[key] for key in keys if key in doc}
    if "reference_level" in doc:
        given["reference_level"] = int(doc["reference_level"])
    if "domain" in doc:
        given["domain"] = tuple(doc["domain"])
    if "label" in doc:
        given["name"] = doc["label"]
    return Experiment(
        model=doc["model"],
        model_params=params,
        t_final=doc["T"],
        initial_data=data,
        schemes=schemes,
        levels=levels,
        clip=clip,
        **given,
    )


def parse_config(doc, source: str = "<config>") -> RunConfig:
    """Validate a config document (dict or JSON text) and fill defaults."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{source}: not valid JSON: {exc}") from None
    preset = isinstance(doc, dict) and "experiments" in doc
    error = _best_match(_errors(_PRESET_SCHEMA if preset else _SINGLE_SCHEMA, doc))
    if error is not None:
        path, message = error
        raise ConfigurationError(f"{source}: {_schema_path(path)}: {message}")

    if preset:
        exp_docs = doc["experiments"]
    else:
        exp_docs = [{k: v for k, v in doc.items() if k in _EXPERIMENT_PROPERTIES}]
    experiments = []
    for i, exp_doc in enumerate(exp_docs):
        try:
            experiments.append(_experiment_from_doc(exp_doc))
        except SolverError as exc:
            # an error in a preset's experiment i names it; a single config's does not
            where = f"$.experiments[{i}]: " if preset else ""
            raise type(exc)(f"{source}: {where}{exc}") from None
    labels = [e.name for e in experiments]
    if len(experiments) > 1 and len(set(labels)) != len(labels):
        raise ConfigurationError(
            f"{source}: experiments need distinct labels, got {labels}"
        )
    name = doc.get("name") or experiments[0].model
    return RunConfig(
        name=name,
        out_dir=doc.get("out", "."),
        experiments=tuple(experiments),
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def preset_names() -> list[str]:
    root = resources.files("ntcentral").joinpath("presets")
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def load_preset(name: str) -> dict:
    root = resources.files("ntcentral").joinpath("presets")
    entry = root.joinpath(f"{name}.json")
    if not entry.is_file():
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {preset_names()}"
        )
    return json.loads(entry.read_text())


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


def _out_path(cfg: RunConfig, *parts: str) -> str:
    stem = "-".join(p for p in parts if p)
    return os.path.join(cfg.out_dir, f"{stem}.csv")


def _emit(path: str, text: str):
    _atomic_write(path, text)
    print(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _one_level_runs(cfg: RunConfig, command: str):
    """(exp, model, dt/dx, level, grid) per experiment of ``run`` or ``compare``.

    These run one level, so an experiment that lists more is refused before any run.
    """
    for exp in cfg.experiments:
        if len(exp.levels) > 1:
            raise ConfigurationError(
                f"{command} runs one level, but experiment {exp.name or exp.model!r} "
                f"lists levels {list(exp.levels)}; give \"level\", or use converge"
            )
    for exp in cfg.experiments:
        model, (level,) = exp.build_model(), exp.levels
        yield exp, model, resolve_time_ratio(exp, model), level, exp.grid_at(level)


def cmd_run(cfg: RunConfig, strict_cfl: bool = False) -> int:
    for exp, model, lam, level, grid in _one_level_runs(cfg, "run"):
        for spec in exp.schemes:
            state, log = run_simulation(
                exp, level, spec, strict_cfl=strict_cfl, record=True, time_ratio=lam
            )
            stored_run(exp, level, spec, lam, ran=(state, log))  # for compare to read
            _emit(
                _out_path(cfg, cfg.name, exp.name, spec.name),
                csv_table(*snapshot_columns(model, grid, state.values)),
            )
            _emit(
                _out_path(cfg, cfg.name, exp.name, spec.name, "monitor"),
                csv_table(*log.csv_columns(model.species)),
            )
    return EXIT_OK


def cmd_converge(cfg: RunConfig, strict_cfl: bool = False) -> int:
    lines = [CONVERGENCE_CSV_HEADER]
    for exp in cfg.experiments:
        report = convergence_study(exp, strict_cfl=strict_cfl)
        lines += report.csv_rows(f"{exp.name}:" if exp.name else "")
    _emit(_out_path(cfg, cfg.name), "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_compare(cfg: RunConfig, strict_cfl: bool = False) -> int:
    for exp, model, lam, level, grid in _one_level_runs(cfg, "compare"):
        names, columns = ["x"], [grid.centers]
        for spec in exp.schemes:
            values = stored_run(exp, level, spec, lam, strict_cfl)
            header, cols = snapshot_columns(model, grid, values)
            names += [f"{spec.name}:{h}" for h in header[1:]]
            columns += cols[1:]
        reference = compute_reference(exp, lam)
        factor = 2 ** (exp.reference_level - level)
        ref_coarse = restrict_values(reference, factor)
        header, cols = snapshot_columns(model, grid, ref_coarse)
        names += [f"reference:{h}" for h in header[1:]]
        columns += cols[1:]
        _emit(_out_path(cfg, cfg.name, exp.name), csv_table(names, columns))
    return EXIT_OK


def cmd_list_models() -> int:
    for name in sorted(MODEL_FACTORIES):
        model = make_model(name)
        kernels = ", ".join(k.name for k in model.kernels)
        keys = ", ".join(model_parameters(name))
        print(f"{name}: species {', '.join(model.species)}; kernels {kernels}; parameters {keys}")
    return EXIT_OK


def cmd_list_presets() -> int:
    for name in preset_names():
        doc = load_preset(name)
        models = sorted({e["model"] for e in doc["experiments"]})
        print(f"{name}: {', '.join(models)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntcentral",
        description="Central-scheme solver for 1-D systems of nonlocal balance laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "run each configured scheme once and write snapshots + monitors"),
        ("converge", "run a refinement study and write the error/rate table"),
        ("compare", "run all schemes at one level and write an overlay table"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="path to a JSON config document")
        p.add_argument("--preset", help="name of a packaged preset")
        p.add_argument("--out", help="output directory (default: config or '.')")
        p.add_argument("--strict-cfl", action="store_true",
                       help="abort when the runtime CFL estimate is exceeded")
    sub.add_parser("list-models", help="list the model zoo")
    sub.add_parser("list-presets", help="list packaged presets")
    return parser


def _load_config(args) -> RunConfig:
    if bool(args.config) == bool(args.preset):
        raise ConfigurationError("exactly one of --config or --preset is required")
    if args.preset:
        doc = load_preset(args.preset)
        source = f"preset {args.preset}"
    else:
        try:  # parse_config reads the text, so a file holding a JSON string stays a string
            with open(args.config) as fh:
                doc = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read {args.config}: {exc}") from None
        source = args.config
    cfg = parse_config(doc, source)
    if args.out:
        cfg.out_dir = args.out
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-models":
            return cmd_list_models()
        if args.command == "list-presets":
            return cmd_list_presets()
        cfg = _load_config(args)
        handler = {"run": cmd_run, "converge": cmd_converge, "compare": cmd_compare}
        return handler[args.command](cfg, args.strict_cfl)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
