"""Command line driver: config parsing, CSV outputs, exit codes."""

import hashlib
import itertools
import json
import math
import os
import random

import numpy as np
import pytest

from ntcentral import cli
from ntcentral.cli import load_preset, main, parse_config, preset_names
from ntcentral.core import init_cell_averages
from ntcentral.errors import ConfigurationError
from ntcentral.harness import CACHE_ENV, Experiment, resolve_profiles
from ntcentral.limiters import ClipConfig


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_doc(**kw):
    doc = {
        "model": "arrhenius",
        "T": 0.02,
        "eta": 0.2,
        "time_ratio": 0.2,
        "schemes": [{"scheme": "nt", "slope_variant": "v1"}],
    }
    doc.update(kw)
    return doc


# -- listing commands ---------------------------------------------------------


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    for name in ("arrhenius", "garz", "keyfitz-kranzer", "multilane", "nonlocal-euler"):
        assert name in out
    assert (
        "keyfitz-kranzer: species rho1, rho2; kernels backward-power52, "
        "backward-power52; parameters eta"
    ) in out
    assert "arrhenius: species rho; kernels constant; parameters eta, kernel" in out


def test_a_parameter_the_model_does_not_take_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": "keyfitz-kranzer", "T": 0.01, "kernel": "linear"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "model 'keyfitz-kranzer' takes no parameter 'kernel' (it takes eta)" in err
    assert "models that take 'kernel': arrhenius, garz" in err
    assert not list(tmp_path.glob("*.csv"))


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 9
    assert "table-arrhenius: arrhenius" in out and "fig-euler: nonlocal-euler" in out


def test_a_bad_command_line_leaves_the_next_call_as_it_was(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_doc())
    outputs = []
    for out in ("first", "second"):
        assert main(["list-presets"]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        snapshot = (tmp_path / out / "arrhenius-nt-v1.csv").read_bytes()
        outputs.append((capsys.readouterr().out.replace(out, "<out>"), snapshot))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert outputs[1] == outputs[0]


def test_a_preset_kind_is_an_unknown_key(tmp_path, capsys):
    doc = load_preset("fig-euler")
    doc["kind"] = "compare"
    cfg = write_config(tmp_path, doc)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Additional properties are not allowed ('kind' was unexpected)" in err
    assert not list(tmp_path.glob("*.csv"))


def test_every_packaged_preset_parses():
    names = preset_names()
    assert len(names) == 9
    for name in names:
        cfg = parse_config(load_preset(name), name)
        assert cfg.experiments


# -- run ------------------------------------------------------------------------


def test_run_writes_snapshot_and_monitor(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_doc())
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    snap = os.path.join(str(tmp_path), "arrhenius-nt-v1.csv")
    mon = os.path.join(str(tmp_path), "arrhenius-nt-v1-monitor.csv")
    assert printed == [snap, mon]
    lines = open(snap).read().splitlines()
    assert lines[0] == "x,rho"
    assert len(lines) == 41
    mlines = open(mon).read().splitlines()
    assert mlines[0] == "t,mass:rho,min:rho,max:rho,tv:rho"
    assert float(mlines[1].split(",")[0]) == 0.0


def test_zero_horizon_snapshot_is_the_projected_data(tmp_path):
    cfg = write_config(tmp_path, tiny_doc(T=0.0))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "arrhenius-nt-v1.csv").read().splitlines()[1:]
    got = np.array([float(l.split(",")[1]) for l in lines])
    from ntcentral.core import Grid

    want = init_cell_averages(resolve_profiles("arrhenius-sine"), Grid(-1.0, 1.0, 40))
    np.testing.assert_array_equal(got, want[0])


def test_garz_snapshot_carries_derived_column(tmp_path):
    doc = {
        "model": "garz",
        "T": 0.0,
        "schemes": [{"scheme": "nt", "slope_variant": "v1"}],
    }
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "garz-nt-v1.csv").read().splitlines()
    assert lines[0] == "x,rho,q,w"
    x, rho, q, w = (float(tok) for tok in lines[5].split(","))
    assert w == pytest.approx(q / rho)


def test_unset_keys_take_the_experiment_and_clip_defaults():
    exp = parse_config(tiny_doc()).experiments[0]
    default = Experiment(model="arrhenius", t_final=0.02, initial_data="arrhenius-sine")
    for name in ("domain", "bc", "base_dx", "reference_level", "positivity", "safety",
                 "name", "clip"):
        assert getattr(exp, name) == getattr(default, name), name
    clip = parse_config(tiny_doc(clip={"C": 2.0})).experiments[0].clip
    assert clip == ClipConfig(enabled=True, C=2.0, delta=0.5)


@pytest.mark.parametrize("key", ["verbose", "reference_variant", "model_params"])
@pytest.mark.parametrize("command", ["run", "converge", "compare"])
def test_settings_no_config_uses_are_unknown_keys(tmp_path, capsys, command, key):
    # the reference variant follows from the model, and eta and kernel are top-level keys
    value = {"verbose": True, "reference_variant": "v1", "model_params": {"eta": 0.2}}[key]
    cfg = write_config(tmp_path, tiny_doc(**{key: value}))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"Additional properties are not allowed ({key!r} was unexpected)" in err
    assert not list(tmp_path.glob("*.csv"))


def test_a_scheme_the_model_cannot_run_fails_before_the_reference(tmp_path, capsys):
    # GARZ has no dV: an nt-v2 scheme is refused when the config is read,
    # not after converge has computed and cached the reference
    doc = {
        "model": "garz",
        "T": 0.001,
        "time_ratio": 0.05,
        "levels": [0, 1],
        "reference_level": 2,
        "schemes": [{"scheme": "nt", "slope_variant": "v2"}],
    }
    cfg = write_config(tmp_path, doc)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("cache/ref-*.npy"))
    assert f"{cfg}: model 'garz' gives no dV" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"initial_data": "kk-sine"}, "initial data has 2 species"),
        ({"kernel": "backward-power52"}, "arrhenius model needs a forward-looking kernel"),
    ],
)
def test_an_experiment_error_names_the_config(tmp_path, capsys, change, message):
    cfg = write_config(tmp_path, tiny_doc(**change))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"error: {cfg}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "converge", "compare"])
def test_level_and_levels_together_are_a_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, tiny_doc(level=0, levels=[0, 1], reference_level=3))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: 'level' and 'levels' exclude each other" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["run", "compare"])
def test_run_and_compare_refuse_more_than_one_level(tmp_path, capsys, command):
    cfg = write_config(tmp_path, tiny_doc(levels=[1, 2], reference_level=3))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{command} runs one level, but experiment 'arrhenius' lists levels [1, 2]" in err
    assert '"level"' in err and "converge" in err
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("cache/ref-*.npy"))


def test_run_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, tiny_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    a = (out1 / "arrhenius-nt-v1.csv").read_bytes()
    b = (out2 / "arrhenius-nt-v1.csv").read_bytes()
    assert a == b


# -- converge ----------------------------------------------------------------------


def test_converge_csv_layout(tmp_path):
    doc = tiny_doc(levels=[0, 1], reference_level=3)
    cfg = write_config(tmp_path, doc)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "arrhenius.csv").read().splitlines()
    assert lines[0] == "scheme,n,dx,l1_error,rate"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "nt-v1" and first[1] == "0" and first[4] == ""
    second = lines[2].split(",")
    assert second[1] == "1" and float(second[4]) > 1.0


def test_converge_multi_experiment_prefixes_labels(tmp_path):
    doc = {
        "name": "pair",
        "experiments": [
            {**tiny_doc(levels=[0, 1], reference_level=3), "label": "base"},
            {
                **tiny_doc(levels=[0, 1], reference_level=3, kernel="linear"),
                "label": "lin",
            },
        ],
    }
    cfg = write_config(tmp_path, doc)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    body = open(tmp_path / "pair.csv").read()
    assert "base:nt-v1,0," in body and "lin:nt-v1,0," in body


@pytest.mark.parametrize("command", ["run", "converge", "compare"])
def test_no_command_takes_threads(tmp_path, capsys, command):
    cfg = write_config(tmp_path, tiny_doc())
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# -- compare ----------------------------------------------------------------------------


def test_compare_emits_aligned_columns(tmp_path):
    doc = tiny_doc(
        level=0,
        reference_level=2,
        schemes=[{"scheme": "lxf1"}, {"scheme": "nt", "slope_variant": "v2"}],
    )
    doc.pop("T")
    doc["T"] = 0.02
    cfg = write_config(tmp_path, doc)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "arrhenius.csv").read().splitlines()
    assert lines[0] == "x,lxf1:rho,nt-v2:rho,reference:rho"
    assert len(lines) == 41
    row = [float(tok) for tok in lines[20].split(",")]
    # second order sits nearer the fine reference than first order does
    assert abs(row[2] - row[3]) < abs(row[1] - row[3])


# -- the bytes of the CSVs ---------------------------------------------------------------

# SHA-256 over each kind of CSV a figure preset writes, its files in name order,
# with the horizon cut to 3.5 steps and the reference one level finer; repeated
# runs are compared elsewhere, these pin the bytes across changes to the code
CSV_DIGESTS = {
    "fig-arrhenius": {
        "snapshot": "09acf7f4cfc1e2fc855c0bf99c456387cb8b3362df52ed08ac1f7838f6d266d3",
        "monitor": "e9fd0956c2e76fd6bfe74586108bf6c6c640acfec3bd487afcedcb9771763aa9",
        "compare": "167fc9017e40d25e3b99025ddb3ec80ca5dba3e46d35db92e1ff372992acec93",
    },
    "fig-euler": {
        "snapshot": "90fe9927ba6ff0ef4450d9cd8f8934ae4f12e13246f21e7b2eac28d117aa6e29",
        "monitor": "8785f4fd1d75e35230de2ad42e4b506e2c9cd2225cd897cd91948149c7e9a619",
        "compare": "37047ca7477c3b3945ab8b3a1116cbaccfe7d3fa87d71f5d6f009fadf1f3f98e",
    },
    "fig-garz": {
        "snapshot": "d8f28e61f7f67b08d8ade47b8b3a0d4681a8079935db3eaa7b28b7daf575d386",
        "monitor": "73dc82560ed10849077f6f198558129a8037f23a81694f79fe825638c80fd325",
        "compare": "6ed5deac39e66ef4fe03105bbe5351d04077d930ac54a774ab72d55a8a204060",
    },
    "fig-keyfitz-kranzer": {
        "snapshot": "1ae77fa720ea054da9f867f3483b68cdbaf024f4ec9eaec90e4554aa34078f87",
        "monitor": "040fd81349f2935b870c0a2235d3333697995d69a3794541519bc19973bc2cb6",
        "compare": "f2f0db8ecfb2259e42a475b3e70bda9d78804515ea21bd43d23d27d476d7df2c",
    },
}


def _short_figure_csv_digests(tmp_path, preset):
    """{kind: SHA-256 of its files} of ``run`` and ``compare`` on a cut ``preset``."""
    doc = load_preset(preset)
    for exp in doc["experiments"]:
        exp["T"] = 3.5 * exp["time_ratio"] * exp["base_dx"]
        exp["reference_level"] = exp["level"] + 1
    cfg = write_config(tmp_path, doc)
    for command in ("run", "compare"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    kinds = {
        "snapshot": [p for p in (tmp_path / "run").glob("*.csv") if "-monitor" not in p.name],
        "monitor": list((tmp_path / "run").glob("*-monitor.csv")),
        "compare": list((tmp_path / "compare").glob("*.csv")),
    }
    digests = {}
    for kind, paths in kinds.items():
        sha = hashlib.sha256()
        for path in sorted(paths):
            sha.update(path.name.encode() + b"\0" + path.read_bytes())
        digests[kind] = sha.hexdigest()
    return digests


@pytest.mark.parametrize("preset", sorted(CSV_DIGESTS))
def test_figure_preset_csvs_keep_their_bytes(tmp_path, preset):
    assert _short_figure_csv_digests(tmp_path, preset) == CSV_DIGESTS[preset]


# -- failure modes -----------------------------------------------------------------------


def test_unknown_key_is_a_schema_error(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_doc(viscosity=0.1))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "$" in err and "viscosity" in err


def test_missing_required_fields(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": "arrhenius"})
    assert main(["run", "--config", cfg]) == 2
    assert "'T' is a required property" in capsys.readouterr().err


def test_fractional_kernel_support_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_doc(eta=0.05, base_dx=0.04))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "integer multiple" in capsys.readouterr().err


def test_unknown_preset(capsys):
    assert main(["run", "--preset", "table-burgers"]) == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err and "table-arrhenius" in err


def test_strict_cfl_aborts_with_numeric_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_doc(time_ratio=0.5))
    code = main(["run", "--config", cfg, "--out", str(tmp_path), "--strict-cfl"])
    assert code == 3
    assert "CFL estimate exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["nonlocal-euler", "keyfitz-kranzer"])
def test_strict_cfl_accepts_the_derived_time_step(tmp_path, capsys, model):
    # without time_ratio the step comes from model.lip_flux, and the monitor
    # checks that same bound, so a strict run must not reject its own step
    doc = {"model": model, "T": 0.001, "schemes": [{"scheme": "nt", "slope_variant": "v1"}]}
    cfg = write_config(tmp_path, doc)
    code = main(["run", "--config", cfg, "--out", str(tmp_path), "--strict-cfl"])
    assert code == 0, capsys.readouterr().err
    monitor = open(tmp_path / f"{model}-nt-v1-monitor.csv").read().splitlines()
    assert len(monitor) == 3  # header, t = 0 and the single step


def test_exactly_one_config_source(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_doc())
    assert main(["run", "--config", cfg, "--preset", "table-arrhenius"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["run"]) == 2


def test_unreadable_and_invalid_json(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    bad.write_bytes(b'{"model": "\xff"}')
    assert main(["run", "--config", str(bad)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_duplicate_experiment_labels_rejected():
    doc = {
        "experiments": [
            {**tiny_doc(), "label": "same"},
            {**tiny_doc(kernel="linear"), "label": "same"},
        ]
    }
    with pytest.raises(ConfigurationError, match="distinct labels"):
        parse_config(doc, "dup")


def test_bad_preset_message_is_the_best_match():
    # the message names the error jsonschema.best_match ranks first, as
    # jsonschema.validate raises it; each case has more than one error, and in
    # the last one the first error found is not the best match
    cases = [
        (
            {"T": "long", "schemes": [{"scheme": "weno"}]},
            "$.experiments[0].T: 'long' is not of type 'number'",
        ),
        (
            {"bc": "reflective"},
            "$.experiments[0].bc: 'reflective' is not one of ['periodic', 'constant', 'zero']",
        ),
        (
            {"domain": ["a", 1.0, 2.0]},
            "$.experiments[0].domain: ['a', 1.0, 2.0] is too long",
        ),
    ]
    for change, message in cases:
        doc = load_preset("fig-garz")
        doc["experiments"][0].update(change)
        with pytest.raises(ConfigurationError) as err:
            parse_config(doc, "fig-garz.json")
        assert str(err.value) == f"fig-garz.json: {message}"


@pytest.mark.parametrize("text", ["3", "null", "true", "[1]", '"experiments"'])
def test_a_top_level_that_is_not_an_object_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    instance = json.loads(text)
    assert f"{path}: $: {instance!r} is not of type 'object'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, literal, where, shown",
    [
        ("T", "NaN", "T", "nan"),
        ("T", "1e400", "T", "inf"),
        ("time_ratio", "NaN", "time_ratio", "nan"),
        ("eta", "Infinity", "eta", "inf"),
        ("domain", "[0, Infinity]", "domain[1]", "inf"),
    ],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, key, literal, where, shown):
    # Python's JSON reader accepts these; without the check they crash in the numerics
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(**{key: "@"})).replace('"@"', literal))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: $.{where}: {shown} is not a finite number" in err
    assert "Traceback" not in err and not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command, keys",
    [
        ("converge", {"levels": [0, 1], "reference_level": 3}),
        ("compare", {"level": 1, "reference_level": 3}),
    ],
)
def test_integral_float_levels_run_as_integers(tmp_path, command, keys):
    # the schema, like JSON Schema, accepts 3.0 where it asks for an integer
    outputs = []
    for kind in (int, float):
        given = {
            k: [kind(x) for x in v] if isinstance(v, list) else kind(v)
            for k, v in keys.items()
        }
        out = tmp_path / kind.__name__
        cfg = write_config(tmp_path, tiny_doc(**given), f"{kind.__name__}.json")
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        outputs.append((out / "arrhenius.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("literal, shown", [("2000", "2000"), ("1e300", "1e+300")])
@pytest.mark.parametrize("command", ["run", "converge", "compare"])
def test_a_level_too_fine_for_doubles_is_a_config_error(
    tmp_path, capsys, command, literal, shown
):
    # base_dx * 2**-level underflows: the grid has no finite cell count
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(reference_level="@")).replace('"@"', literal))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"level {shown} is too fine" in err and "Traceback" not in err


# -- the schema checker against jsonschema ------------------------------------------------


def _schemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schemas(sub)
    if "items" in schema:
        yield from _schemas(schema["items"])


@pytest.mark.parametrize("schema", [cli._SINGLE_SCHEMA, cli._PRESET_SCHEMA])
def test_schemas_use_only_the_keywords_the_checker_implements(schema):
    for sub in _schemas(schema):
        assert set(sub) <= cli._SCHEMA_KEYWORDS, set(sub) - cli._SCHEMA_KEYWORDS
        kinds = {"object", "array", "string", "boolean", "number", "integer"}
        kind = sub.get("type", [])
        assert set(kind if isinstance(kind, list) else [kind]) <= kinds
        assert sub.get("additionalProperties", False) is False


@pytest.mark.parametrize("schema", [cli._SINGLE_SCHEMA, cli._PRESET_SCHEMA])
def test_schemas_are_valid_draft_2020_12(schema):
    jsonschema = pytest.importorskip("jsonschema")
    assert jsonschema.validators.validator_for(schema) is jsonschema.Draft202012Validator
    jsonschema.Draft202012Validator.check_schema(schema)


# Replacement values for any field: every JSON type, the schemas' bounds and
# enum members, and values that nest errors one level down.
_VALUES = [
    None, True, 0, 1, 2, -1, 0.5, 1.5, -0.5, float("nan"), float("inf"), "", "x",
    "periodic", "zero", "nt", "v2", "arrhenius", [], ["x"], [0], [1, 2], [-1, 0, 1],
    ["a", 1], {}, {"x": 1}, [{}], [{"scheme": "weno"}],
    [{"scheme": "nt", "theta": 2, "label": ""}],
    {"C": -1, "delta": 2}, {"enabled": 1, "y": 0},
]


def _nested(value):
    """(key, field value) pairs that hold ``value`` one level inside a field."""
    yield from (("domain", [value, 1.0]), ("levels", [0, value]), ("initial_data", ["s", value]))
    for key in ("scheme", "slope_variant", "theta", "label", "extra"):
        yield "schemes", [{"scheme": "nt", key: value}]
    for key in ("enabled", "C", "delta", "extra"):
        yield "clip", {key: value}


def _variants(doc, keys, rng):
    """``doc`` with one field changed, removed or added, and with two changed."""
    for key in keys:
        for value in _VALUES:
            yield {**doc, key: value}
        yield {k: v for k, v in doc.items() if k != key}
    for value in _VALUES:
        for key, nested in _nested(value):
            if key in keys:
                yield {**doc, key: nested}
    yield {**doc, "viscosity": 0.1, "a": 1}
    for a, b in itertools.combinations(keys, 2):
        yield {**doc, a: rng.choice(_VALUES), b: rng.choice(_VALUES)}


def _value_at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def test_checker_gives_the_best_match_of_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    oracles = {id(s): jsonschema.Draft202012Validator(s)
               for s in (cli._SINGLE_SCHEMA, cli._PRESET_SCHEMA)}
    rng = random.Random(20261019)
    docs = [3, None, True, 1.5, "experiments", [], ["experiments"], [{"model": "garz"}]]
    for k, name in enumerate(preset_names()):
        preset = load_preset(name)
        first = preset["experiments"][0]
        variants = itertools.chain(
            _variants(preset, sorted(cli._PRESET_SCHEMA["properties"]), rng),
            ({**preset, "experiments": [e]}
             for e in _variants(first, sorted(cli._EXPERIMENT_PROPERTIES), rng)),
            _variants({**first, "name": name}, sorted(cli._SINGLE_SCHEMA["properties"]), rng),
        )
        # every other variant, alternating between presets, so that each
        # mutation meets several presets and the test stays within seconds
        docs += itertools.islice(variants, k % 2, None, 2)
    differ = 0
    for doc in docs:
        is_preset = isinstance(doc, dict) and "experiments" in doc
        schema = cli._PRESET_SCHEMA if is_preset else cli._SINGLE_SCHEMA
        error = jsonschema.exceptions.best_match(oracles[id(schema)].iter_errors(doc))
        want = error and (tuple(error.absolute_path), error.message)
        got = cli._best_match(cli._errors(schema, doc))
        if got != want:
            # the one deliberate difference: a number must be finite
            path, message = got
            assert message.endswith("is not a finite number"), (doc, got, want)
            assert not math.isfinite(_value_at(doc, path)), (doc, got, want)
            differ += 1
    assert len(docs) > 10_000 and 0 < differ < len(docs) // 10
