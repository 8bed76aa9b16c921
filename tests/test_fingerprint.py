"""Numerics fingerprint: SHA-256 of three steps of every scheme.

Each (model, boundary condition) pair is run for three steps of every
scheme it supports, at 80 cells (every band by the direct sum) and at 2560
cells (every band by the FFT).  The digest covers the bytes of each state.
The discrete entropy residual, which reads the step's intermediate fields
on the window ``Stepper.step_with_fields`` publishes (cells -1 .. J), is
pinned the same way on Arrhenius: its per-step values on a clean run are
round-off, so any change to that window or to the arithmetic behind it
moves a digest.
A change that moves any result by one ulp changes a digest, and then the
cached references (keyed by ``harness._CACHE_TAG``) may be stale too: so
the digests and the tag are pinned side by side, and neither can move
without the other.  The digests hold for IEEE double arithmetic with
numpy 2.4's ``numpy.fft`` (pocketfft); another FFT build may round
differently.
"""

import hashlib

import numpy as np
import pytest

from ntcentral import harness
from ntcentral.core import BoundaryCondition, Grid, init_cell_averages
from ntcentral.harness import resolve_profiles
from ntcentral.limiters import NO_CLIP, ClipConfig
from ntcentral.models import MODEL_FACTORIES, ModelDef, make_model
from ntcentral.schemes import SchemeSpec, Stepper

CACHE_TAG = "ntc-8"
DIGESTS = {
    ("arrhenius", "periodic"): "5a48724863ed1cecfae873b2dad911f28f5dbda1f67b348d228c888c5a4be6b5",
    ("arrhenius", "constant"): "25ce6d6466b2fcbd041addd7dbdeb33550c7f7506ca3fdb87d99e7f6ae9e5050",
    ("arrhenius", "zero"): "831a447fda385687dc9d1b0451a81c65ee0b76e3412eff79842265469a1c780d",
    ("garz", "periodic"): "9537c8827199b8be20e6b0f350b05662b00bd5bc67629a18a9ee1568058c3b02",
    ("garz", "constant"): "1bae8f8db7457738378b5e9e695f4b6121fc4cd5acd9939f3f85bf9b22f87acf",
    ("garz", "zero"): "d696183dee94e582d1122c6ae67c4e7769c06c18506c10d284dbe2d03e76101f",
    ("keyfitz-kranzer", "periodic"): "e4f8d7d568b62296fc604d5a08683870923e8cac6b50d6258d99cec8ec710b88",
    ("keyfitz-kranzer", "constant"): "0eddec399b8969461f76afc7185bb36b63d503f0a3a3d6e1c91c3bc17b7f6804",
    ("keyfitz-kranzer", "zero"): "1e6bbfd171b575464a599b1bd2f0e6a125dde4c5b64e1d2aad32125f4bdf22d0",
    ("multilane", "periodic"): "867a47317b60cf14ae18b26c515195dfcde118d53eaa21b02a37bb9f6d660087",
    ("multilane", "constant"): "317b9bfd5624bbed7f9e3ecc9223e567919d50963abf62462ef17eecc8e62f6f",
    ("multilane", "zero"): "aec37573232f337e93a4e3257684a0a60d8085480dafe9c4b71a491f372a745e",
    ("nonlocal-euler", "periodic"): "c9e9c00f2e8612913fe867335aabddadaeedaed0c0af3ccb80fc3936d5ad88fe",
    ("nonlocal-euler", "constant"): "a32d2e98ac119faf665eeb292b804b8de7cd39b073fe593a3a64025e23a40623",
    ("nonlocal-euler", "zero"): "2eb6b086d147bbbb076f66c060d89942b7fdea9b6283409cd81302b30626e7dd",
}

DATA = {
    "keyfitz-kranzer": "kk-sine",
    "arrhenius": "arrhenius-sine",
    "multilane": "multilane-sine",
    "nonlocal-euler": "euler-sine",
    "garz": "garz-sine",
}
CELLS = (80, 2560)
STEPS = 3
TIME_RATIO = 0.1


def fingerprint(model: ModelDef, bc: str, specs=None, clip: ClipConfig = NO_CLIP) -> str:
    """Digest of the states after STEPS steps of each spec, every scheme the
    model supports by default."""
    if specs is None:
        specs = [SchemeSpec("nt", "v1"), SchemeSpec("lxf1"), SchemeSpec("lxf2")]
        if model.supports_v2:
            specs.append(SchemeSpec("nt", "v2"))
    digest = hashlib.sha256()
    for cells in CELLS:
        grid = Grid(-1.0, 1.0, cells)
        v0 = init_cell_averages(resolve_profiles(DATA[model.name]), grid)
        for spec in specs:
            stepper = Stepper(model, grid, bc, spec, clip)
            v = v0
            for _ in range(STEPS):
                v = stepper.step(v, TIME_RATIO * grid.dx)
            digest.update(np.ascontiguousarray(v, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("bc", [b.value for b in BoundaryCondition])
@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_numerics_fingerprint(name, bc):
    assert harness._CACHE_TAG == CACHE_TAG
    assert fingerprint(make_model(name), bc) == DIGESTS[name, bc]


# nt-v2 with clipped slopes on the coupled models.  v2 never clips the slopes
# of g(rho): with the identity g they equal the state's own slopes only when
# clipping is off.  The cap C dx^delta = dx/4 binds on the sine data (slopes
# up to 0.63 and 1.57), where the default cap sqrt(dx) would not.
CLIP = ClipConfig(enabled=True, C=0.25, delta=1.0)
CLIPPED_DIGESTS = {
    ("keyfitz-kranzer", "periodic"): "caddff74ee9a26d7433a4cd4682dd77b589b4c69195aea7eb227f54dfc36e285",
    ("keyfitz-kranzer", "zero"): "02fea1ad97a1d15d8703aa1297aedf0c54a7aae94352b1001456a5bbb84f910b",
    ("multilane", "periodic"): "99047bb53d345256aff40b3dd3567dca3959123d70a91b5bde916aa9424d7188",
    ("multilane", "zero"): "4b2978a208f43ca82aa9add00299349a5ad68502956fa4ddd6af73d479e598d4",
}


@pytest.mark.parametrize("name, bc", sorted(CLIPPED_DIGESTS))
def test_clipped_product_rule_fingerprint(name, bc):
    digest = fingerprint(make_model(name), bc, [SchemeSpec("nt", "v2")], CLIP)
    assert digest == CLIPPED_DIGESTS[name, bc]


# Nonlocal terms that are not consecutive species: multilane's lanes swapped
# and one lane convolved twice, and GARZ's velocity beside its density, each
# term with its own copy of the model's kernel.  nt-v2 runs where dV exists.
SOURCED_DIGESTS = {
    ("multilane", (1, 0), "periodic"): "ed7d19bae394f4b509bc4fe824713f7c44cef320fb60e77a3b76411528924d7c",
    ("multilane", (1, 0), "zero"): "576a57208841af5a4523594346535362e1c155d1ec3803de3d483215e301fe3c",
    ("multilane", (1, 1), "periodic"): "de4978c033229c353ecfc6439f1c6d69255fb30d2ff69b876440424002a2925a",
    ("multilane", (1, 1), "zero"): "d30577509944a482e9d3d9fdd77d90a4c1953b45dd6258e20b869637ab89cdcb",
    ("garz", ("hook", 0), "periodic"): "f76d8ea1d6565d0cf1b8405f5ff00e2b4a6bac0a884c956302f68e894fbab6ea",
    ("garz", ("hook", 0), "zero"): "ba124283a32ad45132d4dcab118e5671a533f6f56346ebcf7f1c83fb162fea16",
}


@pytest.mark.parametrize("name, sources, bc", list(SOURCED_DIGESTS))
def test_reordered_and_derived_sources_fingerprint(with_sources, name, sources, bc):
    model = with_sources(name, sources)
    specs = [SchemeSpec("nt", "v1"), SchemeSpec("lxf2")]
    if model.supports_v2:
        specs.append(SchemeSpec("nt", "v2"))
    assert fingerprint(model, bc, specs) == SOURCED_DIGESTS[name, sources, bc]


ENTROPY_DIGESTS = {
    ("periodic", "v1"): "821ab1c660c63b367a9ed99ce39e3c961316734adba445bc9a438aa61d61a9d6",
    ("periodic", "v2"): "86e5e6437bddbe808cebd426b354b9b8762c272abab8a556c165173d4d288ebc",
    ("constant", "v1"): "cef3dc196e2f78247afd5654becfca546fb18b47ee0655090e2f81ae1b8d0311",
    ("constant", "v2"): "ba5f6c26adc1c081ced67f0e824e98c04ff77d0fb8a32f2a01706cf2fe2b803a",
    ("zero", "v1"): "ef2c83caf2855a38c73e5921acfb7c4502460a8db735a7e4601ba7d8d9e43acd",
    ("zero", "v2"): "5ab6873cd87163d9258e41c8b61d406b230421da9a53be4515f893a618905979",
}
ZETAS = (0.3, 0.5, 0.7)


def entropy_fingerprint(bc: str, variant: str) -> str:
    model = make_model("arrhenius")
    digest = hashlib.sha256()
    for cells in CELLS:
        grid = Grid(-1.0, 1.0, cells)
        v0 = init_cell_averages(resolve_profiles("arrhenius-sine"), grid)
        for zeta in ZETAS:
            res = harness.entropy_residual(
                model, grid, v0, zeta, STEPS * TIME_RATIO * grid.dx, TIME_RATIO, bc, variant
            )
            assert res.shape == (STEPS,)
            digest.update(np.ascontiguousarray(res, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("variant", ["v1", "v2"])
@pytest.mark.parametrize("bc", [b.value for b in BoundaryCondition])
def test_entropy_residual_fingerprint(bc, variant):
    assert entropy_fingerprint(bc, variant) == ENTROPY_DIGESTS[bc, variant]
