import random

import pytest

from colift.homs import HomRegistry, SectionError, RingHom, hom_apply, hom_section
from colift.homs import hom_from_json
from colift.rings import RingError, parse_element, residue, integers

REG = HomRegistry.builtin()
FLAGSHIP = REG.get("zxy_to_laurent")
MOD5 = REG.get("z_to_z5")


def test_flagship_sends_xy_to_one():
    f = parse_element(FLAGSHIP.source, "x*y")
    assert hom_apply(FLAGSHIP, f) == FLAGSHIP.target.one()


def test_apply_zero():
    assert hom_apply(FLAGSHIP, FLAGSHIP.source.zero()).is_zero()


def test_apply_monomial():
    f = parse_element(FLAGSHIP.source, "3*x^2")
    assert hom_apply(FLAGSHIP, f) == parse_element(FLAGSHIP.target, "3*u^2")


def test_section_negative_power_goes_to_second_generator():
    b = parse_element(FLAGSHIP.target, "u^-3")
    a = hom_section(FLAGSHIP, b)
    assert a == parse_element(FLAGSHIP.source, "y^3")
    assert hom_apply(FLAGSHIP, a) == b


def test_section_zero_is_zero():
    assert hom_section(FLAGSHIP, FLAGSHIP.target.zero()).is_zero()
    assert hom_section(MOD5, MOD5.target.zero()).is_zero()


def test_section_monomial_wise():
    b = parse_element(FLAGSHIP.target, "5*u^2 - u^-1")
    a = hom_section(FLAGSHIP, b)
    assert a == parse_element(FLAGSHIP.source, "5*x^2 - y")
    assert hom_apply(FLAGSHIP, a) == b


def test_residue_section_lifts_small_representative():
    b = MOD5.target.from_int(3)
    assert hom_section(MOD5, b) == MOD5.source.from_int(3)


def test_unregistered_section_errors():
    h = RingHom(source=integers(), target=residue(5), section_rule="")
    with pytest.raises(SectionError):
        hom_section(h, residue(5).from_int(1))


def _random_target_element(ring, rng):
    if ring.kind == "residue":
        return ring.from_int(rng.randrange(ring.modulus))
    out = ring.zero()
    for _ in range(rng.randrange(5)):
        out = out + ring.monomial(rng.randrange(-5, 6), rng.randrange(-9, 10))
    return out


@pytest.mark.parametrize("hom_name", HomRegistry.builtin().names())
def test_section_roundtrip_500_samples(hom_name):
    h = REG.get(hom_name)
    rng = random.Random(11)
    for _ in range(500):
        b = _random_target_element(h.target, rng)
        a = hom_section(h, b)
        assert a.ring == h.source
        assert hom_apply(h, a) == b
    assert hom_section(h, h.target.zero()).is_zero()


@pytest.mark.parametrize("hom_name", ["zxy_to_laurent", "z_to_z5"])
def test_apply_is_a_unital_ring_hom(hom_name):
    h = REG.get(hom_name)
    rng = random.Random(12)

    def sample_source():
        if h.source.kind == "integers":
            return h.source.from_int(rng.randrange(-20, 20))
        out = h.source.zero()
        for _ in range(rng.randrange(4)):
            key = tuple(rng.randrange(4) for _ in h.source.variables)
            out = out + h.source.monomial(key, rng.randrange(-5, 6))
        return out

    assert hom_apply(h, h.source.one()) == h.target.one()
    for _ in range(100):
        a, b = sample_source(), sample_source()
        assert hom_apply(h, a * b) == hom_apply(h, a) * hom_apply(h, b)
        assert hom_apply(h, a + b) == hom_apply(h, a) + hom_apply(h, b)


def test_registry_from_file_roundtrip(tmp_path):
    import json
    from colift.homs import hom_to_json
    path = tmp_path / "homs.json"
    path.write_text(json.dumps({"f": hom_to_json(FLAGSHIP)}), encoding="utf-8")
    reg = HomRegistry.from_file(path)
    h = reg.get("f")
    assert h.source == FLAGSHIP.source and h.target == FLAGSHIP.target
    assert h.section_rule == FLAGSHIP.section_rule
    with pytest.raises(KeyError):
        reg.get("missing")


def test_builtin_registry_passes_the_section_check():
    reg = HomRegistry.builtin()
    assert reg.names() == ["z_to_z101", "z_to_z5", "z_to_z7", "zxy_to_laurent"]


LAURENT_SPEC = {"source": {"kind": "polynomial", "vars": ["x", "y"], "coeff": "Z"},
                "target": {"kind": "laurent", "var": "u", "coeff": "Z"},
                "section": "laurent_monomial"}


@pytest.mark.parametrize("images, generator", [
    ({"x": "u^2", "y": "u^-1"}, "u"),
    ({"x": "u", "y": "u^-2"}, "u^-1"),
    ({"x": "u", "y": "u"}, "u^-1"),
])
def test_hom_whose_section_breaks_is_refused_on_load(images, generator):
    with pytest.raises(RingError) as info:
        hom_from_json("bad", dict(LAURENT_SPEC, images=images))
    assert "hom bad" in str(info.value)
    assert f"lifts {generator} " in str(info.value)


def test_hom_whose_rule_cannot_lift_is_refused_on_load():
    spec = {"source": "Z", "target": "Z/5", "section": "laurent_monomial"}
    with pytest.raises(RingError, match="hom bad.*cannot lift 1"):
        hom_from_json("bad", spec)
