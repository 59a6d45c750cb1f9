"""Surjective ring maps with explicit zero-preserving element-lifting sections.

A hom is given on generators; its section is a deterministic monomial-wise
rule registered by name.  Every section sends 0 to 0 exactly, which is what
keeps lifted matrices column-finite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import rings
from .rings import RingDescriptor, RingElement, RingError


class SectionError(Exception):
    """No registered section rule can lift the requested element."""


@dataclass(frozen=True)
class RingHom:
    """A ring homomorphism source -> target with an optional lifting section.

    generator_images maps each source variable to its image; for source Z
    or Z/m the map is determined by unitality.  section_rule names the
    registered lifting rule ("" means no section available).
    """

    source: RingDescriptor
    target: RingDescriptor
    generator_images: tuple = ()     # ((name, RingElement), ...)
    section_rule: str = ""
    surjective: bool = True
    name: str = ""

    def images(self) -> dict:
        return dict(self.generator_images)

    def apply(self, x: RingElement) -> RingElement:
        return hom_apply(self, x)


def hom_apply(h: RingHom, x: RingElement) -> RingElement:
    """Substitute generator images and renormalize in the target."""
    if x.ring != h.source:
        raise RingError(f"hom_apply: element lives in {x.ring}, hom source is {h.source}")
    tgt = h.target
    src = x.ring
    if src.kind in ("integers", "residue"):
        return tgt.from_int(x.payload)
    images = h.images()
    out = tgt.zero()
    for key, c in x.payload:
        term = tgt.from_int(c)
        if src.kind == "laurent":
            term = term * _power(images[src.variables[0]], key)
        else:
            for name, e in zip(src.variables, key):
                if e:
                    term = term * _power(images[name], e)
        out = out + term
    return out


def _power(base: RingElement, e: int) -> RingElement:
    if e >= 0:
        return base ** e
    inv = rings.is_unit(base)
    if inv is None:
        raise RingError("generator image must be a unit to take negative powers")
    return inv ** (-e)


def hom_section(h: RingHom, b: RingElement) -> RingElement:
    """Lift b along h using the hom's registered monomial-wise rule.

    Deterministic, and hom_apply(h, hom_section(h, b)) == b for every b the
    rule covers.  Lifts 0 to 0 exactly.
    """
    if b.ring != h.target:
        raise RingError(f"hom_section: element lives in {b.ring}, hom target is {h.target}")
    rule = _SECTION_RULES.get(h.section_rule)
    if rule is None:
        raise SectionError(
            f"hom {h.name or '?'} has no registered section rule"
            f" (rule id {h.section_rule!r})")
    return rule(h, b)


# -- section rules ------------------------------------------------------------

def _section_identity(h: RingHom, b: RingElement) -> RingElement:
    if h.source != h.target:
        raise SectionError("identity section needs source == target")
    return b


def _section_residue_lift(h: RingHom, b: RingElement) -> RingElement:
    """Z/m lifts to the representative in {0..m-1}; nested coefficients too."""
    src, tgt = h.source, h.target
    if tgt.kind == "residue" and src.kind == "integers":
        return RingElement(src, b.payload)
    if tgt.kind in ("polynomial", "laurent") and src.kind == tgt.kind \
            and src.variables == tgt.variables and src.coeff_kind == "integers":
        return RingElement(src, tuple(b.payload))
    raise SectionError("residue_lift section does not cover this hom")


def _section_laurent_monomial(h: RingHom, b: RingElement) -> RingElement:
    """For x |-> u, y |-> u^(-1): lift u^k to x^k (k >= 0) and to y^(-k)
    otherwise, coefficient by coefficient."""
    src, tgt = h.source, h.target
    if tgt.kind != "laurent" or src.kind != "polynomial" or len(src.variables) != 2:
        raise SectionError("laurent_monomial section does not cover this hom")
    pos_var, neg_var = src.variables
    out = src.zero()
    for k, c in b.payload:
        if k >= 0:
            out = out + src.monomial((k, 0), c)
        else:
            out = out + src.monomial((0, -k), c)
    return out


_SECTION_RULES = {
    "identity": _section_identity,
    "residue_lift": _section_residue_lift,
    "laurent_monomial": _section_laurent_monomial,
}


# -- registry -----------------------------------------------------------------

def hom_from_json(name: str, data: dict) -> RingHom:
    source = rings.descriptor_from_json(data["source"])
    target = rings.descriptor_from_json(data["target"])
    images = tuple(sorted(
        (var, rings.parse_element(target, expr))
        for var, expr in data.get("images", {}).items()))
    h = RingHom(source=source, target=target, generator_images=images,
                section_rule=data.get("section", ""),
                surjective=bool(data.get("surjective", True)),
                name=name)
    _check_section(h)
    return h


def _check_section(h: RingHom) -> None:
    """hom_apply(h, hom_section(h, g)) == g for g = 1, each target variable
    and, in a Laurent target, its inverse; a hom without a section rule is
    not checked.  A failure raises RingError naming the hom and g, so a
    mis-registered hom is refused when the registry loads."""
    if not h.section_rule:
        return
    tgt = h.target
    gens = [tgt.one()]
    if tgt.kind in ("polynomial", "laurent"):
        gens += [tgt.variable(v) for v in tgt.variables]
    if tgt.kind == "laurent":
        gens.append(tgt.variable(tgt.variables[0], -1))
    for g in gens:
        try:
            back = hom_apply(h, hom_section(h, g))
        except (SectionError, RingError) as exc:
            raise RingError(f"hom {h.name}: section rule {h.section_rule!r} "
                            f"cannot lift {rings.render(g)}: {exc}") from exc
        if back != g:
            raise RingError(f"hom {h.name}: section rule {h.section_rule!r} "
                            f"lifts {rings.render(g)} to an element mapping "
                            f"to {rings.render(back)}")


def hom_to_json(h: RingHom) -> dict:
    return {
        "source": rings.descriptor_to_json(h.source),
        "target": rings.descriptor_to_json(h.target),
        "images": {var: rings.render(img) for var, img in h.generator_images},
        "section": h.section_rule,
        "surjective": h.surjective,
    }


def read_json(path):
    """Load a user-supplied JSON file.  Nesting too deep for the decoder is a
    ValueError naming the file, not a RecursionError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


class HomRegistry:
    """Named homs loaded from a homs.json file."""

    def __init__(self, entries: dict):
        self._homs = entries

    @classmethod
    def from_file(cls, path) -> "HomRegistry":
        raw = read_json(path)
        return cls({name: hom_from_json(name, spec) for name, spec in raw.items()})

    @classmethod
    def builtin(cls) -> "HomRegistry":
        raw = json.loads(resources.files("colift.data").joinpath("homs.json")
                         .read_text(encoding="utf-8"))
        return cls({name: hom_from_json(name, spec) for name, spec in raw.items()})

    def get(self, name: str) -> RingHom:
        if name not in self._homs:
            raise KeyError(f"hom {name!r} is not registered")
        return self._homs[name]

    def names(self):
        return sorted(self._homs)
