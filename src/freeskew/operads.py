"""Graded operad structure over the bracketed-word category.

The two-point operad of left-unital multiplications has, in each
positive arity, just the elements l <= t ("l" carries a phantom unit on
the left, "t" does not); arity zero has only l.  Grading bracketed words
by their number of generators gives strict operad maps down to this
operad and on to the terminal one, and the grading map has a left
adjoint H computed here explicitly, together with its counit and the
comparison maps making H colax.

H and its colax comparisons depend only on operad elements, at most two
per arity, and a slot, so h_of and h_colax sit in the shape tier next to
the elements themselves: each is built, and its contracts checked, once
per key.  A failed check raises on every call and is never cached.  The
counit and hom are not cached: the counit follows its word, which
queries rarely repeat, and a hom-set is a list of any length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .ordmaps import InputError, shape_cache
from .tamari import Lbf, tamari_bottom
from .fsk import (
    FskMorphism,
    FskObject,
    GENERATOR,
    UNIT,
    dual,
    hom,
    is_fsk_injection,
)


_ELEMENT_RE = re.compile(r"([lt])(\d+)\Z")


@dataclass(frozen=True, slots=True)
class LElement:
    """An element l_n or t_n of the left-unital-multiplication operad."""

    arity: int
    kind: str

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise InputError("arity must be a natural number")
        if self.kind not in ("l", "t"):
            raise InputError(f"kind must be 'l' or 't', got {self.kind!r}")
        if self.arity == 0 and self.kind == "t":
            raise InputError("arity 0 admits only the kind 'l'")

    @classmethod
    def from_text(cls, text: str) -> "LElement":
        match = _ELEMENT_RE.match(text.strip())
        if match is None:
            raise InputError(f"expected something like 't3' or 'l0', got {text!r}")
        try:
            arity = int(match.group(2))
        except ValueError:  # more digits than int() converts
            raise InputError(f"arity of {text.strip()[:20]}... has "
                             f"{len(match.group(2))} digits, too many") from None
        return _l_element(arity, match.group(1))

    def to_text(self) -> str:
        return f"{self.kind}{self.arity}"

    def __repr__(self) -> str:
        return f"LElement({self.to_text()})"


@shape_cache
def _l_element(arity: int, kind: str) -> LElement:
    # the operad has at most two elements per arity, so the operations
    # below return one shared, checked instance of each
    return LElement(arity, kind)


L_UNIT = _l_element(1, "t")


def l_leq(x: LElement, y: LElement) -> bool:
    """The order: l <= t within each arity, nothing across arities."""
    return x.arity == y.arity and (x.kind == y.kind or x.kind == "l")


def l_substitute(x: LElement, xs: Sequence[LElement]) -> LElement:
    """Operadic substitution: arities add, and the result keeps the bare
    kind t exactly when both x and the leftmost argument do."""
    if len(xs) != x.arity:
        raise InputError(f"{x!r} needs {x.arity} arguments, got {len(xs)}")
    if x.arity == 0:
        return x
    kind = "t" if (x.kind == "t" and xs[0].kind == "t") else "l"
    return _l_element(sum([y.arity for y in xs]), kind)


def l_circ(x: LElement, i: int, y: LElement) -> LElement:
    """Substitution in a single slot (1-based), identities elsewhere."""
    if not 1 <= i <= x.arity:
        raise InputError(f"position {i} out of range for {x!r}")
    args = [L_UNIT] * x.arity
    args[i - 1] = y
    return l_substitute(x, args)


def q_of(obj: FskObject) -> LElement:
    """Collapse a word to its kind: t if the bottom position holds a
    generator, l otherwise; arity is the grade."""
    return _l_element(obj.grade, "t" if 0 in obj.u else "l")


def p_of(obj: FskObject) -> int:
    """The grading of a word: its number of generators."""
    return obj.grade


def r_of(x: LElement) -> int:
    """The grading of an operad element: its arity."""
    return x.arity


def s_substitute_objects(g: FskObject, fs: Sequence[FskObject]) -> FskObject:
    """Substitute words for the generators of g, left to right.

    Letter j of g becomes a block, the next word of fs or a unit, with
    its lbf shifted by the block's offset, except the last entry: there
    g's pair splitting after j opens, at the offset of block g.s(j).
    """
    if len(fs) != g.grade:
        raise InputError(f"{g!r} has grade {g.grade}, got {len(fs)} arguments")
    args, generators = iter(fs), set(g.u)
    blocks = [next(args) if j in generators else UNIT for j in range(g.m)]
    offsets = list(accumulate((block.m for block in blocks), initial=0))
    u = tuple(offset + i for offset, block in zip(offsets, blocks) for i in block.u)
    values: list[int] = []
    for j, (offset, block) in enumerate(zip(offsets, blocks)):
        values.extend(offset + v for v in block.s.values[:-1])
        values.append(offsets[g.s(j)])
    values[-1] = offsets[-1] - 1  # the top entry is forced
    return FskObject(offsets[-1], u, Lbf(tuple(values)))


def s_circ(g: FskObject, i: int, f: FskObject) -> FskObject:
    """Substitute into a single generator slot (1-based)."""
    if not 1 <= i <= g.grade:
        raise InputError(f"position {i} out of range for {g!r}")
    args: list[FskObject] = [GENERATOR] * g.grade
    args[i - 1] = f
    return s_substitute_objects(g, args)


def initial_in_grade(m: int) -> FskObject:
    """The initial object among words of grade m: I X ... X bracketed left."""
    if m < 0:
        raise InputError("grade must be a natural number")
    return FskObject(m + 1, tuple(range(1, m + 1)), tamari_bottom(m + 1))


def terminal_in_grade(m: int) -> FskObject:
    """The terminal object among words of grade m: X ... X I bracketed
    right, the dual of the initial one."""
    return dual(initial_in_grade(m))


@shape_cache
def h_of(x: LElement) -> FskObject:
    """The left adjoint of the grading-with-kind map, on objects.

    t_m goes to the left-bracketed all-generator word; l_m goes to the
    initial object of grade m, which prepends a unit.
    """
    if x.kind == "l":
        return initial_in_grade(x.arity)
    return FskObject(x.arity, tuple(range(x.arity)), tamari_bottom(x.arity))


def _unique(morphisms: list[FskMorphism], what: str, subject) -> FskMorphism:
    # what names the hom-set with a {} for subject, formatted only to
    # raise: a successful call writes no repr
    if len(morphisms) != 1:
        raise RuntimeError(f"{what.format(subject)} has {len(morphisms)} "
                           f"elements, expected 1")
    return morphisms[0]


def counit_at(a: FskObject) -> FskMorphism:
    """The unique morphism from the freely rebuilt word h_of(q_of(a)) to a.

    The source holds only generators, after a unit when a starts with
    one, so hom pins every letter and tests a single candidate map.
    """
    component = _unique(hom(h_of(q_of(a)), a), "counit hom-set at {!r}", a)
    if not is_fsk_injection(component.src, component.dst, component.map):
        raise RuntimeError(f"counit at {a!r} is not an Fsk-injection")
    return component


def h_of_lambda(n: int) -> FskMorphism:
    """The image under H of the comparison l_n <= t_n."""
    if n < 1:
        raise InputError("the comparison exists in arity >= 1 only")
    return _unique(hom(h_of(LElement(n, "l")), h_of(LElement(n, "t"))),
                   "hom-set of H(l{0} <= t{0})", n)


@shape_cache
def h_colax(x: LElement, i: int, y: LElement) -> FskMorphism:
    """The colax comparison H(x o_i y) -> H(x) o_i H(y).

    Since the adjunction defining H has identity unit, the comparison is
    the counit at the substituted object; it is unique, so this is also
    the only candidate.
    """
    if not 1 <= i <= x.arity:
        raise InputError(f"position {i} out of range for {x!r}")
    target = s_circ(h_of(x), i, h_of(y))
    composite = l_circ(x, i, y)
    if q_of(target) != composite:
        raise RuntimeError(f"{target!r} does not grade to {composite!r}")
    component = counit_at(target)
    if component.src != h_of(composite):
        raise RuntimeError(f"colax comparison at {target!r} does not start "
                           f"at H({composite.to_text()})")
    return component
