"""Finite non-empty ordinals and the order-preserving maps between them.

The ordinal of size m stands for {0, ..., m-1}; a map is stored as the
dense tuple of its images.  A map is built in one call: __init__ hands
the arguments to __post_init__, which checks them as locals and only
then stores them through the slots, so a map costs little more than its
check.  Everything here is immutable and pure, so values can be shared
freely between threads.  Reversing both ordinals reflects a map; tamari
and fsk derive each mirror-image construction from its twin through
that reflection and the right adjoint.

The package's cache policy lives here too: the two tiers shape_cache
and value_cache, and cache_stats to report on every cache in the
package.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import le, ne
from typing import Sequence

# The one policy, in two tiers sized by the traffic they serve.  Shape
# caches hold values that depend on sizes and bracketings alone; a sweep
# asks for the same few again and again, and the bound holds every key it
# meets (the 8-leaf axiom sweep meets 2,047 tensor bracketings).  Value
# caches hold what point queries compute from their own input: image
# factorizations of maps, transported bracketings, tensors of objects,
# text forms and the triples read from them.  Their hits come from
# within one query, or from a query repeated among recent ones, so a few
# recent queries' worth keeps nearly all of them, and a miss costs one
# linear pass.
SHAPE_CACHE_SIZE = 4096
VALUE_CACHE_SIZE = 512
shape_cache = lru_cache(maxsize=SHAPE_CACHE_SIZE)
value_cache = lru_cache(maxsize=VALUE_CACHE_SIZE)


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits, misses, size and maxsize of every cache in the loaded
    modules of this package, keyed "module.function"."""
    # the package's own name, so that a copy loaded under another name
    # reports its own caches
    prefix = __name__.rpartition(".")[0] + "."
    stats = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith(prefix):
            continue
        for attr, value in sorted(vars(module).items()):
            info = getattr(value, "cache_info", None)
            if info is None or getattr(value, "__module__", None) != name:
                continue
            hits, misses, maxsize, size = info()
            stats[f"{name.rpartition('.')[2]}.{attr}"] = {
                "hits": hits, "misses": misses, "size": size, "maxsize": maxsize}
    return stats


class InputError(ValueError):
    """An argument violates an operation's precondition."""


class NoAdjointError(InputError):
    """The map has no right adjoint (or no second right adjoint)."""


@dataclass(frozen=True, slots=True, init=False)
class MonotoneMap:
    """An order-preserving function between finite non-empty ordinals."""

    dom: int
    cod: int
    images: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, dom: int, cod: int, images: Sequence[int]) -> None:
        self.__post_init__(dom, cod, tuple(images))

    def __post_init__(self, dom: int, cod: int, images: tuple[int, ...]) -> None:
        # the one check of every map, run on the arguments; the fields are
        # stored only once it passes
        if dom < 1 or cod < 1:
            raise InputError("ordinals must be non-empty")
        if len(images) != dom:
            raise InputError(
                f"expected {dom} images, got {len(images)}")
        # the conditions of _check_images, run by builtins: in range at
        # both ends and weakly increasing in between; the loop runs only
        # to raise its message
        if not (images[0] >= 0 and images[-1] < cod
                and all(map(le, images, images[1:]))):
            _check_images(images, cod)
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_images(self, images)
        _set_hash(self, hash((cod, images)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def identity(cls, n: int) -> "MonotoneMap":
        """The identity on ord n, one shared map per size."""
        return _identity_map(n)

    def __call__(self, i: int) -> int:
        return self.images[i]

    @property
    def is_identity(self) -> bool:
        return self.dom == self.cod and self.images == tuple(range(self.dom))

    @property
    def is_surjective(self) -> bool:
        # weakly increasing, so surjectivity is: hits 0, hits cod-1, no gaps
        return len(set(self.images)) == self.cod

    @property
    def is_injective(self) -> bool:
        return len(set(self.images)) == self.dom

    @property
    def preserves_bottom(self) -> bool:
        return self.images[0] == 0

    def __repr__(self) -> str:
        imgs = ",".join(str(v) for v in self.images)
        return f"MonotoneMap({self.dom}->{self.cod}; {imgs})"


# The slot setters, past the frozen guard: only the check above stores
# through them.
_set_dom = MonotoneMap.dom.__set__
_set_cod = MonotoneMap.cod.__set__
_set_images = MonotoneMap.images.__set__
_set_hash = MonotoneMap._hash.__set__


def _check_images(images: tuple[int, ...], cod: int) -> None:
    # the rejecting half of MonotoneMap's check, for its messages
    prev = 0
    for i, value in enumerate(images):
        if not 0 <= value < cod:
            raise InputError(f"image {value} outside ord {cod}")
        if value < prev:
            raise InputError(f"images not weakly increasing at index {i}")
        prev = value


@shape_cache
def _identity_map(n: int) -> MonotoneMap:
    return MonotoneMap(n, n, tuple(range(n)))


def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """The composite g after f.  A shared identity on either side (the
    map MonotoneMap.identity returns) passes the other map through."""
    if f.cod != g.dom:
        raise InputError(f"cannot compose: cod {f.cod} != dom {g.dom}")
    # an identity test, not a cache: the maps of the criteria rarely repeat
    if f is _identity_map(f.dom):
        return g
    if g is _identity_map(g.dom):
        return f
    images = g.images
    return MonotoneMap(f.dom, g.cod, [images[v] for v in f.images])


def _radj(images: tuple[int, ...], cod: int) -> tuple[int, ...]:
    # one scan, not cached: paired passes with and without a cache timed
    # the same
    out = []
    i = len(images) - 1
    for j in range(cod - 1, -1, -1):
        while images[i] > j:
            i -= 1
        out.append(i)
    out.reverse()
    return tuple(out)


def right_adjoint(phi: MonotoneMap) -> MonotoneMap:
    """The right adjoint j -> max{i : phi(i) <= j}; needs phi(0) = 0."""
    if not phi.preserves_bottom:
        raise NoAdjointError(f"{phi!r} does not preserve bottom")
    return MonotoneMap(phi.cod, phi.dom, _radj(phi.images, phi.cod))


def second_right_adjoint(phi: MonotoneMap) -> MonotoneMap:
    """The right adjoint of right_adjoint(phi).

    Exists iff phi(0) = 0 and phi sends no positive element to 0, that
    is, iff right_adjoint(phi) preserves bottom too.
    """
    star = right_adjoint(phi)
    if not star.preserves_bottom:
        raise NoAdjointError(f"right adjoint of {phi!r} is not bottom-preserving")
    return right_adjoint(star)


@shape_cache
def _dual_map(phi: MonotoneMap) -> MonotoneMap:
    # the right adjoint (phi preserves bottom) carried across the
    # reversals of both ordinals: the map under the dual of a morphism
    # over phi, a surjection when phi is injective
    star = right_adjoint(phi)
    return MonotoneMap(star.dom, star.cod,
                       map((star.cod - 1).__sub__, reversed(star.images)))


@value_cache
def epi_mono_factorize(phi: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """Split phi into a surjection onto its image followed by an injection.

    Cached, so that the criteria and factor_general, asked about one map,
    factor it once and share its parts; the conjugation caches keyed by
    those parts then match their keys by identity.
    """
    # the images increase weakly, so the image is their distinct values in
    # order, and each rank counts the steps up to its position
    images = phi.images
    distinct = tuple(dict.fromkeys(images))
    surj = MonotoneMap(phi.dom, len(distinct),
                       accumulate(map(ne, images[1:], images), initial=0))
    inj = MonotoneMap(len(distinct), phi.cod, distinct)
    return surj, inj


@shape_cache
def ordinal_sum(phi: MonotoneMap, psi: MonotoneMap) -> MonotoneMap:
    """Block sum: phi on the first block, psi shifted by phi.cod on the second."""
    images = phi.images + tuple(v + phi.cod for v in psi.images)
    return MonotoneMap(phi.dom + psi.dom, phi.cod + psi.cod, images)
