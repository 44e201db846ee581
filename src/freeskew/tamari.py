"""Left/right bracketing functions and the Tamari lattice.

A left bracketing function (lbf) on ord m is an endofunction encoding a
binary bracketing of an m-fold product; under the pointwise order the
lbfs on ord m form the Tamari lattice.  Right bracketing functions
(rbfs) are the mirror-image encoding, obtained by reading the bracketed
word right to left; they are Huang and Tamari's bracketing vectors
(J. Combin. Theory A 13, 1972).  Nothing here builds a bracket tree.

Reversing the ordinal (_mirror) turns an rbf into an lbf, so each
operation has one kernel and its mirror-image twin is derived from it:
validate_rbf checks the mirror with validate_lbf, rbf_to_lbf is the
opposite of the mirror, the meet is the opposite of the join of the
opposites, and base_change_inj mirrors base_change_surj along the
reflected right adjoint.  validate_lbf and lbf_to_rbf take one pass with
a stack each, O(m); tamari_opposite runs the scan of lbf_to_rbf on the
values (_rbf_values) and builds only the opposite Lbf, so one check
runs.  Code that only reads values calls the tuple kernels, not the
checked values: the conjugations read ordmaps._radj, and the word
writer and the middle-bracketing search read _rbf_values.  Lbf and Rbf
are built like ordmaps.MonotoneMap: __init__ hands the values to
__post_init__, which checks and stores them.  lbf_to_rbf and
the conjugations sit in the package's value tier (ordmaps.value_cache):
a query reuses them within itself, so recent entries suffice.  The
opposites and the lattices listed by enumerate_tamari depend on shape
alone and sit in the shape tier (ordmaps.shape_cache), so dual and
is_swell share one mirrored lbf per bracketing.  The changes of base,
which only the factorizations call, are not cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le
from typing import Iterator, Sequence

from .ordmaps import (
    InputError,
    MonotoneMap,
    _dual_map,
    _radj,
    right_adjoint,
    shape_cache,
    value_cache,
)


def validate_lbf(values: Sequence[int]) -> bool:
    """True iff values is a left bracketing function on ord len(values).

    The conditions are l(m-1) = m-1, 0 <= l(j) <= j, and l(j) <= l(i)
    for l(j) <= i < j: the intervals [l(j), j] nest or are disjoint.  One
    pass keeps a stack of the intervals no later one contains yet; they
    are disjoint, so those reaching l(j) are on top, and each one popped
    is checked.
    """
    m = len(values)
    if m == 0:
        raise InputError("empty sequence is not a bracketing function")
    if values[m - 1] != m - 1:
        return False
    outer = [-1]  # right ends j, increasing, over a bottom no l(j) reaches
    for j, vj in enumerate(values):
        if not 0 <= vj <= j:
            return False
        while outer[-1] >= vj:
            if values[outer.pop()] < vj:
                return False
        outer.append(j)
    return True


def validate_rbf(values: Sequence[int]) -> bool:
    """True iff values is a right bracketing function on ord len(values).

    The conditions r(0) = 0, j <= r(j) < m, and r(i) <= r(j) for
    j < i <= r(j) are the lbf conditions read on the reversed ordinal,
    so the mirror is checked by validate_lbf.  Most sequences fail at
    r(0), which is checked before the mirror is built.
    """
    if values and values[0] != 0:
        return False
    return validate_lbf(_mirror(values))


def _mirror(values: Sequence[int]) -> tuple[int, ...]:
    # the same function on the reversed ordinal: j -> m-1 - v(m-1-j);
    # it turns an rbf into an lbf and back
    return tuple(map((len(values) - 1).__sub__, reversed(values)))


@dataclass(frozen=True, slots=True, init=False)
class Lbf:
    """A left bracketing function; an element of the Tamari lattice."""

    values: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, values: Sequence[int]) -> None:
        self.__post_init__(tuple(values))

    def __post_init__(self, values: tuple[int, ...]) -> None:
        if not validate_lbf(values):
            raise InputError(f"not a left bracketing function: {values}")
        _set_lbf_values(self, values)
        _set_lbf_hash(self, hash(("lbf", values)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.values)

    def __call__(self, j: int) -> int:
        return self.values[j]

    def __repr__(self) -> str:
        return f"Lbf({','.join(str(v) for v in self.values)})"


@dataclass(frozen=True, slots=True, init=False)
class Rbf:
    """A right bracketing function, the mirror-image encoding."""

    values: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, values: Sequence[int]) -> None:
        self.__post_init__(tuple(values))

    def __post_init__(self, values: tuple[int, ...]) -> None:
        if not validate_rbf(values):
            raise InputError(f"not a right bracketing function: {values}")
        _set_rbf_values(self, values)
        _set_rbf_hash(self, hash(("rbf", values)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.values)

    def __call__(self, j: int) -> int:
        return self.values[j]

    def __repr__(self) -> str:
        return f"Rbf({','.join(str(v) for v in self.values)})"


# The slot setters, past the frozen guard: only the checks above store
# through them.
_set_lbf_values = Lbf.values.__set__
_set_lbf_hash = Lbf._hash.__set__
_set_rbf_values = Rbf.values.__set__
_set_rbf_hash = Rbf._hash.__set__


@value_cache
def lbf_to_rbf(lbf: Lbf) -> Rbf:
    """The rbf determined by an lbf: r(i) = min{j : l(j) < i <= j}.

    At i = 0 (and wherever the set is empty) the defining set is empty;
    r(0) = 0 is forced and min of the empty set is read as m-1, the only
    convention under which the mirror-image tree carries the result.
    One pass: a stack holds the positions i <= j not closed yet, and
    l(j) closes those above it; position 0 never closes.
    """
    return Rbf(_rbf_values(lbf.values))


def _rbf_values(l: tuple[int, ...]) -> list[int]:
    # the scan of lbf_to_rbf on a valid lbf's values, building no value
    m = len(l)
    r = [m - 1] * m
    r[0] = 0
    unclosed = [0]
    for j in range(1, m):
        unclosed.append(j)
        while unclosed[-1] > l[j]:
            r[unclosed.pop()] = j
    return r


def rbf_to_lbf(rbf: Rbf) -> Lbf:
    """The unique lbf with lbf_to_rbf(lbf) = rbf.

    Mirroring the rbf of an lbf gives the lbf's opposite, an involution,
    so the lbf is the opposite of the mirrored rbf; every valid rbf is
    realizable.
    """
    return tamari_opposite(Lbf(_mirror(rbf.values)))


@shape_cache
def tamari_opposite(lbf: Lbf) -> Lbf:
    """The same bracketing read on the reversed ordinal (an involution).

    The mirror of the rbf, scanned without building the Rbf, so the one
    check is the opposite's own."""
    return Lbf(_mirror(_rbf_values(lbf.values)))


def tamari_leq(s: Lbf, t: Lbf) -> bool:
    """The Tamari order: pointwise comparison of lbfs."""
    if s.m != t.m:
        raise InputError(f"cannot compare lbfs on ord {s.m} and ord {t.m}")
    return all(map(le, s.values, t.values))


def tamari_join(s: Lbf, t: Lbf) -> Lbf:
    """Least upper bound; the pointwise maximum is again an lbf."""
    if s.m != t.m:
        raise InputError(f"cannot join lbfs on ord {s.m} and ord {t.m}")
    return Lbf(tuple(max(a, b) for a, b in zip(s.values, t.values)))


def tamari_meet(s: Lbf, t: Lbf) -> Lbf:
    """Greatest lower bound: tamari_opposite reverses the order, so the
    meet is the opposite of the join of the opposites."""
    if s.m != t.m:
        raise InputError(f"cannot meet lbfs on ord {s.m} and ord {t.m}")
    return tamari_opposite(tamari_join(tamari_opposite(s), tamari_opposite(t)))


def iter_tamari(m: int) -> Iterator[Lbf]:
    """All lbfs on ord m in lexicographic order, one at a time."""
    if m < 1:
        raise InputError("ordinals must be non-empty")
    values = [0] * (m - 1) + [m - 1]

    def extend(j: int, open_: list[int]) -> Iterator[Lbf]:
        # open_: the positions i <= j with every entry from i to j - 1 at
        # least i, in increasing order; exactly the values entry j may
        # take, and taking v closes the open positions above v
        if j == m - 1:
            yield Lbf(tuple(values))
            return
        for k, v in enumerate(open_):
            values[j] = v
            yield from extend(j + 1, open_[:k + 1] + [j + 1])

    yield from extend(0, [0])


# Shape tier: objects_on and the axiom sweep read the same small lattices
# again and again.  The key is a size, so the bound never bites; what
# bounds the memory is the largest size asked for, Catalan(m-1) lbfs.  The
# CLI reaches it only through the axiom sweep, whose --max-leaves cap
# keeps m <= 7, and tamari enum streams iter_tamari instead.
@shape_cache
def enumerate_tamari(m: int) -> tuple[Lbf, ...]:
    """All lbfs on ord m in lexicographic order; there are Catalan(m-1)."""
    return tuple(iter_tamari(m))


def tamari_bottom(m: int) -> Lbf:
    """The least element: everything bracketed to the left."""
    if m < 1:
        raise InputError("ordinals must be non-empty")
    return Lbf((0,) * (m - 1) + (m - 1,))


def tamari_top(m: int) -> Lbf:
    """The greatest element: everything bracketed to the right."""
    if m < 1:
        raise InputError("ordinals must be non-empty")
    return Lbf(tuple(range(m)))


def base_change_surj(sigma: MonotoneMap, lbf: Lbf) -> Lbf:
    """Pull an lbf back along a surjection sigma.

    The result agrees with sigma* . lbf . sigma on the image of sigma*
    and is the identity elsewhere; it satisfies
    result . sigma* = sigma* . lbf, hence conjugating back recovers lbf.
    """
    if not sigma.is_surjective:
        raise InputError(f"{sigma!r} is not surjective")
    if lbf.m != sigma.cod:
        raise InputError(f"lbf lives on ord {lbf.m}, expected ord {sigma.cod}")
    star = right_adjoint(sigma)
    values = tuple(
        star(lbf(sigma(j))) if star(sigma(j)) == j else j
        for j in range(sigma.dom))
    result = Lbf(values)
    if not all(result(star(h)) == star(lbf(h)) for h in range(sigma.cod)):
        raise RuntimeError(f"{result!r} does not lift {lbf!r} along {sigma!r}")
    if not all(sigma(result(star(h))) == lbf(h) for h in range(sigma.cod)):
        raise RuntimeError(f"{result!r} does not conjugate back to {lbf!r}")
    return result


def base_change_inj(delta: MonotoneMap, rbf: Rbf) -> Rbf:
    """Push an rbf forward along a bottom-preserving injection delta.

    The mirror image of base_change_surj: the reflected right adjoint of
    delta is a surjection, along which the mirror of rbf (an lbf) is
    pulled back, and the mirror of that is the result.  It satisfies
    result . delta = delta . rbf, and it is the identity off the image
    of delta.
    """
    if not delta.is_injective:
        raise InputError(f"{delta!r} is not injective")
    if not delta.preserves_bottom:
        raise InputError(f"{delta!r} does not preserve bottom")
    if rbf.m != delta.dom:
        raise InputError(f"rbf lives on ord {rbf.m}, expected ord {delta.dom}")
    lifted = base_change_surj(_dual_map(delta), Lbf(_mirror(rbf.values)))
    result = Rbf(_mirror(lifted.values))
    if not all(result(delta(i)) == delta(rbf(i)) for i in range(delta.dom)):
        raise RuntimeError(f"{result!r} does not push {rbf!r} along {delta!r}")
    return result


@value_cache
def conjugate_surj(sigma: MonotoneMap, s: Lbf) -> Lbf:
    """Transport a bracketing along a surjection: sigma . l_S . sigma*."""
    if not sigma.is_surjective:
        raise InputError(f"{sigma!r} is not surjective")
    if s.m != sigma.dom:
        raise InputError(f"lbf lives on ord {s.m}, expected ord {sigma.dom}")
    # a surjection preserves bottom, so its right adjoint exists
    images, values = sigma.images, s.values
    return Lbf([images[values[j]] for j in _radj(images, sigma.cod)])


@value_cache
def conjugate_inj(delta: MonotoneMap, s: Lbf) -> Lbf:
    """Restrict a bracketing along a bottom-preserving injection.

    The result is determined on the rbf side: its rbf is
    delta* . r_S . delta.  By order transport it is the greatest
    bracketing that delta carries into s.
    """
    if not delta.is_injective:
        raise InputError(f"{delta!r} is not injective")
    if not delta.preserves_bottom:
        raise InputError(f"{delta!r} does not preserve bottom")
    if s.m != delta.cod:
        raise InputError(f"lbf lives on ord {s.m}, expected ord {delta.cod}")
    star, r_s = _radj(delta.images, delta.cod), lbf_to_rbf(s).values
    # rbf_to_lbf without building the Rbf: the Lbf of the mirror runs
    # the same check once
    return tamari_opposite(Lbf(_mirror([star[r_s[j]] for j in delta.images])))
