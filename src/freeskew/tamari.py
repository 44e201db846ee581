"""Left/right bracketing functions and the Tamari lattice.

A left bracketing function (lbf) on ord m is an endofunction encoding a
binary bracketing of an m-fold product; under the pointwise order the
lbfs on ord m form the Tamari lattice.  Right bracketing functions
(rbfs) are the mirror-image encoding, obtained by reading the bracketed
word right to left; they are Huang and Tamari's bracketing vectors
(J. Combin. Theory A 13, 1972).  Nothing here builds a bracket tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .ordmaps import InputError, MonotoneMap, right_adjoint


def validate_lbf(values: Sequence[int]) -> bool:
    """True iff values is a left bracketing function on ord len(values)."""
    m = len(values)
    if m == 0:
        raise InputError("empty sequence is not a bracketing function")
    if values[m - 1] != m - 1:
        return False
    for j, vj in enumerate(values):
        if vj > j or vj < 0:
            return False
        for i in range(vj, j):
            if vj > values[i]:
                return False
    return True


def validate_rbf(values: Sequence[int]) -> bool:
    """True iff values is a right bracketing function on ord len(values)."""
    m = len(values)
    if m == 0:
        raise InputError("empty sequence is not a bracketing function")
    if values[0] != 0:
        return False
    for j, vj in enumerate(values):
        if vj < j or vj >= m:
            return False
        for i in range(j + 1, vj + 1):
            if values[i] > vj:
                return False
    return True


@dataclass(frozen=True)
class Lbf:
    """A left bracketing function; an element of the Tamari lattice."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not validate_lbf(self.values):
            raise InputError(f"not a left bracketing function: {self.values}")
        object.__setattr__(self, "_hash", hash(("lbf", self.values)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.values)

    def __call__(self, j: int) -> int:
        return self.values[j]

    def __repr__(self) -> str:
        return f"Lbf({','.join(str(v) for v in self.values)})"


@dataclass(frozen=True)
class Rbf:
    """A right bracketing function, the mirror-image encoding."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not validate_rbf(self.values):
            raise InputError(f"not a right bracketing function: {self.values}")
        object.__setattr__(self, "_hash", hash(("rbf", self.values)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.values)

    def __call__(self, j: int) -> int:
        return self.values[j]

    def __repr__(self) -> str:
        return f"Rbf({','.join(str(v) for v in self.values)})"


@lru_cache(maxsize=None)
def lbf_to_rbf(lbf: Lbf) -> Rbf:
    """The rbf determined by an lbf: r(i) = min{j : l(j) < i <= j}.

    At i = 0 (and wherever the set is empty) the defining set is empty;
    r(0) = 0 is forced and min of the empty set is read as m-1, the only
    convention under which the mirror-image tree carries the result.
    """
    l, m = lbf.values, lbf.m
    values = [next((j for j in range(i, m) if l[j] < i), m - 1)
              for i in range(1, m)]
    return Rbf((0,) + tuple(values))


@lru_cache(maxsize=None)
def rbf_to_lbf(rbf: Rbf) -> Lbf:
    """The unique lbf with lbf_to_rbf(lbf) = rbf.

    l(j) = max{i <= j : r(i) > j}, or 0 where the set is empty; the top
    entry is forced.  Every valid rbf is realizable, so l always exists.
    """
    r, m = rbf.values, rbf.m
    values = [max((i for i in range(j + 1) if r[i] > j), default=0)
              for j in range(m - 1)]
    return Lbf(tuple(values) + (m - 1,))


def tamari_opposite(lbf: Lbf) -> Lbf:
    """The same bracketing read on the reversed ordinal (an involution)."""
    r, m = lbf_to_rbf(lbf).values, lbf.m
    return Lbf(tuple(m - 1 - r[m - 1 - j] for j in range(m)))


def tamari_leq(s: Lbf, t: Lbf) -> bool:
    """The Tamari order: pointwise comparison of lbfs."""
    if s.m != t.m:
        raise InputError(f"cannot compare lbfs on ord {s.m} and ord {t.m}")
    return all(a <= b for a, b in zip(s.values, t.values))


def tamari_join(s: Lbf, t: Lbf) -> Lbf:
    """Least upper bound; the pointwise maximum is again an lbf."""
    if s.m != t.m:
        raise InputError(f"cannot join lbfs on ord {s.m} and ord {t.m}")
    return Lbf(tuple(max(a, b) for a, b in zip(s.values, t.values)))


def tamari_meet(s: Lbf, t: Lbf) -> Lbf:
    """Greatest lower bound: the lbf of the pointwise minimum of the two
    rbfs, since rbfs are ordered pointwise too."""
    if s.m != t.m:
        raise InputError(f"cannot meet lbfs on ord {s.m} and ord {t.m}")
    r_s, r_t = lbf_to_rbf(s).values, lbf_to_rbf(t).values
    return rbf_to_lbf(Rbf(tuple(min(a, b) for a, b in zip(r_s, r_t))))


@lru_cache(maxsize=None)
def enumerate_tamari(m: int) -> tuple[Lbf, ...]:
    """All lbfs on ord m in lexicographic order; there are Catalan(m-1)."""
    if m < 1:
        raise InputError("ordinals must be non-empty")
    results: list[Lbf] = []
    values = [0] * m

    def extend(j: int) -> None:
        if j == m - 1:
            values[j] = j
            results.append(Lbf(tuple(values)))
            return
        for v in range(j + 1):
            if all(v <= values[i] for i in range(v, j)):
                values[j] = v
                extend(j + 1)

    extend(0)
    return tuple(results)


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def base_change_inj(delta: MonotoneMap, rbf: Rbf) -> Rbf:
    """Push an rbf forward along a bottom-preserving injection delta.

    Mirror image of base_change_surj; satisfies result . delta = delta . rbf.
    """
    if not delta.is_injective:
        raise InputError(f"{delta!r} is not injective")
    if not delta.preserves_bottom:
        raise InputError(f"{delta!r} does not preserve bottom")
    if rbf.m != delta.dom:
        raise InputError(f"rbf lives on ord {rbf.m}, expected ord {delta.dom}")
    star = right_adjoint(delta)
    values = tuple(
        delta(rbf(star(j))) if delta(star(j)) == j else j
        for j in range(delta.cod))
    result = Rbf(values)
    if not all(result(delta(i)) == delta(rbf(i)) for i in range(delta.dom)):
        raise RuntimeError(f"{result!r} does not push {rbf!r} along {delta!r}")
    return result


@lru_cache(maxsize=None)
def conjugate_surj(sigma: MonotoneMap, s: Lbf) -> Lbf:
    """Transport a bracketing along a surjection: sigma . l_S . sigma*."""
    if not sigma.is_surjective:
        raise InputError(f"{sigma!r} is not surjective")
    if s.m != sigma.dom:
        raise InputError(f"lbf lives on ord {s.m}, expected ord {sigma.dom}")
    star = right_adjoint(sigma)
    return Lbf(tuple(sigma(s(star(j))) for j in range(sigma.cod)))


@lru_cache(maxsize=None)
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
    star = right_adjoint(delta)
    r_s = lbf_to_rbf(s)
    return rbf_to_lbf(Rbf(tuple(star(r_s(delta(j))) for j in range(delta.dom))))
