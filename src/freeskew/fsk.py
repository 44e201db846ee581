"""The free skew monoidal category on one generator, made concrete.

Objects are triples (ord m, u, S): an m-fold product bracketed according
to the lbf S, with the generator X in the positions u and the unit I
elsewhere.  A morphism is fully determined by its underlying
order-preserving map between ordinals, so morphisms are represented as
validated MonotoneMaps and equality of morphisms is equality of triples
(src, dst, map).  All of it is computed on triples, never on trees.
Membership has three conditions, each decided in one place: bottom
preservation (the map), the generator bijection (_bij_ok) and the
bracket condition, which has three independent criteria; "via_search"
finds a middle bracketing by a pruned depth-first search, never by
scanning the Tamari lattice.  The generator condition and the "direct"
bracket check are single linear passes over the map, with no cache.

An FskObject is built like the maps and bracketings under it: __init__
hands the arguments to __post_init__, which checks them and stores them
through the slots.  Each morphism is proved once.  FskMorphism(...) runs
the full proof, and so does everything that enters from outside.  The
constructions below build through _proved, which stores the fields
through the same slot setters and skips the proof, only where
membership is already decided: hom-sets pin every generator to its
image and search only the units between the pins, pruned by the scan
of the bracket condition, so each leaf they reach is a morphism by
construction and takes only the last step of that scan; identities,
the associator (a rebracketing), lambda_ and rho after is_shrink and
is_swell, the parts of the factorizations after their class checks;
and composites, tensors and duals of morphisms, which the paper's
theorems make morphisms again (tests/test_fsk.py checks that closure
exhaustively on small objects).  Duality spares code: factor_injection
is factor_surjection on the dual, as is_swell is the shrink check on the
reversed objects; rho, is_fsk_injection and conjugate_inj keep kernels
of their own, since the axiom, hom and criteria paths call them.
Tensors of objects, lambda_ and rho sit in the value tier of the cache
policy (ordmaps.value_cache), and a miss runs every check again;
identities and alpha are built on each call.  Values that depend only
on shape sit in the shape tier (ordmaps.shape_cache), which holds every
shape a sweep meets, one checked instance each: the bracketing of a
tensor is keyed by the two bracketings, the mirrored bracketing of dual
by the bracketing, block sums and the maps of duals (ordmaps._dual_map,
the reflected right adjoint) by their maps, and the identity, collapse
and inclusion maps by size; a composite with a shared identity is the
other map itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import ge, le, lt
from typing import Sequence

from .ordmaps import (
    InputError,
    MonotoneMap,
    _dual_map,
    epi_mono_factorize,
    ordinal_sum,
    shape_cache,
    value_cache,
)
from . import ordmaps
from .tamari import (
    Lbf,
    _rbf_values,
    base_change_surj,
    conjugate_inj,
    conjugate_surj,
    enumerate_tamari,
    lbf_to_rbf,
    tamari_join,
    tamari_leq,
    tamari_opposite,
)

MODES = ("direct", "via_factor", "via_search")

# hom's bound on its own work: the moves of its search, and the letters
# of the morphisms it lists (both ends of each); past either it raises
MAX_HOM_STEPS = 2_000_000


@dataclass(frozen=True, slots=True, init=False)
class FskObject:
    """A bracketed word in X and I: ordinal size, X-positions, bracketing."""

    m: int
    u: tuple[int, ...]
    s: Lbf
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, m: int, u: Sequence[int], s: Lbf) -> None:
        self.__post_init__(m, tuple(u), s)

    def __post_init__(self, m: int, u: tuple[int, ...], s: Lbf) -> None:
        if m < 1:
            raise InputError("objects have at least one letter")
        if len(s.values) != m:
            raise InputError(f"bracketing on ord {s.m} does not fit ord {m}")
        # the conditions of _check_positions, run by builtins: in range
        # at both ends and strictly increasing in between; the loops run
        # only to raise their messages
        if u and not (u[0] >= 0 and u[-1] < m and all(map(lt, u, u[1:]))):
            _check_positions(u, m)
        _set_obj_m(self, m)
        _set_obj_u(self, u)
        _set_obj_s(self, s)
        _set_obj_hash(self, hash((u, s)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def grade(self) -> int:
        """Number of generator occurrences."""
        return len(self.u)

    def __repr__(self) -> str:
        u = ",".join(str(j) for j in self.u)
        s = ",".join(str(v) for v in self.s.values)
        return f"FskObject(m={self.m}, u={{{u}}}, s={s})"


# The slot setters, past the frozen guard: only the check above stores
# through them.
_set_obj_m = FskObject.m.__set__
_set_obj_u = FskObject.u.__set__
_set_obj_s = FskObject.s.__set__
_set_obj_hash = FskObject._hash.__set__


def _check_positions(u: tuple[int, ...], m: int) -> None:
    # the rejecting half of FskObject's check on u, for its messages
    if any(not 0 <= j < m for j in u):
        raise InputError(f"generator positions {u} outside ord {m}")
    if any(a >= b for a, b in zip(u, u[1:])):
        raise InputError(f"generator positions {u} not strictly increasing")


GENERATOR = FskObject(1, (0,), Lbf((0,)))
UNIT = FskObject(1, (), Lbf((0,)))


@dataclass(frozen=True, slots=True)
class FskMorphism:
    """A morphism between bracketed words; validated at construction."""

    src: FskObject
    dst: FskObject
    map: MonotoneMap

    def __post_init__(self) -> None:
        if not is_morphism(self.src, self.dst, self.map):
            raise InputError(
                f"{self.map!r} is not a morphism {self.src!r} -> {self.dst!r}")

    def __repr__(self) -> str:
        imgs = ",".join(str(v) for v in self.map.images)
        return f"FskMorphism({self.src!r} -> {self.dst!r}; {imgs})"


# _proved's slot setters, past the frozen guard
_set_src = FskMorphism.src.__set__
_set_dst = FskMorphism.dst.__set__
_set_map = FskMorphism.map.__set__


def _proved(src: FskObject, dst: FskObject, phi: MonotoneMap) -> FskMorphism:
    # The morphism src -> dst over phi, whose membership the caller has
    # already decided: the fields of FskMorphism without is_morphism.
    # Only this module calls it (CI checks that).
    f = object.__new__(FskMorphism)
    _set_src(f, src)
    _set_dst(f, dst)
    _set_map(f, phi)
    return f


@dataclass(frozen=True)
class MorphismClass:
    """Membership flags for the distinguished classes of morphisms."""

    is_tamari: bool
    is_shrink: bool
    is_swell: bool
    is_fsk_surjection: bool
    is_fsk_injection: bool


# ---------------------------------------------------------------------------
# membership criteria
#
# All three decision routes share the bottom-preservation and
# generator-bijection conditions; they differ in how the bracketings are
# compared.  No check is memoized: each is one linear pass over the
# validated map, and no morphism built inside the package is proved twice.
# ---------------------------------------------------------------------------


def _bij_ok(phi: MonotoneMap, u: Sequence[int], v: Sequence[int]) -> bool:
    # The map and its right adjoint must restrict to inverse bijections
    # u <-> v.  Both are strictly increasing and the map is monotone, so
    # that holds exactly when they have one length and the map sends
    # each u_i to v_i as the last point of its fibre.
    if len(u) != len(v):
        return False
    images = phi.images
    last = len(images) - 1
    for j, i in zip(u, v):
        if images[j] != i or (j != last and images[j + 1] <= i):
            return False
    return True


def _scan_close(stack: tuple, level: int, opens: int,
                r_t: tuple[int, ...]) -> tuple | None:
    # One step of the bracket scan: a fibre ends at the image `level`
    # and its source block opens at the image `opens`.  The stack holds
    # the occupied levels no block has closed yet, in increasing order,
    # as immutable cells (level, least r_T over this cell and the ones
    # below, rest) over a sentinel (0, t.m, None) that never pops; cells
    # are shared, never changed.  The step pushes level, then closes the
    # levels above opens, on top; None when one closes past r_T.
    if level:
        stack = (level, min(stack[1], r_t[level]), stack)
    while stack[0] > opens:
        if level > r_t[stack[0]]:
            return None
        stack = stack[2]
    return stack


def _scan_end(stack: tuple, level: int, opens: int,
              r_t: tuple[int, ...]) -> bool:
    # The last step of the bracket scan: the last fibre ends at the top
    # image `level` and takes its _scan_close step, and the levels still
    # pending then close at the top image, within r_T of each.
    stack = _scan_close(stack, level, opens, r_t)
    return stack is not None and stack[1] >= level


def _bracket_direct_ok(phi: MonotoneMap, s: Lbf, t: Lbf) -> bool:
    # At each occupied level h of the image, the surviving source blocks
    # whose bracket opens strictly below h first close at the lowest
    # level images[k] with k last in its fibre, images[k] >= h and
    # images[s(k)] < h, with the top image as fallback; that close must
    # come no later than the target's closing bound r_T(h).
    # One pass over the fibres in increasing level, a _scan_close step
    # for each, the last one in _scan_end.
    images, svalues = phi.images, s.values
    r_t = lbf_to_rbf(t).values
    last = len(images) - 1
    stack = (0, len(r_t), None)
    for k in range(last):
        level = images[k]
        if level != images[k + 1]:
            stack = _scan_close(stack, level, images[svalues[k]], r_t)
            if stack is None:
                return False
    return _scan_end(stack, images[last], images[svalues[last]], r_t)


def _bracket_factor_ok(phi: MonotoneMap, s: Lbf, t: Lbf) -> bool:
    # compare the two bracketings after transporting both to the image
    sigma, delta = epi_mono_factorize(phi)
    return tamari_leq(conjugate_surj(sigma, s), conjugate_inj(delta, t))


def _bracket_search_ok(phi: MonotoneMap, s: Lbf, t: Lbf) -> bool:
    # Depth-first search for a middle bracketing R on the image with
    # conj <= R and r_R <= bound, built one entry at a time.  A prefix
    # is summed up by its open positions, a bitmask: i is open while
    # every entry assigned at or after i is >= i.  The open positions are
    # exactly the values the next entry may take, taking v closes every
    # open position above v, and r_R(i) is the index of the entry that
    # closes i (k - 1 if none does).
    # Prunes: entry j is at least conj[j]; a prefix is dropped once an
    # open position i has run to bound[i] < k - 1 without closing; and
    # an open set holding one already found dead at the same depth is
    # dead, since every prefix above conj keeps conj's open positions
    # open, so the smaller set can copy any move of the larger one.
    # A leaf is returned only after the explicit test.
    sigma, delta = epi_mono_factorize(phi)
    conj = conjugate_surj(sigma, s)
    bound = _rbf_values(conjugate_inj(delta, t).values)
    k = delta.dom
    due = [0] * k  # due[j]: positions i >= 1 that must close by entry j
    for i in range(1, k):
        if bound[i] < k - 1:
            due[bound[i]] |= 1 << i
    for j in range(1, k):
        due[j] |= due[j - 1]
    dead: list[list[int]] = [[] for _ in range(k)]
    values = [0] * k

    def moves(j: int, open_: int):
        # at the top entry conj(k - 1) = k - 1 leaves one move
        return (v for v in range(conj(j), j + 1) if open_ >> v & 1)

    frames = [(0, 1, moves(0, 1))]
    while frames:
        j, open_, todo = frames[-1]
        for v in todo:
            values[j] = v
            if j == k - 1:
                middle = Lbf(tuple(values))
                if (tamari_leq(conj, middle)
                        and all(map(le, _rbf_values(middle.values), bound))):
                    return True
                continue
            still_open = open_ & ((2 << v) - 1)
            if still_open & due[j]:
                continue
            nxt = still_open | 1 << (j + 1)
            if any(d & nxt == d for d in dead[j + 1]):
                continue
            frames.append((j + 1, nxt, moves(j + 1, nxt)))
            break
        else:
            frames.pop()
            dead[j].append(open_)
    return False


def _check_fits(src: FskObject, dst: FskObject, phi: MonotoneMap) -> None:
    if phi.dom != src.m or phi.cod != dst.m:
        raise InputError(
            f"map {phi.dom}->{phi.cod} does not fit {src!r} -> {dst!r}")


def is_morphism(src: FskObject, dst: FskObject, phi: MonotoneMap,
                mode: str = "direct") -> bool:
    """Decide whether phi defines a morphism src -> dst.

    The three modes implement independent characterisations and always
    agree: "direct" scans the map against the source bracket openings
    and the target bracket closings, "via_factor" factorizes phi and
    compares the two bracketings transported to its image, and
    "via_search" looks for any middle bracketing splitting phi into a
    surjective and an injective morphism.  The search builds the middle
    one entry at a time and prunes prefixes that cannot work, so its
    work is quadratic in the image size k rather than Catalan(k - 1),
    and it answers True only for a middle that passes the explicit test.
    The modes share one generator check: the bijection for phi gives it
    for both halves of the factorization, since the surjective half has
    phi's fibres and the injective half is one-to-one.
    """
    _check_fits(src, dst, phi)
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    if not phi.preserves_bottom:
        return False
    if not _bij_ok(phi, src.u, dst.u):
        return False
    if mode == "direct":
        return _bracket_direct_ok(phi, src.s, dst.s)
    if mode == "via_factor":
        return _bracket_factor_ok(phi, src.s, dst.s)
    return _bracket_search_ok(phi, src.s, dst.s)


def is_tamari(src: FskObject, dst: FskObject, phi: MonotoneMap) -> bool:
    """Identity map witnessing that the source bracketing rebrackets up."""
    _check_fits(src, dst, phi)
    return (phi.is_identity and src.m == dst.m and src.u == dst.u
            and tamari_leq(src.s, dst.s))


def is_shrink(src: FskObject, dst: FskObject, sigma: MonotoneMap) -> bool:
    """Surjection deleting units: conjugation carries the source
    bracketing exactly onto the target one, and collapsed positions open
    their bracket inside the collapsed block."""
    _check_fits(src, dst, sigma)
    return _shrink_ok(sigma, src.u, src.s, dst.u, dst.s)


def _shrink_ok(sigma: MonotoneMap, src_u: Sequence[int], src_s: Lbf,
               dst_u: Sequence[int], dst_s: Lbf) -> bool:
    # is_shrink on the parts of its two objects, so that is_swell can
    # ask it of the reversed objects without building them
    if not sigma.is_surjective:
        return False
    if not _bij_ok(sigma, src_u, dst_u):
        return False
    if conjugate_surj(sigma, src_s) != dst_s:
        return False
    # j < sigma*(sigma(j)) says exactly that j is not last in its fibre
    images, svalues = sigma.images, src_s.values
    for j in range(len(images) - 1):
        if images[j] == images[j + 1] and images[svalues[j]] != images[j]:
            return False
    return True


def is_swell(src: FskObject, dst: FskObject, delta: MonotoneMap) -> bool:
    """Injection inserting units: the right adjoint is a shrink morphism
    between the reversed objects."""
    _check_fits(src, dst, delta)
    if not delta.preserves_bottom:
        return False
    return _shrink_ok(_dual_map(delta), _dual_u(dst), tamari_opposite(dst.s),
                      _dual_u(src), tamari_opposite(src.s))


def is_fsk_surjection(src: FskObject, dst: FskObject, sigma: MonotoneMap) -> bool:
    """A rebracketing followed by a shrink morphism (explicit criterion)."""
    _check_fits(src, dst, sigma)
    return (sigma.is_surjective
            and _bij_ok(sigma, src.u, dst.u)
            and tamari_leq(conjugate_surj(sigma, src.s), dst.s))


def is_fsk_injection(src: FskObject, dst: FskObject, delta: MonotoneMap) -> bool:
    """A swell morphism followed by a rebracketing (explicit criterion):
    the source bracketing lies below the conjugate of the target one
    along delta, in the Tamari order."""
    _check_fits(src, dst, delta)
    if not (delta.is_injective and delta.preserves_bottom):
        return False
    return (_bij_ok(delta, src.u, dst.u)
            and tamari_leq(src.s, conjugate_inj(delta, dst.s)))


def classify(f: FskMorphism) -> MorphismClass:
    """Compute every class membership flag by its explicit criterion."""
    return MorphismClass(
        is_tamari=is_tamari(f.src, f.dst, f.map),
        is_shrink=is_shrink(f.src, f.dst, f.map),
        is_swell=is_swell(f.src, f.dst, f.map),
        is_fsk_surjection=is_fsk_surjection(f.src, f.dst, f.map),
        is_fsk_injection=is_fsk_injection(f.src, f.dst, f.map),
    )


# ---------------------------------------------------------------------------
# category structure
# ---------------------------------------------------------------------------


# _tensor_objects, lambda_ and rho sit in the value tier.  The axiom sweep
# does come back to tensors the bound has evicted: at 7 leaves
# _tensor_objects takes 720,742 calls and 198,777 misses on 96,420
# distinct pairs.  The bound stays because a miss is cheap, every check
# it repeats being linear and run on shared maps (the collapse and
# inclusion maps and their duals are built once per size), and holding
# every pair costs more memory than it saves time: unbounded, `freeskew
# axioms --max-leaves 7` ran in 1.53 s against 1.82 s but peaked at
# 53 MiB against 32 MiB (CPython 3.11 on a 2-core x86-64 VM, median of
# three alternating runs).  identity and alpha keep no cache: identity
# reuses the shared map of its size, and a lookup keyed by alpha's three
# objects costs about as much as building the morphism.  The values that
# depend on shape alone (_tensor_lbf, tamari_opposite,
# ordmaps.ordinal_sum, ordmaps._dual_map and the maps shared by size)
# sit in the shape tier, whose bound holds every one a sweep meets: the
# sweep over 8 leaves meets 2,047 tensor bracketings but asks for them
# about 1.3 million times, so each is built and checked once, and every
# tensor with the same shape of factors holds the same bracketing.
def identity(obj: FskObject) -> FskMorphism:
    """The identity on obj, a morphism by definition (not re-proved)."""
    return _proved(obj, obj, MonotoneMap.identity(obj.m))


def compose(g: FskMorphism, f: FskMorphism) -> FskMorphism:
    """The composite g after f; Fsk is closed under composition, so the
    result is not proved again."""
    if f.dst != g.src:
        raise InputError(f"cannot compose: {f.dst!r} != {g.src!r}")
    return _proved(f.src, g.dst, ordmaps.compose(g.map, f.map))


@shape_cache
def _tensor_lbf(s: Lbf, t: Lbf) -> Lbf:
    # the bracketing of a tensor depends on the two bracketings alone
    return Lbf(s.values[:-1] + (0,) + tuple(v + s.m for v in t.values))


@value_cache
def _tensor_objects(a: FskObject, b: FskObject) -> FskObject:
    m = a.m
    return FskObject(m + b.m, a.u + tuple([j + m for j in b.u]),
                     _tensor_lbf(a.s, b.s))


def tensor(x, y):
    """Tensor of two objects, (m, u, S) (x) (n, v, T) =
    (m+n, u + (v+m), S[:-1] + (0,) + (T+m)), or of two morphisms (the
    block sum of the maps, a morphism again without a new proof)."""
    if isinstance(x, FskObject) and isinstance(y, FskObject):
        return _tensor_objects(x, y)
    if isinstance(x, FskMorphism) and isinstance(y, FskMorphism):
        return _proved(_tensor_objects(x.src, y.src),
                       _tensor_objects(x.dst, y.dst),
                       ordinal_sum(x.map, y.map))
    raise InputError("tensor needs two objects or two morphisms")


def alpha(a: FskObject, b: FskObject, c: FskObject) -> FskMorphism:
    """The associator (ab)c -> a(bc): a rebracketing over the identity map."""
    src = _tensor_objects(_tensor_objects(a, b), c)
    dst = _tensor_objects(a, _tensor_objects(b, c))
    if not tamari_leq(src.s, dst.s):
        raise RuntimeError(f"associator source {src!r} does not rebracket "
                           f"up to {dst!r}")
    return _proved(src, dst, MonotoneMap.identity(src.m))


@shape_cache
def _collapse_map(m: int) -> MonotoneMap:
    # ord m+1 -> ord m, sending the leading unit and the first letter to 0
    return MonotoneMap(m + 1, m, (0,) + tuple(range(m)))


@shape_cache
def _inclusion_map(m: int) -> MonotoneMap:
    # ord m -> ord m+1, missing only the trailing unit
    return MonotoneMap(m, m + 1, tuple(range(m)))


@value_cache
def lambda_(a: FskObject) -> FskMorphism:
    """The left unit map Ia -> a: collapse the leading unit."""
    src = _tensor_objects(UNIT, a)
    sigma = _collapse_map(a.m)
    if not is_shrink(src, a, sigma):
        raise RuntimeError(f"left unit map at {a!r} is not a shrink")
    return _proved(src, a, sigma)


# its own kernel: dual(lambda_(dual(a))) slows the axiom sweep (3 more objects)
@value_cache
def rho(a: FskObject) -> FskMorphism:
    """The right unit map a -> aI: adjoin a trailing unit."""
    dst = _tensor_objects(a, UNIT)
    delta = _inclusion_map(a.m)
    if not is_swell(a, dst, delta):
        raise RuntimeError(f"right unit map at {a!r} is not a swell")
    return _proved(a, dst, delta)


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------


def factor_surjection(f: FskMorphism) -> tuple[FskObject, FskObject]:
    """Both canonical middles of a surjective morphism.

    The first middle keeps the underlying set and raises the bracketing
    as far as possible (rebracketing first, shrink second); the second
    middle pushes the bracketing forward (surjection first, rebracketing
    second).
    """
    if not is_fsk_surjection(f.src, f.dst, f.map):
        raise InputError(f"{f!r} is not an Fsk-surjection")
    lifted = base_change_surj(f.map, f.dst.s)
    max_middle = FskObject(f.src.m, f.src.u, tamari_join(f.src.s, lifted))
    alt_middle = FskObject(f.dst.m, f.dst.u, conjugate_surj(f.map, f.src.s))
    if not is_shrink(max_middle, f.dst, f.map):
        raise RuntimeError(f"top middle of {f!r} is not a shrink source")
    if compose(_proved(max_middle, f.dst, f.map),
               FskMorphism(f.src, max_middle, MonotoneMap.identity(f.src.m))
               ) != f:
        raise RuntimeError(f"top middle of {f!r} does not recompose to it")
    if compose(FskMorphism(alt_middle, f.dst, MonotoneMap.identity(f.dst.m)),
               FskMorphism(f.src, alt_middle, f.map)) != f:
        raise RuntimeError(f"pushed middle of {f!r} does not recompose to it")
    return max_middle, alt_middle


def factor_injection(f: FskMorphism) -> tuple[FskObject, FskObject]:
    """Both canonical middles of an injective morphism (mirror image of
    factor_surjection: swell first / injection first).

    dual makes f surjective and turns the Tamari order upside down, so
    the two middles of dual(f), contract checks included, dualize to
    those of f.
    """
    if not is_fsk_injection(f.src, f.dst, f.map):
        raise InputError(f"{f!r} is not an Fsk-injection")
    max_middle, alt_middle = factor_surjection(dual(f))
    return dual(max_middle), dual(alt_middle)


def factor_general(f: FskMorphism) -> tuple[FskMorphism, FskObject, FskMorphism]:
    """Split any morphism as a surjective part onto its image followed by
    an injective part, through the canonical middle object."""
    sigma, delta = epi_mono_factorize(f.map)
    middle = FskObject(sigma.cod,
                       tuple(sigma(j) for j in f.src.u),
                       conjugate_inj(delta, f.dst.s))
    if not is_fsk_surjection(f.src, middle, sigma):
        raise RuntimeError(f"surjective part of {f!r} is not an Fsk-surjection")
    if not is_fsk_injection(middle, f.dst, delta):
        raise RuntimeError(f"injective part of {f!r} is not an Fsk-injection")
    surj = _proved(f.src, middle, sigma)
    inj = _proved(middle, f.dst, delta)
    if compose(inj, surj) != f:
        raise RuntimeError(f"the parts of {f!r} do not recompose to it")
    return surj, middle, inj


def hom(a: FskObject, b: FskObject) -> list[FskMorphism]:
    """All morphisms a -> b, ordered lexicographically by image tuples.

    The generator bijection pins each generator of a to its image, so
    only the units between the pins vary: position 0 goes to 0,
    generator u_i goes to v_i as the last point of its fibre, and the
    units after it lie strictly above v_i and at most at v_{i+1} (or the
    top).  A depth-first search fills the positions 1..a.m-1 in order,
    each within its pins and at or above the previous image, and carries
    the scan of _bracket_direct_ok along: once image j passes image j-1,
    position j-1 is last in its fibre and takes its _scan_close step.  A
    prefix is dropped when the step fails, or when a pending level h has
    r_T(h) below the current image, since every later image is at least
    as high.  A leaf takes the last step of the scan the search holds
    (_scan_end, the step _bracket_direct_ok ends with), so each leaf gets
    the whole direct check, every step once and in the same order, and
    is kept if it passes; that one check is its whole proof, so the
    listed morphisms are not proved again.  The scan's stacks are
    immutable and shared, so backtracking only moves back a position,
    and the search is iterative, so deep words do not reach the
    recursion limit.

    Every leaf is a morphism by construction: the prune has kept
    stack[1] >= images[m-1] at position m-1, and the last step opens at
    the top image itself, so it pops nothing and pushes r_T(top) >= top.
    The leaf's _scan_end call stays as the explicit proof.  The search
    is not output-sensitive, since a prefix can lead to no leaf, so it
    bounds the work it does: past MAX_HOM_STEPS moves of the search, or
    past MAX_HOM_STEPS letters listed (a.m + b.m per morphism), it
    raises InputError.
    """
    if a.grade != b.grade:
        return []
    # position j goes into range(los[j], his[j]): the units before u_i
    # into (v_{i-1}, v_i], u_i to v_i, and position 0 to 0 (an empty
    # range when a generator there goes higher)
    los, his, start, lo = [], [], 0, 0
    for j, v in zip(a.u, b.u):
        los += [lo] * (j - start) + [v]
        his += [v + 1] * (j - start + 1)
        start, lo = j + 1, v + 1
    los += [lo] * (a.m - start)
    his += [b.m] * (a.m - start)
    his[0] = 1
    if any(map(ge, los, his)):
        return []
    m, svalues = a.m, a.s.values
    r_t = lbf_to_rbf(b.s).values
    images = [0] * m
    # stacks[j]: the scan once images[:j] are fixed; closed[j]: stacks[j]
    # after position j-1 ends its fibre, None until the first image above
    # images[j-1] asks for it, False if that step fails
    stacks = [(0, b.m, None)] * m
    closed = [None] * m
    nexts = list(los)  # nexts[j]: the next image to try at position j
    out = []
    most = MAX_HOM_STEPS // (m + b.m)  # the morphisms it may list
    # stack: the scan for the position being filled, held into the leaf
    stack = stacks[0]
    j = 1
    for _ in range(MAX_HOM_STEPS):
        if not j:
            return out
        if j == m:
            if _scan_end(stack, images[m - 1], images[svalues[m - 1]], r_t):
                out.append(_proved(a, b, MonotoneMap(m, b.m, tuple(images))))
                if len(out) > most:
                    raise InputError(f"hom lists more than MAX_HOM_STEPS = "
                                     f"{MAX_HOM_STEPS} letters")
            j -= 1
            continue
        v, prev = nexts[j], images[j - 1]
        stack = stacks[j] if v < his[j] else False
        if stack and v > prev:
            if closed[j] is None:
                closed[j] = _scan_close(stack, prev, images[svalues[j - 1]],
                                        r_t) or False
            stack = closed[j]
        if not stack or stack[1] < v:
            j -= 1
            continue
        images[j] = v
        nexts[j] = v + 1
        j += 1
        if j < m:
            stacks[j] = stack
            closed[j] = None
            nexts[j] = max(los[j], v)
    if j:
        raise InputError(f"hom takes more than MAX_HOM_STEPS = "
                         f"{MAX_HOM_STEPS} search steps")
    return out


def objects_on(m: int) -> list[FskObject]:
    """Every object on ord m: by grade, then generator positions, then
    bracketing in enumerate_tamari order."""
    return [FskObject(m, u, s)
            for size in range(m + 1)
            for u in combinations(range(m), size)
            for s in enumerate_tamari(m)]


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def dual(x):
    """Reverse the underlying ordinal.

    On objects this reflects the generator positions and mirrors the
    bracketing; on morphisms it reflects the right adjoint of the
    underlying map, reversing the direction of the arrow.  Involutive,
    and it interchanges surjective with injective classes; the dual of
    a morphism is a morphism, so it is not proved again.
    """
    if isinstance(x, FskObject):
        return FskObject(x.m, _dual_u(x), tamari_opposite(x.s))
    if isinstance(x, FskMorphism):
        return _proved(dual(x.dst), dual(x.src), _dual_map(x.map))
    raise InputError("dual needs an object or a morphism")


def _dual_u(x: FskObject) -> list[int]:
    # the generator positions of dual(x): reflected, and read in reverse
    # so that they increase
    top = x.m - 1
    return [top - j for j in reversed(x.u)]


# ---------------------------------------------------------------------------
# the five coherence axioms, as checkable equalities
# ---------------------------------------------------------------------------


def axiom_lambda_rho() -> bool:
    """Adjoining then collapsing a unit on the unit is the identity."""
    return compose(lambda_(UNIT), rho(UNIT)) == identity(UNIT)


def axiom_alpha_rho(x: FskObject, y: FskObject) -> bool:
    """Associating a freshly adjoined unit inward: xy -> (xy)I -> x(yI)."""
    lhs = compose(alpha(x, y, UNIT), rho(tensor(x, y)))
    rhs = tensor(identity(x), rho(y))
    return lhs == rhs


def axiom_alpha_lambda(x: FskObject, y: FskObject) -> bool:
    """Collapsing a leading unit before or after associating: (Ix)y -> xy."""
    lhs = compose(lambda_(tensor(x, y)), alpha(UNIT, x, y))
    rhs = tensor(lambda_(x), identity(y))
    return lhs == rhs


def axiom_rho_alpha_lambda(x: FskObject, y: FskObject) -> bool:
    """Inserting a unit in the middle and removing it again: identity on xy."""
    composite = compose(
        tensor(identity(x), lambda_(y)),
        compose(alpha(x, UNIT, y), tensor(rho(x), identity(y))))
    return composite == identity(tensor(x, y))


def axiom_pentagon(w: FskObject, x: FskObject, y: FskObject,
                   z: FskObject) -> bool:
    """The two rebracketing paths ((wx)y)z -> w(x(yz)) coincide."""
    top = compose(tensor(identity(w), alpha(x, y, z)),
                  compose(alpha(w, tensor(x, y), z),
                          tensor(alpha(w, x, y), identity(z))))
    bottom = compose(alpha(w, x, tensor(y, z)), alpha(tensor(w, x), y, z))
    return top == bottom
