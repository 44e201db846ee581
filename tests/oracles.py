"""Independent brute-force oracles and small-instance enumerators.

Everything here recomputes expected values from first principles
(literal defining formulas, exhaustive scans) so the tests never trust
the code paths they are checking.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain, combinations, combinations_with_replacement, product
from math import comb, prod

from freeskew.ordmaps import (
    InputError,
    MonotoneMap,
    epi_mono_factorize,
    right_adjoint,
)
from freeskew.tamari import (
    Lbf,
    conjugate_surj,
    enumerate_tamari,
    lbf_to_rbf,
    tamari_leq,
)
from freeskew.fsk import (
    FskMorphism,
    FskObject,
    _bracket_direct_ok,
    is_morphism,
    objects_on,
)
from freeskew.words import WordSyntaxError, parse_object

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)


# ---------------------------------------------------------------------------
# enumerators
# ---------------------------------------------------------------------------


def all_monotone_images(m, n):
    """All weakly increasing tuples of length m with entries < n."""
    return [tuple(t) for t in combinations_with_replacement(range(n), m)]


def all_bottom_images(m, n):
    """As above but starting at 0 (the maps with right adjoints)."""
    return [(0,) + tuple(t)
            for t in combinations_with_replacement(range(n), m - 1)]


def all_bottom_maps(m, n):
    return [MonotoneMap(m, n, images) for images in all_bottom_images(m, n)]


def all_surjections(m, n):
    return [f for f in all_bottom_maps(m, n) if f.is_surjective]


def all_bottom_injections(m, n):
    """Bottom-preserving strictly increasing maps ord m -> ord n."""
    return [MonotoneMap(m, n, (0,) + tuple(rest))
            for rest in combinations(range(1, n), m - 1)]


def brute_lbfs(m):
    """All lbfs by filtering every endofunction by the literal conditions."""
    found = []
    for values in product(range(m), repeat=m):
        if any(values[j] > j for j in range(m)):
            continue
        if values[m - 1] != m - 1:
            continue
        if any(values[j] <= i < j and not values[j] <= values[i]
               for j in range(m) for i in range(m)):
            continue
        found.append(values)
    return found


def all_trees(m):
    """All binary trees with m unlabeled leaves."""
    if m == 1:
        return [Leaf()]
    out = []
    for k in range(1, m):
        for left in all_trees(k):
            for right in all_trees(m - k):
                out.append(Node(left, right))
    return out


def all_objects(m):
    """Every object on ord m, in a deterministic order."""
    return objects_on(m)


def objects_up_to(max_m):
    out = []
    for m in range(1, max_m + 1):
        out.extend(all_objects(m))
    return out


# ---------------------------------------------------------------------------
# adjoint oracles (literal max-definitions)
# ---------------------------------------------------------------------------


def brute_right_adjoint(phi):
    """max{i : phi(i) <= j}, by scanning every i."""
    values = tuple(max(i for i in range(phi.dom) if phi.images[i] <= j)
                   for j in range(phi.cod))
    return MonotoneMap(phi.cod, phi.dom, values)


def brute_second_right_adjoint(phi):
    """max{j : phi*(j) <= i} computed from the brute right adjoint."""
    star = brute_right_adjoint(phi)
    values = tuple(max(j for j in range(phi.cod) if star.images[j] <= i)
                   for i in range(phi.dom))
    return MonotoneMap(phi.dom, phi.cod, values)


# ---------------------------------------------------------------------------
# the tree route
#
# The library works on triples only and has no bracket tree; this is the
# one tree implementation.  These recompute the same results the way the
# definitions read: by building bracket trees, grafting or mirroring
# them, and reading the triple back off.  A tree becomes an object only
# through its text (tree_text and the library's parse_object).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A leaf of a bracket tree, labelled by its letter."""

    label: str = "X"


@dataclass(frozen=True)
class Node:
    """An internal node of a bracket tree: an ordered pair of subtrees."""

    left: object
    right: object


def tree_to_lbf(tree):
    """The lbf of a tree's shape: a node whose leftmost leaf is a and
    whose right child starts at leaf c sets l(c-1) = a, and l(m-1) = m-1."""
    values = {}

    def leaves(node, a):
        # the number of leaves of node, whose leftmost leaf is a
        if isinstance(node, Leaf):
            return 1
        c = a + leaves(node.left, a)
        values[c - 1] = a
        return c - a + leaves(node.right, c)

    m = leaves(tree, 0)
    values[m - 1] = m - 1
    return Lbf(tuple(values[j] for j in range(m)))


def lbf_to_tree(lbf, labels=None):
    """The tree of an lbf, its leaves labelled left to right (all X by
    default): the pair spanning leaves a to b splits after the largest
    j < b with l(j) = a."""
    labels = labels or "X" * lbf.m

    def build(a, b):
        if a == b:
            return Leaf(labels[a])
        j = max(j for j in range(a, b) if lbf.values[j] == a)
        return Node(build(a, j), build(j + 1, b))

    return build(0, lbf.m - 1)


def object_tree(obj):
    """The tree of an object: its bracketing, labelled by its letters."""
    return lbf_to_tree(obj.s, ["X" if j in obj.u else "I"
                               for j in range(obj.m)])


def mirror_tree(tree):
    if isinstance(tree, Leaf):
        return tree
    return Node(mirror_tree(tree.right), mirror_tree(tree.left))


def graft_tensor(a, b):
    """The tensor of two objects: the tree with the two words as halves."""
    return parse_object(tree_text(Node(object_tree(a), object_tree(b))))


def graft_substitute(g, fs):
    """Substitution: graft the words fs onto the X leaves of g in order."""
    replacements = iter([object_tree(f) for f in fs])

    def graft(tree):
        if isinstance(tree, Leaf):
            return next(replacements) if tree.label == "X" else tree
        return Node(graft(tree.left), graft(tree.right))

    return parse_object(tree_text(graft(object_tree(g))))


@lru_cache(maxsize=None)
def opposite_oracle(s):
    """The lbf of the mirror-image tree."""
    return tree_to_lbf(mirror_tree(lbf_to_tree(s)))


def reflect_values(values):
    """A bracketing function read on the reversed ordinal."""
    m = len(values)
    return tuple(m - 1 - values[m - 1 - j] for j in range(m))


def mirror_rbf_values(lbf):
    """The rbf of an lbf: the lbf of the mirror-image tree, read on the
    reversed ordinal."""
    return reflect_values(opposite_oracle(lbf).values)


def mirror_lbf_values(rbf):
    """The lbf with the given rbf, via the mirror-image tree.

    An rbf on ord m is an lbf on the reversed ordinal: reflect it, build
    its tree, mirror the tree and read the lbf off.  The round trip
    through lbf_to_rbf must give the rbf back.
    """
    lbf = opposite_oracle(Lbf(reflect_values(rbf.values)))
    assert lbf_to_rbf(lbf) == rbf
    return lbf.values


def tree_text(tree):
    """The canonical text of a tree, written recursively."""
    if isinstance(tree, Leaf):
        return tree.label
    return f"({tree_text(tree.left)} {tree_text(tree.right)})"


def tree_of_text(text):
    """The tree of a word in canonical text, by recursive descent."""
    def parse(pos):
        if text[pos] != "(":
            return Leaf(text[pos]), pos + 1
        left, pos = parse(pos + 1)
        right, pos = parse(pos + 1)  # past the separating space
        return Node(left, right), pos + 1  # past the ')'

    tree, end = parse(0)
    assert end == len(text)
    return tree


# ---------------------------------------------------------------------------
# Tamari oracles
# ---------------------------------------------------------------------------


def brute_upper_bounds(s, t):
    return [u for u in enumerate_tamari(s.m)
            if all(u.values[j] >= s.values[j] for j in range(s.m))
            and all(u.values[j] >= t.values[j] for j in range(s.m))]


def brute_lower_bounds(s, t):
    return [u for u in enumerate_tamari(s.m)
            if all(u.values[j] <= s.values[j] for j in range(s.m))
            and all(u.values[j] <= t.values[j] for j in range(s.m))]


def brute_join(s, t):
    """Least upper bound found by exhaustive order-theoretic search."""
    uppers = brute_upper_bounds(s, t)
    least = [u for u in uppers
             if all(all(u.values[j] <= w.values[j] for j in range(s.m))
                    for w in uppers)]
    assert len(least) == 1
    return least[0]


def brute_meet(s, t):
    lowers = brute_lower_bounds(s, t)
    greatest = [u for u in lowers
                if all(all(u.values[j] >= w.values[j] for j in range(s.m))
                       for w in lowers)]
    assert len(greatest) == 1
    return greatest[0]


# ---------------------------------------------------------------------------
# definitional decision procedures
#
# Morphism membership recomputed from the literal definitions: a shrink
# map is checked by its three conditions, surjective morphisms by the
# existential rebracketing search, injective ones through the reversal
# of the ordinals, and general ones through the existential middle.
# The bracketing side is kept separate from the generator-positions side
# so the pieces can be tabulated.
# ---------------------------------------------------------------------------


def reflect_map(psi):
    return MonotoneMap(psi.dom, psi.cod,
                       tuple(psi.cod - 1 - psi.images[psi.dom - 1 - j]
                             for j in range(psi.dom)))


def bij_ok_oracle(phi, u, v):
    star = right_adjoint(phi)
    fu = {phi(j) for j in u}
    fv = {star(i) for i in v}
    return (fu <= set(v) and fv <= set(u)
            and all(star(phi(j)) == j for j in u)
            and all(phi(star(i)) == i for i in v))


def component_bij_oracle(phi, u, v):
    """The generator conditions for both halves of the epi-mono
    factorization of phi, u -> sigma(u) -> v."""
    sigma, delta = epi_mono_factorize(phi)
    mid = tuple(sigma(j) for j in u)
    return bij_ok_oracle(sigma, u, mid) and bij_ok_oracle(delta, mid, v)


@lru_cache(maxsize=None)
def shrink_brackets_ok(sigma, s, t):
    star = right_adjoint(sigma)
    if any(sigma(s(star(j))) != t(j) for j in range(sigma.cod)):
        return False
    return all(sigma(s(j)) == sigma(j)
               for j in range(sigma.dom) if j < star(sigma(j)))


def shrink_oracle(src, dst, sigma):
    """A shrink morphism by its definition: a surjection meeting the
    generator conditions and shrink_brackets_ok, whose fibre condition
    asks j < sigma*(sigma(j)) through the right adjoint."""
    return (sigma.is_surjective and bij_ok_oracle(sigma, src.u, dst.u)
            and shrink_brackets_ok(sigma, src.s, dst.s))


@lru_cache(maxsize=None)
def mirror_object(x):
    """The object on the reversed ordinal, its bracket tree mirrored."""
    return FskObject(x.m, tuple(sorted(x.m - 1 - j for j in x.u)),
                     opposite_oracle(x.s))


def swell_oracle(src, dst, delta):
    """A swell morphism by its definition: the reflected right adjoint of
    delta is a shrink morphism between the mirrored objects."""
    if not delta.preserves_bottom:
        return False
    return shrink_oracle(mirror_object(dst), mirror_object(src),
                         reflect_map(right_adjoint(delta)))


@lru_cache(maxsize=None)
def surj_def_brackets_ok(sigma, s, t):
    return any(shrink_brackets_ok(sigma, lifted, t)
               for lifted in enumerate_tamari(sigma.dom)
               if all(a <= b for a, b in zip(s.values, lifted.values)))


@lru_cache(maxsize=None)
def inj_def_brackets_ok(delta, s, t):
    # injection (., s) -> (., t): the reversed right adjoint must be a
    # surjective morphism between the reversed bracketings
    if not delta.preserves_bottom:
        return False
    return surj_def_brackets_ok(reflect_map(right_adjoint(delta)),
                                opposite_oracle(t), opposite_oracle(s))


@lru_cache(maxsize=None)
def general_def_brackets_ok(phi, s, t):
    if not phi.preserves_bottom:
        return False
    sigma, delta = epi_mono_factorize(phi)
    return any(surj_def_brackets_ok(sigma, s, middle)
               and inj_def_brackets_ok(delta, middle, t)
               for middle in enumerate_tamari(sigma.cod))


def scan_search_ok(images, cod, svalues, tvalues):
    """The via_search bracket condition by scanning every lbf R on the
    image, Catalan(k - 1) of them, for conj <= R and r_R <= bound."""
    sigma, delta = epi_mono_factorize(MonotoneMap(len(images), cod, images))
    conj = conjugate_surj(sigma, Lbf(svalues))
    star = right_adjoint(delta)
    r_t = lbf_to_rbf(Lbf(tvalues))
    bound = tuple(star(r_t(delta(j))) for j in range(delta.dom))
    for middle in enumerate_tamari(sigma.cod):
        if tamari_leq(conj, middle):
            r_middle = lbf_to_rbf(middle)
            if all(r_middle(j) <= bound[j] for j in range(delta.dom)):
                return True
    return False


# ---------------------------------------------------------------------------
# hom-sets
# ---------------------------------------------------------------------------


def brute_hom(a, b):
    """The maps of all morphisms a -> b, by filtering every
    bottom-preserving map with the definitional conditions, in
    lexicographic order."""
    return [phi for phi in all_bottom_maps(a.m, b.m)
            if bij_ok_oracle(phi, a.u, b.u)
            and general_def_brackets_ok(phi, a.s, b.s)]


def filter_hom(a, b):
    """hom(a, b) by generate-and-filter: every one of the C(m+n-2, m-1)
    bottom-preserving maps is tested with is_morphism."""
    out = []
    for tail in combinations_with_replacement(range(b.m), a.m - 1):
        phi = MonotoneMap(a.m, b.m, (0,) + tail)
        if is_morphism(a, b, phi):
            out.append(FskMorphism(a, b, phi))
    return out


def pinned_runs(a, b):
    """The candidate maps a -> b, as runs (k, lo, hi) of the letters
    1..a.m-1 in order: k letters whose images are any weakly increasing
    values in range(lo, hi).  Position 0 goes to 0, generator u_i goes to
    v_i as the last point of its fibre, and the units between two pins
    lie in (v_i, v_{i+1}]: above -1 before the first generator, and at
    most at the top b.m - 1 after the last.  None when no map meets these
    conditions."""
    if a.grade != b.grade:
        return None
    pins = dict(zip(a.u, b.u))
    if pins.get(0, 0) != 0:
        return None
    runs, units, below = [], 0, pins.get(0, -1)
    for p in range(1, a.m + 1):
        if p < a.m and p not in pins:
            units += 1
            continue
        above = pins.get(p, b.m - 1)
        if units:
            runs.append((units, below + 1, above + 1))
        if p < a.m:
            runs.append((1, above, above + 1))
        units, below = 0, above
    if any(lo >= hi for _, lo, hi in runs):
        return None
    return runs


def candidate_count(a, b):
    """How many maps meet the bottom and generator conditions for a -> b:
    a run of k letters over hi - lo values has C(hi - lo + k - 1, k)
    weakly increasing fillings."""
    runs = pinned_runs(a, b)
    if runs is None:
        return 0
    return prod(comb(hi - lo + k - 1, k) for k, lo, hi in runs)


def pinned_filter_hom(a, b):
    """The maps of all morphisms a -> b by generate-and-filter over the
    pinned candidates: every weakly increasing filling of the runs of
    pinned_runs is tested with the direct bracket check, in
    lexicographic order."""
    runs = pinned_runs(a, b)
    if runs is None:
        return []
    out = []
    for parts in product(*(combinations_with_replacement(range(lo, hi), k)
                           for k, lo, hi in runs)):
        phi = MonotoneMap(a.m, b.m, (0,) + tuple(chain.from_iterable(parts)))
        if _bracket_direct_ok(phi, a.s, b.s):
            out.append(phi)
    return out


# ---------------------------------------------------------------------------
# the focused sequent calculus
#
# A second description of Fsk, after Uustalu, Veltri and Zeilberger, "The
# sequent calculus of skew monoidal categories": a morphism A -> B is a
# focused derivation of the sequent A | ⊢ B.  A sequent S | Γ ⊢ C has a
# stoup S (one formula, or None for empty), a context Γ (a tuple of
# formulas) and a goal C; formulas are the Leaf and Node trees above.
# ---------------------------------------------------------------------------


def focused_count(a, b):
    """The number of focused derivations of object_tree(a) | ⊢
    object_tree(b), which is the size of hom(a, b).

    Left phase: I in the stoup becomes the empty stoup (IL); A⊗B becomes
    stoup A with B pushed onto the front of Γ (⊗L); an atom or an empty
    stoup goes to the right phase.  Right phase: X | ⊢ X (ax), − | ⊢ I
    (IR); ⊗R splits Γ at each point k into a left premise S | Γ[:k] ⊢ A,
    in the right phase and not beginning with pass, and a right premise
    − | Γ[k:] ⊢ B in the left phase; with an empty stoup, pass moves the
    first formula of Γ into the stoup and returns to the left phase."""

    @cache
    def left(stoup, context, goal):
        if stoup == Leaf("I"):
            return left(None, context, goal)
        if isinstance(stoup, Node):
            return left(stoup.left, (stoup.right,) + context, goal)
        return right(stoup, context, goal, True)

    @cache
    def right(stoup, context, goal, may_pass):
        count = 0
        if may_pass and stoup is None and context:
            count += left(context[0], context[1:], goal)
        if isinstance(goal, Node):
            count += sum(right(stoup, context[:k], goal.left, False)
                         * left(None, context[k:], goal.right)
                         for k in range(len(context) + 1))
        elif not context:
            count += stoup == goal or (stoup is None and goal == Leaf("I"))
        return count

    return left(object_tree(a), (), object_tree(b))


# ---------------------------------------------------------------------------
# the quadratic kernels
#
# The library's bracketing kernels are one-pass stack scans.  These are
# the loops they replaced, read straight off the defining conditions.
# ---------------------------------------------------------------------------


def validate_lbf_loop(values):
    """The lbf conditions: l(m-1) = m-1, 0 <= l(j) <= j, and
    l(j) <= l(i) for every i in [l(j), j)."""
    m = len(values)
    if values[m - 1] != m - 1:
        return False
    for j, vj in enumerate(values):
        if vj > j or vj < 0:
            return False
        for i in range(vj, j):
            if vj > values[i]:
                return False
    return True


def validate_rbf_loop(values):
    """The rbf conditions: r(0) = 0, j <= r(j) < m, and r(i) <= r(j) for
    every i in (j, r(j)]."""
    m = len(values)
    if values[0] != 0:
        return False
    for j, vj in enumerate(values):
        if vj < j or vj >= m:
            return False
        for i in range(j + 1, vj + 1):
            if values[i] > vj:
                return False
    return True


def lbf_to_rbf_loop(lbf):
    """r(i) = min{j >= i : l(j) < i}, m - 1 where empty, r(0) = 0."""
    l, m = lbf.values, lbf.m
    return (0,) + tuple(next((j for j in range(i, m) if l[j] < i), m - 1)
                        for i in range(1, m))


def rbf_to_lbf_loop(rbf):
    """l(j) = max{i <= j : r(i) > j}, 0 where empty, l(m-1) = m-1."""
    r, m = rbf.values, rbf.m
    return tuple(max((i for i in range(j + 1) if r[i] > j), default=0)
                 for j in range(m - 1)) + (m - 1,)


def base_change_inj_formula(delta, rbf):
    """The pushed rbf entry by entry: delta(r(delta*(j))) on the image of
    delta, where delta(delta*(j)) = j, and j elsewhere."""
    star = brute_right_adjoint(delta)
    return tuple(delta(rbf(star(j))) if delta(star(j)) == j else j
                 for j in range(delta.cod))


def direct_min_ok(images, svalues, tvalues):
    """The direct bracket condition, level by level: at each occupied
    level h > 0, the first block (k last in its fibre) at or above h that
    opens below h, or the top image, must not close past r_T(h)."""
    m = len(images)
    r_t = lbf_to_rbf_loop(Lbf(tvalues))
    top = images[m - 1]
    blocks = [(images[k], images[svalues[k]])
              for k in range(m) if k == m - 1 or images[k] < images[k + 1]]
    for h in set(images):
        if h == 0:
            continue
        close = min((level for level, opens in blocks
                     if level >= h and opens < h), default=top)
        if close > r_t[h]:
            return False
    return True


# ---------------------------------------------------------------------------
# value checks as loops
#
# MonotoneMap and FskObject run their range and order checks through
# builtins.  These are the per-element loops those replaced; each raises
# the InputError the constructor raises, or returns None.
# ---------------------------------------------------------------------------


def monotone_loop_check(dom, cod, images):
    """MonotoneMap's checks: non-empty ordinals, dom images, each in
    ord cod and none below the one before."""
    if dom < 1 or cod < 1:
        raise InputError("ordinals must be non-empty")
    if len(images) != dom:
        raise InputError(f"expected {dom} images, got {len(images)}")
    prev = 0
    for i, value in enumerate(images):
        if not 0 <= value < cod:
            raise InputError(f"image {value} outside ord {cod}")
        if value < prev:
            raise InputError(f"images not weakly increasing at index {i}")
        prev = value


def generator_positions_loop_check(m, u):
    """FskObject's checks on the generator positions u: each in ord m,
    and strictly increasing."""
    if any(not 0 <= j < m for j in u):
        raise InputError(f"generator positions {u} outside ord {m}")
    if any(a >= b for a, b in zip(u, u[1:])):
        raise InputError(f"generator positions {u} not strictly increasing")


# ---------------------------------------------------------------------------
# writers and factorizations through checked values
#
# The library counts brackets in int lists and factorizes with builtins.
# These are the versions they replaced, built from Counters, sets and
# the checked Rbf.
# ---------------------------------------------------------------------------


def format_object_counter(obj):
    """The text form of an object: a pair opens before letter a once for
    every j < m-1 with S(j) = a, and closes after letter b once for
    every i >= 1 with r_S(i) = b."""
    openings = Counter(obj.s.values[:-1])
    closings = Counter(lbf_to_rbf(obj.s).values[1:])
    generators = set(obj.u)
    return " ".join("(" * openings[i] + ("X" if i in generators else "I")
                    + ")" * closings[i] for i in range(obj.m))


def epi_mono_sorted(phi):
    """The surjection onto the sorted distinct images, by rank, and the
    inclusion of those images."""
    distinct = sorted(set(phi.images))
    rank = {value: k for k, value in enumerate(distinct)}
    return (MonotoneMap(phi.dom, len(distinct), [rank[v] for v in phi.images]),
            MonotoneMap(len(distinct), phi.cod, tuple(distinct)))


# ---------------------------------------------------------------------------
# the word reader as a loop over the raw text
#
# parse_object drops the whitespace first and reads what is left in one
# pass.  This is the loop it replaced, which steps over the whitespace
# and keeps a flag for a pair whose right word is complete.
# ---------------------------------------------------------------------------


def parse_object_loop(text):
    """The triple of a word, or the WordSyntaxError parse_object raises.

    The stack holds each open pair's first letter, topped by None once
    its left word is complete, which is when the lbf takes that letter.
    """
    u = []
    values = []
    stack = []
    m = 0
    closing = False  # a pair's right word is complete: ')' comes next
    for pos, char in enumerate(text):
        if char.isspace():
            continue
        if m and not stack:
            raise WordSyntaxError(f"trailing input {char!r}", pos)
        if closing:
            if char != ")":
                raise WordSyntaxError(f"expected ')', found {char!r}", pos)
            del stack[-2:]
        elif char == "(":
            stack.append(m)
            continue
        elif char in ("I", "X"):
            if char == "X":
                u.append(m)
            m += 1
        else:
            raise WordSyntaxError(
                f"expected 'I', 'X' or '(', found {char!r}", pos)
        closing = bool(stack) and stack[-1] is None
        if stack and not closing:
            values.append(stack[-1])
            stack.append(None)
    if not m or stack:
        message = "unbalanced parenthesis" if closing else "unexpected end of input"
        raise WordSyntaxError(message, len(text))
    return FskObject(m, tuple(u), Lbf(tuple(values) + (m - 1,)))
