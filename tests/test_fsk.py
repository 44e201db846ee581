import dataclasses
import importlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tracemalloc
from itertools import combinations, product

import pytest

from freeskew import fsk, ordmaps, tamari
from freeskew.ordmaps import (
    SHAPE_CACHE_SIZE,
    VALUE_CACHE_SIZE,
    InputError,
    MonotoneMap,
    cache_stats,
)
from freeskew.tamari import (
    Lbf,
    Rbf,
    base_change_inj,
    base_change_surj,
    enumerate_tamari,
    tamari_bottom,
    tamari_leq,
)
from freeskew.fsk import (
    GENERATOR as X,
    FskMorphism,
    FskObject,
    MODES,
    UNIT as I,
    alpha,
    axiom_alpha_lambda,
    axiom_alpha_rho,
    axiom_lambda_rho,
    axiom_pentagon,
    axiom_rho_alpha_lambda,
    classify,
    compose,
    dual,
    factor_general,
    factor_injection,
    factor_surjection,
    hom,
    identity,
    is_fsk_injection,
    is_fsk_surjection,
    is_morphism,
    is_shrink,
    is_swell,
    is_tamari,
    lambda_,
    rho,
    tensor,
)
from freeskew.words import format_object, parse_object

from oracles import (
    Leaf,
    Node,
    all_bottom_maps,
    all_monotone_images,
    all_objects,
    bij_ok_oracle,
    brute_hom,
    candidate_count,
    direct_min_ok,
    filter_hom,
    focused_count,
    generator_positions_loop_check,
    graft_tensor,
    inj_def_brackets_ok,
    monotone_loop_check,
    object_tree,
    objects_up_to,
    opposite_oracle,
    pinned_filter_hom,
    pinned_runs,
    scan_search_ok,
    shrink_oracle,
    surj_def_brackets_ok,
    swell_oracle,
    tree_text,
)


def obj(m, u, values):
    return FskObject(m, tuple(u), Lbf(tuple(values)))


def check_outcome(make, *args):
    """The InputError message make(*args) raises, or None."""
    try:
        make(*args)
    except InputError as exc:
        return str(exc)
    return None


II = obj(2, (), (0, 1))


class TestObjects:
    def test_generator_and_unit(self):
        assert X == obj(1, (0,), (0,))
        assert I == obj(1, (), (0,))
        assert X.grade == 1 and I.grade == 0

    def test_invariants(self):
        with pytest.raises(InputError):
            FskObject(3, (0, 0), Lbf((0, 0, 2)))
        with pytest.raises(InputError):
            FskObject(3, (3,), Lbf((0, 0, 2)))
        with pytest.raises(InputError):
            FskObject(3, (2, 1), Lbf((0, 0, 2)))
        with pytest.raises(InputError):
            FskObject(2, (), Lbf((0, 0, 2)))


class TestLeanValues:
    def test_map_checks_match_loop_oracle(self):
        # every image tuple over -1..cod
        verdicts = set()
        for dom in range(1, 6):
            for cod in range(1, 6):
                for images in product(range(-1, cod + 1), repeat=dom):
                    expected = check_outcome(monotone_loop_check, dom, cod, images)
                    assert check_outcome(MonotoneMap, dom, cod, images) \
                        == expected, (dom, cod, images)
                    verdicts.add(expected is None)
        assert verdicts == {True, False}

    def test_position_checks_match_loop_oracle(self):
        # every position sequence over -1..m of length up to m + 1
        verdicts = set()
        for m in range(1, 6):
            s = tamari_bottom(m)
            for size in range(m + 2):
                for u in product(range(-1, m + 1), repeat=size):
                    expected = check_outcome(generator_positions_loop_check, m, u)
                    assert check_outcome(FskObject, m, u, s) == expected, (m, u)
                    verdicts.add(expected is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("value", [
        MonotoneMap.identity(2), Lbf((0, 1)), Rbf((0, 1)), X, identity(X)])
    def test_values_are_slotted(self, value):
        assert "__slots__" in vars(type(value))
        assert not hasattr(value, "__dict__")

    def test_structural_maps_are_shared(self):
        for n in range(1, 5):
            assert MonotoneMap.identity(n) is MonotoneMap.identity(n)
        a = tensor(X, I)
        assert lambda_.__wrapped__(a).map is lambda_.__wrapped__(a).map
        assert rho.__wrapped__(a).map is rho.__wrapped__(a).map



# Each value class, built by its public constructor and by an internal
# path that must give the same value: a list comprehension into the
# constructor, a kernel on values, or fsk._proved.
BUILT_TWO_WAYS = {
    "MonotoneMap": (lambda: MonotoneMap(3, 3, (0, 0, 2)),
                    lambda: ordmaps.compose(MonotoneMap(2, 3, (0, 2)),
                                            MonotoneMap(3, 2, (0, 0, 1)))),
    "Lbf": (lambda: Lbf((0, 1, 2)), lambda: tamari.tamari_opposite(Lbf((0, 0, 2)))),
    "Rbf": (lambda: Rbf((0, 2, 2)), lambda: tamari.lbf_to_rbf(Lbf((0, 1, 2)))),
    "FskObject": (lambda: FskObject(2, (0,), Lbf((0, 1))), lambda: tensor(X, I)),
    "FskMorphism": (lambda: FskMorphism(X, X, MonotoneMap.identity(1)),
                    lambda: identity(X)),
}

# dataclasses.fields() names and __match_args__ of each value class
FIELDS = {
    "MonotoneMap": (("dom", "cod", "images", "_hash"), ("dom", "cod", "images")),
    "Lbf": (("values", "_hash"), ("values",)),
    "Rbf": (("values", "_hash"), ("values",)),
    "FskObject": (("m", "u", "s", "_hash"), ("m", "u", "s")),
    "FskMorphism": (("src", "dst", "map"), ("src", "dst", "map")),
}


@pytest.mark.parametrize("name", sorted(BUILT_TWO_WAYS))
class TestValueContract:
    def test_fields_are_frozen(self, name):
        for value in (make() for make in BUILT_TWO_WAYS[name]):
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(value, f.name)

    def test_fields_and_match_args(self, name):
        public, internal = (make() for make in BUILT_TWO_WAYS[name])
        assert type(public) is type(internal) and type(public).__name__ == name
        names, match_args = FIELDS[name]
        assert tuple(f.name for f in dataclasses.fields(public)) == names
        assert type(public).__match_args__ == match_args

    def test_internal_path_builds_the_same_value(self, name):
        public, internal = (make() for make in BUILT_TWO_WAYS[name])
        assert public == internal and hash(public) == hash(internal)
        assert repr(public) == repr(internal)

    def test_one_check_per_value(self, name, monkeypatch):
        # the bench counts values built by wrapping __post_init__, so each
        # public construction must run it exactly once
        cls = type(BUILT_TWO_WAYS[name][0]())
        calls = []
        check = cls.__post_init__

        def counted(self, *args):
            calls.append(name)
            return check(self, *args)

        monkeypatch.setattr(cls, "__post_init__", counted)
        BUILT_TWO_WAYS[name][0]()
        assert len(calls) == 1


def test_proved_morphisms_skip_the_check(monkeypatch):
    calls = []
    monkeypatch.setattr(FskMorphism, "__post_init__", lambda self: calls.append(1))
    f = identity(tensor(X, I))
    assert f.map is MonotoneMap.identity(2) and calls == []


def test_tensor_miss_checks_one_object(monkeypatch):
    a, b = obj(3, (1,), (0, 0, 2)), obj(2, (0, 1), (0, 1))
    fsk._tensor_objects.cache_clear()
    calls = []
    check = FskObject.__post_init__

    def counted(self, *args):
        calls.append(args)
        return check(self, *args)

    monkeypatch.setattr(FskObject, "__post_init__", counted)
    ab = fsk._tensor_objects(a, b)
    assert calls == [(5, (1, 3, 4), Lbf((0, 0, 0, 3, 4)))]
    assert fsk._tensor_objects(a, b) is ab and len(calls) == 1

class TestSharedValues:
    """Values that depend only on shape are built and checked once and
    shared; each shared value is checked against its oracle here."""

    def test_tensor_bracketing_shared_by_shape(self):
        # start from empty caches, so no tensor built by an earlier test
        # holds a bracketing the bounded cache has since dropped
        fsk._tensor_objects.cache_clear()
        fsk._tensor_lbf.cache_clear()
        small = objects_up_to(4)
        by_shape = {}
        for a in small:
            for b in small:
                ab = tensor(a, b)
                assert ab == graft_tensor(a, b)
                assert by_shape.setdefault((a.s, b.s), ab.s) is ab.s
        assert len(by_shape) == 9 ** 2

    def test_dual_matches_mirror_tree_oracle(self):
        tamari.tamari_opposite.cache_clear()
        by_bracketing = {}
        for x in objects_up_to(5):
            d = dual(x)
            assert d.s == opposite_oracle(x.s)
            assert dual(d) == x
            assert by_bracketing.setdefault(x.s, d.s) is d.s

    def test_compose_passes_maps_through_shared_identities(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for images in all_monotone_images(m, n):
                    f = MonotoneMap(m, n, images)
                    assert ordmaps.compose(f, MonotoneMap.identity(m)) is f
                    assert ordmaps.compose(MonotoneMap.identity(n), f) is f
                    # a fresh identity is not shared: the composite is built
                    fresh = MonotoneMap(m, m, tuple(range(m)))
                    assert ordmaps.compose(f, fresh) == f
                    # the size check comes first
                    with pytest.raises(InputError):
                        ordmaps.compose(f, MonotoneMap.identity(m + 1))
                    with pytest.raises(InputError):
                        ordmaps.compose(MonotoneMap.identity(n + 1), f)

    def test_ordinal_sum_matches_fresh_map(self):
        maps = [MonotoneMap(m, n, images)
                for m in range(1, 4) for n in range(1, 4)
                for images in all_monotone_images(m, n)]
        for phi in maps:
            for psi in maps:
                total = ordmaps.ordinal_sum(phi, psi)
                assert total == MonotoneMap(
                    phi.dom + psi.dom, phi.cod + psi.cod,
                    phi.images + tuple(v + phi.cod for v in psi.images))
                assert ordmaps.ordinal_sum(phi, psi) is total


class TestWords:
    # a tree's text parses to its triple, and the triple writes back as
    # the text of its tree
    def test_examples(self):
        assert parse_object(tree_text(Node(Leaf("X"), Node(Leaf("I"), Leaf("X"))))) \
            == obj(3, (0, 2), (0, 1, 2))
        assert parse_object(tree_text(Leaf("X"))) == X
        assert parse_object(tree_text(Node(Node(Leaf("I"), Leaf("X")), Leaf("X")))) \
            == obj(3, (1, 2), (0, 0, 2))

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            parse_object(tree_text(Node(Leaf("X"), Leaf("Y"))))

    def test_round_trip(self):
        for a in objects_up_to(5):
            assert parse_object(tree_text(object_tree(a))) == a
            assert format_object(a) == tree_text(object_tree(a))


class TestIsMorphism:
    def test_identity_everywhere(self):
        for a in objects_up_to(4):
            for mode in MODES:
                assert is_morphism(a, a, MonotoneMap.identity(a.m), mode)

    def test_unit_composite_not_identity(self):
        lam = MonotoneMap(2, 1, (0, 0))
        rh = MonotoneMap(1, 2, (0,))
        assert is_morphism(II, obj(1, (), (0,)), lam)
        assert is_morphism(obj(1, (), (0,)), II, rh)
        endo = MonotoneMap(2, 2, (0, 0))
        assert is_morphism(II, II, endo)
        assert not endo.is_identity

    def test_no_map_from_generator_times_unit_to_generator(self):
        assert not is_morphism(obj(2, (0,), (0, 1)), X, MonotoneMap(2, 1, (0, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            is_morphism(X, X, MonotoneMap(2, 1, (0, 0)))

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            is_morphism(X, X, MonotoneMap.identity(1), "guess")

    def test_modes_agree_exhaustively(self):
        for m in range(1, 5):
            for n in range(1, 5):
                maps = all_bottom_maps(m, n)
                for a in all_objects(m):
                    for b in all_objects(n):
                        if a.grade != b.grade:
                            continue
                        for phi in maps:
                            verdicts = {mode: is_morphism(a, b, phi, mode)
                                        for mode in MODES}
                            assert len(set(verdicts.values())) == 1, \
                                (a, b, phi, verdicts)


class TestDirectScan:
    def test_matches_min_loop_oracle(self):
        # every monotone map with m, n <= 5, bottom-preserving or not
        for m in range(1, 6):
            for n in range(1, 6):
                for images in all_monotone_images(m, n):
                    phi = MonotoneMap(m, n, images)
                    for s in enumerate_tamari(m):
                        for t in enumerate_tamari(n):
                            assert (fsk._bracket_direct_ok(phi, s, t)
                                    == direct_min_ok(images, s.values, t.values)), \
                                (images, s, t)

    def test_one_step_per_fibre(self, monkeypatch):
        # a pass takes one _scan_close step per fibre, the last one
        # inside _scan_end; a fail stops at the step that fails
        steps = []
        scan_close = fsk._scan_close

        def counted(*args):
            steps.append(args[1])
            return scan_close(*args)

        monkeypatch.setattr(fsk, "_scan_close", counted)
        for m in range(1, 5):
            for n in range(1, 5):
                for images in all_monotone_images(m, n):
                    phi = MonotoneMap(m, n, images)
                    fibres = sorted(set(images))
                    for s in enumerate_tamari(m):
                        for t in enumerate_tamari(n):
                            steps.clear()
                            if fsk._bracket_direct_ok(phi, s, t):
                                assert steps == fibres, (images, s, t)
                            else:
                                assert steps == fibres[:len(steps)]


class TestGeneratorCheck:
    def test_matches_adjoint_oracle(self):
        # every bottom-preserving map with m, n <= 5 against every pair
        # of position sets, of equal length or not
        verdicts = set()
        for m in range(1, 6):
            for n in range(1, 6):
                us = [u for k in range(m + 1) for u in combinations(range(m), k)]
                vs = [v for k in range(n + 1) for v in combinations(range(n), k)]
                for phi in all_bottom_maps(m, n):
                    for u in us:
                        for v in vs:
                            b = fsk._bij_ok(phi, u, v)
                            assert b == bij_ok_oracle(phi, u, v), (phi, u, v)
                            verdicts.add((len(u) == len(v), b))
        assert verdicts == {(True, True), (True, False), (False, False)}


def random_word(rng, letters):
    if len(letters) == 1:
        return letters[0]
    k = rng.randint(1, len(letters) - 1)
    return f"({random_word(rng, letters[:k])} {random_word(rng, letters[k:])})"


def clear_caches():
    for key in cache_stats():
        module, _, name = key.partition(".")
        getattr(sys.modules[f"freeskew.{module}"], name).cache_clear()


class TestCachePolicy:
    # values that depend on shape alone, every one a sweep meets kept
    SHAPE = {"ordmaps._identity_map", "fsk._collapse_map",
             "fsk._inclusion_map", "fsk._tensor_lbf",
             "tamari.tamari_opposite", "ordmaps.ordinal_sum",
             "ordmaps._dual_map", "operads._l_element",
             "operads.h_of", "operads.h_colax",
             "tamari.enumerate_tamari"}
    # values computed from a query's own input, reused within the query
    # or by a query repeated among recent ones
    VALUE = {"tamari.lbf_to_rbf",
             "tamari.conjugate_surj", "tamari.conjugate_inj",
             "fsk._tensor_objects", "fsk.lambda_", "fsk.rho",
             "words.format_object", "words.parse_object",
             "ordmaps.epi_mono_factorize"}
    # what the caches may hold after the queries below, which leave about
    # 1 MiB in them on CPython 3.11
    MAX_CACHED_BYTES = 3 * 2 ** 20

    def test_point_queries_stay_bounded(self):
        # membership queries in all three modes plus the factorization of
        # each morphism found, on seeded words of 8 to 14 letters; traced
        # from empty caches, so that every entry they hold is counted
        clear_caches()
        tracemalloc.start()
        try:
            rng = random.Random(5000)
            for _ in range(5000):
                m, n = rng.randint(8, 14), rng.randint(8, 14)
                images = (0,) + tuple(sorted(rng.choices(range(n), k=m - 1)))
                # generators at some ends of fibres pass the bijection check
                ends = [k for k in range(m)
                        if k == m - 1 or images[k] < images[k + 1]]
                u = sorted(rng.sample(ends, rng.randint(0, len(ends))))
                v = {images[j] for j in u}
                letters = ["X" if j in u else "I" for j in range(m)]
                targets = ["X" if h in v else "I" for h in range(n)]
                src = parse_object(random_word(rng, letters))
                # half the targets bracketed all to the right, so that
                # many queries are morphisms
                dst = parse_object(random_word(rng, targets)
                                   if rng.random() < 0.5
                                   else "".join(f"({c} " for c in targets[:-1])
                                   + targets[-1] + ")" * (n - 1))
                phi = MonotoneMap(m, n, images)
                if any([is_morphism(src, dst, phi, mode) for mode in MODES]):
                    factor_general(FskMorphism(src, dst, phi))
            del src, dst, phi
            stats = cache_stats()
            held = tracemalloc.get_traced_memory()[0]
            clear_caches()
            cached = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        json.dumps(stats)
        # and no other: the caches that did not pay for themselves are gone
        assert self.SHAPE.isdisjoint(self.VALUE)
        assert set(stats) == self.SHAPE | self.VALUE
        for names, bound in ((self.SHAPE, SHAPE_CACHE_SIZE),
                             (self.VALUE, VALUE_CACHE_SIZE)):
            for name in names:
                assert stats[name]["maxsize"] == bound, name
                assert stats[name]["size"] <= bound, name
        # the queries outran the value bound, and what they left in the
        # caches is small
        assert stats["tamari.conjugate_surj"]["misses"] > VALUE_CACHE_SIZE
        assert cached < self.MAX_CACHED_BYTES, cached

    def test_one_factorization_per_query(self):
        # the criteria and factor_general, asked about one map, factor it
        # once and share its parts; the verdicts are those of cold caches
        src = parse_object("((X I) (I X))")
        for word, images, expected in (("(X ((I I) (X I)))", (0, 1, 3, 3), True),
                                       ("((X I) (I (X I)))", (0, 1, 1, 3), False)):
            dst = parse_object(word)
            phi = MonotoneMap(4, 5, images)
            cold = []
            for mode in MODES:
                clear_caches()
                cold.append(is_morphism(src, dst, phi, mode))
            clear_caches()
            verdicts = [is_morphism(src, dst, phi, mode) for mode in MODES]
            if expected:
                surj, _, inj = factor_general(FskMorphism(src, dst, phi))
            info = ordmaps.epi_mono_factorize.cache_info()
            assert (info.misses, info.hits) == (1, 2 if expected else 1)
            sigma, delta = ordmaps.epi_mono_factorize(phi)
            assert (sigma, delta) == ordmaps.epi_mono_factorize.__wrapped__(phi)
            assert verdicts == cold == [expected] * len(MODES)
            if expected:
                assert surj.map is sigma and inj.map is delta

    def test_stats_follow_the_package_name(self, tmp_path):
        # a copy of the package loaded under another name reports its own
        # caches, the same ones
        copy = tmp_path / "freeskew_copy"
        shutil.copytree(os.path.dirname(fsk.__file__), copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, str(tmp_path))
        try:
            words_copy = importlib.import_module("freeskew_copy.words")
            fsk_copy = sys.modules["freeskew_copy.fsk"]
            a = words_copy.parse_object("(X (I X))")
            assert fsk_copy.is_morphism(a, a, fsk_copy.identity(a).map)
            copied = sys.modules["freeskew_copy.ordmaps"].cache_stats()
        finally:
            sys.path.remove(str(tmp_path))
            for name in [n for n in sys.modules if n.startswith("freeskew_copy")]:
                del sys.modules[name]
        assert set(copied) == set(cache_stats())
        assert copied["ordmaps._identity_map"]["misses"] > 0


def left_comb(n):
    return "(" * (n - 1) + "X" + " X)" * (n - 1)


def right_comb(n):
    return "(X " * (n - 1) + "X" + ")" * (n - 1)


class TestBracketSearch:
    """via_search looks for the middle bracketing depth first; the scan
    over every lbf of the image is the reference."""

    def test_matches_scan_oracle_sampled(self):
        rng = random.Random(20241018)
        verdicts = set()
        for _ in range(300):
            k = rng.randint(6, 8)
            m, cod = k + rng.randint(0, 2), k + rng.randint(0, 2)
            # a surjection onto ord k followed by a bottom injection
            cuts = sorted(rng.sample(range(1, m), k - 1))
            onto = [sum(c <= j for c in cuts) for j in range(m)]
            into = [0] + sorted(rng.sample(range(1, cod), k - 1))
            images = tuple(into[h] for h in onto)
            s = rng.choice(enumerate_tamari(m)).values
            # half the targets right-bracketed, so both verdicts are common
            t = (tuple(range(cod)) if rng.random() < 0.5
                 else rng.choice(enumerate_tamari(cod)).values)
            found = fsk._bracket_search_ok(MonotoneMap(m, cod, images),
                                           Lbf(s), Lbf(t))
            assert found == scan_search_ok(images, cod, s, t), (images, s, t)
            verdicts.add(found)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("src, dst, expected", [
        (left_comb(40), right_comb(40), True),
        (right_comb(40), left_comb(40), False),
        # a search without the dead-set prune explores about 3.6x more
        # prefixes per letter on this pair before giving up
        (f"({left_comb(38)} (X X))", f"({right_comb(39)} X)", False),
    ], ids=["left-right", "right-left", "near-miss"])
    def test_forty_letters(self, src, dst, expected):
        a, b = parse_object(src), parse_object(dst)

        def give_up(signum, frame):
            raise TimeoutError("via_search ran for 20 s on 40 letters")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(20)
        try:
            verdicts = {mode: is_morphism(a, b, MonotoneMap.identity(40), mode)
                        for mode in MODES}
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert verdicts == dict.fromkeys(MODES, expected)


class TestClassify:
    def test_tamari_example(self):
        f = FskMorphism(obj(3, (0, 1), (0, 0, 2)), obj(3, (0, 1), (0, 1, 2)),
                        MonotoneMap.identity(3))
        flags = classify(f)
        assert flags.is_tamari and flags.is_fsk_surjection and flags.is_fsk_injection
        assert not flags.is_shrink and not flags.is_swell

    def test_class_predicates_check_fit(self):
        # a map that does not fit is an input error for every class
        w = parse_object("(X (X X))")
        for predicate in (is_tamari, is_shrink, is_swell,
                          is_fsk_surjection, is_fsk_injection):
            with pytest.raises(InputError, match="does not fit"):
                predicate(w, w, MonotoneMap.identity(2))

    def test_left_unit_is_shrink(self):
        flags = classify(lambda_(X))
        assert flags.is_shrink and flags.is_fsk_surjection
        assert not flags.is_swell and not flags.is_fsk_injection

    def test_right_unit_is_swell(self):
        flags = classify(rho(X))
        assert flags.is_swell and flags.is_fsk_injection
        assert not flags.is_shrink and not flags.is_fsk_surjection

    def test_flag_implications(self):
        for a in objects_up_to(3):
            for b in objects_up_to(3):
                if a.grade != b.grade:
                    continue
                for f in hom(a, b):
                    flags = classify(f)
                    if flags.is_tamari:
                        assert flags.is_fsk_surjection and flags.is_fsk_injection
                    if flags.is_shrink:
                        assert flags.is_fsk_surjection
                    if flags.is_swell:
                        assert flags.is_fsk_injection
                    if flags.is_fsk_surjection:
                        assert f.map.is_surjective
                    if flags.is_fsk_injection:
                        assert f.map.is_injective

    def test_class_criteria_match_definitions(self):
        # every bottom-preserving map between objects with m, n <= 4,
        # morphisms or not
        objs = objects_up_to(4)
        seen = {"surj": set(), "inj": set()}
        for a in objs:
            for b in objs:
                for phi in all_bottom_maps(a.m, b.m):
                    surj = (phi.is_surjective and bij_ok_oracle(phi, a.u, b.u)
                            and surj_def_brackets_ok(phi, a.s, b.s))
                    inj = (phi.is_injective and bij_ok_oracle(phi, a.u, b.u)
                           and inj_def_brackets_ok(phi, a.s, b.s))
                    assert is_fsk_surjection(a, b, phi) == surj, (a, b, phi)
                    assert is_fsk_injection(a, b, phi) == inj, (a, b, phi)
                    seen["surj"].add(surj)
                    seen["inj"].add(inj)
        assert seen == {"surj": {False, True}, "inj": {False, True}}

    def test_shrink_and_swell_match_definitions(self):
        # is_shrink reads the fibres off the images and is_swell shares
        # the map of each dual; the oracles take right adjoints of the
        # map on every query, for every bottom-preserving map between
        # objects with m, n <= 4
        objs = objects_up_to(4)
        seen = {"shrink": set(), "swell": set()}
        for a in objs:
            for b in objs:
                for phi in all_bottom_maps(a.m, b.m):
                    shrink = shrink_oracle(a, b, phi)
                    swell = swell_oracle(a, b, phi)
                    assert is_shrink(a, b, phi) == shrink, (a, b, phi)
                    assert is_swell(a, b, phi) == swell, (a, b, phi)
                    seen["shrink"].add(shrink)
                    seen["swell"].add(swell)
        assert seen == {"shrink": {False, True}, "swell": {False, True}}


class TestComposeAndIdentity:
    def test_identity_unit_laws(self):
        f = lambda_(X)
        assert compose(f, identity(f.src)) == f
        assert compose(identity(f.dst), f) == f

    def test_block_composite(self):
        f = compose(lambda_(X), tensor(identity(I), lambda_(X)))
        assert f.map.images == (0, 0, 0)
        assert f.src == obj(3, (2,), (0, 1, 2))
        assert f.dst == X

    def test_unit_endomorphism(self):
        f = compose(rho(I), lambda_(I))
        assert f.map.images == (0, 0)
        assert f != identity(II)

    def test_object_mismatch(self):
        with pytest.raises(InputError):
            compose(lambda_(X), rho(X))

    def test_category_laws_small(self):
        objs = objects_up_to(3)
        morphs = [f for a in objs for b in objs if a.grade == b.grade
                  for f in hom(a, b)]
        by_src = {}
        for f in morphs:
            by_src.setdefault(f.src, []).append(f)
        for f in morphs:
            assert compose(f, identity(f.src)) == f
            assert compose(identity(f.dst), f) == f
            for g in by_src.get(f.dst, ()):
                gf = compose(g, f)
                for h in by_src.get(g.dst, ()):
                    assert compose(h, gf) == compose(compose(h, g), f)


class TestTensor:
    def test_object_examples(self):
        assert tensor(X, X) == obj(2, (0, 1), (0, 1))
        assert tensor(tensor(X, X), X) == obj(3, (0, 1, 2), (0, 0, 2))
        assert tensor(X, tensor(X, X)) == obj(3, (0, 1, 2), (0, 1, 2))

    def test_morphism_example(self):
        f = tensor(identity(X), lambda_(X))
        assert f.map.images == (0, 1, 1)
        assert f.src == obj(3, (0, 2), (0, 1, 2))
        assert f.dst == obj(2, (0, 1), (0, 1))

    def test_matches_graft_oracle(self):
        small = objects_up_to(4)
        for a in small:
            for b in small:
                assert tensor(a, b) == graft_tensor(a, b)

    def test_mixed_arguments_rejected(self):
        with pytest.raises(InputError):
            tensor(X, identity(X))

    def test_functorial(self):
        fs = [lambda_(X), rho(X), identity(X), compose(rho(I), lambda_(I))]
        for f in fs:
            for g in fs:
                assert tensor(compose(f, identity(f.src)), g) == \
                    compose(tensor(f, g), tensor(identity(f.src), identity(g.src)))


class TestStructureMaps:
    def test_alpha_example(self):
        a = alpha(X, X, X)
        assert a.src == obj(3, (0, 1, 2), (0, 0, 2))
        assert a.dst == obj(3, (0, 1, 2), (0, 1, 2))
        assert a.map.is_identity
        assert classify(a).is_tamari

    def test_lambda_example(self):
        f = lambda_(X)
        assert f.src == obj(2, (1,), (0, 1)) and f.dst == X
        assert f.map.images == (0, 0)

    def test_rho_example(self):
        f = rho(I)
        assert f.src == I and f.dst == II
        assert f.map.images == (0,)

    def test_naturality(self):
        objs = objects_up_to(2)
        morphs = [f for a in objs for b in objs if a.grade == b.grade
                  for f in hom(a, b)]
        for f in morphs:
            # left and right unit maps are natural
            assert compose(lambda_(f.dst), tensor(identity(I), f)) == \
                compose(f, lambda_(f.src))
            assert compose(rho(f.dst), f) == \
                compose(tensor(f, identity(I)), rho(f.src))
        for f in morphs[:6]:
            for g in morphs[:6]:
                for h in morphs[:6]:
                    lhs = compose(alpha(f.dst, g.dst, h.dst),
                                  tensor(tensor(f, g), h))
                    rhs = compose(tensor(f, tensor(g, h)),
                                  alpha(f.src, g.src, h.src))
                    assert lhs == rhs


class TestAxioms:
    def test_unit_axiom(self):
        assert axiom_lambda_rho()

    def test_two_object_axioms_small(self):
        objs = objects_up_to(3)
        for x in objs:
            for y in objs:
                if x.m + y.m > 5:
                    continue
                assert axiom_alpha_rho(x, y)
                assert axiom_alpha_lambda(x, y)
                assert axiom_rho_alpha_lambda(x, y)

    def test_pentagon_small(self):
        objs = objects_up_to(2)
        for w in objs:
            for x in objs:
                for y in objs:
                    for z in objs:
                        if w.m + x.m + y.m + z.m <= 6:
                            assert axiom_pentagon(w, x, y, z)


class TestHom:
    def test_examples(self):
        assert [f.map.images for f in hom(X, X)] == [(0,)]
        assert [f.map.images for f in hom(II, II)] == [(0, 0), (0, 1)]
        assert hom(obj(2, (0,), (0, 1)), X) == []

    def test_lexicographic_order(self):
        for a in all_objects(3):
            for b in all_objects(3):
                images = [f.map.images for f in hom(a, b)]
                assert images == sorted(images)

    def test_matches_brute_force_oracle(self):
        # every pair with m, n <= 4, different grades included; the
        # candidates are exactly the maps meeting the generator conditions
        objs = objects_up_to(4)
        for a in objs:
            for b in objs:
                morphisms = hom(a, b)
                assert all(f.src == a and f.dst == b for f in morphisms)
                assert [f.map for f in morphisms] == brute_hom(a, b)
                assert candidate_count(a, b) == sum(
                    bij_ok_oracle(phi, a.u, b.u)
                    for phi in all_bottom_maps(a.m, b.m))

    def test_matches_filter_loop_sampled(self):
        rng = random.Random(20240601)

        def word(m, grade):
            u = sorted(rng.sample(range(m), grade))
            return FskObject(m, tuple(u), rng.choice(enumerate_tamari(m)))

        for _ in range(200):
            m, n = rng.randint(5, 7), rng.randint(5, 7)
            grade = rng.randint(0, min(m, n))
            a, b = word(m, grade), word(n, grade)
            assert hom(a, b) == filter_hom(a, b), (a, b)

    def test_matches_pinned_filter_unit_heavy(self):
        # the unit-heavy sample: words of 10 to 12 letters with 0 to 2
        # generators, where most pinned candidates fail the bracket check;
        # pairs past 100,000 candidates are drawn again, since the filter
        # takes seconds on each
        rng = random.Random(2026)

        def word(m, grade):
            u = set(rng.sample(range(m), grade))
            return parse_object(random_word(
                rng, ["X" if j in u else "I" for j in range(m)]))

        pairs = 0
        while pairs < 10:
            m = rng.randint(10, 12)
            grade = rng.randint(0, 2)
            a, b = word(m, grade), word(m, grade)
            if not 0 < candidate_count(a, b) <= 100_000:
                continue
            pairs += 1
            morphisms = hom(a, b)
            assert all(f.src == a and f.dst == b for f in morphisms)
            assert [f.map for f in morphisms] == pinned_filter_hom(a, b), (a, b)

    def test_matches_pinned_filter_exhaustive(self):
        # every same-grade pair with m, n <= 5 and grade <= 1
        objs = [x for x in objects_up_to(5) if x.grade <= 1]
        for a in objs:
            for b in objs:
                if a.grade == b.grade:
                    assert ([f.map for f in hom(a, b)]
                            == pinned_filter_hom(a, b)), (a, b)

    def test_proves_each_listed_map_once(self, monkeypatch):
        # every leaf the search reaches is a morphism: it passes the
        # last step of the scan the search holds (_scan_end), which
        # completes the direct bracket check, its whole proof; the unit
        # combs have 48,620 pinned candidates for 82 morphisms, and the
        # last pair 48,620 for 1, though the search enters 21,175
        # prefixes there
        calls = {"_scan_end": 0, "_bracket_direct_ok": 0, "is_morphism": 0}

        def counted(name):
            check = getattr(fsk, name)

            def wrapper(*args):
                calls[name] += 1
                return check(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(fsk, name, counted(name))
        for src, dst, candidates, morphisms in [
                ("(((I I) (I X)) ((I I) I))", "((I (I X)) (I (I I)))", 60, 60),
                (right_comb(10).replace("X", "I"),
                 left_comb(10).replace("X", "I"), 48620, 82),
                ("(((I I) ((I I) (I (I (I I))))) (I ((I X) X)))",
                 "(((I ((I ((I I) ((I I) I))) (I (I X)))) I) X)", 48620, 1)]:
            a, b = parse_object(src), parse_object(dst)
            calls.update(dict.fromkeys(calls, 0))
            listed = hom(a, b)
            assert len(listed) == morphisms
            assert calls == {"_scan_end": morphisms, "_bracket_direct_ok": 0,
                             "is_morphism": 0}
            assert candidate_count(a, b) == candidates
            assert all(fsk._bracket_direct_ok(f.map, a.s, b.s) for f in listed)

    def test_candidate_count_is_a_product_of_blocks(self):
        # position 0 goes to 0, then one unit in [0, 2], two in (2, 4]
        # and one in (4, 6]
        a = obj(7, (2, 5), range(7))
        b = obj(7, (2, 4), range(7))
        assert pinned_runs(a, b) == [(1, 0, 3), (1, 2, 3), (2, 3, 5),
                                     (1, 4, 5), (1, 5, 7)]
        assert candidate_count(a, b) == 3 * 3 * 2
        assert candidate_count(a, obj(7, (2, 6), range(7))) == 0
        assert candidate_count(a, obj(7, (2,), range(7))) == 0
        assert candidate_count(X, obj(2, (1,), (0, 1))) == 0
        assert candidate_count(II, II) == 2

    def test_search_steps_are_bounded(self, monkeypatch):
        # dead prefixes count: the search takes 42,351 steps to list the
        # one morphism of this pair
        a = parse_object("(((I I) ((I I) (I (I (I I))))) (I ((I X) X)))")
        b = parse_object("(((I ((I ((I I) ((I I) I))) (I (I X)))) I) X)")
        assert len(hom(a, b)) == 1
        monkeypatch.setattr(fsk, "MAX_HOM_STEPS", 40_000)
        with pytest.raises(InputError, match="MAX_HOM_STEPS = 40000"):
            hom(a, b)

    def test_listed_letters_are_bounded(self, monkeypatch):
        # listed letters count: 1,522 morphisms of 40 + 40 letters each
        a = parse_object(right_comb(40).replace("X", "I"))
        b = parse_object(left_comb(40).replace("X", "I"))
        monkeypatch.setattr(fsk, "MAX_HOM_STEPS", 1522 * 80)
        assert len(hom(a, b)) == 1522
        monkeypatch.setattr(fsk, "MAX_HOM_STEPS", 1522 * 80 - 1)
        with pytest.raises(InputError, match="MAX_HOM_STEPS"):
            hom(a, b)


class TestFocusedCount:
    """The focused sequent calculus of tests/oracles.py is a second
    description of Fsk: its derivations count hom-sets."""

    def test_matches_hom_exhaustive(self):
        # every pair with m, n <= 4, different grades included
        objs = objects_up_to(4)
        for a in objs:
            for b in objs:
                assert focused_count(a, b) == len(hom(a, b)), (a, b)

    def test_matches_hom_sampled(self):
        # pairs of 2 to 14 letters with 0 to 3 generators
        rng = random.Random(1522)

        def word(m, grade):
            u = set(rng.sample(range(m), grade))
            return parse_object(random_word(
                rng, ["X" if j in u else "I" for j in range(m)]))

        for _ in range(200):
            grade = rng.randint(0, 3)
            a = word(rng.randint(max(2, grade), 14), grade)
            b = word(rng.randint(max(2, grade), 14), grade)
            count = focused_count(a, b)
            if count * (a.m + b.m) > fsk.MAX_HOM_STEPS:
                # past the letters hom may list
                with pytest.raises(InputError, match="MAX_HOM_STEPS"):
                    hom(a, b)
            else:
                assert count == len(hom(a, b)), (a, b)

    @pytest.mark.parametrize("n, count", [(10, 82), (12, 122), (20, 362),
                                          (40, 1522)])
    def test_unit_combs(self, n, count):
        a = parse_object(right_comb(n).replace("X", "I"))
        b = parse_object(left_comb(n).replace("X", "I"))
        assert focused_count(a, b) == count

    def test_left_premise_does_not_pass(self):
        # a left premise of ⊗R that could begin with pass would count the
        # one morphism twice
        a, b = parse_object("(X X)"), parse_object("(X (X I))")
        assert focused_count(a, b) == len(hom(a, b)) == 1


class TestFactorSurjection:
    def test_shrink_has_identity_first_factor(self):
        for f in [lambda_(X), lambda_(I), lambda_(tensor(X, X))]:
            max_middle, alt_middle = factor_surjection(f)
            assert max_middle == f.src
            assert alt_middle == f.dst

    def test_left_unit_of_pair(self):
        f = lambda_(tensor(X, X))
        assert factor_surjection(f)[1] == obj(2, (0, 1), (0, 1))

    def test_maximality_small(self):
        for m in range(1, 5):
            for n in range(1, m + 1):
                for a in all_objects(m):
                    for b in all_objects(n):
                        if a.grade != b.grade:
                            continue
                        for phi in all_bottom_maps(m, n):
                            if not is_fsk_surjection(a, b, phi):
                                continue
                            f = FskMorphism(a, b, phi)
                            max_middle, _ = factor_surjection(f)
                            valid = [s for s in enumerate_tamari(m)
                                     if tamari_leq(a.s, s)
                                     and is_shrink(FskObject(m, a.u, s), b, phi)]
                            assert valid
                            top = max_middle.s
                            assert top in valid
                            assert all(tamari_leq(s, top) for s in valid)

    def test_rejects_non_surjection(self):
        with pytest.raises(InputError):
            factor_surjection(rho(X))


class TestFactorInjection:
    def test_right_unit(self):
        min_middle, alt_middle = factor_injection(rho(X))
        assert min_middle == obj(2, (0,), (0, 1))
        assert alt_middle == X

    def test_identity(self):
        f = identity(obj(3, (1,), (0, 1, 2)))
        min_middle, alt_middle = factor_injection(f)
        assert min_middle == f.src and alt_middle == f.src

    def test_minimality_small(self):
        for n in range(1, 4):
            for m in range(n, 5):
                for a in all_objects(n):
                    for b in all_objects(m):
                        if a.grade != b.grade:
                            continue
                        for phi in all_bottom_maps(n, m):
                            if not is_fsk_injection(a, b, phi):
                                continue
                            f = FskMorphism(a, b, phi)
                            min_middle, _ = factor_injection(f)
                            valid = [s for s in enumerate_tamari(m)
                                     if tamari_leq(s, b.s)
                                     and is_swell(a, FskObject(m, b.u, s), phi)]
                            assert valid
                            bottom = min_middle.s
                            assert bottom in valid
                            assert all(tamari_leq(bottom, s) for s in valid)

    def test_rejects_non_injection(self):
        with pytest.raises(InputError, match="Fsk-injection"):
            factor_injection(lambda_(X))


class TestFactorGeneral:
    def test_surjection_gets_identity_injection(self):
        f = lambda_(X)
        surj, middle, inj = factor_general(f)
        assert surj == f and middle == f.dst
        assert inj == identity(f.dst)

    def test_unit_endomorphism(self):
        f = FskMorphism(II, II, MonotoneMap(2, 2, (0, 0)))
        surj, middle, inj = factor_general(f)
        assert middle == I
        assert surj.map.images == (0, 0) and inj.map.images == (0,)

    def test_unit_shuffle(self):
        f = FskMorphism(obj(2, (1,), (0, 1)), obj(2, (0,), (0, 1)),
                        MonotoneMap(2, 2, (0, 0)))
        surj, middle, inj = factor_general(f)
        assert middle == X
        assert classify(surj).is_fsk_surjection
        assert classify(inj).is_fsk_injection

    def test_recomposition_everywhere_small(self):
        for a in objects_up_to(3):
            for b in objects_up_to(3):
                if a.grade != b.grade:
                    continue
                for f in hom(a, b):
                    surj, middle, inj = factor_general(f)
                    assert compose(inj, surj) == f
                    assert middle.grade == a.grade


class TestDual:
    def test_object_examples(self):
        assert dual(obj(3, (0, 1, 2), (0, 0, 2))) == obj(3, (0, 1, 2), (0, 1, 2))
        a = obj(4, (1, 3), (0, 1, 0, 3))
        assert dual(dual(a)) == a

    def test_left_right_unit_duality(self):
        assert dual(lambda_(X)) == rho(X)
        assert dual(rho(X)) == lambda_(X)

    def test_involution_and_flag_swap(self):
        for a in objects_up_to(3):
            for b in objects_up_to(3):
                if a.grade != b.grade:
                    continue
                for f in hom(a, b):
                    g = dual(f)
                    assert dual(g) == f
                    flags, dual_flags = classify(f), classify(g)
                    assert flags.is_fsk_surjection == dual_flags.is_fsk_injection
                    assert flags.is_fsk_injection == dual_flags.is_fsk_surjection
                    assert flags.is_shrink == dual_flags.is_swell
                    assert flags.is_swell == dual_flags.is_shrink
                    assert flags.is_tamari == dual_flags.is_tamari


class TestClosure:
    """compose, tensor and dual of morphisms build their results without
    proving them again, since the paper's theorems make them morphisms;
    here every result on small objects is proved in full."""

    def test_results_are_morphisms(self):
        objs = objects_up_to(3)
        morphs = [f for a in objs for b in objs for f in hom(a, b)]
        by_src = {}
        for f in morphs:
            by_src.setdefault(f.src, []).append(f)
        results = [dual(f) for f in morphs]
        results += [compose(g, f) for f in morphs for g in by_src.get(f.dst, ())]
        results += [tensor(f, g) for f in morphs for g in morphs]
        assert len(results) == 156 + 1320 + 156 ** 2
        for f in results:
            assert f == FskMorphism(f.src, f.dst, f.map)
            for mode in MODES:
                assert is_morphism(f.src, f.dst, f.map, mode), (f, mode)


class TestContracts:
    """The postconditions of the structure maps, the factorizations and
    the base changes are checks that raise RuntimeError, a library
    fault, not InputError, a usage error."""

    @pytest.mark.parametrize("name, make, match", [
        ("tamari_leq", lambda: alpha(X, X, X), "associator"),
        ("is_shrink", lambda: lambda_.__wrapped__(X), "left unit"),
        ("is_swell", lambda: rho.__wrapped__(X), "right unit"),
        ("is_fsk_surjection", lambda: factor_general(identity(X)),
         "surjective part"),
        ("is_fsk_injection", lambda: factor_general(identity(X)),
         "injective part"),
    ])
    def test_structure_maps_and_factorization(self, monkeypatch, name, make,
                                              match):
        monkeypatch.setattr(fsk, name, lambda *args: False)
        with pytest.raises(RuntimeError, match=match):
            make()

    def test_base_changes(self, monkeypatch):
        # a wrong result: every bracketing built is the top one
        def top_lbf(values):
            return Lbf(range(len(values)))

        def top_rbf(values):
            return Rbf([0] + [len(values) - 1] * (len(values) - 1))

        monkeypatch.setattr(tamari, "Lbf", top_lbf)
        monkeypatch.setattr(tamari, "Rbf", top_rbf)
        with pytest.raises(RuntimeError, match="does not lift"):
            base_change_surj(MonotoneMap.identity(3), Lbf((0, 0, 2)))
        with pytest.raises(RuntimeError, match="does not push"):
            base_change_inj(MonotoneMap.identity(3), Rbf((0, 1, 2)))

    def test_checks_survive_optimized_mode(self):
        script = "\n".join([
            "from freeskew import GENERATOR, fsk",
            "assert False  # stripped under -O",
            "fsk.tamari_leq = lambda s, t: False",
            "try:",
            "    fsk.alpha(GENERATOR, GENERATOR, GENERATOR)",
            "except RuntimeError as exc:",
            "    print(exc)",
        ])
        src = os.path.dirname(os.path.dirname(fsk.__file__))
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "associator" in result.stdout
