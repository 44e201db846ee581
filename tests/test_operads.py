import os
import subprocess
import sys
from itertools import product

import pytest

from freeskew import operads
from freeskew.ordmaps import InputError
from freeskew.tamari import Lbf, tamari_top
from freeskew.fsk import (
    GENERATOR as X,
    FskObject,
    UNIT as I,
    alpha,
    classify,
    compose,
    hom,
    identity,
    lambda_,
    rho,
    tensor,
)
from freeskew.operads import (
    LElement,
    counit_at,
    h_colax,
    h_of,
    h_of_lambda,
    initial_in_grade,
    l_circ,
    l_leq,
    l_substitute,
    p_of,
    q_of,
    r_of,
    s_circ,
    s_substitute_objects,
    terminal_in_grade,
)

from oracles import graft_substitute, objects_up_to


def obj(m, u, values):
    return FskObject(m, tuple(u), Lbf(tuple(values)))


def l_elements(max_arity):
    out = [LElement(0, "l")]
    for n in range(1, max_arity + 1):
        out.append(LElement(n, "l"))
        out.append(LElement(n, "t"))
    return out


_ARGUMENT_LISTS = {}


def argument_lists(arity, max_total):
    """All argument tuples for an element of the given arity with total
    arity at most max_total."""
    key = (arity, max_total)
    if key in _ARGUMENT_LISTS:
        return _ARGUMENT_LISTS[key]
    lists = [()]
    for _ in range(arity):
        lists = [xs + (y,) for xs in lists for y in l_elements(max_total)
                 if sum(z.arity for z in xs) + y.arity <= max_total]
    _ARGUMENT_LISTS[key] = lists
    return lists


class TestLElement:
    def test_arity_zero_forces_kind(self):
        with pytest.raises(InputError):
            LElement(0, "t")

    def test_text_forms(self):
        assert LElement.from_text("t3") == LElement(3, "t")
        assert LElement.from_text("l0") == LElement(0, "l")
        assert LElement(2, "l").to_text() == "l2"
        with pytest.raises(InputError):
            LElement.from_text("x2")

    def test_operations_share_one_element_per_arity_and_kind(self):
        t2 = LElement.from_text("t2")
        assert "__slots__" in vars(LElement) and not hasattr(t2, "__dict__")
        assert LElement.from_text("t2") is t2
        assert l_substitute(LElement(2, "t"), [LElement(1, "t")] * 2) is t2
        assert l_circ(LElement(1, "t"), 1, LElement(2, "t")) is t2
        assert q_of(obj(2, (0, 1), (0, 1))) is t2
        assert l_circ(LElement(2, "l"), 1, LElement(1, "t")) is not t2
        # a bad element is rejected on every call, never remembered
        for _ in range(2):
            with pytest.raises(InputError):
                LElement.from_text("t0")

    def test_order(self):
        assert l_leq(LElement(2, "l"), LElement(2, "t"))
        assert not l_leq(LElement(2, "t"), LElement(2, "l"))
        assert not l_leq(LElement(2, "l"), LElement(3, "l"))


class TestLSubstitute:
    def test_examples(self):
        assert l_substitute(LElement(2, "t"),
                            [LElement(3, "t"), LElement(2, "l")]) == LElement(5, "t")
        assert l_substitute(LElement(2, "l"),
                            [LElement(1, "t"), LElement(1, "t")]) == LElement(2, "l")
        assert l_substitute(LElement(1, "t"), [LElement(0, "l")]) == LElement(0, "l")

    def test_arity_mismatch(self):
        with pytest.raises(InputError):
            l_substitute(LElement(2, "t"), [LElement(1, "t")])

    def test_unital(self):
        unit = LElement(1, "t")
        for x in l_elements(4):
            if x.arity >= 1:
                assert l_substitute(x, [unit] * x.arity) == x
            assert l_substitute(unit, [x]) == x

    def test_associative(self):
        # substitute a layer of ys into x, then a layer of zs: both
        # groupings agree (the acceptance suite pushes the bound higher)
        for x in l_elements(4):
            for ys in argument_lists(x.arity, 4):
                mid = l_substitute(x, ys)
                for zs in argument_lists(mid.arity, 4):
                    lhs = l_substitute(mid, zs)
                    nested, offset = [], 0
                    for y in ys:
                        segment = zs[offset:offset + y.arity]
                        offset += y.arity
                        nested.append(l_substitute(y, segment))
                    rhs = l_substitute(x, nested)
                    assert lhs == rhs

    def test_monotone(self):
        # substitution preserves the componentwise order
        for x in l_elements(3):
            for ys in argument_lists(x.arity, 3):
                value = l_substitute(x, ys)
                for i, y in enumerate(ys):
                    if y.kind == "l" and y.arity >= 1:
                        raised = ys[:i] + (LElement(y.arity, "t"),) + ys[i + 1:]
                        assert l_leq(value, l_substitute(x, raised))


class TestGradings:
    def test_q_examples(self):
        assert q_of(obj(2, (0, 1), (0, 1))) == LElement(2, "t")
        assert q_of(obj(2, (1,), (0, 1))) == LElement(1, "l")
        assert q_of(I) == LElement(0, "l")

    def test_p_and_r(self):
        assert p_of(X) == 1
        assert p_of(obj(3, (1, 2), (0, 0, 2))) == 2
        assert r_of(LElement(5, "t")) == 5
        for a in objects_up_to(4):
            assert p_of(a) == r_of(q_of(a))


class TestSubstituteObjects:
    def test_example(self):
        target = s_substitute_objects(tensor(X, X), [tensor(I, X), X])
        assert target == obj(3, (1, 2), (0, 0, 2))

    def test_unit_law(self):
        for g in objects_up_to(4):
            assert s_substitute_objects(g, [X] * g.grade) == g
            assert s_substitute_objects(X, [g]) == g

    def test_arity_mismatch(self):
        with pytest.raises(InputError):
            s_substitute_objects(tensor(X, X), [X])

    def test_q_is_operadic(self):
        gs = [g for g in objects_up_to(4) if g.grade <= 2]
        small = [f for f in objects_up_to(3)]
        for g in gs:
            for fs in product(small, repeat=g.grade):
                if g.m + sum(f.m for f in fs) > 8:
                    continue
                built = s_substitute_objects(g, list(fs))
                assert q_of(built) == l_substitute(q_of(g), [q_of(f) for f in fs])

    def test_matches_graft_oracle(self):
        gs = [g for g in objects_up_to(4) if g.grade <= 2]
        small = objects_up_to(3)
        for g in gs:
            for fs in product(small, repeat=g.grade):
                assert s_substitute_objects(g, fs) == graft_substitute(g, fs)

    def test_single_slot(self):
        assert s_circ(tensor(X, X), 2, tensor(X, X)) == tensor(X, tensor(X, X))
        with pytest.raises(InputError):
            s_circ(tensor(X, X), 3, X)


class TestExtremalObjects:
    def test_examples(self):
        assert initial_in_grade(1) == obj(2, (1,), (0, 1))
        assert terminal_in_grade(1) == obj(2, (0,), (0, 1))
        assert initial_in_grade(0) == I
        assert terminal_in_grade(0) == I

    def test_terminal_closed_form(self):
        for m in range(40):
            assert terminal_in_grade(m) == FskObject(m + 1, tuple(range(m)),
                                                     tamari_top(m + 1))

    def test_negative_grade(self):
        for make in (initial_in_grade, terminal_in_grade):
            with pytest.raises(InputError, match="natural number"):
                make(-1)

    def test_universal_property_small(self):
        for a in objects_up_to(4):
            if a.grade > 3:
                continue
            assert len(hom(initial_in_grade(a.grade), a)) == 1
            assert len(hom(a, terminal_in_grade(a.grade))) == 1


class TestHAdjoint:
    def test_h_examples(self):
        assert h_of(LElement(2, "t")) == obj(2, (0, 1), (0, 1))
        assert h_of(LElement(2, "l")) == obj(3, (1, 2), (0, 0, 2))
        assert h_of(LElement(0, "l")) == I

    def test_unit_is_identity(self):
        for x in l_elements(4):
            assert q_of(h_of(x)) == x

    def test_h_of_lambda(self):
        f = h_of_lambda(1)
        assert f.src == obj(2, (1,), (0, 1)) and f.dst == X
        assert f.map.images == (0, 0)
        with pytest.raises(InputError):
            h_of_lambda(0)

    def test_adjunction_hom_sizes_small(self):
        for a in objects_up_to(4):
            for x in l_elements(3):
                size = len(hom(h_of(x), a))
                expected = 1 if l_leq(x, q_of(a)) else 0
                assert size == expected, (x, a)


class TestCounit:
    def test_identity_on_free_objects(self):
        assert counit_at(X) == identity(X)
        for x in l_elements(3):
            assert counit_at(h_of(x)) == identity(h_of(x))

    def test_examples(self):
        assert counit_at(obj(2, (0,), (0, 1))) == rho(X)
        component = counit_at(obj(3, (1, 2), (0, 1, 2)))
        assert component.src == obj(3, (1, 2), (0, 0, 2))
        assert component.map.is_identity

    def test_always_injection(self):
        for a in objects_up_to(4):
            assert classify(counit_at(a)).is_fsk_injection

    def test_success_writes_no_repr(self, monkeypatch):
        # the uniqueness message names the object, and is built only to
        # raise
        def no_repr(self):
            raise AssertionError("repr of an object on a successful call")

        monkeypatch.setattr(FskObject, "__repr__", no_repr)
        for a in objects_up_to(4):
            assert counit_at(a).dst == a
        assert h_of_lambda(3).dst == h_of(LElement(3, "t"))


class TestColaxComparison:
    def test_first_slot_is_identity(self):
        t2 = LElement(2, "t")
        for x in l_elements(4):
            comparison = h_colax(t2, 1, x)
            assert comparison.map.is_identity
            assert comparison.src == comparison.dst

    def test_named_components(self):
        t2 = LElement(2, "t")
        assert h_colax(t2, 2, t2) == alpha(X, X, X)
        assert h_colax(t2, 2, LElement(0, "l")) == rho(X)

    def test_position_out_of_range(self):
        with pytest.raises(InputError):
            h_colax(LElement(2, "t"), 3, LElement(1, "t"))
        with pytest.raises(InputError):
            l_circ(LElement(0, "l"), 1, LElement(1, "t"))

    def test_coassociativity_square(self):
        # the two comparison paths out of the freely built 4-slot word:
        # going through (t2, 2, t3) directly, or through (t3, 2, t2) and
        # then reassociating the first factor, meet at the same morphism
        t2, t3 = LElement(2, "t"), LElement(3, "t")
        one_step = h_colax(t2, 2, t3)
        assert one_step.src == h_of(LElement(4, "t"))
        assert one_step.dst == s_circ(h_of(t2), 2, h_of(t3))
        other = h_colax(t3, 2, t2)
        assert other.dst == s_circ(h_of(t3), 2, h_of(t2))
        rebracket = alpha(X, tensor(X, X), X)
        assert rebracket.src == other.dst
        assert compose(rebracket, other) == one_step
        # the first-slot leg of the square is an identity (LBC)
        assert s_circ(h_of(t2), 2, h_colax(t2, 1, t2).dst) == one_step.dst


class TestCachedConstructions:
    """H and its colax comparisons are kept in the shape tier: each hit
    is the value an uncached call builds, shared."""

    def test_match_uncached_and_repeat_shared(self):
        elements = l_elements(5)
        for x in elements:
            assert h_of(x) == h_of.__wrapped__(x)
            assert h_of(x) is h_of(x)
            for i in range(1, x.arity + 1):
                for y in elements:
                    comparison = h_colax(x, i, y)
                    assert comparison == h_colax.__wrapped__(x, i, y)
                    assert h_colax(x, i, y) is comparison


class TestContracts:
    """The uniqueness and shape promises are checks that raise
    RuntimeError, a library fault, not InputError, a usage error."""

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        # a cached H or comparison would return before reaching the
        # faults injected below
        operads.h_of.cache_clear()
        operads.h_colax.cache_clear()

    @pytest.mark.parametrize("found", [[], [identity(X), identity(X)]],
                             ids=["none", "two"])
    def test_hom_sets_must_be_singletons(self, monkeypatch, found):
        monkeypatch.setattr(operads, "hom", lambda a, b: found)
        with pytest.raises(RuntimeError, match=f"{len(found)} elements"):
            counit_at(X)
        with pytest.raises(RuntimeError,
                           match=rf"^hom-set of H\(l2 <= t2\) has {len(found)} elements"):
            h_of_lambda(2)

    def test_counit_must_be_an_injection(self, monkeypatch):
        monkeypatch.setattr(operads, "hom", lambda a, b: [lambda_(X)])
        with pytest.raises(RuntimeError, match="not an Fsk-injection"):
            counit_at(X)

    def test_colax_target_must_grade_to_the_composite(self, monkeypatch):
        monkeypatch.setattr(operads, "s_circ", lambda g, i, f: X)
        with pytest.raises(RuntimeError, match="does not grade"):
            h_colax(LElement(2, "t"), 1, LElement(2, "t"))

    def test_colax_source_must_be_h_of_the_composite(self, monkeypatch):
        monkeypatch.setattr(operads, "counit_at", lambda a: identity(X))
        with pytest.raises(RuntimeError, match="does not start"):
            h_colax(LElement(2, "t"), 1, LElement(2, "t"))

    def test_checks_survive_optimized_mode(self):
        script = "\n".join([
            "from freeskew import GENERATOR, operads",
            "assert False  # stripped under -O",
            "operads.hom = lambda a, b: []",
            "try:",
            "    operads.counit_at(GENERATOR)",
            "except RuntimeError as exc:",
            "    print(exc)",
        ])
        src = os.path.dirname(os.path.dirname(operads.__file__))
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "0 elements" in result.stdout
