from itertools import product
from operator import eq

import pytest

from freeskew.ordmaps import InputError, MonotoneMap, right_adjoint
from freeskew.tamari import (
    Lbf,
    Rbf,
    base_change_inj,
    base_change_surj,
    conjugate_inj,
    conjugate_surj,
    enumerate_tamari,
    lbf_to_rbf,
    rbf_to_lbf,
    tamari_bottom,
    tamari_join,
    tamari_leq,
    tamari_meet,
    tamari_opposite,
    tamari_top,
    validate_lbf,
    validate_rbf,
)
from freeskew.fsk import FskObject
from freeskew.words import format_object, parse_object

from oracles import (
    CATALAN,
    Leaf,
    Node,
    all_bottom_injections,
    all_surjections,
    all_trees,
    base_change_inj_formula,
    brute_join,
    brute_lbfs,
    brute_meet,
    brute_right_adjoint,
    lbf_to_rbf_loop,
    lbf_to_tree,
    mirror_lbf_values,
    mirror_rbf_values,
    object_tree,
    rbf_to_lbf_loop,
    tree_text,
    tree_to_lbf,
    validate_lbf_loop,
    validate_rbf_loop,
)


class TestValidate:
    def test_figure_entry(self):
        assert validate_lbf([0, 1, 0, 3])

    def test_condition_two_fails(self):
        assert not validate_lbf([0, 0, 1, 3])

    def test_singleton(self):
        assert validate_lbf([0])

    def test_top_not_preserved(self):
        assert not validate_lbf([0, 0, 0, 2])

    def test_lbf_constructor_rejects(self):
        with pytest.raises(InputError):
            Lbf((0, 0, 1, 3))

    def test_rbf_constructor_rejects(self):
        with pytest.raises(InputError):
            Rbf((1, 1))
        with pytest.raises(InputError):
            Rbf((0, 2, 1))

    @pytest.mark.parametrize("scan, loop", [(validate_lbf, validate_lbf_loop),
                                            (validate_rbf, validate_rbf_loop)],
                             ids=["lbf", "rbf"])
    def test_matches_loop_oracle(self, scan, loop):
        # every sequence over -1..m up to m = 6, every one over 0..m-1 at
        # m = 7 and 8 (16,777,216 at m = 8)
        ranges = [(m, range(-1, m + 1)) for m in range(1, 7)]
        ranges += [(m, range(m)) for m in (7, 8)]
        for m, values in ranges:
            got = map(scan, product(values, repeat=m))
            expected = map(loop, product(values, repeat=m))
            assert all(map(eq, got, expected)), m


class TestEnumerate:
    def test_four_matches_figure(self):
        got = [l.values for l in enumerate_tamari(4)]
        assert got == [(0, 0, 0, 3), (0, 0, 2, 3), (0, 1, 0, 3),
                       (0, 1, 1, 3), (0, 1, 2, 3)]

    def test_one(self):
        assert [l.values for l in enumerate_tamari(1)] == [(0,)]

    def test_counts_are_catalan(self):
        for m in range(1, 11):
            assert len(enumerate_tamari(m)) == CATALAN[m - 1]

    def test_agrees_with_brute_filter(self):
        for m in range(1, 7):
            assert [l.values for l in enumerate_tamari(m)] == brute_lbfs(m)


class TestBottomTop:
    def test_examples(self):
        assert tamari_bottom(4).values == (0, 0, 0, 3)
        assert tamari_top(4).values == (0, 1, 2, 3)
        assert tamari_bottom(1) == tamari_top(1) == Lbf((0,))

    def test_extremal(self):
        for m in range(1, 7):
            for s in enumerate_tamari(m):
                assert tamari_leq(tamari_bottom(m), s)
                assert tamari_leq(s, tamari_top(m))


class TestOrderAndLattice:
    def test_leq_examples(self):
        assert tamari_leq(Lbf((0, 0, 0, 3)), Lbf((0, 1, 0, 3)))
        assert not tamari_leq(Lbf((0, 1, 0, 3)), Lbf((0, 0, 2, 3)))
        s = Lbf((0, 1, 1, 3))
        assert tamari_leq(s, s)

    def test_leq_dimension_mismatch(self):
        with pytest.raises(InputError):
            tamari_leq(Lbf((0,)), Lbf((0, 1)))

    def test_join_examples(self):
        assert tamari_join(Lbf((0, 1, 0, 3)), Lbf((0, 0, 2, 3))).values == (0, 1, 2, 3)
        s = Lbf((0, 1, 1, 3))
        assert tamari_join(tamari_bottom(4), s) == s

    def test_meet_example(self):
        assert tamari_meet(Lbf((0, 1, 0, 3)), Lbf((0, 0, 2, 3))).values == (0, 0, 0, 3)

    def test_lattice_operations_against_brute_force(self):
        for m in range(1, 8):
            lattice = enumerate_tamari(m)
            for s in lattice:
                for t in lattice:
                    if m <= 5:
                        assert tamari_join(s, t) == brute_join(s, t)
                    assert tamari_meet(s, t) == brute_meet(s, t)


class TestRbfConversion:
    def test_examples(self):
        assert lbf_to_rbf(Lbf((0, 1, 0, 3))).values == (0, 2, 2, 3)
        assert lbf_to_rbf(Lbf((0, 0, 0, 3))).values == (0, 1, 2, 3)
        assert lbf_to_rbf(Lbf((0, 1, 2, 3))).values == (0, 3, 3, 3)

    def test_inverse_examples(self):
        assert rbf_to_lbf(Rbf((0, 2, 2, 3))).values == (0, 1, 0, 3)
        assert rbf_to_lbf(Rbf((0,))).values == (0,)
        assert rbf_to_lbf(Rbf((0, 1, 2, 3))).values == (0, 0, 0, 3)

    def test_matches_mirror_tree_oracle(self):
        # and the quadratic loops read off the defining formulas
        for m in range(1, 10):
            for s in enumerate_tamari(m):
                assert lbf_to_rbf(s).values == mirror_rbf_values(s)
                r = lbf_to_rbf(s)
                assert rbf_to_lbf(r).values == mirror_lbf_values(r)
                assert r.values == lbf_to_rbf_loop(s)
                assert rbf_to_lbf(r).values == rbf_to_lbf_loop(r) == s.values

    def test_mutually_inverse(self):
        for m in range(1, 8):
            for s in enumerate_tamari(m):
                assert rbf_to_lbf(lbf_to_rbf(s)) == s

    def test_every_valid_rbf_is_hit(self):
        # the duals of the lbf conditions characterise exactly the images
        for m in range(1, 6):
            images = {lbf_to_rbf(s).values for s in enumerate_tamari(m)}
            from itertools import product
            valid = {v for v in product(range(m), repeat=m) if validate_rbf(v)}
            assert images == valid

    def test_order_transport(self):
        for m in range(1, 7):
            for s in enumerate_tamari(m):
                rs = lbf_to_rbf(s)
                for t in enumerate_tamari(m):
                    rt = lbf_to_rbf(t)
                    assert tamari_leq(s, t) == all(
                        a <= b for a, b in zip(rs.values, rt.values))

    def test_opposite_is_involution(self):
        for m in range(1, 7):
            for s in enumerate_tamari(m):
                assert tamari_opposite(tamari_opposite(s)) == s


class TestTrees:
    # the oracle's trees against the text route: the text of a tree
    # parses to the lbf that the definition reads off the tree
    def test_paper_five_letter_example(self):
        tree = Node(Node(Leaf(), Node(Node(Leaf(), Leaf()), Leaf())), Leaf())
        assert tree_to_lbf(tree).values == (0, 1, 1, 0, 4)
        assert parse_object(tree_text(tree)).s == tree_to_lbf(tree)

    def test_figure_example(self):
        tree = Node(Node(Leaf(), Node(Leaf(), Leaf())), Leaf())
        assert tree_to_lbf(tree).values == (0, 1, 0, 3)
        assert parse_object(tree_text(tree)).s == tree_to_lbf(tree)

    def test_single_leaf(self):
        assert tree_to_lbf(Leaf()).values == (0,)
        assert parse_object(tree_text(Leaf())).s == tree_to_lbf(Leaf())

    def test_round_trip_both_ways(self):
        for m in range(1, 9):
            for tree in all_trees(m):
                s = parse_object(tree_text(tree)).s
                assert s == tree_to_lbf(tree)
                assert lbf_to_tree(s) == tree
            for s in enumerate_tamari(m):
                assert tree_to_lbf(lbf_to_tree(s)) == s
                word = FskObject(m, tuple(range(m)), s)
                assert format_object(word) == tree_text(lbf_to_tree(s))

    def test_labels(self):
        a = FskObject(3, (0, 2), Lbf((0, 0, 2)))
        assert object_tree(a) == Node(Node(Leaf("X"), Leaf("I")), Leaf("X"))
        assert format_object(a) == tree_text(object_tree(a))

    def test_leaf_count(self):
        assert parse_object(tree_text(Node(Leaf(), Node(Leaf(), Leaf())))).m == 3


class TestBaseChangeSurj:
    def test_examples(self):
        assert base_change_surj(MonotoneMap(3, 2, (0, 0, 1)),
                                Lbf((0, 1))).values == (0, 1, 2)
        assert base_change_surj(MonotoneMap(3, 2, (0, 1, 1)),
                                Lbf((0, 1))).values == (0, 1, 2)
        s = Lbf((0, 0, 2))
        assert base_change_surj(MonotoneMap.identity(3), s) == s

    def test_rejects_non_surjection(self):
        with pytest.raises(InputError):
            base_change_surj(MonotoneMap(2, 3, (0, 2)), Lbf((0, 1, 2)))

    def test_lemma_equations(self):
        for m in range(1, 7):
            for n in range(1, m + 1):
                for sigma in all_surjections(m, n):
                    star = right_adjoint(sigma)
                    for ell in enumerate_tamari(n):
                        lifted = base_change_surj(sigma, ell)
                        for h in range(n):
                            assert lifted(star(h)) == star(ell(h))
                            assert sigma(lifted(star(h))) == ell(h)


class TestBaseChangeInj:
    def test_identity(self):
        r = Rbf((0, 1, 2))
        assert base_change_inj(MonotoneMap.identity(3), r) == r

    def test_examples(self):
        assert base_change_inj(MonotoneMap(2, 3, (0, 1)),
                               Rbf((0, 1))).values == (0, 1, 2)
        assert base_change_inj(MonotoneMap(2, 3, (0, 2)),
                               Rbf((0, 1))).values == (0, 1, 2)

    def test_rejects_bad_maps(self):
        with pytest.raises(InputError):
            base_change_inj(MonotoneMap(2, 2, (0, 0)), Rbf((0, 1)))
        with pytest.raises(InputError):
            base_change_inj(MonotoneMap(1, 2, (1,)), Rbf((0,)))

    def test_intertwines(self):
        for n in range(1, 6):
            for m in range(n, 7):
                for delta in all_bottom_injections(n, m):
                    for s in enumerate_tamari(n):
                        r = lbf_to_rbf(s)
                        pushed = base_change_inj(delta, r)
                        for i in range(n):
                            assert pushed(delta(i)) == delta(r(i))

    def test_matches_formula_oracle(self):
        # every entry, off the image of delta too
        for n in range(1, 6):
            for m in range(n, 7):
                for delta in all_bottom_injections(n, m):
                    for s in enumerate_tamari(n):
                        r = lbf_to_rbf(s)
                        assert (base_change_inj(delta, r).values
                                == base_change_inj_formula(delta, r))


class TestConjugation:
    def test_surj_examples(self):
        assert conjugate_surj(MonotoneMap(3, 2, (0, 0, 1)),
                              Lbf((0, 0, 2))).values == (0, 1)
        assert conjugate_surj(MonotoneMap(3, 2, (0, 1, 1)),
                              Lbf((0, 1, 2))).values == (0, 1)
        s = Lbf((0, 1, 0, 3))
        assert conjugate_surj(MonotoneMap.identity(4), s) == s

    def test_surj_always_lbf(self):
        # the composite is validated by the Lbf constructor
        for m in range(1, 7):
            for n in range(1, m + 1):
                for sigma in all_surjections(m, n):
                    for s in enumerate_tamari(m):
                        conjugate_surj(sigma, s)

    def test_surj_matches_adjoint_oracle(self):
        # the value, not only its validity: sigma . l_S . sigma* pointwise,
        # with sigma* from the scan over every i
        for m in range(1, 7):
            for n in range(1, m + 1):
                for sigma in all_surjections(m, n):
                    star = brute_right_adjoint(sigma).images
                    for s in enumerate_tamari(m):
                        expected = tuple(sigma.images[s.values[star[j]]]
                                         for j in range(n))
                        assert conjugate_surj(sigma, s).values == expected, \
                            (sigma, s)

    def test_inj_examples(self):
        s = Lbf((0, 1, 0, 3))
        assert conjugate_inj(MonotoneMap.identity(4), s) == s
        assert conjugate_inj(MonotoneMap(2, 3, (0, 1)),
                             Lbf((0, 0, 2))).values == (0, 1)
        assert conjugate_inj(MonotoneMap(2, 3, (0, 2)),
                             Lbf((0, 1, 2))).values == (0, 1)

    def test_inj_examples_match_double_adjoint_route(self):
        # on these instances the double-right-adjoint composite computes
        # the same element (it does not in general)
        from freeskew.ordmaps import second_right_adjoint
        for delta, s in [
            (MonotoneMap(2, 3, (0, 1)), Lbf((0, 0, 2))),
            (MonotoneMap(2, 3, (0, 2)), Lbf((0, 1, 2))),
        ]:
            star = right_adjoint(delta)
            lower = second_right_adjoint(delta)
            other = tuple(star(s(lower(j))) for j in range(delta.dom))
            assert conjugate_inj(delta, s).values == other

    def test_inj_is_greatest_admissible(self):
        # T <= conjugate_inj(delta, S) iff delta carries r_T under r_S
        for n in range(1, 5):
            for m in range(n, 6):
                for delta in all_bottom_injections(n, m):
                    for s in enumerate_tamari(m):
                        best = conjugate_inj(delta, s)
                        star = right_adjoint(delta)
                        r_s = lbf_to_rbf(s)
                        for t in enumerate_tamari(n):
                            fits = all(lbf_to_rbf(t)(j) <= star(r_s(delta(j)))
                                       for j in range(n))
                            assert fits == tamari_leq(t, best)
