"""Acceptance suite: one test per acceptance criterion.

Every test performs its full check at the stated scale and then prints
one line "ACCEPTANCE <n> PASS <summary>"; run with

    pytest -s tests/test_acceptance.py

to see the report (a failing criterion surfaces as an ordinary pytest
failure for that test).
"""

import time
from itertools import combinations, product

from freeskew.ordmaps import right_adjoint, second_right_adjoint
from freeskew.tamari import (
    base_change_inj,
    base_change_surj,
    conjugate_inj,
    conjugate_surj,
    enumerate_tamari,
    lbf_to_rbf,
    rbf_to_lbf,
    tamari_join,
    tamari_leq,
    tamari_meet,
)
import freeskew.fsk as fsk
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
    factor_injection,
    factor_surjection,
    hom,
    identity,
    is_morphism,
    lambda_,
    rho,
    tensor,
)
from freeskew.operads import (
    LElement,
    counit_at,
    h_colax,
    h_of,
    l_leq,
    l_substitute,
    q_of,
    s_substitute_objects,
    initial_in_grade,
    terminal_in_grade,
)
from freeskew.words import format_object, parse_object

from oracles import (
    CATALAN,
    Leaf,
    Node,
    all_bottom_injections,
    all_bottom_maps,
    all_objects,
    all_surjections,
    all_trees,
    bij_ok_oracle,
    brute_right_adjoint,
    brute_second_right_adjoint,
    component_bij_oracle,
    general_def_brackets_ok,
    lbf_to_tree,
    objects_up_to,
    opposite_oracle,
    reflect_map,
    shrink_brackets_ok,
    surj_def_brackets_ok,
    tree_text,
    tree_to_lbf,
)


def report(number, text):
    print(f"\nACCEPTANCE {number:2d} PASS {text}")


def test_01_tamari_counts():
    start = time.perf_counter()
    for m in range(1, 9):
        assert len(enumerate_tamari(m)) == CATALAN[m - 1]
    four = [lbf.values for lbf in enumerate_tamari(4)]
    assert sorted(four) == [(0, 0, 0, 3), (0, 0, 2, 3), (0, 1, 0, 3),
                            (0, 1, 1, 3), (0, 1, 2, 3)]
    assert (0, 1, 0, 3) in four
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"counts 1,1,2,5,14,42,132,429 for m=1..8 in {elapsed:.2f}s")


def test_02_bracketing_correspondence():
    # the text of each tree parses to the lbf the definition reads off
    # the tree, and each lbf writes as the text of its tree
    tree = Node(Node(Leaf(), Node(Node(Leaf(), Leaf()), Leaf())), Leaf())
    assert parse_object(tree_text(tree)).s.values == (0, 1, 1, 0, 4)
    trees = 0
    for m in range(1, 9):
        for t in all_trees(m):
            s = parse_object(tree_text(t)).s
            assert s == tree_to_lbf(t)
            assert lbf_to_tree(s) == t
            trees += 1
        for s in enumerate_tamari(m):
            assert tree_to_lbf(lbf_to_tree(s)) == s
            word = FskObject(m, tuple(range(m)), s)
            assert format_object(word) == tree_text(lbf_to_tree(s))
    report(2, f"five-letter word gives 0,1,1,0,4; {trees} trees round-trip (m <= 8)")


def test_03_adjoint_formulas():
    checked = 0
    for m in range(1, 8):
        for n in range(1, 8):
            for phi in all_bottom_maps(m, n):
                assert right_adjoint(phi) == brute_right_adjoint(phi)
                checked += 1
                if m >= 2 and phi(1) == 0:
                    continue
                second = second_right_adjoint(phi)
                assert second == right_adjoint(right_adjoint(phi))
                assert second == brute_second_right_adjoint(phi)
    report(3, f"max-definition and case-formula agree on {checked} maps (dom,cod <= 7)")


def test_04_base_change_lemma():
    surj_checked = 0
    for m in range(1, 7):
        for n in range(1, m + 1):
            for sigma in all_surjections(m, n):
                star = right_adjoint(sigma)
                for ell in enumerate_tamari(n):
                    lifted = base_change_surj(sigma, ell)  # validates as lbf
                    for h in range(n):
                        assert lifted(star(h)) == star(ell(h))
                        assert sigma(lifted(star(h))) == ell(h)
                    surj_checked += 1
    inj_checked = 0
    for n in range(1, 7):
        for m in range(n, 7):
            for delta in all_bottom_injections(n, m):
                for s in enumerate_tamari(n):
                    r = lbf_to_rbf(s)
                    pushed = base_change_inj(delta, r)  # validates as rbf
                    for i in range(n):
                        assert pushed(delta(i)) == delta(r(i))
                    inj_checked += 1
    report(4, f"lift equations hold for {surj_checked} surjective and "
              f"{inj_checked} injective base changes (m <= 6)")


def _subset_pairs(m, n):
    pairs = []
    for size in range(min(m, n) + 1):
        for u in combinations(range(m), size):
            for v in combinations(range(n), size):
                pairs.append((u, v))
    return pairs


def test_05_criterion_equivalences():
    start = time.perf_counter()
    brackets = 0
    surj_equiv = 0
    combos = 0
    sampled = 0
    for m in range(1, 6):
        tams_m = enumerate_tamari(m)
        for n in range(1, 6):
            tams_n = enumerate_tamari(n)
            uv_pairs = _subset_pairs(m, n)
            for phi in all_bottom_maps(m, n):
                surjective = phi.is_surjective
                table = []
                for s in tams_m:
                    for t in tams_n:
                        d = fsk._bracket_direct_ok(phi, s, t)
                        c = fsk._bracket_factor_ok(phi, s, t)
                        r = fsk._bracket_search_ok(phi, s, t)
                        g = general_def_brackets_ok(phi, s, t)
                        assert d == c == r == g, (phi, s, t, d, c, r, g)
                        brackets += 1
                        if surjective:
                            crit = tamari_leq(conjugate_surj(phi, s), t)
                            defn = surj_def_brackets_ok(phi, s, t)
                            assert crit == defn, (phi, s, t)
                            surj_equiv += 1
                        table.append((s, t, d, c, r))
                uv_table = []
                for u, v in uv_pairs:
                    b = fsk._bij_ok(phi, u, v)
                    assert b == bij_ok_oracle(phi, u, v)
                    # the generator condition for phi implies it for both
                    # halves of the factorization, which via_search relies on
                    if b:
                        assert component_bij_oracle(phi, u, v)
                    uv_table.append((u, v, b))
                # every object pair: the assembled three-mode verdicts agree
                for u, v, b in uv_table:
                    for s, t, d, c, r in table:
                        v_direct = b and d
                        v_factor = b and c
                        v_search = b and r
                        assert v_direct == v_factor == v_search
                        combos += 1
                        if combos % 401 == 0:
                            src = FskObject(m, u, s)
                            dst = FskObject(n, v, t)
                            api = {mode: is_morphism(src, dst, phi, mode)
                                   for mode in MODES}
                            assert set(api.values()) == {v_direct}
                            sampled += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"{combos} (pair, map) combos agree across all three modes and "
              f"both definitional searches ({brackets} bracket triples, "
              f"{surj_equiv} surjection-criterion checks, {sampled} API samples) "
              f"in {elapsed:.1f}s")


def test_06_factorization_propositions():
    surjections = 0
    injections = 0
    for m in range(1, 6):
        for n in range(1, m + 1):
            uv_pairs = _subset_pairs(m, n)
            for sigma in all_surjections(m, n):
                good_uv = [(u, v) for u, v in uv_pairs
                           if fsk._bij_ok(sigma, u, v)]
                for t in enumerate_tamari(n):
                    makers = [sp for sp in enumerate_tamari(m)
                              if shrink_brackets_ok(sigma, sp, t)]
                    for s in enumerate_tamari(m):
                        if not tamari_leq(conjugate_surj(sigma, s), t):
                            continue
                        # greatest rebracketing the map shrinks from
                        lifted = tamari_join(s, base_change_surj(sigma, t))
                        assert makers
                        assert lifted in makers
                        assert all(tamari_leq(sp, lifted) for sp in makers)
                        for u, v in good_uv:
                            f = FskMorphism(FskObject(m, u, s),
                                            FskObject(n, v, t), sigma)
                            max_middle, alt_middle = factor_surjection(f)
                            assert max_middle.s == lifted
                            assert alt_middle.s == conjugate_surj(sigma, s)
                            surjections += 1
    for n in range(1, 6):
        for m in range(n, 6):
            vu_pairs = _subset_pairs(n, m)
            for delta in all_bottom_injections(n, m):
                star = right_adjoint(delta)
                psi = reflect_map(star)
                good_vu = [(v, u) for v, u in vu_pairs
                           if fsk._bij_ok(delta, v, u)]
                for t in enumerate_tamari(n):
                    r_t = lbf_to_rbf(t)
                    makers = [sp for sp in enumerate_tamari(m)
                              if shrink_brackets_ok(
                                  psi, opposite_oracle(sp), opposite_oracle(t))]
                    pushed = rbf_to_lbf(base_change_inj(delta, r_t))
                    for s in enumerate_tamari(m):
                        r_s = lbf_to_rbf(s)
                        if not all(r_t(j) <= star(r_s(delta(j)))
                                   for j in range(n)):
                            continue
                        # least rebracketing the map swells into
                        dropped = tamari_meet(pushed, s)
                        assert makers
                        assert dropped in makers
                        assert tamari_leq(dropped, s)
                        assert all(tamari_leq(dropped, sp) for sp in makers)
                        for v, u in good_vu:
                            f = FskMorphism(FskObject(n, v, t),
                                            FskObject(m, u, s), delta)
                            min_middle, alt_middle = factor_injection(f)
                            assert min_middle.s == dropped
                            assert alt_middle.s == conjugate_inj(delta, s)
                            injections += 1
    report(6, f"canonical factorizations re-validated for {surjections} "
              f"surjective and {injections} injective morphisms (m, n <= 5)")


def test_07_unit_endomorphism_witness():
    two = tensor(I, I)
    maps = [f.map.images for f in hom(two, two)]
    assert maps == [(0, 0), (0, 1)]
    composite = compose(rho(I), lambda_(I))
    assert composite.map.images == (0, 0)
    assert composite != identity(two)
    report(7, "hom(II, II) = {identity, rho.lambda} and rho.lambda != identity")


def _objects_by_size(max_m):
    table = {}
    for m in range(1, max_m + 1):
        table[m] = all_objects(m)
    return table


def test_08_skew_axioms():
    assert axiom_lambda_rho()
    table = _objects_by_size(7)
    pairs = 0
    for a in range(1, 8):
        for b in range(1, 9 - a):
            for x in table[a]:
                for y in table[b]:
                    assert axiom_alpha_rho(x, y)
                    assert axiom_alpha_lambda(x, y)
                    assert axiom_rho_alpha_lambda(x, y)
                    pairs += 1
    pentagons = 0
    for a in range(1, 6):
        for b in range(1, 7 - a):
            for c in range(1, 8 - a - b):
                for d in range(1, 9 - a - b - c):
                    for w in table[a]:
                        for x in table[b]:
                            for y in table[c]:
                                for z in table[d]:
                                    assert axiom_pentagon(w, x, y, z)
                                    pentagons += 1
    assert pentagons >= 100
    report(8, f"five axioms hold: unit witness, {pairs} two-object tuples, "
              f"{pentagons} pentagon tuples (total leaves <= 8)")


def test_09_initial_and_terminal():
    checked = 0
    for a in objects_up_to(6):
        if a.grade > 3:
            continue
        assert len(hom(initial_in_grade(a.grade), a)) == 1
        assert len(hom(a, terminal_in_grade(a.grade))) == 1
        checked += 1
    report(9, f"unique maps from initial and to terminal for {checked} objects "
              f"(m <= 6, grade <= 3)")


def test_10_grading_adjunction():
    elements = [LElement(0, "l")]
    for k in range(1, 4):
        elements.append(LElement(k, "l"))
        elements.append(LElement(k, "t"))
    hom_checked = 0
    for a in objects_up_to(6):
        for x in elements:
            size = len(hom(h_of(x), a))
            expected = 1 if l_leq(x, q_of(a)) else 0
            assert size == expected, (x, a, size)
            hom_checked += 1
    counit_checked = 0
    for a in objects_up_to(6):
        component = counit_at(a)  # asserts uniqueness internally
        assert classify(component).is_fsk_injection
        counit_checked += 1
    report(10, f"hom(h(x), a) sizes match the order for {hom_checked} pairs; "
               f"{counit_checked} counit components are injections (m <= 6)")


def test_11_lbc_property():
    t2 = LElement(2, "t")
    checked = 0
    for x in [LElement(0, "l"), LElement(1, "l"), LElement(1, "t"),
              LElement(2, "l"), LElement(2, "t"), LElement(3, "l"),
              LElement(3, "t"), LElement(4, "l"), LElement(4, "t")]:
        comparison = h_colax(t2, 1, x)
        assert comparison == identity(comparison.src)
        checked += 1
    assert h_colax(t2, 2, t2) == alpha(X, X, X)
    assert h_colax(t2, 2, LElement(0, "l")) == rho(X)
    report(11, f"first-slot comparisons are identities for {checked} elements; "
               f"second-slot ones give the associator and right unit")


def test_12_worked_composite():
    l2, l4, t2 = LElement(2, "l"), LElement(4, "l"), LElement(2, "t")
    source = h_of(l4)
    target = s_substitute_objects(h_of(l2), [h_of(t2), h_of(l2)])
    assert format_object(source) == "((((I X) X) X) X)"
    assert format_object(target) == "((I (X X)) ((I X) X))"

    block = tensor(tensor(I, X), X)
    step1 = tensor(tensor(rho(block), identity(X)), identity(X))
    step2 = tensor(alpha(block, I, X), identity(X))
    step3 = tensor(tensor(alpha(I, X, X), identity(tensor(I, X))), identity(X))
    step4 = alpha(tensor(I, tensor(X, X)), tensor(I, X), X)
    composite = compose(step4, compose(step3, compose(step2, step1)))

    assert composite.src == source and composite.dst == target
    morphisms = hom(source, target)
    assert len(morphisms) == 1
    assert composite == morphisms[0] == counit_at(target)
    report(12, "the rho/alpha-whiskered chain equals the unique counit morphism "
               f"{format_object(source)} -> {format_object(target)}")


def test_13_l_operad_laws():
    elements = [LElement(0, "l")]
    for k in range(1, 6):
        elements.append(LElement(k, "l"))
        elements.append(LElement(k, "t"))

    def argument_lists(arity, budget):
        lists = [()]
        for _ in range(arity):
            lists = [xs + (y,) for xs in lists for y in elements
                     if sum(z.arity for z in xs) + y.arity <= budget]
        return lists

    unit = LElement(1, "t")
    lists_by_key = {(k, budget): argument_lists(k, budget)
                    for k in range(6) for budget in range(6)}
    associativity = 0
    for x in elements:
        assert l_substitute(unit, (x,)) == x
        for ys in lists_by_key[(x.arity, 5)]:
            mid = l_substitute(x, ys)
            assert l_substitute(x, (unit,) * len(ys)) == x
            # grow the inner layer segment by segment, sharing the
            # per-segment substitutions across the whole product
            partial = [((), (), 0)]
            for y in ys:
                grown = []
                for flat, nested, used in partial:
                    for segment in lists_by_key[(y.arity, 5 - used)]:
                        grown.append((flat + segment,
                                      nested + (l_substitute(y, segment),),
                                      used + sum(z.arity for z in segment)))
                partial = grown
            for flat, nested, _ in partial:
                assert l_substitute(mid, flat) == l_substitute(x, nested)
                associativity += 1

    operadic = 0
    small = objects_up_to(3)
    for g in objects_up_to(4):
        if g.grade > 2:
            continue
        for fs in product(small, repeat=g.grade):
            if g.m + sum(f.m for f in fs) > 8:
                continue
            built = s_substitute_objects(g, list(fs))
            assert q_of(built) == l_substitute(q_of(g), [q_of(f) for f in fs])
            operadic += 1
    report(13, f"associativity on {associativity} double substitutions "
               f"(total arity <= 5); grading map operadic on {operadic} samples")


def test_14_duality():
    morphisms = 0
    for m in range(1, 6):
        objs_m = all_objects(m)
        for n in range(1, 6):
            objs_n = all_objects(n)
            for phi in all_bottom_maps(m, n):
                for a in objs_m:
                    for b in objs_n:
                        if a.grade != b.grade:
                            continue
                        if not is_morphism(a, b, phi):
                            continue
                        f = FskMorphism(a, b, phi)
                        g = dual(f)
                        assert dual(g) == f
                        flags = classify(f)
                        dual_flags = classify(g)
                        assert flags.is_fsk_surjection == dual_flags.is_fsk_injection
                        assert flags.is_fsk_injection == dual_flags.is_fsk_surjection
                        assert flags.is_shrink == dual_flags.is_swell
                        assert flags.is_swell == dual_flags.is_shrink
                        assert flags.is_tamari == dual_flags.is_tamari
                        morphisms += 1
    assert morphisms > 0
    for a in objects_up_to(5):
        assert dual(dual(a)) == a
    report(14, f"duality is involutive and swaps the classes on {morphisms} "
               f"morphisms (m, n <= 5)")
