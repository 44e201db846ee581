import pytest
from hypothesis import given, strategies as st

from freeskew.ordmaps import (
    InputError,
    MonotoneMap,
    NoAdjointError,
    compose,
    epi_mono_factorize,
    ordinal_sum,
    right_adjoint,
    second_right_adjoint,
)

from oracles import (
    all_bottom_maps,
    all_monotone_images,
    brute_right_adjoint,
    brute_second_right_adjoint,
    epi_mono_sorted,
)


def monotone_maps(max_size=5):
    @st.composite
    def build(draw):
        dom = draw(st.integers(1, max_size))
        cod = draw(st.integers(1, max_size))
        images = sorted(draw(st.lists(st.integers(0, cod - 1),
                                      min_size=dom, max_size=dom)))
        return MonotoneMap(dom, cod, tuple(images))
    return build()


class TestMonotoneMap:
    def test_rejects_decreasing(self):
        with pytest.raises(InputError):
            MonotoneMap(2, 2, (1, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            MonotoneMap(2, 2, (0, 2))

    def test_rejects_empty_ordinal(self):
        with pytest.raises(InputError):
            MonotoneMap(0, 1, ())

    def test_text_facts(self):
        f = MonotoneMap(3, 2, (0, 0, 1))
        assert f.is_surjective and not f.is_injective
        assert f.preserves_bottom
        assert MonotoneMap.identity(3).is_identity


class TestCompose:
    def test_identity_left(self):
        f = MonotoneMap(3, 2, (0, 0, 1))
        assert compose(MonotoneMap.identity(2), f) == f

    def test_pointwise(self):
        g = MonotoneMap(3, 2, (0, 0, 1))
        f = MonotoneMap(2, 3, (0, 1))
        assert compose(g, f).images == (0, 0)
        assert compose(MonotoneMap(2, 1, (0, 0)),
                       MonotoneMap(3, 2, (0, 1, 1))).images == (0, 0, 0)
        assert compose(MonotoneMap(2, 3, (0, 2)),
                       MonotoneMap(2, 2, (0, 0))).images == (0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            compose(MonotoneMap(3, 2, (0, 0, 1)), MonotoneMap(2, 2, (0, 1)))

    @given(monotone_maps(), monotone_maps(), monotone_maps())
    def test_associative_when_composable(self, f, g, h):
        if f.cod != g.dom or g.cod != h.dom:
            return
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


class TestRightAdjoint:
    def test_identity(self):
        assert right_adjoint(MonotoneMap.identity(3)) == MonotoneMap.identity(3)

    def test_examples(self):
        assert right_adjoint(MonotoneMap(3, 2, (0, 0, 1))).images == (1, 2)
        assert right_adjoint(MonotoneMap(2, 3, (0, 2))).images == (0, 0, 1)

    def test_requires_bottom(self):
        with pytest.raises(NoAdjointError):
            right_adjoint(MonotoneMap(2, 2, (1, 1)))

    def test_matches_max_definition(self):
        for m in range(1, 6):
            for n in range(1, 6):
                for phi in all_bottom_maps(m, n):
                    assert right_adjoint(phi) == brute_right_adjoint(phi)

    def test_adjointness_equivalence(self):
        # phi(i) <= j iff i <= phi*(j)
        for m in range(1, 8):
            for n in range(1, 8):
                for phi in all_bottom_maps(m, n):
                    star = right_adjoint(phi)
                    for i in range(m):
                        for j in range(n):
                            assert (phi(i) <= j) == (i <= star(j))

    def test_sandwich(self):
        # phi(phi*(j)) <= j < phi(phi*(j)+1) where the right side exists
        for m in range(1, 8):
            for n in range(1, 8):
                for phi in all_bottom_maps(m, n):
                    star = right_adjoint(phi)
                    for j in range(n):
                        assert phi(star(j)) <= j
                        if star(j) + 1 < m:
                            assert j < phi(star(j) + 1)


class TestSecondRightAdjoint:
    def test_examples(self):
        assert second_right_adjoint(MonotoneMap(3, 2, (0, 1, 1))).images == (0, 0, 1)
        assert second_right_adjoint(MonotoneMap(2, 3, (0, 2))).images == (1, 2)
        assert second_right_adjoint(MonotoneMap.identity(2)) == MonotoneMap.identity(2)

    def test_requires_positive_second_value(self):
        with pytest.raises(NoAdjointError):
            second_right_adjoint(MonotoneMap(3, 2, (0, 0, 1)))
        with pytest.raises(NoAdjointError):
            second_right_adjoint(MonotoneMap(2, 2, (1, 1)))

    def test_singleton_domain(self):
        assert second_right_adjoint(MonotoneMap(1, 4, (0,))).images == (3,)

    def test_equals_iterated_right_adjoint(self):
        for m in range(1, 6):
            for n in range(1, 6):
                for phi in all_bottom_maps(m, n):
                    if m >= 2 and phi(1) == 0:
                        continue
                    assert second_right_adjoint(phi) == right_adjoint(right_adjoint(phi))
                    assert second_right_adjoint(phi) == brute_second_right_adjoint(phi)


class TestEpiMonoFactorize:
    def test_examples(self):
        sigma, delta = epi_mono_factorize(MonotoneMap(3, 3, (0, 0, 2)))
        assert sigma.images == (0, 0, 1) and sigma.cod == 2
        assert delta.images == (0, 2)
        sigma, delta = epi_mono_factorize(MonotoneMap(3, 2, (0, 0, 0)))
        assert sigma.images == (0, 0, 0) and sigma.cod == 1
        assert delta.images == (0,) and delta.cod == 2

    def test_identity(self):
        one = MonotoneMap.identity(4)
        assert epi_mono_factorize(one) == (one, one)

    def test_matches_sorted_oracle(self):
        # every monotone map with dom, cod <= 6
        for dom in range(1, 7):
            for cod in range(1, 7):
                for images in all_monotone_images(dom, cod):
                    phi = MonotoneMap(dom, cod, images)
                    assert epi_mono_factorize(phi) == epi_mono_sorted(phi)

    @given(monotone_maps())
    def test_recomposes(self, phi):
        sigma, delta = epi_mono_factorize(phi)
        assert compose(delta, sigma) == phi
        assert sigma.is_surjective
        assert delta.is_injective
        assert all(a < b for a, b in zip(delta.images, delta.images[1:]))


class TestOrdinalSum:
    def test_examples(self):
        assert ordinal_sum(MonotoneMap.identity(1),
                           MonotoneMap(2, 1, (0, 0))).images == (0, 1, 1)
        assert ordinal_sum(MonotoneMap.identity(1),
                           MonotoneMap.identity(1)) == MonotoneMap.identity(2)
        f = ordinal_sum(MonotoneMap(2, 2, (0, 0)), MonotoneMap(1, 1, (0,)))
        assert (f.dom, f.cod, f.images) == (3, 3, (0, 0, 2))

    @given(monotone_maps(), monotone_maps(), monotone_maps())
    def test_associative(self, f, g, h):
        assert ordinal_sum(ordinal_sum(f, g), h) == ordinal_sum(f, ordinal_sum(g, h))

    @given(monotone_maps(), monotone_maps(), monotone_maps(), monotone_maps())
    def test_functorial(self, f, g, p, q):
        # (g after f) + (q after p) = (g + q) after (f + p)
        if f.cod != g.dom or p.cod != q.dom:
            return
        assert ordinal_sum(compose(g, f), compose(q, p)) == \
            compose(ordinal_sum(g, q), ordinal_sum(f, p))
