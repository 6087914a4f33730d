"""Unit tests for deterministic RNG utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (
    _MIN_SEED_LANES,
    DEFAULT_SEED,
    derive_seed,
    derive_seeds,
    make_rng,
    spawn,
)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_different_seeds_differ(self):
        assert make_rng(5).random() != make_rng(6).random()

    def test_none_uses_default_seed(self):
        assert make_rng(None).random() == make_rng(DEFAULT_SEED).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert make_rng(rng) is rng


class TestSpawn:
    def test_children_are_independent(self):
        children = spawn(make_rng(3), 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_is_deterministic(self):
        a = [c.random() for c in spawn(make_rng(3), 2)]
        b = [c.random() for c in spawn(make_rng(3), 2)]
        assert a == b


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "x", 2.0) == derive_seed(1, "x", 2.0)

    def test_sensitive_to_components(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_result_in_valid_range(self):
        seed = derive_seed(123, "anything", 4.5, (1, 2))
        assert 0 <= seed < 2**63


#: Strings with quotes, backslashes and non-ASCII code points (their
#: reprs escape or keep them, and UTF-8 widens them to several bytes).
_TEXT = st.text(alphabet=st.sampled_from("ab'\"\\\n é€😀"), max_size=12)
_LONG_TEXT = st.builds(
    lambda n, tail: "x" * n + tail, st.integers(400, 1400), _TEXT
)
_COMPONENT = st.recursive(
    st.one_of(_TEXT, _LONG_TEXT, st.just(""), st.integers(-(2**70), 2**70)),
    lambda inner: st.tuples(inner, inner) | st.tuples(inner),
    max_leaves=6,
)
_BASE = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)
_KEY = st.lists(_COMPONENT, max_size=4).map(tuple)


class TestDeriveSeeds:
    """``derive_seeds`` is ``derive_seed`` over many keys at once."""

    @given(
        base=_BASE,
        keys=st.lists(
            _KEY, min_size=_MIN_SEED_LANES, max_size=_MIN_SEED_LANES + 24
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference(self, base, keys):
        assert derive_seeds(base, keys) == [derive_seed(base, *k) for k in keys]

    @given(base=_BASE, keys=st.lists(_KEY, max_size=_MIN_SEED_LANES - 1))
    @settings(max_examples=30, deadline=None)
    def test_few_keys_take_the_scalar_loop(self, base, keys):
        assert derive_seeds(base, keys) == [derive_seed(base, *k) for k in keys]

    @given(
        base=_BASE,
        shared=_COMPONENT,
        heads=st.lists(
            _COMPONENT, min_size=_MIN_SEED_LANES, max_size=_MIN_SEED_LANES + 8
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_shared_component_objects(self, base, shared, heads):
        # The noise keys' shape: one object shared by every key.
        keys = [(head, shared) for head in heads] + [(shared,), ()]
        assert derive_seeds(base, keys) == [derive_seed(base, *k) for k in keys]

    def test_empty_inputs(self):
        assert derive_seeds(7, []) == []
        assert derive_seeds(7, [(), ("",)]) == [derive_seed(7), derive_seed(7, "")]

    @pytest.mark.parametrize("base", [-1, 2**64])
    def test_out_of_range_base_raises_like_scalar(self, base):
        with pytest.raises(Exception) as scalar:
            derive_seed(base, "x")
        for count in (0, 1, _MIN_SEED_LANES):
            with pytest.raises(Exception) as lanes:
                derive_seeds(base, [("x",)] * count)
            assert lanes.type is scalar.type
