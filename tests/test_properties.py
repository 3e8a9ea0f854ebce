"""Randomized invariants over the construction space (hypothesis)."""

import json

from hypothesis import given, settings, strategies as st

from test_structure_oracle import relabel
from twovalued.cli import group_from_json, group_to_json
from twovalued.classify import ClassLabel, classify, merge_chains, realize
from twovalued.constructions import principal
from twovalued.core import order, power, verify_axioms


def ascending_chain(max_len=3, max_product=40):
    """Divisibility chains d1 | d2 | ... with bounded product."""

    @st.composite
    def chain(draw):
        length = draw(st.integers(0, max_len))
        parts = []
        cur = 1
        for _ in range(length):
            mult = draw(st.integers(1, 6))
            d = (parts[-1] if parts else 1) * mult
            if d < 2:
                d = 2
            if cur * d > max_product:
                break
            # keep divisibility: d is a multiple of the previous entry
            if parts and d % parts[-1]:
                continue
            parts.append(d)
            cur *= d
        return tuple(parts)

    return chain()


@given(ascending_chain())
@settings(max_examples=40, deadline=None)
def test_principal_chains_verify_and_count(chain):
    X = principal(*chain)
    prod = 1
    r = 0
    for d in chain:
        prod *= d
        r += d % 2 == 0
    assert len(X.names) == (prod + 2**r) // 2
    rep = verify_axioms(X)
    assert rep.is_two_valued_group and rep.is_commutative and rep.is_involutive


@given(ascending_chain())
@settings(max_examples=30, deadline=None)
def test_involution_exchange_property(chain):
    # z in x*y exactly when x in y*z, for every triple
    X = principal(*chain)
    n = len(X.names)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert (z in X.table[x][y]) == (x in X.table[y][z])


@given(ascending_chain(max_len=2, max_product=26))
@settings(max_examples=30, deadline=None)
def test_classify_round_trip_on_random_chains(chain):
    label = ClassLabel.principal_label(chain)
    assert classify(realize(label)) == label


@given(ascending_chain(), ascending_chain())
@settings(max_examples=40, deadline=None)
def test_merge_chains_is_commutative_and_multiplicative(c1, c2):
    m1 = merge_chains(c1, c2)
    assert m1 == merge_chains(c2, c1)
    p = 1
    for d in c1 + c2:
        p *= d
    q = 1
    for d in m1:
        q *= d
    assert p == q
    # result is itself a divisibility chain
    for a, b in zip(m1, m1[1:]):
        assert b % a == 0


@given(ascending_chain(max_len=2, max_product=20))
@settings(max_examples=25, deadline=None)
def test_serialization_round_trip_random(chain):
    X = principal(*chain)
    text = group_to_json(X)
    Y = group_from_json(text)
    assert Y.names == X.names and Y.table == X.table
    assert group_to_json(Y) == text
    json.loads(text)  # well-formed document


@given(ascending_chain(max_product=400), st.integers(0, 2**32),
       st.lists(st.integers(-1000, 1000), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_orders_and_powers_survive_relabelling(chain, seed, ks):
    # perm maps each element of X to its index in the relabelled copy Y
    X = principal(*chain)
    Y, perm = relabel(X, seed)
    for x in range(len(X)):
        assert order(Y, perm[x]) == order(X, x)
        assert [power(Y, perm[x], k) for k in ks] == [perm[power(X, x, k)] for k in ks]
