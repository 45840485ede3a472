import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import invert_images_by_rescan, long_conjugate
from outerspace import words
from outerspace.marked_metric import random_automorphism
from outerspace.words import (
    NotBasisError,
    common_conjugator,
    compose,
    concat,
    cyclic_reduce,
    format_word,
    identity_images,
    invert_images,
    invert_word,
    is_conjugate_identity,
    letter_table,
    parse_word,
    reduce_word,
)


def oracle_reduce(letters):
    # quadratic rescan oracle, independent of the stack implementation
    w = list(letters)
    done = False
    while not done:
        done = True
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i : i + 2]
                done = False
                break
    return tuple(w)


words_st = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=14)


@given(words_st)
def test_reduce_matches_rescan_oracle(w):
    assert reduce_word(w) == oracle_reduce(w)


@given(words_st)
def test_reduce_idempotent_and_involution(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    assert reduce_word(invert_word(r)) == invert_word(r)
    assert concat(r, invert_word(r)) == ()


def test_reduce_examples():
    assert reduce_word([1, 2, -2, -1, 1]) == (1,)
    assert reduce_word([]) == ()
    assert cyclic_reduce([1, 2, -1]) == (2,)
    assert cyclic_reduce([1, -1]) == ()
    assert cyclic_reduce([1, 2]) == (1, 2)


def test_parse_format_roundtrip():
    assert parse_word("abA") == (1, 2, -1)
    assert parse_word("a b  A") == (1, 2, -1)
    assert format_word((1, 2, -1)) == "abA"
    assert parse_word("aA") == ()
    with pytest.raises(ValueError):
        parse_word("a1b")


def test_names_past_z():
    # Generators 1..26 are a..z; beyond them e27, e28, ..., and any such
    # name puts dots between all the names of the word.
    assert format_word((1, 26, -26)) == "azZ"
    assert format_word((1, 27, -28)) == "a.e27.E28"
    assert format_word((-27,)) == "E27"
    assert parse_word("a.e27.E28") == parse_word("ae27E28") == (1, 27, -28)
    assert parse_word("E27 . e27") == ()
    for bad in ("e26", "e5", "E1", "e027", "a1b", "1", "-"):
        with pytest.raises(ValueError, match="bad letter"):
            parse_word(bad)


@given(st.lists(st.integers(1, 60).flatmap(lambda k: st.sampled_from((k, -k))), max_size=12))
def test_format_parse_round_trip_at_any_rank(w):
    text = format_word(w)
    assert parse_word(text) == reduce_word(w)
    if all(abs(x) <= 26 for x in w):
        assert "." not in text and len(text) == len(w)


def test_substitute_and_compose():
    fig2 = ((1, 2), (2, 1, 2))  # a -> ab, b -> bab
    assert compose(fig2, ((1, 2),))[0] == (1, 2, 2, 1, 2)
    assert compose(fig2, ((-1,),))[0] == (-2, -1)
    ident = identity_images(2)
    assert compose(fig2, ident) == fig2
    assert compose(ident, fig2) == fig2
    twice = compose(fig2, fig2)
    assert twice[0] == compose(fig2, ((1, 2),))[0]


@given(st.lists(words_st, min_size=3, max_size=3), st.lists(words_st, max_size=4))
def test_substitute_and_compose_match_rescan_oracle(images, inner):
    # Images need not be reduced; the result is always the reduced word.
    def oracle(w):
        letters = []
        for x in w:
            letters.extend(images[x - 1] if x > 0 else invert_word(images[-x - 1]))
        return oracle_reduce(letters)

    for w in inner:
        assert compose(images, (w,))[0] == oracle(w)
    assert compose(images, inner) == tuple(oracle(w) for w in inner)


def test_letter_table_lists_both_signs():
    table = letter_table({1: [1, 2], 3: (), 4: (-2, 4)})
    assert table == {1: (1, 2), -1: (-2, -1), 3: (), -3: (), 4: (-2, 4), -4: (-4, 2)}
    assert all(type(w) is tuple for w in table.values())  # list input too
    assert letter_table({}) == {}


@given(st.dictionaries(st.integers(min_value=1, max_value=5), words_st, max_size=5))
def test_letter_table_inverts_each_image(images):
    table = letter_table(images)
    assert set(table) == {d for k in images for d in (k, -k)}
    for k, w in images.items():
        assert table[k] == tuple(w)
        assert table[-k] == invert_word(table[k])
        assert concat(table[k], table[-k]) == ()


def test_common_conjugator():
    g = (2, -1)
    vs = [concat(g, (k,), invert_word(g)) for k in (1, 2, 3)]
    assert common_conjugator(vs) == g
    assert is_conjugate_identity(vs)
    assert common_conjugator([(1,), (2,)]) == ()
    # different conjugators per letter must fail
    assert common_conjugator([(2, 1, -2), (1, 2, -1)]) is None
    # power-of-x ambiguity in the first word
    g = (1, 1)
    vs = [concat(g, (k,), invert_word(g)) for k in (1, 2)]
    assert common_conjugator(vs) == (1, 1)


ELEMENTARY = []
for _i in range(3):
    for _j in range(3):
        if _i != _j:
            ELEMENTARY.append(("right", _i, _j))
            ELEMENTARY.append(("left", _i, _j))
    ELEMENTARY.append(("flip", _i, _i))


def _elementary(rank, kind, i, j):
    """Return (images, inverse images) of an elementary automorphism."""
    fwd = list(identity_images(rank))
    bwd = list(identity_images(rank))
    if kind == "flip":
        fwd[i] = (-(i + 1),)
        bwd[i] = (-(i + 1),)
    elif kind == "right":
        fwd[i] = (i + 1, j + 1)
        bwd[i] = (i + 1, -(j + 1))
    else:
        fwd[i] = (j + 1, i + 1)
        bwd[i] = (-(j + 1), i + 1)
    return tuple(fwd), tuple(bwd)


def random_basis_images(rank, steps, rng):
    images = identity_images(rank)
    inverse = identity_images(rank)
    for _ in range(steps):
        kind, i, j = rng.choice(ELEMENTARY)
        i %= rank
        j %= rank
        if kind != "flip" and i == j:
            continue
        fwd, bwd = _elementary(rank, kind, i, j)
        images = compose(images, fwd)      # precompose
        inverse = compose(bwd, inverse)
    return images, inverse


@pytest.mark.parametrize("rank,steps,seed", [(2, 5, 0), (2, 9, 1), (3, 7, 2), (3, 12, 3), (4, 8, 4)])
def test_invert_images_on_random_compositions(rank, steps, seed):
    rng = random.Random(seed)
    for _ in range(20):
        images, known_inverse = random_basis_images(rank, steps, rng)
        psi = invert_images(images)
        for k in range(1, rank + 1):
            assert compose(psi, (images[k - 1],))[0] == (k,)
            assert compose(images, (psi[k - 1],))[0] == (k,)
        assert compose(psi, images) == identity_images(rank)
        assert is_conjugate_identity(
            compose(known_inverse, tuple(invert_images(psi)))
        )


def test_invert_images_known_pairs():
    # a -> ab, b -> bab has inverse a -> abA...: verified by composition only
    psi = invert_images(((1, 2), (2, 1, 2)))
    assert compose(psi, ((1, 2),))[0] == (1,)
    assert compose(psi, ((2, 1, 2),))[0] == (2,)
    # order-6 letter permutation: inverse is its 5th power
    perm = ((-2,), (-3,), (-1,))
    psi = invert_images(perm)
    cur = perm
    for _ in range(4):
        cur = compose(perm, cur)
    assert psi == cur


def test_invert_images_matches_the_rescan_reference_on_bases():
    # 200 seeded draws at ranks 2-8 and 0-80 Nielsen moves, up to 1,034
    # letters, and two order-3 maps of 1,069 and 4,009 letters: the worklist
    # fold gives the reference's inverse, which is the tracked one.
    phis = [random_automorphism(2 + i % 7, i % 81, random.Random(i)) for i in range(200)]
    for phi in phis + [long_conjugate(30), long_conjugate(40)]:
        psi = invert_images(phi.images)
        assert psi == invert_images_by_rescan(phi.images) == phi.inverse_images


def test_invert_images_refuses_what_the_rescan_reference_refuses():
    # 3,000 tuples of words of 0-4 random letters at ranks 2-4, 347 of
    # them bases.
    def inverse(f, images):
        try:
            return f(images)
        except NotBasisError:
            return None

    rng = random.Random(5)
    bases = 0
    for _ in range(3000):
        rank = rng.randrange(2, 5)
        letters = [x for k in range(1, rank + 1) for x in (k, -k)]
        images = tuple(tuple(rng.choices(letters, k=rng.randrange(5))) for _ in range(rank))
        psi = inverse(invert_images, images)
        assert psi == inverse(invert_images_by_rescan, images)
        bases += psi is not None
    assert bases == 347


def test_invert_images_folds_a_long_power_without_deep_recursion():
    # 2,000 folds merge one vertex at a time into the basepoint's class.
    assert invert_images(((1,) + (2,) * 2000, (2,))) == ((1,) + (-2,) * 2000, (2,))


def test_invert_images_composes_once(monkeypatch):
    # The one composition is the final check that psi inverts the images.
    calls = []
    monkeypatch.setattr(words, "compose", lambda outer, inner: calls.append(1) or compose(outer, inner))
    assert invert_images(((1, 2), (2, 1, 2))) == ((1, 1, -2), (2, -1))
    assert len(calls) == 1


def test_invert_images_rejects_non_bases():
    with pytest.raises(NotBasisError):
        invert_images(((1, 2), (-1, 2)))  # abelianized determinant 2
    with pytest.raises(NotBasisError):
        invert_images(((1,), (1,)))
    with pytest.raises(NotBasisError):
        invert_images(((1, 2, -1), (2,)))  # proper subgroup
    with pytest.raises(NotBasisError):
        invert_images(((1,), ()))


@settings(max_examples=40)
@given(st.integers(0, 2**30), st.integers(2, 3), st.integers(1, 10))
def test_invert_images_property(seed, rank, steps):
    rng = random.Random(seed)
    images, _ = random_basis_images(rank, steps, rng)
    psi = invert_images(images)
    for k in range(1, rank + 1):
        assert compose(psi, (images[k - 1],))[0] == (k,)
