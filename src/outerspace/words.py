"""Free-group words and basis maps.

A word in the free group F_n is a tuple of nonzero ints: letter k stands for
the k-th generator (1 = a, 2 = b, ...) and -k for its inverse.  Everything
downstream (markings, automorphisms, inverse markings) reduces to a handful
of exact operations on these tuples, kept here free of any graph structure.
An edge path is a word in the same sense, with signed edge ids as letters,
so cyclic reduction of loops and of their images uses the functions here;
graph_core.tighten reduces a path in the pass that checks it.  Every
substitution of words for letters (a composition, a marking, an inverse
marking, a map's edge images, a fold move) reads one signed-letter table
built by letter_table, which lists exactly the letters it substitutes.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import neg
from typing import Iterable, Mapping, Optional, Sequence

Word = tuple  # tuple of nonzero ints


class NotBasisError(ValueError):
    """The given words do not form a free basis of the ambient free group."""


def reduce_word(letters: Iterable[int]) -> Word:
    """Free reduction: cancel adjacent inverse pairs."""
    out: list = []
    for x in letters:
        if out and out[-1] == -x:  # never true for x == 0: no 0 is appended
            out.pop()
        elif x:
            out.append(x)
        else:
            raise ValueError("0 is not a letter")
    return tuple(out)


def invert_word(w: Sequence) -> Word:
    return tuple(map(neg, reversed(w)))


def concat(*ws: Sequence) -> Word:
    """Reduced product of words."""
    return reduce_word(chain.from_iterable(ws))


def cyclic_reduce(w: Sequence) -> Word:
    """Free reduction, then strip matching first/last letters."""
    return _strip_ends(reduce_word(w))


def _strip_ends(w: Word) -> Word:
    """Strip matching first/last letters of a reduced word."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return tuple(w[i:j])


def letter_counts(letters: Sequence[int], w: Iterable[int]) -> tuple:
    """Occurrences in w of each of the given generators, either sign."""
    tally = dict.fromkeys(letters, 0)
    for x in w:
        tally[abs(x)] += 1
    return tuple(tally[k] for k in letters)


def letter_table(images: Mapping[int, Sequence[int]]) -> dict:
    """The signed letter table of a substitution, for apply_table: images[k]
    for each key k, and its inverse for -k.  Every other letter is missing,
    so a word that uses one raises KeyError in apply_table."""
    table = {}
    for k, w in images.items():
        table[k] = tuple(w)
        table[-k] = invert_word(w)
    return table


def apply_table(table: dict, w: Sequence) -> Word:
    """Reduced product of the images table[x] of the letters x of w.

    The images must be reduced, so letters cancel only where an image meets
    the reduced word before it; w itself need not be reduced.
    """
    out: list = []
    for x in w:
        img = table[x]
        if not (out and img and out[-1] == -img[0]):
            out.extend(img)
            continue
        out.pop()
        i, n = 1, len(img)
        while i < n and out and out[-1] == -img[i]:
            out.pop()
            i += 1
        out.extend(img[i:])
    return tuple(out)


def cyclic_image(table: dict, w: Sequence) -> Word:
    """Cyclically reduced image of the closed word w under a table of
    reduced letter images, as apply_table."""
    return _strip_ends(apply_table(table, w))


def identity_images(rank: int) -> tuple:
    return tuple((i,) for i in range(1, rank + 1))


def compose(outer: Sequence[Word], inner: Sequence[Word]) -> tuple:
    """Images of the composite map w -> outer(inner(w))."""
    table = letter_table({k: reduce_word(w) for k, w in enumerate(outer, start=1)})
    return tuple(apply_table(table, w) for w in inner)


# ---------------------------------------------------------------------------
# text form: generators a..z, then e27, e28, ...; inverses in uppercase


def _name(x: int) -> str:
    k = abs(x)
    name = chr(ord("a") + k - 1) if k <= 26 else f"e{k}"
    return name if x > 0 else name.upper()


def _letter(name: str, text: str) -> int:
    """The signed letter of one name of format_word, else ValueError."""
    head, digits = name[0], name[1:]
    if not digits and head.isascii() and head.isalpha():
        k = ord(head.lower()) - ord("a") + 1
    elif head in "eE" and digits[0] != "0" and int(digits) > 26:
        k = int(digits)
    else:
        raise ValueError(f"bad letter {name!r} in word {text!r}")
    return k if head.islower() else -k


def parse_word(text: str) -> Word:
    """The reduced word of a text written as format_word writes it; spaces
    and dots between names are ignored."""
    names = re.findall(r"[A-Za-z][0-9]*|[^ .]", text.strip())
    return reduce_word(_letter(name, text) for name in names)


def format_word(w: Sequence) -> str:
    """Letters a..z for generators 1..26 and e27, e28, ... beyond, with
    inverses in uppercase; the names are joined with dots when any of them
    has more than one character."""
    names = [_name(x) for x in w]
    return ("." if any(len(n) > 1 for n in names) else "").join(names)


# ---------------------------------------------------------------------------
# conjugation bookkeeping


def common_conjugator(vs: Sequence[Word]) -> Optional[Word]:
    """Word g with vs[i] == g x_{i+1} g^-1 for all i, if one exists.

    The reduced form of g x g^-1 for a single letter x displays as
    c0 x c0^-1 with c0 not ending in x^{+-1}; the residual ambiguity
    g = c0 x^k is pinned down by the second word.
    """
    if not vs:
        return None
    v1 = reduce_word(vs[0])
    if len(v1) % 2 == 0:
        return None
    m = len(v1) // 2
    c0 = v1[:m]
    if v1 != c0 + (1,) + invert_word(c0):
        return None
    if len(vs) == 1:
        g = c0
    else:
        v2 = reduce_word(vs[1])
        body = concat(invert_word(c0), v2, c0)  # should be 1^k 2 1^-k
        k = 0
        while k < len(body) and body[k] == 1:
            k += 1
        if k == 0:
            while k < len(body) and body[k] == -1:
                k += 1
            k = -k
        g = concat(c0, (1,) * k if k >= 0 else (-1,) * (-k))
    gi = invert_word(g)
    for i, v in enumerate(vs):
        if reduce_word(v) != concat(g, (i + 1,), gi):
            return None
    return g


def is_conjugate_identity(images: Sequence[Word]) -> bool:
    return common_conjugator(images) is not None


# ---------------------------------------------------------------------------
# inverting a basis map by folding
#
# Given words y_1..y_n generating F_n, build a wedge of n subdivided loops
# labelled by the y_i, and fold edges carrying the same letter away from a
# shared endpoint.  Each fold is a homotopy equivalence whenever the far
# endpoints differ (otherwise the words were not a basis), so a word in the
# y-alphabet can be carried along for every surviving edge.  The fully
# folded graph must be the rose on the ambient generators; reading off the
# carried words and normalizing away one inner conjugation yields the exact
# inverse map.


def invert_images(images: Sequence[Word]) -> tuple:
    """Images of the inverse of the automorphism k -> images[k-1].

    The result psi satisfies compose(psi, images) == identity_images(n) exactly.
    Raises NotBasisError when the images do not form a basis.
    """
    n = len(images)
    imgs = [reduce_word(w) for w in images]
    if any(not w for w in imgs) or any(abs(x) > n for w in imgs for x in w):
        raise NotBasisError("images must be nonempty words in the ambient letters")

    # edge record: [init, term, label>0, h-word]; read init->term spells +label
    edges: dict = {}
    next_v = 1
    next_e = 0
    for i, w in enumerate(imgs, start=1):
        cur = 0
        for j, letter in enumerate(w):
            nxt = 0 if j == len(w) - 1 else next_v
            if j < len(w) - 1:
                next_v += 1
            h: Word = (i,) if j == 0 else ()
            if letter > 0:
                edges[next_e] = [cur, nxt, letter, h]
            else:
                edges[next_e] = [nxt, cur, -letter, invert_word(h)]
            next_e += 1
            cur = nxt

    def find_fold():
        germs: dict = {}
        for e in sorted(edges):
            u, v, lab, _ = edges[e]
            for key in ((u, lab), (v, -lab)):
                if key in germs:
                    return germs[key], e, key
                germs[key] = e
        return None

    while True:
        hit = find_fold()
        if hit is None:
            break
        e1, e2, (z, slab) = hit

        def read(e):
            u, v, lab, h = edges[e]
            if slab > 0:  # read from init
                return v, h
            return u, invert_word(h)

        far1, h1 = read(e1)
        far2, h2 = read(e2)
        if far1 == far2:
            raise NotBasisError("fold collapses a loop: images are not a basis")
        if far2 == 0 or (far1 != 0 and far2 < far1):
            far1, far2 = far2, far1
            h1, h2 = h2, h1
        # far1 survives; omega carries the detour far1 -> z -> far2
        omega = concat(invert_word(h1), h2)
        del edges[e2]
        for e in edges:
            u, v, lab, h = edges[e]
            if u == far2:
                h = concat(omega, h)
                u = far1
            if v == far2:
                h = concat(h, invert_word(omega))
                v = far1
            edges[e] = [u, v, lab, h]

    # prune hanging trees away from the basepoint
    changed = True
    while changed:
        changed = False
        degree: dict = {}
        for u, v, _, _ in edges.values():
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for e in sorted(edges):
            u, v, _, _ = edges[e]
            if (degree.get(u, 0) == 1 and u != 0) or (degree.get(v, 0) == 1 and v != 0):
                del edges[e]
                changed = True
                break

    loops = {}
    for u, v, lab, h in edges.values():
        if u != 0 or v != 0 or lab in loops:
            raise NotBasisError("folded graph is not the standard rose")
        loops[lab] = h
    if sorted(loops) != list(range(1, n + 1)):
        raise NotBasisError("folded graph is not the standard rose")

    psi = [loops[k] for k in range(1, n + 1)]
    g = common_conjugator(compose(psi, imgs))
    if g is None:
        raise NotBasisError("inverse candidate fails the conjugacy check")
    gi = invert_word(g)
    psi = tuple(concat(gi, p, g) for p in psi)
    if compose(psi, imgs) != identity_images(n):
        raise NotBasisError("inverse verification failed")
    return psi
