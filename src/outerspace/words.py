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
# labelled by the y_i, each edge carrying a y-word, so that a closed path at
# the basepoint spells in the y-alphabet the element it spells in the ambient
# letters.  Fold edges carrying the same letter away from a shared endpoint,
# from a worklist: attaching an edge end whose letter a vertex already has
# pushes the pair, and nothing is rescanned.  Vertices merge by union-find,
# the larger class absorbing the smaller; a merged vertex records the y-word
# of the detour to it from the vertex it joined, so an edge's word is read
# through those detours when needed and never rewritten.  Each fold is a
# homotopy equivalence whenever the far endpoints differ; when they agree,
# equal words mean the two edges were already one, and different words mean
# the words were not a basis.  The fully folded graph must be the rose on the
# ambient generators, and its loops, read at the basepoint, are the exact
# inverse map; no hanging tree can remain, and no conjugator is left over.


def invert_images(images: Sequence[Word]) -> tuple:
    """Images of the inverse of the automorphism k -> images[k-1].

    The result psi satisfies compose(psi, images) == identity_images(n) exactly.
    Raises NotBasisError when the images do not form a basis.
    """
    n = len(images)
    imgs = [reduce_word(w) for w in images]
    if any(not w for w in imgs) or any(abs(x) > n for w in imgs for x in w):
        raise NotBasisError("images must be nonempty words in the ambient letters")

    edges: list = []  # (init, term, label > 0, y-word): init -> term spells +label
    adj: list = [{}]  # per class root: signed letter leaving it -> edge
    size: list = [1]  # per class root: its number of vertices
    up: dict = {}  # merged vertex -> (vertex it joined, y-word of the detour to it)
    todo: list = []  # (edge, edge, signed letter) leaving one class

    def attach(z, s, e):
        other = adj[z].setdefault(s, e)
        if other != e:
            todo.append((other, e, s))

    for i, w in enumerate(imgs, start=1):
        cur = 0
        for j, x in enumerate(w):
            nxt = 0 if j == len(w) - 1 else len(adj)
            if nxt:
                adj.append({})
                size.append(1)
            h: Word = (i,) if j == 0 else ()
            edges.append((cur, nxt, x, h) if x > 0 else (nxt, cur, -x, invert_word(h)))
            attach(cur, x, len(edges) - 1)
            attach(nxt, -x, len(edges) - 1)
            cur = nxt

    def climb(v):
        """The root of v's class and the y-word of the path from it to v."""
        ws = []
        while v in up:
            v, w = up[v]
            ws.append(w)
        return v, concat(*reversed(ws))

    def leave(e, s):
        """The far root of edge e left along letter s, and the y-word of
        the edge from the near root to it."""
        u, v, _, h = edges[e]
        if s < 0:
            u, v, h = v, u, invert_word(h)
        far, pv = climb(v)
        return far, concat(climb(u)[1], h, invert_word(pv))

    while todo:
        e1, e2, s = todo.pop()
        (f1, w1), (f2, w2) = leave(e1, s), leave(e2, s)
        if f1 == f2:
            if w1 != w2:
                raise NotBasisError("fold collapses a loop: images are not a basis")
            continue
        if adj[f2].get(-s) == e2:  # e2 is e1 from now on
            del adj[f2][-s]
        if size[f1] < size[f2]:
            f1, f2, w1, w2 = f2, f1, w2, w1
        # f1 absorbs f2; the detour f1 -> near root -> f2 leads to it
        up[f2] = (f1, concat(invert_word(w1), w2))
        size[f1] += size[f2]
        for t, e in adj[f2].items():
            attach(f1, t, e)
        adj[f2] = None

    root, p0 = climb(0)
    if size[root] != len(adj) or len(adj[root]) != 2 * n:
        raise NotBasisError("folded graph is not the standard rose")
    # the loops at the root, carried to the basepoint along its detour
    psi = tuple(concat(invert_word(p0), leave(adj[root][k], k)[1], p0) for k in range(1, n + 1))
    if compose(psi, imgs) != identity_images(n):
        raise NotBasisError("inverse verification failed")
    return psi
