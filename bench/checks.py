"""Output checks made apart from the package.

Nothing here imports ``spherebundles``: facet files are read by a reader of
our own, faces are counted by our own enumeration, orientability comes from
our own sign propagation and the rank spot-check from sympy.  The expected
values are properties the paper's construction must have, never saved
output of the program.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from itertools import combinations
from math import comb

Facets = list[tuple[int, ...]]

_LABEL = re.compile(r"[1-9][0-9]*\Z")


def read_facets(path) -> Facets:
    """Facets of a facet-list file: '#' comments, then positive integer labels."""
    facets = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split(" ")
            if not all(_LABEL.match(t) for t in toks):
                raise ValueError(f"{path}:{lineno}: not a list of positive labels: {line!r}")
            facets.append(tuple(sorted(int(t) for t in toks)))
    return facets


def face_sets(facets: Facets) -> list[set[tuple[int, ...]]]:
    """faces[k] is the set of faces with k+1 vertices, for k = 0..n-1."""
    n = len(facets[0])
    out = [set() for _ in range(n)]
    for F in facets:
        for k in range(1, n + 1):
            out[k - 1].update(combinations(F, k))
    return out


def f_vector(facets: Facets) -> list[int]:
    """(1, f0, ..., f_{n-1}), as the analysis JSON writes it."""
    return [1] + [len(s) for s in face_sets(facets)]


def vertex_set(facets: Facets) -> frozenset[int]:
    return frozenset(v for F in facets for v in F)


class Tally:
    """Vertex, edge and ridge counts of a facet set, kept up to date by facet
    differences, so that every prefix of a long move sequence can be checked
    without enumerating the whole complex again."""

    def __init__(self):
        self.facets: set[tuple[int, ...]] = set()
        self.vertices: Counter = Counter()
        self.edges: Counter = Counter()
        self.ridges: Counter = Counter()
        self.bad_ridges: set[tuple[int, ...]] = set()  # in other than two facets

    def update(self, facets) -> None:
        new = {tuple(sorted(F)) for F in facets}
        for F in self.facets - new:
            self._count(F, -1)
        for F in new - self.facets:
            self._count(F, 1)
        self.facets = new

    def _count(self, F: tuple[int, ...], step: int) -> None:
        for faces, parts in ((self.vertices, F), (self.edges, combinations(F, 2))):
            for x in parts:
                faces[x] += step
                if not faces[x]:
                    del faces[x]
        for i in range(len(F)):
            r = F[:i] + F[i + 1:]
            self.ridges[r] += step
            k = self.ridges[r]
            if not k:
                del self.ridges[r]
            if k in (0, 2):
                self.bad_ridges.discard(r)
            else:
                self.bad_ridges.add(r)


def orientable(facets: Facets) -> bool:
    """Sign propagation over shared ridges of a closed pseudomanifold.

    Facet F (sorted) induces sign (-1)^i on the ridge that drops its i-th
    vertex.  Facets F, G sharing a ridge are coherent when their induced
    signs cancel, which fixes s_G = -s_F (-1)^(i+j).
    """
    by_ridge: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for idx, F in enumerate(facets):
        for i in range(len(F)):
            by_ridge.setdefault(F[:i] + F[i + 1:], []).append((idx, i))
    nbrs: dict[int, list[tuple[int, int]]] = {idx: [] for idx in range(len(facets))}
    for incident in by_ridge.values():
        if len(incident) != 2:
            raise ValueError("not a closed pseudomanifold")
        (a, i), (b, j) = incident
        rel = -1 if (i + j) % 2 == 0 else 1
        nbrs[a].append((b, rel))
        nbrs[b].append((a, rel))
    sign = {0: 1}
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for b, rel in nbrs[a]:
            want = sign[a] * rel
            if b not in sign:
                sign[b] = want
                queue.append(b)
            elif sign[b] != want:
                return False
    return True


def bundle_betti(n: int, orientable_bundle: bool) -> list[int]:
    """Rational Betti numbers of an S^(n-2)-bundle over S^1 (dimension n-1).

    Orientable: S^(n-2) x S^1, so (1, 1, 0, ..., 0, 1, 1).  Nonorientable:
    the twisted bundle, (1, 1, 0, ..., 0).
    """
    b = [0] * n
    b[0] = b[1] = 1
    if orientable_bundle:
        b[n - 2] += 1
        b[n - 1] += 1
    return b


def g2(n: int, f0: int, f1: int) -> int:
    return f1 - n * f0 + comb(n + 1, 2)


def sympy_betti(facets: Facets) -> list[int]:
    """Betti numbers from sympy ranks of boundary matrices over the rationals."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    faces = [sorted(s) for s in face_sets(facets)]
    n = len(faces)
    ranks = [0] * (n + 1)
    for d in range(1, n):
        index = {f: i for i, f in enumerate(faces[d - 1])}
        rows = {}
        for j, F in enumerate(faces[d]):
            for i in range(len(F)):
                rows.setdefault(index[F[:i] + F[i + 1:]], {})[j] = QQ((-1) ** i)
        mat = DomainMatrix(rows, (len(faces[d - 1]), len(faces[d])), QQ)
        ranks[d] = mat.to_sparse().rank()
    return [len(faces[d]) - ranks[d] - ranks[d + 1] for d in range(n)]


def is_witness(mapping: dict[int, int], a: Facets, b: Facets) -> bool:
    """True iff ``mapping`` is a vertex bijection carrying a's facets onto b's."""
    va, vb = vertex_set(a), vertex_set(b)
    if set(mapping) != va or set(mapping.values()) != vb or len(va) != len(vb):
        return False
    image = {tuple(sorted(mapping[v] for v in F)) for F in a}
    return image == set(b)
