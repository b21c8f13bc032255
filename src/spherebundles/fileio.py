"""Facet-list file format and JSON analysis reports.

The format is line oriented: optional comment lines starting with ``#``,
then one facet per line as space-separated positive integers.  The writer
emits sorted facets of sorted vertices, one per line with LF endings, so
``parse(write(c)) == c`` for every canonical complex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from .complexes import (
    Complex,
    euler_characteristic,
    f_vector,
    g_vector,
    h_from_f,
    klee_residual,
)
from .errors import EmptyInput, MixedCardinality, ParseError
from . import verify

REPORT_SCHEMA = "spherebundles/analysis/1"


def parse(text: str) -> Complex:
    """Parse a facet-list document; errors carry 1-based line numbers."""
    facets = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        labels = []
        for tok in line.split():
            if not (tok.isascii() and tok.isdigit()):
                raise ParseError(f"line {lineno}: {tok!r} is not a positive integer")
            v = int(tok)
            if v < 1:
                raise ParseError(f"line {lineno}: label {v} is not positive")
            labels.append(v)
        if len(set(labels)) != len(labels):
            raise ParseError(f"line {lineno}: repeated vertex label")
        if width is None:
            width = len(labels)
        elif len(labels) != width:
            raise MixedCardinality(
                f"line {lineno}: facet has {len(labels)} vertices, expected {width}"
            )
        facets.append(tuple(sorted(labels)))
    if not facets:
        raise EmptyInput("document contains no facets")
    return Complex(facets)


def write(c: Complex) -> str:
    """Canonical byte-exact serialisation: lexicographic facets, LF endings."""
    return "".join(" ".join(map(str, f)) + "\n" for f in c.facets)


@dataclass
class AnalysisReport:
    """All invariants of one complex; every field re-derivable from the input."""

    n: int
    num_vertices: int
    num_facets: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    g: tuple[int, ...]
    euler_characteristic: int
    klee_residual: tuple[int, ...]
    klee_ok: bool
    betti: tuple[int, ...]
    orientable: bool | None
    pseudomanifold: bool
    pseudomanifold_detail: str
    links_ok: bool
    g2: int
    g2_bound: int

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "n": self.n,
            "num_vertices": self.num_vertices,
            "num_facets": self.num_facets,
            "f_vector": list(self.f),
            "h_vector": list(self.h),
            "g_vector": list(self.g),
            "euler_characteristic": self.euler_characteristic,
            "klee_residual": list(self.klee_residual),
            "klee_ok": self.klee_ok,
            "betti": list(self.betti),
            "orientable": self.orientable,
            "pseudomanifold": self.pseudomanifold,
            "pseudomanifold_detail": self.pseudomanifold_detail,
            "links_ok": self.links_ok,
            "g2": self.g2,
            "g2_bound": self.g2_bound,
            "warnings": [],  # kept so that analysis/1 keeps its fields
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"n: {self.n}",
            f"vertices: {self.num_vertices}",
            f"facets: {self.num_facets}",
            f"f-vector: {tuple(self.f)}",
            f"h-vector: {tuple(self.h)}",
            f"g-vector: {tuple(self.g)}",
            f"euler characteristic: {self.euler_characteristic}",
            f"klee residual: {tuple(self.klee_residual)} ({'ok' if self.klee_ok else 'NONZERO'})",
            f"betti numbers: {tuple(self.betti)}",
            f"orientable: {self.orientable}",
            f"pseudomanifold: {self.pseudomanifold}"
            + (f" ({self.pseudomanifold_detail})" if self.pseudomanifold_detail else ""),
            f"vertex links look spherical: {self.links_ok}",
            f"g2: {self.g2} (bound {self.g2_bound})",
        ]
        return "\n".join(lines) + "\n"


def analyze(c: Complex) -> AnalysisReport:
    """Compute the full invariant report for a complex."""
    n = c.n
    f = f_vector(c)
    h = h_from_f(f, n)
    g = g_vector(h)
    residual = tuple(klee_residual(c))
    evidence = verify.manifold_evidence(c)
    pm = evidence.pseudomanifold
    g2 = f.f(1) - n * f.f(0) + comb(n + 1, 2)
    return AnalysisReport(
        n=n,
        num_vertices=c.num_vertices,
        num_facets=len(c.facets),
        f=tuple(f),
        h=tuple(h),
        g=tuple(g),
        euler_characteristic=euler_characteristic(c),
        klee_residual=residual,
        klee_ok=all(r == 0 for r in residual),
        betti=verify.betti_numbers(c),
        orientable=pm.orientable,
        pseudomanifold=pm.ok,
        pseudomanifold_detail=pm.detail,
        links_ok=all(lc.ok for lc in evidence.link_checks),
        g2=g2,
        g2_bound=comb(n + 1, 2),
    )
