"""Bistellar edge insertion and the full edge-filling schedule.

The only move used here replaces the ball made of the two facets {a} + B
(a in A) by the join of the edge A with the boundary of B, where |A| = 2 and
|B| = n - 1.  It keeps the vertex set and homeomorphism type and adds exactly
the edge A.  Replaying the scheduled sequence of such moves on a freshly
identified stacked sphere realises every edge count between n*f0 and the
complete graph.

Execution is self-verifying instead of trusting the inductive argument.
Each move is checked once, locally, by ``_flip``: both cones must be
facets and A a non-edge (``_cones``, shared with ``is_flippable``), and the
move must keep the vertex set and add exactly the edge A.  So the edge set
is carried forward as edges + {A}, never enumerated again, and installed
on each validated result.  ``fill_to`` and ``iter_fill`` share one replay
loop that edits a single facet set and edge set across the whole prefix.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .complexes import Complex
from .errors import DimensionTooLow, NotFlippable, ScheduleInvalid, TargetOutOfRange
from .handles import BundleType


@dataclass(frozen=True)
class MoveSpec:
    """A bistellar move given by the edge-to-be A (|A| = 2) and B (|B| = n-1)."""

    a: tuple[int, int]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.a)) != 2:
            raise ValueError("A must contain two distinct vertices")
        if set(self.a) & set(self.b):
            raise ValueError("A and B must be disjoint")
        object.__setattr__(self, "a", tuple(sorted(self.a)))
        object.__setattr__(self, "b", tuple(sorted(set(self.b))))

    def to_text(self) -> str:
        return f"A: {' '.join(map(str, self.a))} | B: {' '.join(map(str, self.b))}"


@dataclass(frozen=True)
class FillSchedule:
    """Ordered moves adding one edge each; prefix t yields f1 = n*f0 + t."""

    moves: tuple[MoveSpec, ...]

    def __len__(self):
        return len(self.moves)

    def to_text(self) -> str:
        return "\n".join(mv.to_text() for mv in self.moves) + ("\n" if self.moves else "")


def _cones(facets, edges, mv: MoveSpec) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The two cone facets {a} + B of ``mv`` if both are in ``facets`` and A
    is not in ``edges``; None otherwise."""
    a1, a2 = mv.a
    cones = (tuple(sorted((a1,) + mv.b)), tuple(sorted((a2,) + mv.b)))
    if mv.a in edges or cones[0] not in facets or cones[1] not in facets:
        return None
    return cones


def is_flippable(c: Complex, mv: MoveSpec) -> bool:
    """True iff the induced subcomplex on A + B is exactly the suspension of B.

    Equivalently: both facets {a} + B exist, and A is a non-edge (every
    subset of A + B missing one A-vertex then lies in one of the two cone
    facets, and no face contains both A-vertices); cones that are facets
    give |B| = n - 1 and A + B within the vertices.  Moves do not call it.
    """
    return _cones(set(c.facets), c.faces(1), mv) is not None


def _skeleton(facets) -> set[tuple[int, ...]]:
    """The vertices and edges of ``facets``, as 1- and 2-tuples."""
    return {s for F in facets for k in (1, 2) for s in combinations(F, k)}


def _flip(facets: set, edges: set, mv: MoveSpec) -> None:
    """Apply ``mv`` in place to a facet set and its edge set.

    Raises NotFlippable, leaving both sets as they were, unless the move
    keeps the vertex set and adds exactly the edge A.  That is decided
    locally: ``_cones`` must find both cone facets and A a non-edge, and then
    every vertex and edge of the cones must lie in a join facet
    A + (B - {b}) or in a facet that stays.  The join covers all of them
    once |B| >= 3.  At n = 3 the flip drops the edge B, and at n = 2 the
    vertex b and its two edges, unless another facet holds them.
    """
    cones = _cones(facets, edges, mv)
    if cones is None:
        raise NotFlippable(f"{mv.to_text()} did not add exactly one edge")
    joins = {tuple(sorted(mv.a + mv.b[:i] + mv.b[i + 1 :])) for i in range(len(mv.b))}
    lost = _skeleton(cones) - _skeleton(joins)
    if lost:
        lost -= _skeleton(F for F in facets if F not in cones)
    if any(len(s) == 1 for s in lost):
        raise NotFlippable(f"{mv.to_text()} changed the vertex set")
    if lost:
        raise NotFlippable(f"{mv.to_text()} did not add exactly one edge")
    facets.difference_update(cones)
    facets |= joins
    edges.add(mv.a)


def apply_move(c: Complex, mv: MoveSpec) -> Complex:
    """Replace the two cone facets {a} + B by the n-1 facets A + (B - {b}).

    The result is a validated ``Complex``; its edge index is the input's
    edges plus A, carried over rather than enumerated again.

    ``_flip`` is the one check.  It refuses what ``is_flippable`` refuses,
    through the same ``_cones``, and it raises before a vertex is lost; the
    join facets add none.
    """
    facets, edges = set(c.facets), set(c.faces(1))
    _flip(facets, edges, mv)
    return Complex._with_edges(facets, edges)


def _replay(c: Complex, moves) -> Iterator[tuple[set, set]]:
    """Flip ``moves`` in turn on one copy of the facets and edges of ``c``,
    yielding both sets, edited in place, after each move.  A move that
    ``_flip`` refuses raises ScheduleInvalid with its index."""
    facets, edges = set(c.facets), set(c.faces(1))
    for idx, mv in enumerate(moves):
        try:
            _flip(facets, edges, mv)
        except NotFlippable as exc:
            raise ScheduleInvalid(f"move {idx} not flippable: {mv.to_text()}") from exc
        yield facets, edges


def _norm(x: int, f0: int) -> int:
    return (x - 1) % f0 + 1


def build_fill_schedule(c: Complex) -> FillSchedule:
    """Edge-filling schedule for an identified stacked sphere on f0 vertices.

    Non-edges {i, j} (cyclic distance > n) are grouped by increasing gap
    j - i = n + g; within a group i runs upward from 1.  The move for {i, j}
    uses B = {i+1, i+2} plus the n-3 vertices preceding j.  Moves whose pair
    is already an edge of the input are skipped, which handles the swapped
    identification; if {n-1, f0-1} is a non-edge (again the swapped case) an
    exceptional final move with B = {f0, 1, 3, ..., n-2, n} is appended.
    The facet size n and the vertex count f0 are read from ``c``, whose
    labels must be 1..f0.
    """
    n, f0 = c.n, c.num_vertices
    if n < 4:
        # at n = 3 this move type can delete a vertex, so surfaces are out
        raise DimensionTooLow("edge filling needs n >= 4")
    if f0 <= n or c.vertices != frozenset(range(1, f0 + 1)):
        raise ScheduleInvalid(
            f"edge filling needs f0 > n and vertex labels 1..f0 (n = {n}, f0 = {f0}, "
            f"labels {min(c.vertices)}..{max(c.vertices)})"
        )
    edges = c.faces(1)
    moves = []
    for g in range(1, f0 - 2 * n):
        for i in range(1, f0 - n - g + 1):
            j = i + n + g
            a = tuple(sorted((_norm(i, f0), _norm(j, f0))))
            if a in edges:
                continue
            b = [_norm(i + 1, f0), _norm(i + 2, f0)]
            b += [_norm(j - n + 3 + t, f0) for t in range(n - 3)]
            moves.append(MoveSpec(a, tuple(b)))
    leftover = tuple(sorted((n - 1, f0 - 1)))
    if leftover not in edges:
        b = [f0, 1] + list(range(3, n - 1)) + [n]
        moves.append(MoveSpec(leftover, tuple(b)))
    expected = comb(f0, 2) - len(edges)
    if len(moves) != expected:
        raise ScheduleInvalid(
            f"schedule has {len(moves)} moves but {expected} edges are missing"
        )
    return FillSchedule(tuple(moves))


def fill_to(c: Complex, schedule: FillSchedule, target_f1: int) -> Complex:
    """Replay the schedule prefix that brings the edge count to ``target_f1``.

    The prefix edits one facet set and one edge set, and one ``Complex`` is
    validated at the end, with the edge set ``_flip`` proved installed;
    ``c`` itself is returned when no move is needed.
    """
    f0 = c.num_vertices
    f1 = len(c.faces(1))
    if not f1 <= target_f1 <= comb(f0, 2):
        raise TargetOutOfRange(
            f"target f1 = {target_f1} outside [{f1}, {comb(f0, 2)}]"
        )
    steps = target_f1 - f1
    if steps > len(schedule.moves):
        raise TargetOutOfRange(
            f"schedule provides {len(schedule.moves)} moves, {steps} needed"
        )
    if steps == 0:
        return c
    for facets, edges in _replay(c, schedule.moves[:steps]):
        pass
    return Complex._with_edges(facets, edges)


def iter_fill(c: Complex, schedule: FillSchedule) -> Iterator[Complex]:
    """Yield ``c`` and then every prefix of the schedule's replay: prefix t
    is a validated ``Complex`` with f1 = f1(c) + t, equal to the one
    ``apply_move`` returns, made from the one replay loop ``fill_to`` runs."""
    yield c
    for facets, edges in _replay(c, schedule.moves):
        yield Complex._with_edges(facets, edges)


def feasible_region(k: int, f0: int, bundle: BundleType) -> tuple[int, int] | None:
    """Edge-count interval [(k+2) f0, C(f0, 2)] for S^k-bundles over S^1.

    The vertex minimum is 2k+5 when (k odd, orientable) or (k even,
    nonorientable), and 2k+6 otherwise; below it the answer is None.
    """
    if k < 2:
        raise DimensionTooLow("k must be at least 2")
    low = 2 * k + 5 if (k % 2 == 1) == bundle.orientable else 2 * k + 6
    if f0 < low:
        return None
    return ((k + 2) * f0, comb(f0, 2))
