"""Combinatorial root systems for reductive groups.

A reductive group is presented as (semisimple simply connected) x (central
torus): an ordered list of simple Dynkin components plus a torus rank.  Node
numbering follows Bourbaki throughout; the Cartan convention is
cartan[i][j] = <alpha_j, alpha_i^vee>, so for C_l the "first simple root" is
node 1, the short end away from the double bond.

Positive roots are generated by reflection closure from the simple roots and
kept in simple-root coordinates; weights elsewhere in the package live in
fundamental-weight coordinates, and the two sides only ever meet through
`pairing`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

Root = tuple[int, tuple[int, ...]]  # (component index, simple-root coordinates)

_CHAIN_MINIMUM_RANKS = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

# classical positive-root counts, used as a construction-time sanity check
_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _component_edges(letter: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Edges (i, j, c_ij, c_ji) with c_ij = <alpha_j, alpha_i^vee>, 0-based nodes."""
    chain = [(i, i + 1, -1, -1) for i in range(rank - 1)]
    if letter == "A":
        return chain
    if letter == "B":
        # alpha_rank is the short root: <alpha_{n-1}, alpha_n^vee> = -2
        chain[-1] = (rank - 2, rank - 1, -1, -2)
        return chain
    if letter == "C":
        # alpha_rank is the long root: <alpha_n, alpha_{n-1}^vee> = -2
        chain[-1] = (rank - 2, rank - 1, -2, -1)
        return chain
    if letter == "D":
        chain = [(i, i + 1, -1, -1) for i in range(rank - 3)]
        chain.append((rank - 3, rank - 2, -1, -1))
        chain.append((rank - 3, rank - 1, -1, -1))
        return chain
    if letter == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        return [(i, j, -1, -1) for i, j in edges]
    if letter == "F":
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        return [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    if letter == "G":
        # alpha_1 short, alpha_2 long: <alpha_2, alpha_1^vee> = -3
        return [(0, 1, -3, -1)]
    raise AssertionError(letter)


@lru_cache(maxsize=None)
def _cartan_matrix(letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of one Dynkin component, built once per (letter, rank); rows are tuples, since it is shared."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in _component_edges(letter, rank):
        c[i][j] = cij
        c[j][i] = cji
    return tuple(map(tuple, c))


def _positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """The positive roots, by reflection closure of the simple roots.

    A pairing reads a Cartan row's nonzero entries, and a reflection with pairing 0, which fixes the root, is skipped.
    """
    rank = len(cartan)
    nonzero = [[(j, c) for j, c in enumerate(row) if c] for row in cartan]
    simples = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = set(simples)
    while frontier:
        new = set()
        for gamma in frontier:
            for i, row in enumerate(nonzero):
                pair = sum(gamma[j] * c for j, c in row)
                if pair:
                    reflected = gamma[:i] + (gamma[i] - pair,) + gamma[i + 1 :]
                    if reflected not in roots:
                        new.add(reflected)
        roots |= new
        frontier = new
    positive = [r for r in roots if all(x >= 0 for x in r)]
    positive.sort(key=lambda r: (sum(r), r))
    return positive


def parse_dynkin(descriptor: str) -> tuple[tuple[str, int], ...]:
    """Parse a Dynkin descriptor like "A4" or "B3xG2" into typed components."""
    text = descriptor.strip()
    if not text:
        return ()
    components = []
    for part in text.split("x"):
        part = part.strip()
        if len(part) < 2 or part[0].upper() not in "ABCDEFG" or not part[1:].isdigit():
            raise ValueError(f"cannot parse Dynkin component {part!r}")
        letter, rank = part[0].upper(), int(part[1:])
        _check_component(letter, rank)
        components.append((letter, rank))
    return tuple(components)


def _check_component(letter: str, rank: int) -> None:
    """Raise ValueError unless (letter, rank) names a connected Dynkin diagram."""
    if not isinstance(rank, int):
        raise ValueError(f"{letter}{rank} is not a Dynkin type")
    if letter in _CHAIN_MINIMUM_RANKS:
        if rank < _CHAIN_MINIMUM_RANKS[letter]:
            hint = "use A1" if letter in "BC" else "use A1xA1"
            raise ValueError(f"{letter}{rank} is not a Dynkin type ({hint})")
    elif rank not in _EXCEPTIONAL_RANKS.get(letter, ()):
        raise ValueError(f"{letter}{rank} is not a Dynkin type")


@dataclass(frozen=True)
class RootDatum:
    """A reductive group presented combinatorially.

    `components` lists the simple factors as (letter, rank); `central_torus_rank`
    is the rank of the central torus.  Characters of the maximal torus are
    written in the basis (fundamental weights per component) + (standard basis
    of the torus character lattice), so they have length
    `simple_count + central_torus_rank`.
    """

    components: tuple[tuple[str, int], ...]
    central_torus_rank: int = 0

    def __post_init__(self) -> None:
        if self.central_torus_rank < 0:
            raise ValueError("torus rank must be nonnegative")
        for letter, rank in self.components:
            _check_component(letter, rank)

    @staticmethod
    def parse(descriptor: str, central_torus_rank: int = 0) -> "RootDatum":
        return RootDatum(parse_dynkin(descriptor), central_torus_rank)

    @property
    def simple_count(self) -> int:
        return sum(rank for _, rank in self.components)

    @property
    def character_rank(self) -> int:
        return self.simple_count + self.central_torus_rank

    def component_of(self, index: int) -> tuple[int, int]:
        """Map a global simple-root index to (component index, node index)."""
        offset = 0
        for ci, (_, rank) in enumerate(self.components):
            if index < offset + rank:
                return ci, index - offset
            offset += rank
        raise IndexError(f"simple root index {index} out of range")

    def global_index(self, component: int, node: int) -> int:
        return sum(rank for _, rank in self.components[:component]) + node

    def cartan(self, component: int) -> tuple[tuple[int, ...], ...]:
        letter, rank = self.components[component]
        return _cartan_matrix(letter, rank)

    def simple_roots(self) -> tuple[int, ...]:
        return tuple(range(self.simple_count))

    def label(self, index: int) -> str:
        ci, node = self.component_of(index)
        base = f"a{node + 1}"
        return base if len(self.components) == 1 else f"{ci + 1}.{base}"

    def index_of_label(self, label: str) -> int:
        for i in range(self.simple_count):
            if self.label(i) == label:
                return i
        raise ValueError(f"no simple root labelled {label!r}")

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.cartan_entry(i, j) != 0

    def cartan_entry(self, i: int, j: int) -> int:
        """<alpha_j, alpha_i^vee> for global simple-root indices."""
        ci, ni = self.component_of(i)
        cj, nj = self.component_of(j)
        if ci != cj:
            return 2 if i == j else 0
        return self.cartan(ci)[ni][nj]


@lru_cache(maxsize=None)
def _component_positive_roots(letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The positive roots of one Dynkin component, computed once per (letter, rank) and checked against the count."""
    roots = _positive_roots(_cartan_matrix(letter, rank))
    expected = _POSITIVE_COUNT[letter](rank)
    if len(roots) != expected:
        raise AssertionError(f"{letter}{rank}: got {len(roots)} positive roots, expected {expected}")
    return tuple(roots)


def positive_roots(datum: RootDatum) -> list[Root]:
    """All positive roots, tagged by component, in a deterministic order; a fresh list per call."""
    return [
        (ci, r) for ci, (letter, rank) in enumerate(datum.components) for r in _component_positive_roots(letter, rank)
    ]


def pairing(datum: RootDatum, gamma: Root, simple_index: int) -> int:
    """<gamma, alpha_i^vee> for a root gamma in simple-root coordinates."""
    ci, coords = gamma
    cj, node = datum.component_of(simple_index)
    if ci != cj:
        return 0
    cartan = datum.cartan(ci)
    return sum(coords[k] * cartan[node][k] for k in range(len(coords)))


def _root_supported_on(datum: RootDatum, gamma: Root, index_set: frozenset[int]) -> bool:
    ci, coords = gamma
    return all(
        coords[k] == 0 or datum.global_index(ci, k) in index_set for k in range(len(coords))
    )


def flag_dimension(datum: RootDatum, parabolic: Iterable[int]) -> int:
    """dim G/P_I = #(R+ \\ R_I+): positive roots not supported on I."""
    index_set = frozenset(parabolic)
    if not index_set <= set(datum.simple_roots()):
        raise ValueError("parabolic index set must consist of simple roots")
    return sum(1 for gamma in positive_roots(datum) if not _root_supported_on(datum, gamma, index_set))


def connected_components(datum: RootDatum, nodes: frozenset[int]) -> list[frozenset[int]]:
    """Connected components of the Dynkin subdiagram on `nodes`, each grown from its least node."""
    remaining = set(nodes)
    out = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        queue = [seed]
        while queue:
            cur = queue.pop()
            for other in list(remaining):
                if other not in comp and datum.adjacent(cur, other):
                    comp.add(other)
                    queue.append(other)
        remaining -= comp
        out.append(frozenset(comp))
    return out


def _is_chain_from(datum: RootDatum, nodes: frozenset[int], start: int) -> Optional[list[int]]:
    """Order nodes as a path starting at start, or None if not a path.

    The walk from start must find exactly one new neighbour at each step.  A
    Dynkin diagram is a forest, so a walk through every node has no chord:
    the nodes form a path.
    """
    order = [start]
    seen = {start}
    while len(order) < len(nodes):
        nxt = [n for n in nodes if n not in seen and datum.adjacent(order[-1], n)]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
        seen.add(nxt[0])
    return order


def colour_smoothness_check(
    datum: RootDatum, parabolic: Iterable[int], colours: Iterable[int]
) -> tuple[bool, str]:
    """Dynkin-diagram side of the smoothness criterion.

    Requires: (a) the chosen colours are pairwise non-adjacent and no two of
    them touch a common connected component of I; (b) each colour touches at
    most one connected component I_a of I; (c) when I_a exists, I_a + {a} is
    a chain of type A_l, or of type C_l with the colour at the end away from
    the double bond.  Returns (verdict, diagnostic naming the violated clause).

    What "isolated from each other in the Dynkin diagram" means exactly is an
    interpretation; clause (a) is calibrated against the SL5 example, which is
    treated as normative.
    """
    index_set = frozenset(parabolic)
    chosen = sorted(set(colours))
    if index_set & set(chosen):
        raise ValueError("colours must be disjoint from the parabolic index set")
    comps = connected_components(datum, index_set)

    def touched(alpha: int) -> list[frozenset[int]]:
        return [k for k in comps if any(datum.adjacent(alpha, i) for i in k)]

    for a, b in itertools.combinations(chosen, 2):
        if datum.adjacent(a, b):
            return False, f"clause (a): colours {datum.label(a)} and {datum.label(b)} are adjacent"
        shared = [k for k in touched(a) if k in touched(b)]
        if shared:
            names = ", ".join(sorted(datum.label(i) for i in shared[0]))
            return False, (
                f"clause (a): colours {datum.label(a)} and {datum.label(b)} "
                f"touch the common component {{{names}}} of I"
            )
    for alpha in chosen:
        near = touched(alpha)
        if len(near) > 1:
            return False, (
                f"clause (b): colour {datum.label(alpha)} is connected to "
                f"{len(near)} components of I"
            )
        if not near:
            continue
        block = near[0] | {alpha}
        order = _is_chain_from(datum, block, alpha)
        if order is None:
            return False, (
                f"clause (c): {datum.label(alpha)} and its I-component do not form "
                "a chain with the colour at an end"
            )
        offs = [
            (datum.cartan_entry(order[k], order[k + 1]), datum.cartan_entry(order[k + 1], order[k]))
            for k in range(len(order) - 1)
        ]
        is_a_type = all(o == (-1, -1) for o in offs)
        is_c_type = len(offs) >= 1 and all(o == (-1, -1) for o in offs[:-1]) and offs[-1] == (-2, -1)
        if not (is_a_type or is_c_type):
            return False, (
                f"clause (c): chain through {datum.label(alpha)} has type neither A_l "
                "nor C_l with the colour first"
            )
    return True, "smooth colour configuration"
