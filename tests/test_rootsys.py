"""Root-system combinatorics: counts, pairings, flag dimensions, Dynkin checks."""

import itertools
import json
import time

import pytest

from horofan import divisors, rootsys
from horofan.dictionary import _classify_subdiagram
from horofan.divisors import anticanonical
from horofan.rootsys import (
    RootDatum,
    colour_smoothness_check,
    connected_components,
    flag_dimension,
    pairing,
    parse_dynkin,
    positive_roots,
)

from horofan.horo import ColouredFan, HorosphericalDatum, build_coloured_lattice, trivial_coloured_cone
from horofan.intlin import IntMatrix

from .factories import cold_parse
from .oracles import (
    chord_checked_chain_from,
    dense_positive_roots,
    per_root_anticanonical_colours,
    rank_list_classify_subdiagram,
)

CLASSICAL_COUNTS = [
    ("A1", 1),
    ("A2", 3),
    ("A3", 6),
    ("A5", 15),
    ("B2", 4),
    ("B3", 9),
    ("B4", 16),
    ("C3", 9),
    ("C4", 16),
    ("D4", 12),
    ("D5", 20),
    ("G2", 6),
    ("F4", 24),
    ("E6", 36),
    ("E7", 63),
    ("E8", 120),
]


@pytest.mark.parametrize("descriptor,count", CLASSICAL_COUNTS)
def test_positive_root_counts(descriptor, count):
    datum = RootDatum.parse(descriptor)
    assert len(positive_roots(datum)) == count


def test_a2_positive_roots_explicit():
    roots = positive_roots(RootDatum.parse("A2"))
    assert sorted(coords for _, coords in roots) == [(0, 1), (1, 0), (1, 1)]


def test_a1_single_root():
    assert [coords for _, coords in positive_roots(RootDatum.parse("A1"))] == [(1,)]


def test_product_group_roots_are_tagged():
    datum = RootDatum.parse("A2xA1")
    roots = positive_roots(datum)
    assert sum(1 for ci, _ in roots if ci == 0) == 3
    assert sum(1 for ci, _ in roots if ci == 1) == 1


class TestPairing:
    def test_a2_values_from_anticanonical_computation(self):
        datum = RootDatum.parse("A2")
        assert pairing(datum, (0, (1, 0)), 0) == 2
        assert pairing(datum, (0, (0, 1)), 0) == -1
        assert pairing(datum, (0, (1, 1)), 0) == 1

    def test_simple_root_pairings(self):
        for descriptor in ["A3", "B3", "C3", "D4", "G2", "F4"]:
            datum = RootDatum.parse(descriptor)
            n = datum.simple_count
            for i in range(n):
                ci, node = datum.component_of(i)
                coords = tuple(1 if k == node else 0 for k in range(datum.components[ci][1]))
                assert pairing(datum, (ci, coords), i) == 2
                for j in range(n):
                    if j != i:
                        assert pairing(datum, (ci, coords), j) <= 0

    def test_cross_component_pairing_is_zero(self):
        datum = RootDatum.parse("A1xA1")
        assert pairing(datum, (0, (1,)), 1) == 0


class TestFlagDimension:
    def test_sl3_values(self):
        datum = RootDatum.parse("A2")
        assert flag_dimension(datum, frozenset()) == 3
        assert flag_dimension(datum, frozenset({0})) == 2
        assert flag_dimension(datum, frozenset({1})) == 2
        assert flag_dimension(datum, frozenset({0, 1})) == 0

    def test_full_parabolic_gives_point(self):
        for descriptor in ["A3", "B2", "G2", "A1xA2"]:
            datum = RootDatum.parse(descriptor)
            assert flag_dimension(datum, frozenset(datum.simple_roots())) == 0

    def test_empty_parabolic_counts_all_positive_roots(self):
        for descriptor in ["A4", "B3", "D4", "F4"]:
            datum = RootDatum.parse(descriptor)
            assert flag_dimension(datum, frozenset()) == len(positive_roots(datum))

    def test_antitone_in_parabolic(self):
        datum = RootDatum.parse("B3")
        roots = list(datum.simple_roots())
        for r in range(len(roots) + 1):
            for smaller in itertools.combinations(roots, r):
                for bigger in itertools.combinations(roots, min(r + 1, len(roots))):
                    if set(smaller) <= set(bigger):
                        assert flag_dimension(datum, frozenset(smaller)) >= flag_dimension(
                            datum, frozenset(bigger)
                        )


class TestColourSmoothness:
    def test_sl5_table(self):
        datum = RootDatum.parse("A4")
        parabolic = frozenset({1, 3})  # a2 and a4
        ok, _ = colour_smoothness_check(datum, parabolic, {0})
        assert ok
        bad, why = colour_smoothness_check(datum, parabolic, {2})
        assert not bad
        assert "two components" in why or "2 components" in why
        both, why_both = colour_smoothness_check(datum, parabolic, {0, 2})
        assert not both

    def test_empty_colours_vacuous(self):
        datum = RootDatum.parse("E6")
        ok, _ = colour_smoothness_check(datum, frozenset({0, 2}), set())
        assert ok

    def test_adjacent_colours_rejected(self):
        datum = RootDatum.parse("A3")
        ok, why = colour_smoothness_check(datum, frozenset(), {0, 1})
        assert not ok and "adjacent" in why

    def test_common_component_rejected(self):
        datum = RootDatum.parse("A3")
        ok, why = colour_smoothness_check(datum, frozenset({1}), {0, 2})
        assert not ok and "common component" in why

    def test_c_type_chain_accepted_only_from_short_end(self):
        datum = RootDatum.parse("C3")
        # a1 attaches to the component {a2, a3}: chain a1-a2=a3 is C3 with a1 first
        ok, _ = colour_smoothness_check(datum, frozenset({1, 2}), {0})
        assert ok
        # a3 attaches to {a1, a2}: chain a3=a2-a1 starts at the long end, not C_l
        bad, why = colour_smoothness_check(datum, frozenset({0, 1}), {2})
        assert not bad and "clause (c)" in why

    def test_b_type_chain_rejected(self):
        datum = RootDatum.parse("B3")
        ok, why = colour_smoothness_check(datum, frozenset({1, 2}), {0})
        assert not ok and "clause (c)" in why

    def test_isolated_colour_with_no_parabolic(self):
        datum = RootDatum.parse("A4")
        ok, _ = colour_smoothness_check(datum, frozenset(), {0, 2})
        assert ok


class TestParsing:
    def test_simple(self):
        assert parse_dynkin("A4") == (("A", 4),)

    def test_product(self):
        assert parse_dynkin("B3xG2") == (("B", 3), ("G", 2))

    def test_rejects_bad_types(self):
        for bad in ["B1", "C1", "D2", "E9", "F3", "G3", "H2", "A0", "Q"]:
            with pytest.raises(ValueError):
                parse_dynkin(bad)

    @pytest.mark.parametrize("letter, rank", [("D", 2), ("B", 1), ("C", 1), ("E", 5), ("F", 2), ("A", 0), ("G", 3)])
    def test_constructor_rejects_what_parse_rejects(self, letter, rank):
        # constructed only: positive_roots of the D2 "Cartan matrix" never ends
        with pytest.raises(ValueError) as parsed:
            parse_dynkin(f"{letter}{rank}")
        with pytest.raises(ValueError) as built:
            RootDatum(((letter, rank),))
        assert str(built.value) == str(parsed.value)

    @pytest.mark.parametrize("component", [("X", 2), ("a", 2), ("A", 2.0)])
    def test_constructor_rejects_unknown_components(self, component):
        with pytest.raises(ValueError, match="is not a Dynkin type"):
            RootDatum((component,))

    def test_torus_only_group(self):
        datum = RootDatum.parse("", central_torus_rank=2)
        assert datum.simple_count == 0
        assert positive_roots(datum) == []
        assert flag_dimension(datum, frozenset()) == 0

    def test_labels(self):
        single = RootDatum.parse("A3")
        assert [single.label(i) for i in range(3)] == ["a1", "a2", "a3"]
        double = RootDatum.parse("A2xB2")
        assert [double.label(i) for i in range(4)] == ["1.a1", "1.a2", "2.a1", "2.a2"]
        assert double.index_of_label("2.a1") == 2


def test_d3_matches_a3_count():
    assert len(positive_roots(RootDatum.parse("D3"))) == 6


# every type of rank <= 6, the exceptional types and three products
SWEEP_GROUPS = (
    [f"A{n}" for n in range(1, 7)]
    + [f"{letter}{n}" for letter in "BC" for n in range(2, 7)]
    + [f"D{n}" for n in range(3, 7)]
    + ["E6", "E7", "E8", "F4", "G2", "A2xB2", "A1xG2", "C3xA2"]
)


def connected_subsets(datum, largest):
    nodes = datum.simple_roots()
    for size in range(1, largest + 1):
        for subset in itertools.combinations(nodes, size):
            if len(connected_components(datum, frozenset(subset))) == 1:
                yield subset


def sweep_cases(datum):
    """Every (I, colours) with I and the colours disjoint sets of simple roots."""
    nodes = datum.simple_roots()
    for labels in itertools.product((0, 1, 2), repeat=len(nodes)):
        yield datum, frozenset(i for i, t in zip(nodes, labels) if t == 1), {i for i, t in zip(nodes, labels) if t == 2}


def test_dynkin_routes_match_the_chord_checked_and_rank_list_routes(monkeypatch):
    """A Dynkin diagram is a forest with no chords, and `RootDatum.parse` knows the valid ranks.

    `colour_smoothness_check` on every (I, colours) of each sweep group,
    `_is_chain_from` from every start of every connected subset of at most 6
    nodes, and `_classify_subdiagram` on every such subset, against the
    earlier routes in `tests/oracles.py`.
    """
    groups = [RootDatum.parse(descriptor) for descriptor in SWEEP_GROUPS]
    cases = [case for datum in groups for case in sweep_cases(datum)]
    subsets = [(datum, subset) for datum in groups for subset in connected_subsets(datum, 6)]
    types = [_classify_subdiagram(datum, list(s)) for datum, s in subsets]
    assert types == [rank_list_classify_subdiagram(datum, list(s)) for datum, s in subsets]
    chains = [rootsys._is_chain_from(datum, frozenset(s), start) for datum, s in subsets for start in s]
    assert chains == [chord_checked_chain_from(datum, frozenset(s), start) for datum, s in subsets for start in s]
    checks = [colour_smoothness_check(*case) for case in cases]
    monkeypatch.setattr(rootsys, "_is_chain_from", chord_checked_chain_from)
    assert checks == [colour_smoothness_check(*case) for case in cases]
    # every verdict and every letter occurs
    assert {ok for ok, _ in checks} == {True, False}
    assert {letter for letter, _, _ in types} == set("ABCDEFG")
    assert len(cases) + len(subsets) > 14000


@pytest.mark.parametrize("descriptor", ["D6", "E6", "E7", "E8"])
def test_classify_subdiagram_matches_node_by_node(descriptor):
    """Reversed E7 and E8 took 1.3 s and 10 s when every permutation was tried;
    the node-by-node match finds the same first order at once.  D6 and E6 have
    a diagram automorphism, so there the order in which nodes are tried shows."""
    datum = RootDatum.parse(descriptor)
    nodes = list(reversed(datum.simple_roots()))
    start = time.process_time()
    found = _classify_subdiagram(datum, nodes)
    assert time.process_time() - start < 0.1
    assert found == rank_list_classify_subdiagram(datum, nodes)


def component_types(largest):
    """Every (letter, rank) of a connected Dynkin diagram of rank at most `largest`."""
    for letter, rank in itertools.product("ABCDEFG", range(1, largest + 1)):
        try:
            RootDatum.parse(f"{letter}{rank}")
        except ValueError:
            continue
        yield letter, rank


@pytest.mark.parametrize("letter,rank", list(component_types(8)) + [("A", 30), ("D", 20)])
def test_positive_roots_match_the_dense_closure(letter, rank):
    cartan = rootsys._cartan_matrix(letter, rank)
    assert rootsys._positive_roots(cartan) == dense_positive_roots(cartan)


def empty_document(group):
    """The fan and datum of the document {"group": group, "M": [], "fan": []}, parsed afresh."""
    doc = cold_parse(json.dumps({"group": group, "M": [], "fan": []}))
    return doc.fan, doc.datum


def test_anticanonical_builds_one_cartan_matrix():
    """A40 with no characters: 820 positive roots paired with 40 colours, from one shared Cartan matrix."""
    fan, datum = empty_document("A40")
    rootsys._cartan_matrix.cache_clear()
    anticanonical(fan, datum)
    assert rootsys._cartan_matrix.cache_info().misses == 1


@pytest.mark.parametrize("group", ["A40", "D20", "B12xC12", "A100"])
def test_anticanonical_colour_coefficients_are_two_with_no_parabolic(group):
    """With I empty, b_alpha = <2 rho, alpha^vee> = 2 for every simple root alpha."""
    fan, datum = empty_document(group)
    colour_coeffs = anticanonical(fan, datum).colour_coeffs
    assert colour_coeffs == tuple((i, 2) for i in range(datum.group.simple_count))


def test_anticanonical_takes_one_pairing_per_colour(monkeypatch):
    """A40 with I empty: 40 pairings, one per colour, where pairing every root outside R_I took 820 * 40."""
    fan, datum = empty_document("A40")
    calls = []

    def counted(group, gamma, simple_index):
        calls.append(simple_index)
        return pairing(group, gamma, simple_index)

    monkeypatch.setattr(divisors, "pairing", counted)
    anticanonical(fan, datum)
    assert calls == list(range(40))


@pytest.mark.parametrize(
    "group,parabolic",
    [
        ("A5", {1, 3}), ("B4xG2", {0, 4}), ("C5", {4}), ("D6", {0, 1, 2}),
        ("E6", {0, 5}), ("F4", {1, 2}), ("E8xA3", {7, 9}),
    ],
)
def test_anticanonical_colours_match_one_pairing_per_root_and_colour(group, parabolic):
    """With a nonempty I, so that roots outside R_I lie in part of each component."""
    group = RootDatum.parse(group)
    datum = HorosphericalDatum(group, frozenset(parabolic), IntMatrix.from_columns([], rows=group.character_rank))
    lattice = build_coloured_lattice(datum)
    fan = ColouredFan(lattice, (trivial_coloured_cone(lattice),))
    colours = anticanonical(fan, datum).colour_coeffs
    assert colours == per_root_anticanonical_colours(fan, datum)
    assert [root for root, _ in colours] == [a for a in group.simple_roots() if a not in parabolic]
    assert any(b > 2 for _, b in colours)
