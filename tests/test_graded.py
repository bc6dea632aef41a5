"""Graded ideals: degree components, Hilbert tables, normal forms, nilpotency bounds."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjointalg import (
    GeneratorCensus,
    GradedIdeal,
    HilbertTable,
    ModpRowSpace,
    ResourceLimitError,
    TruncatedPoly,
    combined_ideal,
    format_poly,
    generators_to_json,
    graded,
    gs_recursion_check,
    homogeneous_part,
    ideal_from_json,
    linalg,
    monomial,
    nilpotency_bound,
    normal_form,
    one,
    parse_poly,
    quotient_dimensions,
    row_space,
    run_construction,
    variable,
    zero,
)

from adjointalg.oracle import component_span_vectors, monomial_hilbert, rref_mod_p, span_closure

from oracle import polys, reversed_terms, seeded_poly, substituted_terms, swapped_terms, view_terms


def ideal_of(p, cap, *texts):
    return GradedIdeal(p, cap, [parse_poly(t, p, cap) for t in texts])


def test_generator_validation():
    with pytest.raises(ValueError, match="homogeneous"):
        ideal_of(2, 4, "x + x^2")
    with pytest.raises(ValueError, match="nonzero"):
        GradedIdeal(2, 4, [zero(2, 4)])
    with pytest.raises(ValueError, match="context"):
        GradedIdeal(2, 4, [variable("x", 2, 3)])
    with pytest.raises(ValueError, match="context"):
        GradedIdeal(2, 4, [variable("x", 3, 4)])
    # With no generator to check them, the modulus and the cap are still checked.
    with pytest.raises(ValueError, match="p must be prime, got 4"):
        GradedIdeal(4, 4, [])
    with pytest.raises(ValueError, match="degree cap must be at least 1, got 0"):
        GradedIdeal(2, 0, [])


def test_component_degree_window():
    ideal = ideal_of(2, 4, "xy")
    with pytest.raises(ValueError):
        ideal.component_basis(0)
    with pytest.raises(ValueError):
        ideal.component_basis(5)
    assert ideal.component_basis(4).ncols == 1 << 4


def test_empty_ideal_dimensions():
    table = quotient_dimensions(GradedIdeal(2, 4, []))
    assert table.dims == (2, 4, 8, 16)
    assert all(table.ideal_rank(n) == 0 for n in range(1, 5))


@pytest.mark.parametrize("p", [2, 3])
def test_constant_generator_gives_the_whole_augmentation_ideal(p):
    ideal = GradedIdeal(p, 4, [one(p, 4)])
    assert quotient_dimensions(ideal).dims == (0, 0, 0, 0)
    assert normal_form(parse_poly("1 + x + xy", p, 4), ideal) == one(p, 4)


def test_frozen_commutator_ideal_dimensions():
    """dims (2, 3, 4) for the ideal generated by xy + yx over F_2 with cap 3."""
    table = quotient_dimensions(ideal_of(2, 3, "xy + yx"))
    assert table.dims == (2, 3, 4)


@pytest.mark.parametrize(
    "p,cap,gens",
    [
        (2, 3, [{"xy": 1, "yx": 1}]),
        (2, 4, [{"xx": 1}]),
        (3, 3, [{"xx": 1}, {"xy": 1, "yx": 2}]),
        (5, 2, [{"x": 1, "y": 4}]),
    ],
)
def test_component_ranks_match_exhaustive_closure(p, cap, gens):
    """Library echelon ranks equal log_p of the brute-force span closure size."""
    polys = [TruncatedPoly(p, cap, g) for g in gens]
    ideal = GradedIdeal(p, cap, polys)
    for n in range(1, cap + 1):
        vectors = component_span_vectors(gens, p, n)
        basis = ideal.component_basis(n)
        if not vectors:
            assert basis.rank == 0
            continue
        closure = span_closure(vectors, p)
        assert len(closure) == p ** basis.rank
        # every echelon row is a combination the oracle also reaches
        for row in basis.row_vectors():
            assert tuple(c % p for c in row) in closure


@pytest.mark.parametrize("gens", [[{"xy": 1, "yx": 1}], [{"xx": 1}, {"xyy": 1}]])
def test_gf2_engine_agrees_with_dense_engine_on_ideal_rows(gens):
    """Both echelon engines assign the same rank to the same spanning rows."""
    polys = [TruncatedPoly(2, 5, g) for g in gens]
    ideal = GradedIdeal(2, 5, polys)
    for n in range(1, 6):
        dense = ModpRowSpace(1 << n, 2)
        for vec in component_span_vectors(gens, 2, n):
            dense.add(vec)
        assert ideal.component_basis(n).rank == dense.rank


@pytest.mark.parametrize("p", [2, 3])
def test_components_queried_out_of_order_equal_those_built_in_order(p):
    """A query grows every degree up to its own, whatever degrees were asked for before."""
    texts = ("xy - yx", "x^3 + y x y", "x^2 y^3")
    shuffled, ordered = ideal_of(p, 8, *texts), ideal_of(p, 8, *texts)
    a = parse_poly("x^3 y^4 + y x^6 + x y", p, 8)
    first = normal_form(a, shuffled)
    shuffled.component_basis(3)
    for n in (8, 1, 5, 2, 6, 4, 7):
        shuffled.component_basis(n)
    expected = [ordered.component_basis(n).row_vectors() for n in range(1, 9)]
    assert [shuffled.component_basis(n).row_vectors() for n in range(1, 9)] == expected
    assert quotient_dimensions(shuffled) == quotient_dimensions(ordered)
    assert first == normal_form(a, ordered)


def test_row_polys_are_homogeneous_members():
    ideal = ideal_of(2, 4, "xy + yx")
    for n in (2, 3, 4):
        for row in ideal.component_basis(n).rows():
            q = graded.decode_vector(row, n, ideal.component_basis(n), 4)
            assert q.is_homogeneous
            assert q.max_degree() == n
            assert normal_form(q, ideal).is_zero


def test_normal_form_properties():
    rng = random.Random(42)
    ideal = ideal_of(2, 5, "xy + yx", "x^3")
    gx = parse_poly("xy + yx", 2, 5)
    for _ in range(25):
        a = seeded_poly(rng, 2, 5, max_degree=5)
        b = seeded_poly(rng, 2, 5, max_degree=5)
        nf = normal_form(a, ideal)
        # idempotent, linear, and invariant under shifting by ideal elements
        assert normal_form(nf, ideal) == nf
        assert normal_form(a + b, ideal) == nf + normal_form(b, ideal)
        u = seeded_poly(rng, 2, 5, max_degree=2)
        assert normal_form(a + u * gx, ideal) == nf
        assert normal_form(a + gx * u, ideal) == nf


def test_normal_form_fixes_constant_and_kills_generators():
    ideal = ideal_of(3, 4, "x^2")
    a = parse_poly("2 + x + x^2", 3, 4)
    assert normal_form(a, ideal) == parse_poly("2 + x", 3, 4)
    assert normal_form(parse_poly("x^2", 3, 4), ideal).is_zero
    assert normal_form(parse_poly("2x^2y", 3, 4), ideal).is_zero


@pytest.mark.parametrize("p", [2, 3])
def test_normal_forms_past_cap_63_match_those_at_a_small_cap(p):
    """Past cap 63 ranks are Python ints; the engines still take them as int64 coordinates.

    A component depends only on its degree, so the normal form at cap 70
    equals the one at cap 8, for a product and for its parts.
    """
    text = "2 + x^2y + 2yxy + y^3x^2 + xyx^4y"
    forms = []
    for cap in (8, 70):
        ideal = ideal_of(p, cap, "xy + yx", "x^3")
        a = parse_poly(text, p, cap)
        forms.append([format_poly(normal_form(q, ideal)) for q in (a, a * one(p, cap), a * a)])
    assert forms[0] == forms[1]
    assert view_terms(normal_form(a * a, ideal))[1] == normal_form(a * a, ideal).terms


def test_normal_form_requires_matching_context():
    ideal = ideal_of(2, 4, "xy")
    with pytest.raises(ValueError):
        normal_form(variable("x", 2, 5), ideal)
    with pytest.raises(ValueError):
        normal_form(variable("x", 3, 4), ideal)


def test_nilpotency_bounds():
    x = variable("x", 2, 5)
    y = variable("y", 2, 5)
    empty = GradedIdeal(2, 5, [])
    assert nilpotency_bound(x, empty) == 6  # x^6 = 0 only past the cap
    square = ideal_of(2, 5, "x^2")
    assert nilpotency_bound(x, square) == 2
    assert nilpotency_bound(y, square) == 6
    assert nilpotency_bound(zero(2, 5), empty) == 1
    # a unit never becomes nilpotent: the window reports no certificate
    assert nilpotency_bound(one(2, 5) + x, empty) is None


def test_hilbert_table_accessors_and_csv():
    table = quotient_dimensions(ideal_of(2, 3, "xy + yx"))
    assert table.dimension(2) == 3
    assert table.ideal_rank(3) == 4
    with pytest.raises(ValueError):
        table.dimension(0)
    with pytest.raises(ValueError):
        table.dimension(4)
    assert table.to_csv() == "n,dim,ideal_rank\n1,2,0\n2,3,1\n3,4,4\n"
    payload = table.to_json_dict()
    assert payload["p"] == 2 and payload["cap"] == 3
    assert payload["rows"][1] == {"n": 2, "dim": 3, "ideal_rank": 1}


def test_hilbert_table_is_plain_data():
    table = HilbertTable(2, (2, 3))
    assert table.ideal_rank(2) == 1
    # The cap is read off the dims, so no table can list more or fewer degrees than it holds.
    assert table.cap == 2
    assert table.to_csv() == "n,dim,ideal_rank\n1,2,0\n2,3,1\n"
    assert gs_recursion_check(table, GeneratorCensus({2: 1})) == (True, None)


def test_generators_json_round_trip():
    ideal = ideal_of(3, 4, "x^2", "xy + 2yx")
    data = generators_to_json(ideal)
    assert data == [[2, "x^2"], [2, "xy + 2yx"]]
    back = ideal_from_json(3, 4, data)
    assert generators_to_json(back) == data
    assert quotient_dimensions(back).dims == quotient_dimensions(ideal).dims


@pytest.mark.parametrize(
    "data,message",
    [
        ({"x": 2}, "an ideal must be a JSON list"),
        ([[2, "x^2"], [2]], "ideal generator 1 must be a [degree, polynomial] pair"),
        ([[2, 5]], "ideal generator 0 needs an integer degree and a polynomial string"),
        ([["2", "x^2"]], "ideal generator 0 needs an integer degree and a polynomial string"),
        ([[7, "xy"]], "ideal generator 0 has degree 2, not the stated 7"),
    ],
)
def test_generators_json_of_another_shape_is_refused(data, message):
    with pytest.raises(ValueError) as err:
        ideal_from_json(3, 4, data)
    assert str(err.value).startswith(message)


@st.composite
def small_ideals(draw, p, max_cap=7):
    """(cap, generator term dicts) of a random homogeneous ideal."""
    cap = draw(st.integers(1, max_cap))
    gens = []
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(0, min(cap, 5)))
        words = draw(st.lists(st.text("xy", min_size=d, max_size=d), min_size=1, max_size=3, unique=True))
        gens.append({w: draw(st.integers(1, p - 1)) for w in words})
    return cap, gens


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_component_bases_equal_the_oracle_echelon_form(data):
    """Every degree's basis is the Gauss-Jordan form of all its sandwich rows u * g * w.

    The degrees are requested in a drawn order, so a component is sometimes
    built on demand from a cached lower degree and sometimes read from the cache.
    """
    p = data.draw(st.sampled_from([2, 3, 5]))
    cap, gens = data.draw(small_ideals(p))
    ideal = GradedIdeal(p, cap, [TruncatedPoly(p, cap, g) for g in gens])
    for n in data.draw(st.permutations(range(1, cap + 1))):
        expected = rref_mod_p(component_span_vectors(gens, p, n), p)
        assert ideal.component_basis(n).row_vectors() == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_normal_form_is_idempotent_linear_and_kills_sandwiches(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    cap, gens = data.draw(small_ideals(p))
    ideal = GradedIdeal(p, cap, [TruncatedPoly(p, cap, g) for g in gens])
    a, b = data.draw(polys(p, cap)), data.draw(polys(p, cap))
    c = data.draw(st.integers(0, p - 1))
    nf = normal_form(a, ideal)
    assert normal_form(nf, ideal) == nf
    assert normal_form(a + c * b, ideal) == nf + c * normal_form(b, ideal)
    for _, g in ideal.generators:
        u, w = data.draw(polys(p, cap)), data.draw(polys(p, cap))
        # Only a constant generator gives a sandwich a constant term, which normal_form keeps.
        sandwich = u * g * w
        constant = TruncatedPoly(p, cap, {"": sandwich.constant_term})
        assert normal_form(sandwich, ideal) == constant
        assert normal_form(a + sandwich, ideal) == nf + constant


# The p = 2 cases are named by their degree alone.
@pytest.mark.parametrize(
    "p, degree",
    [pytest.param(p, d, id=str(d) if p == 2 else f"p{p}-{d}") for p in (2, 3) for d in (1, 7, 8, 9, 16, 17)],
)
def test_gf2_decode_matches_a_bit_by_bit_reference(p, degree):
    """decode(encode(...)) round-trips on both engines, checked coordinate by coordinate."""
    rng = random.Random(degree)
    space = row_space(1 << degree, p)
    full = rng.getrandbits(1 << degree)
    for bits in (0, full, 1 << ((1 << degree) - 1)):
        indices = np.array([i for i in range(1 << degree) if bits >> i & 1], dtype=np.int64)
        coeffs = [rng.randrange(1, p) for _ in indices]
        row = space.encode(indices, coeffs)
        got, got_coeffs = space.decode(row)
        assert got.tolist() == indices.tolist() and list(got_coeffs) == coeffs
        # index i is the word whose x/y letters spell i in binary, first letter highest
        expected = {
            format(int(i), f"0{degree}b").replace("0", "x").replace("1", "y"): c
            for i, c in zip(indices, coeffs)
        }
        poly = graded.decode_vector(row, degree, space, 17)
        assert poly.terms == expected
        assert np.array_equal(graded.encode_part(poly, degree, space), row)
        if p == 2:
            assert row == bits
        else:  # entries are read mod p
            assert graded.decode_vector(row + p, degree, space, 17) == poly


def test_gf2_component_bases_across_byte_boundaries_equal_the_oracle():
    """Degree-8 and degree-3 generators up to cap 9: word and row widths cross multiples of 8."""
    cap = 9
    rng = random.Random(11)
    cubic = homogeneous_part(seeded_poly(rng, 2, cap, max_degree=3, max_terms=8), 3)
    gens = [((variable("x", 2, cap) + variable("y", 2, cap)) ** 8).terms, cubic.terms]
    assert len(gens[0]) == 256 and len(gens[1]) > 1
    ideal = GradedIdeal(2, cap, [TruncatedPoly(2, cap, g) for g in gens])
    for n in range(1, cap + 1):
        expected = rref_mod_p(component_span_vectors(gens, 2, n), 2)
        assert ideal.component_basis(n).row_vectors() == expected


def test_resource_guard_refuses_a_component_before_allocating_it(monkeypatch):
    """Both engines, each under its own ceiling."""

    def refuse(*args):
        raise AssertionError("the guarded engine was allocated")

    for p, ceiling in [(2, "MAX_GF2_BLOCK_BYTES"), (3, "MAX_BLOCK_BYTES")]:
        ideal = ideal_of(p, 6, "xy - yx")
        below = ideal.component_basis(4)
        r, n = below.rank, below.ncols
        k = r - 2 * ideal.component_basis(3).rank  # rows new since degree 4 was grown
        # GF(2): the r rows of n bits kept below, their y copies of 2n bits, 3n
        # bits for the stored right multiples of each of the k new rows, and 2
        # bytes per coordinate; mod p: the doubled 2r x 2(n - r) float32 block
        # and 64 bytes per coordinate.
        block = 3 * r * n // 8 + 3 * k * n // 8 + 2 * 2 * n if p == 2 else 4 * r * (n - r) * 4 + 64 * 2 * n
        assert k > 0
        assert block > 0
        with monkeypatch.context() as patch:
            patch.setattr(linalg, ceiling, block - 1)
            patch.setattr(type(below), "__init__", refuse)
            with pytest.raises(ResourceLimitError, match=rf"degree 5 .* {block} bytes .* {block - 1} bytes"):
                ideal.component_basis(5)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, ceiling, block)
            assert ideal.component_basis(5).ncols == 1 << 5
    assert issubclass(ResourceLimitError, ValueError)


def test_resource_guard_counts_the_coordinates_below_the_first_generator(monkeypatch):
    """At rank 0 the doubled block is empty, yet every coordinate still costs memory."""

    def refuse(*args):
        raise AssertionError("the guarded engine was allocated")

    ideal = ideal_of(3, 12, "x^12")
    below = ideal.component_basis(11)
    assert below.rank == 0
    need = 64 * (1 << 12)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "MAX_BLOCK_BYTES", need - 1)
        patch.setattr(type(below), "__init__", refuse)
        with pytest.raises(ResourceLimitError, match=rf"^degree 12 component needs {need} bytes .* {need - 1} bytes$"):
            ideal.component_basis(12)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "MAX_BLOCK_BYTES", need)
        assert ideal.component_basis(12).rank == 1


def mapped_ideal(ideal, symmetry):
    """The ideal generated by the images of ideal's generators under a map of term dicts."""
    p, cap = ideal.p, ideal.cap
    return GradedIdeal(p, cap, [TruncatedPoly(p, cap, symmetry(g.terms)) for _, g in ideal.generators])


def assert_symmetric_tables(ideal):
    """Reversal and swap keep the Hilbert table, though the engines multiply on each side differently.

    ``grown()`` takes the left multiples from the degree below and the right
    multiples of the new rows only, so a reversed ideal sends every row
    through the other side.
    """
    dims = quotient_dimensions(ideal).dims
    for symmetry in (reversed_terms, swapped_terms):
        assert quotient_dimensions(mapped_ideal(ideal, symmetry)).dims == dims, symmetry.__name__


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hilbert_tables_are_invariant_under_reversal_and_swap(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    cap, gens = data.draw(small_ideals(p, max_cap=12))
    assert_symmetric_tables(GradedIdeal(p, cap, [TruncatedPoly(p, cap, g) for g in gens]))


@pytest.mark.parametrize("p,cap", [(2, 17), (3, 14)])
def test_construction_ideal_tables_are_invariant_under_reversal_and_swap(p, cap):
    assert_symmetric_tables(combined_ideal(run_construction(p, cap, 100)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hilbert_tables_are_invariant_under_an_invertible_linear_substitution(data):
    """x -> ax + by, y -> cx + dy with ad - bc nonzero is a graded automorphism, which keeps the table.

    Unlike reversal and swap, it sends a word to a sum of words, so the
    engines reduce rows of many terms built from ones of few.
    """
    p = data.draw(st.sampled_from([2, 3, 5]))
    cap = data.draw(st.integers(4, 10))
    gens = []
    for d in data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)):
        words = data.draw(st.lists(st.text("xy", min_size=d, max_size=d), min_size=1, max_size=3, unique=True))
        gens.append({w: data.draw(st.integers(1, p - 1)) for w in words})
    residues = st.integers(0, p - 1)
    a, b, c, d = data.draw(st.tuples(residues, residues, residues, residues).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p
    ))
    images = {"x": {"x": a, "y": b}, "y": {"x": c, "y": d}}
    ideal = GradedIdeal(p, cap, [TruncatedPoly(p, cap, g) for g in gens])
    image = mapped_ideal(ideal, lambda terms: substituted_terms(terms, images, p))
    assert quotient_dimensions(image).dims == quotient_dimensions(ideal).dims


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 12),
    st.lists(st.text("xy", min_size=2, max_size=8), min_size=1, max_size=6),
)
def test_monomial_ideal_tables_equal_the_word_count(p, cap, words):
    """A monomial ideal's table counts the words avoiding its generators (``oracle.monomial_hilbert``).

    Generator words past the cap build no element, and the count never meets them.
    """
    gens = [monomial(w, p, cap) for w in words if len(w) <= cap]
    assert quotient_dimensions(GradedIdeal(p, cap, gens)).dims == monomial_hilbert(words, cap)


def test_a_monomial_ideal_table_at_cap_18_equals_the_word_count():
    """x^8, y^8, (xy)^8 and (yx)^8 at p = 2: the F_2 engine grown to 2^18 coordinates."""
    words = ["x" * 8, "y" * 8, "xy" * 8, "yx" * 8]
    dims = quotient_dimensions(GradedIdeal(2, 18, [monomial(w, 2, 18) for w in words])).dims
    assert dims == monomial_hilbert(words, 18)
    assert dims[16:] == (125444, 249876)
