"""Text formats, the command line, exit codes, and report determinism."""

import hashlib
import io
import os
import re
import sys
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssetkit import cli
from ssetkit.cli import main
from ssetkit.connections import EdgeGluing, U1BundleData
from ssetkit.errors import ParameterError, StructureError
from ssetkit.forms import FormField, PolyForm, QTau
from ssetkit.io_text import (
    _UNWRITABLE,
    parse_complex,
    parse_cover,
    parse_extend,
    parse_form,
    parse_map,
    parse_site_presheaf,
    parse_u1,
    relabel_as_strings,
    render_form,
    render_id,
    serialize_complex,
    serialize_cover,
    serialize_map,
    serialize_site_presheaf,
    serialize_u1,
)
from ssetkit.sheaves import FiniteSite
from ssetkit.simplicial import from_generators
from ssetkit.site_corpus import constant_presheaf
from ssetkit.subdivision import AffineChain, homotopy, standard_affine_simplex, subdivide

import oracles
from conftest import (
    BASES,
    FIXTURES,
    finite_sites,
    fixture_path,
    fixture_text,
    forms,
    identity_map,
    kan_maps,
    kan_sets,
    simplicial_sets,
    map_tables,
    site_presheaves,
    tables,
    two_part_covers,
)


# -- the formats: round trips, header places and the comment rule ---------------


def extend_key(problem):
    """An extension problem as a comparable tuple: its algebra by name."""
    n, missing, algebra, data = problem
    return n, missing, algebra and algebra.name, data


def over(base, parse):
    """parse with the simplicial set base as its second argument."""
    return lambda text: parse(text, base)


def fixture_format(name):
    """(read, write) for a fixture: read parses its text, and write turns the
    result back into text (an extension problem into extend_key). A .site
    file is read over its base in BASES."""
    ext = os.path.splitext(name)[1]
    if ext == ".site":
        return over(parse_complex(fixture_text(BASES[name])), parse_site_presheaf), serialize_site_presheaf
    return {
        ".sset": (parse_complex, serialize_complex),
        ".cover": (parse_cover, lambda subs: serialize_cover(*subs)),
        ".smap": (parse_map, serialize_map),
        ".u1": (parse_u1, serialize_u1),
        ".ext": (parse_extend, extend_key),
    }[ext]


# Every fixture a reader accepts.
FIXTURE_NAMES = sorted(
    f for f in os.listdir(FIXTURES)
    if f.endswith((".sset", ".cover", ".smap", ".u1", ".site", ".ext"))
    and f not in ("corrupt_dangling.sset", "corrupt_identity.sset", "extend_offmatrix.ext")
)
SAMPLES = {name: fixture_format(name) + (fixture_text(name),) for name in FIXTURE_NAMES}
# One sample of each of the six formats.
FORMAT_SAMPLES = ["delta2.sset", "circle2.cover", "incl_bd2.smap", "u1_unit.u1",
                  "site_two_points_constant.site", "extend_horn.ext"]


def is_header_place(lines, k):
    """Whether lines[k] is a header line of its format, which no blank or
    comment row may displace: line 1, 'cap N', or the 'sset 1' of an smap
    section."""
    return k == 0 or k < len(lines) and (lines[k] == "sset 1" or lines[k].split()[0] == "cap")


def assert_round_trip(name):
    read, write, text = SAMPLES[name]
    parsed = read(text)
    if name.endswith(".sset"):
        assert oracles.scan_identities(*tables(parsed)) == []
    if name.endswith(".smap"):
        assert oracles.scan_map_violations(*map_tables(parsed)) == []
    assert write(parsed) == text


@pytest.mark.parametrize("name", [f for f in FIXTURE_NAMES if f.endswith(".sset")])
def test_sset_round_trip(name):
    assert_round_trip(name)


@pytest.mark.parametrize("name", [f for f in FIXTURE_NAMES if f.endswith((".cover", ".smap", ".u1", ".site"))])
def test_fixture_round_trip(name):
    assert_round_trip(name)


@pytest.mark.parametrize("name", FORMAT_SAMPLES)
def test_header_lines_are_checked_in_place(name):
    read, _, text = SAMPLES[name]
    lines = text.splitlines()
    for bad in ("", "wrong 1\n" + "\n".join(lines[1:]), "# x\n" + text, "\n" + text):
        with pytest.raises(StructureError, match="^line 1: "):
            read(bad)
    places = [k for k in range(1, len(lines)) if is_header_place(lines, k)]
    assert bool(places) == (name in ("delta2.sset", "incl_bd2.smap"))
    for k in places:
        for filler in ("", "# x", "  # x"):
            with pytest.raises(StructureError, match="^line %d: " % (k + 1)):
                read("\n".join(lines[:k] + [filler] + lines[k:]) + "\n")


def test_indented_cap_parses():
    text = fixture_text("delta2.sset")
    assert serialize_complex(parse_complex(text.replace("\ncap 2\n", "\n  cap 2\n"))) == text


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_blank_and_comment_rows_are_skipped_after_the_header_lines(name):
    # one blank or comment row at each row position in turn, cycling through
    # the three kinds
    read, write, text = SAMPLES[name]
    lines = text.splitlines()
    expected = write(read(text))
    for k in range(1, len(lines) + 1):
        if not is_header_place(lines, k):
            filler = ("", "# x", "  # x")[k % 3]
            assert write(read("\n".join(lines[:k] + [filler] + lines[k:]) + "\n")) == expected, k


@settings(max_examples=15)
@given(simplicial_sets())
def test_sset_serialization_is_a_fixed_point(x):
    text = serialize_complex(x)
    assert serialize_complex(parse_complex(text)) == text


@st.composite
def corrupted_sset_texts(draw):
    """serialize_complex of a set from simplicial_sets or kan_sets with up to
    three corruptions: the rows of a dimension shuffled; a row dropped or
    duplicated; a face or degeneracy replaced by an unknown or another listed
    identifier; a row identifier replaced by one the writer refuses; a field
    dropped, reordered, repeated or left empty; a degen field changed,
    dropped or added; a 'dim' block moved before another, or a row moved to
    a repeated 'dim' header at the end."""
    x = draw(st.one_of(simplicial_sets(), kan_sets()))
    names = {n: [render_id(s) for s in x.simplices[n]] for n in x.dims()}
    lines = serialize_complex(x).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        dims, n = [], None  # the dimension of each line, None above the first 'dim'
        for line in lines:
            n = int(line.split()[1]) if line.startswith("dim ") else n
            dims.append(n)
        rows = [k for k in range(2, len(lines)) if not lines[k].startswith("dim ")]
        if not rows:
            break
        kind = draw(st.sampled_from(
            ["shuffle", "drop", "duplicate", "entry", "field", "degen", "identifier", "move", "split"]))
        k = draw(st.sampled_from(rows))
        n, fields = dims[k], lines[k].split(" | ")
        tables = [f for f in range(1, len(fields)) if fields[f].split()[:1] in (["faces"], ["deg"])]
        if kind == "entry" and not tables:
            kind = "field"
        if kind == "shuffle":
            block = [j for j in rows if dims[j] == n]
            for j, line in zip(block, draw(st.permutations([lines[j] for j in block]))):
                lines[j] = line
        elif kind == "move":
            heads = [j for j in range(2, len(lines)) if lines[j].startswith("dim ")] + [len(lines)]
            h = draw(st.integers(0, len(heads) - 2))
            block = lines[heads[h]:heads[h + 1]]
            del lines[heads[h]:heads[h + 1]]
            at = draw(st.sampled_from([j for j in heads[:h]] or [2]))
            lines[at:at] = block
        elif kind == "split":
            lines.append("dim %d" % n)
            lines.append(lines.pop(k))
        elif kind == "drop":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(draw(st.sampled_from([j for j in rows if dims[j] == n])), lines[k])
        elif kind == "entry":
            f = draw(st.sampled_from(tables))
            words = fields[f].split()
            step = -1 if words[0] == "faces" else 1
            words[draw(st.integers(1, len(words) - 1))] = draw(st.sampled_from(["zz"] + names[n + step]))
            fields[f] = " ".join(words)
        elif kind == "identifier":
            fields[0] = draw(st.sampled_from(["x y", "u:v", "u;v"]))
        elif kind == "field":
            f = draw(st.integers(1, len(fields)))
            change = draw(st.sampled_from(["drop", "reorder", "repeat", "empty"]))
            if change == "drop" and f < len(fields):
                del fields[f]
            elif change == "reorder":
                fields[1:] = draw(st.permutations(fields[1:]))
            elif change == "repeat" and f < len(fields):
                fields.append(fields[f])
            else:
                fields.insert(f, "")
        else:
            degen = [f for f in range(1, len(fields)) if fields[f].startswith("degen")]
            below = names.get(n - 1) or ["zz"]
            if not degen:
                fields.append("degen %d %s" % (draw(st.integers(0, 2)), draw(st.sampled_from(below))))
            else:
                f = degen[0]
                _, j, base = fields[f].split()
                change = draw(st.sampled_from(["drop", "index", "base"]))
                if change == "drop":
                    del fields[f]
                elif change == "index":
                    fields[f] = "degen %d %s" % (int(j) + draw(st.sampled_from([-1, 1])), base)
                else:
                    fields[f] = "degen %s %s" % (j, draw(st.sampled_from(["zz"] + below)))
        if kind in ("entry", "identifier", "field", "degen"):
            lines[k] = " | ".join(fields)
    return "\n".join(lines) + "\n"


def set_tables(x):
    """Every table of x in its stored order; the face and degeneracy tables
    are stored positions, read against the simplices listed before them."""
    return (
        x.dim_cap,
        x.simplices,
        list(x._dpos.items()),
        list(x._spos.items()),
        list(x.witness.items()),
    )


@settings(max_examples=200)
@given(corrupted_sset_texts())
def test_reader_matches_the_element_wise_reference(text):
    try:
        expected = oracles.reference_complex(text)
    except StructureError as exc:
        with pytest.raises(StructureError) as err:
            parse_complex(text)
        assert str(err.value) == str(exc)
        return
    x = parse_complex(text)
    assert set_tables(x) == set_tables(expected)
    # what the reader accepts, the writer writes back
    assert set_tables(parse_complex(serialize_complex(x))) == set_tables(x)


@settings(max_examples=15)
@given(forms(tau=True))
def test_form_serialization_is_a_fixed_point(form):
    text = render_form(form)
    assert render_form(parse_form(text)) == text


@st.composite
def string_site_presheaves(draw):
    """A presheaf drawn by site_presheaves on a finite site whose base and
    objects carry string identifiers, as the 'site 1' reader gives them."""
    base, objects, covers = draw(finite_sites())
    objects = {name: {n: {render_id(s) for s in sub[n]} for n in sub} for name, sub in objects.items()}
    return draw(site_presheaves(FiniteSite(relabel_as_strings(base), objects, covers)))


@st.composite
def u1_bundles(draw):
    """A bundle on the surface of a .u1 fixture: its triangles and glued
    sides kept, the orientation signs, flips and windings drawn, and the
    forms drawn by forms(), 1-forms on Delta^2 and 0-forms on the edges."""
    surface = parse_u1(fixture_text(draw(st.sampled_from(["u1_trivial.u1", "u1_unit.u1"]))))
    gluings = [
        EdgeGluing(g.plus, g.minus, draw(st.booleans()), draw(forms(1, 0)), draw(st.integers(-3, 3)))
        for g in surface.gluings
    ]
    orientations = {t: draw(st.sampled_from((1, -1))) for t in surface.triangles}
    return U1BundleData(surface.triangles, orientations, {t: draw(forms(2, 1)) for t in surface.triangles}, gluings)


@settings(max_examples=20)
@given(u1_bundles())
def test_u1_round_trip_on_random_bundles(bundle):
    text = serialize_u1(bundle)
    parsed = parse_u1(text)
    assert parsed.triangles == bundle.triangles
    assert parsed.orientations == bundle.orientations
    assert parsed.forms == bundle.forms
    assert parsed.gluings == bundle.gluings
    assert serialize_u1(parsed) == text


@settings(max_examples=60)
@given(string_site_presheaves())
def test_site_serialization_is_a_fixed_point(presheaf):
    """Vertex functions and maps to Delta^1 on an object without vertices
    have one section, the empty assignment, which is written and read back
    like any other."""
    text = serialize_site_presheaf(presheaf)
    parsed = parse_site_presheaf(text, presheaf.site.base)
    assert serialize_site_presheaf(parsed) == text
    assert (parsed.site.objects, parsed.site.covers) == (presheaf.site.objects, presheaf.site.covers)
    assert (parsed.sections, parsed.res) == (presheaf.sections, presheaf.res)


@pytest.mark.parametrize("name", ["", "U 0", "U\t0", "U=0", "=", "U:0", ":"])
def test_site_writer_refuses_object_names_it_cannot_read_back(name):
    """An object named 'U 0' was written as 'object U 0 = ...', which reads
    back as an object 'U' and a cover member '0'."""
    base = parse_complex(fixture_text("two_points.sset"))
    site = FiniteSite(base, {name: {0: {"(0)"}}, "V": {0: {"(1)"}}}, {})
    with pytest.raises(ParameterError, match="object name .* cannot be serialized"):
        serialize_site_presheaf(constant_presheaf(site, ("a",)))


@pytest.mark.parametrize("name", ["U>0", "U;0", "U,0", "(0)", "#U"])
def test_site_object_names_the_reader_splits_on_nothing_round_trip(name):
    base = parse_complex(fixture_text("two_points.sset"))
    site = FiniteSite(base, {name: {0: {"(0)", "(1)"}}, "V": {0: {"(1)"}}}, {name: [("V", name)]})
    text = serialize_site_presheaf(constant_presheaf(site, ("a", "b")))
    parsed = parse_site_presheaf(text, base)
    assert parsed.site.names() == site.names() and parsed.site.covers == site.covers
    assert serialize_site_presheaf(parsed) == text


@pytest.mark.parametrize("label", ["", "a b", "a\tb", "a>b", ">"])
def test_site_writer_refuses_section_labels_it_cannot_read_back(label):
    site = parse_site_presheaf(fixture_text("site_two_points_constant.site"),
                               parse_complex(fixture_text("two_points.sset"))).site
    with pytest.raises(ParameterError, match="cannot be serialized"):
        serialize_site_presheaf(constant_presheaf(site, ("a", label)))


def test_parse_boundary_counts():
    x = parse_complex(fixture_text("bd_delta3.sset"))
    assert oracles.counts(x) == (4, 6, 4)


def test_dangling_reference_names_the_culprit():
    with pytest.raises(StructureError) as err:
        parse_complex(fixture_text("corrupt_dangling.sset"))
    assert "v1" in str(err.value)


# Edits of delta2.sset, each rejected at the line it names.
DEGEN_EDITS = {
    "degen on a nondegenerate simplex": (
        "(0,1,2) | faces (1,2) (0,2) (0,1)\n",
        "(0,1,2) | faces (1,2) (0,2) (0,1) | degen 0 (0,1)\n",
        19,
    ),
    "degenerate row without degen": (
        "(0,0) | faces (0) (0) | deg (0,0,0) (0,0,0) | degen 0 (0)\n",
        "(0,0) | faces (0) (0) | deg (0,0,0) (0,0,0)\n",
        8,
    ),
    "non-least index": (
        "(0,0,0) | faces (0,0) (0,0) (0,0) | degen 0 (0,0)\n",
        "(0,0,0) | faces (0,0) (0,0) (0,0) | degen 1 (0,0)\n",
        15,
    ),
    "truncated degen": (
        "(0,1,1) | faces (1,1) (0,1) (0,1) | degen 1 (0,1)\n",
        "(0,1,1) | faces (1,1) (0,1) (0,1) | degen 1\n",
        18,
    ),
}


@pytest.mark.parametrize("case", sorted(DEGEN_EDITS))
def test_degen_fields_must_match_the_deg_tables(case, tmp_path):
    old, new, line = DEGEN_EDITS[case]
    text = fixture_text("delta2.sset")
    assert text.count(old) == 1
    text = text.replace(old, new)
    with pytest.raises(StructureError, match="^line %d: " % line):
        parse_complex(text)
    path = tmp_path / "edited.sset"
    path.write_text(text)
    code, out = run_cli("homology", str(path))
    assert code == 2
    assert "status error" in out


@pytest.mark.parametrize(
    "field, row", [("faces", "(0,1) | deg (0,0,1) (0,1,1)\n"), ("deg", "(0,1) | faces (1) (0)\n")]
)
def test_missing_structure_field_names_its_line(field, row):
    # line 9 of delta2.sset, a 1-simplex below the cap, with one field dropped
    old = "(0,1) | faces (1) (0) | deg (0,0,1) (0,1,1)\n"
    text = fixture_text("delta2.sset")
    assert text.count(old) == 1
    message = r"^line 9: simplex \(0,1\) of dimension 1 has no %s field$" % field
    with pytest.raises(StructureError, match=message):
        parse_complex(text.replace(old, row))


def test_unknown_identifier_names_the_simplex():
    text = fixture_text("delta2.sset").replace("(0,2) | faces (2) (0)", "(0,2) | faces (2) (9)")
    with pytest.raises(StructureError) as err:
        parse_complex(text)
    assert str(err.value) == "line 10: face d_1 of '(0,2)' hits unknown identifier '(9)'"


# point.sset with two degen refusals, its 'dim' blocks moved or repeated: the
# one on the earlier line is reported, whatever the dimensions' order.
POINT_BAD_DEGEN = {
    "blocks moved": (
        "sset 1\ncap 2\n"
        "dim 2\n(0,0,0) | faces (0,0) (0,0) (0,0) | degen 1 (0,0)\n"
        "dim 0\n(0) | deg (0,0) | degen 0 (0)\n"
        "dim 1\n(0,0) | faces (0) (0) | deg (0,0,0) (0,0,0) | degen 0 (0)\n",
        "line 4: degen of (0,0,0) must be '0 (0,0)', its least degeneracy"),
    "header repeated": (
        "sset 1\ncap 2\n"
        "dim 1\n(0,0) | faces (0) (0) | deg (0,0,0) (0,0,0) | degen 0 (0)\n"
        "dim 2\n(0,0,0) | faces (0,0) (0,0) (0,0) | degen 1 (0,0)\n"
        "dim 0\n(0) | deg (0,0) | degen 0 (0)\n",
        "line 6: degen of (0,0,0) must be '0 (0,0)', its least degeneracy"),
}


@pytest.mark.parametrize("case", sorted(POINT_BAD_DEGEN))
def test_degen_refusals_come_in_line_order(case):
    text, message = POINT_BAD_DEGEN[case]
    for read in (parse_complex, oracles.reference_complex):
        with pytest.raises(StructureError) as err:
            read(text)
        assert str(err.value) == message


# Edits of delta2.sset that the constructor refuses: (old row, new rows,
# the message, which names the line of the row refused).
REFUSED_ROWS = {
    "unknown degeneracy": (
        "(0) | deg (0,0)\n", "(0) | deg (0,9)\n", "line 4: degeneracy s_0 of '(0)' hits unknown identifier '(0,9)'"),
    "duplicate identifier": (
        "(1,2) | faces (2) (1) | deg (1,1,2) (1,2,2)\n",
        "(1,2) | faces (2) (1) | deg (1,1,2) (1,2,2)\n# again\n(1,2) | faces (2) (1) | deg (1,1,2) (1,2,2)\n",
        "line 14: duplicate identifier in dimension 1"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ROWS))
def test_constructor_refusals_name_their_line(case, tmp_path):
    old, new, message = REFUSED_ROWS[case]
    text = fixture_text("delta2.sset")
    assert text.count(old) == 1
    text = text.replace(old, new)
    with pytest.raises(StructureError) as err:
        parse_complex(text)
    assert str(err.value) == message
    path = tmp_path / "refused.sset"
    path.write_text(text)
    code, out = run_cli("homology", str(path))
    assert code == 2
    assert "record error exact : %s\n" % message in out


@pytest.mark.parametrize("sid", ["x y", "u:v", "u;v", "(0)\t(1)", "a\xa0b"])
def test_identifiers_the_writer_refuses_are_refused_with_their_line(sid, tmp_path):
    with pytest.raises(ParameterError):
        render_id(sid)
    text = "sset 1\ncap 0\ndim 0\n(0)\n%s\n" % sid
    with pytest.raises(StructureError, match="^%s$" % re.escape("line 5: identifier %r cannot be serialized" % sid)):
        parse_complex(text)
    path = tmp_path / "identifier.sset"
    path.write_text(text)
    assert run_cli("homology", str(path))[0] == 2


@pytest.mark.parametrize("sid", ["#p", "\xa0p", "a\xa0b", "a\x0bb", "a\rb"])
def test_identifiers_the_reader_cannot_read_back_are_refused_at_write_time(sid):
    """A leading '#' makes a comment row, and the reader splits and strips
    rows on every whitespace character."""
    with pytest.raises(ParameterError, match="cannot be serialized"):
        render_id(sid)
    x = from_generators(1, {0: [(sid, ()), ("q", ())], 1: [("e", ("q", sid))]})
    with pytest.raises(ParameterError, match="cannot be serialized"):
        serialize_complex(x)


def test_unwritable_characters_are_the_separators_and_every_whitespace_character():
    whitespace = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    assert _UNWRITABLE == whitespace | set("|;:")


@pytest.mark.parametrize(
    "text, line",
    [
        ("sset 1\n", 2),
        ("sset 1\ncap\n", 2),
        ("sset 1\ncap x\n", 2),
        ("sset 1\ncap 0\ndim |\n", 3),
        ("sset 1\ncap 1\ndim\n(0) | deg (0,0)\n", 3),
        ("sset 1\ncap 1\ndim -1\n", 3),
        ("sset 1\ncap 0 0\ndim 0\n(0)\n", 2),
        ("sset 1\ncap 0\ndim 0 x\n(0)\n", 3),
        ("sset 1\ncap -1\n", 2),
    ],
)
def test_malformed_sset_header_names_its_line(text, line):
    with pytest.raises(StructureError, match="^line %d: " % line):
        parse_complex(text)


@pytest.mark.parametrize(
    "text",
    [
        "sset 1\ncap 0\n",
        "sset 1\ncap 3\n",
        fixture_text("point.sset").replace("dim 1\n(0,0) | faces (0) (0) | deg (0,0,0) (0,0,0) | degen 0 (0)\n", ""),
    ],
    ids=["no rows", "no rows below cap 3", "gap at dimension 1"],
)
def test_dimension_gap_below_the_cap_names_the_cap_line(text, tmp_path):
    with pytest.raises(StructureError, match="^line 2: cap \\d+ but no simplex of dimension"):
        parse_complex(text)
    path = tmp_path / "gap.sset"
    path.write_text(text)
    code, out = run_cli("homology", str(path))
    assert code == 2
    assert "status error" in out


def test_large_cap_without_rows_is_refused_at_once():
    started = time.process_time()
    for cap in (2000, 10**9):
        with pytest.raises(StructureError, match="^line 2: cap %d but no simplex of dimension 0" % cap):
            parse_complex("sset 1\ncap %d\n" % cap)
        # the source section's 'cap' row is line 4 of the file
        with pytest.raises(StructureError, match="^line 4: cap %d but no simplex of dimension 0" % cap):
            parse_map("smap 1\nsource\nsset 1\ncap %d\ntarget\nsset 1\ncap 0\n" % cap)
    assert time.process_time() - started < 1.0


def test_malformed_smap_dimension_names_its_line():
    text = serialize_map(identity_map(parse_complex(fixture_text("point.sset"))))
    line = text.splitlines().index("0 : (0) > (0)") + 1
    with pytest.raises(StructureError, match="^line %d: " % line):
        parse_map(text.replace("0 : (0) > (0)", "(0) : (0) > (0)"))


@pytest.mark.parametrize("section", ["source", "target"])
def test_smap_section_errors_count_file_lines(section):
    lines = fixture_text("proj_d1_nz2.smap").splitlines()
    line = lines.index("dim 0", lines.index(section)) + 1
    lines[line - 1] = "dim faces"
    with pytest.raises(StructureError, match="^line %d: expected an integer in 'dim faces'" % line):
        parse_map("\n".join(lines) + "\n")


def test_smap_repeated_section_header_names_its_line():
    lines = fixture_text("incl_bd2.smap").splitlines()
    line = lines.index("target") + 1
    lines.insert(line, "target")
    with pytest.raises(StructureError, match="^line %d: repeated section header" % (line + 1)):
        parse_map("\n".join(lines) + "\n")


@settings(max_examples=40)
@given(kan_maps())
def test_map_round_trip_keeps_every_image(p):
    """parse_map after serialize_map is the identity on maps, up to the
    rendering of identifiers: both ends read back with the same simplices in
    the same order, and every level sends each source simplex to the image
    p gives it."""
    q = parse_map(serialize_map(p))
    assert q.dim_cap == p.dim_cap
    for old, new in ((p.source, q.source), (p.target, q.target)):
        assert new.simplices == {n: tuple(map(render_id, old.simplices[n])) for n in old.dims()}
    for n in range(p.dim_cap + 1):
        xs = p.source.simplices[n]
        assert [q(n, render_id(s)) for s in xs] == [render_id(p(n, s)) for s in xs]


def test_smap_skips_blank_and_comment_lines_before_the_first_section():
    text = fixture_text("incl_bd2.smap")
    head, _, rest = text.partition("\n")
    spaced = parse_map(head + "\n\n# the inclusion bd(Delta^2) -> Delta^2\n  # indented\n" + rest)
    plain = parse_map(text)
    assert serialize_map(spaced) == serialize_map(plain)


@pytest.mark.parametrize("row, message", [
    ("0 : zz > (0)", "zz is not a source simplex of dimension 0"),
    ("1 : (0) > (0)", "\\(0\\) is not a source simplex of dimension 1"),
    ("-1 : (0) > (0)", "\\(0\\) is not a source simplex of dimension -1"),
    ("9 : (0) > (0)", "map row in dimension 9, above the map's cap 2"),
])
def test_smap_map_rows_off_the_source_name_their_line(row, message, tmp_path):
    text = fixture_text("incl_bd2.smap") + row + "\n"
    line = len(text.splitlines())
    with pytest.raises(StructureError, match="^line %d: %s$" % (line, message)):
        parse_map(text)
    path = tmp_path / "off_source.smap"
    path.write_text(text)
    code, out = run_cli("fibration", str(path))
    assert code == 2
    assert "status error" in out


@pytest.mark.parametrize("row, message", [
    ("0 : (0) > zz", "line 52: map f_0 of '\\(0\\)' hits unknown identifier 'zz'"),
    ("", "map f_0 undefined on '\\(0\\)'"),
])
def test_smap_image_refusals_name_the_line_of_their_row(row, message, tmp_path):
    # a source simplex without a row has no line to name
    lines = fixture_text("incl_bd2.smap").splitlines()
    assert lines[51] == "0 : (0) > (0)"
    lines[51] = row
    text = "\n".join(lines) + "\n"
    with pytest.raises(StructureError, match="^%s$" % message):
        parse_map(text)
    path = tmp_path / "image.smap"
    path.write_text(text)
    code, out = run_cli("fibration", str(path))
    assert code == 2
    assert "status error" in out


def test_smap_repeated_map_row_names_its_line(tmp_path):
    lines = fixture_text("incl_bd2.smap").splitlines()
    line = lines.index("1 : (0,1) > (0,1)") + 1
    lines.insert(line, "1 : (0,1) > (0,2)")
    text = "\n".join(lines) + "\n"
    with pytest.raises(StructureError, match="^line %d: repeated map row for \\(0,1\\) in dimension 1$" % (line + 1)):
        parse_map(text)
    path = tmp_path / "repeated.smap"
    path.write_text(text)
    code, out = run_cli("fibration", str(path))
    assert code == 2
    assert "status error" in out


def delta1_with_field(row, field):
    """delta1.sset with the field appended to the row (a line of the file,
    which names it once)."""
    text = fixture_text("delta1.sset")
    assert text.count(row + "\n") == 1
    return text.replace(row + "\n", row + " | " + field + "\n")


# Short rows, non-integer tokens and bad scalars in the .u1 and .ext readers
# and in the forms they carry, and fields given twice or out of place in an
# 'sset 1' row: (command, text, line of the error).
MALFORMED_ROWS = {
    "u1 short triangle": ("chern", "u1 1\ntriangle 012\n", 2),
    "u1 orientation": ("chern", "u1 1\ntriangle 012 or x\n", 2),
    "u1 short glue": ("chern", "u1 1\ntriangle 012 or 1\nglue 012 0 123\n", 3),
    "u1 glue flag": ("chern", "u1 1\nglue 012 0 123 2 flip no wind 0 : form 1 0 : \n", 2),
    "u1 scalar": ("chern", "u1 1\nA 012 : form 2 1 : 1/0 | 0 0 | 1\n", 2),
    "u1 form head": ("chern", "u1 1\n\nA 012 : form 2 : \n", 3),
    "ext n": ("extend", "extend 1\nn x\n", 2),
    "ext short face": ("extend", "extend 1\nn 2\nface 1 entry 0 : form 1 0 : \n", 3),
    "ext term": ("extend", "extend 1\nn 2\nface 1 entry 0 0 : form 1 0 : 1 | 1\n", 3),
    "ext exponent": ("extend", "extend 1\nn 2\nface 1 entry 0 0 : form 1 0 : 1 | a | \n", 3),
    "ext tau": ("extend", "extend 1\nn 2\nface 1 entry 0 0 : form 1 0 : 1*tau | 0 | \n", 3),
    "ext algebra": ("extend", "extend 1\nn 2\nalgebra so3\n", 3),
    "ext entry without algebra": (
        "extend", "extend 1\nn 2\nface 1 entry 0 0 : form 1 0 : \nface 1 entry 1 1 : form 1 0 : \n", 4),
    "ext entry outside matrix": (
        "extend", "extend 1\nn 2\nface 1 entry 2 0 : form 1 0 : \nalgebra gl2\n", 3),
    "ext entry not in algebra": (
        "extend", "extend 1\nn 2\nalgebra sl2\nface 1 entry 0 0 : form 1 0 : 1 | 1 | \n", 4),
    "ext repeated entry": (
        "extend", "extend 1\nn 2\nface 1 entry 0 0 : form 1 0 : 1 | 1 | \nface 1 entry 0 0 : form 1 0 : \n"
        "face 2 entry 0 0 : form 1 0 : \n", 4),
    "ext mixed form types": (
        "extend", "extend 1\nn 2\nalgebra gl2\nface 1 entry 0 0 : form 1 0 : \n"
        "face 1 entry 1 1 : form 1 1 : \n", 5),
    "u1 repeated A": (
        "chern", "u1 1\ntriangle 012 or 1\nA 012 : form 2 1 : \nA 012 : form 2 1 : 1 | 0 0 | 1\n", 4),
    "u1 repeated triangle": ("chern", "u1 1\ntriangle 012 or 1\n\ntriangle 012 or -1\n", 4),
    "ext repeated algebra": ("extend", "extend 1\nn 2\nalgebra sl2\nalgebra gl2\n", 4),
    "ext repeated n": ("extend", "extend 1\nn 2\n# again\nn 3\n", 4),
    "ext repeated missing": ("extend", "extend 1\nmissing 0\nn 2\nmissing 1\n", 4),
    "u1 A without triangle": (
        "chern", "u1 1\ntriangle 012 or 1\nA 012 : form 2 1 : \nA zz : form 2 1 : 1 | 0 0 | 1\n", 4),
    "sset repeated faces": (
        "homology", delta1_with_field("(0,1) | faces (1) (0) | deg (0,0,1) (0,1,1)", "faces (1) (0)"), 8),
    "sset repeated deg": (
        "homology", delta1_with_field("(0,1) | faces (1) (0) | deg (0,0,1) (0,1,1)", "deg (0,0,1) (0,1,1)"), 8),
    "sset repeated degen": (
        "homology", delta1_with_field("(0,0) | faces (0) (0) | deg (0,0,0) (0,0,0) | degen 0 (0)", "degen 0 (0)"), 7),
    "sset faces on a vertex": ("homology", delta1_with_field("(0) | deg (0,0)", "faces nowhere"), 4),
    "sset deg at the cap": (
        "homology", delta1_with_field("(1,1,1) | faces (1,1) (1,1) (1,1) | degen 0 (1,1)", "deg a b c"), 14),
}
# The single-valued rows among them, refused at their second row: (key,
# line of the first row).
REPEATED_ROWS = {
    "u1 repeated A": ("A 012", 3),
    "u1 repeated triangle": ("triangle 012", 2),
    "ext repeated algebra": ("algebra", 3),
    "ext repeated n": ("n", 2),
    "ext repeated missing": ("missing", 2),
}
# The repeated fields among them: the field's keyword.
REPEATED_FIELDS = {"sset repeated faces": "faces", "sset repeated deg": "deg", "sset repeated degen": "degen"}
# The fields out of place among them: the refusal, which the element-wise
# reference gives too.
MISPLACED_FIELDS = {
    "sset faces on a vertex": "simplex (0) of dimension 0 has a faces field",
    "sset deg at the cap": "simplex (1,1,1) of dimension 2, the cap, has a deg field",
}
READERS = {"chern": (parse_u1, "u1"), "extend": (parse_extend, "ext"), "homology": (parse_complex, "sset")}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_rows_name_their_line(case, tmp_path):
    command, text, line = MALFORMED_ROWS[case]
    parse, suffix = READERS[command]
    with pytest.raises(StructureError, match="^line %d: " % line):
        parse(text)
    path = tmp_path / ("malformed." + suffix)
    path.write_text(text)
    code, out = run_cli(command, str(path))
    assert code == 2
    assert "status error" in out
    if case in REPEATED_ROWS:
        message = "line %d: repeated '%s' row (first on line %d)" % ((line,) + REPEATED_ROWS[case])
        assert "record error exact : %s\n" % message in out
    if case in REPEATED_FIELDS:
        assert "record error exact : line %d: repeated '%s' field\n" % (line, REPEATED_FIELDS[case]) in out
    if case in MISPLACED_FIELDS:
        message = "line %d: %s" % (line, MISPLACED_FIELDS[case])
        assert "record error exact : %s\n" % message in out
        with pytest.raises(StructureError) as err:
            oracles.reference_complex(text)
        assert str(err.value) == message


# Short rows and non-integer tokens in the .site reader: (text, line of the error).
MALFORMED_SITE_ROWS = {
    "non-integer dimension": ("site 1\nobject U = x : a\n", 2),
    "bare object": ("site 1\nobject\n", 2),
    "bare cover": ("site 1\ncover\n", 2),
    "bare sections": ("site 1\npresheaf\nsections\n", 3),
    "short restrict": ("site 1\npresheaf\nrestrict X\n", 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SITE_ROWS))
def test_malformed_site_rows_name_their_line(case, tmp_path):
    text, line = MALFORMED_SITE_ROWS[case]
    with pytest.raises(StructureError, match="^line %d: " % line):
        parse_site_presheaf(text, parse_complex(fixture_text("two_points.sset")))
    path = tmp_path / "malformed.site"
    path.write_text(text)
    code, out = run_cli("sheaf", fixture_path("two_points.sset"), str(path))
    assert code == 2
    assert "status error" in out


# Repeated names in site_two_points_constant.site: (old line, new line or
# lines, line and message of the error).
REPEATED_SITE_NAMES = {
    "section": ("sections X : a b", "sections X : a b a", 9, "repeated section in 'X'"),
    "restrict source": (
        "restrict X U0 : a>a b>b", "restrict X U0 : a>a b>b a>b", 10,
        "repeated source in restriction 'X' -> 'U0'"),
    "object row": (
        "object U0 = 0 : (0) ; 1 : (0,0)", "object U0 = 0 : (0) ; 1 : (0,0)\nobject U0 = 0 : (0)", 3,
        "repeated 'object U0' row \\(first on line 2\\)"),
    "sections row": ("sections U0 : a b", "sections U0 : a b\nsections U0 : a", 8,
                     "repeated 'sections U0' row \\(first on line 7\\)"),
    "restrict row": (
        "restrict X U0 : a>a b>b", "restrict X U0 : a>a b>b\nrestrict X U0 : a>b b>a", 11,
        "repeated 'restrict X U0' row \\(first on line 10\\)"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_SITE_NAMES))
def test_repeated_site_names_are_refused(case, tmp_path):
    old, new, line, message = REPEATED_SITE_NAMES[case]
    text = fixture_text("site_two_points_constant.site")
    assert old + "\n" in text
    text = text.replace(old + "\n", new + "\n", 1)
    with pytest.raises(StructureError, match="^line %d: %s$" % (line, message)):
        parse_site_presheaf(text, parse_complex(fixture_text("two_points.sset")))
    path = tmp_path / "repeated.site"
    path.write_text(text)
    code, out = run_cli("sheaf", fixture_path("two_points.sset"), str(path))
    assert code == 2
    assert "status error" in out


# Rows appended to site_two_points_constant.site that name no object or no
# arrow of its site: (row, message of the error on the appended line).
OFF_SITE_ROWS = {
    "sections of no object": ("sections ZZ : q", "sections of 'ZZ', which is not an object of the site"),
    "restrict upward": ("restrict U0 X : a>a b>b", "restriction 'U0' -> 'X' is not an arrow of the site"),
    "restrict incomparable": ("restrict U0 U1 : a>a b>b", "restriction 'U0' -> 'U1' is not an arrow of the site"),
    "restrict to itself": ("restrict X X : a>a b>b", "restriction 'X' -> 'X' is not an arrow of the site"),
}


@pytest.mark.parametrize("case", sorted(OFF_SITE_ROWS))
def test_site_rows_off_the_site_name_their_line(case, tmp_path):
    row, message = OFF_SITE_ROWS[case]
    text = fixture_text("site_two_points_constant.site") + row + "\n"
    line = len(text.splitlines())
    with pytest.raises(StructureError, match="^line %d: %s$" % (line, message)):
        parse_site_presheaf(text, parse_complex(fixture_text("two_points.sset")))
    path = tmp_path / "off_site.site"
    path.write_text(text)
    code, out = run_cli("sheaf", fixture_path("two_points.sset"), str(path))
    assert code == 2
    assert "record error exact : line %d: " % line in out


def test_site_object_without_sections_is_rejected(tmp_path):
    text = fixture_text("site_two_points_constant.site").replace("sections X : a b\n", "")
    with pytest.raises(StructureError, match="no section set for 'X'"):
        parse_site_presheaf(text, parse_complex(fixture_text("two_points.sset")))
    path = tmp_path / "sectionless.site"
    path.write_text(text)
    code, _ = run_cli("sheaf", fixture_path("two_points.sset"), str(path))
    assert code == 2


def test_field_forms_off_the_nondegenerate_simplices_are_refused():
    delta1 = parse_complex(fixture_text("delta1.sset"))
    form = PolyForm(1, 0, {((0,), ()): 1})  # the constant 1 on an edge
    for sid in ("zz", "(0,0)"):  # unknown, degenerate
        with pytest.raises(ParameterError) as err:
            FormField(delta1, 0, {(1, sid): form})
        assert str(err.value) == "form on unknown or degenerate simplex %r" % ((1, sid),)


def test_form_errors_name_the_given_line():
    with pytest.raises(StructureError, match="^line 1: "):
        parse_form("form 1")
    with pytest.raises(StructureError, match="^line 7: "):
        parse_form("form 1 0 : 1/0 | 0 | ", 7)


def test_extend_faces_of_different_degrees_are_rejected(tmp_path):
    path = tmp_path / "degrees.ext"
    path.write_text("extend 1\nn 2\nface 1 entry 0 0 : form 1 0 : 1 | 1 | \n"
                    "face 2 entry 0 0 : form 1 1 : \n")
    code, out = run_cli("extend", str(path))
    assert code == 2
    assert "wrong degree" in out


def test_form_round_trip_with_tau():
    f = PolyForm(2, 1, {((1, 0), (1,)): QTau(1, 2), ((0, 0), (2,)): QTau(0, -1)})
    assert parse_form(render_form(f)) == f


# -- CLI ------------------------------------------------------------------------


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def strip_timing(text):
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("timing-ms"))


def test_cli_homology_bd3():
    code, out = run_cli("homology", fixture_path("bd_delta3.sset"))
    assert code == 0
    assert "record betti exact : (1, 0, 1)" in out


def test_cli_homology_rp2_torsion():
    code, out = run_cli("homology", fixture_path("rp2.sset"))
    assert code == 0
    assert "record torsion.H1 exact : (2)" in out


def test_cli_kan_negative_with_witness():
    code, out = run_cli("kan", fixture_path("delta1.sset"))
    assert code == 1
    assert "record fibrant_up_to_cap exact : False" in out
    assert "witness" in out


def test_cli_kan_positive():
    code, out = run_cli("kan", fixture_path("nerve_z2.sset"))
    assert code == 0
    assert "record fibrant_up_to_cap exact : True" in out


def test_cli_corrupt_input_exit_2():
    code, out = run_cli("homology", fixture_path("corrupt_dangling.sset"))
    assert code == 2
    assert "v1" in out
    assert "status error" in out


# Every command that reads a file, with the file that gets non-UTF-8 bytes
# marked BAD.
NON_UTF8_ARGV = [
    ["homology", "BAD"],
    ["ring", "BAD"],
    ["mv", "BAD", "circle2.cover"],
    ["mv", "circle2.sset", "BAD"],
    ["sheaf", "BAD", "site_two_points_constant.site"],
    ["sheaf", "two_points.sset", "BAD"],
    ["derham", "BAD", "--poly-degree", "1"],
    ["kan", "BAD"],
    ["fibration", "BAD"],
    ["chern", "BAD"],
    ["extend", "BAD"],
]


@pytest.mark.parametrize("argv", NON_UTF8_ARGV, ids=" ".join)
def test_cli_non_utf8_input_exit_2(argv, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"sset 1\ncap 0\ndim 0\n\xff\xfe\n")
    argv = [str(bad) if a == "BAD" else fixture_path(a) if "." in a else a for a in argv]
    code, out = run_cli(*argv)
    assert code == 2
    assert "record error exact : %s is not UTF-8 text: " % bad in out
    assert "input bad.txt sha256 " in out
    assert "status error" in out


def test_cli_unknown_command_exit_2():
    code, _ = run_cli("transmogrify", "x")
    assert code == 2


def test_cli_mv_circle():
    code, out = run_cli("mv", fixture_path("circle2.sset"), fixture_path("circle2.cover"))
    assert code == 0
    assert "record connecting.rank.deg0 exact : 1" in out


def test_cli_mv_refuses_cover_members_off_the_cap(tmp_path):
    """Members in dimensions outside 0..cap are no simplices of the set, so
    the cover is refused with exit 2, as a member unknown at dimension 1 is."""
    for extra, named in (("A 7 : nonsense\nB -1 : junk\n", "('unknown', 7, 'nonsense')"),
                         ("B -1 : junk\n", "('unknown', -1, 'junk')"),
                         ("A 1 : zz\n", "('unknown', 1, 'zz')")):
        path = tmp_path / "bad.cover"
        path.write_text(fixture_text("circle2.cover") + extra)
        code, out = run_cli("mv", fixture_path("circle2.sset"), str(path))
        assert code == 2
        assert "status error" in out and named in out


# The records of mv below each cover's own cap, as the reports gave them
# before members off the cap were refused: a cover is written at its set's
# cap, and its members above a lowered cap are simplices the lowered set
# no longer has.
MV_LOWERED_CAPS = {
    ("circle2.sset", "circle2.cover", 0): ["betti.X exact : (2)", "betti.A exact : (2)",
                                            "betti.B exact : (2)", "betti.AB exact : (2)"],
    ("circle2.sset", "circle2.cover", 1): ["betti.X exact : (1, 1)", "betti.A exact : (1, 0)",
                                            "betti.B exact : (1, 0)", "betti.AB exact : (2, 0)",
                                            "connecting.rank.deg0 exact : 1"],
    ("bd_delta3.sset", "bd_delta3_star.cover", 0): ["betti.X exact : (4)", "betti.A exact : (4)",
                                                     "betti.B exact : (3)", "betti.AB exact : (3)"],
    ("bd_delta3.sset", "bd_delta3_star.cover", 1): ["betti.X exact : (1, 3)", "betti.A exact : (1, 3)",
                                                     "betti.B exact : (1, 1)", "betti.AB exact : (1, 1)",
                                                     "connecting.rank.deg0 exact : 0"],
}


@pytest.mark.parametrize("sset,cover,cap", sorted(MV_LOWERED_CAPS))
def test_cli_mv_lowers_the_cover_with_the_cap(sset, cover, cap):
    code, out = run_cli("mv", fixture_path(sset), fixture_path(cover), "--cap", str(cap))
    records = [ln[len("record "):] for ln in out.splitlines() if ln.startswith("record ")]
    exact = ["exact.%s.deg%d exact : ok" % (label, p) for p in range(cap + 1) for label in ("H(X)", "H(A)+H(B)", "H(AnB)")]
    assert code == 0
    assert records == MV_LOWERED_CAPS[(sset, cover, cap)] + exact


def test_cli_mv_still_refuses_unknown_members_under_a_lowered_cap(tmp_path):
    path = tmp_path / "bad.cover"
    path.write_text(fixture_text("circle2.cover") + "A 7 : nonsense\n")
    code, out = run_cli("mv", fixture_path("circle2.sset"), str(path), "--cap", "1")
    assert code == 2
    assert "status error" in out and "('unknown', 7, 'nonsense')" in out


def test_cli_sheaf_negative_then_sheafify():
    code, out = run_cli(
        "sheaf", fixture_path("two_points.sset"), fixture_path("site_two_points_constant.site")
    )
    assert code == 1
    assert "record sheaf exact : False" in out
    code, out = run_cli(
        "sheaf", fixture_path("two_points.sset"), fixture_path("site_two_points_constant.site"),
        "--op", "sheafify",
    )
    assert code == 0
    assert "record sheafify.is_sheaf exact : True" in out


def test_cli_fibration_witness():
    code, out = run_cli("fibration", fixture_path("incl_bd2.smap"))
    assert code == 1
    assert "record fibration_up_to_cap exact : False" in out
    code, out = run_cli("fibration", fixture_path("proj_d1_nz2.smap"))
    assert code == 0


def broken_identity_map(map_rows=None):
    """The identity of corrupt_identity.sset as an 'smap 1' text: its map
    rows are those of the identity of delta2.sset, or map_rows."""
    text = serialize_map(identity_map(parse_complex(fixture_text("delta2.sset"))))
    broken = fixture_text("corrupt_identity.sset")
    rows = text[text.index("map\n"):] if map_rows is None else map_rows
    return "smap 1\nsource\n%starget\n%s%s" % (broken, broken, rows)


def test_cli_fibration_rejects_source_and_target_failing_identities(tmp_path):
    path = tmp_path / "broken.smap"
    path.write_text(broken_identity_map())
    code, out = run_cli("fibration", str(path))
    assert code == 2
    assert "status error" in out
    assert "simplicial identities fail" in out
    assert "fibration_up_to_cap" not in out


def test_an_identity_fault_is_named_before_a_later_fault():
    """The set's constructor refuses broken identities before the reader
    compares the degen fields, and before parse_map reads the map rows."""
    broken = fixture_text("corrupt_identity.sset")
    refusal = "^simplicial identities fail: "
    wrong_degen = broken.replace("(0,0,1) | faces (0,1) (0,1) (0,0) | degen 0 (0,1)",
                                 "(0,0,1) | faces (0,1) (0,1) (0,0) | degen 1 (0,1)")
    assert wrong_degen != broken
    with pytest.raises(StructureError, match="^line 16: degen of"):
        parse_complex(wrong_degen.replace("(0,2) (1,2) (0,1)", "(1,2) (0,2) (0,1)"))
    with pytest.raises(StructureError, match=refusal):
        parse_complex(wrong_degen)
    with pytest.raises(StructureError, match=refusal):
        parse_map(broken_identity_map("map\n0 : (0) > nonsense\n"))


def test_cli_cap_does_not_hide_an_identity_fault_above_it():
    """The file is the input, so it is checked at its own cap: lowering the
    cap below the broken 2-simplex still refuses it."""
    for cap in ("0", "1", "2"):
        code, out = run_cli("homology", fixture_path("corrupt_identity.sset"), "--cap", cap)
        assert code == 2
        assert "simplicial identities fail" in out


def test_cli_parser_reused_across_calls_gives_fresh_parser_results(monkeypatch):
    runs = [
        ("homology", fixture_path("rp2.sset")),
        ("kan", fixture_path("delta1.sset")),
        ("kan", "--cap"),
    ]
    reused = []
    for argv in runs:
        code, out = run_cli(*argv)
        reused.append((code, strip_timing(out)))
    fresh = []
    for argv in runs:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        code, out = run_cli(*argv)
        fresh.append((code, strip_timing(out)))
    assert [code for code, _ in reused] == [0, 1, 2]
    assert reused == fresh


def test_cli_chern():
    code, out = run_cli("chern", fixture_path("u1_trivial.u1"))
    assert code == 0 and "record degree exact : 0" in out
    code, out = run_cli("chern", fixture_path("u1_unit.u1"))
    assert code == 0 and "record degree exact : 1" in out


def test_cli_extend_and_witness():
    code, out = run_cli("extend", fixture_path("extend_n2.ext"))
    assert code == 0
    assert "record restrictions_verified exact : True" in out
    code, out = run_cli("extend", fixture_path("extend_horn.ext"))
    assert code == 0
    code, out = run_cli("extend", fixture_path("extend_bad.ext"))
    assert code == 1
    assert "witness" in out


def test_cli_empty_horn_is_a_usage_error(tmp_path):
    path = tmp_path / "empty.ext"
    path.write_text("extend 1\nn 0\nmissing 0\n")
    code, out = run_cli("extend", str(path))
    assert code == 2
    assert "record error exact : no face data" in out


def test_cli_horn_witness_golden():
    """A horn missing d_2 whose faces d_0 and d_1 disagree: the witness names
    those two given faces, not faces of a transposed frame."""
    code, out = run_cli("extend", fixture_path("extend_horn_bad.ext"))
    assert code == 1
    assert out.splitlines()[2:6] == [
        "input extend_horn_bad.ext sha256 bb85164fd4d978a02e8e07e6ae1fa72e19643433b458cf69adcffe8a65185fd1",
        "record error exact : face data disagree on the intersection of faces 0 and 1",
        "record witness exact : (0, 1, ((), ()))",
        "status negative",
    ]


def test_cli_off_matrix_entry_golden():
    """Without an algebra a face is its entry 0 0; entry 0 1 is refused with
    its line rather than dropped."""
    code, out = run_cli("extend", fixture_path("extend_offmatrix.ext"))
    assert code == 2
    assert out.splitlines()[2:5] == [
        "input extend_offmatrix.ext sha256 f4a94b022f9fa6624f101634391387825f9d9e693d7bdf4aae2db01bcbf94bd4",
        "record error exact : line 4: entry 0 1 is outside the 1x1 matrix of algebra none",
        "status error",
    ]


def test_cli_tau_extension_golden():
    """A tau scalar off the sl2 diagonal lies in the algebra and extends."""
    code, out = run_cli("extend", fixture_path("extend_tau.ext"))
    assert code == 0
    assert out.splitlines()[2:9] == [
        "input extend_tau.ext sha256 7f42ed5452636757d4940ce11b9451b07bb0de384909683d00eeb06a01e079c7",
        "record n exact : 2",
        "record missing exact : none",
        "record algebra exact : 2x2 traceless",
        "record extension.entry.0.1 exact : form 2 0 : 0+1*tau | 0 1 | ",
        "record restrictions_verified exact : True",
        "status ok",
    ]


def test_cli_tau_disagreement_golden():
    """Tau data that disagree at the common vertex of faces 1 and 2 are a
    verified negative with a witness."""
    code, out = run_cli("extend", fixture_path("extend_tau_bad.ext"))
    assert code == 1
    assert out.splitlines()[2:6] == [
        "input extend_tau_bad.ext sha256 d19251d70b02b99d06b66d92696bf850452120256fcc4949a2cd1b5120b2026d",
        "record error exact : face data disagree on the intersection of faces 1 and 2",
        "record witness exact : (1, 2, ((), ()))",
        "status negative",
    ]


def test_cli_tau_on_the_sl2_diagonal_is_not_in_the_algebra(tmp_path):
    path = tmp_path / "diagonal.ext"
    path.write_text(fixture_text("extend_tau.ext").replace("entry 0 1", "entry 0 0"))
    code, out = run_cli("extend", str(path))
    assert code == 2
    assert "record error exact : line 4: face 1 is not in algebra sl2" in out


def test_cli_subdivide_and_stokes_exact_flags():
    code, out = run_cli("subdivide-check", "--trials", "5")
    assert code == 0
    assert "numeric" not in out
    code, out = run_cli("derham", "--check-stokes", "--trials", "20")
    assert code == 0
    assert "exact : pass" in out


@pytest.mark.parametrize("trials", ["-1", "0"])
@pytest.mark.parametrize("command", [["subdivide-check"], ["derham", "--check-stokes"]])
def test_cli_suites_refuse_fewer_than_one_trial(command, trials):
    code, out = run_cli(*command, "--trials", trials)
    assert code == 2
    assert "record error exact : trials must be >= 1" in out
    assert "status error" in out
    assert "pass" not in out


def test_cli_derham_report():
    code, out = run_cli("derham", fixture_path("delta2.sset"), "--poly-degree", "3")
    assert code == 0
    assert "record betti exact : (1, 0, 0)" in out
    assert "record isomorphism exact : (True, True, True)" in out


def test_cli_json_format():
    code, out = run_cli("--format", "json", "homology", fixture_path("point.sset"))
    assert code == 0
    import json

    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert any(r["name"] == "betti" for r in payload["records"])


DETERMINISM_RUNS = [
    ("homology", "bd_delta3.sset"),
    ("homology", "rp2.sset"),
    ("homology", "torus.sset"),
    ("ring", "torus.sset"),
    ("kan", "nerve_z2.sset"),
    ("kan", "delta1.sset"),
    ("chern", "u1_unit.u1"),
    ("extend", "extend_n2.ext"),
]


@pytest.mark.parametrize("command,fixture", DETERMINISM_RUNS)
def test_cli_determinism(command, fixture):
    _, first = run_cli(command, fixture_path(fixture))
    _, second = run_cli(command, fixture_path(fixture))
    assert strip_timing(first) == strip_timing(second)


# SHA-256 of the ring report of every fixture set and the mv report of both
# covers, without the timing, command and input lines, recorded while
# cochains were still dense tuples of Fractions; and of the derham report of
# every fixture set at poly degree 1 and 2, recorded while the Whitney forms
# still took a cochain keyed by simplex identifier. The reports of
# corrupt_identity.sset, homology included, were recorded while the command
# line, not the SimplicialSet constructor, checked the identities.
GOLDEN_REPORTS = {
    ("derham", "bd_delta3.sset", 1): "232806c3b92b8fa28e8fbe6ddf65b05b20eb55ef4d174b3550e53e8084b34978",
    ("derham", "bd_delta3.sset", 2): "db2de326aa479790fc7f9570ea72926b6727aff940a6dd7ceb27a3c258bd1f0c",
    ("derham", "circle2.sset", 1): "d5a5263b2ae89b44cd7c1f785896b454ff5de4e947f3874632361935e24d48b1",
    ("derham", "circle2.sset", 2): "fa8e8d8386aabecd6c5d1a0e3d5b1aac218ffadb715d7d63aa676d4d70499862",
    ("derham", "corrupt_dangling.sset", 1): "49b4bfabb10e3cff4884b89c9b0b92c5ccc4c58394cc06450c16a9ae1a50f4b9",
    ("derham", "corrupt_dangling.sset", 2): "49b4bfabb10e3cff4884b89c9b0b92c5ccc4c58394cc06450c16a9ae1a50f4b9",
    ("derham", "corrupt_identity.sset", 1): "4ee0e863d0884e23c2d8bcb5497aad982fcce32362ef2ea1efa3e9dabb4654e5",
    ("derham", "corrupt_identity.sset", 2): "4ee0e863d0884e23c2d8bcb5497aad982fcce32362ef2ea1efa3e9dabb4654e5",
    ("derham", "delta1.sset", 1): "0bde41ff7d0064c4830ccc811be4fb8d0e7cd07c3613afb5d61f19d76a693f66",
    ("derham", "delta1.sset", 2): "90813807560bfd1beb15cd63c4de92020db61fb2cf591f07b32cb45b4badd812",
    ("derham", "delta2.sset", 1): "41af4c50110ce964f7eccb699b3c5e9d3bb4714859d38916c6ab8325baaf78b2",
    ("derham", "delta2.sset", 2): "7e9a16f5f78c2555b5739ffa6aa7bec8e6bb6142d15bdfa45111c3e45c8f1952",
    ("derham", "nerve_z2.sset", 1): "7b46c707484469ef445c4cd8beabfcf94bd4fef63b721e93d2e4b1670d0dff7b",
    ("derham", "nerve_z2.sset", 2): "bd5be1f27474b5d5d0a162076a73752f61c2ded8488814f9c9ef3d24db8418ba",
    ("derham", "nerve_z3.sset", 1): "73f46643e08cd7fb7fb696a40ef4705a5d2875df5e483a9527750334e894017d",
    ("derham", "nerve_z3.sset", 2): "010d6281623f6a7220379fefbc88440eb7f2d1380047bd5d2302f85a87b879b3",
    ("derham", "path.sset", 1): "db7a469c6d718eca91630599a2421d92d2761ecfb8c6b5c8a995c30da329eedf",
    ("derham", "path.sset", 2): "d6669419b0303351aa3b3acfac363897302f61fc80e7e0fabe4ea551476fb33f",
    ("derham", "point.sset", 1): "38a2b4c7486d562ddc6b7c78f533dbdd58e2c8b4cb7651fe246877b96642843a",
    ("derham", "point.sset", 2): "1f4f8afd6c8a964e887b3a9b926e498a4855a6f69c39f0d9e54160383d41d81b",
    ("derham", "rp2.sset", 1): "5885149f0c5fe4f66a299032fde18299069e98d41408bd34cd1c97b9f1e7ec0e",
    ("derham", "rp2.sset", 2): "88fe89957f05581cf895b0bb8c731b26991af73089d209ce60e60247536c73b8",
    ("derham", "sphere2.sset", 1): "cc03eca6b263185aa607fa0e4913cb07579d5308bc7ad6093705ecca2838691c",
    ("derham", "sphere2.sset", 2): "4d1934b6f84285c85929b2aee43cfbbc561a4df31a5b83fad6db6e85ac7128b8",
    ("derham", "torus.sset", 1): "c9b9cacd4f70b9e11bc8c1778fb0fde50ff68fb86a0830ee1eacc2c99296b7dc",
    ("derham", "torus.sset", 2): "120df8fa4b13b2c8e072f902dd91e9e58dc9e1167a199b2887c4ee3e918abf7a",
    ("derham", "two_points.sset", 1): "3d50fe9facb2af7eebb3fdae258d7c9069ab1ffb992a9cf5a1c85b0bbbbab5e4",
    ("derham", "two_points.sset", 2): "17e4675bd93b9c29566530199ad9644dfae3d168308226fc20a097d53944e0fb",
    ("ring", "bd_delta3.sset"): "1ff68fe66b8525e17e45075098d4396200208bcf061b08d1b3701500efdd13cd",
    ("ring", "circle2.sset"): "300ad80df788b5d0194951f8f408c9ccbc086210d4fb586d6ce692ff8304bfff",
    ("ring", "corrupt_dangling.sset"): "49b4bfabb10e3cff4884b89c9b0b92c5ccc4c58394cc06450c16a9ae1a50f4b9",
    ("ring", "corrupt_identity.sset"): "4ee0e863d0884e23c2d8bcb5497aad982fcce32362ef2ea1efa3e9dabb4654e5",
    ("ring", "delta1.sset"): "d43d962b813f1e92dcb7615fabf5ed4f201de52c497650b62b94131f113c3aa5",
    ("ring", "delta2.sset"): "d43d962b813f1e92dcb7615fabf5ed4f201de52c497650b62b94131f113c3aa5",
    ("ring", "nerve_z2.sset"): "287e73a5f64f9bd33048b31a47120fc52cbcefda4067e04a1f733f65848eb30d",
    ("ring", "nerve_z3.sset"): "cfd475678b6063a4308b14187d29484e2bc6c10a50cafed87eafe41c349af7bf",
    ("ring", "path.sset"): "fc5ed6df351340c420c6868f4692045b97e281325b2560370839a97bbd248c63",
    ("ring", "point.sset"): "d43d962b813f1e92dcb7615fabf5ed4f201de52c497650b62b94131f113c3aa5",
    ("ring", "rp2.sset"): "82ac9d78cbf4a6258ec08cbf4aec7acabc435b279ee64b1c0c375a0ae60dcc38",
    ("ring", "sphere2.sset"): "1ff68fe66b8525e17e45075098d4396200208bcf061b08d1b3701500efdd13cd",
    ("ring", "torus.sset"): "8f6dbfc46cd04569c379e0bb66f5b10b3aa86a038f95aa04251a1e0471b89903",
    ("ring", "two_points.sset"): "1eb0954e237bfe18121c9371cd0a3c6f75db7c8094dca6d645774e6b0d365b3f",
    ("homology", "corrupt_identity.sset"): "4ee0e863d0884e23c2d8bcb5497aad982fcce32362ef2ea1efa3e9dabb4654e5",
    ("mv", "bd_delta3.sset", "bd_delta3_star.cover"):
        "a062d4891ca257e4713f9df53d0c2442a15df3208d9588f2cab8a677deddfffd",
    ("mv", "circle2.sset", "circle2.cover"):
        "5fcec670f4cf37b3ac8e7bae524947563b78df1585ca41c2d2218726ca8f59eb",
}


def test_golden_reports_cover_every_fixture_set():
    sets = sorted(name for name in os.listdir(FIXTURES) if name.endswith(".sset"))
    assert sorted(run[1] for run in GOLDEN_REPORTS if run[0] == "ring") == sets
    for degree in (1, 2):
        assert sorted(run[1] for run in GOLDEN_REPORTS if run[0] == "derham" and run[2] == degree) == sets


@pytest.mark.parametrize("run", sorted(GOLDEN_REPORTS))
def test_ring_and_mv_reports_keep_their_digests(run):
    command, *files = run
    if command == "derham":
        name, degree = files
        _, out = run_cli(command, fixture_path(name), "--poly-degree", str(degree))
    else:
        _, out = run_cli(command, *(fixture_path(name) for name in files))
    kept = [ln for ln in out.splitlines() if not ln.startswith(("timing-ms", "command:", "input "))]
    assert hashlib.sha256("\n".join(kept).encode()).hexdigest() == GOLDEN_REPORTS[run]


@settings(max_examples=30)
@given(two_part_covers(as_strings=True))
def test_cover_round_trip_on_random_covers(cover):
    """parse_cover inverts serialize_cover on random two-part covers: the
    parts come back with their empty dimensions dropped, and writing them
    again gives the same text."""
    _, a, b = cover
    text = serialize_cover(a, b)
    parsed = parse_cover(text)
    assert parsed == tuple({n: m for n, m in part.items() if m} for part in (a, b))
    assert serialize_cover(*parsed) == text


def test_golden_subdivision_chains():
    # S and T of the standard 2-simplex against the Fraction-point references
    triangle = AffineChain.of(standard_affine_simplex(2))
    reference = oracles.reference_chain(triangle)
    assert oracles.reference_chain(subdivide(triangle)) == oracles.reference_subdivide(reference)
    assert oracles.reference_chain(homotopy(triangle)) == oracles.reference_homotopy(reference)


def test_report_numeric_flag_and_digest():
    from ssetkit.reporting import Report

    r = Report(command="demo")
    r.add("bump.at_quarter", 6.14421235332821e-06)
    r.add("exact.value", 1)
    text = r.render_text()
    assert "record bump.at_quarter exact : %.17g" % 6.14421235332821e-06 in text
    assert "record exact.value exact : 1" in text
    assert "numeric" not in text + r.render_json()
    r.timing_ms = 5
    with_timing = r.render_text()
    assert r.digest() == Report(command="demo", records=r.records).digest()
    assert "timing-ms 5" in with_timing
