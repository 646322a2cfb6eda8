"""Line-oriented text formats for the objects the command line reads:
'sset 1', 'cover 1', 'smap 1', 'site 1', 'u1 1' and 'extend 1', and the
'form n p' rows inside the last two.

All formats are versioned with a header word, human-writable, and parse
back into the structures they came from; serializing a parsed file
reproduces it byte for byte. Identifiers are flattened to strings on
serialization (tuples render as "(a,b)"), so parsed objects use string
identifiers throughout.

Every reader takes its rows from one _RowReader: a format's header is its
line 1, its fixed header lines (the 'cap N' of 'sset 1') follow at once, and
after them blank and '#' rows are skipped. Errors name their file line.

The 'sset 1' reader keeps, per dimension, the identifiers, their lines and
the word lists of their faces and deg fields in row order, and hands each
face and degeneracy map to the SimplicialSet constructor as one column of
those lists; it checks the degen fields of all rows with one set comparison.

The forms, connections and sheaves modules are imported inside the readers
and writers of the formats that hold their objects, so reading an 'sset 1'
file loads none of them.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction

from .errors import ParameterError, StructureError
from .simplicial import SimplicialMap, SimplicialSet


# No identifier may hold a field separator or a str.isspace() character, as the
# reader splits rows into lines and words and strips them: the writer and the
# 'sset 1' reader refuse them. A leading '#' (a comment row) is refused on write.
_UNWRITABLE = frozenset("|;: \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000").union(
    map(chr, range(0x2000, 0x200B)))


def render_id(value):
    if isinstance(value, tuple):
        return "(" + ",".join(render_id(v) for v in value) + ")"
    text = str(value)
    if not text or text[0] == "#" or not _UNWRITABLE.isdisjoint(text):
        raise ParameterError("identifier %r cannot be serialized" % (value,))
    return text


# -- the row reader ------------------------------------------------------------


class _RowReader:
    """A text as its stripped lines, line k at index k - 1; the sections of
    an 'smap 1' file are read as slices of the file's reader."""

    def __init__(self, text):
        self.lines = list(map(str.strip, text.splitlines()))

    def rows(self, header, *fixed, start=0, stop=None):
        """Check in place the header lines of the format on line indices
        start to stop - 1: header first, then one line per fixed pattern, a
        keyword and integers such as 'cap N'. A missing, blank, comment or
        malformed header line is an error naming it. Returns those integers
        and the (line number, row) pairs of the rows after them, blank and
        '#' rows skipped."""
        lines = self.lines
        stop = len(lines) if stop is None else stop
        if (lines[start] if start < stop else "") != header:
            raise StructureError("line %d: expected header %r" % (start + 1, header))
        at = start + 1
        values = []
        for pattern in fixed:
            words, keyword = (lines[at].split() if at < stop else []), pattern.split()
            if words[:1] != keyword[:1] or len(words) > len(keyword):
                raise StructureError("line %d: expected %r" % (at + 1, pattern))
            values.extend(_int_token(words, k, at + 1) for k in range(1, len(keyword)))
            at += 1
        rows = enumerate(lines[at:stop], start=at + 1)
        return values, [(ln, line) for ln, line in rows if line and line[0] != "#"]


def _once(seen, key, ln):
    """Note in seen that the single-valued row key is on line ln; a second
    such row is an error naming both lines."""
    if key in seen:
        raise StructureError("line %d: repeated '%s' row (first on line %d)" % (ln, key, seen[key]))
    seen[key] = ln


def _int_token(words, k, ln):
    """words[k] as an int, or StructureError naming the (1-based) line ln."""
    try:
        return int(words[k])
    except (IndexError, ValueError):
        raise StructureError("line %d: expected an integer in %r" % (ln, " ".join(words)))


@contextlib.contextmanager
def _refused_row(line_of):
    """Prefix a constructor's StructureError with the line of the row it
    refused, line_of(its offending key); an error without that key, or whose
    key no row gave (a simplex a map has no row for), passes unchanged."""
    try:
        yield
    except StructureError as exc:
        ln = line_of(exc.offending) if hasattr(exc, "offending") else None
        if ln is None:
            raise
        raise StructureError("line %d: %s" % (ln, exc)) from None


@contextlib.contextmanager
def _row(ln, line):
    """Report a row whose tokens are missing or do not convert (a short row,
    a non-integer where an integer belongs, a scalar like 1/0) as a
    StructureError naming its (1-based) line ln."""
    try:
        yield
    except (IndexError, ValueError, ZeroDivisionError):
        raise StructureError("line %d: malformed row %r" % (ln, line)) from None


# -- simplicial sets --------------------------------------------------------


def serialize_complex(x):
    # every face, degeneracy and witness is a listed simplex of the adjacent
    # dimension, so each identifier is rendered once, kept by stored position
    names = {n: [render_id(s) for s in x.simplices[n]] for n in x.dims()}
    lines = ["sset 1", "cap %d" % x.dim_cap]
    for n in x.dims():
        lines.append("dim %d" % n)
        below, above = names.get(n - 1), names.get(n + 1)
        faces = [x._dpos[(n, i)] for i in range(n + 1) if n >= 1]
        degs = [x._spos[(n, i)] for i in range(n + 1) if n < x.dim_cap]
        for p, s in enumerate(x.simplices[n]):
            fields = [names[n][p]]
            if faces:
                fields.append("faces " + " ".join([below[face[p]] for face in faces]))
            if degs:
                fields.append("deg " + " ".join([above[deg[p]] for deg in degs]))
            if x.is_degenerate(n, s):
                j, base = x.witness[(n, s)]
                fields.append("degen %d %s" % (j, below[x._index[n - 1][base]]))
            lines.append(" | ".join(fields))
    return "\n".join(lines) + "\n"


def parse_complex(text):
    return _complex(_RowReader(text))


def _complex(reader, start=0, stop=None):
    """The 'sset 1' text of reader that starts at line index start and ends
    before stop, each row split once. A field given twice in a row, a faces
    field on a vertex and a deg field at the cap are refused. A refusal
    names its line."""
    (cap,), rows = reader.rows("sset 1", "cap N", start=start, stop=stop)

    def fail(msg, ln):
        raise StructureError("line %d: %s" % (ln, msg))

    # per dimension whose 'dim' header was read, in row order: the
    # identifiers, their lines, and the words of their faces and deg fields
    simplices, lines, faces, degs = {}, {}, {}, {}
    degen = []  # (n, identifier, *words) of every degen field
    current = None
    for ln, line in rows:
        if line.startswith("dim "):
            words = line.split()
            n = _int_token(words, 1, ln)
            if n > cap:
                fail("dimension above the cap", ln)
            if n < 0:
                fail("negative dimension", ln)
            if len(words) > 2:
                fail("expected 'dim N'", ln)
            current, arity = n, n + 2
            ids, lns, faces_of, degs_of = (
                simplices.setdefault(n, []), lines.setdefault(n, []), faces.setdefault(n, []), degs.setdefault(n, []))
            continue
        if current is None:
            fail("simplex row before any 'dim' header", ln)
        head, *fields = line.split("|")
        sid = head.strip()
        if not sid:
            fail("empty identifier", ln)
        ids.append(sid)
        lns.append(ln)
        seen = []
        for field in fields:
            words = field.split()
            if not words:
                continue
            key = words[0]
            if key in seen:
                fail("repeated '%s' field" % key, ln)
            seen.append(key)
            if key == "faces":
                if len(words) != arity:
                    fail("need %d faces" % (current + 1), ln)
                if current == 0:
                    fail("simplex %s of dimension 0 has a faces field" % sid, ln)
                faces_of.append(words)
            elif key == "deg":
                if len(words) != arity:
                    fail("need %d degeneracies" % (current + 1), ln)
                if current == cap:
                    fail("simplex %s of dimension %d, the cap, has a deg field" % (sid, current), ln)
                degs_of.append(words)
            elif key == "degen":
                degen.append((current, sid, *words))
            else:
                fail("unknown field %r" % (key,), ln)
        if current >= 1 and "faces" not in seen:
            fail("simplex %s of dimension %d has no faces field" % (sid, current), ln)
        if current < cap and "deg" not in seen:
            fail("simplex %s of dimension %d has no deg field" % (sid, current), ln)
        if not _UNWRITABLE.isdisjoint(sid):
            fail("identifier %r cannot be serialized" % sid, ln)
    # A simplicial set has a simplex in every dimension up to its cap (the
    # degeneracies of a vertex), so a gap is refused here, in time linear in
    # the rows: the tables take work quadratic in the cap.
    gap = 0
    while simplices.get(gap):
        gap += 1
    if gap <= cap:
        fail("cap %d but no simplex of dimension %d" % (cap, gap), start + 2)
    if cap < 0:
        fail("negative cap", start + 2)
    # every row of dimension n >= 1 has one faces field, and below the cap
    # one deg field, so word 1 + i of the rows' word lists is the column of
    # d_i (s_i)
    def columns(table, dims):
        return {(n, i): column for n in dims for i, column in enumerate(list(zip(*table[n]))[1:])}

    def line_of(key):
        n, sid = key
        return dict(zip(simplices.get(n, ()), lines.get(n, ()))).get(sid)

    with _refused_row(line_of):
        x = SimplicialSet(cap, simplices, columns(faces, range(1, cap + 1)), columns(degs, range(cap)))
    # the degen fields must name the witnesses the deg tables give: all at
    # once, and on a mismatch row by row in line order (the constructor
    # refused a repeated identifier, so a row is one line)
    if set(degen) != {(n, sid, "degen", str(j), base) for (n, sid), (j, base) in x.witness.items()}:
        given = {(n, sid): words for n, sid, *words in degen}
        for ln, n, sid in sorted((ln, n, sid) for n in simplices for sid, ln in zip(simplices[n], lines[n])):
            words = given.get((n, sid))
            if (n, sid) not in x.witness:
                if words is not None:
                    fail("%s is not degenerate but has a degen field" % sid, ln)
                continue
            j, base = x.witness[(n, sid)]
            if words is None:
                fail("degenerate simplex %s has no degen field" % sid, ln)
            if words != ["degen", str(j), base]:
                fail("degen of %s must be '%d %s', its least degeneracy" % (sid, j, base), ln)
    return x


def relabel_as_strings(x):
    """The same simplicial set with every identifier replaced by its rendering."""
    return parse_complex(serialize_complex(x))


# -- covers ------------------------------------------------------------------


def serialize_cover(sub_a, sub_b):
    lines = ["cover 1"]
    for label, sub in (("A", sub_a), ("B", sub_b)):
        for n in sorted(sub):
            members = sorted(render_id(s) for s in sub[n])
            if members:
                lines.append("%s %d : %s" % (label, n, " ".join(members)))
    return "\n".join(lines) + "\n"


def parse_cover(text):
    _, rows = _RowReader(text).rows("cover 1")
    subs = {"A": {}, "B": {}}
    for ln, line in rows:
        try:
            head, members = line.split(":")
            label, dim = head.split()
            subs[label].setdefault(int(dim), set()).update(members.split())
        except (ValueError, KeyError):
            raise StructureError("line %d: malformed cover row" % ln)
    return (
        {n: frozenset(v) for n, v in subs["A"].items()},
        {n: frozenset(v) for n, v in subs["B"].items()},
    )


# -- scalars and polynomial forms ---------------------------------------------


def render_scalar(value):
    from .forms import QTau
    if isinstance(value, QTau):
        return "%s+%s*tau" % (value.q, value.m)
    return str(Fraction(value))


def parse_scalar(text):
    text = text.strip()
    if "tau" in text:
        from .forms import QTau
        qpart, mpart = text.split("+")
        if not mpart.endswith("*tau"):
            raise StructureError("malformed tau scalar %r" % text)
        return QTau(Fraction(qpart), Fraction(mpart[:-4]))
    return Fraction(text)


def render_form(form):
    """PolyForm as 'form n p : coeff | exps | idx ; ...' (canonical terms)."""
    chunks = []
    for (exps, idx), coeff in sorted(form.terms.items(), key=lambda kv: kv[0]):
        chunks.append(
            "%s | %s | %s"
            % (
                render_scalar(coeff),
                " ".join(str(e) for e in exps),
                " ".join(str(i) for i in idx),
            )
        )
    return "form %d %d : %s" % (form.n, form.p, " ; ".join(chunks))


def parse_form(text, ln=1):
    """Parse 'form n p : ...'; errors name line ln of the enclosing file."""
    from .forms import PolyForm
    text = text.strip()
    if not text.startswith("form "):
        raise StructureError("line %d: expected 'form n p : ...'" % ln)
    head, _, body = text.partition(":")
    with _row(ln, text):
        _, n, p = head.split()
        n, p = int(n), int(p)
        terms = []
        body = body.strip()
        if body:
            for chunk in body.split(";"):
                coeff_s, exps_s, idx_s = [part.strip() for part in chunk.split("|")]
                coeff = parse_scalar(coeff_s)
                exps = tuple(int(w) for w in exps_s.split())
                idx = tuple(int(w) for w in idx_s.split())
                terms.append(((exps, idx), coeff))
    return PolyForm(n, p, terms)


# -- sites and presheaves ------------------------------------------------------


def serialize_site_presheaf(presheaf):
    """The 'site 1' text of presheaf. An object name or a section label that
    the reader cannot read back is refused: a name that is empty or holds
    whitespace, '=' or ':', a label that is empty or holds whitespace or '>'."""
    site = presheaf.site
    for name in site.names():
        text = str(name)
        if text.split() != [text] or "=" in text or ":" in text:
            raise ParameterError("object name %r cannot be serialized" % (name,))
        for s in map(str, presheaf.sections[name]):
            if s.split() != [s] or ">" in s:
                raise ParameterError("section %r of %r cannot be serialized" % (s, name))
    lines = ["site 1"]
    for name in site.names():
        chunks = []
        for n in sorted(site.objects[name]):
            members = sorted(render_id(s) for s in site.objects[name][n])
            if members:
                chunks.append("%d : %s" % (n, " ".join(members)))
        lines.append("object %s = %s" % (name, " ; ".join(chunks)))
    for name in site.names():
        for fam in site.covers.get(name, []):
            lines.append("cover %s = %s" % (name, " ".join(fam)))
    lines.append("presheaf")
    for name in site.names():
        lines.append("sections %s : %s" % (name, " ".join(presheaf.sections[name])))
    for a, b in site.arrows():
        pairs = " ".join("%s>%s" % (s, presheaf.res[(a, b)][s]) for s in presheaf.sections[a])
        lines.append("restrict %s %s : %s" % (a, b, pairs))
    return "\n".join(lines) + "\n"


def parse_site_presheaf(text, base):
    """Parse a 'site 1' text over base. A second object, sections or restrict
    row for the same names, a name repeated within a sections row or among
    the sources of a restrict row, a sections row for a name that is not an
    object, and a restrict row for a pair that is not an arrow of the site
    are errors naming their line."""
    from .sheaves import FiniteSite, Presheaf
    _, rows = _RowReader(text).rows("site 1")
    objects = {}
    covers = {}
    sections = {}
    restrictions = {}
    seen = {}
    mode = "site"
    for ln, line in rows:
        if line == "presheaf":
            mode = "presheaf"
            continue
        words = line.split()
        with _row(ln, line):
            if words[0] in ("object", "sections", "restrict"):
                _once(seen, " ".join(words[:3 if words[0] == "restrict" else 2]), ln)
            if mode == "site" and words[0] == "object":
                name = words[1]
                _, _, body = line.partition("=")
                sub = {}
                for chunk in body.split(";"):
                    chunk = chunk.strip()
                    if not chunk:
                        continue
                    dim_s, _, members = chunk.partition(":")
                    sub[int(dim_s)] = frozenset(members.split())
                objects[name] = sub
            elif mode == "site" and words[0] == "cover":
                name = words[1]
                _, _, body = line.partition("=")
                covers.setdefault(name, []).append(tuple(body.split()))
            elif mode == "site":
                raise StructureError("line %d: unknown site row %r" % (ln, words[0]))
            elif words[0] == "sections":
                name = words[1]
                _, _, body = line.partition(":")
                sections[name] = tuple(body.split())
                if len(set(sections[name])) != len(sections[name]):
                    raise StructureError("line %d: repeated section in %r" % (ln, name))
            elif words[0] == "restrict":
                a, b = words[1], words[2]
                _, _, body = line.partition(":")
                pairs = body.split()
                restrictions[(a, b)] = dict(pair.partition(">")[::2] for pair in pairs)
                if len(restrictions[(a, b)]) != len(pairs):
                    raise StructureError("line %d: repeated source in restriction %r -> %r" % (ln, a, b))
            else:
                raise StructureError("line %d: unknown presheaf row %r" % (ln, words[0]))
    site = FiniteSite(base, objects, covers)
    with _refused_row(lambda key: seen.get(" ".join(key))):
        return Presheaf(site, sections, restrictions)


# -- simplicial maps ------------------------------------------------------------


def serialize_map(smap):
    lines = ["smap 1", "source"]
    lines.append(serialize_complex(smap.source).rstrip("\n"))
    lines.append("target")
    lines.append(serialize_complex(smap.target).rstrip("\n"))
    lines.append("map")
    for n, image in smap._image.items():
        ys = smap.target.simplices[n]
        for s, q in zip(smap.source.simplices[n], image):
            lines.append("%d : %s > %s" % (n, render_id(s), render_id(ys[q])))
    return "\n".join(lines) + "\n"


def parse_map(text):
    reader = _RowReader(text)
    _, rows = reader.rows("smap 1")
    header = {}  # section -> line number of its header
    map_rows = []
    mode = None
    for ln, line in rows:
        if line in ("source", "target", "map"):
            if line in header:
                raise StructureError("line %d: repeated section header %r" % (ln, line))
            header[line] = ln
            mode = line
        elif mode is None:
            raise StructureError("line %d: content before any section header" % ln)
        elif mode == "map":
            map_rows.append((ln, line))

    def complex_of(name):
        # A section's 'sset 1' line follows its header, so its index is the
        # header's line number; the section ends at the next header.
        end = len(reader.lines)
        start = header.get(name, end)
        return _complex(reader, start, min((ln - 1 for ln in header.values() if ln > start), default=end))

    source = complex_of("source")
    target = complex_of("target")
    cap = min(source.dim_cap, target.dim_cap)
    level_map = {}
    lines = {}  # (n, source) -> line number of its row
    for ln, line in map_rows:
        dim_s, _, body = line.partition(":")
        src, _, dst = body.partition(">")
        n, src = _int_token([dim_s], 0, ln), src.strip()
        if n > cap:
            raise StructureError("line %d: map row in dimension %d, above the map's cap %d" % (ln, n, cap))
        level = level_map.setdefault(n, {})
        if src in level:
            raise StructureError("line %d: repeated map row for %s in dimension %d" % (ln, src, n))
        level[src] = dst.strip()
        lines[(n, src)] = ln
    with _refused_row(lines.get):
        return SimplicialMap(source, target, level_map)


# -- abelian bundle data ----------------------------------------------------------


def serialize_u1(bundle):
    lines = ["u1 1"]
    for t in bundle.triangles:
        lines.append("triangle %s or %d" % (render_id(t), bundle.orientations[t]))
    for t in bundle.triangles:
        lines.append("A %s : %s" % (render_id(t), render_form(bundle.forms[t])))
    for g in bundle.gluings:
        lines.append(
            "glue %s %d %s %d flip %d wind %d : %s"
            % (
                render_id(g.plus[0]), g.plus[1],
                render_id(g.minus[0]), g.minus[1],
                1 if g.flip else 0, g.winding,
                render_form(g.p),
            )
        )
    return "\n".join(lines) + "\n"


def parse_u1(text):
    """Parse a 'u1 1' text; a second 'triangle' or 'A' row for the same
    triangle, and an 'A' row for a triangle with no 'triangle' row, are
    errors naming their line."""
    from .connections import EdgeGluing, U1BundleData
    _, rows = _RowReader(text).rows("u1 1")
    triangles = []
    orientations = {}
    forms = {}
    gluings = []
    seen = {}
    for ln, line in rows:
        words = line.split()
        head, _, body = line.partition(":")
        with _row(ln, line):
            if words[0] in ("triangle", "A"):
                _once(seen, " ".join(words[:2]), ln)
            if words[0] == "triangle":
                triangles.append(words[1])
                orientations[words[1]] = int(words[3])
            elif words[0] == "A":
                forms[words[1]] = parse_form(body, ln)
            elif words[0] == "glue":
                w = head.split()
                gluings.append(
                    EdgeGluing(
                        (w[1], int(w[2])),
                        (w[3], int(w[4])),
                        bool(int(w[6])),
                        parse_form(body, ln),
                        int(w[8]),
                    )
                )
            else:
                raise StructureError("line %d: unknown u1 row %r" % (ln, words[0]))
    for t in forms:
        if t not in orientations:
            raise StructureError("line %d: 'A' row for %s, which has no 'triangle' row" % (seen["A " + t], t))
    return U1BundleData(triangles, orientations, forms, gluings)


# -- extension problems -------------------------------------------------------------


def parse_extend(text):
    """Extension problem: ambient dimension, optional missing horn index,
    algebra name, and per-face (and per-entry) forms.

    Without an algebra a face is one form, its entry 0 0. A second n,
    missing or algebra row, a repeated entry of a face, an entry outside the algebra's matrix (any entry but 0 0
    without one), an entry whose form type differs from the first of its
    face, and a face whose matrix is not in the algebra are errors naming
    their line.

    Returns (n, missing_or_None, algebra_or_None, data dict).
    """
    from .connections import LieValuedForm, abelian_line, gl, sl2
    from .forms import PolyForm
    algebras = {"none": None, "abelian-1d": abelian_line, "sl2": sl2, "gl2": lambda: gl(2)}
    _, rows = _RowReader(text).rows("extend 1")
    n = None
    missing = None
    algebra, name = None, "none"
    raw = {}
    seen = {}
    for ln, line in rows:
        words = line.split()
        with _row(ln, line):
            if words[0] in ("n", "missing", "algebra"):
                _once(seen, words[0], ln)
            if words[0] == "n":
                n = int(words[1])
            elif words[0] == "missing":
                missing = int(words[1])
            elif words[0] == "algebra":
                if words[1] not in algebras:
                    raise StructureError("line %d: unknown algebra %r" % (ln, words[1]))
                algebra, name = algebras[words[1]], words[1]
            elif words[0] == "face":
                i = int(words[1])
                r, c = int(words[3]), int(words[4])
                _, _, body = line.partition(":")
                entries = raw.setdefault(i, {})
                if (r, c) in entries:
                    raise StructureError(
                        "line %d: repeated entry %d %d of face %d (first on line %d)" % (ln, r, c, i, entries[(r, c)][1])
                    )
                entries[(r, c)] = (parse_form(body, ln), ln)
            else:
                raise StructureError("line %d: unknown extend row %r" % (ln, words[0]))
    if n is None:
        raise StructureError("missing 'n' row")
    alg = None if algebra is None else algebra()
    size = 1 if alg is None else alg.size
    data = {}
    for i, entries in raw.items():
        first, first_ln = next(iter(entries.values()))
        forms = {}
        for (r, c), (form, ln) in entries.items():
            if not (0 <= r < size and 0 <= c < size):
                raise StructureError(
                    "line %d: entry %d %d is outside the %dx%d matrix of algebra %s" % (ln, r, c, size, size, name)
                )
            if (form.n, form.p) != (first.n, first.p):
                raise StructureError(
                    "line %d: face %d mixes forms of type (%d, %d) and (%d, %d)"
                    % (ln, i, first.n, first.p, form.n, form.p)
                )
            forms[(r, c)] = form
        if alg is None:
            data[i] = forms[(0, 0)]
            continue
        zero = PolyForm.zero(first.n, first.p)
        data[i] = LieValuedForm(
            alg, first.n, first.p, [[forms.get((r, c), zero) for c in range(size)] for r in range(size)]
        )
        if not data[i].in_algebra():
            raise StructureError("line %d: face %d is not in algebra %s" % (first_ln, i, name))
    return n, missing, alg, data
