"""Reference answers and report checks that do not use ssetkit.

Every expected value here comes from a closed form, from sympy, or from a
direct reading of the generated input text. Nothing calls into ssetkit, so a
defect in its algorithms cannot make a wrong answer look right.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from fractions import Fraction


def fmt(values):
    """A tuple as the report renders it: "(1, 0, 2)", "(2)", "()"."""
    return "(" + ", ".join(str(v) for v in values) + ")"


def parse_report(text):
    """Records and status of a text report: ({name: value}, status)."""
    records = {}
    status = None
    for line in text.splitlines():
        if line.startswith("record "):
            head, _, value = line[len("record "):].partition(" : ")
            records[head.rsplit(" ", 1)[0]] = value
        elif line.startswith("status "):
            status = line[len("status "):]
    return records, status


def report_digest(stdout):
    """sha256 of the report without its timing line, as Report.digest() gives it."""
    lines = stdout.splitlines(keepends=True)
    if lines and lines[-1].startswith("timing-ms "):
        lines = lines[:-1]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def parse_values(text):
    """"(1, -1/2, 0)" -> [Fraction(1), Fraction(-1, 2), Fraction(0)]."""
    inner = text.strip()[1:-1].strip()
    return [Fraction(v) for v in inner.split(", ")] if inner else []


# -- closed forms ------------------------------------------------------------


def nerve_homology(m, cap):
    """Betti numbers and torsion of the nerve of Z/m truncated at cap.

    The normalized complex has (m-1)^n cells in degree n, H_0 = Z, H_n = Z/m
    for odd 0 < n < cap and 0 for even 0 < n < cap; the top degree keeps
    whatever rank the Euler characteristic leaves.
    """
    chi = sum((-1) ** n * (m - 1) ** n for n in range(cap + 1))
    betti = [1] + [0] * cap
    betti[cap] += (-1) ** cap * (chi - 1)
    torsion = [[m] if n % 2 == 1 and n < cap else [] for n in range(cap + 1)]
    return betti, torsion


def sphere_product_betti(dims, cap):
    """Kunneth: Poincare polynomial of a product of spheres, padded to cap."""
    poly = [1]
    for d in dims:
        sphere = [1] + [0] * (d - 1) + [1]
        out = [0] * (len(poly) + d)
        for i, a in enumerate(poly):
            for j, b in enumerate(sphere):
                out[i + j] += a * b
        poly = out
    if len(poly) > cap + 1:
        raise ValueError("cap %d is below the product dimension" % cap)
    return poly + [0] * (cap + 1 - len(poly))


def nerve_horn_counts(m, cap):
    """{(n, k): (horns, unique fillers)} for the nerve of Z/m.

    The nerve has one vertex, so a 1-horn is that vertex with m fillers. For
    n >= 2 a horn fixes n independent edges and has exactly one filler.
    """
    counts = {}
    for n in range(1, cap + 1):
        for k in range(n + 1):
            if n == 1:
                counts[(n, k)] = (1, 1 if m == 1 else 0)
            else:
                counts[(n, k)] = (m ** n, m ** n)
    return counts


def projection_lifting_problems(m, cap):
    """Lifting problems of the projection Delta^1 x N(Z/m) -> Delta^1.

    A horn in the product is a pair of horns, and every n-simplex of Delta^1
    (there are n + 2) restricts to exactly one horn of the base, so each
    (n, k) contributes (n + 2) times the number of (n, k)-horns of the nerve.
    """
    horns = nerve_horn_counts(m, cap)
    return sum((n + 2) * horns[(n, k)][0] for (n, k) in horns)


def monotone_maps(chain_length):
    """Order-preserving maps from a path of chain_length vertices to [0 < 1]."""
    return chain_length + 1


# -- ordered simplicial complexes through sympy --------------------------------


def closure(facets):
    """All nonempty faces of the given facets, as sorted vertex tuples."""
    faces = set()
    for f in facets:
        f = tuple(sorted(set(f)))
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, k))
    return faces


def complex_homology(faces, cap):
    """Betti numbers and torsion of a simplicial complex, by sympy.

    Ranks over Q give the betti numbers; the Smith normal form of each
    integer boundary matrix gives the torsion of the degree below it.
    """
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    by_dim = {n: sorted(s for s in faces if len(s) == n + 1) for n in range(cap + 2)}
    boundary = {}
    for n in range(1, cap + 1):
        index = {s: i for i, s in enumerate(by_dim[n - 1])}
        mat = sympy.zeros(len(by_dim[n - 1]), len(by_dim[n]))
        for j, s in enumerate(by_dim[n]):
            for i in range(n + 1):
                mat[index[s[:i] + s[i + 1:]], j] = (-1) ** i
        boundary[n] = mat

    def rank(n):
        mat = boundary.get(n)
        return 0 if mat is None or 0 in mat.shape else mat.rank()

    betti = [len(by_dim[n]) - rank(n) - rank(n + 1) for n in range(cap + 1)]
    torsion = []
    for n in range(cap + 1):
        mat = boundary.get(n + 1)
        if mat is None or 0 in mat.shape:
            torsion.append([])
            continue
        snf = smith_normal_form(mat, domain=sympy.ZZ)
        diag = [abs(int(snf[i, i])) for i in range(min(mat.shape))]
        torsion.append(sorted(d for d in diag if d > 1))
    return betti, torsion


# -- horn witnesses, read from the input text ----------------------------------


def parse_sset_faces(text):
    """(cap, {dimension: {id: faces}}) from an 'sset 1' file."""
    cap = None
    current = None
    faces = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("cap "):
            cap = int(line.split()[1])
        elif line.startswith("dim "):
            current = int(line.split()[1])
            faces[current] = {}
        elif current is not None and line and not line.startswith("#"):
            fields = [f.strip() for f in line.split("|")]
            row = ()
            for field in fields[1:]:
                words = field.split()
                if words and words[0] == "faces":
                    row = tuple(words[1:])
            faces[current][fields[0]] = row
    return cap, faces


_KAN_WITNESS = re.compile(r"^\{faces=\((.*)\), k=(\d+), n=(\d+)\}$")


def horn_witness_problem(witness, sset_text):
    """Why a reported (n, k)-horn witness is not an unfillable horn, or None.

    Checks that the faces exist, satisfy d_i x_j = d_(j-1) x_i for i < j
    away from k, and that no n-simplex of the input has them as faces.
    """
    match = _KAN_WITNESS.match(witness)
    if not match:
        return "unreadable witness %r" % witness
    given = [None if w == "None" else w for w in match.group(1).split(", ")]
    k, n = int(match.group(2)), int(match.group(3))
    cap, faces = parse_sset_faces(sset_text)
    if len(given) != n + 1 or given[k] is not None or not 1 <= n <= cap:
        return "witness has the wrong shape"
    level = faces.get(n - 1, {})
    if any(f not in level for i, f in enumerate(given) if i != k):
        return "witness face is not a simplex of dimension %d" % (n - 1)
    if n >= 2:
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if k in (i, j):
                    continue
                if level[given[j]][i] != level[given[i]][j - 1]:
                    return "witness faces %d and %d are incompatible" % (i, j)
    for simplex, bounds in faces.get(n, {}).items():
        if all(bounds[i] == f for i, f in enumerate(given) if i != k):
            return "the horn has the filler %s" % simplex
    return None


# -- the check of one job's outcome --------------------------------------------


def check(expect, code, stdout, read_input):
    """Problems with one job's outcome against its reference; [] when right.

    read_input(name) returns the text of a generated input file.
    """
    if "exit_in" in expect:
        if code not in expect["exit_in"]:
            return ["exit code %r not in %r" % (code, expect["exit_in"])]
        return []
    problems = []
    if code != expect["exit"]:
        problems.append("exit code %r, expected %r" % (code, expect["exit"]))
    records, _status = parse_report(stdout)
    for name, value in expect.get("records", {}).items():
        if records.get(name) != value:
            problems.append("record %s is %r, expected %r" % (name, records.get(name), value))
    for spec in expect.get("checks", []):
        problem = _CHECKS[spec[0]](records, read_input, *spec[1:])
        if problem:
            problems.append(problem)
    return problems


def _all_pass(records, _read):
    if not records:
        return "no records"
    bad = [n for n, v in records.items() if not v.startswith("pass")]
    return "records not passing: %s" % bad if bad else None


def _present(records, _read, name):
    return None if name in records else "record %s missing" % name


def _entries(records, _read, name, count):
    value = records.get(name, "")
    found = len([v for v in value.strip("()").split(", ") if v])
    return None if found == count else "record %s has %d entries, expected %d" % (name, found, count)


def _cup(records, p, i, q, j):
    """Coordinates of the cup product of classes Hp[i] and Hq[j]."""
    if p <= q:
        value = records.get("cup.H%d[%d].H%d[%d]" % (p, i, q, j))
        return None if value is None else parse_values(value)
    swapped = _cup(records, q, j, p, i)
    return None if swapped is None else [(-1) ** (p * q) * c for c in swapped]


def _unit_law(records, _read, betti):
    """1 u x = x: with unit coordinates (u), H0[0] u Hq[j] is e_j / u."""
    unit = parse_values(records.get("unit", "()"))
    if len(unit) != 1 or unit[0] == 0:
        return "unit coordinates %r" % records.get("unit")
    for q, b in enumerate(betti):
        for j in range(b):
            want = [Fraction(int(i == j)) / unit[0] for i in range(b)]
            if _cup(records, 0, 0, q, j) != want:
                return "unit law fails on H%d[%d]" % (q, j)
    return None


def _poincare(records, _read, betti, dim):
    """Closed orientable dim-manifold: cup pairings into H^dim are perfect
    and graded-commutative."""
    if betti[dim] != 1:
        return "top betti number is %d" % betti[dim]
    for p in range(dim + 1):
        q = dim - p
        rows = []
        for i in range(betti[p]):
            row = []
            for j in range(betti[q]):
                coords = _cup(records, p, i, q, j)
                if coords is None or len(coords) != 1:
                    return "cup H%d[%d].H%d[%d] missing" % (p, i, q, j)
                row.append(coords[0])
            rows.append(row)
        if p == q:
            for i in range(betti[p]):
                for j in range(betti[p]):
                    if rows[i][j] != (-1) ** (p * p) * rows[j][i]:
                        return "cup products in degree %d are not graded-commutative" % p
        if _rank(rows) != betti[p]:
            return "pairing H%d x H%d is degenerate" % (p, q)
    return None


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = rows[r][c] / rows[rank][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _exact_ok(records, _read):
    bad = [n for n, v in records.items() if n.startswith("exact.") and v != "ok"]
    if not any(n.startswith("exact.") for n in records):
        return "no exactness records"
    return "not exact at %s" % bad if bad else None


def _horn_witness(records, read_input, sset_name):
    if "witness" not in records:
        return "witness missing"
    problem = horn_witness_problem(records["witness"], read_input(sset_name))
    return None if problem is None else "bad witness: %s" % problem


_CHECKS = {
    "all_pass": _all_pass,
    "present": _present,
    "entries": _entries,
    "unit_law": _unit_law,
    "poincare": _poincare,
    "exact_ok": _exact_ok,
    "horn_witness": _horn_witness,
}
