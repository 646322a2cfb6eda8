"""Seeded mutations of the parsed fixtures through the command line.

The exit-code contract (0 affirmative, 1 verified negative, 2 input or usage
error) must hold for any input bytes: a mutated file may be rejected, but
never by a raw exception escaping cli.main, and a file that is not UTF-8 is
always an input error.
"""

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import BASES, FIXTURES, fixture_path, fixture_text
from ssetkit.cli import main

COMMANDS = {
    ".sset": (["homology"], ["kan"], ["derham", "--poly-degree", "1"], ["homology", "--cap", "1"]),
    ".smap": (["fibration"],),
    ".u1": (["chern"],),
    ".ext": (["extend"],),
    ".site": (["sheaf"], ["sheaf", "--op", "sheafify"]),
    ".cover": (["mv"],),
}
# A .site or .cover file is read against its base in BASES, which stays
# intact.
JUNK_TOKENS = ("x", "-1", "0", "1", "7", "(0,1)", "|", ":", "None", "1/0")
MUTATIONS_PER_FIXTURE = 15
NOT_UTF8 = 4


def mutate(text, rng, op):
    """Delete (op 0), duplicate (1) or truncate (2) one line, replace one
    token (3) by another of the file's tokens or a junk token, or insert a
    byte that never occurs in UTF-8 (op NOT_UTF8). Returns the file's bytes."""
    if op == NOT_UTF8:
        data = text.encode()
        i = rng.randrange(len(data) + 1)
        return data[:i] + b"\xff" + data[i:]
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    else:
        words = lines[i].split(" ")
        pool = text.split() + list(JUNK_TOKENS)
        words[rng.randrange(len(words))] = pool[rng.randrange(len(pool))]
        lines[i] = " ".join(words)
    return ("\n".join(lines) + "\n").encode()


MUTATED_FIXTURES = sorted(f for f in os.listdir(FIXTURES) if os.path.splitext(f)[1] in COMMANDS)


@pytest.mark.parametrize("name", MUTATED_FIXTURES)
def test_mutated_fixture_keeps_the_exit_code_contract(name, tmp_path):
    ext = os.path.splitext(name)[1]
    text = fixture_text(name)
    rng = random.Random(name)
    for k in range(MUTATIONS_PER_FIXTURE):
        op = k % 5
        mutated = mutate(text, rng, op)
        path = tmp_path / ("mutated%d%s" % (k, ext))
        path.write_bytes(mutated)
        base = [fixture_path(BASES[name])] if name in BASES else []
        for command in COMMANDS[ext]:
            argv = command[:1] + base + [str(path)] + command[1:]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in ((2,) if op == NOT_UTF8 else (0, 1, 2)), (argv, mutated)
