"""The CLI's answers pinned byte for byte: one table of command lines and what each must give.

Each command line, split as a shell splits it, has exactly one expected
outcome: the sha256 of its stdout, its exact stdout, or a refusal (exit 2,
empty stdout and one ``error:`` line on stderr that contains the message).  A
change that moves an answer edits its entry here.  The input files a command
names are written to its working directory first.
"""

import hashlib
import json
import shlex
import time

import pytest

from adjointalg import direct_sum, strictly_upper_triangular_algebra, truncated_polynomial_algebra
from adjointalg.cli import main

SHA256 = {
    # Both echelon engines at small caps, at p = 2, cap 18 (about 100 MB), and at p = 3,
    # cap 14, where every block of right multiples goes through linalg.echelon.
    "hilbert --p 2 --cap 12 --format csv": "747a449b3cecb1a4b00a5aa748e0bb8164e21ebcf3fb9e47c3774585fa186f53",
    "hilbert --p 3 --cap 10 --format csv": "3f2eb9325d76113a84ccacf146730f719b4dcdc88e31cf78c76a082e75c1b0d2",
    "hilbert --p 2 --cap 18 --format csv": "d599e62ef0a8959d82eb89eb4a25268b8f2d043bc6833dd243717ecfc04dfa9b",
    "hilbert --p 3 --cap 14 --format csv": "ddfec47c26b05c85aa6978832a9886a66dd2c7ecc1d624cbd0535087f08f01bf",
    "exponent --family ut --n 4": "86d0d2265b4062407b82265cb36d817b870bf6fb55fd2990d1669d3f75773434",
    "width --family poly --n 6": "63d851a937663db3c89f28a5371bb9d84a51f1d8b0166b0671085fb6c8e52537",
    # The Frobenius map at the largest modulus; at dimension 64 every echelon of the
    # power chain and the exponent chain runs at the int64 limit of finite's span (about 5 s).
    "exponent --family poly --p 16777213 --n 30 --format text":
        "fa3134739bea38fae4343307ee50d25b4c11982eba5a2960643fe9bbac66579f",
    "exponent --family poly --p 16777213 --n 65 --format text":
        "a862d7349259306dcca0548dcb1fe02ec522f1ad9267de13a9fcfaf679dc4390",
    # Factoring at p = 2 and p = 3, where correction rounds and two-digit exponents reach
    # the text; a partial valuation at p = 5, which stops the carried product mid-run; and
    # a seed that runs although val(a) = 3 is already at least m = 2.
    "factor --a 'x + xy + y^2x' --cap 13 --format text":
        "d5019ca0cf3428b3c319f63f3c311019c24db7b9656482a6822ece140255dff8",
    "factor --p 3 --a '2y^2 + x^2y + yx^2 + 2y^2x + y^3 + 2x^2yx' --cap 13":
        "e799f74f59de09aa64c79c75a417621904d231dba42bc5dee44bb1a446d71b6e",
    "factor --p 5 --a '3x^2 + 4xy + y^3x' --cap 12 --m 7 --format text":
        "e5d0384504597e2ecd623cc720caa939427f93ebd31cf82ed93e87e40ddf9ecc",
    "factor --a 'x^3 + y^4' --cap 9 --m 2 --format text":
        "f919dd5f79b60930d74179a56d33aa95cd318357df6cbeccc3a090fb206d1a99",
    # The construction and the torsion generators: their products, inverses and slices run
    # through every path of the term store.  At the benchmark's cap 17 the torsion
    # generators hold 65536 terms and their powers run on word ranks.
    "construct --cap 16 --max-elements 100": "21842af327061bcfa3b19457b224b452cee5d1a7ede3c9384c78ed8782823d6b",
    "construct --cap 17 --max-elements 100": "c2937779693ddd5010f645ff632f26f060481038568a586d2c5809b54a50e9b1",
    "torsion --cap 16": "d58a07c7d2f1703c45eedb6d3862d48a579c13028b4713dbc893bbe21ef6c897",
    "construct --p 3 --cap 14 --max-elements 20": "fb572f0d8b13a60cd84de5cac8c57806e48ab76bb79a1c3661500a7e7deb9253",
}

TEXT = {
    # The power chain's rungs lift the width bound to 5 on ut(5) over F_2 and ut(4) over
    # F_3, where a witness closes without a search.
    "width --family ut --n 4 --format text": "order: 64\nwidth: 3\n",
    "width --family ut --n 5 --format text": "order: 1024\nwidth: 5\n",
    "width --family ut --n 4 --p 3 --format text": "order: 729\nwidth: 5\n",
    "width --family poly --p 3 --n 20 --limit 16 --format text": "order: 1162261467\nwidth: 13\n",
    # An abelian group of order 2^29 is one rank; a nonabelian one of order 243 takes a
    # lower bound and a witness.
    "width --family poly --p 2 --n 30 --limit 16 --format text": "order: 536870912\nwidth: 15\n",
    "width --algebra-file ut3-poly3.json --format text": "order: 243\nwidth: 5\n",
    # Circle powers with no products at p >= class, and from squaring all 1024 element
    # rows of ut(5) over F_2, whose class 4 is past p.
    "exponent --family ut --n 3 --p 7 --format text": (
        "n=1: exponent 7 vs bound 14 (ok)\nn=2: exponent 7 vs bound 21 (ok)\nsharpest ratio: 1/2\n"
    ),
    "exponent --family ut --n 5 --format text": (
        "n=1: exponent 2 vs bound 4 (ok)\nn=2: exponent 4 vs bound 6 (ok)\n"
        "n=3: exponent 4 vs bound 8 (ok)\nn=4: exponent 8 vs bound 10 (ok)\nsharpest ratio: 4/5\n"
    ),
    # Runs of 65 to 71 letters at cap 140: past the text's run table of 2..63 letters.
    "factor --a 'x^70 + y^65x' --cap 140 --format text": (
        "a: y^65x + x^70\nfactors (3): y^65x; x^70; y^65x^71\nresidual: 0\n"
        "residual valuation: infinity\ncorrection rounds: 1\n"
    ),
}

REFUSED = {
    # A term far past the cap, before its word is built.
    "factor --a 'x^100000000000' --cap 6": "term 'x^100000000000' has degree 100000000000, beyond the cap 6",
    # Below its one generator the odd-p ideal has rank 0, yet each coordinate costs memory.
    "hilbert --p 3 --cap 30 --ideal-file high-generator.json":
        "degree 22 component needs 268435456 bytes for its doubled block and coordinate arrays",
    # Torsion generators whose terms would pass the memory ceiling, before any is built.
    "construct --p 5 --cap 25 --max-elements 0": "the torsion generators up to degree 25 may hold 201326592 terms",
}

#: Commands that must answer at once: each within this many seconds.
SECONDS = {
    "width --family ut --n 5 --format text": 20,
    "width --family ut --n 4 --p 3 --format text": 20,
    "width --family poly --p 2 --n 30 --limit 16 --format text": 20,
    "width --algebra-file ut3-poly3.json --format text": 20,
    "hilbert --p 3 --cap 30 --ideal-file high-generator.json": 20,
    "construct --p 5 --cap 25 --max-elements 0": 60,
}
assert SECONDS.keys() <= {*SHA256, *TEXT, *REFUSED}, "a time bound names a command with no pin"

#: The input files the commands name, as JSON documents.
FILES = {
    "ut3-poly3.json": direct_sum(
        strictly_upper_triangular_algebra(3, 3), truncated_polynomial_algebra(3, 3)
    ).to_json_dict(),
    "high-generator.json": [[30, "x^30"]],
}

PINS = [
    pytest.param(command, kind, expected, id=command)
    for kind, table in (("sha256", SHA256), ("text", TEXT), ("refused", REFUSED))
    for command, expected in table.items()
]


@pytest.mark.parametrize("command, kind, expected", PINS)
def test_pin(capsys, tmp_path, monkeypatch, command, kind, expected):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)
    for name in FILES.keys() & set(argv):
        (tmp_path / name).write_text(json.dumps(FILES[name]))
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    if kind == "refused":
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expected in err
    else:
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest() if kind == "sha256" else out) == expected
    assert seconds < SECONDS.get(command, float("inf"))
