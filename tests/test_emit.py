"""The JSON report emitter `cli._json` against `json.dumps(..., indent=2)`.

The emitter walks the report once.  Its text must equal what
`json.dumps(obj, indent=2)` writes once every Fraction is its str (the
`default=str` below) and every tuple a list (which `json.dumps` does by
itself), also when one tuple object stands in several places, as the zero
row of a closure's c table does.  Every JSON report of the goldens and
families is checked against its own `json.loads` -> `json.dumps` round trip.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dirackit.cli import _json, main

from test_golden import cases, family_cases, family_files

# Characters json must escape or write as \uXXXX, beside any others.
AWKWARD = st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé ٣\U0001f600')
TEXT = st.text(alphabet=st.one_of(AWKWARD, st.characters()), max_size=8)
SCALARS = st.one_of(TEXT, st.fractions(), st.integers(), st.floats(), st.booleans(),
                    st.none())
TREES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=20)
# A tree of up to 20 leaves takes about 10 ms to draw; 100 of them per
# property keep this file near 2 s.
FEWER = settings(max_examples=100)


def emitted(obj) -> str:
    return _json(obj, "", {})


def expected(obj) -> str:
    return json.dumps(obj, indent=2, default=str)


@FEWER
@given(TREES)
def test_emitter_writes_what_json_dumps_writes(obj):
    assert emitted(obj) == expected(obj)


@FEWER
@given(st.lists(SCALARS, max_size=3).map(tuple), TREES)
def test_a_tuple_met_again_is_written_as_json_dumps_writes_it(row, rest):
    """One tuple object twice at one depth and again at two other depths."""
    obj = {"same depth": [row, row], "deeper": {"again": [row, [row]]}, "rest": rest,
           "top": row}
    assert emitted(obj) == expected(obj)


def test_empty_containers_and_nesting():
    obj = {"": [], "t": (), "d": {}, "n": [[()], {"k": ((Fraction(-1, 2),),)}]}
    assert emitted(obj) == expected(obj)
    assert emitted([]) == "[]" and emitted({}) == "{}" and emitted(()) == "[]"


def _stdout(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _json_argvs(tmp_path) -> dict[str, list[str]]:
    """Case name -> argv of every JSON golden and family case."""
    out = {name: argv for name, argv in cases().items() if argv[-1] == "json"}
    files = family_files()
    for name, (file_name, rest) in family_cases().items():
        if "json" in rest:
            path = tmp_path / file_name
            path.write_text(files[file_name], encoding="utf-8")
            out[name] = [name.split()[0], str(path)] + rest
    return out


def test_every_golden_and_family_report_round_trips(tmp_path):
    argvs = _json_argvs(tmp_path)
    assert any("tower_k4" in name for name in argvs)
    written = 0
    for name, argv in sorted(argvs.items()):
        code, stdout = _stdout(argv)
        if code:  # an error writes no report
            assert stdout == "", name
            continue
        assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n", name
        written += 1
    assert written >= 20, written
