import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _cases import rho_not_antisymmetric
from _ref_linalg import zero_vec
from g3lr import cli
from _dense_axioms import ALL_AXIOMS
from g3lr.axioms import RINEHART, VIOLATION_CAP, Violation, run_all
from g3lr.catalog import BUILTIN_NAMES, builtin
from g3lr.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_VIOLATIONS,
                     main)
from g3lr.connections import SupportSets
from g3lr.decompose import check_gr_simple_A, check_gr_simple_L, decompose
from g3lr.instio import (MAX_DIGITS, ParseError, canonical_json,
                         instance_digest, instance_from_dict,
                         instance_to_dict, load_instance, save_instance)
from g3lr.model import TABLES, Algebra3LR


def _run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _emit(tmp_path, name):
    path = tmp_path / ("%s.json" % name)
    code, _ = _run("builtin", name, "--emit", str(path))
    assert code == EXIT_OK
    return path


# ---------------------------------------------------------------------------
# round trips


def test_emit_parse_round_trip(tmp_path):
    for name in BUILTIN_NAMES:
        path = _emit(tmp_path, name)
        again = load_instance(str(path))
        assert instance_to_dict(again) == instance_to_dict(builtin(name))
        assert instance_digest(again) == instance_digest(builtin(name))


def _non_ascii_instance():
    """a4 with its label e1 renamed to one that JSON writes escaped."""
    text = json.dumps(instance_to_dict(builtin("a4")))
    return instance_from_dict(json.loads(
        text.replace('"e1"', '"\\u00e9\\u2028\\ud83d\\ude00"')))


def test_instance_digest_is_sha256_of_the_compact_sorted_dump():
    """The digest is defined by these bytes; it is pinned on every
    builtin, every example file and a label outside ASCII."""
    algs = [builtin(name) for name in BUILTIN_NAMES]
    algs += [load_instance(str(p)) for p in sorted(EXAMPLES.glob("*.json"))]
    algs.append(_non_ascii_instance())
    assert "\u00e9\u2028\U0001f600" in algs[-1].L.labels
    for alg in algs:
        compact = json.dumps(instance_to_dict(alg), sort_keys=True,
                             separators=(",", ":"))
        assert instance_digest(alg) \
            == hashlib.sha256(compact.encode()).hexdigest()


def test_save_load_round_trip(tmp_path):
    alg = builtin("gl2-trace")
    path = tmp_path / "inst.json"
    save_instance(alg, str(path))
    assert instance_to_dict(load_instance(str(path))) \
        == instance_to_dict(alg)


def test_parser_tolerates_extra_keys(tmp_path):
    doc = instance_to_dict(builtin("a4"))
    doc["notes"] = "hand-annotated"
    alg = instance_from_dict(doc)
    assert alg.dim_L == 4


# ---------------------------------------------------------------------------
# parse rejections


def _a4_doc():
    return json.loads(json.dumps(instance_to_dict(builtin("a4"))))


def _expect_parse_error(doc, fragment):
    with pytest.raises(ParseError) as exc:
        instance_from_dict(doc)
    assert fragment in str(exc.value)


def test_rejects_wrong_schema():
    doc = _a4_doc()
    doc["schema"] = "something-else"
    _expect_parse_error(doc, "schema")


def test_rejects_noncanonical_triple():
    doc = _a4_doc()
    doc["bracket"][0]["args"] = ["e2", "e1", "e3"]
    _expect_parse_error(doc, "non-canonical triple")


def test_rejects_noncanonical_pair(tmp_path):
    alg = builtin("a4-dual-numbers")
    doc = instance_to_dict(alg)
    doc["amul"] = [{"args": ["t", "one"], "value": {"t": "1"}}]
    _expect_parse_error(doc, "non-canonical pair")


def test_rejects_zero_denominator():
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e4": "1/0"}
    _expect_parse_error(doc, "malformed rational")


def test_rejects_unknown_label():
    # an argument that is a JSON array is unhashable, and no label either
    for args in (["e1", "e2", "e9"], [["e1"], "e2", "e3"]):
        doc = _a4_doc()
        doc["bracket"][0]["args"] = args
        _expect_parse_error(doc, "unknown label")


def test_rejects_degree_arity_mismatch():
    doc = _a4_doc()
    doc["L"]["degrees"][0] = [1]
    _expect_parse_error(doc, "arity")


def test_rejects_duplicate_entry():
    doc = _a4_doc()
    doc["bracket"].append(dict(doc["bracket"][0]))
    _expect_parse_error(doc, "duplicate")


def test_rejects_float_degree():
    doc = _a4_doc()
    doc["L"]["degrees"][0] = [1.7, 0]
    _expect_parse_error(doc, "list of integers")


def test_rejects_float_modulus():
    doc = _a4_doc()
    doc["group"]["moduli"] = [2.5, 2]
    _expect_parse_error(doc, "list of integers")


def test_rejects_boolean_degree():
    doc = _a4_doc()
    doc["A"]["degrees"][0] = [True, 0]
    _expect_parse_error(doc, "list of integers")


def test_non_integer_degree_string_is_a_parse_error(tmp_path):
    doc = _a4_doc()
    doc["L"]["degrees"][0] = ["one", 0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _ = _run("validate", str(path))
    assert code == EXIT_PARSE


# "007/010": the grammar allows leading zeros in the numerator only
@pytest.mark.parametrize("value", ["1e3", "0.5", " 1", "1/-2", "+1", 1,
                                   "007/010"])
def test_rejects_rationals_outside_the_schema_grammar(value):
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e4": value}
    _expect_parse_error(doc, "malformed rational")


@pytest.mark.parametrize("value", ["1" * 5000, "-1/" + "1" * 5000,
                                   "0" * 1001, "1/" + "9" * 1001],
                         ids=["numerator", "denominator",
                              "numerator-leading-zeros", "denominator-1001"])
def test_rejects_rationals_over_the_digit_cap(tmp_path, value):
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e4": value}
    _expect_parse_error(doc, "over the cap of %d" % MAX_DIGITS)
    assert _validate_exit_code(tmp_path, doc) == EXIT_PARSE


def test_rationals_at_the_digit_cap_parse():
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e4": "-" + "7" * MAX_DIGITS + "/1"
                                  + "0" * (MAX_DIGITS - 1)}
    alg = instance_from_dict(doc)
    assert alg.bracket[(0, 1, 2)] == {
        3: Fraction(-int("7" * MAX_DIGITS), 10 ** (MAX_DIGITS - 1))}


def _parsed_coefficient(s):
    """The coefficient stored for the string s in the first bracket entry
    of a4, or None when no entry is stored."""
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e4": s}
    bracket = instance_from_dict(doc).bracket
    # a zero leaves the key absent: an entry stored as {} fails here
    return bracket[(0, 1, 2)][3] if (0, 1, 2) in bracket else None


def _assert_parses_as_fraction(s):
    got = _parsed_coefficient(s)
    if Fraction(s) == 0:
        assert got is None, s
    else:
        assert got == Fraction(s) and type(got) is Fraction, s


@pytest.mark.parametrize("s", [
    "6/4", "-12/8", "007/10", "1", "-1", "0010", "-0", "0", "0/7", "-0/7",
    pytest.param("9" * MAX_DIGITS, id="numerator-at-cap"),
    pytest.param("-" + "0" * (MAX_DIGITS - 1) + "3/" + "9" * MAX_DIGITS,
                 id="both-at-cap"),
    pytest.param("1/1" + "0" * (MAX_DIGITS - 1), id="denominator-at-cap")])
def test_coefficient_parses_as_its_fraction(s):
    _assert_parses_as_fraction(s)


# strings of the coefficient grammar of docs/instance.schema.json
_RATIONALS = st.builds(
    lambda sign, num, den: sign + num + ("/" + den if den else ""),
    st.sampled_from(("", "-")), st.text("0123456789", min_size=1,
                                        max_size=30),
    st.one_of(st.none(), st.builds(str.__add__, st.sampled_from("123456789"),
                                   st.text("0123456789", max_size=30))))


@settings(max_examples=200, deadline=None)
@given(s=_RATIONALS)
def test_every_coefficient_of_the_grammar_parses_as_its_fraction(s):
    _assert_parses_as_fraction(s)


def _validate_exit_code(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return _run("validate", str(path))[0]


def test_rejects_non_string_label(tmp_path):
    doc = _a4_doc()
    doc["L"]["labels"][0] = ["e1"]
    _expect_parse_error(doc, "labels must be a list of strings")
    assert _validate_exit_code(tmp_path, doc) == EXIT_PARSE
    doc["L"]["labels"] = "abcd"           # not split into four labels
    _expect_parse_error(doc, "labels must be a list of strings")


def test_rejects_list_valued_entry(tmp_path):
    doc = _a4_doc()
    doc["bracket"][0]["value"] = ["e4", "1"]
    _expect_parse_error(doc, "value an object")
    assert _validate_exit_code(tmp_path, doc) == EXIT_PARSE
    doc = _a4_doc()
    doc["bracket"][0]["args"] = "e1"      # not split into characters
    _expect_parse_error(doc, "args must be an array")


@pytest.mark.parametrize("table", [5, True, {}, "bracket", 0])
def test_rejects_table_that_is_not_an_array(tmp_path, table):
    doc = _a4_doc()
    doc["bracket"] = table
    _expect_parse_error(doc, "a table must be an array")
    assert _validate_exit_code(tmp_path, doc) == EXIT_PARSE


def test_absent_or_null_table_is_empty():
    doc = _a4_doc()
    del doc["amul"]
    doc["rho"] = None
    alg = instance_from_dict(doc)
    assert alg.amul == {} and alg.rho == {}


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = _run("validate", str(path))
    assert code == EXIT_PARSE


@pytest.mark.parametrize("raw", [b"\xff\xfe{}",
                                 b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "nested-too-deeply"])
def test_cli_undecodable_input_is_a_parse_error(tmp_path, raw):
    path = tmp_path / "broken.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="invalid JSON"):
        load_instance(path)
    assert _run("validate", str(path))[0] == EXIT_PARSE


def _duplicate_value_label(doc):
    doc["action"][0]["value"]["DUP"] = "5"
    return "e1"


def _duplicate_table(doc):
    doc["DUP"] = doc["bracket"][1:]
    return "bracket"


def _duplicate_args(doc):
    doc["bracket"][0]["DUP"] = doc["bracket"].pop(1)["args"]
    return "args"


@pytest.mark.parametrize("change", [_duplicate_value_label, _duplicate_table,
                                    _duplicate_args],
                         ids=lambda f: f.__name__)
def test_duplicate_key_is_a_parse_error(tmp_path, capsys, change):
    """A JSON object that gives one key twice is rejected by name, where
    `json.load` would keep the last value: a second coefficient for the
    label e1 of a4's first action value, a second bracket table, a
    second args array in a bracket entry (the args of the next entry,
    which is dropped).  `DUP` stands in for the repeated key, which a
    dict cannot hold twice."""
    doc = _a4_doc()
    key = change(doc)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc).replace('"DUP"', '"%s"' % key))
    capsys.readouterr()
    assert _run("validate", str(path)) == (EXIT_PARSE, "")
    assert capsys.readouterr().err == (
        "parse error: %s: invalid JSON: duplicate key '%s'\n" % (path, key))


def _drop_L_degrees(doc):
    del doc["L"]["degrees"]


def _short_L_degrees(doc):
    doc["L"]["degrees"].pop()


def _duplicate_L_label(doc):
    doc["L"]["labels"][1] = doc["L"]["labels"][0]


def _entry_without_value(doc):
    del doc["bracket"][0]["value"]


def _entry_with_two_args(doc):
    doc["bracket"][0]["args"].pop()


def _drop_moduli(doc):
    del doc["group"]["moduli"]


def _modulus_one(doc):
    doc["group"]["moduli"][0] = 1


def _unknown_argument_label(doc):
    doc["bracket"][2]["args"][1] = "e9"


def _unknown_value_label(doc):
    doc["action"][3]["value"] = {"x": "1"}


def _unhashable_label(doc):
    doc["bracket"][1]["args"][0] = ["e1"]


def _int_label(doc):
    doc["bracket"][2]["args"][1] = 7


def _null_label(doc):
    doc["bracket"][0]["args"][2] = None


def _A_label_in_an_L_slot(doc):
    doc["action"][1]["args"][1] = "one"


def _degree_arity_mismatch(doc):
    doc["L"]["degrees"][0] = [1]


def _malformed_rational_in_rho(doc):
    doc["rho"] = [{"args": ["e1", "e2", "one"], "value": {"one": "1"}},
                  {"args": ["e1", "e3", "one"], "value": {"one": "1/0"}}]


def _rational_over_the_cap(doc):
    doc["action"][2]["value"]["e3"] = "1" * (MAX_DIGITS + 1)


def _noncanonical_pair(doc):
    doc = json.loads(json.dumps(instance_to_dict(builtin("a4-dual-numbers"))))
    doc["amul"].append({"args": ["t", "one"], "value": {"t": "1"}})
    return doc


def _noncanonical_triple(doc):
    doc["bracket"][3]["args"] = ["e3", "e2", "e4"]


def _duplicate_all_zero_entry(doc):
    doc["bracket"][1]["value"] = {"e3": "0"}
    doc["bracket"].append(copy.deepcopy(doc["bracket"][1]))


def _duplicate_all_zero_amul_entry(doc):
    doc["amul"] = [{"args": ["one", "one"], "value": {"one": "-0"}}] * 2


@pytest.mark.parametrize("change, expected", [
    (_drop_L_degrees, "L: expected labels and degrees"),
    (_short_L_degrees, "L: labels and degrees differ in length"),
    (_duplicate_L_label, "L: duplicate basis labels"),
    (_entry_without_value, "bracket[0]: expected args and value"),
    (_entry_with_two_args, "bracket[0]: expected 3 arguments"),
    (_drop_moduli, "group: expected group.moduli"),
    (_modulus_one, "group: modulus must be 0 or >= 2, got 1"),
    (list, "document: expected a JSON object"),
    (_unknown_argument_label, "bracket[2]: unknown label 'e9'"),
    (_unknown_value_label, "action[3]: unknown label 'x'"),
    (_unhashable_label, "bracket[1]: unknown label ['e1']"),
    (_int_label, "bracket[2]: unknown label 7"),
    (_null_label, "bracket[0]: unknown label None"),
    (_A_label_in_an_L_slot, "action[1]: unknown label 'one'"),
    (_degree_arity_mismatch,
     "L: coordinate length 1 does not match group arity 2"),
    (_malformed_rational_in_rho, "rho[1]: malformed rational '1/0'"),
    (_rational_over_the_cap, "action[2]: rational numerator has %d digits, "
                             "over the cap of %d"
                             % (MAX_DIGITS + 1, MAX_DIGITS)),
    (_noncanonical_pair, "amul[2]: non-canonical pair order ['t', 'one']"),
    (_noncanonical_triple,
     "bracket[3]: non-canonical triple order ['e3', 'e2', 'e4']"),
    (_duplicate_all_zero_entry,
     "bracket[4]: duplicate entry for ['e1', 'e2', 'e4']"),
    (_duplicate_all_zero_amul_entry,
     "amul[1]: duplicate entry for ['one', 'one']"),
], ids=lambda p: getattr(p, "__name__", None))
def test_rejected_document_exits_3_naming_the_field(tmp_path, capsys, change,
                                                     expected):
    """Each rejection exits 3 with `parse error: WHERE: MESSAGE` on stderr
    and nothing on stdout; `list` turns the document into an array."""
    doc = _a4_doc()
    doc = change(doc) or doc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run("validate", str(path)) == (EXIT_PARSE, "")
    assert capsys.readouterr().err == "parse error: %s\n" % expected


@pytest.mark.parametrize("key, items", [("degrees", "integer arrays"),
                                        ("labels", "strings")])
@pytest.mark.parametrize("value, kind", [("abcd", "a string"),
                                         ({"x": 1}, "an object"),
                                         (7, "a number")],
                         ids=["string", "object", "number"])
def test_basis_field_that_is_not_an_array_is_named(tmp_path, capsys, key,
                                                   items, value, kind):
    """A `degrees` or `labels` value that is not an array is rejected by
    its own name and JSON type, not by its first character or key."""
    doc = _a4_doc()
    doc["L"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run("validate", str(path)) == (EXIT_PARSE, "")
    assert capsys.readouterr().err == (
        "parse error: L: %s must be a list of %s, not %s\n"
        % (key, items, kind))


def test_unreadable_path_exits_3_naming_it(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    capsys.readouterr()
    assert _run("validate", path) == (EXIT_PARSE, "")
    assert capsys.readouterr().err.startswith(
        "parse error: %s: cannot read: " % path)


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
_EXAMPLE_DOCS = sorted((p.name, json.loads(p.read_text()))
                       for p in EXAMPLES.glob("*.json"))


def _nodes(doc, path=()):
    """(path, node) for every node of a JSON document, the root first."""
    yield path, doc
    if type(doc) is dict:
        items = doc.items()
    elif type(doc) is list:
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _put(doc, path, value):
    """doc with the node at path replaced by value."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(), st.text(max_size=3),
                         st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.none(),
                                         max_size=1))


@st.composite
def _mutated_example(draw):
    """A docs/examples document after one to three mutations, each one
    of: delete a key, retype a value, swap in a copy of another subtree,
    duplicate an array element (a table entry, a label, a degree)."""
    doc = copy.deepcopy(draw(st.sampled_from(_EXAMPLE_DOCS))[1])
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        dicts = [n for _, n in nodes if type(n) is dict and n]
        lists = [n for _, n in nodes if type(n) is list and n]
        ops = ["retype", "swap"] + ["delete"] * bool(dicts) \
            + ["duplicate"] * bool(lists)
        op = draw(st.sampled_from(ops))
        if op == "delete":
            node = draw(st.sampled_from(dicts))
            del node[draw(st.sampled_from(sorted(node)))]
        elif op == "duplicate":
            node = draw(st.sampled_from(lists))
            entry = copy.deepcopy(draw(st.sampled_from(node)))
            node.insert(draw(st.integers(0, len(node))), entry)
        else:
            path, node = draw(st.sampled_from(nodes))
            if op == "retype":
                value = draw(_JSON_VALUES.filter(
                    lambda v: type(v) is not type(node)))
            else:
                value = copy.deepcopy(draw(st.sampled_from(nodes))[1])
            doc = _put(doc, path, value)
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_mutated_example())
def test_mutated_examples_never_exit_internal(tmp_path, doc):
    """An untrusted file is analysed (0), fails the axioms (2) or is
    rejected (3); exit 4 is kept for bugs."""
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    code, _ = _run("report", str(path))
    assert code in (EXIT_OK, EXIT_VIOLATIONS, EXIT_PARSE)


# ---------------------------------------------------------------------------
# the stored form built by the parser


FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def _edited_a4_dual_numbers(seed):
    """The a4-dual-numbers document after seeded edits: zero coefficients
    ("0", "-0", "0/7") added to entries, non-canonical strings ("6/4",
    "007/10"), one coefficient string repeated across entries, one entry
    made all zero, the entries of every table and the items of every
    value shuffled; one table is removed first."""
    rng = random.Random(seed)
    doc = json.loads(json.dumps(instance_to_dict(builtin("a4-dual-numbers"))))
    del doc[rng.choice(("bracket", "amul", "action"))]
    labels = {space: doc[space]["labels"] for space in "LA"}
    entries = [(e, labels[TABLES[name][1]]) for name in TABLES
               for e in doc.get(name, ())]
    for entry, values in rng.sample(entries, 6):
        entry["value"][rng.choice(values)] = rng.choice(("0", "-0", "0/7"))
    for entry, _ in rng.sample(entries, 4):
        value = entry["value"]
        value[rng.choice(sorted(value))] = rng.choice(("6/4", "007/10"))
    *repeated, (zero, values) = rng.sample(entries, 4)
    for entry, _ in repeated:
        entry["value"][rng.choice(sorted(entry["value"]))] = "-3/5"
    zero["value"] = {lbl: "0" for lbl in rng.sample(values, 2)}
    for name in TABLES:
        rng.shuffle(doc.get(name, []))
        for entry in doc.get(name, ()):
            items = list(entry["value"].items())
            rng.shuffle(items)
            entry["value"] = dict(items)
    return doc


def _stored_form_input(kind, name):
    if kind == "builtin":
        return json.loads(json.dumps(instance_to_dict(builtin(name))))
    if kind == "edited":
        return _edited_a4_dual_numbers(name)
    return json.loads(((EXAMPLES, FIXTURES)[kind == "fixture"]
                       / name).read_text())


def _constructed(alg, doc):
    """The instance that the public constructor makes of the tables of
    doc on the bases of alg: each coefficient as `Fraction` of its
    string, zeros and all-zero entries left for the constructor to
    drop."""
    bases = {"L": alg.L, "A": alg.A}
    tables = [{tuple(bases[s].index(a) for s, a in zip(args, e["args"])): {
        bases[value].index(lbl): Fraction(c) for lbl, c in e["value"].items()}
        for e in doc.get(name) or ()}
        for name, (args, value, _) in TABLES.items()]
    return Algebra3LR(alg.group, alg.L, alg.A, *tables)


@pytest.mark.parametrize("kind, name", [
    *(("builtin", n) for n in BUILTIN_NAMES),
    *(("example", p.name) for p in sorted(EXAMPLES.glob("*.json"))),
    *(("fixture", p.name) for p in sorted(FIXTURES.glob("*.json"))),
    *(("edited", seed) for seed in range(8))])
def test_parsed_stored_form_equals_the_constructors(kind, name):
    """The parser builds the stored tables itself; they equal what
    `Algebra3LR` stores of the same entries, in the same dict order
    (violation lists follow it), with every coefficient a Fraction and
    no empty entry, and the instance writes the same file and digest."""
    doc = _stored_form_input(kind, name)
    alg = instance_from_dict(doc)
    ref = _constructed(alg, doc)
    for table in TABLES:
        got, want = getattr(alg, table), getattr(ref, table)
        assert got == want, table
        assert [(k, list(v)) for k, v in got.items()] \
            == [(k, list(v)) for k, v in want.items()], table
        assert all(v and all(type(c) is Fraction for c in v.values())
                   for v in got.values()), table
    assert instance_to_dict(alg) == instance_to_dict(ref)
    assert instance_digest(alg) == instance_digest(ref)


# ---------------------------------------------------------------------------
# commands


def test_validate_ok(tmp_path):
    path = _emit(tmp_path, "a4")
    code, text = _run("validate", str(path))
    assert code == EXIT_OK and "no violations" in text


def test_rho_antisymmetry_note_on_a_valid_instance(tmp_path):
    """rho(x, x) != 0 is permitted: validate exits 0 and prints the note,
    and the report carries it among the axiom notes."""
    path = tmp_path / "rho.json"
    save_instance(rho_not_antisymmetric(), str(path))
    note = ("rho is not antisymmetric in its L-arguments on 1 basis "
            "pair(s); this is permitted")
    code, text = _run("validate", str(path))
    assert code == EXIT_OK
    assert text.splitlines() == [
        "ok: 6 axiom group(s) checked, no violations", "note: " + note]
    code, text = _run("report", str(path))
    assert code == EXIT_OK
    axioms = json.loads(text)["axioms"]
    assert axioms["passed"] is True and axioms["notes"] == [note]


def test_validate_flags_violations(tmp_path):
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e1": "1"}     # wrong fiber
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, text = _run("validate", str(path))
    assert code == EXIT_VIOLATIONS and "violation" in text


def test_decompose_gates_on_validity(tmp_path):
    """Both forms of decompose stop at the axiom gate and print what
    validate prints."""
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e1": "1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    validate = _run("validate", str(path))
    assert _run("decompose", str(path)) == validate
    assert _run("decompose", str(path), "--json") == validate
    assert validate[0] == EXIT_VIOLATIONS


@pytest.mark.parametrize("command", ["classes", "simple"])
def test_classes_and_simple_gate_on_validity(tmp_path, command):
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e1": "1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, text = _run(command, str(path))
    assert code == EXIT_VIOLATIONS
    assert text.startswith("axiom violations in %s:" % path)
    assert (code, text) == _run("validate", str(path))


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys,
                                                   monkeypatch):
    """Exit 4 is what a bug looks like: any exception a command does not
    expect is reported as an internal error."""
    def boom(alg):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "decompose", boom)
    path = _emit(tmp_path, "a4")
    capsys.readouterr()
    assert _run("decompose", str(path)) == (EXIT_INTERNAL, "")
    assert capsys.readouterr().err == "internal error: RuntimeError('boom')\n"


def test_classes_output(tmp_path):
    path = _emit(tmp_path, "a4")
    code, text = _run("classes", str(path))
    assert code == EXIT_OK
    doc = json.loads(text)
    assert len(doc["sigma_classes"]) == 1
    assert doc["lambda_classes"] == []
    assert sorted(doc["supports"]["sigma1"]) == [[0, 1], [1, 0], [1, 1]]


def test_decompose_text_and_json(tmp_path):
    path = _emit(tmp_path, "a4")
    code, text = _run("decompose", str(path))
    assert code == EXIT_OK and "sigma classes: 1" in text
    code, text = _run("decompose", str(path), "--json")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["L_ideals"][0]["subspace"]["dim"] == 4
    assert doc["tightness"]["tight"] is False


def test_decompose_text_names_unattempted_verdicts(tmp_path):
    """With no fine stage, an L-ideal's verdict was never computed and
    reads "not attempted"; the three fine-stage hypotheses all show."""
    code, text = _run("decompose", str(_emit(tmp_path, "a4")))
    assert code == EXIT_OK
    assert "gr-simple: not attempted" in text and "undetermined" not in text
    assert "tight: False, maximal length: True, symmetric supports: True" \
        in text
    code, text = _run("decompose", str(_emit(tmp_path, "tight-pair")))
    assert code == EXIT_OK and text.count("gr-simple: yes") == 2
    assert "fine decomposition attempted: True" in text


@pytest.mark.parametrize("name, failing", [
    ("a4", "A1_generation"),
    ("gl2-trace", "L1_generation, A1_generation"),
    ("tight-pair", None)])
def test_decompose_text_names_failing_tightness_clauses(tmp_path, name,
                                                        failing):
    """The clauses of a tightness report that fail, in field order, on a
    line of their own; a tight instance prints no such line."""
    code, text = _run("decompose", str(_emit(tmp_path, name)))
    assert code == EXIT_OK
    lines = [ln for ln in text.splitlines()
             if ln.startswith("tightness clauses failing: ")]
    assert lines == ([] if failing is None
                     else ["tightness clauses failing: " + failing])


def test_decompose_text_counts_the_components_of_both_sides(tmp_path):
    code, text = _run("decompose", str(_emit(tmp_path, "tight-pair")))
    assert code == EXIT_OK
    assert ("fine decomposition attempted: True (2 L and 2 A component(s))"
            in text.splitlines())


def test_runtime_is_standard_library_only():
    """A fresh interpreter without site-packages imports g3lr and its CLI
    and writes a report; every module it then holds is the standard
    library's or g3lr's."""
    script = "\n".join([
        "import json, sys",
        "sys.path.insert(0, sys.argv[1])",
        "import g3lr, g3lr.cli",
        "code = g3lr.cli.main(['report', sys.argv[2]])",
        "sys.stdout.flush()",
        "foreign = sorted(m for m in sys.modules if m != '__main__'",
        "                 and m.partition('.')[0] not in",
        "                 sys.stdlib_module_names | {'g3lr'})",
        "print(json.dumps([code, foreign]), file=sys.stderr)"])
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, str(src),
         str(EXAMPLES / "simple_four_dim.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [EXIT_OK, []]
    assert json.loads(proc.stdout)["axioms"]["passed"] is True


def test_simple_command(tmp_path):
    path = _emit(tmp_path, "a4")
    code, text = _run("simple", str(path))
    assert code == EXIT_OK
    assert "L graded-simple: yes" in text
    assert "A graded-simple: yes" in text


def test_simple_names_the_wide_fibers_when_undetermined(tmp_path):
    """`a4` regraded over Z/2, e1 and e2 of degree (1) and e3 and e4 of
    degree (0): L is undetermined and names the one non-identity fiber
    over one dimension; A is yes, with no reason.  The JSON after the
    two lines is that of the two verdicts."""
    doc = _a4_doc()
    doc["group"]["moduli"] = [2]
    doc["L"]["degrees"] = [[1], [1], [0], [0]]
    doc["A"]["degrees"] = [[0]]
    path = tmp_path / "a4-z2.json"
    path.write_text(json.dumps(doc))
    alg = load_instance(str(path))
    assert run_all(alg).passed
    code, text = _run("simple", str(path))
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[:2] == [
        "L graded-simple: undetermined (fibers over one dimension at [1])",
        "A graded-simple: yes"]
    verdicts = {"L": check_gr_simple_L(alg), "A": check_gr_simple_A(alg)}
    assert "\n".join(lines[2:]) == canonical_json(verdicts)


def test_report_deterministic(tmp_path):
    path = _emit(tmp_path, "gl2-trace")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert _run("report", str(path), "--out", str(out1))[0] == EXIT_OK
    assert _run("report", str(path), "--out", str(out2))[0] == EXIT_OK
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["schema"] == "g3lr-report/1"
    assert doc["axioms"]["passed"] is True
    assert doc["instance_digest"] == instance_digest(builtin("gl2-trace"))


def test_report_on_invalid_instance_keeps_axioms(tmp_path):
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e1": "1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code, _ = _run("report", str(path), "--out", str(out))
    assert code == EXIT_VIOLATIONS
    rep = json.loads(out.read_text())
    assert rep["axioms"]["passed"] is False
    assert "decomposition" not in rep


def test_unwritable_report_outranks_violations(tmp_path, capsys):
    """On an instance that fails its axioms, report still runs, and a
    report that cannot be written exits 3, not 2."""
    doc = _a4_doc()
    doc["bracket"][0]["value"] = {"e1": "1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    bad = str(tmp_path / "missing-dir" / "r.json")
    capsys.readouterr()
    code, text = _run("report", str(path), "--out", bad)
    assert code == EXIT_PARSE
    assert text == _run("validate", str(path))[1]
    assert capsys.readouterr().err.startswith("cannot write %s: " % bad)


class _ClosedPipe(io.StringIO):
    """An output whose reader has gone: every write raises, as a write
    to a pipe with its read end closed does."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("valid", [True, False])
def test_closed_output_is_an_output_error(tmp_path, capsys, valid):
    """A reader that closes the output early is not a bug: report exits
    3, the code for output that cannot be written, on an instance that
    passes its axioms and on one that fails them, and prints no
    internal error."""
    path = _emit(tmp_path, "a4")
    if not valid:
        doc = _a4_doc()
        doc["bracket"][0]["value"] = {"e1": "1"}
        path.write_text(json.dumps(doc))
        assert _run("report", str(path))[0] == EXIT_VIOLATIONS
    capsys.readouterr()
    assert main(["report", str(path)], out=_ClosedPipe()) == EXIT_PARSE
    assert capsys.readouterr().err == ""


def _fresh_process(*argv):
    """(exit code, stdout) of one CLI call in a new interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "g3lr.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout


def test_repeated_calls_carry_no_state(tmp_path):
    """The parser is built once per process; each call still gets only
    its own options, so every in-process call prints what the same call
    prints as the first call of a new process."""
    path = str(_emit(tmp_path, "gl2-trace"))
    out = tmp_path / "r.json"
    calls = [("report", path, "--out", str(out)), ("report", path),
             ("decompose", path, "--json"), ("decompose", path)]
    written = None
    for argv in calls:
        got = _run(*argv)
        if "--out" in argv:
            written = out.read_text()
            out.unlink()
        assert got == _fresh_process(*argv), argv
    assert written == _run("report", path)[1]
    assert _run("decompose", path)[1] != _run("decompose", path, "--json")[1]


def test_builtin_to_stdout():
    code, text = _run("builtin", "trivial")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["schema"] == "g3lr-instance/1"


@pytest.mark.parametrize("command", ["report", "builtin"])
@pytest.mark.parametrize("target", ["missing-dir/r.json", "."],
                         ids=["missing-directory", "a-directory"])
def test_unwritable_output_is_an_io_error(tmp_path, capsys, command, target):
    """An output path that cannot be written exits 3 with a message
    naming the path, for `report --out` and `builtin --emit` alike."""
    bad = str(tmp_path / target)
    argv = {"report": ("report", str(_emit(tmp_path, "a4")), "--out", bad),
            "builtin": ("builtin", "a4", "--emit", bad)}[command]
    capsys.readouterr()
    code, text = _run(*argv)
    assert code == EXIT_PARSE
    assert text == ""
    assert capsys.readouterr().err.startswith("cannot write %s: " % bad)


# ---------------------------------------------------------------------------
# the canonical writer


# any code point, lone surrogates included, with quotes, backslashes,
# control characters, non-ASCII and astral characters drawn often
_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\x80\u00e9\u2028\ufeff\U0001f600'),
    st.characters(exclude_categories=())), max_size=8)
_INTS = st.one_of(st.integers(), st.sampled_from([-2 ** 64, 10 ** 40,
                                                  -10 ** 40]))
_FRACTIONS = st.one_of(st.fractions(), st.sampled_from(
    [Fraction(0), Fraction(-1), Fraction(10 ** 40, 3)]))
# a run: a list or tuple whose items share one leaf type, empty and
# one-item runs drawn often
_RUNS = st.one_of([st.lists(leaf, max_size=3) for leaf in
                   (_INTS, _TEXT, _FRACTIONS, st.booleans(), st.none())])
# the values the writer takes: JSON values, tuples and Fractions; named
# apart from the `_JSON_VALUES` that retype a node of an example above
_REPORT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _TEXT, _FRACTIONS),
    lambda items: st.one_of(st.lists(items), st.lists(items).map(tuple),
                            st.dictionaries(_TEXT, items),
                            _RUNS, _RUNS.map(tuple)),
    max_leaves=20)


def _dumps(value):
    """The canonical text by its definition: `json.dumps` with sorted
    keys and indent 1, each Fraction written as the string `str` gives."""
    return json.dumps(value, sort_keys=True, indent=1, default=str)


@settings(max_examples=200, deadline=None)
@given(value=_REPORT_VALUES)
def test_canonical_json_is_json_dumps_with_sorted_keys(value):
    assert canonical_json(value) == _dumps(value)


def test_axiom_report_of_a_mutation_is_json_dumps_of_its_plain_form():
    """The report of a seeded single-entry mutation of a4-dual-numbers:
    violation vectors are runs of Fractions, witnesses mix ints and
    strings."""
    doc = instance_to_dict(builtin("a4-dual-numbers"))
    entry = random.Random(34).choice(doc["action"])
    label = next(iter(entry["value"]))
    entry["value"][label] = str(2 * Fraction(entry["value"][label]))
    report = run_all(instance_from_dict(doc))
    assert not report.passed
    plain = {"passed": False, "counts": report.counts,
             "notes": report.notes,
             "violations": {axiom: [{"witness": list(v.witness),
                                     "lhs": list(v.lhs), "rhs": list(v.rhs)}
                                    for v in vs[:VIOLATION_CAP]]
                            for axiom, vs in report.violations.items()
                            if vs}}
    assert any(type(c) is Fraction for vs in plain["violations"].values()
               for v in vs for c in v["lhs"])
    assert canonical_json(report) == _dumps(plain)


def _dataclass_values(value):
    """Every dataclass value inside `value`, through dicts, lists, tuples
    and the fields of each dataclass value."""
    if is_dataclass(value):
        yield value
        value = [getattr(value, f.name) for f in fields(value)]
    elif type(value) is dict:
        value = value.values()
    elif type(value) not in (list, tuple):
        return
    for x in value:
        yield from _dataclass_values(x)


def test_report_dataclasses_hold_exactly_their_fields():
    """The writer reads a report dataclass through `vars`, so each one
    must hold its fields and nothing else, or a stray attribute would
    reach the report: every dataclass value inside `decompose` of each
    builtin, the `g3lr simple` verdicts and the axiom report of a seeded
    failing mutation.  `SupportSets`, whose cached properties land in its
    `__dict__`, is written by its `_SHAPES` entry instead."""
    values = [decompose(builtin(name)) for name in BUILTIN_NAMES]
    values += [check(builtin(name)) for name in BUILTIN_NAMES
               for check in (check_gr_simple_L, check_gr_simple_A)]
    doc = instance_to_dict(builtin("a4-dual-numbers"))
    entry = random.Random(34).choice(doc["action"])
    label = next(iter(entry["value"]))
    entry["value"][label] = str(2 * Fraction(entry["value"][label]))
    report = run_all(instance_from_dict(doc))
    assert not report.passed
    values.append(report)
    seen = set()
    for x in _dataclass_values(values):
        seen.add(type(x).__name__)
        if type(x) is not SupportSets:
            assert vars(x).keys() == {f.name for f in fields(x)}, x
    assert seen >= {"DecompositionReport", "ConnectionClass",
                    "IdealCandidate", "StructureIdeals", "TightnessReport",
                    "PairingReport", "FineComponent", "SimplicityVerdict",
                    "AxiomReport", "Violation"}, seen


# the items of a violation's sides: the shared zero `ZERO` of `zero_vec`
# and `dense_vec` (most of a dense side), fresh zeros, ints, negative and
# huge Fractions
_SIDE_ITEMS = st.one_of(st.just(zero_vec(1)[0]), st.just(Fraction(0)),
                        _INTS, _FRACTIONS,
                        _FRACTIONS.map(lambda f: -abs(f) - 1))
_SIDES = st.one_of(
    st.lists(_SIDE_ITEMS, max_size=4).map(tuple),
    # a dense side: shared zeros ahead of a few other items
    st.lists(_SIDE_ITEMS, min_size=1, max_size=4).map(
        lambda v: zero_vec(8 - len(v)) + tuple(v)),
    # the right side of a grading violation
    st.lists(st.integers(-3, 3), max_size=3).map(
        lambda d: ("expected-degree",) + tuple(d)))
_VIOLATIONS = st.tuples(
    st.sampled_from(ALL_AXIOMS),
    st.lists(st.one_of(st.integers(0, 9), _TEXT), max_size=6).map(tuple),
    _SIDES, _SIDES).filter(lambda t: t[2] != t[3]).map(
        lambda t: Violation(*t))


def _nested(depth):
    """Violations inside `depth` levels of lists and dicts."""
    values = _VIOLATIONS
    for _ in range(depth):
        values = st.one_of(st.lists(values, max_size=3),
                           st.dictionaries(_TEXT, values, max_size=3))
    return values


def _plain(value):
    """Each Violation as its plain {witness, lhs, rhs} form."""
    if type(value) is Violation:
        return {"witness": list(value.witness), "lhs": list(value.lhs),
                "rhs": list(value.rhs)}
    if type(value) is dict:
        return {k: _plain(v) for k, v in value.items()}
    return [_plain(v) for v in value]


@settings(max_examples=200, deadline=None)
@given(value=st.integers(0, 3).flatmap(_nested))
def test_canonical_json_of_violations_is_json_dumps_of_their_plain_form(
        value):
    assert canonical_json(value) == _dumps(_plain(value))


@pytest.mark.parametrize("side", ["witness", "lhs", "rhs"])
def test_canonical_json_never_writes_a_violation_holding_a_float(side):
    sides = {"witness": ("bracket", 0), "lhs": zero_vec(2),
             "rhs": (Fraction(1), Fraction(0))}
    sides[side] += (1.5,)
    v = Violation(RINEHART, **sides)
    for value in (v, [v], {"a": [v]}):
        with pytest.raises(TypeError):
            canonical_json(value)


# values the writer does not know: a float, sets, bytes and a non-string
# key, which `json.dumps` would write as a string
_UNKNOWN = st.sampled_from([1.5, float("nan"), {1, 2}, frozenset(), b"",
                            {1: "a"}, object()])


@settings(max_examples=50, deadline=None)
@given(bad=_UNKNOWN, before=_REPORT_VALUES, key=_TEXT)
def test_canonical_json_never_writes_an_unknown_value(bad, before, key):
    for value in (bad, [before, bad], {key: [bad]}):
        with pytest.raises(TypeError):
            canonical_json(value)
