"""Instance files and analysis reports as canonical JSON.

The instance format stores the grading group, the two labelled graded
bases, and the four structure tables of `model.TABLES` with rational
coefficients written as strings ("2", "-1/3").  Table entries refer to
basis labels.  Each table is read and written by its signature in
`TABLES`.  A file is checked once, by the parser, whose errors name the
entry: key order (strictly increasing bracket triples, non-decreasing
product pairs), labels and coefficients, each distinct coefficient string
parsed once per document; it builds the stored tables itself.  The basis
rules are those of `model.GradedBasis`.  `instance_digest` is the SHA-256 of
`json.dumps(instance_to_dict(alg), sort_keys=True, separators=(",", ":"))`.

`canonical_json` writes every report and instance file in one pass, by
the exact type of each value, as the text `json.dumps(value,
sort_keys=True, indent=1)` would give; that call itself runs the
pure-Python encoder, which CPython 3.11 takes whenever `indent` is set.
A report key is the field name of its report dataclass; the shape table
`_SHAPES` lists the few types written otherwise.  Sorted keys, canonical
echelon bases and fractions as strings make the output byte-identical
for identical input.  A leaf item is put on its own: a join of a run of
one leaf type costs more than it saves on the short vectors of a report.
An axiom `Violation` is the exception: its item types are known, so
`_write_violation` writes each of its three vectors in one join, and the
one zero `linalg.ZERO` that `dense_vec` fills in, most of a dense side,
by identity (`str` gives "0" for every zero Fraction, so the text is the
same).
"""

import hashlib
import json
import re
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from operator import getitem

from .axioms import AxiomReport, Violation
from .connections import ConnectionClass, SupportSets
from .decompose import (DecompositionReport, IdealCandidate, PairingReport,
                        TightnessReport)
from .groups import GroupElem, GroupSpec, _elem
from .linalg import ZERO, Subspace
from .model import TABLES, Algebra3LR, GradedBasis, in_key_order

INSTANCE_SCHEMA = "g3lr-instance/1"
REPORT_SCHEMA = "g3lr-report/1"
# the digest's encoder; `instance_to_dict` makes a new tree, never a cycle
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False)


class ParseError(Exception):
    """Instance file rejected; `where` names the offending field."""

    def __init__(self, where, message):
        super().__init__("%s: %s" % (where, message))
        self.where = where
        self.message = message


# the coefficient grammar of docs/instance.schema.json
_RATIONAL = re.compile(r"-?([0-9]+)(?:/([1-9][0-9]*))?")

# the JSON type of a parsed value that is not an array, for messages
_JSON_TYPES = {dict: "an object", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}

# the most digits a coefficient's numerator or denominator may have; it
# bounds the cost of one coefficient and stays below the limit of
# Python's int-from-string conversion (4,300 digits by default)
MAX_DIGITS = 1000


def _parse_fraction(s):
    m = _RATIONAL.fullmatch(s) if type(s) is str else None
    if m is None:
        raise ValueError("malformed rational %r" % (s,))
    for part, digits in zip(("numerator", "denominator"), m.groups()):
        if digits is not None and len(digits) > MAX_DIGITS:
            raise ValueError("rational %s has %d digits, over the cap of %d"
                             % (part, len(digits), MAX_DIGITS))
    # the value from the groups: Fraction(s) would match s again
    num = -int(m[1]) if s[0] == "-" else int(m[1])
    return Fraction(num, int(m[2])) if m[2] else Fraction(num)


def _int_list(value, where, what):
    """A JSON array of integers; booleans and floats are rejected, not
    coerced."""
    if type(value) is not list or any(type(x) is not int for x in value):
        raise ParseError(where, "%s must be a list of integers: %r"
                         % (what, value))
    return tuple(value)


def _parse_basis(data, group, where):
    try:
        labels, degrees = data["labels"], data["degrees"]
    except (KeyError, TypeError):
        raise ParseError(where, "expected labels and degrees")
    for key, value, item in (("labels", labels, "strings"),
                             ("degrees", degrees, "integer arrays")):
        if type(value) is not list:
            raise ParseError(where, "%s must be a list of %s, not %s"
                             % (key, item, _JSON_TYPES[type(value)]))
    if not {*map(type, labels)} <= {str}:
        raise ParseError(where, "labels must be a list of strings")
    try:
        if not ({*map(type, degrees)} <= {list}
                and {*map(len, degrees)} <= {len(group.moduli)}
                and {*map(type, chain.from_iterable(degrees))} <= {int}):
            for d in degrees:               # raise the degree's message
                group.elem(_int_list(d, where, "a degree"))
        return GradedBasis(labels, [_elem(group, d) for d in degrees])
    except ValueError as e:
        raise ParseError(where, str(e))


def _parse_table(entries, bases, where, rationals):
    """entries: list of {"args": [labels], "value": {label: rational}}
    of the table `where` of `TABLES` on `bases` ({space: `GradedBasis`}),
    in its key order, as `model._stored` stores it; `rationals` holds the
    values of the coefficient strings of the document parsed so far."""
    arg_spaces, value_space, order = TABLES[where]
    arg_index = [bases[s]._index for s in arg_spaces]
    value_index = bases[value_space]._index
    entries = [] if entries is None else entries
    if type(entries) is not list:
        raise ParseError(where, "a table must be an array, not %s"
                         % _JSON_TYPES[type(entries)])
    table = {}
    try:
        for pos, entry in enumerate(entries):
            try:
                args, value = entry["args"], entry["value"]
            except (KeyError, TypeError):
                raise ValueError("expected args and value")
            if type(args) is not list or type(value) is not dict:
                raise ValueError("args must be an array and value an "
                                 "object: %r" % (entry,))
            if len(args) != len(arg_index):
                raise ValueError("expected %d arguments" % len(arg_index))
            try:
                idx = tuple(map(dict.__getitem__, arg_index, args))
            except (KeyError, TypeError):   # raise the label's message
                for s, a in zip(arg_spaces, args):
                    bases[s].index(a)
            if not in_key_order(idx, order):
                raise ValueError("non-canonical %s order %r"
                                 % (("pair", "triple")[len(args) - 2], args))
            if idx in table:
                raise ValueError("duplicate entry for %r" % (args,))
            table[idx] = row = {}
            for lbl, c in value.items():
                m = value_index.get(lbl)
                if m is None:
                    bases[value_space].index(lbl)
                q = rationals.get(c) if type(c) is str else None
                if q is None:
                    q = rationals[c] = _parse_fraction(c)
                if q:
                    row[m] = q
    except ValueError as e:     # the position text is built only here
        raise ParseError("%s[%d]" % (where, pos), str(e)) from None
    return {idx: row for idx, row in table.items() if row}


def instance_from_dict(data):
    if not isinstance(data, dict):
        raise ParseError("document", "expected a JSON object")
    if data.get("schema") != INSTANCE_SCHEMA:
        raise ParseError("schema", "expected %r" % INSTANCE_SCHEMA)
    try:
        moduli = _int_list(data["group"]["moduli"], "group", "moduli")
    except (KeyError, TypeError):
        raise ParseError("group", "expected group.moduli")
    try:
        group = GroupSpec(moduli)
    except ValueError as e:
        raise ParseError("group", str(e))
    L = _parse_basis(data.get("L", {}), group, "L")
    A = _parse_basis(data.get("A", {}), group, "A")
    bases, rationals = {"L": L, "A": A}, {}
    return Algebra3LR._from_stored(group, L, A, [
        _parse_table(data.get(name), bases, name, rationals)
        for name in TABLES])


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice is rejected, where
    `json.load` would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError("duplicate key %r" % (key,))
            seen.add(key)
    return obj


def load_instance(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ParseError(str(path), "cannot read: %s" % e)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, UnicodeDecodeError, a duplicate key, or nesting
        # too deep to parse
        raise ParseError(str(path), "invalid JSON: %s" % e)
    return instance_from_dict(data)


def _table_entries(alg, name):
    args, value, _ = TABLES[name]
    arg_labels = [alg.basis(s).labels for s in args]
    value_labels = alg.basis(value).labels
    table = getattr(alg, name)
    return [{"args": list(map(getitem, arg_labels, key)),
             "value": {value_labels[m]: str(c)
                       for m, c in table[key].items()}}
            for key in sorted(table)]


def instance_to_dict(alg):
    doc = {"schema": INSTANCE_SCHEMA,
           "group": {"moduli": list(alg.group.moduli)}}
    for space in "LA":
        B = alg.basis(space)
        doc[space] = {"labels": list(B.labels),
                      "degrees": [list(d.coords) for d in B.degrees]}
    for name in TABLES:
        doc[name] = _table_entries(alg, name)
    return doc


def save_instance(alg, path):
    with open(path, "w") as fh:
        fh.write(canonical_json(instance_to_dict(alg)))
        fh.write("\n")


def instance_digest(alg):
    compact = _COMPACT.encode(instance_to_dict(alg))
    return hashlib.sha256(compact.encode()).hexdigest()


# ---------------------------------------------------------------------------
# canonical text


def canonical_json(value):
    """`json.dumps(value, sort_keys=True, indent=1)`, in one pass, for a
    JSON value or a report value; other types, floats too, are TypeErrors."""
    out = []
    _write(value, out.append, "\n")
    return "".join(out)


# the text of a leaf by its exact type; a Fraction is the string "p/q"
_LEAVES = {str: _string, int: int.__repr__,
           Fraction: lambda f: '"' + str(f) + '"',
           bool: ("false", "true").__getitem__, type(None): lambda _: "null"}
# the field names of a dataclass, read once per class: `_fields` runs on
# every dataclass value written, and `dataclasses.fields` costs about
# 2 us a call
_names = cache(lambda kind: [f.name for f in fields(kind)])


def _write(value, put, nl):
    """Put the text of `value` at the indent `nl` (a newline and one
    space per level): a leaf, a dict with sorted keys, a list or tuple,
    a type in `_SHAPES` by its shape, any other dataclass by `_fields`."""
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return put(leaf(value))
    keyed = kind is dict
    if keyed or kind is list or kind is tuple:
        if not value:
            return put("{}" if keyed else "[]")
        inner = nl + " "
        sep = ("{" if keyed else "[") + inner
        for x in sorted(value) if keyed else value:
            if keyed:
                sep, x = sep + _string(x) + ": ", value[x]
            leaf = _LEAVES.get(type(x))    # a leaf item is put in line
            if leaf is None:
                put(sep)
                _write(x, put, inner)
            else:
                put(sep + leaf(x))
            sep = "," + inner
        return put(nl + ("}" if keyed else "]"))
    if kind is Violation:
        return _write_violation(value, put, nl)
    shape = _SHAPES.get(kind) or (_fields if is_dataclass(kind) else None)
    if shape is None:
        raise TypeError("%s is not a report value" % kind.__name__)
    _write(shape(value), put, nl)


def _write_violation(v, put, nl):
    """Put the text of `_fields(v, "axiom")`, each vector of leaves in
    one join; the zero `ZERO` of `dense_vec`, most of a dense side, is
    known by identity and skips `Fraction.__str__`.  A vector with an
    item that is no leaf falls back to `_write`, which raises on an
    unknown value."""
    inner = nl + " "
    item = inner + " "
    try:
        lhs, rhs, witness = ["[" + item + ("," + item).join(
            ['"0"' if x is ZERO else _LEAVES[type(x)](x) for x in vec])
            + inner + "]" if vec else "[]"
            for vec in (v.lhs, v.rhs, v.witness)]
    except KeyError:
        return _write(_fields(v, "axiom"), put, nl)
    put("{" + inner + '"lhs": ' + lhs + "," + inner + '"rhs": ' + rhs
        + "," + inner + '"witness": ' + witness + nl + "}")


def _fields(obj, skip=None):
    return {name: getattr(obj, name) for name in _names(type(obj))
            if name != skip}


def subspace_json(S):
    n = S.ambient_dim
    return {"ambient": n, "dim": S.dim,
            "basis": [[str(r.get(j, 0)) for j in range(n)] for r in S.rows]}


def axiom_report_json(report):
    return {"passed": report.passed, "counts": report.counts,
            "notes": report.notes,
            "violations": {axiom: vs for axiom, vs
                           in report.capped().items() if vs}}


def decomposition_json(rep):
    if rep.aborted:
        return {"aborted": True, "axioms": rep.axioms}
    holds, counterexamples = rep.orthogonality
    return {**_fields(rep), "orthogonality": {
        "holds": holds, "counterexamples": counterexamples}}


# the report types whose JSON is not {field name: value}; a degree is
# written as its coordinates, and a set of degrees in their order
_SHAPES = {
    GroupElem: lambda g: g.coords,
    Subspace: subspace_json,
    AxiomReport: axiom_report_json,
    SupportSets: lambda s: {"sigma1": sorted(s.sigma1),
                            "lambda1": sorted(s.lambda1)},
    ConnectionClass: lambda c: {
        **_fields(c), "members": sorted(c.members),
        "witnesses": {json.dumps(h.coords): w
                      for h, w in c.witnesses.items()}},
    IdealCandidate: lambda I: {**_fields(I, "source_class"),
                               "class": I.source_class.representative},
    PairingReport: lambda p: {**_fields(p), "mapping": {
        json.dumps(k): v for k, v in p.mapping.items()}},
    TightnessReport: lambda t: {**_fields(t), "tight": t.tight},
    DecompositionReport: decomposition_json,
}
