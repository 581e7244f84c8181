"""Instance files and analysis reports as canonical JSON.

The instance format stores the grading group, the two labelled graded
bases, and the four structure tables of `model.TABLES` with rational
coefficients written as strings ("2", "-1/3").  Table entries refer to
basis labels.  Each table is read and written by its signature in
`TABLES`, and its key order (strictly increasing bracket triples,
non-decreasing product pairs) is enforced at parse time with structured
errors; the basis rules are those of `model.GradedBasis`.

A report is written by one walker, `report_json`.  Its keys are the
field names of the report dataclasses; the shape table `_SHAPES` lists
the few types written otherwise, so a new report key is one new field.
Report serialization is deterministic: sorted keys, canonical echelon
bases, fractions as strings.  Identical input therefore yields
byte-identical output.
"""

import hashlib
import json
import re
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .axioms import AxiomReport
from .connections import ConnectionClass, SupportSets
from .decompose import (DecompositionReport, IdealCandidate, PairingReport,
                        TightnessReport)
from .groups import GroupSpec
from .linalg import Subspace
from .model import TABLES, Algebra3LR, GradedBasis, in_key_order

INSTANCE_SCHEMA = "g3lr-instance/1"
REPORT_SCHEMA = "g3lr-report/1"


class ParseError(Exception):
    """Instance file rejected; `where` names the offending field."""

    def __init__(self, where, message):
        super().__init__("%s: %s" % (where, message))
        self.where = where
        self.message = message


# the coefficient grammar of docs/instance.schema.json
_RATIONAL = re.compile(r"-?([0-9]+)(?:/([1-9][0-9]*))?")

# the most digits a coefficient's numerator or denominator may have; it
# bounds the cost of one coefficient and stays below the limit of
# Python's int-from-string conversion (4,300 digits by default)
MAX_DIGITS = 1000


def _parse_fraction(s, where):
    m = _RATIONAL.fullmatch(s) if type(s) is str else None
    if m is None:
        raise ParseError(where, "malformed rational %r" % (s,))
    for part, digits in zip(("numerator", "denominator"), m.groups()):
        if digits is not None and len(digits) > MAX_DIGITS:
            raise ParseError(where, "rational %s has %d digits, over the "
                             "cap of %d" % (part, len(digits), MAX_DIGITS))
    return Fraction(s)


def _int_list(value, where, what):
    """A JSON array of integers; booleans and floats are rejected, not
    coerced."""
    if type(value) is not list or any(type(x) is not int for x in value):
        raise ParseError(where, "%s must be a list of integers: %r"
                         % (what, value))
    return tuple(value)


def _parse_basis(data, group, where):
    try:
        labels = data["labels"]
        degrees = list(data["degrees"])
    except (KeyError, TypeError):
        raise ParseError(where, "expected labels and degrees")
    if type(labels) is not list or any(type(x) is not str for x in labels):
        raise ParseError(where, "labels must be a list of strings")
    try:
        return GradedBasis(labels, [
            group.elem(_int_list(d, where, "a degree")) for d in degrees])
    except ValueError as e:
        raise ParseError(where, str(e))


def _label_index(basis, label, where):
    try:
        return basis.index(label)
    except ValueError:
        raise ParseError(where, "unknown label %r" % (label,))


def _parse_table(entries, bases, where):
    """entries: list of {"args": [labels], "value": {label: rational}}
    of the table `where` of `TABLES`, on the bases of the instance
    `bases`; the argument indices must be in the table's key order."""
    arg_spaces, value_space, order = TABLES[where]
    arg_bases = [bases.basis(s) for s in arg_spaces]
    value_basis = bases.basis(value_space)
    entries = [] if entries is None else entries
    if type(entries) is not list:
        raise ParseError(where, "a table must be an array, not %s"
                         % type(entries).__name__)
    table = {}
    for pos, entry in enumerate(entries):
        here = "%s[%d]" % (where, pos)
        try:
            args, value = entry["args"], entry["value"]
        except (KeyError, TypeError):
            raise ParseError(here, "expected args and value")
        if type(args) is not list or type(value) is not dict:
            raise ParseError(here, "args must be an array and value an "
                             "object: %r" % (entry,))
        if len(args) != len(arg_bases):
            raise ParseError(here, "expected %d arguments" % len(arg_bases))
        idx = tuple(_label_index(b, a, here)
                    for b, a in zip(arg_bases, args))
        if not in_key_order(idx, order):
            raise ParseError(here, "non-canonical %s order %r"
                             % (("pair", "triple")[len(args) - 2], args))
        if idx in table:
            raise ParseError(here, "duplicate entry for %r" % (args,))
        table[idx] = {
            _label_index(value_basis, lbl, here):
            _parse_fraction(c, here)
            for lbl, c in value.items()}
    return table


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
    bases = Algebra3LR(group, L, A, {}, {}, {}, {})    # no tables yet
    tables = [_parse_table(data.get(name), bases, name) for name in TABLES]
    try:
        return Algebra3LR(group, L, A, *tables)
    except ValueError as e:
        raise ParseError("tables", str(e))


def load_instance(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(str(path), "cannot read: %s" % e)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, UnicodeDecodeError, or nesting too deep to parse
        raise ParseError(str(path), "invalid JSON: %s" % e)
    return instance_from_dict(data)


def _table_entries(alg, name):
    args, value, _ = TABLES[name]
    arg_labels = [alg.basis(s).labels for s in args]
    value_labels = alg.basis(value).labels
    table = getattr(alg, name)
    return [{"args": [labels[i] for labels, i in zip(arg_labels, key)],
             "value": {value_labels[m]: str(c)
                       for m, c in sorted(table[key].items())}}
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


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=1)


def save_instance(alg, path):
    with open(path, "w") as fh:
        fh.write(canonical_json(instance_to_dict(alg)))
        fh.write("\n")


def instance_digest(alg):
    compact = json.dumps(instance_to_dict(alg), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(compact.encode()).hexdigest()


# ---------------------------------------------------------------------------
# report serialization


def report_json(value):
    """The JSON form of a report value, by its exact type: a Fraction
    becomes a string, a list or tuple a list, a dict a dict of the forms
    of its values, a type in `_SHAPES` goes through its own function, any
    other dataclass becomes {field name: value}, and ints, strings,
    booleans and None stay as they are."""
    kind = type(value)
    if kind is Fraction:
        return str(value)
    if kind is list or kind is tuple:
        return [report_json(x) for x in value]
    if kind is dict:
        return {k: report_json(v) for k, v in value.items()}
    shape = _SHAPES.get(kind)
    if shape is not None:
        return shape(value)
    if is_dataclass(kind):
        return _fields(value)
    return value


def _fields(obj, skip=None):
    return {f.name: report_json(getattr(obj, f.name))
            for f in fields(obj) if f.name != skip}


def _sorted_coords(elems):
    return sorted([list(g.coords) for g in elems])


def subspace_json(S):
    n = S.ambient_dim
    return {"ambient": n, "dim": S.dim,
            "basis": [[str(r.get(j, 0)) for j in range(n)] for r in S.rows]}


def axiom_report_json(report):
    return {
        "passed": report.passed,
        "counts": dict(sorted(report.counts.items())),
        "violations": {axiom: [_fields(v, "axiom") for v in vs]
                       for axiom, vs in sorted(report.capped().items())
                       if vs},
        "notes": list(report.notes),
    }


def _class_json(cls):
    return {
        "kind": cls.kind,
        "representative": list(cls.representative.coords),
        "members": _sorted_coords(cls.members),
        "witnesses": {
            json.dumps(list(h.coords)): [list(e.coords) for e in chain]
            for h, chain in sorted(cls.witnesses.items())},
    }


def _ideal_json(I):
    return {**_fields(I, "source_class"),
            "class": list(I.source_class.representative.coords)}


def _pairing_json(p):
    return {**_fields(p, "mapping"),
            "mapping": {json.dumps(list(k)): [list(h) for h in hits]
                        for k, hits in sorted(p.mapping.items())}}


def decomposition_json(rep):
    if rep.aborted:
        return {"aborted": True, "axioms": axiom_report_json(rep.axioms)}
    holds, counterexamples = rep.orthogonality
    return {**_fields(rep, "orthogonality"),
            "orthogonality": {"holds": holds,
                              "counterexamples": report_json(counterexamples)}}


# the report types whose JSON is not {field name: value}
_SHAPES = {
    Subspace: subspace_json,
    AxiomReport: axiom_report_json,
    SupportSets: lambda s: {"sigma1": _sorted_coords(s.sigma1),
                            "lambda1": _sorted_coords(s.lambda1)},
    ConnectionClass: _class_json,
    IdealCandidate: _ideal_json,
    PairingReport: _pairing_json,
    TightnessReport: lambda t: {**_fields(t), "tight": t.tight},
    DecompositionReport: decomposition_json,
}
