"""Instance files and analysis reports as canonical JSON.

The instance format stores the grading group, the two labelled graded
bases, and the four structure tables with rational coefficients written
as strings ("2", "-1/3").  Table entries refer to basis labels, and the
canonical storage conventions of the data model (strictly increasing
bracket triples, non-decreasing product pairs) are enforced at parse
time with structured errors.

Report serialization is deterministic: sorted keys, canonical echelon
bases, fractions as strings.  Identical input therefore yields
byte-identical output.
"""

import hashlib
import json
import re
from fractions import Fraction

from .groups import GroupSpec
from .model import Algebra3LR, GradedBasis

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
    if len(labels) != len(degrees):
        raise ParseError(where, "labels and degrees differ in length")
    if len(set(labels)) != len(labels):
        raise ParseError(where, "duplicate basis labels")
    elems = []
    for d in degrees:
        d = _int_list(d, where, "a degree")
        if len(d) != len(group.moduli):
            raise ParseError(where, "degree arity mismatch: %r" % (d,))
        elems.append(group.elem(d))
    return GradedBasis(tuple(labels), tuple(elems))


def _label_index(basis, label, where):
    try:
        return basis.index(label)
    except ValueError:
        raise ParseError(where, "unknown label %r" % (label,))


def _parse_table(entries, arg_bases, value_basis, where, canonical=None):
    """entries: list of {"args": [labels], "value": {label: rational}}.
    canonical: None, "increasing" (strict) or "non-decreasing" on the
    argument index tuple."""
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
        if canonical == "increasing" and list(idx) != sorted(set(idx)):
            raise ParseError(here, "non-canonical triple order %r" % (args,))
        if canonical == "non-decreasing" and list(idx) != sorted(idx):
            raise ParseError(here, "non-canonical pair order %r" % (args,))
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
    bracket = _parse_table(data.get("bracket"), (L, L, L), L, "bracket",
                           canonical="increasing")
    amul = _parse_table(data.get("amul"), (A, A), A, "amul",
                        canonical="non-decreasing")
    action = _parse_table(data.get("action"), (A, L), L, "action")
    rho = _parse_table(data.get("rho"), (L, L, A), A, "rho")
    try:
        return Algebra3LR(group, L, A, bracket, amul, action, rho)
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


def _frac_s(c):
    return str(Fraction(c))


def _table_entries(table, arg_bases, value_basis):
    out = []
    for key in sorted(table):
        entry = table[key]
        out.append({
            "args": [b.labels[i] for b, i in zip(arg_bases, key)],
            "value": {value_basis.labels[m]: _frac_s(c)
                      for m, c in sorted(entry.items())},
        })
    return out


def instance_to_dict(alg):
    L, A = alg.L, alg.A
    return {
        "schema": INSTANCE_SCHEMA,
        "group": {"moduli": list(alg.group.moduli)},
        "L": {"labels": list(L.labels),
              "degrees": [list(d.coords) for d in L.degrees]},
        "A": {"labels": list(A.labels),
              "degrees": [list(d.coords) for d in A.degrees]},
        "bracket": _table_entries(alg.bracket, (L, L, L), L),
        "amul": _table_entries(alg.amul, (A, A), A),
        "action": _table_entries(alg.action, (A, L), L),
        "rho": _table_entries(alg.rho, (L, L, A), A),
    }


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


def _plain(obj):
    """Recursively convert report payloads to JSON-compatible data: they
    are tuples and lists of ints, strings, None and Fractions."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


def subspace_json(S):
    return {"ambient": S.ambient_dim, "dim": S.dim,
            "basis": [[_frac_s(c) for c in row] for row in S.basis]}


def axiom_report_json(report):
    return {
        "passed": report.passed,
        "counts": dict(sorted(report.counts.items())),
        "violations": {
            axiom: [{"witness": _plain(v.witness), "lhs": _plain(v.lhs),
                     "rhs": _plain(v.rhs)} for v in vs]
            for axiom, vs in sorted(report.capped().items()) if vs},
        "notes": list(report.notes),
    }


def supports_json(supports):
    return {
        "sigma1": sorted([list(g.coords) for g in supports.sigma1]),
        "lambda1": sorted([list(g.coords) for g in supports.lambda1]),
    }


def class_json(cls):
    return {
        "kind": cls.kind,
        "representative": list(cls.representative.coords),
        "members": sorted([list(g.coords) for g in cls.members]),
        "witnesses": {
            json.dumps(list(h.coords)):
            [list(e.coords) for e in chain]
            for h, chain in sorted(cls.witnesses.items(),
                                   key=lambda kv: kv[0].coords)},
    }


def tightness_json(t):
    return {
        "center_zero": t.center_zero,
        "ann_A_zero": t.ann_A_zero,
        "ann_L_A_zero": t.ann_L_A_zero,
        "AA_eq_A": t.AA_eq_A,
        "AL_eq_L": t.AL_eq_L,
        "L1_generation": t.L1_generation,
        "A1_generation": t.A1_generation,
        "tight": t.tight,
    }


def structure_json(s):
    return {
        "z_L": subspace_json(s.z_L),
        "ker_rho": subspace_json(s.ker_rho),
        "center": subspace_json(s.center),
        "ann_A": subspace_json(s.ann_A),
        "ann_L_A": subspace_json(s.ann_L_A),
        "ann_A_on_L": subspace_json(s.ann_A_on_L),
    }


def ideal_json(I):
    return {
        "side": I.side,
        "class": list(I.source_class.representative.coords),
        "subspace": subspace_json(I.subspace),
        "is_graded_ideal": I.is_graded_ideal,
        "is_gr_simple": I.is_gr_simple,
        "certificate": _plain(I.certificate),
    }


def simplicity_json(v):
    return {
        "verdict": v.verdict,
        "product_nonzero": v.product_nonzero,
        "AA_nonzero": v.AA_nonzero,
        "AL_nonzero": v.AL_nonzero,
        "witness": (subspace_json(v.witness)
                    if hasattr(v.witness, "basis") else _plain(v.witness)),
    }


def pairing_json(p):
    return {
        "applicable": p.applicable,
        "unique": p.unique,
        "mapping": {json.dumps(list(k)): [list(h) for h in hits]
                    for k, hits in sorted(p.mapping.items())},
    }


def fine_component_json(fc):
    return {
        "source": _plain(fc.source),
        "subspace": subspace_json(fc.subspace),
        "simplicity": simplicity_json(fc.simplicity),
    }


def decomposition_json(rep):
    out = {
        "aborted": rep.aborted,
        "axioms": axiom_report_json(rep.axioms),
    }
    if rep.aborted:
        return out
    out.update({
        "supports": supports_json(rep.supports),
        "sigma_classes": [class_json(c) for c in rep.sigma_classes],
        "lambda_classes": [class_json(c) for c in rep.lambda_classes],
        "L_ideals": [ideal_json(I) for I in rep.L_ideals],
        "A_ideals": [ideal_json(J) for J in rep.A_ideals],
        "U_complement": subspace_json(rep.U_complement),
        "V_complement": subspace_json(rep.V_complement),
        "L_covers": rep.L_covers,
        "L_direct": rep.L_direct,
        "L_directness_certified": rep.L_directness_certified,
        "A_covers": rep.A_covers,
        "A_direct": rep.A_direct,
        "A_directness_certified": rep.A_directness_certified,
        "structure": structure_json(rep.structure),
        "tightness": tightness_json(rep.tightness),
        "orthogonality": {"holds": rep.orthogonality[0],
                          "counterexamples": _plain(rep.orthogonality[1])},
        "pairing": pairing_json(rep.pairing),
        "maximal_length": rep.maximal_length,
        "g_multiplicative": rep.g_multiplicative,
        "g_mult_counterexamples": _plain(rep.g_mult_counterexamples),
        "supports_symmetric": rep.supports_symmetric,
        "fine_attempted": rep.fine_attempted,
        "fine_components": [fine_component_json(f)
                            for f in rep.fine_components],
        "fine_components_A": [fine_component_json(f)
                              for f in rep.fine_components_A],
        "notes": list(rep.notes),
    })
    return out
