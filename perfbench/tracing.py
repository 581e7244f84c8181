"""The traced run: each operation replayed as calls into the layers'
public functions, with a span around every call.

The replay follows the order of `cli._cmd_report` (load, axiom suite,
decomposition, serialization) and of `decompose()` (supports, classes,
class ideals, structure ideals, tightness, orthogonality and pairing,
predicates, fine decomposition).  A stage that `decompose()` runs
through private helpers, such as the degree-1 complements, has no
replay of its own; it shows in `decompose.unattributed_s`, the time of
one real `decompose()` call minus the replayed stages.

Spans live in memory as (name, start, end, parent index, op id) and are
written out when the run ends.  A span's self time is its duration minus
the durations of its children.
"""

import json
import os
import time
from contextlib import contextmanager
from math import comb

from g3lr.axioms import (A_ALGEBRA, FUNDAMENTAL, GRADING, REPRESENTATION,
                         RHO_DERIVATION, RINEHART, AxiomReport,
                         check_A_algebra,
                         check_fundamental_identity, check_grading,
                         check_representation, check_rho_derivation,
                         check_rinehart_compat, rho_antisymmetry_witnesses,
                         run_all)
from g3lr.connections import compute_supports, lambda_classes, sigma_classes
from g3lr.decompose import (build_A_ideal, build_I, check_G_multiplicative,
                            check_gr_simple_A, check_gr_simple_L,
                            check_maximal_length, check_tight, decompose,
                            pair_ideals, structure_ideals,
                            verify_triple_orthogonality)
from g3lr.instio import (axiom_report_json, canonical_json,
                         decomposition_json, instance_digest, load_instance)
from g3lr.linalg import intersect_subspaces


def _tuples(group, alg):
    """Basis tuples one axiom group enumerates, from the dimensions and
    the stored tables alone; groups that return at once without rho
    enumerate none."""
    n, a = alg.dim_L, alg.dim_A
    if group == "fundamental":
        return comb(n, 3) * comb(n, 2)
    if group == "representation":
        return n ** 4 * a if alg.rho else 0
    if group == "rinehart":
        return n ** 3 * a + n ** 2 * a ** 2
    if group == "rho_derivation":
        return n ** 2 * a * (a + 1) // 2 if alg.rho else 0
    if group == "A_algebra":
        return a ** 3 + a ** 2 * n
    return sum(len(e) for table in (alg.bracket, alg.amul, alg.action,
                                    alg.rho) for e in table.values())


# run_all's order: metric name, axiom report key, check
AXIOM_GROUPS = (
    ("fundamental", FUNDAMENTAL, check_fundamental_identity),
    ("representation", REPRESENTATION, check_representation),
    ("rinehart", RINEHART, check_rinehart_compat),
    ("rho_derivation", RHO_DERIVATION, check_rho_derivation),
    ("A_algebra", A_ALGEBRA, check_A_algebra),
    ("grading", GRADING, check_grading),
)

# leaf spans of the replayed decompose() stages
DECOMPOSE_STAGES = ("connections.supports", "connections.classes",
                    "decompose.class_ideals", "decompose.structure",
                    "decompose.tightness", "decompose.orthogonality",
                    "decompose.predicates", "decompose.fine")

TIMED = (tuple("axioms." + g for g, _, _ in AXIOM_GROUPS)
         + ("axioms.antisymmetry",) + DECOMPOSE_STAGES
         + ("decompose.simple", "decompose.total", "instio.load",
            "instio.serialize"))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, first):
        """{name: total self time} over the spans from index `first`."""
        child = [0.0] * len(self.spans)
        for rec in self.spans[first:]:
            if rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for i in range(first, len(self.spans)):
            name, start, end = self.spans[i][:3]
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _generators(alg, space, C):
    """Homogeneous generators the simplicity test closes within C: one
    per echelon row of C meet each degree fiber."""
    basis = alg.L if space == "L" else alg.A
    return sum(intersect_subspaces(C, alg.fiber(space, d)).dim
               for d in set(basis.degrees))


def replay_decompose(tr, alg, counts):
    """The stages of decompose(), in its order, each in its own span."""
    with tr.span("decompose.stages"):
        with tr.span("connections.supports"):
            supports = compute_supports(alg)
        with tr.span("connections.classes"):
            sig = sigma_classes(supports)
            lam = lambda_classes(supports)
        with tr.span("decompose.class_ideals"):
            L_ideals = [build_I(alg, c) for c in sig]
            A_ideals = [build_A_ideal(alg, c) for c in lam]
        with tr.span("decompose.structure"):
            structure = structure_ideals(alg)
        with tr.span("decompose.tightness"):
            tight = check_tight(alg, structure=structure).tight
        with tr.span("decompose.orthogonality"):
            verify_triple_orthogonality(alg, L_ideals, A_ideals)
            pair_ideals(alg, L_ideals, A_ideals, tight=tight)
        with tr.span("decompose.predicates"):
            maximal = check_maximal_length(alg)
            check_G_multiplicative(alg)
        symmetric = (supports.sigma1 == supports.sigma
                     and supports.lambda1 == supports.lambda_)
        if tight and maximal and symmetric:
            with tr.span("decompose.fine"):
                for I in L_ideals:
                    check_gr_simple_L(alg, within=I.subspace,
                                      structure=structure)
                for J in A_ideals:
                    check_gr_simple_A(alg, within=J.subspace)
            counts["decompose.generators_closed"] += sum(
                _generators(alg, "L", I.subspace) for I in L_ideals) + sum(
                _generators(alg, "A", J.subspace) for J in A_ideals)
    counts["connections.support_elems"] += (len(supports.sigma1)
                                            + len(supports.lambda1))


def replay_report(tr, path, counts):
    """`g3lr report FILE` as calls into instio, axioms and decompose."""
    with tr.span("instio.load"):
        alg = load_instance(path)
    counts["instio.bytes_read"] += os.path.getsize(path)
    report = AxiomReport()
    with tr.span("axioms"):
        for group, axiom, fn in AXIOM_GROUPS:
            with tr.span("axioms." + group):
                vs = fn(alg)
            report.violations[axiom] = vs
            report.counts[axiom] = len(vs)
        with tr.span("axioms.antisymmetry"):
            rho_antisymmetry_witnesses(alg)
    for group, _, _ in AXIOM_GROUPS:
        counts["axioms.%s.tuples" % group] += _tuples(group, alg)
    counts["axioms.violations"] += sum(report.counts.values())
    rep = None
    if report.passed:
        replay_decompose(tr, alg, counts)
        # untimed: caches the axiom report so that the real decompose()
        # call below times the decomposition alone
        run_all(alg)
        with tr.span("decompose.total"):
            rep = decompose(alg)
    with tr.span("instio.serialize"):
        doc = {"instance_digest": instance_digest(alg),
               "axioms": axiom_report_json(report)}
        if rep is not None:
            doc["decomposition"] = decomposition_json(rep)
        canonical_json(doc)


def replay_analyse(tr, alg, counts):
    """decompose(), check_gr_simple_L and check_gr_simple_A on a
    validated instance, with the decompose() stages replayed first."""
    replay_decompose(tr, alg, counts)
    with tr.span("decompose.total"):
        decompose(alg)
    with tr.span("decompose.simple"):
        check_gr_simple_L(alg)
        check_gr_simple_A(alg)
    counts["decompose.generators_closed"] += alg.dim_L + alg.dim_A
