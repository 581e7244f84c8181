"""Seeded inputs of the four benchmark workloads.

Every instance reaches g3lr through its public constructors or its
instance files: the builtins, the direct-sum rungs and the square of the
rho seed ship as fixtures (building them through the catalog reruns the
axiom suite, about 20 s, which would otherwise land in set-up), the rho
seed itself is built by `LieRinehartSeed` and `from_lie_trace`, and each
mutation is a fresh `Algebra3LR` whose tables differ from a valid base
in one entry.

The seed picks the order of the inputs and, for `reject-seeded`, which
mutations run.  The same seed always gives the same inputs.
"""

import os
import random
import shutil
from fractions import Fraction

from g3lr import (Algebra3LR, GradedBasis, GroupSpec, LieRinehartSeed,
                  from_lie_trace, load_instance, run_all, save_instance)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

# a4-dual-numbers-x2 is the dim-16 rung of the ladder; the dim-24 and
# dim-32 rungs are left out until the axiom layer is faster
LADDER = ("trivial", "a4", "gl2-trace", "a4-dual-numbers", "tight-pair",
          "a4-dual-numbers-x2")
ANALYSED = ("tight-pair", "a4", "gl2-trace", "a4-dual-numbers", "rho-seed")
MUTATED = ("a4", "gl2-trace", "a4-dual-numbers", "rho-seed")
RHO = ("rho-seed", "rho-seed-x2")
FIXTURE_NAMES = ("trivial", "a4", "gl2-trace", "a4-dual-numbers",
                 "tight-pair", "a4-dual-numbers-x2", "rho-seed-x2")

MUTATION_KINDS = ("bracket", "action", "amul", "rho")
# mutations drawn per (base instance, kind) pair with a nonempty pool;
# equal quotas keep the work of one pass nearly the same for every seed
PER_STRATUM = 8


def rho_lie_seed():
    """The trace construction of Bai, Bai & Wang on L = sl2 + span{I, J}
    over the dual numbers A = span{1, t}: deg e = 1, deg f = -1,
    deg t = 2, t acts as 0 on L, rep(J)(t) = t and tau(I) = 1.  It is
    the only valid instance with a nonzero rho: rho(I, J)(t) = t."""
    g = GroupSpec((0,))
    L = GradedBasis(("e", "f", "h", "I", "J"),
                    tuple(g.elem((d,)) for d in (1, -1, 0, 0, 0)))
    A = GradedBasis(("one", "t"), (g.identity(), g.elem((2,))))
    return LieRinehartSeed(
        group=g, L=L, A=A,
        lie_bracket={(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
        amul={(0, 0): {0: 1}, (0, 1): {1: 1}},
        action={(0, li): {li: 1} for li in range(5)},
        rep={(4, 1): {1: 1}},
        tau=(0, 0, 0, 1, 0))


def instance(name):
    """A fresh instance: the rho seed is constructed, the rest load from
    their fixture files."""
    if name == "rho-seed":
        return from_lie_trace(rho_lie_seed())
    return load_instance(fixture_path(name))


def fixture_path(name):
    return os.path.join(FIXTURES, name + ".json")


# ---------------------------------------------------------------------------
# single-entry mutations


def _with_table(alg, table, key, entry):
    tables = {"bracket": dict(alg.bracket), "amul": dict(alg.amul),
              "action": dict(alg.action), "rho": dict(alg.rho)}
    tables[table][key] = entry
    return Algebra3LR(alg.group, alg.L, alg.A, tables["bracket"],
                      tables["amul"], tables["action"], tables["rho"])


def _key_s(key):
    return ".".join(str(i) for i in key)


def mutation_pool(name, alg):
    """Every single-entry mutation of one valid instance, as a list of
    (id, kind, thunk) in a fixed order; the thunk builds the mutant.

    bracket: one target of a bracket entry moved to a basis vector of
             another degree, which breaks grading;
    action, amul, rho: one table entry doubled."""
    pool = []
    degrees = alg.L.degrees
    for key in sorted(alg.bracket):
        entry = alg.bracket[key]
        for m in sorted(entry):
            for m2 in range(alg.dim_L):
                if m2 in entry or degrees[m2] == degrees[m]:
                    continue
                moved = {t: c for t, c in entry.items() if t != m}
                moved[m2] = entry[m]
                pool.append(("%s:bracket:%s:%d>%d" % (name, _key_s(key), m,
                                                       m2),
                             "bracket",
                             (lambda k=key, e=moved:
                              _with_table(alg, "bracket", k, e))))
    for table in ("action", "amul", "rho"):
        entries = getattr(alg, table)
        for key in sorted(entries):
            doubled = {t: 2 * Fraction(c) for t, c in entries[key].items()}
            pool.append(("%s:%s:%s" % (name, table, _key_s(key)), table,
                         (lambda t=table, k=key, e=doubled:
                          _with_table(alg, t, k, e))))
    return pool


def select_mutations(pools, seed):
    """PER_STRATUM draws, with replacement, from each (instance, kind)
    stratum in a fixed stratum order; returns [(id, thunk)]."""
    rng = random.Random(seed)
    chosen = []
    for name in MUTATED:
        for kind in MUTATION_KINDS:
            stratum = [(mid, thunk) for mid, k, thunk in pools[name]
                       if k == kind]
            if stratum:
                chosen += rng.choices(stratum, k=PER_STRATUM)
    rng.shuffle(chosen)
    return chosen


# ---------------------------------------------------------------------------
# per-workload input generation


def file_name(op_id):
    """The file an input is written to.  `g3lr report` names its input
    file in the violation summary, so the name is part of the output
    the reference pins: inputs keep names derived from their ids, and
    the CLI runs from the directory that holds them."""
    return op_id.replace(":", "_").replace(">", "-") + ".json"


def write_valid(name, workdir):
    """Write the valid input `name` into `workdir`; returns its file
    name."""
    fname = file_name(name)
    if name == "rho-seed":
        save_instance(instance(name), os.path.join(workdir, fname))
    else:
        shutil.copyfile(fixture_path(name), os.path.join(workdir, fname))
    return fname


def _shuffled(names, seed):
    names = list(names)
    random.Random(seed).shuffle(names)
    return names


def generate(workload, seed, workdir):
    """Build the inputs of one workload into `workdir`, an existing
    empty directory, and return them in the seeded order as (op id,
    payload) pairs.  The payload is a file name in `workdir` for the CLI
    workloads and a validated instance for analyse-validated; the
    validation runs here, once, and caches each axiom report on its
    instance."""
    if workload in ("report-ladder", "rho-trace"):
        names = LADDER if workload == "report-ladder" else RHO
        return [(n, write_valid(n, workdir)) for n in _shuffled(names, seed)]
    if workload == "reject-seeded":
        pools = {n: mutation_pool(n, instance(n)) for n in MUTATED}
        ops = []
        for mid, thunk in select_mutations(pools, seed):
            path = os.path.join(workdir, file_name(mid))
            if not os.path.exists(path):
                save_instance(thunk(), path)
            ops.append((mid, file_name(mid)))
        return ops
    if workload == "analyse-validated":
        instances = {}
        for n in ANALYSED:
            alg = instance(n)
            if not run_all(alg).passed:
                raise ValueError("analysed instance %s fails its axioms" % n)
            instances[n] = alg
        return [(n, instances[n]) for n in _shuffled(ANALYSED, seed)]
    raise ValueError("unknown workload %r" % (workload,))
