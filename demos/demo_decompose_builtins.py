"""
Walk through the analysis pipeline on the built-in catalog.

Run with:  python3 demos/demo_decompose_builtins.py
"""

from g3lr import (BUILTIN_NAMES, builtin, check_gr_simple_A,
                  check_gr_simple_L, run_all)
from g3lr.decompose import decompose

for name in BUILTIN_NAMES:
    alg = builtin(name)
    print("=" * 60)
    print("instance %r: dim L = %d, dim A = %d, group moduli %r"
          % (name, alg.dim_L, alg.dim_A, alg.group.moduli))

    # every builtin already passed the axiom suite at construction time;
    # run it again here to show the report shape
    report = run_all(alg)
    print("axioms pass:", report.passed)

    rep = decompose(alg)
    print("sigma classes:", [sorted(g.coords for g in c.members)
                             for c in rep.sigma_classes])
    print("lambda classes:", [sorted(g.coords for g in c.members)
                              for c in rep.lambda_classes])
    for I in rep.L_ideals:
        print("  L-ideal from class %r: dim %d, verified ideal: %s"
              % (I.source_class.representative.coords, I.subspace.dim,
                 I.is_graded_ideal))
    print("degree-1 complement dims: U=%d V=%d"
          % (rep.U_complement.dim, rep.V_complement.dim))
    print("covers L:", rep.L_covers, " direct:", rep.L_direct,
          " certified:", rep.L_directness_certified)
    print("tight:", rep.tightness.tight,
          " maximal length:", rep.maximal_length,
          " multiplicative supports:", rep.g_multiplicative)
    if rep.fine_attempted:
        for fc in rep.fine_components:
            print("  fine component from %r: dim %d, gr-simple: %s"
                  % (fc.source, fc.subspace.dim, fc.simplicity.verdict))
    print("whole-L graded simplicity:", check_gr_simple_L(alg).verdict)
    print("whole-A graded simplicity:", check_gr_simple_A(alg).verdict)
