"""Rebuild the fixtures from the g3lr catalog and record the reference
outcome of every input any seed can generate.

    python3 perfbench/record_reference.py              # reference only
    python3 perfbench/record_reference.py --fixtures   # fixtures first

Run it on the commit whose outputs are the reference; a later commit
must reproduce them byte for byte.  Building the fixtures reruns the
axiom suite on the large instances, which takes about half a minute.
"""

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from g3lr import (builtin, direct_sum, from_lie_trace,  # noqa: E402
                  save_instance)

import oracle      # noqa: E402
import workloads   # noqa: E402


def build_fixture(name):
    """The catalog construction each fixture file stands for."""
    if name == "a4-dual-numbers-x2":
        dn = builtin("a4-dual-numbers")
        return direct_sum(dn, dn)
    if name == "rho-seed-x2":
        seed = from_lie_trace(workloads.rho_lie_seed())
        return direct_sum(seed, seed)
    return builtin(name)


def cli_inputs(workdir):
    """Write every CLI input into `workdir`: the ladder, the rho pair
    and the whole mutation pool of every mutated instance.  Returns
    (id, file name) pairs."""
    out = [(n, workloads.write_valid(n, workdir))
           for n in workloads.LADDER + workloads.RHO]
    for n in workloads.MUTATED:
        for mid, _, thunk in workloads.mutation_pool(
                n, workloads.instance(n)):
            fname = workloads.file_name(mid)
            save_instance(thunk(), os.path.join(workdir, fname))
            out.append((mid, fname))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--fixtures", action="store_true",
                   help="rebuild the fixture files from the catalog first")
    args = p.parse_args(argv)
    if args.fixtures:
        os.makedirs(workloads.FIXTURES, exist_ok=True)
        for name in workloads.FIXTURE_NAMES:
            save_instance(build_fixture(name), workloads.fixture_path(name))
    workdir = os.path.join(HERE, "out", "reference-%d" % os.getpid())
    os.makedirs(workdir)
    cwd = os.getcwd()
    try:
        ref = {"cli": {}, "analyse": {}}
        inputs = cli_inputs(workdir)
        os.chdir(workdir)
        for op_id, fname in inputs:
            ref["cli"][op_id] = oracle.cli_outcome(oracle.cli_report(fname))
        for n in workloads.ANALYSED:
            alg = workloads.instance(n)
            ref["analyse"][n] = oracle.analyse_outcome(oracle.analyse(alg))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)
    oracle.save_reference(ref)
    print("recorded %d CLI and %d analysis outcomes"
          % (len(ref["cli"]), len(ref["analyse"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
