"""Self-tests of the benchmark: its inputs, its oracle and its tracer.

    python3 -m pytest perfbench -q      # about two minutes

They are not part of the repository's test suite (pytest collects
`tests/` by default); run them after changing the benchmark.
"""

import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from g3lr import instance_digest, run_all, save_instance  # noqa: E402

import oracle              # noqa: E402
import record_reference    # noqa: E402
import run                 # noqa: E402
import tracing             # noqa: E402
import workloads           # noqa: E402


@contextmanager
def _workdir(name):
    """A fresh directory under perfbench/out, also the working directory
    while the block runs: the CLI ops name their inputs relative to
    it."""
    path = os.path.join(HERE, "out", "selftest-%d-%s" % (os.getpid(), name))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path)


def test_fixtures_are_the_catalog_constructions():
    for name in workloads.FIXTURE_NAMES:
        built = record_reference.build_fixture(name)
        assert instance_digest(workloads.instance(name)) == \
            instance_digest(built), name


def test_valid_inputs_exit_0_and_match_the_reference():
    ref = oracle.load_reference()
    valid = workloads.LADDER + workloads.RHO
    with _workdir("valid") as workdir:
        for name in valid:
            fname = workloads.write_valid(name, workdir)
            outcome = oracle.cli_outcome(oracle.cli_report(fname))
            assert outcome["exit"] == 0, name
            assert outcome == ref["cli"][name], name


def test_every_mutation_exits_2_with_a_violation():
    ref = oracle.load_reference()
    with _workdir("mutations"):
        for name in workloads.MUTATED:
            pool = workloads.mutation_pool(name, workloads.instance(name))
            kinds = {kind for _, kind, _ in pool}
            assert kinds <= set(workloads.MUTATION_KINDS)
            for mid, _, thunk in pool:
                mutant = thunk()
                assert sum(run_all(mutant).counts.values()) >= 1, mid
                save_instance(mutant, workloads.file_name(mid))
                outcome = oracle.cli_outcome(
                    oracle.cli_report(workloads.file_name(mid)))
                assert outcome["exit"] == 2, mid
                assert outcome == ref["cli"][mid], mid
    rho_pool = workloads.mutation_pool(
        "rho-seed", workloads.instance("rho-seed"))
    assert {k for _, k, _ in rho_pool} == set(workloads.MUTATION_KINDS)


def test_the_seed_fixes_the_inputs():
    def ids(seed):
        with _workdir("seed%d" % seed) as workdir:
            return [op_id for op_id, _ in
                    workloads.generate("reject-seeded", seed, workdir)]

    first = ids(1)
    assert first == ids(1)
    assert first != ids(2)
    strata = len(workloads.MUTATED) * 3 + 1
    assert len(first) == strata * workloads.PER_STRATUM


def test_a_corrupted_reference_digest_counts_as_a_failure():
    ref = oracle.load_reference()
    with _workdir("corrupt") as workdir:
        ops = [op for op in workloads.generate("report-ladder", 3, workdir)
               if op[0] in ("trivial", "a4", "gl2-trace")]
        *_, stats = run.measure(run.Workload("report-ladder", ref), ops, 0)
        assert stats == {"attempted": 3, "failed": 0}
        ref["cli"]["a4"]["sha256"] = "0" * 64
        *_, stats = run.measure(run.Workload("report-ladder", ref), ops, 0)
        assert stats == {"attempted": 3, "failed": 1}


def test_traced_work_counts_repeat_exactly():
    from collections import defaultdict
    path = workloads.fixture_path("a4-dual-numbers")
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        c = defaultdict(int)
        tracing.replay_report(tr, path, c)
        counts.append(dict(c))
        names = {s[0] for s in tr.spans}
        assert set(tracing.DECOMPOSE_STAGES) - {"decompose.fine"} <= names
        assert all(s[2] >= s[1] for s in tr.spans)
    assert counts[0] == counts[1]
    # dim L 8, dim A 2: C(8,3) * C(8,2) fundamental-identity tuples
    assert counts[0]["axioms.fundamental.tuples"] == 56 * 28
    assert counts[0]["axioms.representation.tuples"] == 0
    assert counts[0]["axioms.violations"] == 0


def test_refuses_to_run_without_the_sources():
    with _workdir("bare") as workdir:
        shutil.copytree(HERE, os.path.join(workdir, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rho-trace",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=workdir, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
