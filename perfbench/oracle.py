"""The operations the benchmark times, and the reference they are checked
against.

An operation's outcome is a small dict that must equal the reference
entry recorded for its input at the seed commit: for a CLI operation the
exit code and the sha256 of the report bytes `g3lr report FILE` wrote,
for an analysis the digest of `decomposition_json` and the two
simplicity verdicts.

`g3lr.decompose` is imported with `from ... import`: the package
`__init__` re-exports the function `decompose`, which shadows the
submodule, so `import g3lr.decompose as D` binds the function.
"""

import hashlib
import io
import json
import os

from g3lr import cli
from g3lr.decompose import check_gr_simple_A, check_gr_simple_L, decompose
from g3lr.instio import canonical_json, decomposition_json

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_report(path):
    """`g3lr report FILE`, in process.  Returns the exit code and the
    report text; the caller digests it outside the timed region."""
    out = io.StringIO()
    code = cli.main(["report", path], out=out)
    return code, out.getvalue()


def cli_outcome(result):
    code, text = result
    return {"exit": code, "sha256": sha256(text)}


def analyse(alg):
    """The library path of demos/demo_decompose_builtins.py on an
    instance whose axiom report is already cached."""
    return (decompose(alg), check_gr_simple_L(alg), check_gr_simple_A(alg))


def analyse_outcome(result):
    rep, vL, vA = result
    return {"decomposition_sha256":
            sha256(canonical_json(decomposition_json(rep))),
            "L_verdict": vL.verdict, "A_verdict": vA.verdict}


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def save_reference(ref, path=REFERENCE):
    with open(path, "w") as fh:
        json.dump(ref, fh, sort_keys=True, indent=1)
        fh.write("\n")
