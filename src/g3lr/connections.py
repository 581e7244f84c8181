"""Support sets of the grading and the connection equivalence classes
they carry, with explicit witness chains.

A chain from g to h starts at g, appends letters from the alphabet
Sigma u Lambda u {1} of the instance, and connects g to h when its total
product is h or h^{-1}.  Letters are appended one step at a time, and a
rule says, for each letter of a step, the set the partial product must
lie in once that letter is appended; `_rules` holds both rules, kind
"sigma" on Sigma and kind "lambda" on Lambda, and the search, the class
partition, `connected` and `replay_chain` all read them from there.

On the L-side a step appends two letters: the first product must lie in
Sigma u Lambda, the second in Sigma, so a chain has odd length.
Without the condition on the even prefixes the relation degenerates:
the chain {g, g^{-1}, h} would connect every pair outright, every
support would collapse to a single class, and the uniqueness of the
class pairing on well-behaved instances would fail.  Constraining the
even prefixes blocks exactly that cancellation, the same way passing
through the identity is blocked in chains built one element at a time.
On the A-side a step appends one letter and every proper partial
product stays inside Lambda.  The breadth-first state space is a subset
of the finite alphabet plus the two targets, so the search always
terminates; it forms only products of two letters, so the product memo
of `groups` stays bounded even when the group has a free factor.
"""

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class SupportSets:
    """The supports; the symmetric closures and the search alphabet are
    computed on first use and kept."""
    group: object
    sigma1: frozenset
    lambda1: frozenset

    @cached_property
    def sigma(self):
        return self.sigma1 | frozenset(g.inv() for g in self.sigma1)

    @cached_property
    def lambda_(self):
        return self.lambda1 | frozenset(l.inv() for l in self.lambda1)

    @cached_property
    def alphabet(self):
        """Sigma u Lambda u {1}, sorted: the order in which the search
        tries the letters."""
        return tuple(sorted(self.sigma | self.lambda_
                            | {self.group.identity()}))


@dataclass
class ConnectionClass:
    representative: object
    members: frozenset
    kind: str                  # "sigma" or "lambda"
    witnesses: dict            # member -> chain (tuple of GroupElem)


def compute_supports(alg):
    """The non-identity degrees of the basis vectors; every degree
    listed there has a nonempty fiber."""
    return SupportSets(
        alg.group,
        frozenset(d for d in alg.L.degrees if not d.is_identity()),
        frozenset(d for d in alg.A.degrees if not d.is_identity()))


def _rules(supports, kind):
    """The chain rule of `kind` as data: the side named in errors, the
    support that is partitioned, and the step -- for each letter of a
    step in turn, the set the partial product must lie in once that
    letter is appended.  The only place either rule is written."""
    if kind == "sigma":
        return ("L", supports.sigma1,
                (supports.sigma | supports.lambda_, supports.sigma))
    if kind == "lambda":
        return "A", supports.lambda1, (supports.lambda_,)
    raise ValueError("unknown connection kind %r" % (kind,))


def _search(supports, kind, start):
    """Breadth-first closure from start: {end: chain} for every product
    reached at the end of a step.  Letters are tried in alphabet order,
    and an end is recorded the first time a step reaches it, so each
    chain is minimal in length and the first in that order.  Every
    allowed set lies in the alphabet, so every state is a letter."""
    step = _rules(supports, kind)[2]
    alpha = supports.alphabet
    chains = {start: (start,)}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            ends = [(s, ())]
            for ok in step:
                ends = [(p, word + (u,)) for q, word in ends for u in alpha
                        if (p := q.mul(u)) in ok]
            for p, word in ends:
                if p not in chains:
                    chains[p] = chains[s] + word
                    nxt.append(p)
        frontier = nxt
    return chains


def _witness(chains, end):
    """The chain to end or to end^{-1}, or None."""
    return chains.get(end) or chains.get(end.inv())


def connected(supports, kind, start, end):
    """A connection chain of `kind`, "sigma" or "lambda", from start to
    end, or None; both must lie in the support that kind partitions.
    Chains found are minimal in length for the breadth-first order; any
    chain satisfying the partial-product conditions is equally valid."""
    side, support, _ = _rules(supports, kind)
    if start not in support or end not in support:
        raise ValueError("arguments must lie in the %s-support" % side)
    return _witness(_search(supports, kind, start), end)


def _classes(supports, kind):
    order = sorted(_rules(supports, kind)[1])
    seen = set()
    out = []
    for g in order:
        if g in seen:
            continue
        chains = _search(supports, kind, g)
        witnesses = {h: chain for h in order
                     if (chain := _witness(chains, h)) is not None}
        seen.update(witnesses)
        out.append(ConnectionClass(g, frozenset(witnesses), kind,
                                   witnesses))
    return out


def replay_chain(supports, kind, chain, start, end):
    """Check a chain against the rule of `kind`, "sigma" or "lambda"
    (see `_rules` and the module docstring): start and end lie in the
    support the rule partitions, the chain starts at start, has whole
    steps after it, uses alphabet letters only, each proper partial
    product of length len(step) or more lies in its letter's set, and
    the total product is end or end^{-1}."""
    _, support, step = _rules(supports, kind)
    if start not in support or end not in support:
        return False
    if not chain or (len(chain) - 1) % len(step) or chain[0] != start:
        return False
    if any(e not in supports.alphabet for e in chain):
        return False
    partial = supports.group.identity()
    for stop, e in enumerate(chain, 1):
        partial = partial.mul(e)
        if (len(step) <= stop < len(chain)
                and partial not in step[(stop - 2) % len(step)]):
            return False
    return partial in (end, end.inv())


def sigma_classes(supports):
    """Partition of the L-support into connection classes; empty
    support gives the empty partition."""
    return _classes(supports, "sigma")


def lambda_classes(supports):
    return _classes(supports, "lambda")
