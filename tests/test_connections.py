import itertools
import random
from pathlib import Path

import pytest

from g3lr.catalog import BUILTIN_NAMES, builtin, direct_sum
from g3lr.connections import (SupportSets, compute_supports, connected,
                              lambda_classes, replay_chain, sigma_classes)
import g3lr.groups as groups
from g3lr.groups import GroupElem, GroupSpec
from g3lr.instio import load_instance

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def test_supports_a4():
    s = compute_supports(builtin("a4"))
    assert s.sigma1 == {s.group.elem((1, 0)), s.group.elem((0, 1)),
                        s.group.elem((1, 1))}
    assert s.lambda1 == frozenset()
    assert s.sigma == s.sigma1          # 2-torsion, self-inverse


def test_supports_empty():
    s = compute_supports(builtin("trivial"))
    assert s.sigma1 == frozenset() and s.lambda1 == frozenset()
    assert sigma_classes(s) == [] and lambda_classes(s) == []


def test_sigma_reflexive_chain():
    s = compute_supports(builtin("a4"))
    g = s.group.elem((1, 0))
    chain = connected(s, "sigma", g, g)
    assert chain == (g,)
    assert replay_chain(s, "sigma", chain, g, g)


def test_a4_single_class_with_valid_witnesses():
    s = compute_supports(builtin("a4"))
    classes = sigma_classes(s)
    assert len(classes) == 1
    cls = classes[0]
    assert cls.members == s.sigma1
    for h, chain in cls.witnesses.items():
        assert replay_chain(s, "sigma", chain, cls.representative, h)


def test_arguments_outside_support_rejected():
    s = compute_supports(builtin("a4"))
    with pytest.raises(ValueError):
        connected(s, "sigma", s.group.identity(), s.group.elem((1, 0)))
    with pytest.raises(ValueError):
        connected(s, "lambda", s.group.elem((1, 0)), s.group.elem((1, 0)))


def test_cancelling_chain_is_rejected():
    """The three-element chain passing through the identity midway
    would connect everything to everything; it must not replay."""
    s = compute_supports(builtin("tight-pair"))
    g = s.group.elem((1, 0, 0, 0, 0, 0))
    h = s.group.elem((0, 0, 0, 1, 0, 0))
    assert g in s.sigma1 and h in s.sigma1
    chain = (g, g.inv(), h)
    assert not replay_chain(s, "sigma", chain, g, h)
    assert connected(s, "sigma", g, h) is None


def test_direct_sum_supports_stay_separate():
    alg = direct_sum(builtin("a4"), builtin("gl2-trace"))
    s = compute_supports(alg)
    classes = sigma_classes(s)
    assert len(classes) == 2
    members = {frozenset(e.coords for e in c.members) for c in classes}
    assert members == {
        frozenset([(0, 1, 0), (1, 0, 0), (1, 1, 0)]),
        frozenset([(0, 0, 1), (0, 0, -1)]),
    }


def test_gl2_inverse_pair_connected():
    s = compute_supports(builtin("gl2-trace"))
    one = s.group.elem((1,))
    minus = s.group.elem((-1,))
    chain = connected(s, "sigma", one, minus)
    assert chain is not None
    assert replay_chain(s, "sigma", chain, one, minus)


def test_lambda_chain_through_powers():
    """A-support {t, t^2} in a cyclic grading connects via squaring."""
    G = GroupSpec((4,))
    lam, lam2 = G.elem((1,)), G.elem((2,))
    s = SupportSets(G, frozenset(), frozenset((lam, lam2)))
    chain = connected(s, "lambda", lam, lam2)
    assert chain is not None
    assert replay_chain(s, "lambda", chain, lam, lam2)
    assert len(lambda_classes(s)) == 1


def test_lambda_classes_tight_pair_separate():
    s = compute_supports(builtin("tight-pair"))
    assert len(lambda_classes(s)) == 2


def test_second_class_pass_forms_no_group_element(monkeypatch):
    """The searches multiply letters only, and the group memoises every
    product: once one pass of both partitions has run, a second pass on
    the same supports creates no group element and forms no product,
    even with a free factor.  `groups._elem` is then reached only through
    `inv`, never through a memo miss of `mul`."""
    s = compute_supports(direct_sum(builtin("gl2-trace"),
                                    builtin("tight-pair")))
    assert 0 in s.group.moduli
    first = sigma_classes(s) + lambda_classes(s)
    elems = dict(s.group._elems)
    calls = []
    elem, inv = groups._elem, GroupElem.inv
    monkeypatch.setattr(groups, "_elem",
                        lambda *a: calls.append("_elem") or elem(*a))
    monkeypatch.setattr(GroupElem, "inv",
                        lambda e: calls.append("inv") or inv(e))
    again = sigma_classes(s) + lambda_classes(s)
    assert len(first) > 2 and again == first
    assert s.group._elems == elems
    assert calls.count("_elem") == calls.count("inv")


def _random_supports(rng):
    """Random supports in a finite group or in one with a free factor
    (modulus 0, coordinates drawn from -3..3)."""
    return _draw_supports(rng, [
        (2,), (3,), (4,), (5,), (7,), (8,), (12,), (2, 2), (2, 4), (3, 3),
        (2, 2, 2), (16,), (2, 6), (0,), (0, 2), (0, 3), (0, 0)])[0]


def _draw_supports(rng, choices):
    """(supports, elements of the window): Sigma1 and Lambda1 drawn from
    the non-identity elements of a group drawn from `choices`, with
    coordinates in range for a finite factor and in -3..3 for a free
    one."""
    G = GroupSpec(rng.choice(choices))
    elems = [G.elem(c) for c in itertools.product(
        *[range(m) if m else range(-3, 4) for m in G.moduli])]
    nonid = [e for e in elems if not e.is_identity()]
    sigma1 = frozenset(rng.sample(nonid, rng.randint(0, min(6, len(nonid)))))
    lambda1 = frozenset(rng.sample(nonid, rng.randint(0, min(4, len(nonid)))))
    return SupportSets(G, sigma1, lambda1), elems


def _check_equivalence(s):
    classes = sigma_classes(s)
    seen = set()
    for cls in classes:
        assert cls.members, "empty class"
        assert not (cls.members & seen), "classes overlap"
        seen |= cls.members
        for h, chain in cls.witnesses.items():
            assert replay_chain(s, "sigma", chain, cls.representative, h)
        for h in cls.members:
            if h.inv() in s.sigma1:
                assert h.inv() in cls.members
    assert seen == s.sigma1, "classes do not cover the support"

    by_elem = {}
    for cls in classes:
        for h in cls.members:
            by_elem[h] = cls.representative
    sig = sorted(s.sigma1, key=lambda e: e.coords)
    for g, h in itertools.product(sig, repeat=2):
        same = by_elem[g] == by_elem[h]
        assert (connected(s, "sigma", g, h) is not None) == same
        assert (connected(s, "sigma", h, g) is not None) == same

    l_classes = lambda_classes(s)
    l_seen = set()
    for cls in l_classes:
        assert not (cls.members & l_seen)
        l_seen |= cls.members
        for h, chain in cls.witnesses.items():
            assert replay_chain(s, "lambda", chain, cls.representative, h)
    assert l_seen == s.lambda1
    lby = {}
    for cls in l_classes:
        for h in cls.members:
            lby[h] = cls.representative
    lam = sorted(s.lambda1, key=lambda e: e.coords)
    for a, b in itertools.product(lam, repeat=2):
        same = lby[a] == lby[b]
        assert (connected(s, "lambda", a, b) is not None) == same
        assert (connected(s, "lambda", b, a) is not None) == same


def test_randomized_supports_form_equivalences():
    """The classes are equivalence classes with replayable witnesses,
    and equal those of the searches kept in `_ref_connections`, which
    multiply at every state instead of reading the index table: in
    finite groups and in groups with a free factor."""
    import _ref_connections as ref

    rng = random.Random(20240817)
    free = 0
    for _ in range(50):
        s = _random_supports(rng)
        free += 0 in s.group.moduli
        _check_equivalence(s)
        for got, want in ((sigma_classes(s), ref.sigma_classes(s)),
                          (lambda_classes(s), ref.lambda_classes(s))):
            assert [(c.representative, c.members, c.witnesses)
                    for c in got] == [
                (c.representative, c.members, c.witnesses) for c in want]
    assert 5 <= free <= 25        # both free and finite groups are drawn


def test_builtin_supports_form_equivalences():
    for name in ("a4", "gl2-trace", "a4-dual-numbers", "tight-pair"):
        _check_equivalence(compute_supports(builtin(name)))


def _random_mixed_supports(rng):
    """Random supports in a group with finite factors, free factors
    (modulus 0, coordinates drawn from -3..3) or both."""
    return _draw_supports(rng, [(0,), (0, 0), (0, 2), (3, 0), (0, 0, 2),
                                (2,), (4,), (6,), (2, 2), (3, 3), (2, 4),
                                (8,)])


def _perturbations(chain, pool):
    """The chains one letter away from chain: each letter replaced by
    each element of pool, each letter deleted, and each element of pool
    inserted at each position."""
    for i in range(len(chain)):
        for e in pool:
            yield chain[:i] + (e,) + chain[i + 1:]
        yield chain[:i] + chain[i + 1:]
    for i in range(len(chain) + 1):
        for e in pool:
            yield chain[:i] + (e,) + chain[i:]


def test_merged_engine_matches_the_reference_searches_and_replays():
    """The rule-table engine against the two hand-written searches and
    replays kept in `_ref_connections`: classes with representatives,
    members and witness chains, the connection test on every pair, and
    the replay verdicts on random chains, on every witness chain and on
    its one-letter perturbations, with starts inside and outside the
    supports.  The reference replays do not check that both ends lie in
    the support; the engine rejects every chain whose ends do not."""
    import _ref_connections as ref

    rng = random.Random(20261018)
    kinds = (
        ("sigma", "sigma1", sigma_classes, ref.sigma_classes,
         ref.sigma_connected, ref.replay_sigma_chain),
        ("lambda", "lambda1", lambda_classes, ref.lambda_classes,
         ref.lambda_connected, ref.replay_lambda_chain),
    )
    free = accepted = 0
    for _ in range(200):
        s, elems = _random_mixed_supports(rng)
        free += 0 in s.group.moduli
        alphabet = sorted(s.sigma | s.lambda_ | {s.group.identity()},
                          key=lambda e: e.coords)
        # letters of the alphabet, and a few group elements outside it
        pool = alphabet + rng.sample(elems, min(3, len(elems)))
        for kind, attr, classes, ref_classes, ref_conn, ref_replay in kinds:
            got, want = classes(s), ref_classes(s)
            assert [(c.representative, c.members, c.kind, c.witnesses)
                    for c in got] == [
                (c.representative, c.members, c.kind, c.witnesses)
                for c in want]
            support = sorted(getattr(s, attr), key=lambda e: e.coords)
            for g, h in itertools.product(support, repeat=2):
                assert connected(s, kind, g, h) == ref_conn(s, g, h)

            def same_verdict(chain, g, h):
                verdict = replay_chain(s, kind, chain, g, h)
                assert verdict == (g in support and h in support
                                   and ref_replay(s, chain, g, h)), \
                    (chain, g, h)
                return verdict

            letters = rng.sample(pool, min(5, len(pool)))
            for c in want:
                for h, chain in c.witnesses.items():
                    assert same_verdict(chain, c.representative, h)
                    for bent in _perturbations(chain, letters):
                        for g in (c.representative,) + bent[:1]:
                            accepted += same_verdict(bent, g, h)
                            accepted += same_verdict(bent, g,
                                                     rng.choice(elems))
            for _ in range(60):
                chain = tuple(rng.choice(pool)
                              for _ in range(rng.randint(0, 7)))
                g = chain[0] if chain and rng.random() < 0.8 else \
                    rng.choice(elems)
                accepted += same_verdict(chain, g, rng.choice(elems))
    assert 60 <= free <= 140      # both free and finite groups are drawn
    assert accepted >= 1000


def _rung_supports(base, copies):
    """The supports of the ladder rung of `copies` copies of base summed
    by `direct_sum`: each copy's degrees embedded in its own factors of
    the product group.  The rung itself is not built, since building it
    reruns the axiom suite."""
    s, m = compute_supports(base), base.group.moduli
    G = GroupSpec(m * copies)
    pad = (0,) * len(m)

    def embed(degrees):
        return frozenset(G.elem(pad * i + d.coords + pad * (copies - 1 - i))
                         for i in range(copies) for d in degrees)
    return SupportSets(G, embed(s.sigma1), embed(s.lambda1))


def test_rung_supports_are_those_of_the_direct_sum():
    dual = builtin("a4-dual-numbers")
    got, want = _rung_supports(dual, 2), compute_supports(
        direct_sum(dual, dual))
    assert (got.group, got.sigma1, got.lambda1) == (
        want.group, want.sigma1, want.lambda1)


def test_engine_matches_the_reference_on_real_alphabets():
    """The index search against the searches kept in `_ref_connections`
    on the supports of every builtin, every `docs/examples` file and the
    dim-24 and dim-32 ladder rungs: classes with representatives,
    members and witness chains, and the connection answer on every pair
    of support elements."""
    import _ref_connections as ref

    dual = builtin("a4-dual-numbers")
    cases = [compute_supports(builtin(n)) for n in BUILTIN_NAMES]
    cases += [compute_supports(load_instance(str(p)))
              for p in sorted(EXAMPLES.glob("*.json"))]
    rungs = [_rung_supports(dual, copies) for copies in (3, 4)]
    assert min(len(s.alphabet) for s in rungs) >= 15
    kinds = (("sigma", "sigma1", sigma_classes, ref.sigma_classes,
              ref.sigma_connected),
             ("lambda", "lambda1", lambda_classes, ref.lambda_classes,
              ref.lambda_connected))
    for s in cases + rungs:
        for kind, attr, classes, ref_classes, ref_conn in kinds:
            got, want = classes(s), ref_classes(s)
            assert [(c.representative, c.members, c.kind, c.witnesses)
                    for c in got] == [
                (c.representative, c.members, c.kind, c.witnesses)
                for c in want]
            support = sorted(getattr(s, attr))
            for g, h in itertools.product(support, repeat=2):
                assert connected(s, kind, g, h) == ref_conn(s, g, h)


def test_replay_rejects_ends_outside_the_support():
    """In Z/5 with Sigma = {1, 4} and Lambda = {2, 3}, the chain (2, 1, 4)
    multiplies out to 3 with its partial product 3 in Sigma u Lambda and
    its whole product in Lambda, but 2 and 3 are not in the L-support,
    so it connects nothing; nor does a chain from the identity."""
    G = GroupSpec((5,))
    e = [G.elem((i,)) for i in range(5)]
    s = SupportSets(G, frozenset({e[1], e[4]}), frozenset({e[2], e[3]}))
    assert not replay_chain(s, "sigma", (e[2], e[1], e[4]), e[2], e[3])
    assert not replay_chain(s, "sigma", (e[0],), e[0], e[0])
    assert not replay_chain(s, "lambda", (e[0],), e[0], e[0])
    # the one-letter chain of a support element still connects it to
    # itself
    assert replay_chain(s, "sigma", (e[1],), e[1], e[1])
    assert replay_chain(s, "lambda", (e[2],), e[2], e[2])
