"""Signing-cost tests: each plan node is hashed once per salt and form.

Before memoization, ``enumerate_subexpressions`` recomputed every child
hash at every ancestor, so a chain of n operators cost O(n^2) hash
invocations, and every standalone ``strict_signature`` call re-hashed its
whole subtree.  Digests now live on the frozen plan nodes; these tests pin
that by counting actual ``stable_hash`` calls, and check the memoized
digests against from-scratch ones.
"""

import dataclasses

import pytest

import repro.signatures.signature as sig_module
from repro.plan.expressions import ColumnRef
from repro.plan.logical import Filter, Scan
from repro.signatures import (
    enumerate_subexpressions,
    recurring_signature,
    strict_signature,
)


def chain(depth):
    plan = Scan("Sales", ("A", "B"), stream_guid="guid-1")
    for index in range(depth):
        plan = Filter(plan, ColumnRef("A" if index % 2 else "B"))
    return plan


@pytest.fixture
def hash_counter(monkeypatch):
    calls = []
    real = sig_module.stable_hash

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sig_module, "stable_hash", counting)
    return calls


def test_enumeration_hash_count_is_linear(hash_counter):
    plan = chain(40)
    nodes = sum(1 for _ in plan.walk())
    enumerate_subexpressions(plan, salt="v1")
    # One strict + one recurring digest per node, nothing recomputed.
    assert len(hash_counter) == 2 * nodes


def test_enumeration_matches_direct_signatures():
    plan = chain(6)
    subs = enumerate_subexpressions(plan, salt="v1")
    for sub in subs:
        assert sub.strict == strict_signature(sub.plan, "v1")
        assert sub.recurring == recurring_signature(sub.plan, "v1")


def test_enumeration_is_root_first():
    plan = chain(4)
    subs = enumerate_subexpressions(plan, salt="v1")
    assert subs[0].plan is plan
    assert subs[0].depth == 0
    assert subs[-1].height == 0  # a leaf comes last
    assert len(subs) == sum(1 for _ in plan.walk())


def fresh_clone(plan):
    """Like the lint's ``rebuild()``, but the leaves are cloned too: no
    node of the result has been signed, so its digests are computed from
    scratch."""
    if not plan.children():
        return dataclasses.replace(plan)
    return plan.with_children([fresh_clone(child)
                               for child in plan.children()])


def test_memoized_signature_equals_unmemoized(hash_counter):
    plan = chain(8)
    strict = {id(node): strict_signature(node, "v1") for node in plan.walk()}
    recurring = {id(node): recurring_signature(node, "v1")
                 for node in plan.walk()}
    for node in plan.walk():
        clone = fresh_clone(node)
        before = len(hash_counter)
        assert strict_signature(clone, "v1") == strict[id(node)]
        assert recurring_signature(clone, "v1") == recurring[id(node)]
        # Both digests were really recomputed, one hash per node each.
        assert len(hash_counter) - before == 2 * sum(1 for _ in node.walk())


def test_repeat_signing_hashes_nothing(hash_counter):
    plan = chain(12)
    first = strict_signature(plan, "v1")
    hashed = len(hash_counter)
    assert hashed == sum(1 for _ in plan.walk())
    for node in plan.walk():
        strict_signature(node, "v1")
    enumerate_subexpressions(plan, salt="v1")  # strict digests all cached
    assert strict_signature(plan, "v1") == first
    # Only the recurring digests were new: one per node.
    assert len(hash_counter) == 2 * hashed


def test_same_node_under_two_salts_signs_twice():
    plan = chain(3)
    v1 = strict_signature(plan, "v1")
    v2 = strict_signature(plan, "v2")
    assert v1 != v2
    assert recurring_signature(plan, "v1") != recurring_signature(plan, "v2")
    # Each salt keeps its own digest: asking again returns the same one.
    assert strict_signature(plan, "v1") == v1
    assert strict_signature(plan, "v2") == v2
