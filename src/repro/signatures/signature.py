"""Strict and recurring subexpression signatures.

The paper (Section 2.3): "we identify the common subexpressions across
queries using a strict subexpression hash, known as *signature*, that
uniquely captures a subexpression instance including its inputs used", and
"for the selected views, we collect their corresponding *recurring
signatures* that discard time varying attributes like parameter values and
input GUIDs, and are likely to remain the same in future instances of the
recurring workloads".

* **Strict signature** -- recursive hash over the normalized logical
  subtree, including scanned stream GUIDs and literal parameter values.
  Two subexpressions with equal strict signatures compute the same result
  over the same inputs, so view matching is a hash-equality check
  ("lightweight view matching", Section 2.4).
* **Recurring signature** -- same hash with stream GUIDs replaced by
  dataset names and parameter-bound literals replaced by their parameter
  names.  It identifies the *template* of a subexpression across recurring
  job instances, and is what view selection operates on.

Signatures are salted with the engine's runtime version: "sometimes they
also evolve with new SCOPE runtime ... as a result, all existing
materialized views get invalidated" (Section 4).

UDO handling mirrors Section 4 ("Signature correctness"): subtrees
containing non-deterministic user code or too-deep dependency chains are
excluded from reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.hashing import combine_unordered, short_tag, stable_hash
from repro.plan.expressions import Expr, Literal, rewrite
from repro.plan.logical import (
    Distinct,
    Filter,
    GroupBy,
    Join,
    Limit,
    LogicalPlan,
    Process,
    Project,
    Scan,
    Sort,
    Spool,
    Union,
    ViewScan,
)

#: Dependency chains deeper than this are "too long" to hash safely.
MAX_DEPENDENCY_DEPTH = 16


def strict_signature(plan: LogicalPlan, salt: str = "") -> str:
    """Hash of the subexpression *instance*, inputs included."""
    return _signature(plan, recurring=False, salt=salt)


def recurring_signature(plan: LogicalPlan, salt: str = "") -> str:
    """Hash of the subexpression *template*: GUIDs and params discarded."""
    return _signature(plan, recurring=True, salt=salt)


def is_reuse_eligible(plan: LogicalPlan,
                      max_dependency_depth: int = MAX_DEPENDENCY_DEPTH) -> bool:
    """False if the subtree contains user code we refuse to sign.

    "We skip any computation reuse if the dependency chain is too long or
    if a UDO is found to contain non-determinism" (Section 4).
    """
    for node in plan.walk():
        if isinstance(node, Process):
            if not node.deterministic:
                return False
            if node.dependency_depth > max_dependency_depth:
                return False
    return True


def signature_tag(recurring_sig: str) -> str:
    """Short tag for insights-service indexing and access control."""
    return short_tag(recurring_sig)


@dataclass(frozen=True)
class Subexpression:
    """One subexpression of a query plan with its signature bundle."""

    plan: LogicalPlan
    strict: str
    recurring: str
    tag: str
    eligible: bool
    depth: int    # distance from the query root
    height: int   # longest path down to a leaf
    operator: str

    @property
    def is_leaf(self) -> bool:
        return self.height == 0


def enumerate_subexpressions(plan: LogicalPlan,
                             salt: str = "") -> List[Subexpression]:
    """All subexpressions of ``plan``, root first.

    This is the unit of the paper's workload analysis ("4.3 billion
    sub-computations, referred to as query subexpressions").

    Digests are memoized on the plan nodes (see :func:`_signature`), so
    the whole pass is O(n) in the number of operators; eligibility is
    computed bottom-up in the same pass.
    """
    result: List[Subexpression] = []
    _enumerate(plan, salt, 0, result)
    result.reverse()
    return result


def _enumerate(plan: LogicalPlan, salt: str, depth: int,
               out: List[Subexpression]) -> Tuple[int, bool]:
    height = 0
    eligible = True
    for child in plan.children():
        child_height, child_eligible = _enumerate(child, salt, depth + 1, out)
        height = max(height, child_height + 1)
        eligible = eligible and child_eligible
    if isinstance(plan, Process):
        if not plan.deterministic:
            eligible = False
        elif plan.dependency_depth > MAX_DEPENDENCY_DEPTH:
            eligible = False
    recurring = _signature(plan, True, salt)
    out.append(Subexpression(
        plan=plan,
        strict=_signature(plan, False, salt),
        recurring=recurring,
        tag=signature_tag(recurring),
        eligible=eligible,
        depth=depth,
        height=height,
        operator=plan.op_label,
    ))
    return height, eligible


# --------------------------------------------------------------------- #
# hashing internals

#: Operator kinds whose digest depends only on their (frozen) fields and
#: children, so it can be kept on the node.  Any other kind -- a subclass
#: or an unknown operator -- is re-hashed on every call, which keeps a
#: non-deterministic hash visible to the ``sig-determinism`` lint.
_MEMOIZED_KINDS = frozenset((
    Scan, ViewScan, Filter, Project, Join, GroupBy, Union, Distinct, Sort,
    Limit, Process, Spool,
))


def _signature(plan: LogicalPlan, recurring: bool, salt: str) -> str:
    """Recursive signature, computed once per node and ``(recurring, salt)``.

    Plan nodes are frozen, so a digest never goes stale; it is kept in the
    node's ``_signatures`` dict (not a dataclass field: equality, hashing
    and ``repr`` ignore it).  Keying by salt means a runtime upgrade
    re-signs the same node.  Two threads racing to sign one node store the
    same digest.
    """
    kind = type(plan)
    memoized = kind in _MEMOIZED_KINDS
    if memoized:
        memo = plan.__dict__.get("_signatures")
        if memo is None:
            memo = {}
            object.__setattr__(plan, "_signatures", memo)
        digest = memo.get((recurring, salt))
        if digest is not None:
            return digest
    if kind is Spool:
        # A spool is transparent: the materialized view *is* its child.
        digest = _signature(plan.child, recurring, salt)
    else:
        children = [_signature(child, recurring, salt)
                    for child in plan.children()]
        digest = _node_digest(plan, kind, recurring, salt, children)
    if memoized:
        memo[(recurring, salt)] = digest
    return digest


def _node_digest(plan: LogicalPlan, kind: type, recurring: bool, salt: str,
                 children: List[str]) -> str:
    if kind is Scan:
        source = plan.dataset if recurring else (plan.stream_guid or plan.dataset)
        return stable_hash(salt, "scan", plan.dataset, source)
    if kind is ViewScan:
        # A ViewScan stands for the exact subexpression it replaced, so it
        # inherits that subexpression's signature.  Plans that reuse a view
        # therefore keep the same signatures as plans that recompute it,
        # and larger overlaps remain discoverable above a reuse site.
        if recurring:
            return plan.recurring or plan.signature
        return plan.signature
    if kind is Filter:
        return stable_hash(salt, "filter",
                           _expr(plan.predicate, recurring), children)
    if kind is Project:
        return stable_hash(salt, "project",
                           [_expr(e, recurring) for e in plan.exprs],
                           list(plan.names), children)
    if kind is Join:
        pairs = sorted(
            (_expr(l, recurring), _expr(r, recurring))
            for l, r in zip(plan.left_keys, plan.right_keys))
        residual = _expr(plan.residual, recurring) if plan.residual else ""
        return stable_hash(salt, "join", plan.how, pairs, residual,
                           list(plan.drop_right), children)
    if kind is GroupBy:
        return stable_hash(salt, "groupby",
                           [_expr(k, recurring) for k in plan.keys],
                           [_expr(a, recurring) for a in plan.aggregates],
                           list(plan.names), children)
    if kind is Union:
        # UNION inputs are an unordered bag.
        marker = "unionall" if plan.all else "union"
        return stable_hash(salt, marker, combine_unordered(children))
    if kind is Distinct:
        return stable_hash(salt, "distinct", children)
    if kind is Sort:
        keys = [(_expr(k, recurring), asc)
                for k, asc in zip(plan.keys, plan.ascending)]
        return stable_hash(salt, "sort", keys, children)
    if kind is Limit:
        return stable_hash(salt, "limit", plan.count, children)
    if kind is Process:
        return stable_hash(salt, "process", plan.udo_name,
                           plan.deterministic, plan.dependency_depth,
                           list(plan.output_columns), children)
    # Unknown operator: include its label so signatures stay total.
    return stable_hash(salt, "op", plan.op_label, children)


def _expr(expr: Expr, recurring: bool) -> str:
    """Canonical string of an expression, in strict or recurring form."""
    if not recurring:
        return expr.canonical()
    rewritten = rewrite(expr, _mask_param_literal)
    return rewritten.canonical()


def _mask_param_literal(expr: Expr) -> Optional[Expr]:
    if isinstance(expr, Literal) and expr.param_name is not None:
        return Literal(f"«param:{expr.param_name}»")
    return None
