"""Row-level interpreter for logical plans.

Executes a bound logical plan against the simulated :class:`DataStore` and
returns both the result rows and per-operator runtime statistics.  The
statistics become the "runtime metrics as seen in the history" that
CloudViews pre-joins with subexpressions in its workload repository
(Section 2.3) -- reuse decisions are made from *observed* numbers, never
from estimates.

Spool operators perform their double duty here: the child's rows flow to
the parent unchanged *and* are written to stable storage under the view
path, exactly the online-materialization side effect of Section 2.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ExecutionError
from repro.executor.udo import UdoRegistry, default_registry
from repro.plan.expressions import Row
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
from repro.storage.store import DataStore, row_bytes


@dataclass
class OperatorStats:
    """Observed runtime numbers for one operator instance."""

    operator: str
    rows_in: int
    rows_out: int
    bytes_out: int
    description: str = ""


@dataclass
class SpoolOutput:
    """Record of one view materialized during execution."""

    signature: str
    view_path: str
    row_count: int
    size_bytes: int
    schema: Tuple[str, ...]


@dataclass
class ExecutionResult:
    """Result rows plus the telemetry the engine logs per job."""

    rows: List[Row]
    node_stats: List[Tuple[LogicalPlan, OperatorStats]]
    spooled: List[SpoolOutput] = field(default_factory=list)
    views_read: List[str] = field(default_factory=list)
    #: Per-node output rows, populated only when the executor was created
    #: with ``capture_rows=True`` (used by shared batch execution).
    node_rows: Dict[int, List[Row]] = field(default_factory=dict)

    @property
    def input_rows(self) -> int:
        """Rows read as job inputs: base dataset scans plus materialized
        views (a reused view is a stored input too -- just a much smaller
        one, which is where the paper's input-size reduction comes from)."""
        return sum(s.rows_out for node, s in self.node_stats
                   if isinstance(node, (Scan, ViewScan)))

    @property
    def input_bytes(self) -> int:
        return sum(s.bytes_out for node, s in self.node_stats
                   if isinstance(node, (Scan, ViewScan)))

    @property
    def output_bytes(self) -> int:
        """Byte size of the result rows."""
        return _last_bytes(self)

    @property
    def data_read_bytes(self) -> int:
        """All bytes read: base inputs, views, and intermediate flows."""
        return sum(s.bytes_out for _, s in self.node_stats)

    def rows_out_of(self, node: LogicalPlan) -> int:
        for candidate, stats in self.node_stats:
            if candidate is node:
                return stats.rows_out
        raise ExecutionError("node not part of this execution")


class Executor:
    """Interprets logical plans over the simulated store."""

    def __init__(self, store: DataStore,
                 udos: Optional[UdoRegistry] = None,
                 capture_rows: bool = False):
        self.store = store
        self.udos = udos or default_registry()
        self.capture_rows = capture_rows

    def execute(self, plan: LogicalPlan) -> ExecutionResult:
        result = ExecutionResult(rows=[], node_stats=[])
        result.rows = self._run(plan, result)
        return result

    # ------------------------------------------------------------------ #
    # dispatch

    def _run(self, plan: LogicalPlan, result: ExecutionResult) -> List[Row]:
        """Run ``plan``'s subtree; its stats are the last ``node_stats``
        entry on return."""
        kind = type(plan)
        handler = _HANDLERS.get(kind)
        if handler is None:
            raise ExecutionError(f"no executor for operator {kind.__name__}")
        rows_in, rows_out, bytes_out = handler(self, plan, result)
        if bytes_out is None:
            bytes_out = row_bytes(rows_out)
        result.node_stats.append((plan, OperatorStats(
            operator=plan.op_label,
            rows_in=rows_in,
            rows_out=len(rows_out),
            bytes_out=bytes_out,
            description=plan.describe(),
        )))
        if self.capture_rows:
            result.node_rows[id(plan)] = rows_out
        return rows_out

    # ------------------------------------------------------------------ #
    # operators
    #
    # Each returns ``(rows_in, rows_out, bytes_out)``.  ``bytes_out`` is
    # None when ``_run`` is to size ``rows_out``; scans take it from the
    # blob they read, and operators that pass all their child's rows
    # through take the child's size.

    def _scan(self, plan: Scan, result: ExecutionResult):
        if plan.stream_guid is None:
            raise ExecutionError(
                f"scan of {plan.dataset!r} was not bound to a stream GUID")
        rows = self.store.get(plan.stream_guid)
        projected = [_project_columns(row, plan.columns) for row in rows]
        return 0, projected, rows.projected_bytes(plan.columns)

    def _view_scan(self, plan: ViewScan, result: ExecutionResult):
        rows = self.store.get(plan.view_path)
        result.views_read.append(plan.signature)
        return 0, list(rows), rows.size

    def _filter(self, plan: Filter, result: ExecutionResult):
        rows = self._run(plan.child, result)
        kept = [row for row in rows if plan.predicate.evaluate(row)]
        return len(rows), kept, None

    def _project(self, plan: Project, result: ExecutionResult):
        rows = self._run(plan.child, result)
        out = [{name: expr.evaluate(row)
                for expr, name in zip(plan.exprs, plan.names)}
               for row in rows]
        return len(rows), out, None

    def _join(self, plan: Join, result: ExecutionResult):
        left = self._run(plan.left, result)
        right = self._run(plan.right, result)
        rows_in = len(left) + len(right)
        algorithm = choose_join_algorithm(plan, len(left), len(right))
        if algorithm == "hash":
            out = _hash_join(plan, left, right)
        elif algorithm == "merge":
            out = _merge_join(plan, left, right)
        else:
            out = _nested_loop_join(plan, left, right)
        return rows_in, out, None

    def _group_by(self, plan: GroupBy, result: ExecutionResult):
        rows = self._run(plan.child, result)
        out = _hash_aggregate(plan, rows)
        return len(rows), out, None

    def _union(self, plan: Union, result: ExecutionResult):
        rows_in = 0
        out: List[Row] = []
        schema = plan.schema
        for child in plan.inputs:
            child_rows = self._run(child, result)
            rows_in += len(child_rows)
            # Positionally align columns to the union's output schema.
            child_schema = child.schema
            if child_schema == schema:
                out.extend(child_rows)
            else:
                for row in child_rows:
                    out.append({s: row[c] for s, c in zip(schema, child_schema)})
        return rows_in, out, None

    def _distinct(self, plan: Distinct, result: ExecutionResult):
        rows = self._run(plan.child, result)
        seen = set()
        out: List[Row] = []
        schema = plan.schema
        for row in rows:
            key = tuple(_hashable(row.get(c)) for c in schema)
            if key not in seen:
                seen.add(key)
                out.append(row)
        return len(rows), out, None

    def _sort(self, plan: Sort, result: ExecutionResult):
        rows = self._run(plan.child, result)
        size = _last_bytes(result)  # the same rows, reordered
        out = list(rows)
        # Stable sort, applied from the least-significant key backwards.
        for key, ascending in reversed(list(zip(plan.keys, plan.ascending))):
            out.sort(key=lambda row: _sort_key(key.evaluate(row)),
                     reverse=not ascending)
        return len(rows), out, size

    def _limit(self, plan: Limit, result: ExecutionResult):
        rows = self._run(plan.child, result)
        return len(rows), rows[:plan.count], None

    def _process(self, plan: Process, result: ExecutionResult):
        rows = self._run(plan.child, result)
        out = self.udos.get(plan.udo_name)(list(rows))
        return len(rows), out, None

    def _spool(self, plan: Spool, result: ExecutionResult):
        rows = self._run(plan.child, result)
        size = _last_bytes(result)
        self.store.put(plan.view_path, rows, size)
        result.spooled.append(SpoolOutput(
            signature=plan.signature,
            view_path=plan.view_path,
            row_count=len(rows),
            size_bytes=size,
            schema=plan.schema,
        ))
        return len(rows), rows, size


_HANDLERS = {
    Scan: Executor._scan,
    ViewScan: Executor._view_scan,
    Filter: Executor._filter,
    Project: Executor._project,
    Join: Executor._join,
    GroupBy: Executor._group_by,
    Union: Executor._union,
    Distinct: Executor._distinct,
    Sort: Executor._sort,
    Limit: Executor._limit,
    Process: Executor._process,
    Spool: Executor._spool,
}


# --------------------------------------------------------------------- #
# join and aggregation kernels

#: Below this input size a nested-loop join beats building a hash table.
LOOP_JOIN_THRESHOLD = 10


def choose_join_algorithm(plan: Join, left_rows: int, right_rows: int) -> str:
    """Physical join selection: ``hash``, ``merge``, or ``loop``.

    Mirrors a SCOPE-like optimizer: no equi-keys forces nested loops;
    multi-key equi-joins run as sort-merge (the inputs are co-partitioned
    and sorted on the compound key in production); small inputs use loops;
    everything else hashes.  The mix of all three is what Figure 9's
    concurrent-join histogram breaks down by.
    """
    if not plan.left_keys:
        return "loop"
    if len(plan.left_keys) >= 2:
        return "merge"
    if min(left_rows, right_rows) < LOOP_JOIN_THRESHOLD:
        return "loop"
    return "hash"


def _hash_join(plan: Join, left: List[Row], right: List[Row]) -> List[Row]:
    index: Dict[tuple, List[Row]] = {}
    for row in right:
        key = tuple(_hashable(k.evaluate(row)) for k in plan.right_keys)
        index.setdefault(key, []).append(row)
    dropped = set(plan.drop_right)
    out: List[Row] = []
    for lrow in left:
        key = tuple(_hashable(k.evaluate(lrow)) for k in plan.left_keys)
        matched = False
        for rrow in index.get(key, ()):
            merged = _merge(lrow, rrow, dropped)
            if plan.residual is None or plan.residual.evaluate(merged):
                matched = True
                out.append(merged)
        if not matched and plan.how == "left":
            out.append(_merge(lrow, _null_row(plan.right.schema), dropped))
    return out


def _merge_join(plan: Join, left: List[Row], right: List[Row]) -> List[Row]:
    """Sort-merge join on the compound equi-key."""

    def left_key(row: Row) -> tuple:
        return tuple(_sort_key(k.evaluate(row)) for k in plan.left_keys)

    def right_key(row: Row) -> tuple:
        return tuple(_sort_key(k.evaluate(row)) for k in plan.right_keys)

    left_sorted = sorted(left, key=left_key)
    right_sorted = sorted(right, key=right_key)
    dropped = set(plan.drop_right)
    out: List[Row] = []
    i = j = 0
    while i < len(left_sorted):
        lkey = left_key(left_sorted[i])
        while j < len(right_sorted) and right_key(right_sorted[j]) < lkey:
            j += 1
        # Gather the right-side run matching this key.
        run_end = j
        while run_end < len(right_sorted) \
                and right_key(right_sorted[run_end]) == lkey:
            run_end += 1
        matched = False
        for rrow in right_sorted[j:run_end]:
            merged = _merge(left_sorted[i], rrow, dropped)
            if plan.residual is None or plan.residual.evaluate(merged):
                matched = True
                out.append(merged)
        if not matched and plan.how == "left":
            out.append(_merge(left_sorted[i], _null_row(plan.right.schema),
                              dropped))
        i += 1
    return out


def _nested_loop_join(plan: Join, left: List[Row], right: List[Row]) -> List[Row]:
    dropped = set(plan.drop_right)
    out: List[Row] = []
    for lrow in left:
        matched = False
        lkey = tuple(_hashable(k.evaluate(lrow)) for k in plan.left_keys)
        for rrow in right:
            rkey = tuple(_hashable(k.evaluate(rrow)) for k in plan.right_keys)
            if lkey != rkey:
                continue
            merged = _merge(lrow, rrow, dropped)
            if plan.residual is None or plan.residual.evaluate(merged):
                matched = True
                out.append(merged)
        if not matched and plan.how == "left":
            out.append(_merge(lrow, _null_row(plan.right.schema), dropped))
    return out


def _hash_aggregate(plan: GroupBy, rows: List[Row]) -> List[Row]:
    groups: Dict[tuple, List[Row]] = {}
    if plan.keys:
        for row in rows:
            key = tuple(_hashable(k.evaluate(row)) for k in plan.keys)
            groups.setdefault(key, []).append(row)
    else:
        # Global aggregation always yields exactly one group.
        groups[()] = list(rows)

    out: List[Row] = []
    key_names = [k.name for k in plan.keys]
    agg_names = list(plan.names[len(key_names):])
    for _, members in groups.items():
        result: Row = {}
        if members:
            for name, key in zip(key_names, plan.keys):
                result[name] = key.evaluate(members[0])
        for name, agg in zip(agg_names, plan.aggregates):
            result[name] = _evaluate_aggregate(agg, members)
        out.append(result)
    return out


def _evaluate_aggregate(agg, rows: List[Row]) -> object:
    name = agg.name
    if name == "COUNT" and not agg.args:
        return len(rows)
    values = [agg.args[0].evaluate(row) for row in rows] if agg.args else []
    values = [v for v in values if v is not None]
    if agg.distinct:
        unique: List[object] = []
        seen = set()
        for value in values:
            marker = _hashable(value)
            if marker not in seen:
                seen.add(marker)
                unique.append(value)
        values = unique
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    raise ExecutionError(f"unknown aggregate {name!r}")


# --------------------------------------------------------------------- #
# small helpers


def _last_bytes(result: ExecutionResult) -> int:
    """``bytes_out`` of the operator run last: while execution is under
    way, the subtree ``_run`` just returned from."""
    return result.node_stats[-1][1].bytes_out


def _project_columns(row: Row, columns: Tuple[str, ...]) -> Row:
    return {c: row.get(c) for c in columns}


def _merge(left: Row, right: Row, dropped: set) -> Row:
    merged = dict(left)
    for key, value in right.items():
        if key not in dropped:
            merged[key] = value
    return merged


def _null_row(schema: Tuple[str, ...]) -> Row:
    return {c: None for c in schema}


def _hashable(value: object) -> object:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


def _sort_key(value: object) -> tuple:
    """Total order with NULLs first and mixed types segregated."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))
