"""A naive reference evaluator.

Executes a bound :class:`QuerySpec` row-at-a-time in pure Python —
deliberately sharing *no* execution code with the physical operators —
so integration tests can cross-check every workload query end-to-end.

Every expression is compiled once per query into a closure over one
*binding*: a row number while filtering a table, a join assignment (a
tuple of row numbers in join order) afterwards, or an output row for
HAVING.  Columns are read through a ``memoryview`` of their value
array, whose indexing yields plain Python ``int``/``float`` values;
string codes are decoded through the column's dictionary.

Output convention matches the engine: for aggregation queries the
columns are the group-by columns (in GROUP BY order) followed by the
aggregates (in SELECT order); strings are decoded.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.engine.expressions import (
    Aggregate,
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    Not,
    Or,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.binder import QuerySpec
from repro.storage import Column, ColumnType, Database

#: A compiled expression: binding -> Python value.
Compiled = Callable[[object], object]

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}
_COMPARISON = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compile(expr: Expression,
             leaf: Callable[[ColumnRef], Compiled]) -> Compiled:
    """Compile ``expr`` into a closure over one binding; ``leaf``
    compiles each column reference for the binding's shape."""
    if isinstance(expr, ColumnRef):
        return leaf(expr)
    if isinstance(expr, Literal):
        constant = expr.value
        return lambda binding: constant
    if isinstance(expr, (Arithmetic, Comparison)):
        ops = _ARITHMETIC if isinstance(expr, Arithmetic) else _COMPARISON
        op = ops[expr.op]
        left = _compile(expr.left, leaf)
        if isinstance(expr.right, Literal):
            constant = expr.right.value
            return lambda binding: op(left(binding), constant)
        right = _compile(expr.right, leaf)
        return lambda binding: op(left(binding), right(binding))
    if isinstance(expr, Between):
        value = _compile(expr.expr, leaf)
        if isinstance(expr.low, Literal) and isinstance(expr.high, Literal):
            lowest, highest = expr.low.value, expr.high.value
            return lambda binding: lowest <= value(binding) <= highest
        low = _compile(expr.low, leaf)
        high = _compile(expr.high, leaf)
        return lambda binding: low(binding) <= value(binding) <= high(binding)
    if isinstance(expr, InList):
        value = _compile(expr.expr, leaf)
        members = expr.values
        return lambda binding: value(binding) in members
    if isinstance(expr, (And, Or)):
        children = [_compile(child, leaf) for child in expr.children]
        if isinstance(expr, And):
            def conjunction(binding):
                for child in children:
                    if not child(binding):
                        return False
                return True

            return conjunction

        def disjunction(binding):
            for child in children:
                if child(binding):
                    return True
            return False

        return disjunction
    if isinstance(expr, Not):
        child = _compile(expr.child, leaf)
        return lambda binding: not child(binding)
    raise TypeError("unsupported expression {!r}".format(expr))


def _column_reader(column: Column, position: Optional[int] = None) -> Compiled:
    """Read one decoded value of ``column`` from a row number or, given
    ``position``, from the row at that position of a join assignment."""
    values = memoryview(column.values)
    if column.ctype is ColumnType.STRING:
        dictionary = column.dictionary
        if position is None:
            return lambda row: dictionary[values[row]]
        return lambda assignment: dictionary[values[assignment[position]]]
    if position is None:
        return values.__getitem__
    return lambda assignment: values[assignment[position]]


def execute_reference(spec: "QuerySpec", database: Database) -> List[tuple]:
    """Evaluate ``spec`` naively; returns rows as tuples."""

    # 1. Per-table filters, compiled over a row number.
    filtered: Dict[str, List[int]] = {}
    for table in spec.tables:
        rows = range(database.table(table).actual_rows)
        predicate = spec.filters.get(table)
        if predicate is not None:
            keep = _compile(
                predicate, lambda ref: _column_reader(database.column(ref.key))
            )
            rows = filter(keep, rows)
        filtered[table] = list(rows)

    # 2. Joins: fold tables into assignments, tuples of row numbers
    # holding table ``t``'s row at ``position[t]``.
    first = spec.tables[0]
    assignments: List[Tuple[int, ...]] = [(row,) for row in filtered[first]]
    position = {first: 0}
    remaining = list(spec.tables[1:])
    edges = list(spec.join_edges)
    while remaining:
        progressed = False
        for table in list(remaining):
            usable = [
                (left, right)
                for left, right in edges
                if (left.table == table and right.table in position)
                or (right.table == table and left.table in position)
            ]
            if not usable:
                continue
            left, right = usable[0]
            new_key, old_key = (left, right) if left.table == table else (right, left)
            # hash the new table's filtered rows on the join key
            read_new = _column_reader(database.column(new_key.key))
            buckets: Dict[object, List[int]] = {}
            for row in filtered[table]:
                buckets.setdefault(read_new(row), []).append(row)
            read_old = _column_reader(
                database.column(old_key.key), position[old_key.table]
            )
            assignments = [
                assignment + (row,)
                for assignment in assignments
                for row in buckets.get(read_old(assignment), ())
            ]
            position[table] = len(position)
            remaining.remove(table)
            progressed = True
        if not progressed:
            raise ValueError("disconnected join graph in reference evaluator")

    def compile_joined(expr: Expression) -> Compiled:
        def leaf(ref: ColumnRef) -> Compiled:
            column = database.column(ref.key)
            return _column_reader(column, position[ref.table])

        return _compile(expr, leaf)

    # 3. Output.
    if spec.is_aggregation:
        rows = _aggregate(spec, assignments, compile_joined)
        if spec.having is not None:
            rows = _apply_having(spec, rows)
    else:
        outputs = [compile_joined(expr) for _, expr in spec.select_items]
        rows = [tuple([output(a) for output in outputs]) for a in assignments]
        if spec.distinct:
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped

    # 4. Order by (on output positions), then limit.
    if spec.order_by:
        names = _output_names(spec)
        indices = [(names.index(name), asc) for name, asc in spec.order_by]

        def compare(a, b):
            for index, ascending in indices:
                if a[index] == b[index]:
                    continue
                less = a[index] < b[index]
                if ascending:
                    return -1 if less else 1
                return 1 if less else -1
            return 0

        rows = sorted(rows, key=functools.cmp_to_key(compare))
    if spec.limit is not None:
        rows = rows[: spec.limit]
    return rows


def _apply_having(spec, rows: List[tuple]) -> List[tuple]:
    """Filter aggregated rows by the HAVING predicate."""
    names = _output_names(spec)

    def leaf(ref: ColumnRef) -> Compiled:
        return operator.itemgetter(names.index(ref.name))

    return list(filter(_compile(spec.having, leaf), rows))


def _output_names(spec: "QuerySpec") -> List[str]:
    if spec.is_aggregation:
        return [ref.name for ref in spec.group_by] + [
            agg.alias for agg in spec.aggregates
        ]
    return [alias for alias, _ in spec.select_items]


def _aggregate(spec, assignments, compile_joined) -> List[tuple]:
    group_key = [compile_joined(ref) for ref in spec.group_by]
    groups: Dict[tuple, List[Tuple[int, ...]]] = {}
    for assignment in assignments:
        key = tuple([read(assignment) for read in group_key])
        groups.setdefault(key, []).append(assignment)
    # A scalar aggregate over zero rows still yields one row.
    if not spec.group_by and not groups:
        groups[()] = []
    inputs = [compile_joined(aggregate.expr) for aggregate in spec.aggregates]
    rows = []
    for key in sorted(groups):
        members = groups[key]
        values = list(key)
        for aggregate, expr in zip(spec.aggregates, inputs):
            values.append(_apply_aggregate(aggregate, members, expr))
        rows.append(tuple(values))
    return rows


def _apply_aggregate(aggregate: Aggregate, members, expr: Compiled):
    if aggregate.func == "count":
        return len(members)
    data = [expr(a) for a in members]
    if aggregate.func == "sum":
        return sum(data) if data else 0
    if aggregate.func == "avg":
        return sum(data) / len(data) if data else 0.0
    if aggregate.func == "min":
        return min(data) if data else 0
    return max(data) if data else 0
