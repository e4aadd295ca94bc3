"""The benchmark's own copy of the data, and answers computed from it.

:class:`Model` keeps the generated TPC-H records (and every write the
benchmark applies) in plain dictionaries, independent of the store.  The
expected top-k score list of a query is the naive rank join
(:func:`repro.relational.naive.naive_rank_join` and its n-way form) over
these records, so an answer is checked against data the program never
touched.
"""

from __future__ import annotations

from repro.common.types import ScoredRow
from repro.relational.multiway import naive_rank_join_multi
from repro.relational.naive import naive_rank_join

#: absolute tolerance on one score (scores lie in [0, 3])
SCORE_TOLERANCE = 1e-9

#: per table: the field that is the row key
ROW_KEYS = {"part": "partkey", "orders": "orderkey", "lineitem": "rowkey"}


class Model:
    """Live records per table, keyed by row key."""

    def __init__(self, data) -> None:
        self.tables = {
            "part": {record["partkey"]: record for record in data.parts},
            "orders": {record["orderkey"]: record for record in data.orders},
            "lineitem": {record["rowkey"]: record for record in data.lineitems},
        }
        #: row keys inserted / deleted by the benchmark, per table
        self.inserted: "dict[str, set[str]]" = {name: set() for name in self.tables}
        self.deleted: "dict[str, set[str]]" = {name: set() for name in self.tables}

    def insert(self, table: str, records: list) -> None:
        key = ROW_KEYS[table]
        for record in records:
            self.tables[table][record[key]] = record
            self.inserted[table].add(record[key])
            self.deleted[table].discard(record[key])

    def delete(self, table: str, row_keys: "list[str]") -> None:
        for row_key in row_keys:
            self.tables[table].pop(row_key)
            self.deleted[table].add(row_key)
            self.inserted[table].discard(row_key)

    def rows(self, binding) -> "list[ScoredRow]":
        return [
            ScoredRow(row_key, str(record[binding.join_column]),
                      float(record[binding.score_column]))
            for row_key, record in self.tables[binding.table].items()
        ]

    def expected_scores(self, query) -> "tuple[float, ...]":
        """Oracle top-k scores of ``query`` over the current records."""
        relations = [self.rows(binding) for binding in query.inputs]
        if query.arity == 2:
            truth = naive_rank_join(relations[0], relations[1], query.function, query.k)
        else:
            truth = naive_rank_join_multi(relations, query.function, query.k)
        return tuple(row.score for row in truth)


def scores_match(got, want) -> bool:
    return len(got) == len(want) and all(
        abs(a - b) <= SCORE_TOLERANCE for a, b in zip(got, want)
    )


def store_mismatches(platform, model: Model) -> "list[str]":
    """Inserted rows the store cannot read and deleted rows it still has."""
    problems = []
    for table in model.tables:
        backing = platform.store.backing(table)
        for row_key in sorted(model.inserted[table]):
            if backing.read_row(row_key).empty:
                problems.append(f"{table}/{row_key} inserted but unreadable")
        for row_key in sorted(model.deleted[table]):
            if not backing.read_row(row_key).empty:
                problems.append(f"{table}/{row_key} deleted but still present")
    return problems
