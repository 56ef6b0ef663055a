"""Tests for the row protocol's work counters and the incremental SQL/XML
streaming emitter."""

import pytest

from repro.errors import DatabaseError
from repro.rdb import (
    Database,
    Filter,
    HashJoin,
    IndexScan,
    Limit,
    Query,
    Scan,
    Sort,
    TopN,
    INT,
)
from repro.rdb.expressions import ScalarSubquery, col, const, eq, gt
from repro.rdb.plan import ExecutionStats, PlanProfiler
from repro.rdb.sqlxml import (
    XMLAgg,
    XMLComment,
    XMLConcat,
    XMLElement,
    XMLForest,
    XMLText,
    stream_expr_pieces,
    stream_value_pieces,
)


class TestRowCounters:
    """Work counters of the row protocol, per physical operator."""

    def test_output_rows_counted_once(self, db):
        query = Query(Scan("emp"), [(None, col("ename"))])
        _, stats = query.execute(db)
        assert stats.output_rows == 3

    def test_operator_counters(self, db):
        db.create_index("emp", "sal")
        _, stats = Query(
            HashJoin(
                Scan("dept", "d"), Scan("emp", "e"),
                col("deptno", "d"), col("deptno", "e"),
            ),
            [(None, col("dname", "d")), (None, col("ename", "e"))],
        ).execute(db)
        assert stats.hash_build_rows == 3
        assert stats.hash_probes == 2
        _, stats = Query(
            TopN(Scan("emp"), [(col("sal"), True)], 2),
            [(None, col("ename"))],
        ).execute(db)
        assert stats.topn_heap_rows == 3
        _, stats = Query(
            IndexScan("emp", "idx_emp_sal", ">", const(2000)),
            [(None, col("ename"))],
        ).execute(db)
        assert stats.index_probes == 1

    def test_profile_counts_rows_per_node(self, db):
        query = Query(
            Filter(Scan("emp"), gt(col("sal"), const(0))),
            [(None, col("ename"))],
        )
        stats = ExecutionStats()
        profiler = stats.profiler = PlanProfiler()
        rows, _ = query.execute(db, stats=stats)
        assert len(rows) == 3
        assert profiler.get(query.plan).rows_out == 3
        assert profiler.get(query.plan.child).rows_out == 3
        assert profiler.get(query.plan).opens == 1

    def test_limit_feedback_actuals(self, db):
        from repro.obs.feedback import compute_plan_feedback

        db.analyze()
        query = db.optimize(
            Query(Limit(Scan("emp"), 2), [(None, col("ename"))]))
        stats = ExecutionStats()
        stats.profiler = PlanProfiler()
        query.execute(db, stats=stats)
        feedback = compute_plan_feedback(query, stats.profiler)
        limit_node = next(n for n in feedback.nodes if n.op == "Limit")
        assert limit_node.actual_rows == 2


class TestLimitLaziness:
    """A Limit stops its child after ``count`` rows on every execution
    path, materialised and streamed alike."""

    @staticmethod
    def make_query():
        db = Database()
        db.create_table("t", [("n", INT)])
        db.insert("t", *[(n,) for n in range(1000)])
        return db, Query(Limit(Scan("t"), 1),
                         [(None, XMLElement("n", col("n")))])

    def test_execute_scans_one_row(self):
        db, query = self.make_query()
        rows, stats = query.execute(db)
        assert len(rows) == 1
        assert stats.rows_scanned == 1

    def test_stream_pieces_scans_one_row(self):
        db, query = self.make_query()
        stats = ExecutionStats()
        assert "".join(query.stream_pieces(db, stats=stats)) == "<n>0</n>"
        assert stats.rows_scanned == 1


class TestStreamPieces:
    def make_xml_query(self):
        return Query(
            Sort(Scan("emp"), [(col("empno"), True)]),
            [(None, XMLElement("emp", col("ename"),
                               attributes=[("no", col("empno"))]))],
        )

    def test_concatenation_matches_materialized(self, db):
        from repro.xmlmodel import serialize

        query = self.make_xml_query()
        rows, _ = query.execute(db)
        expected = "".join(serialize(row[0]) for row in rows)
        streamed = "".join(query.stream_pieces(db))
        assert streamed == expected

    def test_stream_counts_rows(self, db):
        query = self.make_xml_query()
        stats = ExecutionStats()
        list(query.stream_pieces(db, stats=stats))
        assert stats.output_rows == 3

    def test_no_outputs_rejected(self, db):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            list(Query(Scan("emp"), []).stream_pieces(db))

    def test_aggregate_streams_without_materializing(self, db):
        from repro.xmlmodel import serialize

        agg = XMLAgg(XMLElement("e", col("ename")),
                     order_by=[(col("sal"), True)])
        query = Query(Scan("emp"), [(None, agg)])
        rows, _ = query.execute(db)
        expected = "".join(serialize(node) for node in rows[0][0])
        assert "".join(query.stream_pieces(db)) == expected


class TestStreamValuePieces:
    def test_scalars(self):
        assert "".join(stream_value_pieces("a<b", escape=True)) == "a&lt;b"
        assert "".join(stream_value_pieces("a<b", escape=False)) == "a<b"
        assert "".join(stream_value_pieces(None)) == ""
        assert "".join(stream_value_pieces(7.0, escape=False)) == "7"

    def test_list_recurses(self):
        assert "".join(stream_value_pieces(["a", None, "b"],
                                           escape=False)) == "ab"

    def test_attribute_node_rejected(self):
        from repro.xmlmodel.builder import TreeBuilder

        builder = TreeBuilder()
        builder.start_element("e")
        builder.attribute("a", "v")
        builder.end_element()
        element = builder.finish().document_element
        attribute = element.attributes[0]
        with pytest.raises(DatabaseError):
            list(stream_value_pieces(attribute))


class TestConstructorStreaming:
    """Each SQL/XML constructor's stream_pieces against its evaluate."""

    def roundtrip(self, db, expr, env=None):
        from repro.xmlmodel import serialize
        from repro.rdb.sqlxml import append_xml_value

        stats = ExecutionStats()
        value = expr.evaluate(env or {}, db, stats)
        if isinstance(value, list):
            expected = "".join(
                serialize(v) if hasattr(v, "kind") else str(v)
                for v in value if v is not None
            )
        else:
            expected = serialize(value) if value is not None else ""
        streamed = "".join(
            stream_expr_pieces(expr, env or {}, db, ExecutionStats(),
                               escape=False)
        )
        assert streamed == expected
        return streamed

    def test_element_empty(self, db):
        assert self.roundtrip(db, XMLElement("e")) == "<e/>"

    def test_element_attrs_escaped(self, db):
        out = self.roundtrip(
            db, XMLElement("e", attributes=[("a", const('x"<'))])
        )
        assert out == '<e a="x&quot;&lt;"/>'

    def test_element_content_escaped(self, db):
        out = self.roundtrip(
            db, XMLElement("e", XMLText(const("a<b")))
        )
        assert out == "<e>a&lt;b</e>"

    def test_forest_skips_null(self, db):
        out = self.roundtrip(
            db,
            XMLForest([("a", const("x")), ("b", const(None)),
                       ("c", const("y"))]),
        )
        assert out == "<a>x</a><c>y</c>"

    def test_concat_and_comment(self, db):
        out = self.roundtrip(
            db,
            XMLConcat([XMLComment(const("note")),
                       XMLElement("e")]),
        )
        assert out == "<!--note--><e/>"

    def test_scalar_subquery_streams(self, db):
        subquery = Query(
            Filter(Scan("emp"), eq(col("empno"), const(7782))),
            [(None, XMLElement("who", col("ename")))],
        )
        expr = XMLElement("out", ScalarSubquery(subquery))
        stats = ExecutionStats()
        streamed = "".join(
            stream_expr_pieces(expr, {}, db, stats, escape=False)
        )
        assert streamed == "<out><who>CLARK</who></out>"
        assert stats.subquery_executions == 1

    def test_correlated_agg_subquery_streams(self, db):
        inner = Query(
            Filter(Scan("emp", "e"),
                   eq(col("deptno", "e"), col("deptno", "d"))),
            [(None, XMLAgg(XMLElement("n", col("ename", "e")),
                           order_by=[(col("empno", "e"), False)]))],
        )
        outer = Query(
            Sort(Scan("dept", "d"), [(col("deptno", "d"), False)]),
            [(None, XMLElement("dept", ScalarSubquery(inner)))],
        )
        from repro.xmlmodel import serialize

        rows, _ = outer.execute(db)
        expected = "".join(serialize(row[0]) for row in rows)
        assert "".join(outer.stream_pieces(db)) == expected
        assert "<n>CLARK</n><n>MILLER</n>" in expected
