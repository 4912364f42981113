"""The package façade: everything advertised in ``repro.__all__`` works."""

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestQuickstart:
    def test_readme_quickstart(self):
        """The README / module docstring example, verbatim."""
        from repro import ISQLSession
        from repro.datagen import paper_flights

        session = ISQLSession()
        session.register("Flights", paper_flights())
        result = session.query(
            "select certain Arr from Flights choice of Dep;"
        )
        assert result.relation.sorted_rows() == [("ATL",)]

    def test_algebra_quickstart(self):
        from repro import answer, cert, choice_of, project, rel
        from repro.datagen import paper_flights
        from repro.worlds import World, WorldSet

        ws = WorldSet.single(World.of({"Flights": paper_flights()}))
        query = cert(project("Arr", choice_of("Dep", rel("Flights"))))
        assert answer(query, ws).sorted_rows() == [("ATL",)]

    def test_translation_quickstart(self):
        from repro import optimized_ra_query, cert, choice_of, project, rel
        from repro.datagen import paper_flights
        from repro.relational import Database

        db = Database({"Flights": paper_flights()})
        query = cert(project("Arr", choice_of("Dep", rel("Flights"))))
        expr = optimized_ra_query(query, db.schemas(), assume_nonempty=True)
        assert expr.evaluate(db).sorted_rows() == [("ATL",)]

    def test_error_hierarchy(self):
        from repro import (
            EvaluationError,
            ParseError,
            ReproError,
            SchemaError,
            TranslationError,
            TypingError,
        )

        for error in (
            EvaluationError,
            ParseError,
            SchemaError,
            TranslationError,
            TypingError,
        ):
            assert issubclass(error, ReproError)


class TestStatementSurface:
    """``ISQLSession.run`` is the one statement driver."""

    def test_run_is_the_only_statement_driver(self):
        """The public session surface, pinned whole: no second driver
        and no second statement-result shape."""
        import repro.isql
        import repro.isql.session
        from repro import ISQLSession

        assert {n for n in vars(ISQLSession) if not n.startswith("_")} == {
            "cache_info",
            "close",
            "declare_key",
            "export_snapshot",
            "fork",
            "pin_thread",
            "query",
            "register",
            "relation_names",
            "release",
            "restore_snapshot",
            "rollback_to",
            "run",
            "savepoint",
            "transaction",
            "unpin_thread",
            "world_count",
            "world_set",
        }
        for module in (repro.isql, repro.isql.session):
            results = {n for n in module.__all__ if n.endswith("Result")}
            assert results == {"QueryResult", "StatementResult"}

    def test_traced_entry_points_are_class_attributes(self):
        """The end-to-end tracer wraps these by class attribute."""
        from repro import ISQLSession, InlineBackend

        assert {"run", "restore_snapshot"} <= set(vars(ISQLSession))
        assert {
            "run_select",
            "run_insert",
            "run_delete",
            "run_update",
            "run_dml_batch",
        } <= set(vars(InlineBackend))

    def test_query_takes_exactly_one_select(self):
        from repro import EvaluationError, ISQLSession
        from repro.datagen import paper_flights

        session = ISQLSession()
        session.register("Flights", paper_flights())
        with pytest.raises(EvaluationError):
            session.query("delete from Flights where Dep = 'FRA';")
        with pytest.raises(EvaluationError):
            session.query("select * from Flights; select * from Flights;")
