"""Workload generators: determinism, shape, and schema guarantees."""

from repro.datagen import (
    census,
    company,
    flights,
    hotels,
    lineitem,
    paper_company,
    paper_flights,
    random_graph,
    random_query,
    random_relation,
    random_world_set,
)


class TestPaperInstances:
    def test_paper_flights_matches_figure_2a(self):
        relation = paper_flights()
        assert relation.schema.attributes == ("Dep", "Arr")
        assert len(relation) == 5
        assert ("PHL", "ATL") in relation

    def test_paper_company_matches_section_2(self):
        company_emp, emp_skills = paper_company()
        assert len(company_emp) == 5 and len(emp_skills) == 6


class TestScalableGenerators:
    def test_flights_deterministic(self):
        assert flights(5, 8, 3, seed=1) == flights(5, 8, 3, seed=1)
        assert flights(5, 8, 3, seed=1) != flights(5, 8, 3, seed=2)

    def test_flights_guarantee_common_arrival(self):
        relation = flights(10, 20, 4, seed=3)
        departures = {row[0] for row in relation.rows}
        assert len(departures) == 10
        for dep in departures:
            assert (dep, "A0") in relation

    def test_hotels_cover_cities(self):
        relation = hotels(4, 2, seed=0)
        assert len(relation) == 8
        assert {row[1] for row in relation.rows} == {"A0", "A1", "A2", "A3"}

    def test_company_sizes(self):
        company_emp, emp_skills = company(3, 4, 5, 2, seed=0)
        assert len(company_emp) == 12
        assert {row[0] for row in company_emp.rows} == {"C0", "C1", "C2"}
        assert emp_skills.schema.attributes == ("EID", "Skill")

    def test_census_produces_duplicates(self):
        relation = census(20, duplicate_rate=1.0, seed=0)
        ssns = [row[0] for row in relation.rows]
        assert len(ssns) > len(set(ssns))

    def test_census_clean_when_rate_zero(self):
        relation = census(20, duplicate_rate=0.0, seed=0)
        ssns = [row[0] for row in relation.rows]
        assert len(ssns) == len(set(ssns))

    def test_lineitem_schema_and_years(self):
        relation = lineitem(years=(2001, 2002), rows_per_year=10, seed=0)
        assert relation.schema.attributes == ("Product", "Quantity", "Price", "Year")
        assert {row[3] for row in relation.rows} == {2001, 2002}

    def test_random_graph_deterministic(self):
        assert random_graph(6, 0.5, seed=4) == random_graph(6, 0.5, seed=4)
        vertices, edges = random_graph(6, 1.0, seed=0)
        assert len(edges) == 15


class TestRandomInstances:
    def test_world_set_deterministic(self):
        assert random_world_set(7) == random_world_set(7)

    def test_world_set_schema(self):
        ws = random_world_set(11)
        assert ws.relation_names == ("R", "S")

    def test_random_query_deterministic_and_valid(self):
        from repro.relational import Schema

        env = {"R": Schema(("A", "B")), "S": Schema(("C", "D"))}
        for seed in range(30):
            q = random_query(seed)
            assert q == random_query(seed)
            q.attributes(env)  # must be well-formed

    def test_random_query_constant_free_mode(self):
        from repro.datagen.random_worlds import query_constants

        for seed in range(30):
            q = random_query(seed, allow_constants=False)
            assert not query_constants(q)

    def test_random_relation_bounds(self):
        import random

        relation = random_relation(("A", "B"), random.Random(0), max_rows=4)
        assert len(relation) <= 4


class TestXLScenarios:
    def test_census_pinned_duplicates(self):
        from repro.datagen import census

        dirty = census(20, seed=4, duplicates=6)
        assert len(dirty) == 26
        violating = {
            ssn
            for ssn in {row[0] for row in dirty}
            if sum(1 for row in dirty if row[0] == ssn) > 1
        }
        assert len(violating) == 6
        assert census(20, seed=4, duplicates=6) == dirty  # deterministic

    def test_xl_scenarios_shape(self):
        """Structure only — the XL workloads run in benchmarks, not here."""
        from repro.datagen import xl_scenarios

        suite = {s.name: s for s in xl_scenarios()}
        assert set(suite) == {
            "census_cleanup_dml_xxl",
            "census_cleanup_dml_xl",
            "trip_certain_2p16",
            "census_repair_xl",
            "acquisition_xl",
            "tpch_what_if_xl",
        }
        assert all(s.explicit_infeasible for s in suite.values())
        # The DML-heavy what-if: subqueries in update/delete conditions
        # and set expressions, at a world count the explicit engine
        # cannot decode (ISSUE 4).
        dml = suite["census_cleanup_dml_xl"]
        assert dml.approx_worlds >= 2**12
        assert "update" in dml.script and "delete" in dml.script
        assert "(select" in dml.script
        # The batched DML pipeline scenario (ISSUE 5): a 2¹⁶-world
        # split, then a multi-statement *subquery-free* cleanup run on
        # one relation — exactly the shape session.run coalesces into a
        # single backend pass — closed by an insert visible as the one
        # certain row.
        xxl = suite["census_cleanup_dml_xxl"]
        assert xxl.approx_worlds == 2**16
        assert "(select" not in xxl.script.split(";", 1)[1]
        assert xxl.script.count("update") + xxl.script.count("delete") >= 4
        assert "insert" in xxl.script
        assert sum(len(rel) for _, rel in xxl.relations) >= 10**5
        assert suite["trip_certain_2p16"].approx_worlds == 2**16
        assert all(s.approx_worlds >= 2**12 for s in suite.values())
        # ≥10⁵ inlined rows once the script replays: the generators alone
        # must already carry the base bulk for trip planning.
        trip_rows = sum(
            len(rel) for _, rel in suite["trip_certain_2p16"].relations
        )
        assert trip_rows >= 10**5
