"""The end-to-end workloads: data, set-up, seeded request streams.

Every request is one pooled unit of work through the public service
surface — ``SessionPool.connection()`` + ``Cursor.execute`` — so the
service, cache, I-SQL, optimizer, backend, inline and relational layers
all run on every workload; the workloads differ in which of them carry
the time:

* ``point_reads`` — Zipf-ranked closed selects over more distinct
  statements than any cache tier holds: hits on the service + cache
  path set the median, misses through parse/compile/rewrite/execute set
  the tail;
* ``read_write`` — reads beside stationary toggling updates on one split
  relation: per-world DML, commit, snapshot publish/sync, result-memo
  invalidation;
* ``whatif_columnar`` / ``whatif_array`` — what-if statements over five
  single-dataset pools whose constants never repeat, so every cache
  misses and the time sits in the inline evaluator and kernels.

The program under test receives only generated inputs: relations from
:mod:`repro.datagen` and statements from the streams below, both
derived from the seed alone.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro import InlineBackend, ISQLSession, Relation
from repro.datagen import census, census_blocks, company, flights, lineitem
from repro.datagen.workloads import ACQUISITION_SCRIPT, TPCH_SCRIPT

#: Dataset sizes. "full" is the benchmark; "tiny" keeps the harness
#: self-test fast while exercising exactly the same code.
SIZES = {
    "full": dict(
        departures=4096,
        trip_departures=2**14,
        companies=256,
        years=256,
        quantities=16,
        people=1024,
        blocks=8192,
    ),
    "tiny": dict(
        departures=64,
        trip_departures=64,
        companies=8,
        years=8,
        quantities=4,
        people=32,
        blocks=64,
    ),
}


@dataclass(frozen=True)
class Dataset:
    """The relations one pool's session starts from, plus its set-up script."""

    relations: tuple[tuple[str, Relation], ...]
    script: str = ""


@dataclass(frozen=True)
class Request:
    """One unit of work a client sends to the pool named *target*.

    *then* is a select run inside the same transaction after *sql*; the
    transaction is then rolled back (a what-if over uncommitted DML).
    *toggle* marks a ``read_write`` write as ``(row, marked after)``.
    *check* selects the request for verification against a reference.
    """

    target: str
    sql: str
    params: tuple = ()
    then: str | None = None
    toggle: tuple[int, bool] | None = None
    check: bool = False


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    #: Execution kernel of the measured sessions.
    kernel: str
    #: Pools publish every write statement at once (read_write).
    autocommit: bool
    #: Cache tiers the request stream reuses; they must be at capacity
    #: before measurement starts.
    full_tiers: tuple[str, ...]
    data: Callable[[int, str], dict[str, Dataset]]
    stream: Callable[[dict[str, Dataset], int], Iterator[Request]]


def open_session(dataset: Dataset, kernel: str, cache: bool) -> ISQLSession:
    """A fresh inline session holding *dataset*."""
    session = ISQLSession(backend=InlineBackend(kernel=kernel, cache=cache))
    for name, relation in dataset.relations:
        session.register(name, relation)
    if dataset.script:
        session.run(dataset.script)
    return session


def observe(cursor) -> object:
    """What a client reads back: sorted rows, the answer set, or the DML flag."""
    if cursor.result is None:
        return cursor.applied
    if cursor.description is not None:
        return tuple(cursor.fetchall())
    # The answer differs across worlds: read every world's answer.
    return frozenset(cursor.result.answers())


def run_request(connection, request: Request) -> tuple[object, str]:
    """Execute *request* on *connection*: (what :func:`observe` reads, route)."""
    cursor = connection.execute(request.sql, request.params)
    if request.then is not None:
        cursor = connection.execute(request.then)
        answer = observe(cursor)
        connection.rollback()
        return answer, cursor.route
    return observe(cursor), cursor.route


def _values(relation: Relation, position: int) -> list:
    return sorted({row[position] for row in relation.rows})


# -- point_reads ------------------------------------------------------------------

POINT_TEMPLATES = (
    "select certain Arr from HFlights where Dep = ? choice of Dep;",
    "select certain Arr from HFlights where Arr != ? choice of Dep;",
    "select possible Dep from HFlights where Arr = ? choice of Dep;",
)
#: Zipf exponent of the statement ranking. 1.3 puts the result-memo hit
#: rate near 0.75: far from 0.5, where the median would flip between the
#: hit and miss modes from run to run.
ZIPF_EXPONENT = 1.3
#: Shares of requests verified after the run (10 to 70 requests a run).
POINT_CHECK_RATE = 0.002


def _point_data(seed: int, scale: str) -> dict[str, Dataset]:
    relation = flights(SIZES[scale]["departures"], 64, 3, seed=seed)
    return {"flights": Dataset((("HFlights", relation),))}


def _point_stream(data, seed: int) -> Iterator[Request]:
    relation = data["flights"].relations[0][1]
    arrivals = _values(relation, 1)
    statements = (
        [(0, value) for value in _values(relation, 0)]
        + [(1, value) for value in arrivals]
        + [(2, value) for value in arrivals]
    )
    random.Random(seed).shuffle(statements)
    cumulative = list(
        itertools.accumulate(
            rank**-ZIPF_EXPONENT for rank in range(1, len(statements) + 1)
        )
    )
    total = cumulative[-1]
    rng = random.Random(f"point_reads/{seed}")
    while True:
        template, value = statements[bisect.bisect(cumulative, rng.random() * total)]
        yield Request(
            "flights",
            POINT_TEMPLATES[template],
            (value,),
            check=rng.random() < POINT_CHECK_RATE,
        )


# -- read_write -------------------------------------------------------------------

RW_READS = (
    "select certain Arr from Itin where Arr != ?;",
    "select possible Arr from Itin where Dep = ?;",
)
RW_WRITE = "update Itin set Arr = ? where Dep = ? and Arr = ?;"
#: The value toggled rows take while marked; no generated arrival uses it.
MARK = "MARK"
TOGGLE_ROWS = 8
WRITE_SHARE = 0.2
RW_CHECK_RATE = 0.01


def _rw_data(seed: int, scale: str) -> dict[str, Dataset]:
    relation = flights(SIZES[scale]["departures"], 64, 3, seed=seed)
    return {
        "itin": Dataset(
            (("HFlights", relation),),
            "Itin <- select * from HFlights choice of Dep;",
        )
    }


def _toggle_rows(data, seed: int) -> list[tuple[str, str]]:
    """The seeded ``(Dep, Arr)`` rows writes toggle to :data:`MARK` and back.

    Departures are distinct: two marked rows of one departure would merge
    into one ``(Dep, MARK)`` row, and unmarking could not restore both.
    """
    relation = data["itin"].relations[0][1]
    by_departure: dict[str, list[str]] = {}
    for departure, arrival in sorted(relation.rows):
        by_departure.setdefault(departure, []).append(arrival)
    rng = random.Random(seed)
    departures = rng.sample(sorted(by_departure), TOGGLE_ROWS)
    return [(dep, rng.choice(by_departure[dep])) for dep in departures]


def _rw_stream(data, seed: int) -> Iterator[Request]:
    relation = data["itin"].relations[0][1]
    departures, arrivals = _values(relation, 0), _values(relation, 1)
    rows = _toggle_rows(data, seed)
    # The stream knows each row's state, so every write changes the
    # relation, and a mark/unmark pair leaves its size as it was: the
    # workload stays stationary.
    marked = [False] * TOGGLE_ROWS
    rng = random.Random(f"read_write/{seed}")
    while True:
        check = rng.random() < RW_CHECK_RATE
        if rng.random() < WRITE_SHARE:
            index = rng.randrange(TOGGLE_ROWS)
            departure, arrival = rows[index]
            params = (
                (arrival, departure, MARK)
                if marked[index]
                else (MARK, departure, arrival)
            )
            marked[index] = not marked[index]
            yield Request("itin", RW_WRITE, params, toggle=(index, marked[index]))
        elif rng.random() < 0.5:
            yield Request("itin", RW_READS[0], (rng.choice(arrivals),), check=check)
        else:
            yield Request("itin", RW_READS[1], (rng.choice(departures),), check=check)


# -- whatif_* ---------------------------------------------------------------------

WHATIF_SQL = {
    "trip": "select certain Arr from HFlights where Dep != ? choice of Dep;",
    "acquisition": (
        "select certain CID, Skill from V, Emp_Skills "
        "where V.EID = Emp_Skills.EID and V.EID != ? group worlds by CID;"
    ),
    "tpch": (
        "select possible Year from YearQuantity as Y "
        "where (select sum(Price) from Lineitem "
        "where Lineitem.Year = Y.Year) - Y.Revenue > ?;"
    ),
    "census": "select certain SSN, Name from Census where SSN != ? repair by key SSN;",
    "blocks": (
        "update Clean set Name = 'REDACTED' where SSN >= ?; "
        "update Clean set POW = 'City0' where POW = 'City1'; "
        "delete from Clean where SSN < ?; "
        "insert into Clean values (-1, ?, 'AUDIT', 'City0', 'City0');"
    ),
}
BLOCKS_QUERY = "select certain SSN, Name from Clean;"
WHATIF_CHECK_RATE = 0.06


def _whatif_data(seed: int, scale: str) -> dict[str, Dataset]:
    size = SIZES[scale]
    company_emp, emp_skills = company(size["companies"], 8, 12, 2, seed=seed)
    items = lineitem(
        years=tuple(range(1500, 1500 + size["years"])),
        n_products=32,
        n_quantities=size["quantities"],
        rows_per_year=8,
        seed=seed,
    )
    # One dataset per session: independent splits in one session would
    # materialize their joint world table.
    return {
        "trip": Dataset(
            (("HFlights", flights(size["trip_departures"], 64, 3, seed=seed)),)
        ),
        "acquisition": Dataset(
            (("Company_Emp", company_emp), ("Emp_Skills", emp_skills)),
            ACQUISITION_SCRIPT,
        ),
        "tpch": Dataset((("Lineitem", items),), TPCH_SCRIPT),
        "census": Dataset(
            (("Census", census(size["people"], seed=seed, duplicates=13)),)
        ),
        "blocks": Dataset(
            (("Census", census_blocks(size["blocks"])),),
            "Clean <- select * from Census choice of Block;",
        ),
    }


def _whatif_stream(data, seed: int) -> Iterator[Request]:
    rng = random.Random(f"whatif/{seed}")

    def shuffled(values: list) -> Iterator:
        # Constants drawn without replacement from domains far larger
        # than a run's requests: no statement repeats, no cache hits.
        values = list(values)
        rng.shuffle(values)
        return itertools.cycle(values)

    people = len(data["blocks"].relations[0][1])
    constants = {
        "trip": shuffled(_values(data["trip"].relations[0][1], 0)),
        "acquisition": shuffled(_values(data["acquisition"].relations[0][1], 1)),
        "tpch": shuffled(range(0, 50000, 10)),
        "census": shuffled(_values(data["census"].relations[0][1], 0)),
        "blocks": shuffled(range(people)),
    }
    for target in itertools.cycle(WHATIF_SQL):
        value = next(constants[target])
        check = rng.random() < WHATIF_CHECK_RATE
        if target == "blocks":
            # The sentinel makes every script distinct; the cut points
            # stay in a narrow band so every round does similar work.
            params = (people - 1 - value % 512, value % 512, -1 - value)
            yield Request(target, WHATIF_SQL[target], params, then=BLOCKS_QUERY, check=check)
        else:
            yield Request(target, WHATIF_SQL[target], (value,), check=check)


def _whatif(kernel: str) -> Workload:
    return Workload(
        name=f"whatif_{kernel}",
        kernel=kernel,
        autocommit=False,
        full_tiers=(),
        data=_whatif_data,
        stream=_whatif_stream,
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="point_reads",
            kernel="columnar",
            autocommit=False,
            full_tiers=("parses", "plans", "memo"),
            data=_point_data,
            stream=_point_stream,
        ),
        Workload(
            name="read_write",
            kernel="columnar",
            autocommit=True,
            full_tiers=("parses", "plans", "memo"),
            data=_rw_data,
            stream=_rw_stream,
        ),
        _whatif("columnar"),
        _whatif("array"),
    )
}
