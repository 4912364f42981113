"""The world table W of an inlined representation, as a product of factors.

Every :class:`~repro.inline.representation.InlinedRepresentation`
stores W as a :class:`FactoredWorld`: a tuple of *factor* relations
over disjoint id attributes whose relational product is the world
table — the paper's Section 3 reading of independent choices as
independent dimensions of the world-set. A world is a point in that
product, **never materialized** unless a consumer genuinely needs the
joint table.

The joint world table of Definition 5.1 is simply the one-factor case,
so one encoding carries every session: a single complete world
W = {⟨⟩} is the empty product (zero factors) and the empty world-set
is one empty factor. A session's W grows by :meth:`FactoredWorld.combine`
alone: an independent split appends its own factor, and a split
correlated with existing worlds (``choice of`` over a table that
carries ids) joins only the factors it shares ids with.

The factored form is the general one because some world-sets have no
succinct joint table at all. ``repair by key`` is the canonical
producer: each violating key group becomes its own single-attribute
factor whose values number the group's candidate rows, so a repaired
relation with g independent groups of c_j choices stores Σ c_j factor
rows instead of the ∏ c_j joint world ids — the 2²⁰-world census
repair keeps ~10³ rows where the joint table would need 2²⁰ (see
:meth:`repro.inline.physical.PhysicalEvaluator._eval_repair`).

Tables over a factored world reference the factor columns directly. A
column registered as *wild* (the repair-minted ones) uses the padding
constant :data:`~repro.relational.pad.PAD` as a wildcard: a row with
PAD in a wild column belongs to **every** world of that factor, and a
row with a concrete value belongs only to the worlds picking it. That
is what keeps a repaired table at sum size — each candidate row is
stored once, tagged only in its own group's column.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from repro.errors import RepresentationError
from repro.relational.columnar import as_tuple, tuples_of
from repro.relational.pad import PAD
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class FactoredWorld:
    """A world table as a product of factor relations (disjoint ids).

    The represented world table is the product of the factors.
    ``count()`` is the product of the factor sizes — computed without
    enumerating a single joint world id — and :meth:`materialize`
    builds (and caches) the joint table for the consumers that truly
    need it (decoding, pairing, the strict Definition 5.1 form).

    A nullary one-row factor {⟨⟩} is the product's identity and is
    dropped, so the single world is ``FactoredWorld(())``. An empty
    factor makes the product empty; it is accepted only alone — the
    one encoding of the empty world-set.

    Factors are relations of any one kernel: a session stores
    tuple-engine factors, and the physical evaluator holds its
    kernel's (see :meth:`in_tuple_engine` for the way back).
    """

    __slots__ = ("factors", "ids", "_materialized")

    def __init__(self, factors: Sequence[Relation]) -> None:
        factors = tuple(f for f in factors if f.schema.attributes or not f)
        seen: set[str] = set()
        for factor in factors:
            if not factor and len(factors) > 1:
                raise RepresentationError(
                    "an empty world factor must be the only one (the "
                    "empty world-set is one empty factor)"
                )
            attrs = factor.schema.attributes
            overlap = seen.intersection(attrs)
            if overlap:
                raise RepresentationError(
                    f"world factors must have disjoint id attributes; "
                    f"{sorted(overlap)} appear twice"
                )
            seen.update(attrs)
        self.factors = factors
        self.ids: tuple[str, ...] = tuple(
            a for factor in factors for a in factor.schema.attributes
        )
        self._materialized: Relation | None = None

    def count(self) -> int:
        """Number of joint world ids: the product of the factor sizes."""
        count = 1
        for factor in self.factors:
            count *= len(factor)
        return count

    def in_tuple_engine(self) -> "FactoredWorld":
        """This world with tuple-engine factors — itself when they
        already are (the commit and compare boundary)."""
        if all(isinstance(f, Relation) for f in self.factors):
            return self
        return FactoredWorld(tuple(map(as_tuple, self.factors)))

    def project(self, ids: Iterable[str]) -> "FactoredWorld":
        """The factored projection onto *ids* — still never a product.

        Factors fully outside *ids* drop (their dimensions are summed
        out); partially covered factors project (and deduplicate) on
        their own. The empty world-set stays empty: projecting ∅ gives
        ∅, never the single world {⟨⟩}.
        """
        wanted = set(ids)
        kept = []
        for factor in self.factors:
            attrs = factor.schema.attributes
            inside = tuple(a for a in attrs if a in wanted)
            if len(inside) == len(attrs):
                kept.append(factor)
            elif inside or not factor:
                kept.append(factor.project(inside))
        return FactoredWorld(kept)

    def combine(self, other: "FactoredWorld") -> "FactoredWorld":
        """The natural join of two world tables, still factored.

        Factors that share id attributes join into one; disjoint ones
        stay apart, so the product of independent factors is never
        built, and a factor both operands hold (the same object) passes
        through unjoined. An empty factor absorbs every other: ∅ joined
        with anything is ∅.
        """
        if not other.factors:
            return self
        if not self.factors:
            return other
        factors = list(self.factors)
        for factor in other.factors:
            attrs = factor.schema.as_set()
            apart = []
            for existing in factors:
                if attrs.isdisjoint(existing.schema.attributes) and existing and factor:
                    apart.append(existing)
                elif existing is not factor:
                    factor = existing.natural_join(factor)
            factors = apart + [factor]
        return FactoredWorld(factors)

    def materialize(self) -> Relation:
        """The joint world table (cached): the product of the factors."""
        if self._materialized is None:
            if not self.factors:
                self._materialized = Relation.unit()
            else:
                joint = self.factors[0]
                for factor in self.factors[1:]:
                    # Disjoint attributes: the natural join is the product.
                    joint = joint.natural_join(factor)
                self._materialized = joint
        return self._materialized

    def expand_pads(self, relation, wild: Iterable[str]) -> Relation:
        """*relation* with the PAD wildcards of its *wild* columns spelled
        out: a PAD row becomes one row per value of the attribute's
        domain in this world (its factor's projection), so the result
        matches ids exactly. Every other column is left as it is; the
        result is a tuple-engine relation."""
        attrs = relation.schema.attributes
        wild = set(wild).intersection(attrs)
        if not wild:
            return as_tuple(relation)
        wild_pos = tuple(i for i, a in enumerate(attrs) if a in wild)
        domains = {
            a: tuple(dict.fromkeys(row[0] for row in tuples_of(factor, (a,))))
            for factor in self.factors
            for a in factor.schema.attributes
            if a in wild
        }
        rows: dict[tuple, None] = {}
        for row in tuples_of(relation, attrs):
            pads = [i for i in wild_pos if row[i] is PAD]
            if not pads:
                rows[row] = None
                continue
            for combo in product(*(domains[attrs[i]] for i in pads)):
                filled = list(row)
                for i, v in zip(pads, combo):
                    filled[i] = v
                rows[tuple(filled)] = None
        return Relation._raw(Schema(attrs), list(rows))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{list(f.schema.attributes)}[{len(f)}]" for f in self.factors
        )
        return f"FactoredWorld({parts}; count={self.count()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredWorld):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)
