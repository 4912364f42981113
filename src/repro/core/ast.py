"""World-set algebra query trees (Section 4.1).

World-set algebra extends relational algebra (σ, π, δ, ×, ∪, ∩, −) with
the world-aware operators:

* ``poss`` / ``cert`` — close the possible-worlds semantics by union /
  intersection of the answer relation across all worlds;
* ``χ_U`` (:class:`ChoiceOf`) — split each world into one world per
  distinct value combination of the attributes U;
* ``pγ^V_U`` / ``cγ^V_U`` (:class:`PossGroup` / :class:`CertGroup`) —
  group worlds that agree on π_U of the answer, then union / intersect
  π_V of the answer within each group;
* ``repair by key U`` (:class:`RepairByKey`) — the I-SQL extension of
  Section 4.1 that enumerates all maximal key-consistent sub-relations
  (NP-hard, Proposition 4.2);
* ``D^arity`` (:class:`ActiveDomain`) — the domain relation used by
  Proposition 6.3 to inter-express poss and cert.

Three further I-SQL-driven extensions let the compiler keep the whole
Figure 1 surface inside the algebra (so the inline backend never
enumerates worlds for them):

* ``γ^{aggs}_U`` (:class:`Aggregate`) — per-world SQL grouping and
  aggregation, the construct Section 4 explicitly leaves out of the
  fragment; added as a first-class node with the engine's semantics;
* ``q₁ ⋉_φ q₂`` / ``q₁ ▷_φ q₂`` (:class:`SemiJoin` / :class:`AntiJoin`)
  — the decorrelated forms of ``[not] in`` / ``[not] exists`` condition
  subqueries: per paired world, the left rows with (without) a
  φ-partner in the right answer;
* ``pγ^V_K`` / ``cγ^V_K`` (:class:`PossGroupKey` / :class:`CertGroupKey`)
  — ``group worlds by ⟨subquery⟩``: worlds are grouped by the *key*
  query's per-world answer instead of a projection of the child's.

Queries are immutable and hashable so the optimizer can compare plans
structurally. Derived operators (θ-join, natural join, division) carry
:meth:`WSAQuery.desugar` definitions in terms of the base operators,
which the property-test suite uses as semantic oracles.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.aggregates import AggSpec
from repro.relational.predicates import Predicate, conjunction, eq
from repro.relational.schema import Schema

SchemaEnv = Mapping[str, Schema]


def _attr_tuple(attributes: Sequence[str] | str) -> tuple[str, ...]:
    if isinstance(attributes, str):
        return (attributes,)
    return tuple(attributes)


class AttributeMemo(dict):
    """A schema environment that memoizes schema inference per node.

    Pass it as the *env* of :meth:`WSAQuery.attributes`: every node's
    attributes are then inferred once, however often a caller asks for
    them — the rewriter validates each step's whole plan, but a step
    rebuilds only the path above the rewritten node and shares every
    other subtree, so only that path is inferred anew. Entries are keyed
    by node identity and hold the node itself, so an id is never reused
    while the memo lives; use one memo per schema environment and drop
    it with the plans it served.
    """

    __slots__ = ("_memo",)

    def __init__(self, schemas: SchemaEnv) -> None:
        super().__init__(schemas)
        self._memo: dict[int, tuple[WSAQuery, tuple[str, ...]]] = {}

    def attributes_of(self, query: "WSAQuery") -> tuple[str, ...]:
        entry = self._memo.get(id(query))
        if entry is not None:
            return entry[1]
        attrs = query._attributes(self)
        self._memo[id(query)] = (query, attrs)
        return attrs


class WSAQuery:
    """Abstract base class of world-set algebra queries."""

    __slots__ = ()

    def children(self) -> tuple["WSAQuery", ...]:
        """Immediate subqueries."""
        raise NotImplementedError

    def attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        """Output attributes of the answer relation R_{k+1}.

        Raises :class:`SchemaError` if the query is ill-formed against
        *env*. With an :class:`AttributeMemo` as *env*, each node is
        inferred once per memo.
        """
        if type(env) is AttributeMemo:
            return env.attributes_of(self)
        return self._attributes(env)

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        """This node's schema inference (children through :meth:`attributes`)."""
        raise NotImplementedError

    def to_text(self) -> str:
        """Compact textbook rendering, e.g. ``cert(π[Arr](χ[Dep](HFlights)))``."""
        raise NotImplementedError

    def desugar(self) -> "WSAQuery":
        """The same query with derived operators expanded to base ones."""
        children = tuple(child.desugar() for child in self.children())
        if children == self.children():
            return self
        return self._with_children(children)

    def _with_children(self, children: tuple["WSAQuery", ...]) -> "WSAQuery":
        raise NotImplementedError

    def walk(self) -> Iterator["WSAQuery"]:
        """Pre-order traversal."""
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        """Number of operator nodes."""
        return 1 + sum(child.size() for child in self.children())

    def relation_names(self) -> frozenset[str]:
        """Base relations referenced by the query."""
        return frozenset(
            node.name for node in self.walk() if isinstance(node, Rel)
        )

    def __repr__(self) -> str:
        return self.to_text()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        raise NotImplementedError


class Rel(WSAQuery):
    """Identity on a base relation R_i (the base case of Figure 3)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def children(self) -> tuple[WSAQuery, ...]:
        return ()

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "Rel":
        return self

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        try:
            return env[self.name].attributes
        except KeyError:
            raise SchemaError(f"unknown relation {self.name!r}") from None

    def to_text(self) -> str:
        return self.name

    def _key(self) -> tuple:
        return (self.name,)


class Select(WSAQuery):
    """Selection σ_φ(q), applied per world to the answer relation."""

    __slots__ = ("predicate", "child")

    def __init__(self, predicate: Predicate, child: WSAQuery) -> None:
        self.predicate = predicate
        self.child = child

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.child,)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "Select":
        return Select(self.predicate, children[0])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        attrs = self.child.attributes(env)
        available = set(attrs)
        for attr in self.predicate.attributes():
            if attr not in available:
                raise SchemaError(
                    f"selection references {attr!r}, not among {list(attrs)}"
                )
        return attrs

    def to_text(self) -> str:
        return f"σ[{self.predicate!r}]({self.child.to_text()})"

    def _key(self) -> tuple:
        return (self.predicate, self.child)


class Project(WSAQuery):
    """Projection π_U(q)."""

    __slots__ = ("attrs", "child")

    def __init__(self, attrs: Sequence[str] | str, child: WSAQuery) -> None:
        self.attrs = _attr_tuple(attrs)
        self.child = child

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.child,)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "Project":
        return Project(self.attrs, children[0])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        available = set(self.child.attributes(env))
        for attr in self.attrs:
            if attr not in available:
                raise SchemaError(f"projection references unknown attribute {attr!r}")
        if len(set(self.attrs)) != len(self.attrs):
            raise SchemaError(f"duplicate attributes in projection {self.attrs}")
        return self.attrs

    def to_text(self) -> str:
        return f"π[{','.join(self.attrs)}]({self.child.to_text()})"

    def _key(self) -> tuple:
        return (self.attrs, self.child)


class Rename(WSAQuery):
    """Renaming δ_{old→new}(q)."""

    __slots__ = ("mapping", "child")

    def __init__(self, mapping: Mapping[str, str], child: WSAQuery) -> None:
        self.mapping = dict(mapping)
        self.child = child

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.child,)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "Rename":
        return Rename(self.mapping, children[0])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        return Schema(self.child.attributes(env)).rename(self.mapping).attributes

    def to_text(self) -> str:
        renames = ",".join(f"{o}→{n}" for o, n in sorted(self.mapping.items()))
        return f"δ[{renames}]({self.child.to_text()})"

    def _key(self) -> tuple:
        return (tuple(sorted(self.mapping.items())), self.child)


class _BinaryQuery(WSAQuery):
    """Shared plumbing for the binary operators of Figure 3."""

    __slots__ = ("left", "right")
    symbol = "?"

    def __init__(self, left: WSAQuery, right: WSAQuery) -> None:
        self.left = left
        self.right = right

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.left, self.right)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "_BinaryQuery":
        return type(self)(children[0], children[1])

    def to_text(self) -> str:
        return f"({self.left.to_text()} {self.symbol} {self.right.to_text()})"

    def _key(self) -> tuple:
        return (self.left, self.right)

    def _same_attrs(self, env: SchemaEnv, op: str) -> tuple[str, ...]:
        left = self.left.attributes(env)
        right = self.right.attributes(env)
        if set(left) != set(right):
            raise SchemaError(
                f"{op} operands must have equal attribute sets; "
                f"got {list(left)} vs {list(right)}"
            )
        return left


class Product(_BinaryQuery):
    """Product q₁ × q₂ (disjoint attribute sets; per-world pairing)."""

    __slots__ = ()
    symbol = "×"

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        left = self.left.attributes(env)
        right = self.right.attributes(env)
        shared = set(left) & set(right)
        if shared:
            raise SchemaError(f"product operands share attributes {sorted(shared)}")
        return left + right


class Union(_BinaryQuery):
    """Union q₁ ∪ q₂."""

    __slots__ = ()
    symbol = "∪"

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        return self._same_attrs(env, "union")


class Intersect(_BinaryQuery):
    """Intersection q₁ ∩ q₂ (expressible as q₁ − (q₁ − q₂))."""

    __slots__ = ()
    symbol = "∩"

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        return self._same_attrs(env, "intersection")

    def desugar(self) -> WSAQuery:
        left = self.left.desugar()
        right = self.right.desugar()
        return Difference(left, Difference(left, right))


class Difference(_BinaryQuery):
    """Difference q₁ − q₂."""

    __slots__ = ()
    symbol = "−"

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        return self._same_attrs(env, "difference")


class ThetaJoin(WSAQuery):
    """θ-join q₁ ⋈_φ q₂ — sugar for σ_φ(q₁ × q₂) (Example 4.1 style)."""

    __slots__ = ("predicate", "left", "right")

    def __init__(self, predicate: Predicate, left: WSAQuery, right: WSAQuery) -> None:
        self.predicate = predicate
        self.left = left
        self.right = right

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.left, self.right)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "ThetaJoin":
        return ThetaJoin(self.predicate, children[0], children[1])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        return Product(self.left, self.right).attributes(env)

    def desugar(self) -> WSAQuery:
        return Select(self.predicate, Product(self.left.desugar(), self.right.desugar()))

    def to_text(self) -> str:
        return f"({self.left.to_text()} ⋈[{self.predicate!r}] {self.right.to_text()})"

    def _key(self) -> tuple:
        return (self.predicate, self.left, self.right)


class NaturalJoin(_BinaryQuery):
    """Natural join q₁ ⋈ q₂ on shared attribute names.

    Desugars to rename–product–select–project over the base operators.
    """

    __slots__ = ()
    symbol = "⋈"

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        left = self.left.attributes(env)
        right = self.right.attributes(env)
        shared = set(left) & set(right)
        return left + tuple(a for a in right if a not in shared)

    def shared_attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        """The join attributes (shared names), in left-operand order."""
        right = set(self.right.attributes(env))
        return tuple(a for a in self.left.attributes(env) if a in right)

    def desugar(self) -> WSAQuery:
        # The rename targets must be globally fresh; we derive them from
        # the shared names with a reserved prefix.
        left = self.left.desugar()
        right = self.right.desugar()
        return _desugared_natural_join(left, right)


def _desugared_natural_join(left: WSAQuery, right: WSAQuery) -> WSAQuery:
    """Expand a natural join using only base operators.

    The shared attributes of the right operand are renamed to fresh
    ``joined#`` names, the operands are θ-joined on equality, and the
    duplicates are projected away. Attribute resolution happens lazily
    at evaluation/validation time via :class:`_NaturalJoinExpansion`.
    """
    return _NaturalJoinExpansion(left, right)


class _NaturalJoinExpansion(_BinaryQuery):
    """A natural join that expands itself once schemas are known.

    Natural-join desugaring needs the operand schemas (to know the
    shared attributes), which are only available under a schema
    environment. This node performs the expansion on demand via
    :meth:`expand`; the evaluator and translator call it.
    """

    __slots__ = ()
    symbol = "⋈*"

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        return NaturalJoin(self.left, self.right).attributes(env)

    def expand(self, env: SchemaEnv) -> WSAQuery:
        """The base-operator expression for this natural join."""
        left_attrs = self.left.attributes(env)
        right_attrs = self.right.attributes(env)
        shared = [a for a in right_attrs if a in set(left_attrs)]
        if not shared:
            return Product(self.left, self.right)
        fresh = {a: f"joined#{a}" for a in shared}
        renamed = Rename(fresh, self.right)
        condition = conjunction([eq(a, fresh[a]) for a in shared])
        joined = Select(condition, Product(self.left, renamed))
        keep = left_attrs + tuple(a for a in right_attrs if a not in set(shared))
        return Project(keep, joined)


class Divide(_BinaryQuery):
    """Division q₁ ÷ q₂ — the derived operator used in Section 2.

    Desugars to π_D(q₁) − π_D((π_D(q₁) × q₂) − q₁); the attribute
    bookkeeping is resolved lazily like the natural join.
    """

    __slots__ = ()
    symbol = "÷"

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        left = self.left.attributes(env)
        right = self.right.attributes(env)
        if not set(right) <= set(left):
            raise SchemaError("division requires divisor attributes ⊆ dividend attributes")
        return tuple(a for a in left if a not in set(right))

    def expand(self, env: SchemaEnv) -> WSAQuery:
        """The base-operator expression for this division."""
        keep = self.attributes(env)
        quotient = Project(keep, self.left)
        candidates = Product(quotient, self.right)
        missing = Project(keep, Difference(candidates, _align(self.left, candidates, env)))
        return Difference(quotient, missing)


def _align(query: WSAQuery, like: WSAQuery, env: SchemaEnv) -> WSAQuery:
    """Project *query* onto the attribute order of *like* (named views)."""
    return Project(like.attributes(env), query)


class ChoiceOf(WSAQuery):
    """χ_U(q): one world per distinct U-value of the answer (Figure 3).

    Applied to an empty answer relation, a single world with an empty
    answer is produced (the paper's dummy choice ``v = 1``).
    """

    __slots__ = ("attrs", "child")

    def __init__(self, attrs: Sequence[str] | str, child: WSAQuery) -> None:
        self.attrs = _attr_tuple(attrs)
        self.child = child

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.child,)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "ChoiceOf":
        return ChoiceOf(self.attrs, children[0])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        available = set(self.child.attributes(env))
        for attr in self.attrs:
            if attr not in available:
                raise SchemaError(f"choice-of references unknown attribute {attr!r}")
        return self.child.attributes(env)

    def to_text(self) -> str:
        return f"χ[{','.join(self.attrs)}]({self.child.to_text()})"

    def _key(self) -> tuple:
        return (self.attrs, self.child)


class _GroupWorldsBy(WSAQuery):
    """Shared plumbing for pγ^V_U and cγ^V_U."""

    __slots__ = ("group_attrs", "proj_attrs", "child")
    prefix = "?"

    def __init__(
        self,
        group_attrs: Sequence[str] | str,
        proj_attrs: Sequence[str] | str,
        child: WSAQuery,
    ) -> None:
        self.group_attrs = _attr_tuple(group_attrs)
        self.proj_attrs = _attr_tuple(proj_attrs)
        self.child = child

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.child,)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "_GroupWorldsBy":
        return type(self)(self.group_attrs, self.proj_attrs, children[0])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        available = set(self.child.attributes(env))
        for attr in self.group_attrs + self.proj_attrs:
            if attr not in available:
                raise SchemaError(
                    f"group-worlds-by references unknown attribute {attr!r}"
                )
        return self.proj_attrs

    def to_text(self) -> str:
        groups = ",".join(self.group_attrs) if self.group_attrs else "∅"
        projs = ",".join(self.proj_attrs) if self.proj_attrs else "∅"
        return f"{self.prefix}γ[{projs}; by {groups}]({self.child.to_text()})"

    def _key(self) -> tuple:
        return (self.group_attrs, self.proj_attrs, self.child)


class PossGroup(_GroupWorldsBy):
    """pγ^V_U(q): group worlds by π_U(answer), union π_V within groups."""

    __slots__ = ()
    prefix = "p"


class CertGroup(_GroupWorldsBy):
    """cγ^V_U(q): group worlds by π_U(answer), intersect π_V within groups."""

    __slots__ = ()
    prefix = "c"


class _GroupWorldsByKey(WSAQuery):
    """Shared plumbing for pγ^V_K and cγ^V_K (subquery-keyed grouping).

    Worlds are grouped by the per-world *answer of the key query* —
    worlds whose key answers coincide as sets form one group — and the
    answer is the union (pγ) / intersection (cγ) of π_V of the child's
    answer within each group. This is exactly I-SQL's
    ``group worlds by ⟨subquery⟩``; the attribute-list form of
    :class:`PossGroup`/:class:`CertGroup` is the special case where the
    key query is a projection of the child itself (evaluated without
    re-splitting worlds, which is why it stays a separate node).
    """

    __slots__ = ("proj_attrs", "child", "key")
    prefix = "?"

    def __init__(
        self,
        proj_attrs: Sequence[str] | str,
        child: WSAQuery,
        key: WSAQuery,
    ) -> None:
        self.proj_attrs = _attr_tuple(proj_attrs)
        self.child = child
        self.key = key

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.child, self.key)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "_GroupWorldsByKey":
        return type(self)(self.proj_attrs, children[0], children[1])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        available = set(self.child.attributes(env))
        for attr in self.proj_attrs:
            if attr not in available:
                raise SchemaError(
                    f"group-worlds-by references unknown attribute {attr!r}"
                )
        self.key.attributes(env)  # validate the key query too
        return self.proj_attrs

    def to_text(self) -> str:
        projs = ",".join(self.proj_attrs) if self.proj_attrs else "∅"
        return (
            f"{self.prefix}γ[{projs}; by ⟨{self.key.to_text()}⟩]"
            f"({self.child.to_text()})"
        )

    def _key(self) -> tuple:
        return (self.proj_attrs, self.child, self.key)


class PossGroupKey(_GroupWorldsByKey):
    """pγ^V_K(q): group worlds by K's answer, union π_V within groups."""

    __slots__ = ()
    prefix = "p"


class CertGroupKey(_GroupWorldsByKey):
    """cγ^V_K(q): group worlds by K's answer, intersect π_V within groups."""

    __slots__ = ()
    prefix = "c"


class Aggregate(WSAQuery):
    """γ^{specs}_U(q): per-world SQL grouping and aggregation.

    Within every world, the answer relation is grouped by the attributes
    U and each :class:`~repro.relational.aggregates.AggSpec` folds its
    argument within the group, producing ⟨U-values, aggregates⟩ rows.
    With U = ∅ this is a global aggregate: exactly one output row per
    world, defaulting over the empty answer (count/sum 0, min/max
    undefined) — SQL's single empty group, matching the I-SQL engine.

    This is deliberately *outside* the Section 4 fragment ("the algebra
    of the fragment of I-SQL without SQL grouping and aggregation");
    carrying it as a first-class node is what lets the inline
    representation evaluate aggregation flat, with the world-id
    attributes simply joining the grouping key.
    """

    __slots__ = ("group_attrs", "specs", "child")

    def __init__(
        self,
        group_attrs: Sequence[str] | str,
        specs: Sequence[AggSpec],
        child: WSAQuery,
    ) -> None:
        self.group_attrs = _attr_tuple(group_attrs)
        self.specs = tuple(specs)
        self.child = child

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.child,)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "Aggregate":
        return Aggregate(self.group_attrs, self.specs, children[0])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        available = set(self.child.attributes(env))
        for attr in self.group_attrs:
            if attr not in available:
                raise SchemaError(f"aggregation groups unknown attribute {attr!r}")
        for spec in self.specs:
            if spec.argument is not None and spec.argument not in available:
                raise SchemaError(
                    f"aggregate argument {spec.argument!r} is unknown"
                )
        outputs = tuple(spec.output for spec in self.specs)
        result = self.group_attrs + outputs
        if len(set(result)) != len(result):
            raise SchemaError(
                f"duplicate output attributes in aggregation {result}"
            )
        return result

    def to_text(self) -> str:
        aggs = ",".join(spec.render() for spec in self.specs)
        groups = ",".join(self.group_attrs) if self.group_attrs else "∅"
        return f"γ[{aggs}; by {groups}]({self.child.to_text()})"

    def _key(self) -> tuple:
        return (self.group_attrs, self.specs, self.child)


class _PredicateJoin(WSAQuery):
    """Shared plumbing for the φ-semijoin and φ-antijoin."""

    __slots__ = ("predicate", "left", "right")
    symbol = "?"

    def __init__(self, predicate: Predicate, left: WSAQuery, right: WSAQuery) -> None:
        self.predicate = predicate
        self.left = left
        self.right = right

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.left, self.right)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "_PredicateJoin":
        return type(self)(self.predicate, children[0], children[1])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        left = self.left.attributes(env)
        right = self.right.attributes(env)
        shared = set(left) & set(right)
        if shared:
            raise SchemaError(
                f"semijoin operands share attributes {sorted(shared)}; "
                "rename the right operand first"
            )
        available = set(left) | set(right)
        for attr in self.predicate.attributes():
            if attr not in available:
                raise SchemaError(
                    f"semijoin predicate references unknown attribute {attr!r}"
                )
        return left

    def to_text(self) -> str:
        return (
            f"({self.left.to_text()} {self.symbol}[{self.predicate!r}] "
            f"{self.right.to_text()})"
        )

    def _key(self) -> tuple:
        return (self.predicate, self.left, self.right)


class SemiJoin(_PredicateJoin):
    """q₁ ⋉_φ q₂: left rows with a φ-partner in q₂, per paired world.

    The decorrelated form of ``expr in ⟨subquery⟩`` / ``exists
    ⟨subquery⟩``: equivalent to π_{Attrs(q₁)}(σ_φ(q₁ × q₂)) but
    evaluated as one hash pass on the inlined representation — the
    product is never materialized.
    """

    __slots__ = ()
    symbol = "⋉"


class AntiJoin(_PredicateJoin):
    """q₁ ▷_φ q₂: left rows with *no* φ-partner in q₂, per paired world.

    The decorrelated form of ``expr not in ⟨subquery⟩`` / ``not exists
    ⟨subquery⟩``: equivalent to q₁ − π_{Attrs(q₁)}(σ_φ(q₁ × q₂)).
    """

    __slots__ = ()
    symbol = "▷"


class PadJoin(_BinaryQuery):
    """q₁ =⊳⊲ q₂: the padded left outer join of Remark 5.5, per world.

    Tuples join on the shared attribute names; left tuples without a
    partner are kept, padded with the PAD constant on q₂'s non-shared
    attributes. The decorrelated scalar-aggregate comparison uses this
    to give outer rows without a correlation partner their SQL
    empty-group default (via the ``PadDefault`` predicate term) —
    crucially referencing the outer subquery *once*, so a
    world-splitting outer plan is never evaluated twice against itself.
    """

    __slots__ = ()
    symbol = "=⊳⊲"

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        left = self.left.attributes(env)
        right = self.right.attributes(env)
        shared = set(left) & set(right)
        return left + tuple(a for a in right if a not in shared)


class _Closing(WSAQuery):
    """Shared plumbing for poss and cert."""

    __slots__ = ("child",)
    name = "?"

    def __init__(self, child: WSAQuery) -> None:
        self.child = child

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.child,)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "_Closing":
        return type(self)(children[0])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        return self.child.attributes(env)

    def to_text(self) -> str:
        return f"{self.name}({self.child.to_text()})"

    def _key(self) -> tuple:
        return (self.child,)


class Poss(_Closing):
    """poss(q): answer := union of the answer over all worlds.

    Figure 3 defines poss as pγ^*_true — grouping with the trivially
    true condition, projecting all attributes.
    """

    __slots__ = ()
    name = "poss"


class Cert(_Closing):
    """cert(q): answer := intersection of the answer over all worlds."""

    __slots__ = ()
    name = "cert"


class RepairByKey(WSAQuery):
    """``repair by key U`` — all maximal U-key-consistent sub-relations.

    This is the Section 4.1 extension: one world per choice function
    that picks exactly one tuple for each distinct U-value. Evaluation
    is NP-hard (Proposition 4.2).
    """

    __slots__ = ("attrs", "child")

    def __init__(self, attrs: Sequence[str] | str, child: WSAQuery) -> None:
        self.attrs = _attr_tuple(attrs)
        self.child = child

    def children(self) -> tuple[WSAQuery, ...]:
        return (self.child,)

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "RepairByKey":
        return RepairByKey(self.attrs, children[0])

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        available = set(self.child.attributes(env))
        for attr in self.attrs:
            if attr not in available:
                raise SchemaError(f"repair-by-key references unknown attribute {attr!r}")
        return self.child.attributes(env)

    def to_text(self) -> str:
        return f"repair[{','.join(self.attrs)}]({self.child.to_text()})"

    def _key(self) -> tuple:
        return (self.attrs, self.child)


class ActiveDomain(WSAQuery):
    """D^arity: the full product of the input world-set's active domain.

    Proposition 6.3 uses a domain relation D "which holds the values
    that appear in the union of all the worlds" to express cert via poss
    and vice versa. The node carries explicit attribute names so the
    result can be combined with other subqueries.
    """

    __slots__ = ("attrs",)

    def __init__(self, attrs: Sequence[str] | str) -> None:
        self.attrs = _attr_tuple(attrs)
        if not self.attrs:
            raise SchemaError("active domain relation needs at least one attribute")

    def children(self) -> tuple[WSAQuery, ...]:
        return ()

    def _with_children(self, children: tuple[WSAQuery, ...]) -> "ActiveDomain":
        return self

    def _attributes(self, env: SchemaEnv) -> tuple[str, ...]:
        return self.attrs

    def to_text(self) -> str:
        return f"D[{','.join(self.attrs)}]"

    def _key(self) -> tuple:
        return (self.attrs,)


# -- fluent constructors ------------------------------------------------------


def rel(name: str) -> Rel:
    """Reference base relation *name*."""
    return Rel(name)


def select(predicate: Predicate, child: WSAQuery) -> Select:
    """σ_φ(q)."""
    return Select(predicate, child)


def project(attrs: Sequence[str] | str, child: WSAQuery) -> Project:
    """π_U(q)."""
    return Project(attrs, child)


def rename(mapping: Mapping[str, str], child: WSAQuery) -> Rename:
    """δ_{old→new}(q)."""
    return Rename(mapping, child)


def product(left: WSAQuery, right: WSAQuery) -> Product:
    """q₁ × q₂."""
    return Product(left, right)


def union(left: WSAQuery, right: WSAQuery) -> Union:
    """q₁ ∪ q₂."""
    return Union(left, right)


def intersect(left: WSAQuery, right: WSAQuery) -> Intersect:
    """q₁ ∩ q₂."""
    return Intersect(left, right)


def difference(left: WSAQuery, right: WSAQuery) -> Difference:
    """q₁ − q₂."""
    return Difference(left, right)


def theta_join(predicate: Predicate, left: WSAQuery, right: WSAQuery) -> ThetaJoin:
    """q₁ ⋈_φ q₂."""
    return ThetaJoin(predicate, left, right)


def natural_join(left: WSAQuery, right: WSAQuery) -> NaturalJoin:
    """q₁ ⋈ q₂."""
    return NaturalJoin(left, right)


def divide(left: WSAQuery, right: WSAQuery) -> Divide:
    """q₁ ÷ q₂."""
    return Divide(left, right)


def choice_of(attrs: Sequence[str] | str, child: WSAQuery) -> ChoiceOf:
    """χ_U(q)."""
    return ChoiceOf(attrs, child)


def poss_group(
    group_attrs: Sequence[str] | str,
    proj_attrs: Sequence[str] | str,
    child: WSAQuery,
) -> PossGroup:
    """pγ^V_U(q) with U = group_attrs, V = proj_attrs."""
    return PossGroup(group_attrs, proj_attrs, child)


def cert_group(
    group_attrs: Sequence[str] | str,
    proj_attrs: Sequence[str] | str,
    child: WSAQuery,
) -> CertGroup:
    """cγ^V_U(q) with U = group_attrs, V = proj_attrs."""
    return CertGroup(group_attrs, proj_attrs, child)


def poss_group_key(
    proj_attrs: Sequence[str] | str, child: WSAQuery, key: WSAQuery
) -> PossGroupKey:
    """pγ^V_K(q) grouping worlds by the key query's answer."""
    return PossGroupKey(proj_attrs, child, key)


def cert_group_key(
    proj_attrs: Sequence[str] | str, child: WSAQuery, key: WSAQuery
) -> CertGroupKey:
    """cγ^V_K(q) grouping worlds by the key query's answer."""
    return CertGroupKey(proj_attrs, child, key)


def aggregate(
    group_attrs: Sequence[str] | str,
    specs: Sequence[AggSpec],
    child: WSAQuery,
) -> Aggregate:
    """γ^{specs}_U(q): per-world SQL grouping/aggregation."""
    return Aggregate(group_attrs, specs, child)


def semijoin(predicate: Predicate, left: WSAQuery, right: WSAQuery) -> SemiJoin:
    """q₁ ⋉_φ q₂."""
    return SemiJoin(predicate, left, right)


def pad_join(left: WSAQuery, right: WSAQuery) -> PadJoin:
    """q₁ =⊳⊲ q₂ (padded left outer join on shared attributes)."""
    return PadJoin(left, right)


def antijoin(predicate: Predicate, left: WSAQuery, right: WSAQuery) -> AntiJoin:
    """q₁ ▷_φ q₂."""
    return AntiJoin(predicate, left, right)


def poss(child: WSAQuery) -> Poss:
    """poss(q)."""
    return Poss(child)


def cert(child: WSAQuery) -> Cert:
    """cert(q)."""
    return Cert(child)


def repair_by_key(attrs: Sequence[str] | str, child: WSAQuery) -> RepairByKey:
    """``q repair by key U``."""
    return RepairByKey(attrs, child)


def active_domain(attrs: Sequence[str] | str) -> ActiveDomain:
    """D^arity over the named attributes."""
    return ActiveDomain(attrs)


def contains_world_splitter(query: WSAQuery) -> bool:
    """True iff evaluating *query* can mint fresh world ids.

    Choice-of and repair-by-key split worlds; every other operator is
    deterministic per world. Duplicating a split-free subtree across the
    branches of a union (the compiler's union-of-semijoins form of
    ``or`` over condition subqueries) is therefore semantics-preserving,
    while duplicating a splitting subtree would pair *independent*
    splits — each occurrence would mint its own ids — which is why both
    the compiler and the σ∪σ rewrite rule consult this before sharing.
    """
    return any(
        isinstance(node, (ChoiceOf, RepairByKey)) for node in query.walk()
    )


def repairs_of_rows(
    rows: Sequence[tuple],
    key_positions: Sequence[int],
) -> Iterator[frozenset[tuple]]:
    """Enumerate the key-repairs of a set of rows (helper for RepairByKey).

    Each repair keeps exactly one row per distinct key value; repairs
    are produced in a deterministic order.
    """
    groups: dict[tuple, list[tuple]] = {}
    for row in sorted(rows, key=lambda r: tuple(map(str, r))):
        key = tuple(row[p] for p in key_positions)
        groups.setdefault(key, []).append(row)
    pools = list(groups.values())
    for combination in itertools.product(*pools):
        yield frozenset(combination)
