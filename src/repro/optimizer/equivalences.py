"""The world-set algebra equivalences of Figure 7 (plus Eq. 24–26).

Every numbered equivalence is materialized as a :class:`RewriteRule`
whose direction is the *optimizing* one used in Examples 6.1/6.2:
poss/cert/σ/π are pushed towards the leaves, choice-of is pushed below
products, and the Reduce group eliminates redundant world operators.
Each rule checks its attribute side conditions against a schema
environment.

The rules are exercised two ways: the rewriter (Section 6) composes
them into derivations, and the property-based test-suite validates
every equation on randomized world-sets against the Figure 3 reference
semantics — including both directions, since equivalences are symmetric
even when the optimizer only applies one direction.

Proposition 6.3's inter-expressibility of poss and cert (Eq. 25/26)
is provided as the query constructors :func:`cert_via_poss` and
:func:`poss_via_cert`, since they introduce the active-domain relation
rather than rewrite existing operators.
"""

from __future__ import annotations

import functools
from typing import Callable, Mapping, Sequence

from repro.core.ast import (
    Aggregate,
    Cert,
    CertGroup,
    ChoiceOf,
    Difference,
    Intersect,
    Poss,
    PossGroup,
    Product,
    Project,
    Rename,
    Select,
    ThetaJoin,
    Union,
    WSAQuery,
    active_domain,
    difference,
    poss,
)
from repro.relational.schema import Schema

SchemaEnv = Mapping[str, Schema]
Matcher = Callable[[WSAQuery, SchemaEnv], WSAQuery | None]


class RewriteRule:
    """One oriented equivalence l → r with its side condition.

    *roots* declares the node classes the left-hand side can be rooted
    at: the matcher returns None on every other node, so the rewriter
    tries a rule only on instances of its roots. A rule that declares
    none is tried on every node.
    """

    __slots__ = ("name", "equation", "_matcher", "roots")

    def __init__(
        self,
        name: str,
        equation: str,
        matcher: Matcher,
        roots: tuple[type[WSAQuery], ...] = (WSAQuery,),
    ) -> None:
        self.name = name
        self.equation = equation
        self._matcher = matcher
        self.roots = roots

    def apply(self, query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
        """The rewritten query if the rule matches at the root, else None."""
        return self._matcher(query, env)

    def __repr__(self) -> str:
        return f"RewriteRule({self.equation}: {self.name})"


def _attrs(query: WSAQuery, env: SchemaEnv) -> frozenset[str]:
    return frozenset(query.attributes(env))


# -- Commute rules (Eq. 1–10) ----------------------------------------------------


def _push_closing_through_unary(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (1)/(2)/(4): poss/cert move below selections and projections."""
    if not isinstance(query, (Poss, Cert)):
        return None
    inner = query.child
    closing = type(query)
    if isinstance(inner, Select):
        if isinstance(query, Cert) or isinstance(query, Poss):
            return Select(inner.predicate, closing(inner.child))
    if isinstance(inner, Project) and isinstance(query, Poss):
        return Project(inner.attrs, closing(inner.child))
    return None


RULE_1_2_4 = RewriteRule(
    "push poss/cert below σ, poss below π",
    "Eq. (1)(2)(4)",
    _push_closing_through_unary,
    roots=(Poss, Cert),
)


def _poss_over_union(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (3): poss(q₁ ∪ q₂) → poss(q₁) ∪ poss(q₂)."""
    if isinstance(query, Poss) and isinstance(query.child, Union):
        return Union(Poss(query.child.left), Poss(query.child.right))
    return None


RULE_3 = RewriteRule(
    "poss distributes over ∪", "Eq. (3)", _poss_over_union, roots=(Poss,)
)


def _cert_over_intersection(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (5): cert(q₁ ∩ q₂) → cert(q₁) ∩ cert(q₂)."""
    if isinstance(query, Cert) and isinstance(query.child, Intersect):
        return Intersect(Cert(query.child.left), Cert(query.child.right))
    return None


RULE_5 = RewriteRule(
    "cert distributes over ∩", "Eq. (5)", _cert_over_intersection, roots=(Cert,)
)


def _cert_over_product(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (6): cert(q₁ × q₂) → cert(q₁) × cert(q₂)."""
    if isinstance(query, Cert) and isinstance(query.child, Product):
        return Product(Cert(query.child.left), Cert(query.child.right))
    return None


RULE_6 = RewriteRule(
    "cert distributes over ×", "Eq. (6)", _cert_over_product, roots=(Cert,)
)


def _project_below_choice(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (7): π_{X∪Y}(χ_X(q)) → χ_X(π_{X∪Y}(q))."""
    if isinstance(query, Project) and isinstance(query.child, ChoiceOf):
        choice = query.child
        if set(choice.attrs) <= set(query.attrs):
            return ChoiceOf(choice.attrs, Project(query.attrs, choice.child))
    return None


RULE_7 = RewriteRule(
    "π moves below χ", "Eq. (7)", _project_below_choice, roots=(Project,)
)


def _choice_below_product(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (8) right-to-left: χ_X(q₁ × q₂) → χ_X(q₁) × q₂ if X ⊆ Attrs(q₁)."""
    if isinstance(query, ChoiceOf) and isinstance(query.child, Product):
        left, right = query.child.left, query.child.right
        attrs = set(query.attrs)
        if attrs <= _attrs(left, env):
            return Product(ChoiceOf(query.attrs, left), right)
        if attrs <= _attrs(right, env):
            return Product(left, ChoiceOf(query.attrs, right))
    return None


RULE_8 = RewriteRule(
    "χ moves below ×", "Eq. (8)", _choice_below_product, roots=(ChoiceOf,)
)


def _make_rule_9_10(input_kind: str) -> RewriteRule:
    def matcher(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
        """Eq. (9)/(10): σ_φ(γ^Y_X(q)) → γ^Y_X(σ_φ(q)) if Attrs(φ) ⊆ X ∩ Y.

        Guarded like Eq. (20)/(21): the push is only sound when the
        grouped subquery is world-uniform (kind 1), i.e. grouping is
        degenerate — one fingerprint, one group. When answers vary
        across worlds, filtering *before* grouping can merge worlds
        whose unfiltered fingerprints differed (σ_{B≠3} collapses
        {0,3} and {0} to the same π_B fingerprint), and the per-group
        union/intersection then ranges over different worlds than on
        the left-hand side.
        """
        if isinstance(query, Select) and isinstance(query.child, (PossGroup, CertGroup)):
            from repro.core.typing import ONE, kind_after

            group = query.child
            allowed = set(group.group_attrs) & set(group.proj_attrs)
            if (
                query.predicate.attributes() <= allowed
                and kind_after(group.child, input_kind) == ONE
            ):
                return type(group)(
                    group.group_attrs,
                    group.proj_attrs,
                    Select(query.predicate, group.child),
                )
        return None

    return RewriteRule("σ moves below pγ/cγ", "Eq. (9)(10)", matcher, roots=(Select,))


RULE_9_10 = _make_rule_9_10("1")


# -- Reduce rules (Eq. 11–23) --------------------------------------------------------


def _poss_absorbs_choice(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (11): poss(χ_X(q)) → poss(q)."""
    if isinstance(query, Poss) and isinstance(query.child, ChoiceOf):
        return Poss(query.child.child)
    return None


RULE_11 = RewriteRule("poss absorbs χ", "Eq. (11)", _poss_absorbs_choice, roots=(Poss,))


def _group_to_projection(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (12): γ^X_{X∪Y}(q) → π_X(q) when proj attrs ⊆ group attrs."""
    if isinstance(query, (PossGroup, CertGroup)):
        if set(query.proj_attrs) <= set(query.group_attrs):
            return Project(query.proj_attrs, query.child)
    return None


RULE_12 = RewriteRule(
    "grouped-by projection is π", "Eq. (12)", _group_to_projection,
    roots=(PossGroup, CertGroup),
)


def _project_group_to_project(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (13): π_Z(pγ^{Y∪Z}_{X∪Z}(q)) → π_Z(q) when Z ⊆ group ∩ proj attrs.

    Stated for pγ only: π distributes over the per-group unions, but not
    over cγ's intersections (π_Z(∩ …) can be strictly smaller than the
    common π_Z).
    """
    if isinstance(query, Project) and isinstance(query.child, PossGroup):
        group = query.child
        z = set(query.attrs)
        if z <= set(group.group_attrs) and z <= set(group.proj_attrs):
            return Project(query.attrs, group.child)
    return None


RULE_13 = RewriteRule(
    "π over pγ cancels grouping", "Eq. (13)", _project_group_to_project,
    roots=(Project,),
)


def _project_into_poss_group(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (14): π_Z(pγ^{Y∪Z}_X(q)) → pγ^Z_X(q) when Z ⊈ X.

    (For Z ⊆ X ∩ proj attrs, Eq. (13) applies instead and removes the
    grouping altogether; π distributes over the per-group unions, so the
    rewrite is sound whenever Z ⊆ proj attrs.)
    """
    if isinstance(query, Project) and isinstance(query.child, PossGroup):
        group = query.child
        z = set(query.attrs)
        if z <= set(group.proj_attrs) and not z <= set(group.group_attrs):
            return PossGroup(group.group_attrs, query.attrs, group.child)
    return None


RULE_14 = RewriteRule(
    "π merges into pγ", "Eq. (14)", _project_into_poss_group, roots=(Project,)
)


def _poss_absorbs_poss_group(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (15): poss(pγ^Y_X(q)) → poss(π_Y(q))."""
    if isinstance(query, Poss) and isinstance(query.child, PossGroup):
        group = query.child
        return Poss(Project(group.proj_attrs, group.child))
    return None


RULE_15 = RewriteRule(
    "poss absorbs pγ", "Eq. (15)", _poss_absorbs_poss_group, roots=(Poss,)
)


def _cert_absorbs_cert_group(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (16): cert(cγ^Y_X(q)) → cert(π_Y(q))."""
    if isinstance(query, Cert) and isinstance(query.child, CertGroup):
        group = query.child
        return Cert(Project(group.proj_attrs, group.child))
    return None


RULE_16 = RewriteRule(
    "cert absorbs cγ", "Eq. (16)", _cert_absorbs_cert_group, roots=(Cert,)
)


def _merge_choices(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (17): χ_X(χ_Y(q)) → χ_{X∪Y}(q)."""
    if isinstance(query, ChoiceOf) and isinstance(query.child, ChoiceOf):
        inner = query.child
        merged = query.attrs + tuple(a for a in inner.attrs if a not in set(query.attrs))
        return ChoiceOf(merged, inner.child)
    return None


RULE_17 = RewriteRule("nested χ merge", "Eq. (17)", _merge_choices, roots=(ChoiceOf,))


def _merge_groups(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (18), sound instance: nested group-worlds-by over pγ collapse.

    γ^Y_X(pγ^{X∪Z}_X(q)) → pγ^Y_X(q) when the outer and inner grouping
    attributes coincide and the outer attributes all occur among the
    inner projection attributes. Within one inner group every world has
    the identical (union) answer, so any outer regrouping is a no-op and
    both outer kinds agree.

    The paper's general forms — Eq. (18) with extra inner grouping
    attributes V, and Eq. (19) over an inner cγ — admit counterexamples
    (see DESIGN.md and the regression tests): coarsening the grouping
    merges groups whose answers differ, and π_Y does not distribute over
    cγ's intersections.
    """
    if isinstance(query, (PossGroup, CertGroup)) and isinstance(
        query.child, PossGroup
    ):
        inner = query.child
        x = set(query.group_attrs)
        if (
            x == set(inner.group_attrs)
            and x <= set(inner.proj_attrs)
            and set(query.proj_attrs) <= set(inner.proj_attrs)
        ):
            return PossGroup(inner.group_attrs, query.proj_attrs, inner.child)
    return None


RULE_18_19 = RewriteRule(
    "nested γ merge", "Eq. (18)(19)", _merge_groups, roots=(PossGroup, CertGroup)
)


def _uniform_choice_child(choice: ChoiceOf, input_kind: str) -> bool:
    """Soundness guard for Eq. (20)/(21), see the faithfulness notes.

    The Figure 7 equations assume the paper's setting of queries
    evaluated from a complete database. If the subquery under χ itself
    varies across worlds (e.g. contains another χ), the group-worlds-by
    on the left-hand side can mix worlds descending from *different*
    parent worlds, and the equations fail. We therefore require the χ
    operand's answer to be uniform across worlds: of kind 1 given the
    declared *input_kind* of the whole evaluation ("1" = queries on a
    complete database, the paper's example setting; "m" = arbitrary
    world-set inputs, where the operand must close the worlds itself).
    """
    from repro.core.typing import ONE, kind_after

    return kind_after(choice.child, input_kind) == ONE


def _make_rule_20(input_kind: str) -> RewriteRule:
    def matcher(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
        """Eq. (20): pγ^Y_X(χ_{X∪Z}(q)) → π_Y(χ_X(q))."""
        if isinstance(query, PossGroup) and isinstance(query.child, ChoiceOf):
            choice = query.child
            if set(query.group_attrs) <= set(
                choice.attrs
            ) and _uniform_choice_child(choice, input_kind):
                return Project(
                    query.proj_attrs, ChoiceOf(query.group_attrs, choice.child)
                )
        return None

    return RewriteRule("pγ over χ", "Eq. (20)", matcher, roots=(PossGroup,))


def _make_rule_21(input_kind: str) -> RewriteRule:
    def matcher(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
        """Eq. (21): cγ^Y_X(χ_{X∪Y∪Z}(q)) → π_Y(χ_{X∪Y∪Z}(q)), for Y ⊆ X.

        As printed the equation fails whenever Y ⊈ X: two χ-worlds with
        the same X-choice but different Y-choices share a group, and the
        per-group intersection of π_Y is empty while the projection is
        not (see the regression test and DESIGN.md). Restricted to
        projection attributes among the grouping attributes — plus the
        same uniformity guard as Eq. (20) — the equation is sound.
        """
        if isinstance(query, CertGroup) and isinstance(query.child, ChoiceOf):
            choice = query.child
            needed = set(query.group_attrs) | set(query.proj_attrs)
            if (
                needed <= set(choice.attrs)
                and set(query.proj_attrs) <= set(query.group_attrs)
                and _uniform_choice_child(choice, input_kind)
            ):
                return Project(query.proj_attrs, choice)
        return None

    return RewriteRule("cγ over χ", "Eq. (21)", matcher, roots=(CertGroup,))


RULE_20 = _make_rule_20("1")
RULE_21 = _make_rule_21("1")


def _select_below_aggregate(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """σ_φ(γ^{aggs}_U(q)) → γ^{aggs}_U(σ_φ(q)) when Attrs(φ) ⊆ U.

    The per-world pushdown of a filter on grouped columns below the
    aggregation — sound in every world separately (a group survives the
    left-hand filter iff its key does), so no world-uniformity guard is
    needed. Filters on aggregate *outputs* (HAVING shapes) never match.
    """
    if isinstance(query, Select) and isinstance(query.child, Aggregate):
        group = query.child
        if query.predicate.attributes() <= set(group.group_attrs):
            return Aggregate(
                group.group_attrs,
                group.specs,
                Select(query.predicate, group.child),
            )
    return None


RULE_AGG_SELECT = RewriteRule(
    "σ moves below γ-aggregate", "aggregation", _select_below_aggregate, roots=(Select,)
)


def _make_rule_agg_closing(input_kind: str) -> RewriteRule:
    def matcher(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
        """poss/cert(γ^{aggs}_U(q)) → γ^{aggs}_U(q) for world-uniform q.

        Guarded like Eq. (20)/(21): when the aggregated subquery is of
        kind 1 under the declared *input_kind*, every world carries the
        identical aggregate answer, so both closings are the identity.
        With world-varying answers the closing genuinely folds across
        worlds and must stay.
        """
        if isinstance(query, (Poss, Cert)) and isinstance(query.child, Aggregate):
            from repro.core.typing import ONE, kind_after

            if kind_after(query.child.child, input_kind) == ONE:
                return query.child
        return None

    return RewriteRule(
        "poss/cert absorb uniform γ-aggregate", "aggregation", matcher,
        roots=(Poss, Cert),
    )


RULE_AGG_CLOSING = _make_rule_agg_closing("1")


def _idempotent_closings(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (22)/(23): compositions of poss/cert collapse to the inner one."""
    if isinstance(query, (Poss, Cert)) and isinstance(query.child, (Poss, Cert)):
        return query.child
    return None


RULE_22_23 = RewriteRule(
    "poss/cert composition", "Eq. (22)(23)", _idempotent_closings, roots=(Poss, Cert)
)


def _cert_difference(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (24) right-to-left: cert(cert(R) − S) → cert(R − S)."""
    if isinstance(query, Cert) and isinstance(query.child, Difference):
        diff = query.child
        if isinstance(diff.left, Cert):
            return Cert(Difference(diff.left.child, diff.right))
    return None


RULE_24 = RewriteRule(
    "cert over difference", "Eq. (24)", _cert_difference, roots=(Cert,)
)


# -- Union reductions (the compiler's union-of-semijoins form of OR) ---------------------


def _split_free(query: WSAQuery) -> bool:
    """No choice-of / repair-by-key below: safe to merge duplicate
    references — per world the subtree is deterministic, so two
    occurrences denote the same answer. A splitting subtree mints fresh
    world ids per occurrence (independent choices), and merging would
    collapse the off-diagonal worlds the reference semantics produces.
    """
    from repro.core.ast import contains_world_splitter

    return not contains_world_splitter(query)


def _union_select_merge(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """σ_φ(q) ∪ σ_ψ(q) → σ_{φ∨ψ}(q), for split-free q.

    Un-does the compiler's union-of-chains when a disjunct turned out to
    be plain after all (e.g. its subquery atom rewrote away): one σ pass
    instead of two child evaluations plus a union.
    """
    if not isinstance(query, Union):
        return None
    left, right = query.left, query.right
    if (
        isinstance(left, Select)
        and isinstance(right, Select)
        and left.child == right.child
        and _split_free(left.child)
    ):
        return Select(left.predicate | right.predicate, left.child)
    return None


RULE_UNION_SELECT = RewriteRule(
    "σ∪σ over one child merges", "union reduce", _union_select_merge, roots=(Union,)
)


def _union_idempotent(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """q ∪ q → q, for split-free q (e.g. duplicate OR disjuncts)."""
    if (
        isinstance(query, Union)
        and query.left == query.right
        and _split_free(query.left)
    ):
        return query.left
    return None


RULE_UNION_IDEMPOTENT = RewriteRule(
    "idempotent union", "union reduce", _union_idempotent, roots=(Union,)
)


# -- Cosmetic rules (used by the paper's example derivations) ----------------------------


def _identity_projection(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """π_*(q) → q: remove projections onto the full attribute list."""
    if isinstance(query, Project):
        if set(query.attrs) == _attrs(query.child, env):
            return query.child
    return None


RULE_IDENTITY_PI = RewriteRule(
    "identity projection", "cosmetic", _identity_projection, roots=(Project,)
)


def _select_product_to_join(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """σ_φ(q₁ × q₂) → q₁ ⋈_φ q₂ ("transformed the product in a join")."""
    if isinstance(query, Select) and isinstance(query.child, Product):
        return ThetaJoin(query.predicate, query.child.left, query.child.right)
    return None


RULE_JOIN = RewriteRule(
    "σ over × is a join", "cosmetic", _select_product_to_join, roots=(Select,)
)


def _projection_cascade(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """π_A(π_B(q)) → π_A(q)."""
    if isinstance(query, Project) and isinstance(query.child, Project):
        return Project(query.attrs, query.child.child)
    return None


RULE_PI_CASCADE = RewriteRule(
    "projection cascade", "cosmetic", _projection_cascade, roots=(Project,)
)


def _select_into_closing(query: WSAQuery, env: SchemaEnv) -> WSAQuery | None:
    """Eq. (1)/(4) left-to-right: σ_φ(poss/cert(q)) → poss/cert(σ_φ(q)).

    The finalize phase uses the commute rules in this direction (as the
    paper's Example 6.2 derivation does) so selections can fuse with the
    products underneath into joins.
    """
    if isinstance(query, Select) and isinstance(query.child, (Poss, Cert)):
        closing = query.child
        return type(closing)(Select(query.predicate, closing.child))
    return None


RULE_1_4_REVERSE = RewriteRule(
    "σ moves inside poss/cert", "Eq. (1)(4)", _select_into_closing, roots=(Select,)
)


#: All Figure 7 rules in the application priority the rewriter uses:
#: reductions first, then commutes, then cosmetics.
DEFAULT_RULES: tuple[RewriteRule, ...] = (
    RULE_22_23,
    RULE_11,
    RULE_15,
    RULE_16,
    RULE_24,
    RULE_UNION_IDEMPOTENT,
    RULE_UNION_SELECT,
    RULE_AGG_CLOSING,
    RULE_AGG_SELECT,
    RULE_12,
    RULE_13,
    RULE_14,
    RULE_17,
    RULE_18_19,
    RULE_20,
    RULE_21,
    RULE_1_2_4,
    RULE_3,
    RULE_5,
    RULE_6,
    RULE_7,
    RULE_8,
    RULE_9_10,
    RULE_PI_CASCADE,
    RULE_IDENTITY_PI,
    RULE_JOIN,
)

#: Rules for the finalize phase: fold selections back into the closing
#: operators and form joins, as the tail of the Example 6.2 derivation.
FINALIZE_RULES: tuple[RewriteRule, ...] = (
    RULE_1_4_REVERSE,
    RULE_PI_CASCADE,
    RULE_IDENTITY_PI,
    RULE_JOIN,
)


def default_rules(input_kind: str = "1") -> tuple[RewriteRule, ...]:
    """The Figure 7 rule set with Eq. (20)/(21) guarded for *input_kind*.

    ``"1"`` (the default) matches the paper's setting — queries
    evaluated from a complete database; ``"m"`` makes the guards strict
    enough for arbitrary world-set inputs. Built once per kind: every
    call with the same kind returns the same tuple.
    """
    return _default_rules(input_kind)


@functools.lru_cache(maxsize=8)
def _default_rules(input_kind: str) -> tuple[RewriteRule, ...]:
    replacements = {
        id(RULE_20): _make_rule_20(input_kind),
        id(RULE_21): _make_rule_21(input_kind),
        id(RULE_9_10): _make_rule_9_10(input_kind),
        id(RULE_AGG_CLOSING): _make_rule_agg_closing(input_kind),
    }
    return tuple(replacements.get(id(rule), rule) for rule in DEFAULT_RULES)


# -- Proposition 6.3 -----------------------------------------------------------------------


def cert_via_poss(query: WSAQuery, env: SchemaEnv) -> WSAQuery:
    """Eq. (25): cert(Q) = Q − poss(poss(Q) − Q)."""
    return difference(query, poss(difference(poss(query), query)))


def cert_via_domain(query: WSAQuery, env: SchemaEnv) -> WSAQuery:
    """Eq. (25) first form: cert(Q) = Q − poss(D^arity(Q) − Q)."""
    domain = active_domain(query.attributes(env))
    return difference(query, poss(difference(domain, query)))


def poss_via_cert(query: WSAQuery, env: SchemaEnv) -> WSAQuery:
    """Eq. (26): poss(Q) = D^arity(Q) − cert(D^arity(Q) − Q)."""
    domain = active_domain(query.attributes(env))
    return difference(domain, Cert(difference(domain, query)))
