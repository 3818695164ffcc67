"""Support-set chains and sparse block structure for the invariant-set relaxation.

The hierarchy is indexed by a half-degree d and two sparse orders: ``s`` drives
the chain of support sets used by the auxiliary polynomial v, ``l`` drives the
chain used by the outer-approximation polynomial w.  Each chain alternates
between building monomial interaction graphs, extending them to chordal graphs,
and reading the next support set off the extension.  Chains are weakly
ascending and stabilize after finitely many steps; a stabilized chain repeats
its last entry so that any sparse order past the fixed point stays valid.

``build_chain`` runs both chains, each through ``_iterate``, which returns
one ``Chain``: the supports, each step's multiplier graphs and their chordal
extensions, read at a sparse order through ``support_at``, ``graphs_at``
and ``extended_at``.  A ``SupportChain`` holds the two as ``v`` and ``w``,
and applies the v degree cap in ``v_polynomial_support``.  A step works
on radix keys (``GrlexRadix``), in one radix that covers every product of
the step (``_step_radix``).  ``_iterate`` keys the hit set once per step:
the current support plus, for the v-chain, its Lie terms, summed as keys
(``_v_hit_keys``).  Every multiplier's graph rule looks its products up in
that one sorted table.  The Gram support of each extension, and for
the w-chain its Minkowski sum with the multiplier's terms, are key sums too.
The next support leaves the step through one ``np.unique`` and one decode to
exponent tuples, as a ``SupportSet``; the graphs' nodes are the Gram bases,
built once per degree.

Every graph of a chain holds its edges in the one format of ``graphs``: a
sorted, read-only (E, 2) int64 array of index pairs (i, j), i < j.  The
graph rule and both extensions build that array directly, and the Gram
supports and cliques read it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import ceil, inf

import numpy as np

from .graphs import (
    ChordalGraph,
    MonomialGraph,
    approx_smallest_chordal_extension,
    gram_keys,
    maximal_chordal_extension,
    maximal_cliques,
)
from .poly import (
    DynamicalSystem,
    Exponent,
    GrlexRadix,
    SupportSet,
    generic_lie_support,
    lie_support_keys,
    monomial_basis,
    monomial_str,
    support,
    total_degree,
)

EXTENSIONS = ("maximal", "min-degree")
MODES = ("ts", "ss", "fd")
# stabilized_chain's bound on the steps of each chain
_STABILIZE_STEPS = 64


@dataclass(frozen=True)
class RelaxationConfig:
    """Parameters selecting one member of the relaxation family.

    d is the half-degree of the moment relaxation, s and l the sparse orders
    of the v- and w-chains, beta the discount rate in the Lie inequality,
    extension the chordal completion strategy, and mode one of:

    * ``ts``   term-sparse blocks from the support chains,
    * ``ss``   blocks from sign-symmetry classes only,
    * ``fd``   the dense relaxation (single full block per multiplier).
    """

    d: int
    s: int = 1
    l: int = 1
    beta: float = 1.0
    extension: str = "maximal"
    mode: str = "ts"

    def __post_init__(self) -> None:
        for name in ("d", "s", "l"):
            value = getattr(self, name)
            # a bool is an Integral too, and no order
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        beta = self.beta
        if isinstance(beta, bool) or not isinstance(beta, numbers.Real) or not (0 < beta < inf):
            raise ValueError(f"beta must be positive and finite, got {beta!r}")
        if self.extension not in EXTENSIONS:
            raise ValueError(
                f"extension must be one of {EXTENSIONS}, got {self.extension!r}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def validate_for(self, system: DynamicalSystem) -> None:
        """Check that d is large enough for every polynomial in the problem."""
        need = max(
            ceil(system.field_degree / 2),
            max((ceil(dj / 2) for dj in system.constraint_degrees), default=0),
        )
        if self.d < need:
            raise ValueError(
                f"d={self.d} is too small for this system; need d >= {need}"
            )

    @property
    def relaxation_degree(self) -> int:
        return 2 * self.d


def v_degree_cap(system: DynamicalSystem, d: int) -> int:
    """Maximum total degree of the auxiliary polynomial v."""
    return 2 * d + 1 - system.field_degree


def multiplier_basis_degree(d: int, constraint_degree: int) -> int:
    """Half-degree of the Gram basis attached to a multiplier of given degree."""
    return d - ceil(constraint_degree / 2)


def initial_support(system: DynamicalSystem, d: int) -> SupportSet:
    """Union of constraint supports, generic Lie derivative terms on that
    union, and all even exponents up to degree 2d."""
    n = system.dim
    base = SupportSet.of(n, ())
    for p in system.constraints:
        base = base.union(support(p))
    lie = generic_lie_support(base, system)
    even = SupportSet._valid(n, frozenset(tuple(2 * a for a in alpha) for alpha in monomial_basis(n, d)))
    return base.union(lie, even)


def _step_radix(system: DynamicalSystem, d: int) -> GrlexRadix:
    """The radix of a chain step: it covers every product of a Gram basis
    against its multiplier and every Lie term (degree 2d), the v support
    within the cap, and the field's terms."""
    return GrlexRadix(system.dim, max(2 * d, v_degree_cap(system, d), system.field_degree))


def _multipliers(
    system: DynamicalSystem, d: int, radix: GrlexRadix
) -> list[tuple[tuple[Exponent, ...], np.ndarray, np.ndarray]]:
    """Per multiplier (index 0 is the constant 1): its Gram basis, the keys
    of the basis, built once per degree, and the keys of its terms."""
    bases: dict[int, tuple[tuple[Exponent, ...], np.ndarray]] = {}
    out = []
    for j, p in enumerate(system.multipliers()):
        deg = multiplier_basis_degree(d, int(p.degree))
        if deg < 0:
            raise ValueError(
                f"multiplier {j} has degree larger than 2d; increase d"
            )
        if deg not in bases:
            nodes = monomial_basis(system.dim, deg)
            bases[deg] = (nodes, radix.keys(nodes))
        out.append((*bases[deg], radix.keys(list(p.terms))))
    return out


def _graph_from_rule(
    nodes: tuple[Exponent, ...], keys: np.ndarray, terms: np.ndarray, table: np.ndarray
) -> MonomialGraph:
    """Connect basis exponents whose pairwise products against a multiplier
    touch the hit set.  ``keys`` are the radix keys of ``nodes``, ``terms``
    those of the multiplier's terms and ``table`` the sorted keys of the hit
    set, all in a radix that covers every product.  All pairs go at once:
    keys add like exponents, so each product is a sum of keys, looked up in
    the table."""
    if not len(table):
        return MonomialGraph._valid(nodes, np.empty((0, 2), dtype=np.int64))
    a, b = np.triu_indices(len(nodes), 1)  # row-major, so the kept pairs stay sorted
    products = (keys[a] + keys[b])[:, None] + terms
    found = table[np.searchsorted(table, products).clip(max=len(table) - 1)] == products
    touch = found.any(axis=1)
    return MonomialGraph._valid(nodes, np.stack([a[touch], b[touch]], axis=1).astype(np.int64, copy=False))


def _v_hit_keys(system: DynamicalSystem, d: int, keys: np.ndarray, radix: GrlexRadix) -> np.ndarray:
    """Sorted keys of the current v support together with the Lie-derivative
    terms of its part within the degree cap; every multiplier's graph reads
    this set."""
    capped = keys[keys // radix.degree_unit <= v_degree_cap(system, d)]
    return np.unique(np.concatenate([keys, lie_support_keys(capped, system, radix)]))


def _w_next_keys(gram: list[np.ndarray], terms: list[np.ndarray]) -> np.ndarray:
    """Keys, repeats included, of the next w support: the Gram support keys
    of each multiplier's extended graph plus the keys of its terms."""
    return np.concatenate([(g[:, None] + t).ravel() for g, t in zip(gram, terms)])


def extend_graph(graph: MonomialGraph, extension: str) -> ChordalGraph:
    if extension == "maximal":
        return maximal_chordal_extension(graph)
    if extension == "min-degree":
        return approx_smallest_chordal_extension(graph)
    raise ValueError(f"extension must be one of {EXTENSIONS}, got {extension!r}")


@dataclass(frozen=True)
class Chain:
    """The iterates of one chain, ``label`` "v" or "w": ``graphs[k]`` holds
    each multiplier's graph on ``supports[k]`` and ``extended[k]`` their
    chordal extensions, read at sparse order k + 1.  ``supports`` has one
    more entry than the graphs: the last is the support the last step made,
    entered twice once the chain stabilizes."""

    label: str
    supports: tuple[SupportSet, ...]
    graphs: tuple[tuple[MonomialGraph, ...], ...]
    extended: tuple[tuple[ChordalGraph, ...], ...]

    @property
    def stabilized(self) -> bool:
        return len(self.supports) >= 2 and self.supports[-1] == self.supports[-2]

    def support_at(self, order: int) -> SupportSet:
        return self._at(order, self.supports)

    def graphs_at(self, order: int) -> tuple[MonomialGraph, ...]:
        return self._at(order, self.graphs)

    def extended_at(self, order: int) -> tuple[ChordalGraph, ...]:
        return self._at(order, self.extended)

    def _at(self, order: int, entries: tuple):
        """Entry for sparse ``order``; past the end only a stabilized chain
        answers, with its last entry."""
        if order < 1:
            raise ValueError(f"{self.label} order must be >= 1, got {order}")
        if order <= len(entries):
            return entries[order - 1]
        if self.stabilized:
            return entries[-1]
        raise ValueError(
            f"{self.label} chain was run for {len(self.graphs)} step(s) without stabilizing; "
            f"order {order} is not available"
        )


def _iterate(system, d, extension, label, current, steps, hit_of, next_of) -> Chain:
    """Build each multiplier's graph on ``hit_of(keys of current, radix)``,
    extend it, go on to ``next_of(Gram support keys of the extended graphs,
    keys of the multipliers' terms)``; at most ``steps`` times, up to a
    fixed point.

    One radix (``_step_radix``) covers every product, Gram support and Lie
    term of a step.  A step keys its hit set once, and the Gram bases once per
    degree; the next support stays in keys until one ``np.unique`` and one
    decode make it a ``SupportSet``."""
    radix = _step_radix(system, d)
    keys = radix.table(current)
    multipliers = _multipliers(system, d, radix)
    terms = [t for _, _, t in multipliers]
    supports = [current]
    raw_steps: list[tuple[MonomialGraph, ...]] = []
    ext_steps: list[tuple[ChordalGraph, ...]] = []
    for _ in range(steps):
        table = hit_of(keys, radix)
        raw, ext, gram = [], [], []
        for nodes, node_keys, multiplier_terms in multipliers:
            raw.append(_graph_from_rule(nodes, node_keys, multiplier_terms, table))
            ext.append(extend_graph(raw[-1], extension))
            gram.append(gram_keys(ext[-1], node_keys))
        raw_steps.append(tuple(raw))
        ext_steps.append(tuple(ext))
        nxt = np.unique(next_of(gram, terms))
        supports.append(SupportSet._valid(system.dim, frozenset(radix.decode(nxt))))
        if len(current) == len(keys) and np.array_equal(nxt, keys):
            break
        current, keys = supports[-1], nxt
    return Chain(label, tuple(supports), tuple(raw_steps), tuple(ext_steps))


@dataclass(frozen=True)
class SupportChain:
    """The v- and w-chains for one (system, d) pair.

    The w-chain is seeded from the v support at the requested sparse order
    ``s_requested``; querying a v quantity at a different order is still
    valid as long as that order was executed or the chain stabilized.
    """

    system: DynamicalSystem
    d: int
    extension: str
    s_requested: int
    l_requested: int
    v: Chain
    w: Chain

    def v_polynomial_support(self, s: int) -> SupportSet:
        """Support on which v is modeled at sparse order s."""
        return self.v.support_at(s).restricted(v_degree_cap(self.system, self.d))


def build_chain(
    system: DynamicalSystem,
    d: int,
    s: int = 1,
    l: int = 1,
    extension: str = "maximal",
) -> SupportChain:
    """Run both chains far enough to serve sparse orders (s, l); an unknown
    ``extension`` fails in ``extend_graph``.

    The v-chain runs at most s steps from ``initial_support``.  Its hit set
    is the current support together with the Lie terms of its part within
    the degree cap (``_v_hit_keys``); its next support is the Gram support
    of the constant multiplier's graph.  The w-chain runs at most l steps
    from the v support at order s, restricted to degree 2d; every later
    iterate stays within that bound by construction.  Its hit set is the
    current support; its next support adds to the constant multiplier's
    Gram support the Minkowski sum of each constraint's terms and its
    graph's Gram support (``_w_next_keys``).
    """
    v = _iterate(
        system, d, extension, "v", initial_support(system, d), s,
        lambda keys, radix: _v_hit_keys(system, d, keys, radix), lambda gram, terms: gram[0],
    )
    w = _iterate(
        system, d, extension, "w", v.support_at(s).restricted(2 * d), l,
        lambda keys, radix: keys, _w_next_keys,
    )
    return SupportChain(system, d, extension, s, l, v, w)


def stabilized_chain(system: DynamicalSystem, d: int, extension: str = "maximal") -> SupportChain:
    """Run both chains to their fixed points, at most _STABILIZE_STEPS
    steps each."""
    chain = build_chain(system, d, s=_STABILIZE_STEPS, l=_STABILIZE_STEPS, extension=extension)
    if not (chain.v.stabilized and chain.w.stabilized):
        raise RuntimeError(f"support chains did not stabilize within {_STABILIZE_STEPS} steps")
    return chain


def chain_dump_text(chain: SupportChain, names: tuple[str, ...] | None = None) -> str:
    """Deterministic human-readable summary of both chains."""
    lines: list[str] = []
    lines.append(
        f"d={chain.d} extension={chain.extension} "
        f"s={chain.s_requested} l={chain.l_requested}"
    )
    for c in (chain.v, chain.w):
        for k, sup in enumerate(c.supports):
            degs = sorted({total_degree(a) for a in sup})
            lines.append(f"{c.label}[{k + 1}]: {len(sup)} exponents, degrees {degs}")
        for k, graphs in enumerate(c.extended):
            sizes = [tuple(map(len, maximal_cliques(g))) for g in graphs]
            lines.append(f"{c.label}-step {k + 1} clique sizes: {sizes}")
    lines += [f"{c.label} stabilized: {c.stabilized}" for c in (chain.v, chain.w)]
    lines.append("monomials in v[last]:")
    lines.extend("  " + monomial_str(a, names) for a in chain.v.supports[-1])
    return "\n".join(lines)
