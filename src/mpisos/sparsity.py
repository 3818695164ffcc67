"""Support-set chains and sparse block structure for the invariant-set relaxation.

The hierarchy is indexed by a half-degree d and two sparse orders: ``s`` drives
the chain of support sets used by the auxiliary polynomial v, ``l`` drives the
chain used by the outer-approximation polynomial w.  Each chain alternates
between building monomial interaction graphs, extending them to chordal graphs,
and reading the next support set off the extension.  Chains are weakly
ascending and stabilize after finitely many steps; a stabilized chain repeats
its last entry so that any sparse order past the fixed point stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .graphs import (
    ChordalGraph,
    MonomialGraph,
    approx_smallest_chordal_extension,
    clique_set,
    maximal_chordal_extension,
    supp_of_graph,
)
from .poly import (
    DynamicalSystem,
    Exponent,
    SupportSet,
    exponent_keys,
    generic_lie_support,
    monomial_basis,
    monomial_str,
    radix_weights,
    support,
    total_degree,
)

EXTENSIONS = ("maximal", "min-degree")
MODES = ("ts", "ss", "fd")


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
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        if not isinstance(self.s, int) or self.s < 1:
            raise ValueError(f"s must be a positive integer, got {self.s!r}")
        if not isinstance(self.l, int) or self.l < 1:
            raise ValueError(f"l must be a positive integer, got {self.l!r}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta!r}")
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
    even = (tuple(2 * a for a in alpha) for alpha in monomial_basis(n, d))
    return base.union(lie, even)


def _graph_from_rule(
    system: DynamicalSystem,
    d: int,
    j: int,
    hit: SupportSet,
) -> MonomialGraph:
    """Connect basis exponents whose pairwise products against multiplier j
    touch the hit set.  All pairs go at once: radix keys (``radix_weights``)
    add like exponents, so each product is a sum of keys, looked up in the
    sorted keys of the hit exponents."""
    n = system.dim
    deg = multiplier_basis_degree(d, 0 if j == 0 else system.constraint_degrees[j - 1])
    if deg < 0:
        raise ValueError(
            f"multiplier {j} has degree larger than 2d; increase d"
        )
    nodes = monomial_basis(n, deg)
    if j == 0:
        deltas: tuple[Exponent, ...] = (tuple([0] * n),)
    else:
        deltas = tuple(support(system.constraints[j - 1]))
    top = 2 * deg + max(map(sum, deltas))
    weights = radix_weights(n, top)
    keys = exponent_keys(nodes, weights)
    a, b = np.triu_indices(len(nodes), 1)
    keys = (keys[a] + keys[b])[:, None] + exponent_keys(deltas, weights)
    # hit exponents above the top degree match no product; -1 is no key
    table = exponent_keys([alpha for alpha in hit.elements if sum(alpha) <= top], weights)
    table = np.unique(np.append(table, -1))
    found = table[np.searchsorted(table, keys).clip(max=len(table) - 1)] == keys
    touch = found.any(axis=1)
    return MonomialGraph(nodes, frozenset(zip(a[touch].tolist(), b[touch].tolist())))


def _v_hit_set(system: DynamicalSystem, d: int, a_set: SupportSet) -> SupportSet:
    """The current v support together with the Lie-derivative terms of its
    part within the degree cap; every multiplier's graph reads this set."""
    capped = a_set.restricted(v_degree_cap(system, d))
    return a_set.union(generic_lie_support(capped, system))


def build_v_step_graph(
    system: DynamicalSystem, d: int, a_set: SupportSet, j: int
) -> MonomialGraph:
    """Interaction graph for multiplier j in the Lie certificate, given the
    current v support set."""
    return _graph_from_rule(system, d, j, _v_hit_set(system, d, a_set))


def build_w_step_graph(
    system: DynamicalSystem, d: int, b_set: SupportSet, j: int
) -> MonomialGraph:
    """Interaction graph for multiplier j in the w certificates, given the
    current w support set."""
    return _graph_from_rule(system, d, j, b_set)


def extend_graph(graph: MonomialGraph, extension: str) -> ChordalGraph:
    if extension == "maximal":
        return maximal_chordal_extension(graph)
    if extension == "min-degree":
        return approx_smallest_chordal_extension(graph)
    raise ValueError(f"extension must be one of {EXTENSIONS}, got {extension!r}")


ChainSteps = tuple[
    tuple[SupportSet, ...],
    tuple[tuple[MonomialGraph, ...], ...],
    tuple[tuple[ChordalGraph, ...], ...],
]


def _iterate(system, d, extension, current, steps, hit_of, next_of) -> ChainSteps:
    """Build each multiplier's graph on ``hit_of(current)``, extend it, go on to
    ``next_of(extended graphs)``; at most ``steps`` times, up to a fixed point."""
    supports = [current]
    raw_steps: list[tuple[MonomialGraph, ...]] = []
    ext_steps: list[tuple[ChordalGraph, ...]] = []
    for _ in range(steps):
        hit = hit_of(current)
        raw = tuple(_graph_from_rule(system, d, j, hit) for j in range(len(system.constraints) + 1))
        ext = tuple(extend_graph(g, extension) for g in raw)
        raw_steps.append(raw)
        ext_steps.append(ext)
        nxt = next_of(ext)
        supports.append(nxt)
        if nxt == current:
            break
        current = nxt
    return tuple(supports), tuple(raw_steps), tuple(ext_steps)


def iterate_v_chain(
    system: DynamicalSystem, d: int, extension: str, s_max: int
) -> ChainSteps:
    """Run the v-chain for at most s_max steps, stopping at the fixed point.

    Returns the support iterates, the raw graphs of each executed step, and
    their chordal extensions.  On stabilization the final support is entered
    twice, so the support tuple always has one more entry than the graphs.
    """
    return _iterate(
        system, d, extension, initial_support(system, d), s_max,
        lambda a_set: _v_hit_set(system, d, a_set), lambda ext: supp_of_graph(ext[0]),
    )


def iterate_w_chain(
    system: DynamicalSystem, d: int, seed: SupportSet, extension: str, l_max: int
) -> ChainSteps:
    """Run the w-chain for at most l_max steps from the given seed support.

    The seed is restricted to degree 2d before the first step; every later
    iterate stays within that bound by construction.
    """

    def next_support(ext: tuple[ChordalGraph, ...]) -> SupportSet:
        pieces = [
            support(p).minkowski(supp_of_graph(g)) for p, g in zip(system.constraints, ext[1:])
        ]
        return supp_of_graph(ext[0]).union(*pieces)

    return _iterate(
        system, d, extension, seed.restricted(2 * d), l_max, lambda b_set: b_set, next_support
    )


def _at(
    label: str,
    order: int,
    entries: tuple,
    stabilized: bool,
    executed: int,
):
    if order < 1:
        raise ValueError(f"{label} order must be >= 1, got {order}")
    if order <= len(entries):
        return entries[order - 1]
    if stabilized:
        return entries[-1]
    raise ValueError(
        f"{label} chain was run for {executed} step(s) without stabilizing; "
        f"order {order} is not available"
    )


@dataclass(frozen=True)
class SupportChain:
    """All iterates of the v- and w-chains for one (system, d) pair.

    The w-chain is seeded from the v support at the requested sparse order
    ``s_requested``; querying a v quantity at a different order is still
    valid as long as that order was executed or the chain stabilized.
    """

    system: DynamicalSystem
    d: int
    extension: str
    s_requested: int
    l_requested: int
    v_supports: tuple[SupportSet, ...]
    v_graphs: tuple[tuple[MonomialGraph, ...], ...]
    v_extended: tuple[tuple[ChordalGraph, ...], ...]
    w_supports: tuple[SupportSet, ...]
    w_graphs: tuple[tuple[MonomialGraph, ...], ...]
    w_extended: tuple[tuple[ChordalGraph, ...], ...]

    @property
    def v_stabilized(self) -> bool:
        return len(self.v_supports) >= 2 and self.v_supports[-1] == self.v_supports[-2]

    @property
    def w_stabilized(self) -> bool:
        return len(self.w_supports) >= 2 and self.w_supports[-1] == self.w_supports[-2]

    def v_support_at(self, s: int) -> SupportSet:
        return _at("v", s, self.v_supports, self.v_stabilized, len(self.v_graphs))

    def w_support_at(self, l: int) -> SupportSet:
        return _at("w", l, self.w_supports, self.w_stabilized, len(self.w_graphs))

    def v_graphs_at(self, s: int) -> tuple[MonomialGraph, ...]:
        return _at("v", s, self.v_graphs, self.v_stabilized, len(self.v_graphs))

    def w_graphs_at(self, l: int) -> tuple[MonomialGraph, ...]:
        return _at("w", l, self.w_graphs, self.w_stabilized, len(self.w_graphs))

    def v_extended_at(self, s: int) -> tuple[ChordalGraph, ...]:
        return _at("v", s, self.v_extended, self.v_stabilized, len(self.v_graphs))

    def w_extended_at(self, l: int) -> tuple[ChordalGraph, ...]:
        return _at("w", l, self.w_extended, self.w_stabilized, len(self.w_graphs))

    def v_polynomial_support(self, s: int) -> SupportSet:
        """Support on which v is modeled at sparse order s."""
        return self.v_support_at(s).restricted(v_degree_cap(self.system, self.d))

    def w_polynomial_support(self, l: int) -> SupportSet:
        """Support on which w is modeled at sparse order l."""
        return self.w_support_at(l)


def build_chain(
    system: DynamicalSystem,
    d: int,
    s: int = 1,
    l: int = 1,
    extension: str = "maximal",
) -> SupportChain:
    """Run both chains far enough to serve sparse orders (s, l)."""
    if extension not in EXTENSIONS:
        raise ValueError(f"extension must be one of {EXTENSIONS}, got {extension!r}")
    v_supports, v_graphs, v_extended = iterate_v_chain(system, d, extension, s)
    v_stab = len(v_supports) >= 2 and v_supports[-1] == v_supports[-2]
    seed = _at("v", s, v_supports, v_stab, len(v_graphs))
    w_supports, w_graphs, w_extended = iterate_w_chain(system, d, seed, extension, l)
    return SupportChain(
        system=system,
        d=d,
        extension=extension,
        s_requested=s,
        l_requested=l,
        v_supports=v_supports,
        v_graphs=v_graphs,
        v_extended=v_extended,
        w_supports=w_supports,
        w_graphs=w_graphs,
        w_extended=w_extended,
    )


def stabilized_chain(
    system: DynamicalSystem,
    d: int,
    extension: str = "maximal",
    cap: int = 64,
) -> SupportChain:
    """Run both chains to their fixed points (bounded by a safety cap)."""
    chain = build_chain(system, d, s=cap, l=cap, extension=extension)
    if not (chain.v_stabilized and chain.w_stabilized):
        raise RuntimeError(
            f"support chains did not stabilize within {cap} steps"
        )
    return chain


def chain_dump_text(chain: SupportChain, names: tuple[str, ...] | None = None) -> str:
    """Deterministic human-readable summary of both chains."""
    lines: list[str] = []
    lines.append(
        f"d={chain.d} extension={chain.extension} "
        f"s={chain.s_requested} l={chain.l_requested}"
    )
    for k, sup in enumerate(chain.v_supports):
        degs = sorted({total_degree(a) for a in sup})
        lines.append(f"v[{k + 1}]: {len(sup)} exponents, degrees {degs}")
    for k, graphs in enumerate(chain.v_extended):
        sizes = [clique_set(g).sizes() for g in graphs]
        lines.append(f"v-step {k + 1} clique sizes: {sizes}")
    for k, sup in enumerate(chain.w_supports):
        degs = sorted({total_degree(a) for a in sup})
        lines.append(f"w[{k + 1}]: {len(sup)} exponents, degrees {degs}")
    for k, graphs in enumerate(chain.w_extended):
        sizes = [clique_set(g).sizes() for g in graphs]
        lines.append(f"w-step {k + 1} clique sizes: {sizes}")
    lines.append(f"v stabilized: {chain.v_stabilized}")
    lines.append(f"w stabilized: {chain.w_stabilized}")
    head = lines + ["monomials in v[last]:"]
    head.extend("  " + monomial_str(a, names) for a in chain.v_supports[-1])
    return "\n".join(head)
