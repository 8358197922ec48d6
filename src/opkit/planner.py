"""Set-system combinatorics on subsets of L = {0..l} and decomposition planning.

The planning pipeline: locate the inclusion-minimal index sets whose factor
ideal contains 1 (``beta_min``), read off them the coincidence graph of the
factor atoms (edge where the pair ideal does not contain 1), regroup atoms
by connected component, and derive from ``beta_min`` the largest antichain
of index sets usable on the other side of the duality.

One search finds ``beta_min``, by probes that answer yes or no
(``groebner.is_unit``).  It probes L and each co-atom L \\ {i} first, and
then walks by size only the sets that contain every i whose co-atom is not
a unit; every other answer follows from monotonicity.  That search is
``plan_decomposition``, the one entry: callers read ``beta_min`` and the
graph off its result.  A plan builds no Bezout certificate:
``certify.dual_certificate`` runs the tracked search
(``groebner.bezout_certificate``) once per member of ``beta_min``, for the
callers that print one.

Everything here enumerates subsets of L exactly; ground sets are capped at
desk scale (l <= 20 for power-set sweeps, l <= 12 for the membership search,
refused before the first probe).  All values are immutable and all
functions pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError, ResourceLimitError
from .groebner import is_unit
from .poly import DEFAULT_ORDER, MonomialOrder, Polynomial, product

IndexSet = frozenset[int]

GROUND_CAP = 20
MEMBERSHIP_GROUND_CAP = 12


@dataclass(frozen=True)
class SetSystem:
    """A duplicate-free family of subsets of L = {0..ground}."""

    ground: int
    sets: frozenset[IndexSet]

    def __post_init__(self):
        if self.ground < 0:
            raise InputError("ground must be >= 0")
        for s in self.sets:
            if not all(isinstance(i, int) and 0 <= i <= self.ground for i in s):
                raise InputError(
                    f"set {sorted(s)} is not a subset of L = {{0..{self.ground}}}")

    @classmethod
    def of(cls, ground: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        return cls(ground, frozenset(frozenset(s) for s in sets))

    def canonical(self) -> list[list[int]]:
        """Deterministic listing: members sorted, family sorted lexicographically."""
        return sorted([sorted(s) for s in self.sets])

    def __iter__(self):
        return iter(sorted(self.sets, key=lambda s: sorted(s)))

    def __len__(self):
        return len(self.sets)

    def __contains__(self, item) -> bool:
        return frozenset(item) in self.sets


def _check_ground(system: SetSystem) -> None:
    if system.ground > GROUND_CAP:
        raise ResourceLimitError(
            f"ground set too large for power-set enumeration "
            f"(l = {system.ground} > {GROUND_CAP})")


def _all_subsets(ground: int) -> Iterable[IndexSet]:
    universe = range(ground + 1)
    for size in range(ground + 2):
        for combo in combinations(universe, size):
            yield frozenset(combo)


def lower_set(system: SetSystem) -> SetSystem:
    """Closure under taking subsets."""
    _check_ground(system)
    out: set[IndexSet] = set()
    for member in system.sets:
        items = sorted(member)
        for size in range(len(items) + 1):
            out.update(frozenset(c) for c in combinations(items, size))
    return SetSystem(system.ground, frozenset(out))


def upper_set(system: SetSystem) -> SetSystem:
    """Closure under taking supersets within L."""
    _check_ground(system)
    universe = set(range(system.ground + 1))
    out: set[IndexSet] = set()
    for member in system.sets:
        rest = sorted(universe - member)
        for size in range(len(rest) + 1):
            for combo in combinations(rest, size):
                out.add(member | frozenset(combo))
    return SetSystem(system.ground, frozenset(out))


def min_elements(system: SetSystem) -> SetSystem:
    """Antichain of inclusion-minimal members."""
    kept = [s for s in system.sets
            if not any(o < s for o in system.sets)]
    return SetSystem(system.ground, frozenset(kept))


def max_elements(system: SetSystem) -> SetSystem:
    """Antichain of inclusion-maximal members."""
    kept = [s for s in system.sets
            if not any(o > s for o in system.sets)]
    return SetSystem(system.ground, frozenset(kept))


def alpha_u(system: SetSystem) -> SetSystem:
    """{J subset of L | for every I in the system, J \\ I is nonempty}."""
    _check_ground(system)
    out = [J for J in _all_subsets(system.ground)
           if all(J - I for I in system.sets)]
    return SetSystem(system.ground, frozenset(out))


def alpha_l(system: SetSystem) -> SetSystem:
    """{J subset of L | for every I in the system, I \\ J is nonempty}."""
    _check_ground(system)
    out = [J for J in _all_subsets(system.ground)
           if all(I - J for I in system.sets)]
    return SetSystem(system.ground, frozenset(out))


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices {0..vertex_count-1}."""

    vertex_count: int
    edges: frozenset[frozenset[int]]

    def canonical_edges(self) -> list[list[int]]:
        return sorted(sorted(e) for e in self.edges)

    def connected_components(self) -> list[tuple[int, ...]]:
        """Components as sorted vertex tuples, ordered by smallest vertex."""
        adjacency: dict[int, set[int]] = {v: set() for v in range(self.vertex_count)}
        for edge in self.edges:
            a, b = sorted(edge)
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen: set[int] = set()
        components: list[tuple[int, ...]] = []
        for v in range(self.vertex_count):
            if v in seen:
                continue
            stack = [v]
            comp = []
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                comp.append(u)
                stack.extend(adjacency[u] - seen)
            components.append(tuple(sorted(comp)))
        return components


def _check_atoms(atoms: Sequence[Polynomial]) -> int:
    if not atoms:
        raise InputError("need at least one factor")
    nvars = atoms[0].variable_count
    for i, a in enumerate(atoms):
        if a.is_zero():
            raise InputError(f"factor {i} is the zero polynomial")
        if a.variable_count != nvars:
            raise InputError("factors must share a variable count")
    return nvars


Probe = Callable[[tuple[int, ...]], bool]


def _probes(atoms: Sequence[Polynomial], order: MonomialOrder) -> Probe:
    """A unit probe on index tuples that runs each search only once.

    The answers live as long as the returned function, so one planning call
    never probes the same ideal twice and nothing outlives it.
    """
    known: dict[tuple[int, ...], bool] = {}

    def probe(combo: tuple[int, ...]) -> bool:
        if combo not in known:
            known[combo] = is_unit([atoms[i] for i in combo], order)
        return known[combo]

    return probe


def _unit_sets(count: int, probe: Probe) -> list[IndexSet]:
    """The inclusion-minimal unit index sets, in the order they are found.

    Unit membership is monotone under adding generators.  So the search
    probes L first: when L is not a unit, no subset is.  Then it probes
    each co-atom L \\ {i}: when that is not a unit, every unit set contains
    i.  The indices found so make up R, and the walk goes by size over the
    sets that contain R, skipping the supersets of a hit.  It makes at most
    l + 2 more probes than a walk over all subsets, and skips every set
    that misses part of R.  The ground cap is checked before the first
    probe.
    """
    ell = count - 1
    if ell > MEMBERSHIP_GROUND_CAP:
        raise ResourceLimitError(
            f"membership search capped at l <= {MEMBERSHIP_GROUND_CAP}, got {ell}")
    universe = tuple(range(count))
    if not probe(universe):
        return []
    required = tuple(i for i in universe
                     if count == 1 or not probe(universe[:i] + universe[i + 1:]))
    free = [i for i in universe if i not in required]
    hits: list[IndexSet] = []
    for size in range(max(len(required), 1), count + 1):
        for extra in combinations(free, size - len(required)):
            J = frozenset(required + extra)
            if not any(h <= J for h in hits) and probe(tuple(sorted(J))):
                hits.append(J)
    return hits


def optimal_alpha(beta: SetSystem) -> SetSystem:
    """Largest antichain alpha usable opposite the membership family beta.

    Computed as the maximal J with I \\ J nonempty for every I in beta.
    Quantifying over beta or over its upper closure gives the same family.
    """
    if not beta.sets:
        raise InputError("no membership hits: no decomposition is available")
    return max_elements(alpha_l(beta))


@dataclass(frozen=True)
class DecompositionPlan:
    """Full planning result for a list of factor atoms."""

    atoms: tuple[Polynomial, ...]
    graph: Graph
    components: tuple[tuple[int, ...], ...]
    grouped_factors: tuple[Polynomial, ...]
    beta_min: SetSystem
    alpha_opt: Optional[SetSystem]  # None when no membership hit exists


def plan_decomposition(atoms: Sequence[Polynomial],
                       order: MonomialOrder = DEFAULT_ORDER) -> DecompositionPlan:
    """Run the whole planning pipeline on the given atoms.

    This is the one membership search.  ``beta_min``, the inclusion-minimal
    nonempty J with 1 in <atoms[j] : j in J>, is found by probes alone (see
    :func:`_unit_sets`), each index set probed at most once; the full family
    of valid index sets is its upper closure.  The coincidence graph is read
    off it: an edge {p, q} exactly when no member lies inside {p, q}, that
    is when 1 is not in <atoms[p], atoms[q]>.  No tracked run is made here
    (see ``certify.dual_certificate``).
    """
    nvars = _check_atoms(atoms)
    count = len(atoms)
    hits = _unit_sets(count, _probes(atoms, order))
    pairs = map(frozenset, combinations(range(count), 2))
    graph = Graph(count, frozenset(pair for pair in pairs
                                   if not any(h <= pair for h in hits)))
    components = tuple(graph.connected_components())
    grouped = tuple(product([atoms[i] for i in comp], nvars) for comp in components)
    beta = SetSystem(count - 1, frozenset(hits))
    alpha = optimal_alpha(beta) if beta.sets else None
    return DecompositionPlan(tuple(atoms), graph, components, grouped, beta,
                             alpha)
