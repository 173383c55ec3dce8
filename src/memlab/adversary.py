"""Adaptive adversary for pairwise-equality play over a bipartite consistency graph.

The graph starts complete between positions 1..n and n+1..2n.  Every query is
answered "No" unless the queried edge is forced, i.e. isolated; a "No" on a
present edge deletes it, after which every surviving edge that lies in no
perfect matching vanishes.

The filter follows the classic matching characterization (Regin, AAAI 1994):
fix one perfect matching, orient unmatched edges left->right and matched edges
right->left, and keep exactly the unmatched edges whose endpoints share a
strongly connected component.  Every right vertex r then has one out-edge, to
its mate, so the orientation contracts to the *left-vertex digraph* on 1..n:
l -> mate[r] for every r in adj[l], the matched edge being a self-loop.  An
unmatched edge (l, r) survives exactly when l and mate[r] share a component of
this digraph.  The filter, the reachability probe and the augmenting-path
search all walk this one digraph.

Each row adj[v] is one int bitmask: bit u is set iff the edge v-u is
present.  Neither search direction permutes bits.  Forward searches name each
left vertex by its mate, so the successors of x are exactly the row adj[x];
backward searches name left vertices as themselves, and the predecessors of x
are the row adj[mate[x]].  Each search step is one big-int AND, OR or XOR on
a row, and bits are taken lowest first.

The filter is decremental and keeps no state but the graph and its matching.
After a filter every surviving edge lies inside one component C, which no edge
leaves.  A deleted matched edge is first repaired by an augmenting path from l
to r; with the deleted edge it forms a directed cycle in the old orientation,
and reversing a cycle keeps every component, so the deletion becomes that of
the non-matching edge l -> mate[r].  An early-exit forward probe from l
settles most deletions: if l still reaches mate[r], nothing vanishes.  A failed
probe has reached a set F that is exactly l's component in C - e, and a sink:
nothing leaves F, and every x in F still reaches l, since a shortest path from
x to l never used the deleted edge, which leaves l.  So every edge from C - F
into F vanishes, and the other components are those of C - F, which is the
reach of mate[r] avoiding F.  Kosaraju's two searches rescan only that reach,
with F handed over as seen, and vanish each scanned row's edges into F.

Every deletion goes through one private core, `_delete`.  kg_answer checks
a single pair and wraps what `_delete` vanished in an AnswerEvents; the game
host answers a whole flip in one frame, reading absent edges and forced ones
off the rows and calling `_delete` only for a deleting "No", so it never
calls kg_answer (a tracer that wraps kg_answer sees only direct calls).

The graph holds only adjacency and the matching; the transcript holds the
declared values (the k-th declared pair has value k).  The AdversaryLog
keeps each removed edge's fate in two bit rows per left vertex, laid out as
the graph's: deleted[l] and gone[l] have bit r set iff the edge (l, r) was
deleted, or removed in any way.  The audit checks on them the counting
identities this discipline guarantees: deletions + vanishings == n(n-1) on a
finished run, and a pairing of the non-matching edges in which at least one
member of every pair was deleted rather than vanished, giving deletions >=
n(n-1)/2.  For any two pairs (li, ri) and (lj, rj) of the final matching,
the pair is their two cross edges (li, rj) and (lj, ri), so each test reads
bit rj of row li and bit ri of row lj.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .game_core import Deck, MatchTriple, Transcript, check_cells
from .strategies import GameHost


class InvariantViolation(RuntimeError):
    """The consistency graph lost its perfect matching (unreachable in legal play)."""


class StrategyRejected(RuntimeError):
    """A strategy declared a pair the adversary had not been forced to confirm."""

    def __init__(self, pair: tuple[int, int], counterexample: Deck):
        super().__init__(f"declared unforced pair {pair}")
        self.pair = pair
        self.counterexample = counterexample


def edge_key(n: int, i: int, j: int) -> tuple[int, int] | None:
    """Canonical (left, right) key for a cross pair, or None for a same-side pair."""
    if i > j:
        i, j = j, i
    if i <= n < j:
        return (i, j)
    return None


class AnswerEvents(NamedTuple):
    """Mutations caused by one query: at most one deletion plus its vanish set."""

    deleted: tuple[int, int] | None = None
    vanished: tuple[tuple[int, int], ...] = ()


_NO_EVENTS = AnswerEvents()


class KnowledgeGraph:
    """Bipartite consistency graph between positions 1..n and n+1..2n.

    adj[v] is an int with bit u set iff the edge v-u is present.  While
    driven through kg_answer or an AdversaryHost, every present edge lies
    in some perfect matching, the edge set only shrinks, and `mate` holds a
    perfect matching that each matched deletion repairs with one augmenting
    path (kg_from_edges builds it the same way, one path per left vertex).
    Nothing else is kept between queries: each deletion returns its vanish
    list, and only an AdversaryLog's bit rows record how each removed edge went.
    """

    __slots__ = ("n", "adj", "mate", "closure_hook")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.n = n
        self.adj: list[int] = [0] * (2 * n + 1)
        self.mate: list[int] = [0] * (2 * n + 1)
        self.closure_hook = None

    def isolated(self, l: int, r: int) -> bool:
        return self.adj[l] == 1 << r and self.adj[r] == 1 << l

    def edges(self) -> set[tuple[int, int]]:
        return {(l, r) for l in range(1, self.n + 1) for r in _bits(self.adj[l])}

    def copy(self) -> "KnowledgeGraph":
        g = KnowledgeGraph(self.n)
        g.adj = list(self.adj)
        g.mate = list(self.mate)
        return g


def kg_init(n: int) -> KnowledgeGraph:
    """Complete bipartite consistency graph with its diagonal matching, as the
    filter leaves it: one component and no vanished edge.  Refuses n^2 past
    MAX_CELLS."""
    check_cells(n * n, f"a complete graph on {n} pairs")
    g = KnowledgeGraph(n)
    lefts = (1 << (n + 1)) - 2
    g.adj = [0] + [lefts << n] * n + [lefts] * n
    g.mate = [0] + list(range(n + 1, 2 * n + 1)) + list(range(1, n + 1))
    return g


def kg_from_edges(n: int, edges) -> KnowledgeGraph:
    """Unfiltered graph over a cross edge set (vanish_closure filters it),
    matched by augmenting from every left vertex; raises InvariantViolation
    when the edges admit no perfect matching."""
    g = KnowledgeGraph(n)
    for i, j in edges:
        key = edge_key(n, i, j)
        if key is None or not (1 <= i <= 2 * n and 1 <= j <= 2 * n):
            raise ValueError(f"not a cross edge: {(i, j)}")
        l, r = key
        g.adj[l] |= 1 << r
        g.adj[r] |= 1 << l
    _match_free_lefts(g)
    return g


def kg_is_done(g: KnowledgeGraph) -> bool:
    """True iff the graph is a perfect matching (every vertex has degree 1)."""
    return all(a.bit_count() == 1 for a in g.adj[1:])


def kg_answer(g: KnowledgeGraph, i: int, j: int) -> tuple[bool, AnswerEvents]:
    """Answer "is x_i = x_j?" on a filtered graph (from kg_init or
    vanish_closure, changed since only by deletions), mutating it on a
    deletion.

    Yes exactly when {i,j} is a present isolated edge.  A present
    non-isolated edge (l, r) is deleted by `_delete`, which runs the vanish
    closure.  Same-side or already-removed pairs answer No without mutation.
    Nothing in the package calls it: it stays for tests and for the
    benchmark's tracer, which wraps it, until that wrapper is retired
    (ROADMAP items 6 and 10).
    """
    l, r = (i, j) if i < j else (j, i)
    n = g.n
    if not 1 <= l <= n < r <= 2 * n:
        if i == j:
            raise ValueError(f"queried a position against itself: {i}")
        if l < 1 or r > 2 * n:
            raise ValueError(f"positions out of range: {(i, j)}")
        return False, _NO_EVENTS
    adj = g.adj
    row = adj[l]
    bit = 1 << r
    if not row & bit:
        return False, _NO_EVENTS
    if row == bit and adj[r] == 1 << l:
        return True, _NO_EVENTS
    return False, AnswerEvents((l, r), tuple(_delete(g, l, r)))


def _delete(g: KnowledgeGraph, l: int, r: int) -> list[tuple[int, int]]:
    """Delete the present non-isolated edge (l, r), l <= n < r, from a
    filtered graph and run its vanish closure, all in this frame; returns the
    sorted vanish list, which it also hands to the graph's closure_hook.

    A matched edge is first replaced by an augmenting path, then a forward
    probe from l asks whether l still reaches mate[r].  The set F a failed
    probe reached is a sink, and it is exactly SCC(l): each x in F reaches l
    by a shortest path, which cannot use the deleted edge since that edge
    leaves l.  The probe hands F, named by mates, to the filter as its sink.
    The one deletion path: kg_answer, AdversaryHost._equal_members and
    AdversaryHost._counterexample call it.
    """
    adj = g.adj
    bit = 1 << r
    adj[l] ^= bit
    adj[r] ^= 1 << l
    mate = g.mate
    if mate[l] == r:  # the augmenting path from l can only end at r
        mate[r] = 0
        if not _augment(g, l):
            raise InvariantViolation(f"deleting {(l, r)} destroyed the last perfect matching")
    n = g.n
    rights = ((1 << n) - 1) << (n + 1)
    todo = adj[l]
    unseen = rights ^ todo
    while todo:  # named by mates, so mate[r] is bit r
        low = todo & -todo
        new = adj[mate[low.bit_length() - 1]] & unseen
        if new & bit:
            vanished = []
            break
        unseen ^= new
        todo ^= low | new
    else:
        vanished = _run_filter(g, (mate[r],), rights ^ unseen)
    if g.closure_hook is not None:
        g.closure_hook(g, vanished)
    return vanished


def vanish_closure(g: KnowledgeGraph) -> list[tuple[int, int]]:
    """Remove exactly the present edges lying in no perfect matching.

    Afterwards every present edge lies in some perfect matching, so a second
    call removes nothing.  Raises InvariantViolation when no perfect matching
    exists at all.
    """
    _match_free_lefts(g)
    vanished = _run_filter(g, range(1, g.n + 1))
    if g.closure_hook is not None:
        g.closure_hook(g, vanished)
    return vanished


def deck_from_matching(matching, outputs) -> Deck:
    """Deck over 1..n realizing a perfect matching of n pairs: the k-th
    declared pair of the transcript's `outputs` keeps its value k, and the
    other pairs take k+1..n in the order of their left vertices."""
    n = len(matching)
    declared = {(o.i, o.j): o.v for o in outputs}
    fresh = iter(range(len(declared) + 1, n + 1))
    deck = [0] * (2 * n)
    for l, r in sorted(matching):
        deck[l - 1] = deck[r - 1] = declared.get((l, r)) or next(fresh)
    return tuple(deck)


# ---------------------------------------------------------------------------
# Matching + filter internals

def _rights(n: int) -> int:
    """The mask of the right vertices n+1..2n."""
    return ((1 << n) - 1) << (n + 1)


def _bits(mask: int):
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _match_free_lefts(g: KnowledgeGraph) -> None:
    """Complete the matching with one augmenting path per free left vertex."""
    for l in range(1, g.n + 1):
        if g.mate[l] == 0 and not _augment(g, l):
            raise InvariantViolation("graph admits no perfect matching")


def _augment(g: KnowledgeGraph, root: int) -> bool:
    """Single augmenting-path search; builds and repairs every matching here.

    Iterative DFS over the left-vertex digraph from the free left vertex
    `root`, taking at each left vertex the lowest right vertex not yet
    visited; on reaching a free right vertex the path is flipped.  Only right
    vertices' mates are read, so a caller may leave mate[root] stale.
    """
    adj = g.adj
    mate = g.mate
    unseen = _rights(g.n)
    path = [root]
    via: list[int] = []
    while path:
        cand = adj[path[-1]] & unseen
        if not cand:
            path.pop()
            if via:
                via.pop()
            continue
        low = cand & -cand
        unseen ^= low
        r = low.bit_length() - 1
        via.append(r)
        m = mate[r]
        if not m:
            for u, y in zip(path, via):
                mate[u], mate[y] = y, u
            return True
        path.append(m)
    return False


def _run_filter(g: KnowledgeGraph, roots, sink: int = 0) -> list[tuple[int, int]]:
    """Useful-edge filter over the forward reach of the left vertices `roots`
    in the left-vertex digraph, avoiding the left vertices whose mates are the
    bits of `sink`; that reach must be closed under predecessors.

    vanish_closure passes all of 1..n and no sink.  _delete passes mate[r]
    after deleting l -> mate[r] from a filtered graph, with the failed probe's
    reach F = SCC(l) as the sink: F is a component that no edge leaves, so
    every other component of C lies in the reach of mate[r] avoiding F, and
    every edge into F from there vanishes.  Kosaraju: a forward search,
    naming each left vertex by its mate, records a finish order; then
    backward searches from the latest-finished unnamed vertex each take one
    component out of the mask of unnamed left vertices, through the
    predecessor rows adj[mate[u]] of its members.  They take components in
    topological order, so an edge x -> u between two components is found
    from u, with x in a component taken before: that is the edge
    (x, mate[u]), and it vanishes, as does u's row into the sink.  A matched
    edge is a self-loop, so it never goes.
    """
    adj = g.adj
    mate = g.mate
    unseen = _rights(g.n) ^ sink
    unnamed = 0
    order: list[int] = []
    for root in roots:
        y = mate[root]
        if not unseen >> y & 1:
            continue
        unseen ^= 1 << y
        path = [y]
        while path:
            cand = adj[mate[path[-1]]] & unseen
            if cand:
                low = cand & -cand
                unseen ^= low
                path.append(low.bit_length() - 1)
            else:
                x = mate[path.pop()]
                order.append(x)
                unnamed |= 1 << x
    reach = unnamed
    named = 0
    vanished = []
    for root in reversed(order):
        todo = 1 << root
        if not unnamed & todo:
            continue
        unnamed ^= todo
        while todo:
            low = todo & -todo
            u = low.bit_length() - 1
            r = mate[u]
            preds = adj[r]
            new = preds & unnamed
            unnamed ^= new
            todo ^= low | new
            cross = preds & named
            if cross:
                adj[r] ^= cross
                bit = 1 << r
                for x in _bits(cross):
                    adj[x] ^= bit
                    vanished.append((x, r))
            into = adj[u] & sink
            if into:
                adj[u] ^= into
                for y in _bits(into):
                    adj[y] ^= low
                    vanished.append((u, y))
        named = reach ^ unnamed
    vanished.sort()
    return vanished


# ---------------------------------------------------------------------------
# Brute-force oracles (small n)

def perfect_matchings(g: KnowledgeGraph) -> list[frozenset[tuple[int, int]]]:
    """All perfect matchings by backtracking; test oracle for small n."""
    out: list[frozenset[tuple[int, int]]] = []
    used: set[int] = set()
    pick: list[tuple[int, int]] = []

    def rec(l: int) -> None:
        if l > g.n:
            out.append(frozenset(pick))
            return
        for r in _bits(g.adj[l]):
            if r not in used:
                used.add(r)
                pick.append((l, r))
                rec(l + 1)
                pick.pop()
                used.discard(r)

    rec(1)
    return out


def useful_edges_brute(g: KnowledgeGraph) -> set[tuple[int, int]]:
    """Edges lying in at least one perfect matching, by exhaustive enumeration."""
    out: set[tuple[int, int]] = set()
    for m in perfect_matchings(g):
        out |= m
    return out


# ---------------------------------------------------------------------------
# Adversarial game loop

class QueryRecord(NamedTuple):
    i: int
    j: int
    answer: bool


class AdversaryLog:
    """Audit trail of the answers (when kept), the counts, and each removed
    edge's fate in bit rows laid out as KnowledgeGraph.adj: bit r of
    deleted[l] is set iff the edge (l, r) was deleted, and bit r of gone[l]
    iff it was removed in any way.  The counters catch an edge reported
    twice: deletions + vanishings > the bits set in gone."""

    def __init__(self, n: int, keep_records: bool = True):
        self.n = n
        self.deleted: list[int] = [0] * (n + 1)
        self.gone: list[int] = [0] * (n + 1)
        self.records: list[QueryRecord] = []
        self.queries = 0
        self.deletions = 0
        self.vanishings = 0
        self._keep = keep_records

    def removed(self, edge: tuple[int, int], vanished) -> None:
        """Record that a deleting answer removed `edge` and vanished the
        edges `vanished`; the only writer of the rows and of the counts of
        deletions and vanishings."""
        l, r = edge
        self.deleted[l] |= 1 << r
        gone = self.gone
        gone[l] |= 1 << r
        for x, y in vanished:
            gone[x] |= 1 << y
        self.deletions += 1
        self.vanishings += len(vanished)


class AdversaryHost(GameHost):
    """Game host whose equality bits come from the adaptive adversary.

    Examining a card expands into one pairwise query per stored position, so
    a flip reveals at most `slots` answers.  A flip is answered in one frame:
    a stored card re-examined is a hit with no query, a pair whose edge is
    absent (same side, or already removed) is a "No" with no mutation, an
    isolated edge is a "Yes", and any other edge is deleted through the same
    `_delete` that kg_answer calls, so the host never calls kg_answer.  A
    declaration is accepted only on a forced (isolated) edge; anything else
    raises StrategyRejected carrying a valid deck consistent with every
    answer given so far on which the declared pair is not a match.  A
    declared pair leaves the table, so with a fresh transcript the k-th
    declared pair gets value k, recorded in its outputs.
    """

    def __init__(self, kg: KnowledgeGraph, slots: int, transcript: Transcript | None = None,
                 keep_records: bool = True):
        super().__init__(kg.n, slots, transcript)
        self.kg = kg
        self.log = AdversaryLog(kg.n, keep_records=keep_records)

    def _equal_members(self, pos: int) -> list[int]:
        """Answer the queries (pos, j) for each other stored position j, in
        sorted order; the log counts the flip's queries once and takes only
        the answers that delete."""
        kg, log, working = self.kg, self.log, self.working
        adj = kg.adj
        log.queries += len(working) - (pos in working)
        records = log.records if log._keep else None
        hits = []
        for j in sorted(working):
            if j == pos:  # a stored card re-examined equals itself; no query
                hits.append(j)
                continue
            row = adj[pos]
            if not row >> j & 1:  # same side, or already removed
                ans = False
            elif row == 1 << j and adj[j] == 1 << pos:
                ans = True
                hits.append(j)
            else:
                ans = False
                edge = (pos, j) if pos < j else (j, pos)
                log.removed(edge, _delete(kg, *edge))
            if records is not None:
                records.append(QueryRecord(pos, j, ans) if pos < j else QueryRecord(j, pos, ans))
        return hits

    def _declare_value(self, i: int, j: int) -> tuple[MatchTriple, bool]:
        key = edge_key(self.kg.n, i, j)
        if key is None or not self.kg.isolated(*key):
            raise StrategyRejected((i, j), self._counterexample(key))
        return MatchTriple(i, j, len(self.transcript.outputs) + 1), True

    def _counterexample(self, key: tuple[int, int] | None) -> Deck:
        """A deck consistent with all answers in which the declared pair (edge
        `key`, None if same-side) is not a match.

        The held matching realizes every answer; an unforced edge is not
        isolated, so some perfect matching avoids it, and deleting it from a
        copy, when present, keeps one (the filter never touches the matching).
        """
        g = self.kg.copy()
        if key is not None and g.adj[key[0]] >> key[1] & 1:
            _delete(g, *key)
        matching = [(l, g.mate[l]) for l in range(1, g.n + 1)]
        return deck_from_matching(matching, self.transcript.outputs)


@dataclass
class AdversaryResult:
    transcript: Transcript
    log: AdversaryLog
    matching: tuple[tuple[int, int], ...] | None = None
    realized: Deck | None = None
    complete: bool = False
    incorrect: bool = False
    rejected_pair: tuple[int, int] | None = None
    counterexample: Deck | None = None


def adversarial_play(strategy, n: int, slots: int, keep_records: bool = True) -> AdversaryResult:
    """Drive a strategy with `slots` stored cards on adversary answers until
    it outputs n matches; the transcript is lean.

    An unforced declaration ends the run immediately with incorrect=True and a
    counterexample deck.  On completion the final matching is realized as a
    deck that reproduces every recorded answer.
    """
    g = kg_init(n)
    host = AdversaryHost(g, slots, Transcript(lean=True), keep_records=keep_records)
    try:
        strategy.play(host)
    except StrategyRejected as rej:
        return AdversaryResult(host.transcript, host.log, incorrect=True,
                               rejected_pair=rej.pair, counterexample=rej.counterexample)
    complete = host.done() and len(host.transcript.outputs) == n
    matching = realized = None
    if complete and kg_is_done(g):
        matching = tuple((l, g.mate[l]) for l in range(1, n + 1))
        realized = deck_from_matching(matching, host.transcript.outputs)
    return AdversaryResult(host.transcript, host.log, matching=matching,
                           realized=realized, complete=complete)


def replay_consistent(result: AdversaryResult) -> bool:
    """Every recorded answer agrees with the realized deck."""
    x = result.realized
    if x is None:
        return False
    return all(rec.answer == (x[rec.i - 1] == x[rec.j - 1]) for rec in result.log.records)


# ---------------------------------------------------------------------------
# Involution audit

@dataclass(frozen=True)
class InvolutionReport:
    ok: bool
    claim_ok: bool
    accounting_ok: bool
    lower_bound_ok: bool
    pair_count: int
    deletions: int
    vanishings: int
    failures: tuple


def involution_audit(log: AdversaryLog, matching) -> InvolutionReport:
    """Audit a finished run against the pairing of non-matching edges.

    Any two matched pairs (li, ri) and (lj, rj) have two cross edges, (li, rj)
    and (lj, ri), and these n(n-1)/2 pairs partition the non-matching edges.
    The audit checks, on the log's gone and deleted rows, that both edges of
    every pair were removed, that at least one of them was deleted rather
    than vanished, and the removal accounting identities.
    """
    n = log.n
    pairs = sorted(matching)
    if ([l for l, _ in pairs] != list(range(1, n + 1))
            or sorted(r for _, r in pairs) != list(range(n + 1, 2 * n + 1))):
        raise ValueError("final matching must pair 1..n one-to-one with n+1..2n")
    deleted, gone = log.deleted, log.gone
    failures: list[tuple] = []
    for i, (li, ri) in enumerate(pairs):
        for lj, rj in pairs[i + 1:]:
            if not gone[li] >> rj & gone[lj] >> ri & 1:
                failures.append(("still-present", (li, rj), (lj, ri)))
            elif not (deleted[li] >> rj | deleted[lj] >> ri) & 1:
                failures.append(("pair-entirely-vanished", (li, rj), (lj, ri)))
    accounting_ok = log.deletions + log.vanishings == n * (n - 1)
    lower_bound_ok = log.deletions >= n * (n - 1) // 2
    claim_ok = not failures
    return InvolutionReport(
        ok=claim_ok and accounting_ok and lower_bound_ok,
        claim_ok=claim_ok,
        accounting_ok=accounting_ok,
        lower_bound_ok=lower_bound_ok,
        pair_count=n * (n - 1) // 2,
        deletions=log.deletions,
        vanishings=log.vanishings,
        failures=tuple(failures),
    )
