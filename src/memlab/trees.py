"""Decision trees with per-edge match outputs.

A tree of depth r queries r distinct positions along every root-to-leaf path
and may annotate edges with declared matches.  A tree branches one of two ways:

- R-way: every node has one branch per value 1..R.
- Equality pattern, for blind builders that see only equality bits: values
  along a path carry labels 1..K in first-read order, and a node whose path
  has read K distinct values has min(K+1, R) branches.  Branch b <= K means
  "equals the b-th distinct value read", branch K+1 "a value not read yet".
  A pattern leaf stands for the perm(R, K) R-way leaves that relabel its K
  values.  An output on an inner edge names only values read on its path; a
  leaf edge may name unread labels, which stand for the lowest unread values.

Trees are checked two ways, each reading n and R from the tree.  One runs
decks down their paths: `_run` is the one deck walk, behind `tree_run`, which
refuses a deck that does not fit the tree, and the deck-enumeration oracles
`x_exact_distribution` and `productive_fraction_brute`.  The other counts
the decks consistent with each leaf without enumerating the deck universe:
`_iter_leaves` is the one leaf walk, an iterative preorder walk that keeps
each path's census of completed and half pairs current and yields only the
leaves some deck reaches.  Grouping its leaves by census gives the
equal-pairs law; reading each leaf's outputs against its reads gives the
productive-input fraction.  `lemma43_check` also reads those leaves'
outputs and refuses a tree on which some deck's path names a position
twice, so that its outputs are not a partial matching.

A tree is made only by unfolding a per-node `step` function, and every
builder (fixed, random, guessing, compiled player) is one.  `DecisionTree`
unfolds it in one walk that checks each node and edge as it makes them; it
owns the size refusals (R >= n, depth <= 2n, and at most the constant
`DEFAULT_TREE_CAP` nodes in the tree it would build), the branching and the
padding rule.  The fixed, guessing and compiled trees branch on equality
patterns; `random_tree` stays R-way because its random outputs are not
symmetric under relabeling.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Callable, Iterator

from .game_core import (CapExceeded, Deck, MatchTriple, Transcript, count_valid_inputs,
                        enumerate_valid_inputs, validate_deck)
from .strategies import GameHost, ProtocolError, SpaceBudget
from .analysis import y_exact_distribution

DEFAULT_TREE_CAP = 2_000_000


class TreeNode:
    __slots__ = ("pos", "kids", "outs")

    def __init__(self, pos: int, branches: int):
        self.pos = pos
        self.kids: list[TreeNode | None] = [None] * branches
        self.outs: list[tuple[MatchTriple, ...]] = [()] * branches


class DecisionTree:
    """A tree unfolded from a per-node `step` function, the one way to make
    a tree, and checked as it is built.

    Nodes are made in preorder, branches in value order.  At each node,
    `step(vals, positions)` gets the values read along the path (pattern
    labels when `pattern`) and the positions they were read at, and returns
    (outputs on the edge into this node, next position to read or None).
    None pads the path with the lowest unread position.  Every path reads
    `depth` positions, and a node has R branches, or min(K+1, R) in a
    pattern tree whose path has read K distinct values.

    Refused, before any node is built: n < 1, depth outside 0..2n, R < n,
    and a tree past the constant `DEFAULT_TREE_CAP` nodes, leaves included.
    Refused as each node and edge is made: a position out of range or
    re-queried along a path, a malformed output or one repeated along a
    path, an output before the first read, and in a pattern tree an output
    on an inner edge naming a value its path has not read.  `node_count`
    counts the `TreeNode`s built; a leaf is a None child."""

    def __init__(self, n: int, R: int, depth: int, step: Callable, pattern: bool = False):
        if n < 1 or depth < 0:
            raise ValueError(f"need n >= 1 and depth >= 0, got n={n}, depth={depth}")
        if depth > 2 * n:
            raise ValueError(f"depth {depth} exceeds the {2 * n} distinct positions")
        if R < n:
            raise ValueError(f"need R >= n, got R={R} < n={n}")
        nodes = _node_count(R, depth, pattern)
        if nodes > DEFAULT_TREE_CAP:
            raise CapExceeded(f"tree would hold at least {nodes} nodes, cap {DEFAULT_TREE_CAP}")
        self.n = n
        self.R = R
        self.depth = depth
        self.pattern = pattern
        self.node_count = 0

        def grow(vals: tuple[int, ...], positions: tuple[int, ...], k: int,
                 above: frozenset[MatchTriple]):
            # k: the highest value in vals, which in a pattern tree is the
            # number of distinct values read; above: the outputs on the path
            # above the edge into this node
            outs, pos = step(vals, positions)
            inner = len(vals) < depth
            if outs:
                if not vals:
                    raise ValueError("tree emits output before its first read")
                for o in outs:
                    if not (1 <= o.i < o.j <= 2 * n and 1 <= o.v <= R):
                        raise ValueError(f"malformed output {o}")
                    # a later fresh read could take an unread label, so the
                    # relabeling count of the leaves below would not hold
                    if pattern and inner and o.v > k:
                        raise ValueError(f"output {o} on an inner edge names a value "
                                         "not read on its path")
                below = above.union(outs)
                if len(below) != len(above) + len(outs):
                    raise ValueError("output repeated along a path")
                above = below
            if not inner:
                return None, outs
            if pos is None:
                pos = next(p for p in range(1, len(positions) + 2) if p not in positions)
            elif not 1 <= pos <= 2 * n:
                raise ValueError(f"queried position {pos} out of range")
            elif pos in positions:
                raise ValueError(f"position {pos} re-queried along a path")
            width = min(k + 1, R) if pattern else R
            node = TreeNode(pos, width)
            self.node_count += 1
            positions += (pos,)
            for v in range(1, width + 1):
                node.kids[v - 1], node.outs[v - 1] = grow(vals + (v,), positions,
                                                          v if v > k else k, above)
            return node, outs

        self.root = grow((), (), 0, frozenset())[0]


@dataclass(frozen=True)
class PathStats:
    """Trace of one deck through a tree."""

    queried: tuple[int, ...]
    values: tuple[int, ...]
    outputs: tuple[MatchTriple, ...]
    equal_pairs: int
    correct_outputs: int


def _deck_values(values: list[int], R: int) -> list[int]:
    """Deck value of each pattern label 1..R on a path that read `values`:
    the read values in first-read order, then the unread ones ascending."""
    seen = list(dict.fromkeys(values))
    return seen + [w for w in range(1, R + 1) if w not in seen]


def tree_run(tree: DecisionTree, x: Deck) -> PathStats:
    """Follow the deck's path; count equal value-pairs and correct outputs."""
    if validate_deck(x, tree.R) != tree.n:
        raise ValueError(f"deck of {len(x)} cards for a tree over {2 * tree.n} positions")
    return _run(tree, x)


def _run(tree: DecisionTree, x: Deck) -> PathStats:
    """tree_run on a deck already known to fit the tree: the one deck walk.
    A pattern node branches on the value's rank among the distinct values
    read so far, in first-read order."""
    rank: dict[int, int] = {}
    queried: list[int] = []
    values: list[int] = []
    outputs: list[MatchTriple] = []
    node = tree.root
    while node is not None:
        v = x[node.pos - 1]
        b = rank.setdefault(v, len(rank)) if tree.pattern else v - 1
        queried.append(node.pos)
        values.append(v)
        outputs.extend(node.outs[b])
        node = node.kids[b]
    if tree.pattern and outputs:
        label = _deck_values(values, tree.R)
        outputs = [MatchTriple(o.i, o.j, label[o.v - 1]) for o in outputs]
    eq = sum(c // 2 for c in Counter(values).values())
    # on a valid deck, i < j holding v at both ends is exactly a match
    correct = sum(1 for o in outputs if x[o.i - 1] == o.v == x[o.j - 1])
    return PathStats(tuple(queried), tuple(values), tuple(outputs), eq, correct)


# ---------------------------------------------------------------------------
# Exact distribution checks

def x_exact_distribution(tree: DecisionTree) -> list[Fraction]:
    """Law of the equal-pairs count over a uniform valid deck, by enumeration:
    the slow oracle for `path_distribution`."""
    decks = enumerate_valid_inputs(tree.n, tree.R)
    tally = Counter(_run(tree, x).equal_pairs for x in decks)
    total = tally.total()
    return [Fraction(tally.get(u, 0), total) for u in range(tree.depth // 2 + 1)]


# ---------------------------------------------------------------------------
# Path-by-path counting

def _iter_leaves(tree: DecisionTree) -> Iterator[tuple[dict[int, int], Counter,
                                                      list[MatchTriple], int, int]]:
    """Every leaf that some deck reaches, in preorder, as (read value by
    position, read count by value, outputs along the path, completed pairs u
    and half pairs d among the reads).

    One iterative walk, a stack of frames, keeps the path's reads, census
    and outputs current as it enters and leaves each branch, so a leaf costs
    O(1) beyond its outputs.  The three containers are live: the walk
    changes them once it moves on, so a caller copies what it keeps.  No
    deck reads a value three times or more than n distinct values, so the
    walk enters no branch that would, and the subtree below it holds no leaf
    to yield.

    A pattern leaf with u complete and d half pairs stands for the
    perm(R, u + d) relabelings of its values, each reached by as many decks
    and, its outputs relabeled alike, productive on as many; an R-way leaf
    stands for itself."""
    qvals: dict[int, int] = {}
    counts: Counter = Counter()
    outputs: list[MatchTriple] = []
    u = 0  # values read twice; the r reads on a path hold r - 2u half pairs
    if tree.root is None:  # a depth-0 tree is one leaf with no reads
        yield qvals, counts, outputs, u, 0
        return
    n, depth = tree.n, tree.depth
    # a frame: [node, branch last entered, reads above hold < n distinct values]
    frames = [[tree.root, 0, True]]
    while frames:
        frame = frames[-1]
        node, v, room = frame
        outs = node.outs
        if v:  # leave branch v
            if counts[v] == 2:
                counts[v] = 1
                u -= 1
            else:
                counts.pop(v)  # Counter's del runs Python code; pop does not
            if outs[v - 1]:
                del outputs[-len(outs[v - 1]):]
        # skip each branch no deck takes: a third read, or an (n+1)-th value
        width = len(outs)
        v += 1
        while v <= width and (counts.get(v) == 2 or not room and v not in counts):
            v += 1
        if v > width:
            frames.pop()
            qvals.pop(node.pos, None)
            continue
        frame[1] = v
        qvals[node.pos] = v
        if v in counts:
            counts[v] = 2
            u += 1
        else:
            counts[v] = 1
        outputs.extend(outs[v - 1])
        child = node.kids[v - 1]
        if child is None:
            yield qvals, counts, outputs, u, depth - 2 * u
        else:  # the len(frames) reads down to the child hold len(frames) - u values
            frames.append([child, 0, len(frames) - u < n])


def _consistent_count(n: int, R: int, u: int, d: int, r: int) -> int:
    """Decks agreeing with r fixed reads holding u complete and d half pairs:
    choose the fresh value set, then arrange the remaining multiset."""
    f = n - u - d
    if f < 0:
        return 0
    return math.comb(R - u - d, f) * math.factorial(2 * n - r) // 2**f


def _pinned_count(consistent: Callable, counts: Counter, r: int, events) -> int:
    """Consistent decks additionally forcing every (position, value) pin of
    the given events, counted by `consistent(u, d, r)`; 0 when the pins
    contradict each other or the reads."""
    pins: dict[int, int] = {}
    extra: Counter = Counter()
    for ev in events:
        for pos, v in ev:
            cur = pins.get(pos)
            if cur is None:
                pins[pos] = v
                extra[v] += 1
            elif cur != v:
                return 0
    merged = counts.copy()
    for v, c in extra.items():
        merged[v] += c
        if merged[v] > 2:
            return 0
    u = sum(1 for c in merged.values() if c == 2)
    d = sum(1 for c in merged.values() if c == 1)
    return consistent(u, d, r + len(pins))


def productive_deck_count(tree: DecisionTree, t: int) -> tuple[int, int]:
    """(decks on which the tree emits >= 2t correct outputs, all decks).

    Per leaf, outputs split into read-determined ones and speculative events
    pinning unread positions; the with-at-least-k form of inclusion-exclusion
    counts completions satisfying enough events.
    """
    n, R = tree.n, tree.R

    # leaves and pinned events share few (u, d, r), and at large n each count
    # multiplies numbers of thousands of digits
    @cache
    def consistent(u: int, d: int, r: int) -> int:
        return _consistent_count(n, R, u, d, r)

    productive = 0
    total = 0
    for qvals, counts, outputs, u, d in _iter_leaves(tree):
        base = consistent(u, d, tree.depth)
        weight = math.perm(R, u + d) if tree.pattern else 1
        total += base * weight
        det = 0
        events: list[tuple[tuple[int, int], ...]] = []
        for i, j, v in outputs:
            iq = i in qvals
            jq = j in qvals
            if iq and jq:
                if qvals[i] == v and qvals[j] == v:
                    det += 1
            elif iq or jq:
                qp, fp = (i, j) if iq else (j, i)
                if qvals[qp] == v and counts[v] == 1:
                    events.append(((fp, v),))
            else:
                if counts[v] == 0:
                    events.append(((i, v), (j, v)))
        need = 2 * t - det
        if need <= 0:
            productive += base * weight
            continue
        m = len(events)
        if m < need:
            continue
        got = 0
        for k in range(need, m + 1):
            sk = 0
            for A in combinations(events, k):
                sk += _pinned_count(consistent, counts, tree.depth, A)
            got += (-1) ** (k - need) * math.comb(k - 1, need - 1) * sk
        productive += got * weight
    return productive, total


def path_distribution(tree: DecisionTree) -> list[Fraction]:
    """Equal-pairs law by exact path counting (dual route to enumeration):
    the leaves are grouped by (u, d), and each group is multiplied once by
    the decks one of its leaves stands for."""
    n, R = tree.n, tree.R
    tally: Counter = Counter()
    for (u, d), leaves in Counter((u, d) for _, _, _, u, d in _iter_leaves(tree)).items():
        weight = math.perm(R, u + d) if tree.pattern else 1
        tally[u] += leaves * weight * _consistent_count(n, R, u, d, tree.depth)
    total = count_valid_inputs(n, R)
    return [Fraction(tally.get(u, 0), total) for u in range(tree.depth // 2 + 1)]


def xy_equiv_check(tree: DecisionTree) -> bool:
    """Exact rational equality of the tree's equal-pairs law, counted path by
    path, with the completed-pairs law of drawing depth cards without
    replacement."""
    return path_distribution(tree) == y_exact_distribution(tree.n, tree.depth)


@dataclass(frozen=True)
class ProductivityResult:
    fraction: Fraction
    bound: float
    ok: bool


def check_lemma43(n: int, r: int, t: int) -> None:
    """Refuse a cell outside Lemma 4.3's preconditions, r <= n/2 and
    1 <= t <= r/2; a command checks them before it builds the tree."""
    if r > n // 2:
        raise ValueError(f"need depth <= n/2, got r={r}, n={n}")
    if t < 1 or t > r // 2:
        raise ValueError(f"need 1 <= t <= r/2, got t={t}, r={r}")


def lemma43_check(tree: DecisionTree, t: int) -> ProductivityResult:
    """Exact fraction of decks on which the tree emits >= 2t correct outputs,
    against the shallow-tree productivity bound (n-r-t)^-t + e^-t.  The
    outputs along each path some deck follows must form a partial matching,
    naming no position twice; a path no deck follows adds no deck to the
    fraction, so its outputs are not read."""
    n, r = tree.n, tree.depth
    check_lemma43(n, r, t)
    for _, _, outputs, _, _ in _iter_leaves(tree):
        if len({p for o in outputs for p in (o.i, o.j)}) != 2 * len(outputs):
            raise ValueError("outputs name a position twice along a path: not a partial matching")
    productive, total = productive_deck_count(tree, t)
    expect = count_valid_inputs(n, tree.R)
    if total != expect:
        raise ValueError(f"tree is not total: paths cover {total} of {expect} decks")
    fraction = Fraction(productive, total)
    bound = (n - r - t) ** (-t) + math.exp(-t)
    return ProductivityResult(fraction, bound, fraction <= Fraction(bound))


def productive_fraction_brute(tree: DecisionTree, t: int) -> Fraction:
    """Deck-enumeration oracle for the productive fraction (small n only)."""
    decks = enumerate_valid_inputs(tree.n, tree.R)
    tally = Counter(_run(tree, x).correct_outputs >= 2 * t for x in decks)
    return Fraction(tally[True], tally.total())


# ---------------------------------------------------------------------------
# Tree builders

# chance that random_tree annotates an edge with an output
_OUT_PROB = 0.4


def _node_count(R: int, depth: int, pattern: bool) -> int:
    """Nodes, leaves included, of the depth-`depth` tree `DecisionTree` builds,
    summed level by level; once the sum passes `DEFAULT_TREE_CAP` it is
    returned as is.

    An R-way level has R times the nodes of the one above.  A pattern level
    is kept by distinct values read: a node whose path read K values has K
    repeat branches and, while K < R, one fresh branch."""
    total = 0
    level = [1]  # level[K]: nodes whose path read K distinct values (R-way: all)
    for _ in range(depth + 1):
        total += sum(level)
        if total > DEFAULT_TREE_CAP:
            break
        if pattern:
            level = [K * a + b for K, (a, b) in enumerate(zip(level + [0], [0] + level))][:R + 1]
        else:
            level = [level[0] * R]
    return total


def fixed_position_tree(n: int, R: int, depth: int) -> DecisionTree:
    """Oblivious tree reading positions 1..depth with no outputs."""
    return DecisionTree(n, R, depth, lambda vals, positions: ((), None), pattern=True)


def random_tree(n: int, R: int, depth: int, seed: int) -> DecisionTree:
    """Random well-formed tree: random fresh position per node, sparse random
    output annotations that never repeat along a path."""
    rng = random.Random(seed)
    path_outs = [frozenset()] * (depth + 1)  # outputs down to each level of the path

    def step(vals, positions):
        k = len(vals)
        outs: tuple[MatchTriple, ...] = ()
        if k:
            above = path_outs[k - 1]
            if rng.random() < _OUT_PROB:
                i = rng.randrange(1, 2 * n)
                j = rng.randrange(i + 1, 2 * n + 1)
                cand = MatchTriple(i, j, rng.randrange(1, R + 1))
                if cand not in above:
                    outs = (cand,)
            path_outs[k] = above.union(outs) if outs else above
        if k == depth:
            return outs, None
        return outs, rng.choice([p for p in range(1, 2 * n + 1) if p not in positions])

    return DecisionTree(n, R, depth, step)


def build_guessing_tree(n: int, R: int, depth: int, t: int) -> DecisionTree:
    """Adversarially productive tree: reads positions 1..depth, declares every
    equal pair among its reads, and speculates t+1 extra matches on each final
    edge (half-open singles, in first-read order, paired with unread positions
    first, then pairs of unread positions on the lowest unread values)."""

    def speculative(vals: tuple[int, ...]) -> list[MatchTriple]:
        counts = Counter(vals)
        singles = sorted(v for v, c in counts.items() if c == 1)[:t + 1]
        unread = range(depth + 1, 2 * n + 1)  # the tree reads 1..depth
        # a read position precedes every unread one
        outs = [MatchTriple(vals.index(v) + 1, p, v) for v, p in zip(singles, unread)]
        pairs = unread[len(outs):]
        unseen = range(len(counts) + 1, R + 1)  # the labels read are 1..K
        for k in range(min(t + 1 - len(outs), len(pairs) // 2, len(unseen))):
            outs.append(MatchTriple(pairs[2 * k], pairs[2 * k + 1], unseen[k]))
        return outs

    def step(vals, positions):
        if not vals:
            return (), None
        k, v = len(vals), vals[-1]
        outs: list[MatchTriple] = []
        earlier = [i + 1 for i, w in enumerate(vals[:-1]) if w == v]
        if len(earlier) % 2 == 1:
            outs.append(MatchTriple(earlier[-1], k, v))
        if k == depth:
            outs.extend(speculative(vals))
        return tuple(outs), None

    return DecisionTree(n, R, depth, step, pattern=True)


# ---------------------------------------------------------------------------
# Compiling a player's first reads into a tree

class _NeedsRead(Exception):
    def __init__(self, pos: int):
        self.pos = pos


class _ReplayHost(GameHost):
    """Feeds a player scripted values: the k-th distinct position read gets
    the k-th feed value; re-reads answer from the script without consuming.
    `mark` is the transcript's output count when the last feed value was
    read (0 for an empty feed, None until then): the edge's outputs follow it."""

    def __init__(self, n: int, slots: int, feed: tuple[int, ...]):
        super().__init__(n, slots, Transcript(lean=True))
        self.feed = feed
        self.values: dict[int, int] = {}  # by position, in read order
        self.mark = None if feed else 0

    def _equal_members(self, pos: int) -> list[int]:
        if pos not in self.values:
            if len(self.values) == len(self.feed):
                raise _NeedsRead(pos)
            self.values[pos] = self.feed[len(self.values)]
            if len(self.values) == len(self.feed):
                self.mark = len(self.transcript.outputs)
        v = self.values[pos]
        return sorted(j for j in self.working if self.values[j] == v)

    def _declare_value(self, i: int, j: int) -> tuple[MatchTriple, bool]:
        vi = self.values.get(i)
        vj = self.values.get(j)
        if vi is None or vj is None:
            raise ProtocolError("declared an unexamined position; not representable on a tree edge")
        return MatchTriple(i, j, vi), vi == vj


def compile_prefix_tree(make_player: Callable, n: int, R: int, depth: int,
                        slots: int | None = None) -> DecisionTree:
    """Unfold a deterministic player's first `depth` distinct reads into a tree.

    Each node replays the player on the values along its path.  Redundant
    re-reads collapse onto the known branch; once the player stops reading,
    remaining levels query the lowest-indexed fresh position as output-free
    dummies so every leaf sits at uniform depth.
    """
    # the budget refuses a slot count that stores no card index
    slots = SpaceBudget.for_slots(n, 2 * n if slots is None else slots).slots

    def step(vals, positions):
        host = _ReplayHost(n, slots, vals)
        try:
            make_player().play(host)
            nxt = None
        except _NeedsRead as e:
            nxt = e.pos
        if tuple(host.values) != positions[:len(host.values)]:
            raise ValueError("player is not deterministic: read order changed")
        return (() if host.mark is None else tuple(host.transcript.outputs[host.mark:])), nxt

    return DecisionTree(n, R, depth, step, pattern=True)
