"""Players of the pair-matching game under a stored-card memory budget.

A blind player keeps a working set of at most `slots` card positions.  On
examining a card it learns only which stored cards hold the same value, never
the value itself; the host fills in values when a match is declared.  Hosts
drive the same player classes against either a real deck (here) or the
adaptive adversary (see adversary.py), so a player's choices are a function
of equality bits and its own state alone.

Hosts own the examine loops the shipped players are made of: `fill` (store
each miss, declare each hit), `scan` (declare each hit until the working set
empties) and `run_passes`, the whole multipass game, one round of a fill and
a scan per block.  `GameHost` runs them one flip at a time, which the
adversary and the tree compiler need and which serves as the oracle.
`DeckHost` knows each card's partner and has one fast loop: a lean game that
cannot reach its flip cap is played in rank space from its first round to
its last, where a block card hits or is stored by its partner's rank and the
scan's flips are counted over an alive mask kept per rank, not listed.
Every other game, full transcripts (which name every flip) and games that
could reach the cap, takes the generic rounds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress

from .game_core import Deck, MatchTriple, Transcript, check_cells, deck_partners
from .game_core import FlipBudgetExceeded  # noqa: F401  (re-exported for callers of the hosts)


class ProtocolError(RuntimeError):
    """A player broke the host rules (overflowed memory, examined a removed card)."""


@dataclass(frozen=True)
class SpaceBudget:
    """Memory budget: S bits for a game of n pairs.

    A stored position costs ceil(log2(2n)) bits since indices range over
    1..2n; `slots` is how many positions fit, at least one.  Loop counters
    and other bookkeeping are unmetered.
    """

    S: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.slots < 1:
            raise ValueError(f"S={self.S} bits stores no card index: "
                             f"need at least {self.bits_per_index} bits")

    @staticmethod
    def index_bits(n: int) -> int:
        """ceil(log2(2n)): the bits one of the positions 1..2n costs."""
        return (2 * n - 1).bit_length()

    @property
    def bits_per_index(self) -> int:
        return self.index_bits(self.n)

    @property
    def slots(self) -> int:
        return self.S // self.bits_per_index

    @classmethod
    def for_slots(cls, n: int, slots: int) -> "SpaceBudget":
        return cls(S=slots * cls.index_bits(n), n=n)


class GameHost:
    """Drives one game: owns the table, the working set, and the transcript.

    Subclasses answer the equality bits (`_equal_members`) and assign values
    to declared matches (`_declare_value`).  The examine loops every
    shipped player is built from, `fill` and `scan` and the multipass game
    `run_passes` made of them, live here, one flip at a time; `DeckHost`
    replaces only `run_passes`, and only for the games it can play in rank
    space.  A truncated run's flip cap is the transcript's: a host checks
    none.
    """

    def __init__(self, n: int, slots: int, transcript: Transcript | None = None):
        if slots < 1:
            raise ValueError(f"a host needs at least one slot, got {slots}")
        self.n = n
        self.slots = slots
        self.transcript = transcript if transcript is not None else Transcript()
        self.working: set[int] = set()
        self.removed: set[int] = set()

    # -- table state ---------------------------------------------------
    def live(self, pos: int) -> bool:
        return pos not in self.removed

    def done(self) -> bool:
        return len(self.removed) == 2 * self.n

    # -- player actions ------------------------------------------------
    def examine(self, pos: int) -> list[int]:
        """Flip card `pos`; return the stored positions whose cards equal it."""
        if pos < 1 or pos > 2 * self.n:
            raise ProtocolError(f"position {pos} out of range")
        if pos in self.removed:
            raise ProtocolError(f"examined removed card {pos}")
        # recorded first, so a flip past the transcript's cap asks nothing
        self.transcript.add_flip(pos, len(self.working))
        return self._equal_members(pos)

    def store(self, pos: int) -> None:
        if pos < 1 or pos > 2 * self.n:
            raise ProtocolError(f"stored position {pos} out of range")
        if pos in self.removed:
            raise ProtocolError(f"stored removed card {pos}")
        if pos in self.working:
            return
        if len(self.working) + 1 > self.slots:
            raise ProtocolError(f"working set overflow: {len(self.working) + 1} > {self.slots} slots")
        self.working.add(pos)
        self.transcript.note_ws(len(self.working))

    def clear_working(self) -> None:
        self.working.clear()

    def declare(self, i: int, j: int) -> MatchTriple:
        """Output a match for positions i and j; the host supplies the value."""
        if i > j:
            i, j = j, i
        if i == j:
            raise ProtocolError(f"declared a position against itself: {i}")
        if i < 1 or j > 2 * self.n:
            raise ProtocolError(f"declared position out of range: {i}, {j}")
        if i in self.removed or j in self.removed:
            raise ProtocolError(f"declared removed card {i if i in self.removed else j}")
        triple, matched = self._declare_value(i, j)
        self.transcript.add_output(triple)
        if matched:
            self._remove(i, j)
        return triple

    def _remove(self, i: int, j: int) -> None:
        """Take a declared pair off the table and out of the working set."""
        self.removed.add(i)
        self.removed.add(j)
        self.working.discard(i)
        self.working.discard(j)

    # -- examine loops ---------------------------------------------------
    def run_passes(self, order, s: int) -> None:
        """The multipass game over `order`, a permutation of 1..2n, in blocks
        of s: round k stores the live cards of the k-th block, declaring each
        hit among them, then scans the rest of the order until the working
        set empties.  A block with no live card is skipped, and the game
        stops once the table is clear."""
        for index, lo in enumerate(range(0, 2 * self.n, s), start=1):
            if self.done():
                break
            hi = lo + s
            block = order[lo:hi]
            if not any(map(self.live, block)):
                continue
            self.clear_working()
            self.transcript.add_pass(index)
            self.fill(block)
            self.scan(order, hi)

    def fill(self, positions) -> None:
        """Examine each live position in turn, declaring a hit against its
        first stored match and storing a miss; stop once the table is clear."""
        for p in positions:
            if self.done():
                break
            if p in self.removed:
                continue
            hits = self.examine(p)
            if hits:
                self.declare(hits[0], p)
            else:
                self.store(p)

    def scan(self, positions, start: int = 0) -> None:
        """Examine each live position of `positions[start:]` in turn until the
        working set is empty, declaring a hit against its first stored match."""
        for p in positions[start:]:
            if not self.working:
                break
            if p in self.removed:
                continue
            hits = self.examine(p)
            if hits:
                self.declare(hits[0], p)

    # -- backend hooks ---------------------------------------------------
    def _equal_members(self, pos: int) -> list[int]:
        raise NotImplementedError

    def _declare_value(self, i: int, j: int) -> tuple[MatchTriple, bool]:
        raise NotImplementedError


class DeckHost(GameHost):
    """Host backed by a real deck; equality bits come from the card values.

    Only a stored card or its partner (the other card of its value) can hit.
    The one fast loop is the lean rank game: `run_passes` decides once per
    game, and plays every round with no per-flip step when the transcript is
    lean, the block fits the slots and the game cannot reach the flip cap
    (at most ceil(2n/s) * 2n flips).  It builds the ranks, the partner ranks
    and an alive mask indexed by rank, then in each round a block card whose
    partner's rank lies earlier in the block hits and any other is stored.
    The scan hits each stored card's partner, which is ranked after the
    block, and flips every live card up to the last such hit: each round
    takes all its block's cards off the table, so no partner of a live card
    lies before the block.  The scan's flips are one count over the alive
    mask; the outputs go out in rank order, as the generic round makes them.
    Every other game, like any `fill` or `scan` called alone, is the generic
    one: full transcripts and games that could reach the cap take it.
    """

    def __init__(self, x: Deck, slots: int, transcript: Transcript | None = None):
        self.partner = deck_partners(x)
        super().__init__(len(x) // 2, slots, transcript)
        self.x = x

    def _equal_members(self, pos: int) -> list[int]:
        w = self.working
        return sorted(p for p in (pos, self.partner[pos]) if p in w)

    def _declare_value(self, i: int, j: int) -> tuple[MatchTriple, bool]:
        v = self.x[i - 1]
        return MatchTriple(i, j, v), self.x[j - 1] == v

    def run_passes(self, order, s: int) -> None:
        t = self.transcript
        top = 2 * self.n
        if (not t.lean or s > self.slots
                or t.cap is not None and t.flips + -(-top // s) * top > t.cap):
            GameHost.run_passes(self, order, s)
            return
        rank = [0] * (top + 1)  # rank[p]: the index of p in order
        for r, p in enumerate(order):
            rank[p] = r
        x, partner, removed = self.x, self.partner, self.removed
        prank = [rank[partner[p]] for p in order]  # prank[r]: the rank of order[r]'s partner
        alive = bytearray(p not in removed for p in order)  # alive[r]: order[r] is on the table
        for index, lo in enumerate(range(0, top, s), start=1):
            if len(removed) == top:
                break
            hi = lo + s
            live = list(compress(range(lo, hi), alive[lo:hi]))
            if not live:
                continue
            self.clear_working()
            t.add_pass(index)
            pairs = []  # (rank, partner's rank) of each hit, in the order it is declared
            ahead = []  # stored cards' partner ranks at or after hi: the scan's hits
            size = peak = 0
            for r in live:
                q = prank[r]
                if q < r:
                    pairs.append((r, q))
                    size -= 1
                else:
                    size += 1
                    if size > peak:
                        peak = size
                    if q >= hi:
                        ahead.append(q)
            ahead.sort()
            end = ahead[-1] + 1 if ahead else hi  # the scan's end
            t.add_flip_count(len(live) + alive.count(1, hi, end), peak)
            pairs.extend((q, prank[q]) for q in ahead)
            for r, q in pairs:
                i, j = order[r], order[q]
                if i > j:
                    i, j = j, i
                t.add_output(MatchTriple(i, j, x[i - 1]))
                removed.add(i)
                removed.add(j)
                alive[r] = alive[q] = 0


# ---------------------------------------------------------------------------
# Players

class MultiPass:
    """Blocked scanning player.

    Pass i stores the i-th block of s positions (among cards still on the
    table), declaring any matches seen while storing, then walks every later
    live position once, forgetting each scanned card.  The scan stops early
    when the working set empties; a pass whose block is entirely off the
    table is skipped.  Total flips never exceed ceil(2n/s) * 2n.

    `order` permutes the examination order of the table (identity when None);
    a seeded permutation gives the randomized-order variant.  An order that
    is not a permutation of 1..2n is refused before the first flip.
    """

    def __init__(self, order: list[int] | None = None):
        self.order = order

    def play(self, host: GameHost) -> None:
        n2 = 2 * host.n
        order = self.order
        if order is None:
            order = range(1, n2 + 1)
        elif len(order) != n2 or set(order) != set(range(1, n2 + 1)):
            raise ValueError(f"order is not a permutation of 1..{n2}")
        host.run_passes(order, min(host.slots, n2))


class FullMemory:
    """Baseline with unbounded recall: one scan, declaring matches on sight."""

    def play(self, host: GameHost) -> None:
        host.fill(range(1, 2 * host.n + 1))


def randomized_order(n: int, seed: int) -> list[int]:
    """Seeded permutation of 1..2n for the randomized-order multipass variant."""
    check_cells(2 * n, f"{n} pairs")
    order = list(range(1, 2 * n + 1))
    random.Random(seed).shuffle(order)
    return order


# the shipped players by CLI name -> make(n, seed); the `mixed` sweep draws
# from this order, so reordering it changes that sweep's bytes
PLAYERS = {
    "multipass": lambda n, seed: MultiPass(),
    "rmultipass": lambda n, seed: MultiPass(order=randomized_order(n, seed)),
    "perfect": lambda n, seed: FullMemory(),
}


def make_strategy(name: str, n: int, seed: int = 0):
    """A shipped player by CLI name; `seed` orders rmultipass's table."""
    if name not in PLAYERS:
        raise ValueError(f"unknown strategy {name!r}")
    return PLAYERS[name](n, seed)


# ---------------------------------------------------------------------------
# Entry points

def multi_pass_play(x: Deck, slots: int, order: list[int] | None = None,
                    lean: bool = False) -> Transcript:
    """Run the blocked scanner with `slots` stored cards on a deck and return
    its transcript."""
    host = DeckHost(x, slots, Transcript(lean=lean))
    MultiPass(order=order).play(host)
    return host.transcript


def multi_pass_time_bound(budget: SpaceBudget) -> int:
    """Flip ceiling ceil(2n/s) * 2n that multi_pass_play never exceeds."""
    n2 = 2 * budget.n
    return -(-n2 // budget.slots) * n2


def space_audit(t: Transcript, budget: SpaceBudget) -> bool:
    """True iff the transcript's working-set peak fits the budget."""
    if any(e.b < 0 for e in t.events if e.kind == "flip"):
        raise ValueError("transcript lacks working-set size records")
    return t.max_ws * budget.bits_per_index <= budget.S
