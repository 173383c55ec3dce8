"""Players of the pair-matching game under a stored-card memory budget.

A blind player keeps a working set of at most `slots` card positions.  On
examining a card it learns only which stored cards hold the same value, never
the value itself; the host fills in values when a match is declared.  Hosts
drive the same player classes against either a real deck (here) or the
adaptive adversary (see adversary.py), so a player's choices are a function
of equality bits and its own state alone.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .game_core import Deck, MatchTriple, Transcript


class ProtocolError(RuntimeError):
    """A player broke the host rules (overflowed memory, examined a removed card)."""


class FlipBudgetExceeded(RuntimeError):
    """The flip cap of a truncated run was reached before the game finished."""


@dataclass(frozen=True)
class SpaceBudget:
    """Memory budget: S bits for a game of n pairs.

    A stored position costs ceil(log2(2n)) bits since indices range over
    1..2n; `slots` is how many positions fit.  Loop counters and other
    bookkeeping are unmetered.
    """

    S: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.S < 0:
            raise ValueError(f"need S >= 0, got {self.S}")

    @property
    def bits_per_index(self) -> int:
        return (2 * self.n - 1).bit_length()

    @property
    def slots(self) -> int:
        return self.S // self.bits_per_index

    @classmethod
    def for_slots(cls, n: int, slots: int) -> "SpaceBudget":
        bits = (2 * n - 1).bit_length()
        return cls(S=slots * bits, n=n)


class GameHost:
    """Drives one game: owns the table, the working set, and the transcript.

    Subclasses answer the equality bits (`_equal_members`) and assign values
    to declared matches (`_declare_value`).
    """

    def __init__(self, n: int, slots: int, transcript: Transcript | None = None,
                 flip_cap: int | None = None):
        self.n = n
        self.slots = slots
        self.transcript = transcript if transcript is not None else Transcript()
        self.flip_cap = flip_cap
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
        if self.flip_cap is not None and self.transcript.flips + 1 > self.flip_cap:
            raise FlipBudgetExceeded(f"flip cap {self.flip_cap} reached")
        hits = self._equal_members(pos)
        self.transcript.add_flip(pos, len(self.working))
        return hits

    def store(self, pos: int) -> None:
        if pos in self.removed:
            raise ProtocolError(f"stored removed card {pos}")
        if pos in self.working:
            return
        if len(self.working) + 1 > self.slots:
            raise ProtocolError(f"working set overflow: {len(self.working) + 1} > {self.slots} slots")
        self.working.add(pos)
        self._on_store(pos)
        self.transcript.note_ws(len(self.working))

    def drop(self, pos: int) -> None:
        if pos in self.working:
            self.working.discard(pos)
            self._on_drop(pos)

    def clear_working(self) -> None:
        for pos in list(self.working):
            self.drop(pos)

    def declare(self, i: int, j: int) -> MatchTriple:
        """Output a match for positions i and j; the host supplies the value."""
        if i > j:
            i, j = j, i
        if i == j:
            raise ProtocolError(f"declared a position against itself: {i}")
        triple, matched = self._declare_value(i, j)
        self.transcript.add_output(triple)
        if matched:
            self.removed.add(i)
            self.removed.add(j)
            self.drop(i)
            self.drop(j)
        return triple

    def pass_boundary(self, index: int) -> None:
        self.transcript.add_pass(index)

    # -- backend hooks ---------------------------------------------------
    def _equal_members(self, pos: int) -> list[int]:
        raise NotImplementedError

    def _declare_value(self, i: int, j: int) -> tuple[MatchTriple, bool]:
        raise NotImplementedError

    def _on_store(self, pos: int) -> None:
        pass

    def _on_drop(self, pos: int) -> None:
        pass


class DeckHost(GameHost):
    """Host backed by a real deck; equality bits come from the card values."""

    def __init__(self, x: Deck, slots: int, transcript: Transcript | None = None,
                 flip_cap: int | None = None):
        super().__init__(len(x) // 2, slots, transcript, flip_cap)
        self.x = x
        self._stored_by_value: dict[int, list[int]] = {}

    def _equal_members(self, pos: int) -> list[int]:
        return sorted(self._stored_by_value.get(self.x[pos - 1], ()))

    def _declare_value(self, i: int, j: int) -> tuple[MatchTriple, bool]:
        v = self.x[i - 1]
        return MatchTriple(i, j, v), self.x[j - 1] == v

    def _on_store(self, pos: int) -> None:
        self._stored_by_value.setdefault(self.x[pos - 1], []).append(pos)

    def _on_drop(self, pos: int) -> None:
        bucket = self._stored_by_value.get(self.x[pos - 1])
        if bucket is not None:
            bucket.remove(pos)
            if not bucket:
                del self._stored_by_value[self.x[pos - 1]]


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
    a seeded permutation gives the randomized-order variant.
    """

    def __init__(self, order: list[int] | None = None, name: str = "multipass"):
        self.order = order
        self.name = name

    def play(self, host: GameHost) -> None:
        n2 = 2 * host.n
        s = min(host.slots, n2)
        if s < 1:
            raise ProtocolError("multipass needs at least one slot")
        order = self.order if self.order is not None else list(range(1, n2 + 1))
        blocks = -(-n2 // s)
        for b in range(blocks):
            if host.done():
                break
            block = [p for p in order[b * s:(b + 1) * s] if host.live(p)]
            if not block:
                continue
            host.clear_working()
            host.pass_boundary(b + 1)
            for p in block:
                hits = host.examine(p)
                if hits:
                    host.declare(hits[0], p)
                else:
                    host.store(p)
            if not host.working:
                continue
            for p in order[(b + 1) * s:]:
                if not host.working:
                    break
                if not host.live(p):
                    continue
                hits = host.examine(p)
                if hits:
                    host.declare(hits[0], p)


class FullMemory:
    """Baseline with unbounded recall: one scan, declaring matches on sight."""

    name = "perfect"

    def play(self, host: GameHost) -> None:
        for p in range(1, 2 * host.n + 1):
            if host.done():
                break
            if not host.live(p):
                continue
            hits = host.examine(p)
            if hits:
                host.declare(hits[0], p)
            else:
                host.store(p)


def randomized_order(n: int, seed: int) -> list[int]:
    """Seeded permutation of 1..2n for the randomized-order multipass variant."""
    order = list(range(1, 2 * n + 1))
    random.Random(seed).shuffle(order)
    return order


def make_strategy(name: str, n: int, seed: int = 0):
    """Shipped strategies by CLI name: multipass, rmultipass, perfect."""
    if name == "multipass":
        return MultiPass()
    if name == "rmultipass":
        return MultiPass(order=randomized_order(n, seed), name="rmultipass")
    if name == "perfect":
        return FullMemory()
    raise ValueError(f"unknown strategy {name!r}")


# ---------------------------------------------------------------------------
# Entry points

def multi_pass_play(x: Deck, budget: SpaceBudget, order: list[int] | None = None,
                    lean: bool = False) -> Transcript:
    """Run the blocked scanner on a deck and return its transcript."""
    if budget.slots < 1:
        raise ValueError(
            f"S={budget.S} bits stores no card index: need at least {budget.bits_per_index} bits")
    host = DeckHost(x, budget.slots, Transcript(lean=lean))
    MultiPass(order=order).play(host)
    return host.transcript


def multi_pass_time_bound(n: int, budget: SpaceBudget) -> int:
    """Flip ceiling ceil(2n/s) * 2n that multi_pass_play never exceeds."""
    if budget.slots < 1:
        raise ValueError("budget stores no card index")
    s = budget.slots
    return -(-2 * n // s) * 2 * n


def perfect_memory_play(x: Deck, lean: bool = False) -> Transcript:
    """Run the full-memory baseline; flips every position exactly once."""
    n = len(x) // 2
    host = DeckHost(x, 2 * n, Transcript(lean=lean))
    FullMemory().play(host)
    return host.transcript


def space_audit(t: Transcript, budget: SpaceBudget) -> bool:
    """True iff the recorded working-set sizes fit the budget at every step."""
    sizes = [e.b for e in t.events if e.kind == "flip"]
    if any(b < 0 for b in sizes):
        raise ValueError("transcript lacks working-set size records")
    peak = max(t.max_ws, max(sizes, default=0))
    return peak * budget.bits_per_index <= budget.S
