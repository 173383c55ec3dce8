"""Deck universe for the pair-matching card game.

A deck is a tuple of 2n values in 1..R in which exactly n distinct values
occur exactly twice each.  Positions and values are 1-based throughout,
including all serialized forms.  This module owns deck generation and
enumeration, pairing and match extraction, the event transcript every player
produces, and the brute-force verification report the test suite leans on.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterator, NamedTuple

# CPython's builtin SHA-256 gives hashlib's digest without loading OpenSSL,
# which hashlib does on import (about 3.5 MB of resident memory)
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

Deck = tuple[int, ...]

DEFAULT_ENUM_CAP = 10_000_000

# The most cells one array may hold: a deck's 2n cards, the adversary's n^2
# edges, a Monte Carlo draw.  A larger one is refused before it is allocated.
MAX_CELLS = 10**7


def check_cells(cells: int, what: str) -> None:
    if cells > MAX_CELLS:
        raise ValueError(f"{what} would take {cells} array cells, over the cap of {MAX_CELLS}")


class CapExceeded(ValueError):
    """An exhaustive computation would exceed its configured cap."""


class FlipBudgetExceeded(RuntimeError):
    """The flip cap of a truncated run was reached before the game finished."""


@dataclass(frozen=True)
class GameParams:
    """Deck shape: n pairs with values from 1..R, plus the RNG seed."""

    n: int
    R: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        check_cells(2 * self.n, f"{self.n} pairs")
        if self.R < self.n:
            raise ValueError(f"need R >= n, got R={self.R} < n={self.n}: no valid deck exists")


class MatchTriple(NamedTuple):
    """A declared match: positions i < j holding the same value v."""

    i: int
    j: int
    v: int


def derive_seed(seed: int, *parts) -> int:
    """Stable 63-bit child seed from a master seed and a label path.

    The split is sha256 over "seed:part/part/...", so any cell or trial of an
    experiment can be re-run in isolation from its recorded child seed.
    """
    text = f"{seed}:" + "/".join(str(p) for p in parts)
    return int.from_bytes(sha256(text.encode()).digest()[:8], "big") >> 1


def generate_valid_input(params: GameParams) -> Deck:
    """Uniformly random deck: a uniform size-n value set, then a uniform arrangement."""
    rng = random.Random(params.seed)
    vals = rng.sample(range(1, params.R + 1), params.n)
    deck = [v for v in vals for _ in (0, 1)]
    rng.shuffle(deck)
    return tuple(deck)


def count_valid_inputs(n: int, R: int) -> int:
    """|deck universe| = C(R,n) * (2n)! / 2^n."""
    return math.comb(R, n) * math.factorial(2 * n) // 2**n


def enumerate_valid_inputs(n: int, R: int) -> Iterator[Deck]:
    """Every valid deck exactly once, in canonical order.

    Order: value subsets ascending lexicographically, then the distinct
    arrangements of each subset's multiset in lexicographic order.  Refuses
    up front when the universe exceeds `DEFAULT_ENUM_CAP`.
    """
    if R < n:
        raise ValueError(f"need R >= n, got R={R} < n={n}")
    total = count_valid_inputs(n, R)
    if total > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"{total} decks for n={n}, R={R} exceeds cap {DEFAULT_ENUM_CAP}")
    return _enumerate_decks(n, R)


def _enumerate_decks(n: int, R: int) -> Iterator[Deck]:
    import itertools

    for subset in itertools.combinations(range(1, R + 1), n):
        counts = {v: 2 for v in subset}
        yield from _multiset_perms(counts, 2 * n, ())


def _multiset_perms(counts: dict[int, int], slots: int, prefix: Deck) -> Iterator[Deck]:
    if slots == 0:
        yield prefix
        return
    for v in sorted(counts):
        if counts[v] == 0:
            continue
        counts[v] -= 1
        yield from _multiset_perms(counts, slots - 1, prefix + (v,))
        counts[v] += 1


def validate_deck(x: Deck, R: int | None = None) -> int:
    """Check validity and return n; diagnostics name the offending multiplicities."""
    counts = Counter(x)
    if len(x) % 2 != 0:
        raise ValueError(f"deck length {len(x)} is odd")
    n = len(x) // 2
    bad = {v: c for v, c in counts.items() if c != 2}
    if bad or len(counts) != n:
        raise ValueError(f"invalid deck: value multiplicities {dict(sorted(bad.items()))} (need every value exactly twice)")
    if R is not None and any(v < 1 or v > R for v in counts):
        raise ValueError(f"deck values outside 1..{R}")
    return n


def deck_partners(x: Deck) -> list[int]:
    """partner[p]: the other position holding x[p - 1]; partner[0] = 0.

    Pairs the deck and checks it in one pass: on a valid deck partner is a
    permutation, while a value seen once (partner 0) or a third time (its
    first position again) repeats an entry; validate_deck words the refusal.
    """
    partner = [0] * (len(x) + 1)
    first: dict[int, int] = {}
    for pos, v in enumerate(x, start=1):
        q = first.setdefault(v, pos)
        if q != pos:
            partner[pos], partner[q] = q, pos
    if len(set(partner)) < len(partner):
        validate_deck(x)
    return partner


def matches_of(x: Deck) -> set[MatchTriple]:
    """The n matches of a valid deck, as (i, j, v) triples with i < j."""
    return {MatchTriple(i, j, x[i - 1]) for i, j in enumerate(deck_partners(x)) if i < j}


# ---------------------------------------------------------------------------
# Transcripts

class Event(NamedTuple):
    """One transcript event; the meaning of a/b/c depends on kind.

    flip:   a=position, b=working-set size at the flip (-1 if unrecorded)
    output: a=i, b=j, c=v
    pass:   a=pass index
    """

    kind: str
    a: int = 0
    b: int = 0
    c: int = 0


class Transcript:
    """The player's record of one game: flips, outputs and pass boundaries;
    the adversary's answers live only in its AdversaryLog.

    In lean mode only counters, outputs and the running working-set maximum
    are kept; the event list stays empty.  Output triples never repeat.  The
    transcript enforces a truncated run's flip cap: a flip past `cap` is not
    recorded but raises FlipBudgetExceeded, so no host checks it.
    """

    __slots__ = ("events", "flips", "passes", "outputs", "_seen", "max_ws", "lean", "cap")

    def __init__(self, lean: bool = False, cap: int | None = None):
        if cap is not None and cap < 0:
            raise ValueError(f"need a flip cap >= 0, got {cap}")
        self.events: list[Event] = []
        self.flips = 0
        self.passes = 0
        self.outputs: list[MatchTriple] = []
        self._seen: set[MatchTriple] = set()
        self.max_ws = 0
        self.lean = lean
        self.cap = cap

    def add_flip(self, pos: int, ws_size: int = -1) -> None:
        if self.cap is not None and self.flips >= self.cap:
            raise FlipBudgetExceeded(f"flip cap {self.cap} reached")
        self.flips += 1
        if ws_size > self.max_ws:
            self.max_ws = ws_size
        if not self.lean:
            self.events.append(Event("flip", pos, ws_size))

    def add_flip_count(self, k: int, ws_size: int) -> None:
        """Count k flips, none above working-set size `ws_size`, without
        naming them: a lean transcript only, since a full one records each
        flip's position.  Past the cap, the flips that fit are counted and
        then it raises."""
        if not self.lean:
            raise ValueError("a full transcript records each flip's position")
        if self.cap is not None and self.flips + k > self.cap:
            self.add_flip_count(self.cap - self.flips, ws_size)
            raise FlipBudgetExceeded(f"flip cap {self.cap} reached")
        if k > 0:
            self.flips += k
            if ws_size > self.max_ws:
                self.max_ws = ws_size

    def note_ws(self, size: int) -> None:
        if size > self.max_ws:
            self.max_ws = size

    def add_output(self, t: MatchTriple) -> None:
        if t in self._seen:
            raise ValueError(f"output repeated: {t}")
        self._seen.add(t)
        self.outputs.append(t)
        if not self.lean:
            self.events.append(Event("output", t.i, t.j, t.v))

    def add_pass(self, index: int) -> None:
        self.passes += 1
        if not self.lean:
            self.events.append(Event("pass", index))

    def flip_positions(self) -> list[int]:
        return [e.a for e in self.events if e.kind == "flip"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a transcript's outputs against a deck's matches."""

    ok: bool
    missing: tuple[MatchTriple, ...]
    unexpected: tuple[MatchTriple, ...]


def verify_transcript(x: Deck, t: Transcript) -> VerificationReport:
    """Report whether t's outputs are exactly matches_of(x); raises
    ValueError, as matches_of does, only when x is not a valid deck."""
    want = matches_of(x)
    got = set(t.outputs)
    missing = tuple(sorted(want - got))
    unexpected = tuple(sorted(got - want))
    ok = not missing and not unexpected and len(t.outputs) == len(want)
    return VerificationReport(ok, missing, unexpected)


# ---------------------------------------------------------------------------
# Serialization

def write_transcript_csv(t: Transcript, fh: IO[str]) -> None:
    """Event log as CSV with columns step,event,arg1,arg2,arg3."""
    fh.write("step,event,arg1,arg2,arg3\n")
    for k, e in enumerate(t.events, start=1):
        fh.write(f"{k},{e.kind},{e.a},{e.b},{e.c}\n")


def read_deck_file(fh: IO[str]) -> tuple[int, int, list[Deck]]:
    """Deck text format: header line "n R", then one deck per line as 2n
    space-separated values in 1..R; blank lines are skipped."""
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError("deck file must start with a header line: n R")
    n, R = int(header[0]), int(header[1])
    decks: list[Deck] = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        deck = tuple(int(tok) for tok in line.split())
        if len(deck) != 2 * n:
            raise ValueError(f"deck of length {len(deck)}, expected {2 * n}")
        decks.append(deck)
    return n, R, decks
