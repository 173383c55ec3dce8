import hashlib
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memlab.adversary
from memlab import (FlipBudgetExceeded, InvariantViolation, Transcript,
                    adversarial_play, involution_audit, kg_answer, kg_from_edges,
                    kg_init, kg_is_done, matches_of, replay_consistent,
                    perfect_matchings, useful_edges_brute, validate_deck,
                    vanish_closure)
from memlab.adversary import (AdversaryHost, AnswerEvents, AdversaryLog, InvolutionReport,
                              KnowledgeGraph, QueryRecord, StrategyRejected, _augment,
                              _run_filter, edge_key)
from memlab.strategies import PLAYERS, FullMemory, MultiPass, ProtocolError, make_strategy

# the random query streams below finish within 4,218 queries, and the random
# blind games within 910 flips, on every seed sampled (n <= 24); a filter
# that strands a vertex never finishes either
QUERY_BUDGET = 20_000


def _until_done(g, seed):
    """Yield once per query of a stream on g until g is a perfect matching;
    fail, naming the stream's seed, after QUERY_BUDGET queries."""
    for _ in range(QUERY_BUDGET):
        if kg_is_done(g):
            return
        yield
    if not kg_is_done(g):
        pytest.fail(f"seed {seed}: graph not finished after {QUERY_BUDGET} queries")


class GuessNow:
    """Deliberately incorrect player: declares (1, n+1) before looking at anything."""

    def play(self, host) -> None:
        host.declare(1, host.n + 1)


class FlipThenGuess:
    """Deliberately incorrect player: plays with full memory over a random
    prefix of a random order, then declares a random live pair the adversary
    has not forced, preferring present edges."""

    def __init__(self, seed: int):
        self.rnd = random.Random(seed)
        self.guess = None

    def play(self, host) -> None:
        rnd, n, g = self.rnd, host.n, host.kg
        order = rnd.sample(range(1, 2 * n + 1), 2 * n)
        # at most 2n-3 flips declare at most n-2 pairs; two live left cards are never forced
        for p in order[:rnd.randrange(2 * n - 2)]:
            hits = host.examine(p)
            if hits:
                host.declare(hits[0], p)
            else:
                host.store(p)
        live = [p for p in range(1, 2 * n + 1) if host.live(p)]
        keys = {(i, j): edge_key(n, i, j) for i in live for j in live if i < j}
        unforced = [e for e, key in keys.items() if key is None or not g.isolated(*key)]
        present = [e for e in unforced if keys[e] and g.adj[keys[e][0]] >> keys[e][1] & 1]
        self.guess = rnd.choice(present if present and rnd.random() < 0.75 else unforced)
        host.declare(*self.guess)


class TestInit:
    def test_n1_already_solved(self):
        g = kg_init(1)
        assert g.edges() == {(1, 2)}
        assert kg_is_done(g)

    def test_past_the_cell_cap_refused_before_building(self, monkeypatch):
        def refuse(self, n):  # a graph that gets past the cap would be built here
            raise AssertionError("built past the cell cap")
        monkeypatch.setattr(KnowledgeGraph, "__init__", refuse)
        with pytest.raises(ValueError, match="3163 pairs would take 10004569 array cells"):
            kg_init(3163)

    def test_n2_square(self):
        g = kg_init(2)
        assert len(g.edges()) == 4
        assert not kg_is_done(g)
        assert not any(g.isolated(l, r) for (l, r) in g.edges())

    def test_n5_every_edge_useful(self):
        g = kg_init(5)
        assert len(g.edges()) == 25
        assert useful_edges_brute(g) == g.edges()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_init_holds_what_a_full_filter_finds(self, n):
        g = kg_init(n)
        h = g.copy()
        assert _run_filter(h, range(1, n + 1)) == []
        assert h.edges() == g.edges()


class TestAnswer:
    def test_first_query_deletes_and_vanishes(self):
        g = kg_init(2)
        ans, ev = kg_answer(g, 1, 3)
        assert ans is False
        assert ev.deleted == (1, 3)
        assert ev.vanished == ((2, 4),)
        assert g.edges() == {(1, 4), (2, 3)}
        assert kg_is_done(g)

    def test_already_deleted_pair_no_mutation(self):
        g = kg_init(2)
        kg_answer(g, 1, 3)
        before = g.edges()
        ans, ev = kg_answer(g, 1, 3)
        assert ans is False and ev.deleted is None and ev.vanished == ()
        assert g.edges() == before

    def test_isolated_edge_forced_yes(self):
        g = kg_init(2)
        kg_answer(g, 1, 3)
        ans, ev = kg_answer(g, 1, 4)
        assert ans is True and ev.deleted is None and ev.vanished == ()

    def test_same_side_pair_is_free_no(self):
        g = kg_init(3)
        ans, ev = kg_answer(g, 1, 2)
        assert ans is False and ev.deleted is None
        assert len(g.edges()) == 9

    def test_self_query_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            kg_answer(kg_init(2), 3, 3)


class TestVanishClosure:
    def test_complete_graph_fixed_point(self):
        g = kg_init(4)
        assert vanish_closure(g) == []

    def test_path_graph_example(self):
        # L={1,2}, R={3,4}, edges {1,3},{1,4},{2,4}: {1,4} strands 2 and 3
        g = kg_from_edges(2, [(1, 3), (1, 4), (2, 4)])
        assert vanish_closure(g) == [(1, 4)]
        assert g.edges() == {(1, 3), (2, 4)}
        assert vanish_closure(g) == []  # idempotent

    def test_perfect_matching_fixed_point(self):
        g = kg_from_edges(3, [(1, 4), (2, 5), (3, 6)])
        assert vanish_closure(g) == []

    def test_no_perfect_matching_raises(self):
        with pytest.raises(InvariantViolation):
            kg_from_edges(2, [(1, 3), (2, 3)])

    def test_single_deletion_can_vanish_quadratically(self):
        # staircase plus one extra edge: deleting the extra edge forces the
        # diagonal matching, vanishing all n(n-1)/2 off-diagonal edges at once
        n = 6
        edges = [(n, n + 1)] + [(i, n + j) for i in range(1, n + 1)
                                for j in range(i, n + 1)]
        g = kg_from_edges(n, edges)
        assert vanish_closure(g) == []  # all edges useful to start
        assert useful_edges_brute(g) == g.edges()
        ans, ev = kg_answer(g, n, n + 1)
        assert ans is False
        assert len(ev.vanished) == n * (n - 1) // 2
        assert g.edges() == {(i, n + i) for i in range(1, n + 1)}


class TestFilterOracle:
    """The SCC filter must agree with brute-force enumeration of matchings."""

    def _audited_game(self, strategy, n, slots):
        checked = []

        def hook(g, vanished):
            present = g.edges()
            assert present == useful_edges_brute(g)
            # idempotence on the reachable graph
            clone = g.copy()
            assert vanish_closure(clone) == []
            # any edge in every perfect matching must be isolated
            pms = perfect_matchings(g)
            forced = set.intersection(*map(set, pms)) if pms else set()
            for (l, r) in forced:
                assert g.isolated(l, r), (l, r)
            checked.append(len(vanished))

        g = kg_init(n)
        g.closure_hook = hook
        host = AdversaryHost(g, slots, Transcript())
        strategy.play(host)
        return checked

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_after_every_closure(self, n):
        checked = self._audited_game(MultiPass(), n, max(1, n // 2))
        assert checked  # the hook actually ran


class _SetGraph:
    """Reference for kg_answer that shares no code with memlab.adversary: a
    set of neighbours per vertex, its own augmenting paths, and after every
    deletion Kosaraju's two searches over all n left vertices of the
    left-vertex digraph (l -> mate[r] for each r in adj[l])."""

    def __init__(self, n, edges):
        self.n = n
        self.adj = {v: set() for v in range(1, 2 * n + 1)}
        for l, r in edges:
            self.adj[l].add(r)
            self.adj[r].add(l)
        self.mate = {}
        for l in range(1, n + 1):
            assert self._augment(l, set())

    def edges(self):
        return {(l, r) for l in range(1, self.n + 1) for r in self.adj[l]}

    def _augment(self, l, seen):
        for r in sorted(self.adj[l]):
            if r in seen:
                continue
            seen.add(r)
            if r not in self.mate or self._augment(self.mate[r], seen):
                self.mate[l], self.mate[r] = r, l
                return True
        return False

    def answer(self, i, j):
        l, r = min(i, j), max(i, j)
        if not l <= self.n < r or r not in self.adj[l]:
            return False, AnswerEvents()
        if self.adj[l] == {r} and self.adj[r] == {l}:
            return True, AnswerEvents()
        self.adj[l].discard(r)
        self.adj[r].discard(l)
        if self.mate[l] == r:
            del self.mate[l], self.mate[r]
            assert self._augment(l, set())
        return False, AnswerEvents((l, r), tuple(self._filter()))

    def _filter(self):
        adj, mate = self.adj, self.mate
        comp = [0] * (self.n + 1)
        order = []
        for root in range(1, self.n + 1):
            if comp[root]:
                continue
            comp[root] = -1
            path = [root]
            its = [iter(adj[root])]
            while its:
                for r in its[-1]:
                    w = mate[r]
                    if not comp[w]:
                        comp[w] = -1
                        path.append(w)
                        its.append(iter(adj[w]))
                        break
                else:
                    order.append(path.pop())
                    its.pop()
        vanished = []
        for root in reversed(order):
            if comp[root] >= 0:
                continue
            comp[root] = root
            stack = [root]
            while stack:
                r = mate[stack.pop()]
                for x in adj[r]:
                    if comp[x] < 0:
                        comp[x] = root
                        stack.append(x)
                    elif comp[x] != root:
                        vanished.append((x, r))
        for l, r in vanished:
            adj[l].discard(r)
            adj[r].discard(l)
        return sorted(vanished)


class TestDecrementalFilter:
    """kg_answer's probe-then-rescan-from-mate[r] path against a full rescan
    on edge sets."""

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_query_stream_matches_full_rescan(self, seed):
        # uniform pairs delete matched edges far more often than the shipped
        # strategies, so both probe outcomes follow augmentations here
        rnd = random.Random(seed)
        n = rnd.randint(2, 24)
        fast = kg_init(n)
        slow = _SetGraph(n, fast.edges())
        assert len(fast.edges()) == n * n  # a stream that starts finished checks nothing
        for _ in _until_done(fast, seed):
            i, j = rnd.sample(range(1, 2 * n + 1), 2)
            got = kg_answer(fast, i, j)
            assert got == slow.answer(i, j), (seed, i, j)
            assert fast.edges() == slow.edges()
        assert all(len(a) == 1 for a in slow.adj.values())


class TestRandomGraphs:
    """The filter on graphs no game reaches: several components and degree-1
    left vertices."""

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_filter_keeps_exactly_the_useful_edges(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 6)
        density = rnd.random()
        rights = rnd.sample(range(n + 1, 2 * n + 1), n)  # a planted perfect matching
        edges = {(l, rights[l - 1]) for l in range(1, n + 1)}
        edges |= {(l, r) for l in range(1, n + 1) for r in range(n + 1, 2 * n + 1)
                  if rnd.random() < density}
        g = kg_from_edges(n, edges)
        useful = useful_edges_brute(g)
        vanish_closure(g)
        assert g.edges() == useful
        for _ in _until_done(g, seed):
            i, j = rnd.sample(range(1, 2 * n + 1), 2)
            kg_answer(g, i, j)
            assert g.edges() == useful_edges_brute(g), (seed, i, j)


def _reach_by_mates(g, l):
    """Left vertices that l reaches in the left-vertex digraph, as the mask of
    their mates, by a set-based search that shares no code with the module."""
    n = g.n
    seen = {g.mate[l]}
    stack = [l]
    while stack:
        x = stack.pop()
        for y in range(n + 1, 2 * n + 1):
            if g.adj[x] >> y & 1 and y not in seen:
                seen.add(y)
                stack.append(g.mate[y])
    return sum(1 << y for y in seen)


class TestHandedReach:
    """A failed probe's reach F = SCC(l), handed to the filter as its sink,
    against a full filter over all left vertices."""

    @staticmethod
    def _answer_checked(g, l, r):
        """kg_answer(g, l, r) on a present non-isolated edge of a filtered g,
        after repeating its deletion on a copy: when l no longer reaches
        mate[r], the sink filter and a full filter must vanish the same
        edges and leave the same rows, which kg_answer must match.  Returns
        whether the probe failed."""
        h = g.copy()
        h.adj[l] ^= 1 << r
        h.adj[r] ^= 1 << l
        if h.mate[l] == r:
            h.mate[r] = 0
            assert _augment(h, l)
        sink = _reach_by_mates(h, l)
        ans, ev = kg_answer(g, l, r)
        assert ans is False and ev.deleted == (l, r)
        if sink >> r & 1:
            assert ev.vanished == ()
            return False
        handed, full = h.copy(), h.copy()
        got = _run_filter(handed, [h.mate[r]], sink)
        assert got == _run_filter(full, range(1, h.n + 1))
        assert handed.adj == full.adj and handed.mate == h.mate
        assert ev.vanished == tuple(got) and g.adj == full.adj
        return True

    def test_three_way_split(self):
        # left-vertex digraph under the diagonal matching u <-> 6+u, where
        # u -> v is the edge (u, 6+v): F = {1, 2}, M = {3, 4} and A = {5, 6}
        # are cycles joined by A -> M -> F, A -> F and F -> A.  Deleting
        # 1 -> 5 leaves F a sink; C minus F splits again into M and A.
        n = 6
        g = KnowledgeGraph(n)
        for u, v in [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5),
                     (5, 3), (3, 1), (6, 2), (1, 5)] + [(u, u) for u in range(1, 7)]:
            g.adj[u] |= 1 << 6 + v
            g.adj[6 + v] |= 1 << u
        g.mate = [0] + list(range(7, 13)) + list(range(1, 7))
        assert vanish_closure(g) == []
        assert self._answer_checked(g, 1, 11)
        assert g.edges() == {(1, 7), (1, 8), (2, 7), (2, 8), (3, 9), (3, 10), (4, 9),
                             (4, 10), (5, 11), (5, 12), (6, 11), (6, 12)}

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_every_failed_probe_agrees_with_a_full_filter(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(2, 12)
        rights = rnd.sample(range(n + 1, 2 * n + 1), n)  # a planted perfect matching
        edges = {(l, rights[l - 1]) for l in range(1, n + 1)}
        density = rnd.random()
        edges |= {(l, r) for l in range(1, n + 1) for r in range(n + 1, 2 * n + 1)
                  if rnd.random() < density}
        g = kg_from_edges(n, edges)
        vanish_closure(g)
        for _ in _until_done(g, seed):
            l, r = rnd.choice(sorted(g.edges()))
            if not g.isolated(l, r):
                self._answer_checked(g, l, r)


class TestRealize:
    def test_final_matching_structure(self):
        res = adversarial_play(MultiPass(), 2, 2)
        x = res.realized
        assert res.matching == ((1, 4), (2, 3))
        assert validate_deck(x, R=2) == 2
        assert x[0] == x[3] and x[1] == x[2] and x[0] != x[1]
        assert matches_of(x) == set(res.transcript.outputs)

    def test_n1(self):
        assert adversarial_play(MultiPass(), 1, 1).realized == (1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_replay_reproduces_every_answer(self, n):
        res = adversarial_play(MultiPass(), n, 2)
        assert res.complete
        assert replay_consistent(res)

    def test_no_realized_deck_is_not_consistent(self):
        res = adversarial_play(GuessNow(), 3, 6)
        assert res.incorrect and res.realized is None
        assert replay_consistent(res) is False


def _phi(n, matching, e):
    pm = dict(matching)
    left_of = {r: l for l, r in pm.items()}
    l, r = e
    return (left_of[r], pm[l])


def involution_audit_reference(log: AdversaryLog, matching) -> InvolutionReport:
    """Oracle for involution_audit: builds the pairing as a map phi and checks,
    edge by edge, that it is a fixed-point-free involution off the matching."""
    n = log.n
    pm = {l: r for l, r in matching}
    if len(pm) != n or sorted(pm) != list(range(1, n + 1)):
        raise ValueError("final matching must pair every left position")
    failures: list[tuple] = []
    seen: set[tuple[int, int]] = set()
    pair_count = 0
    for l in range(1, n + 1):
        for r in range(n + 1, 2 * n + 1):
            if pm[l] == r:
                continue
            e = (l, r)
            fe = _phi(n, matching, e)
            if _phi(n, matching, fe) != e:
                failures.append(("not-involutive", e, fe))
                continue
            if fe == e:
                failures.append(("fixed-point", e))
                continue
            if e in seen:
                continue
            seen.add(e)
            seen.add(fe)
            pair_count += 1
            st_e = log.status.get(e)
            st_f = log.status.get(fe)
            if st_e is None or st_f is None:
                failures.append(("still-present", e, fe))
            elif st_e != "deleted" and st_f != "deleted":
                failures.append(("pair-entirely-vanished", e, fe))
    accounting_ok = log.deletions + log.vanishings == n * (n - 1)
    lower_bound_ok = log.deletions >= n * (n - 1) // 2
    claim_ok = not failures
    return InvolutionReport(
        ok=claim_ok and accounting_ok and lower_bound_ok,
        claim_ok=claim_ok,
        accounting_ok=accounting_ok,
        lower_bound_ok=lower_bound_ok,
        pair_count=pair_count,
        deletions=log.deletions,
        vanishings=log.vanishings,
        failures=tuple(failures),
    )


class RandomBlindPlayer:
    """Correct by construction: examines a random live card and declares only
    on a hit.  A miss is stored, swapped for a random stored card, or
    forgotten.  Fails, naming its seed, after QUERY_BUDGET flips."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rnd = random.Random(seed)

    def play(self, host) -> None:
        rnd = self.rnd
        for _ in range(QUERY_BUDGET):
            if host.done():
                return
            # the later of two stored cards was examined against the earlier
            # and missed, so stored cards are never partners: some live card
            # lies outside the working set
            p = rnd.choice([q for q in range(1, 2 * host.n + 1)
                            if host.live(q) and q not in host.working])
            hits = host.examine(p)
            if hits:
                host.declare(hits[0], p)
                continue
            move = rnd.randrange(3)
            if move == 0 and len(host.working) < host.slots:
                host.store(p)
            elif move == 1 and host.working:
                host.working.discard(rnd.choice(sorted(host.working)))
                host.store(p)
        if not host.done():
            pytest.fail(f"seed {self.seed}: game not finished after {QUERY_BUDGET} flips")


class TestInvolution:
    def test_n2_single_query_run(self):
        res = adversarial_play(FullMemory(), 2, 4)
        rep = involution_audit(res.log, res.matching)
        assert rep.ok and rep.pair_count == 1
        assert rep.deletions >= 1

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_phi_is_fixed_point_free_involution(self, rnd):
        n = 5
        rights = list(range(n + 1, 2 * n + 1))
        rnd.shuffle(rights)
        matching = [(l, rights[l - 1]) for l in range(1, n + 1)]
        pm = dict(matching)
        non_m = [(l, r) for l in range(1, n + 1)
                 for r in range(n + 1, 2 * n + 1) if pm[l] != r]
        assert len(non_m) == 20
        for e in non_m:
            fe = _phi(n, matching, e)
            assert fe != e
            assert _phi(n, matching, fe) == e

    def test_random_stream_deletes_more_than_half(self):
        # deletions == n(n-1)/2 is not an identity: random queries can delete
        # both edges of an involution pair, so the audit must check >=
        rnd = random.Random(0)
        n = rnd.randint(2, 9)
        g = kg_init(n)
        everything = kg_init(n).edges()
        log = AdversaryLog(n)
        for _ in _until_done(g, 0):
            i, j = rnd.sample(range(1, 2 * n + 1), 2)
            log.note(i, j, *kg_answer(g, i, j))
            # the audit reads the log's trail alone: it names every removed
            # edge, and each exactly once
            assert set(log.status) == everything - g.edges()
            assert log.deletions + log.vanishings == len(log.status)
        rep = involution_audit(log, [(l, g.mate[l]) for l in range(1, n + 1)])
        assert (n, rep.deletions, rep.vanishings) == (8, 46, 10)
        assert rep.deletions > n * (n - 1) // 2
        assert rep.ok

    @given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_audit_agrees_with_reference(self, rnd, n):
        rights = list(range(n + 1, 2 * n + 1))
        rnd.shuffle(rights)
        matching = list(zip(range(1, n + 1), rights))
        rnd.shuffle(matching)
        pm = dict(matching)
        status = {}
        for l in range(1, n + 1):
            for r in range(n + 1, 2 * n + 1):
                kind = rnd.choice(("deleted", "vanished", None))
                if pm[l] != r and kind is not None:
                    status[(l, r)] = kind
        log = AdversaryLog(n)
        log.status = status
        log.deletions = list(status.values()).count("deleted")
        log.vanishings = len(status) - log.deletions
        rep = involution_audit(log, matching)
        ref = involution_audit_reference(log, matching)
        assert rep.pair_count == n * (n - 1) // 2
        assert set(rep.failures) == set(ref.failures)
        assert len(rep.failures) == len(ref.failures)
        assert rep == replace(ref, failures=rep.failures)

    @pytest.mark.parametrize("matching", [
        [(1, 4), (2, 4), (3, 5)],   # right vertex 4 twice
        [(1, 4), (2, 5), (3, 7)],   # right vertex 7 outside 4..6
        [(1, 4), (2, 5)],           # left vertex 3 unmatched
        [(1, 4), (2, 5), (3, 6), (3, 6)],
    ])
    def test_non_bijective_matching_raises(self, matching):
        log = AdversaryLog(3)
        with pytest.raises(ValueError, match="one-to-one"):
            involution_audit(log, matching)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_finished_runs_pass_audit(self, n):
        for slots in (1, 2, n):
            res = adversarial_play(MultiPass(), n, slots)
            rep = involution_audit(res.log, res.matching)
            assert rep.ok, (n, slots, rep.failures)
            assert rep.deletions + rep.vanishings == n * (n - 1)
            assert rep.deletions >= n * (n - 1) // 2


class TestAdversarialPlay:
    def test_host_logs_against_its_own_graph(self):
        g = kg_init(3)
        host = AdversaryHost(g, 2, keep_records=False)
        assert host.log.n == 3 and host.log.status == {}
        with pytest.raises(ValueError, match="at least one slot"):
            adversarial_play(MultiPass(), 3, 0)

    def test_n2_query_floor(self):
        res = adversarial_play(MultiPass(), 2, 1)
        assert res.complete
        assert res.log.queries >= 1

    def test_n8_any_slots_at_least_28_queries(self):
        for slots in (1, 2, 4, 8, 16):
            res = adversarial_play(MultiPass(), 8, slots)
            assert res.complete
            assert res.log.queries >= 28

    def test_outputs_equal_realized_matching(self):
        res = adversarial_play(MultiPass(), 5, 2)
        assert res.complete
        pairs = {(o.i, o.j) for o in res.transcript.outputs}
        assert pairs == set(res.matching)
        assert {(o.i, o.j, o.v) for o in res.transcript.outputs} == \
            set(map(tuple, matches_of(res.realized)))

    def test_immediate_guess_rejected_with_counterexample(self):
        res = adversarial_play(GuessNow(), 4, 8)
        assert res.incorrect
        assert res.rejected_pair == (1, 5)
        x = res.counterexample
        assert validate_deck(x, R=4) == 4
        assert x[0] != x[4]  # the guessed pair really is refutable

    def test_refuting_a_guess_leaves_the_live_graph_alone(self):
        # the counterexample asks kg_answer on a copy of the graph
        g = kg_init(4)
        host = AdversaryHost(g, 8)
        host.examine(1)
        host.store(1)
        host.examine(5)
        before = (list(g.adj), list(g.mate))
        with pytest.raises(StrategyRejected) as rej:
            host.declare(2, 6)
        x = rej.value.counterexample
        assert x[1] != x[5] and x[0] != x[4]
        assert (g.adj, g.mate) == before

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_mid_game_guess_rejected_with_counterexample(self, n, seed):
        player = FlipThenGuess(seed)
        res = adversarial_play(player, n, 2 * n)
        assert res.incorrect and res.rejected_pair == player.guess
        x = res.counterexample
        assert validate_deck(x, R=n) == n
        i, j = player.guess
        assert x[i - 1] != x[j - 1]
        assert all(rec.answer == (x[rec.i - 1] == x[rec.j - 1]) for rec in res.log.records)
        assert all(x[o.i - 1] == x[o.j - 1] == o.v for o in res.transcript.outputs)
        # the counterexample works on a copy: the log holds only the answers' deletions
        assert list(res.log.status.values()).count("deleted") == res.log.deletions

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_blind_player_meets_every_identity(self, n, seed, data):
        s = data.draw(st.integers(min_value=1, max_value=2 * n))
        res = adversarial_play(RandomBlindPlayer(seed), n, s)
        assert res.complete and not res.incorrect
        assert res.log.deletions + res.log.vanishings == n * (n - 1)
        assert res.log.queries >= n * (n - 1) // 2
        assert involution_audit(res.log, res.matching).ok
        assert replay_consistent(res)

    def test_capped_game_stops_at_the_cap_and_asks_nothing_past_it(self):
        # the cap lives in the transcript, so the adversary host truncates
        # with no code of its own; the capped flip is refused before it queries
        def game(cap):
            g = kg_init(6)
            host = AdversaryHost(g, 2, Transcript(cap=cap))
            try:
                MultiPass().play(host)
            except FlipBudgetExceeded as e:
                return host.transcript, host.log, str(e)
            return host.transcript, host.log, None

        full, full_log, err = game(None)
        assert err is None
        sizes = [e.b for e in full.events if e.kind == "flip"]
        assert (full.flips, full_log.queries) == (24, 36)
        for k in range(full.flips):
            t, log, err = game(k)
            assert err == f"flip cap {k} reached"
            assert t.flips == k
            assert log.queries == sum(sizes[:k])
            assert log.records == full_log.records[:log.queries]
        t, log, err = game(full.flips)
        assert err is None and log.records == full_log.records

    def test_stored_card_examined_again_hits_itself_without_a_query(self):
        # as on a deck host: the player then declares the card against itself
        g = kg_init(3)
        host = AdversaryHost(g, 2)
        with pytest.raises(ProtocolError, match="declared a position against itself: 1"):
            host.fill([1, 1])
        assert (host.transcript.flips, host.log.queries) == (2, 0)

    def test_termination_accounting_every_strategy(self):
        for n in (2, 3, 5, 7):
            for name in ("multipass", "rmultipass", "perfect"):
                strat = make_strategy(name, n, seed=11)
                res = adversarial_play(strat, n, max(1, n // 2) if name != "perfect" else 2 * n)
                assert res.complete, (n, name)
                assert res.log.deletions + res.log.vanishings == n * (n - 1)


class _QueryHost(AdversaryHost):
    """The host answering one query per frame: a kg_answer call for each
    other stored position, then log.removed on a deletion.  Oracle for
    AdversaryHost, which answers a whole flip in one frame."""

    def _equal_members(self, pos):
        kg, log, working = self.kg, self.log, self.working
        log.queries += len(working) - (pos in working)
        hits = []
        for j in sorted(working):
            if j == pos:
                hits.append(j)
                continue
            a, b = (pos, j) if pos < j else (j, pos)
            ans, events = kg_answer(kg, a, b)
            if log._keep:
                log.records.append(QueryRecord(a, b, ans))
            if ans:
                hits.append(j)
            elif events.deleted is not None:
                log.removed(events.deleted, events.vanished)
        return hits


def _hosted_play(monkeypatch, host_cls, player, n, s, keep_records=True, hook=None):
    """adversarial_play on a host of class `host_cls`, whose graph has
    `hook` as its closure_hook."""
    class Host(host_cls):
        def __init__(self, kg, *args, **kwargs):
            kg.closure_hook = hook
            super().__init__(kg, *args, **kwargs)

    monkeypatch.setattr(memlab.adversary, "AdversaryHost", Host)
    return adversarial_play(player, n, s, keep_records=keep_records)


def _outcome(res):
    """Everything a game leaves behind, in the order it was written."""
    log, t = res.log, res.transcript
    return (log.records, list(log.status.items()), log.queries, log.deletions,
            log.vanishings, t.flips, t.outputs, res.complete, res.incorrect, res.matching,
            res.realized, res.rejected_pair, res.counterexample)


_ORACLE_GAMES = [(name, n, s) for n in (1, 2, 3, 5, 8, 13, 24) for name in PLAYERS
                 for s in sorted({1, 2, n, 2 * n}) if name != "perfect" or s == 2 * n]


class TestOneFrameFlip:
    """AdversaryHost against _QueryHost: the same answers, records, fates,
    counts, outputs and decks, and the same vanish lists handed to the
    closure hook."""

    @staticmethod
    def _both(monkeypatch, make_player, n, s, keep_records, hooked):
        """Play fresh players on both hosts; returns the one-frame host's result."""
        seen = []
        for host_cls in (AdversaryHost, _QueryHost):
            vanishes = []
            hook = (lambda g, vanished: vanishes.append(list(vanished))) if hooked else None
            res = _hosted_play(monkeypatch, host_cls, make_player(), n, s, keep_records, hook)
            seen.append((_outcome(res), vanishes))
        assert seen[0] == seen[1], (n, s, keep_records)
        return res

    @pytest.mark.parametrize("keep_records", [True, False])
    @pytest.mark.parametrize("hooked", [False, True])
    def test_shipped_players(self, monkeypatch, keep_records, hooked):
        for name, n, s in _ORACLE_GAMES:
            res = self._both(monkeypatch, lambda: make_strategy(name, n, n), n, s,
                             keep_records, hooked)
            assert res.complete, (name, n, s)

    @pytest.mark.parametrize("keep_records", [True, False])
    @pytest.mark.parametrize("hooked", [False, True])
    def test_refuted_guesses(self, monkeypatch, keep_records, hooked):
        for n in (2, 3, 5, 8, 13, 24):
            for seed in range(4):
                res = self._both(monkeypatch, lambda: FlipThenGuess(seed), n, 2 * n,
                                 keep_records, hooked)
                assert res.incorrect and res.rejected_pair is not None


class TestClosureHook:
    def test_fires_once_per_host_deletion(self, monkeypatch):
        for name, n, s in [("multipass", 12, 1), ("rmultipass", 12, 5), ("perfect", 12, 24)]:
            fired = []
            res = _hosted_play(monkeypatch, AdversaryHost, make_strategy(name, n, 3), n, s,
                               hook=lambda g, vanished: fired.append(vanished))
            assert res.complete and res.log.deletions > 0
            assert len(fired) == res.log.deletions
            assert sum(map(len, fired)) == res.log.vanishings

    def test_fires_once_per_deleting_answer(self):
        rnd = random.Random(5)
        n = 6
        g = kg_init(n)
        fired = []
        g.closure_hook = lambda g, vanished: fired.append(tuple(vanished))
        kinds = set()

        def ask(i, j):
            before = len(fired)
            ans, ev = kg_answer(g, i, j)
            kinds.add("yes" if ans else "delete" if ev.deleted else "no")
            assert fired[before:] == ([ev.vanished] if ev.deleted else [])

        for _ in _until_done(g, 5):
            ask(*rnd.sample(range(1, 2 * n + 1), 2))
        for l in range(1, n + 1):  # every remaining edge is forced
            ask(l, g.mate[l])
        assert kinds == {"yes", "delete", "no"}


class TestAnswerDigest:
    """Pins what the adversary says, not which perfect matching it holds."""

    GAMES = [("multipass", 64, 1, 0), ("multipass", 45, 6, 1),
             ("rmultipass", 64, 3, 0), ("rmultipass", 50, 1, 1),
             ("perfect", 64, 128, 0), ("perfect", 41, 82, 1)]

    def test_every_answer_and_game_count_is_pinned(self, monkeypatch):
        # sha256 over each query's (i, j, answer, deleted, vanished), as
        # kg_answer would return it, and each game's (queries, deletions,
        # vanishings, audit ok).  The host answers a flip without kg_answer,
        # so the stream is rebuilt from the kept records and a tap on the one
        # deletion path: a record names the next deletion exactly when its
        # pair is that deletion's edge, since a removed edge is never asked
        # to delete again.
        h = hashlib.sha256()
        deletions = []
        delete = memlab.adversary._delete

        def tapped(g, l, r):
            vanished = delete(g, l, r)
            deletions.append(((l, r), tuple(vanished)))
            return vanished

        monkeypatch.setattr(memlab.adversary, "_delete", tapped)
        for name, n, s, seed in self.GAMES:
            deletions.clear()
            res = adversarial_play(make_strategy(name, n, seed), n, s)
            fates = iter(deletions)
            fate = next(fates, None)
            for rec in res.log.records:
                deleted, vanished = None, ()
                if fate is not None and fate[0] == (rec.i, rec.j):
                    (deleted, vanished), fate = fate, next(fates, None)
                h.update(repr((rec.i, rec.j, rec.answer, deleted, vanished)).encode())
            assert fate is None  # every deletion answered a recorded query
            h.update(repr((res.log.queries, res.log.deletions, res.log.vanishings,
                           involution_audit(res.log, res.matching).ok)).encode())
        assert h.hexdigest() == "6f642426ca86c2b073573a8f2c1dcfecc84e79a6fb62ed926f63371116b391f0"

    def test_every_edge_fate_is_pinned(self):
        # sha256 over each game's removed edges and how each went
        h = hashlib.sha256()
        for name, n, s, seed in self.GAMES:
            res = adversarial_play(make_strategy(name, n, seed), n, s, keep_records=False)
            h.update(repr(sorted(res.log.status.items())).encode())
        assert h.hexdigest() == "ef37ab2c30660d916027f6dc0e88ef63695e50d1df068de82cede1728f7e74e3"

    def test_every_declared_value_is_pinned(self):
        # sha256 over the rejected pair and counterexample of 160 refuted
        # guesses, then over the realized deck of each game
        h = hashlib.sha256()
        for n in range(2, 10):
            for seed in range(20):
                res = adversarial_play(FlipThenGuess(seed), n, 2 * n)
                h.update(repr((res.rejected_pair, res.counterexample)).encode())
        for name, n, s, seed in self.GAMES:
            res = adversarial_play(make_strategy(name, n, seed), n, s, keep_records=False)
            h.update(repr(res.realized).encode())
        assert h.hexdigest() == "f39cc02116970b848704d89c20afcc39d1ef2460d0a2280c3684ae7b52884867"


class TestKgFromEdges:
    def test_complete_graph(self):
        g = kg_from_edges(6, kg_init(6).edges())
        assert sorted(g.mate[l] for l in range(1, 7)) == list(range(7, 13))
        assert all(g.mate[g.mate[l]] == l for l in range(1, 7))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(2, 5)
        edges = [(l, r) for l in range(1, n + 1)
                 for r in range(n + 1, 2 * n + 1) if rnd.random() < 0.5]
        adj = {l: {r for l2, r in edges if l2 == l} for l in range(1, n + 1)}

        def brute(l, used):
            if l > n:
                return 0
            best = brute(l + 1, used)
            for r in adj[l]:
                if r not in used:
                    best = max(best, 1 + brute(l + 1, used | {r}))
            return best

        if brute(1, frozenset()) < n:
            with pytest.raises(InvariantViolation):
                kg_from_edges(n, edges)
            return
        g = kg_from_edges(n, edges)
        assert sorted(g.mate[l] for l in range(1, n + 1)) == list(range(n + 1, 2 * n + 1))
        assert all(g.mate[l] in adj[l] and g.mate[g.mate[l]] == l for l in range(1, n + 1))


def _staircase(n):
    """Band graph: left i sees right n+i and n+i+1.  Its only perfect matching
    is the diagonal, and an augmenting path in it can run the whole band."""
    return [(i, n + i) for i in range(1, n + 1)] + [(i, n + i + 1) for i in range(1, n)]


class TestDeepPaths:
    """Matching searches must not recurse once per path step."""

    def test_kg_from_edges_on_n5000_staircase(self):
        n = 5000
        g = kg_from_edges(n, _staircase(n))
        assert all(g.mate[l] == n + l for l in range(1, n + 1))

    def test_augment_path_longer_than_recursion_limit(self):
        # matching l <-> n+l+1 leaves left n and right n+1 free; the only
        # augmenting path walks n, 2n, n-1, 2n-1, ..., 1, n+1
        n = sys.getrecursionlimit() + 100
        g = KnowledgeGraph(n)
        for l, r in _staircase(n):
            g.adj[l] |= 1 << r
            g.adj[r] |= 1 << l
        for l in range(1, n):
            g.mate[l], g.mate[n + l + 1] = n + l + 1, l
        assert _augment(g, n)
        assert all(g.mate[l] == n + l and g.mate[n + l] == l for l in range(1, n + 1))
