import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlab import (GameParams, MatchTriple, SpaceBudget, Transcript, adversarial_play,
                    enumerate_valid_inputs, generate_valid_input, matches_of, multi_pass_play,
                    multi_pass_time_bound, space_audit,
                    verify_transcript)
from memlab.analysis import monte_carlo_wrap
from memlab.game_core import deck_partners
from memlab.strategies import (DeckHost, FlipBudgetExceeded, FullMemory, GameHost, MultiPass,
                               ProtocolError, make_strategy, randomized_order)


class TestSpaceBudget:
    @pytest.mark.parametrize("n,bits", [(1, 1), (2, 2), (3, 3), (4, 3), (8, 4), (256, 9)])
    def test_bits_per_index(self, n, bits):
        assert SpaceBudget(10, n).bits_per_index == bits

    def test_slots(self):
        b = SpaceBudget(9, 8)  # 4 bits per index
        assert b.slots == 2
        assert SpaceBudget.for_slots(8, 2).S == 8

    def test_too_small_budget_names_minimum(self):
        with pytest.raises(ValueError, match="at least 2 bits"):
            SpaceBudget(1, 2)

    def test_deck_players_refuse_zero_slots(self):
        x = (1, 2, 1, 2)
        with pytest.raises(ValueError, match="at least one slot"):
            multi_pass_play(x, 0)
        with pytest.raises(ValueError, match="at least one slot"):
            monte_carlo_wrap(MultiPass(), 10).play(x, 0)


class TestMultiPass:
    def test_everything_fits_one_pass(self):
        # n=2, s=4: one pass, 4 flips, both matches
        for x in enumerate_valid_inputs(2, 2):
            t = multi_pass_play(x, 4)
            assert t.flips == 4
            assert t.passes == 1
            assert verify_transcript(x, t).ok

    def test_single_slot_worst_case(self):
        # oracle: exhaustive run over all 6 decks; worst T hand-traced to 6
        bound = multi_pass_time_bound(SpaceBudget.for_slots(2, 1))
        assert bound == 16
        worst = 0
        for x in enumerate_valid_inputs(2, 2):
            t = multi_pass_play(x, 1)
            assert verify_transcript(x, t).ok
            assert t.flips <= bound
            worst = max(worst, t.flips)
        assert worst == 6

    def test_n4_s2_hundred_decks(self):
        bound = multi_pass_time_bound(SpaceBudget.for_slots(4, 2))
        assert bound == 32
        for k in range(100):
            x = generate_valid_input(GameParams(4, 4, k))
            t = multi_pass_play(x, 2)
            assert verify_transcript(x, t).ok
            assert t.flips <= bound

    def test_working_set_never_exceeds_slots(self):
        budget = SpaceBudget.for_slots(6, 3)
        for k in range(20):
            x = generate_valid_input(GameParams(6, 6, k))
            t = multi_pass_play(x, 3)
            assert space_audit(t, budget)

    @given(st.integers(min_value=0, max_value=10**9),
           st.sampled_from([1, 2, 3, 5, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_correct_on_random_decks(self, seed, s):
        x = generate_valid_input(GameParams(8, 8, seed))
        t = multi_pass_play(x, s, lean=True)
        assert set(t.outputs) == matches_of(x)
        assert t.flips <= multi_pass_time_bound(SpaceBudget.for_slots(8, s))

    @pytest.mark.parametrize("order", [[1, 2, 3], [1, 2, 3, 3], [1, 2, 3, 5], [0, 1, 2, 3],
                                       [1, 2, 3, 4, 1]])
    def test_order_that_is_no_permutation_refused_before_a_flip(self, order):
        x = (1, 2, 1, 2)
        for lean in (False, True):
            host = DeckHost(x, 2, Transcript(lean=lean))
            with pytest.raises(ValueError, match="not a permutation of 1..4"):
                MultiPass(order=order).play(host)
            assert host.transcript.flips == 0 and not host.transcript.outputs
            with pytest.raises(ValueError, match="not a permutation"):
                multi_pass_play(x, 2, order=order, lean=lean)
        with pytest.raises(ValueError, match="not a permutation"):
            adversarial_play(MultiPass(order=order), 2, 2)


class TestTimeBound:
    @pytest.mark.parametrize("n,s,want", [(2, 4, 4), (2, 1, 16), (64, 8, 2048)])
    def test_formula(self, n, s, want):
        assert multi_pass_time_bound(SpaceBudget.for_slots(n, s)) == want


def _perfect_play(x):
    """What `play --strategy perfect` runs: the shipped player storing all 2n cards."""
    host = DeckHost(x, len(x), Transcript())
    make_strategy("perfect", len(x) // 2).play(host)
    return host.transcript


class TestPerfectMemory:
    def test_singleton(self):
        t = _perfect_play((1, 1))
        assert t.flips == 2
        assert list(t.outputs) == [(1, 2, 1)]

    def test_greedy_scan_order(self):
        t = _perfect_play((1, 2, 1, 2))
        assert [tuple(o) for o in t.outputs] == [(1, 3, 1), (2, 4, 2)]
        assert t.flips <= 6

    def test_flip_budget_on_random_decks(self):
        for k in range(100):
            n = 3 + k % 6
            x = generate_valid_input(GameParams(n, n, k))
            t = _perfect_play(x)
            assert verify_transcript(x, t).ok
            assert t.flips <= 4 * n
            assert t.flips == 2 * n  # single scan flips each card once


class TestSpaceAudit:
    def test_multipass_by_construction(self):
        x = generate_valid_input(GameParams(5, 5, 3))
        budget = SpaceBudget.for_slots(5, 2)
        assert space_audit(multi_pass_play(x, 2), budget) is True

    def test_hand_built_overflow_detected(self):
        t = Transcript()
        t.add_flip(1, 3)  # claims 3 stored cards
        assert space_audit(t, SpaceBudget.for_slots(4, 2)) is False

    def test_missing_size_records_error(self):
        t = Transcript()
        t.add_flip(1)  # no size recorded
        with pytest.raises(ValueError, match="size records"):
            space_audit(t, SpaceBudget.for_slots(4, 2))

    def test_empty_transcript_vacuous(self):
        assert space_audit(Transcript(), SpaceBudget.for_slots(4, 1)) is True


class TestBlindPurity:
    """Relabeling card values must not change any flip decision."""

    def _relabel(self, x, R, seed):
        perm = list(range(1, R + 1))
        random.Random(seed).shuffle(perm)
        return tuple(perm[v - 1] for v in x)

    @pytest.mark.parametrize("s", [1, 2, 4, 16])
    def test_flip_sequence_invariant(self, s):
        for k in range(15):
            x = generate_valid_input(GameParams(8, 10, k))
            y = self._relabel(x, 10, k + 1)
            tx = multi_pass_play(x, s)
            ty = multi_pass_play(y, s)
            assert tx.flip_positions() == ty.flip_positions()
            assert [(o.i, o.j) for o in tx.outputs] == [(o.i, o.j) for o in ty.outputs]

    def test_randomized_order_variant(self):
        order = randomized_order(8, 77)
        for k in range(10):
            x = generate_valid_input(GameParams(8, 8, k))
            y = self._relabel(x, 8, 5 * k + 2)
            tx = multi_pass_play(x, 2, order=order)
            ty = multi_pass_play(y, 2, order=order)
            assert tx.flip_positions() == ty.flip_positions()
            assert verify_transcript(x, tx).ok


class TestRandomizedOrder:
    def test_deterministic_per_seed(self):
        assert randomized_order(16, 9) == randomized_order(16, 9)
        assert randomized_order(16, 9) != randomized_order(16, 10)

    def test_correct_and_bounded(self):
        bound = multi_pass_time_bound(SpaceBudget.for_slots(16, 4))
        for k in range(30):
            x = generate_valid_input(GameParams(16, 16, k))
            t = multi_pass_play(x, 4, order=randomized_order(16, k), lean=True)
            assert set(t.outputs) == matches_of(x)
            assert t.flips <= bound


class TestFlipCap:
    def test_deterministic_within_budget_never_errors(self):
        for k in range(20):
            x = generate_valid_input(GameParams(8, 8, k))
            T = multi_pass_play(x, 2, lean=True).flips
            wrapped = monte_carlo_wrap(MultiPass(), T)
            run = wrapped.play(x, 2)
            assert not run.errored

    def test_half_budget_always_errors(self):
        for k in range(20):
            x = generate_valid_input(GameParams(8, 8, k))
            T = multi_pass_play(x, 2, lean=True).flips
            wrapped = monte_carlo_wrap(MultiPass(), T / 20)
            run = wrapped.play(x, 2)
            assert run.errored
            assert run.transcript.flips <= wrapped.cap <= T // 2


class TestProtocol:
    def test_store_overflow_raises(self):
        class Hoarder:
            def play(self, host):
                for p in range(1, 2 * host.n + 1):
                    host.examine(p)
                    host.store(p)

        x = generate_valid_input(GameParams(4, 4, 0))
        host = DeckHost(x, slots=2)
        with pytest.raises(ProtocolError, match="overflow"):
            Hoarder().play(host)

    def test_examining_removed_card_raises(self):
        x = (1, 1, 2, 2)
        host = DeckHost(x, slots=4)
        host.examine(1)
        host.store(1)
        host.examine(2)
        host.declare(1, 2)
        with pytest.raises(ProtocolError, match="removed"):
            host.examine(1)

    @pytest.mark.parametrize("i,j", [(0, 4), (-1, 2), (1, 5)])
    def test_declaring_or_storing_out_of_range_raises(self, i, j):
        for host_cls in (DeckHost, _StepHost):
            host = host_cls((1, 1, 2, 2), slots=4)
            with pytest.raises(ProtocolError, match="out of range"):
                host.declare(i, j)
            with pytest.raises(ProtocolError, match="out of range"):
                host.store(i if i < 1 else j)
            assert not host.removed and not host.working and not host.transcript.outputs

    @pytest.mark.parametrize("slots", [0, -1])
    def test_host_without_a_slot_refused(self, slots):
        with pytest.raises(ValueError, match="at least one slot"):
            DeckHost((1, 1, 2, 2), slots)

    def test_make_strategy_names(self):
        assert make_strategy("multipass", 4).order is None
        assert make_strategy("rmultipass", 4, 1).order == randomized_order(4, 1)
        assert isinstance(make_strategy("perfect", 4), FullMemory)
        with pytest.raises(ValueError):
            make_strategy("psychic", 4)


class TestDeckHostValidation:
    def test_value_three_times_rejected(self):
        with pytest.raises(ValueError, match="multiplicities"):
            DeckHost((1, 1, 1, 2), slots=2)

    def test_truncated_player_rejects_invalid_deck(self):
        with pytest.raises(ValueError, match="multiplicities"):
            monte_carlo_wrap(MultiPass(), 10).play((3, 3, 3, 1, 2, 2), 1)


class _StepHost(DeckHost):
    """DeckHost with the generic flip-by-flip game: the oracle for
    DeckHost.run_passes."""

    run_passes = GameHost.run_passes


def _outcome(host_cls, x, slots, lean, cap, play):
    """Everything a game leaves behind, and the error it ended on, if any."""
    host = host_cls(x, slots, Transcript(lean=lean, cap=cap))
    err = None
    try:
        play(host)
    except (FlipBudgetExceeded, ProtocolError) as e:
        err = (type(e), str(e))
    t = host.transcript
    return dict(err=err, events=t.events, flips=t.flips, passes=t.passes, outputs=t.outputs,
                max_ws=t.max_ws, removed=host.removed, working=host.working)


def _assert_same_game(x, slots, lean, cap, play):
    want = _outcome(_StepHost, x, slots, lean, cap, play)
    got = _outcome(DeckHost, x, slots, lean, cap, play)
    assert got == want
    return got


class TestSharedPairing:
    """A DeckHost handed `partner=deck_partners(x)`, as each slot count of a
    tradeoff deck is, plays the game of a DeckHost that pairs the deck itself
    and of the flip-by-flip oracle."""

    @given(st.integers(1, 24), st.integers(0, 10**6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_games_on_a_shared_pairing_agree(self, n, seed, data):
        x = generate_valid_input(GameParams(n, n + seed % 3, seed))
        top = 2 * n
        partner = deck_partners(x)
        shared = partial(DeckHost, partner=partner)
        order = data.draw(st.sampled_from([None, list(range(1, top + 1)),
                                           randomized_order(n, seed)]), label="order")
        lean = data.draw(st.booleans(), label="lean")
        # a fill first: nothing, the first card's pair (so the game starts
        # with cards off the table) or a few drawn positions
        prefill = data.draw(st.one_of(st.just([]), st.just([1, partner[1]]),
                                      st.lists(st.integers(1, top), max_size=4, unique=True)),
                            label="prefill")
        for s in range(1, top + 1):
            def play(host):
                host.fill(prefill[:s])
                MultiPass(order=order).play(host)

            want = _outcome(_StepHost, x, s, lean, None, play)
            assert _outcome(DeckHost, x, s, lean, None, play) == want
            assert _outcome(shared, x, s, lean, None, play) == want
            T = want["flips"]
            # every cap on small decks, a drawn one on the rest
            caps = range(T + 1) if n <= 6 else [data.draw(st.integers(0, T), label="cap")]
            for cap in caps:
                want = _outcome(_StepHost, x, s, lean, cap, play)
                assert _outcome(DeckHost, x, s, lean, cap, play) == want
                assert _outcome(shared, x, s, lean, cap, play) == want

    def test_a_game_after_a_declared_pair_agrees(self):
        # the alive mask starts with the declared pair off the table
        x = generate_valid_input(GameParams(8, 8, 3))
        partner = deck_partners(x)
        for order in (None, list(range(1, 17)), randomized_order(8, 3)):
            def play(host):
                host.fill([1, partner[1]])
                assert host.removed == {1, partner[1]}
                MultiPass(order=order).play(host)

            for s in (1, 3, 16):
                want = _outcome(_StepHost, x, s, True, None, play)
                assert want["err"] is None and len(want["outputs"]) == 8
                assert _outcome(partial(DeckHost, partner=partner), x, s, True, None, play) == want

    def test_partner_of_the_wrong_length_is_refused(self):
        x = (1, 2, 1, 2)
        assert deck_partners(x) == [0, 3, 4, 1, 2]
        for bad in ([0, 3, 4, 1], [0, 3, 4, 1, 2, 0], []):
            with pytest.raises(ValueError, match=f"partner has {len(bad)} entries, not 5"):
                DeckHost(x, 2, partner=bad)
            with pytest.raises(ValueError, match="pass deck_partners"):
                multi_pass_play(x, 2, lean=True, partner=bad)


class TestDeclareRemoved:
    """Every host refuses to declare a card that has left the table."""

    @pytest.mark.parametrize("host_cls", [DeckHost, _StepHost])
    def test_declare_refuses_a_removed_card(self, host_cls):
        h = host_cls((1, 1, 2, 2), 4)
        h.examine(1)
        h.store(1)
        h.examine(2)
        h.declare(1, 2)
        with pytest.raises(ProtocolError, match="declared removed card 1"):
            h.declare(1, 3)
        with pytest.raises(ProtocolError, match="declared removed card 2"):
            h.declare(4, 2)
        assert h.transcript.outputs == [MatchTriple(1, 2, 1)]

    @pytest.mark.parametrize("host_cls", [DeckHost, _StepHost])
    def test_store_refuses_a_removed_card(self, host_cls):
        h = host_cls((1, 1, 2, 2), 4)
        h.fill([1, 2])
        with pytest.raises(ProtocolError, match="stored removed card 2"):
            h.store(2)
        assert h.working == set()

    @pytest.mark.parametrize("host_cls", [DeckHost, _StepHost])
    def test_redeclared_pair_refused_after_a_fill(self, host_cls):
        h = host_cls((1, 2, 1, 2), 2)
        h.fill([1, 2, 3, 4])
        assert h.done()
        with pytest.raises(ProtocolError, match="declared removed card 1"):
            h.declare(1, 3)
        assert len(h.transcript.outputs) == 2


class TestDeckHostScanOracle:
    """DeckHost.run_passes, which plays a lean game in rank space, against
    the generic one-flip-at-a-time GameHost.run_passes; the hand-built tables
    pin the generic fill and scan on a DeckHost."""

    @given(st.integers(1, 24), st.integers(0, 10**6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_multipass_games_agree(self, n, seed, data):
        x = generate_valid_input(GameParams(n, n + seed % 3, seed))
        slots = data.draw(st.integers(1, 2 * n), label="slots")
        order = data.draw(st.sampled_from([None, randomized_order(n, seed)]), label="order")
        lean = data.draw(st.booleans(), label="lean")
        play = MultiPass(order=order).play
        T = _assert_same_game(x, slots, lean, None, play)["flips"]
        # every cap on small decks, a drawn one on the rest
        caps = range(T + 1) if n <= 6 else [data.draw(st.integers(0, T), label="cap")]
        for cap in caps:
            got = _assert_same_game(x, slots, lean, cap, play)
            assert got["flips"] == min(cap, T)
            assert (got["err"] is not None) == (cap < T)

    @given(st.integers(1, 8), st.integers(0, 10**6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_games_after_a_fill_agree(self, n, seed, data):
        # a run_passes game over any permutation in blocks of any s, also one
        # that overflows the slots, on a host whose fill may have removed and
        # stored cards
        x = generate_valid_input(GameParams(n, n + seed % 3, seed))
        top = 2 * n
        slots = data.draw(st.integers(1, top), label="slots")
        s = data.draw(st.integers(1, top), label="s")
        order = data.draw(st.permutations(range(1, top + 1)), label="order")
        prefill = data.draw(st.lists(st.integers(1, top), max_size=slots, unique=True),
                            label="prefill")
        lean = data.draw(st.booleans(), label="lean")

        def play(host):
            host.fill(prefill)
            host.run_passes(order, s)

        T = _assert_same_game(x, slots, lean, None, play)["flips"]
        caps = range(T + 2) if n <= 4 else [data.draw(st.integers(0, T + 1), label="cap")]
        for cap in caps:
            assert _assert_same_game(x, slots, lean, cap, play)["flips"] == min(cap, T)

    def test_lean_multipass_games_play_every_round_in_rank_space(self, monkeypatch):
        def generic(*args):
            raise AssertionError("left the rank game")

        for name in ("run_passes", "fill", "scan"):
            monkeypatch.setattr(GameHost, name, generic)
        for k in range(10):
            x = generate_valid_input(GameParams(8, 8, k))
            for s in (1, 2, 3, 16):
                for order in (None, randomized_order(8, k)):
                    t = multi_pass_play(x, s, order=order, lean=True)
                    assert set(t.outputs) == matches_of(x)

    def test_lean_game_capped_above_its_flips_falls_back_and_agrees(self, monkeypatch):
        # a game that might reach the cap goes to the generic rounds
        entered = []
        generic = GameHost.run_passes

        def counted(host, order, s):
            entered.append(s)
            generic(host, order, s)

        monkeypatch.setattr(GameHost, "run_passes", counted)
        for k in range(10):
            x = generate_valid_input(GameParams(8, 8, k))
            for order in (None, randomized_order(8, k)):
                T = multi_pass_play(x, 2, order=order, lean=True).flips
                assert not entered
                got = _assert_same_game(x, 2, True, T + 1, MultiPass(order=order).play)
                assert got["err"] is None and got["flips"] == T
                assert entered
                entered.clear()

    def test_cap_at_the_flip_bound_keeps_the_rank_game(self, monkeypatch):
        # a lean game capped at ceil(2n/s) * 2n cannot reach its cap and never
        # enters the generic loops; one flip less and it falls back
        entered = []

        def counted(name, generic):
            def run(host, *args):
                entered.append(name)
                generic(host, *args)
            return run

        for name in ("run_passes", "fill", "scan"):
            monkeypatch.setattr(GameHost, name, counted(name, getattr(GameHost, name)))
        for k in range(10):
            x = generate_valid_input(GameParams(8, 8, k))
            for s in (1, 2, 3, 16):
                bound = multi_pass_time_bound(SpaceBudget.for_slots(8, s))
                for order in (None, randomized_order(8, k)):
                    play = MultiPass(order=order).play
                    for cap, generic in ((bound, False), (bound - 1, True)):
                        want = _outcome(_StepHost, x, s, True, cap, play)
                        entered.clear()
                        assert _outcome(DeckHost, x, s, True, cap, play) == want
                        assert entered[:1] == (["run_passes"] if generic else [])

    # deck (1, 2, 3, 1, 2, 3) with 2 slots
    @pytest.mark.parametrize("block,err,flips,removed", [
        ([1, 4, 2, 5, 3, 6], None, 6, {1, 2, 3, 4, 5, 6}),
        ([1, 2, 3], "overflow", 3, set()),
        ([1, 7, 4], "out of range", 1, set()),
        ([1, 0], "out of range", 1, set()),
        ([1, 1], "against itself", 2, set()),
        ([2, 1, 5, 2, 4], None, 4, {1, 2, 4, 5}),
        ([1, 4, 1, 4, 3, 6, 2, 5, 3], None, 6, {1, 2, 3, 4, 5, 6}),
    ])
    def test_hand_built_fills(self, block, err, flips, removed):
        for lean in (False, True):
            got = _assert_same_game((1, 2, 3, 1, 2, 3), 2, lean, None,
                                    lambda host: host.fill(block))
            assert (got["err"] is None) == (err is None)
            if err is not None:
                assert err in got["err"][1]
            assert got["flips"] == flips
            assert got["removed"] == removed

    # deck (1, 2, 3, 1, 2, 3): after fill([1, 2]) cards 1 and 2 are stored,
    # and only 1, 2, 4, 5 can hit
    @pytest.mark.parametrize("rest,err,flips,removed", [
        ([3, 9, 4], "out of range", 3, set()),
        ([3, 0], "out of range", 3, set()),
        ([3, 6, 3, 6, 4, 5, 3], None, 8, {1, 2, 4, 5}),
        ([4, 1, 3, 5, 3], None, 5, {1, 2, 4, 5}),
        ([3, 2], "against itself", 4, set()),
        ([5, 6, 4, 6], None, 5, {1, 2, 4, 5}),
    ])
    def test_hand_built_scans(self, rest, err, flips, removed):
        def play(host):
            host.fill([1, 2])
            host.scan(rest)

        for lean in (False, True):
            got = _assert_same_game((1, 2, 3, 1, 2, 3), 2, lean, None, play)
            assert (got["err"] is None) == (err is None)
            if err is not None:
                assert err in got["err"][1]
            assert got["flips"] == flips
            assert got["removed"] == removed

    # deck (1, 2, 3, 1, 2, 3) in order 4, 1, 5, 2, 6, 3 (ranks 0..5); fill
    # ([4]) stores card 4, whose partner 1 lies at rank 1
    @pytest.mark.parametrize("start,err,flips,removed", [
        # the scan flips card 4 at rank 0 and declares it against itself
        (0, "against itself", 2, set()),
        (1, None, 2, {1, 4}),  # the first card scanned hits
        (2, None, 5, set()),  # the partner is behind start: every later card misses
        (6, None, 1, set()),
        (7, None, 1, set()),
    ])
    def test_hand_built_permutation_scans(self, start, err, flips, removed):
        order = [4, 1, 5, 2, 6, 3]

        def play(host):
            host.fill([4])
            host.scan(order, start)

        for lean in (False, True):
            got = _assert_same_game((1, 2, 3, 1, 2, 3), 1, lean, None, play)
            assert (got["err"] is None) == (err is None)
            if err is not None:
                assert err in got["err"][1]
            assert got["flips"] == flips
            assert got["removed"] == removed

    def test_cap_inside_a_run_of_misses(self):
        def play(host):
            host.fill([1])
            host.scan([2, 3, 5, 6, 4])

        x = (1, 2, 3, 1, 2, 3)
        for cap in range(7):
            got = _assert_same_game(x, 1, False, cap, play)
            assert got["flips"] == min(cap, 6)
            assert [e.a for e in got["events"] if e.kind == "flip"] == [1, 2, 3, 5, 6, 4][:cap]
            assert (got["err"] is not None) == (cap < 6)
