import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memlab
from memlab import (CapExceeded, FlipBudgetExceeded, GameParams, MatchTriple, Transcript,
                    count_valid_inputs, derive_seed, enumerate_valid_inputs,
                    generate_valid_input, matches_of, validate_deck,
                    verify_transcript)
from memlab import game_core, strategies
from memlab.adversary import AdversaryHost, kg_init
from memlab.game_core import read_deck_file, write_transcript_csv
from memlab.strategies import DeckHost, MultiPass


class TestGameParams:
    def test_rejects_alphabet_smaller_than_n(self):
        with pytest.raises(ValueError, match="R >= n"):
            GameParams(3, 2)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            GameParams(0, 5)

    def test_rejects_decks_past_the_cell_cap(self):
        with pytest.raises(ValueError, match="5000001 pairs would take 10000002 array cells"):
            GameParams(5_000_001, 5_000_001)


class TestGenerate:
    def test_forced_singleton(self):
        for seed in range(10):
            assert generate_valid_input(GameParams(1, 1, seed)) == (1, 1)

    def test_deterministic_per_seed(self):
        a = generate_valid_input(GameParams(6, 9, 42))
        b = generate_valid_input(GameParams(6, 9, 42))
        assert a == b

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_always_valid(self, seed):
        x = generate_valid_input(GameParams(5, 8, seed))
        assert validate_deck(x, R=8) == 5

    def test_support_is_all_six_decks(self):
        seen = {generate_valid_input(GameParams(2, 2, k)) for k in range(300)}
        assert seen == set(enumerate_valid_inputs(2, 2))

    def test_uniformity_chi_square(self):
        # 6e4 samples at (n=2, R=2): each deck within 1/6 +- 0.02
        trials = 60_000
        counts = Counter(generate_valid_input(GameParams(2, 2, derive_seed(99, "chi", k)))
                         for k in range(trials))
        assert len(counts) == 6
        for deck, c in counts.items():
            assert abs(c / trials - 1 / 6) < 0.02, (deck, c)
        chi2 = sum((c - trials / 6) ** 2 / (trials / 6) for c in counts.values())
        assert chi2 < 30.0  # 5 dof; generous


class TestEnumerate:
    def test_n1_R2(self):
        assert list(enumerate_valid_inputs(1, 2)) == [(1, 1), (2, 2)]

    def test_counts(self):
        assert count_valid_inputs(2, 2) == 6
        assert count_valid_inputs(2, 3) == 18
        assert count_valid_inputs(3, 5) == 900
        assert len(list(enumerate_valid_inputs(2, 3))) == 18
        assert len(list(enumerate_valid_inputs(3, 5))) == 900

    @pytest.mark.parametrize("n,R", [(n, R) for n in (1, 2, 3) for R in range(n, 6)])
    def test_count_formula_matches_enumeration(self, n, R):
        decks = list(enumerate_valid_inputs(n, R))
        assert len(decks) == count_valid_inputs(n, R)
        assert len(set(decks)) == len(decks)
        for x in decks:
            assert validate_deck(x, R=R) == n

    def test_canonical_order(self):
        # documented order: value subsets ascending, arrangements lex within each
        decks = list(enumerate_valid_inputs(2, 3))
        keys = [(tuple(sorted(set(d))), d) for d in decks]
        assert keys == sorted(keys)

    def test_cap_refusal_names_count(self):
        with pytest.raises(CapExceeded, match=str(count_valid_inputs(6, 12))):
            list(enumerate_valid_inputs(6, 12))


class TestMatches:
    def test_singleton(self):
        assert matches_of((1, 1)) == {MatchTriple(1, 2, 1)}

    def test_read_off(self):
        assert matches_of((2, 1, 1, 2)) == {MatchTriple(2, 3, 1), MatchTriple(1, 4, 2)}

    def test_count_is_n(self):
        for x in enumerate_valid_inputs(3, 4):
            assert len(matches_of(x)) == 3

    def test_invalid_deck_diagnoses_multiplicities(self):
        with pytest.raises(ValueError, match=r"1: 3.*2: 1"):
            matches_of((1, 1, 1, 2))

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_positions_partition_table(self, seed):
        x = generate_valid_input(GameParams(6, 6, seed))
        ms = matches_of(x)
        positions = [p for m in ms for p in (m.i, m.j)]
        assert sorted(positions) == list(range(1, 13))
        for m in ms:
            assert m.i < m.j and x[m.i - 1] == x[m.j - 1] == m.v


def _assert_pairs_like_validate_deck(x):
    """DeckHost and matches_of accept exactly the decks the Counter-based
    validate_deck accepts, pair them as brute force does, and refuse the
    rest with validate_deck's message."""
    try:
        validate_deck(x)
    except ValueError as e:
        for build in (lambda: DeckHost(x, 1), lambda: matches_of(x)):
            with pytest.raises(ValueError) as refused:
                build()
            assert str(refused.value) == str(e)
        return
    pairs = {(i, j) for j in range(1, len(x) + 1) for i in range(1, j) if x[i - 1] == x[j - 1]}
    assert matches_of(x) == {MatchTriple(i, j, x[i - 1]) for i, j in pairs}
    partner = DeckHost(x, 1).partner
    assert {(i, j) for i, j in enumerate(partner) if i < j} == pairs
    assert partner[0] == 0 and all(partner[j] == i for i, j in pairs)


class TestPairingOracle:
    @pytest.mark.parametrize("n,R", [(n, R) for n in (1, 2, 3) for R in range(n, 5)])
    def test_every_small_deck(self, n, R):
        for x in enumerate_valid_inputs(n, R):
            _assert_pairs_like_validate_deck(x)

    # a value three times and one once balance the count of distinct values
    @pytest.mark.parametrize("x", [(), (1,), (1, 2), (1, 1, 1), (1, 1, 1, 1),
                                   (1, 1, 1, 2, 3, 3), (2, 1, 1, 1, 2, 3)])
    def test_hand_built(self, x):
        _assert_pairs_like_validate_deck(x)

    @given(st.lists(st.integers(1, 4), max_size=8).map(tuple))
    @settings(max_examples=300, deadline=None)
    def test_drawn_tuples(self, x):
        _assert_pairs_like_validate_deck(x)


class TestTranscript:
    def test_counters_and_events(self):
        t = Transcript()
        t.add_pass(1)
        t.add_flip(3, 0)
        t.add_flip(1, 1)
        t.add_output(MatchTriple(1, 2, 5))
        assert (t.flips, t.passes) == (2, 1)
        assert [e.kind for e in t.events] == ["pass", "flip", "flip", "output"]

    def test_duplicate_output_rejected(self):
        t = Transcript()
        t.add_output(MatchTriple(1, 2, 5))
        with pytest.raises(ValueError, match="repeated"):
            t.add_output(MatchTriple(1, 2, 5))

    def test_csv_round_trip(self):
        t = Transcript()
        t.add_pass(1)
        t.add_flip(1, 0)
        t.add_flip(4, 1)
        t.add_output(MatchTriple(1, 4, 2))
        t.add_pass(2)
        buf = io.StringIO()
        write_transcript_csv(t, buf)
        assert buf.getvalue() == ("step,event,arg1,arg2,arg3\n"
                                  "1,pass,1,0,0\n"
                                  "2,flip,1,0,0\n"
                                  "3,flip,4,1,0\n"
                                  "4,output,1,4,2\n"
                                  "5,pass,2,0,0\n")
        assert (t.flips, t.passes) == (2, 2)

    @pytest.mark.parametrize("lean", [False, True])
    def test_flip_at_the_cap_raises_and_records_nothing(self, lean):
        t = Transcript(lean=lean, cap=2)
        t.add_flip(3, 0)
        t.add_flip(1, 1)
        with pytest.raises(FlipBudgetExceeded, match="flip cap 2 reached"):
            t.add_flip(4, 5)
        assert (t.flips, t.max_ws) == (2, 1)
        assert [e.a for e in t.events] == ([] if lean else [3, 1])

    @pytest.mark.parametrize("lean", [False, True])
    def test_zero_cap_refuses_the_first_flip(self, lean):
        t = Transcript(lean=lean, cap=0)
        with pytest.raises(FlipBudgetExceeded, match="flip cap 0 reached"):
            t.add_flip(1, 0)
        with pytest.raises(FlipBudgetExceeded):
            t.add_flip(2, 1)
        assert (t.flips, t.max_ws, t.events) == (0, 0, [])

    def test_flip_count_keeps_the_cap_rule(self):
        t = Transcript(lean=True, cap=5)
        t.add_flip_count(2, 1)
        t.add_flip_count(0, 9)  # no flip, no working-set size
        assert (t.flips, t.max_ws) == (2, 1)
        with pytest.raises(FlipBudgetExceeded, match="flip cap 5 reached"):
            t.add_flip_count(4, 3)
        assert (t.flips, t.max_ws, t.events) == (5, 3, [])
        with pytest.raises(FlipBudgetExceeded):
            t.add_flip_count(1, 7)
        assert (t.flips, t.max_ws) == (5, 3)

    def test_flip_count_refuses_a_full_transcript(self):
        t = Transcript()
        with pytest.raises(ValueError, match="records each flip's position"):
            t.add_flip_count(3, 1)
        assert (t.flips, t.max_ws, t.events) == (0, 0, [])

    def test_uncapped_and_exact_cap_runs_finish(self):
        for cap in (None, 3):
            t = Transcript(cap=cap)
            t.add_flip(1, 1)
            t.add_flip(2, 1)
            t.add_flip(3, 2)
            assert (t.flips, t.max_ws) == (3, 2)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="flip cap >= 0"):
            Transcript(cap=-1)

    def test_flip_budget_error_has_one_home(self):
        assert (memlab.FlipBudgetExceeded is strategies.FlipBudgetExceeded
                is game_core.FlipBudgetExceeded)

    def test_query_event_is_not_a_transcript_kind(self):
        # adversary answers live in its AdversaryLog, not in the player's transcript
        t = Transcript()
        host = AdversaryHost(kg_init(3), 2, t)
        MultiPass().play(host)
        assert host.log.queries > 0
        assert {e.kind for e in t.events} <= {"flip", "output", "pass"}


class TestVerify:
    def _transcript_with(self, triples):
        t = Transcript()
        for m in triples:
            t.add_output(m)
        return t

    def test_exact_outputs_pass(self):
        x = (2, 1, 1, 2)
        rep = verify_transcript(x, self._transcript_with(matches_of(x)))
        assert rep.ok

    def test_missing_match_named(self):
        x = (2, 1, 1, 2)
        ms = sorted(matches_of(x))
        rep = verify_transcript(x, self._transcript_with(ms[:1]))
        assert not rep.ok
        assert rep.missing == (ms[1],)

    def test_wrong_value_fails(self):
        x = (2, 1, 1, 2)
        rep = verify_transcript(x, self._transcript_with(
            [MatchTriple(2, 3, 1), MatchTriple(1, 4, 1)]))
        assert not rep.ok
        assert MatchTriple(1, 4, 1) in rep.unexpected


class TestDeckFile:
    def test_round_trip(self):
        decks = list(enumerate_valid_inputs(2, 2))
        text = "2 2\n" + "\n".join(" ".join(map(str, deck)) for deck in decks) + "\n\n"
        n, R, back = read_deck_file(io.StringIO(text))
        assert (n, R) == (2, 2)
        assert back == decks

    def test_length_mismatch_rejected(self):
        buf = io.StringIO("2 2\n1 1 2\n")
        with pytest.raises(ValueError, match="length"):
            read_deck_file(buf)


class TestSeeds:
    def test_derivation_is_stable(self):
        # frozen: the split function must never change across runs
        assert derive_seed(0, "deck", 8, 0) == derive_seed(0, "deck", 8, 0)
        assert derive_seed(0, "deck", 8, 0) != derive_seed(0, "deck", 8, 1)
        assert derive_seed(1, "deck", 8, 0) != derive_seed(0, "deck", 8, 0)

    @pytest.mark.parametrize("seed,parts", [(0, ()), (7, ("deck", 8, 0)), (2**70, ("x", -3)),
                                            (1003, ("tradeoff", 256, 9))])
    def test_builtin_sha256_gives_the_hashlib_seed(self, seed, parts):
        import hashlib
        text = f"{seed}:" + "/".join(str(p) for p in parts)
        want = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1
        assert derive_seed(seed, *parts) == want

    def test_63_bit_range(self):
        for k in range(50):
            s = derive_seed(7, k)
            assert 0 <= s < 2**63
