import hashlib
import importlib.util
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlab import cli
from memlab.cli import (SweepConfig, adversary_sweep, parse_config_file,
                        sweep_config_from, tradeoff_sweep)


_SWEEP_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs", "sweep.cfg")


def run_cli(args, env_seed=None):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    old = os.environ.pop("MEMLAB_SEED", None)
    if env_seed is not None:
        os.environ["MEMLAB_SEED"] = str(env_seed)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(args)
    finally:
        os.environ.pop("MEMLAB_SEED", None)
        if old is not None:
            os.environ["MEMLAB_SEED"] = old
    return code, buf.getvalue()


class TestConfig:
    def test_parse_and_override(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(
            "# grid\n"
            "n = 4, 8\n"
            "s = pow2\n"
            "seeds = 3\n"
            "strategy = multipass\n"
            "seed = 9\n")
        raw = parse_config_file(str(cfg_file))
        assert raw["n"] == "4, 8"

        class Args:
            config = str(cfg_file)
            jobs = 1
            seed = None  # not given: the config's seed applies
            n_list = None
            s_list = "1,2"
            seeds = None
            strategy = None

        cfg = sweep_config_from(Args())
        assert cfg.ns == [4, 8]
        assert cfg.s_spec == [1, 2]  # CLI override wins
        assert cfg.seeds == 3
        assert cfg.master_seed == 9

    def test_bad_line_reports_position(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("n = 4\nnonsense\n")
        with pytest.raises(ValueError, match="bad.cfg:2"):
            parse_config_file(str(cfg_file))

    def test_committed_example_parses(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        raw = parse_config_file(os.path.join(here, "configs", "sweep.cfg"))
        assert "n" in raw and "s" in raw

    @pytest.mark.parametrize("command,strategy", [
        ("tradeoff", "perfect"),
        ("tradeoff", "mixed"),
        ("adversary", "guessnow"),
    ])
    def test_strategy_outside_subcommand_choices_exits_2(self, tmp_path, capsys,
                                                          command, strategy):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"n = 4\nseeds = 1\nstrategy = {strategy}\n")
        code, out = run_cli(["--jobs", "1", command, "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("memlab: ") and repr(strategy) in err

    @pytest.mark.parametrize("command", ["tradeoff", "adversary"])
    def test_config_jobs_below_one_exits_2(self, tmp_path, capsys, command):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("n = 4\nseeds = 2\njobs = 0\n")
        code, out = run_cli([command, "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("memlab: ") and "jobs >= 1" in err

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("n = 4\nseeds = 1\nsead = 5\n")
        code, out = run_cli(["--jobs", "1", "tradeoff", "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("memlab: ") and "sead" in err

    @pytest.mark.parametrize("strategy_line,expect", [
        ("strategy = multipass\n", {"multipass"}),
        ("", {"multipass", "rmultipass", "perfect"}),  # no key: the sweep rotates
    ], ids=["config_names_one", "no_key"])
    def test_adversary_sweep_takes_config_strategy(self, tmp_path, strategy_line, expect):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"n = 8\nseeds = 6\n{strategy_line}")
        code, out = run_cli(["--jobs", "1", "adversary", "--config", str(cfg_file)])
        assert code == 0
        assert {ln.split(",")[4] for ln in out.splitlines()[1:]} == expect

    def test_flag_overrides_bad_config_strategy(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("n = 4\nseeds = 1\nstrategy = perfect\n")
        code, out = run_cli(["--jobs", "1", "tradeoff", "--config", str(cfg_file),
                             "--strategy", "rmultipass"])
        assert code == 0
        assert {ln.split(",")[5] for ln in out.splitlines()[1:]} == {"rmultipass"}

    # configs/sweep.cfg says seed = 0: it ranks below --seed, above $MEMLAB_SEED
    def test_seed_flag_beats_config_seed(self):
        config = run_cli(["--jobs", "1", "--seed", "7", "tradeoff", "--config", _SWEEP_CFG,
                          "--n-list", "8", "--seeds", "1"])
        flags = run_cli(["--jobs", "1", "--seed", "7", "tradeoff", "--n-list", "8",
                         "--s-list", "pow2", "--seeds", "1", "--strategy", "multipass"])
        assert config[0] == 0 and config == flags
        assert hashlib.sha256(config[1].encode()).hexdigest().startswith("94c837c7")

    def test_config_seed_beats_env_seed(self):
        sweep = ["--jobs", "1", "tradeoff", "--config", _SWEEP_CFG, "--n-list", "8", "--seeds", "1"]
        assert run_cli(sweep, env_seed=7) == run_cli(["--seed", "0"] + sweep)
        assert run_cli(sweep, env_seed=7) != run_cli(["--seed", "7"] + sweep)


class TestTradeoffSweep:
    def test_byte_identical_reruns(self):
        cfg = SweepConfig(ns=[4, 8], seeds=4, master_seed=5)
        lines1, ok1 = tradeoff_sweep(cfg)
        lines2, ok2 = tradeoff_sweep(cfg)
        assert lines1 == lines2 and ok1 and ok2

    def test_parallel_order_matches_serial(self):
        serial = tradeoff_sweep(SweepConfig(ns=[4, 8], seeds=3, master_seed=1, jobs=1))
        parallel = tradeoff_sweep(SweepConfig(ns=[4, 8], seeds=3, master_seed=1, jobs=2))
        assert serial == parallel

    def test_single_pass_column_is_2n(self):
        lines, _ = tradeoff_sweep(SweepConfig(ns=[8], seeds=3, master_seed=2))
        summary = [ln for ln in lines if ln.startswith("summary")]
        full = [ln for ln in summary if ln.split(",")[3] == "16"]  # s = 2n
        assert full and all(int(ln.split(",")[6]) == 16 for ln in full)

    def test_summary_takes_most_passes_among_worst_T(self):
        lines, _ = tradeoff_sweep(SweepConfig(ns=[2, 3, 4, 8], seeds=30, master_seed=3))
        runs: dict = {}
        split_ties = 0
        for vals in (ln.split(",") for ln in lines[1:]):
            cell = (vals[1], vals[3])
            T, passes = int(vals[6]), int(vals[7])
            if vals[0] == "record":
                runs.setdefault(cell, []).append((T, passes))
            elif vals[0] == "summary":
                T_worst = max(t for t, _ in runs[cell])
                tied = {p for t, p in runs[cell] if t == T_worst}
                split_ties += len(tied) > 1
                assert (T, passes) == (T_worst, max(tied)), cell
        assert split_ties  # some cell has runs at the worst T with different passes

    @pytest.mark.parametrize("strategy", ["multipass", "rmultipass"])
    def test_slot_counts_of_one_deck_share_no_state(self, tmp_path, strategy):
        # each deck plays every slot count in one task: a subset of the slot
        # counts must give the same record rows, and each row must replay alone
        def records(s_list):
            out = tmp_path / f"{s_list}.csv"
            code, _ = run_cli(["--seed", "7", "--jobs", "1", "--out", str(out), "tradeoff",
                               "--n-list", "8,16", "--s-list", s_list, "--seeds", "3",
                               "--strategy", strategy])
            assert code == 0
            lines = out.read_text().splitlines()
            return out, [(k, ln) for k, ln in enumerate(lines) if ln.startswith("record,")]

        out, some = records("1,4")
        _, pow2 = records("pow2")
        assert len(some) == 2 * 2 * 3
        assert [ln for _, ln in some] == [ln for _, ln in pow2 if ln.split(",")[3] in ("1", "4")]
        for k, _ in some:
            code, text = run_cli(["replay", "--file", str(out), "--line", str(k)])
            assert code == 0 and text.splitlines()[-1] == "replay: identical"

    def test_worst_time_monotone_in_slots(self):
        lines, ok = tradeoff_sweep(SweepConfig(ns=[8, 16], seeds=10, master_seed=3))
        assert ok
        for n in (8, 16):
            rows = [(int(ln.split(",")[3]), int(ln.split(",")[6]))
                    for ln in lines if ln.startswith(f"summary,{n},")]
            rows.sort()
            ts = [T for _, T in rows]
            assert ts == sorted(ts, reverse=True), (n, rows)


class TestAdversarySweep:
    def test_rows_all_pass(self):
        cfg = SweepConfig(ns=[2, 3, 4, 5], seeds=5, master_seed=7, strategy="mixed")
        lines, ok = adversary_sweep(cfg)
        assert ok
        assert len(lines) == 1 + 4 * 5
        for row in lines[1:]:
            vals = row.split(",")
            n, dele, van = int(vals[0]), int(vals[6]), int(vals[7])
            assert dele + van == n * (n - 1)


class TestCLI:
    def test_play_summary(self):
        code, out = run_cli(["play", "--strategy", "multipass", "--n", "4",
                             "--space-bits", "6", "--seed", "3"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,S,s,T,passes,correct"
        assert row.startswith("4,6,2,") and row.endswith("True")

    def test_play_writes_transcript(self, tmp_path):
        out_file = tmp_path / "t.csv"
        code, _ = run_cli(["--out", str(out_file), "play", "--n", "4",
                           "--space-bits", "6", "--seed", "1"])
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "step,event,arg1,arg2,arg3"
        assert any(",output," in ln for ln in lines)

    def test_play_from_deck_file(self, tmp_path):
        deck_file = tmp_path / "decks.txt"
        deck_file.write_text("2 2\n1 2 2 1\n2 1 1 2\n")
        code, out = run_cli(["play", "--strategy", "perfect", "--deck", str(deck_file)])
        assert code == 0
        assert out.strip().splitlines()[1] == "2,8,4,4,0,True"

    def test_play_deck_outside_header_alphabet_exits_2(self, tmp_path, capsys):
        deck_file = tmp_path / "decks.txt"
        deck_file.write_text("2 2\n5 5 7 7\n")
        code, out = run_cli(["play", "--strategy", "perfect", "--deck", str(deck_file)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "outside 1..2" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags,ok", [
        (["--n", "7", "--R", "1"], False),
        (["--n", "7"], False),
        (["--R", "3"], False),
        (["--n", "2", "--R", "2"], True),
    ])
    def test_play_deck_refuses_conflicting_sizes(self, tmp_path, capsys, flags, ok):
        deck_file = tmp_path / "decks.txt"
        deck_file.write_text("2 2\n1 2 2 1\n")
        code, out = run_cli(["play", "--strategy", "perfect", "--deck", str(deck_file)] + flags)
        err = capsys.readouterr().err
        if ok:
            assert code == 0 and out.strip().splitlines()[1] == "2,8,4,4,0,True"
        else:
            assert code == 2 and out == ""
            assert err.startswith("memlab: ") and "deck file" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["play", "adversary"])
    def test_perfect_refuses_space_bits(self, capsys, command):
        code, out = run_cli([command, "--strategy", "perfect", "--n", "8", "--space-bits", "4"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == ("memlab: --space-bits conflicts with --strategy perfect, "
                       "which stores every card\n")

    def test_play_header_only_deck_file_exits_2(self, tmp_path, capsys):
        deck_file = tmp_path / "decks.txt"
        deck_file.write_text("2 2\n")
        code, out = run_cli(["play", "--strategy", "perfect", "--deck", str(deck_file)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("memlab: deck file holds no decks")

    # one past each bound, refused before the deck, order or graph is built;
    # no test runs a game at a bound (a complete graph at n = 3162 is ~1.3 GB)
    @pytest.mark.parametrize("args,what", [
        (["adversary", "--n", "3163"], "a complete graph on 3163 pairs"),
        (["adversary", "--n-list", "8,3163", "--seeds", "1"], "a complete graph on 3163 pairs"),
        (["adversary", "--n", "5000001", "--strategy", "rmultipass"], "5000001 pairs"),
        (["tradeoff", "--n-list", "5000001"], "5000001 pairs"),
        (["play", "--n", "5000001", "--space-bits", "64"], "5000001 pairs"),
    ])
    def test_game_past_the_cell_cap_exits_2(self, capsys, args, what):
        code, out = run_cli(["--jobs", "1"] + args)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith(f"memlab: {what} would take ")
        assert "array cells" in err and "Traceback" not in err

    # rows: 2000001 seeds x 5 slot counts, and 10000001 seeds x 1 pair count
    @pytest.mark.parametrize("args,what", [
        (["tradeoff", "--n-list", "8", "--seeds", "2000001"],
         "a tradeoff sweep of 2000001 seeds would take 10000005"),
        (["adversary", "--n-list", "8", "--seeds", "10000001"],
         "an adversary sweep of 10000001 seeds would take 10000001"),
    ])
    def test_sweep_past_the_cell_cap_exits_2(self, monkeypatch, capsys, args, what):
        # listing the sweep's cells asks for each one's slot counts; a sweep
        # that got past the cap would fail here instead of filling memory
        s_values = cli.SweepConfig.s_values
        calls = []

        def counted(cfg, n):
            calls.append(n)
            assert len(calls) <= 10, "listed the cells of a sweep past the cap"
            return s_values(cfg, n)
        monkeypatch.setattr(cli.SweepConfig, "s_values", counted)
        code, out = run_cli(["--jobs", "1"] + args)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == f"memlab: {what} array cells, over the cap of 10000000\n"

    @pytest.mark.parametrize("args,rows", [
        (["tradeoff", "--n-list", "4,8", "--seeds", "3"], 3 * (4 + 5)),  # pow2: 1..8, 1..16
        (["adversary", "--n-list", "4,8,16", "--seeds", "5"], 5 * 3),
    ])
    def test_sweep_checks_its_row_count_against_the_cap(self, monkeypatch, args, rows):
        seen = []
        check = cli.check_cells

        def recorded(cells, what):
            seen.append(cells)
            check(cells, what)
        monkeypatch.setattr(cli, "check_cells", recorded)
        code, _ = run_cli(["--jobs", "1"] + args)
        assert code == 0 and seen == [rows]

    def test_xy_check_checks_its_row_count_against_the_cap(self, monkeypatch, capsys):
        # the fixed tree's row and one per random tree, checked before any
        # tree is built
        seen = []
        check = cli.check_cells

        def recorded(cells, what):
            seen.append(cells)
            check(cells, what)
        monkeypatch.setattr(cli, "check_cells", recorded)
        code, _ = run_cli(["xy-check", "--n", "3", "--R", "4", "--trees", "5"])
        assert code == 0 and seen == [6]

        def no_tree(*args):
            raise AssertionError("built a tree past the row cap")
        monkeypatch.setattr(cli, "fixed_position_tree", no_tree)
        monkeypatch.setattr(cli, "random_tree", no_tree)
        code, out = run_cli(["xy-check", "--n", "3", "--R", "4", "--trees", "10000000"])
        err = capsys.readouterr().err
        assert code == 2 and out == "" and seen[-1] == 10**7 + 1
        assert err == ("memlab: an xy-check of 10000000 random trees would take 10000001 "
                       "array cells, over the cap of 10000000\n")

    def test_env_seed_override(self):
        _, a = run_cli(["play", "--n", "4", "--space-bits", "6"], env_seed=4)
        _, b = run_cli(["play", "--n", "4", "--space-bits", "6", "--seed", "4"])
        assert a == b

    def test_adversary_row(self):
        code, out = run_cli(["adversary", "--strategy", "multipass", "--n", "6",
                             "--space-bits", "8"])
        assert code == 0
        vals = out.strip().splitlines()[1].split(",")
        assert int(vals[6]) + int(vals[7]) == 30
        assert vals[-2:] == ["True", "True"]

    def test_adversary_audit_plays_once(self, monkeypatch, capsys):
        calls = []
        play = cli.adversarial_play

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return play(*args, **kwargs)

        monkeypatch.setattr(cli, "adversarial_play", counted)
        code, out = run_cli(["adversary", "--n", "6", "--space-bits", "8", "--audit"])
        err = capsys.readouterr().err
        assert code == 0 and len(calls) == 1
        assert out == run_cli(["adversary", "--n", "6", "--space-bits", "8"])[1]
        assert "audit: complete=True replay_consistent=True" in err
        assert "audit: claim_ok=True accounting_ok=True lower_bound_ok=True" in err

    def test_lemma_y_default_r(self):
        code, out = run_cli(["--seed", "2", "lemma-y", "--n", "100", "--t", "4",
                             "--trials", "5000"])
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "14"

    def test_unique_pairs_enumerated_small_n(self):
        code, out = run_cli(["unique-pairs", "--n", "2", "--trials", "500"])
        assert code == 0
        assert out.splitlines()[1].split(",")[3] == "3/4"

    def test_xy_check(self):
        code, out = run_cli(["xy-check", "--n", "2", "--R", "3", "--trees", "3"])
        assert code == 0
        assert len(out.strip().splitlines()) == 5  # header + fixed + 3 random

    def test_bad_env_seed_exits_2(self, capsys):
        code, _ = run_cli(["play", "--n", "4", "--space-bits", "6"], env_seed="abc")
        assert code == 2
        assert capsys.readouterr().err.startswith("memlab: ")

    def test_unique_pairs_past_enumeration_digit_limit(self):
        code, out = run_cli(["unique-pairs", "--n", "1000", "--trials", "50"])
        assert code == 0
        assert out.splitlines()[1].split(",")[3] == "na"

    @pytest.mark.parametrize("args", [
        ["tradeoff", "--n-list", "4", "--seeds", "0"],
        ["tradeoff", "--n-list", "4", "--s-list", "0,2"],
        ["tradeoff", "--n-list", "0,4"],
        ["adversary", "--n-list", "3", "--seeds", "0"],
        ["adversary", "--n-list", "3", "--s-list", "1,-2"],
        # the later --jobs wins over the one run_cli puts first
        ["tradeoff", "--n-list", "4", "--seeds", "2", "--jobs", "0"],
        ["adversary", "--n-list", "4", "--seeds", "2", "--jobs", "-3"],
    ])
    def test_sweep_sizes_below_one_exit_2(self, args):
        code, out = run_cli(["--jobs", "1"] + args)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("args", [
        ["xy-check", "--n", "0", "--R", "1"],
        ["xy-check", "--n", "-1", "--R", "2"],
        ["xy-check", "--n", "2", "--R", "3", "--trees", "-2"],
        ["xy-check", "--n", "3", "--R", "-1"],
        ["lemma43", "--n", "2000", "--R", "1", "--r", "1500", "--t", "1", "--tree", "compiled"],
        ["lemma43", "--n", "2000", "--R", "1", "--r", "1500", "--t", "1", "--tree", "guessing"],
        ["lemma43", "--n", "8", "--R", "8", "--r", "2", "--t", "1", "--tree", "compiled",
         "--s", "0"],
        ["lemma43", "--n", "8", "--R", "8", "--r", "2", "--t", "1", "--tree", "compiled",
         "--s", "-1"],
        ["unique-pairs", "--n", "10", "--trials", "0"],
        ["play", "--n", "4"],
        ["play", "--n", "4", "--R", "0", "--space-bits", "6"],
        ["adversary", "--n", "4", "--strategy", "mixed"],
        # any readable file: the line index is checked before the header
        ["replay", "--file", __file__, "--line", "0"],
    ])
    def test_bad_sizes_exit_2_without_traceback(self, capsys, args):
        code, out = run_cli(args)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("memlab: ") and "Traceback" not in err

    _LEMMA43 = ["lemma43", "--n", "8", "--R", "8", "--r", "4", "--t", "1"]

    @pytest.mark.parametrize("args,flag,mode", [
        (["adversary", "--n", "8", "--seeds", "3"], "--seeds", "sweep mode"),
        (["adversary", "--n", "8", "--s-list", "1"], "--s-list", "sweep mode"),
        (["adversary", "--n-list", "8", "--seeds", "1", "--n", "64"],
         "--n", "single-game mode"),
        (["adversary", "--n-list", "8", "--seeds", "1", "--space-bits", "6"],
         "--space-bits", "single-game mode"),
        (["adversary", "--n-list", "8", "--seeds", "1", "--audit"],
         "--audit", "single-game mode"),
        (_LEMMA43 + ["--tree", "guessing", "--s", "16"], "--s", "--tree compiled"),
    ])
    def test_flag_the_mode_would_ignore_exits_2(self, capsys, args, flag, mode):
        code, out = run_cli(args)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"memlab: {flag} applies to {mode} only\n"

    def test_refused_flags_fall_back_to_their_defaults(self):
        assert run_cli(["adversary"]) == run_cli(["adversary", "--n", "8"])
        compiled = run_cli(self._LEMMA43 + ["--tree", "compiled"])
        assert compiled == run_cli(self._LEMMA43 + ["--tree", "compiled", "--s", "2"])
        assert compiled[1].splitlines()[1].split(",")[4] == "compiled_s2"

    @pytest.mark.parametrize("args", [
        ["unique-pairs", "--n", "100000", "--trials", "100000"],
        ["lemma-y", "--n", "100", "--t", "2", "--trials", "100000000"],
    ])
    def test_huge_monte_carlo_cells_exit_2(self, monkeypatch, capsys, args):
        def refuse(seed):  # a cell that gets past the cap would allocate here
            raise AssertionError("drew past the Monte Carlo cap")
        monkeypatch.setattr("numpy.random.default_rng", refuse)
        code, out = run_cli(args)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("memlab: ") and "array cells" in err

    def test_config_seeds_zero_exits_2(self, tmp_path):
        cfg_file = tmp_path / "zero.cfg"
        cfg_file.write_text("n = 4\nseeds = 0\n")
        code, _ = run_cli(["--jobs", "1", "tradeoff", "--config", str(cfg_file)])
        assert code == 2

    def test_adversary_sweep_draws_s_from_s_list(self):
        code, out = run_cli(["--jobs", "1", "adversary", "--n-list", "4,5", "--seeds", "6",
                             "--s-list", "1"])
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        assert len(rows) == 12
        for vals in rows:
            n, s, name = int(vals[0]), int(vals[2]), vals[4]
            assert s == (2 * n if name == "perfect" else 1)
        assert {vals[4] for vals in rows} - {"perfect"}

    def test_adversary_sweep_default_s_list_is_pow2(self):
        base = ["--jobs", "1", "--seed", "3", "adversary", "--n-list", "3,4", "--seeds", "4"]
        assert run_cli(base) == run_cli(base + ["--s-list", "pow2"])

    def test_adversary_sweep_at_n128(self):
        code, out = run_cli(["--jobs", "1", "adversary", "--n-list", "128",
                             "--strategy", "mixed", "--seeds", "1"])
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        n = int(vals["n"])
        assert n == 128
        assert int(vals["deletions"]) + int(vals["vanishings"]) == n * (n - 1)
        assert int(vals["queries"]) >= n * (n - 1) // 2
        assert vals["lower_bound_ok"] == vals["involution_ok"] == "True"

    def test_lemma43_compiled(self):
        code, out = run_cli(["lemma43", "--n", "8", "--R", "8", "--r", "4",
                             "--t", "2", "--tree", "compiled", "--s", "2"])
        assert code == 0
        assert out.splitlines()[1].endswith("True")

    def test_lemma43_without_a_slot_exits_2_with_budget_message(self, capsys):
        code, out = run_cli(["lemma43", "--n", "8", "--R", "8", "--r", "2", "--t", "1",
                             "--tree", "compiled", "--s", "0"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("memlab: S=0 bits stores no card index: need at least 4 bits")

    def test_xy_check_refuses_a_tree_past_the_cap(self, capsys):
        # the random trees have depths 1, 2, 3, 4 in turn; at R=38 the last
        # holds 1 + 38 + ... + 38^4 = 2,141,491 R-way nodes, past the 2e6 cap
        code, out = run_cli(["xy-check", "--n", "3", "--R", "38", "--trees", "4"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == "memlab: tree would hold at least 2141491 nodes, cap 2000000\n"

    # the tree cap is the constant DEFAULT_TREE_CAP: the flag that once set
    # it, before or after the subcommand, is refused and builds no tree, and
    # the same command without it builds trees a cap of 1 or 21 would refuse
    @pytest.mark.parametrize("argv,cap", [
        (["--cap-tree", "1", "xy-check", "--n", "3", "--R", "4", "--trees", "2"], 1),
        (["xy-check", "--n", "3", "--R", "4", "--trees", "4", "--cap-tree", "21"], 21),
    ])
    def test_xy_check_honours_cap_tree(self, capsys, argv, cap):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage:") and "tree would hold" not in err
        i = argv.index("--cap-tree")
        assert argv[i + 1] == str(cap)
        code, out = run_cli(argv[:i] + argv[i + 2:])
        rows = out.splitlines()
        # a header, the fixed tree, then one row per random tree
        assert code == 0 and len(rows) == 2 + int(argv[argv.index("--trees") + 1])
        assert all(row.endswith(",True") for row in rows[1:])

    def test_xy_check_runs_past_the_deck_cap(self):
        # n=8, R=8 has 8.2e10 decks, past the 1e7 deck cap; path counting
        # never enumerates them, so the deck cap does not apply
        code, out = run_cli(["xy-check", "--n", "8", "--R", "8", "--trees", "4"])
        rows = out.splitlines()
        assert code == 0 and len(rows) == 6
        assert all(row.endswith(",True") for row in rows[1:])

    # the caps are constants, so a row's bytes follow from its columns alone
    @pytest.mark.parametrize("argv", [
        ["--cap-enum=1", "unique-pairs", "--n", "3"],
        ["unique-pairs", "--n", "3", "--cap-enum=1"],
        ["--cap-tree=1", "xy-check", "--n", "3", "--R", "4"],
        ["lemma43", "--n", "8", "--R", "8", "--r", "2", "--t", "1", "--cap-tree=1"],
    ])
    def test_cap_flags_are_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        flag = next(a for a in argv if a.startswith("--cap"))
        assert exc.value.code == 2
        assert err.startswith("usage:") and f"unrecognized arguments: {flag}" in err

    def test_unique_pairs_enumerates_below_the_deck_cap(self):
        code, out = run_cli(["unique-pairs", "--n", "3", "--trials", "50"])
        assert code in (0, 1) and out.splitlines()[1].split(",")[3] == "80/81"

    # r = 8 = y_sample_size(64, 2): a cell inside the regime, on pattern
    # trees of 5,296 nodes
    @pytest.mark.parametrize("tree,fraction", [
        ("compiled", Fraction(7, 15751175)),
        ("guessing", Fraction(62465189, 9242080687125)),
    ])
    def test_lemma43_runs_at_n64_and_replays(self, tmp_path, tree, fraction):
        out_file = tmp_path / "l43.csv"
        code, _ = run_cli(["--out", str(out_file), "lemma43", "--n", "64", "--R", "64",
                           "--r", "8", "--t", "2", "--tree", tree])
        assert code == 0
        vals = dict(zip(*(line.split(",") for line in out_file.read_text().splitlines())))
        assert Fraction(int(vals["frac_num"]), int(vals["frac_den"])) == fraction
        code, out = run_cli(["replay", "--file", str(out_file), "--line", "1"])
        assert code == 0 and out.splitlines()[-1] == "replay: identical"

    def test_lemma43_guessing_row_at_n3000(self, tmp_path):
        # the guessing tree's speculative outputs and the counts of consistent
        # decks must not cost O(n) per leaf
        out_file = tmp_path / "l43.csv"
        code, _ = run_cli(["--out", str(out_file), "lemma43", "--n", "3000", "--R", "3000",
                           "--r", "8", "--t", "2", "--tree", "guessing"])
        assert code == 0
        assert out_file.read_text().splitlines()[1] == (
            "3000,3000,8,2,guessing,1640447666761,1322840662834541677760505,"
            "1.2400946787089988e-12,0.13533539509218478,True")

    def test_lemma43_past_the_cap_is_refused_before_building(self, capsys, monkeypatch):
        # the pattern tree at r=15 holds over 5e6 nodes; the count stops at
        # the cap and no node is made
        def no_node(*args):
            raise AssertionError("built a node past the cap")

        monkeypatch.setattr("memlab.trees.TreeNode", no_node)
        code, out = run_cli(["lemma43", "--n", "30", "--R", "30", "--r", "15", "--t", "1"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("memlab: tree would hold at least ") and "cap 2000000" in err

    # r=10 would compile a 142,418-node tree and r=15 one past the tree cap; the
    # lemma's preconditions refuse both cells from their columns alone
    @pytest.mark.parametrize("argv,msg", [
        (["--n", "16", "--R", "16", "--r", "10", "--t", "1"], "need depth <= n/2, got r=10, n=16"),
        (["--n", "20", "--R", "20", "--r", "15", "--t", "1"], "need depth <= n/2, got r=15, n=20"),
        (["--n", "16", "--R", "16", "--r", "4", "--t", "3"], "need 1 <= t <= r/2, got t=3, r=4"),
        (["--n", "16", "--R", "16", "--r", "4", "--t", "0", "--tree", "guessing"],
         "need 1 <= t <= r/2, got t=0, r=4"),
    ])
    def test_lemma43_checks_the_lemma_before_building(self, capsys, monkeypatch, argv, msg):
        def no_tree(*args, **kwargs):
            raise AssertionError("built a tree for a cell outside the lemma")

        monkeypatch.setattr(cli, "compile_prefix_tree", no_tree)
        monkeypatch.setattr(cli, "build_guessing_tree", no_tree)
        code, out = run_cli(["lemma43"] + argv)
        err = capsys.readouterr().err
        assert code == 2 and out == "" and err == f"memlab: {msg}\n"


def _child(args, **kw):
    """Run `python ARGS` in a fresh interpreter that imports memlab from this
    source tree, without MEMLAB_SEED."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "MEMLAB_SEED"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=False, **kw)


class TestParserReuse:
    """`main` builds its parser once per process; no call may see another's
    flags, environment or errors."""

    def _fresh(self, argv):
        proc = _child(["-m", "memlab.cli", *argv])
        return proc.returncode, proc.stdout

    def test_env_seed_read_on_every_call(self):
        lemma = ["lemma-y", "--n", "10", "--t", "1", "--trials", "20"]
        assert run_cli(["--seed", "5"] + lemma)[1].splitlines()[1].split(",")[4] == "5"
        code, out = run_cli(lemma, env_seed=9)
        assert code == 0 and out.splitlines()[1].split(",")[4] == "9"
        assert (code, out) == run_cli(["--seed", "9"] + lemma)

    def test_grammar_error_leaves_the_parser_whole(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["play", "--n", "abc"])
        assert exc.value.code == 2 and "usage:" in capsys.readouterr().err
        argv = ["--jobs", "1", "--seed", "3", "xy-check", "--n", "2", "--R", "3", "--trees", "3"]
        assert run_cli(argv) == self._fresh(argv)

    @pytest.mark.parametrize("before", [True, False])
    def test_out_does_not_leak_into_the_next_call(self, tmp_path, before):
        out_file = tmp_path / "first.csv"
        cmd = ["unique-pairs", "--n", "2", "--trials", "50"]
        flag = ["--out", str(out_file)]
        code, out = run_cli(flag + cmd if before else cmd + flag)
        written = out_file.read_text()
        assert code == 0 and out == "" and written.startswith(cli.UNIQUE_HEADER)
        out_file.unlink()
        assert run_cli(cmd) == (0, written)
        assert not out_file.exists()


_COLD_START = """
import sys
from memlab.cli import main

def run(*argv):
    code = main(["--jobs", "1", "--seed", "3", *argv])
    assert code == 0, (argv, code)

run("--out", "t.csv", "tradeoff", "--n-list", "4", "--seeds", "2")
run("--out", "a.csv", "adversary", "--n-list", "4", "--seeds", "2")
run("play", "--n", "4", "--space-bits", "6")
run("--out", "l.csv", "lemma43", "--n", "4", "--R", "4", "--r", "2", "--t", "1")
run("--out", "x.csv", "xy-check", "--n", "2", "--R", "3", "--trees", "2")
run("report", "t.csv", "a.csv", "l.csv", "x.csv")
run("replay", "--file", "t.csv", "--line", "1")
run("replay", "--file", "a.csv", "--line", "2")
assert "numpy" not in sys.modules and "concurrent.futures.process" not in sys.modules
assert "_hashlib" not in sys.modules
run("lemma-y", "--n", "10", "--t", "1", "--trials", "20")
assert "numpy" in sys.modules and "concurrent.futures.process" not in sys.modules
print("cold start ok")
"""


def test_serial_commands_load_neither_numpy_nor_the_pool(tmp_path):
    """Only the Monte Carlo samplers load numpy (which loads OpenSSL's
    `_hashlib`) and only a parallel sweep loads the process pool; one fresh
    interpreter runs every other command with --jobs 1, then a lemma-y cell."""
    proc = _child(["-c", _COLD_START], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("cold start ok\n")


# sha256 of the --out bytes of fixed-seed runs; a change to any of them means
# the players, the deck host or the CSV writers changed what they produce
_GOLDEN = {
    ("tradeoff", "--n-list", "8,16,32", "--s-list", "pow2", "--seeds", "3",
     "--strategy", "multipass"):
        "28f4bb1e11dbf3794f49bedda87dd015e52bc2ae8fdb418e09d502b83bc81698",
    ("tradeoff", "--n-list", "8,16,32", "--s-list", "pow2", "--seeds", "3",
     "--strategy", "rmultipass"):
        "8699cf6f8d42d928cef17f0ea8b8a18434b5fc7ab75489294ed0358f8598155b",
    # the benchmark's two largest pair counts, where most rounds scan far past their block
    ("tradeoff", "--n-list", "64,256", "--s-list", "pow2", "--seeds", "2",
     "--strategy", "multipass"):
        "beaf90e139399e38cb3d1a552e503eaf4ca6a435c6c6ab676d8612d8e9ce0e8a",
    ("tradeoff", "--n-list", "64,256", "--s-list", "pow2", "--seeds", "2",
     "--strategy", "rmultipass"):
        "bb0a9ea6d1beb0abc11439b1c083b2ddd7d00a0ab5521d2bf8b68c5dc4f3ea40",
    ("play", "--strategy", "multipass", "--n", "16", "--space-bits", "20"):
        "18d06b5fb66c0c7522ceb3570701c41a8a46fcdbf3099954289a057ef86d5b8d",
    ("play", "--strategy", "rmultipass", "--n", "16", "--space-bits", "20"):
        "d8d2c6738b85814f57b1991d1f07b094e8240a788023621f4fae9c43131142f4",
    ("play", "--strategy", "perfect", "--n", "16"):
        "132d5b61497bab85573c63e171eff716d7d0a4831060c0d2c143722dadd9253d",
    # s = 1 full-transcript games, whose scans cross the longest runs of misses
    ("play", "--strategy", "multipass", "--n", "256", "--space-bits", "9"):
        "a863dc52bae46d239bddd142c0c7ececb8172a8b81fa251b0d1684f62e4d0bc7",
    ("play", "--strategy", "rmultipass", "--n", "256", "--space-bits", "9"):
        "78e5cbc2879217ef6e1dbe0aa6de96130939afde42468734e89644d27bbcc87a",
    ("adversary", "--n", "16", "--space-bits", "20", "--strategy", "multipass"):
        "3bfabea430062603a4cf20e7196b0c97b0e0c2216c97a76e98817b093e310e10",
    # the mixed rotation draws every shipped player
    ("adversary", "--n-list", "8,16", "--seeds", "3", "--strategy", "mixed"):
        "99527d7bb4bffcc73b34089753b74e11edfd437cf19c37e654fd8a61f43fcfb2",
}


def _golden_ids() -> list[str]:
    """command-strategy, with the n-list (or n) added where an earlier entry took that id."""
    ids: list[str] = []
    for a in _GOLDEN:
        name = f"{a[0]}-{a[a.index('--strategy') + 1]}"
        n = a[a.index("--n-list" if "--n-list" in a else "--n") + 1]
        ids.append(name if name not in ids else f"{name}-n{n}")
    return ids


class TestGoldenBytes:
    @pytest.mark.parametrize("args", list(_GOLDEN), ids=_golden_ids())
    def test_out_bytes_pinned(self, tmp_path, args):
        out = tmp_path / "out.csv"
        code, _ = run_cli(["--jobs", "1", "--seed", "7", "--out", str(out), *args])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[args]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, specs):
        return map(fn, specs)


class TestJobs:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "made", [])
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)

    def test_clamped_to_cells_and_cores(self):
        assert cli._map_cells(abs, [-1, -2, -3], 10**6) == [1, 2, 3]
        assert cli._map_cells(abs, list(range(-9, 0)), 10**6) == list(range(9, 0, -1))
        assert _RecordingPool.made == [3, 4]

    def test_unknown_core_count_runs_serially(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._map_cells(abs, [-1, -2], 8) == [1, 2]
        assert _RecordingPool.made == []

    def test_huge_jobs_flag_same_csv(self):
        sweep = ["tradeoff", "--n-list", "2", "--seeds", "2"]
        huge = run_cli(["--jobs", str(10**6)] + sweep)
        # a tradeoff task is one deck, all slot counts: 1 n-value x 2 seeds
        assert _RecordingPool.made == [2]
        assert huge == run_cli(["--jobs", "1"] + sweep)

    def test_jobs_flag_beats_config_key_beats_core_count(self, tmp_path):
        cfg_file = tmp_path / "jobs.cfg"
        cfg_file.write_text("jobs = 2\n")
        sweep = ["tradeoff", "--n-list", "2", "--seeds", "3"]
        configured = sweep + ["--config", str(cfg_file)]
        assert run_cli(["--jobs", "1"] + configured)[0] == 0
        assert _RecordingPool.made == []  # --jobs 1 runs serially
        assert run_cli(configured)[0] == 0
        assert _RecordingPool.made == [2]
        assert run_cli(sweep)[0] == 0
        # all 4 cores, capped at 3 decks (1 n-value x 3 seeds)
        assert _RecordingPool.made == [2, 3]


# one command per replayable row kind: (argv, data row to replay)
ROW_KINDS = [
    (["xy-check", "--n", "2", "--R", "3", "--trees", "2"], 1),  # fixed
    (["xy-check", "--n", "2", "--R", "3", "--trees", "2"], 2),  # random
    (["lemma43", "--n", "4", "--R", "4", "--r", "2", "--t", "1",
      "--tree", "compiled", "--s", "2"], 1),
    (["lemma43", "--n", "4", "--R", "4", "--r", "2", "--t", "1", "--tree", "guessing"], 1),
    (["unique-pairs", "--n", "2", "--trials", "200"], 1),
    (["tradeoff", "--n-list", "2,4", "--seeds", "2"], 2),
    (["adversary", "--n-list", "3", "--seeds", "2"], 1),
    (["lemma-y", "--n", "50", "--t", "3", "--r", "30", "--trials", "2000"], 1),  # fails
]


@pytest.mark.parametrize("args,line", ROW_KINDS)
def test_row_kind_replays_and_exit_matches_report(tmp_path, args, line):
    out_file = tmp_path / "rows.csv"
    code, _ = run_cli(["--seed", "6", "--jobs", "1", "--out", str(out_file)] + args)
    assert code == run_cli(["report", str(out_file)])[0]
    code, out = run_cli(["replay", "--file", str(out_file), "--line", str(line)])
    assert code == 0
    assert out.splitlines()[-1] == "replay: identical"


class TestReportAndReplay:
    def _write_sweeps(self, tmp_path):
        tr = tmp_path / "tr.csv"
        adv = tmp_path / "adv.csv"
        code, _ = run_cli(["--seed", "5", "--jobs", "1", "--out", str(tr),
                           "tradeoff", "--n-list", "4,8", "--seeds", "3"])
        assert code == 0
        code, _ = run_cli(["--seed", "5", "--jobs", "1", "--out", str(adv),
                           "adversary", "--n-list", "2,3", "--seeds", "4"])
        assert code == 0
        return tr, adv

    def test_report_success_and_merge(self, tmp_path):
        tr, adv = self._write_sweeps(tmp_path)
        tidy = tmp_path / "tidy.csv"
        code, out = run_cli(["--out", str(tidy), "report", str(tr), str(adv)])
        assert code == 0
        assert "0 failing" in out
        assert tidy.read_text().startswith("file,line,column,value,row_ok")

    def test_report_flags_failure_with_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("n,queries,ok\n4,10,True\n4,2,False\n")
        code, out = run_cli(["report", str(bad)])
        assert code == 1
        assert "1 failing (first at line 3)" in out

    def test_report_empty_input_set_succeeds(self):
        code, out = run_cli(["report"])
        assert code == 0

    def test_report_unreadable_path_exits_2(self, tmp_path, capsys):
        code, out = run_cli(["report", str(tmp_path / "missing.csv")])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith(f"memlab: {tmp_path / 'missing.csv'}: ")

    def test_report_empty_file_has_no_rows(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, out = run_cli(["report", str(empty)])
        assert code == 0
        assert out == f"{empty}: 0 rows, 0 failing\n"

    def test_replay_empty_file_says_so(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, out = run_cli(["replay", "--file", str(empty), "--line", "1"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == "memlab: line 1 out of range (file is empty)\n"

    def test_replay_header_only_file_has_0_data_rows(self, tmp_path, capsys):
        header_only = tmp_path / "h.csv"
        header_only.write_text(cli.ADVERSARY_HEADER + "\n")
        code, _ = run_cli(["replay", "--file", str(header_only), "--line", "1"])
        assert code == 2
        assert "(file has 0 data rows)" in capsys.readouterr().err

    def test_report_malformed_row_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1\n")
        code, _ = run_cli(["report", str(bad)])
        assert code == 2

    def test_replay_tradeoff_record(self, tmp_path):
        tr, adv = self._write_sweeps(tmp_path)
        code, out = run_cli(["replay", "--file", str(tr), "--line", "2"])
        assert code == 0
        assert "identical" in out

    def test_replay_adversary_row(self, tmp_path):
        _, adv = self._write_sweeps(tmp_path)
        code, out = run_cli(["replay", "--file", str(adv), "--line", "5"])
        assert code == 0

    def test_replay_lemma_y_row(self, tmp_path):
        out_file = tmp_path / "ly.csv"
        code, _ = run_cli(["--seed", "8", "--out", str(out_file), "lemma-y",
                           "--n", "100", "--t", "2", "--trials", "2000"])
        assert code == 0
        code, out = run_cli(["replay", "--file", str(out_file), "--line", "1"])
        assert code == 0
        assert "identical" in out

    def test_replay_rejects_row_with_wrong_field_count(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(cli.UNIQUE_HEADER + "\n2,200\n")
        code, _ = run_cli(["replay", "--file", str(bad), "--line", "1"])
        assert code == 2

    def test_retired_lemma_y_header_reports_but_does_not_replay(self, tmp_path, capsys):
        # a row the argpartition sampler wrote for `--seed 8 lemma-y --n 100 --t 2 --trials 2000`
        old = tmp_path / "old.csv"
        old.write_text("n,r,t,trials,seed,estimate,bound,sigma,ok\n"
                       "100,10,2,2000,8,0.0155,0.1353352832366127,0.007649171339036619,True\n")
        capsys.readouterr()
        code, out = run_cli(["report", str(old)])
        assert code == 0
        assert "1 rows, 0 failing" in out
        code, _ = run_cli(["replay", "--file", str(old), "--line", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "before the urn sampler" in err and "code changed" in err

    def test_replay_adversary_row_without_a_slot_exits_2(self, tmp_path, capsys):
        row = tmp_path / "adv.csv"
        row.write_text(cli.ADVERSARY_HEADER + "\n8,0,0,1,multipass,28,28,28,True,True\n")
        code, out = run_cli(["replay", "--file", str(row), "--line", "1"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("memlab: S=0 bits stores no card index: need at least 4 bits")

    @pytest.mark.parametrize("header,row", [
        (cli.XY_HEADER, "3,4,2,0,bogus,True"),
        (cli.LEMMA43_HEADER, "8,8,2,1,bogus,1,1,1.0,1.0,True"),
    ])
    def test_replay_refuses_an_unknown_tree_kind(self, tmp_path, capsys, header, row):
        f = tmp_path / "rows.csv"
        f.write_text(f"{header}\n{row}\n")
        code, out = run_cli(["replay", "--file", str(f), "--line", "1"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == "memlab: unknown tree kind 'bogus'\n"

    def test_replay_rejects_aggregate_rows(self, tmp_path):
        tr, _ = self._write_sweeps(tmp_path)
        lines = tr.read_text().splitlines()
        summary_line = next(i for i, ln in enumerate(lines) if ln.startswith("summary"))
        code, _ = run_cli(["replay", "--file", str(tr), "--line", str(summary_line)])
        assert code == 2


def _load_perfbench(name):
    """perfbench/<name>.py, loaded by path (perfbench is not a package)."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(here, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerBindings:
    """The traced benchmark run rebinds these names; a rename must fail here."""

    def test_wrapped_cli_globals_exist(self):
        tracer = _load_perfbench("tracer")
        for name in list(tracer.CLI_SPANS) + list(tracer.COUNTERS):
            assert callable(getattr(cli, name, None)), name

    def test_wrapped_adversary_names_exist(self):
        from memlab import adversary
        assert callable(adversary.kg_answer)
        assert callable(adversary.edge_key)


class TestBenchmarkChecks:
    """The benchmark re-checks every row the CLI writes; a format change that
    its checker cannot read would count every row as a failed operation."""

    def test_lemma_y_csv_passes_benchmark_check(self, tmp_path):
        checks = _load_perfbench("checks")
        out_file = tmp_path / "ly.csv"
        code, _ = run_cli(["--seed", "1001", "--out", str(out_file), "lemma-y",
                           "--n", "100", "--t", "2", "--trials", "10000"])
        assert code == 0
        assert checks.check_csv("lemma-y", out_file.read_text()) == (1, 0)


# files the grammar test names, good and bad; argv holds their names and
# the test swaps in paths
_GRAMMAR_FILES = {
    "deck.txt": "2 2\n1 2 2 1\n",
    "bad_deck.txt": "2 2\n1 1 1 2\n",
    "empty.txt": "",
    "bad.cfg": "n = 4\nsead = 1\n",
    # a row with no slot: the budget stores no card index
    "adv_s0.csv": cli.ADVERSARY_HEADER + "\n8,0,0,1,multipass,28,28,28,True,True\n",
    "adv.csv": cli.ADVERSARY_HEADER + "\n4,3,1,5,rmultipass,1,1,1,True,True\n",
    "tr_s0.csv": cli.TRADEOFF_HEADER + "\nrecord,4,0,0,5,multipass,1,1,True,0,0.0,True\n",
    "retired.csv": "n,r,t,trials,seed,estimate,bound,sigma,ok\n4,2,1,10,1,0.1,0.3,0.1,True\n",
}


@pytest.fixture(scope="module")
def grammar_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("grammar")
    for name, text in _GRAMMAR_FILES.items():
        (d / name).write_text(text)
    return {name: str(d / name) for name in [*_GRAMMAR_FILES, "missing.csv"]} | {
        "sweep.cfg": _SWEEP_CFG}


def _flags(**choices):
    """Each flag left out or given one of its values; a value None is a bare flag."""
    parts = [st.one_of(st.just(()),
                       st.sampled_from(vals).map(lambda v, f=f: (f,) if v is None else (f, v)))
             for f, vals in choices.items()]
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _given(**choices):
    """Each flag given one of its values."""
    return st.tuples(*(st.sampled_from(vals).map(lambda v, f=f: [f, v])
                       for f, vals in choices.items())).map(lambda ps: sum(ps, []))


def _dashed(build, **choices):
    return build(**{"--" + k.replace("_", "-"): v for k, v in choices.items()})


def _cmd(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


def _grammar():
    """Bounded argv over the whole grammar: n <= 4, sweeps always get --n-list
    and --seeds <= 2, and every run is serial.  Required flags
    are always given, and a bad value is one choice among good ones."""
    sizes = ["1", "2", "3", "4", "0", "-1", "x"]
    bits = ["1", "2", "3", "4", "6", "20", "0", "-1"]  # 3 bits is one index at n = 4
    players = ["multipass", "rmultipass", "perfect"]
    files = sorted([*_GRAMMAR_FILES, "missing.csv", "sweep.cfg"])
    sweep = dict(strategy=players + ["mixed", "psychic"], s_list=["pow2", "1", "3", "0,2"],
                 config=["sweep.cfg", "sweep.cfg", "bad.cfg"])
    grid = _dashed(_given, n_list=["2", "1,3", "4", "0", "x", ""], seeds=["1", "2", "0"])
    commands = st.one_of(
        _cmd("play", _dashed(_given, space_bits=bits),
             _dashed(_flags, strategy=players, n=sizes, R=["1", "2", "8", "0"],
                     deck=["deck.txt", "bad_deck.txt", "empty.txt", "missing.csv"])),
        _cmd("adversary", _dashed(_flags, strategy=sweep["strategy"], n=sizes,
                                  space_bits=bits, audit=[None])),
        _cmd("adversary", grid, _dashed(_flags, **sweep)),
        _cmd("tradeoff", grid, _dashed(_flags, **sweep)),
        _cmd("lemma-y", _dashed(_given, n=["1", "4", "10", "0"], t=["1", "2", "5", "0"]),
             _dashed(_flags, r=["0", "2", "7", "30", "-1"], trials=["1", "50", "0"])),
        _cmd("xy-check", _dashed(_given, n=sizes, R=["1", "3", "4", "8", "0"]),
             _dashed(_flags, trees=["0", "2", "-1"])),
        _cmd("lemma43", _dashed(_given, n=sizes, R=["1", "2", "4", "8"],
                                r=["0", "1", "2", "3"], t=["1", "2", "0"]),
             _dashed(_flags, tree=["compiled", "guessing"], s=["1", "2", "0", "-1"])),
        _cmd("unique-pairs", _dashed(_given, n=sizes), _dashed(_flags, trials=["1", "50", "0"])),
        _cmd("report", st.lists(st.sampled_from(files), max_size=2)),
        _cmd("replay", _dashed(_given, file=files, line=["1", "2", "0", "-1", "x"])),
    )
    globals_ = _dashed(_flags, seed=["0", "3", "12", "7", "x"])
    return st.tuples(globals_, commands).map(lambda gc: ["--jobs", "1"] + gc[0] + gc[1])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=_grammar())
def test_cli_grammar_exits_cleanly(grammar_paths, argv):
    """Any argv ends in exit 0, 1 or 2 without a traceback, and an exit 2
    names the problem first: `memlab: ` for bad values, argparse's `usage:`
    for bad grammar."""
    argv = [grammar_paths.get(a, a) for a in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    text = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in text, (argv, code, text)
    if code == 2:
        assert text.startswith(("memlab: ", "usage:")), (argv, text)
