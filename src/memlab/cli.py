"""Command-line harness: single games, adversary audits, parameter sweeps,
probabilistic checks, CSV reporting, and row replay.

Every CSV row carries the child seed that produced it, all output is written
in deterministic cell order regardless of the parallelism degree, and the
exit status is the verdict `report` gives on the CSV, so any command can serve
as a CI gate.  `memlab replay --file F --line K` recomputes one data row and
compares byte for byte.
"""
from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from dataclasses import dataclass, field

from .adversary import adversarial_play, involution_audit, replay_consistent
from .analysis import (unique_pairs_expected, unique_pairs_expected_enumerated,
                       unique_pairs_mc, y_sample_size, y_tail_estimate, YExperiment)
from .game_core import (CapExceeded, GameParams, check_cells, derive_seed, generate_valid_input,
                        matches_of, read_deck_file, validate_deck, verify_transcript,
                        write_transcript_csv, Transcript)
from .strategies import (PLAYERS, DeckHost, MultiPass, SpaceBudget, make_strategy,
                         multi_pass_play, multi_pass_time_bound, randomized_order)
from .trees import (build_guessing_tree, check_lemma43, compile_prefix_tree,
                    fixed_position_tree, lemma43_check, random_tree, xy_equiv_check)

PLAY_HEADER = "n,S,s,T,passes,correct"
TRADEOFF_HEADER = "kind,n,S,s,seed,strategy,T,passes,correct,st_product,c_ratio,ok"
ADVERSARY_HEADER = "n,S,s,seed,strategy,queries,deletions,vanishings,lower_bound_ok,involution_ok"
LEMMA_Y_HEADER = "n,r,t,trials,seed,sampler,estimate,bound,sigma,ok"
XY_HEADER = "n,R,depth,seed,kind,ok"
LEMMA43_HEADER = "n,R,r,t,tree,frac_num,frac_den,fraction,bound,ok"
UNIQUE_HEADER = "n,trials,seed,enumerated,from_n_pairs,from_all_pairs,mc_estimate,mc_sigma,threshold,ok"

# A header is its rows' format version: when a command's bytes for the same
# seed change, its header changes and the old one moves here with the reason.
# `report` still reads rows under these headers; `replay` refuses them.
_RETIRED_HEADERS = {
    "n,r,t,trials,seed,estimate,bound,sigma,ok": "lemma-y row written before the urn sampler",
}


def _emit(out_path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flag_cols(header: list[str]) -> list[int]:
    return [i for i, h in enumerate(header) if h in ("ok", "correct") or h.endswith("_ok")]


def _all_ok(lines: list[str]) -> bool:
    """Every ok/correct/*_ok column of every data row is True."""
    cols = _flag_cols(lines[0].split(","))
    return all(row.split(",")[i] == "True" for row in lines[1:] for i in cols)


def _finish(out_path: str | None, lines: list[str]) -> int:
    """Write the CSV; the exit status is the verdict `report` gives on it."""
    _emit(out_path, lines)
    return 0 if _all_ok(lines) else 1


def _pow2(n: int) -> list[int]:
    """Slot counts 1, 2, 4, ... up to 2n."""
    return [1 << k for k in range((2 * n).bit_length())]


# ---------------------------------------------------------------------------
# Sweep configuration

@dataclass
class SweepConfig:
    """Grid for the tradeoff and adversary sweeps.

    `s_spec` is either the token "pow2" (slots 1, 2, 4, ... up to 2n per n)
    or an explicit list of slot counts.
    """

    ns: list[int] = field(default_factory=lambda: [8, 16, 32, 64, 128, 256])
    s_spec: object = "pow2"
    seeds: int = 100
    strategy: str = "multipass"
    jobs: int = 1
    master_seed: int = 0

    def s_values(self, n: int) -> list[int]:
        return _pow2(n) if self.s_spec == "pow2" else list(self.s_spec)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key = value format; lists are comma separated; # starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


# config key -> (SweepConfig field, parser, CLI flag that overrides the key)
_CONFIG_KEYS = {
    "n": ("ns", _int_list, "n_list"),
    "s": ("s_spec", lambda text: text if text == "pow2" else _int_list(text), "s_list"),
    "seeds": ("seeds", int, "seeds"),
    "strategy": ("strategy", str, "strategy"),
    "jobs": ("jobs", int, "jobs"),
    "seed": ("master_seed", int, "seed"),
}
# below a key's flag and config key, above SweepConfig's default
_FALLBACKS = {"seed": lambda: os.environ.get("MEMLAB_SEED", "0"),
              "jobs": lambda: os.cpu_count()}


def sweep_config_from(args) -> SweepConfig:
    """Each key: its flag, else its config key, else its fallback, else the default."""
    cfg = SweepConfig()
    cfg.strategy = getattr(args, "sweep_strategy", cfg.strategy)
    raw = parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = [key for key in raw if key not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(f"{args.config}: unknown key {', '.join(unknown)}; "
                         f"known keys are {', '.join(_CONFIG_KEYS)}")
    for key, (name, parse, flag) in _CONFIG_KEYS.items():
        val = getattr(args, flag, None)
        if val is None:
            val = raw.get(key)
        if val is None and key in _FALLBACKS:
            val = _FALLBACKS[key]()
        if val is not None:
            setattr(cfg, name, parse(val))
    # flags already passed argparse's choices; a config value must pass them too
    choices = getattr(args, "strategy_choices", None)
    if choices and cfg.strategy not in choices:
        raise ValueError(f"{args.config}: strategy {cfg.strategy!r} is not one of "
                         f"{', '.join(choices)}")
    slots = cfg.s_values(1)
    if not cfg.ns or not slots or min(cfg.seeds, cfg.jobs, *cfg.ns, *slots) < 1:
        raise ValueError("sweeps need seeds and jobs >= 1 and nonempty pair and slot lists "
                         "of values >= 1")
    return cfg


def _map_cells(fn, specs: list, jobs: int) -> list:
    # a forked pool starts all its workers at the first submit
    jobs = min(jobs, len(specs), os.cpu_count() or 1)
    if jobs <= 1:
        return [fn(spec) for spec in specs]
    from concurrent.futures import ProcessPoolExecutor  # loaded only for a parallel sweep

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, specs))


# ---------------------------------------------------------------------------
# Tradeoff sweep

def _tradeoff_deck(spec: tuple) -> list[tuple]:
    """Draw and pair one deck, then play it at each slot count: one record per s."""
    n, slots, dseed, strategy = spec
    x = generate_valid_input(GameParams(n, n, dseed))
    matches = matches_of(x)
    order = randomized_order(n, derive_seed(dseed, "order")) if strategy == "rmultipass" else None
    recs = []
    for s in slots:
        tr = multi_pass_play(x, s, order=order, lean=True)
        correct = set(tr.outputs) == matches
        in_bound = tr.flips <= multi_pass_time_bound(SpaceBudget.for_slots(n, s))
        recs.append((dseed, tr.flips, tr.passes, correct, in_bound))
    return recs


def _c_ratio(budget: SpaceBudget, T: int) -> float:
    """The memory-time constant S*T / (n^2 ceil(log2 2n))."""
    return budget.S * T / (budget.n * budget.n * budget.bits_per_index)


def _tradeoff_record_row(n: int, s: int, strategy: str, rec: tuple) -> str:
    budget = SpaceBudget.for_slots(n, s)
    dseed, T, passes, correct, in_bound = rec
    ok = correct and in_bound
    return (f"record,{n},{budget.S},{s},{dseed},{strategy},{T},{passes},"
            f"{correct},{budget.S * T},{_c_ratio(budget, T)!r},{ok}")


def tradeoff_sweep(cfg: SweepConfig) -> tuple[list[str], bool]:
    """Grid of multi-pass runs; asserts the memory-time product stays within
    twice its calibration at the smallest n in the grid."""
    slots = {n: cfg.s_values(n) for n in cfg.ns}
    check_cells(cfg.seeds * sum(len(slots[n]) for n in cfg.ns),
                f"a tradeoff sweep of {cfg.seeds} seeds")
    decks = [(n, slots[n], derive_seed(cfg.master_seed, "deck", n, k), cfg.strategy)
             for n in cfg.ns for k in range(cfg.seeds)]
    played = iter(_map_cells(_tradeoff_deck, decks, cfg.jobs))
    # regroup the per-deck records into (n, s) cells, each in seed order
    cells, results = [], []
    for n in cfg.ns:
        per_deck = [next(played) for _ in range(cfg.seeds)]
        for s, recs in zip(slots[n], zip(*per_deck)):
            cells.append((n, s))
            results.append(recs)

    # a cell's worst run: the largest T, then the most passes at that T
    worst = [max((T, passes) for _, T, passes, _, _ in recs) for recs in results]
    ratios = [_c_ratio(SpaceBudget.for_slots(n, s), T) for (n, s), (T, _) in zip(cells, worst)]
    n_min = min(cfg.ns)
    c_cal = max(ratio for (n, _), ratio in zip(cells, ratios) if n == n_min)

    lines = [TRADEOFF_HEADER]
    for (n, s), recs, (T, passes), ratio in zip(cells, results, worst, ratios):
        lines += [_tradeoff_record_row(n, s, cfg.strategy, rec) for rec in recs]
        budget = SpaceBudget.for_slots(n, s)
        recs_ok = all(correct and in_bound for _, _, _, correct, in_bound in recs)
        ok = recs_ok and ratio <= 2.0 * c_cal
        lines.append(f"summary,{n},{budget.S},{s},-1,{cfg.strategy},{T},"
                     f"{passes},{recs_ok},{budget.S * T},{ratio!r},{ok}")
    all_ok = _all_ok(lines)  # a summary row is ok only if its records are
    lines.append(f"calibration,{n_min},0,0,-1,{cfg.strategy},0,0,True,0,{c_cal!r},{all_ok}")
    return lines, all_ok


# ---------------------------------------------------------------------------
# Adversary sweep

def _adversary_game(n: int, s: int, seed: int, name: str, keep_records: bool = False):
    """One seeded adversary game: (CSV row, result, involution report or None)."""
    budget = SpaceBudget.for_slots(n, s)
    strat = make_strategy(name, n, seed)
    res = adversarial_play(strat, n, s, keep_records=keep_records)
    lower_ok = res.log.queries >= n * (n - 1) // 2
    rep = None if res.matching is None else involution_audit(res.log, res.matching)
    row = (f"{n},{budget.S},{s},{seed},{name},{res.log.queries},"
           f"{res.log.deletions},{res.log.vanishings},{lower_ok},{rep is not None and rep.ok}")
    return row, res, rep


def _adversary_cell(spec: tuple) -> str:
    n, k, master, token, slots = spec
    seed = derive_seed(master, "adv", n, k)
    rnd = random.Random(derive_seed(seed, "pick"))
    name = rnd.choice(list(PLAYERS)) if token == "mixed" else token
    s = 2 * n if name == "perfect" else rnd.choice(slots)
    return _adversary_game(n, s, seed, name)[0]


def adversary_sweep(cfg: SweepConfig) -> tuple[list[str], bool]:
    """Each run draws its slot count from `cfg.s_values(n)`; perfect play gets 2n."""
    check_cells(cfg.seeds * len(cfg.ns), f"an adversary sweep of {cfg.seeds} seeds")
    slots = {n: cfg.s_values(n) for n in cfg.ns}
    specs = [(n, k, cfg.master_seed, cfg.strategy, slots[n])
             for n in cfg.ns for k in range(cfg.seeds)]
    lines = [ADVERSARY_HEADER] + _map_cells(_adversary_cell, specs, cfg.jobs)
    return lines, _all_ok(lines)


# ---------------------------------------------------------------------------
# Single-run and check commands

def _refuse_space_bits(args) -> None:
    if args.space_bits is not None:
        raise ValueError("--space-bits conflicts with --strategy perfect, which stores every card")


def _refuse_flags(args, names: list[str], mode: str) -> None:
    """Refuse each named flag that was given where `mode` is not in force:
    a flag the command would otherwise silently ignore."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:  # --seeds 0 is given, too
            raise ValueError(f"--{name.replace('_', '-')} applies to {mode} only")


def cmd_play(args) -> int:
    if args.deck:
        with open(args.deck) as fh:
            n, R, decks = read_deck_file(fh)
        for flag, given, header in (("--n", args.n, n), ("--R", args.R, R)):
            if given is not None and given != header:
                raise ValueError(f"{flag} {given} conflicts with the deck file's header "
                                 f"{flag[2:]}={header}")
        if not decks:
            raise ValueError("deck file holds no decks")
        x = decks[0]
        validate_deck(x, R)
    else:
        n = 8 if args.n is None else args.n
        R = n if args.R is None else args.R
        x = generate_valid_input(GameParams(n, R, args.seed))
    if args.strategy == "perfect":
        _refuse_space_bits(args)
        budget = SpaceBudget.for_slots(n, 2 * n)
    else:
        if args.space_bits is None:
            raise ValueError("--space-bits is required for this strategy")
        budget = SpaceBudget(args.space_bits, n)
    strat = make_strategy(args.strategy, n, args.seed)
    host = DeckHost(x, budget.slots, Transcript())
    strat.play(host)
    tr = host.transcript
    report = verify_transcript(x, tr)
    row = f"{n},{budget.S},{budget.slots},{tr.flips},{tr.passes},{report.ok}"
    code = _finish(None, [PLAY_HEADER, row])
    if args.out:
        with open(args.out, "w") as fh:
            write_transcript_csv(tr, fh)
    return code


def cmd_adversary(args) -> int:
    if args.config or args.n_list:
        _refuse_flags(args, ["n", "space_bits", "audit"], "single-game mode")
        return _finish(args.out, adversary_sweep(sweep_config_from(args))[0])
    _refuse_flags(args, ["seeds", "s_list"], "sweep mode")
    n = 8 if args.n is None else args.n
    strategy = args.strategy or "multipass"
    if strategy == "mixed":
        raise ValueError("--strategy mixed applies to sweep mode only")
    if strategy == "perfect":
        _refuse_space_bits(args)
        s = 2 * n
    elif args.space_bits is not None:
        s = SpaceBudget(args.space_bits, n).slots
    else:
        s = max(1, n // 2)
    row, res, rep = _adversary_game(n, s, args.seed, strategy, keep_records=args.audit)
    code = _finish(args.out, [ADVERSARY_HEADER, row])
    if args.audit:
        print(f"audit: complete={res.complete} replay_consistent={replay_consistent(res)}",
              file=sys.stderr)
        if rep:
            print(f"audit: claim_ok={rep.claim_ok} accounting_ok={rep.accounting_ok} "
                  f"lower_bound_ok={rep.lower_bound_ok} deletions={rep.deletions} "
                  f"vanishings={rep.vanishings} pairs={rep.pair_count}", file=sys.stderr)
    return code


def cmd_tradeoff(args) -> int:
    return _finish(args.out, tradeoff_sweep(sweep_config_from(args))[0])


def _lemma_y_row(n: int, r: int, t: int, trials: int, seed: int) -> str:
    est = y_tail_estimate(YExperiment(n=n, r=r, t=t, trials=trials, seed=seed))
    return f"{n},{r},{t},{trials},{seed},urn,{est.estimate!r},{est.bound!r},{est.sigma!r},{est.ok}"


def cmd_lemma_y(args) -> int:
    r = args.r if args.r is not None else y_sample_size(args.n, args.t)
    row = _lemma_y_row(args.n, r, args.t, args.trials, args.seed)
    return _finish(args.out, [LEMMA_Y_HEADER, row])


def _xy_row(n: int, R: int, depth: int, seed: int, kind: str) -> str:
    if kind == "fixed":
        tree = fixed_position_tree(n, R, depth)
    elif kind == "random":
        tree = random_tree(n, R, depth, seed)
    else:
        raise ValueError(f"unknown tree kind {kind!r}")
    ok = xy_equiv_check(tree)
    return f"{n},{R},{depth},{seed},{kind},{ok}"


def cmd_xy_check(args) -> int:
    n, R = args.n, args.R
    if args.trees < 0:
        raise ValueError(f"need --trees >= 0, got {args.trees}")
    check_cells(args.trees + 1, f"an xy-check of {args.trees} random trees")
    rows = [_xy_row(n, R, min(2, 2 * n), 0, "fixed")]
    for k in range(args.trees):
        depth = 1 + k % min(4, 2 * n)
        seed = derive_seed(args.seed, "xy", n, R, k)
        rows.append(_xy_row(n, R, depth, seed, "random"))
    return _finish(args.out, [XY_HEADER] + rows)


def _lemma43_row(n: int, R: int, r: int, t: int, tree_kind: str) -> str:
    check_lemma43(n, r, t)
    if tree_kind.startswith("compiled_s"):
        slots = int(tree_kind.removeprefix("compiled_s"))
        tree = compile_prefix_tree(MultiPass, n, R, r, slots=slots)
    elif tree_kind == "guessing":
        tree = build_guessing_tree(n, R, r, t)
    else:
        raise ValueError(f"unknown tree kind {tree_kind!r}")
    res = lemma43_check(tree, t)
    return (f"{n},{R},{r},{t},{tree_kind},{res.fraction.numerator},"
            f"{res.fraction.denominator},{float(res.fraction)!r},{res.bound!r},{res.ok}")


def cmd_lemma43(args) -> int:
    if args.tree == "guessing":
        _refuse_flags(args, ["s"], "--tree compiled")
        kind = "guessing"
    else:
        kind = f"compiled_s{2 if args.s is None else args.s}"
    row = _lemma43_row(args.n, args.R, args.r, args.t, kind)
    return _finish(args.out, [LEMMA43_HEADER, row])


def _unique_row(n: int, trials: int, seed: int) -> str:
    exp = unique_pairs_expected(n)
    try:
        en = unique_pairs_expected_enumerated(n)
        enumerated = f"{en.numerator}/{en.denominator}"
    except CapExceeded:
        enumerated = "na"
    mc, sigma = unique_pairs_mc(n, trials, seed)
    ok = mc - 3.0 * sigma > exp.threshold
    return (f"{n},{trials},{seed},{enumerated},{exp.from_n_pairs!r},"
            f"{exp.from_all_pairs!r},{mc!r},{sigma!r},{exp.threshold!r},{ok}")


def cmd_unique_pairs(args) -> int:
    row = _unique_row(args.n, args.trials, args.seed)
    return _finish(args.out, [UNIQUE_HEADER, row])


# ---------------------------------------------------------------------------
# Report and replay

def cmd_report(args) -> int:
    any_fail = False
    parse_fail = False
    tidy = ["file,line,column,value,row_ok"]
    for path in args.paths:
        try:
            with open(path) as fh:
                lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        except OSError as exc:
            print(f"memlab: {path}: {exc}", file=sys.stderr)
            parse_fail = True
            continue
        if not lines:
            print(f"{path}: 0 rows, 0 failing")
            continue
        header = lines[0].split(",")
        fails = []
        for lineno, line in enumerate(lines[1:], start=2):
            vals = line.split(",")
            if len(vals) != len(header):
                print(f"memlab: {path}:{lineno}: expected {len(header)} fields, got {len(vals)}",
                      file=sys.stderr)
                parse_fail = True
                continue
            row_ok = _all_ok([lines[0], line])
            if not row_ok:
                fails.append(lineno)
            for i, h in enumerate(header):
                tidy.append(f"{path},{lineno},{h},{vals[i]},{row_ok}")
        any_fail = any_fail or bool(fails)
        suffix = f" (first at line {fails[0]})" if fails else ""
        print(f"{path}: {len(lines) - 1} rows, {len(fails)} failing{suffix}")
    if args.out:
        _emit(args.out, tidy)
    if parse_fail:
        return 2
    return 1 if any_fail else 0


def _replay_tradeoff(v: list[str]) -> str | None:
    if v[0] != "record":
        return None
    n, s, seed, strategy = int(v[1]), int(v[3]), int(v[4]), v[5]
    return _tradeoff_record_row(n, s, strategy, _tradeoff_deck((n, [s], seed, strategy))[0])


# header -> recompute(fields); None marks an aggregate row
_REPLAY = {
    TRADEOFF_HEADER: _replay_tradeoff,
    ADVERSARY_HEADER: lambda v: _adversary_game(int(v[0]), int(v[2]), int(v[3]), v[4])[0],
    LEMMA_Y_HEADER: lambda v: _lemma_y_row(*map(int, v[:5])),
    XY_HEADER: lambda v: _xy_row(*map(int, v[:4]), v[4]),
    LEMMA43_HEADER: lambda v: _lemma43_row(*map(int, v[:4]), v[4]),
    UNIQUE_HEADER: lambda v: _unique_row(*map(int, v[:3])),
}


def cmd_replay(args) -> int:
    with open(args.file) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if args.line < 1 or args.line >= len(lines):
        held = f"has {len(lines) - 1} data rows" if lines else "is empty"
        raise ValueError(f"line {args.line} out of range (file {held})")
    header, original = lines[0], lines[args.line]
    if header in _RETIRED_HEADERS:
        raise ValueError(f"{_RETIRED_HEADERS[header]}; the code changed, "
                         "so the row cannot be re-run")
    fields = original.split(",")
    recompute = _REPLAY.get(header) if len(fields) == header.count(",") + 1 else None
    recomputed = recompute and recompute(fields)
    if recomputed is None:
        raise ValueError(f"rows under header {header!r} (or aggregate rows) "
                         "cannot be replayed in isolation")
    print(f"original:   {original}")
    print(f"recomputed: {recomputed}")
    if recomputed == original:
        print("replay: identical")
        return 0
    print("replay: MISMATCH")
    return 1


# ---------------------------------------------------------------------------
# Argument wiring

def _add_sweep_flags(p: argparse.ArgumentParser, default_strategy: str,
                     strategy_choices: list[str], sweep_strategy: str) -> None:
    """`sweep_strategy` applies when neither --strategy nor the config names one."""
    p.add_argument("--config", help="sweep config file (key = value lines)")
    p.add_argument("--n-list", help="comma-separated pair counts")
    p.add_argument("--s-list", help="comma-separated slot counts, or pow2")
    p.add_argument("--seeds", type=int, help="runs per cell")
    p.add_argument("--strategy", choices=strategy_choices, default=None,
                   help=f"player (default {default_strategy})")
    p.set_defaults(strategy_choices=strategy_choices, sweep_strategy=sweep_strategy)


def _add_globals(p: argparse.ArgumentParser, root: bool) -> None:
    # accepted both before and after the subcommand; the later wins
    d = (lambda v: v) if root else (lambda v: argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=d(None),
                   help="master seed (default: a sweep config's seed, else $MEMLAB_SEED, else 0)")
    p.add_argument("--out", default=d(None), help="output path (default: stdout)")
    p.add_argument("--jobs", type=int, default=d(None),
                   help="parallel tasks for sweeps, capped at the task count; a tradeoff "
                        "task is one deck (default: the config's jobs, else all cores)")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole grammar, built on the first call and kept for the process:
    parsing leaves no state in it, and each `func` looks its helpers up as
    module globals when it runs."""
    parser = argparse.ArgumentParser(
        prog="memlab",
        description="Space-bounded pair-matching game lab: players, adaptive "
                    "adversary, exact distribution and tail-bound checks.")
    _add_globals(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cmd(name, **kw):
        p = sub.add_parser(name, **kw)
        _add_globals(p, root=False)
        return p

    p = add_cmd("play", help="one game against a real deck")
    p.add_argument("--strategy", choices=list(PLAYERS), default="multipass")
    p.add_argument("--n", type=int, default=None,
                   help="pair count (default 8, or the deck file's)")
    p.add_argument("--R", type=int, default=None,
                   help="alphabet size (default n, or the deck file's)")
    p.add_argument("--space-bits", type=int, default=None)
    p.add_argument("--deck", help="deck file; plays its first deck")
    p.set_defaults(func=cmd_play)

    p = add_cmd("adversary", help="adversarial game(s) with audits; "
                                  "--config/--n-list switches to sweep mode")
    _add_sweep_flags(p, "multipass; mixed in sweeps", [*PLAYERS, "mixed"], "mixed")
    p.add_argument("--n", type=int, default=None, help="pair count (default 8)")
    p.add_argument("--space-bits", type=int, default=None)
    p.add_argument("--audit", action="store_true",
                   help="print involution/replay audit details to stderr")
    p.set_defaults(func=cmd_adversary)

    p = add_cmd("tradeoff", help="memory-time product sweep")
    _add_sweep_flags(p, "multipass", ["multipass", "rmultipass"], "multipass")
    p.set_defaults(func=cmd_tradeoff)

    p = add_cmd("lemma-y", help="Monte Carlo completed-pairs tail vs e^-t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None,
                   help="sample size (default floor((2/e) sqrt(nt)))")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=cmd_lemma_y)

    p = add_cmd("xy-check", help="tree equal-pairs law vs sampling law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--trees", type=int, default=10)
    p.set_defaults(func=cmd_xy_check)

    p = add_cmd("lemma43", help="exact productive-input fraction vs bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tree", choices=["compiled", "guessing"], default="compiled")
    p.add_argument("--s", type=int, default=None,
                   help="slots for the compiled player (default 2)")
    p.set_defaults(func=cmd_lemma43)

    p = add_cmd("unique-pairs", help="unique-pairs expectation checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.set_defaults(func=cmd_unique_pairs)

    p = add_cmd("report", help="aggregate result CSVs; nonzero exit on failures")
    p.add_argument("paths", nargs="*")
    p.set_defaults(func=cmd_report)

    p = add_cmd("replay", help="recompute one CSV data row from its seed")
    p.add_argument("--file", required=True)
    p.add_argument("--line", type=int, required=True, help="1-based data row index")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a sweep config's seed key ranks between --seed and this fallback
        if args.seed is None and not getattr(args, "config", None):
            args.seed = int(_FALLBACKS["seed"]())
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"memlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
