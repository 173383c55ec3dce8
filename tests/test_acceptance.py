"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line (run with -s or -v to see them on success).

Stochastic checks use 3-sigma slack and fixed master seeds; everything else
is exact arithmetic with zero tolerance.
"""
import math
from fractions import Fraction

from memlab import cli
from memlab.adversary import (AdversaryHost, adversarial_play,
                              involution_audit, kg_init, useful_edges_brute,
                              vanish_closure)
from memlab.analysis import (YExperiment, binomial_tail_exact, chernoff_tail,
                             monte_carlo_wrap, relent, unique_pairs_expected,
                             unique_pairs_expected_enumerated, unique_pairs_mc,
                             y_exact_distribution, y_expectation, y_sample_size,
                             y_tail_bound, y_tail_estimate, y_tail_exact)
from memlab.cli import SweepConfig, tradeoff_sweep
from memlab.game_core import (GameParams, Transcript, derive_seed,
                              generate_valid_input)
from memlab.strategies import (MultiPass, make_strategy,
                               multi_pass_play, randomized_order)
from memlab.trees import (build_guessing_tree, compile_prefix_tree,
                          fixed_position_tree, lemma43_check, random_tree,
                          xy_equiv_check)

SEED = 20_26_08  # master seed for every stochastic acceptance check


def _report(idx: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance {idx:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")


def test_c01_upper_bound_tradeoff():
    # n in {8..256}, slots 1,2,4,...,2n, 100 seeded decks per cell:
    # always correct, T within ceil(2n/s)*2n, and S*T_worst within twice the
    # n=8 calibration of C = S*T_worst / (n^2 ceil(log2 2n)).
    cfg = SweepConfig(ns=[8, 16, 32, 64, 128, 256], s_spec="pow2", seeds=100,
                      strategy="multipass", jobs=2, master_seed=SEED)
    lines, ok = tradeoff_sweep(cfg)
    summaries = [ln for ln in lines if ln.startswith("summary")]
    cells = len(summaries)
    c_cal = float(lines[-1].split(",")[10])
    ratios = [float(ln.split(",")[10]) for ln in summaries]
    detail = f"{cells} cells, C_cal={c_cal:.3f}, max ratio={max(ratios):.3f}"
    _report(1, "upper-bound tradeoff", ok, detail)
    assert ok, detail
    assert all(r <= 2 * c_cal for r in ratios)


def test_c02_exact_query_lower_bound():
    # n in 2..32, 100 seeded runs per n over the shipped strategies: exact
    # counting identities, zero tolerance.
    names = ["multipass", "rmultipass", "perfect"]
    runs = 0
    for n in range(2, 33):
        pow2 = []
        s = 1
        while s <= 2 * n:
            pow2.append(s)
            s *= 2
        for k in range(100):
            seed = derive_seed(SEED, "lb", n, k)
            name = names[k % 3]
            slots = 2 * n if name == "perfect" else pow2[k % len(pow2)]
            strat = make_strategy(name, n, seed)
            res = adversarial_play(strat, n, slots, keep_records=False)
            assert res.complete and not res.incorrect, (n, k, name)
            assert res.log.queries >= n * (n - 1) // 2, (n, k, name)
            assert res.log.deletions + res.log.vanishings == n * (n - 1), (n, k, name)
            rep = involution_audit(res.log, res.matching)
            assert rep.ok, (n, k, name, rep.failures)
            runs += 1
    _report(2, "exact query lower bound", True, f"{runs} runs, n=2..32")


def test_c03_filter_oracle_equivalence():
    # after every closure during 50 seeded games per n <= 6, the surviving
    # edges equal the brute-force union of all perfect matchings.
    closures = 0

    def hook(g, vanished):
        nonlocal closures
        closures += 1
        assert g.edges() == useful_edges_brute(g)
        clone = g.copy()
        assert vanish_closure(clone) == []

    names = ["multipass", "rmultipass", "perfect"]
    for n in range(2, 7):
        for k in range(50):
            seed = derive_seed(SEED, "filter", n, k)
            name = names[k % 3]
            slots = 2 * n if name == "perfect" else 1 + k % n
            g = kg_init(n)
            g.closure_hook = hook
            host = AdversaryHost(g, slots, Transcript(lean=True), keep_records=False)
            make_strategy(name, n, seed).play(host)
            assert host.done()
    _report(3, "useful-edge filter oracle equivalence", True,
            f"{closures} closures checked, n<=6")


def test_c04_completed_pairs_tail():
    # Monte Carlo at (n, t) in {100, 1000} x {2..8} with r = floor((2/e)sqrt(nt)):
    # estimate <= e^-t + 3 sigma; exact tail <= closed-form bound on the small
    # grid; exact mean formula and its r^2/4n ceiling, all rational.
    cells = []
    for n in (100, 1000):
        for t in range(2, 9):
            r = y_sample_size(n, t)
            est = y_tail_estimate(YExperiment(n=n, r=r, t=t, trials=100_000,
                                              seed=derive_seed(SEED, "tail", n, t)))
            cells.append(est.ok)
            assert est.ok, (n, t, r, est)
            # tighter closed-form target at this r, same 3-sigma slack
            assert est.estimate <= y_tail_bound(n, r, t) + 3 * est.sigma, (n, t, r, est)
    exact_checked = 0
    for n in range(1, 9):
        for r in range(1, 2 * n + 1):
            for t in range(1, r // 2 + 1):
                if 4 * n * t / (math.e * r * r) >= 1.0:
                    assert float(y_tail_exact(n, r, t)) <= y_tail_bound(n, r, t) + 1e-15
                    exact_checked += 1
            mean = sum(u * p for u, p in enumerate(y_exact_distribution(n, r)))
            assert y_expectation(n, r) == mean
            assert y_expectation(n, r) <= Fraction(r * r, 4 * n)
    _report(4, "completed-pairs tail bound", all(cells),
            f"{len(cells)} MC cells, {exact_checked} exact tail points")
    assert all(cells)


def test_c05_tree_law_equals_sampling_law():
    # exact rational equality for every tested well-formed tree at n <= 3
    checked = 0
    for k in range(50):
        tree = random_tree(3, 4, 1 + k % 4, seed=derive_seed(SEED, "xy", k))
        assert xy_equiv_check(tree), k
        checked += 1
    for slots in (1, 2, 6):
        for depth in (1, 2, 3, 4):
            tree = compile_prefix_tree(MultiPass, 3, 4, depth, slots=slots)
            assert xy_equiv_check(tree), (slots, depth)
            checked += 1
    for n, R in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        for depth in range(1, min(4, 2 * n) + 1):
            tree = random_tree(n, R, depth, seed=derive_seed(SEED, "xy", n, R, depth))
            assert xy_equiv_check(tree), (n, R, depth)
            checked += 1
        assert xy_equiv_check(fixed_position_tree(n, R, min(2, 2 * n)))
        checked += 1
    _report(5, "tree law == sampling law (exact)", True, f"{checked} trees")


def test_c06_productivity_bound():
    # n=8, R in {8,16}, r <= 4, t <= 2: exact productive fraction against
    # (n-r-t)^-t + e^-t for compiled multipass prefixes and guessing trees.
    checked = 0
    worst = 0.0
    for R in (8, 16):
        for r, t in [(2, 1), (3, 1), (4, 1), (4, 2)]:
            trees = {
                "compiled_s2": compile_prefix_tree(MultiPass, 8, R, r, slots=2),
                "compiled_s16": compile_prefix_tree(MultiPass, 8, R, r, slots=16),
                "guessing": build_guessing_tree(8, R, r, t),
            }
            for kind, tree in trees.items():
                res = lemma43_check(tree, t)
                assert res.ok, (R, r, t, kind, res.fraction, res.bound)
                worst = max(worst, float(res.fraction) / res.bound)
                checked += 1
    _report(6, "shallow-tree productivity bound", True,
            f"{checked} trees, worst fraction/bound={worst:.3g}")


def test_c07_chernoff_machinery():
    # exp(-n D(a||p)) dominates the exact binomial tail for all n <= 200 on a
    # 10x10 (a, p) grid; D(a||a) = 0 to 1e-12.
    for i in range(10):
        a = Fraction(2 * i + 1, 20)
        assert abs(relent(float(a), float(a))) <= 1e-12
    points = 0
    for n in range(1, 201):
        for i in range(10):
            a = Fraction(2 * i + 1, 20)
            for j in range(1, 11):
                p = a * Fraction(j, 11)
                tail = binomial_tail_exact(n, p, a * n)
                bound = chernoff_tail(n, float(a), float(p))
                assert float(tail) <= bound * (1 + 1e-9), (n, a, p)
                points += 1
    for i in range(10):
        a = float(Fraction(2 * i + 1, 20))
        for j in range(1, 11):
            p = a * j / 11
            # simplification chain used to close the tail argument
            assert relent(a, p) >= a * math.log(a / (math.e * p)) - 1e-12
    _report(7, "relative-entropy tail domination", True, f"{points} grid points")


def test_c08_truncated_randomized_player():
    # budget = 10x measured mean flips of the randomized-order player at n=16:
    # empirical error rate <= 1/10 + 3 sigma over 1e4 seeded trials.
    n, slots = 16, 4

    def one_run(k, cap=None):
        x = generate_valid_input(GameParams(n, n, derive_seed(SEED, "mc-deck", k)))
        order = randomized_order(n, derive_seed(SEED, "mc-order", k))
        if cap is None:
            return multi_pass_play(x, slots, order=order, lean=True).flips
        wrapped = monte_carlo_wrap(MultiPass(order=order), cap / 10.0)
        return wrapped.play(x, slots).errored

    mean = sum(one_run(k) for k in range(500)) / 500.0
    trials = 10_000
    errors = sum(one_run(10_000 + k, cap=10.0 * mean) for k in range(trials))
    rate = errors / trials
    limit = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / trials)
    _report(8, "tenfold truncation error rate", rate <= limit,
            f"mean T={mean:.1f}, rate={rate:.4f} <= {limit:.4f}")
    assert rate <= limit


def test_c09_unique_pairs_expectation():
    # n=2: exact enumerated mean printed against both closed forms; Monte
    # Carlo at n in {10, 100} clears (n-1)/(2 e^2) with 3 sigma slack.
    truth = unique_pairs_expected_enumerated(2)
    exp2 = unique_pairs_expected(2)
    print(f"[acceptance 09] n=2 enumerated E[#outputs] = {truth} "
          f"(= {float(truth)}); half-pairs form C(n,2) gives {exp2.from_n_pairs}, "
          f"all-pairs form C(2n,2) gives {exp2.from_all_pairs}")
    assert truth == Fraction(3, 4)
    assert exp2.from_n_pairs == 0.125
    assert abs(exp2.from_all_pairs - float(truth)) < 1e-12
    oks = []
    for n, trials in ((10, 4000), (100, 1000)):
        exp = unique_pairs_expected(n)
        mean, sigma = unique_pairs_mc(n, trials, derive_seed(SEED, "uniq", n))
        ok = mean - 3 * sigma > exp.threshold
        oks.append(ok)
        assert ok, (n, mean, sigma, exp.threshold)
    _report(9, "unique-pairs expectation", all(oks),
            "enumerated truth matches the all-pairs form")


def test_c10_determinism_and_replay(tmp_path):
    # identical config and seeds give byte-identical CSV; any data row
    # re-runs from its recorded seed to the identical bytes.
    cfg = SweepConfig(ns=[8, 16], seeds=5, master_seed=SEED, jobs=1)
    lines1, _ = tradeoff_sweep(cfg)
    lines2, _ = tradeoff_sweep(SweepConfig(ns=[8, 16], seeds=5, master_seed=SEED, jobs=2))
    assert lines1 == lines2
    tr = tmp_path / "tr.csv"
    tr.write_text("\n".join(lines1) + "\n")
    assert cli.main(["replay", "--file", str(tr), "--line", "3"]) == 0
    ly = tmp_path / "ly.csv"
    assert cli.main(["--seed", str(SEED), "--out", str(ly), "lemma-y",
                     "--n", "100", "--t", "3", "--trials", "20000"]) == 0
    assert cli.main(["replay", "--file", str(ly), "--line", "1"]) == 0
    adv = tmp_path / "adv.csv"
    assert cli.main(["--seed", str(SEED), "--out", str(adv), "adversary",
                     "--n-list", "4,6", "--seeds", "4", "--strategy", "mixed"]) == 0
    assert cli.main(["replay", "--file", str(adv), "--line", "2"]) == 0
    _report(10, "determinism and seeded replay", True)
