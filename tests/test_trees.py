import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from memlab import (CapExceeded, GameParams, MatchTriple,
                    count_valid_inputs, derive_seed, enumerate_valid_inputs, generate_valid_input,
                    matches_of, multi_pass_play, y_exact_distribution, y_sample_size,
                    y_tail_exact)
from memlab import trees
from memlab.strategies import MultiPass, ProtocolError, randomized_order
from memlab.trees import (DecisionTree, _iter_leaves, _node_count, _run,
                          build_guessing_tree, compile_prefix_tree, fixed_position_tree,
                          lemma43_check, path_distribution, productive_deck_count,
                          productive_fraction_brute, random_tree, tree_run,
                          x_exact_distribution, xy_equiv_check)


def _chain(n, R, positions, leaf_outputs=()):
    """Tree querying the given positions on every branch; outputs on the last edges."""
    depth = len(positions)

    def step(vals, path):
        if len(vals) == depth:
            return tuple(leaf_outputs), None
        return (), positions[len(vals)]

    return DecisionTree(n, R, depth, step)


def _expand(tree):
    """The R-way tree a pattern tree stands for: each R-way branch follows the
    pattern branch of its value's first-read rank, and an output's label k
    names the k-th value read on the path, or past them the unread values
    in ascending order."""
    assert tree.pattern
    R = tree.R

    def step(vals, positions):
        seen = list(dict.fromkeys(vals))
        node, outs = tree.root, ()
        for v in vals:
            b = seen.index(v)
            node, outs = node.kids[b], node.outs[b]
        deck_value = seen + [w for w in range(1, R + 1) if w not in seen]
        return (tuple(MatchTriple(o.i, o.j, deck_value[o.v - 1]) for o in outs),
                None if node is None else node.pos)

    return DecisionTree(tree.n, R, tree.depth, step)


def _no_step(vals, positions):
    """A step with no outputs that pads every path."""
    return (), None


class TestValidation:
    """DecisionTree refuses a step that would build a bad tree, one message
    for each fault; the cap and the output at the root are refused in
    TestNodeCap and TestCompile."""

    @pytest.mark.parametrize("n,depth,msg", [
        (0, 0, "need n >= 1 and depth >= 0, got n=0, depth=0"),
        (2, -1, "need n >= 1 and depth >= 0, got n=2, depth=-1"),
        (2, 5, "depth 5 exceeds the 4 distinct positions"),
    ], ids=["n=0", "depth=-1", "depth=5"])
    def test_size_rejected(self, n, depth, msg):
        with pytest.raises(ValueError, match=msg):
            DecisionTree(n, 2, depth, _no_step)

    @pytest.mark.parametrize("R, depth", [(1, 1), (1, 0)])
    def test_alphabet_below_n_rejected(self, R, depth):
        # no valid deck exists, so path_distribution would divide by zero
        with pytest.raises(ValueError, match="need R >= n"):
            DecisionTree(2, R, depth, _no_step)

    @pytest.mark.parametrize("pos", [0, 5])
    def test_position_out_of_range_rejected(self, pos):
        with pytest.raises(ValueError, match=f"queried position {pos} out of range"):
            DecisionTree(2, 2, 2, lambda vals, positions: ((), pos if vals else None))

    def test_requery_rejected(self):
        with pytest.raises(ValueError, match="position 1 re-queried along a path"):
            DecisionTree(2, 2, 2, lambda vals, positions: ((), 1))

    @pytest.mark.parametrize("out", [
        MatchTriple(2, 1, 1), MatchTriple(1, 1, 1), MatchTriple(0, 2, 1), MatchTriple(1, 5, 1),
        MatchTriple(1, 2, 0), MatchTriple(1, 2, 3),
    ])
    def test_malformed_output_rejected(self, out):
        with pytest.raises(ValueError, match="malformed output"):
            DecisionTree(2, 2, 1, lambda vals, positions: ((out,) if vals else (), None))

    def test_repeated_output_rejected(self):
        out = MatchTriple(1, 2, 1)
        # on the two edges of path (1, 1), then twice on one edge
        for on in ({(1,): 1, (1, 1): 1}, {(1,): 2}):
            with pytest.raises(ValueError, match="output repeated along a path"):
                DecisionTree(2, 2, 2, lambda vals, positions: ((out,) * on.get(vals, 0), None))

    def test_pattern_inner_edge_names_unread_value_rejected(self):
        # label 2 is unread after the first read; the next read's fresh
        # branch could take it, so the relabeling weights would not hold
        def step_on(path):
            return lambda vals, positions: ((MatchTriple(3, 4, 2),) if vals == path else (), None)

        with pytest.raises(ValueError, match="not read on its path"):
            DecisionTree(2, 2, 2, step_on((1,)), pattern=True)
        # the same output on a leaf edge names the lowest unread value
        tree = DecisionTree(2, 2, 2, step_on((1, 1)), pattern=True)
        assert tree_run(tree, (1, 1, 2, 2)).correct_outputs == 1

    def test_depth_zero(self):
        tree = DecisionTree(2, 2, 0, _no_step)
        assert tree.root is None and tree.node_count == 0
        stats = tree_run(tree, (1, 2, 1, 2))
        assert stats.queried == () and stats.equal_pairs == 0


class TestTreeRun:
    def test_pair_seen(self):
        tree = fixed_position_tree(1, 1, 2)
        assert tree_run(tree, (1, 1)).equal_pairs == 1

    def test_pair_missed(self):
        tree = fixed_position_tree(2, 2, 2)
        stats = tree_run(tree, (1, 2, 2, 1))
        assert stats.values == (1, 2)
        assert stats.equal_pairs == 0

    def test_output_correctness_double_entry(self):
        trees = [build_guessing_tree(3, 3, 2, 1),
                 compile_prefix_tree(MultiPass, 3, 3, 3, slots=2)]
        for tree in trees:
            for x in enumerate_valid_inputs(3, 3):
                stats = tree_run(tree, x)
                truth = matches_of(x)
                assert stats.correct_outputs == sum(1 for o in stats.outputs if o in truth)
                assert stats.correct_outputs <= len(truth)


class TestShapeRefusal:
    """A deck that does not fit the tree is refused with ValueError before
    the walk can index past the deck or the branches."""

    @pytest.mark.parametrize("x,msg", [
        ((1, 1, 2, 2), "deck of 4 cards for a tree over 8 positions"),
        ((1, 2, 3, 4, 5, 1, 2, 3, 4, 5), r"outside 1\.\.4"),
        ((1, 1, 2, 2, 3, 3, 9, 9), r"outside 1\.\.4"),
    ])
    def test_tree_run_refuses_a_deck_that_does_not_fit(self, x, msg):
        for tree in (random_tree(4, 4, 3, 1), fixed_position_tree(4, 4, 3)):
            with pytest.raises(ValueError, match=msg):
                tree_run(tree, x)


# the master seed of acceptance c05, whose trees the oracle below covers too
_C05_SEED = 20_26_08


def _xy_trees():
    """Every tree the xy checks touch, named: xy-check's fixed tree and 50
    random trees at n=3, R=4 for each CLI seed; the trees of
    TestXYEquivalence and of acceptance c05 (random trees at n=3, R=4 and on
    the small (n, R) grid, fixed trees, compiled prefixes at slots 1, 2, 6)."""
    for seed in (0, 7002):
        yield f"xy-check seed={seed} fixed", fixed_position_tree(3, 4, 2)
        for k in range(50):
            tree = random_tree(3, 4, 1 + k % 4, derive_seed(seed, "xy", 3, 4, k))
            yield f"xy-check seed={seed} k={k}", tree
    for k in range(50):
        yield f"c05 k={k}", random_tree(3, 4, 1 + k % 4, derive_seed(_C05_SEED, "xy", k))
        yield f"unit k={k}", random_tree(3, 4, 1 + k % 4, seed=1000 + k)
    for k in range(12):
        yield f"unit seed={500 + k}", random_tree(3, 4, 1 + k % 4, seed=500 + k)
    for depth in (1, 2, 3, 4):
        yield f"fixed depth={depth}", fixed_position_tree(3, 4, depth)
    for n, R in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        for depth in range(1, min(4, 2 * n) + 1):
            yield f"small n={n} R={R} depth={depth}", random_tree(n, R, depth, seed=31 * n + depth)
            yield (f"c05 n={n} R={R} depth={depth}",
                   random_tree(n, R, depth, derive_seed(_C05_SEED, "xy", n, R, depth)))
        yield f"fixed n={n} R={R}", fixed_position_tree(n, R, min(2, 2 * n))
    for slots in (1, 2, 6):
        for depth in (1, 2, 3, 4):
            yield (f"compiled s={slots} depth={depth}",
                   compile_prefix_tree(MultiPass, 3, 4, depth, slots=slots))


class TestXYEquivalence:
    def test_fixed_tree_n2(self):
        tree = fixed_position_tree(2, 2, 2)
        dist = x_exact_distribution(tree)
        assert dist == [Fraction(2, 3), Fraction(1, 3)]
        assert xy_equiv_check(tree)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_fixed_positions_all_depths(self, depth):
        tree = fixed_position_tree(3, 4, depth)
        assert xy_equiv_check(tree)

    def test_fifty_random_trees(self):
        for k in range(50):
            depth = 1 + k % 4
            tree = random_tree(3, 4, depth, seed=1000 + k)
            assert xy_equiv_check(tree), (k, depth)

    def test_small_n(self):
        for n, R in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            for depth in range(1, min(4, 2 * n) + 1):
                tree = random_tree(n, R, depth, seed=31 * n + depth)
                assert xy_equiv_check(tree), (n, R, depth)

    def test_compiled_prefixes(self):
        for slots in (1, 2, 6):
            for depth in (1, 2, 3, 4):
                tree = compile_prefix_tree(MultiPass, 3, 4, depth, slots=slots)
                assert xy_equiv_check(tree), (slots, depth)

    def test_path_counting_agrees_with_enumeration(self):
        # xy_equiv_check reads the law from path counting; deck enumeration
        # is its oracle on every tree the checks cover
        for where, tree in _xy_trees():
            assert path_distribution(tree) == x_exact_distribution(tree), where


class TestLeafWalk:
    """The iterative leaf walk behind path counting: leaf counts by hand, the
    census it yields at each leaf, and both counts against the oracles."""

    @pytest.mark.parametrize("build,leaves", [
        # no reads: one leaf
        (lambda: fixed_position_tree(2, 2, 0), 1),
        (lambda: random_tree(2, 2, 0, 0), 1),
        # 8 value strings minus 111 and 222, which no deck reads
        (lambda: random_tree(2, 2, 3, 0), 6),
        # label strings 112, 121, 122
        (lambda: fixed_position_tree(2, 2, 3), 3),
    ])
    def test_leaf_counts_by_hand_and_against_the_oracles(self, build, leaves):
        tree = build()
        assert sum(1 for _ in _iter_leaves(tree)) == leaves
        assert path_distribution(tree) == x_exact_distribution(tree)
        for t in (1, 2):
            got, total = productive_deck_count(tree, t)
            assert total == count_valid_inputs(tree.n, tree.R)
            assert Fraction(got, total) == productive_fraction_brute(tree, t), t

    def test_yielded_census_matches_the_path(self):
        # u and d are kept current as branches are entered and left; recount
        # them, and the reads and outputs, from scratch at every leaf
        for where, tree in [*_xy_trees(), ("guessing", build_guessing_tree(4, 5, 4, 2)),
                            ("random n=3 R=3", random_tree(3, 3, 6, seed=5))]:
            for qvals, counts, outputs, u, d in _iter_leaves(tree):
                assert len(qvals) == tree.depth, where
                assert counts == Counter(qvals.values()), where
                assert u == sum(1 for c in counts.values() if c == 2), where
                assert d == sum(1 for c in counts.values() if c == 1), where
                assert max(counts.values(), default=0) <= 2 and u + d <= tree.n, where
                node, path_outs = tree.root, []
                while node is not None:
                    b = qvals[node.pos] - 1
                    path_outs.extend(node.outs[b])
                    node = node.kids[b]
                assert outputs == path_outs, where


class TestCompile:
    def test_oblivious_prefix_reads_in_order(self):
        tree = compile_prefix_tree(MultiPass, 2, 2, 2, slots=4)
        assert tree.root.pos == 1
        assert all(kid.pos == 2 for kid in tree.root.kids)

    def test_replay_matches_live_first_reads(self):
        for slots in (2, 16):
            tree = compile_prefix_tree(MultiPass, 8, 8, 4, slots=slots)
            for k in range(100):
                x = generate_valid_input(GameParams(8, 8, k))
                stats = tree_run(tree, x)
                live = multi_pass_play(x, slots)
                live_flips = live.flip_positions()[:4]
                assert list(stats.queried) == live_flips, (slots, k)
                live_outs = [o for o in live.outputs
                             if o.i in live_flips and o.j in live_flips]
                assert list(stats.outputs) == live_outs[:len(stats.outputs)]
                assert set(stats.outputs) <= set(live.outputs)

    def test_padding_after_player_stops(self):
        class TwoReads:
            def play(self, host):
                host.examine(1)
                host.store(1)
                host.examine(2)

        tree = compile_prefix_tree(TwoReads, 4, 4, 4)
        # dummy levels query the lowest unqueried positions, emit nothing
        node = tree.root
        assert node.pos == 1
        node = node.kids[0]
        assert node.pos == 2
        node = node.kids[0]
        assert node.pos == 3 and all(o == () for o in node.outs)
        node = node.kids[0]
        assert node.pos == 4 and all(o == () for o in node.outs)

    def test_depth_zero_single_leaf(self):
        tree = compile_prefix_tree(MultiPass, 2, 2, 0, slots=4)
        assert tree.root is None and tree.depth == 0

    def test_tree_cap_refusal(self, monkeypatch):
        # 1, 1, 2, 5 and 15 equality patterns of 0..4 reads: 24 nodes
        monkeypatch.setattr(trees, "DEFAULT_TREE_CAP", 24)
        assert compile_prefix_tree(MultiPass, 8, 8, 4, slots=2).depth == 4
        monkeypatch.setattr(trees, "DEFAULT_TREE_CAP", 23)
        with pytest.raises(CapExceeded, match="tree would hold at least 24 nodes, cap 23"):
            compile_prefix_tree(MultiPass, 8, 8, 4, slots=2)

    def test_player_whose_read_order_changes_refused(self):
        replays = itertools.count()

        class Flaky:  # reads position 1 on the first replay, position 2 after
            def play(self, host):
                host.examine(1 if next(replays) == 0 else 2)

        with pytest.raises(ValueError, match="player is not deterministic"):
            compile_prefix_tree(Flaky, 2, 2, 1)

    def test_declaring_an_unexamined_position_refused(self):
        class Blind:
            def play(self, host):
                host.declare(1, 2)

        with pytest.raises(ProtocolError, match="declared an unexamined position"):
            compile_prefix_tree(Blind, 2, 2, 1)

    def test_output_at_the_root_refused(self):
        def step(vals, positions):
            return (MatchTriple(1, 2, 1),), None

        with pytest.raises(ValueError, match="output before its first read"):
            DecisionTree(2, 2, 1, step)


def _size(tree):
    """Nodes of a built tree, leaves included."""
    def rec(node):
        return 1 + sum(1 if kid is None else rec(kid) for kid in node.kids)

    return 1 if tree.root is None else rec(tree.root)


class TestNodeCap:
    """The cap counts the tree `DecisionTree` builds: R-way levels, or per level
    the equality patterns with labels <= R."""

    @pytest.mark.parametrize("n,R,depth,nodes", [
        (3, 4, 2, 4), (4, 4, 3, 9), (8, 8, 4, 24), (8, 16, 5, 76), (64, 64, 8, 5296),
        (2, 2, 4, 16), (1, 1, 2, 3),
    ])
    def test_pattern_count_is_the_built_tree(self, n, R, depth, nodes):
        tree = fixed_position_tree(n, R, depth)
        assert _node_count(R, depth, True) == _size(tree) == nodes

    @pytest.mark.parametrize("n,R,depth,nodes", [(3, 4, 2, 21), (2, 2, 3, 15), (1, 1, 2, 3),
                                                 (3, 3, 0, 1)])
    def test_r_way_count_is_the_built_tree(self, n, R, depth, nodes):
        tree = random_tree(n, R, depth, seed=depth)
        assert _node_count(R, depth, False) == _size(tree) == nodes

    @pytest.mark.parametrize("build,nodes", [
        (lambda: fixed_position_tree(8, 8, 4), 24),
        (lambda: build_guessing_tree(8, 16, 5, 2), 76),
        (lambda: compile_prefix_tree(MultiPass, 4, 4, 3, slots=2), 9),
        (lambda: random_tree(3, 4, 2, seed=1), 21),
    ])
    def test_cap_boundary_is_exact(self, monkeypatch, build, nodes):
        monkeypatch.setattr(trees, "DEFAULT_TREE_CAP", nodes)
        assert _size(build()) == nodes
        monkeypatch.setattr(trees, "DEFAULT_TREE_CAP", nodes - 1)
        with pytest.raises(CapExceeded, match=f"at least {nodes} nodes, cap {nodes - 1}$"):
            build()

    def test_count_stops_at_the_cap(self, monkeypatch):
        # Bell(0) + ... + Bell(12) passes 2e6 at level 12 of a depth-15 tree
        assert _node_count(30, 15, True) == 5034585
        monkeypatch.setattr(trees, "DEFAULT_TREE_CAP", 10)
        assert _node_count(10**6, 15, False) == 1 + 10**6
        # a cap the running sum meets at an inner level still refuses
        monkeypatch.setattr(trees, "DEFAULT_TREE_CAP", 2)
        with pytest.raises(CapExceeded, match="at least 4 nodes, cap 2$"):
            fixed_position_tree(8, 8, 4)


class TestRandomTreeSeeds:
    def test_each_seed_names_the_same_tree(self):
        # a digest over every node's position, outputs and children: a change
        # to the builder must not change which tree a seed names
        def shape(node):
            if node is None:
                return None
            return (node.pos, tuple(tuple(tuple(o) for o in outs) for outs in node.outs),
                    tuple(shape(kid) for kid in node.kids))

        h = hashlib.sha256()
        for n, R in [(1, 1), (2, 3), (3, 4), (4, 5)]:
            for depth in range(min(4, 2 * n) + 1):
                for seed in range(40):
                    h.update(repr(shape(random_tree(n, R, depth, seed).root)).encode())
        assert h.hexdigest() == ("fb2581f482dd3bd0efc99ef449b85378"
                                 "4577f27800ced84679af507c5e4b87b2")


def _shape(node):
    """Every node's position, outputs and children, nested."""
    if node is None:
        return None
    return (node.pos, tuple(tuple(tuple(o) for o in outs) for outs in node.outs),
            tuple(_shape(kid) for kid in node.kids))


class TestGuessingTree:
    def test_each_cell_names_the_same_tree(self):
        # a digest over every cell Lemma 4.3 accepts at n <= 8, R in {n, 2n}:
        # a change to the builder must not change the tree a cell names
        h = hashlib.sha256()
        for n in range(1, 9):
            for R in sorted({n, 2 * n}):
                for r in range(1, n // 2 + 1):
                    for t in range(1, r // 2 + 1):
                        h.update(repr(_shape(build_guessing_tree(n, R, r, t).root)).encode())
        assert h.hexdigest() == ("dca4f876ade42a1435cf59519b4f69e4"
                                 "989f2337bd1c6e418fe5cc7f7b077db5")

    def test_structure_and_wellformedness(self):
        tree = build_guessing_tree(8, 8, 4, 2)
        # 1, 1, 2 and 5 equality patterns of 0..3 reads
        assert tree.depth == 4 and tree.node_count == 1 + 1 + 2 + 5
        assert _expand(tree).node_count == 1 + 8 + 64 + 512

    def test_speculative_outputs_count(self):
        tree = build_guessing_tree(6, 6, 2, 1)
        # every leaf edge carries its seen-pairs plus t+1 = 2 guesses
        node = tree.root
        leaf_edge_outs = node.kids[0].outs[0]
        assert len(leaf_edge_outs) >= 2


class TestProductivityBound:
    def test_counting_equals_enumeration_oracle(self):
        # the exact leaf-census route must match brute-force deck enumeration
        for R in (4, 5):
            for t in (1,):
                gt = build_guessing_tree(4, R, 2, t)
                res = lemma43_check(gt, t)
                assert res.fraction == productive_fraction_brute(gt, t)
        gt = build_guessing_tree(5, 5, 2, 1)
        res = lemma43_check(gt, 1)
        assert res.fraction == productive_fraction_brute(gt, 1)

    def test_counting_with_stacked_events_oracle(self):
        # hand-built tree whose leaf edges pin several unread positions at
        # once: exercises the inclusion-exclusion over overlapping events
        outs = [MatchTriple(1, 3, 1), MatchTriple(5, 6, 2), MatchTriple(7, 8, 3)]
        tree = _chain(4, 4, [1, 2], leaf_outputs=outs)
        res = lemma43_check(tree, 1)
        assert res.fraction == productive_fraction_brute(tree, 1)
        assert res.fraction > 0

    def test_compiled_counting_equals_enumeration_oracle(self):
        tree = compile_prefix_tree(MultiPass, 4, 4, 2, slots=2)
        res = lemma43_check(tree, 1)
        assert res.fraction == productive_fraction_brute(tree, 1)

    def test_outputless_tree_fraction_zero(self):
        tree = fixed_position_tree(8, 8, 4)
        res = lemma43_check(tree, 2)
        assert res.fraction == 0 and res.ok

    def test_bound_holds_at_n8(self):
        for R in (8, 16):
            for (r, t) in [(2, 1), (4, 1), (4, 2)]:
                gt = build_guessing_tree(8, R, r, t)
                res = lemma43_check(gt, t)
                assert res.ok, (R, r, t, res.fraction, res.bound)

    def test_preconditions(self):
        tree = fixed_position_tree(8, 8, 4)
        with pytest.raises(ValueError, match="t <= r/2"):
            lemma43_check(tree, 3)
        deep = fixed_position_tree(8, 8, 5)
        with pytest.raises(ValueError, match="depth <= n/2"):
            lemma43_check(deep, 2)

    @pytest.mark.parametrize("kind,R,r,t,fraction", [
        ("guessing", 8, 2, 1, Fraction(593, 90090)),
        ("guessing", 8, 3, 1, Fraction(49, 2145)),
        ("guessing", 8, 4, 1, Fraction(13, 165)),
        ("guessing", 8, 4, 2, Fraction(19, 245700)),
        ("guessing", 16, 3, 1, Fraction(323, 15015)),
        ("compiled_s2", 8, 4, 1, Fraction(1, 65)),
        ("compiled_s16", 8, 4, 1, Fraction(1, 65)),
    ])
    def test_pinned_fractions_at_n8(self, kind, R, r, t, fraction):
        if kind == "guessing":
            tree = build_guessing_tree(8, R, r, t)
        else:
            slots = int(kind.removeprefix("compiled_s"))
            tree = compile_prefix_tree(MultiPass, 8, R, r, slots=slots)
        assert lemma43_check(tree, t).fraction == fraction

    @pytest.mark.parametrize("leaf,inner", [
        ((MatchTriple(1, 3, 1), MatchTriple(3, 4, 2)), ()),  # one edge names 3 twice
        ((MatchTriple(3, 4, 1),), (MatchTriple(1, 3, 1),)),  # two edges of a path name 3
    ])
    def test_outputs_that_are_not_a_partial_matching_refused(self, leaf, inner):
        def step(vals, positions):
            return (inner if len(vals) == 1 else leaf if len(vals) == 2 else ()), None

        tree = DecisionTree(4, 4, 2, step)
        with pytest.raises(ValueError, match="not a partial matching"):
            lemma43_check(tree, 1)

    def test_bound_fails_outside_the_regime(self):
        # a declare-on-sight tree at n=26, r=13 is productive with Pr[Y >= 2]
        # (c05), which beats the t=1 bound; r is past y_sample_size(26, 1)
        fraction = y_tail_exact(26, 13, 2)
        assert fraction == Fraction(1997853, 4060189)
        assert fraction > (26 - 13 - 1) ** -1 + math.exp(-1)
        assert y_sample_size(26, 1) == 3

    def test_y_distribution_controls_compiled_outputs(self):
        # a compiled player only declares both-read pairs, so its >=2t-output
        # fraction equals the exact tail of the sampling law
        tree = compile_prefix_tree(MultiPass, 8, 8, 4, slots=16)
        res = lemma43_check(tree, 1)
        tail = sum(y_exact_distribution(8, 4)[2:], Fraction(0))
        assert res.fraction == tail


def _names_each_position_once(outputs):
    ends = [p for o in outputs for p in (o.i, o.j)]
    return len(ends) == len(set(ends))


def _some_deck_names_a_position_twice(tree):
    """Deck-walk oracle for lemma43_check's partial-matching test."""
    return not all(_names_each_position_once(_run(tree, x).outputs)
                   for x in enumerate_valid_inputs(tree.n, tree.R))


class TestPartialMatchingFlag:
    """lemma43_check flags, by refusing, a tree on which some deck's path
    names a position twice, so that its outputs are not a partial matching;
    the tree stays valid and its equal-pairs law stays checkable.  A path no
    deck follows adds nothing to the fraction, so its outputs are not read."""

    @pytest.mark.parametrize("inner,leaf,leaf_under,flag", [
        ((), (MatchTriple(1, 3, 1), MatchTriple(3, 4, 2)), 1, False),  # one edge names 3 twice
        ((MatchTriple(1, 3, 1),), (MatchTriple(3, 4, 1),), 1, False),  # two edges of a path
        ((MatchTriple(1, 3, 1),), (MatchTriple(2, 4, 2),), 1, True),
        ((MatchTriple(1, 3, 1),), (MatchTriple(1, 3, 2),), 2, True),  # on sibling paths only
    ])
    def test_hand_built_trees(self, inner, leaf, leaf_under, flag):
        # n=4, R=4, depth 2: `inner` on the edge into the first read's branch 1,
        # `leaf` on every leaf edge below its branch `leaf_under`
        def step(vals, positions):
            if len(vals) == 1:
                return (inner if vals[0] == 1 else ()), None
            return (leaf if len(vals) == 2 and vals[0] == leaf_under else ()), None

        tree = DecisionTree(4, 4, 2, step)
        assert _some_deck_names_a_position_twice(tree) is not flag
        assert xy_equiv_check(tree)
        if flag:
            assert lemma43_check(tree, 1).fraction == productive_fraction_brute(tree, 1)
        else:
            with pytest.raises(ValueError, match="not a partial matching"):
                lemma43_check(tree, 1)

    def test_random_tree_naming_a_position_twice(self):
        tree = random_tree(4, 4, 2, seed=1)
        assert _some_deck_names_a_position_twice(tree)
        assert xy_equiv_check(tree)
        with pytest.raises(ValueError, match="not a partial matching"):
            lemma43_check(tree, 1)

    def test_random_trees_against_the_path_oracle(self, monkeypatch):
        # n=4, depth 2, t=1 is the one small cell inside the lemma; an output
        # on every edge makes paths that name a position twice common
        flags = Counter()
        for prob in (trees._OUT_PROB, 1.0):
            monkeypatch.setattr(trees, "_OUT_PROB", prob)
            for seed in range(30):
                tree = random_tree(4, 4, 2, seed)
                want = not _some_deck_names_a_position_twice(tree)
                try:
                    lemma43_check(tree, 1)
                    got = True
                except ValueError as e:
                    assert "not a partial matching" in str(e)
                    got = False
                assert got is want, (prob, seed)
                flags[want] += 1
        assert flags[True] and flags[False]

    def test_path_no_deck_follows_is_not_read(self):
        # n=6, R=6, depth 3: every leaf edge outputs (4,5,1); the one below
        # the label string 111, a third read of one value, also outputs
        # (4,6,1), naming 4 twice on a path no deck follows
        def step(vals, positions):
            if len(vals) < 3:
                return (), None
            return (MatchTriple(4, 5, 1),) + ((MatchTriple(4, 6, 1),) if vals == (1, 1, 1)
                                              else ()), None

        tree = DecisionTree(6, 6, 3, step, pattern=True)
        assert not _names_each_position_once(tree.root.kids[0].kids[0].outs[0])
        clean = DecisionTree(6, 6, 3, lambda vals, positions: (
            (MatchTriple(4, 5, 1),) if len(vals) == 3 else (), None), pattern=True)
        assert lemma43_check(tree, 1) == lemma43_check(clean, 1)

    def test_c06_grid_trees_are_partial_matchings(self):
        for R in (8, 16):
            for r, t in [(2, 1), (3, 1), (4, 1), (4, 2)]:
                for tree in (compile_prefix_tree(MultiPass, 8, R, r, slots=2),
                             compile_prefix_tree(MultiPass, 8, R, r, slots=16),
                             build_guessing_tree(8, R, r, t)):
                    lemma43_check(tree, t)


class TestConflictingPins:
    """Events whose pins contradict each other: one position pinned to two
    values, or one value pinned onto more than two cards.  Such a set of
    events holds on no deck, so it must count zero."""

    def test_hand_built_conflicts_count_zero(self):
        # leaf v reads x1 = v; outputs (1,4,v), (1,5,v) pin x4 = x5 = v, which
        # with x1 puts v on three cards, and (2,4,b), (3,4,c) pin x4 to b and c
        def step(vals, positions):
            if not vals:
                return (), None
            v = vals[0]
            b, c = (w for w in (1, 2, 3) if w != v)
            return (MatchTriple(1, 4, v), MatchTriple(1, 5, v),
                    MatchTriple(2, 4, b), MatchTriple(3, 4, c)), None

        tree = DecisionTree(3, 3, 1, step)
        got, total = productive_deck_count(tree, 1)
        assert Fraction(got, total) == Fraction(1, 15)
        assert Fraction(got, total) == productive_fraction_brute(tree, 1)

    def test_dense_random_outputs_match_enumeration(self, monkeypatch):
        # an output on every edge makes overlapping, contradicting pins common
        monkeypatch.setattr("memlab.trees._OUT_PROB", 1.0)
        for n, R, depth in [(2, 3, 2), (3, 3, 2), (3, 4, 2), (3, 3, 3), (4, 4, 2)]:
            for seed in range(20):
                tree = random_tree(n, R, depth, seed)
                for t in (1, 2):
                    got, total = productive_deck_count(tree, t)
                    assert Fraction(got, total) == productive_fraction_brute(tree, t), \
                        (n, R, depth, seed, t)


def _pattern_trees(n, R, depth):
    """Every pattern-tree builder at one size: fixed, guessing for each t the
    depth admits, and compiled multipass with slots 1, 2, 2n in scan order
    and in a seeded order."""
    yield "fixed", fixed_position_tree(n, R, depth)
    for t in range(1, max(1, depth // 2) + 1):
        yield f"guessing t={t}", build_guessing_tree(n, R, depth, t)
    for slots in sorted({1, 2, 2 * n}):
        yield f"compiled s={slots}", compile_prefix_tree(MultiPass, n, R, depth, slots=slots)
        order = randomized_order(n, seed=n)
        yield (f"compiled s={slots} shuffled",
               compile_prefix_tree(lambda: MultiPass(order=order), n, R, depth, slots=slots))


# decks enumerated per cell at most; the n=4, R>4 cells (12,600 and 176,400
# decks) run tree_run on seeded decks and check fractions by path counting only
_DECK_ENUM_LIMIT = 3_000


class TestPatternExpansionOracle:
    """A pattern tree against its R-way expansion, the route every builder
    took before equality patterns: same laws, fractions and deck walks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pattern_tree_agrees_with_expansion(self, n):
        for R in sorted({n, n + 1, 2 * n}):
            small = count_valid_inputs(n, R) <= _DECK_ENUM_LIMIT
            decks = (list(enumerate_valid_inputs(n, R)) if small else
                     [generate_valid_input(GameParams(n, R, k)) for k in range(200)])
            for depth in range(min(4, n) + 1):
                for name, tree in _pattern_trees(n, R, depth):
                    where = (n, R, depth, name)
                    full = _expand(tree)
                    assert path_distribution(tree) == path_distribution(full), where
                    for x in decks:
                        assert tree_run(tree, x) == tree_run(full, x), (where, x)
                    for t in range(1, max(1, depth // 2) + 1):
                        got, total = productive_deck_count(tree, t)
                        assert (got, total) == productive_deck_count(full, t), (where, t)
                        if depth <= n // 2 and t <= depth // 2:
                            assert lemma43_check(tree, t) == lemma43_check(full, t)
                        if small:
                            brute = productive_fraction_brute(full, t)
                            assert brute == Fraction(got, total), (where, t)
