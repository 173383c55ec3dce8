"""memlab: simulation and verification lab for the space-bounded pair-matching game."""

from .game_core import (CapExceeded, Deck, FlipBudgetExceeded, GameParams, MatchTriple,
                        Transcript, VerificationReport, count_valid_inputs, derive_seed,
                        enumerate_valid_inputs, generate_valid_input, matches_of,
                        validate_deck, verify_transcript)
from .strategies import (DeckHost, FullMemory, GameHost, MultiPass, ProtocolError,
                         SpaceBudget, make_strategy, multi_pass_play, multi_pass_time_bound,
                         randomized_order, space_audit)
from .adversary import (AdversaryLog, AdversaryResult, InvariantViolation,
                        KnowledgeGraph, StrategyRejected, adversarial_play,
                        involution_audit, kg_answer, kg_from_edges, kg_init,
                        kg_is_done, perfect_matchings, replay_consistent,
                        useful_edges_brute, vanish_closure)
from .analysis import (MonteCarloWrapped, UniquePairsExpectation, YExperiment,
                       binomial_tail_exact, chernoff_tail, monte_carlo_wrap,
                       relent, unique_pairs, unique_pairs_expected,
                       unique_pairs_expected_enumerated, unique_pairs_mc,
                       y_exact_distribution, y_expectation, y_sample_many,
                       y_sample_size, y_tail_bound, y_tail_estimate, y_tail_exact)
from .trees import (DecisionTree, PathStats, TreeNode, build_guessing_tree,
                    compile_prefix_tree, fixed_position_tree, lemma43_check,
                    path_distribution, productive_deck_count,
                    productive_fraction_brute, random_tree, tree_run,
                    x_exact_distribution, xy_equiv_check)

__version__ = "0.1.0"
