"""The benchmark's workloads: the `memlab` CLI invocations one pass makes.

Every pass runs each cell of its workload once, in order, in-process through
`memlab.cli.main(argv)` with `--jobs 1`: a closed loop with one client.  Pass
k of a run uses the CLI seed `seed * 1000 + k`, so a run covers several input
sets drawn from its seed and the same seed always gives the same inputs.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import memlab from this checkout's `src/`, never from an installed copy."""
    if not (SRC / "memlab" / "cli.py").is_file():
        sys.exit(f"perfbench: no memlab sources under {SRC}")
    sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Cell:
    """One CLI invocation: `args` are the subcommand and its flags, `rows` the
    number of CSV data rows it must emit."""

    args: tuple[str, ...]
    rows: int

    @property
    def kind(self) -> str:
        return self.args[0]


def pass_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def argv(cell: Cell, cli_seed: int, out: Path | str) -> list[str]:
    return ["--jobs", "1", "--seed", str(cli_seed), "--out", str(out), *cell.args]


def _pow2_count(n: int) -> int:
    """Slot counts 1, 2, 4, ... up to 2n, as `--s-list pow2` sweeps them."""
    return (2 * n).bit_length()


# Sizes are cut from the acceptance grids so that one pass takes 1-3 s and a
# run holds several passes; see NOTES.md for the cuts and the reasons.
ADVERSARY_NS = (32, 48, 64)
TRADEOFF_NS = (8, 16, 32, 64, 128, 256)
TRADEOFF_SEEDS = 10
LEMMA43_GRID = ([(8, r, t) for r, t in ((2, 1), (3, 1), (4, 1), (4, 2))]
                + [(16, r, t) for r, t in ((2, 1), (3, 1))])
LEMMA43_TREES = (("--tree", "compiled", "--s", "2"),
                 ("--tree", "compiled", "--s", "16"),
                 ("--tree", "guessing"))
XY_TREES = 50
LEMMA_Y_TRIALS = 10_000
UNIQUE_NS = (10, 100)


def _tradeoff_rows() -> int:
    cells = sum(_pow2_count(n) for n in TRADEOFF_NS)
    return cells * TRADEOFF_SEEDS + cells + 1


WORKLOADS: dict[str, tuple[Cell, ...]] = {
    "adversary_sweep": (
        Cell(("adversary", "--n-list", ",".join(map(str, ADVERSARY_NS)),
              "--strategy", "mixed", "--seeds", "1"), len(ADVERSARY_NS)),
    ),
    "tradeoff_sweep": (
        Cell(("tradeoff", "--n-list", ",".join(map(str, TRADEOFF_NS)),
              "--s-list", "pow2", "--seeds", str(TRADEOFF_SEEDS)), _tradeoff_rows()),
    ),
    "tree_grid": tuple(
        Cell(("lemma43", "--n", "8", "--R", str(R), "--r", str(r), "--t", str(t), *tree), 1)
        for R, r, t in LEMMA43_GRID for tree in LEMMA43_TREES
    ) + (Cell(("xy-check", "--n", "3", "--R", "4", "--trees", str(XY_TREES)), XY_TREES + 1),),
    "mc_tails": tuple(
        Cell(("lemma-y", "--n", str(n), "--t", str(t), "--trials", str(LEMMA_Y_TRIALS)), 1)
        for n in (100, 1000) for t in range(2, 9)
    ) + tuple(Cell(("unique-pairs", "--n", str(n)), 1) for n in UNIQUE_NS),
}
