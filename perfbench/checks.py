"""Output checks: every CSV data row the CLI emits is verified twice, once by
its own `ok`-style columns and once by recomputing the claim from the row.

The recomputed claims are the paper's checks: the adversary's counting
identities, the multi-pass flip ceiling, the shallow-tree productivity bound,
the completed-pairs tail and the unique-pairs threshold.
"""
from __future__ import annotations

from fractions import Fraction


def _adversary(r: dict[str, str]) -> bool:
    n = int(r["n"])
    return (int(r["deletions"]) + int(r["vanishings"]) == n * (n - 1)
            and int(r["queries"]) >= n * (n - 1) // 2)


def _tradeoff(r: dict[str, str]) -> bool:
    if r["kind"] == "calibration":
        return True
    n, s = int(r["n"]), int(r["s"])
    return int(r["T"]) <= -(-2 * n // s) * 2 * n


def _lemma43(r: dict[str, str]) -> bool:
    return Fraction(int(r["frac_num"]), int(r["frac_den"])) <= float(r["bound"])


def _lemma_y(r: dict[str, str]) -> bool:
    return float(r["estimate"]) <= float(r["bound"]) + 3.0 * float(r["sigma"])


def _unique_pairs(r: dict[str, str]) -> bool:
    return float(r["mc_estimate"]) - 3.0 * float(r["mc_sigma"]) > float(r["threshold"])


RECOMPUTE = {
    "adversary": _adversary,
    "tradeoff": _tradeoff,
    "lemma43": _lemma43,
    "lemma-y": _lemma_y,
    "unique-pairs": _unique_pairs,
    "xy-check": lambda r: True,  # its claim is an exact equality the row only reports
}


def check_csv(kind: str, text: str) -> tuple[int, int]:
    """(data rows, failing data rows) of one CSV emitted by subcommand `kind`."""
    lines = text.splitlines()
    if not lines:
        return 0, 0
    header = lines[0].split(",")
    flags = [h for h in header if h in ("ok", "correct") or h.endswith("_ok")]
    failed = 0
    for line in lines[1:]:
        vals = line.split(",")
        if len(vals) != len(header):
            failed += 1
            continue
        row = dict(zip(header, vals))
        try:
            ok = all(row[h] == "True" for h in flags) and RECOMPUTE[kind](row)
        except (KeyError, ValueError, ZeroDivisionError):
            ok = False
        failed += not ok
    return len(lines) - 1, failed


# A row `memlab --seed 5 adversary --n-list 6 --seeds 1 --strategy mixed` emitted.
_ADVERSARY_SAMPLE = ("n,S,s,seed,strategy,queries,deletions,vanishings,lower_bound_ok,involution_ok\n"
                     "6,8,2,8946103791360515949,rmultipass,36,15,15,True,True\n")


def selftest() -> bool:
    """The checker passes a good adversary row and fails it once either its
    `involution_ok` column or its deletion count is corrupted."""
    flipped = _ADVERSARY_SAMPLE.replace("True\n", "False\n")
    miscounted = _ADVERSARY_SAMPLE.replace(",15,15,", ",14,15,")
    return (check_csv("adversary", _ADVERSARY_SAMPLE) == (1, 0)
            and check_csv("adversary", flipped) == (1, 1)
            and check_csv("adversary", miscounted) == (1, 1))
