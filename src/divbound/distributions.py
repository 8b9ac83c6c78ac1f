"""Validated points on the probability simplex.

A vector is accepted as a distribution only if every entry is strictly
positive (strict mode) or nonnegative (permissive mode) and the entries sum
to 1 within SUM_TOL.  Nothing is ever renormalised silently; a rejected
vector raises a distinct error kind per failed invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import DivboundError, FlatRows

SUM_TOL = 1e-12

STRICT = "strict"
PERMISSIVE = "permissive"


class ValidationFailure(DivboundError, ValueError):
    """A raw vector violates a simplex invariant."""

    kind = "validation"


class NegativeEntry(ValidationFailure):
    kind = "negative_entry"


class ZeroEntry(ValidationFailure):
    kind = "zero_entry"


class SumNotOne(ValidationFailure):
    kind = "sum_not_one"


class AlphabetTooSmall(ValidationFailure):
    kind = "alphabet_too_small"


class AlphabetMismatch(ValidationFailure):
    kind = "alphabet_mismatch"


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability masses over a finite alphabet, plus the mode they passed.

    validate stores probs as a read-only array that owns its data, so the
    masses of a validated distribution never change.  That is what lets
    the measures reuse the base sums of the most recent pair when they are
    called on it again; a distribution built directly on a writable array
    is summed afresh on every call.
    """

    probs: np.ndarray = field(repr=False)
    mode: str

    @property
    def n(self) -> int:
        return int(self.probs.shape[0])

    def __repr__(self) -> str:  # keep reprs short for error echoes
        return f"DiscreteDistribution({self.probs.tolist()!r}, mode={self.mode!r})"


def validate(raw, mode: str = STRICT, *, min_size: int = 2) -> DiscreteDistribution:
    """Validate a raw vector as a probability distribution.

    min_size defaults to 2 (a one-point alphabet carries no information);
    two-class problems relax it to 1 for their conditionals.
    """
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError(f"unknown mode {mode!r}")
    probs = np.asarray(raw, dtype=float).reshape(-1)
    if probs.shape[0] < min_size:
        raise AlphabetTooSmall(
            f"alphabet size {probs.shape[0]} < required minimum {min_size}"
        )
    if not np.all(np.isfinite(probs)):
        raise ValidationFailure("non-finite entry in probability vector")
    if np.any(probs < 0.0):
        i = int(np.argmax(probs < 0.0))
        raise NegativeEntry(f"entry {i} is negative ({float(probs[i])!r})")
    if mode == STRICT and np.any(probs == 0.0):
        i = int(np.argmax(probs == 0.0))
        raise ZeroEntry(f"entry {i} is zero; strict mode requires all entries > 0")
    total = float(np.sum(probs))
    if abs(total - 1.0) > SUM_TOL:
        raise SumNotOne(f"entries sum to {total!r}, not 1 within {SUM_TOL}")
    probs = probs.copy()
    probs.setflags(write=False)
    return DiscreteDistribution(probs=probs, mode=mode)


def invalid_rows(cells: np.ndarray, rows: FlatRows, mode: str = STRICT) -> np.ndarray:
    """Flags the rows of a flat buffer, laid out by rows, that validate()
    would reject.

    Checks the same invariants as validate, for all rows at once; the size
    check is left to the caller.  Validating a flagged row raises the error.
    """
    positive = cells > 0.0 if mode == STRICT else cells >= 0.0
    entries_ok = rows.all(positive & np.isfinite(cells))
    return ~(entries_ok & (np.abs(rows.sum(cells) - 1.0) <= SUM_TOL))


def require_same_alphabet(P: DiscreteDistribution, Q: DiscreteDistribution) -> None:
    if P.n != Q.n:
        raise AlphabetMismatch(f"alphabet sizes differ: {P.n} vs {Q.n}")
