"""Core data model: candidates, weighted ballots, profiles, majority comparisons.

All weights and scores are exact rationals (`fractions.Fraction`), so ties
are genuine ties and never float artifacts. A ballot is an immutable tuple,
checked when it is made, stored grouped with a multiplicity weight;
fractional weights appear after debiasing. What the rules and the runoff
read (scores, joint scores, split scores, pairwise majority margins) is
counted once per profile, as integers over the common denominator of the
weights.
"""

from __future__ import annotations

import functools
import math
import string
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union


class InputError(ValueError):
    """Raised for malformed inputs (unknown candidate, bad weight, ...)."""


def default_labels(m: int) -> tuple[str, ...]:
    """Single letters a..z for small m, then c26, c27, ..."""
    letters = string.ascii_lowercase
    return tuple(letters[i] if i < 26 else f"c{i}" for i in range(m))


def exact(x, what: str = "value") -> Fraction:
    """Parse `x` as an exact rational.

    Floats, malformed text, zero denominators and text whose exponent gives
    more digits than `str` prints (`sys.get_int_max_str_digits`, absent
    before Python 3.10.7) raise InputError, before the number is built.
    """
    if isinstance(x, float):
        raise InputError(f"float {what} {x!r} not allowed; pass int, str or Fraction")
    try:
        if isinstance(x, str) and "e" in x.lower():
            digits, _, power = x.lower().partition("e")
            size = sum(map(str.isdigit, digits)) + abs(int(power))  # its digits, within one
            if 0 < getattr(sys, "get_int_max_str_digits", int)() < size:
                raise ValueError("too many digits")
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad {what} {x!r}") from exc


def as_weight(w) -> Fraction:
    """Coerce to an exact nonnegative rational; floats are rejected."""
    wf = exact(w, "weight")
    if wf < 0:
        raise InputError(f"negative weight {w!r}")
    return wf


def _trusted(cls, **fields):
    """A profile of the class `cls` from fields already checked: coerced to
    their types, with ballots that fit it."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _with_weight(ballot, weight: Fraction):
    """The tuple `ballot` with a new weight, a nonnegative Fraction: unchecked."""
    return tuple.__new__(type(ballot), (*ballot[:-1], weight))


class _Ballot:
    """Every way to make a ballot (`_make`, `_replace`, pickle, copy) checks it."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __reduce__(self):
        return type(self), tuple(self)


class ApprovalBallot(_Ballot, namedtuple("ApprovalBallot", "approved weight")):
    """A set of approved candidate ids with a multiplicity weight."""

    __slots__ = ()

    def __new__(cls, approved: Iterable[int], weight=1):
        return tuple.__new__(cls, (frozenset(approved), as_weight(weight)))


class RankedBallot(_Ballot, namedtuple("RankedBallot", "ranking approved weight")):
    """A full ranking (best first) plus an approved set and a weight.

    The approved set is stored explicitly rather than as a threshold so
    that ballots breaking prefix consistency (approving someone ranked
    below an unapproved candidate) remain representable; axiom searches
    need them. `is_consistent()` tells such ballots apart.
    """

    __slots__ = ()

    def __new__(cls, ranking: Iterable[int], approved: Iterable[int], weight=1):
        return tuple.__new__(cls, (tuple(ranking), frozenset(approved), as_weight(weight)))

    @classmethod
    def from_threshold(cls, ranking: Iterable[int], threshold: int, weight=1) -> "RankedBallot":
        ranking = tuple(ranking)
        if not 0 <= threshold <= len(ranking):
            raise InputError(f"threshold {threshold} outside 0..{len(ranking)}")
        return cls(ranking, ranking[:threshold], weight)

    @property
    def threshold(self) -> int:
        return len(self.approved)

    def position(self, c: int) -> int:
        return self.ranking.index(c)

    def prefers(self, a: int, b: int) -> bool:
        return self.ranking.index(a) < self.ranking.index(b)

    def is_consistent(self) -> bool:
        """True if the approved set is exactly the top-|approved| prefix."""
        return self.approved == frozenset(self.ranking[: len(self.approved)])


_ONE = Fraction(1)


def _unit_ballot(ranking: tuple[int, ...], approved: frozenset[int]) -> RankedBallot:
    """One voter's ballot tuple, from fields known to fit the profile: unchecked."""
    return tuple.__new__(RankedBallot, (ranking, approved, _ONE))


def _check_labels(m: int, labels) -> tuple[str, ...]:
    labels = default_labels(m) if labels is None else tuple(labels)
    if len(labels) != m:
        raise InputError(f"{len(labels)} labels for {m} candidates")
    if len(set(labels)) != m:
        raise InputError("duplicate candidate labels")
    return labels


class Tally(NamedTuple):
    """What the rules read of a profile, as integers: a rule is a function of it.

    `joint[x][y]` is the weight of the ballots approving both x and y, so
    `joint[x][x]` is the score S(x) and `scores` is the diagonal. `split[c]`
    is the sum, over the ballots approving c, of the ballot's weight divided
    by its number of approvals; it is over `split_denom`. `total` and the
    rest are over `denom`, the least common denominator of the group weights.
    """

    denom: int
    total: int
    scores: tuple[int, ...]
    joint: tuple[tuple[int, ...], ...]
    split: tuple[int, ...]
    split_denom: int

    @property
    def m(self) -> int:
        return len(self.scores)

    def approval_winners(self) -> frozenset[int]:
        """All candidates with the maximal approval score."""
        if not self.scores:
            raise InputError("no candidates")
        best = max(self.scores)
        return frozenset(c for c, s in enumerate(self.scores) if s == best)

    @classmethod
    def of(cls, m: int, groups: Iterable[tuple[frozenset[int], int]], denom: int) -> "Tally":
        """The tally of m candidates from (approval set, nonnegative integer
        weight over `denom`) groups, merged by approval set first; a row of
        `joint` is one packed int (`_packed`), so a set costs O(|set|)."""
        merged: dict = {}
        for approved, w in groups:
            merged[approved] = merged.get(approved, 0) + w
        total = sum(merged.values())
        unit, unpack = _packed(m, total.bit_length() + 1)
        rows, split = [0] * m, [0] * m
        sizes = math.lcm(*(len(a) for a in merged if a))
        for approved, w in merged.items():
            if not (w and approved):
                continue
            row = 0
            for y in approved:
                row += unit[y]
            row, share = w * row, w * (sizes // len(approved))
            for x in approved:
                rows[x] += row
                split[x] += share
        joint = unpack(rows)
        return cls(denom, total, tuple(joint[c][c] for c in range(m)), joint, tuple(split),
                   denom * sizes)

    def moved(self, old: frozenset[int], new: frozenset[int]) -> "Tally":
        """The tally with one voter (weight 1) moved from approving `old` to
        approving `new`, in O(m²). `split` is rescaled only when a set's size
        does not divide its denominator."""
        sizes = self.split_denom // self.denom
        scale = math.lcm(sizes, *(len(s) for s in (old, new) if s)) // sizes
        scores, split = list(self.scores), [s * scale for s in self.split]
        rows = {x: list(self.joint[x]) for x in old | new}
        for approved, unit in ((old, -self.denom), (new, self.denom)):
            share = unit * (sizes * scale // len(approved)) if approved else 0
            for x in approved:
                scores[x] += unit
                split[x] += share
                row = rows[x]
                for y in approved:
                    row[y] += unit
        joint = tuple(tuple(rows[x]) if x in rows else r for x, r in enumerate(self.joint))
        return Tally(self.denom, self.total, tuple(scores), joint, tuple(split),
                     self.split_denom * scale)


@functools.lru_cache(maxsize=256)
def _packed(m: int, width: int) -> tuple[tuple[int, ...], Callable]:
    """A row of m counts as one int of m fields of `width` bits: `unit[y]`
    adds 1 to field y, and `unpack` reads m rows back as an m × m tuple.
    Counts of nonnegative weights totalling T never carry at width
    bit_length(T) + 1."""
    shifts, mask = range(0, width * m, width), (1 << width) - 1

    def unpack(rows: list[int]) -> tuple[tuple[int, ...], ...]:
        fields = iter([(row >> s) & mask for row in rows for s in shifts])
        return tuple(zip(*[fields] * m))  # m fields at a time

    return tuple(1 << s for s in shifts), unpack


def majority_outcome(a: int, b: int, margin) -> frozenset[int]:
    """The winners of the majority contest of a and b, given the margin of
    a over b: {a}, {b}, or {a, b} on an exact tie."""
    if margin > 0:
        return frozenset({a})
    if margin < 0:
        return frozenset({b})
    return frozenset({a, b})


def _check_ballot(i: int, b, full: frozenset[int]) -> None:
    """Ballot `i` fits the candidates `full` = {0..m-1}: it approves only
    them and, if ranked, ranks each exactly once."""
    m = len(full)
    if not b.approved <= full:
        raise InputError(f"ballot {i} approves ids outside 0..{m - 1}")
    if isinstance(b, RankedBallot) and (len(b.ranking) != m or frozenset(b.ranking) != full):
        raise InputError(f"ballot {i}: ranking {b.ranking} is not a permutation of 0..{m - 1}")


class _Frozen:
    """An immutable record of the fields `_fields` of its `__dict__`. Like a
    frozen dataclass, it is equal, hashed and shown by its fields and its
    class; pickle and copy rebuild it through its constructor."""

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # rebuilt, not copied: a string's hash differs between processes
        return type(self), self._key()


class _Profile(_Frozen):
    """Weighted ballot groups over candidates 0..m-1: what approval and
    ranked profiles share."""

    _fields = ("m", "ballots", "labels")

    def __init__(self, m: int, ballots: Iterable, labels=None):
        m = int(m)
        self.__dict__.update(m=m, ballots=tuple(ballots), labels=_check_labels(m, labels))
        full = frozenset(range(m))
        for i, b in enumerate(self.ballots):
            _check_ballot(i, b, full)

    @property
    def total_weight(self) -> Fraction:
        return sum((b.weight for b in self.ballots), Fraction(0))

    def _require_candidate(self, c: int) -> None:
        if not (isinstance(c, int) and 0 <= c < self.m):
            raise InputError(f"unknown candidate id {c!r} (m={self.m})")

    def _derived(self, key, compute: Callable[[], object]):
        """The value `compute()` derives from this profile, computed once per
        `key` and kept on the profile, so it lives exactly as long as the
        profile does. Every cache of derived work (the tally, the
        margins, runoffs, moved tallies, screens) is one entry here."""
        try:
            return self.__dict__["_cache"][key]
        except KeyError:
            pass
        value = self.__dict__.setdefault("_cache", {})[key] = compute()
        return value

    def _int_weights(self) -> tuple[list[int], int]:
        """The group weights as integers over their least common
        denominator (cached): what the tally and the margins count."""
        def compute():
            denom = math.lcm(*{b.weight.denominator for b in self.ballots})
            return [b.weight.numerator * (denom // b.weight.denominator)
                    for b in self.ballots], denom
        return self._derived("ints", compute)

    def tally(self) -> Tally:
        """The approval statistics of the profile (cached): one pass over
        the ballot groups."""
        def compute():
            ints, denom = self._int_weights()
            return Tally.of(self.m, zip((b.approved for b in self.ballots), ints), denom)
        return self._derived("tally", compute)

    def with_weights(self, weights: Iterable):
        """The same ballot groups, in order, with new weights."""
        ballots = tuple(map(_with_weight, self.ballots, map(as_weight, weights)))
        return _trusted(type(self), m=self.m, ballots=ballots, labels=self.labels)

    def scaled(self, factor):
        factor = exact(factor, "factor")
        return self.with_weights(b.weight * factor for b in self.ballots)

    def _rebuilt(self, groups, labels):
        """A profile of this kind from (ranking, approved, weight) groups;
        an approval profile drops the rankings."""
        ranked = isinstance(self, RankedProfile)
        ballots = [RankedBallot(r, a, w) if ranked else ApprovalBallot(a, w) for r, a, w in groups]
        return type(self)(self.m, ballots, labels)

    def relabel(self, perm: Sequence[int]):
        """Candidate i of the result is candidate perm[i] of self."""
        inv = _inverse_perm(perm, self.m).__getitem__
        groups = ((map(inv, getattr(b, "ranking", ())), map(inv, b.approved), b.weight)
                  for b in self.ballots)
        return self._rebuilt(groups, tuple(self.labels[p] for p in perm))

    def canonical(self):
        """Merge equal ballots and sort groups; drops zero-weight groups."""
        ranked = isinstance(self, RankedProfile)
        merged: dict[tuple, Fraction] = {}
        for b in self.ballots:
            key = (b.ranking if ranked else (), tuple(sorted(b.approved)))
            merged[key] = merged.get(key, Fraction(0)) + b.weight
        return self._rebuilt(((r, a, w) for (r, a), w in sorted(merged.items()) if w), self.labels)


class ApprovalProfile(_Profile):
    """A weighted multiset of approval ballots over candidates 0..m-1."""

    ballots: tuple[ApprovalBallot, ...]

    def as_approval(self) -> "ApprovalProfile":
        return self

    def approval_score(self, c: int) -> Fraction:
        """Total weight of ballots approving c."""
        self._require_candidate(c)
        return sum((b.weight for b in self.ballots if c in b.approved), Fraction(0))

    def joint_score(self, group: Iterable[int]) -> Fraction:
        """Total weight of ballots approving every candidate in `group`."""
        group = frozenset(group)
        for c in group:
            self._require_candidate(c)
        return sum((b.weight for b in self.ballots if group <= b.approved), Fraction(0))

    def score_vector(self) -> list[Fraction]:
        tally = self.tally()
        return [Fraction(s, tally.denom) for s in tally.scores]

    def joint_matrix(self) -> dict[tuple[int, int], Fraction]:
        """Joint approval weight for every pair (i, j) with i < j."""
        tally = self.tally()
        return {
            (x, y): Fraction(tally.joint[x][y], tally.denom)
            for x in range(self.m)
            for y in range(x + 1, self.m)
        }


class RankedProfile(_Profile):
    """A weighted multiset of ranked ballots with approved sets.

    Projects onto an :class:`ApprovalProfile` for the first-round rules;
    rankings feed the pairwise majority comparisons of the runoff.
    """

    ballots: tuple[RankedBallot, ...]

    def as_approval(self) -> ApprovalProfile:
        return ApprovalProfile(
            self.m,
            [ApprovalBallot(b.approved, b.weight) for b in self.ballots],
            self.labels,
        )

    def _margins(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """margins[a][b] = W(a≻b) − W(b≻a), as integers over the common
        denominator (cached): one pass over the ballot groups, merged by
        ranking first, then one subtraction of the transpose. W(x≻·) is one
        packed int (`_packed`): from the bottom of a ranking up, x gains the
        weight times the row of those below it, O(m) per ranking."""
        def compute():
            ints, denom = self._int_weights()
            merged: dict = {}
            for b, w in zip(self.ballots, ints):
                merged[b.ranking] = merged.get(b.ranking, 0) + w
            unit, unpack = _packed(self.m, sum(merged.values()).bit_length() + 1)
            above = [0] * self.m
            for ranking, w in merged.items():
                below = 0
                for x in reversed(ranking):
                    above[x] += w * below
                    below += unit[x]
            above = unpack(above)
            return tuple(tuple(ab - ba for ab, ba in zip(row, col))
                         for row, col in zip(above, zip(*above))), denom
        return self._derived("margins", compute)

    def _margin(self, a: int, b: int) -> int:
        self._require_candidate(a)
        self._require_candidate(b)
        if a == b:
            raise InputError("majority comparison needs two distinct candidates")
        return self._margins()[0][a][b]

    def majority_margin(self, a: int, b: int) -> Fraction:
        """Weight preferring a over b minus weight preferring b over a."""
        return Fraction(self._margin(a, b), self._margins()[1])

    def majority_winners(self, a: int, b: int) -> frozenset[int]:
        """{a}, {b}, or {a, b} on an exact tie."""
        return majority_outcome(a, b, self._margin(a, b))

    def dominates(self, a: int, b: int) -> bool:
        """a beats b on every positive-weight ballot and is approved over b somewhere.

        Condition (1): every voter ranks a above b, so a's margin over b is
        the total weight. Condition (2): some voter approves a but not b,
        so S(a) exceeds the joint score S(ab).
        """
        self._require_candidate(a)
        self._require_candidate(b)
        if a == b:
            raise InputError("domination needs two distinct candidates")
        tally = self.tally()
        return self._margins()[0][a][b] == tally.total and tally.joint[a][a] > tally.joint[a][b]

    def condorcet_loser(self) -> Optional[int]:
        """The candidate losing every pairwise majority strictly, if any."""
        if self.m < 2:
            return None
        margins, _ = self._margins()
        for c in range(self.m):
            if all(margins[c][other] < 0 for other in range(self.m) if other != c):
                return c
        return None

    def replace_ballot(self, index: int, new: RankedBallot) -> "RankedProfile":
        """Split one unit of weight off group `index` and give it ballot `new`.

        Group weights must be positive integers (each group stands for that
        many identical voters); the deviator is a single voter.
        """
        old = self.ballots[index]
        if old.weight != int(old.weight) or old.weight < 1:
            raise InputError("single-voter deviation needs integer group weights")
        _check_ballot(index if old.weight == 1 else len(self.ballots), new,
                      frozenset(range(self.m)))
        unit = _unit_ballot(new.ranking, new.approved)
        ballots = list(self.ballots)
        if old.weight == 1:
            ballots[index] = unit
        else:
            ballots[index] = _with_weight(old, old.weight - 1)
            ballots.append(unit)
        return _trusted(RankedProfile, m=self.m, ballots=tuple(ballots), labels=self.labels)


Profile = Union[ApprovalProfile, RankedProfile]


def _inverse_perm(perm: Sequence[int], m: int) -> list[int]:
    perm = list(perm)
    if sorted(perm) != list(range(m)):
        raise InputError("not a permutation of candidate ids")
    inv = [0] * m
    for i, p in enumerate(perm):
        inv[p] = i
    return inv
