"""Two-committee rules over approval profiles.

Every rule returns the full irresolute set of optimal candidate pairs with
exact scores. The joint family scores a pair {x, y} as
S(x) + S(y) - alpha * S(xy); alpha = 0, 1/2, 1 give the maximal-approval,
proportional, and coverage (Chamberlin-Courant style) rules, and alpha = 2
the clone-resistant variant. Sequential variants fix the first finalist as
an approval winner and optimize the second seat only.

A rule is named by a `RuleSpec` and run by one entry, `tally_outcome(tally,
spec)`, which checks that the tally has two candidates or more (`evaluate`
runs it on a profile's tally); the rule functions are private rows of
`RULES`. A rule compares integers, cross-multiplied by a parameter's
denominator, and keeps its score table as integers: the Fractions are
built only when the table is read, so a search that reads only the pairs
builds none.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Literal, NamedTuple, Optional, Union

from avrunoff.profiles import InputError, Profile, Tally, _Frozen, exact


class CandidatePair(NamedTuple):
    """Unordered pair of distinct candidates, stored with lo < hi."""

    lo: int
    hi: int

    @classmethod
    def of(cls, a: int, b: int) -> "CandidatePair":
        if a == b:
            raise InputError("a committee pair needs two distinct candidates")
        return cls(a, b) if a < b else cls(b, a)

    def members(self) -> frozenset[int]:
        return frozenset(self)


class Param(NamedTuple):
    """A rule parameter: the RuleSpec field it sets and its exact range."""

    field: str
    label: str  # its name in error messages
    lo: Fraction
    hi: Optional[Fraction]  # None: no upper bound
    display: str  # how RuleSpec.describe shows a spec by this parameter

    def check(self, value) -> Fraction:
        value = exact(value, "parameter")
        if value < self.lo or (self.hi is not None and value > self.hi):
            bound = f"be >= {self.lo}" if self.hi is None else f"lie in [{self.lo}, {self.hi}]"
            raise InputError(f"{self.label} must {bound}")
        return value


ALPHA = Param("alpha", "alpha", Fraction(0), None, "alpha-av:{}")
SEQ_ALPHA = Param("alpha", "sequential alpha", Fraction(0), Fraction(1), "alpha-seq:{}")
QUOTA = Param("quota", "quota", Fraction(0), None, "enephr[Q={}]")
BETA = Param("beta", "beta", Fraction(0), Fraction(1), "enephr[beta={}]")


class RuleSpec(_Frozen):
    """Which rule to run, with its exact-rational parameters.

    A kind with parameters (see RULES) takes exactly one of them; for the
    quota rule that is `quota` (absolute) or `beta` (fraction of the total
    ballot weight).

    A spec is checked and hashed once, when it is built: the caches of
    derived work key on it.
    """

    _fields = ("kind", "alpha", "quota", "beta")

    def __init__(self, kind: str, alpha=None, quota=None, beta=None):
        fields = self.__dict__
        fields.update(kind=kind, alpha=alpha, quota=quota, beta=beta)
        try:
            params = _KINDS[kind].params
        except KeyError:
            raise InputError(f"unknown rule kind {kind!r}") from None
        for field in ("alpha", "quota", "beta"):
            if fields[field] is not None and all(p.field != field for p in params):
                raise InputError(f"rule kind {kind!r} takes no {field}")
        given = [p for p in params if fields[p.field] is not None]
        if params and len(given) != 1:
            raise InputError("give exactly one of " + " or ".join(p.field for p in params))
        for param in given:
            fields[param.field] = param.check(fields[param.field])
        # the rule function's arguments after the tally, in its parameters' order
        fields["_args"] = tuple(fields[p.field] for p in params)
        fields["_hash"] = hash(self._key())

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def named(cls, name: str, quota_beta=None) -> "RuleSpec":
        """Resolve a CLI-style rule name (mav, pav, alpha-av:1/4, ...).

        `kind:<r>` names a kind with one parameter; `quota_beta` replaces
        the beta of a rule that has one.
        """
        name = name.strip().lower()
        kind, colon, value = name.partition(":")
        if colon and kind in _KINDS and len(_KINDS[kind].params) == 1:
            return cls(kind, **{_KINDS[kind].params[0].field: value})
        try:
            rule = _NAMES[name]
        except KeyError:
            raise InputError(f"unknown rule name {name!r}") from None
        values = dict(rule.values)
        if quota_beta is not None and BETA in rule.params:
            values["beta"] = quota_beta
        return cls(rule.kind, **values)

    def describe(self) -> str:
        """The name of the RULES row this spec equals, else its parameter
        as its Param shows it; a row with a beta always shows its beta."""
        name = _DISPLAY.get(self)
        if name is not None:
            return name
        param = next(p for p in _KINDS[self.kind].params if getattr(self, p.field) is not None)
        return param.display.format(getattr(self, param.field))


# a pair's score: one number, or (coverage, approval sum) for ccav+
Score = Union[Fraction, tuple[Fraction, Fraction]]


class ScoreTable(Mapping):
    """A read-only table of exact scores, kept as integers until it is read.

    It is built from (scores, denominator) parts, each score an integer or
    a tuple of integers over its part's denominator; a key of a later part
    replaces the same key of an earlier one. The first read builds the
    Fractions of every score.
    """

    def __init__(self, *parts: tuple[Mapping, int]):
        self._parts, self._table = parts, None

    def _read(self) -> dict:
        if self._table is None:
            self._table = {key: Fraction(v, d) if isinstance(v, int)
                           else tuple(Fraction(x, d) for x in v)
                           for scores, d in self._parts for key, v in scores.items()}
        return self._table

    def __getitem__(self, key):
        return self._read()[key]

    def __iter__(self):
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._read())

    def __repr__(self) -> str:
        return repr(self._read())


class RuleOutcome(NamedTuple):
    """Optimal pairs plus the exact score of every scored pair.

    For joint rules the table covers all C(m, 2) pairs and `pairs` is its
    argmax (argmin for the load-minimizing rule). For sequential rules the
    table covers the (first finalist, other) pairs of every first-stage
    branch, and `pairs` is the union of per-branch optima. The rules return
    read-only mappings (a `ScoreTable`, whose Fractions are built when it is
    read), since one outcome may serve many callers.
    """

    pairs: tuple[CandidatePair, ...]
    score_table: Mapping[CandidatePair, Score]
    objective_sense: Literal["max", "min"] = "max"
    first_stage: Optional[tuple[int, ...]] = None
    branch_alphas: Optional[Mapping[int, Fraction]] = None
    candidate_scores: Optional[Mapping[int, Fraction]] = None

    @property
    def pair_set(self) -> frozenset[CandidatePair]:
        return frozenset(self.pairs)


def _argbest(table: Mapping[CandidatePair, object], sense: str) -> tuple[CandidatePair, ...]:
    extreme = max(table.values()) if sense == "max" else min(table.values())
    return tuple(sorted(p for p, s in table.items() if s == extreme))


@functools.lru_cache(maxsize=32)
def all_pairs(m: int) -> tuple[CandidatePair, ...]:
    """The C(m, 2) pairs in lexicographic order (cached per m)."""
    return tuple(CandidatePair(a, b) for a, b in combinations(range(m), 2))


@functools.lru_cache(maxsize=256)
def _pairs_with(m: int, x1: int) -> tuple[CandidatePair, ...]:
    """The pairs of x1 with each other of m candidates (cached)."""
    return tuple(CandidatePair.of(x1, y) for y in range(m) if y != x1)


def _discounted(tally: Tally, pairs, alpha: Fraction) -> dict[CandidatePair, int]:
    """S(x) + S(y) - alpha * S(xy) of each pair, over alpha's denominator
    times the tally's."""
    p, q = alpha.numerator, alpha.denominator
    S, J = tally.scores, tally.joint
    return {pair: q * (S[pair.lo] + S[pair.hi]) - p * J[pair.lo][pair.hi] for pair in pairs}


def _zeros(pairs: tuple[CandidatePair, ...]) -> ScoreTable:
    return ScoreTable((dict.fromkeys(pairs, 0), 1))


# The rule functions of the RULES rows: each takes a tally of at least two
# candidates and the parameter values a RuleSpec checked.


def _alpha_av(tally: Tally, alpha: Fraction) -> RuleOutcome:
    """Pairs maximizing S(x) + S(y) - alpha * S(xy) over all pairs."""
    table = _discounted(tally, all_pairs(tally.m), alpha)
    return RuleOutcome(_argbest(table, "max"),
                       ScoreTable((table, alpha.denominator * tally.denom)))


def _alpha_seq_av(tally: Tally, alpha: Fraction) -> RuleOutcome:
    """First finalist an approval winner, second maximizing S(y) - alpha * S(x1,y).

    All first-stage ties are expanded as branches and the per-branch optima
    unioned. Table entries carry the full pair score S(x1) + S(y) - alpha*S(x1,y).
    """
    return _seq_alpha_outcome(tally, lambda x1: alpha)


def _seq_alpha_outcome(tally: Tally, alpha_of: Callable[[int], Fraction]) -> RuleOutcome:
    """One branch per approval winner x1, discounting by alpha_of(x1)."""
    winners = tuple(sorted(tally.approval_winners()))
    alphas = {x1: alpha_of(x1) for x1 in winners}
    parts = []
    best: set[CandidatePair] = set()
    for x1, alpha in alphas.items():
        branch = _discounted(tally, _pairs_with(tally.m, x1), alpha)
        parts.append((branch, alpha.denominator * tally.denom))
        best.update(_argbest(branch, "max"))
    return RuleOutcome(
        tuple(sorted(best)),
        ScoreTable(*parts),
        first_stage=winners,
        branch_alphas=MappingProxyType(alphas),
    )


def _enestrom_phragmen(tally: Tally, quota: Optional[Fraction] = None,
                       beta: Optional[Fraction] = None) -> RuleOutcome:
    """Sequential rule with per-branch discount min(1, Q / S(x1)).

    The quota is given either absolutely or as beta with Q = beta * n.
    A zero-score first finalist (all-empty profile) uses discount 1.
    """
    n = Fraction(tally.total, tally.denom)
    q = quota if beta is None else beta * n
    if not 0 <= q <= n:
        raise InputError(f"quota {q} outside [0, {n}]")
    return _seq_alpha_outcome(tally, lambda x1: (
        Fraction(1) if tally.scores[x1] == 0
        else min(Fraction(1), q * tally.denom / tally.scores[x1])))


def _seq_phragmen(tally: Tally) -> RuleOutcome:
    """First finalist an approval winner; second minimizes the voter load
    (1 + S(x1,y)/S(x1)) / S(y).

    Zero-score candidates carry infinite load and are excluded; if every
    candidate scores zero the outcome degenerates to all pairs.
    """
    S, J = tally.scores, tally.joint
    winners = tuple(sorted(tally.approval_winners()))
    if not any(S):
        pairs = all_pairs(tally.m)
        return RuleOutcome(pairs, _zeros(pairs), objective_sense="min", first_stage=winners)
    parts = []
    best: set[CandidatePair] = set()
    for x1 in winners:
        others = [y for y in range(tally.m) if y != x1 and S[y]]
        if others:
            # the load is a ratio of tallies, (S(x1) + S(x1,y)) * denom / (S(x1) * S(y)):
            # over the branch's denominator S(x1) * lcm of the S(y), an integer
            lcm = math.lcm(*(S[y] for y in others))
            branch = {CandidatePair.of(x1, y): (S[x1] + J[x1][y]) * tally.denom * (lcm // S[y])
                      for y in others}
            parts.append((branch, S[x1] * lcm))
            best.update(_argbest(branch, "min"))
        else:
            # every other candidate scores zero: keep all pairs with x1
            best.update(_pairs_with(tally.m, x1))
    return RuleOutcome(tuple(sorted(best)), ScoreTable(*parts), objective_sense="min",
                       first_stage=winners)


def _sav(tally: Tally) -> RuleOutcome:
    """Each ballot splits its weight evenly over its approved candidates;
    pairs maximizing the summed split scores win. Empty ballots contribute
    nothing."""
    split = tally.split
    table = {p: split[p.lo] + split[p.hi] for p in all_pairs(tally.m)}
    return RuleOutcome(
        _argbest(table, "max"),
        ScoreTable((table, tally.split_denom)),
        candidate_scores=ScoreTable((dict(enumerate(split)), tally.split_denom)),
    )


def _triv(tally: Tally) -> RuleOutcome:
    """All pairs, regardless of the ballots."""
    pairs = all_pairs(tally.m)
    return RuleOutcome(pairs, _zeros(pairs))


def _ccav_plus(tally: Tally) -> RuleOutcome:
    """Coverage-optimal pairs, ties broken by the plain approval sum.

    Scores are (coverage score, approval sum) compared lexicographically,
    so `pairs` is still the exact argmax of the table.
    """
    S, J = tally.scores, tally.joint
    table = {}
    for p in all_pairs(tally.m):
        msum = S[p.lo] + S[p.hi]
        table[p] = (msum - J[p.lo][p.hi], msum)
    return RuleOutcome(_argbest(table, "max"), ScoreTable((table, tally.denom)))


def tally_outcome(tally: Tally, spec: RuleSpec) -> RuleOutcome:
    """Run the rule of `spec` on `tally`, with the parameters `spec` checked
    when it was built; the tally needs at least two candidates."""
    if tally.m < 2:
        raise InputError("need at least two candidates")
    return _KINDS[spec.kind].fn(tally, *spec._args)


def evaluate(profile: Profile, spec: RuleSpec) -> RuleOutcome:
    """`tally_outcome` on the tally of `profile`, approval or ranked."""
    return tally_outcome(profile.tally(), spec)


class Rule(NamedTuple):
    """One row of RULES: a named rule, the kind of RuleSpec it is and the
    function that runs it on a tally and the checked parameter values."""

    name: str
    aliases: tuple[str, ...]
    kind: str
    fn: Callable[..., RuleOutcome]
    params: tuple[Param, ...] = ()  # the kind's parameters
    values: Mapping[str, Fraction] = {}  # this rule's parameter values


# Every rule the package names. Rows of one kind share its function and
# parameters; the rest of the module (RuleSpec.named, describe, tally_outcome,
# RULE_NAMES and the constants below) is read from this table, so adding a
# rule is one row. The beta of a rule with one is set by `--quota-beta`, so
# such a rule is shown with its beta.
RULES: tuple[Rule, ...] = (
    Rule("mav", ("av",), "alpha-av", _alpha_av, (ALPHA,), {"alpha": Fraction(0)}),
    Rule("pav", (), "alpha-av", _alpha_av, (ALPHA,), {"alpha": Fraction(1, 2)}),
    Rule("ccav", (), "alpha-av", _alpha_av, (ALPHA,), {"alpha": Fraction(1)}),
    Rule("2av", (), "alpha-av", _alpha_av, (ALPHA,), {"alpha": Fraction(2)}),
    Rule("spav", (), "alpha-seq", _alpha_seq_av, (SEQ_ALPHA,), {"alpha": Fraction(1, 2)}),
    Rule("sccav", (), "alpha-seq", _alpha_seq_av, (SEQ_ALPHA,), {"alpha": Fraction(1)}),
    Rule("sphr", (), "seq-phragmen", _seq_phragmen),
    Rule("enephr", (), "enestrom-phragmen", _enestrom_phragmen, (QUOTA, BETA),
         {"beta": Fraction(1, 3)}),
    Rule("sav", (), "sav", _sav),
    Rule("triv", (), "triv", _triv),
    Rule("ccav+", (), "ccav-plus", _ccav_plus),
)

_KINDS = {rule.kind: rule for rule in RULES}
_NAMES = {name: rule for rule in RULES for name in (rule.name, *rule.aliases)}
_DISPLAY = {RuleSpec.named(r.name): r.name for r in RULES if BETA not in r.params}

RULE_NAMES = (
    tuple(sorted(name for name, rule in _NAMES.items() if BETA not in rule.params))
    + tuple(rule.name for rule in RULES if BETA in rule.params)
    + tuple(f"{kind}:<r>" for kind, rule in _KINDS.items() if len(rule.params) == 1)
)

MAV = RuleSpec.named("mav")
PAV = RuleSpec.named("pav")
CCAV = RuleSpec.named("ccav")
TWO_AV = RuleSpec.named("2av")
SPAV = RuleSpec.named("spav")
SCCAV = RuleSpec.named("sccav")
SPHR = RuleSpec.named("sphr")
ENEPHR = RuleSpec.named("enephr")
SAV = RuleSpec.named("sav")
TRIV = RuleSpec.named("triv")
CCAV_PLUS = RuleSpec.named("ccav+")


def alpha_av_breakpoints(tally: Tally) -> list[Fraction]:
    """Exact alpha values in (0, 1] where the alpha-av argmax set changes.

    Pair scores are affine in alpha, so the argmax can only change where two
    pair lines cross; each candidate crossing is kept if the argmax set
    differs on its two sides.
    """
    if tally.m < 2:
        raise InputError("need at least two candidates")
    pairs = all_pairs(tally.m)

    def argmax_at(a: Fraction) -> tuple[CandidatePair, ...]:
        return _argbest(_discounted(tally, pairs, a), "max")

    # each pair's line S(x) + S(y) - alpha * S(xy) starts at at0 and falls
    # by at0 - at1 per unit of alpha
    at0, at1 = (_discounted(tally, pairs, Fraction(k)) for k in (0, 1))
    crossings = set()
    for p, q in combinations(pairs, 2):
        slope = at0[p] - at1[p] - at0[q] + at1[q]
        if slope:
            a = Fraction(at0[p] - at0[q], slope)
            if 0 < a <= 1:
                crossings.add(a)
    # the argmax set is piecewise constant; it can only jump at a crossing
    # of two pair lines, so compare each candidate point with the open
    # intervals on both sides
    points = sorted(crossings)
    breakpoints = []
    for i, a in enumerate(points):
        left = (points[i - 1] + a) / 2 if i > 0 else a / 2
        at = argmax_at(a)
        changed = argmax_at(left) != at
        if a < 1:
            right = (a + points[i + 1]) / 2 if i + 1 < len(points) else (a + 1) / 2
            changed = changed or at != argmax_at(right)
        if changed:
            breakpoints.append(a)
    return breakpoints
