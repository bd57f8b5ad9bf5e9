"""Reference computations written apart from the package, in plain Fraction
arithmetic straight from the rule definitions.

A profile is a sequence of ``(ranking, approved, weight)`` triples over
candidates ``0..m-1``: ``ranking`` is a tuple (best first) or ``None`` for an
approval-only ballot, ``approved`` a frozenset and ``weight`` a Fraction.
Pairs are ``(lo, hi)`` tuples. Nothing here imports ``avrunoff``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

ZERO = Fraction(0)

# name -> (kind, parameter); the parameter of "enephr" is its quota share beta
RULES = {
    "mav": ("alpha-av", Fraction(0)),
    "pav": ("alpha-av", Fraction(1, 2)),
    "ccav": ("alpha-av", Fraction(1)),
    "2av": ("alpha-av", Fraction(2)),
    "spav": ("alpha-seq", Fraction(1, 2)),
    "sccav": ("alpha-seq", Fraction(1)),
    "sphr": ("phragmen", None),
    "enephr": ("quota", Fraction(1, 3)),
    "sav": ("split", None),
    "triv": ("all-pairs", None),
    "ccav+": ("coverage-then-sum", None),
}


def total_weight(ballots) -> Fraction:
    return sum((w for _, _, w in ballots), ZERO)


def approval_score(ballots, x) -> Fraction:
    """S(x): the weight of the ballots approving x."""
    return sum((w for _, app, w in ballots if x in app), ZERO)


def joint_score(ballots, x, y) -> Fraction:
    """S(xy): the weight of the ballots approving both x and y."""
    return sum((w for _, app, w in ballots if x in app and y in app), ZERO)


class Scores:
    """S(x) for every candidate and S(xy) for every pair of one profile."""

    def __init__(self, m, ballots):
        self.m = m
        # group equal approval sets first; the sums are the same
        by_set: dict[frozenset, Fraction] = {}
        for _, app, w in ballots:
            by_set[app] = by_set.get(app, ZERO) + w
        grouped = [(None, app, w) for app, w in by_set.items()]
        self.n = total_weight(grouped)
        self.s = [approval_score(grouped, x) for x in range(m)]
        self.j = {(x, y): joint_score(grouped, x, y) for x, y in combinations(range(m), 2)}
        self.split = [ZERO] * m
        for app, w in by_set.items():
            for x in app:
                self.split[x] += w / len(app)

    def joint(self, x, y) -> Fraction:
        return self.j[(x, y) if x < y else (y, x)]

    def approval_winners(self) -> list[int]:
        best = max(self.s)
        return [x for x in range(self.m) if self.s[x] == best]


def _pair(x, y):
    return (x, y) if x < y else (y, x)


def _best(table, sense):
    extreme = max(table.values()) if sense == "max" else min(table.values())
    return {p for p, v in table.items() if v == extreme}


def rule_outcome(sc: Scores, name: str):
    """(finalist pairs, score table) of a named rule, as a set and a dict
    keyed by (lo, hi) pairs."""
    return kind_outcome(sc, *RULES[name])


def kind_outcome(sc: Scores, kind: str, param):
    m, s = sc.m, sc.s
    pairs = list(combinations(range(m), 2))
    if kind == "alpha-av":
        table = {(x, y): s[x] + s[y] - param * sc.joint(x, y) for x, y in pairs}
        return _best(table, "max"), table
    if kind == "split":
        table = {(x, y): sc.split[x] + sc.split[y] for x, y in pairs}
        return _best(table, "max"), table
    if kind == "all-pairs":
        return set(pairs), {p: ZERO for p in pairs}
    if kind == "coverage-then-sum":
        table = {(x, y): (s[x] + s[y] - sc.joint(x, y), s[x] + s[y]) for x, y in pairs}
        return _best(table, "max"), table
    # sequential rules: the first finalist is an approval winner, every
    # tied approval winner opens a branch and the branch optima are unioned
    firsts = sc.approval_winners()
    table, best = {}, set()
    if kind == "phragmen":
        if all(v == 0 for v in s):
            return set(pairs), {p: ZERO for p in pairs}
        for x1 in firsts:
            # x1's voters carry load 1/S(x1); y's voters share 1 more unit
            branch = {
                _pair(x1, y): (1 + sc.joint(x1, y) / s[x1]) / s[y]
                for y in range(m) if y != x1 and s[y] > 0
            }
            if branch:
                table.update(branch)
                best |= _best(branch, "min")
            else:
                best |= {_pair(x1, y) for y in range(m) if y != x1}
        return best, table
    for x1 in firsts:
        if kind == "alpha-seq":
            alpha = param
        else:  # quota rule: discount min(1, Q / S(x1)) with Q = beta * n
            quota = param * sc.n
            alpha = Fraction(1) if s[x1] == 0 else min(Fraction(1), quota / s[x1])
        branch = {
            _pair(x1, y): s[x1] + s[y] - alpha * sc.joint(x1, y)
            for y in range(m) if y != x1
        }
        table.update(branch)
        best |= _best(branch, "max")
    return best, table


def prefers(ranking, a, b) -> bool:
    return ranking.index(a) < ranking.index(b)


def majority_winners(ballots, a, b) -> frozenset:
    """{a}, {b} or, on an exact tie of the weighted majority, {a, b}."""
    for_a = sum((w for r, _, w in ballots if prefers(r, a, b)), ZERO)
    for_b = sum((w for r, _, w in ballots if prefers(r, b, a)), ZERO)
    if for_a > for_b:
        return frozenset({a})
    if for_b > for_a:
        return frozenset({b})
    return frozenset({a, b})


class Majority:
    """Pairwise majority winners of one profile, memoized per pair."""

    def __init__(self, ballots):
        by_ranking: dict[tuple, Fraction] = {}
        for r, _, w in ballots:
            by_ranking[r] = by_ranking.get(r, ZERO) + w
        self.grouped = [(r, None, w) for r, w in by_ranking.items()]
        self.memo = {}

    def winners(self, pair) -> frozenset:
        if pair not in self.memo:
            self.memo[pair] = majority_winners(self.grouped, *pair)
        return self.memo[pair]


def runoff_winners(m, ballots, name, sc=None, maj=None) -> frozenset:
    """Union of the majority winners of every finalist pair of the rule."""
    sc = sc or Scores(m, ballots)
    maj = maj or Majority(ballots)
    pairs, _ = rule_outcome(sc, name)
    return frozenset(c for p in pairs for c in maj.winners(p))


def debias_weights(weights, reported, targets) -> list[Fraction]:
    """Each group's weight times target share over sample share of its
    reported vote, rescaled so that the total weight is unchanged."""
    n = sum(weights, ZERO)
    sample: dict[int, Fraction] = {}
    for w, r in zip(weights, reported):
        sample[r] = sample.get(r, ZERO) + w
    raw = [w * targets[r] / (sample[r] / n) for w, r in zip(weights, reported)]
    scale = n / sum(raw, ZERO)
    return [w * scale for w in raw]


def dominates(ballots, a, b) -> bool:
    """Every positive-weight voter ranks a above b, and some approves a but not b."""
    live = [(r, app) for r, app, w in ballots if w > 0]
    return all(prefers(r, a, b) for r, _ in live) and any(
        a in app and b not in app for _, app in live
    )


def is_improvement(old, new, a) -> bool:
    """new raises a in the ranking and/or adds a to the approvals of old,
    and changes nothing else."""
    (r_old, app_old), (r_new, app_new) = old, new
    if (r_old, app_old) == (r_new, app_new):
        return False
    others_old = [c for c in r_old if c != a]
    others_new = [c for c in r_new if c != a]
    return (
        others_old == others_new
        and r_new.index(a) <= r_old.index(a)
        and app_new - {a} == app_old - {a}
        and (a not in app_old or a in app_new)
    )


def unit_tally(ballots):
    """Total weight of each distinct (ranking, approved) ballot."""
    t: dict[tuple, Fraction] = {}
    for r, app, w in ballots:
        t[(r, app)] = t.get((r, app), ZERO) + w
    return {k: v for k, v in t.items() if v}


def unit_change(before, after):
    """(old ballot, new ballot) when `after` moves exactly one unit of weight
    of `before` from one (ranking, approved) ballot to another, else None."""
    t0, t1 = unit_tally(before), unit_tally(after)
    diff = {k: t1.get(k, ZERO) - t0.get(k, ZERO) for k in t0.keys() | t1.keys()}
    changed = {k: v for k, v in diff.items() if v}
    if sorted(changed.values()) != [-1, 1]:
        return None
    old, new = sorted(changed, key=changed.get)
    return old, new


def in_weak_clone_domain(ballots) -> bool:
    """No candidate is approved on every non-empty positive-weight ballot."""
    live = [app for _, app, w in ballots if w > 0 and app]
    return bool(live) and not frozenset.intersection(*live)


def is_clone_extension(m, before, after, a) -> bool:
    """`after` adds candidate m next to a on every ballot, approved exactly
    where a is approved, and removing it gives back `before`."""
    clone = m
    stripped = []
    for r, app, w in after:
        if clone not in r:
            return False
        i, j = r.index(a), r.index(clone)
        if abs(i - j) != 1 or (a in app) != (clone in app):
            return False
        stripped.append((tuple(c for c in r if c != clone), app - {clone}, w))
    return unit_tally(stripped) == unit_tally(before)


def clone_conditions_hold(before, after, a, clone) -> bool:
    """Cloning a changes no other candidate's fate, and a wins before
    exactly when a or its clone wins after."""
    for c in before | after:
        if c not in (a, clone) and (c in before) != (c in after):
            return False
    return (a in before) == bool(after & {a, clone})


def manipulation_succeeds(mode, true_ranking, true_approved, before, after) -> bool:
    """strong: some new winner beats every old winner in the true ranking;
    weak: no old winner was approved and some new winner is."""
    if mode == "strong":
        return any(all(prefers(true_ranking, x, y) for y in before) for x in after)
    return not (before & true_approved) and bool(after & true_approved)


def parse_bar_format(text: str):
    """(labels, ballots, reported votes) of a profile file: optional
    ``candidates:`` header, lines ``w * approved | rest @ vote``."""
    labels, rows = None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("candidates:"):
            labels = line[len("candidates:"):].split()
            continue
        body, _, vote = line.partition("@")
        weight, _, body = body.rpartition("*")
        approved, bar, rest = body.partition("|")
        rows.append((Fraction(weight.strip() or 1), approved.split(),
                     rest.split() if bar else None, vote.strip() or None))
    if labels is None:
        labels = sorted({c for _, a, r, v in rows for c in a + (r or []) + ([v] if v else [])})
    ids = {c: i for i, c in enumerate(labels)}
    ballots = [
        (None if r is None else tuple(ids[c] for c in a + r), frozenset(ids[c] for c in a), w)
        for w, a, r, _ in rows
    ]
    return labels, ballots, [None if v is None else ids[v] for _, _, _, v in rows]


def closed_form_x2_triangular(alpha: float, d: float) -> float:
    """Optimal |position| of the second finalist, triangular density on
    [-1, 1], first finalist at the centre."""
    if alpha <= 2 * d:
        return alpha * (1 - d) / (2 - alpha)
    if alpha <= 2 * d / (1 - d):
        return 1 + d - 2 * d / alpha
    return 2 * d
