"""Plain-text profile format, debiasing reweighter, affinity networks.

Ballot lines mirror the bar notation for ranked ballots with an approval
threshold::

    # comment
    candidates: a b c d
    2 * a | b c d          # two voters ranking a>b>c>d, approving {a}
    3 * b a | d c @ b      # optional trailing reported plurality vote
    4 * | b c a            # empty approval set

Files without a bar carry approval sets only; they parse to an
ApprovalProfile that the first-round rules accept but the runoff rejects.
All weights are exact rationals.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from avrunoff.profiles import (
    ApprovalBallot,
    ApprovalProfile,
    InputError,
    Profile,
    RankedBallot,
    RankedProfile,
    _trusted,
    _with_weight,
    as_weight,
    exact,
    number_text,
)


class ParseError(InputError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class ProfileDocument(NamedTuple):
    """A parsed profile plus the optional reported vote of each group."""

    profile: Profile
    reported: tuple[Optional[int], ...]


def parse_document(text: str) -> ProfileDocument:
    """Parse ballot text; a malformed line raises ParseError with its number.

    Each distinct line is read once, equal lines share one ballot and equal
    bodies share its ranking and approved set. Each line's own syntax is
    checked first, then bar and no-bar lines mixed, then the labels, each
    at the first line where it fails.
    """
    labels: Optional[list[str]] = None
    weights: dict[str, Fraction] = {}
    read: dict[str, tuple] = {}  # ballot line -> (first line number, weight, body, reported)
    lines = []  # the ballot lines, in order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw in read:
            lines.append(raw)
            continue
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("candidates:"):
            if lines or labels is not None:
                raise ParseError("candidates: header must come first", lineno)
            labels = line[len("candidates:"):].split()
            if len(set(labels)) != len(labels):
                raise ParseError("duplicate label in candidates: header", lineno)
            continue
        reported = None
        if "@" in line:
            line, _, rep = line.rpartition("@")
            reported = rep.strip()
            if not reported or len(reported.split()) != 1:
                raise ParseError("reported vote must be a single label", lineno)
        wtext = "1"
        if "*" in line:
            wtext, _, line = line.partition("*")
        if wtext not in weights:
            try:
                weights[wtext] = as_weight(wtext.strip())
            except InputError as exc:
                raise ParseError(str(exc), lineno) from exc
        if line.count("|") > 1:
            raise ParseError("more than one bar", lineno)
        read[raw] = (lineno, weights[wtext], line.strip(), reported)
        lines.append(raw)

    if not lines:
        if labels is None:
            raise ParseError("no ballots found")
        return ProfileDocument(ApprovalProfile(len(labels), [], labels), ())
    ranked = "|" in read[lines[0]][2]
    for lineno, _, body, _ in read.values():  # in order of first lines
        if ("|" in body) != ranked:
            raise ParseError("cannot mix ranked (bar) and approval-only lines", lineno)

    if labels is None:
        labels = sorted({lab for _, _, body, reported in read.values()
                         for lab in (*body.replace("|", " ").split(), reported) if lab})
    ids = {lab: i for i, lab in enumerate(labels)}
    first: dict = {}  # body -> the ballot of its first line
    ballots, votes = {}, {}  # ballot line -> its ballot, its reported id or None
    for raw, (lineno, weight, body, reported) in read.items():
        if body in first:
            ballots[raw] = _with_weight(first[body], weight)
        else:
            ballots[raw] = first[body] = _body_ballot(body, weight, ids, ranked, lineno)
        if reported and reported not in ids:
            raise ParseError(f"unknown candidate label {reported!r}", lineno)
        votes[raw] = ids[reported] if reported else None
    # the ballots fit: every ranking is a permutation of the labels
    profile = _trusted(RankedProfile if ranked else ApprovalProfile, m=len(labels),
                       ballots=tuple(map(ballots.__getitem__, lines)), labels=tuple(labels))
    return ProfileDocument(profile, tuple(map(votes.__getitem__, lines)))


def _body_ballot(body: str, weight: Fraction, ids: Mapping[str, int], ranked: bool,
                 lineno: int):
    """The ballot of a body, or ParseError: a duplicate label first, then
    the first unknown one, then a ranking that is not of every label."""
    prefix, _, suffix = body.partition("|")
    names = prefix.split()
    approvals = len(names)
    names += suffix.split()
    if len(set(names)) != len(names):
        raise ParseError("duplicate candidate in ballot", lineno)
    try:
        ranking = tuple(map(ids.__getitem__, names))
    except KeyError as exc:
        raise ParseError(f"unknown candidate label {exc.args[0]!r}", lineno) from None
    if not ranked:
        return tuple.__new__(ApprovalBallot, (frozenset(ranking), weight))
    if len(ranking) != len(ids):
        raise ParseError("ranking is not a permutation of all candidates", lineno)
    return tuple.__new__(RankedBallot, (ranking, frozenset(ranking[:approvals]), weight))


def parse_profile(text: str) -> Profile:
    """Parse ballot text; a malformed line raises ParseError with its number."""
    return parse_document(text).profile


def serialize_document(doc: ProfileDocument) -> str:
    """Canonical text: header, merged groups in sorted order, reduced weights."""
    profile, reported = doc.profile, doc.reported
    labels = profile.labels
    merged: dict[tuple, Fraction] = {}
    for ballot, rep in zip(profile.ballots, reported):
        if isinstance(ballot, RankedBallot):
            # the bar notation cannot express approvals that are not a
            # ranking prefix, so refuse rather than silently reorder
            if not ballot.is_consistent():
                raise InputError(
                    "cannot serialize a ballot whose approvals are not a "
                    "prefix of its ranking"
                )
            t = ballot.threshold
            key = (ballot.ranking[:t], ballot.ranking[t:], True, rep)
        else:
            key = (tuple(sorted(ballot.approved)), (), False, rep)
        merged[key] = merged.get(key, Fraction(0)) + ballot.weight
    lines = ["candidates: " + " ".join(labels)]
    for (prefix, suffix, ranked, rep), weight in sorted(
        merged.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][3] is not None, kv[0][3] or 0)
    ):
        if weight == 0:
            continue
        body = " ".join(labels[c] for c in prefix)
        if ranked:
            body = (body + " | " + " ".join(labels[c] for c in suffix)).strip()
        text = f"{number_text(weight, 'a weight')} * {body}".rstrip()
        if rep is not None:
            text += f" @ {labels[rep]}"
        lines.append(text)
    return "\n".join(lines) + "\n"


def serialize_profile(profile: Profile) -> str:
    return serialize_document(ProfileDocument(profile, (None,) * len(profile.ballots)))


class DebiasSpec(NamedTuple):
    """Reported plurality vote per ballot group, and the population shares
    those votes should be reweighted to match."""

    reported: tuple[Optional[int], ...]
    target_shares: Mapping[int, Fraction]


def debias(profile: Profile, spec: DebiasSpec) -> Profile:
    """Reweight each group by target_share / sample_share of its reported
    vote, then rescale so the total weight is unchanged."""
    if len(spec.reported) != len(profile.ballots):
        raise InputError("one reported vote per ballot group required")
    if any(r is None for r in spec.reported):
        raise InputError("every ballot group needs a reported vote to debias")
    targets = {c: exact(s, "target share") for c, s in spec.target_shares.items()}
    if any(s < 0 for s in targets.values()) or sum(targets.values()) > 1:
        raise InputError("target shares must be nonnegative and sum to at most 1")
    ints, denom = profile._int_weights()
    sample: dict = {}
    for w, rep in zip(ints, spec.reported):
        sample[rep] = sample.get(rep, 0) + w
    n = sum(sample.values())
    if n == 0:
        raise InputError("cannot debias an empty profile")
    for rep, share in sample.items():
        if rep not in targets:
            raise InputError(f"no target share for reported candidate {profile.labels[rep]!r}")
        if share == 0:
            raise InputError(f"zero sample share for {profile.labels[rep]!r}")
    # a group reporting r is scaled by targets[r] / (share_r / n); the
    # scaled groups total n * kept, and are rescaled by 1 / kept back to n.
    # Shares and n are integers over `denom`, which cancels in the factor.
    kept = sum(targets[rep] for rep in sample)
    if kept == 0:
        raise InputError("debiasing zeroed out the profile")
    factors = {rep: targets[rep] * n / (share * kept) for rep, share in sample.items()}
    # groups with one (weight, reported vote) share the new weight, and
    # groups with one (ballot, reported vote) the new ballot
    products = {rep: {} for rep in sample}  # reported vote -> weight -> new weight
    made, ballots = {}, []
    for b, w, rep in zip(profile.ballots, ints, spec.reported):
        key = id(b), rep
        new = made.get(key)
        if new is None:
            scaled = products[rep]
            if w not in scaled:
                scaled[w] = Fraction(w, denom) * factors[rep]
            new = made[key] = _with_weight(b, scaled[w])
        ballots.append(new)
    return _trusted(type(profile), m=profile.m, ballots=tuple(ballots), labels=profile.labels)


class AffinityGraph(NamedTuple):
    """Complete candidate graph weighted by ballot overlap.

    Edge weight is joint / (score_a + score_b - joint); pairs nobody
    approves have no defined edge and are omitted.
    """

    labels: tuple[str, ...]
    node_sizes: tuple[Fraction, ...]
    edges: Mapping[tuple[int, int], Fraction]


def jaccard_affinity(profile: Profile) -> AffinityGraph:
    if profile.m < 2:
        raise InputError("need at least two candidates")
    tally = profile.tally()
    scores, joint = tally.scores, tally.joint
    edges = {}
    for a in range(profile.m):
        for b in range(a + 1, profile.m):
            j = joint[a][b]
            union = scores[a] + scores[b] - j
            if union > 0:
                edges[(a, b)] = Fraction(j, union)
    return AffinityGraph(
        profile.labels, tuple(Fraction(s, tally.denom) for s in scores), edges
    )


def export_network(graph: AffinityGraph, threshold, fmt: str = "dot") -> str:
    """Emit nodes plus the edges strictly above `threshold`, deterministically."""
    threshold = exact(threshold, "threshold")
    if not 0 <= threshold <= 1:
        raise InputError("threshold must lie in [0, 1]")
    kept = [(pair, w, number_text(w, "an edge weight"))
            for pair, w in sorted(graph.edges.items()) if w > threshold]
    max_size = max(graph.node_sizes) if any(graph.node_sizes) else Fraction(1)
    sizes = [number_text(s, "a node score") for s in graph.node_sizes]
    if fmt == "dot":
        out = ["graph affinity {", "  node [shape=circle];"]
        for i, lab in enumerate(graph.labels):
            rel = graph.node_sizes[i] / max_size if max_size else Fraction(0)
            out.append(f'  "{lab}" [score="{sizes[i]}", width={float(rel):.6f}];')
        for (a, b), w, text in kept:
            out.append(
                f'  "{graph.labels[a]}" -- "{graph.labels[b]}" '
                f'[weight="{text}", penwidth={float(w) * 10:.6f}];'
            )
        out.append("}")
        return "\n".join(out) + "\n"
    if fmt == "json":
        payload = {
            "nodes": [
                {"id": i, "label": lab, "score": size}
                for i, (lab, size) in enumerate(zip(graph.labels, sizes))
            ],
            "edges": [
                {"source": a, "target": b, "weight": text} for (a, b), _, text in kept
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise InputError(f"unknown network format {fmt!r}")


def load_target_shares(text: str, labels: Sequence[str]) -> dict[int, Fraction]:
    """Targets from JSON ({label: share}) with decimal strings kept exact."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad targets file: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("bad targets file: expected a JSON object {label: share}")
    ids = {lab: i for i, lab in enumerate(labels)}
    shares = {}
    for lab, value in raw.items():
        if lab not in ids:
            raise InputError(f"target for unknown candidate {lab!r}")
        shares[ids[lab]] = exact(str(value), "target share")
    return shares
