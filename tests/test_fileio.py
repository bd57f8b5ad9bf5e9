import json
from fractions import Fraction

import pytest

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from avrunoff import fileio
from avrunoff.fileio import (
    DebiasSpec,
    ParseError,
    ProfileDocument,
    debias,
    export_network,
    jaccard_affinity,
    load_target_shares,
    parse_document,
    parse_profile,
    serialize_document,
    serialize_profile,
)
from avrunoff.profiles import (
    ApprovalBallot,
    ApprovalProfile,
    InputError,
    RankedBallot,
    RankedProfile,
)
from conftest import DATA, approval_profiles, ranked_profiles

F = Fraction
A, B, C, D = 0, 1, 2, 3


class TestParse:
    def test_ranked_file(self, spectrum_ranked):
        text = (
            "candidates: a b c d\n"
            "2 * a | b c d\n3 * b a | d c\n3 * a b | d c\n4 * b a c | d\n"
            "2 * c d | b a\n2 * d c | b a\n1 * d | b a c\n"
        )
        parsed = parse_profile(text)
        assert isinstance(parsed, RankedProfile)
        assert parsed.total_weight == 17
        assert parsed.canonical() == spectrum_ranked.canonical()

    def test_approval_only_file(self, spectrum):
        text = "candidates: a b c d\n2 * a\n6 * a b\n4 * a b c\n4 * c d\n1 * d\n"
        parsed = parse_profile(text)
        assert isinstance(parsed, ApprovalProfile)
        assert parsed.canonical() == spectrum.canonical()

    def test_comments_and_blank_lines_ignored(self):
        parsed = parse_profile("# heading\n\ncandidates: a b\n1 * a | b  # trailing\n")
        assert parsed.total_weight == 1

    def test_weight_defaults_to_one(self):
        parsed = parse_profile("candidates: a b\na | b\n")
        assert parsed.ballots[0].weight == 1

    def test_fractional_weight(self):
        parsed = parse_profile("candidates: a b\n17/24 * a | b\n")
        assert parsed.ballots[0].weight == F(17, 24)

    def test_empty_approval_line(self):
        parsed = parse_profile("candidates: a b c\n4 * | b c a\n")
        assert parsed.ballots[0].approved == frozenset()
        assert parsed.ballots[0].ranking == (1, 2, 0)

    def test_duplicate_candidate_in_line(self):
        with pytest.raises(ParseError, match="line 2.*duplicate"):
            parse_profile("candidates: a b\n2 * a a | b\n")

    def test_unknown_label(self):
        with pytest.raises(ParseError, match="line 2.*unknown"):
            parse_profile("candidates: a b\n1 * a z | b\n")

    def test_incomplete_ranking_rejected(self):
        with pytest.raises(ParseError, match="permutation"):
            parse_profile("candidates: a b c\n1 * a | b\n")

    def test_inconsistent_bar_usage_rejected(self):
        with pytest.raises(ParseError, match="mix"):
            parse_profile("candidates: a b\n1 * a | b\n1 * a\n")

    def test_bad_weight(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_profile("candidates: a b\n1/0 * a | b\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="no ballots"):
            parse_profile("# nothing here\n")

    def test_labels_inferred_when_no_header(self):
        parsed = parse_profile("1 * b a\n2 * c\n")
        assert parsed.labels == ("a", "b", "c")

    def test_reported_votes(self):
        doc = parse_document("candidates: a b\n2 * a | b @ a\n1 * b a | @ b\n")
        assert doc.reported == (0, 1)

    def test_reported_must_be_single_label(self):
        with pytest.raises(ParseError, match="reported"):
            parse_profile("candidates: a b\n1 * a | b @ a b\n")


# the format's own tokens, so that drawn text reaches every parsing branch
FORMAT_TOKENS = ("candidates:", "a", "b", "c", " ", " ", "\n", "\n", "|", "*", "@", "#",
                 "0", "1", "2", "/", "-", ".")


class TestParseFuzz:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(FORMAT_TOKENS), max_size=60).map("".join))
    def test_any_text_parses_or_names_its_line(self, text):
        try:
            doc = parse_document(text)
        except ParseError as exc:
            assert exc.line is not None or str(exc) == "no ballots found", str(exc)
        else:
            assert len(doc.reported) == len(doc.profile.ballots)


class TestParseOncePerDocument:
    """Each distinct weight text and ballot body is checked once; an error
    still names the first line at which it occurs."""

    def test_unknown_reported_label_after_a_valid_use_of_the_body(self):
        text = "candidates: a b\n1 * a | b @ a\n2 * b | a\n3 * a | b @ z\n"
        with pytest.raises(ParseError, match="unknown candidate label 'z'") as exc:
            parse_document(text)
        assert exc.value.line == 4

    @pytest.mark.parametrize("wtext,message", [("1/0", "bad weight"), ("-2", "negative weight")])
    def test_repeated_bad_weight_reports_its_first_line(self, wtext, message):
        text = (f"candidates: a b\n1 * a | b\n{wtext} * a | b\n2 * b | a\n\n# note\n"
                f"{wtext} * b | a\n")
        with pytest.raises(ParseError, match=f"line 3: {message}") as exc:
            parse_document(text)
        assert exc.value.line == 3

    def test_repeated_duplicate_candidate_body_reports_its_first_line(self):
        text = "candidates: a b\n1 * b | a\n2 * a a | b\n1 * b | a\n3 * a a | b\n"
        with pytest.raises(ParseError, match="duplicate candidate") as exc:
            parse_document(text)
        assert exc.value.line == 3

    def test_equal_bodies_share_their_parts(self):
        doc = parse_document("candidates: a b c\n1 * a | b c\n2 * a | b c @ b\n02 * a | b c\n")
        first, second, third = doc.profile.ballots
        assert first.ranking is second.ranking is third.ranking
        assert first.approved is second.approved is third.approved
        assert (first.weight, second.weight, third.weight) == (1, 2, 2)
        assert doc.reported == (None, 1, None)


# (case, text, message, line): every check of the parser, and which of two
# failing lines it reports. A line's own syntax (header, reported vote,
# weight, bars) is checked on every line first, then bar and no-bar lines
# mixed, then the labels; each reports the first line at which it fails.
PARSE_ERRORS = [
    ("unknown-in-prefix", "candidates: a b c\n1 * a x | b c\n",
     "line 2: unknown candidate label 'x'", 2),
    ("unknown-in-suffix", "candidates: a b c\n1 * a | b x\n",
     "line 2: unknown candidate label 'x'", 2),
    ("unknown-reported", "candidates: a b c\n1 * a | b c\n2 * b | a c @ x\n",
     "line 3: unknown candidate label 'x'", 3),
    ("unknown-approval-only", "candidates: a b\n1 * a x\n",
     "line 2: unknown candidate label 'x'", 2),
    ("duplicate-before-unknown", "candidates: a b c\n1 * x a | a b\n",
     "line 2: duplicate candidate in ballot", 2),
    ("one-unknown-label-twice", "candidates: a b c\n1 * a y | b y\n",
     "line 2: duplicate candidate in ballot", 2),
    ("two-bars", "candidates: a b\n1 * a | b |\n",
     "line 2: more than one bar", 2),
    ("mixed", "candidates: a b\n1 * a | b\n2 * a b\n",
     "line 3: cannot mix ranked (bar) and approval-only lines", 3),
    ("mixed-no-bar-first", "candidates: a b\n2 * a b\n1 * a | b\n",
     "line 3: cannot mix ranked (bar) and approval-only lines", 3),
    ("late-header", "1 * a | b\ncandidates: a b\n",
     "line 2: candidates: header must come first", 2),
    ("second-header", "candidates: a b\ncandidates: a b\n1 * a | b\n",
     "line 2: candidates: header must come first", 2),
    ("duplicate-header-label", "candidates: a b a\n1 * a | b\n",
     "line 1: duplicate label in candidates: header", 1),
    ("bad-weight", "candidates: a b\n1 * a | b\nx * b | a\n",
     "line 3: bad weight 'x'", 3),
    ("zero-denominator", "candidates: a b\n1/0 * a | b\n",
     "line 2: bad weight '1/0'", 2),
    ("negative-weight", "candidates: a b\n-2 * a | b\n",
     "line 2: negative weight '-2'", 2),
    ("not-a-permutation", "candidates: a b c\n1 * a | b\n",
     "line 2: ranking is not a permutation of all candidates", 2),
    ("two-label-reported", "candidates: a b\n1 * a | b @ a b\n",
     "line 2: reported vote must be a single label", 2),
    ("empty-reported", "candidates: a b\n1 * a | b @\n",
     "line 2: reported vote must be a single label", 2),
    ("weight-error-after-label-error", "candidates: a b\n1 * a | z\n-1 * b | a\n",
     "line 3: negative weight '-1'", 3),
    ("mix-error-after-label-error", "candidates: a b\n1 * a | z\n2 * a b\n",
     "line 3: cannot mix ranked (bar) and approval-only lines", 3),
    ("reported-before-later-body", "candidates: a b\n1 * a | b @ q\n1 * a | q\n",
     "line 2: unknown candidate label 'q'", 2),
    ("body-before-reported-on-one-line", "candidates: a b\n1 * a | q @ z\n",
     "line 2: unknown candidate label 'q'", 2),
    ("repeated-line-reports-first",
     "candidates: a b\n1 * b | a\n3 * a | b @ z\n1 * b | a\n3 * a | b @ z\n",
     "line 3: unknown candidate label 'z'", 3),
    ("repeated-body-other-weight", "candidates: a b\n1 * a b | \n2 * a a |\n1 * a a |\n",
     "line 3: duplicate candidate in ballot", 3),
    ("no-header-unknown-impossible", "1 * a | b\n1 * b | a @ c\n1 * c | a b\n",
     "line 1: ranking is not a permutation of all candidates", 1),
    ("no-ballots", "# nothing\n\n",
     "no ballots found", None),
    ("comment-hides-error", "candidates: a b\n1 * a | b # @ a b | |\n2 * b | z\n",
     "line 3: unknown candidate label 'z'", 3),
]


class TestParseErrorContract:
    @pytest.mark.parametrize("text,message,line", [c[1:] for c in PARSE_ERRORS],
                             ids=[c[0] for c in PARSE_ERRORS])
    def test_message_and_line(self, text, message, line):
        with pytest.raises(ParseError) as exc:
            parse_document(text)
        assert (str(exc.value), exc.value.line) == (message, line)

    @pytest.mark.parametrize("name", ["spectrum.avr", "spectrum_ranked.avr",
                                      "synthetic_survey.avr"])
    def test_fixtures_parse_to_their_lines(self, name):
        # each fixture line, read by hand, is one ballot group in file order
        lines = [raw.partition("#")[0].strip() for raw in (DATA / name).read_text().splitlines()]
        header, *groups = filter(None, lines)
        labels = header.removeprefix("candidates:").split()
        ids = {lab: i for i, lab in enumerate(labels)}
        doc = parse_document((DATA / name).read_text())
        assert doc.profile.labels == tuple(labels)
        assert len(doc.profile.ballots) == len(doc.reported) == len(groups)
        ranked = isinstance(doc.profile, RankedProfile)
        for line, ballot, reported in zip(groups, doc.profile.ballots, doc.reported):
            line, _, rep = line.partition("@")
            weight, _, body = line.partition("*")
            prefix, _, suffix = body.partition("|")
            assert ballot.weight == F(weight.strip())
            assert ballot.approved == {ids[lab] for lab in prefix.split()}
            if ranked:
                assert ballot.ranking == tuple(ids[lab] for lab in (prefix + suffix).split())
            assert reported == (ids[rep.strip()] if rep.strip() else None)


# weight texts, some denoting equal values, some zero or fractional
WEIGHT_TEXTS = ("", "1", "2", "02", "4/2", "0", "1/3", "2/6", "5/4")


@st.composite
def documents(draw):
    """Profile text and the ballots it means: (text, ranked, labels, lines),
    each line (ranking labels, approved labels, weight text, reported label)."""
    m = draw(st.integers(2, 4))
    labels = list(draw(st.permutations("abcd"[:m])))
    ranked = draw(st.booleans())
    pool = draw(st.lists(st.tuples(st.permutations(labels), st.integers(0, m)),
                         min_size=1, max_size=3))
    every_reported = draw(st.booleans())
    reported = st.sampled_from(labels)
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        order, t = draw(st.sampled_from(pool))
        wtext = draw(st.sampled_from(WEIGHT_TEXTS))
        rep = draw(reported if every_reported else st.one_of(st.none(), reported))
        lines.append((list(order), list(order[:t]), wtext, rep))
    header = draw(st.booleans())
    text = ["candidates: " + " ".join(labels)] if header else []
    for order, approved, wtext, rep in lines:
        body = " ".join(approved)
        if ranked:
            body += " | " + " ".join(order[len(approved):])
        line = (f"{wtext or 1} * " if wtext or not body else "") + body
        text.append(line + (f" @ {rep}" if rep else ""))
    if not header:
        used = {lab for order, approved, _, rep in lines
                for lab in (order if ranked else approved) + [rep] if lab}
        labels = sorted(used)
    return "\n".join(text) + "\n", ranked, labels, lines


def oracle_document(ranked, labels, lines) -> ProfileDocument:
    """The document built through the public constructors, with Fraction weights."""
    ids = {lab: i for i, lab in enumerate(labels)}
    ballots = []
    for order, approved, wtext, _ in lines:
        weight = F(wtext or 1)
        approved_ids = [ids[lab] for lab in approved]
        ballots.append(RankedBallot([ids[lab] for lab in order], approved_ids, weight)
                       if ranked else ApprovalBallot(approved_ids, weight))
    profile = (RankedProfile if ranked else ApprovalProfile)(len(labels), ballots, labels)
    return ProfileDocument(profile, tuple(ids[rep] if rep else None for *_, rep in lines))


def oracle_debias(weights, reported, targets):
    """Debiased weights by the formula, or None where debias must refuse."""
    sample = {}
    for w, rep in zip(weights, reported):
        sample[rep] = sample.get(rep, F(0)) + w
    n = sum(sample.values(), F(0))
    kept = sum((targets[rep] for rep in sample), F(0))
    if n == 0 or kept == 0 or any(share == 0 for share in sample.values()):
        return None
    return [w * targets[rep] * n / (sample[rep] * kept) for w, rep in zip(weights, reported)]


class TestParseDifferential:
    """The parser's shared, once-checked ballots equal ballots built one by
    one through the public constructors; so do everything read from them."""

    @seed(11)
    @settings(max_examples=300, deadline=None)
    @given(documents(), st.lists(st.integers(0, 3), min_size=4, max_size=4))
    def test_parse_equals_the_public_constructors(self, drawn, raw_targets):
        text, ranked, labels, lines = drawn
        doc, want = parse_document(text), oracle_document(ranked, labels, lines)
        got_p, want_p = doc.profile, want.profile
        assert type(got_p) is type(want_p) and got_p.labels == want_p.labels
        assert len(got_p.ballots) == len(want_p.ballots)
        for got, exp in zip(got_p.ballots, want_p.ballots):
            assert getattr(got, "ranking", None) == getattr(exp, "ranking", None)
            assert (got.approved, got.weight) == (exp.approved, exp.weight)
        assert got_p == want_p
        assert doc.reported == want.reported
        assert got_p.tally() == want_p.tally()
        if ranked:
            assert got_p._margins() == want_p._margins()
        assert serialize_document(doc) == serialize_document(want)

        if None in want.reported:
            return
        total = sum(raw_targets[:len(labels)])
        targets = {c: F(raw_targets[c], total or 1) for c in range(len(labels))}
        weights = [b.weight for b in want_p.ballots]
        expected = oracle_debias(weights, want.reported, targets)
        spec = DebiasSpec(doc.reported, targets)
        if expected is None:
            with pytest.raises(InputError):
                debias(got_p, spec)
            return
        debiased = debias(got_p, spec)
        rebuilt = type(want_p)(want_p.m, [type(b)(*b[:-1], w) for b, w in
                                          zip(want_p.ballots, expected)], want_p.labels)
        assert [b.weight for b in debiased.ballots] == expected
        assert debiased == rebuilt
        assert debiased.tally() == rebuilt.tally()
        if ranked:
            assert debiased._margins() == rebuilt._margins()


class TestSerialize:
    def test_canonical_round_trip(self, spectrum_ranked):
        text = serialize_profile(spectrum_ranked)
        assert parse_profile(text).canonical() == spectrum_ranked.canonical()

    def test_serialize_is_idempotent_after_parse(self, spectrum_ranked):
        once = serialize_profile(parse_profile(serialize_profile(spectrum_ranked)))
        twice = serialize_profile(parse_profile(once))
        assert once == twice

    def test_fraction_weights_render_reduced(self):
        profile = parse_profile("candidates: a b\n34/48 * a | b\n")
        assert "17/24 * a | b" in serialize_profile(profile)

    def test_empty_approval_renders_with_leading_bar(self):
        profile = parse_profile("candidates: a b c\n4 * | b c a\n")
        assert "4 * | b c a" in serialize_profile(profile)

    def test_reported_votes_round_trip(self):
        doc = parse_document("candidates: a b\n2 * a | b @ a\n")
        text = serialize_document(doc)
        assert "@ a" in text
        assert parse_document(text).reported == (0,)

    def test_equal_groups_merged(self):
        profile = parse_profile("candidates: a b\n1 * a | b\n2 * a | b\n")
        assert "3 * a | b" in serialize_profile(profile)

    def test_inconsistent_ballot_not_serializable(self):
        from avrunoff.profiles import RankedBallot, RankedProfile

        # the bar notation cannot express approving only the middle candidate
        odd = RankedProfile(3, [RankedBallot((0, 1, 2), {1}, 1)])
        with pytest.raises(InputError, match="prefix"):
            serialize_profile(odd)

    @given(ranked_profiles())
    def test_round_trip_equals_canonical(self, profile):
        assert parse_profile(serialize_profile(profile)).canonical() == profile.canonical()

    @given(approval_profiles(fractional=True))
    def test_round_trip_approval_only(self, profile):
        reparsed = parse_profile(serialize_profile(profile))
        assert reparsed.canonical() == profile.canonical()


class TestDebias:
    def _doc(self):
        return parse_document(
            "candidates: a b\n"
            "35 * a | b @ a\n"
            "65 * b a | @ b\n"
        )

    def test_share_ratio_applied(self):
        doc = self._doc()
        targets = {0: F("0.196"), 1: F("0.654")}
        out = debias(doc.profile, DebiasSpec(doc.reported, targets))
        # reported share of a is 35%, target 19.6%: factor 14/25 = 0.56
        factor = out.ballots[0].weight / doc.profile.ballots[0].weight
        renorm = F(100) / (35 * F(14, 25) + 65 * F("0.654") / F("0.65"))
        assert factor == F(14, 25) * renorm
        assert out.total_weight == 100

    def test_identity_when_targets_match_sample(self):
        doc = self._doc()
        targets = {0: F(35, 100), 1: F(65, 100)}
        out = debias(doc.profile, DebiasSpec(doc.reported, targets))
        assert [b.weight for b in out.ballots] == [35, 65]

    def test_uniform_targets_on_skewed_sample(self):
        doc = parse_document("candidates: a b\n3 * a | b @ a\n1 * b a | @ b\n")
        targets = {0: F(1, 2), 1: F(1, 2)}
        out = debias(doc.profile, DebiasSpec(doc.reported, targets))
        # pre-normalization factors are 2/3 and 2; they also renormalize to n=4
        assert out.ballots[0].weight == 3 * F(2, 3)
        assert out.ballots[1].weight == 1 * F(2)
        assert out.total_weight == 4

    def test_missing_target_rejected(self):
        doc = self._doc()
        with pytest.raises(InputError, match="no target"):
            debias(doc.profile, DebiasSpec(doc.reported, {0: F(1, 2)}))

    def test_missing_reported_vote_rejected(self):
        doc = self._doc()
        with pytest.raises(InputError, match="reported"):
            debias(doc.profile, DebiasSpec((None, 1), {0: F(1, 2), 1: F(1, 2)}))

    def test_targets_must_not_exceed_one(self):
        doc = self._doc()
        with pytest.raises(InputError, match="sum"):
            debias(doc.profile, DebiasSpec(doc.reported, {0: F(3, 4), 1: F(3, 4)}))

    @pytest.mark.parametrize("targets", [{0: 0.1, 1: 0.9}, {0: 0.5, 1: 0.25}],
                             ids=["sum-one", "sum-below-one"])
    def test_float_targets_rejected(self, targets):
        doc = self._doc()
        with pytest.raises(InputError, match="float target share"):
            debias(doc.profile, DebiasSpec(doc.reported, targets))

    def test_text_and_fraction_targets_read_exactly(self):
        doc = self._doc()
        by_text = debias(doc.profile, DebiasSpec(doc.reported, {0: "0.1", 1: "9/10"}))
        by_fraction = debias(doc.profile, DebiasSpec(doc.reported, {0: F(1, 10), 1: F(9, 10)}))
        assert by_text == by_fraction
        assert by_text.ballots[0].weight == 100 * F(1, 10)

    @given(ranked_profiles(max_m=3, max_n=4))
    def test_total_weight_preserved_and_nonnegative(self, profile):
        if profile.total_weight == 0:
            return
        reported = tuple(min(b.ranking[0], profile.m - 1) for b in profile.ballots)
        targets = {c: F(1, profile.m) for c in range(profile.m)}
        out = debias(profile, DebiasSpec(reported, targets))
        assert out.total_weight == profile.total_weight
        assert all(b.weight >= 0 for b in out.ballots)

    def test_load_target_shares_exact_decimals(self):
        shares = load_target_shares('{"a": 0.196, "b": "1/3"}', ("a", "b"))
        assert shares == {0: F(196, 1000), 1: F(1, 3)}
        with pytest.raises(InputError, match="unknown"):
            load_target_shares('{"z": 0.1}', ("a", "b"))


class TestAffinity:
    def test_overlap_table_on_spectrum(self, spectrum):
        graph = jaccard_affinity(spectrum)
        assert graph.edges[(A, B)] == F(10, 12)
        assert graph.edges[(A, C)] == F(4, 16)
        assert graph.edges[(C, D)] == F(4, 9)
        assert graph.edges[(A, D)] == 0
        assert graph.node_sizes == (12, 10, 8, 5)

    def test_full_overlap_is_one(self):
        profile = parse_profile("candidates: a b\n2 * a b\n")
        assert jaccard_affinity(profile).edges[(0, 1)] == 1

    def test_undefined_edge_omitted(self):
        profile = parse_profile("candidates: a b c\n2 * a\n")
        graph = jaccard_affinity(profile)
        assert (1, 2) not in graph.edges

    @given(approval_profiles(fractional=True))
    def test_weights_symmetric_and_bounded(self, profile):
        graph = jaccard_affinity(profile)
        for (a, b), w in graph.edges.items():
            assert 0 <= w <= 1
            assert a < b
            joint = profile.joint_score({a, b})
            union = (
                profile.approval_score(a) + profile.approval_score(b) - joint
            )
            assert w == joint / union


class TestExport:
    def test_threshold_one_keeps_no_edges(self, spectrum):
        out = export_network(jaccard_affinity(spectrum), 1, "dot")
        assert "--" not in out
        assert '"a"' in out

    def test_threshold_is_strict(self, spectrum):
        graph = jaccard_affinity(spectrum)
        out = export_network(graph, F(4, 9), "dot")
        assert '"c" -- "d"' not in out  # weight exactly 4/9 is not > 4/9
        assert '"a" -- "b"' in out

    def test_spectrum_edges_above_a_tenth(self, spectrum):
        out = export_network(jaccard_affinity(spectrum), F(1, 10), "dot")
        kept = [line for line in out.splitlines() if "--" in line]
        # a-b at 10/12, a-c at 1/4, b-c at 2/7 and c-d at 4/9 survive;
        # a-d and b-d sit at weight 0 and drop
        assert len(kept) == 4
        for edge in ('"a" -- "b"', '"a" -- "c"', '"b" -- "c"', '"c" -- "d"'):
            assert any(edge in line for line in kept)

    def test_dot_and_json_describe_the_same_edges(self, spectrum):
        graph = jaccard_affinity(spectrum)
        dot = export_network(graph, F(1, 10), "dot")
        payload = json.loads(export_network(graph, F(1, 10), "json"))
        dot_edges = {
            tuple(part.strip('"') for part in line.split("[")[0].strip(" ;").split(" -- "))
            for line in dot.splitlines()
            if "--" in line
        }
        json_edges = {
            (spectrum.labels[e["source"]], spectrum.labels[e["target"]])
            for e in payload["edges"]
        }
        assert dot_edges == json_edges

    def test_export_is_byte_deterministic(self, spectrum):
        graph = jaccard_affinity(spectrum)
        for fmt in ("dot", "json"):
            assert export_network(graph, F(1, 10), fmt) == export_network(
                jaccard_affinity(spectrum), F(1, 10), fmt
            )

    def test_unknown_format_rejected(self, spectrum):
        with pytest.raises(InputError):
            export_network(jaccard_affinity(spectrum), 0, "gexf")
