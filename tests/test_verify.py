import collections

import pytest

from halfgrids import halfgrid, linkdiag, verify
from halfgrids.linkgroup import half_grid_relation_edges
from halfgrids.thompson import parse_pair
from halfgrids.verify import CheckResult, Report, verify_suite


@pytest.fixture(scope="module")
def default_report():
    return verify_suite(5)


class TestVerifySuite:
    def test_trivial_scale(self):
        report = verify_suite(1)
        assert report.ok
        names = {r.name for r in report.results}
        assert "writhe-zero" in names and "presentation-equality" in names

    def test_default_scale_passes(self, default_report):
        report = default_report
        assert report.ok
        for r in report.results:
            assert r.instances > 0, r.name
            assert r.counterexample is None

    def test_instance_counts_follow_catalan(self, default_report):
        report = default_report
        by_name = {r.name: r for r in report.results}
        # one instance per tree: 1 + 1 + 2 + 5 + 14
        assert by_name["spanning-cardinalities"].instances == 23
        assert by_name["half-grid-validity"].instances == 23
        # one instance per same-size tree pair: 1 + 1 + 4 + 25 + 196
        assert by_name["presentation-equality"].instances == 227
        assert by_name["abelianization-two-routes-agree"].instances == 227
        assert by_name["dual-membership-agreement"].instances == 227

    def test_each_pair_is_stacked_once(self, monkeypatch):
        # one stack and one component walk per pair, and no unoriented copy;
        # the stabilization check adds its refined stack with its bracket,
        # and the mirror check one reversed stack per off-diagonal pair
        # {t1, t2} (1 + 10 + 91), so each of the 227 distinct stacks is
        # bracketed once
        calls = collections.Counter()
        for owner, name in ((halfgrid, "_stack"), (halfgrid.GridDiagram, "unoriented"),
                            (linkdiag, "kauffman_bracket"), (linkdiag, "components")):
            def counted(*args, _f=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        assert verify_suite(5).ok
        assert calls == {"_stack": 227 + 102 + 41, "kauffman_bracket": 227 + 41,
                         "components": 227}

    def test_each_bracket_check_reads_the_bracket_of_its_stack(self, monkeypatch):
        # brackets are kept from pair to pair, so check that each check reads
        # the bracket of the pair's own stack (the grid its component walk
        # read) and the mirror check that of the reversed stack, whose rows
        # are the stack's in reverse order with X and O swapped
        owner = {}  # id of each bracket made -> the marks of its grid
        made = []  # keeps every bracket alive, so that no id is reused
        mirrored = set()
        current = []
        reads = collections.Counter()
        bracket, components = linkdiag.kauffman_bracket, linkdiag.components
        poly = linkdiag.LaurentPoly
        mirror, mul, eq = poly.mirror, poly.__mul__, poly.__eq__

        def spy_bracket(g):
            p = bracket(g)
            made.append(p)
            owner[id(p)] = (g.x_cols, g.o_cols)
            return p

        def spy_components(g):
            current[:] = [(g.x_cols, g.o_cols)]
            return components(g)

        def spy_mirror(p):
            assert owner[id(p)] == current[0]
            reads["bracket-mirror"] += 1
            m = mirror(p)
            made.append(m)
            mirrored.add(id(m))
            return m

        def spy_mul(p, q):
            if id(q) in owner:  # LOOP * the pair's bracket
                assert owner[id(q)] == current[0]
                reads["bracket-stabilization"] += 1
            return mul(p, q)

        def spy_eq(p, q):
            if id(q) in mirrored:  # the reversed stack's bracket == bracket.mirror()
                x_cols, o_cols = current[0]
                assert owner[id(p)] == (o_cols[::-1], x_cols[::-1])
            return eq(p, q)

        monkeypatch.setattr(linkdiag, "kauffman_bracket", spy_bracket)
        monkeypatch.setattr(linkdiag, "components", spy_components)
        for name, spy in (("mirror", spy_mirror), ("__mul__", spy_mul), ("__eq__", spy_eq)):
            monkeypatch.setattr(poly, name, spy)
        assert verify_suite(5).ok
        assert reads == {"bracket-mirror": 227, "bracket-stabilization": 41}

    def test_each_check_is_reported_once_in_checks_order(self):
        assert len(set(verify.CHECKS)) == len(verify.CHECKS)
        assert [r.name for r in verify_suite(2).results] == list(verify.CHECKS)

    def test_bracket_budgets_cap_their_instances(self, monkeypatch):
        # uncapped, 4 leaves give 11 stabilization and 31 mirror instances
        monkeypatch.setattr(verify, "BRACKET_STAB_BUDGET", 5)
        monkeypatch.setattr(verify, "BRACKET_MIRROR_BUDGET", 7)
        report = verify_suite(4)
        assert report.ok
        by_name = {r.name: r.instances for r in report.results}
        assert by_name["bracket-stabilization"] == 5
        assert by_name["bracket-mirror"] == 7

    def test_bounds(self):
        with pytest.raises(ValueError):
            verify_suite(0)
        with pytest.raises(ValueError):
            verify_suite(9)

    def test_report_format(self):
        report = verify_suite(2)
        text = report.format()
        assert "PASS" in text
        assert "all checks passed" in text
        assert "incompatible partition pairs" in text

    def test_failure_reporting(self):
        report = Report(
            1,
            (
                CheckResult("good", 3, True),
                CheckResult("bad", 3, False, "tree (..)"),
            ),
        )
        assert not report.ok
        text = report.format()
        assert "FAIL" in text
        assert "counterexample: tree (..)" in text
        assert "SOME CHECKS FAILED" in text

    def test_empty_report_format(self):
        report = Report(1, ())
        assert report.ok
        assert report.format() == (
            "verification over all trees with up to 1 leaves\nall checks passed"
        )

    def test_flipped_crossing_convention_is_caught(self, monkeypatch):
        # the opposite crossing convention flips every crossing sign and must
        # break the positivity check loudly
        signs = linkdiag.PlanarDiagram.signs.func
        monkeypatch.setattr(linkdiag.PlanarDiagram, "signs",
                            property(lambda d: tuple(-s for s in signs(d))))
        report = verify_suite(3)
        by_name = {r.name: r for r in report.results}
        failed = by_name["top-half-crossings-positive"]
        assert not failed.passed
        assert failed.counterexample is not None

    def test_broken_structural_abelianization_is_caught(self, monkeypatch):
        # keeping only the edges of sigma_plus gives free rank n, which the
        # component count and the Smith normal form oracle both reject
        monkeypatch.setattr(
            verify,
            "half_grid_relation_edges",
            lambda sp, sm: half_grid_relation_edges(sp, sm)[: sp.degree // 2],
        )
        by_name = {r.name: r for r in verify_suite(3).results}
        assert not by_name["abelianization-free-rank"].passed
        assert not by_name["abelianization-two-routes-agree"].passed

    def test_failed_checks_report_their_first_counterexample(self, monkeypatch):
        # each broken oracle fails on the first instance of its check's walk,
        # which the report names; the instance counts do not depend on it
        monkeypatch.setattr(verify, "is_oriented_via_points", lambda g: True)
        monkeypatch.setattr(linkdiag.LaurentPoly, "mirror", lambda self: self)
        monkeypatch.setattr(verify, "inverse", lambda g: parse_pair("(.(..))|((..).)"))
        by_name = {r.name: r for r in verify_suite(4).results}
        failed = {
            (r.name, r.instances, r.counterexample) for r in by_name.values() if not r.passed
        }
        assert failed == {
            ("dual-membership-agreement", 31, "pair (.(..))|((..).)"),
            ("bracket-mirror", 31, "trees (.(.(..))), (((..).).)"),
            ("oriented-subgroup-closure", 132, "pair .|."),
        }
