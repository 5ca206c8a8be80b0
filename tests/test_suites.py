"""Tests for the property-suite runner and its reproducibility contract."""

import pytest

from defectseq.errors import ArgumentError
from defectseq.suites import (
    SUITE_NAMES,
    SuiteResult,
    expand_suite_names,
    run_suite,
    run_suites,
    suite_descriptions,
)


class TestNameHandling:
    def test_all_expands_in_canonical_order(self):
        assert expand_suite_names(["all"]) == list(SUITE_NAMES)

    def test_duplicates_collapse(self):
        assert expand_suite_names(["lemma21", "lemma21", "models"]) \
            == ["models", "lemma21"]

    def test_unknown_token_rejected(self):
        with pytest.raises(ArgumentError):
            expand_suite_names(["models", "bogus"])

    def test_descriptions_cover_every_suite(self):
        desc = suite_descriptions()
        assert set(desc) == set(SUITE_NAMES)
        assert all(isinstance(v, str) and v for v in desc.values())


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ArgumentError):
            run_suite("nope")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ArgumentError):
            run_suite("models", samples=0)
        with pytest.raises(ArgumentError):
            run_suite("models", seed=-1)

    @pytest.mark.parametrize("run, names", [(run_suite, "models"),
                                            (run_suites, ["models"])],
                             ids=["run_suite", "run_suites"])
    @pytest.mark.parametrize("params", [{"samples": 2.5}, {"seed": 1.5},
                                        {"seed": "1"}, {"samples": True}],
                             ids=["float-samples", "float-seed",
                                  "str-seed", "bool-samples"])
    def test_non_integer_parameters_rejected(self, run, names, params):
        with pytest.raises(ArgumentError, match="must be an integer"):
            run(names, **params)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_suite_passes_at_small_scale(self, name):
        res = run_suite(name, samples=4, seed=0)
        assert isinstance(res, SuiteResult)
        assert res.ok
        assert res.failures == 0
        assert res.first_failure is None
        assert res.passes == res.checks > 0

    def test_results_are_reproducible(self):
        a = run_suite("lemma21", samples=5, seed=9)
        b = run_suite("lemma21", samples=5, seed=9)
        assert a == b

    def test_seed_changes_nothing_about_pass_status(self):
        for seed in (0, 1, 2):
            assert run_suite("thm27", samples=3, seed=seed).ok


class TestRunSuites:
    def test_normalizes_to_canonical_order(self):
        results = run_suites(["cor23", "models"], samples=3)
        assert [r.name for r in results] == ["models", "cor23"]
        assert all(r.ok for r in results)
