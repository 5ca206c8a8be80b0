"""Tests for the property-suite runner and its reproducibility contract."""

import dataclasses

import numpy as np
import pytest

from defectseq import suites
from defectseq.errors import ArgumentError, ConsistencyError
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


class TestSampleLoop:
    """``run_suite`` draws every sample and owns its (seed, salt, i) key."""

    def _replace_sample(self, monkeypatch, name, sample):
        description, fixtures, _ = suites._SUITES[name]
        monkeypatch.setitem(suites._SUITES, name,
                            (description, fixtures, sample))

    def test_consistency_error_fails_only_its_sample(self, monkeypatch):
        seen = []

        def sample(rec, i, key, rng, tol):
            seen.append(i)
            if i == 2:
                raise ConsistencyError("ladder and verdict disagree")
            rec.check("sample ran", True, seed=key)

        self._replace_sample(monkeypatch, "lemma21", sample)
        res = run_suite("lemma21", samples=5, seed=7)
        assert seen == [0, 1, 2, 3, 4]
        assert (res.checks, res.passes, res.failures) == (5, 4, 1)
        assert res.first_failure == {
            "check": "no internal consistency violation",
            "seed": [7, SUITE_NAMES.index("lemma21"), 2],
            "detail": "ladder and verdict disagree",
        }

    @pytest.mark.parametrize("name", ["cor23", "lemma26", "lemma53"])
    def test_failing_sample_records_its_seed_triple(self, monkeypatch, name):
        def sample(rec, i, key, rng, tol):
            rec.check("forced", i != 3, seed=key)

        self._replace_sample(monkeypatch, name, sample)
        res = run_suite(name, samples=6, seed=4)
        assert res.failures == 1
        assert res.first_failure == {
            "check": "forced", "seed": [4, SUITE_NAMES.index(name), 3]}

    def test_sample_draws_from_its_key(self, monkeypatch):
        draws = []

        def sample(rec, i, key, rng, tol):
            draws.append((key, rng.integers(0, 2**62)))

        self._replace_sample(monkeypatch, "thm27", sample)
        run_suite("thm27", samples=3, seed=2)
        salt = SUITE_NAMES.index("thm27")
        assert draws == [((2, salt, i),
                          np.random.default_rng((2, salt, i)).integers(0, 2**62))
                         for i in range(3)]

    @pytest.mark.parametrize("name", ["models", "thm44"])
    def test_fixture_only_suites_ignore_the_sample_count(self, name):
        one = run_suite(name, samples=1)
        assert dataclasses.replace(one, samples=40) \
            == run_suite(name, samples=40)
