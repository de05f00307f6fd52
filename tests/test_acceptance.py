"""Acceptance gate: one test per numbered criterion.

Each criterion test delegates to the shared criterion implementation
and asserts its verdict, so `pytest -v tests/test_acceptance.py` prints
one pass/fail line per criterion and the failure message carries the
measured numbers.  The last test checks run_all's cloud cache.

Criteria 3 and 4 fail by design on this finite sweep: the fitted
exponent lands 3.36% from its limit against a 3% gate, and the per-b
suprema of the derivative band spread 17% against a 5% gate.  Both
deviations are properties of the b = 6..16 window itself (see the
criterion docstrings); the implementations are faithful and the red
results are reported rather than gamed.
"""

from dimspec import acceptance


def _check(result):
    assert result.passed, result.line(with_timing=False)


def test_criterion_1_closed_form_dimensions():
    _check(acceptance.criterion_1())


def test_criterion_2_certificates_against_oracle():
    _check(acceptance.criterion_2())


def test_criterion_3_perturbation_exponent_law():
    _check(acceptance.criterion_3())


def test_criterion_4_pressure_derivative_comparability():
    _check(acceptance.criterion_4())


def test_criterion_5_branch_increment_band():
    _check(acceptance.criterion_5())


def test_criterion_6_shrinking_spectrum_profile(cloud_cache):
    _check(acceptance.criterion_6(cloud_cache))


def test_criterion_7_exact_separation():
    _check(acceptance.criterion_7())


def test_criterion_8_type_taxonomy(cloud_cache):
    _check(acceptance.criterion_8(cloud_cache))


def test_criterion_9_worker_determinism():
    _check(acceptance.criterion_9())


def test_run_all_makes_a_fresh_cache_per_call(monkeypatch):
    seen = []

    def record(cache):
        seen.append(cache)
        return acceptance.CriterionResult(6, "recorder", True, "", 0.0)

    monkeypatch.setattr(acceptance, "criterion_6", record)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        acceptance.ALL_CRITERIA[:5] + (record,) + acceptance.ALL_CRITERIA[6:])
    acceptance.run_all(numbers=[6])
    acceptance.run_all(numbers=[6])
    assert all(isinstance(cache, acceptance.CloudCache) for cache in seen)
    assert seen[0] is not seen[1]
    assert not hasattr(acceptance, "_CACHE")
