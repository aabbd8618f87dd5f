"""Every artifact of the golden cases is byte-identical to the digest in
golden.json; see make_golden.py for the cases and how to regenerate them."""

import pytest

from make_golden import CASES, SLOW_CASES, experiment_digest, golden_digests, run_case


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=pytest.mark.slow) if name in SLOW_CASES else name for name in CASES]
)
def test_case_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == golden_digests(name)


@pytest.mark.slow
def test_four_arm_experiment_matches_golden(default_world_experiment):
    result, _ = default_world_experiment
    assert experiment_digest(result) == golden_digests("four-arm-experiment")
