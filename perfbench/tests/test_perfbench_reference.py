"""The reference checker flags outputs that differ from the recording."""

import reference

TEST = {"statistic": 9.481786209297738e-06, "p_value": 0.38308457711442784, "reject": False}
DISSIM = {"dissimilarity": [0.0, 0.0123, 0.5], "accuracy": 0.85}


def test_identical_outputs_pass():
    assert reference.compare(dict(TEST), TEST) == []
    assert reference.compare(dict(DISSIM), DISSIM) == []


def test_statistic_within_relative_tolerance_passes():
    near = dict(TEST, statistic=TEST["statistic"] * (1 + 1e-14))
    assert reference.compare(near, TEST) == []
    assert reference.compare(near, TEST, exact=True) != []


def test_perturbed_statistic_is_flagged():
    off = dict(TEST, statistic=TEST["statistic"] * (1 + 1e-9))
    problems = reference.compare(off, TEST)
    assert len(problems) == 1 and "statistic" in problems[0]


def test_flipped_p_value_and_decision_are_flagged():
    flipped = dict(TEST, p_value=0.04975124378109453, reject=True)
    problems = reference.compare(flipped, TEST)
    assert len(problems) == 2
    assert any("p_value" in p for p in problems) and any("reject" in p for p in problems)


def test_power_counts_must_match_exactly():
    want = {"rejections": [7, 60], "oracle_rejections": [5, 71]}
    assert reference.compare({"rejections": [7, 61], "oracle_rejections": [5, 71]}, want) != []


def test_dissimilarity_and_accuracy_tolerances():
    near = dict(DISSIM, dissimilarity=[0.0, 0.0123 + 5e-13, 0.5])
    assert reference.compare(near, DISSIM) == []
    off = dict(DISSIM, dissimilarity=[0.0, 0.0123 + 1e-10, 0.5])
    assert "dissimilarity" in reference.compare(off, DISSIM)[0]
    assert "accuracy" in reference.compare(dict(DISSIM, accuracy=0.875), DISSIM)[0]


def test_missing_keys_are_flagged():
    assert reference.compare({"statistic": 1.0}, TEST) != []


def test_store_and_load_round_trip(tmp_path):
    reference.store("test_large", "full", {3: TEST, 1: dict(TEST, reject=True)}, directory=tmp_path)
    reference.store("test_large", "tiny", {0: TEST}, directory=tmp_path)
    assert reference.load("test_large", "full", 3, directory=tmp_path) == TEST
    assert reference.load("test_large", "full", 1, directory=tmp_path)["reject"] is True
    assert reference.load("test_large", "full", 2, directory=tmp_path) is None
    assert reference.load("null_heavy", "full", 3, directory=tmp_path) is None
