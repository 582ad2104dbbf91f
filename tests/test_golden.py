"""Golden outputs: final play and final regret of every learner, pinned.

The literals were recorded from the implementation before the expert bank and
the quadratic-form code were refactored, so later refactors are checked
against that recorded behaviour rather than against themselves.
"""

import numpy as np
import pytest

from maler.harness import ExperimentConfig, gen_classification_file, run_experiment

REGRESSION = {
    "maler": (5.211595934104109, [0.20152949720397234, -0.24909278618757194,
                                  0.041777318505675884, -0.05600246412986663,
                                  -0.043368504582956914]),
    "metagrad": (13.76240087835253, [0.19544553036273185, -0.24121218246939535,
                                     0.040170529927432995, -0.0550839896137668,
                                     -0.041224388360166425]),
    "ogd-convex": (1.928842712053501, [0.25389585649055507, -0.3156225430350496,
                                       0.05164254622230174, -0.06886678888802115,
                                       -0.05605442054737791]),
    "ogd-sc": (59.23694593846764, [0.1741412140782562, -0.12214213270483552,
                                   0.200048324199737, 0.17519929517603594,
                                   -0.36611748378404774]),
    "ons": (40.657432472192795, [0.00017447866159566106, -0.0002134201298421411,
                                 3.543570972921283e-05, -5.2214911486021566e-05,
                                 -3.467577833307143e-05]),
}

CLASSIFICATION = {
    "maler": (0.36336921463112115, [0.10978478246468625, 0.23945007737163543,
                                    0.14807883759198082, -0.3916341967044889]),
    "metagrad": (0.8067592980504074, [0.10787526376325175, 0.23629596494754326,
                                      0.146894365739328, -0.38639188042423844]),
    "ogd-convex": (0.10543624514283578, [0.10862070131870902, 0.2417360977175369,
                                         0.15042371725538778, -0.39640624060728463]),
    "ons": (0.48747390456424267, [0.10868394228885192, 0.24194021833439264,
                                  0.15060272635823305, -0.3961963532209664]),
}


def _check(result, expected):
    assert set(result.traces) == set(expected)
    for algo, (regret, play) in expected.items():
        assert result.diagnostics[algo].regret == pytest.approx(regret, rel=0, abs=1e-12)
        np.testing.assert_allclose(result.traces[algo].plays[-1], play, rtol=0, atol=1e-12)


def test_golden_regression():
    result = run_experiment(ExperimentConfig(task="regression", rounds=64, dim=5, batch=50,
                                             seed=3))
    _check(result, REGRESSION)


def test_golden_classification(tmp_path):
    data = tmp_path / "d.libsvm"
    gen_classification_file(data, examples=300, dim=4, seed=1)
    result = run_experiment(ExperimentConfig(task="classification", data=str(data), rounds=64,
                                             batch=40, seed=2,
                                             algos=("maler", "metagrad", "ogd-convex", "ons")))
    _check(result, CLASSIFICATION)
