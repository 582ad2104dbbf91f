"""Golden outputs: final play and final regret of every learner, pinned.

For the two ensemble learners the internal state is pinned too: the expert
points played in the last round, the last log-weights and the last
log-potential.

The literals were recorded from the implementation before the expert bank and
the quadratic-form code were refactored, so later refactors are checked
against that recorded behaviour rather than against themselves.

CLASSIFICATION and CLASSIFICATION_STATE (except ogd-convex, which did not
move) were re-recorded once, when the weighted projection's 1e-10 bisection
was replaced by the exact secular-Newton solve. The old points lay up to 1e-10
past the radius; the new ones are the constrained minimizers to rounding,
so the online-Newton iterates of maler, metagrad and ONS moved by up to 8e-11.
The regression literals did not move.
"""

import numpy as np
import pytest

from maler.harness import ExperimentConfig, gen_classification_file, run_experiment
from maler.meta import recompute_surrogate_losses

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
    "maler": (0.36336921463160254, [0.10978478246786771, 0.23945007737802412,
                                    0.1480788375967465, -0.39163419671699706]),
    "metagrad": (0.8067592980761542, [0.1078752637507139, 0.23629596492247368,
                                      0.1468943657224433, -0.3863918803816402]),
    "ogd-convex": (0.10543624514283578, [0.10862070131870902, 0.2417360977175369,
                                         0.15042371725538778, -0.39640624060728463]),
    "ons": (0.4874739045751366, [0.10868394227876084, 0.24194021830804807,
                                 0.15060272634367644, -0.3961963531806579]),
}

# (expert points of round T, log-weights after round T, log-potential after round T)
REGRESSION_STATE = {
    "maler": (
        [
            [0.30573939794591426, -0.37548428612014273, 0.060190957590564115, -0.08649247740586703,
             -0.06656629324998573],
            [0.2303843109926419, -0.2866982028013502, 0.0442239808768929, -0.06645559960349515,
             -0.050062565011392134],
            [0.28796372833252454, -0.3575483488891514, 0.05867699095140127, -0.08070298899442667,
             -0.06204287469705427],
            [0.30532486047818386, -0.37574359365350124, 0.06896027690548523, -0.08141439790418978,
             -0.06488187285634718],
            [0.31017854419887436, -0.3712430025828525, 0.07377148754494393, -0.07846773978091852,
             -0.06609451710252101],
            [0.1352859888785749, -0.16616183177505875, 0.032665187349677334, -0.03467170122000575,
             -0.028353047523264254],
            [0.06761326260596169, -0.08304165995889382, 0.016323618544862424, -0.01733045517279266,
             -0.014170854442295216],
            [0.03378569619704428, -0.04149461516947312, 0.008156421164562146,
             -0.008660350342738295, -0.007081218820859454],
            [0.016885928961507916, -0.02073870685789694, 0.004076471069924089,
             -0.004328515380181556, -0.0035392089152230053],
        ],
        [-1.241757176597863, -1.4622272933001297, -2.560264632921963, -3.257813919827509,
         -3.7761773266706906, -1.5605200060470685, -2.6348867810590497, -3.3056726303352573,
         -3.802765436007448],
        -0.08386478582848422,
    ),
    "metagrad": (
        [
            [0.2170135870621146, -0.26783026537872656, 0.04460423083390648, -0.06116234256378459,
             -0.04577378277483962],
            [0.1087575207771171, -0.13422731693427117, 0.02234948728517299, -0.03065374822520731,
             -0.022938860324215188],
            [0.05438514122672437, -0.06712185705901884, 0.011174876587981377,
             -0.015329240639839698, -0.01147089480832911],
            [0.02718708436414518, -0.03355419274522782, 0.005585998725204128,
             -0.0076632274433086015, -0.005734363696246801],
        ],
        [-0.4557656737006848, -1.5966695215752904, -2.2846122106274347, -2.786216542579405],
        -3.084173690104386e-06,
    ),
}

CLASSIFICATION_STATE = {
    "maler": (
        [
            [0.10856762333073817, 0.24163243986305633, 0.1506025855209997, -0.3964160647659621],
            [0.11251973940651355, 0.24171803179478005, 0.1488493706604147, -0.3959236873478859],
            [0.11064737027834824, 0.24222314403871384, 0.14995651215019298, -0.3957248443126052],
            [0.10724932100363976, 0.24151119873170282, 0.15106133667778288, -0.39667416930341665],
            [0.1008180892654028, 0.2397842208673277, 0.15274622990571068, -0.39875785829186317],
            [0.1102878434670518, 0.24246596229578643, 0.15015138507730197, -0.3956025913347043],
            [0.10931532290616247, 0.2369067524411515, 0.1458105076496299, -0.3850906069042694],
            [0.0546674947070771, 0.11848061619460439, 0.0729262927897941, -0.19260254877734337],
            [0.02728717432766809, 0.05913271362754235, 0.036393768906653266, -0.09613020742246763],
        ],
        [-1.2303189087053377, -1.3724485228398298, -2.5228899069467583, -3.2462557319216594,
         -3.7729078785337884, -1.617562571672047, -2.7889465991413, -3.446616431803156,
         -3.889183564987964],
        -0.0836913568667561,
    ),
    "metagrad": (
        [
            [0.11022986495015295, 0.241949161164554, 0.15050666008894714, -0.3958001080769304],
            [0.11036794944503879, 0.23867607865433216, 0.14776391186100063, -0.38926448591703083],
            [0.055280196619555744, 0.11956201711107718, 0.07402891521269464, -0.19499967147187003],
            [0.027613838047348502, 0.05971979474289833, 0.03697446126198393, -0.09740142055955564],
        ],
        [-0.4106303812753688, -1.6773107711975819, -2.3847131056734545, -2.8511694440886535],
        -6.397685540898701e-05,
    ),
}


def _check(result, expected, state):
    assert set(result.traces) == set(expected)
    for algo, (regret, play) in expected.items():
        assert result.diagnostics[algo].regret == pytest.approx(regret, rel=0, abs=1e-12)
        np.testing.assert_allclose(result.traces[algo].plays[-1], play, rtol=0, atol=1e-12)
    for algo, (points, log_weights, log_phi) in state.items():
        trace = result.traces[algo]
        np.testing.assert_allclose(trace.expert_points[-1], points, rtol=0, atol=1e-12)
        # The trace does not record the log weights; the grid, the losses and log Phi fix them.
        final = (trace.grid.log_priors - recompute_surrogate_losses(trace).sum(axis=0)
                 - trace.log_phi[-1])
        np.testing.assert_allclose(final, log_weights, rtol=0, atol=1e-12)
        assert trace.log_phi[-1] == pytest.approx(log_phi, rel=0, abs=1e-12)


def test_golden_regression():
    result = run_experiment(ExperimentConfig(task="regression", rounds=64, dim=5, batch=50,
                                             seed=3))
    _check(result, REGRESSION, REGRESSION_STATE)


def test_golden_classification(tmp_path):
    data = tmp_path / "d.libsvm"
    gen_classification_file(data, examples=300, dim=4, seed=1)
    result = run_experiment(ExperimentConfig(task="classification", data=str(data), rounds=64,
                                             batch=40, seed=2,
                                             algos=("maler", "metagrad", "ogd-convex", "ons")))
    _check(result, CLASSIFICATION, CLASSIFICATION_STATE)
