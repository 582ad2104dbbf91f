import math

import numpy as np
import pytest

from maler.core import KIND_CONST, KIND_QUADRATIC, KIND_SPHERICAL, Ball, ProblemParams, regret_caps
from maler.meta import (
    RunTrace,
    aggregate_play,
    build_grid,
    logsumexp,
    meta_regret_certificate,
    potential_certificate,
    recompute_surrogate_losses,
    update_weights,
)
from maler.experts import expert_regret_certificate
from maler.universal import MalerLearner, metagrad_baseline


def params_for(T, d=2, G=1.0, D=1.0):
    return ProblemParams(horizon=T, dim=d, grad_bound=G, diameter=D)


def test_grid_t200_shape():
    grid = build_grid(params_for(200))
    assert grid.size == 11
    # k = 4: rates 2^-i/(5DG), i = 0..4, once for the spherical and once for the quadratic experts.
    rates = [0.2, 0.1, 0.05, 0.025, 0.0125]
    np.testing.assert_allclose(grid.tilts[1:6], rates)
    np.testing.assert_allclose(grid.tilts[6:], rates)
    assert grid.kinds.count(KIND_CONST) == 1
    assert grid.kinds.count(KIND_SPHERICAL) == 5
    assert grid.kinds.count(KIND_QUADRATIC) == 5
    assert abs(np.exp(grid.log_priors).sum() - 1.0) <= 1e-12


def test_grid_rates_scale_the_problems_top_rate_bit_for_bit():
    # build_grid reads 1/(5 D G) from ProblemParams; 2^-i times it is 2^-i/(5 D G)
    # rounded once, as the grid computed it before.
    rng = np.random.default_rng(22)
    for G, D in 10.0 ** rng.uniform(-8.0, 8.0, size=(50, 2)):
        params = params_for(1000, G=float(G), D=float(D))
        assert params.top_rate == 1.0 / (5.0 * D * G)
        want = [2.0**-i / (5.0 * D * G) for i in range(6)]
        assert build_grid(params).tilts[1:7].tolist() == want
        assert build_grid(params, "metagrad").tilts.tolist() == want


def test_run_trace_refuses_a_field_it_does_not_have():
    # The moduli live on the trace's params. Assigning one to the trace, as
    # `trace.exp_concavity = ...` did before, raises instead of being dropped.
    trace = RunTrace(algo="maler", params=params_for(4), dset=Ball(np.zeros(2), 0.5),
                     plays=np.zeros((1, 2)), grads=np.zeros((1, 2)))
    for name in ("exp_concavity", "sc_modulus", "comparators"):
        with pytest.raises(AttributeError):
            setattr(trace, name, 5e-324)
        assert not hasattr(trace, name)
    trace.comparator = np.zeros(2)  # a field is assigned as before


def test_grid_t4_priors():
    grid = build_grid(params_for(4))
    # k = 1, C = 1.5: prior 1/3 on the constant expert, then C/(3(i+1)(i+2)).
    assert grid.size == 2 * 1 + 3
    priors = np.exp(grid.log_priors)
    assert priors[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert priors[1] == pytest.approx(0.25, abs=1e-15)
    assert priors[2] == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert abs(priors.sum() - 1.0) <= 1e-12


def test_grid_constant_rate():
    grid = build_grid(params_for(400))
    # eta_c = 1/(2 G D sqrt(T)) = 1/40 is the constant expert's tilt.
    assert grid.tilts[0] == pytest.approx(0.025, abs=1e-15)


def test_grid_expert_ordering_and_labels():
    grid = build_grid(params_for(16))
    assert grid.labels[0] == "c"
    assert grid.kinds[0] == KIND_CONST
    k = 2  # ceil(log2(16)/2)
    assert grid.size == 2 * k + 3
    assert all(kind == KIND_SPHERICAL for kind in grid.kinds[1 : k + 2])
    assert all(kind == KIND_QUADRATIC for kind in grid.kinds[k + 2 :])


def test_metagrad_grid():
    grid = build_grid(params_for(200), "metagrad")
    assert grid.style == "metagrad"
    assert grid.size == 5
    assert all(kind == KIND_QUADRATIC for kind in grid.kinds)
    assert abs(np.exp(grid.log_priors).sum() - 1.0) <= 1e-12
    full = build_grid(params_for(200))
    np.testing.assert_array_equal(grid.tilts, full.tilts[full.kinds.index(KIND_QUADRATIC):])
    # C = 1 + 1/(1+k) = 1.2 at k = 4: priors C/((i+1)(i+2)).
    assert np.exp(grid.log_priors)[0] == pytest.approx(0.6, abs=1e-15)
    assert grid.labels == tuple(f"ell[{i}]" for i in range(5))
    with pytest.raises(ValueError):
        build_grid(params_for(200), "bogus")


def test_meta_regret_bound_values():
    assert regret_caps(16, 2)[KIND_SPHERICAL][0] == pytest.approx(4.3175, abs=5e-5)
    assert regret_caps(16, 2)[KIND_CONST][0] == pytest.approx(math.log(3.0))


def test_logsumexp_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(scale=5.0, size=8)
        assert logsumexp(v) == pytest.approx(math.log(np.exp(v).sum()), rel=1e-12)
    assert logsumexp(np.array([-np.inf, 0.0])) == pytest.approx(0.0)


def test_aggregate_play_hand_computed():
    grid = build_grid(params_for(4))
    pts = np.zeros((grid.size, 2))
    pts[0] = [1.0, 0.0]
    x = aggregate_play(grid.log_priors, grid, pts)
    # Tilted average with prior weights, computed independently.
    num = np.zeros(2)
    den = 0.0
    for e in range(grid.size):
        w = np.exp(grid.log_priors)[e] * grid.tilts[e]
        num += w * pts[e]
        den += w
    np.testing.assert_allclose(x, num / den, atol=1e-14)


def test_aggregate_play_fixed_point():
    grid = build_grid(params_for(16))
    p = np.array([0.3, -0.2])
    pts = np.tile(p, (grid.size, 1))
    np.testing.assert_allclose(aggregate_play(grid.log_priors, grid, pts), p, atol=1e-15)


def test_update_weights_hand_computed():
    grid = build_grid(params_for(4), "metagrad")
    losses = np.array([0.1, 0.3])
    log_weights, log_z = update_weights(grid.log_priors, grid, losses)
    raw = np.exp(grid.log_priors) * np.exp(-losses)
    z = raw.sum()
    np.testing.assert_allclose(np.exp(log_weights), raw / z, atol=1e-14)
    assert log_z == pytest.approx(math.log(z), abs=1e-14)


def test_update_weights_rejects_bad_losses():
    grid = build_grid(params_for(4), "metagrad")
    with pytest.raises(ValueError):
        update_weights(grid.log_priors, grid, np.array([0.1, np.nan]))
    with pytest.raises(ValueError):
        update_weights(grid.log_priors, grid, np.array([0.1]))


def test_weight_normalization_drift_is_negligible():
    rng = np.random.default_rng(1)
    grid = build_grid(params_for(256))
    log_weights = grid.log_priors
    worst = 0.0
    for t in range(100000):
        losses = rng.uniform(-0.2, 0.4, size=grid.size)
        log_weights, _ = update_weights(log_weights, grid, losses)
        if t % 5000 == 0:
            worst = max(worst, abs(logsumexp(log_weights)))
    worst = max(worst, abs(logsumexp(log_weights)))
    assert worst <= 1e-9


def test_log_potential_matches_direct_formula():
    # Phi_t = sum_e pi_1^e exp(-cumulative loss_e), computed two ways.
    rng = np.random.default_rng(2)
    grid = build_grid(params_for(16))
    log_weights, log_phi = grid.log_priors, 0.0
    cum = np.zeros(grid.size)
    for _ in range(25):
        losses = rng.uniform(-0.1, 0.3, size=grid.size)
        cum += losses
        log_weights, log_z = update_weights(log_weights, grid, losses)
        log_phi += log_z
        direct = math.log(float(np.sum(np.exp(grid.log_priors) * np.exp(-cum))))
        assert log_phi == pytest.approx(direct, abs=1e-10)


def _run_maler(T=32, d=2, seed=3):
    rng = np.random.default_rng(seed)
    params = params_for(T, d)
    learner = MalerLearner(params, Ball(center=np.zeros(d), radius=0.5))
    for _ in range(T):
        learner.predict()
        g = rng.normal(size=d)
        g /= max(np.linalg.norm(g), 1.0)
        learner.observe(g)
    return learner.trace()


def test_meta_regret_certificate_passes_on_run():
    trace = _run_maler()
    report = meta_regret_certificate(trace)
    assert report.ok
    labels = [r.label for r in report.rows]
    assert "meta-regret c" in labels
    c_row = report.rows[labels.index("meta-regret c")]
    assert c_row.bound == pytest.approx(math.log(3.0))
    for row in report.rows:
        if row is not c_row:
            assert row.bound == pytest.approx(regret_caps(32, 2)[KIND_SPHERICAL][0])


def test_meta_regret_certificate_detects_violation():
    trace = _run_maler()
    # Plant the first spherical expert (eta = 0.2) exactly at its per-round
    # surrogate minimizer: each round contributes -||g||^2/4, so the summed
    # meta regret grows linearly and bursts the constant bound.
    eta = float(trace.grid.tilts[1])
    trace.expert_points = trace.expert_points.copy()
    trace.expert_points[:, 1, :] = trace.plays - trace.grads / (2.0 * eta)
    report = meta_regret_certificate(trace)
    assert not report.ok


def test_recompute_surrogate_losses_matches_engine():
    # The losses the certificates see are, bit for bit, the ones the meta layer used.
    T, d = 32, 2
    rng = np.random.default_rng(3)
    learner = MalerLearner(params_for(T, d), Ball(center=np.zeros(d), radius=0.5))
    engine = []
    for _ in range(T):
        play = learner.predict()
        g = rng.normal(size=d)
        g /= max(np.linalg.norm(g), 1.0)
        engine.append(learner.bank.losses(play, g))
        learner.observe(g)
    np.testing.assert_array_equal(recompute_surrogate_losses(learner.trace()), np.array(engine))


def test_potential_certificate():
    trace = _run_maler()
    assert potential_certificate(trace).ok
    bad = np.array(trace.log_phi)
    bad[5] = bad[4] + 1e-3
    trace.log_phi = bad
    assert not potential_certificate(trace).ok


def test_meta_regret_certificate_requires_full_grid():
    trace = _run_maler()
    trace.grid = build_grid(trace.params, "metagrad")
    with pytest.raises(ValueError):
        meta_regret_certificate(trace)


@pytest.mark.parametrize("missing", ["grid", "expert_points"])
@pytest.mark.parametrize("check", [recompute_surrogate_losses, meta_regret_certificate,
                                   expert_regret_certificate])
def test_a_trace_without_expert_data_is_refused(check, missing):
    # Both certificates reach the refusal through recompute_surrogate_losses.
    trace = _run_maler(T=8)
    setattr(trace, missing, None)
    with pytest.raises(ValueError, match="^trace does not carry expert data$"):
        check(trace)


def test_meta_regret_certificate_refuses_a_metagrad_trace_by_its_style():
    rng = np.random.default_rng(5)
    learner = metagrad_baseline(params_for(8), Ball(center=np.zeros(2), radius=0.5))
    for _ in range(8):
        learner.predict()
        learner.observe(rng.uniform(-0.5, 0.5, size=2))
    with pytest.raises(ValueError, match="^meta-regret bounds are stated for the full grid, "
                                         "not 'metagrad'$"):
        meta_regret_certificate(learner.trace())


# The seven cap functions that regret_caps replaced, kept here as the reference.
def _meta_regret_bound(horizon):
    return 2.0 * math.log(math.sqrt(3.0) * (0.5 * math.log2(horizon) + 3.0))


def _meta_regret_c_bound():
    return math.log(3.0)


def _expert_regret_s_bound(horizon):
    return 1.0 + math.log(horizon)


def _expert_regret_ell_bound(horizon, dim):
    return 10.0 * dim * math.log(horizon)


def _expert_regret_c_bound():
    return 0.75


def _bound_constant_a(horizon):
    return _meta_regret_bound(horizon) + 1.0 + math.log(horizon)


def _bound_constant_b(horizon, dim):
    return _meta_regret_bound(horizon) + 10.0 * dim * math.log(horizon)


def test_regret_caps_match_the_seven_cap_functions_they_replaced():
    # Every cap and B are bit-equal. A is the table's m + (1 + ln T), where the
    # reference adds (m + 1) + ln T, so it may differ by one ulp.
    for d in (1, 2, 50):
        for T in range(2, 5001):
            caps = regret_caps(T, d)
            assert caps == {
                KIND_CONST: (_meta_regret_c_bound(), _expert_regret_c_bound()),
                KIND_SPHERICAL: (_meta_regret_bound(T), _expert_regret_s_bound(T)),
                KIND_QUADRATIC: (_meta_regret_bound(T), _expert_regret_ell_bound(T, d)),
            }, (T, d)
            assert sum(caps[KIND_QUADRATIC]) == _bound_constant_b(T, d), (T, d)
            a = _bound_constant_a(T)
            assert abs(sum(caps[KIND_SPHERICAL]) - a) <= math.ulp(a), T
