import math

import numpy as np
import pytest

from qbarrier.grover import (
    AngleCertificate,
    GroverError,
    GroverInstance,
    angle_queries,
    enumerate_noise_safe,
    grover_step,
    horizon,
    horizon_for,
    initial_interval,
    noise_envelope_safe,
    sample_interval,
    synth_angle_certificate,
    theta,
    theta_for,
    unsafe_interval,
    wrap_angle,
)


def test_theta_reference_values():
    assert abs(theta_for(32, 8) - math.pi / 3) < 1e-12
    assert abs(theta_for(4, 1) - math.pi / 3) < 1e-12
    # large instance: frozen from direct evaluation, consistent with the
    # 814-step budget (pi / (2 * 814) to within the small-angle error)
    val = theta_for(2 ** 30, 1000)
    assert abs(val - 0.0019301014105338626) < 1e-15
    assert abs(val - math.pi / (2 * 814)) < 1e-6


def test_theta_domain_errors():
    with pytest.raises(GroverError):
        theta_for(32, 0)
    with pytest.raises(GroverError):
        theta_for(32, 32)


def test_horizon_rows():
    rows = [(5, 1, 5), (5, 8, 2), (10, 128, 3), (30, 1000, 814)]
    for n, m, expect in rows:
        g = GroverInstance(n=n, solutions=m, err=0.25)
        assert horizon(g) == expect
    assert horizon_for(4, 1) == 2
    assert horizon_for(4, 4) == 1  # ceil of a small positive number


def test_initial_interval():
    g0 = GroverInstance(n=5, solutions=8, err=0.0)
    lo, hi = initial_interval(g0)
    assert lo == hi == theta(g0) / 2.0
    g = GroverInstance(n=5, solutions=8, err=0.5)
    lo, hi = initial_interval(g)
    assert abs(lo - 0.5053605102841573) < 1e-12  # asin(sqrt(7.5/32))
    assert abs(hi - 0.5414605896273018) < 1e-12  # asin(sqrt(8.5/32))
    wider = initial_interval(GroverInstance(n=5, solutions=8, err=1.0))
    assert wider[0] < lo and hi < wider[1]


def test_unsafe_interval_geometry():
    lo, hi = unsafe_interval()
    assert lo <= 5 * math.pi / 3 <= hi
    assert lo > math.pi / 2  # disjoint from every initial interval
    assert abs((hi - lo) - math.pi / 3) < 1e-12


def test_instance_validation():
    with pytest.raises(GroverError):
        GroverInstance(n=5, solutions=1, err=1.0)  # M - err not positive
    with pytest.raises(GroverError):
        GroverInstance(n=2, solutions=4, err=0.0)  # M + err not below K
    with pytest.raises(GroverError):
        GroverInstance(n=5, solutions=8, eta=-0.1)


def test_grover_step_accumulates_rotation():
    g = GroverInstance(n=5, solutions=8)
    th = theta(g)
    phi = th / 2.0
    for k in range(1, 6):
        phi = grover_step(phi, th)
        assert abs(phi - (2 * k + 1) / 2.0 * th) < 1e-12
    assert 0.0 <= wrap_angle(7.0) < 2 * math.pi


def test_worst_case_decrement_dominates():
    g = GroverInstance(n=5, solutions=8, eta=0.3)
    th = theta(g)
    c = 21.22
    for mu in np.linspace(-g.eta, g.eta, 11):
        assert c * (th + mu) <= c * (th + g.eta) + 1e-12


def test_sample_interval_hits_left_endpoint():
    pts = sample_interval(1.5, 2.5, 8)
    assert pts[0] == 1.5
    assert ((1.5 <= pts) & (pts <= 2.5)).all()


def test_synthesis_row2_verified(tmp_path):
    g = GroverInstance(n=5, solutions=8, err=0.5, eta=0.3, steps=2)
    res = synth_angle_certificate(g, 500, workdir=tmp_path)
    assert res.status == "solved"
    cert = res.certificate
    assert cert.c >= 0
    assert cert.gamma + cert.delta * 2 < cert.lam
    assert all(v.status == "unsat" for v in res.verification.verdicts)


def test_synthesis_infeasible_parameters(tmp_path):
    # rotation noise so large the decrement swallows the separation
    g = GroverInstance(n=2, solutions=1, err=0.25, eta=2.5, steps=10)
    res = synth_angle_certificate(g, 200, workdir=tmp_path)
    assert res.status == "unsolved"
    assert res.certificate is None
    assert [e["outcome"] for e in res.lp] == ["no-candidate"]


def test_angle_certificate_side_condition():
    with pytest.raises(GroverError):
        AngleCertificate(c=1.0, gamma=5.0, lam=4.0, delta=0.0, horizon=3)


def test_angle_queries_are_linear_and_decidable(tmp_path):
    g = GroverInstance(n=5, solutions=8, err=0.5, eta=0.3, steps=2)
    cert = AngleCertificate(c=10.0, gamma=6.0, lam=47.0, delta=14.0, horizon=2)
    from qbarrier.smt.run import verify_queries

    report = verify_queries(angle_queries(cert, g), "builtin", tmp_path)
    assert [v.condition_id for v in report.verdicts] == [
        "init",
        "unsafe",
        "step",
        "side-drift",
        "side-margin",
    ]
    assert report.overall == "verified"


def test_envelope_oracle_detects_unsafe_drift():
    safe = GroverInstance(n=5, solutions=8, err=0.5, eta=0.3, steps=2)
    assert noise_envelope_safe(safe)
    assert enumerate_noise_safe(safe)
    # enough noisy steps to sweep the state into the unsafe arc
    unsafe = GroverInstance(n=5, solutions=8, err=0.5, eta=0.3, steps=6)
    assert not noise_envelope_safe(unsafe)
    assert not enumerate_noise_safe(unsafe)
