import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbarrier import (
    BarrierTemplate,
    Certificate,
    basis_state,
    enumerate_terms,
    eval_real,
    full_template,
)
from qbarrier.smt.builtin import solve_problem
from qbarrier.smt.encode import conditions_for, encode_condition, side_query
from qbarrier.smt.run import builtin_problem
from qbarrier.templates import (
    FLAVORS,
    CertificateError,
    Monomial,
    TemplateError,
    side_conditions,
    side_value,
)


def brute_force_count(dim, deg):
    """Independent enumeration over all exponent tuples (oracle)."""
    nvars = 2 * dim
    count = 0
    for total in range(deg + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            count += 1
    return count


def test_enumeration_order_deg1():
    labels = [t.label() for t in enumerate_terms(2, 1)]
    assert labels == ["1", "z0", "z1", "~z0", "~z1"]


def test_enumeration_count_deg2_matches_oracle():
    terms = enumerate_terms(2, 2)
    assert len(terms) == brute_force_count(2, 2) == 15
    assert len(set(t.exponents for t in terms)) == 15


def test_enumeration_first_terms_dim8():
    labels = [t.label() for t in enumerate_terms(8, 2)[:3]]
    assert labels == ["1", "z0*~z0", "z1*~z1"]


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("deg", [1, 2, 3, 4])
def test_enumeration_count_formula(dim, deg):
    n = len(enumerate_terms(dim, deg))
    assert n == math.comb(2 * dim + deg, deg)
    assert n == brute_force_count(dim, deg)


def test_enumeration_preconditions():
    with pytest.raises(TemplateError):
        enumerate_terms(1, 2)
    with pytest.raises(TemplateError):
        enumerate_terms(2, 0)


def _prob_certificate(dim, a, b, flavor="finite-horizon", constants=None):
    tmpl = full_template(dim, 2).prefix(2)  # {1, z0*~z0}
    constants = constants or {"gamma": 5.0, "lam": 6.0, "delta": 0.0, "T": 5}
    return Certificate(
        template=tmpl,
        coeff_vectors=(np.array([b, a], dtype=complex),),
        flavor=flavor,
        constants=constants,
    )


def test_eval_real_reference_value():
    cert = _prob_certificate(8, -9.99934, 12.99994)
    val = eval_real(cert, basis_state(0, 3).amps)
    assert abs(val - 3.0006) < 1e-9


def test_eval_real_zero_coefficients():
    tmpl = full_template(2, 2)
    cert = Certificate(
        template=tmpl,
        coeff_vectors=(np.zeros(tmpl.n_terms, dtype=complex),),
        flavor="finite-horizon",
        constants={"gamma": 0.0, "lam": 1.0, "delta": 0.0, "T": 3},
    )
    rng = np.random.default_rng(0)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert eval_real(cert, raw / np.linalg.norm(raw)) == 0.0


def test_imaginary_coefficient_on_real_monomial_drops_out():
    # alpha purely imaginary, monomial |z0|^2 real-valued: contribution is
    # -Im(alpha)*Im(c) = 0
    cert = _prob_certificate(2, 5j, 0.0)
    val = eval_real(cert, basis_state(0, 1).amps)
    assert val == 0.0


def _monomial_value(term, amps) -> complex:
    """One monomial at one state, as a product of amplitudes and conjugates."""
    d = term.dim
    val = 1.0 + 0.0j
    for j in range(d):
        for _ in range(term.exponents[j]):
            val *= amps[j]
        for _ in range(term.exponents[d + j]):
            val *= np.conj(amps[j])
    return complex(val)


def test_real_part_combination_matches_complex_evaluation():
    rng = np.random.default_rng(7)
    tmpl = full_template(2, 2)
    for _ in range(25):
        coeffs = rng.normal(size=tmpl.n_terms) + 1j * rng.normal(size=tmpl.n_terms)
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = raw / np.linalg.norm(raw)
        cert = Certificate(
            template=tmpl,
            coeff_vectors=(coeffs,),
            flavor="finite-horizon",
            constants={"gamma": 0.0, "lam": 1.0, "delta": 0.0, "T": 1},
        )
        direct = complex(
            sum(c * _monomial_value(t, amps) for c, t in zip(coeffs, tmpl.terms))
        ).real
        assert abs(eval_real(cert, amps) - direct) < 1e-12


def test_phase_invariance_of_self_paired_certificates():
    tmpl = full_template(2, 2).prefix(3)  # {1, z0~z0, z1~z1}
    cert = Certificate(
        template=tmpl,
        coeff_vectors=(np.array([1.5, -2.0, 0.5], dtype=complex),),
        flavor="finite-horizon",
        constants={"gamma": 0.0, "lam": 1.0, "delta": 0.0, "T": 1},
    )
    rng = np.random.default_rng(11)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps = raw / np.linalg.norm(raw)
    base = eval_real(cert, amps)
    assert eval_real(cert, -amps) == base  # sign flip is exact
    # other phases: invariant up to machine-level round-off (FMA reassociation)
    for factor in (1j, -1j, np.exp(0.3j), np.exp(1.2j), np.exp(4.5j)):
        assert abs(eval_real(cert, amps * factor) - base) < 1e-14


def test_hybrid_offset_bounds():
    tmpl = full_template(2, 2).prefix(2)
    cert = Certificate(
        template=tmpl,
        coeff_vectors=(
            np.array([1.0, -1.0], dtype=complex),
            np.array([1.0, -1.0], dtype=complex),
        ),
        flavor="hybrid",
        constants={"d": 1.0, "eps": 0.01, "gamma": 0.01, "k": 2},
    )
    eval_real(cert, basis_state(0, 1).amps, offset=1)
    with pytest.raises(CertificateError):
        cert.coefficients(2)


def test_side_condition_validation():
    tmpl = full_template(2, 2).prefix(2)
    with pytest.raises(CertificateError):
        Certificate(
            template=tmpl,
            coeff_vectors=(np.array([1.0, 0.0], dtype=complex),),
            flavor="finite-horizon",
            constants={"gamma": 5.0, "lam": 4.0, "delta": 0.0, "T": 3},
        )
    with pytest.raises(CertificateError):
        Certificate(
            template=tmpl,
            coeff_vectors=(np.array([1.0, 0.0], dtype=complex),),
            flavor="k-inductive",
            constants={"d": 0.01, "eps": 0.01, "k": 2},
        )


def _constant_certificate(flavor, constants, decimals=None, vectors=1):
    return Certificate(
        template=full_template(2, 2).prefix(1),
        coeff_vectors=(np.zeros(1, dtype=complex),) * vectors,
        flavor=flavor,
        constants=constants,
        decimals=decimals,
    )


@pytest.mark.parametrize("decimals", [-1, 1.5, "6", True])
def test_decimals_must_be_null_or_a_nonnegative_integer(decimals):
    constants = {"d": 0.4, "eps": 0.1, "k": 2}
    for ok in (None, 0, 6):
        _constant_certificate("k-inductive", constants, ok)
    with pytest.raises(CertificateError, match="decimals"):
        _constant_certificate("k-inductive", constants, decimals)


@pytest.mark.parametrize(
    "flavor,constants,vectors,match",
    [
        ("k-inductive", {"d": 0.4, "eps": 0.1, "k": 0}, 1, "k must be an integer >= 1"),
        ("k-inductive", {"d": 0.4, "eps": 0.1, "k": 1.5}, 1, "k must be an integer >= 1"),
        ("hybrid", {"d": 0.4, "eps": 0.1, "gamma": 0.0, "k": -2}, 2, "k must be an integer >= 1"),
        ("hybrid", {"d": 0.9, "eps": 0.1, "gamma": 0.0, "k": 3}, 2, "hybrid k = 3 but 2"),
        ("finite-horizon", {"gamma": 0.0, "lam": 1.0, "delta": 0.1, "T": 0}, 1, "T must be"),
        ("finite-horizon", {"gamma": 0.0, "lam": 1.0, "delta": 0.1, "T": 2.5}, 1, "T must be"),
        ("finite-horizon", {"gamma": 0.0, "lam": 1.0, "delta": 0.1}, 1, "needs the horizon T"),
        ("finite-horizon", {"gamma": 0.0, "lam": math.inf, "delta": 0.1, "T": 2}, 1, "finite"),
        ("k-inductive", {"d": 0.4, "k": 2}, 1, "needs constants"),
        ("invariant", {}, 1, "needs constants"),
    ],
)
def test_malformed_constants_are_rejected(flavor, constants, vectors, match):
    with pytest.raises(CertificateError, match=match):
        _constant_certificate(flavor, constants, vectors=vectors)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(CertificateError, match="coefficients must be finite"):
        Certificate(
            template=full_template(2, 1).prefix(2),
            coeff_vectors=(np.array([1.0, bad]),),
            flavor="invariant",
            constants={"gamma": 0.5},
        )


@pytest.mark.parametrize("k", [{}, {"k": 3}, {"k": 3.0}])
def test_hybrid_k_when_given_is_the_vector_count(k):
    constants = {"d": 0.9, "eps": 0.1, "gamma": 0.1} | k
    assert _constant_certificate("hybrid", constants, vectors=3).k == 3


# multiples of 1/8 have three decimals and are exact in binary, so the
# constants as written and read at three decimals are the same rationals
GRID = 8


@settings(max_examples=120, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("flavor", FLAVORS)
def test_certificate_accepts_exactly_the_constants_its_side_queries_prove(flavor, data):
    k = data.draw(st.integers(1, 4)) if flavor in ("k-inductive", "hybrid") else 1
    horizon = data.draw(st.integers(1, 5))
    sides = side_conditions(flavor, k, horizon)
    names = sorted({n for _, form, _ in sides for n in form})
    constants = {n: data.draw(st.integers(-24, 24)) / GRID for n in names}
    if "delta" in constants:
        constants["delta"] = data.draw(st.sampled_from([0, -1, 1, 5])) / GRID
    # the separation lands on -3/8..3/8, zero (an exact tie) included
    form = sides[-1][1]
    lead = next(n for n, c in form.items() if c == 1)
    rest = sum(c * constants[n] for n, c in form.items() if n != lead)
    constants[lead] = data.draw(st.integers(-3, 3)) / GRID - rest
    decimals = data.draw(st.sampled_from([None, 3]))
    queries = [side_query(cond, side_value(cond[1], constants, decimals), 60.0) for cond in sides]
    proved = all(solve_problem(builtin_problem(q))[0] == "unsat" for q in queries)
    counts = {"T": horizon} if flavor == "finite-horizon" else {"k": k}
    try:
        cert = _constant_certificate(flavor, constants | counts, decimals, k if flavor == "hybrid" else 1)
    except CertificateError:
        assert not proved
        return
    assert proved
    # the encoder emits the same side queries for the certificate
    emitted = [
        encode_condition(cert, spec, None, None, None, None, 60.0)
        for spec in conditions_for(cert)
        if spec.kind == "side"
    ]
    assert [q.text for q in emitted] == [q.text for q in queries]


def test_duplicate_terms_rejected():
    mono = Monomial((1, 0, 1, 0))
    const = Monomial((0, 0, 0, 0))
    with pytest.raises(TemplateError):
        BarrierTemplate(2, (const, mono, mono))


def test_certificate_json_roundtrip():
    cert = _prob_certificate(2, -3.25, 4.5)
    back = Certificate.from_json(cert.to_json())
    assert back.flavor == cert.flavor
    assert np.array_equal(back.coeff_vectors[0], cert.coeff_vectors[0])
    assert back.constants == cert.constants
