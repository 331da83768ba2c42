import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibronic.problem import (
    BUNDLED_PROBLEMS,
    AnharmonicTerm,
    ModeCutoffs,
    ProblemFormatError,
    ProblemValidationError,
    ThermalConfig,
    VibronicProblem,
    bundled_problem,
    duschinsky_J,
    duschinsky_J_inv_T,
    parse_problem,
    serialize_problem,
    validate,
)


def test_parse_so2_values():
    p = bundled_problem("so2")
    assert p.duschinsky_S[0][0] == pytest.approx(0.9979)
    assert list(p.delta) == pytest.approx([-1.8830, 0.4551])
    assert list(p.omega_A) == pytest.approx([943.3, 464.7])
    assert list(p.omega_B) == pytest.approx([1178.1, 518.8])
    assert p.anharmonic == ()


def test_parse_trivial_single_mode():
    p = parse_problem(json.dumps({
        "label": "toy", "omega_A": [1000], "omega_B": [1000],
        "S": [[1.0]], "delta": [0],
    }))
    assert p.n_modes == 1
    assert validate(p).passed


def test_parse_dimension_mismatch():
    with pytest.raises(ProblemValidationError, match="delta"):
        parse_problem(json.dumps({
            "label": "bad", "omega_A": [943.3, 464.7], "omega_B": [1178.1, 518.8],
            "S": [[0.9979, 0.0646], [-0.0646, 0.9979]], "delta": [-1.8830],
        }))


def test_parse_malformed_json_reports_line():
    with pytest.raises(ProblemFormatError, match="line"):
        parse_problem("{\n  'label': broken\n}")


def test_parse_missing_field():
    with pytest.raises(ProblemFormatError, match="omega_B"):
        parse_problem(json.dumps({"label": "x", "omega_A": [1.0], "S": [[1.0]], "delta": [0]}))


@pytest.mark.parametrize("field,value,error", [
    ("omega_A", [math.nan], ProblemValidationError),
    ("delta", [math.inf], ProblemValidationError),
    ("anharmonic", [{"indices": [1, 1, 1], "coeff": math.nan}], ProblemValidationError),
    ("omega_A", [[1000.0]], ProblemValidationError),
    ("S", [[1.0], [1.0, 0.0]], ProblemFormatError),
])
def test_parse_rejects_non_finite_and_misshaped(field, value, error):
    doc = {"label": "bad", "omega_A": [1000.0], "omega_B": [1000.0],
           "S": [[1.0]], "delta": [0.0], field: value}
    with pytest.raises(error, match="finite|shape|numeric array"):
        parse_problem(json.dumps(doc))


def test_anharmonic_indices_converted_to_zero_based():
    p = bundled_problem("so2_anharmonic")
    assert p.anharmonic[0] == AnharmonicTerm((0, 0, 0), 44.0)
    assert p.anharmonic[3] == AnharmonicTerm((0, 2, 2), 159.0)
    assert all(len(t.indices) in (3, 4) for t in p.anharmonic)


def test_validate_so2_passes_with_warning():
    report = validate(bundled_problem("so2"))
    assert report.passed
    # 4-digit data: measured deviation is ~2.2e-5, above the warn threshold
    assert report.orthogonality_deviation == pytest.approx(2.243e-5, rel=0.05)
    assert report.warnings


def test_validate_identity_clean():
    p = VibronicProblem("id", [500.0, 600.0], [500.0, 600.0], np.eye(2), [0.0, 0.0])
    report = validate(p)
    assert report.passed
    assert report.orthogonality_deviation == 0.0
    assert not report.warnings


def test_validate_non_orthogonal_fails():
    p = VibronicProblem("bad", [500.0, 600.0], [500.0, 600.0],
                        [[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0])
    report = validate(p)
    assert not report.passed
    assert any("orthogonal" in v for v in report.violations)


def test_validate_rejects_nonpositive_frequency():
    p = VibronicProblem("bad", [500.0, -1.0], [500.0, 600.0], np.eye(2), [0.0, 0.0])
    assert not validate(p).passed


def test_duschinsky_j_identity():
    p = VibronicProblem("id", [500.0, 600.0], [500.0, 600.0], np.eye(2), [0.0, 0.0])
    assert np.allclose(duschinsky_J(p), np.eye(2), atol=1e-14)


def test_duschinsky_j_so2_element():
    j = duschinsky_J(bundled_problem("so2"))
    # sqrt(1178.1/943.3) * 0.9979, up to the orthogonality repair of S
    assert j[0, 0] == pytest.approx(1.1152, abs=2e-4)


def test_duschinsky_j_single_mode_ratio():
    p = VibronicProblem("r", [400.0], [900.0], [[1.0]], [0.0])
    assert duschinsky_J(p)[0, 0] == pytest.approx(1.5)


@pytest.mark.parametrize("name", ["so2", "h2o", "d2o", "no2", "so2_anharmonic"])
def test_j_inverse_identity(name):
    p = bundled_problem(name)
    j = duschinsky_J(p)
    j_inv_t = duschinsky_J_inv_T(p)
    m = p.n_modes
    assert np.abs(j @ j_inv_t.T - np.eye(m)).max() < 1e-12
    assert np.abs(np.linalg.inv(j).T - j_inv_t).max() < 1e-12


def _assert_round_trips(p):
    """parse_problem(serialize_problem(p)) equals p field by field, bit for bit."""
    q = parse_problem(serialize_problem(p))
    assert q.label == p.label
    for name in ("omega_A", "omega_B", "duschinsky_S", "delta"):
        a, b = getattr(q, name), getattr(p, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert [t.indices for t in q.anharmonic] == [t.indices for t in p.anharmonic]
    assert [struct.pack("<d", t.coefficient) for t in q.anharmonic] == [
        struct.pack("<d", t.coefficient) for t in p.anharmonic]


@pytest.mark.parametrize("name", BUNDLED_PROBLEMS)
def test_parse_serialize_roundtrip(name):
    _assert_round_trips(bundled_problem(name))


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)


@st.composite
def _valid_problems(draw):
    m = draw(st.integers(1, 4))
    positive = st.floats(1e-3, 1e5, allow_nan=False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(m, m)))  # orthogonal to round-off
    terms = draw(st.lists(st.builds(
        AnharmonicTerm,
        st.lists(st.integers(0, m - 1), min_size=3, max_size=4).map(tuple), _FINITE),
        max_size=3))
    return VibronicProblem(
        draw(st.text(st.characters(codec="utf-8"), max_size=12)),
        draw(st.lists(positive, min_size=m, max_size=m)),
        draw(st.lists(positive, min_size=m, max_size=m)),
        q * np.sign(np.diag(r)),
        draw(st.lists(_FINITE, min_size=m, max_size=m)),
        tuple(terms),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(problem=_valid_problems())
def test_random_problems_round_trip_bit_for_bit(problem):
    assert validate(problem).passed
    _assert_round_trips(problem)


def test_thermal_keys_in_problem_file_are_ignored():
    doc = {"label": "warm", "omega_A": [500], "omega_B": [500], "S": [[1.0]], "delta": [1.0]}
    p = parse_problem(json.dumps({**doc, "temperature_K": 300, "beta_invcm": 0.01}))
    assert serialize_problem(p) == serialize_problem(parse_problem(json.dumps(doc)))


def test_one_varied_cutoffs():
    assert ModeCutoffs.one_varied({0: 10, 2: 4}, 1, 7).levels == (10, 7, 4)
    assert ModeCutoffs.one_varied({}, 0, 3).levels == (3,)


def test_thermal_config():
    assert ThermalConfig.from_temperature_kelvin(0.0).is_zero_temperature
    assert ThermalConfig(beta=math.inf).is_zero_temperature
    with pytest.raises(ProblemValidationError):
        ThermalConfig(beta=-1.0)
    with pytest.raises(ProblemValidationError):
        ThermalConfig(beta=0.0)


def test_mode_cutoffs():
    cuts = ModeCutoffs((3, 5))
    assert cuts.local_dims == (4, 6)
    assert len(cuts) == 2
    with pytest.raises(ProblemValidationError):
        ModeCutoffs((0, 3))
    with pytest.raises(ProblemValidationError):  # a zero-mode, one-state space
        ModeCutoffs(())


def test_bundled_problem_unknown():
    with pytest.raises(KeyError):
        bundled_problem("xyz")
