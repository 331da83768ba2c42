import itertools
import re
import struct
import tracemalloc

import numpy as np
import pytest

from dense_reference import embed, map_second_quantized_dicts
from vibronic import fock, mapping
from vibronic.fock import DenseBudgetError
from vibronic.hamiltonian import (CREATE, DESTROY, SecondQuantizedTerm, assemble_terms,
                                  hamiltonian_terms, ladder_terms)
from vibronic.mapping import (
    COEFF_PRUNE,
    Encoding,
    EncodingError,
    PauliSum,
    QubitLayout,
    ResourceReport,
    apply_pauli_string,
    codespace_indices,
    map_second_quantized,
    map_single_mode,
    pauli_sum_to_text,
    pauli_to_matrix,
    resource_count,
)
from vibronic.problem import ModeCutoffs, VibronicProblem, bundled_problem


def random_orthogonal(m, rng):
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def level_bits(l, enc):
    """Codeword of level l on a one-mode encoding, qubit 0 rightmost."""
    layout = QubitLayout.for_encoding(enc)
    return format(codespace_indices(enc, layout)[l], f"0{layout.total_qubits}b")


def one_hot(d, l, lp):
    m = np.zeros((d, d), dtype=complex)
    m[l, lp] = 1.0
    return m


def test_encode_level_binary():
    enc = Encoding("binary", ModeCutoffs((7,)))
    assert level_bits(3, enc) == "011"
    assert [int(b) for b in level_bits(3, enc)[::-1]] == [1, 1, 0]  # qubit p carries 2^p
    assert level_bits(5, enc) == "101"


def test_encode_level_unary():
    enc = Encoding("unary", ModeCutoffs((4,)))
    assert level_bits(2, enc) == "00100"
    assert level_bits(0, enc) == "00001"
    assert level_bits(4, enc) == "10000"


def test_qubit_counts():
    cuts = ModeCutoffs((12, 51, 64, 69))
    binary = Encoding("binary", cuts)
    assert [binary.qubits_for_mode(k) for k in range(4)] == [4, 6, 7, 7]
    unary = Encoding("unary", cuts)
    assert [unary.qubits_for_mode(k) for k in range(4)] == [13, 52, 65, 70]


def test_layout_ranges_disjoint_and_covering():
    enc = Encoding("binary", ModeCutoffs((3, 7, 2)))
    layout = QubitLayout.for_encoding(enc)
    seen = []
    for mode in range(3):
        seen.extend(layout.mode_range(mode))
    assert sorted(seen) == list(range(layout.total_qubits))


@pytest.mark.parametrize("layout", [
    pytest.param(QubitLayout.for_encoding(Encoding("unary", ModeCutoffs((3, 3)))), id="unary"),
    pytest.param(QubitLayout((0,), (2,)), id="one-mode"),
])
def test_mapper_refuses_a_layout_not_its_encodings(layout):
    # every word and mask assumes the encoding's own layout: another one
    # would map to a sum on the wrong qubits, or fail with an IndexError
    enc = Encoding("binary", ModeCutoffs((3, 3)))
    named = re.escape(f"{layout} is not the binary encoding's {QubitLayout.for_encoding(enc)}")
    number = np.diag(np.arange(4.0)).astype(complex)
    for call in (lambda: map_second_quantized(ladder_terms(bundled_problem("so2")), enc, layout),
                 lambda: map_single_mode(number, 0, enc, layout),
                 lambda: codespace_indices(enc, layout)):
        with pytest.raises(EncodingError, match=named):
            call()


def test_levelpair_binary_single_qubit():
    enc = Encoding("binary", ModeCutoffs((1,)))
    layout = QubitLayout.for_encoding(enc)
    ps = map_single_mode(one_hot(2, 0, 1), 0, enc, layout)
    assert ps.terms == {"X": 0.5, "Y": 0.5j}
    assert np.allclose(pauli_to_matrix(ps), [[0, 1], [0, 0]])
    ps11 = map_single_mode(one_hot(2, 1, 1), 0, enc, layout)
    assert ps11.terms == {"I": 0.5, "Z": -0.5}


def test_levelpair_unary_two_qubit_form():
    enc = Encoding("unary", ModeCutoffs((3,)))
    layout = QubitLayout.for_encoding(enc)
    ps = map_single_mode(one_hot(4, 2, 1), 0, enc, layout)  # |2><1| = sigma+_2 sigma-_1
    assert len(ps) == 4
    m = pauli_to_matrix(ps)
    ket = np.zeros(16); ket[1 << 1] = 1.0
    out = m @ ket
    assert out[1 << 2] == pytest.approx(1.0)
    assert np.abs(out).sum() == pytest.approx(1.0)


def test_map_creation_one_qubit():
    enc = Encoding("binary", ModeCutoffs((1,)))
    layout = QubitLayout.for_encoding(enc)
    ps = map_single_mode(fock.creation(1), 0, enc, layout)
    assert ps.terms == {"X": 0.5, "Y": -0.5j}


def test_map_number_operator_unary_single_qubit_weight():
    enc = Encoding("unary", ModeCutoffs((3,)))
    layout = QubitLayout.for_encoding(enc)
    ps = map_single_mode(np.diag(np.arange(4)).astype(complex), 0, enc, layout)
    report = resource_count(ps)
    assert set(report.weight_histogram) <= {0, 1}
    # sum_l l (I - Z_l)/2
    assert ps.terms["IIII"] == pytest.approx(3.0)
    assert ps.terms["IZII"] == pytest.approx(-0.5)
    assert ps.terms["IIZI"] == pytest.approx(-1.0)
    assert ps.terms["IIIZ"] == pytest.approx(-1.5)


def test_map_identity_either_encoding():
    for variant in ("binary", "unary"):
        enc = Encoding(variant, ModeCutoffs((3,)))
        layout = QubitLayout.for_encoding(enc)
        ps = map_single_mode(np.eye(4, dtype=complex), 0, enc, layout)
        if variant == "binary":
            assert ps.terms == {"II": pytest.approx(1.0)}
        else:
            # one-hot diagonal projectors sum to I on the code space only
            code = codespace_indices(enc, layout)
            m = pauli_to_matrix(ps)
            assert np.allclose(m[np.ix_(code, code)], np.eye(4), atol=1e-12)


def test_pauli_to_matrix_all_identity():
    ps = PauliSum(3, {"III": 2.0})
    assert np.allclose(pauli_to_matrix(ps), 2.0 * np.eye(8))


def test_pauli_to_matrix_inverts_op01():
    ps = PauliSum(1, {"X": 0.5, "Y": 0.5j})
    assert np.allclose(pauli_to_matrix(ps), np.array([[0, 1], [0, 0]]))


def test_single_mode_matrix_bytes_checked_before_allocation(monkeypatch):
    # a 20001-level mode's dense ladder matrix would take 6 GiB
    def refuse(*args, **kwargs):
        pytest.fail("a single-mode matrix was built despite its byte estimate")

    monkeypatch.setattr(fock, "creation", refuse)
    problem = VibronicProblem("toy", [1000.0], [1000.0], [[1.0]], [0.5])
    enc = Encoding("binary", ModeCutoffs((20000,)))
    with pytest.raises(DenseBudgetError, match="20001-level single-mode matrix"):
        map_second_quantized(ladder_terms(problem), enc, QubitLayout.for_encoding(enc))


def test_pauli_to_matrix_guard():
    ps = PauliSum(25, {"I" * 25: 1.0})
    with pytest.raises(DenseBudgetError, match=r"2\^25 x 2\^25 Pauli matrix"):
        pauli_to_matrix(ps)


#: a_0^dag a_1 + a_0 a_1^dag: nearly every product is its own Pauli term, so
#: in unary the rendered strings outweigh the products
HOPPING = [SecondQuantizedTerm(((CREATE, 0), (DESTROY, 1)), 1.0),
           SecondQuantizedTerm(((DESTROY, 0), (CREATE, 1)), 1.0)]


@pytest.mark.parametrize("variant,levels,hopping", [
    ("binary", 63, False), ("unary", 31, False), ("unary", 63, True),
], ids=["binary-63", "unary-31", "hopping-unary-63"])
def test_map_peak_stays_within_its_checked_bytes(variant, levels, hopping, monkeypatch):
    # the ids, keep masks and np.unique's arrays grow with the product count
    # (1.2e6, 1.2e5 and 1.3e5 here), the rendered strings with the term count
    checked = []
    check = mapping.check_dense_bytes
    monkeypatch.setattr(mapping, "check_dense_bytes",
                        lambda n_bytes, what: checked.append(n_bytes) or check(n_bytes, what))
    terms = HOPPING if hopping else ladder_terms(bundled_problem("so2"))
    enc = Encoding(variant, ModeCutoffs((levels, levels)))
    layout = QubitLayout.for_encoding(enc)
    tracemalloc.start()
    try:
        map_second_quantized(terms, enc, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(checked)
    if hopping:  # rendering sets the peak, so the rendered sum's check must hold it
        assert max(checked[:-1]) < peak <= checked[-1]


def test_map_refuses_products_and_rendered_sum_over_the_budget(monkeypatch):
    # hopping on unary (31,31): four one-ladder (mode, kinds) of 31 entries and
    # at most four keys each, held beside 30,752 products that fit exactly, and
    # 7,688 rendered 64-qubit terms beside the keys' arrays that do not; then
    # one product fewer
    enc = Encoding("unary", ModeCutoffs((31, 31)))
    layout = QubitLayout.for_encoding(enc)
    keys = (mapping.MAP_BYTES_PER_KEY + 64 // 3) * 4 * 4 * 31
    monkeypatch.setattr(fock, "MAX_DENSE_BYTES", keys + mapping.MAP_BYTES_PER_PRODUCT * 30_752)
    with pytest.raises(DenseBudgetError, match="a 7688-term Pauli sum on 64 qubits"):
        map_second_quantized(HOPPING, enc, layout)
    monkeypatch.setattr(fock, "MAX_DENSE_BYTES", keys + mapping.MAP_BYTES_PER_PRODUCT * 30_751)
    with pytest.raises(DenseBudgetError, match="a 30752-product Pauli map"):
        map_second_quantized(HOPPING, enc, layout)


@pytest.mark.parametrize("variant,levels", [
    ("binary", (63,)), ("unary", (63,)), ("unary", (1, 127)), ("binary", (1, 127)),
], ids=["binary-63", "unary-63", "unary-1,127", "binary-1,127"])
def test_single_mode_stage_stays_within_its_checked_bytes(variant, levels, monkeypatch):
    # with one wide mode the dense ladder products (three at a time) and the
    # per-mode key tables, not the products, set the peak: traced 1.6-3.5
    # times the largest check while only 16 (L+1)^2 bytes a mode were checked
    checked = []
    check = mapping.check_dense_bytes
    monkeypatch.setattr(mapping, "check_dense_bytes",
                        lambda n_bytes, what: checked.append(n_bytes) or check(n_bytes, what))
    problem = (bundled_problem("so2") if len(levels) == 2 else
               VibronicProblem("toy", [1000.0], [1200.0], [[1.0]], [0.7]))
    enc = Encoding(variant, ModeCutoffs(levels))
    tracemalloc.start()
    try:
        map_second_quantized(ladder_terms(problem), enc, QubitLayout.for_encoding(enc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(checked)


@pytest.mark.parametrize("variant", ["binary", "unary"])
def test_roundtrip_random_operators(variant):
    rng = np.random.default_rng(42)
    for trial in range(10):
        l_max = int(rng.integers(1, 8))
        d = l_max + 1
        enc = Encoding(variant, ModeCutoffs((l_max,)))
        layout = QubitLayout.for_encoding(enc)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ps = map_single_mode(a, 0, enc, layout)
        m = pauli_to_matrix(ps)
        code = codespace_indices(enc, layout)
        assert np.abs(m[np.ix_(code, code)] - a).max() < 1e-12


def test_roundtrip_multimode():
    rng = np.random.default_rng(3)
    cuts = ModeCutoffs((2, 3))
    for variant in ("binary", "unary"):
        enc = Encoding(variant, cuts)
        layout = QubitLayout.for_encoding(enc)
        a = rng.normal(size=(3, 3))
        ps = map_single_mode(a.astype(complex), 0, enc, layout)
        m = pauli_to_matrix(ps)
        code = codespace_indices(enc, layout)
        ref = embed(a.astype(complex), 0, cuts)
        assert np.abs(m[np.ix_(code, code)] - ref).max() < 1e-12


def test_unary_block_diagonal_code_sector():
    rng = np.random.default_rng(9)
    enc = Encoding("unary", ModeCutoffs((4,)))
    layout = QubitLayout.for_encoding(enc)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m = pauli_to_matrix(map_single_mode(a, 0, enc, layout))
    code = codespace_indices(enc, layout)
    comp = np.setdiff1d(np.arange(m.shape[0]), code)
    assert np.abs(m[np.ix_(comp, code)]).max() < 1e-12
    assert np.abs(m[np.ix_(code, comp)]).max() < 1e-12


def test_hermitian_maps_to_real_coefficients():
    rng = np.random.default_rng(5)
    for variant in ("binary", "unary"):
        enc = Encoding(variant, ModeCutoffs((5,)))
        layout = QubitLayout.for_encoding(enc)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        herm = a + a.conj().T
        ps = map_single_mode(herm, 0, enc, layout)
        assert ps.max_imag_coeff() < 1e-12


def test_linearity_of_mapping():
    rng = np.random.default_rng(8)
    enc = Encoding("binary", ModeCutoffs((3,)))
    layout = QubitLayout.for_encoding(enc)
    a = rng.normal(size=(4, 4)).astype(complex)
    b = rng.normal(size=(4, 4)).astype(complex)
    alpha, beta = 1.7, -0.3
    combo = map_single_mode(alpha * a + beta * b, 0, enc, layout)
    ta = map_single_mode(a, 0, enc, layout).terms
    tb = map_single_mode(b, 0, enc, layout).terms
    separate = {s: alpha * ta.get(s, 0.0) + beta * tb.get(s, 0.0) for s in ta.keys() | tb.keys()}
    separate = {s: c for s, c in separate.items() if abs(c) > COEFF_PRUNE}
    assert set(combo.terms) == set(separate)
    for s in combo.terms:
        assert combo.terms[s] == pytest.approx(separate[s], abs=1e-12)


def test_map_second_quantized_matches_fock_assembly():
    two_mode = VibronicProblem(
        "twomode", [900.0, 500.0], [1100.0, 520.0],
        [[0.9962, 0.0872], [-0.0872, 0.9962]], [-1.2, 0.4],
    )
    # three modes compose each product term over three disjoint supports; the
    # anharmonic ladder route adds products of up to four factors
    three_mode = bundled_problem("so2_anharmonic")  # ladder_terms: harmonic part
    full = hamiltonian_terms(three_mode, route="ladder")
    both = ("binary", "unary")
    for terms, cuts, variants in (
        (ladder_terms(two_mode), ModeCutoffs((3, 3)), both),
        (ladder_terms(three_mode), ModeCutoffs((2, 2, 1)), both),
        (full, ModeCutoffs((3, 3, 3)), ("binary",)),
        (full, ModeCutoffs((2, 2, 2)), ("unary",)),
    ):
        h_ref = assemble_terms(terms, cuts).to_dense()
        for variant in variants:
            enc = Encoding(variant, cuts)
            layout = QubitLayout.for_encoding(enc)
            ps = map_second_quantized(terms, enc, layout)
            assert ps.max_imag_coeff() < 1e-10  # Hermitian H -> real Pauli sum
            m = pauli_to_matrix(ps)
            code = codespace_indices(enc, layout)
            assert np.abs(m[np.ix_(code, code)] - h_ref).max() < 1e-9


def _bits(coeff):
    coeff = complex(coeff)
    return struct.pack("<dd", coeff.real, coeff.imag)


def _assert_same_sum(got, expected):
    """Same keys in the same insertion order, and the same value bits."""
    assert got.n_qubits == expected.n_qubits
    assert list(got.terms) == list(expected.terms)
    assert [_bits(c) for c in got.terms.values()] == [_bits(c) for c in expected.terms.values()]


def _random_problem(m, seed):
    rng = np.random.default_rng(seed)
    return VibronicProblem(
        f"rand{m}", rng.uniform(400, 1500, m), rng.uniform(400, 1500, m),
        random_orthogonal(m, rng), rng.uniform(-2, 2, m),
    )


@pytest.mark.parametrize("name,variant,levels", [
    ("h2o", "binary", (31, 31)),
    ("so2", "unary", (31, 31)),
    ("so2", "binary", (5, 7)),
    ("no2", "unary", (10, 12)),
    ("d2o", "binary", (100, 3)),
    ("so2", "unary", (2, 2)),
    ("so2", "unary", (1, 95)),  # a 96-qubit mode: masks past 64 bits, rendered from qubit 2
    ("rand16", "binary", (3,) * 16),
], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
def test_map_second_quantized_matches_dict_reference(name, variant, levels, monkeypatch):
    problem = _random_problem(16, 7) if name == "rand16" else bundled_problem(name)
    terms = ladder_terms(problem)
    enc = Encoding(variant, ModeCutoffs(levels))
    layout = QubitLayout.for_encoding(enc)
    renumbered = []
    unique = np.unique

    def spy(ids, **kwargs):
        renumbered.append(not kwargs.get("return_index", False))
        return unique(ids, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    got = map_second_quantized(terms, enc, layout)
    monkeypatch.undo()
    _assert_same_sum(got, map_second_quantized_dicts(terms, enc, layout))
    # 16 modes of 30-odd masks each: the mixed-radix id must be renumbered on the way
    assert any(renumbered) == (name == "rand16")


def test_map_second_quantized_matches_dict_reference_on_random_terms():
    # complex and tiny coefficients, repeated modes, identity and cancelling terms
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        levels = tuple(int(l) for l in rng.integers(1, 5, m))
        terms = []
        for _ in range(int(rng.integers(0, 10))):
            factors = tuple((CREATE if rng.random() < 0.5 else DESTROY, int(rng.integers(0, m)))
                            for _ in range(int(rng.integers(0, 5))))
            coeff = [rng.normal(), complex(*rng.normal(size=2)), 3e-15 * rng.normal()][
                int(rng.integers(0, 3))]
            terms.append(SecondQuantizedTerm(factors, coeff))
        if rng.random() < 0.3:
            terms += [SecondQuantizedTerm(t.factors, -t.coefficient) for t in terms]
        for variant in ("binary", "unary"):
            enc = Encoding(variant, ModeCutoffs(levels))
            layout = QubitLayout.for_encoding(enc)
            _assert_same_sum(map_second_quantized(terms, enc, layout),
                             map_second_quantized_dicts(terms, enc, layout))


def test_second_quantized_term_count_scales_quadratically():
    rng = np.random.default_rng(123)
    ms = np.arange(2, 7)
    counts = []
    for m in ms:
        problem = VibronicProblem(
            f"rand{m}",
            rng.uniform(400, 1500, m), rng.uniform(400, 1500, m),
            random_orthogonal(m, rng), rng.uniform(-2, 2, m),
        )
        counts.append(len(ladder_terms(problem)))
    counts = np.array(counts, dtype=float)
    # single-parameter fit c M^2
    c = (counts @ ms**2) / (ms**4).sum()
    ss_res = ((counts - c * ms**2) ** 2).sum()
    ss_tot = ((counts - counts.mean()) ** 2).sum()
    assert 1 - ss_res / ss_tot >= 0.99


def test_greedy_depth_grows_linearly():
    # averaged over random problems per M: depth/M stays bounded while the
    # term count grows quadratically, and a pure-linear fit of the depth
    # beats a pure-quadratic one
    rng = np.random.default_rng(2024)
    ms = np.arange(2, 7)
    depths = []
    for m in ms:
        reps = []
        for rep in range(6):
            problem = VibronicProblem(
                f"rand{m}_{rep}",
                rng.uniform(400, 1500, m), rng.uniform(400, 1500, m),
                random_orthogonal(m, rng), rng.uniform(-2, 2, m),
            )
            cuts = ModeCutoffs.uniform(2, m)
            enc = Encoding("unary", cuts)
            layout = QubitLayout.for_encoding(enc)
            ps = map_second_quantized(ladder_terms(problem), enc, layout)
            reps.append(resource_count(ps).greedy_depth)
        depths.append(np.mean(reps))
    depths = np.array(depths)
    ratio = depths / ms
    assert ratio.max() / ratio.min() < 2.0
    tot = ((depths - depths.mean()) ** 2).sum()
    c_lin = (depths @ ms) / (ms @ ms)
    c_quad = (depths @ ms**2) / (ms**2 @ ms**2)
    res_lin = ((depths - c_lin * ms) ** 2).sum()
    res_quad = ((depths - c_quad * ms**2) ** 2).sum()
    assert res_lin < res_quad
    assert 1 - res_lin / tot > 0.8


def test_resource_count_single_term():
    ps = PauliSum(4, {"XIZI": 0.3})
    report = resource_count(ps)
    assert len(ps) == 1
    assert report.weight_histogram == {2: 1}
    assert report.greedy_depth == 1


def _set_first_fit_report(ps):
    weights = {}
    layers = []
    for string, _ in ps.sorted_terms():
        support = {q for q, letter in enumerate(string) if letter != "I"}
        weights[len(support)] = weights.get(len(support), 0) + 1
        for layer in layers:
            if not layer & support:
                layer |= support
                break
        else:
            layers.append(set(support))
    return ResourceReport(dict(sorted(weights.items())), len(layers))


@pytest.mark.parametrize("problem,variant,levels", [
    ("h2o", "binary", (7, 7)), ("so2", "unary", (5, 5)), ("rand3", "unary", (2, 2, 2)),
])
def test_resource_count_matches_set_first_fit_on_maps(problem, variant, levels):
    problem = _random_problem(3, 2024) if problem == "rand3" else bundled_problem(problem)
    enc = Encoding(variant, ModeCutoffs(levels))
    ps = map_second_quantized(ladder_terms(problem), enc, QubitLayout.for_encoding(enc))
    report = resource_count(ps)
    assert report == _set_first_fit_report(ps)
    assert all(type(k) is int and type(v) is int for k, v in report.weight_histogram.items())
    assert type(report.greedy_depth) is int and report.greedy_depth > 1


def _depth_81_sum():
    """The 81 strings over {X, Y, Z} on qubits 1-4 of 6, plus one on qubits 0 and 5."""
    ps = PauliSum(6, {f"I{''.join(p)}I": 1.0 for p in itertools.product("XYZ", repeat=4)})
    ps.add_term("ZIIIIX", 0.5)
    return ps


def test_resource_count_depth_past_one_machine_word():
    # the 81 strings pairwise overlap, so each takes its own layer and the
    # layer masks span two 64-bit words; the string on qubits 0 and 5 sorts
    # last and joins the first layer
    ps = _depth_81_sum()
    report = resource_count(ps)
    assert report == ResourceReport({2: 1, 4: 81}, 81)
    assert report == _set_first_fit_report(ps)


def test_resource_count_of_an_empty_sum():
    assert resource_count(PauliSum(5)) == ResourceReport({}, 0)


def test_resource_count_checks_its_layer_masks(monkeypatch):
    # 82 terms on 6 qubits: masks of at most 6 x 82 bits, 61 bytes
    ps = _depth_81_sum()
    monkeypatch.setattr(fock, "MAX_DENSE_BYTES", 61)
    assert resource_count(ps).greedy_depth == 81
    monkeypatch.setattr(fock, "MAX_DENSE_BYTES", 60)
    with pytest.raises(DenseBudgetError, match="first-fit layer masks of 82 terms"):
        resource_count(ps)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_resource_count_matches_set_first_fit(n):
    # few distinct supports (the empty one included), each carrying many
    # strings, so the resumed first-fit scans are exercised
    rng = np.random.default_rng(n)
    supports = [rng.random(n) < 0.5 for _ in range(9)] + [np.zeros(n, dtype=bool)]
    ps = PauliSum(n)
    for _ in range(800):
        mask = supports[rng.integers(len(supports))]
        ps.add_term("".join(rng.choice(list("XYZ")) if m else "I" for m in mask), 1.0)
    report = resource_count(ps)
    assert report == _set_first_fit_report(ps)
    assert len(ps) > 100


def test_apply_pauli_string_matches_matrix():
    rng = np.random.default_rng(10)
    for s in map("".join, itertools.product("IXYZ", repeat=3)):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        block = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        m = pauli_to_matrix(PauliSum(3, {s: 1.0}))
        assert np.abs(m @ v - apply_pauli_string(s, v)).max() < 1e-12
        assert np.abs(m @ block - apply_pauli_string(s, block)).max() < 1e-12


def test_codeword_index_orderings():
    cuts = ModeCutoffs((2, 1))
    enc = Encoding("binary", cuts)
    layout = QubitLayout.for_encoding(enc)
    code = codespace_indices(enc, layout)
    # mode 0 on qubits 0-1, mode 1 on qubit 2
    for levels, word in (((0, 0), 0), ((2, 0), 2), ((0, 1), 4), ((2, 1), 6)):
        assert code[np.ravel_multi_index(levels, cuts.local_dims)] == word


def test_pauli_text_roundtrip():
    ps = PauliSum(3, {"XIZ": 0.25 - 0.5j, "III": 1.0})
    text = pauli_sum_to_text(ps, header={"encoding": "binary"})
    assert text.splitlines()[0] == "# encoding=binary"
    assert text.splitlines()[1] == "re,im,string"
    lines = [l for l in text.splitlines() if not l.startswith(("#", "re,"))]
    rows = [line.split(",") for line in lines]
    assert {s: complex(float(re), float(im)) for re, im, s in rows} == ps.terms
    # stable sort: III before XIZ
    assert lines[0].endswith("III")


def test_zero_coefficient_terms_pruned():
    enc = Encoding("binary", ModeCutoffs((1,)))
    layout = QubitLayout.for_encoding(enc)
    ps = map_single_mode(np.zeros((2, 2), dtype=complex), 0, enc, layout)
    assert len(ps) == 0
