"""Tests for interference statistics and the estimators built on them."""

import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from pbsim import phase_est
from pbsim.errors import (LowInformationError, RankDeficiencyWarning,
                          ValidationError)
from pbsim.fock import FockVector, number_state, vacuum_state
from pbsim.ops import _splitter_block, apply_two_mode_unitary
from pbsim.phase_est import (CountTable, SuperpositionCoeffs,
                             _least_squares_cc, _model_matrix, _reached,
                             _residuals, _spectral_start,
                             _splitter_amplitudes, estimate_coefficients,
                             estimate_phase, gauge_fixed, interference_probs,
                             sample_outcomes, superposition_probs)
from pbsim.phase_states import phase_state, phase_value

from oracles import (beam_splitter_5050, lifted_least_squares_cc,
                     lifted_spectral_start, pad_to_cutoff, tensor_product)


def eigen_pair_dist(s, phi_j, phi_k):
    return interference_probs(phase_state(s, phi_j), phase_state(s, phi_k))


@pytest.mark.parametrize("s,delta", [(2, 0.4), (3, -1.1), (5, 2.3)])
def test_low_order_closed_forms(s, delta):
    phi_j = 0.3
    p = eigen_pair_dist(s, phi_j, phi_j - delta).frequencies()
    norm = (s + 1.0) ** 2
    assert p[0, 0] == pytest.approx(1 / norm, abs=1e-12)
    assert p[1, 0] == pytest.approx((1 + math.cos(delta)) / norm, abs=1e-12)
    assert p[0, 1] == pytest.approx((1 - math.cos(delta)) / norm, abs=1e-12)
    assert p[1, 1] == pytest.approx(2 * math.sin(delta) ** 2 / norm,
                                    abs=1e-12)
    assert p[2, 0] == pytest.approx(
        (math.cos(delta) + 1 / math.sqrt(2)) ** 2 / norm, abs=1e-12)
    assert p[0, 2] == pytest.approx(
        (math.cos(delta) - 1 / math.sqrt(2)) ** 2 / norm, abs=1e-12)


def splitter_oracle(left, right):
    """The general two-mode path on the padded product state."""
    cutoff = max(1, left.size + right.size - 2)
    pad = [pad_to_cutoff(FockVector(np.pad(v, (0, max(0, 2 - v.size)))),
                         cutoff) for v in (left, right)]
    out = apply_two_mode_unitary(tensor_product(*pad), (0, 1),
                                 beam_splitter_5050())
    return out.amplitudes


def random_amplitudes(rng, n):
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return v / np.linalg.norm(v)


def test_splitter_contraction_matches_two_mode_oracle():
    rng = np.random.default_rng(31)
    for n_l in range(9):
        for n_r in range(9):
            left = random_amplitudes(rng, n_l)
            right = random_amplitudes(rng, n_r)
            s = max(n_l, n_r)
            dim = 2 * s + 1
            got = _splitter_amplitudes(left, right[:, None])
            assert got.shape == (dim * dim, 1)
            want = splitter_oracle(left, right)
            size = max(dim, want.shape[0])
            grid = np.zeros((size, size), dtype=complex)
            grid[:dim, :dim] = got.reshape(dim, dim)
            grid[:want.shape[0], :want.shape[0]] -= want
            assert np.abs(grid).max() < 1e-14, (n_l, n_r)


@pytest.mark.parametrize("left,right", [
    (number_state(1, 3), vacuum_state(3)),
    (phase_state(1, 0.3, cutoff=4), phase_state(1, 0.0)),
    (phase_state(2, -0.4, cutoff=9), phase_state(3, 1.1, cutoff=5)),
])
def test_padded_inputs_give_the_unpadded_distribution(left, right):
    def unpadded(st):
        n = max(1, int(np.nonzero(np.abs(st.amplitudes) > 0)[0][-1]))
        return FockVector(st.amplitudes[:n + 1])

    got = interference_probs(left, right)
    want = interference_probs(unpadded(left), unpadded(right))
    assert got.s == want.s
    assert np.abs(got.counts - want.counts).max() < 1e-15


@pytest.mark.parametrize("s", [1, 2, 4])
def test_distribution_is_normalized(s):
    d = eigen_pair_dist(s, 0.7, -0.2)
    assert d.trials == 1.0 and d.rng_seed is None
    assert d.counts.sum() == pytest.approx(1.0, abs=1e-12)
    assert d.counts.shape == (2 * s + 1, 2 * s + 1)
    assert d.counts.min() >= -1e-14


def test_superposition_closed_forms_s1():
    r, theta = 0.6, 0.9
    coeffs = SuperpositionCoeffs(
        1, np.array([r, math.sqrt(1 - r * r) * np.exp(1j * theta)]))
    p = superposition_probs(0.0, coeffs).frequencies()
    want00 = abs(r + math.sqrt(1 - r * r) * np.exp(1j * theta)) ** 2 / 4
    assert p[0, 0] == pytest.approx(want00, abs=1e-12)
    assert p[0, 1] == pytest.approx((1 - r * r) / 2, abs=1e-12)


def test_distribution_rejects_non_finite():
    p = np.full((3, 3), 1 / 9.0)
    p[1, 1] = np.nan
    with pytest.raises(ValidationError):
        CountTable(p, trials=1.0)


def test_distribution_validation():
    for shape in ((4, 5), (4, 4), (5,)):
        with pytest.raises(ValidationError):
            CountTable(np.full(shape, 1.0 / np.prod(shape)), trials=1.0)
    bad = np.zeros((5, 5))
    bad[0, 0] = 0.5
    with pytest.raises(ValidationError):
        CountTable(bad, trials=1.0)
    neg = np.full((3, 3), 1 / 9.0)
    neg[0, 0] = -1e-3
    neg[1, 1] += 1e-3
    with pytest.raises(ValidationError):
        CountTable(neg, trials=1.0)
    assert CountTable(np.full((5, 5), 1 / 25.0), trials=1.0).s == 2


def test_count_table_validation():
    with pytest.raises(ValidationError):
        CountTable(np.zeros((4, 4)), trials=0.0)
    c = np.zeros((3, 3))
    c[1, 0] = 3.0
    with pytest.raises(ValidationError):
        CountTable(c, trials=10.0)
    # the sum is held to 1e-10 * max(1, trials)
    c[1, 0] = 1.0 + 5e-10
    with pytest.raises(ValidationError):
        CountTable(c, trials=1.0)
    c[1, 0] = 1e6 + 5e-4
    with pytest.raises(ValidationError):
        CountTable(c, trials=1e6)
    c[1, 0] = 1.0 + 5e-11
    assert CountTable(c, trials=1.0).s == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_count_table_rejects_non_finite(bad):
    c = np.zeros((3, 3))
    c[0, 0] = 10.0
    c[1, 0] = bad
    with pytest.raises(ValidationError):
        CountTable(c, trials=10.0)
    c[1, 0] = 0.0
    with pytest.raises(ValidationError):
        CountTable(c, trials=bad)


def test_sampling_is_deterministic_and_consistent():
    d = eigen_pair_dist(2, 0.5, -0.3)
    t1 = sample_outcomes(d, 5000, seed=77)
    t2 = sample_outcomes(d, 5000, seed=77)
    assert np.array_equal(t1.counts, t2.counts)
    assert t1.counts.sum() == 5000
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        sample_outcomes(d, 5000, seed=-1)
    big = sample_outcomes(d, 1_000_000, seed=3)
    freq = big.frequencies()
    probs = d.frequencies()
    for n1 in range(3):
        for n2 in range(3):
            p = probs[n1, n2]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / 1_000_000)
            assert abs(freq[n1, n2] - p) < 4.5 * sigma + 1e-9


def test_sampling_ignores_rounding_residue():
    # at s = 4 some cells vanish by symmetry but hold about 1e-33
    d = eigen_pair_dist(4, 0.0, 0.7)
    residue = (d.counts > 0) & (d.counts < 1e-14)
    assert residue.any()
    clean = CountTable(np.where(residue, 0.0, d.counts), trials=1.0)
    assert np.array_equal(sample_outcomes(d, 100_000, seed=7).counts,
                          sample_outcomes(clean, 100_000, seed=7).counts)


def test_phase_single_setting_candidates():
    s, phi_j, phi_k = 2, 0.2, -0.9
    table = eigen_pair_dist(s, phi_j, phi_k)
    est = estimate_phase(table, phi_j, s)
    assert len(est.candidates) == 2
    assert min(abs(c - phi_k) for c in est.candidates) < 1e-12


def test_phase_needs_single_photon_counts():
    counts = np.zeros((5, 5))
    counts[0, 0] = 10.0
    counts[2, 2] = 5.0
    table = CountTable(counts, trials=15.0)
    with pytest.raises(LowInformationError):
        estimate_phase(table, 0.0, 2)


@pytest.mark.parametrize("phi_k", [-2.5, -0.7, 0.0, 1.3, 3.0])
def test_phase_two_setting_exact(phi_k):
    s, phi_j = 3, 0.4
    main = eigen_pair_dist(s, phi_j, phi_k)
    aux_phi = phi_j + math.pi / 2
    aux = eigen_pair_dist(s, aux_phi, phi_k)
    est = estimate_phase(main, phi_j, s, aux=(aux_phi, aux))
    assert est.phi_k == pytest.approx(phi_k, abs=1e-12)
    assert est.candidates == (est.phi_k,)


def test_interference_and_phase_estimate_at_s60():
    # past the dense transfer tensor's reach (1.1 GB at s = 45)
    s, phi_j, phi_k = 60, 0.4, 1.3
    aux_phi = phi_j + math.pi / 2
    try:
        main = eigen_pair_dist(s, phi_j, phi_k)
        aux = eigen_pair_dist(s, aux_phi, phi_k)
        est = estimate_phase(main, phi_j, s, aux=(aux_phi, aux))
    finally:
        _splitter_block.cache_clear()
    p = main.frequencies()
    assert abs(p.sum() - 1.0) < 1e-13
    # the photon-number distribution of the output is the input's: the
    # convolution of two uniform distributions on 0..s
    a, b = np.indices(p.shape)
    per_n = np.bincount((a + b).ravel(), weights=p.ravel())
    uniform = np.full(s + 1, 1.0 / (s + 1))
    assert np.abs(per_n[:2 * s + 1]
                  - np.convolve(uniform, uniform)).max() < 1e-13
    assert np.abs(per_n[2 * s + 1:]).max() < 1e-13
    assert abs(est.phi_k - phi_k) < 1e-10


def test_phase_two_setting_sampled():
    s, phi_j, phi_k = 2, 0.0, 0.8
    d_main = eigen_pair_dist(s, phi_j, phi_k)
    aux_phi = phi_j + math.pi / 2
    d_aux = eigen_pair_dist(s, aux_phi, phi_k)
    est = estimate_phase(sample_outcomes(d_main, 100_000, seed=5), phi_j, s,
                         aux=(aux_phi, sample_outcomes(d_aux, 100_000, seed=6)))
    assert abs(est.phi_k - phi_k) < 5 * est.stderr + 1e-3
    assert est.stderr < 0.02


def test_exact_tables_report_zero_stderr():
    # a table of probabilities is the exact limit: its trials = 1 are not
    # events, so no binomial error may be read off them
    phi_j, phi_k, aux_phi = 0.0, 0.7, math.pi / 2
    for s in (1, 4):
        main = eigen_pair_dist(s, phi_j, phi_k)
        aux = eigen_pair_dist(s, aux_phi, phi_k)
        assert estimate_phase(main, phi_j, s).stderr == 0.0
        est = estimate_phase(main, phi_j, s, aux=(aux_phi, aux))
        assert est.stderr == 0.0
        assert est.phi_k == pytest.approx(phi_k, abs=1e-12)
        # a drawn table keeps its sampling error, even of one trial
        counts = np.zeros_like(main.counts)
        counts[1, 0] = 1.0
        drawn = CountTable(counts, trials=1.0, rng_seed=0)
        assert estimate_phase(drawn, phi_j, s).stderr == 1.0
        sampled = sample_outcomes(main, 10_000, seed=3)
        assert estimate_phase(sampled, phi_j, s,
                              aux=(aux_phi, aux)).stderr > 0.0


def test_phase_rejects_degenerate_aux():
    s, phi_j = 2, 0.1
    t = eigen_pair_dist(s, phi_j, 0.5)
    with pytest.raises(ValidationError):
        estimate_phase(t, phi_j, s, aux=(phi_j + math.pi, t))


def test_phase_rejects_table_of_another_order():
    t2 = eigen_pair_dist(2, 0.1, 0.5)
    t3 = eigen_pair_dist(3, 0.1 + math.pi / 2, 0.5)
    with pytest.raises(ValidationError, match="grid is for s=2"):
        estimate_phase(t2, 0.1, 5)
    with pytest.raises(ValidationError, match="grid is for s=3"):
        estimate_phase(t2, 0.1, 2, aux=(0.1 + math.pi / 2, t3))
    with pytest.raises(ValidationError):
        estimate_phase(t2, 0.1, 0)


def exact_tables(coeffs, settings, phi0=0.0):
    return [(p, superposition_probs(p, coeffs, phi0)) for p in settings]


def test_coefficients_s1_exact_inversion():
    r, theta = 0.35, -1.2
    c = np.array([r, math.sqrt(1 - r * r) * np.exp(1j * theta)])
    truth = SuperpositionCoeffs(1, c)
    settings = [phase_value(1, 0), phase_value(1, 1), math.pi / 2]
    got = estimate_coefficients(exact_tables(truth, settings), 1)
    assert np.abs(got.c - truth.c).max() < 1e-12


def aligned_error(got, truth):
    """Largest coefficient error once the global phase is matched."""
    overlap = np.vdot(truth, got)
    return float(np.abs(got - truth * overlap / abs(overlap)).max())


@pytest.mark.parametrize("r,theta", [(0.0, 0.8), (1e-7, 0.8), (1.0, 0.8),
                                     (0.5, 0.0), (0.5, math.pi)])
def test_coefficients_s1_exact_boundaries(r, theta):
    truth = gauge_fixed(
        np.array([r, math.sqrt(1 - r * r) * np.exp(1j * theta)]), 1)
    settings = [phase_value(1, 0), phase_value(1, 1), math.pi / 2]
    got = estimate_coefficients(exact_tables(truth, settings), 1)
    assert got.note == ""
    assert aligned_error(got.c, truth.c) < 1e-12
    # The gauge (c_0 real) turns an error e in the phase of c_0 relative
    # to c_1 into an error e in c_1, and exact tables fix that phase only
    # to about 1e-16 / r, so at r = 1e-7 the gauge-fixed bound is looser.
    bound = 1e-8 if 0 < r < 1e-6 else 1e-12
    assert np.abs(got.c - truth.c).max() < bound


def test_coefficients_s1_on_axis_note():
    truth = SuperpositionCoeffs(
        1, np.array([0.5, math.sqrt(0.75) * np.exp(0.4j)]))
    settings = [phase_value(1, 0), phase_value(1, 1)]
    got = estimate_coefficients(exact_tables(truth, settings), 1)
    assert "sign" in got.note


def test_coefficients_s1_on_axis_note_is_relative_to_phi0():
    phi0 = 0.3
    settings = [phase_value(1, 0, phi0), phase_value(1, 1, phi0)]
    mirror = [gauge_fixed(np.array([0.5, math.sqrt(0.75) * np.exp(t * 1j)]), 1)
              for t in (0.9, -0.9)]
    tables = [exact_tables(c, settings, phi0) for c in mirror]
    # the settings cannot tell theta from -theta
    for (_, a), (_, b) in zip(*tables):
        assert np.abs(a.counts - b.counts).max() < 1e-15
    got = estimate_coefficients(tables[0], 1, phi0=phi0)
    assert "sign" in got.note
    sampled = [(p, sample_outcomes(superposition_probs(p, mirror[0], phi0),
                                   5000, seed=40 + i))
               for i, p in enumerate(settings)]
    assert "sign" in estimate_coefficients(sampled, 1, phi0=phi0).note
    # one off-axis setting fixes the sign
    off_axis = tables[0] + exact_tables(mirror[0], [phi0 + 1.0], phi0)
    got = estimate_coefficients(off_axis, 1, phi0=phi0)
    assert got.note == ""
    assert np.abs(got.c - mirror[0].c).max() < 1e-12


def test_coefficients_s2_least_squares():
    rng = np.random.default_rng(12)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    truth = gauge_fixed(c, 2)
    settings = [phase_value(2, m) for m in range(3)]
    got = estimate_coefficients(exact_tables(truth, settings), 2)
    assert np.abs(got.c - truth.c).max() < 1e-6


@pytest.mark.parametrize("s", range(2, 8))
def test_coefficients_exact_recovery(s):
    rng = np.random.default_rng(100 + s)
    raw = (rng.uniform(0.5, 1.5, s + 1)
           * np.exp(1j * rng.uniform(-math.pi, math.pi, s + 1)))
    truth = gauge_fixed(raw, s)
    settings = [phase_value(s, m) for m in range(s + 1)]
    got = estimate_coefficients(exact_tables(truth, settings), s)
    assert np.abs(got.c - truth.c).max() < 1e-12


def test_coefficients_exact_recovery_off_the_plain_spectral_basin():
    # At odd s the eigenphase settings leave part of c c^H unmeasured.
    # For this truth the top eigenvector of M^H diag(f) M alone starts
    # the solve in a spurious minimum (cost 3.2e-3, error 0.87).
    raw = (np.array([1.3526, 1.459, 0.8734, 0.8137])
           * np.exp(1j * np.array([-2.1598, -0.8427, -2.6209, -0.4132])))
    truth = gauge_fixed(raw, 3)
    settings = [phase_value(3, m) for m in range(4)]
    got = estimate_coefficients(exact_tables(truth, settings), 3)
    assert np.abs(got.c - truth.c).max() < 1e-12


def test_coefficients_exact_recovery_at_s30():
    # the lifted matrix of the former spectral start would be 0.9 GB here
    rng = np.random.default_rng(30)
    s = 30
    raw = (rng.uniform(0.5, 1.5, s + 1)
           * np.exp(1j * rng.uniform(-math.pi, math.pi, s + 1)))
    truth = gauge_fixed(raw, s)
    settings = [phase_value(s, m) for m in range(s + 1)]
    try:
        got = estimate_coefficients(exact_tables(truth, settings), s)
    finally:
        _splitter_block.cache_clear()
        phase_est._block_gram.cache_clear()
    assert np.abs(got.c - truth.c).max() < 1e-12


def fit_inputs(tables, s, phi0=0.0):
    """The model's and the tables' reached rows, as estimate_coefficients
    passes them to the spectral start."""
    settings = [p for p, _ in tables]
    reach = np.tile(_reached(s), len(settings))
    freqs = np.concatenate([t.frequencies().ravel() for _, t in tables])
    return _model_matrix(settings, s, phi0)[reach], freqs[reach], settings


def check_block_solve(tables, s, phi0):
    """The block solve's estimate of c c^H and its spectral start against
    the lifted oracle, to 1e-12; returns the estimate."""
    mat, freqs, settings = fit_inputs(tables, s, phi0)
    cc = _least_squares_cc(mat, freqs, settings, phi0)
    assert np.abs(cc - lifted_least_squares_cc(mat, freqs)).max() < 1e-12
    # eigh fixes the start's global phase, which the fit ignores, only by
    # its own convention
    start, want = (x[:s + 1] + 1j * x[s + 1:]
                   for x in (_spectral_start(mat, freqs, settings, phi0),
                             lifted_spectral_start(mat, freqs)))
    assert aligned_error(start, want) < 1e-12
    return cc


@pytest.mark.parametrize("off_axis", [False, True])
@pytest.mark.parametrize("s", range(1, 8))
def test_block_solve_matches_lifted_oracle(s, off_axis, monkeypatch):
    # with the eigenphase settings alone the offset bins are s + 1
    # separate systems of s + 1 unknowns, solved as one batch; an
    # off-axis setting couples them all into one
    batches = []
    eigh = np.linalg.eigh

    def recorded(a):
        if a.ndim == 3:
            batches.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    rng = np.random.default_rng(900 + s)
    phi0 = 0.3
    truth = gauge_fixed(random_amplitudes(rng, s), s)
    settings = [phase_value(s, m, phi0) for m in range(s + 1)]
    settings += [phi0 + 1.0] if off_axis else []
    check_block_solve(exact_tables(truth, settings, phi0), s, phi0)
    d = s + 1
    # one batch per estimate: one for _least_squares_cc, one inside the start
    assert batches == [(1, d * d, d * d) if off_axis else (d, d, d)] * 2
    sampled = [(p, sample_outcomes(superposition_probs(p, truth, phi0),
                                   2000, seed=i))
               for i, p in enumerate(settings)]
    check_block_solve(sampled, s, phi0)


def test_block_solve_leaves_the_unmeasured_part_zero():
    # the truth of test_coefficients_exact_recovery_off_the_plain_spectral_basin:
    # at s = 3 the eigenphase settings leave part of c c^H unmeasured, and
    # the minimum-norm estimate has no component there
    raw = (np.array([1.3526, 1.459, 0.8734, 0.8137])
           * np.exp(1j * np.array([-2.1598, -0.8427, -2.6209, -0.4132])))
    truth = gauge_fixed(raw, 3)
    tables = exact_tables(truth, [phase_value(3, m) for m in range(4)])
    cc = check_block_solve(tables, 3, 0.0)
    mat, _, _ = fit_inputs(tables, 3)
    lifted = (mat[:, :, None] * mat.conj()[:, None, :]).reshape(-1, 16)
    _, sv, vh = np.linalg.svd(lifted)
    null = vh[sv < 1e-12 * sv[0]].conj()
    assert null.shape[0] > 0
    assert np.abs(null @ np.outer(truth.c, truth.c.conj()).ravel()).max() > 0.1
    assert np.abs(null @ cc.ravel()).max() < 1e-12


def test_block_solve_raises_where_the_lifted_oracle_does():
    grid = np.zeros((5, 5))
    grid[4, 4] = grid[4, 3] = 50.0
    tables = [(phase_value(2, m), CountTable(grid, trials=100.0, rng_seed=m))
              for m in range(3)]
    mat, freqs, settings = fit_inputs(tables, 2)
    assert not _least_squares_cc(mat, freqs, settings, 0.0).any()
    for start in (lambda: _spectral_start(mat, freqs, settings, 0.0),
                  lambda: lifted_spectral_start(mat, freqs)):
        with pytest.raises(LowInformationError, match="cell the model reaches"):
            start()


@pytest.mark.parametrize("s", range(1, 9))
def test_model_matrix_closed_form(s):
    # one splitter call over every (setting, coefficient) pair equals the
    # per-setting stack through the phase states; cells with a + b > 2s
    # are out of reach
    phi0 = -0.7
    settings = [phase_value(s, m, phi0) for m in range(s + 1)] + [0.4]
    basis = np.stack([phase_state(s, phase_value(s, k, phi0)).amplitudes
                      for k in range(s + 1)], axis=1)
    want = np.concatenate([
        _splitter_amplitudes(phase_state(s, p).amplitudes, basis)
        for p in settings])
    got = _model_matrix(settings, s, phi0)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-15
    reach = np.tile(_reached(s), len(settings))
    assert np.count_nonzero(_reached(s)) == (s + 1) * (2 * s + 1)
    assert not got[~reach].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coefficients_refuse_non_finite_settings(bad):
    truth = SuperpositionCoeffs(2, np.array([0.6, 0.0, 0.8]))
    tables = exact_tables(truth, [phase_value(2, m) for m in range(3)])
    tables.append((bad, tables[0][1]))
    with pytest.raises(ValidationError, match="phase phi must be finite"):
        estimate_coefficients(tables, 2)


@pytest.mark.parametrize("s", [1, 3, 4])
def test_stacked_objective_matches_per_setting_sums(s):
    rng = np.random.default_rng(7 + s)
    truth = gauge_fixed(random_amplitudes(rng, s), s)
    settings = [phase_value(s, m) for m in range(s + 1)] + [0.4]
    tables = exact_tables(truth, settings)
    c = random_amplitudes(rng, s)
    resid, grad = [], np.zeros(s + 1, dtype=complex)
    for phi_j, table in tables:
        # both inputs hold s photons, so the oracle's grid is (2s+1)^2
        cols = [splitter_oracle(phase_state(s, phi_j).amplitudes,
                                phase_state(s, phase_value(s, k)).amplitudes
                                ).ravel() for k in range(s + 1)]
        mat = np.stack(cols, axis=1)
        amp = mat @ c
        d = np.abs(amp) ** 2 - table.frequencies().ravel()
        resid.append(d)
        # gradient of sum d^2 in the complex form g = dF/dRe c + i dF/dIm c
        grad += 2.0 * (mat.conj().T @ (d * amp))
    freqs = np.concatenate([t.frequencies().ravel() for _, t in tables])
    fun, jac = _residuals(_model_matrix(settings, s, 0.0), freqs)
    x = np.concatenate([c.real, c.imag])
    got = fun(x)
    assert np.abs(got - np.concatenate(resid)).max() < 1e-14
    J = jac(x)
    assert np.abs(J.T @ got - np.concatenate([grad.real, grad.imag])
                  ).max() < 1e-13
    # every column against a central difference
    h = 1e-6
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        fd = (fun(x + step) - fun(x - step)) / (2 * h)
        assert np.abs(J[:, k] - fd).max() < 1e-9


def test_coefficients_validation():
    truth = SuperpositionCoeffs(1, np.array([0.6, 0.8]))
    with pytest.raises(ValidationError):
        estimate_coefficients([], 1)
    # missing the second eigenphase setting
    partial = exact_tables(truth, [phase_value(1, 0)])
    with pytest.raises(ValidationError):
        estimate_coefficients(partial, 1)
    # table built for a different order
    tables = exact_tables(truth, [phase_value(1, 0), phase_value(1, 1)])
    with pytest.raises(ValidationError):
        estimate_coefficients(tables, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gauge_fixed_rejects_non_finite(bad):
    # checked before normalizing, which would spread the NaN or inf
    with pytest.raises(ValidationError, match="non-finite coefficient c_1"):
        gauge_fixed([1.0, bad], 1)


def test_coefficients_rank_warning():
    truth = SuperpositionCoeffs(
        2, np.array([0.8, 0.4, 0.4 + 0.2j]) / math.sqrt(0.8 ** 2 + 0.16 + 0.2))
    tables = [(p, sample_outcomes(superposition_probs(p, truth), 1, seed=i))
              for i, p in enumerate(phase_value(2, m) for m in range(3))]
    with pytest.warns(RankDeficiencyWarning,
                      match=r"cells for the 6 fit parameters"):
        estimate_coefficients(tables, 2)


def test_coefficients_reject_counts_the_model_cannot_reach():
    # every count lies beyond a + b = 2s, where no amplitude reaches
    grid = np.zeros((5, 5))
    grid[4, 4] = grid[4, 3] = 50.0
    tables = [(phase_value(2, m), CountTable(grid, trials=100.0, rng_seed=m))
              for m in range(3)]
    with pytest.raises(LowInformationError, match="cell the model reaches"):
        estimate_coefficients(tables, 2)


def multistart_cost(tables, s, starts=8, rng_seed=20240):
    """Lowest cost of the former multi-start fit: all-ones and starts - 1
    seeded complex normal draws, each solved by Levenberg-Marquardt."""
    freqs = np.concatenate([t.frequencies().ravel() for _, t in tables])
    fun, jac = _residuals(_model_matrix([p for p, _ in tables], s, 0.0),
                          freqs)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    inits = [np.ones(s + 1, dtype=np.complex128)]
    for _ in range(starts - 1):
        inits.append(rng.standard_normal(s + 1)
                     + 1j * rng.standard_normal(s + 1))
    x0s = [np.concatenate([z.real, z.imag]) / np.linalg.norm(z)
           for z in inits]
    return min(least_squares(fun, x0, jac=jac, method="lm").cost
               for x0 in x0s)


@pytest.mark.parametrize("s", [2, 4, 6])
def test_coefficients_single_solve_reaches_multistart_optimum(s, monkeypatch):
    fits = []
    solve = phase_est._gauss_newton

    def counted(fun, jac, x):
        fits.append(solve(fun, jac, x))
        return fits[-1]

    monkeypatch.setattr(phase_est, "_gauss_newton", counted)
    rng = np.random.default_rng(600 + s)
    settings = [phase_value(s, m) for m in range(s + 1)]
    for trials in (5_000, 100_000):
        for _ in range(4):
            # magnitudes from 0, so a near-zero coefficient can occur
            raw = (rng.uniform(0.0, 1.5, s + 1)
                   * np.exp(1j * rng.uniform(-math.pi, math.pi, s + 1)))
            truth = gauge_fixed(raw, s)
            tables = [(p, sample_outcomes(superposition_probs(p, truth),
                                          trials, int(rng.integers(2**31))))
                      for p in settings]
            fits.clear()
            estimate_coefficients(tables, s)
            assert len(fits) == 1
            freqs = np.concatenate([t.frequencies().ravel()
                                    for _, t in tables])
            fun, _ = _residuals(_model_matrix(settings, s, 0.0), freqs)
            r = fun(fits[0])
            cost = 0.5 * float(r @ r)
            assert cost <= multistart_cost(tables, s) * (1 + 1e-8)


def test_gauge_fixed_properties():
    c = np.array([-0.3 - 0.4j, 0.5j, 0.7])
    g = gauge_fixed(c, 2)
    assert np.linalg.norm(g.c) == pytest.approx(1.0, abs=1e-12)
    assert g.c[0].imag == pytest.approx(0.0, abs=1e-12)
    assert g.c[0].real >= 0.0
    # global phase is quotiented out
    g2 = gauge_fixed(c * np.exp(0.7j), 2)
    assert np.abs(g.c - g2.c).max() < 1e-12
    # zero leading coefficient falls through to the next pivot
    g3 = gauge_fixed(np.array([0.0, 1j]), 1)
    assert g3.c[1] == pytest.approx(1.0, abs=1e-12)

