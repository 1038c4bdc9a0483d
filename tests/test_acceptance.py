"""Acceptance checks, one test per shipped claim.

Each test prints a single measured pass/fail line; tolerances are part
of the claims and are asserted as stated, not tuned to the code.

Criteria 7, 8, 10 and 11 also carry values printed in the source
material that are misprints. Those tests assert the value derived in
closed form (the derivation is in each docstring) and keep the printed
value as data, unedited, asserting that it breaks the condition it was
meant to satisfy. A criterion therefore fails both when the program
drifts from the derivation and when the printed value stops being
distinguishable from it.
"""

import json
import math
import time

import numpy as np

from pbsim.cli import main as cli_main
from pbsim.fock import (FockVector, conditional_density, fidelity_pure,
                        number_state, vacuum_state)
from pbsim.herald import (HeraldConfig, alpha_polynomial, build_state,
                          herald_point, solve_alphas, symmetric_factors)
from pbsim.ops import detector_povm
from pbsim.phase_est import (estimate_coefficients, estimate_phase,
                             gauge_fixed, interference_probs,
                             sample_outcomes, superposition_probs)
from pbsim.phase_est import SuperpositionCoeffs
from pbsim.phase_states import pb_eigenstate, phase_state, phase_value
from pbsim.wigner import effective_radius, negativity_volume, wigner_grid

from oracles import wigner_point, wigner_point_integral


def report(num, ok, detail):
    print(f"criterion {num:02d}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def budget(elapsed, limit):
    # the report line says only whether the time budget held, so reruns
    # of the same code print the same line
    return f"{'within' if elapsed < limit else 'over'} {limit:g}s"


def test_criterion_01_orthonormality():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(1, 18):
        states = [pb_eigenstate(s, m) for m in range(s + 1)]
        gram = np.array([[np.vdot(a.amplitudes, b.amplitudes)
                          for b in states] for a in states])
        worst = max(worst, float(np.abs(gram - np.eye(s + 1)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    assert report(1, ok, f"max Gram deviation {worst:.3e} (<1e-12), "
                  f"{budget(elapsed, 1.0)}")


def test_criterion_02_wigner_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        cutoff = int(rng.integers(1, 12))
        a = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
        a /= np.linalg.norm(a)
        psi = FockVector(a)
        q = float(rng.uniform(-2.5, 2.5))
        p = float(rng.uniform(-2.5, 2.5))
        diff = abs(wigner_point(psi, q, p) - wigner_point_integral(psi, q, p))
        worst = max(worst, diff)
    assert report(2, worst < 1e-8,
                  f"max kernel-integral gap {worst:.3e} over 100 pairs (<1e-8)")


def test_criterion_03_negativity_anchors():
    v_vac = negativity_volume(vacuum_state(2))
    v_one = negativity_volume(number_state(1, 2))
    target = 2 * math.exp(-0.5) - 1
    ok = abs(v_vac) < 1e-6 and abs(v_one - target) < 1e-4
    assert report(3, ok, f"V(vacuum)={v_vac:.2e} (<1e-6), "
                  f"V(|1>)={v_one:.8f} vs {target:.8f} (1e-4)")


def test_criterion_04_negativity_monotone_in_s():
    t0 = time.perf_counter()
    vols = [negativity_volume(pb_eigenstate(s, 0)) for s in range(1, 18)]
    elapsed = time.perf_counter() - t0
    gaps = np.diff(vols)
    ok = bool(np.all(gaps > 0)) and elapsed < 600.0
    assert report(4, ok, f"min increment {gaps.min():.5f} over s=1..17, "
                  f"{budget(elapsed, 600.0)}")


def test_criterion_05_radius_monotone_and_vacuum_value():
    r_vac = effective_radius(vacuum_state(2))
    want = math.sqrt(math.log(2000 / math.pi) / 2)
    radii = [effective_radius(pb_eigenstate(s, 0)) for s in range(2, 18)]
    gaps = np.diff(radii)
    ok = abs(r_vac - want) < 1e-6 and bool(np.all(gaps > 0))
    assert report(5, ok, f"vacuum radius err {abs(r_vac - want):.2e} (<1e-6), "
                  f"min increment {gaps.min():.4f} over s=2..17")


def test_criterion_06_quarter_turn_rotation():
    n = 121
    axis = np.linspace(-5.0, 5.0, n)
    w0 = wigner_grid(pb_eigenstate(11, 0), axis, axis)
    w3 = wigner_grid(pb_eigenstate(11, 3), axis, axis)
    # clockwise quarter turn on the symmetric lattice is exact:
    # W3(q, p) = W0(-p, q)
    rotated = w0[::-1, :].T
    diff = float(np.abs(w3 - rotated).max())
    assert report(6, diff < 1e-6, f"max lattice mismatch {diff:.3e} (<1e-6)")


def _printed_quartic(q):
    """Printed s = 4 quartic z^4 + a z^3 + b z^2 + c z + d, as [a, b, c, d]."""
    return np.array([-q / 3, q ** 2 / (2 * math.sqrt(3)),
                     -q ** 3 / (2 * math.sqrt(6)), q ** 4 / (4 * math.sqrt(6))])


def _heralded_density(cfg, alphas=None):
    state = build_state(cfg, alphas)
    povm = detector_povm(cfg.eta, cfg.cutoff)
    rho, _ = conditional_density(state, [povm.click] * cfg.s, kept_mode=cfg.s)
    return rho


def test_criterion_07_printed_circuit_coefficients():
    """Symmetric factors f_{4,j} and the displacement quartic for s = 4.

    Derivation. At lowest order in q the component |j>_A comes from the
    TMSV term q^j |j, j>: the cascade spreads the j carrier photons
    evenly, b+ -> sum_i b_i+ / sqrt(s), and a click pattern of one photon
    per mode takes them one per mode. Expanding
    (sum_i b_i+ / sqrt(s))^j / sqrt(j!) gives each set of j distinct
    modes the amplitude j! / (sqrt(j!) s^(j/2)). The other s - j modes
    are in vacuum and each contributes alpha_i through its displacement.
    Summing over the sets gives q^j f_{s,j} e_{s-j}(alpha) with

        f_{s,j} = sqrt(j!) / s^(j/2).

    Equal weighting, q^j f_{s,j} e_{s-j} the same for every j, fixes
    e_k = (f_{s,s} / f_{s,s-k}) q^k. For s = 4, f = (1, 1/2, sqrt2/4,
    sqrt6/8, sqrt6/8) and the quartic's coefficients are
    -q, (sqrt3/2) q^2, -(sqrt6/4) q^3 and (sqrt6/8) q^4.

    Printed values (kept as data): f_4 = 1/(4 sqrt6) and the coefficients
    -q/3, q^2/(2 sqrt3), -q^3/(2 sqrt6), q^4/(4 sqrt6), each exactly a
    third of the derived value. With the printed quartic the weights of
    j = 0..3 agree but j = 4 is 3x heavier, so the printed roots break
    equal weighting: heralding with them at r = 0.02, eta = 1 gives
    F ~ 0.754, against criterion 9's F > 0.99.
    """
    f = symmetric_factors(4)
    want_f = [math.sqrt(math.factorial(j)) / 4 ** (j / 2) for j in range(5)]
    printed_f = (1.0, 0.5, 1 / (2 * math.sqrt(2)),
                 math.sqrt(3) / (4 * math.sqrt(2)), 1 / (4 * math.sqrt(6)))
    f_gap = max(abs(a - b) for a, b in zip(f, want_f))
    printed_f4_ratio = want_f[4] / printed_f[4]

    def weights(coeffs, q):
        # q^j f_{4,j} e_{4-j} relative to j = 0
        e = [1.0] + [(-1.0) ** k * c for k, c in enumerate(coeffs, 1)]
        w = np.array([q ** j * want_f[j] * e[4 - j] for j in range(5)])
        return w / w[0]

    poly_gap = printed_weight_gap = 0.0
    for q in (0.1, 0.2, 0.3):
        got = alpha_polynomial(4, q)[1:]
        want = np.array([-q, math.sqrt(3) / 2 * q ** 2,
                         -math.sqrt(6) / 4 * q ** 3,
                         math.sqrt(6) / 8 * q ** 4])
        poly_gap = max(poly_gap, float(np.abs(got - want).max()))
        printed_weight_gap = max(printed_weight_gap, float(np.abs(
            weights(_printed_quartic(q), q) - [1, 1, 1, 1, 3]).max()))

    cfg = HeraldConfig(s=4, r=0.02, eta=1.0)
    target = pb_eigenstate(4, 0, cutoff=cfg.cutoff)
    f_true = fidelity_pure(_heralded_density(cfg), target)
    printed_roots = solve_alphas(np.r_[1.0, _printed_quartic(cfg.q)])
    f_printed = fidelity_pure(_heralded_density(cfg, printed_roots), target)

    ok = (f_gap < 1e-10 and poly_gap < 1e-12
          and abs(printed_f4_ratio - 3) < 1e-12 and printed_weight_gap < 1e-12
          and f_true > 0.99 and f_printed < 0.99)
    assert report(7, ok, f"factor tuple gap {f_gap:.3e} (<1e-10), "
                  f"quartic coefficient gap {poly_gap:.3e} (<1e-12); "
                  f"printed f_4 = (sqrt6/8)/{printed_f4_ratio:.12g}, "
                  f"printed weights (1,1,1,1,3) to {printed_weight_gap:.1e}, "
                  f"F(r=0.02) printed roots {f_printed:.4f} vs derived "
                  f"{f_true:.8f} (>0.99)")


def _click_probability_table(s, r_values, etas):
    out = {}
    for r in r_values:
        state = build_state(HeraldConfig(s=s, r=r, eta=1.0))
        for eta in etas:
            povm = detector_povm(eta, state.cutoff)
            _, p = conditional_density(state, [povm.click] * s, kept_mode=s)
            out[(r, eta)] = p
    return out


def test_criterion_08_click_probability_scaling():
    """Click probability P ~ eta^s r^(2s) at lowest order in q = tanh r.

    Derivation. At lowest order the s+1 heralded amplitudes all equal
    sqrt(1-q^2) q^s f_{s,s} with f_{s,s}^2 = s!/s^s (criterion 7), and
    each clicking detector sees exactly one photon, which it registers
    with probability eta. So

        P = (s+1) s!/s^s eta^s q^(2s) (1 - O(q^2)),

    which is 0.46875 eta^4 q^8 for s = 4. The log-log slope in r tends to
    2s only as r -> 0, so the bands 8.0+-0.1 (s = 4) and 2s+-0.15
    (s = 2, 3) are asserted over r in [0.005, 0.05], where the O(q^2)
    term stays below 1.2 %, together with the prefactor at r = 0.005 to
    1e-3 relative.

    Printed window (kept as data): r in [0.05, 0.3]. There the O(q^2)
    term is not small (at r = 0.3, P/q^(2s) is 0.68 of its leading value
    for s = 4) and it pulls every slope below its band: 7.69-7.74 for
    s = 4 and 3.79/5.74 for s = 2/3. This is not truncation: with cutoff
    8, 9 TMSV terms and exact displacements the s = 4 slope is still
    7.690.
    """
    etas = {4: (1.0, 0.8, 0.6), 2: (1.0,), 3: (1.0,)}
    band = {4: 0.1, 2: 0.15, 3: 0.15}
    windows = {"lowest order": np.linspace(0.005, 0.05, 6),
               "printed": np.linspace(0.05, 0.3, 6)}
    slopes = {}
    prefactor_gap = 0.0
    for name, r_values in windows.items():
        logs = np.log10(r_values)
        for s, s_etas in etas.items():
            table = _click_probability_table(s, r_values, s_etas)
            for eta in s_etas:
                y = np.log10([table[(r, eta)] for r in r_values])
                slopes[(name, s, eta)] = float(np.polyfit(logs, y, 1)[0])
            if name == "lowest order":
                r = r_values[0]
                lead = ((s + 1) * math.factorial(s) / s ** s
                        * math.tanh(r) ** (2 * s))
                prefactor_gap = max(prefactor_gap, *(
                    abs(table[(r, eta)] / (eta ** s * lead) - 1)
                    for eta in s_etas))
    in_band = all(abs(v - 2 * s) <= band[s]
                  for (name, s, _), v in slopes.items()
                  if name == "lowest order")
    printed_below = all(v < 2 * s - band[s]
                        for (name, s, _), v in slopes.items()
                        if name == "printed")
    ok = in_band and prefactor_gap < 1e-3 and printed_below
    details = "; ".join(
        f"{name} r in [{windows[name][0]:g}, {windows[name][-1]:g}]: "
        + ", ".join(f"s={s} eta={eta}: {v:.3f}"
                    for (n, s, eta), v in slopes.items() if n == name)
        for name in windows)
    assert report(8, ok, f"slopes {details} vs 8.0+-0.1 and 2s+-0.15 "
                  f"(lowest order in band: {in_band}, printed window below "
                  f"band: {printed_below}); prefactor (s+1)s!/s^s eta^s "
                  f"gap {prefactor_gap:.1e} (<1e-3)")


def test_criterion_09_fidelity_ordering():
    def fidelity(cfg):
        target = pb_eigenstate(cfg.s, 0, cutoff=cfg.cutoff)
        return fidelity_pure(_heralded_density(cfg), target)

    r_values = np.linspace(0.05, 0.5, 10)
    fids = {eta: [fidelity(HeraldConfig(s=4, r=float(r), eta=eta))
                  for r in r_values] for eta in (1.0, 0.8, 0.6)}
    pointwise = all(a > b > c for a, b, c in
                    zip(fids[1.0], fids[0.8], fids[0.6]))
    f_small = fidelity(HeraldConfig(s=4, r=0.02, eta=1.0))
    ok = pointwise and f_small > 0.99
    assert report(9, ok, f"pointwise ordering {pointwise}, "
                  f"F(eta=1, r=0.02)={f_small:.6f} (>0.99)")


def test_criterion_10_negativity_crossover():
    """Negativity V of the heralded s = 4 state against r and eta.

    V grows with eta at every r. At high efficiency more squeezing gives
    more negativity, V(r=0.3) > V(r=0.1); at low efficiency the ordering
    reverses. Measured V(0.3) - V(0.1) (the signs are the same with
    cutoff 8, 9 TMSV terms and exact displacements):

        eta             0.4      0.5      0.6      0.7      0.95
        V(0.3)-V(0.1)  -3.4e-3  -5.9e-4  +2.3e-3  +5.3e-3  +1.3e-2

    so the reversal sets in between eta = 0.5 and 0.6, and is asserted
    at eta = 0.4 and 0.5.

    Printed threshold (kept as data): the reversal at eta = 0.7, which
    the true circuit does not show. It comes from the criterion-7
    misprint: heralding with the printed quartic's roots reverses the
    ordering at eta = 0.7 (by -1.9e-2; not at 0.95, +3.1e-3). The test
    asserts both the true circuit's ordering and the printed roots'
    reversal at eta = 0.7.
    """
    etas = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
    vols = {}
    for r in (0.1, 0.2, 0.3):
        for eta in etas:
            vols[(r, eta)] = herald_point(HeraldConfig(s=4, r=r, eta=eta)).V
    monotone = all(vols[(r, etas[i])] < vols[(r, etas[i + 1])]
                   for r in (0.1, 0.2, 0.3) for i in range(len(etas) - 1))
    high = vols[(0.3, 0.95)] > vols[(0.1, 0.95)]
    low = all(vols[(0.3, eta)] < vols[(0.1, eta)] for eta in (0.4, 0.5))
    printed_low = vols[(0.3, 0.7)] < vols[(0.1, 0.7)]

    misprint = {}
    for r in (0.1, 0.3):
        cfg = HeraldConfig(s=4, r=r, eta=0.7)
        roots = solve_alphas(np.r_[1.0, _printed_quartic(cfg.q)])
        misprint[r] = negativity_volume(_heralded_density(cfg, roots))
    misprint_reverses = misprint[0.3] < misprint[0.1]

    ok = monotone and high and low and not printed_low and misprint_reverses
    lows = ", ".join(f"eta={eta} V(0.3)-V(0.1)="
                     f"{vols[(0.3, eta)] - vols[(0.1, eta)]:+.2e}"
                     for eta in (0.4, 0.5, 0.7))
    assert report(10, ok, f"monotone in eta {monotone}; at eta=0.95 "
                  f"V(0.3)={vols[(0.3, 0.95)]:.5f} > V(0.1)="
                  f"{vols[(0.1, 0.95)]:.5f} is {high}; {lows}: reversal at "
                  f"eta<=0.5 {low}, at printed eta=0.7 {printed_low} "
                  f"(printed roots reverse there: {misprint_reverses}, "
                  f"{misprint[0.3] - misprint[0.1]:+.2e})")


def test_criterion_11_printed_probability_formulas():
    """Photon-count statistics at the 50-50 splitter (ops convention
    a+ -> (a+ - b+)/sqrt2, b+ -> (a+ + b+)/sqrt2).

    Derivation. Reference |phi_j>_s in mode a, |phi_k>_s in mode b,
    d = phi_j - phi_k, N = (s+1)^2. The input's two-photon sector,
    (e^{2i phi_j}|2,0> + e^{i(phi_j+phi_k)}|1,1> + e^{2i phi_k}|0,2>)/(s+1),
    maps through |2,0> -> |2,0>/2 - |1,1>/sqrt2 + |0,2>/2,
    |0,2> -> |2,0>/2 + |1,1>/sqrt2 + |0,2>/2 and
    |1,1> -> (|2,0> - |0,2>)/sqrt2, so up to a common phase the output
    amplitudes are cos d + 1/sqrt2, -i sqrt2 sin d and cos d - 1/sqrt2:

        P(2,0) = (cos d + 1/sqrt2)^2 / N,  P(0,2) = (cos d - 1/sqrt2)^2 / N,
        P(1,1) = 2 sin^2 d / N,

    which sum to 3/N, the weight of the input's two-photon sector. The
    one-photon sector gives P(1,0) = (1 + cos d)/N, P(0,1) = (1 - cos d)/N.

    For s = 1, c_0|phi_0> + c_1|phi_1> with c = (r, sqrt(1-r^2) e^{i theta})
    is ((c_0+c_1)|0> + (c_0-c_1)|1>)/sqrt2; against the reference at
    phi = 0 the outputs |1,0> and |0,1> get c_0/sqrt2 and -c_1/sqrt2, so
    P(1,0;0) = r^2/2 and P(0,1;0) = (1-r^2)/2, summing to 1/2, the weight
    of the one-photon sector.

    Printed values (kept as data): P(0,2), P(2,0) = (1.5 -+ sqrt2 cos d)/N,
    which drop the -sin^2 d cross term, so with P(1,1) the two-photon
    sector sums to (3 + 2 sin^2 d)/N; and P(0,1;0) = (1-r)^2/2, which with
    P(1,0;0) = r^2/2 does not sum to 1/2. The test asserts both violations
    of photon-number conservation.
    """
    deltas = np.linspace(-3.0, 3.0, 8)
    worst = {}
    printed_excess = math.inf
    for s in (2, 3):
        norm = (s + 1.0) ** 2
        for d in deltas:
            phi_j, phi_k = 0.4, 0.4 - float(d)
            dist = interference_probs(phase_state(s, phi_j),
                                      phase_state(s, phi_k))
            derived = {
                (0, 0): 1 / norm,
                (0, 1): (1 - math.cos(d)) / norm,
                (1, 0): (1 + math.cos(d)) / norm,
                (0, 2): (math.cos(d) - 1 / math.sqrt(2)) ** 2 / norm,
                (2, 0): (math.cos(d) + 1 / math.sqrt(2)) ** 2 / norm,
                (1, 1): 2 * math.sin(d) ** 2 / norm,
            }
            printed = {
                (0, 2): (1.5 - math.sqrt(2) * math.cos(d)) / norm,
                (2, 0): (1.5 + math.sqrt(2) * math.cos(d)) / norm,
            }
            for key, val in derived.items():
                gap = abs(dist.frequencies()[key] - val)
                worst[key] = max(worst.get(key, 0.0), gap)
            printed_sum = printed[(0, 2)] + printed[(2, 0)] + derived[(1, 1)]
            printed_excess = min(printed_excess, printed_sum - 3 / norm)
    sup_worst = {"P(0,0;0)": 0.0, "P(0,1;0)": 0.0, "P(1,0;0)": 0.0}
    printed_sup_gap = math.inf
    for r in np.linspace(0.1, 0.9, 5):
        for theta in np.linspace(-2.5, 2.5, 5):
            c = np.array([r, math.sqrt(1 - r * r) * np.exp(1j * theta)])
            dist = superposition_probs(0.0, SuperpositionCoeffs(1, c))
            want00 = abs(r + math.sqrt(1 - r * r) * np.exp(1j * theta)) ** 2 / 4
            want01 = (1 - r * r) / 2
            want10 = r * r / 2
            printed01 = (1 - r) ** 2 / 2
            sup_worst["P(0,0;0)"] = max(sup_worst["P(0,0;0)"],
                                        abs(dist.frequencies()[0, 0] - want00))
            sup_worst["P(0,1;0)"] = max(sup_worst["P(0,1;0)"],
                                        abs(dist.frequencies()[0, 1] - want01))
            sup_worst["P(1,0;0)"] = max(sup_worst["P(1,0;0)"],
                                        abs(dist.frequencies()[1, 0] - want10))
            printed_sup_gap = min(printed_sup_gap,
                                  abs(printed01 + want10 - 0.5))
    gaps = {f"P{key}": val for key, val in worst.items()}
    gaps.update(sup_worst)
    printed_broken = printed_excess > 1e-10 and printed_sup_gap > 1e-10
    ok = all(v < 1e-10 for v in gaps.values()) and printed_broken
    detail = ", ".join(f"{k}:{v:.2e}" for k, v in gaps.items())
    assert report(11, ok, f"max formula gaps (<1e-10) {detail}; printed "
                  f"two-photon sum exceeds 3/(s+1)^2 by >= "
                  f"{printed_excess:.2e}, printed P(0,1;0)+P(1,0;0) misses "
                  f"1/2 by >= {printed_sup_gap:.2e}")


def test_criterion_12_estimation_round_trips():
    # exact two-setting phase recovery
    phase_err = 0.0
    for phi_k in (-2.1, -0.4, 0.9, 2.8):
        s, phi_j = 2, 0.3
        main_t = interference_probs(phase_state(s, phi_j),
                                    phase_state(s, phi_k))
        aux_phi = phi_j + math.pi / 2
        aux_t = interference_probs(phase_state(s, aux_phi),
                                   phase_state(s, phi_k))
        est = estimate_phase(main_t, phi_j, s, aux=(aux_phi, aux_t))
        phase_err = max(phase_err, abs(est.phi_k - phi_k))

    # exact s=1 (r, theta) recovery
    rt_err = 0.0
    for r, theta in [(0.3, 0.7), (0.6, -1.9), (0.8, 2.4)]:
        c = np.array([r, math.sqrt(1 - r * r) * np.exp(1j * theta)])
        truth = SuperpositionCoeffs(1, c)
        settings = [phase_value(1, 0), phase_value(1, 1), math.pi / 2]
        tables = [(p, superposition_probs(p, truth)) for p in settings]
        got = estimate_coefficients(tables, 1)
        r_hat = float(got.c[0].real)
        theta_hat = float(np.angle(got.c[1]))
        rt_err = max(rt_err, abs(r_hat - r), abs(theta_hat - theta))

    # Monte Carlo phase at 1e5 trials, 50 seeded repetitions
    s, phi_j, phi_k = 2, 0.0, 1.1
    d_main = interference_probs(phase_state(s, phi_j), phase_state(s, phi_k))
    aux_phi = phi_j + math.pi / 2
    d_aux = interference_probs(phase_state(s, aux_phi), phase_state(s, phi_k))
    phase_hits = 0
    for rep in range(50):
        est = estimate_phase(
            sample_outcomes(d_main, 100_000, seed=1000 + rep), phi_j, s,
            aux=(aux_phi, sample_outcomes(d_aux, 100_000, seed=2000 + rep)))
        if abs(est.phi_k - phi_k) < 0.05:
            phase_hits += 1

    # Monte Carlo s=2 coefficients, 50 seeded repetitions
    rng = np.random.default_rng(7)
    truth2 = gauge_fixed(rng.standard_normal(3) + 1j * rng.standard_normal(3), 2)
    settings2 = [phase_value(2, m) for m in range(3)]
    dists2 = [(p, superposition_probs(p, truth2)) for p in settings2]
    coeff_hits = 0
    for rep in range(50):
        tables = [(p, sample_outcomes(d, 100_000, seed=3000 + 7 * rep + i))
                  for i, (p, d) in enumerate(dists2)]
        got = estimate_coefficients(tables, 2)
        if np.abs(got.c - truth2.c).max() < 0.03:
            coeff_hits += 1

    ok = (phase_err < 1e-10 and rt_err < 1e-6
          and phase_hits >= 48 and coeff_hits >= 48)
    assert report(12, ok, f"exact phase err {phase_err:.2e} (<1e-10), "
                  f"exact (r,theta) err {rt_err:.2e} (<1e-6), "
                  f"MC phase {phase_hits}/50, MC coeffs {coeff_hits}/50 "
                  f"(both >=48)")


def test_criterion_13_cli_determinism(tmp_path):
    runs = [
        ["wigner-grid", "--s", "2", "--n", "7", "--extent", "3.0"],
        ["wigner-grid", "--s", "2", "--n", "5", "--format", "json"],
        ["negativity-sweep", "--s", "2"],
        ["radius-sweep", "--s", "3"],
        ["herald-sweep", "--s", "2", "--r-min", "0.1", "--r-max", "0.2",
         "--r-steps", "2", "--eta", "1.0,0.8"],
        ["phase-sim", "--s", "2", "--mode", "exact", "--phi-k", "0.7"],
        ["phase-sim", "--s", "1", "--mode", "montecarlo", "--trials", "5000",
         "--seed", "11", "--phi-k", "-0.4"],
        ["phase-sim", "--s", "1", "--target", "coefficients", "--mode",
         "montecarlo", "--trials", "5000", "--seed", "3", "--r", "0.6",
         "--theta", "0.8"],
    ]
    all_same = True
    for i, argv in enumerate(runs):
        a = tmp_path / f"run{i}a.out"
        b = tmp_path / f"run{i}b.out"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            all_same = False
    assert report(13, all_same,
                  f"{len(runs)} command variants re-run byte-identical: "
                  f"{all_same}")
