"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report.  Each criterion names the ``verify`` checks it rests on, whose
ranges and tolerances are pinned in those checks; the ``check`` fixture runs
each one once per session.  A time bound applies to the summed elapsed time
of the named checks.  What no check holds is asserted here ("here" below):

  1. gothic volume: direct/main at D = 2000 within 5%, Richardson within 1%;
     the four closed-form summands within 2% at D = 4000; under 5 minutes
  2. H(2) volume: direct at D = 4000 within 1%, under 10 seconds
  3. P3/P4 volumes: direct at D = 4000 within 2%; the closed forms equal
     the direct path exactly at every D <= 2000 and at the D = 4000
     checkpoints
  4. permutation oracle == cd_count(H2, d) for d = 1..15, under 2 minutes
  5. modular-form oracle: e_and_a for all valid D <= 4000, k in {1, 6};
     series product == ek_coeff up to n = 4000 (exact)
  6. exact identities: sigma*a = sigma_3 to 10^5; the ebar_1 moebius identity
     to 2000; the e*_6 Euler product against the e*_1 combination, d <= 500;
     the a-recursion to 2000 (exact)
  7. here: asymptotic deviations of e(d^2, k): max over [1000, 2000] no
     larger than max over [250, 500], both finite
  8. S_k asymptotics at 10^5 within 1%, under 30 seconds
  9. ideal/polarization suite exact for d <= 500: class counts, polarization
     pairs, symplectic type
 10. AEZ convention constants reproduced exactly
"""

import math

from gothicvol import zagier

ESTIMATOR = "volume estimators inside the acceptance tolerances"


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def criterion(num, check, names, under_s=math.inf, ok=True, detail=""):
    """Report criterion num: the named checks pass within under_s in total,
    and ok holds for what the criterion asserts itself (described by detail)."""
    results = [check(name) for name in names]
    elapsed = sum(r.elapsed_s for r in results)
    ok = ok and all(r.ok for r in results) and elapsed < under_s
    parts = [f"[{'ok' if r.ok else 'FAIL'}] {r.name}: {r.detail}" for r in results]
    if detail:
        parts.append(detail)
    report(num, ok, "; ".join(parts) + f"; {elapsed:.1f}s")


def test_criterion_1_gothic_volume(check):
    criterion(1, check, [
        ESTIMATOR,
        "gothic closed summands match their exact limits within 2% at D = 4000",
    ], under_s=300)


def test_criterion_2_h2_volume(check):
    criterion(2, check, [ESTIMATOR], under_s=10)


def test_criterion_3_prym_volumes(check):
    criterion(3, check, [
        ESTIMATOR,
        "P4 direct equals closed at every D <= 2000; P3 and gothic too",
        "volume_estimate direct equals closed at the D = 4000 checkpoints",
    ])


def test_criterion_4_oracle_equivalence(check):
    criterion(4, check, ["permutation oracle equals cd_count(H2, d), d = 1..15"], under_s=120)


def test_criterion_5_modular_form_oracle(check):
    criterion(5, check, [
        "e_k(D) = sum_{m|f} e(D/m^2, k), all valid D <= 4000, k in {1,6}",
        "F_k series product equals divisor-sum e_k(n), n <= 4000, k in {1,6}",
    ])


def test_criterion_6_exact_identities(check):
    criterion(6, check, [
        "(sigma * a)(n) = sigma_3(n) for n <= 10^5",
        "(12/5) moebius-sum of ebar_1(m^2) equals a(d), d <= 2000",
        "e*_6(d^2) Euler product equals the four-term e*_1 combination, d <= 500",
        "a(d) = p^(3v-2)(p^2-1) a(d_p) for all p | d, d <= 2000",
    ])


def test_criterion_7_asymptotic_constants():
    rep = zagier.asymptotic_check_e(2000)
    hi1 = max(rep.delta1[1000:2001])
    lo1 = max(rep.delta1[250:501])
    hi6 = max(rep.delta6[1000:2001])
    lo6 = max(rep.delta6[250:501])
    ok = (
        math.isfinite(hi1) and math.isfinite(hi6) and hi1 <= lo1 and hi6 <= lo6
    )
    report(
        7,
        ok,
        f"delta1 [1000,2000] {hi1:.4f} <= [250,500] {lo1:.4f}; "
        f"delta6 {hi6:.4f} <= {lo6:.4f}",
    )


def test_criterion_8_sk_asymptotics(check):
    criterion(8, check, [
        "S_k asymptotics: ratio in [0.99, 1.01] at 10^5, O(1/D) deviation",
    ], under_s=30)


def test_criterion_9_ideal_polarization_suite(check):
    criterion(9, check, [
        "class_count = sigma_0(6/(d,6)) = deduplicated ideal count, d <= 500",
        "polarization restriction = (lcm(d,r), lcm(d,6/r)), d <= 500",
        "trace pairing has symplectic type (1,6), d <= 500",
    ])


def test_criterion_10_convention_converter(check):
    criterion(10, check, ["AEZ conversion constants are reproduced exactly"])
