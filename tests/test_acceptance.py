"""Acceptance suite: one test per criterion, exact equality everywhere
(no tolerances; the arithmetic layer is exact).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; run times are minutes, dominated by the order-8 sweeps and the
size-7 interpolation oracle.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction as F

from arborq import solvers as S
from arborq import trees as T
from arborq import verify as V
from arborq.algebra import (
    QPoly,
    QRAT_ONE,
    QRat,
    XPoly,
    cyclotomic,
    one_plus_qx,
    q_int_poly,
)
from tests import qrat_reference as R

EX5 = T.b_plus([T.leaf(), T.b_plus([T.leaf(), T.leaf()])])

PHI2, PHI3, PHI4, PHI5 = (cyclotomic(d) for d in (2, 3, 4, 5))


def _report(num: int, name: str):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def lin_factor(i: int) -> XPoly:
    return XPoly((q_int_poly(i), QPoly.q_power(i)))


def test_criterion_01_golden_pawn_terms():
    t0 = time.perf_counter()
    pawn = R.solve_pawn(3)
    assert pawn.coeff(T.leaf()) == one_plus_qx()
    assert pawn.coeff(T.lnr(2)) == (one_plus_qx() * lin_factor(2)) / QRat(PHI2)
    assert pawn.coeff(T.lnr(3)) == (
        one_plus_qx() * lin_factor(2) * lin_factor(3)
    ) / QRat(PHI2 * PHI3)
    last = XPoly((QPoly((1, 1, 1)), QPoly((0, 0, 1, 1))))
    assert pawn.coeff(T.crl(2)) == (one_plus_qx() * lin_factor(2) * last) / QRat(
        PHI2 * PHI3
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"golden-term reproduction took {elapsed:.2f}s"
    _report(1, "golden low-order series terms")


def test_criterion_02_golden_omega_bar():
    ob = S.solve_omega_bar(4)
    expected = {
        T.leaf(): QRAT_ONE,
        T.lnr(2): QRat(1, PHI2),
        T.lnr(3): QRat(1, PHI3),
        T.crl(2): QRat(1, PHI2 * PHI3),
        T.lnr(4): QRat(1, PHI2 * PHI4),
        T.b_plus([T.crl(2)]): QRat(1, PHI3 * PHI4),
        T.b_plus([T.lnr(2), T.leaf()]): QRat(1, PHI2 * PHI3 * PHI4),
        T.crl(3): QRat(QPoly((1, -1)), PHI2 * PHI3 * PHI4),
    }
    assert len(ob.coeffs) == 8
    for t, want in expected.items():
        assert ob.coeff(t) == want, T.encoding(t)
    _report(2, "variant series matches all eight golden terms")


def test_criterion_03_five_vertex_example_tree():
    num, den = S.pawn_fraction(EX5)
    assert den == q_int_poly(2) * q_int_poly(3) * q_int_poly(4) * q_int_poly(5)
    quartic = XPoly(
        (
            QPoly((1, 2, 3, 4, 4, 3, 2, 1)),
            QPoly((0, 0, 1, 3, 6, 6, 5, 4, 2)),
            QPoly((0, 0, 0, 0, 0, 1, 2, 2, 2, 1)),
        )
    )
    printed = one_plus_qx() * lin_factor(2) * lin_factor(3) * quartic
    assert S.pawn_coeff(EX5) * QRat(den) == printed
    assert S.coloring_poly(EX5, 1, "weak") == QPoly((1, 1, 2, 3, 3, 1))
    assert S.coloring_poly(EX5, 3, "strict") == QPoly(
        (0, 0, 0, 1, 2, 2, 4, 4, 3, 1)
    )
    assert S.omega_bar_coeff(EX5) == QRat(
        QPoly((1, 1, 0, -1)), PHI2 * PHI3 * PHI4 * PHI5
    )
    _report(3, "five-vertex example tree values")


def test_criterion_04_oracle_equivalence():
    trees7 = [t for n in range(1, 8) for t in T.enumerate_trees(n)]
    assert len(trees7) == 85
    for t in trees7:
        assert V.oracle_interpolate_pawn(t) == S.pawn_coeff(t), T.encoding(t)
    for t in trees7:
        for n in range(0, 4):
            for mode in ("weak", "strict"):
                assert V.oracle_colorings(t, n, mode) == S.coloring_poly(
                    t, n, mode
                ), (T.encoding(t), n, mode)
    _report(4, "interpolation and coloring oracles agree on all 85 trees <= 7")


def test_criterion_05_theorem_sweeps():
    sweeps = [
        ("valeur_n_positif", 6, {"n_range": (2, 4)}),
        ("valeur_n_negatif", 6, {"n_range": (2, 4)}),
        ("valeur_speciale", 6, {}),
        ("ombral_iti", 7, {}),
        ("ombral_nui", 7, {}),
        ("action_delta", 6, {}),
        ("facteurs_connus", 8, {}),
        ("x_infinity", 8, {}),
        ("prop_gen", 6, {}),
        ("fbar_vs_cover", 9, {}),
    ]
    for name, order, kwargs in sweeps:
        report = V.check_theorem(name, order, **kwargs)
        assert report.ok(), (name, report.witness)
    _report(5, "theorem sweeps exact at stated orders")


def test_criterion_06_bernoulli_data():
    want = [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0),
            F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730)]
    got = [R.bernoulli_carlitz(k).evaluate(1) for k in range(13)]
    assert got == want
    for k in range(2, 11):
        b = R.bernoulli_carlitz(k)
        sign = 1 if k % 2 == 0 else -1
        assert b.reciprocal_q() == b * QRat(QPoly.q_power(k - 1).scale(sign))
    _report(6, "Carlitz numbers at q=1 and reflection identity")


def test_criterion_07_classical_sequences_at_q1():
    bernoulli = [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0),
                 F(-1, 30)]
    for k in range(9):  # corolla with k leaves has k+1 <= 9 vertices
        assert S.omega_coeff(T.crl(k)).evaluate(1) == bernoulli[k]
    doubles = [F(1, 3), F(1, 30), F(-1, 105), F(1, 210)]
    for k in (1, 2, 3, 4):  # 2k+1 <= 9 vertices
        got = S.omega_coeff(T.b_plus([T.lnr(2)] * k)).evaluate(1)
        assert got == doubles[k - 1]
    _report(7, "classical limits: corolla and double-corolla sequences")


def test_criterion_08_conjecture_sweeps():
    report = V.check_corolla_denominator(12)
    assert report.ok(), report.witness
    report = V.check_newton_sweep(8)
    assert report.ok(), report.witness
    assert V.check_partition_conjecture((1,), 3).ok()
    assert V.check_partition_conjecture((1,), 5, order_cap=12).ok()
    _report(8, "conjecture sweeps at desk scale")


def test_criterion_09_zeta_consistency():
    for k in range(6):
        assert R.pawn_one_minus_q_inverse(k, 20) == R.colorings_sum_series(k, 20), k
    _report(9, "specialized corolla series match the summation through q^20")


def test_criterion_10_determinism():
    cmd = [sys.executable, "-m", "arborq.cli", "compute", "pawn", "--order", "6",
           "--format", "json"]
    run1 = subprocess.run(cmd, capture_output=True, check=True)
    run2 = subprocess.run(cmd, capture_output=True, check=True)
    assert run1.stdout == run2.stdout
    assert run1.stdout.strip()
    from arborq.cli import main as cli_main
    import io
    from contextlib import redirect_stdout

    outs = []
    for workers in ("1", "4"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(["compute", "pawn", "--order", "6", "--workers", workers]) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert outs[0] == run1.stdout.decode()
    _report(10, "byte-identical output across runs and worker counts")
