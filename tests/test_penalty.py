"""Penalty/cutoff arithmetic and the spec parsers."""

import math

import pytest

from markovorder import (
    AlphaLogCutoff,
    BICPenalty,
    ConstantCutoff,
    CsiszarPenalty,
    LogLogPenalty,
    SubLogCutoff,
    cutoff_value,
    parse_cutoff,
    parse_penalty,
    penalty_value,
)

E = math.e


class TestPenaltyValue:
    def test_bic_at_e_squared(self):
        assert penalty_value(BICPenalty(), E**2, 1, 2) == pytest.approx(2.0, abs=1e-12)

    def test_loglog_at_e_to_e(self):
        assert penalty_value(LogLogPenalty(5.0), E**E, 2, 2) == pytest.approx(20.0, abs=1e-12)

    def test_csiszar_at_e_cubed(self):
        assert penalty_value(CsiszarPenalty(1.0), E**3, 0, 2) == pytest.approx(3.0, abs=1e-12)

    def test_loglog_clamps_below_e_to_e(self):
        pen = LogLogPenalty(5.0)
        clamped = penalty_value(pen, E**E, 1, 2)
        assert penalty_value(pen, 5, 1, 2) == clamped
        assert clamped == pytest.approx(10.0, abs=1e-9)
        assert penalty_value(pen, 16, 1, 2) > clamped

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            penalty_value(LogLogPenalty(5.0), 2, 0, 2)

    def test_strictly_increasing_in_r(self):
        for spec in (LogLogPenalty(5.0), BICPenalty(), CsiszarPenalty(0.5)):
            for n in (64, 4096):
                values = [penalty_value(spec, n, r, 2) for r in range(5)]
                assert all(b > a for a, b in zip(values, values[1:]))

    def test_loglog_below_bic_once_logs_separate(self):
        # C log log n < (m-1)/2 log n makes the loglog penalty smaller
        pen_ll, pen_bic = LogLogPenalty(5.0), BICPenalty()
        for n in (2**10, 2**16, 2**24):
            lhs = 5.0 * math.log(math.log(n))
            rhs = 0.5 * 1 * math.log(n)
            ll = penalty_value(pen_ll, n, 3, 2)
            bic = penalty_value(pen_bic, n, 3, 2)
            assert (ll < bic) == (lhs < rhs)


class TestCutoffValue:
    def test_constant(self):
        spec = ConstantCutoff(3)
        for n in (16, 1000, 10**6):
            assert cutoff_value(spec, n, 2) == 3

    def test_alphalog_at_e_cubed(self):
        assert cutoff_value(AlphaLogCutoff(1.0), E**3, 2) == 3

    def test_alphalog_overflow_is_capped_or_named(self):
        assert cutoff_value(AlphaLogCutoff(1e308), 1000, 2) == 9

    def test_sublog_at_2_20(self):
        assert cutoff_value(SubLogCutoff(), 2**20, 2) == 6

    def test_hard_cap_applies(self):
        # without the cap the constant would exceed log2(n)
        assert cutoff_value(ConstantCutoff(10), 16, 2) == 4
        assert cutoff_value(ConstantCutoff(10**400), 16, 2) == 4  # beyond the float range

    def test_at_least_one(self):
        assert cutoff_value(SubLogCutoff(), 3, 2) == 1

    def test_nondecreasing_on_grid(self):
        grid = [2**k for k in range(4, 26)]
        for spec in (SubLogCutoff(), AlphaLogCutoff(0.5), ConstantCutoff(4)):
            values = [cutoff_value(spec, n, 2) for n in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestParsers:
    def test_penalty_roundtrip(self):
        assert parse_penalty("loglog C=5").C == 5.0
        assert isinstance(parse_penalty("bic"), BICPenalty)
        assert parse_penalty("csiszar c=0.5").c == 0.5
        with pytest.raises(ValueError):
            parse_penalty("loglog")
        with pytest.raises(ValueError):
            parse_penalty("mdl")

    def test_cutoff_roundtrip(self):
        assert isinstance(parse_cutoff("sublog"), SubLogCutoff)
        assert parse_cutoff("constant K=3").K == 3
        assert parse_cutoff("alphalog alpha=0.4").alpha == 0.4
        with pytest.raises(ValueError, match="unknown parameter 'hard_cap'"):
            parse_cutoff("sublog hard_cap=false")
        with pytest.raises(ValueError):
            parse_cutoff("always")
