import json
import math

import numpy as np
import pytest

import groverlab.verification as verification
from groverlab.verification import (
    CHECK_NAMES,
    CheckReport,
    norm_gap_vs_prediction,
    run_sweep,
    to_csv,
    to_json,
    verify_corollary,
    verify_fg_arrival,
    verify_theorem_main,
)


class TestTheoremMain:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exact_match(self, n):
        once, twice = verify_theorem_main(n)
        assert once.check_name == "theorem_main_iterate"
        assert twice.check_name == "theorem_main_square"
        assert once.measured < 1e-9 and once.passed
        assert twice.measured < 1e-9 and twice.passed

    def test_perturbed_time_breaks_the_match(self):
        once, _ = verify_theorem_main(2, time_scale=1.1)
        assert once.measured > 1e-3
        assert not once.passed

    @pytest.mark.parametrize("n", [1, 21])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            verify_theorem_main(n)


class TestNormGap:
    def test_prediction_column_carries_the_estimate(self):
        row = norm_gap_vs_prediction(4)
        x = 0.25
        assert row.predicted == pytest.approx((2 / 3) * x**3 * math.sqrt(1 - x * x), abs=1e-12)
        assert row.predicted == pytest.approx(0.0100859, abs=1e-7)
        assert row.tolerance == pytest.approx(5 * x**5, abs=1e-15)

    def test_measured_gap_matches_closed_form(self):
        # |e^{ -iH } - (G+2P)| = 2 sin(eta (t0-1) / 2) since the two unitaries
        # share eigenvectors and differ only in the plane phases
        row = norm_gap_vs_prediction(4)
        x = 0.25
        theta = math.acos(x)
        eta = math.sin(2 * theta)
        t0 = (math.pi - 2 * theta) / eta
        assert row.measured == pytest.approx(2 * math.sin(eta * (t0 - 1) / 2), abs=1e-12)
        assert row.measured == pytest.approx(0.021237192889, abs=1e-9)

    def test_measured_constant_is_four_thirds(self):
        # the x^3 coefficient of the measured gap is 4/3, twice the estimate
        # carried in the predicted column, so the row honestly fails
        row = norm_gap_vs_prediction(10)
        x = row.x
        assert row.measured / x**3 == pytest.approx(4 / 3, rel=0.01)
        assert abs(row.measured - (4 / 3) * x**3 * math.sqrt(1 - x * x)) <= row.tolerance
        assert not row.passed

    def test_cubic_scaling_between_sizes(self):
        gap8 = norm_gap_vs_prediction(8).measured
        gap10 = norm_gap_vs_prediction(10).measured
        assert gap10 / gap8 == pytest.approx(1 / 8, rel=0.05)


class TestCorollary:
    def test_rounded_time_lands_within_the_envelope(self):
        row = verify_corollary(4)
        assert row.measured == pytest.approx(0.20245357542, abs=1e-9)
        assert row.measured <= row.tolerance == pytest.approx(0.25, abs=1e-15)
        assert row.passed

    def test_exact_arrival_time_is_sharp(self):
        x = 0.25
        theta = math.acos(x)
        eta = math.sin(2 * theta)
        row = verify_corollary(4, t=theta / eta)
        assert row.measured < 1e-9

    def test_monotone_decrease(self):
        values = [verify_corollary(n).measured for n in (4, 6, 8, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_scaled_error_tracks_sqrt_dim(self):
        # measured ~ x = N^{-1/2}: measured * sqrt(N) stays near 1 while
        # measured * N grows, so only the sqrt(N) normalisation is flat
        rows = [verify_corollary(n) for n in (4, 6, 8, 10)]
        scaled = [row.measured * math.sqrt(row.dim) for row in rows]
        assert max(scaled) / min(scaled) < 1.5
        blown = [row.measured * row.dim for row in rows]
        assert blown[-1] / blown[0] > 5.0


class TestFgArrival:
    @pytest.mark.parametrize("n,energy", [(2, 1.0), (4, 0.5), (6, 2.0)])
    def test_arrival(self, n, energy):
        fidelity, state = verify_fg_arrival(n, energy)
        assert fidelity.measured == pytest.approx(1.0, abs=1e-10)
        assert state.measured < 1e-9
        assert fidelity.passed and state.passed

    @pytest.mark.parametrize("energy", [0.0, -1.0, math.nan])
    def test_rejects_unusable_energy(self, energy):
        with pytest.raises(ValueError):
            verify_fg_arrival(3, energy)

    def test_half_time_fidelity(self):
        # half-way fidelity is sqrt((1+x^2)/2): the sigma component still
        # overlaps the target through the non-orthogonal cross term
        fidelity, _ = verify_fg_arrival(2, 1.0, time_scale=0.5)
        x = 0.5
        assert fidelity.measured == pytest.approx(math.sqrt((1 + x * x) / 2), abs=1e-9)
        assert fidelity.measured == pytest.approx(0.790569415042, abs=1e-9)
        assert not fidelity.passed


class TestCheckReport:
    def test_passed_is_recomputable(self):
        rows = list(verify_theorem_main(3)) + [norm_gap_vs_prediction(6), verify_corollary(5)]
        for row in rows:
            assert row.passed == (abs(row.measured - row.predicted) <= row.tolerance)

    def test_from_measurement(self):
        row = CheckReport.from_measurement("demo", 3, 0.125, 1.0, 0.5, 0.4, 0.2)
        assert row.dim == 8
        assert row.passed
        row = CheckReport.from_measurement("demo", 3, 0.125, 1.0, 0.7, 0.4, 0.2)
        assert not row.passed


class TestRunSweep:
    def test_rows_are_sorted_and_complete(self):
        result = run_sweep(["theorem_main", "fg_arrival"], (2, 4))
        keys = [(row.check_name, row.n) for row in result.rows]
        assert keys == sorted(keys)
        assert len(result.rows) == 12  # two rows per check per n
        assert result.all_passed

    def test_theorem_row_count_matches_range(self):
        result = run_sweep(["theorem_main"], (2, 4))
        assert len(result.rows) == 6

    def test_norm_gap_rows_report_failure(self):
        result = run_sweep(["norm_gap"], (4, 6))
        assert len(result.rows) == 3
        assert not result.all_passed

    def test_every_check_runs_at_every_n(self):
        result = run_sweep(["corollary", "theorem_main"], (11, 12))
        keys = [(row.check_name, row.n) for row in result.rows]
        assert keys == [
            ("corollary", 11),
            ("corollary", 12),
            ("theorem_main_iterate", 11),
            ("theorem_main_iterate", 12),
            ("theorem_main_square", 11),
            ("theorem_main_square", 12),
        ]

    @pytest.mark.parametrize(
        "check,function",
        [
            ("theorem_main", "verify_theorem_main"),
            ("norm_gap", "norm_gap_vs_prediction"),
            ("corollary", "verify_corollary"),
            ("fg_arrival", "verify_fg_arrival"),
        ],
    )
    def test_calls_the_check_bound_at_call_time(self, monkeypatch, check, function):
        # a wrapper installed on the module, as a tracer installs one, runs
        calls = []
        original = getattr(verification, function)

        def wrapper(n, *args, **kwargs):
            calls.append(n)
            return original(n, *args, **kwargs)

        monkeypatch.setattr(verification, function, wrapper)
        run_sweep([check], (2, 3))
        assert calls == [2, 3]

    def test_empty_check_list(self):
        result = run_sweep([], (2, 4))
        assert result.rows == ()
        assert result.all_passed

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            run_sweep(["theorem_main"], (6, 2))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match=r"\['corollary'\] given more than once"):
            run_sweep(["corollary", "theorem_main", "corollary"], (2, 3))

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError) as excinfo:
            run_sweep(["bogus"], (2, 4))
        for name in CHECK_NAMES:
            assert name in str(excinfo.value)


class TestSerialization:
    def test_csv_is_deterministic(self):
        first = to_csv(run_sweep(["theorem_main"], (2, 3)))
        second = to_csv(run_sweep(["theorem_main"], (2, 3)))
        assert first == second

    def test_csv_header_and_booleans(self):
        text = to_csv(run_sweep(["corollary"], (2, 3)))
        lines = text.strip().split("\n")
        assert lines[0] == "check_name,n,N,x,t0,measured,predicted,tolerance,passed"
        assert len(lines) == 3
        assert lines[1].endswith(",true")

    def test_json_round_trip(self):
        result = run_sweep(["fg_arrival"], (2, 3))
        payload = json.loads(to_json(result))
        assert "seed" not in payload["metadata"]  # nothing in a sweep is random
        assert "timestamp" in payload["metadata"]
        assert len(payload["rows"]) == 4
        for record in payload["rows"]:
            assert set(record) == {
                "check_name", "n", "N", "x", "t0", "measured", "predicted", "tolerance", "passed",
            }

    def test_json_stable_apart_from_timestamp(self):
        a = json.loads(to_json(run_sweep(["corollary"], (2, 4))))
        b = json.loads(to_json(run_sweep(["corollary"], (2, 4))))
        a["metadata"].pop("timestamp")
        b["metadata"].pop("timestamp")
        assert a == b
