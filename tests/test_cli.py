import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import pytest

import groverlab
import groverlab.cli as cli
from groverlab.cli import _top_outcomes, main
from groverlab.grover import MAX_STEPS, SearchProblem, check_steps
from groverlab.hamiltonians import validate_stepper
from groverlab.plane import PlaneCoords


#: t0 = 2 pi / (3 sqrt 3) at x = 1/2 (two qubits)
T0_HALF_OVERLAP = 1.2091995761561452


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def comment_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith("#") and f"{key}=" in line:
            fields = dict(
                part.split("=", 1) for part in line.lstrip("# ").split() if "=" in part
            )
            if key in fields:
                return fields[key]
    raise KeyError(key)


class TestGroverCommand:
    def test_optimal_two_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "grover", "--n", "2", "--w", "3", "--k", "optimal")
        assert code == 0
        assert comment_value(out, "k") == "1"
        assert float(comment_value(out, "p_final")) == pytest.approx(1.0, abs=1e-12)
        assert out.strip().splitlines()[-1].startswith("1,")

    def test_paper_count_reports_both(self, capsys):
        code, out, _ = run_cli(capsys, "grover", "--n", "4", "--w", "5", "--k", "paper")
        assert code == 0
        assert comment_value(out, "k") == "4"
        assert comment_value(out, "k_optimal") == "3"
        assert comment_value(out, "k_paper") == "4"
        assert float(comment_value(out, "p_optimal")) == pytest.approx(0.9613, abs=5e-4)
        assert float(comment_value(out, "p_paper")) == pytest.approx(0.5817, abs=5e-4)

    def test_builds_only_the_requested_k(self, capsys, monkeypatch):
        # p_optimal = sin^2(7 asin 1/4) and p_paper = sin^2(9 asin 1/4) come
        # from the closed form, not from a trajectory out to k_paper = 4
        calls = []
        original = cli.success_trajectory

        def spy(x, k):
            calls.append(k)
            return original(x, k)

        monkeypatch.setattr(cli, "success_trajectory", spy)
        code, out, _ = run_cli(capsys, "grover", "--n", "4", "--k", "1")
        assert code == 0
        assert calls == [1]
        a = math.asin(0.25)
        assert float(comment_value(out, "p_optimal")) == math.sin(7 * a) ** 2
        assert float(comment_value(out, "p_paper")) == math.sin(9 * a) ** 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "grover", "--n", "3", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert len(payload["trajectory"]) == 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_top_outcomes_are_register_indices(self, n):
        # a state with no target amplitude (|s> - x|w>): every other index is
        # likelier than w, and only the N indices may be listed
        x = 2.0 ** (-n / 2)
        for w in range(2**n):
            outcomes = _top_outcomes(PlaneCoords(0.0, math.sqrt(1.0 - x * x)), x, SearchProblem(n, w))
            indices = [index for index, _ in outcomes]
            others = [i for i in range(2**n) if i != w][:4]
            assert indices == (others + [w])[:4]
            assert [p for _, p in outcomes][: len(others)] == [x * x] * len(others)

    def test_long_trajectory_against_mpmath(self, capsys):
        # every 997th point and the last, k = 1e5, against sin^2((2j+1) asin x)
        # at 40 digits for the overlap the command reports
        code, out, _ = run_cli(capsys, "grover", "--n", "3", "--k", "100000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        trajectory = payload["trajectory"]
        assert len(trajectory) == 100001
        with mpmath.workdps(40):
            a = mpmath.asin(mpmath.mpf(payload["x"]))
            for j in [*range(0, 100001, 997), 100000]:
                exact = mpmath.sin((2 * j + 1) * a) ** 2
                assert abs(trajectory[j] - exact) <= 1e-11, j

    def test_usage_error_on_bad_n(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["grover", "--n", "0"])
        assert excinfo.value.code == 2

    def test_usage_error_on_bad_k(self, capsys):
        with pytest.raises(SystemExit):
            main(["grover", "--n", "2", "--k", "soon"])


class TestEvolveCommand:
    def test_fg_arrival(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--n", "2", "--hamiltonian", "fg", "--t", "arrival"
        )
        assert code == 0
        row = out.strip().splitlines()[-1].split(",")
        assert float(row[1]) == pytest.approx(1.0, abs=1e-10)  # fidelity

    def test_commutator_t0_matches_iterate_plus_projector(self, capsys):
        for energy in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "evolve", "--n", "2", "--hamiltonian", "commutator", "--t", "t0",
                "--energy", energy,
            )
            assert code == 0
            t = float(out.strip().splitlines()[-1].split(",")[0])
            assert t == pytest.approx(T0_HALF_OVERLAP / float(energy), rel=1e-12)
            assert comment_value(out, "grover_power") == "1"
            assert float(comment_value(out, "grover_power_distance")) < 1e-9

    def test_augmented_t0_matches_iterate(self, capsys):
        for energy in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "evolve", "--n", "2", "--hamiltonian", "augmented", "--t", "t0",
                "--energy", energy,
            )
            assert code == 0
            assert float(comment_value(out, "t0")) == pytest.approx(T0_HALF_OVERLAP / float(energy), rel=1e-12)
            assert comment_value(out, "grover_power") == "1"
            assert float(comment_value(out, "grover_power_distance")) < 1e-9

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evolve", "--n", "3", "--hamiltonian", "commutator", "--t", "2.5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["grover_power"] is None
        assert payload["out_of_plane"] < 1e-10
        norm_sq = (
            payload["c_sigma"][0] ** 2 + payload["c_sigma"][1] ** 2
            + payload["c_w"][0] ** 2 + payload["c_w"][1] ** 2
            + 2 * payload["x"] * (
                payload["c_sigma"][0] * payload["c_w"][0]
                + payload["c_sigma"][1] * payload["c_w"][1]
            )
        )
        assert norm_sq == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("hamiltonian", ["commutator", "augmented"])
    @pytest.mark.parametrize("t", ["1e17", "1e300"])
    def test_unresolvable_power_is_null(self, capsys, hamiltonian, t):
        # beyond about 8e6 t0/E the float spacing of t/(t0/E) exceeds the
        # 1e-9 integer test, so no Grover power can be told apart
        payload = json.loads(run_cli(
            capsys, "evolve", "--n", "3", "--hamiltonian", hamiltonian, "--t", t, "--format", "json"
        )[1])
        assert payload["grover_power"] is None
        assert payload["grover_power_distance"] is None

    @pytest.mark.parametrize("hamiltonian", ["commutator", "augmented"])
    def test_thousandth_power_is_resolved(self, capsys, hamiltonian):
        energy = 2.0
        x = 2.0**-1.5
        theta = math.acos(x)
        t0 = (math.pi - 2 * theta) / math.sin(2 * theta)
        code, out, _ = run_cli(
            capsys, "evolve", "--n", "3", "--hamiltonian", hamiltonian,
            "--t", repr(1000 * t0 / energy), "--energy", repr(energy), "--format", "json",
        )  # fmt: skip
        assert code == 0
        payload = json.loads(out)
        assert payload["grover_power"] == 1000
        assert payload["grover_power_distance"] <= 1e-9

    def test_rejects_unknown_hamiltonian(self):
        with pytest.raises(SystemExit):
            main(["evolve", "--n", "2", "--hamiltonian", "mystery"])

    def test_rejects_bad_time(self):
        with pytest.raises(SystemExit):
            main(["evolve", "--n", "2", "--hamiltonian", "fg", "--t", "later"])

    @pytest.mark.parametrize(
        "hamiltonian,option",
        [
            ("commutator", ("--t", "nan")),
            ("fg", ("--t", "inf")),
            ("augmented", ("--t=-inf",)),
            ("fg", ("--energy", "nan")),
            ("commutator", ("--energy", "inf")),
            ("augmented", ("--energy", "0")),
            ("fg", ("--energy", "1e-320")),
        ],
    )
    def test_unusable_time_or_energy_is_usage_error(self, hamiltonian, option):
        with pytest.raises(SystemExit) as excinfo:
            main(["evolve", "--n", "3", "--hamiltonian", hamiltonian, *option])
        assert excinfo.value.code == 2


class TestNaiveCommand:
    def test_small_instance_peak(self, capsys):
        code, out, _ = run_cli(capsys, "naive", "--n", "2", "--w", "1", "--eps", "0.01")
        assert code == 0
        assert float(comment_value(out, "peak_amplitude")) >= 0.999
        assert abs(int(comment_value(out, "peak_step")) - 60) <= 2

    def test_larger_register_peaks_sooner(self, capsys):
        # per-step rotation scales like eps * sqrt(N) sin(theta), so the
        # bigger register tops out in fewer steps
        _, out2, _ = run_cli(capsys, "naive", "--n", "2", "--w", "1", "--eps", "0.01")
        _, out4, _ = run_cli(capsys, "naive", "--n", "4", "--w", "0", "--eps", "0.01")
        assert int(comment_value(out4, "peak_step")) < int(comment_value(out2, "peak_step"))

    def test_usage_error_on_zero_eps(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["naive", "--n", "2", "--eps", "0"])
        assert excinfo.value.code == 2


class TestTrajectoryLimit:
    """grover's k and naive's step count are capped at MAX_STEPS."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("grover", "--n", "3", "--k", "100000000000"),
            ("naive", "--n", "4", "--eps", "1e-12"),
            ("naive", "--n", "4", "--eps", "0.01", "--max-steps", str(10**12)),
        ],
    )
    def test_overlong_trajectory_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert str(MAX_STEPS) in capsys.readouterr().err

    def test_count_at_the_limit_is_accepted(self):
        assert MAX_STEPS == 10**7
        assert check_steps(MAX_STEPS) == MAX_STEPS
        validate_stepper(0.01, MAX_STEPS)
        for rule in (check_steps, lambda count: validate_stepper(0.01, count)):
            with pytest.raises(ValueError):
                rule(MAX_STEPS + 1)


class TestVerifyCommand:
    def test_passing_sweep_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--checks", "theorem_main,fg_arrival", "--n", "2..4"
        )
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert lines[0].startswith("check_name,")
        assert len(lines) == 13  # header + two rows per check per n

    def test_theorem_json_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "theorem_main", "--n", "2..4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 6
        assert all(row["passed"] for row in payload["rows"])

    def test_failing_sweep_lists_rows_and_exits_nonzero(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--checks", "norm_gap", "--n", "4..6")
        assert code == 1
        assert "failing check row" in err
        assert "norm_gap" in err

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--checks", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for name in ("theorem_main", "norm_gap", "corollary", "fg_arrival"):
            assert name in err

    @pytest.mark.parametrize("option", [("--seed", "3"), ("--energy", "2")])
    def test_removed_options_are_usage_errors(self, option):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--checks", "theorem_main", "--n", "2", *option])
        assert excinfo.value.code == 2

    def test_reversed_range_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--n", "8..2"])
        assert excinfo.value.code == 2

    def test_duplicate_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--checks", "corollary,norm_gap,corollary", "--n", "2..3"])
        assert excinfo.value.code == 2
        assert "['corollary'] given more than once" in capsys.readouterr().err

    def test_output_file_and_determinism(self, capsys, tmp_path):
        target_a = tmp_path / "a.csv"
        target_b = tmp_path / "b.csv"
        for target in (target_a, target_b):
            code = main(
                ["verify", "--checks", "corollary", "--n", "2..5", "--out", str(target)]
            )
            assert code == 0
        assert target_a.read_bytes() == target_b.read_bytes()


class TestUsageErrors:
    """A rule's usage error names the subcommand and shows its options."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("grover", "--n", "21"), "qubit count"),
            (("evolve", "--n", "3", "--hamiltonian", "fg", "--energy", "0"), "energy"),
            (("naive", "--n", "2", "--eps", "0"), "step size"),
            (("verify", "--n", "8..2"), "reversed"),
        ],
        ids=("grover", "evolve", "naive", "verify"),
    )
    def test_range_error_shows_the_subcommand_usage(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        command = argv[0]
        assert err.startswith(f"usage: groverlab {command} [-h]")
        assert f"groverlab {command}: error:" in err
        assert message in err

    @pytest.mark.parametrize("command", [("grover", "--n", "3"), ("verify", "--n", "2")], ids=("grover", "verify"))
    def test_unwritable_out_is_usage_error(self, tmp_path, command):
        # a directory, and a file in a directory that does not exist
        for out in (tmp_path, tmp_path / "missing" / "out.csv"):
            done = subprocess.run(
                [sys.executable, "-m", "groverlab", *command, "--out", str(out)], capture_output=True, text=True,
                timeout=60, env={**os.environ, "PYTHONPATH": str(Path(groverlab.__file__).resolve().parents[1])},
            )  # fmt: skip
            assert done.returncode == 2, done.stderr
            assert f"groverlab {command[0]}: error: --out: cannot write" in done.stderr
            assert "Traceback" not in done.stderr


class TestWithoutNumpy:
    """No command imports NumPy: each runs with the import blocked."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["grover", "--n", "12", "--w", "7"], 0),
            *((["evolve", "--n", "10", "--w", "3", "--hamiltonian", h], 0) for h in ("fg", "commutator", "augmented")),
            (["naive", "--n", "12", "--eps", "0.001"], 0),
            (["verify", "--checks", "all", "--n", "2..20"], 1),  # the norm_gap rows fail by design
        ],
        ids=("grover", "evolve-fg", "evolve-commutator", "evolve-augmented", "naive", "verify"),
    )
    def test_command_runs_with_numpy_blocked(self, argv, code):
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from groverlab.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        src = str(Path(groverlab.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": src},
        )  # fmt: skip
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr


class TestMemory:
    """The commands compute on the (start, target) plane: their peak traced
    allocation stays far below one 1024 x 1024 complex array (16 MB)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--checks", "corollary", "--n", "12..12"),
            ("grover", "--n", "12"),
            ("naive", "--n", "12", "--eps", "0.001"),
            *(("evolve", "--n", "10", "--hamiltonian", h) for h in ("fg", "commutator", "augmented")),
        ],
    )
    def test_peak_allocation_below_8_mb(self, capsys, argv):
        tracemalloc.start()
        try:
            code = main(list(argv))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
