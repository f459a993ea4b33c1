import numpy as np
import pytest

from dualprox.cli import main
from dualprox.problems import ProblemInstance, build_market, save_instance
from dualprox.topology import Graph


@pytest.fixture
def market_file(tmp_path):
    path = tmp_path / "market.txt"
    save_instance(build_market(), path)
    return path


def parse_report(captured: str) -> dict:
    out = {}
    for line in captured.splitlines():
        if ":" in line:
            key, _, value = line.partition(":")
            out[key.strip()] = value.strip()
    return out


class TestValidateCommand:
    def test_market_file_passes(self, market_file, capsys):
        assert main(["validate", "--instance", str(market_file)]) == 0
        assert "graph_connected: ok" in capsys.readouterr().out

    def test_disconnected_file_fails(self, tmp_path):
        instance = build_market()
        broken = ProblemInstance(
            instance.agents, instance.b, Graph(5, [(1, 2), (1, 3), (2, 3)])
        )
        path = tmp_path / "broken.txt"
        save_instance(broken, path)
        assert main(["validate", "--instance", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--instance", str(tmp_path / "nope.txt")]) == 3

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("this is not an instance\n")
        assert main(["validate", "--instance", str(path)]) == 3


class TestSolveCommand:
    def test_market_solve_converges(self, market_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(
            ["solve", "--instance", str(market_file), "--trace-out", str(trace)]
        )
        out = parse_report(capsys.readouterr().out)
        assert code == 0
        assert out["converged"].startswith("true")
        x = np.array([float(v) for v in out["x_out"].split()])
        assert np.allclose(x, [0.0, 150.0, 48.5, 50.2, 51.3], atol=0.15)
        assert trace.exists()

    def test_iteration_cap_exit_code(self, market_file, tmp_path):
        code = main(
            [
                "solve",
                "--instance", str(market_file),
                "--max-iter", "1",
                "--trace-out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1

    def test_bad_step_size_rejected_before_running(self, market_file, tmp_path, capsys):
        code = main(
            [
                "solve",
                "--instance", str(market_file),
                "--c", "0.5",
                "--trace-out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2
        assert "1/c" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_trace_dir_env_fallback(self, market_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALPROX_TRACE_DIR", str(tmp_path))
        assert main(["solve", "--instance", str(market_file)]) == 0
        assert (tmp_path / "trace.csv").exists()


class TestMarketDemoCommand:
    def test_default_run_converges(self, tmp_path, capsys):
        trace = tmp_path / "market.csv"
        assert main(["market-demo", "--trace-out", str(trace)]) == 0
        out = parse_report(capsys.readouterr().out)
        assert out["converged"].startswith("true")

        header = trace.read_text().splitlines()[0].split(",")
        assert "phi" in header
        xi_cols = [h for h in header if h.startswith("xi_")]
        theta_cols = [h for h in header if h.startswith("theta_")]
        mu_cols = [h for h in header if h.startswith("mu_")]
        assert len(xi_cols) == 5
        assert len(theta_cols) == 5
        assert len(mu_cols) == 5

    def test_phi_column_settles(self, tmp_path):
        trace = tmp_path / "market.csv"
        main(["market-demo", "--trace-out", str(trace)])
        data = np.genfromtxt(trace, delimiter=",", names=True)
        phi = data["phi"]
        assert abs(phi[-1] - phi[-2]) <= 1e-3
        assert phi[-1] == pytest.approx(1108.115, abs=0.01)

    def test_same_config_gives_identical_trace_bytes(self, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["market-demo", "--trace-out", str(t1), "--seed", "7"]) == 0
        assert main(["market-demo", "--trace-out", str(t2), "--seed", "7"]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_nonconvergence_exit(self, tmp_path):
        code = main(
            ["market-demo", "--max-iter", "3", "--trace-out", str(tmp_path / "t.csv")]
        )
        assert code == 1


class TestBadSolverOptions:
    @pytest.mark.parametrize("command", ["solve", "market-demo"])
    @pytest.mark.parametrize(
        "option", [["--gamma", "0"], ["--trace-every", "0"]], ids=["gamma", "trace-every"]
    )
    def test_rejected_with_one_line_before_running(
        self, command, option, market_file, tmp_path, capsys
    ):
        trace = tmp_path / "t.csv"
        argv = [command, *option, "--trace-out", str(trace)]
        if command == "solve":
            argv += ["--instance", str(market_file)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert not trace.exists()

    def test_error_during_rounds_is_not_a_rejection(self, monkeypatch, tmp_path):
        import dualprox.solver

        def broken_round(*args, **kwargs):
            raise ValueError("raised inside a round")

        monkeypatch.setattr(dualprox.solver, "iterate", broken_round)
        with pytest.raises(ValueError, match="inside a round"):
            main(["market-demo", "--trace-out", str(tmp_path / "t.csv")])
