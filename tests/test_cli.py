import dataclasses

import numpy as np
import pytest

import dualprox.cli as cli
import dualprox.solver as solver
from dualprox.cli import main
from dualprox.problems import MarketParams, ProblemInstance, build_market, market_graph, save_instance
from dualprox.solver import SolverConfig
from dualprox.topology import Graph

from oracles import per_agent_market
from test_problems import box_bounds_of_the_wrong_length


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

    @pytest.mark.parametrize(
        "old, new", [("edge = 1 2", "edge = 1 x"), ("kappa = 0.2", "kappa = half")],
        ids=["edge", "kappa"],
    )
    def test_malformed_number_is_a_parse_error(self, market_file, capsys, old, new):
        market_file.write_text(market_file.read_text().replace(old, new, 1))
        assert main(["validate", "--instance", str(market_file)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad number" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_section_is_a_parse_error(self, market_file, capsys):
        market_file.write_text(market_file.read_text() + "\n[agnet 1]\nkappa = 0.9\n")
        assert main(["validate", "--instance", str(market_file)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown section [agnet 1]" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_repeated_section_is_a_parse_error(self, market_file, tmp_path, capsys, command):
        market_file.write_text(market_file.read_text() + "\n[agent 2]\n")
        args = [command, "--instance", str(market_file)]
        if command == "solve":
            args += ["--trace-out", str(tmp_path / "t.csv")]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "duplicate section [agent 2]" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize(
        "old, new", [("a_block = 1.0", "a_block = nan"), ("f.q = 8.71", "f.q = nan")],
        ids=["a_block", "f.q"],
    )
    def test_non_finite_number_is_a_parse_error(
        self, market_file, tmp_path, capsys, command, old, new
    ):
        market_file.write_text(market_file.read_text().replace(old, new, 1))
        args = [command, "--instance", str(market_file)]
        if command == "solve":
            args += ["--max-iter", "3000", "--trace-out", str(tmp_path / "t.csv")]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [agent 1] ") and "nan" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_unknown_key_is_a_parse_error(self, market_file, tmp_path, capsys, command):
        market_file.write_text(market_file.read_text().replace("kappa = 0.2", "kapa = 0.9", 1))
        args = [command, "--instance", str(market_file)]
        if command == "solve":
            args += ["--trace-out", str(tmp_path / "t.csv")]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 17: unknown key 'kapa' in [agent 1]\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_box_bounds_of_the_wrong_length_is_a_parse_error(self, tmp_path, capsys, command):
        path = tmp_path / "bad_box.txt"
        path.write_text(box_bounds_of_the_wrong_length())
        args = [command, "--instance", str(path)]
        if command == "solve":
            args += ["--trace-out", str(tmp_path / "t.csv")]
        assert main(args) == 3
        assert "box bounds" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


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

    def test_suggested_step_at_a_large_gamma_is_accepted(self, tmp_path, capsys):
        """At ``--gamma 4736`` the boundary step's ``1/c`` lies an ulp below
        ``h + gamma*tau`` = 24002.6, which an absolute 1e-12 slack rejected
        as a set-up error (exit 2); the run must start and stop at its
        iteration cap instead."""
        trace = tmp_path / "t.csv"
        argv = ["market-demo", "--gamma", "4736", "--max-iter", "3", "--trace-out", str(trace)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert parse_report(captured.out)["step_sizes"].endswith("gamma=4736.0")
        assert len(trace.read_text().splitlines()) == 1 + 2  # header, rounds 0 and 3

    def test_same_bytes_as_a_market_built_one_agent_at_a_time(
        self, tmp_path, capsys, monkeypatch
    ):
        """The stacked, once-checked market gives the trace CSV and stdout of
        the market whose agents are each constructed and checked alone."""
        runs = []
        for name in ("stacked", "per-agent"):
            if name == "per-agent":
                monkeypatch.setattr(
                    cli, "build_market",
                    lambda: per_agent_market(MarketParams.default(), market_graph()),
                )
            trace = tmp_path / f"{name}.csv"
            code = main(["market-demo", "--trace-every", "1", "--trace-out", str(trace)])
            out = capsys.readouterr().out.replace(str(trace), "TRACE")
            runs.append((code, out, trace.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


@pytest.mark.parametrize("command", ["solve", "market-demo"])
def test_every_flag_default_is_the_solver_config_default(command):
    argv = [command] + (["--instance", "x.txt"] if command == "solve" else [])
    args = cli.build_parser().parse_args(argv)
    default = SolverConfig()
    for name in cli._CONFIG_FIELDS:
        assert getattr(args, name) == getattr(default, name), name
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields - set(cli._CONFIG_FIELDS) == {"trace_state"}


class TestBadSolverOptions:
    @pytest.mark.parametrize("command", ["solve", "market-demo"])
    @pytest.mark.parametrize(
        "option",
        [["--gamma", "0"], ["--trace-every", "0"], ["--c", "nan"], ["--gamma", "nan"],
         ["--gamma", "inf"], ["--max-iter", "-1"], ["--tol-step", "nan"],
         ["--tol-primal", "-1"], ["--tol-consensus", "nan"]],
        ids=["gamma", "trace-every", "c-nan", "gamma-nan", "gamma-inf", "max-iter",
             "tol-step-nan", "tol-primal-negative", "tol-consensus-nan"],
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
        def broken_round(*args, **kwargs):
            raise ValueError("raised inside a round")

        monkeypatch.setattr(solver, "iterate", broken_round)
        with pytest.raises(ValueError, match="inside a round"):
            main(["market-demo", "--trace-out", str(tmp_path / "t.csv")])


class TestUnwritableTrace:
    """A trace file that cannot be written is an I/O failure (exit 3) with
    one line on stderr, reported before round 0, not a traceback and exit 1
    after the rounds."""

    @pytest.mark.parametrize("command", ["solve", "market-demo"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory", "env-missing-dir"])
    def test_exits_3_with_one_line(
        self, command, target, market_file, tmp_path, monkeypatch, capsys
    ):
        def no_rounds(*args, **kwargs):
            raise AssertionError("a round ran before the trace path was checked")

        monkeypatch.setattr(solver, "iterate", no_rounds)
        argv = [command, "--max-iter", "20"]
        if command == "solve":
            argv += ["--instance", str(market_file)]
        if target == "missing-dir":
            argv += ["--trace-out", str(tmp_path / "nonexistent" / "d" / "t.csv")]
        elif target == "directory":
            argv += ["--trace-out", str(tmp_path)]
        else:
            monkeypatch.setenv("DUALPROX_TRACE_DIR", str(tmp_path / "nonexistent"))
        assert main(argv) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "trace:" not in captured.out
        assert not (tmp_path / "nonexistent").exists()

    def test_reported_before_a_set_up_rejection(self, tmp_path, capsys):
        trace = tmp_path / "nonexistent" / "t.csv"
        assert main(["market-demo", "--gamma", "0", "--trace-out", str(trace)]) == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"error: cannot write {trace}: [Errno 2] No such file or directory: '{trace}'\n"
        )
