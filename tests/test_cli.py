import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sgoal.cli import load_config, main, parse_config_text
from sgoal.errors import ConfigError

SA_CFG = """
algorithm = sa
problem = onemax
dim = 3
budget = 25
replicates = 3
seed = 11
eps = 0.5
sa.T0 = 2.0
sa.cooling = geometric
sa.gamma = 0.9
"""

ES_CFG = """
algorithm = es
problem = onemax
dim = 3
budget = 10
replicates = 1
seed = 5
eps = 0.5
es.mu = 1
es.rho = 1
es.lambda = 1
es.mode = plus
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_key_value_with_comments(self):
        values = parse_config_text("algorithm = sa # annealer\n\n# blank\ndim=2\n")
        assert values == {"algorithm": "sa", "dim": 2}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("not_a_key = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("dim = two\n")

    def test_override_wins(self, tmp_path):
        path = write_cfg(tmp_path, "algorithm = sa\ndim = 2\n")
        values = load_config(path, ["dim=7"])
        assert values["dim"] == 7

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            load_config(None, ["dim"])


class TestRunCommand:
    def test_writes_traces_and_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SA_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["summary.json", "trace_11.csv", "trace_12.csv", "trace_13.csv"]
        header = (out / "trace_11.csv").read_text().splitlines()[0]
        assert header == "t,D,f_best,evals,T_or_sigma"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["replicates"] == 3
        assert len(summary["mean_d"]) == 26
        assert "0.5" in summary["pr_d_above"]

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SA_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("trace_11.csv", "trace_12.csv", "trace_13.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_elitist_trace_column_non_increasing(self, tmp_path):
        cfg = write_cfg(tmp_path, SA_CFG)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        for name in ("trace_11.csv", "trace_12.csv", "trace_13.csv"):
            rows = (out / name).read_text().strip().splitlines()[1:]
            d = np.array([float(r.split(",")[1]) for r in rows])
            assert np.all(np.diff(d) <= 0.0)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, SA_CFG)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--seed", "99", "--replicates", "1"])
        assert (out / "trace_99.csv").exists()

    def test_unknown_key_override_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SA_CFG)
        assert main(["run", "--config", cfg, "bogus=1"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_eps_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SA_CFG)
        for eps, message in (("abc", "bad eps threshold"), ("inf", "positive and finite")):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), f"eps={eps}"]) == 2
            assert message in capsys.readouterr().err

    def test_bad_algorithm_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, SA_CFG)
        assert main(["run", "--config", cfg, "algorithm=tabu"]) == 2

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_config_error_creates_no_output_dir(self, tmp_path, command):
        cfg = write_cfg(tmp_path, SA_CFG)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "algorithm=tabu"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        ["sa.T0=nan", "sa.gamma=nan", "es.tau=nan", "es.tau=inf",
         "es.sigma_init=nan", "es.sigma_init=-1"],
    )
    def test_non_finite_or_non_positive_setting_exits_2(self, tmp_path, capsys, override):
        algorithm, key = override.split("=")[0].split(".")
        out = tmp_path / "out"
        args = ["run", "--out", str(out), f"algorithm={algorithm}", "problem=sphere",
                "dim=2", override]
        assert main(args) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["algorithm=sa", "sa.cooling=linear", "sa.T0=1", "sa.step=0.4", "sa.floor=5"],
             "floor"),
            (["algorithm=es", "es.sigma_init=5000", "budget=3"], "sigma_init"),
            (["algorithm=es", "es.sigma_init=1e-12", "budget=3"], "sigma_init"),
        ],
    )
    def test_out_of_range_setting_exits_2(self, tmp_path, capsys, overrides, key):
        # a linear floor above T0 would raise the temperature; a sigma_init
        # outside [sigma_min, sigma_max] would start the run elsewhere
        out = tmp_path / "out"
        args = ["run", "--out", str(out), "problem=sphere", "dim=2", *overrides]
        assert main(args) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_key_exits_2(self, tmp_path):
        assert main(["run", "algorithm=sa", "problem=onemax"]) == 2

    def test_unwritable_output_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, SA_CFG)
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a dir")
        assert main(["run", "--config", cfg, "--out", str(blocker / "sub")]) == 2


class TestVerifyCommand:
    def test_plus_es_verifies_on_onemax(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, ES_CFG)
        out = tmp_path / "v"
        code = main(["verify", "--config", cfg, "--out", str(out), "verify.t_max=20"])
        assert code == 0
        data = json.loads((out / "bound.json").read_text())
        assert data["premise_absorbing"] is True
        assert data["premise_reach"] is True
        assert data["delta"] == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert len(data["per_t"]) == 20
        lines = (out / "bound.csv").read_text().strip().splitlines()
        assert lines[0] == "t,min_mass,bound,margin"

    def test_nonelitist_high_temperature_fails_verification(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SA_CFG + "sa.elitist = false\nsa.cooling = linear\nsa.step = 1\nsa.floor = 10\nsa.T0 = 10\n",
        )
        out = tmp_path / "v"
        code = main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 1
        data = json.loads((out / "bound.json").read_text())
        assert data["premise_absorbing"] is False

    def test_t_max_one_reduces_to_premises(self, tmp_path):
        cfg = write_cfg(tmp_path, ES_CFG)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "verify.t_max=1"]) == 0
        data = json.loads((out / "bound.json").read_text())
        assert len(data["per_t"]) == 1
        assert data["per_t"][0]["min_mass"] == pytest.approx(data["delta"], abs=1e-12)

    def test_bad_eps_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, ES_CFG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "eps=abc"]) == 2
        assert "bad eps threshold" in capsys.readouterr().err

    def test_state_cap_exits_2(self, tmp_path, capsys):
        # even the quotient is over the cap: 17^3 = 4913 class states > 4096
        cfg = write_cfg(tmp_path, ES_CFG)
        args = ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "dim=16", "es.mu=3"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{2**48} population states lump onto 4913 fitness-class states" in err

    def test_quotient_under_the_cap_verifies(self, tmp_path, capsys):
        # 8192 full states, 14 fitness classes
        cfg = write_cfg(tmp_path, ES_CFG)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "dim=13"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("states=14 lumped=True")
        data = json.loads((out / "bound.json").read_text())
        assert data["states"] == 14 and data["lumped"] is True
        assert data["delta"] == pytest.approx(2.0**-13, abs=1e-12)


class TestSelectTest:
    def test_uniform_rows(self, capsys):
        code = main([
            "select-test", "--scheme", "uniform", "--fitness", "1,2,3,4",
            "--samples", "20000", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("0.25") >= 4
        assert "pass" in out

    def test_ranking_rows(self, capsys):
        code = main([
            "select-test", "--scheme", "ranking", "--fitness", "1,2,3",
            "--relation", "min", "--samples", "30000", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.5" in out and "0.333333" in out and "0.166667" in out

    def test_tournament_seven_twelfths(self, capsys):
        code = main([
            "select-test", "--scheme", "tournament", "--m", "2", "--fitness", "1,2",
            "--relation", "min", "--samples", "30000", "--seed", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{7 / 12:.6g}"[:8] in out

    def test_bad_fitness_exits_2(self):
        assert main(["select-test", "--scheme", "uniform", "--fitness", ""]) == 2

    def test_non_numeric_fitness_exits_2(self, capsys):
        assert main(["select-test", "--scheme", "ranking", "--fitness", "1,abc"]) == 2
        assert "fitness values must be numbers" in capsys.readouterr().err

    def test_infinite_roulette_rate_exits_2(self, capsys):
        code = main([
            "select-test", "--scheme", "roulette", "--fitness", "1,inf", "--relation", "max",
        ])
        assert code == 2
        assert "selection rates must be finite" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # scipy.stats is imported only when a chi-square p-value is computed
    probe = "import sys, sgoal.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
