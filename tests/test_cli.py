import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgoal.cli import (
    _ALL_KEYS,
    SUMMARY_BLOCK_ITEMS,
    TRACE_BLOCK_ROWS,
    _write_summary_json,
    _write_trace_csv,
    load_config,
    main,
    parse_config_text,
)
from sgoal.core import ConvergenceTrace
from sgoal.errors import ConfigError
from sgoal.verify import T_MAX_CAP

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

    def test_eps_is_parsed_at_load(self):
        assert load_config(None, [])["eps"] == (0.1,)
        assert load_config(None, ["eps = 0.5, ,1.5"])["eps"] == (0.5, 1.5)
        assert parse_config_text("eps = 2\n") == {"eps": (2.0,)}

    def test_a_flag_wins_over_key_value(self, tmp_path):
        cfg = write_cfg(tmp_path, SA_CFG)
        out = tmp_path / "out"
        args = ["run", "--config", cfg, "--seed", "99", "--replicates", "1", "--out", str(out),
                "seed=3", "replicates=2", f"out={tmp_path / 'other'}"]
        assert main(args) == 0
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace_99.csv"]
        assert not (tmp_path / "other").exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        # a stray 0xff byte is a configuration error that names the file
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"algorithm = sa\nproblem = onemax # \xff\ndim = 3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg} is not UTF-8")
        assert "Traceback" not in err
        assert not out.exists()

    def test_readme_lists_the_algorithm_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("Algorithm keys:", 1)[1].split("\n\n", 1)[0]
        listed = set(re.findall(r"\b(?:sa|es)\.\w+", paragraph))
        assert listed == {key for key in _ALL_KEYS if key.startswith(("sa.", "es."))}


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize(
    "overrides, message",
    [
        (["algorithm=sa", "eps=abc"], "bad eps threshold 'abc'"),
        (["algorithm=sa", "eps=inf"], "eps thresholds must be positive and finite"),
        (["algorithm=sa", "eps=,"], "at least one eps threshold is required"),
        (["algorithm=bogus"], "unknown algorithm 'bogus' (expected sa or es)"),
        (["algorithm=sa", "sa.gamma=1.5"], "geometric cooling needs gamma in (0, 1)"),
        (["algorithm=sa", "sa.cooling=boltzmann"], "unknown cooling 'boltzmann'"),
        (["algorithm=es", "es.mode=bogus"], "mode must be 'plus' or 'comma'"),
        (["algorithm=es", "es.sigma_init=1e9"], "sigma_init must lie in [sigma_min, sigma_max]"),
        (["algorithm=es", "es.rho=2"], "finite-space strategies support rho = 1 only"),
        (["algorithm=sa", "budget=3000000000"],
         "720,000,000,240 bytes of traces are over the cap of 1,073,741,824"),
    ],
    ids=["eps_abc", "eps_inf", "eps_empty", "algorithm", "gamma", "cooling", "mode", "sigma_init",
         "rho", "trace_bytes"],
)
def test_settings_are_checked_before_the_benchmark_is_enumerated(
    tmp_path, monkeypatch, capsys, command, overrides, message
):
    import sgoal.cli as cli

    def enumerate_anyway(*call):
        raise AssertionError(f"make_benchmark{call} was called")

    monkeypatch.setattr(cli, "make_benchmark", enumerate_anyway)
    out = tmp_path / "out"
    args = [command, "--out", str(out), "problem=onemax", "dim=20", *overrides]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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
            (["algorithm=sa", "budget=3", "seed=-1"], "seed"),
            (["algorithm=sa", "budget=3", "--seed", "-1"], "seed"),
            (["algorithm=sa", "--replicates", "0"], "replicates must be >= 1"),
            (["algorithm=es", "es.tau=1e308", "budget=3"], "tau"),
            (["algorithm=sa", "verify.t_max=2000000"], "t_max"),
            (["algorithm=sa", f"verify.t_max={T_MAX_CAP + 1}"], "t_max"),
            (["algorithm=sa", "dim=1000000000"], "8,000,000,000 bytes of population arrays"),
            (["algorithm=es", "dim=10", "es.lambda=3000000000"], "population arrays"),
            (["algorithm=es", "es.mu=2000000000"], "population arrays"),
            (["algorithm=sa", "budget=100000000000"], "traces"),
            (["algorithm=sa", "replicates=100000000"], "traces"),
            (["algorithm=sa", "sa.sigma=1e308", "budget=50"], "sigma"),
            (["algorithm=es", "es.sigma_max=1e308", "es.sigma_init=1e308", "budget=50"],
             "sigma_max"),
            (["algorithm=sa", "problem=onemax", "sa.sigma=1e301"], "sigma"),
        ],
    )
    def test_out_of_range_setting_exits_2(self, tmp_path, capsys, overrides, key):
        # a linear floor above T0 would raise the temperature; a sigma_init
        # outside [sigma_min, sigma_max] would start the run elsewhere; a
        # negative seed cannot seed the generator, and a flag is checked like
        # its key; a tau of 1e308 would make NaN step sizes (inf + -inf); a
        # step scale above 1e300 could step a box point to inf, and is refused
        # on a finite problem too; a t_max above the cap would build and
        # multiply one matrix per step in verify; population arrays and traces
        # over the byte cap would fail only once allocated
        out = tmp_path / "out"
        args = ["run", "--out", str(out), "problem=sphere", "dim=2", *overrides]
        assert main(args) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            ["algorithm=sa", "eps=0.5,1", "budget=12000"],
            ["algorithm=sa", "sa.elitist=false", "eps=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
             "budget=12000"],
            ["algorithm=sa", "replicates=8", "budget=6000"],
            ["algorithm=es", "es.mu=20", "es.lambda=20", "budget=3000"],
        ],
        ids=["elitist", "many_eps", "replicates", "es"],
    )
    def test_trace_estimate_bounds_the_traced_peak(self, tmp_path, monkeypatch, overrides):
        # the estimate the cap checks bounds what the run then holds at its
        # peak: tracemalloc counts a float at the 24 bytes it asks for, the
        # estimate at the allocator's 32, so it reads 5-12 % above the peak
        import sgoal.cli as cli

        estimates = {}

        def record(count, cap, what):
            estimates[what] = count
            check_cap(count, cap, what)

        check_cap = cli.check_cap
        monkeypatch.setattr(cli, "check_cap", record)
        args = ["problem=sphere", "dim=2", *overrides]
        # a first run loads what the timed one would otherwise load
        assert main(["run", "--out", str(tmp_path / "w"), *args, "budget=1", "replicates=1"]) == 0
        tracemalloc.start()
        try:
            assert main(["run", "--out", str(tmp_path / "out"), *args]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = estimates["bytes of traces"]
        assert 0.7 * estimate <= peak <= estimate

        monkeypatch.setattr(cli, "MATRIX_BYTES_CAP", estimate - 1)
        assert main(["run", "--out", str(tmp_path / "over"), *args]) == 2
        assert not (tmp_path / "over").exists()

    @pytest.mark.filterwarnings("error")
    def test_huge_tau_runs_without_warnings(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["run", "--out", str(out), "algorithm=es", "problem=sphere", "dim=5",
                "budget=20", "es.tau=1e300"]
        assert main(args) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "overrides",
        [["algorithm=sa", "sa.sigma=1e300"],
         ["algorithm=es", "es.sigma_max=1e300", "es.sigma_init=1e300", "es.tau=10"]],
        ids=["sa", "es"],
    )
    def test_step_scale_at_the_cap_runs_without_warnings(self, tmp_path, capsys, overrides):
        # an update that overflows clamps to sigma_max without a warning
        out = tmp_path / "out"
        args = ["run", "--out", str(out), "problem=sphere", "dim=2", "budget=50", *overrides]
        assert main(args) == 0
        assert capsys.readouterr().err == ""

    def test_missing_required_key_exits_2(self, tmp_path):
        assert main(["run", "algorithm=sa", "problem=onemax"]) == 2

    def test_unwritable_output_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, SA_CFG)
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a dir")
        assert main(["run", "--config", cfg, "--out", str(blocker / "sub")]) == 2


def per_value_writer(path, trace):
    """Oracle: the trace CSV written one formatted value at a time."""

    def fmt(value):
        return f"{value:.17g}"

    lines = ["t,D,f_best,evals,T_or_sigma"]
    for i in range(len(trace)):
        lines.append(
            ",".join(
                [
                    str(int(trace.t[i])),
                    fmt(trace.d[i]),
                    fmt(trace.f_best[i]),
                    str(int(trace.evals[i])),
                    fmt(trace.param[i]),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3]


def special_trace(rows: int) -> ConvergenceTrace:
    """A trace whose float columns cycle through ``SPECIAL`` on their first
    rows, each column at its own phase, then mix them with random values
    of every magnitude."""
    rng = np.random.default_rng(rows)

    def column(phase):
        special = np.array(SPECIAL)[(np.arange(rows) + phase) % len(SPECIAL)]
        scale = 10.0 ** rng.integers(-300, 300, size=rows)
        values = np.where(rng.random(rows) < 0.5, special, rng.normal(size=rows) * scale)
        values[: len(SPECIAL)] = special[: len(SPECIAL)]
        return values

    return ConvergenceTrace(
        t=np.arange(rows),
        d=column(0),
        f_best=column(2),
        evals=np.cumsum(rng.integers(0, 2**40, size=rows)),
        param=column(4),
    )


class TestTraceCsv:
    @pytest.mark.parametrize(
        "rows",
        [1, TRACE_BLOCK_ROWS - 1, TRACE_BLOCK_ROWS, TRACE_BLOCK_ROWS + 1, 2 * TRACE_BLOCK_ROWS + 1],
    )
    def test_bytes_equal_the_per_value_writer(self, tmp_path, rows):
        trace = special_trace(rows)
        _write_trace_csv(tmp_path / "blocks.csv", trace)
        per_value_writer(tmp_path / "oracle.csv", trace)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_memory_stays_one_block(self, tmp_path):
        trace = special_trace(20_001)
        tracemalloc.start()
        try:
            _write_trace_csv(tmp_path / "trace.csv", trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


def special_summary(rows: int, eps_keys: int, seed: int) -> dict:
    """A summary shaped like ``cmd_run``'s, with ``rows`` steps, whose float
    lists mix ``SPECIAL`` with random values of every magnitude."""
    columns = special_trace(rows)
    rng = np.random.default_rng(seed)

    def floats(column):
        return rng.permutation(column).tolist()

    return {
        "algorithm": "sa",
        "problem": "sphere",
        "dim": 10,
        "replicates": 3,
        "seed": seed,
        "budget": max(rows - 1, 0),
        "t": list(range(rows)),
        "mean_d": floats(columns.d),
        "median_d": floats(columns.f_best),
        "pr_d_above": {
            f"{eps:.17g}": floats(columns.param)
            for eps in [0.1, 1 / 3, 5e-324, 2.5, 1e300][:eps_keys]
        },
    }


def json_dump_bytes(summary: dict) -> bytes:
    """Oracle: the stdlib's indented writer."""
    return (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("ascii")


class TestSummaryJson:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.sampled_from(
            [0, 1, SUMMARY_BLOCK_ITEMS - 1, SUMMARY_BLOCK_ITEMS, SUMMARY_BLOCK_ITEMS + 1]
        ),
        eps_keys=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_json_dump(self, tmp_path_factory, rows, eps_keys, seed):
        summary = special_summary(rows, eps_keys, seed)
        path = tmp_path_factory.mktemp("summary") / "summary.json"
        _write_summary_json(path, summary)
        assert path.read_bytes() == json_dump_bytes(summary)

    def test_special_values_and_empty_containers(self, tmp_path):
        summary = {"a": [], "b": {}, "c": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3],
                   "d": {"x": [1], "w": []}, "e": "text", "f": True, "g": None}
        _write_summary_json(tmp_path / "s.json", summary)
        assert (tmp_path / "s.json").read_bytes() == json_dump_bytes(summary)

    def test_memory_stays_one_block(self, tmp_path):
        summary = special_summary(20_001, 1, seed=0)
        tracemalloc.start()
        try:
            _write_summary_json(tmp_path / "summary.json", summary)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6

    @pytest.mark.parametrize(
        "overrides",
        [
            ["algorithm=sa", "problem=sphere", "dim=10", "budget=3000", "replicates=2"],
            ["algorithm=es", "problem=onemax", "dim=6", "es.mu=2", "es.lambda=3",
             "budget=100", "replicates=2", "eps=0.5,1.5"],
        ],
        ids=["sa-sphere", "es-onemax"],
    )
    def test_run_summary_round_trips(self, tmp_path, overrides):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), *overrides]) == 0
        written = (out / "summary.json").read_bytes()
        reread = json.loads(written)
        assert written == json_dump_bytes(reread)


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

    def test_t_max_cap_is_accepted(self, tmp_path):
        # a stationary chain takes one matrix-vector product per t
        out = tmp_path / "v"
        args = ["verify", "--out", str(out), "algorithm=sa", "problem=onemax", "dim=3",
                "eps=0.5", f"verify.t_max={T_MAX_CAP}"]
        assert main(args) == 0
        assert len(json.loads((out / "bound.json").read_text())["per_t"]) == T_MAX_CAP

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

    @pytest.mark.parametrize(
        "overrides",
        [
            ["verify.t_max=0"],
            # 4 class states, but two million matrix builds and products
            ["sa.elitist=false", "verify.t_max=2000000"],
            ["problem=sphere", "dim=2"],  # a box has no exact chain
            ["algorithm=es", "dim=8"],  # 9^5 = 59049 class states, over the cap
            ["dim=4", "eps=10"],  # every state is near-optimal
            ["algorithm=es", "es.lambda=3000000000"],  # the children's list alone
        ],
        ids=["t_max", "t_max_over_cap", "continuous", "over_cap", "eps_marks_all", "lambda"],
    )
    def test_rejected_verify_creates_no_output_dir(self, tmp_path, overrides):
        cfg = write_cfg(tmp_path, SA_CFG)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), *overrides]) == 2
        assert not out.exists()

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


def test_repeated_in_process_calls_give_the_same_verify_bytes(tmp_path, capsys):
    # one process, one parser: a select-test, a rejected call and a run
    # between two verify calls change none of the second one's bytes
    cfg = write_cfg(tmp_path, ES_CFG)

    def verify(name):
        out = tmp_path / name
        assert main(["verify", "--config", cfg, "--out", str(out), "verify.t_max=7"]) == 0
        stdout = capsys.readouterr().out
        return stdout, (out / "bound.json").read_bytes(), (out / "bound.csv").read_bytes()

    first = verify("v1")
    assert main(["select-test", "--scheme", "ranking", "--fitness", "1,2,3"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    assert verify("v2") == first


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

    def test_all_sparse_cells_pass(self, capsys):
        # 8000 ranking cells, 1000 draws: every expected count is below 5
        fitness = np.random.default_rng(3).normal(size=8000)
        code = main([
            "select-test", "--scheme", "ranking", "--samples", "1000",
            "--fitness", ",".join(map(repr, fitness.tolist())),
        ])
        assert code == 0 and "-> pass" in capsys.readouterr().out

    def test_bad_fitness_exits_2(self):
        assert main(["select-test", "--scheme", "uniform", "--fitness", ""]) == 2

    def test_non_numeric_fitness_exits_2(self, capsys):
        assert main(["select-test", "--scheme", "ranking", "--fitness", "1,abc"]) == 2
        assert "fitness values must be numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--scheme", "tournament", "--fitness", "1,2,3,4,5,6,7,8", "--m", "60",
             "--samples", "10"],  # C(67, 60) entrant multisets
            ["--scheme", "tournament", "--fitness", "1,2", "--m", "2000000"],
            ["--scheme", "uniform", "--fitness", "1,2", "--samples", "10000000000"],
        ],
        ids=["multisets", "tournament_size", "samples"],
    )
    def test_oversized_request_exits_2(self, capsys, args):
        assert main(["select-test", *args]) == 2
        assert "over the cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["--fitness", "1,2", "--m", "20000", "--samples", "10"],
         ["--fitness", "1,1", "--m", "10000000"]],
        ids=["wide", "one_class"],
    )
    def test_draw_cap_is_checked_before_the_enumeration(self, monkeypatch, capsys, args):
        def enumerate_anyway(*call):
            raise AssertionError("exact_probs ran before the draw cap refused")

        monkeypatch.setattr("sgoal.cli.exact_probs", enumerate_anyway)
        assert main(["select-test", "--scheme", "tournament", *args]) == 2
        assert "draws are over the cap" in capsys.readouterr().err

    def test_infinite_roulette_rate_exits_2(self, capsys):
        # an infinite rate, and finite rates whose total overflows
        cases = [("1,inf", "selection rates must be finite"),
                 ("1e308,1e308", "total selection rate must be positive and finite")]
        for fitness, message in cases:
            code = main([
                "select-test", "--scheme", "roulette", "--fitness", fitness, "--relation", "max",
            ])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only: not even a chi-square p-value imports it
    probe = (
        "import sys, sgoal.cli; "
        "sgoal.cli.main(['select-test', '--scheme', 'ranking', '--fitness', '1,2,3']); "
        "print(any(m.startswith('scipy') for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines()[-1] == "False"


def test_readme_quick_start_runs(tmp_path):
    # the README's library example runs as printed against the sources
    root = Path(__file__).resolve().parents[1]
    block = re.search(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", block.group(1)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0.00390625 True"
