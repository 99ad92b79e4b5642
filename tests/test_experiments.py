"""Experiment harness: config files, seeding, CSV schema, CLI wiring."""
import csv
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from losscomp import apply_loss, cli, convergence_scan, experiments, oscillator
from losscomp.exceptions import NumericalSanityError
from losscomp.experiments import (
    ExperimentConfig,
    config_hash,
    default_config,
    parse_config,
    run_direct_contrast,
    run_fig1,
    run_fig2,
    run_scan_table,
    serialize_config,
)


def small_fig1(**overrides):
    base = default_config("fig1")
    small = dict(eta_list=(0.6, 0.5), n_samples=2000, trials=2, jm_list=(1, 2, 5))
    small.update(overrides)
    return replace(base, **small)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestDefaults:
    def test_fig1(self):
        c = default_config("fig1")
        assert c.detection == "homodyne"
        assert c.n_samples == 24000
        assert (c.target_n, c.target_d) == (2, 0)
        assert c.eta_list == (0.6, 0.55, 0.53, 0.5)
        assert c.trials == 10

    def test_fig2(self):
        c = default_config("fig2")
        assert c.n_samples == 8000
        assert c.jm_list == (10, 20, 100)
        assert len(c.eta_list) == 21
        assert c.eta_list[0] == 0.4
        assert c.eta_list[-1] == 0.9
        assert np.allclose(np.diff(c.eta_list), 0.025)

    def test_direct(self):
        c = default_config("direct")
        assert c.detection == "direct"
        assert c.eta_list == (0.45, 0.42)
        assert c.n_samples == 24000

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            default_config("fig3")

    @pytest.mark.parametrize("figure", ["fig1", "fig2", "direct"])
    def test_defaults_fit_compute_budget(self, figure):
        default_config(figure).validate()


class TestConfigText:
    @pytest.mark.parametrize("figure", ["fig1", "fig2", "direct"])
    def test_serialize_parse_round_trip(self, figure):
        c = default_config(figure)
        assert parse_config(serialize_config(c)) == c

    def test_complex_amplitude_round_trip(self):
        c = replace(default_config("fig1"), state_kind="coherent",
                    state_alpha=0.3 - 0.7j, target_n=0, target_d=1)
        assert parse_config(serialize_config(c)) == c

    def test_explicit_truncation_list_round_trip(self):
        c = small_fig1()
        again = parse_config(serialize_config(c))
        assert again.jm_list == (1, 2, 5)

    def test_partial_text_layers_over_base(self):
        base = default_config("fig1")
        c = parse_config("trials = 3\nn_samples = 4000\n", base=base)
        assert c.trials == 3
        assert c.n_samples == 4000
        assert c.eta_list == base.eta_list

    def test_comments_and_blank_lines(self):
        c = parse_config("# a comment\n\ntrials = 5  # trailing note\n",
                         base=default_config("fig1"))
        assert c.trials == 5

    def test_auto_truncation_keyword(self):
        c = parse_config("jm_list = auto\n", base=small_fig1())
        assert c.jm_list is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("n_shots = 100\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("just some words\n")


class TestConfigHash:
    def test_shape_and_determinism(self):
        h = config_hash(default_config("fig1"))
        assert len(h) == 12
        assert int(h, 16) >= 0
        assert h == config_hash(default_config("fig1"))

    def test_sensitive_to_seed(self):
        a = config_hash(default_config("fig1"))
        b = config_hash(replace(default_config("fig1"), master_seed=1))
        assert a != b

    @pytest.mark.parametrize("figure,want", [
        ("fig1", "0b9919431a57"), ("fig2", "163b9c9e167c"), ("direct", "18b3d5b8782a")])
    def test_default_hashes_pinned(self, figure, want):
        # every shipped CSV row carries this hash: the canonical text, its
        # field order included, must not drift
        assert config_hash(default_config(figure)) == want

    @settings(derandomize=True, deadline=None)
    @given(config=st.builds(
        ExperimentConfig,
        state_kind=st.sampled_from(["thermal", "coherent", "fock"]),
        state_nbar=st.floats(0.0, 1e6),
        state_alpha=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                       allow_infinity=False),
        state_m=st.integers(0, 63),
        target_n=st.integers(0, 20),
        target_d=st.integers(0, 20),
        eta_list=st.lists(st.floats(0.0, 1.0, exclude_min=True),
                          min_size=1, max_size=4).map(tuple),
        n_samples=st.integers(2, 10**5),
        jm_list=st.none() | st.sets(st.integers(0, 100), min_size=1).map(
            lambda s: tuple(sorted(s))),
        trials=st.integers(1, 100),
        master_seed=st.integers(0, 2**64 - 1)))
    def test_text_round_trip_is_exact(self, config):
        """Floats that 9 digits cannot hold are written in full, so the hash is exact.

        Only an efficiency below 1/2 may be rejected, for inverse weights past the float range.
        """
        try:
            config.validate()
        except ValueError as exc:
            assert "float range" in str(exc) and min(config.eta_list) < 0.5
        assert parse_config(serialize_config(config)) == config


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        dict(detection="heterodyne"),
        dict(eta_list=()),
        dict(eta_list=(0.6, 1.2)),
        dict(trials=0),
        dict(n_samples=1),
        dict(target_n=-1),
        dict(state_kind="squeezed"),
        dict(n_samples=10**6, jm_list=(100,)),          # budget: 10^8 > 5*10^7
        dict(detection="direct", target_d=1),
        dict(detection="direct", dim=32, jm_list=(35,)),  # ray leaves truncation
        dict(jm_list=()),
        dict(dim=2),                                    # target <2|rho|2> past the truncation
        dict(target_d=70),
        dict(dim=480, target_n=400, jm_list=(1, 100)),  # kernel index 500 past the table
        dict(dim=1024),                                 # past the loss weights' float range
        dict(detection="direct", eta_list=(0.05,), jm_list=(1, 280), dim=300,
             n_samples=1000, trials=1),                 # A_j^2 overflows from j = 116
        dict(state_kind="thermal", state_nbar=float("nan")),
        dict(state_kind="thermal", state_nbar=float("inf")),
        dict(state_kind="coherent", state_alpha=complex("nan+0j")),
        dict(state_kind="coherent", state_alpha=complex("inf+0j")),
    ])
    def test_rejected(self, overrides):
        # a bad state parameter is named in the message
        names = {"state_nbar": "mean photon number", "state_alpha": "coherent amplitude"}
        match = next((names[k] for k in overrides if k in names), None)
        with pytest.raises(ValueError, match=match):
            replace(default_config("fig1"), **overrides).validate()

    def test_negative_seed_rejected_up_front(self, tmp_path, capsys):
        config = parse_config("master_seed = -1\n", base=default_config("direct"))
        with pytest.raises(ValueError, match="master_seed -1 must be nonnegative"):
            config.validate()
        out = tmp_path / "direct.csv"
        assert cli.main(["direct", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "losscomp: error: master_seed -1 must be nonnegative\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "dim = 2\n", "target_d = 70\n", "dim = 480\ntarget_n = 400\njm_list = 1,100\n",
        "detection = direct\neta_list = 0.05\njm_list = 1,280\ndim = 300\n"
        "n_samples = 1000\ntrials = 1\n",
        "state_kind = coherent\nstate_alpha = inf+0j\n"])
    def test_unreachable_target_rejected_before_sampling(self, text, tmp_path, monkeypatch,
                                                         capsys):
        def sample(*args):
            raise AssertionError("damped or sampled before the config was rejected")

        for name in ("apply_loss", "sample_quadratures", "sample_counts"):
            monkeypatch.setattr(experiments, name, sample)
        conf, out = tmp_path / "run.conf", tmp_path / "fig1.csv"
        conf.write_text(text)
        assert cli.main(["fig1", "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("losscomp: error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("jm_list", ["3,1,2", "-1", "1,1,2", "-2,4"])
    @pytest.mark.parametrize("figure", ["fig1", "fig2"])
    def test_bad_jm_list_rejected_up_front(self, figure, jm_list, tmp_path):
        config = parse_config(f"jm_list = {jm_list}\n", base=default_config(figure))
        with pytest.raises(ValueError, match="must be nonempty, nonnegative and strictly"):
            config.validate()
        run = run_fig1 if figure == "fig1" else run_fig2
        with pytest.raises(ValueError, match="strictly ascending"):
            run(config, out=tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()


class TestTruncationGrid:
    def test_homodyne_default_short_above_transition(self):
        c = replace(default_config("fig1"), jm_list=None)
        assert c.truncation_grid(0.6) == list(range(1, 21))
        assert c.truncation_grid(0.55) == list(range(1, 21))

    def test_homodyne_default_extended_near_transition(self):
        c = replace(default_config("fig1"), jm_list=None)
        grid = c.truncation_grid(0.53)
        assert grid == list(range(1, 21)) + list(range(25, 101, 5))
        assert c.truncation_grid(0.5) == grid

    def test_direct_default(self):
        c = default_config("direct")
        assert c.truncation_grid(0.45) == list(range(1, 41))

    def test_explicit_list_wins(self):
        assert small_fig1().truncation_grid(0.5) == [1, 2, 5]


class TestScanTables:
    def test_schema_and_formatting(self, tmp_path):
        config = small_fig1()
        table, trials = run_fig1(config, out=tmp_path / "scan.csv")
        assert trials == tmp_path / "scan_trials.csv"
        raw = table.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "eta,j_M,value,propagated_error,empirical_error,theory,config_hash"
        rows = read_rows(table)
        assert len(rows) == 2 * 3  # two efficiencies, three truncations
        chash = config_hash(config)
        for row in rows:
            assert row["config_hash"] == chash
            assert row["theory"] == "0.148148148"  # 9 significant digits
            float(row["value"]); float(row["propagated_error"])

    def test_trial_rows_carry_verdicts(self, tmp_path):
        _, trials = run_fig1(small_fig1(), out=tmp_path / "scan.csv")
        rows = read_rows(trials)
        assert len(rows) == 2 * 2 * 3  # (eta, trial, j_M)
        assert set(r["verdict"] for r in rows) <= {"converged", "marginal", "diverging"}
        assert set(r["trial"] for r in rows) == {"0", "1"}

    def test_mean_table_averages_trials(self, tmp_path):
        table, trials = run_fig1(small_fig1(), out=tmp_path / "scan.csv")
        mean_rows = read_rows(table)
        trial_rows = read_rows(trials)
        for key in [("0.6", "5"), ("0.5", "2")]:
            mean = next(r for r in mean_rows if (r["eta"], r["j_M"]) == key)
            parts = [float(r["value"]) for r in trial_rows
                     if (r["eta"], r["j_M"]) == key]
            assert float(mean["value"]) == pytest.approx(np.mean(parts), rel=1e-8)

    def test_single_trial_has_no_spread(self, tmp_path):
        table, _ = run_fig1(small_fig1(trials=1), out=tmp_path / "one.csv")
        assert all(r["empirical_error"] == "nan" for r in read_rows(table))

    def test_byte_identical_reruns(self, tmp_path):
        config = small_fig1()
        a, a_trials = run_fig1(config, out=tmp_path / "a.csv")
        b, b_trials = run_fig1(config, out=tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()
        assert a_trials.read_bytes() == b_trials.read_bytes()

    def test_first_trials_unchanged_when_adding_more(self, tmp_path):
        """Per-trial RNG streams depend only on (seed, eta, trial), so runs

        differing in trial count agree on the trials they share.
        """
        _, two = run_fig1(small_fig1(trials=2), out=tmp_path / "two.csv")
        _, three = run_fig1(small_fig1(trials=3), out=tmp_path / "three.csv")

        def strip(rows):
            # the hash column legitimately differs: trials is part of the config
            return [{k: v for k, v in r.items() if k != "config_hash"} for r in rows]

        keep = [r for r in strip(read_rows(three)) if r["trial"] in ("0", "1")]
        assert keep == strip(read_rows(two))

    def test_wide_state_runs_to_completion(self, tmp_path, monkeypatch):
        """Samples of a bright state land past the range an index-sized

        kernel table covers (|x| = 10 below index 32); the table must
        follow the samples instead of failing after they are drawn.
        """
        monkeypatch.setattr(oscillator, "_TABLES", None)
        config = small_fig1(state_nbar=30.0, dim=200, eta_list=(0.6,), trials=1)
        table, _ = run_fig1(config, out=tmp_path / "wide.csv")
        assert oscillator._TABLES.x_max > 10.0
        rows = read_rows(table)
        assert [r["j_M"] for r in rows] == ["1", "2", "5"]
        assert all(np.isfinite(float(r["value"])) for r in rows)

    @pytest.mark.parametrize("figure", ["fig1", "fig2"])
    def test_table_history_leaves_bytes_unchanged(self, figure, tmp_path, monkeypatch):
        """A kernel's bits do not depend on the table's range, so the CSV bytes do not either."""
        if figure == "fig1":
            config, run = small_fig1(jm_list=(1, 2, 5, 20, 60)), run_fig1
        else:
            config, run = replace(default_config("fig2"), eta_list=(0.7, 0.5),
                                  n_samples=2000, trials=2, jm_list=(10, 20, 100)), run_fig2
        monkeypatch.setattr(oscillator, "_TABLES", None)
        fresh = [p.read_bytes() for p in run(config, out=tmp_path / "fresh.csv")]
        for grown in [(150, 20.0), (400, 26.0)]:
            oscillator.tables_for(*grown)
            assert [p.read_bytes() for p in run(config, out=tmp_path / "grown.csv")] == fresh

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cells_give_the_same_bytes_in_any_order(self, seed, tmp_path, monkeypatch):
        """Each (eta, trial) cell draws from its own RNG stream, so cells scanned in a
        shuffled order from an empty kernel table give ``run_fig1``'s per-trial rows."""
        config = small_fig1(state_nbar=30.0, dim=200, trials=3)  # reach crosses |x| = 10
        n, d, chash = config.target_n, config.target_d, config_hash(config)
        monkeypatch.setattr(oscillator, "_TABLES", None)
        _, trials = run_fig1(config, out=tmp_path / "fig1.csv")
        monkeypatch.setattr(oscillator, "_TABLES", None)
        signal = config.state().build()
        cells = [(e, trial) for e in range(len(config.eta_list)) for trial in range(config.trials)]
        rows = {}
        for k in np.random.default_rng(seed).permutation(len(cells)):
            e, trial = cells[k]
            eta = config.eta_list[e]
            source = experiments._measurement_source(
                config, apply_loss(signal, eta), experiments._trial_rng(config, e, trial))
            result = convergence_scan(source, n, d, eta, config.truncation_grid(eta))
            rows[cells[k]] = [
                ",".join([experiments._fmt(eta), str(trial), str(jm), experiments._fmt(value.real),
                          experiments._fmt(error), result.verdict, chash]) + "\n"
                for jm, value, error in result.trace]
        _, body = trials.read_bytes().split(b"\n", 1)
        assert body == "".join(line for cell in cells for line in rows[cell]).encode()

    @pytest.mark.parametrize("figure,built", [("fig1", [102]), ("direct", [])])
    def test_run_sizes_the_kernel_table_once(self, figure, built, tmp_path, monkeypatch):
        """A homodyne run builds one table, for its largest kernel index, before any cell;
        eta 0.6 alone would need index 22.  Photocounting builds none."""
        made = []

        class Counting(oscillator._Tables):
            def __init__(self, *args):
                made.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(oscillator, "_TABLES", None)
        monkeypatch.setattr(oscillator, "_Tables", Counting)
        config = replace(default_config(figure), n_samples=500, trials=1)
        if figure == "fig1":
            config = replace(config, eta_list=(0.6, 0.5))   # j_M up to 20, then up to 100
        run_scan_table(config, out=tmp_path / "run.csv")
        assert made == built

    def test_direct_contrast_runs(self, tmp_path):
        config = replace(default_config("direct"), eta_list=(0.45,),
                         n_samples=4000, trials=2, jm_list=(1, 5, 10))
        table, trials = run_direct_contrast(config, out=tmp_path / "d.csv")
        rows = read_rows(table)
        assert len(rows) == 3
        assert all(r["config_hash"] == config_hash(config) for r in rows)


class TestFig2Table:
    def test_schema(self, tmp_path):
        config = replace(default_config("fig2"), eta_list=(0.7, 0.5),
                         n_samples=2000, trials=2, jm_list=(5, 10))
        table, trials = run_fig2(config, out=tmp_path / "f2.csv")
        lines = table.read_text().splitlines()
        assert lines[0] == "eta,j_M,propagated_error,config_hash"
        rows = read_rows(table)
        assert [(r["eta"], r["j_M"]) for r in rows] == [
            ("0.7", "5"), ("0.7", "10"), ("0.5", "5"), ("0.5", "10")]
        trows = read_rows(trials)
        assert len(trows) == 2 * 2 * 2

    def test_error_grows_toward_low_eta(self, tmp_path):
        config = replace(default_config("fig2"), eta_list=(0.8, 0.45),
                         n_samples=2000, trials=2, jm_list=(10, 40))
        table, _ = run_fig2(config, out=tmp_path / "f2.csv")
        rows = {(r["eta"], r["j_M"]): float(r["propagated_error"])
                for r in read_rows(table)}
        assert rows[("0.8", "40")] / rows[("0.8", "10")] < 1.05
        assert rows[("0.45", "40")] / rows[("0.45", "10")] > 10.0

    def test_byte_identical_reruns(self, tmp_path):
        config = replace(default_config("fig2"), eta_list=(0.6,),
                         n_samples=1000, trials=2, jm_list=(5,))
        a, _ = run_fig2(config, out=tmp_path / "a.csv")
        b, _ = run_fig2(config, out=tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_damps_once_per_efficiency(self, tmp_path, monkeypatch):
        apply_loss, calls = experiments.apply_loss, []

        def counting_apply_loss(rho, eta):
            calls.append(eta)
            return apply_loss(rho, eta)

        monkeypatch.setattr(experiments, "apply_loss", counting_apply_loss)
        config = replace(default_config("fig2"), eta_list=(0.7, 0.5, 0.45),
                         n_samples=500, trials=3, jm_list=(5,))
        run_fig2(config, out=tmp_path / "f2.csv")
        assert calls == [0.7, 0.5, 0.45]


# sha256 prefixes of the default tables at master seed 7 (``losscomp <figure> --seed 7``)
SEED_7_TABLES = {
    "fig1": ("db8f2bc04015", "276d0f4b3135"),
    "fig2": ("3e8e09e2b37f", "056feecff26f"),
    "direct": ("5b7ec749045f", "867077f75467"),
}


def test_default_tables_at_seed_7_keep_their_bytes(tmp_path):
    """The equivalence oracle: a change that moves any of these bytes must say so."""
    runners = {"fig1": run_fig1, "fig2": run_fig2, "direct": run_direct_contrast}
    got = {}
    for figure, run in runners.items():
        config = replace(default_config(figure), master_seed=7)
        paths = run(config, out=tmp_path / f"{figure}.csv")
        got[figure] = tuple(hashlib.sha256(p.read_bytes()).hexdigest()[:12] for p in paths)
    assert got == SEED_7_TABLES


class TestCli:
    def test_print_default_config(self, capsys):
        assert cli.main(["fig1", "--print-default-config"]) == 0
        printed = capsys.readouterr().out
        assert parse_config(printed) == default_config("fig1")

    def test_figure_run_with_overrides(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "eta_list = 0.6\nn_samples = 1000\njm_list = 1,2,5\ntrials = 2\n")
        out = tmp_path / "table.csv"
        code = cli.main(["fig1", "--config", str(conf), "--out", str(out),
                         "--seed", "42", "--trials", "3"])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "table_trials.csv").exists()
        assert str(out) in capsys.readouterr().out
        # --trials beats the config file; three trials in the sibling
        assert set(r["trial"] for r in read_rows(tmp_path / "table_trials.csv")) == \
            {"0", "1", "2"}

    @pytest.mark.parametrize("argv,message", [
        (["fig1", "--trials", "0"], "trials must be at least 1"),
        (["fig2", "--config", "no/such/file.conf"], "No such file or directory"),
    ])
    def test_library_error_is_one_line_and_exit_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert cli.main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("losscomp: error: ")
        assert message in captured.err and captured.err.count("\n") == 1
        assert not out.exists()

    def test_sanity_error_is_one_line_and_exit_2(self, monkeypatch, capsys):
        def broken(config, out=None):
            raise NumericalSanityError("density integrates to 0.9")

        monkeypatch.setitem(cli._RUNNERS, "direct", broken)
        assert cli.main(["direct"]) == 2
        assert capsys.readouterr().err == "losscomp: error: density integrates to 0.9\n"

    def test_selftest_reports_success(self, monkeypatch, capsys):
        from losscomp import acceptance

        fake = [acceptance.CriterionResult(
            name="AC-1", label="stub", passed=True, detail="ok",
            seconds=0.0, budget=1.0)]
        monkeypatch.setattr(cli.acceptance, "run_all", lambda: fake)
        assert cli.main(["selftest"]) == 0
        assert "all 1 criteria passed" in capsys.readouterr().out

    def test_selftest_reports_failure(self, monkeypatch, capsys):
        from losscomp import acceptance

        fake = [acceptance.CriterionResult(
            name="AC-2", label="stub", passed=False, detail="off by 1",
            seconds=0.0, budget=1.0)]
        monkeypatch.setattr(cli.acceptance, "run_all", lambda: fake)
        assert cli.main(["selftest"]) == 1
        assert "FAILED: AC-2" in capsys.readouterr().out
