"""Experiment harness: config files, seeding, CSV schema, CLI wiring."""
import contextlib
import csv
import hashlib
import importlib.util
import os
import re
import signal
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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

    @pytest.mark.parametrize("line", [
        "dim = 64.0", "eta_list = 0.6,,0.5", "state_alpha = 1+", "jm_list = ",
        "master_seed = 1e3"])
    def test_unparsable_value_names_line_and_key(self, line):
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError, match=rf"^config line 2: {key}: \S"):
            parse_config(f"# header\n{line}\n")


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
                                       allow_infinity=False)
        | st.integers(-10, 10) | st.floats(-10.0, 10.0),
        state_m=st.integers(0, 63),
        target_n=st.integers(0, 20),
        target_d=st.integers(0, 20),
        eta_list=st.lists(st.floats(0.0, 1.0, exclude_min=True),
                          min_size=1, max_size=4).flatmap(
            lambda v: st.sampled_from([tuple(v), v])),
        n_samples=st.integers(2, 10**5),
        jm_list=st.none() | st.sets(st.integers(0, 100), min_size=1).flatmap(
            lambda s: st.sampled_from([tuple(sorted(s)), sorted(s)])),
        trials=st.integers(1, 100),
        master_seed=st.integers(0, 2**64 - 1)))
    @example(config=ExperimentConfig(eta_list=[0.6, 0.5], state_alpha=2))
    @example(config=ExperimentConfig(jm_list=[10, 20, 100]))
    def test_text_round_trip_is_exact(self, config):
        """Floats that 9 digits cannot hold are written in full, so the hash is exact; a
        list reads back as the equal tuple and a real amplitude as the equal complex number.

        Only an efficiency below 1/2 may be rejected, for inverse weights past the float
        range, and a Gaussian state whose samples may land past the kernel table.
        """
        try:
            config.validate()
        except ValueError as exc:
            assert ("float range" in str(exc) and min(config.eta_list) < 0.5
                    or str(exc).startswith(f"{config.state_kind} state: ")
                    and config.state_kind != "fock")
        canonical = replace(config, eta_list=tuple(config.eta_list),
                            state_alpha=complex(config.state_alpha),
                            jm_list=config.jm_list and tuple(config.jm_list))
        assert parse_config(serialize_config(config)) == canonical
        assert config_hash(config) == config_hash(canonical)


@st.composite
def small_configs(draw):
    """One-trial configs of every state kind and detection, with short scans and at most
    1,500 samples per cell: thermal nbar up to 2,000 and coherent amplitudes up to 40
    reach past the kernel table's ``|x| = 26``."""
    dim = draw(st.integers(8, 48))
    kind = draw(st.sampled_from(["thermal", "coherent", "fock"]))
    detection = draw(st.sampled_from(["homodyne", "direct"]))
    state = {"thermal": dict(state_nbar=draw(st.floats(0.0, 2000.0))),
             "coherent": dict(state_alpha=draw(st.complex_numbers(
                 max_magnitude=40.0, allow_nan=False, allow_infinity=False))),
             "fock": dict(state_m=draw(st.integers(0, dim - 1)))}[kind]
    return ExperimentConfig(
        state_kind=kind, dim=dim, detection=detection, **state,
        target_n=draw(st.integers(0, 3)),
        target_d=draw(st.integers(0, 2)) if detection == "homodyne" else 0,
        eta_list=tuple(draw(st.lists(st.floats(0.3, 1.0), min_size=1, max_size=2))),
        n_samples=draw(st.integers(2, 1500)),
        jm_list=tuple(sorted(draw(st.sets(st.integers(1, 5), min_size=1)))),
        trials=1, master_seed=draw(st.integers(0, 2**32)))


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
        dict(jm_list=(0,), n_samples=10**9),            # budget product 0; ~150 GB held
        dict(jm_list=(1,), n_samples=5 * 10**7),        # within budget; ~7 GiB held
        dict(state_kind="coherent", state_alpha=28 + 0j, dim=8, detection="direct",
             target_n=0, jm_list=(1,)),                 # every amplitude underflows to 0
    ])
    def test_rejected(self, overrides):
        # a bad state parameter is named in the message
        names = {"state_nbar": "mean photon number", "state_alpha": "coherent amplitude"}
        match = next((names[k] for k in overrides if k in names), None)
        with pytest.raises(ValueError, match=match):
            replace(default_config("fig1"), **overrides).validate()

    @pytest.mark.parametrize("overrides,message", [
        (dict(state_nbar=60.0), "thermal state: 0.000359 samples expected past the kernel "
                                "table's limit |x| = 26, above the bound 1e-06"),
        (dict(state_kind="coherent", state_alpha=32 + 0j, dim=200), "coherent state: 1.83e+03 "
         "samples expected past the kernel table's limit |x| = 26, above the bound 1e-06"),
        (dict(state_kind="fock", state_m=484, dim=500), "fock state m = 484: its samples may "
         "pass the kernel table's limit |x| = 26, which fits indices up to 483"),
    ], ids=["thermal", "coherent", "fock"])
    def test_samples_that_may_pass_the_table_rejected(self, overrides, message):
        """Rejected with a message naming the state, the limit and the bound."""
        with pytest.raises(ValueError) as info:
            replace(default_config("fig1"), **overrides).validate()
        assert str(info.value) == message

    @pytest.mark.parametrize("overrides,message", [
        (dict(n_samples=2000.0), "n_samples: 2000.0 is not an integer"),
        (dict(trials=2.0), "trials: 2.0 is not an integer"),
        (dict(dim=64.0), "dim: 64.0 is not an integer"),
        (dict(target_n=2.0), "target_n: 2.0 is not an integer"),
        (dict(master_seed=True), "master_seed: True is not an integer"),
        (dict(jm_list=(2.5, 10)), "jm_list: 2.5 is not an integer"),
        (dict(eta_list=(0.6, "0.5")), "eta_list: '0.5' is not a real number"),
        (dict(state_nbar="2"), "state_nbar: '2' is not a real number"),
        (dict(jm_list=5), "jm_list: 5 is not a tuple or list"),
        (dict(eta_list=0.5), "eta_list: 0.5 is not a tuple or list"),
        (dict(state_alpha=None), "state_alpha: None is not a number"),
        (dict(state_nbar=True), "state_nbar: True is not a real number"),
        (dict(eta_list=(True,)), "eta_list: True is not a real number"),
        (dict(output_path=3), "output_path: 3 is not a string"),
        (dict(state_kind="coherent", state_alpha="1"), "state_alpha: '1' is not a number"),
    ])
    def test_non_integers_in_integer_fields_rejected(self, overrides, message, tmp_path):
        """Rejected up front by name, not by a ``TypeError`` mid-run or by truncating j_M.
        So is a wrongly typed value of another field, which used to end in a bare
        ``TypeError`` or be accepted although its config text does not read back equal."""
        config = replace(default_config("fig1"), **overrides)
        with pytest.raises(ValueError) as info:
            config.validate()
        assert str(info.value) == message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_fig1(config, out=tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("overrides", [
        dict(state_nbar=45.0), dict(state_kind="coherent", state_alpha=20 + 0j, dim=200),
        dict(state_kind="fock", state_m=483, dim=484)], ids=["thermal", "coherent", "fock"])
    def test_samples_inside_the_table_accepted(self, overrides):
        replace(default_config("fig1"), **overrides).validate()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(config=small_configs())
    def test_accepted_configs_run_and_rejected_ones_never_sample(self, config,
                                                                 tmp_path_factory):
        """A config ``validate()`` accepts runs to finite CSVs; one it rejects raises
        ``ValueError`` before any dataset is drawn."""
        out = tmp_path_factory.mktemp("fuzz") / "run.csv"
        try:
            config.validate()
        except ValueError:
            def sample(*args):
                raise AssertionError("sampled before the config was rejected")

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(experiments, "_measurement_source", sample)
                with pytest.raises(ValueError):
                    run_scan_table(config, out=out)
            assert not out.exists()
            return
        for path in run_scan_table(config, out=out):
            for row in read_rows(path):
                assert all(np.isfinite(float(row[k])) for k in ("value", "propagated_error"))

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

    @pytest.mark.parametrize("figure", ["fig1", "fig2", "direct"])
    def test_missing_output_directory_rejected_before_sampling(self, figure, tmp_path,
                                                               monkeypatch, capsys):
        def sample(*args):
            raise AssertionError("damped or sampled before the output was checked")

        for name in ("apply_loss", "sample_quadratures", "sample_counts"):
            monkeypatch.setattr(experiments, name, sample)
        out = tmp_path / "missing" / "f.csv"
        assert cli.main([figure, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"losscomp: error: output directory {out.parent} does not exist\n"
        assert not out.parent.exists()

    def test_returns_signal_and_grids(self):
        config = default_config("fig1")
        signal, grids = config.validate()
        assert grids == [config.truncation_grid(eta) for eta in config.eta_list]
        assert np.array_equal(signal.elements, config.state().build().elements)

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

    def test_samples_past_the_table_name_the_limit(self, tmp_path, monkeypatch):
        """A config whose samples would land past ``|x| = 26`` is rejected before sampling."""
        def sample(*args):
            raise AssertionError("sampled before the config was rejected")

        monkeypatch.setattr(experiments, "sample_quadratures", sample)
        config = replace(default_config("fig1"), state_nbar=1e6, trials=1, n_samples=2000)
        with pytest.raises(ValueError, match=r"^thermal state: 7\.68e\+03 samples expected past "
                                             r"the kernel table's limit \|x\| = 26, above the "
                                             r"bound 1e-06$"):
            run_fig1(config, out=tmp_path / "fig1.csv")
        assert not (tmp_path / "fig1.csv").exists()

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


@contextlib.contextmanager
def one_cpu():
    """Pin this process to one CPU of its affinity, which makes a run serial; restore after."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to compare a pooled run with a serial one")

# one signal per sampler path: Gaussian draws, Gaussian with a phase mean, inverse CDF
SIGNALS = {"thermal": {}, "coherent": dict(state_kind="coherent", state_alpha=1 + 0.5j),
           "fock": dict(state_kind="fock", state_m=2)}


def small_fig2(**overrides):
    return replace(default_config("fig2"), eta_list=(0.7, 0.5), n_samples=2000, trials=2,
                   jm_list=(10, 20, 100), **overrides)


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block with ``TimeoutError`` instead of letting it hang past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def raising_in(cell, exc, monkeypatch):
    """Make the cell ``(eta_index, trial)`` raise ``exc`` as it draws its samples."""
    source = experiments._measurement_source

    def failing_source(config, damped, rng):
        if rng.bit_generator.seed_seq.entropy[1:] == cell:
            raise exc
        return source(config, damped, rng)

    monkeypatch.setattr(experiments, "_measurement_source", failing_source)


class TwoPartError(Exception):
    """Pickles, but its arguments do not rebuild it: unpickling raises ``TypeError``."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


class TestWorkers:
    @needs_two_cpus
    @pytest.mark.parametrize("signal", sorted(SIGNALS))
    @pytest.mark.parametrize("figure", ["fig1", "fig2"])
    def test_bytes_do_not_depend_on_the_worker_count(self, figure, signal, tmp_path,
                                                     monkeypatch):
        small, run = (small_fig1, run_fig1) if figure == "fig1" else (small_fig2, run_fig2)
        config = small(**SIGNALS[signal])
        with one_cpu():
            serial = [p.read_bytes() for p in run(config, out=tmp_path / "serial.csv")]
        shared = [p.read_bytes() for p in run(config, out=tmp_path / "shared.csv")]
        monkeypatch.setattr(experiments, "_cpus", lambda: 3)
        three = [p.read_bytes() for p in run(config, out=tmp_path / "three.csv")]
        assert shared == serial and three == serial

    @staticmethod
    def cell_pids(config, tmp_path, monkeypatch):
        """The pid of the process that drew each cell's samples, in cell order."""
        log, source = tmp_path / "pids", experiments._measurement_source

        def logging_source(config, damped, rng):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{rng.bit_generator.seed_seq.entropy[1:]} {os.getpid()}\n")
            return source(config, damped, rng)

        monkeypatch.setattr(experiments, "_measurement_source", logging_source)
        log.unlink(missing_ok=True)
        run_scan_table(config, out=tmp_path / "run.csv")
        monkeypatch.setattr(experiments, "_measurement_source", source)
        return [int(line.rsplit(" ", 1)[1]) for line in sorted(log.read_text().splitlines())]

    @needs_two_cpus
    @pytest.mark.parametrize("figure", ["fig1", "direct"])
    def test_homodyne_cells_run_on_workers(self, figure, tmp_path, monkeypatch):
        """Homodyne cells are dealt in turn to this process and one forked child per
        further CPU (on two CPUs their pids alternate) unless the process has one CPU;
        photocounting cells always draw in-process.  No child or thread outlives the run."""
        config = replace(default_config(figure), eta_list=(0.6, 0.5) if figure == "fig1"
                         else (0.45, 0.42), n_samples=500, trials=2, jm_list=(1, 2, 5))
        parent = os.getpid()
        with one_cpu():
            assert self.cell_pids(config, tmp_path, monkeypatch) == [parent] * 4
        threads = threading.active_count()
        pids = self.cell_pids(config, tmp_path, monkeypatch)
        if figure == "direct":
            assert pids == [parent] * 4
        else:
            workers = min(len(os.sched_getaffinity(0)), 4)
            assert [set(pids[k::workers]) for k in range(workers)] == \
                [{parent}, *({pid} for pid in pids[1:workers])]
            assert len(set(pids)) == workers
        assert_no_children()
        assert threading.active_count() == threads

    def test_three_processes_deal_cells_in_turn(self, tmp_path, monkeypatch):
        """A 4-cell run on three processes: the parent draws cells 0 and 3, two children
        one cell each."""
        monkeypatch.setattr(experiments, "_cpus", lambda: 3)
        pids = self.cell_pids(small_fig1(n_samples=500), tmp_path, monkeypatch)
        assert pids[0] == pids[3] == os.getpid()
        assert len({os.getpid(), pids[1], pids[2]}) == 3
        assert_no_children()

    @needs_two_cpus
    def test_cells_stay_in_process_while_other_threads_run(self, tmp_path, monkeypatch):
        """A forked child would inherit the locks other threads hold."""
        config = small_fig1(n_samples=500)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert self.cell_pids(config, tmp_path, monkeypatch) == [os.getpid()] * 4
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        pids = self.cell_pids(config, tmp_path, monkeypatch)
        assert pids[0] == os.getpid() and len(set(pids)) > 1

    def test_failing_cell_fails_the_same_way_from_a_worker(self, tmp_path, monkeypatch,
                                                            capfd):
        """Cell (1, 1) is a child's on two CPUs."""
        monkeypatch.setattr(experiments, "_cpus", lambda: 2)
        source = experiments._measurement_source
        message = "density integrates to 0.9 in cell (1, 1)"
        raising_in((1, 1), NumericalSanityError(message), monkeypatch)
        config = small_fig1()
        with deadline(60), pytest.raises(NumericalSanityError) as info:
            run_fig1(config, out=tmp_path / "fig1.csv")
        assert type(info.value) is NumericalSanityError and str(info.value) == message
        assert_no_children()
        conf = tmp_path / "small.conf"
        conf.write_text(serialize_config(config))
        capfd.readouterr()
        with deadline(60):
            assert cli.main(["fig1", "--config", str(conf),
                             "--out", str(tmp_path / "c.csv")]) == 2
        assert capfd.readouterr() == ("", f"losscomp: error: {message}\n")
        assert_no_children()
        monkeypatch.setattr(experiments, "_measurement_source", source)
        run_fig1(config, out=tmp_path / "fig1.csv")
        assert_no_children()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failing_cell_in_the_parents_share_kills_the_children(self, cpus, tmp_path,
                                                                   monkeypatch):
        """Cell (0, 0) is the parent's first: it raises while every child still sleeps in
        its first cell, and the children are killed, not waited for."""
        monkeypatch.setattr(experiments, "_cpus", lambda: cpus)
        parent = os.getpid()

        def source(config, damped, rng):
            if os.getpid() != parent:
                time.sleep(600)
            raise NumericalSanityError("density integrates to 0.9")

        monkeypatch.setattr(experiments, "_measurement_source", source)
        with deadline(60), pytest.raises(NumericalSanityError, match="integrates to 0.9"):
            run_fig1(small_fig1(), out=tmp_path / "fig1.csv")
        assert_no_children()

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("kind", ["local class", "two-part init"])
    def test_unsendable_exception_is_raised_as_on_one_cpu(self, kind, cpus, tmp_path,
                                                          monkeypatch):
        """An exception that does not pickle, or does not unpickle, is raised with the type
        and message a one-CPU run raises.  Cell (1, 1) is a child's on two processes and the
        parent's on three."""
        class LocalError(Exception):
            pass

        exc = LocalError("cell (1, 1)") if kind == "local class" else TwoPartError("x", "y")
        raising_in((1, 1), exc, monkeypatch)
        config = small_fig1()
        with one_cpu(), pytest.raises(type(exc)) as serial:
            run_fig1(config, out=tmp_path / "serial.csv")
        monkeypatch.setattr(experiments, "_cpus", lambda: cpus)
        with deadline(60), pytest.raises(Exception) as shared:
            run_fig1(config, out=tmp_path / "shared.csv")
        assert type(shared.value) is type(serial.value) is type(exc)
        assert str(shared.value) == str(serial.value) == str(exc)
        assert_no_children()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_cells_failing_only_in_children_are_scanned_by_the_parent(self, cpus, tmp_path,
                                                                      monkeypatch):
        """A child whose cell raises sends nothing; the parent scans that child's share
        itself and the run writes the one-CPU bytes."""
        config = small_fig1()
        with one_cpu():
            serial = [p.read_bytes() for p in run_fig1(config, out=tmp_path / "serial.csv")]
        parent, source = os.getpid(), experiments._measurement_source

        def source_failing_in_children(config, damped, rng):
            if os.getpid() != parent:
                raise NumericalSanityError("density integrates to 0.9 in a child")
            return source(config, damped, rng)

        monkeypatch.setattr(experiments, "_cpus", lambda: cpus)
        monkeypatch.setattr(experiments, "_measurement_source", source_failing_in_children)
        with deadline(60):
            shared = [p.read_bytes() for p in run_fig1(config, out=tmp_path / "shared.csv")]
        assert shared == serial
        assert_no_children()

    def test_killed_worker_fails_the_run_instead_of_hanging_it(self, tmp_path, monkeypatch,
                                                               capfd):
        """A child killed by a signal fails the run with ``ChildProcessError`` naming it,
        and the CLI with one line and exit 2.  On two processes cell (1, 1) is the child's;
        on three, cell (0, 1) is the first child's, which dies while the second may still
        scan."""
        parent, source = os.getpid(), experiments._measurement_source
        config = small_fig1()
        conf = tmp_path / "small.conf"
        conf.write_text(serialize_config(config))
        killed = r"child process \d+ was killed by SIGKILL before sending its cells' results"
        for cpus, cell in [(2, (1, 1)), (3, (0, 1))]:
            def killing_source(config, damped, rng):
                if os.getpid() != parent and rng.bit_generator.seed_seq.entropy[1:] == cell:
                    os.kill(os.getpid(), signal.SIGKILL)
                return source(config, damped, rng)

            monkeypatch.setattr(experiments, "_cpus", lambda: cpus)
            monkeypatch.setattr(experiments, "_measurement_source", killing_source)
            with deadline(60), pytest.raises(ChildProcessError, match=f"^{killed}$"):
                run_fig1(config, out=tmp_path / "fig1.csv")
            assert_no_children()
            capfd.readouterr()
            with deadline(60):
                assert cli.main(["fig1", "--config", str(conf),
                                 "--out", str(tmp_path / "c.csv")]) == 2
            out, err = capfd.readouterr()
            assert out == "" and re.fullmatch(f"losscomp: error: {killed}\n", err)
            assert_no_children()

    def test_warm_runs_build_no_kernels_in_workers(self, tmp_path, monkeypatch):
        """The parent builds the ray's kernel rows before any worker forks, so its cache
        learns them and a second run finds every row there."""
        monkeypatch.setattr(oscillator, "_TABLES", None)
        config = small_fig1(jm_list=(1, 2, 5, 20, 60))
        first = [p.read_bytes() for p in run_fig1(config, out=tmp_path / "first.csv")]

        def no_kernels(self, n, m):
            raise AssertionError(f"kernel ({n}, {m}) built on a warm run")

        monkeypatch.setattr(oscillator._Tables, "kernel_derivatives", no_kernels)
        assert [p.read_bytes() for p in run_fig1(config, out=tmp_path / "second.csv")] == first


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


def test_coherent_fig1_tables_at_seed_7_keep_their_bytes(tmp_path):
    """The one pinned run whose Gaussian draws carry a phase mean and whose damped
    state has every ray nonzero."""
    config = replace(default_config("fig1"), state_kind="coherent", state_alpha=1 + 0.5j,
                     master_seed=7, trials=2)
    paths = run_fig1(config, out=tmp_path / "fig1.csv")
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()[:12] for p in paths)
    assert got == ("55b415526175", "f54b806fd1f6")


def test_nongauss_table_at_seed_7_keeps_its_bytes(tmp_path):
    """The one default output that reaches the rejection and inverse-CDF samplers
    and an off-diagonal ray: ``bench/nongauss.py --seed 7``.

    The header and the ``fock3`` rows (inverse-CDF draws) are pinned on their
    own, so a change to the rejection sampler can move only the ``cat`` rows.
    """
    script = Path(__file__).resolve().parents[1] / "bench" / "nongauss.py"
    spec = importlib.util.spec_from_file_location("nongauss", script)
    nongauss = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(nongauss)
    path = nongauss.run(7, tmp_path / "nongauss.csv")
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fock3 = header + "".join(row for row in rows if row.startswith("fock3,"))
    assert len(rows) == 400 and fock3.count("\n") == 201
    assert hashlib.sha256(fock3.encode()).hexdigest()[:12] == "3cbb911e2dab"
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:12] == "14c584b9d867"


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
