"""Seeded experiment harness: figure tables as CSV, nothing interactive.

Each run is fully determined by an :class:`ExperimentConfig`.  The RNG
splitting rule is ``default_rng(SeedSequence((master_seed, eta_index,
trial)))`` per (efficiency, trial) cell, so cells are independent and
any execution order gives identical output.  Tables carry a 12-hex-digit
hash of the canonical config serialization in every row; reruns with the
same config are byte-identical.

Outputs per run: a mean table (one row per (eta, truncation index),
averaged over trials) and a sibling ``*_trials.csv`` with the per-trial
rows that the averages came from.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import oscillator
from .compensation import convergence_scan, error_vs_eta, truncation_indices
from .direct_detection import sample_counts
from .fock_core import StateSpec
from .homodyne import sample_quadratures
from .loss_channel import _DIM_LIMIT, apply_loss, inverse_coefficient

DEFAULT_MASTER_SEED = 235711

# sanity ceiling on N * max(j_M): kernel evaluations dominate runtime and
# the default runs sit two orders of magnitude below this
_BUDGET = 5 * 10**7


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, text-serializable description of one experiment run."""

    state_kind: str = "thermal"
    state_nbar: float = 2.0
    state_alpha: complex = 1.0 + 0.0j
    state_m: int = 0
    dim: int = 64
    target_n: int = 2
    target_d: int = 0
    detection: str = "homodyne"
    eta_list: tuple = (0.6, 0.55, 0.53, 0.5)
    n_samples: int = 24000
    jm_list: tuple | None = None  # None -> per-eta default grid
    trials: int = 10
    master_seed: int = DEFAULT_MASTER_SEED
    output_path: str = "fig1.csv"

    def state(self) -> StateSpec:
        return StateSpec(kind=self.state_kind, dim=self.dim, nbar=self.state_nbar,
                         m=self.state_m, alpha=self.state_alpha)

    def validate(self) -> None:
        if self.detection not in ("homodyne", "direct"):
            raise ValueError(f"unknown detection mode {self.detection!r}")
        if not self.eta_list:
            raise ValueError("eta_list must be non-empty")
        for eta in self.eta_list:
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"efficiency {eta} outside (0, 1]")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed {self.master_seed} must be nonnegative")
        if self.target_n < 0 or self.target_d < 0:
            raise ValueError("target indices must be nonnegative")
        if self.dim > _DIM_LIMIT:
            raise ValueError(f"dim {self.dim} exceeds the loss weights' limit {_DIM_LIMIT}")
        top = self.target_n + self.target_d
        if top >= self.dim:
            raise ValueError(f"target element ({self.target_n}, {top}) lies outside "
                             f"dimension {self.dim}")
        j_tops = [max(self.truncation_grid(eta)) for eta in self.eta_list]
        j_top = max(j_tops)
        if self.n_samples * j_top > _BUDGET:
            raise ValueError(
                f"n_samples * max(j_M) = {self.n_samples * j_top} exceeds the "
                f"compute budget {_BUDGET}")
        if self.detection == "homodyne" and top + j_top > oscillator._INDEX_LIMIT:
            raise ValueError(f"kernel index {top + j_top} exceeds the kernel table's "
                             f"limit {oscillator._INDEX_LIMIT}")
        if self.detection == "direct":
            if self.target_d != 0:
                raise ValueError("direct detection only measures diagonal elements")
            if self.target_n + j_top >= self.dim:
                raise ValueError("truncation grid reaches beyond the state dimension")
        for eta, j in zip(self.eta_list, j_tops):   # raises where a weight's square overflows
            inverse_coefficient(self.target_n, self.target_d, np.arange(j + 1), eta)
        self.state().build()  # surfaces bad state parameters early

    def truncation_grid(self, eta: float) -> list:
        """j_M grid for one efficiency: explicit list (checked), or the default.

        The default homodyne grid is 1..20, extended by 25..100 in steps
        of 5 when eta <= 0.53 — the spaced tail is what lets the scan
        verdict separate a slowly-settling error from one still growing
        like a power of j_M.  Direct detection defaults to 1..40.
        """
        if self.jm_list is not None:
            return truncation_indices(self.jm_list)
        if self.detection == "direct":
            return list(range(1, 41))
        grid = list(range(1, 21))
        if eta <= 0.53 + 1e-12:
            grid += list(range(25, 101, 5))
        return grid


_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def _format_value(value, sign=""):
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(map(_format_value, value))
    if isinstance(value, complex):
        return f"{_format_value(value.real)}{_format_value(value.imag, '+')}j"
    if isinstance(value, float):  # 9 significant digits unless they do not read back exactly
        text = f"{value:{sign}.9g}"
        return text if float(text) == value else f"{value:{sign}}"
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical flat ``key = value`` text; the hash is taken over this."""
    lines = [f"{name} = {_format_value(getattr(config, name))}"
             for name in _CONFIG_FIELDS]
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()[:12]


def _parse_value(name, text):
    text = text.strip()
    if name == "eta_list":
        return tuple(float(v) for v in text.split(","))
    if name == "jm_list":
        return None if text == "auto" else tuple(int(v) for v in text.split(","))
    return type(getattr(ExperimentConfig(), name))(text)


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read flat ``key = value`` lines over a base config (``#`` comments ok)."""
    config = base if base is not None else ExperimentConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        name, _, value = line.partition("=")
        name = name.strip()
        if name not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {name!r}")
        updates[name] = _parse_value(name, value)
    return replace(config, **updates)


def default_config(figure: str) -> ExperimentConfig:
    """Built-in defaults for ``fig1``, ``fig2``, and ``direct`` runs."""
    if figure == "fig1":
        return ExperimentConfig()
    if figure == "fig2":
        return ExperimentConfig(
            eta_list=tuple(round(0.4 + 0.025 * k, 3) for k in range(21)),
            n_samples=8000, jm_list=(10, 20, 100), output_path="fig2.csv")
    if figure == "direct":
        return ExperimentConfig(
            detection="direct", eta_list=(0.45, 0.42), output_path="direct.csv")
    raise ValueError(f"unknown figure {figure!r}")


def _trial_rng(config, eta_index, trial):
    seq = np.random.SeedSequence((config.master_seed, eta_index, trial))
    return np.random.default_rng(seq)


def _measurement_source(config, damped, rng):
    if config.detection == "direct":
        return sample_counts(damped, config.n_samples, rng)
    return sample_quadratures(damped, config.n_samples, rng)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.9g}"


def _trials_path(path: Path) -> Path:
    return path.with_name(path.stem + "_trials" + path.suffix)


def _scan_cells(config, scan):
    """The (eta, trial) cell loop behind every figure table.

    Validates ``config``, damps the signal once per efficiency, and hands
    each cell a fresh dataset drawn from its own RNG stream to
    ``scan(source, eta, jm_grid)``.  Returns the signal state and, per
    efficiency, ``(eta, jm_grid, [scan result per trial])``.
    """
    config.validate()
    signal = config.state().build()
    table = []
    for eta_index, eta in enumerate(config.eta_list):
        jm_grid = config.truncation_grid(eta)
        damped = apply_loss(signal, eta)
        table.append((eta, jm_grid, [
            scan(_measurement_source(config, damped, _trial_rng(config, eta_index, trial)),
                 eta, jm_grid)
            for trial in range(config.trials)]))
    return signal, table


def _write_tables(config, out, columns, mean_rows, trial_columns, trial_rows):
    out_path = Path(out) if out is not None else Path(config.output_path)
    _write_csv(out_path, ["eta", "j_M", *columns, "config_hash"], mean_rows)
    _write_csv(_trials_path(out_path),
               ["eta", "trial", "j_M", *trial_columns, "config_hash"], trial_rows)
    return out_path, _trials_path(out_path)


def run_scan_table(config: ExperimentConfig, out=None):
    """Shared engine behind ``run_fig1`` and ``run_direct_contrast``.

    Emits the mean table ``eta,j_M,value,propagated_error,
    empirical_error,theory,config_hash`` plus per-trial rows (with the
    per-trial scan verdict) in the sibling file.  CSV cells hold real
    parts; off-diagonal targets keep their full complex values in the
    library API only.
    """
    n, d = config.target_n, config.target_d
    signal, table = _scan_cells(
        config, lambda source, eta, grid: convergence_scan(source, n, d, eta, grid))
    chash = config_hash(config)
    theory = signal.element(n, n + d).real
    mean_rows, trial_rows = [], []
    for eta, jm_grid, results in table:
        values = np.array([[value.real for _, value, _ in r.trace] for r in results])
        errors = np.array([[error for _, _, error in r.trace] for r in results])
        for trial, result in enumerate(results):
            for jm, value, error in result.trace:
                trial_rows.append([
                    _fmt(eta), _fmt(trial), _fmt(jm), _fmt(value.real),
                    _fmt(error), result.verdict, chash])
        spread = (np.std(values, axis=0, ddof=1) if config.trials > 1
                  else np.full(len(jm_grid), np.nan))
        for k, jm in enumerate(jm_grid):
            mean_rows.append([
                _fmt(eta), _fmt(jm), _fmt(values[:, k].mean()),
                _fmt(errors[:, k].mean()), _fmt(spread[k]), _fmt(theory), chash])
    return _write_tables(
        config, out, ["value", "propagated_error", "empirical_error", "theory"],
        mean_rows, ["value", "propagated_error", "verdict"], trial_rows)


def run_fig1(config: ExperimentConfig | None = None, out=None):
    """Compensated element versus truncation index, around the transition."""
    return run_scan_table(config if config is not None else default_config("fig1"),
                          out=out)


def run_direct_contrast(config: ExperimentConfig | None = None, out=None):
    """Same table for photocounting at efficiencies below the transition."""
    return run_scan_table(config if config is not None else default_config("direct"),
                          out=out)


def run_fig2(config: ExperimentConfig | None = None, out=None):
    """Normalized error versus efficiency for several truncation indices.

    Mean table ``eta,j_M,propagated_error,config_hash``; one fresh
    dataset per (eta, trial) cell, averaged over trials.
    """
    config = config if config is not None else default_config("fig2")
    n, d = config.target_n, config.target_d
    _, table = _scan_cells(
        config, lambda source, eta, grid: error_vs_eta(source, n, d, [eta], grid))
    chash = config_hash(config)
    mean_rows, trial_rows = [], []
    for eta, jm_grid, results in table:
        per_trial = np.array([[error for _, _, error in rows] for rows in results])
        for trial, rows in enumerate(results):
            for _, jm, error in rows:
                trial_rows.append([_fmt(eta), _fmt(trial), _fmt(jm), _fmt(error), chash])
        for k, jm in enumerate(jm_grid):
            mean_rows.append(
                [_fmt(eta), _fmt(jm), _fmt(per_trial[:, k].mean()), chash])
    return _write_tables(config, out, ["propagated_error"], mean_rows,
                         ["propagated_error"], trial_rows)
