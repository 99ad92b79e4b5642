"""Seeded experiment harness: figure tables as CSV, nothing interactive.

Each run is fully determined by an :class:`ExperimentConfig`.  The RNG
splitting rule is ``default_rng(SeedSequence((master_seed, eta_index,
trial)))`` per (efficiency, trial) cell, so cells are independent and
any execution order gives identical output.  A homodyne run therefore
shares its cells among the process and forked children, one process per
CPU it may run on (``taskset -c 0`` gives a one-CPU, serial run); a
direct-detection run, whose cells take microseconds, stays in-process.
The bytes are the same either way, and so is a failing cell's exception:
a child whose cell raises sends nothing, and the parent scans that
child's cells itself.  Tables carry a 12-hex-digit hash of
the canonical config serialization in every row; reruns with the same
config are byte-identical.

Outputs per run: a mean table (one row per (eta, truncation index),
averaged over trials) and a sibling ``*_trials.csv`` with the per-trial
rows that the averages came from.
"""
from __future__ import annotations

import hashlib
import math
import numbers
import os
import pickle
import signal
import threading
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import oscillator
from .compensation import convergence_scan, error_vs_eta, truncation_indices
from .direct_detection import sample_counts
from .fock_core import StateSpec
from .homodyne import sample_quadratures
from .loss_channel import _DIM_LIMIT, _damped_law, apply_loss, inverse_coefficient

DEFAULT_MASTER_SEED = 235711

# sanity ceiling on N * max(j_M).  A ray's kernel pass costs its kernel rows
# times its occupied table cells plus a few passes over its N samples, so
# this product no longer tracks runtime; it rejects configs far past the
# defaults, which sit 20-60x below it (fig1 2.4e6, fig2 8e5)
_BUDGET = 5 * 10**7
# a run holds about 150 B per sample whatever j_M is: 10^7 samples is 1.5 GiB
_SAMPLE_LIMIT = 10**7
# expected homodyne samples past the kernel table's |x| limit, over all of a run's
# cells, above which a config is rejected up front instead of failing after sampling
_PAST_LIMIT_BOUND = 1e-6


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

    def validate(self):
        """Reject a config that cannot run; return its signal state and per-eta j_M grids."""
        entries = [(f.name, f.type, getattr(self, f.name)) for f in fields(self)
                   if f.type in _KINDS]
        for name, kind in (("eta_list", "float"), ("jm_list", "int")):
            values = getattr(self, name)
            if values is None and name == "jm_list":
                continue
            if not isinstance(values, (tuple, list)):
                raise ValueError(f"{name}: {values!r} is not a tuple or list")
            entries += [(name, kind, value) for value in values]
        for name, kind, value in entries:
            types, what = _KINDS[kind]
            if not isinstance(value, types) or isinstance(value, bool) and kind != "complex":
                raise ValueError(f"{name}: {value!r} is not {what}")
        if self.detection not in ("homodyne", "direct"):
            raise ValueError(f"unknown detection mode {self.detection!r}")
        if not self.eta_list:
            raise ValueError("eta_list must be non-empty")
        for eta in self.eta_list:
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"efficiency {eta} outside (0, 1]")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if self.n_samples > _SAMPLE_LIMIT:
            raise ValueError(f"n_samples {self.n_samples} exceeds the memory bound "
                             f"{_SAMPLE_LIMIT}")
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
        grids = [self.truncation_grid(eta) for eta in self.eta_list]
        j_top = max(max(grid) for grid in grids)
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
        for eta, grid in zip(self.eta_list, grids):  # raises where a weight's square overflows
            inverse_coefficient(self.target_n, self.target_d, np.arange(max(grid) + 1), eta)
        signal = self.state().build()  # the build surfaces bad state parameters
        if self.detection == "homodyne":
            _check_sample_extent(self, signal)
        return signal, grids

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
# what a field of each annotated type, or an entry of eta_list (float) or jm_list (int),
# must be; a bool passes only as the complex state_alpha
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number"),
          "complex": (numbers.Number, "a number"), "str": (str, "a string")}


def _check_sample_extent(config, signal):
    """Reject a homodyne run whose samples may land past the kernel table's ``|x|`` limit.

    A Gaussian-law state's samples at efficiency eta are normal with the damped
    law's variance and a mean no farther from 0 than the damped amplitude's
    modulus, so their expected count past the limit over all cells has a
    closed form.  A number state's mass past the limit is negligible while its
    index fits the table (1.8e-67 at the largest index, 483).
    """
    limit = oscillator._X_LIMIT
    if signal.quadrature_law is None:
        if config.state_m > oscillator._INDEX_LIMIT:
            raise ValueError(f"fock state m = {config.state_m}: its samples may pass the kernel "
                             f"table's limit |x| = {limit:g}, which fits indices up to "
                             f"{oscillator._INDEX_LIMIT}")
        return
    expected = 0.0
    for eta in config.eta_list:
        law = _damped_law(signal.quadrature_law, eta)
        mean, scale = abs(law.mean_amplitude), math.sqrt(2.0 * law.variance)
        expected += math.erfc((limit - mean) / scale) + math.erfc((limit + mean) / scale)
    expected *= 0.5 * config.n_samples * config.trials
    if not expected <= _PAST_LIMIT_BOUND:
        raise ValueError(f"{config.state_kind} state: {expected:.3g} samples expected past the "
                         f"kernel table's limit |x| = {limit:g}, above the bound "
                         f"{_PAST_LIMIT_BOUND:g}")


def _format_value(value, sign=""):
    if value is None:
        return "auto"
    if isinstance(value, (tuple, list)):
        return ",".join(map(_format_value, value))
    if isinstance(value, complex):
        return f"{_format_value(value.real)}{_format_value(value.imag, '+')}j"
    if isinstance(value, float):  # 9 significant digits unless they do not read back exactly
        text = f"{value:{sign}.9g}"
        return text if float(text) == value else f"{value:{sign}}"
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical flat ``key = value`` text; the hash is taken over this.

    A list is written as the equal tuple and a real ``state_alpha`` as the
    equal complex number, so equal configs share their text and hash.
    """
    values = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    if isinstance(values["state_alpha"], numbers.Number):
        values["state_alpha"] = complex(values["state_alpha"])
    lines = [f"{name} = {_format_value(value)}" for name, value in values.items()]
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
        try:
            updates[name] = _parse_value(name, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {name}: {exc}") from exc
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


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def _trials_path(path: Path) -> Path:
    return path.with_name(path.stem + "_trials" + path.suffix)


def _cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _cell(cell, run):
    """Result of one ``(eta_index, trial)`` cell of ``run``."""
    config, damped, grids, scan = run
    eta_index, trial = cell
    source = _measurement_source(config, damped[eta_index],
                                 _trial_rng(config, eta_index, trial))
    return scan(source, config.target_n, config.target_d, config.eta_list[eta_index],
                grids[eta_index])


def _map_cells(run, cells, serial):
    """``[_cell(c, run) for c in cells]``, in order, shared among ``W`` processes.

    ``W`` is one per CPU the process may run on, at most one per cell, and 1
    when ``serial`` is set, where ``fork`` does not exist, or while other
    threads run, whose held locks a forked child would inherit.  The parent
    forks ``W - 1`` children, which inherit ``run`` and every table built so
    far; child ``k`` computes ``cells[k::W]`` and pickles its results back
    through a pipe, the parent computes ``cells[0::W]`` itself, so ``W = 1`` is
    the serial loop.  A child whose cell raises exits 1 and sends nothing, and
    the parent computes that child's share itself, so a failing cell raises
    its own exception here, as at ``W = 1``, and a cell that fails only in a
    child costs time, not the run.  Where several cells fail, the parent's
    share decides first, then each child's in turn.  A child killed by a
    signal raises ``ChildProcessError`` naming it.  Every child is killed and
    reaped before the call returns or raises.
    """
    workers = (1 if serial or not hasattr(os, "fork") or threading.active_count() > 1
               else min(_cpus(), len(cells)))

    def scan(share):
        return [_cell(cell, run) for cell in cells[share::workers]]

    children = {}  # pid -> read end of its pipe, in share order
    try:
        for share in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)  # so a write to a dead parent fails instead of blocking
                    with open(write, "wb") as pipe:
                        pickle.dump(scan(share), pipe)
                    os._exit(0)
                finally:  # never return into the parent's stack
                    os._exit(1)
            children[pid] = open(read, "rb")
            # closed before the next fork, the child's write end is the only one left,
            # so its death reads as EOF
            os.close(write)
        results = [None] * len(cells)
        results[0::workers] = scan(0)
        for share, pid in enumerate(list(children), start=1):
            with children[pid] as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code < 0:
                raise ChildProcessError(f"child process {pid} was killed by "
                                        f"{signal.Signals(-code).name} before sending its "
                                        "cells' results")
            results[share::workers] = pickle.loads(data) if code == 0 else scan(share)
        return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _scan_cells(config, out, scan):
    """The (eta, trial) cell loop behind every figure table.

    Validates ``config``, checks the output directory, sizes the kernel table
    for the largest kernel index a homodyne run needs and builds the kernel
    rows of its ray, and damps the signal once per efficiency.  Then it hands
    each cell a fresh dataset drawn from its own RNG stream to
    ``scan(source, target_n, target_d, eta, jm_grid)``.  Homodyne cells are
    shared, interleaved, among this process and forked children, one process
    per CPU in its affinity; the children inherit the table, its rows and the
    damped states.  Direct-detection cells run in-process.  Results come back
    in cell order, so the output does not depend on the process count.
    Returns the output path, the signal and, per efficiency, ``(eta, jm_grid,
    [result per trial])``.
    """
    signal, grids = config.validate()
    out_path = Path(out) if out is not None else Path(config.output_path)
    if not out_path.parent.is_dir():
        raise FileNotFoundError(f"output directory {out_path.parent} does not exist")
    n, d = config.target_n, config.target_d
    # one kernel table, sized for every cell's ray, and the ray's rows: built here,
    # they are built once, not once per forked child
    if config.detection == "homodyne":
        j_top = max(max(grid) for grid in grids)
        oscillator.tables_for(n + d + j_top).band(d, n + j_top + 1)
    damped = [apply_loss(signal, eta) for eta in config.eta_list]
    cells = [(eta_index, trial) for eta_index in range(len(grids))
             for trial in range(config.trials)]
    results = _map_cells((config, damped, grids, scan), cells,
                         serial=config.detection == "direct")
    trials = config.trials
    table = [(eta, jm_grid, results[k * trials:(k + 1) * trials])
             for k, (eta, jm_grid) in enumerate(zip(config.eta_list, grids))]
    return out_path, signal, table


def _write_tables(config, out_path, columns, mean_rows, trial_columns, trial_rows):
    chash = config_hash(config)
    trials_path = _trials_path(out_path)
    for path, header, rows in ((out_path, ["eta", "j_M", *columns], mean_rows),
                               (trials_path, ["eta", "trial", "j_M", *trial_columns],
                                trial_rows)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join([*header, "config_hash"]) + "\n")
            for row in rows:
                fh.write(",".join([*row, chash]) + "\n")
    return out_path, trials_path


def run_scan_table(config: ExperimentConfig, out=None):
    """Shared engine behind ``run_fig1`` and ``run_direct_contrast``.

    Emits the mean table ``eta,j_M,value,propagated_error,
    empirical_error,theory,config_hash`` plus per-trial rows (with the
    per-trial scan verdict) in the sibling file.  CSV cells hold real
    parts; off-diagonal targets keep their full complex values in the
    library API only.
    """
    out_path, signal, table = _scan_cells(config, out, convergence_scan)
    theory = signal.element(config.target_n, config.target_n + config.target_d).real
    mean_rows, trial_rows = [], []
    for eta, jm_grid, results in table:
        values = np.array([[value.real for _, value, _ in r.trace] for r in results])
        errors = np.array([[error for _, _, error in r.trace] for r in results])
        for trial, result in enumerate(results):
            for jm, value, error in result.trace:
                trial_rows.append([
                    _fmt(eta), _fmt(trial), _fmt(jm), _fmt(value.real),
                    _fmt(error), result.verdict])
        spread = (np.std(values, axis=0, ddof=1) if config.trials > 1
                  else np.full(len(jm_grid), np.nan))
        for k, jm in enumerate(jm_grid):
            mean_rows.append([
                _fmt(eta), _fmt(jm), _fmt(values[:, k].mean()),
                _fmt(errors[:, k].mean()), _fmt(spread[k]), _fmt(theory)])
    return _write_tables(
        config, out_path, ["value", "propagated_error", "empirical_error", "theory"],
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
    out_path, _, table = _scan_cells(config, out, error_vs_eta)
    mean_rows, trial_rows = [], []
    for eta, jm_grid, results in table:
        per_trial = np.array(results)
        for trial, errors in enumerate(results):
            for jm, error in zip(jm_grid, errors):
                trial_rows.append([_fmt(eta), _fmt(trial), _fmt(jm), _fmt(error)])
        for k, jm in enumerate(jm_grid):
            mean_rows.append([_fmt(eta), _fmt(jm), _fmt(per_trial[:, k].mean())])
    return _write_tables(config, out_path, ["propagated_error"], mean_rows,
                         ["propagated_error"], trial_rows)
