"""Memory bounds of the homodyne pipeline, and the streaming kernel pass behind them.

Peaks are read with tracemalloc, which counts numpy's buffers, so they do not
depend on the machine.  Each bound sits between the peak of the layout that
held whole arrays (the Numerov grid, a batch's located samples, a row block over
every cell, a proposal chunk's complex ``(dim, points)`` table, the sampler
tables' complex ray profiles and the full-matrix density table that the tests'
reference density (``reference.quadrature_pdf``) forms, the rejection draw's
whole-table node array and batch-wide scores) and the peak of the streaming one.
"""
import tracemalloc

import numpy as np
import pytest

from losscomp import apply_loss, experiments, homodyne, make_coherent, make_fock, oscillator
from losscomp.compensation import convergence_scans
from losscomp.fock_core import DensityMatrix
from losscomp.homodyne import QuadratureData, estimate_element

MIB = 2**20


def traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_build_keeps_its_peak():
    """One fig1-size table build: 24.3 MiB while the Numerov grid was held whole, about
    2 MiB kept."""
    assert traced_peak(oscillator._Tables, 102, 7.0) < 8 * MIB


def test_block_build_keeps_its_peak():
    """One fig1-size block build past the 12.0 MiB of stacks it allocates: 5.8 MiB while
    each row block was formed over all 700 cells at once, 2.1 MiB formed one 256-cell span
    at a time, 1.07 MiB one 128-cell span at a time."""
    t = oscillator._Tables(104, 7.0)
    peak = traced_peak(t.blocks, 0, 103)
    assert peak - sum(stack.nbytes for stack in t.blocks(0, 103)) < 1.5 * MIB


def damped_cat():
    """The even cat of alpha 1.5 in dim 32 at efficiency 0.6, as the nongauss workload
    samples it."""
    even = np.arange(32) % 2 == 0
    cat = make_coherent(1.5, 32).elements * np.outer(even, even)
    return apply_loss(DensityMatrix(32, cat / np.trace(cat).real), 0.6)


def test_rejection_draw_keeps_its_peak(monkeypatch):
    """24,000 draws of a damped cat from its kept tables: 9.5 MiB while each chunk of
    proposals was scored through a complex ``(dim, points)`` table, 3.4 MiB with the
    oscillator recursion streamed into the kept modes' amplitudes, 2.3 MiB with one
    density chunk scored at a time."""
    monkeypatch.setattr(homodyne, "_TABLES", {})
    table = homodyne._tables_for(damped_cat())
    assert traced_peak(table.draw, 24_000, np.random.default_rng(2903)) < 6 * MIB


def test_rejection_draw_holds_one_density_chunk(monkeypatch):
    """The same draw: 3.39 MiB while it held a node number for every entry of the bins'
    concatenated masses, about ten batch-sized arrays and the whole batch's scores at
    once, 2.3 MiB with node numbers formed one bin at a time, the batch arithmetic done in
    place and each density chunk accepted as soon as it is scored."""
    monkeypatch.setattr(homodyne, "_TABLES", {})
    table = homodyne._tables_for(damped_cat())
    assert traced_peak(table.draw, 24_000, np.random.default_rng(2903)) < 2.8 * MIB


def test_rejection_table_build_keeps_its_peak():
    """The damped cat's binned envelope: 8.24 MiB while its ray profiles and bin-centre
    products were complex whole-grid tables, 3.2 MiB with each profile folded in as it is
    formed."""
    assert traced_peak(homodyne._BinnedEnvelope, damped_cat()) < 5 * MIB


def test_inverse_cdf_build_keeps_its_peak():
    """Damped ``|3>``'s cumulative mass: 6.05 MiB while its density went through the
    complex ``(dim, points)`` table that the tests' reference density
    (``reference.quadrature_pdf``) forms, 2.1 MiB summed from the streamed ray profiles."""
    assert traced_peak(homodyne._InverseCdf, apply_loss(make_fock(3, 32), 0.6)) < 3.5 * MIB


def fig1_run(monkeypatch):
    """The fig1 default run as ``_scan_cells`` prepares it: its table built and its blocks
    allocated, each unit filling them as far as its samples reach."""
    monkeypatch.setattr(oscillator, "_TABLES", None)
    config = experiments.default_config("fig1")
    signal, grids = config.validate()
    j_top = max(max(grid) for grid in grids)
    t = oscillator.tables_for(config.target_n + config.target_d + j_top,
                              experiments._check_sample_extent(config, signal))
    t.blocks(config.target_d, config.target_n + j_top + 1, 0)
    return (config, signal, grids, convergence_scans)


def test_fig1_unit_keeps_its_peak(monkeypatch):
    """One fig1 unit, ten trials of 24,000 samples at eta 0.6, run serially and warm: 9.0
    MiB while the batch's samples were located together, one trial's worth now."""
    run = fig1_run(monkeypatch)
    trials = range(run[0].trials)
    experiments._cells(run, 0, trials)
    assert traced_peak(experiments._cells, run, 0, trials) < 4 * MIB


def test_fig1_run_fills_the_blocks_its_samples_reach(monkeypatch, tmp_path):
    """A serial default fig1 run fills its ray's blocks up to its last occupied cell, short
    of the 700 cells that its table holds out to its 1e-6 tail reach, |x| = 7."""
    monkeypatch.setattr(oscillator, "_TABLES", None)
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    last, locate = [], oscillator._locate

    def logging_locate(*args):
        located = locate(*args)
        last.append(int(located[1].max(initial=-1)))
        return located

    monkeypatch.setattr(oscillator, "_locate", logging_locate)
    config = experiments.default_config("fig1")
    experiments.run_fig1(config, out=tmp_path / "fig1.csv")
    rows = config.target_n + max(config.truncation_grid(eta)[-1] for eta in config.eta_list) + 1
    assert oscillator._TABLES.extent() == {config.target_d: (rows, max(last) + 1)}
    assert max(last) + 1 < oscillator._TABLES.dx.size == 700


def datasets(count):
    """Datasets of 2 to 3,000 samples whose extents run from |x| ~ 1 to ~ 9."""
    rng = np.random.default_rng(2817)
    for k in range(count):
        size = [2, 300, 3000, 41, 1200][k % 5]
        scale = 0.3 + 1.7 * ((3 * k) % count) / count
        yield QuadratureData(scale * rng.standard_normal(size), rng.uniform(0.0, np.pi, size))


@pytest.mark.parametrize("d", [0, 2])
def test_rays_from_a_generator_equal_the_list_form(d, monkeypatch):
    """17 datasets cross a 16-column group.  From a fresh table the wide datasets grow it
    mid-pass.  Each dataset is reduced before the next is pulled."""
    data = list(datasets(17))
    monkeypatch.setattr(oscillator, "_TABLES", None)
    listed = homodyne.estimate_rays(data, 1, d, j_max=40)

    located = []
    locate = oscillator._locate
    monkeypatch.setattr(oscillator, "_locate", lambda *args: located.append(1) or locate(*args))

    def pulled():
        for k, samples in enumerate(data):
            assert len(located) == k, "a dataset was pulled before the last one was reduced"
            yield samples

    monkeypatch.setattr(oscillator, "_TABLES", None)
    streamed = homodyne.estimate_rays(pulled(), 1, d, j_max=40)
    assert len(streamed) == len(listed) == 17
    for one, many, samples in zip(streamed, listed, data):
        alone = estimate_element(samples, 1, d, j_max=40)
        for ray in (many, alone):
            assert one.estimate.tobytes() == ray.estimate.tobytes()
            assert one.stderr.tobytes() == ray.stderr.tobytes()


def test_a_short_dataset_from_a_generator_still_raises():
    data = list(datasets(3))
    with pytest.raises(ValueError, match="need at least two samples"):
        homodyne.estimate_rays(iter(data + [QuadratureData([0.1], [0.2])] + data), 1, 2, 5)
