"""Scenario runners: gated metrics, plot-ready tables, deterministic CSV.

Each runner takes an ExperimentConfig and returns a ScenarioResult whose
scalar metrics all carry the threshold they were gated against.  Nothing
here draws; the CSV schemas are the figures.

Unit conventions: the algebra/dynamics scenarios (spectrum, susy-check,
eta-sweep) run in natural units (hbar = m = 1, lengths in x0 = 1/sqrt(omega),
energies in omega).  The bench scenarios (bdag-check, trotter-convergence)
run in the dimensionless oscillator frame, the natural frame at omega = 1,
which is the frame a bench encodes transversely; the trap frequency only
rescales the time-to-distance map and the reference distances are stated
for the design step T/60.  Results carry the hash of the caller's config.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import FIDELITY_POWER, ExperimentConfig, config_hash, setup
from .errors import ConfigurationError, ContractError, DegenerateStateError, NumericalError
from .evolution import (
    ORACLE_TOL,
    TrotterPlan,
    eigenbasis,
    exact_evolve,
    trotter_evolve,
    trotter_states,
)
from .grids import (
    MOMENTUM,
    WaveFunction,
    _frozen,
    fidelity,
    make_random_states,
    norm,
    normalized,
    to_momentum,
    to_position,
)
from .optics import (
    PhysicalUnits,
    _mirror_index,
    calibrate_interferometer,
    compile_trotter_train,
    interferometric_B_dag,
    map_distance_to_time,
    map_time_to_distance,
    simulate_train,
)
from .susy import PotentialField, apply_B_dag, bound_spectrum, eta_potential

SCENARIO_RUNNERS = {}  # populated at the bottom of the module

# eta-sweep reference samples raised by B+ as one stack; 8 keeps the peak RSS flat
_REFERENCE_BLOCK = 8


def _refuse_unsafe(cells) -> None:
    """Raise on the first text cell CSV cannot hold: one with a comma or a newline."""
    if unsafe := [c for c in cells if "," in c or "\n" in c]:
        raise ConfigurationError(f"cell value {unsafe[0]!r} is not CSV-safe")


@dataclass(frozen=True)
class GatedScalar:
    """One named metric plus the acceptance gate it was checked against, both CSV-safe text."""

    name: str
    value: float
    gate: str
    passed: bool

    def __post_init__(self):
        _refuse_unsafe((self.name, self.gate))


@dataclass(frozen=True)
class Table:
    """One CSV-able series: structured rows whose fields are the columns, text cells CSV-safe."""

    name: str
    rows: np.ndarray
    notes: tuple = ()

    def __post_init__(self):
        for name in self.rows.dtype.names:
            if self.rows[name].dtype.kind not in "fiub":
                _refuse_unsafe(_column_text(self.rows[name]))


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    config_hash: str
    tool_version: str
    defaulted_keys: tuple
    scalars: tuple
    tables: tuple
    texts: tuple = ()

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.scalars)


def _gate(name, value, lo=-math.inf, hi=math.inf) -> GatedScalar:
    """`value` gated on the window [lo, hi]; the text leaves out an infinite end."""
    value = float(value)
    if lo == -math.inf:
        text = f"value <= {hi!r}"
    elif hi == math.inf:
        text = f"value >= {lo!r}"
    else:
        text = f"{lo!r} <= value <= {hi!r}"
    return GatedScalar(name, value, text, bool(lo <= value <= hi))


# --- scenario building blocks -------------------------------------------------

def _two_path_plan(cfg: ExperimentConfig) -> TrotterPlan:
    """The natural-units step plan of the two-path scenarios."""
    return TrotterPlan(2.0 * math.pi / cfg.omega / cfg.steps_per_period,
                       cfg.steps_per_period * cfg.evolution_periods)


def _table(name, notes=(), **columns) -> Table:
    """Table whose fields are the equal-length keyword columns, in order."""
    return Table(name, np.rec.fromarrays(list(columns.values()), names=list(columns)),
                 tuple(notes))


def _long_table(name, notes=(), **columns) -> Table:
    """Long-format table of a 2-d surface.

    The three keyword columns are the row coordinate, the column coordinate
    and the (rows, cols) surface, in that order.
    """
    (row, row_coord), (col, col_coord), (value, surface) = columns.items()
    m, n = surface.shape
    return _table(name, notes, **{row: np.repeat(row_coord, n),
                                  col: np.tile(col_coord, m),
                                  value: surface.ravel()})


def _result(cfg, scenario, scalars, tables, texts=()) -> ScenarioResult:
    return ScenarioResult(scenario, config_hash(cfg), __version__,
                          tuple(cfg.defaulted_keys), tuple(scalars),
                          tuple(tables), tuple(texts))


# --- runners -------------------------------------------------------------------

def run_spectrum(cfg: ExperimentConfig) -> ScenarioResult:
    """Partner potentials, their low spectra, and the offset pairing of the levels.

    The pairing gate is E1_n against E2_(n+1) within 1e-6 omega; the leftover
    ground state of V2 must sit at zero energy on the same tolerance.
    """
    run = setup(cfg)
    grid, v1, v2 = run.grid, run.v1, run.v2
    k = cfg.spectrum_levels
    s1 = bound_spectrum(v1, k)
    s2 = bound_spectrum(v2, k + 1)
    tol = 1e-6 * cfg.omega
    gaps = np.abs(s1.energies - s2.energies[1:])
    ground = float(s2.energies[0])

    scalars = (
        _gate("max_paired_gap", float(gaps.max()), hi=tol),
        GatedScalar("ground_energy_v2", ground, f"|value| <= {tol!r}",
                    bool(abs(ground) <= tol)),
    )
    potentials = _table("potentials", x=grid.x, V1=v1.values, V2=v2.values)
    levels = _table(
        "levels",
        (f"unpaired ground energy of V2: {ground!r}",
         f"eigensolver: spectral, V1 on {s1.band_points} and V2 on "
         f"{s2.band_points} of {grid.n} points"),
        n=np.arange(k), E1_n=s1.energies, E2_n=s2.energies[:k],
        gap_E1_n_vs_E2_n1=gaps)
    return _result(cfg, "spectrum", scalars, (potentials, levels))


def run_susy_check(cfg: ExperimentConfig) -> ScenarioResult:
    """The two-path dynamics check: evolve-then-raise against raise-then-evolve.

    Path one evolves the initial Gaussian under V1 and applies B+ at each
    sample; path two applies B+ first and evolves under V2.  With exact
    partner dynamics the two paths coincide for all t; the split-step and
    grid errors leave a small, slowly growing deviation.  Both paths run as
    one two-row stream; the samples of each form one (samples, n) stack,
    path one's raised by B+ at once.  Both stacks are normalized per sample
    before densities and deviations are formed, since B+ output is not
    normalized.
    """
    run = setup(cfg)
    grid, plan = run.grid, _two_path_plan(cfg)
    steps, samples = zip(*trotter_states(
        WaveFunction(grid, _frozen(np.vstack([run.psi0.values, run.psi_raised.values]))),
        PotentialField(grid, _frozen(np.vstack([run.v1.values, run.v2.values]))),
        plan, stride=cfg.trace_stride))
    a, b = (WaveFunction(grid, _frozen(np.stack([s.values[row] for s in samples])))
            for row in (0, 1))
    del samples
    a, b = normalized(apply_B_dag(a, run.W)), normalized(b)
    fid_t0, fid_final = fidelity(a, b)[[0, -1]].tolist()  # the last sample is step n_steps
    times = np.multiply(steps, plan.dt)
    dens1, dens2 = np.abs(a.values) ** 2, np.abs(b.values) ** 2
    devs = np.abs(a.values - b.values) ** 2
    del a, b  # the sample stacks are freed before the tables are built
    e = FIDELITY_POWER[cfg.fidelity_convention]
    scalars = (
        _gate("fidelity_t0", fid_t0**e, (1.0 - 1e-12)**e, 1.0**e),
        _gate("fidelity_final", fid_final**e, 0.9953**e, 0.9993**e),
        _gate("peak_deviation", devs.max(), 1e-4, 10.0 ** -1.5),
    )
    note = ("states normalized per sample before densities and deviations",)
    tables = (
        _long_table("density_evolve_then_raise", note,
                    t=times, x=grid.x, density=dens1),
        _long_table("density_raise_then_evolve", note,
                    t=times, x=grid.x, density=dens2),
        _long_table("deviation", note,
                    t=times, x=grid.x, deviation_density=devs),
        _table("snapshots", x=grid.x,
               evolve_then_raise_t0=dens1[0], raise_then_evolve_t0=dens2[0],
               evolve_then_raise_final=dens1[-1],
               raise_then_evolve_final=dens2[-1], deviation_final=devs[-1]),
    )
    return _result(cfg, "susy-check", scalars, tables)


def run_eta_sweep(cfg: ExperimentConfig) -> ScenarioResult:
    """Fidelity between the two paths when path two evolves under V_eta.

    The family V_eta scales the odd barrier term; only eta = +1 reproduces
    the partner dynamics of B+, and eta = -1 marks the mirrored partner, so
    the final-time fidelity must peak at both.  The sweep reports the whole
    fidelity(eta, t) surface plus the final-time slice and gates the argmax
    on each half-axis.

    Two momentum-space streams, whose samples cost no transform, hold the
    paths: psi0 under V1 and B+ psi0 under every V_eta, one row each.  The
    first runs ahead in blocks of _REFERENCE_BLOCK samples, each raised by
    B+ in position space as one stack; each step's fidelities are taken in
    momentum space (equal by Parseval) on the family's whole sample, which
    is dropped before the next step, so one sample is alive at a time.  The
    potentials are built before any step is taken.
    """
    run = setup(cfg)
    grid, W, plan = run.grid, run.W, _two_path_plan(cfg)
    etas = np.linspace(cfg.eta_min, cfg.eta_max, cfg.eta_points)
    try:
        family = eta_potential(W, etas, grid)
    except ConfigurationError as exc:
        raise ConfigurationError(f"sigma_over_x0: {exc}") from exc

    times = plan.dt * np.arange(plan.n_steps + 1)
    surface = np.empty((etas.size, times.size))
    path_one = trotter_states(to_momentum(run.psi0), run.v1, plan, stride=1)

    def raised():  # B+ psi0(t_j), one row per step, each block raised as one stack
        while rows := [s.values for _, s in islice(path_one, _REFERENCE_BLOCK)]:
            yield from to_momentum(normalized(apply_B_dag(to_position(WaveFunction(
                grid, _frozen(np.vstack(rows)), MOMENTUM)), W))).values

    references = raised()
    paths = trotter_states(to_momentum(run.psi_raised), family, plan, stride=1)
    del family
    for j, sample in paths:  # zip would keep the last sample alive in its result tuple
        surface[:, j] = fidelity(WaveFunction(grid, next(references), MOMENTUM), sample)
        del sample  # freed before the next is formed

    final = surface[:, -1]
    step = float(etas[1] - etas[0])
    pos = etas > 0
    neg = etas < 0
    best_pos = float(etas[pos][np.argmax(final[pos])])
    best_neg = float(etas[neg][np.argmax(final[neg])])
    peak = float(final.max())
    e = FIDELITY_POWER[cfg.fidelity_convention]
    surface = surface**e

    scalars = (
        GatedScalar("argmax_eta_positive", best_pos,
                    f"|value - 1| <= {step!r}", bool(abs(best_pos - 1.0) <= step + 1e-12)),
        GatedScalar("argmax_eta_negative", best_neg,
                    f"|value + 1| <= {step!r}", bool(abs(best_neg + 1.0) <= step + 1e-12)),
        _gate("peak_fidelity", peak**e, 0.995**e, 1.0**e),
    )
    tables = (
        _long_table("fidelity_surface", eta=etas, t=times, fidelity=surface),
        _table("fidelity_final", eta=etas, fidelity=surface[:, -1]),
    )
    return _result(cfg, "eta-sweep", scalars, tables)


def _errors(approx: WaveFunction, target: WaveFunction):
    """Per row: relative L2 error (nan if a norm overflowed), max |diff| / max |target|, 1 - F."""
    diff = approx.values - target.values
    num, den = norm(approx.with_values(diff)), norm(target)
    rel_l2 = np.where(np.isfinite(num) & np.isfinite(den), num, np.nan) / den
    max_pt = np.max(np.abs(diff), axis=-1) / np.max(np.abs(target.values), axis=-1)
    return rel_l2, max_pt, 1.0 - fidelity(approx, target)


def run_bdag_validation(cfg: ExperimentConfig) -> ScenarioResult:
    """Interferometric B+ against the algebraic operator.

    Uses the configured focal length, then a reduced one with f^2/rho^2 =
    2.5e3, whose lens chirp the grid samples only from n = 2,256 (at the
    default 2048 it measures that aliasing margin, not a paraxial one), then
    a battery of random smooth states checking that the error level is a
    property of the bench, not of the chosen state.
    All error measures fix the modulus overlap convention; they are error
    metrics, not reported fidelities.
    """
    run = setup(replace(cfg, omega=1.0))
    grid, W, psi0, units = run.grid, run.W, run.psi0, run.units
    if cfg.parity_mode == "ideal":
        try:  # exact parity needs a lattice that mirrors about x = 0, whatever the bench
            _mirror_index(grid)
        except ContractError as exc:
            raise ConfigurationError(
                f"parity_mode, grid_points, x_min_x0, x_max_x0: {exc}") from exc

    benches = []
    for key, spec in (("focal_length_m", run.spec), ("reduced_focal_length_m", run.reduced_spec)):
        try:  # the focal length bounds the gain, and a huge one zeroes the arm field
            benches.append(calibrate_interferometer(spec, grid, units))
        except (ConfigurationError, DegenerateStateError) as exc:
            raise ConfigurationError(f"{key} = {spec.focal_length_m!r}: {exc}") from exc
    # the battery sits at the aperture center: the bench is specified for
    # fields inside the aperture, and a displaced Hermite stack would spill
    # past the stops and measure its own clipping instead of the optics
    battery = make_random_states(grid, cfg.battery_size, cfg.battery_seed, center=0.0,
                                 width=cfg.state_width_x0)
    states = WaveFunction(grid, _frozen(np.vstack([psi0.values, *(s.values for s in battery)])))
    approx = interferometric_B_dag(states, benches[0]).values
    target = apply_B_dag(states, W).values
    # one case per row: reference, reduced, then the battery at the reference focus
    errs = np.array(_errors(
        WaveFunction(grid, np.insert(approx, 1, interferometric_B_dag(psi0, benches[1]).values, 0)),
        WaveFunction(grid, np.insert(target, 1, target[0], 0)))).T
    (rel_ref, max_ref, infid_ref), (rel_red, _, _) = errs[:2].tolist()
    worst_batt = errs[2:, 0].max(initial=0.0)
    profile_table = _table(
        "profiles", (f"focal_length_m: {cfg.focal_length_m!r}",),
        x=grid.x,
        amp_interferometric=np.abs(approx[0]),
        phase_interferometric=np.angle(approx[0]),
        amp_algebraic=np.abs(target[0]),
        phase_algebraic=np.angle(target[0]))

    f_m = np.insert(np.full(len(target), cfg.focal_length_m), 1, cfg.reduced_focal_length_m)
    with np.errstate(all="ignore"):  # huge focal lengths and zero errors read inf or nan, not raise
        fom_ref, fom_red = np.square(f_m[:2]) / np.square(run.spec.aperture_m)
        # the ratio is relative to the reference error, so it only means
        # something when that reference passed its own gate
        ratio = float(worst_batt / rel_ref)
    ref_gate = _gate("rel_l2_reference", rel_ref, hi=1e-5)
    scalars = (
        ref_gate,
        _gate("max_pointwise_reference", max_ref, hi=1e-5),
        _gate("infidelity_reference", infid_ref, hi=1e-8),
        _gate("rel_l2_reduced", rel_red, hi=1e-3),
        _gate("fom_reference", fom_ref, lo=2500.0),
        _gate("fom_reduced", fom_red, 2000.0, 3000.0),
        GatedScalar("battery_error_ratio", ratio,
                    "value <= 10.0 and rel_l2_reference passed",
                    bool(ratio <= 10.0 and ref_gate.passed)),
    )
    errors = _table(
        "errors", ("figure of merit f^2/rho^2 uses the aperture half-width as rho",),
        case=["reference", "reduced"] + [f"battery_{i}" for i in range(cfg.battery_size)],
        f_m=f_m,
        rel_l2=errs[:, 0], max_pointwise=errs[:, 1], infidelity=errs[:, 2])
    texts = (
        ("arm_derivative_layout", benches[0].derivative_arm.to_layout_text()),
        ("arm_multiplication_layout", benches[0].multiplication_arm.to_layout_text()),
    )
    return _result(cfg, "bdag-check", scalars, (profile_table, errors), texts)


def fit_loglog_slope(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n).

    Points with error above the saturation level 0.3 sit outside the
    asymptotic power-law regime (the error there is bounded and bends
    over), so they are excluded; at least three points must survive.
    """
    saturation = 0.3
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errors, dtype=float)
    keep = (errs > 0) & (errs <= saturation)
    if int(keep.sum()) < 3:
        raise NumericalError(
            f"only {int(keep.sum())} scan points below the saturation level "
            f"{saturation}; extend the step ladder before fitting a slope")
    slope = np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0]
    return float(slope)


def run_trotter_convergence(cfg: ExperimentConfig) -> ScenarioResult:
    """Step-count scaling against the diagonalization oracle, plus the bench map.

    Evolves the raise-then-evolve state over half a period with each step
    count of the ladder in both product orders and compares each final state
    with one oracle reference.  Slopes are fitted on rel_l2_error, ||trotter -
    exact|| / ||exact||, which the t^3/n^2 (or t^2/n) product-formula laws
    govern; the overlap infidelity 1 - F is emitted alongside and falls twice
    as fast, because a coherent error vector enters the overlap only
    quadratically.  Also checks the design reference step distance, the
    exactness of the time<->distance round trip, and that the compiled plate
    train reproduces the ladder's second-order state at the design step T/60.
    """
    ladder = tuple(sorted(set(int(n) for n in cfg.convergence_steps) | {30, 60}))
    if len(ladder) < 3:  # no run can fit a slope to it, whatever the physics
        raise ConfigurationError(f"convergence_steps: with the forced 30 and 60 the ladder "
                                 f"{ladder} holds {len(ladder)} step counts; a fit needs 3")
    run = setup(replace(cfg, omega=1.0))
    grid, v2, psi_raised, units = run.grid, run.v2, run.psi_raised, run.units
    t_half = math.pi  # half a period, dimensionless
    basis = eigenbasis(v2, [psi_raised], t_half)
    reference = exact_evolve(psi_raised, basis, t_half)

    dts = {n: t_half / n for n in ladder}
    dt_ref = dts[30]  # the design step T/60, shared by the ladder, the train and z_ref
    orders = ("second", "first")  # one two-row stream per step count: (orders, ladder, n)
    finals = _frozen(np.stack([
        trotter_evolve(psi_raised, v2, TrotterPlan(dts[n], n, orders)).values
        for n in ladder], axis=1))
    measures = _errors(WaveFunction(grid, finals.reshape(-1, grid.n)), reference)
    errors, _, infids = (dict(zip(orders, m.reshape(len(orders), -1))) for m in measures)
    i30, i60 = ladder.index(30), ladder.index(60)
    fid30 = 1.0 - float(infids["second"][i30])
    ratio = float(errors["second"][i30] / errors["second"][i60])

    # design reference geometry: one T/60 step at 532 nm and 1 mm
    reference_units = PhysicalUnits(532e-9, 1e-3)
    z_ref = map_time_to_distance(dt_ref, reference_units)
    roundtrip = abs(map_distance_to_time(z_ref, reference_units) - dt_ref) / dt_ref

    train = compile_trotter_train(TrotterPlan(dt_ref, 30), v2, units)
    train_final = simulate_train(psi_raised, train)
    trot30 = train_final.with_values(finals[0, i30])
    mu = np.vdot(train_final.values, trot30.values)
    aligned = train_final.with_values(train_final.values * (mu / abs(mu)))
    train_dev = float(_errors(aligned, trot30)[1])

    e = FIDELITY_POWER[cfg.fidelity_convention]
    scalars = (
        _gate("fidelity_n30", fid30**e, 0.9993**e, 1.0**e),
        _gate("slope_second", fit_loglog_slope(ladder, errors["second"]), -2.4, -1.6),
        _gate("slope_first", fit_loglog_slope(ladder, errors["first"]), -1.3, -0.7),
        _gate("l2_error_ratio_n30_n60", ratio, 3.0, 5.0),
        _gate("z_reference_m", z_ref, 1.2365, 1.2375),
        _gate("unit_roundtrip_error", roundtrip, hi=1e-12),
        _gate("train_deviation", train_dev, hi=1e-10),
        _gate("oracle_error_bound", basis.error_bound, hi=ORACLE_TOL),
    )
    note = ("slope fits use rel_l2_error; infidelity falls twice as fast",)
    tables = tuple(_table(f"convergence_{order}", note, n=np.array(ladder),
                          rel_l2_error=errors[order], infidelity=infids[order])
                   for order in orders)
    texts = (("train_layout", train.to_layout_text()),)
    return _result(cfg, "trotter-convergence", scalars, tables, texts)


def run_all(cfg: ExperimentConfig):
    """Every scenario, fixed order."""
    return tuple(runner(cfg) for _, runner in sorted(SCENARIO_RUNNERS.items()))


SCENARIO_RUNNERS.update({
    "spectrum": run_spectrum,
    "susy-check": run_susy_check,
    "eta-sweep": run_eta_sweep,
    "bdag-check": run_bdag_validation,
    "trotter-convergence": run_trotter_convergence,
})


# --- CSV emission ---------------------------------------------------------------

# rows formatted per block: bounds the text held in memory for long tables
_BLOCK_ROWS = 8192

# fewest leading rows of a float column that must repeat before it is sorted whole
_LEAD_ROWS = 16384


def _column_text(column: np.ndarray) -> list:
    """One column's cells as CSV text, formatted by the column's dtype kind."""
    kind = column.dtype.kind
    values = column.tolist()
    if kind == "f":
        return list(map(repr, values))
    if kind == "b":
        return ["true" if v else "false" for v in values]
    return list(map(str, values))


def _column_cells(column: np.ndarray):
    """The column's CSV text on a slice of rows, as a function of the slice.

    A float column with under a quarter as many distinct values as rows is
    formatted once per value, keyed on its bits so -0.0, 0.0 and NaN stay apart.
    Only a column whose leading rows (a sixteenth, at least _LEAD_ROWS) repeat
    that much is sorted whole to count its values; any other is formatted
    row by row, which gives the same text.
    """
    if column.dtype.kind == "f":
        keys = column.view(f"i{column.dtype.itemsize}")
        lead = np.sort(keys[:max(_LEAD_ROWS, keys.size // 16)])
        if 4 * (1 + np.count_nonzero(lead[1:] != lead[:-1])) < lead.size:
            bits, inverse = np.unique(keys, return_inverse=True)
            if 4 * bits.size < column.size:
                text = np.array(_column_text(bits.view(column.dtype)), dtype=object)
                return lambda rows: text[inverse[rows]].tolist()
    return lambda rows: _column_text(column[rows])


def emit_csv(result: ScenarioResult, out_dir) -> list:
    """Write one CSV per table (summary of gates first) plus any text sheets.

    Every file opens with comment lines carrying the scenario, config hash,
    tool version and defaulted keys; the header row is the table's field
    names.  Floats are written with repr (shortest round-trip form, locale
    independent), so identical configs give byte-identical files.  Files are
    renamed into place once all are complete, so a failure writes nothing; a
    rename that fails takes back the files already renamed, so the files
    left never mix two runs.
    """
    scalars = result.scalars
    summary = _table("summary", metric=[s.name for s in scalars],
                     value=[s.value for s in scalars], gate=[s.gate for s in scalars],
                     passed=[s.passed for s in scalars])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    provenance = (f"# scenario: {result.scenario}\n"
                  f"# config_hash: {result.config_hash}\n"
                  f"# tool_version: {result.tool_version}\n"
                  f"# defaulted_keys: {','.join(result.defaulted_keys) or '(none)'}\n")
    staged = []  # (temporary, final) path pairs
    placed = []  # final paths that hold this run

    def open_staged(name, head):  # hidden: the temporary is outside the {scenario}_* pattern
        path = out / f"{result.scenario}_{name}"
        staged.append((out / f".{path.name}.tmp", path))
        fh = open(staged[-1][0], "w", encoding="utf-8", newline="\n")
        fh.write(provenance + head)
        return fh

    try:
        for table in (summary, *result.tables):
            names = table.rows.dtype.names
            head = "".join(f"# {note}\n" for note in table.notes) + ",".join(names) + "\n"
            with open_staged(f"{table.name}.csv", head) as fh:
                columns = [_column_cells(table.rows[name]) for name in names]
                for start in range(0, len(table.rows), _BLOCK_ROWS):
                    rows = slice(start, start + _BLOCK_ROWS)
                    cells = zip(*(column(rows) for column in columns))
                    fh.write("".join(",".join(row) + "\n" for row in cells))
        for name, content in result.texts:
            open_staged(f"{name}.txt", content).close()
        for temporary, path in staged:
            os.replace(temporary, path)
            placed.append(path)
    except BaseException:
        for path in [temporary for temporary, _ in staged] + placed:
            path.unlink(missing_ok=True)
        raise
    return [path for _, path in staged]
