//! Pool-scale design-space search with a Pareto frontier.
//!
//! The paper's Fig. 5/6 methodology is a design-point search: sweep the
//! circuit and device parameters, solve each point for its minimum
//! probe power, and pick operating points. This module turns that
//! search into a **many-distinct-circuits batch workload**: a
//! [`DesignSweep`] enumerates candidate circuits over the axes of
//! [`SweepAxes`] (order × SNG kind × stream length × backend × the
//! IL/ER device grid of [`super::space::fig6a_grid`]), solves each
//! distinct `(order, IL, ER)` point once through
//! [`super::mzi_first::MziFirstDesign`], joins per-candidate energy
//! ([`crate::energy::EnergyModel::breakdown_for`]) and a first-order
//! area proxy ([`area_proxy_mm2`]), measures each candidate's empirical
//! accuracy through any serving tier ([`Executor`]), and extracts the
//! non-dominated accuracy × energy × area set ([`pareto_frontier`])
//! with deterministic tie-breaking.
//!
//! # Determinism contract
//!
//! Frontier determinism is part of the standing
//! [`crate::batch::mix_seed`] contract. Candidate `i` (its position in
//! the fixed [`SweepAxes::enumerate`] order, counting infeasible
//! candidates) seeds its evaluation with `mix_seed(sweep_seed, i)`, and
//! the sweep hands every candidate's probe batch to one
//! [`Executor::batches`] call — one [`BatchJob`] per candidate, which
//! each tier evaluates exactly as a whole-batch wire request. Design
//! solving, the energy/area join, Pareto extraction and the canonical
//! CSV ([`frontier_csv`]) are all host-side scalar arithmetic over
//! those bit-exact results, so the frontier bytes are identical across
//! serving modes, worker counts, SIMD dispatch tiers and thread counts.
//!
//! ```no_run
//! use osc_core::batch::BatchEvaluator;
//! use osc_core::batch::shard::Executor;
//! use osc_core::design::sweep::{frontier_csv, pareto_frontier, DesignSweep, SweepAxes};
//!
//! let sweep = DesignSweep::new(SweepAxes::fig6(4));
//! let evaluator = BatchEvaluator::new();
//! let points = sweep.evaluate(Executor::InProcess(&evaluator)).unwrap();
//! let csv = frontier_csv(&pareto_frontier(&points));
//! # drop(csv);
//! ```
//!
//! A pool-served sweep is the stress profile the digest-keyed worker
//! circuit cache was built for: ≥ 1000 distinct circuits stream through
//! [`crate::batch::shard::pool::WorkerPool::run_requests`] as one
//! pipelined call, so size the
//! cache to the working set via `OSC_CIRCUIT_CACHE` or
//! [`crate::batch::shard::pool::PoolConfig::with_circuit_cache_capacity`].

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::backend::BackendKind;
use crate::batch::mix_seed;
use crate::batch::shard::{BatchJob, Executor, ShardError, SngKind};
use crate::design::mzi_first::{MziFirstDesign, MziFirstInputs};
use crate::energy::{EnergyAssumptions, EnergyModel};
use crate::params::CircuitParams;
use crate::system::OpticalScSystem;
use crate::CircuitError;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_units::{DbRatio, Milliwatts, Nanometers};

/// The candidate axes of one design sweep.
///
/// The candidate universe is the cross product of every axis; see
/// [`SweepAxes::enumerate`] for the pinned ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxes {
    /// Polynomial orders to sweep.
    pub orders: Vec<usize>,
    /// Stochastic number generator kinds to sweep.
    pub sngs: Vec<SngKind>,
    /// Stream lengths (bits) to sweep.
    pub stream_lengths: Vec<usize>,
    /// Transmission backends to sweep.
    pub backends: Vec<BackendKind>,
    /// MZI insertion losses, dB (Fig. 6(a) outer axis).
    pub il_db: Vec<f64>,
    /// MZI extinction ratios, dB (Fig. 6(a) inner axis).
    pub er_db: Vec<f64>,
    /// Transmission BER target each design point is solved for.
    pub target_ber: f64,
    /// Accuracy probe inputs per candidate ([`probe_inputs`]).
    pub probes: usize,
    /// Sweep seed; candidate `i` evaluates under `mix_seed(seed, i)`.
    pub seed: u64,
}

impl SweepAxes {
    /// The Fig. 6-flavoured default axes over a `points × points` IL/ER
    /// grid: orders 1 and 2, the counter and Xoshiro generators, 64-
    /// and 256-bit stream lengths (the accuracy ↔ energy-per-evaluation
    /// tradeoff that keeps the frontier multi-point), both backends,
    /// and the paper's IL 3.0–7.4 dB / ER 4.0–7.6 dB device ranges at
    /// BER 10⁻⁶.
    pub fn fig6(points: usize) -> SweepAxes {
        let points = points.max(1);
        SweepAxes {
            orders: vec![1, 2],
            sngs: vec![SngKind::Counter, SngKind::Xoshiro],
            stream_lengths: vec![64, 256],
            backends: BackendKind::ALL.to_vec(),
            il_db: osc_math::linspace(3.0, 7.4, points),
            er_db: osc_math::linspace(4.0, 7.6, points),
            target_ber: 1e-6,
            probes: 3,
            seed: 0xDE51_6E0A,
        }
    }

    /// [`SweepAxes::fig6`] sized so the candidate universe holds at
    /// least `min_candidates` (the grid side grows until the cross
    /// product reaches the floor).
    pub fn fig6_sized(min_candidates: usize) -> SweepAxes {
        let mut points = 1usize;
        loop {
            let axes = SweepAxes::fig6(points);
            if axes.candidate_count() >= min_candidates {
                return axes;
            }
            points += 1;
        }
    }

    /// Size of the candidate universe (including candidates that later
    /// solve infeasible).
    pub fn candidate_count(&self) -> usize {
        self.backends.len()
            * self.orders.len()
            * self.sngs.len()
            * self.stream_lengths.len()
            * self.il_db.len()
            * self.er_db.len()
    }

    /// Enumerates the candidate universe in its pinned order — backend
    /// outermost, then order, SNG kind, stream length, IL, ER innermost
    /// (the row-major Fig. 6(a) convention). `Candidate::index` is the
    /// position in this order and is what seeds the candidate, so the
    /// ordering is part of the determinism contract.
    pub fn enumerate(&self) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(self.candidate_count());
        let mut index = 0u64;
        for &backend in &self.backends {
            for &order in &self.orders {
                for &sng in &self.sngs {
                    for &stream_length in &self.stream_lengths {
                        for &il_db in &self.il_db {
                            for &er_db in &self.er_db {
                                out.push(Candidate {
                                    index,
                                    backend,
                                    order,
                                    sng,
                                    stream_length,
                                    il_db,
                                    er_db,
                                });
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One point of the candidate universe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Position in the [`SweepAxes::enumerate`] order (seeds the
    /// candidate via `mix_seed(sweep_seed, index)`).
    pub index: u64,
    /// Transmission backend.
    pub backend: BackendKind,
    /// Polynomial order.
    pub order: usize,
    /// Stochastic number generator kind.
    pub sng: SngKind,
    /// Stream length in bits.
    pub stream_length: usize,
    /// MZI insertion loss, dB.
    pub il_db: f64,
    /// MZI extinction ratio, dB.
    pub er_db: f64,
}

impl Candidate {
    /// The batch seed this candidate evaluates under — the standing
    /// [`mix_seed`] contract applied at candidate granularity.
    pub fn seed_for(&self, sweep_seed: u64) -> u64 {
        mix_seed(sweep_seed, self.index)
    }
}

/// The deterministic Bernstein coefficients a sweep programs into an
/// order-`n` candidate: `c_j = 0.2 + 0.6·j/n`, a monotone ramp well
/// inside the `[0, 1]` Bernstein box for every order.
pub fn sweep_coeffs(order: usize) -> Vec<f64> {
    let n = order.max(1) as f64;
    (0..=order).map(|j| 0.2 + 0.6 * j as f64 / n).collect()
}

/// The accuracy probe inputs of a sweep: `x_j = (j+1)/(probes+1)`,
/// interior points of `[0, 1]` in index order.
pub fn probe_inputs(probes: usize) -> Vec<f64> {
    (0..probes)
        .map(|j| (j + 1) as f64 / (probes + 1) as f64)
        .collect()
}

/// First-order chip-area proxy, mm².
///
/// This is a comparison metric, not a layout estimate. The MZI
/// phase-shifter length is anchored to the Fig. 6(c) literature corpus
/// (0.75 mm at 6.5 dB IL \[Xiao\], 1.0 mm at 3.2 dB \[Dong\] — lower
/// loss costs length), interpolated linearly in IL and clamped to
/// [0.5, 1.5] mm; ER does not enter the proxy. An order-`n` circuit
/// charges `n` MZIs (phase shifter × 50 µm pitch), `n+1` MRR
/// modulators (20 µm × 20 µm each) and one add-drop filter. The
/// nanocavity backend swaps the MZI bank for wavelength-scale
/// photonic-crystal cavities (50 µm² each) and keeps the WDM plumbing.
pub fn area_proxy_mm2(backend: BackendKind, order: usize, il_db: f64) -> f64 {
    const MZI_PITCH_MM: f64 = 0.05;
    const MRR_AREA_MM2: f64 = 4e-4;
    const FILTER_AREA_MM2: f64 = 1e-3;
    const CAVITY_AREA_MM2: f64 = 5e-5;
    let n = order as f64;
    let wdm = (n + 1.0) * MRR_AREA_MM2 + FILTER_AREA_MM2;
    match backend {
        BackendKind::MrrMzi => {
            let ps_len_mm = (1.2424 - 0.0758 * il_db).clamp(0.5, 1.5);
            n * ps_len_mm * MZI_PITCH_MM + wdm
        }
        BackendKind::Nanocavity => n * CAVITY_AREA_MM2 + wdm,
    }
}

/// A feasible candidate with its solved design and joined metrics.
#[derive(Debug, Clone)]
pub struct CandidateDesign {
    /// The candidate itself.
    pub candidate: Candidate,
    /// Complete parameter set (candidate backend applied).
    pub params: CircuitParams,
    /// Programmed Bernstein coefficients ([`sweep_coeffs`]).
    pub coeffs: Vec<f64>,
    /// Derived wavelength spacing.
    pub wl_spacing: Nanometers,
    /// Minimum probe power per laser for the BER target.
    pub min_probe_power: Milliwatts,
    /// Laser energy per evaluation (per-bit total × stream bits), pJ.
    pub energy_pj: f64,
    /// Chip-area proxy ([`area_proxy_mm2`]).
    pub area_mm2: f64,
}

/// One evaluated frontier candidate: a [`CandidateDesign`] joined with
/// its measured accuracy.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The candidate.
    pub candidate: Candidate,
    /// Derived wavelength spacing.
    pub wl_spacing: Nanometers,
    /// Minimum probe power per laser.
    pub min_probe_power: Milliwatts,
    /// Laser energy per evaluation, pJ (minimized).
    pub energy_pj: f64,
    /// Chip-area proxy, mm² (minimized).
    pub area_mm2: f64,
    /// Mean |estimate − exact| over the probe inputs (minimized).
    pub mean_abs_error: f64,
}

/// The sweep's name for [`Executor`], kept for callers that spell it
/// `SweepMode::InProcess(&evaluator)` (the benchmark package does).
pub type SweepMode<'a> = Executor<'a>;

/// Errors of a sweep evaluation.
#[derive(Debug)]
pub enum SweepError {
    /// A candidate system failed to build or evaluate in-process.
    Circuit(CircuitError),
    /// A sharded/pooled/service evaluation failed.
    Shard(ShardError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Circuit(e) => write!(f, "sweep circuit error: {e}"),
            SweepError::Shard(e) => write!(f, "sweep shard error: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<CircuitError> for SweepError {
    fn from(e: CircuitError) -> Self {
        SweepError::Circuit(e)
    }
}

impl From<ShardError> for SweepError {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::Circuit(e) => SweepError::Circuit(e),
            e => SweepError::Shard(e),
        }
    }
}

/// A fully enumerated and solved design sweep, ready to evaluate
/// through any [`Executor`].
#[derive(Debug, Clone)]
pub struct DesignSweep {
    axes: SweepAxes,
    designs: Vec<CandidateDesign>,
    infeasible: usize,
}

impl DesignSweep {
    /// Enumerates the candidate universe and solves every distinct
    /// `(order, IL, ER)` design point once (backends and SNG/stream
    /// axes share the solve). Infeasible points — order 0, degenerate
    /// ER, or crosstalk swamping the BER target — are skipped as
    /// values, never panics; they still occupy their enumeration index,
    /// so feasibility filtering does not shift any candidate's seed.
    pub fn new(axes: SweepAxes) -> DesignSweep {
        type SolveKey = (usize, u64, u64);
        let mut solved: BTreeMap<SolveKey, Option<MziFirstDesign>> = BTreeMap::new();
        let mut designs = Vec::new();
        let mut infeasible = 0usize;
        for candidate in axes.enumerate() {
            let key = (
                candidate.order,
                candidate.il_db.to_bits(),
                candidate.er_db.to_bits(),
            );
            let design = solved.entry(key).or_insert_with(|| {
                let inputs = MziFirstInputs {
                    order: candidate.order,
                    target_ber: axes.target_ber,
                    ..MziFirstInputs::paper_fig6(
                        DbRatio::from_db(candidate.il_db),
                        DbRatio::from_db(candidate.er_db),
                    )
                };
                MziFirstDesign::solve(&inputs).ok()
            });
            let Some(design) = design else {
                infeasible += 1;
                continue;
            };
            let params = design.params.with_backend(candidate.backend);
            let energy = EnergyModel::new(
                candidate.order,
                EnergyAssumptions {
                    target_ber: axes.target_ber,
                    ..EnergyAssumptions::default()
                },
            )
            .breakdown_for(
                design.wl_spacing,
                params.pump_power,
                design.min_probe_power,
            );
            designs.push(CandidateDesign {
                candidate,
                params,
                coeffs: sweep_coeffs(candidate.order),
                wl_spacing: design.wl_spacing,
                min_probe_power: design.min_probe_power,
                energy_pj: energy.total().as_pj() * candidate.stream_length as f64,
                area_mm2: area_proxy_mm2(candidate.backend, candidate.order, candidate.il_db),
            });
        }
        DesignSweep {
            axes,
            designs,
            infeasible,
        }
    }

    /// The sweep axes.
    pub fn axes(&self) -> &SweepAxes {
        &self.axes
    }

    /// The feasible candidate designs, in enumeration order.
    pub fn designs(&self) -> &[CandidateDesign] {
        &self.designs
    }

    /// How many enumerated candidates solved infeasible.
    pub fn infeasible(&self) -> usize {
        self.infeasible
    }

    /// Total candidate universe size (feasible + infeasible).
    pub fn candidates(&self) -> usize {
        self.axes.candidate_count()
    }

    /// Builds the optical system of one feasible design.
    fn system(&self, design: &CandidateDesign) -> Result<OpticalScSystem, CircuitError> {
        let poly = BernsteinPoly::new(design.coeffs.clone())
            .map_err(|e| CircuitError::InvalidStructure(e.to_string()))?;
        OpticalScSystem::new(design.params, poly)
    }

    /// Evaluates every feasible candidate's accuracy through the given
    /// serving tier — all candidates in one [`Executor::batches`] call —
    /// and joins the [`SweepPoint`] metrics, in enumeration order.
    ///
    /// # Errors
    ///
    /// A candidate system that fails to build, otherwise the first
    /// failed evaluation.
    pub fn evaluate(&self, mut executor: Executor<'_>) -> Result<Vec<SweepPoint>, SweepError> {
        let xs = probe_inputs(self.axes.probes);
        // Candidates that differ only in SNG kind or stream length share
        // params and coefficients: build each distinct (backend, order,
        // IL, ER) system once.
        let key = |c: &Candidate| {
            (
                c.backend.tag(),
                c.order,
                c.il_db.to_bits(),
                c.er_db.to_bits(),
            )
        };
        let mut systems = BTreeMap::new();
        for d in &self.designs {
            if let Entry::Vacant(slot) = systems.entry(key(&d.candidate)) {
                slot.insert(self.system(d)?);
            }
        }
        let jobs: Vec<BatchJob<'_>> = self
            .designs
            .iter()
            .map(|d| BatchJob {
                system: &systems[&key(&d.candidate)],
                sng: d.candidate.sng,
                xs: &xs,
                stream_length: d.candidate.stream_length,
                seed: d.candidate.seed_for(self.axes.seed),
                faults: None,
            })
            .collect();
        let runs_per_design = executor.batches(&jobs)?;
        Ok(self
            .designs
            .iter()
            .zip(runs_per_design)
            .map(|(d, runs)| {
                let total: f64 = runs.iter().map(|r| (r.estimate - r.exact).abs()).sum();
                SweepPoint {
                    candidate: d.candidate,
                    wl_spacing: d.wl_spacing,
                    min_probe_power: d.min_probe_power,
                    energy_pj: d.energy_pj,
                    area_mm2: d.area_mm2,
                    mean_abs_error: total / runs.len().max(1) as f64,
                }
            })
            .collect())
    }
}

/// `q` strictly dominates `p` on (error, energy, area): no worse on
/// every metric and better on at least one.
fn dominates(q: &SweepPoint, p: &SweepPoint) -> bool {
    q.mean_abs_error <= p.mean_abs_error
        && q.energy_pj <= p.energy_pj
        && q.area_mm2 <= p.area_mm2
        && (q.mean_abs_error < p.mean_abs_error
            || q.energy_pj < p.energy_pj
            || q.area_mm2 < p.area_mm2)
}

/// Extracts the non-dominated accuracy × energy × area set, sorted with
/// deterministic tie-breaking: ascending mean absolute error, then
/// energy, then area (all by IEEE total order), then candidate index.
/// Points tied on all three metrics are all kept — neither dominates.
pub fn pareto_frontier(points: &[SweepPoint]) -> Vec<SweepPoint> {
    let mut frontier: Vec<SweepPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        a.mean_abs_error
            .total_cmp(&b.mean_abs_error)
            .then(a.energy_pj.total_cmp(&b.energy_pj))
            .then(a.area_mm2.total_cmp(&b.area_mm2))
            .then(a.candidate.index.cmp(&b.candidate.index))
    });
    frontier
}

/// Header row of the canonical frontier CSV.
pub const FRONTIER_CSV_HEADER: &str = "candidate,backend,order,sng,stream_bits,il_db,er_db,\
                                       wl_spacing_nm,probe_mw,energy_pj,area_mm2,mean_abs_error";

/// Renders frontier points as the canonical CSV: the
/// [`FRONTIER_CSV_HEADER`] row, then one row per point in the given
/// order, floats in Rust's shortest-round-trip decimal form and `\n`
/// line endings. Bit-identical inputs render to byte-identical CSV, so
/// `cmp` across serving modes is the frontier-determinism check.
pub fn frontier_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from(FRONTIER_CSV_HEADER);
    out.push('\n');
    for p in points {
        let c = &p.candidate;
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            c.index,
            c.backend,
            c.order,
            c.sng.name(),
            c.stream_length,
            c.il_db,
            c.er_db,
            p.wl_spacing.as_nm(),
            p.min_probe_power.as_mw(),
            p.energy_pj,
            p.area_mm2,
            p.mean_abs_error,
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchEvaluator;

    fn point(index: u64, err: f64, energy: f64, area: f64) -> SweepPoint {
        SweepPoint {
            candidate: Candidate {
                index,
                backend: BackendKind::MrrMzi,
                order: 2,
                sng: SngKind::Counter,
                stream_length: 64,
                il_db: 4.0,
                er_db: 6.0,
            },
            wl_spacing: Nanometers::new(0.5),
            min_probe_power: Milliwatts::new(0.3),
            energy_pj: energy,
            area_mm2: area,
            mean_abs_error: err,
        }
    }

    #[test]
    fn enumeration_order_is_pinned_and_seeds_by_index() {
        let axes = SweepAxes {
            orders: vec![1, 2],
            sngs: vec![SngKind::Counter],
            stream_lengths: vec![32, 64],
            backends: vec![BackendKind::MrrMzi, BackendKind::Nanocavity],
            il_db: vec![3.0, 5.0],
            er_db: vec![6.0],
            target_ber: 1e-6,
            probes: 2,
            seed: 9,
        };
        let cands = axes.enumerate();
        assert_eq!(cands.len(), axes.candidate_count());
        assert_eq!(cands.len(), 16);
        // Indices are the enumeration positions.
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(c.index, i as u64);
            assert_eq!(c.seed_for(9), mix_seed(9, i as u64));
        }
        // Backend outermost, ER innermost: the first block is MrrMzi
        // order 1 stream 32, sweeping IL.
        assert_eq!(cands[0].backend, BackendKind::MrrMzi);
        assert_eq!((cands[0].il_db, cands[1].il_db), (3.0, 5.0));
        assert_eq!(cands[2].stream_length, 64);
        assert_eq!(cands[4].order, 2);
        assert_eq!(cands[8].backend, BackendKind::Nanocavity);
    }

    #[test]
    fn infeasible_candidates_skip_as_values_and_keep_seeds() {
        // 40 dB insertion loss is hopeless at BER 1e-6; 3 dB is fine.
        let axes = SweepAxes {
            il_db: vec![3.0, 40.0],
            er_db: vec![6.0],
            orders: vec![2],
            sngs: vec![SngKind::Counter],
            stream_lengths: vec![64],
            backends: vec![BackendKind::MrrMzi],
            ..SweepAxes::fig6(1)
        };
        let sweep = DesignSweep::new(axes);
        assert_eq!(sweep.candidates(), 2);
        assert_eq!(sweep.infeasible(), 1);
        assert_eq!(sweep.designs().len(), 1);
        // The surviving candidate keeps its enumeration index (0), so
        // its seed is unshifted by the infeasible neighbour.
        assert_eq!(sweep.designs()[0].candidate.index, 0);
    }

    #[test]
    fn solve_dedup_shares_design_across_backends_and_sngs() {
        let axes = SweepAxes {
            il_db: vec![4.0],
            er_db: vec![6.0],
            orders: vec![2],
            sngs: vec![SngKind::Counter, SngKind::Xoshiro],
            stream_lengths: vec![64],
            backends: BackendKind::ALL.to_vec(),
            ..SweepAxes::fig6(1)
        };
        let sweep = DesignSweep::new(axes);
        assert_eq!(sweep.designs().len(), 4);
        let spacings: Vec<u64> = sweep
            .designs()
            .iter()
            .map(|d| d.wl_spacing.as_nm().to_bits())
            .collect();
        assert!(spacings.windows(2).all(|w| w[0] == w[1]));
        // Backends differ only in the params backend tag and area.
        let a = &sweep.designs()[0];
        let b = &sweep.designs()[2];
        assert_eq!(a.params.backend, BackendKind::MrrMzi);
        assert_eq!(b.params.backend, BackendKind::Nanocavity);
        assert!(b.area_mm2 < a.area_mm2);
    }

    #[test]
    fn in_process_frontier_is_thread_count_invariant() {
        let sweep = DesignSweep::new(SweepAxes {
            probes: 2,
            stream_lengths: vec![32],
            ..SweepAxes::fig6(2)
        });
        let one = sweep
            .evaluate(Executor::InProcess(&BatchEvaluator::with_threads(1)))
            .unwrap();
        let four = sweep
            .evaluate(Executor::InProcess(&BatchEvaluator::with_threads(4)))
            .unwrap();
        let csv_one = frontier_csv(&pareto_frontier(&one));
        let csv_four = frontier_csv(&pareto_frontier(&four));
        assert_eq!(csv_one, csv_four);
        assert!(csv_one.starts_with(FRONTIER_CSV_HEADER));
        assert!(csv_one.lines().count() > 1);
    }

    #[test]
    fn pareto_keeps_only_non_dominated_with_deterministic_order() {
        let pts = vec![
            point(0, 0.10, 5.0, 1.0), // dominated by 3 on error+energy
            point(1, 0.05, 9.0, 1.0), // frontier: best error
            point(2, 0.20, 1.0, 1.0), // frontier: best energy
            point(3, 0.08, 4.0, 1.0), // frontier: middle
            point(4, 0.08, 4.0, 1.0), // exact tie with 3: both kept
            point(5, 0.30, 2.0, 0.1), // frontier: best area
        ];
        let frontier = pareto_frontier(&pts);
        let idx: Vec<u64> = frontier.iter().map(|p| p.candidate.index).collect();
        assert_eq!(idx, vec![1, 3, 4, 2, 5]);
    }

    #[test]
    fn frontier_csv_shape() {
        let csv = frontier_csv(&[point(7, 0.125, 2.5, 0.75)]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(FRONTIER_CSV_HEADER));
        let row = lines.next().unwrap();
        assert!(row.starts_with("7,mrr-mzi,2,counter,64,4,6,0.5,0.3,2.5,0.75,0.125"));
        assert_eq!(lines.next(), None);
        assert!(csv.ends_with('\n'));
    }

    #[test]
    fn area_proxy_directions() {
        // Larger order costs area; lower IL costs MZI length; the
        // nanocavity backend undercuts the MZI bank.
        assert!(
            area_proxy_mm2(BackendKind::MrrMzi, 3, 4.0)
                > area_proxy_mm2(BackendKind::MrrMzi, 2, 4.0)
        );
        assert!(
            area_proxy_mm2(BackendKind::MrrMzi, 2, 3.0)
                > area_proxy_mm2(BackendKind::MrrMzi, 2, 7.0)
        );
        assert!(
            area_proxy_mm2(BackendKind::Nanocavity, 2, 4.0)
                < area_proxy_mm2(BackendKind::MrrMzi, 2, 4.0)
        );
    }

    #[test]
    fn fig6_sized_reaches_floor() {
        let axes = SweepAxes::fig6_sized(1000);
        assert!(axes.candidate_count() >= 1000);
        // Growth is by grid side, so the floor is not wildly overshot.
        assert!(axes.candidate_count() < 4000);
    }

    #[test]
    fn sweep_coeffs_stay_in_bernstein_box() {
        for order in 1..=6 {
            let c = sweep_coeffs(order);
            assert_eq!(c.len(), order + 1);
            assert!(c.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
