//! The physics surface behind [`crate::system::OpticalScSystem`].
//!
//! The system owns everything *architectural*: the folded decision
//! tables, [`crate::system::EvalScratch`], and every `evaluate*` kernel
//! entry point. What it does **not** own is the transmission physics —
//! which optical power reaches the photodetector for a given
//! `(ones-count, coefficient-word)` operating point, and how noisy the
//! receiver observation is. That surface is the [`ScBackend`] trait, so
//! the fused, lane-blocked, faulted, batched, sharded, pooled and
//! service paths are backend-generic by construction: a new gate
//! substrate plugs in underneath the whole perf stack without touching
//! a single kernel.
//!
//! Two backends ship:
//!
//! - [`MrrMziBackend`] — the paper's MRR/MZI architecture
//!   ([`OpticalScCircuit`], Eqs. (5)–(7)). This is the default. Its
//!   table comes from the factored Eq. (6) build
//!   ([`OpticalScCircuit::power_table`]), which equals the per-entry
//!   [`OpticalScCircuit::received_power`] at the canonical data patterns
//!   bit for bit.
//! - [`crate::nanocavity::NanocavityBackend`] — the simplified
//!   photonic-crystal nanocavity substrate of the authors' follow-up
//!   work (PAPERS.md: arXiv 2102.02064).
//!
//! Backend selection rides in [`CircuitParams::backend`], so it flows
//! through the shard wire protocol, the worker circuit cache and every
//! app entry point exactly like any other circuit parameter (see the
//! `batch::shard` module docs for the wire encoding of the tag).

use crate::architecture::{OpticalScCircuit, PowerBands};
use crate::params::CircuitParams;
use crate::CircuitError;
use osc_units::Milliwatts;

/// Which transmission physics realizes the circuit — the value of
/// [`CircuitParams::backend`].
///
/// The discriminant doubles as the wire tag in the canonical circuit
/// bytes ([`BackendKind::tag`]): the default [`BackendKind::MrrMzi`] is
/// tag 0, which keeps default-backend traffic byte-identical to every
/// pre-backend protocol revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The paper's MRR/MZI architecture (the default).
    #[default]
    MrrMzi,
    /// The photonic-crystal nanocavity substrate
    /// ([`crate::nanocavity`]).
    Nanocavity,
}

impl BackendKind {
    /// The stable wire tag of this backend in the canonical circuit
    /// bytes. Tag 0 is the default backend by construction — the
    /// backward-compatibility rule the shard protocol relies on.
    pub const fn tag(self) -> u32 {
        match self {
            BackendKind::MrrMzi => 0,
            BackendKind::Nanocavity => 1,
        }
    }

    /// The backend for a wire tag, `None` for unknown tags (a newer
    /// peer's backend this build cannot evaluate — decoding must fail
    /// loudly rather than guess).
    pub const fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            0 => Some(BackendKind::MrrMzi),
            1 => Some(BackendKind::Nanocavity),
            _ => None,
        }
    }

    /// The canonical CLI/display name (`mrr-mzi`, `nanocavity`).
    pub const fn name(self) -> &'static str {
        match self {
            BackendKind::MrrMzi => "mrr-mzi",
            BackendKind::Nanocavity => "nanocavity",
        }
    }

    /// Parses a CLI name, accepting the canonical names plus common
    /// separators (`mrr_mzi`, `mrrmzi`).
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "mrr-mzi" | "mrr_mzi" | "mrrmzi" => Some(BackendKind::MrrMzi),
            "nanocavity" | "nano" => Some(BackendKind::Nanocavity),
            _ => None,
        }
    }

    /// All shipped backends, in tag order — the iteration surface for
    /// matrix tests and CLI help text.
    pub const ALL: [BackendKind; 2] = [BackendKind::MrrMzi, BackendKind::Nanocavity];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The transmission-physics contract a backend supplies to the system.
///
/// The operating points are the canonical `(count, z_word)` pairs the
/// system's decision tables are indexed by: `count` ones among the `n`
/// data streams (the adder only sees the count) and the `n+1`
/// coefficient bits packed LSB-first into `z_word`. A backend answers
/// with its physics' received power at that point; the system folds the
/// receiver noise analytically on top.
///
/// # Determinism
///
/// Implementations must be pure functions of `(self, count, z_word)` —
/// the whole cross-tier / cross-shard / cross-service determinism
/// contract rests on every replica computing identical tables.
pub trait ScBackend {
    /// Which physics this backend realizes.
    fn kind(&self) -> BackendKind;

    /// Optical power at the photodetector when `count` of the `n` data
    /// bits are 1 and the coefficient bits are `z_word` (LSB-first,
    /// `n + 1` significant bits).
    ///
    /// # Errors
    ///
    /// Propagates device-model failures (not reachable for in-range
    /// operating points of the shipped backends).
    fn received_power(&self, count: usize, z_word: u32) -> Result<Milliwatts, CircuitError>;

    /// Input-referred standard deviation of the receiver's power
    /// observation, in the same units as
    /// [`ScBackend::received_power`].
    fn noise_sigma(&self) -> Milliwatts;

    /// Received power for every `(count, z_word)` operating point,
    /// indexed `[count][z_word]` — the table the system folds its
    /// decisions from. The provided method evaluates
    /// [`ScBackend::received_power`] entry by entry; an override must
    /// equal that bit for bit.
    ///
    /// # Errors
    ///
    /// As [`ScBackend::received_power`].
    fn power_table(&self) -> Result<Vec<Vec<Milliwatts>>, CircuitError> {
        let n = self.order();
        (0..=n)
            .map(|count| {
                (0..(1u32 << (n + 1)))
                    .map(|zw| self.received_power(count, zw))
                    .collect()
            })
            .collect()
    }

    /// Min/max received power over the transmit-0 / transmit-1
    /// populations — the separation that makes optical de-randomizing
    /// possible, and the source of the decision threshold.
    ///
    /// # Errors
    ///
    /// As [`ScBackend::power_table`].
    fn power_bands(&self) -> Result<PowerBands, CircuitError> {
        Ok(PowerBands::from_table(&self.power_table()?))
    }

    /// The circuit order `n` this backend was built for.
    fn order(&self) -> usize;
}

/// The paper's MRR/MZI transmission physics behind the [`ScBackend`]
/// surface: an [`OpticalScCircuit`] evaluated at the canonical
/// per-count data patterns, its table built from the factored Eq. (6)
/// terms ([`crate::transmission::PowerRows`]).
#[derive(Debug, Clone)]
pub struct MrrMziBackend {
    circuit: OpticalScCircuit,
    sigma: Milliwatts,
}

impl MrrMziBackend {
    /// Builds the circuit (and its detector) from `params`.
    ///
    /// # Errors
    ///
    /// Propagates circuit construction failures.
    pub fn new(params: CircuitParams) -> Result<Self, CircuitError> {
        let circuit = OpticalScCircuit::new(params)?;
        let sigma = circuit.detector().power_noise();
        Ok(MrrMziBackend { circuit, sigma })
    }

    /// The underlying assembled circuit.
    pub fn circuit(&self) -> &OpticalScCircuit {
        &self.circuit
    }
}

impl ScBackend for MrrMziBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::MrrMzi
    }

    fn received_power(&self, count: usize, z_word: u32) -> Result<Milliwatts, CircuitError> {
        // The canonical data pattern for a count: the first `count` bits
        // set. Received power depends on the data word only through its
        // ones count (the pinned `control_depends_only_on_count`
        // invariant), so this one pattern represents them all — and it
        // is the exact pattern the pre-trait table construction used,
        // which keeps the tables byte-identical.
        let n = self.circuit.order();
        let x_bits: Vec<bool> = (0..n).map(|i| i < count).collect();
        let z_bits: Vec<bool> = (0..=n).map(|b| z_word >> b & 1 == 1).collect();
        self.circuit.received_power(&x_bits, &z_bits)
    }

    fn noise_sigma(&self) -> Milliwatts {
        self.sigma
    }

    fn power_table(&self) -> Result<Vec<Vec<Milliwatts>>, CircuitError> {
        // The factored Eq. (6) build over the same canonical patterns —
        // bit-identical to the per-entry loop at a fraction of its cost.
        self.circuit.power_table()
    }

    fn order(&self) -> usize {
        self.circuit.order()
    }
}

/// The concrete backend dispatcher the system stores: enum (not `dyn`)
/// so [`crate::system::OpticalScSystem`] stays `Clone + Debug` and the
/// table-construction calls are static. The MRR/MZI payload is boxed —
/// it embeds the full circuit model — so the enum stays small in the
/// system struct; the backend is only consulted while building the
/// decision tables, never on the per-word hot path.
#[derive(Debug, Clone)]
pub enum Backend {
    /// [`MrrMziBackend`].
    MrrMzi(Box<MrrMziBackend>),
    /// [`crate::nanocavity::NanocavityBackend`].
    Nanocavity(crate::nanocavity::NanocavityBackend),
}

impl Backend {
    /// Builds the backend [`CircuitParams::backend`] selects.
    ///
    /// # Errors
    ///
    /// Propagates the selected backend's construction failures.
    pub fn new(params: &CircuitParams) -> Result<Self, CircuitError> {
        match params.backend {
            BackendKind::MrrMzi => Ok(Backend::MrrMzi(Box::new(MrrMziBackend::new(*params)?))),
            BackendKind::Nanocavity => Ok(Backend::Nanocavity(
                crate::nanocavity::NanocavityBackend::new(*params)?,
            )),
        }
    }
}

impl ScBackend for Backend {
    fn kind(&self) -> BackendKind {
        match self {
            Backend::MrrMzi(b) => b.kind(),
            Backend::Nanocavity(b) => b.kind(),
        }
    }

    fn received_power(&self, count: usize, z_word: u32) -> Result<Milliwatts, CircuitError> {
        match self {
            Backend::MrrMzi(b) => b.received_power(count, z_word),
            Backend::Nanocavity(b) => b.received_power(count, z_word),
        }
    }

    fn noise_sigma(&self) -> Milliwatts {
        match self {
            Backend::MrrMzi(b) => b.noise_sigma(),
            Backend::Nanocavity(b) => b.noise_sigma(),
        }
    }

    fn power_table(&self) -> Result<Vec<Vec<Milliwatts>>, CircuitError> {
        match self {
            Backend::MrrMzi(b) => b.power_table(),
            Backend::Nanocavity(b) => b.power_table(),
        }
    }

    fn order(&self) -> usize {
        match self {
            Backend::MrrMzi(b) => b.order(),
            Backend::Nanocavity(b) => b.order(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip_and_default_is_tag_zero() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        // The backward-compat rule: the default backend is tag 0, so
        // default-parameter traffic encodes exactly as before the tag
        // existed.
        assert_eq!(BackendKind::default().tag(), 0);
        assert_eq!(BackendKind::from_tag(7), None);
        assert_eq!(BackendKind::parse("unobtainium"), None);
    }

    #[test]
    fn mrr_mzi_backend_reproduces_the_circuit_tables() {
        let params = CircuitParams::paper_fig5();
        let circuit = OpticalScCircuit::new(params).unwrap();
        let backend = MrrMziBackend::new(params).unwrap();
        let table = circuit.power_table().unwrap();
        let n = circuit.order();
        assert_eq!(table.len(), n + 1);
        for (count, row) in table.iter().enumerate() {
            let x_bits: Vec<bool> = (0..n).map(|i| i < count).collect();
            assert_eq!(row.len(), 1 << (n + 1));
            for (zw, factored) in (0u32..).zip(row) {
                let z_bits: Vec<bool> = (0..=n).map(|b| zw >> b & 1 == 1).collect();
                let direct = circuit.received_power(&x_bits, &z_bits).unwrap();
                let via_trait = backend.received_power(count, zw).unwrap();
                assert_eq!(direct.as_mw().to_bits(), via_trait.as_mw().to_bits());
                assert_eq!(direct.as_mw().to_bits(), factored.as_mw().to_bits());
            }
        }
        let a = circuit.power_bands().unwrap();
        let b = backend.power_bands().unwrap();
        assert_eq!(a, b);
        assert_eq!(
            backend.noise_sigma().as_mw().to_bits(),
            circuit.detector().power_noise().as_mw().to_bits()
        );
    }

    /// The provided per-entry `power_table` over a backend's own
    /// `received_power` — the oracle every override must equal.
    struct PerEntry<'a>(&'a Backend);

    impl ScBackend for PerEntry<'_> {
        fn kind(&self) -> BackendKind {
            self.0.kind()
        }
        fn received_power(&self, c: usize, z: u32) -> Result<Milliwatts, CircuitError> {
            self.0.received_power(c, z)
        }
        fn noise_sigma(&self) -> Milliwatts {
            self.0.noise_sigma()
        }
        fn order(&self) -> usize {
            self.0.order()
        }
    }

    /// Pins the backend's table, bands, the system's threshold and its
    /// folded receiver (probabilities, classes, class rows and kernel-tier
    /// flags) against the per-entry oracles, bit for bit.
    fn assert_table_matches_per_entry(params: CircuitParams) {
        let backend = Backend::new(&params).unwrap();
        let oracle = PerEntry(&backend);
        let case = format!(
            "{} order {} gap {} probe {}",
            params.backend, params.order, params.wl_spacing, params.probe_power
        );
        let table = backend.power_table().unwrap();
        let expected = oracle.power_table().unwrap();
        assert_eq!(table.len(), expected.len(), "{case}");
        for (count, (row, want)) in table.iter().zip(&expected).enumerate() {
            assert_eq!(row.len(), 1 << (params.order + 1), "{case}");
            for (zw, (got, want)) in row.iter().zip(want).enumerate() {
                assert_eq!(
                    got.as_mw().to_bits(),
                    want.as_mw().to_bits(),
                    "{case}: count {count} z-word {zw}"
                );
            }
        }
        let bands = oracle.power_bands().unwrap();
        assert_eq!(backend.power_bands().unwrap(), bands, "{case}");
        let threshold = bands.midpoint_threshold();
        let fold =
            crate::system::fold_receiver_per_entry(&expected, threshold, oracle.noise_sigma());
        let coeffs = (0..=params.order).map(|j| 0.5 + 0.01 * j as f64).collect();
        let poly = osc_stochastic::bernstein::BernsteinPoly::new(coeffs).unwrap();
        let system = crate::system::OpticalScSystem::new(params, poly).unwrap();
        assert_eq!(
            system.derandomizer().threshold().as_mw().to_bits(),
            threshold.as_mw().to_bits(),
            "{case}"
        );
        system.folded_receiver().assert_bit_identical(&fold, &case);
    }

    fn fig7_params(order: usize, gap_nm: f64, probe_mw: f64, kind: BackendKind) -> CircuitParams {
        CircuitParams::paper_fig7(order, osc_units::Nanometers::new(gap_nm))
            .with_probe_power(Milliwatts::new(probe_mw))
            .with_backend(kind)
    }

    #[test]
    fn default_band_scan_matches_the_circuit_scan_for_mrr_mzi() {
        // Every backend's table (the factored MRR/MZI build, the
        // nanocavity's provided loop) equals the per-entry oracle, and the
        // system's receiver fold the every-entry fold, across orders,
        // Fig. 7 channel gaps and probe powers.
        for kind in BackendKind::ALL {
            assert_table_matches_per_entry(CircuitParams::paper_fig5().with_backend(kind));
            for order in 1..=8 {
                for gap_nm in [0.1, 0.165, 0.3] {
                    for probe_mw in [1.0, 0.25] {
                        assert_table_matches_per_entry(fig7_params(order, gap_nm, probe_mw, kind));
                    }
                }
            }
        }
    }

    #[test]
    #[ignore = "the per-entry oracle alone takes seconds at order 12; CI runs it in release"]
    fn factored_table_matches_per_entry_at_max_order() {
        let order = crate::system::OpticalScSystem::MAX_SIM_ORDER;
        for kind in BackendKind::ALL {
            assert_table_matches_per_entry(fig7_params(order, 0.165, 1.0, kind));
        }
    }
}
