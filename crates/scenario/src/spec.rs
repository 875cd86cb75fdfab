//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is a complete, deterministic description of one
//! workload: the base [`SystemConfig`], a set of heterogeneous
//! [`NodeClass`]es, a timeline of [`Phase`]s (stochastic arrival /
//! session-length / VCR models active over a round range) and a list of
//! point-in-time [`TimedEvent`]s (flash crowds, correlated mass
//! departures, seek storms, capacity shifts). Everything stochastic is
//! resolved by the engine from the spec's seed through the shared
//! [`cs_sim::RngTree`] shim, so a spec + seed is a *fingerprintable*
//! experiment: same spec, same metrics, byte for byte.

use cs_core::SystemConfig;
use cs_dht::IdSlotTable;
use cs_net::{NodeBandwidth, PAPER_MEAN_KBPS};

/// Round index within a scenario (0-based scheduling periods).
pub type Round = u32;

/// FNV-1a over a byte string — the single hash implementation every
/// fingerprint in the workspace shares (re-exported from `cs-sim`, so
/// pinned values stay comparable across crates by construction).
pub use cs_sim::rng::fnv1a;

/// A heterogeneous node class: capacity tier + latency class. `None`
/// fields fall back to the paper's §5.2 pools (sampled on the scenario
/// RNG stream).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeClass {
    /// Class name, referenced by phases and events.
    pub name: String,
    /// Download capacity in Kbps (`None` ⇒ paper distribution).
    pub inbound_kbps: Option<f64>,
    /// Upload capacity in Kbps (`None` ⇒ paper distribution).
    pub outbound_kbps: Option<f64>,
    /// Ping time in ms (`None` ⇒ joiner-pool draw).
    pub ping_ms: Option<f64>,
    /// Relative arrival weight when a phase samples among classes.
    pub weight: f64,
}

impl NodeClass {
    /// A class that defers everything to the paper pools.
    pub fn default_class(name: &str) -> Self {
        NodeClass {
            name: name.to_string(),
            inbound_kbps: None,
            outbound_kbps: None,
            ping_ms: None,
            weight: 1.0,
        }
    }

    /// Check the class's own values: they feed the arrival sampler, the
    /// latency oracle and `NodeBandwidth` as given.
    fn validate(&self) -> Result<(), SpecError> {
        let name = &self.name;
        // The arrival draw subtracts weights from `u · total`: an
        // infinite weight turns it into NaN and every arrival into the
        // last listed class.
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(SpecError(format!(
                "class `{name}` needs a finite positive weight, got {}",
                self.weight
            )));
        }
        if let Some(ping) = self.ping_ms.filter(|p| !p.is_finite() || *p <= 0.0) {
            return Err(SpecError(format!(
                "class `{name}` needs a finite positive ping, got {ping}"
            )));
        }
        for (key, kbps) in [
            ("inbound", self.inbound_kbps),
            ("outbound", self.outbound_kbps),
        ] {
            if let Some(kbps) = kbps.filter(|k| !k.is_finite() || *k < 0.0) {
                return Err(SpecError(format!(
                    "class `{name}` needs a finite non-negative {key}, got {kbps}"
                )));
            }
        }
        Ok(())
    }

    /// The capacity override this class implies, if it pins both rates.
    /// A class pinning only one rate pairs it with the paper mean for
    /// the other.
    pub fn bandwidth(&self) -> Option<NodeBandwidth> {
        match (self.inbound_kbps, self.outbound_kbps) {
            (None, None) => None,
            (inb, out) => Some(NodeBandwidth {
                inbound_kbps: inb.unwrap_or(PAPER_MEAN_KBPS),
                outbound_kbps: out.unwrap_or(PAPER_MEAN_KBPS),
            }),
        }
    }
}

/// How long a scenario-spawned node stays before departing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionModel {
    /// Never departs on its own.
    Forever,
    /// Weibull(shape, scale) session length (rounds). Shape < 1 gives
    /// the heavy-tailed "most leave fast, some stay forever" shape
    /// measured in real P2P streaming systems; shape 1 is the
    /// exponential law with mean `scale_rounds`.
    Weibull { shape: f64, scale_rounds: f64 },
}

/// Stochastic arrivals for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArrivalModel {
    /// Poisson mean arrivals per round (0 ⇒ no arrivals).
    pub poisson_rate: f64,
}

/// Per-round VCR behaviour for one phase, applied to playing nodes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VcrModel {
    /// Probability a playing node seeks this round.
    pub seek_prob: f64,
    /// Seek distance is uniform on `1..=seek_max` segments, direction
    /// 50/50 forward/backward.
    pub seek_max: u64,
    /// Probability a playing node pauses this round.
    pub pause_prob: f64,
    /// Probability a paused node resumes this round.
    pub resume_prob: f64,
}

/// A workload phase: models active over `[start, end)` rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// First round of the phase.
    pub start: Round,
    /// One past the last round of the phase.
    pub end: Round,
    /// Arrival process for new nodes.
    pub arrivals: ArrivalModel,
    /// Session length of nodes arriving during this phase.
    pub session: SessionModel,
    /// Fraction of scenario departures that leave gracefully.
    pub graceful_fraction: f64,
    /// Classes (by name) arrivals sample from, weight-proportionally.
    /// Empty ⇒ the paper pools.
    pub classes: Vec<String>,
    /// VCR behaviour of playing nodes during this phase.
    pub vcr: VcrModel,
}

impl Phase {
    /// A quiet phase over the given range (no arrivals, no VCR).
    pub fn quiet(start: Round, end: Round) -> Self {
        Phase {
            start,
            end,
            arrivals: ArrivalModel::default(),
            session: SessionModel::Forever,
            graceful_fraction: 0.5,
            classes: Vec::new(),
            vcr: VcrModel::default(),
        }
    }

    /// Whether the phase covers `round`.
    pub fn covers(&self, round: Round) -> bool {
        (self.start..self.end).contains(&round)
    }
}

/// A point-in-time workload event.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEventKind {
    /// A burst of simultaneous joins (optionally of one class).
    FlashCrowd { count: u32, class: Option<String> },
    /// A fraction of the current membership departs at once.
    /// `correlated` picks a contiguous arc of the sorted id ring —
    /// the DHT-correlated failure mode (one AS/provider vanishing) —
    /// instead of a uniform sample.
    MassDeparture {
        fraction: f64,
        correlated: bool,
        graceful: bool,
    },
    /// A fraction of playing nodes seek at once. `jump > 0` seeks
    /// forward by `jump`, `jump < 0` rewinds by `-jump`, `jump == 0`
    /// jumps to the live frontier.
    SeekStorm { fraction: f64, jump: i64 },
    /// A fraction of nodes switch to the given class's capacity tier
    /// (ISP throttling, a CDN tier change, …).
    CapacityShift { fraction: f64, class: String },
    /// Fault plane: `count` nodes crash at once — silently dark, no
    /// handover, stale DHT entries. `correlated` picks a contiguous arc
    /// of the id ring (rack/AS failure) instead of a uniform sample.
    CrashNodes { count: u32, correlated: bool },
    /// Fault plane: `loss` extra message-loss probability on every path
    /// for `rounds` rounds (a routing flap or congestion spike).
    LossBurst { loss: f64, rounds: u32 },
    /// Fault plane: a contiguous arc holding `fraction` of the
    /// membership is partitioned from the rest for `rounds` rounds.
    PartitionArc { fraction: f64, rounds: u32 },
    /// Fault plane: the RP/bootstrap server is down for `rounds` rounds
    /// — every join (churn or scenario) is turned away.
    RpOutage { rounds: u32 },
}

/// A [`ScenarioEventKind`] pinned to a round.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// The round the event fires at (applied before the round runs).
    pub round: Round,
    /// What happens.
    pub kind: ScenarioEventKind,
}

/// A complete scenario: base configuration plus workload timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (labels exports and fingerprints).
    pub name: String,
    /// The base system configuration (nodes, rounds, seed, scheduler,
    /// baseline churn, …). Scenario arrivals/departures compose *on
    /// top* of `config.churn`; specs usually keep it static.
    pub config: SystemConfig,
    /// Heterogeneous node classes referenced by phases and events.
    pub classes: Vec<NodeClass>,
    /// Workload phases (may overlap; all covering phases apply their
    /// arrivals and VCR each round).
    pub phases: Vec<Phase>,
    /// Point-in-time events, applied in round order (ties: list order).
    pub events: Vec<TimedEvent>,
}

/// A spec validation error (message + offending item).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl ScenarioSpec {
    /// The null scenario: run `config` with no events at all. Executes
    /// bit-identically to `SystemSim::new(config).run()` (pinned by the
    /// determinism suite).
    pub fn null(name: &str, config: SystemConfig) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            config,
            classes: Vec::new(),
            phases: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Look up a class by name.
    pub fn class(&self, name: &str) -> Option<&NodeClass> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Check internal consistency (the run configuration, class
    /// references, ranges, probabilities).
    pub fn validate(&self) -> Result<(), SpecError> {
        self.config.validate().map_err(SpecError)?;
        let check_class = |name: &String, whence: &str| {
            if self.class(name).is_none() {
                return Err(SpecError(format!(
                    "{whence} references unknown class `{name}`"
                )));
            }
            Ok(())
        };
        for class in &self.classes {
            class.validate()?;
        }
        for (i, phase) in self.phases.iter().enumerate() {
            if phase.start >= phase.end {
                return Err(SpecError(format!(
                    "phase {i} has an empty round range {}..{}",
                    phase.start, phase.end
                )));
            }
            for prob in [
                phase.vcr.seek_prob,
                phase.vcr.pause_prob,
                phase.vcr.resume_prob,
                phase.graceful_fraction,
            ] {
                if !(0.0..=1.0).contains(&prob) {
                    return Err(SpecError(format!(
                        "phase {i} has a probability outside [0, 1]"
                    )));
                }
            }
            if phase.vcr.seek_prob > 0.0 && phase.vcr.seek_max == 0 {
                return Err(SpecError(format!("phase {i} seeks with seek_max = 0")));
            }
            let rate = phase.arrivals.poisson_rate;
            // The engine attempts every sampled arrival, and a round
            // cannot admit more nodes than the largest ID space holds.
            if !(0.0..=IdSlotTable::MAX_IDS as f64).contains(&rate) {
                return Err(SpecError(format!(
                    "phase {i} needs arrivals=poisson:<rate> between 0 and {} (the ids an ID space holds at most), got {rate:e}",
                    IdSlotTable::MAX_IDS
                )));
            }
            // Degenerate session distributions must fail loudly, not
            // silently warp the churn profile (a Weibull shape of 0
            // would make every session 1 round or u32::MAX rounds).
            let session_ok = match phase.session {
                SessionModel::Forever => true,
                SessionModel::Weibull {
                    shape,
                    scale_rounds,
                } => {
                    shape.is_finite()
                        && shape > 0.0
                        && scale_rounds.is_finite()
                        && scale_rounds > 0.0
                }
            };
            if !session_ok {
                return Err(SpecError(format!(
                    "phase {i} has a degenerate session model {:?}",
                    phase.session
                )));
            }
            for name in &phase.classes {
                check_class(name, &format!("phase {i}"))?;
            }
            // Each weight is finite, but their sum may not be: the draw
            // `u · total` would then be infinite and pick the last class.
            let total: f64 = phase
                .classes
                .iter()
                .filter_map(|n| self.class(n))
                .map(|c| c.weight)
                .sum();
            if !total.is_finite() {
                return Err(SpecError(format!(
                    "phase {i}'s class weights sum to {total}; the total must be finite"
                )));
            }
        }
        for (i, ev) in self.events.iter().enumerate() {
            match &ev.kind {
                ScenarioEventKind::FlashCrowd { count, class } => {
                    // Every join is attempted, like a phase's arrivals.
                    if u64::from(*count) > IdSlotTable::MAX_IDS {
                        return Err(SpecError(format!(
                            "event {i} needs flash_crowd count=<n> of at most {} (the ids an ID space holds at most), got {count}",
                            IdSlotTable::MAX_IDS
                        )));
                    }
                    if let Some(name) = class {
                        check_class(name, &format!("event {i}"))?;
                    }
                }
                ScenarioEventKind::MassDeparture { fraction, .. }
                | ScenarioEventKind::SeekStorm { fraction, .. } => {
                    if !(0.0..=1.0).contains(fraction) {
                        return Err(SpecError(format!(
                            "event {i} has fraction {fraction} outside [0, 1]"
                        )));
                    }
                }
                ScenarioEventKind::CapacityShift { fraction, class } => {
                    if !(0.0..=1.0).contains(fraction) {
                        return Err(SpecError(format!(
                            "event {i} has fraction {fraction} outside [0, 1]"
                        )));
                    }
                    check_class(class, &format!("event {i}"))?;
                    let c = self.class(class).expect("just checked");
                    if c.bandwidth().is_none() {
                        return Err(SpecError(format!(
                            "event {i}: capacity_shift class `{class}` pins no rate"
                        )));
                    }
                }
                ScenarioEventKind::CrashNodes { .. } => {}
                ScenarioEventKind::LossBurst { loss, rounds } => {
                    if !(0.0..=1.0).contains(loss) {
                        return Err(SpecError(format!(
                            "event {i} has loss {loss} outside [0, 1]"
                        )));
                    }
                    if *rounds == 0 {
                        return Err(SpecError(format!("event {i}: loss_burst over 0 rounds")));
                    }
                }
                ScenarioEventKind::PartitionArc { fraction, rounds } => {
                    if !(0.0..=1.0).contains(fraction) {
                        return Err(SpecError(format!(
                            "event {i} has fraction {fraction} outside [0, 1]"
                        )));
                    }
                    if *rounds == 0 {
                        return Err(SpecError(format!("event {i}: partition_arc over 0 rounds")));
                    }
                }
                ScenarioEventKind::RpOutage { rounds } => {
                    if *rounds == 0 {
                        return Err(SpecError(format!("event {i}: rp_outage over 0 rounds")));
                    }
                }
            }
        }
        Ok(())
    }

    /// Deterministic fingerprint of the *specification* (not a run):
    /// two specs with equal fingerprints describe the same experiment.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SystemConfig {
        SystemConfig {
            nodes: 50,
            rounds: 10,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn null_spec_validates() {
        ScenarioSpec::null("null", base()).validate().unwrap();
    }

    #[test]
    fn unknown_class_is_rejected() {
        let mut spec = ScenarioSpec::null("bad", base());
        spec.events.push(TimedEvent {
            round: 1,
            kind: ScenarioEventKind::FlashCrowd {
                count: 5,
                class: Some("nope".into()),
            },
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn flash_crowd_beyond_any_id_space_is_rejected() {
        let crowd = |count| {
            let mut spec = ScenarioSpec::null("crowd", base());
            spec.events.push(TimedEvent {
                round: 2,
                kind: ScenarioEventKind::FlashCrowd { count, class: None },
            });
            spec.validate()
        };
        let max = IdSlotTable::MAX_IDS as u32;
        assert!(crowd(max).is_ok());
        let e = crowd(max + 1).unwrap_err();
        assert!(e.0.contains("flash_crowd count"), "{e}");
    }

    #[test]
    fn empty_phase_is_rejected() {
        let mut spec = ScenarioSpec::null("bad", base());
        spec.phases.push(Phase::quiet(5, 5));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn degenerate_session_models_are_rejected() {
        for session in [
            SessionModel::Weibull {
                shape: 0.0,
                scale_rounds: 20.0,
            },
            SessionModel::Weibull {
                shape: -0.7,
                scale_rounds: 20.0,
            },
            SessionModel::Weibull {
                shape: 1.0,
                scale_rounds: -5.0,
            },
        ] {
            let mut spec = ScenarioSpec::null("bad", base());
            spec.phases.push(Phase {
                session,
                ..Phase::quiet(0, 5)
            });
            assert!(spec.validate().is_err(), "{session:?} must be rejected");
        }
        let mut spec = ScenarioSpec::null("bad", base());
        spec.phases.push(Phase {
            arrivals: ArrivalModel {
                poisson_rate: f64::NAN,
            },
            ..Phase::quiet(0, 5)
        });
        assert!(
            spec.validate().is_err(),
            "NaN arrival rate must be rejected"
        );
    }

    #[test]
    fn capacity_shift_needs_a_pinned_rate() {
        let mut spec = ScenarioSpec::null("bad", base());
        spec.classes.push(NodeClass::default_class("floaty"));
        spec.events.push(TimedEvent {
            round: 2,
            kind: ScenarioEventKind::CapacityShift {
                fraction: 0.5,
                class: "floaty".into(),
            },
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn fingerprint_distinguishes_specs() {
        let a = ScenarioSpec::null("a", base());
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.config.seed += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn class_bandwidth_fills_the_other_rate() {
        let mut c = NodeClass::default_class("dsl");
        assert_eq!(c.bandwidth(), None);
        c.outbound_kbps = Some(256.0);
        let bw = c.bandwidth().unwrap();
        assert_eq!(bw.outbound_kbps, 256.0);
        assert_eq!(bw.inbound_kbps, 450.0);
    }
}
