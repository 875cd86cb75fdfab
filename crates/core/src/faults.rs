//! The config-gated deterministic fault plane.
//!
//! The paper's headline claim is playback continuity under *failure* —
//! nodes that vanish mid-stream and requests that go unanswered — yet
//! the baseline simulator models only graceful departures over lossless,
//! instant message delivery. [`FaultPlan`] closes that gap with four
//! deterministic fault injectors, all drawing from a dedicated
//! `"faults"` child of the seeded RNG tree (the same gating discipline
//! as the policy layer: the default all-zero plan draws **nothing**,
//! allocates nothing, and reproduces every pinned behavioural
//! fingerprint bit for bit):
//!
//! * **crash failures** ([`FaultPlan::crash_rate`]) — per-node
//!   per-round Bernoulli crashes. Unlike the churn model's
//!   `abrupt_failure`, a crash performs *no* cleanup at all: the RP
//!   server keeps the id allocated, the DHT keeps the dead node's slot
//!   and every finger pointing at it (stale until lazily repaired), and
//!   suppliers go silently dark — neighbours only notice through the
//!   overlay's own liveness machinery;
//! * **data-path loss** ([`FaultPlan::data_loss`]) — each accepted
//!   gossip pull delivery is independently lost with this probability
//!   (the request was served; the segment never arrives);
//! * **control-path loss** ([`FaultPlan::control_loss`]) — each DHT
//!   rescue pull (the §4.3 pre-fetch download, after the routing lookup
//!   located a supplier) is independently lost;
//! * **control-path delay** ([`FaultPlan::delay_prob`],
//!   [`FaultPlan::delay_ms`]) — a surviving rescue pull is delayed by
//!   `delay_ms` with probability `delay_prob`, pressuring the §4.3
//!   Case-1 overdue deadline.
//!
//! On top of the steady-state plan, the scenario engine scripts
//! transient faults through dedicated hooks on `SystemSim`: bursty
//! overlay loss windows (`loss_burst`), ring-arc partitions
//! (`partition_arc`, cross-arc messages drop deterministically), and
//! RP/bootstrap outages (`rp_outage`, joins rejected for a window).
//!
//! Every injected fault and every recovery action is appended to a
//! [`FaultTrace`]: a per-round record stream plus a chained digest, so
//! "same seed ⇒ byte-identical fault history" is a checkable (and
//! pinned) property.

/// Steady-state fault rates, part of `SystemConfig`. The default is
/// all-zero and **inert**: no RNG draws, no allocations, no behaviour
/// change (pinned by the determinism and zero-alloc suites).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-node, per-round probability of a crash failure (no graceful
    /// handoff: backups stranded, DHT entries stale, RP id leaked).
    /// The source never crashes.
    pub crash_rate: f64,
    /// Per-delivery loss probability on the gossip data path (an
    /// accepted pull whose segment never arrives).
    pub data_loss: f64,
    /// Per-pull loss probability on the DHT rescue control path (the
    /// lookup located a supplier; the download is lost).
    pub control_loss: f64,
    /// Probability that a surviving rescue pull is delayed.
    pub delay_prob: f64,
    /// Added latency of a delayed rescue pull, milliseconds.
    pub delay_ms: f64,
}

impl FaultPlan {
    /// Whether any steady-state injector is armed. `false` for the
    /// default plan — the whole fault plane then costs one branch per
    /// injection point.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.crash_rate > 0.0
            || self.data_loss > 0.0
            || self.control_loss > 0.0
            || self.delay_prob > 0.0
    }

    /// Reject nonsensical rates (called from `SystemConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("crash_rate", self.crash_rate),
            ("data_loss", self.data_loss),
            ("control_loss", self.control_loss),
            ("delay_prob", self.delay_prob),
        ] {
            ensure!(
                (0.0..=1.0).contains(&p),
                "fault {name} must be a probability in [0, 1], got {p}"
            );
        }
        ensure!(
            self.delay_ms >= 0.0 && self.delay_ms.is_finite(),
            "fault delay_ms must be finite and non-negative"
        );
        Ok(())
    }
}

/// One round of fault-plane and recovery-plane activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultRoundRecord {
    /// Round index.
    pub round: u32,
    /// Crash failures injected this round (steady-state + scripted).
    pub crashes: u32,
    /// Gossip deliveries lost on the data path this round.
    pub data_losses: u32,
    /// Rescue pulls lost on the control path this round.
    pub control_losses: u32,
    /// Rescue pulls delayed this round.
    pub delays: u32,
    /// Supplier timeouts detected by the recovery plane this round.
    pub timeouts: u32,
    /// Backed-off retries issued this round.
    pub retries: u32,
    /// Failovers this round: suspected-dead suppliers evicted (the pull
    /// moves to the next-best supplier / DHT rescue) plus successful
    /// origin-fallback fetches (`AdaptivePolicy::source_rescue_cap`).
    pub failovers: u32,
    /// Stale DHT entries of crashed nodes lazily repaired this round.
    pub stale_repairs: u32,
    /// Lost segments recovered (re-fetched or re-delivered) this round.
    pub recoveries: u32,
    /// Sum over this round's recoveries of rounds-from-loss-to-recovery
    /// (divide by `recoveries` for the mean time-to-recover).
    pub recovery_rounds: u64,
}

impl FaultRoundRecord {
    /// Total faults injected this round (the telemetry column).
    #[inline]
    pub fn injected(&self) -> u32 {
        self.crashes + self.data_losses + self.control_losses + self.delays
    }
}

/// The deterministic fault history of one run: per-round records plus a
/// chained digest over every record. Two runs with the same seed
/// produce byte-identical traces — pinned by the recovery-invariant
/// suite.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultTrace {
    /// One record per round in which the fault plane was active.
    pub rounds: Vec<FaultRoundRecord>,
    digest: u64,
}

impl FaultTrace {
    /// Append one round's record and fold it into the digest.
    pub fn push(&mut self, rec: FaultRoundRecord) {
        let mut h = self.digest ^ 0xcbf2_9ce4_8422_2325;
        for word in [
            rec.round as u64,
            rec.crashes as u64,
            rec.data_losses as u64,
            rec.control_losses as u64,
            rec.delays as u64,
            rec.timeouts as u64,
            rec.retries as u64,
            rec.failovers as u64,
            rec.stale_repairs as u64,
            rec.recoveries as u64,
            rec.recovery_rounds,
        ] {
            h = cs_sim::splitmix64(h ^ word);
        }
        self.digest = h;
        self.rounds.push(rec);
    }

    /// The chained digest over every pushed record (0 for an empty
    /// trace).
    #[inline]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Whether any record was pushed. An all-defaults run keeps the
    /// trace empty (the faults-off invisibility canary).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.enabled());
        plan.validate().unwrap();
    }

    #[test]
    fn any_nonzero_rate_arms_the_plan() {
        for plan in [
            FaultPlan {
                crash_rate: 0.01,
                ..FaultPlan::default()
            },
            FaultPlan {
                data_loss: 0.5,
                ..FaultPlan::default()
            },
            FaultPlan {
                control_loss: 1.0,
                ..FaultPlan::default()
            },
            FaultPlan {
                delay_prob: 0.2,
                delay_ms: 500.0,
                ..FaultPlan::default()
            },
        ] {
            assert!(plan.enabled());
            plan.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_rate_panics() {
        FaultPlan {
            data_loss: 1.5,
            ..FaultPlan::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn trace_digest_chains_and_discriminates() {
        let rec = |round, crashes| FaultRoundRecord {
            round,
            crashes,
            ..FaultRoundRecord::default()
        };
        let mut a = FaultTrace::default();
        let mut b = FaultTrace::default();
        assert!(a.is_empty());
        assert_eq!(a.digest(), 0);
        a.push(rec(0, 1));
        a.push(rec(1, 0));
        b.push(rec(0, 1));
        b.push(rec(1, 0));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let mut c = FaultTrace::default();
        c.push(rec(0, 1));
        c.push(rec(1, 1));
        assert_ne!(a.digest(), c.digest());
        // Order matters: the digest is a chain, not a sum.
        let mut d = FaultTrace::default();
        d.push(rec(1, 0));
        d.push(rec(0, 1));
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn injected_sums_fault_kinds() {
        let rec = FaultRoundRecord {
            crashes: 1,
            data_losses: 2,
            control_losses: 3,
            delays: 4,
            ..FaultRoundRecord::default()
        };
        assert_eq!(rec.injected(), 10);
    }
}
