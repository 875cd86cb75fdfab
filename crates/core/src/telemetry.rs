//! Per-round telemetry taps for the full-system simulator.
//!
//! [`SystemSim`](crate::SystemSim) exposes the paper's §5.3 metrics in
//! every [`RoundRecord`](crate::RoundRecord); this module records the
//! *diagnostic* counters underneath them — why continuity moved, not
//! just where it landed. Every run records them
//! ([`SystemSim::telemetry`](crate::SystemSim::telemetry)): the taps are
//! pure reads — no RNG, no protocol state — and the collector's rows
//! are sized when the simulator is built, so a warm round still
//! performs **no allocations** (the zero-alloc suite pins this).
//!
//! The counters deliberately cover the ROADMAP's two open continuity
//! questions:
//!
//! * the **round-150 cliff** — play-anchor runway (acquirable
//!   contiguous data ahead of the play point), distance behind the live
//!   frontier, exchange-window occupancy, and backup GC evictions show
//!   which resource runs out first;
//! * **dynamic-churn collapse** — per-joiner startup delays and the
//!   supplier load distribution show whether joiner integration or
//!   upload concentration is the bottleneck.

use crate::SegmentId;
use cs_dht::DhtId;

/// Diagnostic counters for one scheduling round. All means are over
/// *playing* nodes unless stated otherwise; a round with no playing
/// nodes records zeros.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryRound {
    /// Round index (matches `RoundRecord::round`).
    pub round: u32,
    /// Playing nodes this round (denominator of the per-node means).
    pub playing: usize,
    /// Newest segment the source has emitted by the end of the round.
    pub newest_emitted: SegmentId,
    /// Mean contiguous run of buffered segments starting at the play
    /// point — the node's *runway*: how many rounds of playback it
    /// already holds. The cliff shows up here first.
    pub mean_runway: f64,
    /// Smallest runway over playing nodes.
    pub min_runway: u64,
    /// Mean distance of the play point behind the live frontier
    /// (`newest_emitted − next_play`).
    pub mean_frontier_gap: f64,
    /// Mean fraction of the node's exchange window (play anchor up to
    /// the scheduler's lookahead cap) already present in its buffer.
    pub window_occupancy: f64,
    /// Suppliers that delivered at least one segment this round.
    pub supplier_active: usize,
    /// Largest number of segments delivered by a single supplier.
    pub supplier_peak_load: u64,
    /// DHT routing messages spent by Algorithm 2 retrievals this round
    /// (divide by `RoundRecord::prefetch_attempts` for mean hops per
    /// retrieval).
    pub dht_routing_msgs: u64,
    /// Backup segments evicted by GC this round (nonzero only on GC
    /// rounds — every 10th).
    pub gc_evictions: u64,
    /// Total backed-up segments across all alive nodes at end of round.
    pub backup_segments: u64,
    /// Largest effective per-node pre-fetch cap this round: the policy
    /// layer's deficit-scaled throttle (the constant `l` under
    /// `PolicyKind::Legacy` whenever any node reached the urgent-line
    /// check; 0 when none did or pre-fetch is disabled).
    pub rescue_cap: u64,
    /// Nodes whose Case-3 check suppressed retrieval this round
    /// (mirrors `RoundRecord::prefetch_suppressed` into the diagnostic
    /// export).
    pub suppressed_nodes: u64,
    /// Segments delivered to playing nodes beyond their per-round
    /// demand (`Σ max(0, inflow − p·τ)` over playing nodes): how much
    /// slack the swarm actually used to heal holes this round.
    pub slack_used: u64,
    /// Faults injected this round (crashes + data losses + control
    /// losses + delays); 0 whenever the fault plane is inert.
    pub faults_injected: u64,
    /// Supplier timeouts the recovery plane detected this round.
    pub timeouts_detected: u64,
    /// Backed-off retries the recovery plane issued this round.
    pub retries_issued: u64,
    /// Suspected-dead suppliers evicted (failover to the next-best
    /// supplier / DHT rescue) this round.
    pub failovers: u64,
    /// Stale DHT entries of crashed nodes lazily repaired on routing
    /// contact this round.
    pub stale_repairs: u64,
    /// Mean rounds from loss to recovery over segments recovered this
    /// round (0 when none recovered).
    pub mean_time_to_recover: f64,
    /// Nodes whose step-5 candidate gather found something to pull this
    /// round — a segment they lack that a neighbour advertises. A node
    /// that holds its whole exchange window (a sated paused viewer) or
    /// whose neighbourhood advertises nothing it lacks is not counted,
    /// and neither is the source; every node that issued a request is.
    pub active_sched: u64,
    /// Nodes whose step-7 urgent-line check triggered this round — it
    /// fetched (§4.3 Case 2) or was suppressed (Case 3); 0 when
    /// pre-fetch is disabled.
    pub active_prefetch: u64,
}

/// One node's startup trajectory: from overlay admission to playback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartupSample {
    /// The node (round-0 members have `spawn_round` 0).
    pub id: DhtId,
    /// Round the node entered the overlay.
    pub spawn_round: u32,
    /// Round the node first held any data.
    pub first_data_round: u32,
    /// Round playback started. Startup delay in rounds is
    /// `start_round − spawn_round`.
    pub start_round: u32,
}

/// The collected telemetry of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    /// One entry per simulated round.
    pub rounds: Vec<TelemetryRound>,
    /// One entry per node that *started playback* during the run, in
    /// start order.
    pub startups: Vec<StartupSample>,
}

/// Mean startup delay (rounds from admission to playback) over a batch
/// of samples; `None` when empty.
pub fn mean_startup_delay(startups: &[StartupSample]) -> Option<f64> {
    if startups.is_empty() {
        return None;
    }
    let total: u64 = startups
        .iter()
        .map(|s| (s.start_round - s.spawn_round) as u64)
        .sum();
    Some(total as f64 / startups.len() as f64)
}

impl Telemetry {
    /// Mean startup delay of this run, if any node started.
    pub fn mean_startup_delay(&self) -> Option<f64> {
        mean_startup_delay(&self.startups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_startup_delay_empty_is_none() {
        assert_eq!(Telemetry::default().mean_startup_delay(), None);
    }

    #[test]
    fn mean_startup_delay_averages() {
        let t = Telemetry {
            rounds: Vec::new(),
            startups: vec![
                StartupSample {
                    id: 1,
                    spawn_round: 0,
                    first_data_round: 1,
                    start_round: 4,
                },
                StartupSample {
                    id: 2,
                    spawn_round: 10,
                    first_data_round: 11,
                    start_round: 18,
                },
            ],
        };
        assert_eq!(t.mean_startup_delay(), Some(6.0));
    }
}
