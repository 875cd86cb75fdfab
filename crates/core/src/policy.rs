//! The config-gated rescue / window-diversity policy layer.
//!
//! PR 4's telemetry localised the 1000×200 continuity cliff as a chain of
//! three compounding mechanisms (ROADMAP, "Continuity at scale"):
//!
//! 1. the steady state has **zero slack** — aggregate gossip deliveries
//!    run at exactly demand (`n·p` segments/round), so any
//!    rarity-induced inefficiency (lost budget races, duplicate pulls)
//!    accumulates as permanent holes;
//! 2. **holdings synchronise** — as window occupancy erodes, connected
//!    neighbourhoods converge on identical buffer contents until nobody
//!    advertises a fresh segment its neighbours miss, and both requests
//!    and deliveries decay;
//! 3. when the play-anchor runway finally drops under a couple of rounds
//!    of demand, the urgent line fires en masse, DHT routing explodes
//!    (119 → 65k msgs/round), and the fixed Case-3 cutoff (`N_miss > l`)
//!    **switches the rescue off for everyone at once** — exactly when it
//!    is most needed.
//!
//! [`PolicyKind`] gates the countermeasures. The default,
//! [`PolicyKind::Legacy`], changes *nothing*: every pinned behavioural
//! fingerprint (`tests/determinism.rs`), the zero-alloc guarantee and
//! the cliff canary (`tests/continuity_cliff.rs`) reproduce bit for bit.
//! [`PolicyKind::Adaptive`] enables three countermeasures, one per
//! mechanism:
//!
//! * **steady-state slack** ([`AdaptivePolicy::inbound_slack`]) —
//!   over-provision the inbound delivery budget by a small fraction so
//!   nodes can heal holes faster than playback consumes runway;
//! * **occupancy-adaptive exchange window**
//!   ([`AdaptivePolicy::OCCUPANCY_FLOOR`],
//!   [`AdaptivePolicy::LOOKAHEAD_FACTOR`],
//!   [`AdaptivePolicy::RARITY_BIAS`]) — when a node's window occupancy
//!   falls below the floor, widen the scheduling lookahead (never below
//!   the legacy window) and bias its pull order toward segments few of
//!   its neighbours hold, breaking the holdings-synchronisation spiral;
//! * **deficit-scaled rescue** ([`AdaptivePolicy::rescue_cap`],
//!   [`AdaptivePolicy::suppression_threshold`]) — scale the per-round
//!   pre-fetch cap and the Case-3 suppression threshold with the
//!   measured runway deficit
//!   ([`AdaptivePolicy::target_runway_rounds`]), so the DHT rescue
//!   *throttles* under load instead of shutting off.
//!
//! The surface follows the traffic: [`AdaptivePolicy`] holds the seven
//! knobs some committed spec, bench bin or benchmark workload actually
//! sets. Every other value of the layer is an associated constant of
//! [`AdaptivePolicy`], next to the formula that reads it — nothing
//! outside three randomised property tests ever moved them, and each
//! independently settable value doubles what the tests and benchmarks
//! would have to cover.
//!
//! All decisions are **pure functions** of per-round state (no retained
//! policy state, no RNG draws), so they run identically on the serial
//! and parallel planning paths and reset trivially with the round
//! scratch. The invariants the property suite pins
//! (`tests/properties.rs`):
//!
//! * `rescue_cap` is monotone non-decreasing in the deficit and never
//!   below 1 while the deficit is positive;
//! * `suppression_threshold` is monotone non-decreasing in the deficit
//!   and never below the effective cap;
//! * `lookahead` is never narrower than the legacy window;
//! * zero deficit and healthy occupancy reproduce the legacy values.

/// Which continuity policy a run uses. The default ([`Self::Legacy`])
/// reproduces the pre-policy behaviour bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PolicyKind {
    /// The original fixed-parameter behaviour: fixed Case-3 cutoff at
    /// `l` (`SystemConfig::PREFETCH_CAP`), fixed exchange-window
    /// lookahead, inbound budget exactly `I·τ`.
    #[default]
    Legacy,
    /// The adaptive rescue / window-diversity layer.
    Adaptive(AdaptivePolicy),
}

impl PolicyKind {
    /// The adaptive policy with its default knobs.
    pub fn adaptive() -> Self {
        PolicyKind::Adaptive(AdaptivePolicy::default())
    }

    /// The adaptive knobs, if this is [`Self::Adaptive`].
    #[inline]
    pub fn as_adaptive(&self) -> Option<&AdaptivePolicy> {
        match self {
            PolicyKind::Legacy => None,
            PolicyKind::Adaptive(p) => Some(p),
        }
    }

    /// The per-round inbound delivery budget under this policy: `base`
    /// itself for Legacy (bit-identical), the slack-over-provisioned
    /// value for Adaptive. The single implementation behind both the
    /// scheduler's and the pre-fetcher's budget — the two share the
    /// inbound rate (§4.3) and must never diverge.
    #[inline]
    pub fn provisioned_inbound(&self, base: f64) -> f64 {
        match self {
            PolicyKind::Legacy => base,
            PolicyKind::Adaptive(p) => p.inbound_budget(base),
        }
    }
}

/// The knobs of the adaptive policy: the seven values some committed
/// spec, bench bin or benchmark workload sets (the `.scn` policy line's
/// whole vocabulary). The rest of the layer is the associated constants
/// below. All decision functions are pure and allocation-free; see the
/// module docs for what each counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Runway target in **rounds of demand**: a node whose contiguous
    /// run ahead of the play anchor covers fewer than
    /// `target_runway_rounds · p·τ` segments is in deficit, and the
    /// rescue cap / suppression threshold scale with that deficit.
    /// `SystemConfig::validate` rejects a target the buffer can never
    /// hold (`target_runway_rounds · p·τ > B`).
    pub target_runway_rounds: u64,
    /// Fractional over-provision of the inbound delivery budget
    /// (`I·τ·(1 + inbound_slack)`), the steady-state slack knob.
    pub inbound_slack: f64,
    /// Recovery plane: per-node, per-round ceiling on origin-fallback
    /// fetches — when every §4.3 replica lookup comes up empty (the
    /// holders crashed, or the epidemic wave broke and *nobody* has the
    /// segment yet), the node may fetch directly from the source, which
    /// always holds the full stream. Bounded by the source's
    /// outbound-spend ledger, which the source-side transfers and rescue
    /// uploads share (step-6 gossip service is budgeted apart from it):
    /// the fallback re-seeds a broken distribution wave (the gossip
    /// plane re-amplifies from the seeded copies) rather than serving
    /// the swarm. `0` (the default) disables the fallback and reproduces
    /// the pre-knob behaviour bit for bit.
    pub source_rescue_cap: usize,
    /// Frontier push seeding: copies of each newly emitted segment the
    /// source pushes to deterministic ring-spread positions, charged to
    /// the same outbound ledger as every other source-side transfer
    /// (not the step-6 gossip budget).
    /// Without it a fresh segment can only enter the swarm through the
    /// source's handful of gossip neighbours, and under sustained loss
    /// that narrow injection funnel saturates and the fresh-segment
    /// epidemic wave starves (the holdings-synchronisation collapse).
    /// Pushing the first `source_push` copies to spread positions
    /// diversifies the amplification base so the wave survives the
    /// funnel. `0` (the default) disables seeding and reproduces the
    /// pre-knob behaviour bit for bit.
    pub source_push: usize,
    /// Joiner integration: extra sponsors a joiner adopts at admission,
    /// picked at deterministic ring-spread positions (the same
    /// position-hashing idea as the frontier push). The §4.1 protocol
    /// alone funnels every joiner through the RP close-ID
    /// neighbourhood: under sustained churn the fan-in concentrates
    /// there, joiners' neighbour views degenerate into clusters of
    /// clones near their own id, and the swarm's aggregate upload decays
    /// exactly when the join rate needs it most. Ring-spread sponsors
    /// give the joiner (and the sponsors, who record the joiner in
    /// return) a view across the whole ring. `0` (the default) disables
    /// sponsor adoption and reproduces the pre-knob behaviour bit for
    /// bit.
    pub join_sponsors: usize,
    /// Joiner integration: segments of initial runway the source pushes
    /// directly to each freshly-admitted node — the frontier push
    /// seeding extended to joiners. The seed starts at the joiner's
    /// adopted play anchor and is charged to the source's outbound
    /// ledger (a spent ledger seeds less), which the other source-side
    /// transfers share but step-6 gossip does not; what it buys is
    /// joiners that start playback with contiguous content instead of
    /// pulling their whole catch-up window from neighbours who are
    /// themselves at budget.
    /// `0` (the default) disables joiner seeding and reproduces the
    /// pre-knob behaviour bit for bit.
    pub join_seed: usize,
    /// Joiner integration: rounds of rescue-cap grace after admission.
    /// While a node is inside its grace window the urgent-line rescue
    /// runs unthrottled — the full [`Self::RESCUE_CAP_MAX`], no Case-3
    /// suppression, the full runway-target probe horizon — and the
    /// scheduler's rescue-budget grace (hard-wired at 6 rounds since
    /// the cliff fix) extends to this many rounds. Catch-up is exactly
    /// when the deficit-scaled throttle misfires: a joiner's window is
    /// *supposed* to be all holes, and suppressing its rescue for
    /// looking desperate strands it. `0` (the default) disables the
    /// grace and reproduces the pre-knob behaviour bit for bit.
    pub join_grace_rounds: u32,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            target_runway_rounds: 4,
            inbound_slack: 0.15,
            source_rescue_cap: 0,
            source_push: 0,
            join_sponsors: 0,
            join_seed: 0,
            join_grace_rounds: 0,
        }
    }
}

impl AdaptivePolicy {
    /// Reject nonsensical knob values (called from
    /// `SystemConfig::validate`, which also bounds the runway target by
    /// the buffer — it knows `p` and `B`).
    pub fn validate(&self) -> Result<(), String> {
        ensure!(
            self.target_runway_rounds > 0,
            "target_runway_rounds must be positive"
        );
        ensure!(
            self.inbound_slack >= 0.0 && self.inbound_slack.is_finite(),
            "inbound_slack must be non-negative"
        );
        ensure!(
            self.join_sponsors <= 64,
            "join_sponsors above 64 would dominate every neighbour view"
        );
        Ok(())
    }

    /// True while a node admitted at `spawn_round` is inside its
    /// rescue-cap grace window at `round`. Always false with the knob
    /// at 0 (the default), so the graced paths are unreachable until
    /// the knob opts in.
    #[inline]
    pub fn in_join_grace(&self, round: u32, spawn_round: u32) -> bool {
        round.saturating_sub(spawn_round) < self.join_grace_rounds
    }

    /// The runway deficit in segments: how far the contiguous run ahead
    /// of the play anchor falls short of the target
    /// (`target_runway_rounds` rounds of demand `p`).
    #[inline]
    pub fn runway_deficit(&self, runway: u64, demand_per_round: u64) -> u64 {
        (self.target_runway_rounds * demand_per_round).saturating_sub(runway)
    }

    /// Segments of runway deficit that buy one extra pre-fetch slot on
    /// top of `l` (`SystemConfig::PREFETCH_CAP`).
    pub const DEFICIT_PER_EXTRA_FETCH: u64 = 4;

    /// Hard ceiling on the per-node, per-round pre-fetch cap — the
    /// throttle that keeps a systemic deficit from reproducing the
    /// 65k-msgs/round DHT explosion node by node.
    pub const RESCUE_CAP_MAX: usize = 16;

    /// The effective per-round pre-fetch cap for a node with the given
    /// runway deficit. Monotone non-decreasing in `deficit`, exactly
    /// `base_cap` at zero deficit (the legacy value — Adaptive never
    /// rescues *less* than Legacy, even when `base_cap` exceeds
    /// [`Self::RESCUE_CAP_MAX`]), never below 1, and never above
    /// `RESCUE_CAP_MAX.max(base_cap)`.
    #[inline]
    pub fn rescue_cap(base_cap: usize, deficit: u64) -> usize {
        let extra = (deficit / Self::DEFICIT_PER_EXTRA_FETCH) as usize;
        base_cap
            .saturating_add(extra)
            .min(Self::RESCUE_CAP_MAX.max(base_cap))
            .max(1)
    }

    /// Extra predicted-miss head room per segment of deficit before
    /// Case-3 suppression re-engages (`threshold = l +
    /// SUPPRESS_SLOPE · deficit`, and never below the effective cap).
    pub const SUPPRESS_SLOPE: usize = 8;

    /// The Case-3 suppression threshold for a node with the given
    /// runway deficit: retrieval is suppressed only when the predicted
    /// miss count exceeds this. Monotone non-decreasing in `deficit`,
    /// equal to `base_cap` at zero deficit (the legacy cutoff), and
    /// never below the effective [`Self::rescue_cap`].
    #[inline]
    pub fn suppression_threshold(base_cap: usize, deficit: u64) -> usize {
        let scaled = base_cap.saturating_add(Self::SUPPRESS_SLOPE.saturating_mul(deficit as usize));
        scaled.max(Self::rescue_cap(base_cap, deficit))
    }

    /// The minimum probe horizon of the deficit-scaled rescue, in
    /// segments past the play anchor: the whole runway target. A healthy
    /// node (runway ≥ target) has no hole inside it, so the probe
    /// triggers nothing; a node in deficit starts healing its nearest
    /// holes while they are still rounds away from their deadline,
    /// instead of waiting for them to enter the (much narrower)
    /// α-window.
    #[inline]
    pub fn rescue_horizon(&self, demand_per_round: u64) -> u64 {
        self.target_runway_rounds * demand_per_round
    }

    /// Exchange-window occupancy below which the lookahead widens and
    /// the rarity bias engages.
    pub const OCCUPANCY_FLOOR: f64 = 0.85;

    /// Maximum widening of the scheduling lookahead (at occupancy 0 the
    /// window is `LOOKAHEAD_FACTOR ×` the legacy width; at the floor it
    /// is exactly the legacy width).
    pub const LOOKAHEAD_FACTOR: f64 = 2.0;

    /// The scheduling lookahead for a node at the given window
    /// occupancy: the legacy width at or above the floor, widening
    /// linearly to [`Self::LOOKAHEAD_FACTOR`] `×` as occupancy falls to
    /// zero. Never narrower than `legacy`, never wider than
    /// [`Self::max_lookahead`].
    #[inline]
    pub fn lookahead(legacy: u64, occupancy: f64) -> u64 {
        if occupancy >= Self::OCCUPANCY_FLOOR {
            return legacy;
        }
        let shortfall =
            ((Self::OCCUPANCY_FLOOR - occupancy) / Self::OCCUPANCY_FLOOR).clamp(0.0, 1.0);
        let widened = legacy as f64 * (1.0 + (Self::LOOKAHEAD_FACTOR - 1.0) * shortfall);
        (widened.floor() as u64).clamp(legacy, Self::max_lookahead(legacy))
    }

    /// The widest lookahead [`Self::lookahead`] can return for a given
    /// legacy width — what the round scratch pre-sizes its window
    /// buffers to, so adaptive widening mid-run never allocates.
    #[inline]
    pub fn max_lookahead(legacy: u64) -> u64 {
        ((legacy as f64 * Self::LOOKAHEAD_FACTOR).floor() as u64).max(legacy)
    }

    /// Scale of the additive priority bonus for locally-rare segments
    /// when occupancy is below the floor: a candidate `nᵢ` neighbours
    /// advertise gets `RARITY_BIAS · (floor − occ)/floor / nᵢ` on top
    /// of its legacy priority. Added *on top of* the diversification
    /// jitter (replacing the jitter with a rarity rank synchronises
    /// pull orders across neighbours and makes the spiral worse — the
    /// A1-style sweep of PR 5 measured it), so per-node diversity is
    /// preserved while rare segments rise within — and, under real
    /// stress, slightly above — the non-urgent band.
    pub const RARITY_BIAS: f64 = 0.5;

    /// The additive priority bonus for a candidate `supplier_count`
    /// neighbours advertise at the given window occupancy. Zero at or
    /// above the floor (the legacy order); below it, decreasing in both
    /// occupancy and supplier count — locally-rare segments get pulled
    /// preferentially — and bounded by [`Self::RARITY_BIAS`].
    #[inline]
    pub fn rarity_bonus(occupancy: f64, supplier_count: usize) -> f64 {
        if occupancy >= Self::OCCUPANCY_FLOOR {
            return 0.0;
        }
        let shortfall =
            ((Self::OCCUPANCY_FLOOR - occupancy) / Self::OCCUPANCY_FLOOR).clamp(0.0, 1.0);
        Self::RARITY_BIAS * shortfall / supplier_count.max(1) as f64
    }

    /// The over-provisioned inbound delivery budget (the steady-state
    /// slack knob): `base · (1 + inbound_slack)`.
    #[inline]
    pub fn inbound_budget(&self, base: f64) -> f64 {
        base * (1.0 + self.inbound_slack)
    }

    /// Recovery plane: rounds a lost pull may stay unanswered before the
    /// recovery scan declares a supplier timeout.
    pub const SUPPLIER_TIMEOUT_ROUNDS: u32 = 2;

    /// Recovery plane: maximum backed-off re-issues per lost pull.
    pub const RETRY_MAX: u32 = 3;

    /// Recovery plane: base of the exponential retry backoff, in rounds
    /// (the delay before retry `a` is `base · factor^(a-1)` plus
    /// jitter).
    pub const BACKOFF_BASE_ROUNDS: u32 = 1;

    /// Recovery plane: multiplicative growth of the retry backoff.
    pub const BACKOFF_FACTOR: u32 = 2;

    /// Recovery plane: maximum uniform jitter (in rounds) added to each
    /// backoff delay, drawn from the `"faults"` RNG stream so retry
    /// storms de-synchronise deterministically.
    pub const BACKOFF_JITTER_ROUNDS: u32 = 1;

    /// Recovery plane: rounds a timed-out supplier stays evicted from
    /// its requester's neighbour set (the failover window — neighbour
    /// maintenance refills the slot from the overheard list).
    pub const EVICT_ROUNDS: u32 = 8;

    /// The deterministic (jitter-free) backoff delay before retry
    /// `attempt` (1-based), in rounds: `base · factor^(attempt-1)`,
    /// saturating. Monotone non-decreasing in `attempt` and never below
    /// [`Self::BACKOFF_BASE_ROUNDS`] — pinned by the recovery-invariant
    /// suite.
    #[inline]
    pub fn backoff_rounds(attempt: u32) -> u32 {
        let exp = attempt.saturating_sub(1).min(16);
        (Self::BACKOFF_BASE_ROUNDS as u64)
            .saturating_mul((Self::BACKOFF_FACTOR as u64).saturating_pow(exp))
            .min(u32::MAX as u64) as u32
    }
}

// What `validate` enforced while these constants were fields, now held
// at compile time: a floor outside (0, 1] divides by zero or never
// engages, a lookahead factor below 1 narrows the window under the
// legacy width, a negative bias *demotes* rare segments, and a zero
// timeout / backoff / eviction / cap ceiling degenerates the recovery
// plane into a same-round retry loop.
const _: () = {
    assert!(AdaptivePolicy::DEFICIT_PER_EXTRA_FETCH > 0);
    assert!(AdaptivePolicy::RESCUE_CAP_MAX >= 1);
    assert!(AdaptivePolicy::OCCUPANCY_FLOOR > 0.0 && AdaptivePolicy::OCCUPANCY_FLOOR <= 1.0);
    assert!(
        AdaptivePolicy::LOOKAHEAD_FACTOR >= 1.0 && AdaptivePolicy::LOOKAHEAD_FACTOR.is_finite()
    );
    assert!(AdaptivePolicy::RARITY_BIAS >= 0.0 && AdaptivePolicy::RARITY_BIAS.is_finite());
    assert!(AdaptivePolicy::SUPPLIER_TIMEOUT_ROUNDS >= 1);
    assert!(AdaptivePolicy::BACKOFF_BASE_ROUNDS >= 1);
    assert!(AdaptivePolicy::BACKOFF_FACTOR >= 1);
    assert!(AdaptivePolicy::EVICT_ROUNDS >= 1);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kind_is_legacy() {
        assert_eq!(PolicyKind::default(), PolicyKind::Legacy);
        assert!(PolicyKind::default().as_adaptive().is_none());
        assert!(PolicyKind::adaptive().as_adaptive().is_some());
    }

    #[test]
    fn zero_deficit_reproduces_legacy_cutoff() {
        assert_eq!(AdaptivePolicy::rescue_cap(5, 0), 5);
        assert_eq!(AdaptivePolicy::suppression_threshold(5, 0), 5);
    }

    #[test]
    fn cap_grows_with_deficit_and_saturates() {
        let mut last = 0;
        for d in 0..200 {
            let cap = AdaptivePolicy::rescue_cap(5, d);
            assert!(cap >= last, "monotone");
            assert!(cap <= AdaptivePolicy::RESCUE_CAP_MAX);
            last = cap;
        }
        assert_eq!(
            AdaptivePolicy::rescue_cap(5, 10_000),
            AdaptivePolicy::RESCUE_CAP_MAX
        );
    }

    #[test]
    fn threshold_never_below_cap() {
        for d in 0..200 {
            assert!(
                AdaptivePolicy::suppression_threshold(5, d) >= AdaptivePolicy::rescue_cap(5, d)
            );
        }
    }

    #[test]
    fn healthy_occupancy_keeps_legacy_window() {
        assert_eq!(AdaptivePolicy::lookahead(200, 0.9), 200);
        assert_eq!(
            AdaptivePolicy::lookahead(200, AdaptivePolicy::OCCUPANCY_FLOOR),
            200
        );
        assert_eq!(AdaptivePolicy::rarity_bonus(0.9, 3), 0.0);
    }

    #[test]
    fn starved_window_widens_but_never_narrows() {
        assert_eq!(AdaptivePolicy::lookahead(200, 0.0), 400);
        for occ in [0.0, 0.1, 0.3, 0.5, 0.69, 0.7, 0.9, 1.0] {
            assert!(AdaptivePolicy::lookahead(200, occ) >= 200);
            assert!(AdaptivePolicy::lookahead(200, occ) <= AdaptivePolicy::max_lookahead(200));
        }
    }

    #[test]
    fn rarity_bonus_prefers_rare_segments_under_stress() {
        let rare = AdaptivePolicy::rarity_bonus(0.3, 1);
        let common = AdaptivePolicy::rarity_bonus(0.3, 5);
        assert!(rare > common && common > 0.0);
        assert!(rare <= AdaptivePolicy::RARITY_BIAS);
        let mut last = -1.0;
        for occ in [0.9, 0.8, 0.6, 0.4, 0.2, 0.0] {
            let b = AdaptivePolicy::rarity_bonus(occ, 2);
            assert!(b >= last, "bonus must not fall as occupancy falls");
            last = b;
        }
    }

    #[test]
    fn join_knobs_default_off() {
        let p = AdaptivePolicy::default();
        assert_eq!(p.join_sponsors, 0);
        assert_eq!(p.join_seed, 0);
        assert_eq!(p.join_grace_rounds, 0);
        // The grace predicate is unreachable with the knob at 0, even
        // for a node admitted this very round.
        for round in [0, 1, 5, 100] {
            assert!(!p.in_join_grace(round, round));
        }
    }

    #[test]
    fn join_grace_window_covers_exactly_the_knob() {
        let p = AdaptivePolicy {
            join_grace_rounds: 8,
            ..AdaptivePolicy::default()
        };
        assert!(p.in_join_grace(10, 10));
        assert!(p.in_join_grace(17, 10));
        assert!(!p.in_join_grace(18, 10));
        // Saturating: a node spawned near u32::MAX stays in grace.
        assert!(p.in_join_grace(u32::MAX, u32::MAX - 2));
    }

    #[test]
    fn slack_scales_budget() {
        let p = AdaptivePolicy {
            inbound_slack: 0.1,
            ..AdaptivePolicy::default()
        };
        assert!((p.inbound_budget(10.0) - 11.0).abs() < 1e-12);
        let zero = AdaptivePolicy {
            inbound_slack: 0.0,
            ..AdaptivePolicy::default()
        };
        assert_eq!(zero.inbound_budget(10.0), 10.0);
    }
}
