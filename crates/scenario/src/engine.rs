//! The scenario engine: resolves a [`ScenarioSpec`]'s stochastic models
//! into concrete [`SystemEvent`]s, round by round, against the live
//! simulator state.
//!
//! The timeline cannot be fully compiled ahead of time — a departure is
//! scheduled for a node whose id only exists once its join succeeded,
//! and VCR/mass events target "currently playing" nodes — so the engine
//! is a deterministic co-driver: before each round it inspects the
//! simulator (alive ids, play states), draws what it needs from its own
//! labelled RNG stream, and applies events through
//! [`SystemSim::apply_event`]. Simulator state is deterministic and the
//! engine stream is seeded from the spec, so the whole composition is
//! reproducible: same spec + seed ⇒ same events ⇒ same metrics, byte
//! for byte.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;

use cs_core::{EventOutcome, SeekTarget, SystemEvent, SystemSim};
use cs_dht::DhtId;
use cs_sim::rng::sample_poisson;
use cs_sim::{RngTree, SimRng};

use crate::spec::{NodeClass, Round, ScenarioEventKind, ScenarioSpec, SessionModel};

/// Counters of what the engine actually did (reported in exports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Joins applied (phase arrivals + flash crowds).
    pub joins: u64,
    /// Joins the simulator rejected (no reachable contact).
    pub joins_rejected: u64,
    /// Departures applied (session expiries + mass departures).
    pub leaves: u64,
    /// Seeks applied (phase VCR + seek storms).
    pub seeks: u64,
    /// Pauses applied.
    pub pauses: u64,
    /// Resumes applied.
    pub resumes: u64,
    /// Capacity changes applied.
    pub capacity_changes: u64,
    /// Crash failures injected by `crash_nodes` events (steady-state
    /// crashes drawn inside the simulator are counted in its
    /// [`FaultTrace`](cs_core::FaultTrace), not here).
    pub crashes: u64,
}

/// Draw a session length in rounds (≥ 1) from the phase's model.
fn sample_session(model: SessionModel, rng: &mut SimRng) -> Option<u32> {
    let rounds = match model {
        SessionModel::Forever => return None,
        SessionModel::Weibull {
            shape,
            scale_rounds,
        } => {
            // Inversion: X = scale · (−ln(1 − U))^(1/shape).
            let u: f64 = 1.0 - rng.gen::<f64>();
            scale_rounds * (-u.ln()).powf(1.0 / shape)
        }
    };
    Some(rounds.ceil().max(1.0).min(u32::MAX as f64) as u32)
}

/// Select a contiguous arc of `n` ids from the id ring into `out`.
///
/// `ids` must be the membership in ring order (ascending id — exactly
/// what [`SystemSim::alive_ids`] returns); the arc starts at index
/// `start` and an arc reaching the top of the ring **wraps** to the low
/// ids rather than truncating — `(start + k) % len` walks the ring, not
/// the array. The single implementation behind every correlated
/// ring-arc event (`mass_departure`, `crash_nodes`, `partition_arc`),
/// pinned by the wrap-around property tests below.
fn select_ring_arc(ids: &[DhtId], start: usize, n: usize, out: &mut Vec<DhtId>) {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ring arcs are only contiguous over ids sorted in ring order"
    );
    if ids.is_empty() {
        return;
    }
    for k in 0..n.min(ids.len()) {
        out.push(ids[(start + k) % ids.len()]);
    }
}

/// `fraction` of a pool of `len`, rounded.
fn share(len: usize, fraction: f64) -> usize {
    (len as f64 * fraction).round() as usize
}

/// Every alive node but the source, in ring order.
fn non_source(sim: &SystemSim) -> impl Iterator<Item = DhtId> + '_ {
    let source = sim.source_id();
    sim.alive_ids()
        .iter()
        .copied()
        .filter(move |&id| id != source)
}

/// The deterministic scenario co-driver. See the module docs.
pub struct ScenarioEngine {
    spec: ScenarioSpec,
    rng: SimRng,
    /// Scheduled departures of scenario-spawned nodes: `(round, id,
    /// graceful)` in a min-heap by round.
    departures: BinaryHeap<Reverse<(Round, DhtId, bool)>>,
    /// Cursor into `spec.events` (kept sorted by round at construction).
    next_event: usize,
    /// Scratch id lists reused across rounds.
    ids: Vec<DhtId>,
    victims: Vec<DhtId>,
    stats: EngineStats,
}

impl ScenarioEngine {
    /// An engine for `spec`, drawing from the `"scenario-engine"` child
    /// of the spec's seed. The spec must validate.
    pub fn new(mut spec: ScenarioSpec) -> Self {
        spec.validate().expect("scenario spec must validate");
        // Stable-sort events by round so the cursor walk fires them in
        // order; same-round events keep their list order.
        spec.events.sort_by_key(|e| e.round);
        let rng = RngTree::new(spec.config.seed).child("scenario-engine");
        ScenarioEngine {
            spec,
            rng,
            departures: BinaryHeap::new(),
            next_event: 0,
            ids: Vec::new(),
            victims: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// The spec this engine drives.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// What the engine has applied so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Apply everything scheduled for the round the simulator is about
    /// to run (`sim.rounds_run()`): due departures, phase arrivals,
    /// timed events, then phase VCR behaviour.
    pub fn drive_round(&mut self, sim: &mut SystemSim) {
        let round = sim.rounds_run();

        // 1. Session expiries of scenario-spawned nodes.
        while let Some(&Reverse((due, id, graceful))) = self.departures.peek() {
            if due > round {
                break;
            }
            self.departures.pop();
            if sim.apply_event(SystemEvent::Leave { id, graceful }) == EventOutcome::Applied {
                self.stats.leaves += 1;
            }
        }

        // 2. Phase arrivals (every phase covering this round).
        for pi in 0..self.spec.phases.len() {
            if !self.spec.phases[pi].covers(round) {
                continue;
            }
            let rate = self.spec.phases[pi].arrivals.poisson_rate;
            if rate <= 0.0 {
                continue;
            }
            let count = sample_poisson(&mut self.rng, rate);
            for _ in 0..count {
                self.join_one(sim, round, Some(pi), None);
            }
        }

        // 3. Timed events due this round.
        while self.next_event < self.spec.events.len()
            && self.spec.events[self.next_event].round <= round
        {
            let ev = self.spec.events[self.next_event].clone();
            self.next_event += 1;
            if ev.round < round {
                continue; // already behind (round skipped); drop it
            }
            self.fire(sim, round, &ev.kind);
        }

        // 4. Phase VCR behaviour over playing nodes.
        for pi in 0..self.spec.phases.len() {
            let phase = &self.spec.phases[pi];
            if !phase.covers(round) {
                continue;
            }
            let vcr = phase.vcr;
            if vcr.seek_prob <= 0.0 && vcr.pause_prob <= 0.0 && vcr.resume_prob <= 0.0 {
                continue;
            }
            self.ids.clear();
            self.ids.extend_from_slice(sim.alive_ids());
            for i in 0..self.ids.len() {
                let id = self.ids[i];
                let Some((next_play, paused)) = sim.play_state(id) else {
                    continue;
                };
                if paused {
                    if vcr.resume_prob > 0.0
                        && self.rng.gen_bool(vcr.resume_prob)
                        && sim.apply_event(SystemEvent::Resume { id }) == EventOutcome::Applied
                    {
                        self.stats.resumes += 1;
                    }
                    continue;
                }
                if next_play.is_none() {
                    continue; // still buffering: no VCR yet
                }
                if vcr.seek_prob > 0.0 && self.rng.gen_bool(vcr.seek_prob) {
                    let dist = self.rng.gen_range(1..=vcr.seek_max);
                    let target = if self.rng.gen_bool(0.5) {
                        SeekTarget::Forward(dist)
                    } else {
                        SeekTarget::Backward(dist)
                    };
                    if sim.apply_event(SystemEvent::Seek { id, target }) == EventOutcome::Applied {
                        self.stats.seeks += 1;
                    }
                }
                if vcr.pause_prob > 0.0
                    && self.rng.gen_bool(vcr.pause_prob)
                    && sim.apply_event(SystemEvent::Pause { id }) == EventOutcome::Applied
                {
                    self.stats.pauses += 1;
                }
            }
        }
    }

    /// One scenario join: resolve the class (explicit, or drawn from the
    /// covering phase's class weights), apply, and schedule the session
    /// expiry.
    fn join_one(
        &mut self,
        sim: &mut SystemSim,
        round: Round,
        phase: Option<usize>,
        class_name: Option<&str>,
    ) {
        let class = match class_name {
            Some(name) => self.spec.class(name),
            None => {
                let names = phase.map(|pi| &self.spec.phases[pi].classes);
                match names {
                    Some(names) if !names.is_empty() => {
                        let total: f64 = names
                            .iter()
                            .filter_map(|n| self.spec.class(n))
                            .map(|c| c.weight)
                            .sum();
                        let mut pick = self.rng.gen::<f64>() * total;
                        let mut chosen: Option<&NodeClass> = None;
                        for n in names {
                            let c = self.spec.class(n).expect("validated");
                            chosen = Some(c);
                            pick -= c.weight;
                            if pick <= 0.0 {
                                break;
                            }
                        }
                        chosen
                    }
                    _ => None,
                }
            }
        };
        let event = SystemEvent::Join {
            ping_ms: class.and_then(|c| c.ping_ms),
            bandwidth: class.and_then(|c| c.bandwidth()),
        };
        match sim.apply_event(event) {
            EventOutcome::Joined(id) => {
                self.stats.joins += 1;
                let (session, graceful_fraction) = match phase {
                    Some(pi) => (
                        self.spec.phases[pi].session,
                        self.spec.phases[pi].graceful_fraction,
                    ),
                    None => (SessionModel::Forever, 0.5),
                };
                if let Some(len) = sample_session(session, &mut self.rng) {
                    let graceful = self.rng.gen_bool(graceful_fraction);
                    self.departures
                        .push(Reverse((round.saturating_add(len), id, graceful)));
                }
            }
            _ => self.stats.joins_rejected += 1,
        }
    }

    /// Fill `self.victims` with `take(pool size)` ids of `pool` (capped at
    /// the pool): with `arc`, a contiguous ring arc from a random start
    /// (`pool` in ring order); otherwise uniformly without replacement
    /// (partial Fisher–Yates). An empty pick draws nothing. Callers apply
    /// their events after the pick: applying an event never draws from
    /// the engine's RNG, so where they apply them cannot move a draw.
    fn pick_victims(
        &mut self,
        pool: impl Iterator<Item = DhtId>,
        take: impl FnOnce(usize) -> usize,
        arc: bool,
    ) {
        self.ids.clear();
        self.ids.extend(pool);
        self.victims.clear();
        let n = take(self.ids.len()).min(self.ids.len());
        if n == 0 {
            return;
        }
        if arc {
            let start = self.rng.gen_range(0..self.ids.len());
            select_ring_arc(&self.ids, start, n, &mut self.victims);
        } else {
            for k in 0..n {
                let j = self.rng.gen_range(k..self.ids.len());
                self.ids.swap(k, j);
                self.victims.push(self.ids[k]);
            }
        }
    }

    /// Fire one timed event.
    fn fire(&mut self, sim: &mut SystemSim, round: Round, kind: &ScenarioEventKind) {
        match kind {
            ScenarioEventKind::FlashCrowd { count, class } => {
                let phase = self.spec.phases.iter().position(|p| p.covers(round));
                let class = class.clone();
                for _ in 0..*count {
                    self.join_one(sim, round, phase, class.as_deref());
                }
            }
            ScenarioEventKind::MassDeparture {
                fraction,
                correlated,
                graceful,
            } => {
                // Correlated: a contiguous arc of the sorted id ring —
                // the whole responsibility range (and its backups)
                // vanishes at once, the worst case for the DHT rescue
                // path.
                self.pick_victims(non_source(sim), |len| share(len, *fraction), *correlated);
                let graceful = *graceful;
                for &id in &self.victims {
                    if sim.apply_event(SystemEvent::Leave { id, graceful }) == EventOutcome::Applied
                    {
                        self.stats.leaves += 1;
                    }
                }
            }
            ScenarioEventKind::SeekStorm { fraction, jump } => {
                let playing = sim
                    .alive_ids()
                    .iter()
                    .copied()
                    .filter(|&id| matches!(sim.play_state(id), Some((Some(_), false))));
                self.pick_victims(playing, |len| share(len, *fraction), false);
                let target = match jump.cmp(&0) {
                    std::cmp::Ordering::Greater => SeekTarget::Forward(*jump as u64),
                    std::cmp::Ordering::Less => SeekTarget::Backward(jump.unsigned_abs()),
                    std::cmp::Ordering::Equal => SeekTarget::ToLive,
                };
                for &id in &self.victims {
                    if sim.apply_event(SystemEvent::Seek { id, target }) == EventOutcome::Applied {
                        self.stats.seeks += 1;
                    }
                }
            }
            ScenarioEventKind::CrashNodes { count, correlated } => {
                // Correlated: a contiguous arc of the id ring goes dark
                // at once — every DHT entry for the arc is left stale,
                // and the arc's whole backup responsibility range is
                // lost.
                self.pick_victims(non_source(sim), |_| *count as usize, *correlated);
                for &id in &self.victims {
                    if sim.apply_event(SystemEvent::Crash { id }) == EventOutcome::Applied {
                        self.stats.crashes += 1;
                    }
                }
            }
            ScenarioEventKind::LossBurst { loss, rounds } => {
                sim.begin_loss_burst(*loss, *rounds);
            }
            ScenarioEventKind::PartitionArc { fraction, rounds } => {
                // Partition a contiguous arc of the ring away from the
                // rest. The source stays in the majority component, so
                // the arc is the side starved of fresh segments.
                self.pick_victims(non_source(sim), |len| share(len, *fraction), true);
                if !self.victims.is_empty() {
                    sim.set_partition(self.victims.clone(), *rounds);
                }
            }
            ScenarioEventKind::RpOutage { rounds } => {
                sim.set_rp_outage(*rounds);
            }
            ScenarioEventKind::CapacityShift { fraction, class } => {
                let bandwidth = self
                    .spec
                    .class(class)
                    .and_then(|c| c.bandwidth())
                    .expect("validated: capacity_shift class pins a rate");
                self.pick_victims(non_source(sim), |len| share(len, *fraction), false);
                for &id in &self.victims {
                    if sim.apply_event(SystemEvent::SetBandwidth { id, bandwidth })
                        == EventOutcome::Applied
                    {
                        self.stats.capacity_changes += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;

    #[test]
    fn weibull_sampling_matches_moments_roughly() {
        // Shape 1 reduces Weibull to exponential: mean == scale.
        let mut rng = RngTree::new(7).child("t");
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            sum += sample_session(
                SessionModel::Weibull {
                    shape: 1.0,
                    scale_rounds: 12.0,
                },
                &mut rng,
            )
            .unwrap() as f64;
        }
        let mean = sum / n as f64;
        // Ceil + max(1) bias the mean up by ~0.5.
        assert!((mean - 12.5).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn forever_sessions_never_schedule_departures() {
        let mut rng = RngTree::new(9).child("t");
        assert_eq!(sample_session(SessionModel::Forever, &mut rng), None);
    }

    /// Property pin for the correlated ring-arc selection: for any ring,
    /// any start index and any arc length, the selection is (a) exactly
    /// `min(n, len)` ids, (b) distinct, and (c) contiguous **on the
    /// ring** — the successor of each selected index is the next
    /// selected index modulo the ring size, so an arc reaching the top
    /// of the id ring wraps to the low ids instead of truncating.
    #[test]
    fn ring_arc_is_contiguous_and_wraps() {
        let mut rng = RngTree::new(20080414).child("arc-prop");
        for _ in 0..500 {
            let len = rng.gen_range(1..60usize);
            // Sorted distinct ids with gaps, like a real membership.
            let mut ids: Vec<DhtId> = Vec::with_capacity(len);
            let mut next = 0u64;
            for _ in 0..len {
                next += rng.gen_range(1..50u64);
                ids.push(next);
            }
            let start = rng.gen_range(0..len);
            let n = rng.gen_range(0..len + 5);
            let mut out = Vec::new();
            select_ring_arc(&ids, start, n, &mut out);
            assert_eq!(out.len(), n.min(len), "arc size");
            let mut distinct = out.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), out.len(), "arc ids are distinct");
            for (k, &id) in out.iter().enumerate() {
                assert_eq!(
                    id,
                    ids[(start + k) % len],
                    "arc walks the ring from `start`, wrapping at the top"
                );
            }
        }
    }

    /// The explicit wrap case the audit was after: an arc starting near
    /// the top of the ring must continue at the low ids.
    #[test]
    fn ring_arc_wraps_past_the_top_of_the_ring() {
        let ids: Vec<DhtId> = vec![10, 20, 30, 40, 50];
        let mut out = Vec::new();
        select_ring_arc(&ids, 3, 4, &mut out);
        assert_eq!(out, vec![40, 50, 10, 20]);
        // Degenerate rings still behave.
        out.clear();
        select_ring_arc(&ids[..1], 0, 3, &mut out);
        assert_eq!(out, vec![10]);
        out.clear();
        select_ring_arc(&[], 0, 3, &mut out);
        assert!(out.is_empty());
    }
}
