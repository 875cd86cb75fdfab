//! The Urgent Line mechanism (§4.3, Figure 4, equations 4 and 8–9).
//!
//! The buffer region between the play point and the urgent line
//! (`id_urgent = id_head + α·B`) is where a still-missing segment can no
//! longer be trusted to the gossip scheduler: if it is not already on its
//! way, it must be pre-fetched now or it will miss its deadline. The
//! urgent ratio α is adapted at runtime:
//!
//! * too **small** an α and pre-fetch "cannot catch the speed of
//!   playback" → whenever a pre-fetched segment arrives late (Case 1,
//!   overdue data), α increases by `p·t_hop/B`;
//! * too **large** an α and segments are pre-fetched that gossip would
//!   have delivered anyway (Case 2, repeated data) → α decreases by the
//!   same step.
//!
//! α never drops below the eq. 9 lower bound
//! `(p/B)·max(τ, t_fetch)`, which is also its initial value.

use crate::buffer::{low_bits, BitIter, StreamBuffer};
use crate::SegmentId;

/// What the urgent-line check decided for this period (§4.3's three
/// cases); the missed ids of the `Fetch` case are written into the
/// caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchCheck {
    /// Case 1: nothing predicted missed; on-demand retrieval not
    /// triggered.
    NotTriggered,
    /// Case 2: `0 < N_miss ≤ l`; fetch everything now in the caller's
    /// buffer, in parallel.
    Fetch,
    /// Case 3: `N_miss > l`; retrieval suppressed to avoid excessive
    /// pre-fetch traffic. Carries the observed `N_miss`.
    TooMany(usize),
}

/// The adaptive urgent line of one node.
#[derive(Debug, Clone)]
pub struct UrgentLine {
    alpha: f64,
    alpha_floor: f64,
    step: f64,
    buffer_size: u64,
}

impl UrgentLine {
    /// Build from the paper's parameters.
    ///
    /// * `playback_rate` — `p`, segments/s;
    /// * `buffer_size` — `B`;
    /// * `period_secs` — `τ`;
    /// * `t_fetch_secs` — expected pre-fetch time (eq. 7);
    /// * `t_hop_secs` — expected one-hop time (sets the adaptation step).
    ///
    /// The pre-fetch cap `l` is not the line's: the caller passes it to
    /// each [`Self::decide_scaled_into`].
    pub fn new(
        playback_rate: f64,
        buffer_size: u64,
        period_secs: f64,
        t_fetch_secs: f64,
        t_hop_secs: f64,
    ) -> Self {
        let floor =
            cs_analysis::alpha_lower_bound(playback_rate, buffer_size, period_secs, t_fetch_secs);
        UrgentLine {
            alpha: floor,
            alpha_floor: floor,
            step: cs_analysis::prefetch::alpha_step(playback_rate, buffer_size, t_hop_secs),
            buffer_size,
        }
    }

    /// The current urgent ratio α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The eq. 9 lower bound (also the initial α).
    pub fn alpha_floor(&self) -> f64 {
        self.alpha_floor
    }

    /// The adaptation step `p·t_hop/B`.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Equation (4): the urgent line's segment id given the buffer head.
    pub fn urgent_id(&self, head: SegmentId) -> SegmentId {
        head + (self.alpha * self.buffer_size as f64).ceil() as u64
    }

    /// The exclusive end of the probe window: the urgent line widened to
    /// `min_horizon` and clamped to the emitted stream.
    fn probe_end(
        &self,
        play_from: SegmentId,
        newest_available: SegmentId,
        min_horizon: u64,
    ) -> SegmentId {
        self.urgent_id(play_from)
            .max(play_from + min_horizon)
            .min(newest_available + 1)
    }

    /// Predict the missed segments and decide whether to trigger
    /// on-demand retrieval (§4.3's three cases). The fetch cap, the
    /// Case-3 suppression cutoff and a minimum probe horizon come from
    /// the caller: the paper's fixed check is `(l, l, 0)`; the adaptive
    /// policy layer (see [`crate::policy`]) scales all three with the
    /// measured runway deficit.
    ///
    /// The probe covers `[play_from, max(urgent_id, play_from +
    /// min_horizon))`, clamped to the emitted stream: the adaptive rescue
    /// watches the whole runway target, not just the α-window, so it
    /// starts healing holes long before they become deadline-critical. A
    /// segment in it is predicted missed when it is not in the buffer
    /// (the round's deliveries are already in). Up to `fetch_cap` missed
    /// ids (the most urgent first — ascending from the play point) are
    /// written into the caller-owned `missed` (cleared first; populated
    /// only in the `Fetch` case), so the check allocates nothing;
    /// retrieval is suppressed only when the *total* predicted miss count
    /// exceeds `suppress_above`, so a deficit between the two throttles
    /// the rescue to the cap rather than switching it off.
    ///
    /// The scan is a word at a time — `holes = !buffer & window` and a
    /// popcount for `N_miss` — so a node with a full probe, which is most
    /// of them, costs ⌈len/64⌉ loads and gets its `NotTriggered` from the
    /// check itself: the pre-fetch phase needs no separate "anything to
    /// do?" test.
    #[allow(clippy::too_many_arguments)]
    pub fn decide_scaled_into(
        &self,
        buffer: &StreamBuffer,
        play_from: SegmentId,
        newest_available: SegmentId,
        missed: &mut Vec<SegmentId>,
        fetch_cap: usize,
        suppress_above: usize,
        min_horizon: u64,
    ) -> PrefetchCheck {
        missed.clear();
        let urgent_end = self.probe_end(play_from, newest_available, min_horizon);
        let mut count = 0usize;
        let mut base = play_from;
        while base < urgent_end {
            let holes = !buffer.window_word(base) & low_bits(urgent_end - base);
            let room = fetch_cap.saturating_sub(count);
            missed.extend(BitIter(holes).take(room).map(|b| base + u64::from(b)));
            count += holes.count_ones() as usize;
            base += 64;
        }
        if count == 0 {
            PrefetchCheck::NotTriggered
        } else if count <= suppress_above {
            PrefetchCheck::Fetch
        } else {
            // A partial prefix is meaningless in the suppressed case.
            missed.clear();
            PrefetchCheck::TooMany(count)
        }
    }

    /// Case 1 (overdue data): a pre-fetched segment arrived after its
    /// deadline → widen the urgent window.
    pub fn on_overdue(&mut self) {
        self.alpha = (self.alpha + self.step).min(1.0);
    }

    /// Case 2 (repeated data): a pre-fetched segment was also delivered
    /// by the scheduler in time → narrow the urgent window, but never
    /// below the eq. 9 floor.
    pub fn on_repeated(&mut self) {
        self.alpha = (self.alpha - self.step).max(self.alpha_floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;
    use rand::Rng;

    fn line() -> UrgentLine {
        // Paper defaults: p = 10, B = 600, τ = 1 s, t_fetch = 0.4 s,
        // t_hop = 0.05 s.
        UrgentLine::new(10.0, 600, 1.0, 0.4, 0.05)
    }

    /// The paper's fixed check (`l = 5`: cap and cutoff both `l`, no
    /// extra horizon) from play point 100: the outcome and what it wrote.
    fn decide(
        l: &UrgentLine,
        buf: &StreamBuffer,
        newest: SegmentId,
    ) -> (PrefetchCheck, Vec<SegmentId>) {
        let mut missed = Vec::new();
        let check = l.decide_scaled_into(buf, 100, newest, &mut missed, 5, 5, 0);
        (check, missed)
    }

    /// The check by its definition, one `contains` per id of the probe
    /// window — the oracle of the word-level scan.
    fn decide_per_id(
        l: &UrgentLine,
        buffer: &StreamBuffer,
        play_from: SegmentId,
        newest_available: SegmentId,
        fetch_cap: usize,
        suppress_above: usize,
        min_horizon: u64,
    ) -> (PrefetchCheck, Vec<SegmentId>) {
        let end = l.probe_end(play_from, newest_available, min_horizon);
        let holes: Vec<SegmentId> = (play_from..end)
            .filter(|&id| !buffer.contains(id))
            .collect();
        if holes.is_empty() {
            (PrefetchCheck::NotTriggered, holes)
        } else if holes.len() <= suppress_above {
            let fetch = holes.len().min(fetch_cap);
            (PrefetchCheck::Fetch, holes[..fetch].to_vec())
        } else {
            (PrefetchCheck::TooMany(holes.len()), Vec::new())
        }
    }

    #[test]
    fn initial_alpha_is_paper_value() {
        let l = line();
        // §5.2: α = 10/600 × max(1, 0.4) = 1/60.
        assert!((l.alpha() - 1.0 / 60.0).abs() < 1e-12);
        assert_eq!(l.alpha(), l.alpha_floor());
    }

    #[test]
    fn urgent_id_matches_equation_4() {
        let l = line();
        // α·B = 10 → urgent line 10 segments past the head.
        assert_eq!(l.urgent_id(100), 110);
    }

    #[test]
    fn not_triggered_when_window_full() {
        let l = line();
        let mut buf = StreamBuffer::with_head(600, 100);
        for id in 100..120 {
            buf.insert(id);
        }
        assert_eq!(
            decide(&l, &buf, 1000),
            (PrefetchCheck::NotTriggered, vec![])
        );
    }

    #[test]
    fn fetches_holes_within_urgent_window() {
        let l = line();
        let mut buf = StreamBuffer::with_head(600, 100);
        for id in 100..120 {
            if id != 103 && id != 107 {
                buf.insert(id);
            }
        }
        assert_eq!(
            decide(&l, &buf, 1000),
            (PrefetchCheck::Fetch, vec![103, 107])
        );
    }

    #[test]
    fn too_many_suppresses_retrieval() {
        let l = line();
        let buf = StreamBuffer::with_head(600, 100); // nothing present
                                                     // All 10 in-window segments missing; l = 5 → suppressed.
        assert_eq!(decide(&l, &buf, 1000), (PrefetchCheck::TooMany(10), vec![]));
    }

    #[test]
    fn urgent_window_clamped_to_available_stream() {
        // The source has only emitted up to segment 104: segments beyond
        // cannot be "missed".
        let l = line();
        let buf = StreamBuffer::with_head(600, 100);
        assert_eq!(
            decide(&l, &buf, 104),
            (PrefetchCheck::Fetch, vec![100, 101, 102, 103, 104])
        );
    }

    #[test]
    fn probe_end_matches_decide_window() {
        let l = line();
        // Bare α-window: probe end == urgent id.
        assert_eq!(l.probe_end(100, 1000, 0), l.urgent_id(100));
        // Horizon widens it; the emitted frontier clamps it.
        assert_eq!(l.probe_end(100, 1000, 40), 140);
        assert_eq!(l.probe_end(100, 104, 40), 105);
        // Holding all of [play_from, probe_end) ⇔ NotTriggered: one hole
        // at either edge of the probe triggers, one just past it does not.
        let mut buf = StreamBuffer::with_head(600, 100);
        for id in 101..139 {
            buf.insert(id);
        }
        let check =
            |buf: &StreamBuffer| l.decide_scaled_into(buf, 100, 1000, &mut Vec::new(), 5, 5, 40);
        assert_eq!(check(&buf), PrefetchCheck::Fetch);
        buf.insert(100);
        assert_eq!(check(&buf), PrefetchCheck::Fetch);
        buf.insert(139);
        assert!(buf.has_range(100, 40) && !buf.contains(140));
        assert_eq!(check(&buf), PrefetchCheck::NotTriggered);
    }

    /// Seeded random buffers, α, horizons and caps: the word-level scan
    /// and the per-id loop agree on the outcome and on every missed id —
    /// over windows that straddle a word, start below the buffer's head,
    /// end past the emitted stream (so the frontier clamps them,
    /// sometimes to nothing), and reach past the buffer.
    #[test]
    fn word_level_scan_matches_per_id_loop() {
        let mut outcomes = [0usize; 3];
        for case in 0..4000u64 {
            let mut rng = RngTree::new(0x0A1F).child_indexed("urgent-scan", case);
            let capacity = rng.gen_range(40..700u64);
            let head = rng.gen_range(1..400u64);
            let fill = [0.0, 0.5, 0.9, 0.99, 1.0][rng.gen_range(0..5usize)];
            let mut buf = StreamBuffer::with_head(capacity, head);
            for id in head..head + capacity {
                if rng.gen_bool(fill) {
                    buf.insert(id);
                }
            }
            let mut l = UrgentLine::new(10.0, capacity, 1.0, 0.4, 0.05);
            for _ in 0..rng.gen_range(0..400u32) {
                l.on_overdue();
            }
            // From 70 below the head to 70 past the buffer's end; the
            // stream ends anywhere from before the play point on.
            let play_from = (head + rng.gen_range(0..capacity + 140)).saturating_sub(70);
            let newest = (play_from + rng.gen_range(0..300u64)).saturating_sub(20);
            let horizon = [0, 1, 63, 64, 65, rng.gen_range(0..400u64)][rng.gen_range(0..6usize)];
            let cap = rng.gen_range(0..40usize);
            let above = cap + rng.gen_range(0..80usize);

            let mut missed = vec![u64::MAX; 3]; // stale content must go
            let check =
                l.decide_scaled_into(&buf, play_from, newest, &mut missed, cap, above, horizon);
            let oracle = decide_per_id(&l, &buf, play_from, newest, cap, above, horizon);
            assert_eq!(
                (check, missed),
                oracle,
                "case {case}: B={capacity} head={head} fill={fill} α={} from={play_from} \
                 newest={newest} horizon={horizon} cap={cap} above={above}",
                l.alpha()
            );
            outcomes[match check {
                PrefetchCheck::NotTriggered => 0,
                PrefetchCheck::Fetch => 1,
                PrefetchCheck::TooMany(_) => 2,
            }] += 1;
        }
        assert!(
            outcomes.iter().all(|&n| n >= 200),
            "the cases must exercise all three outcomes: {outcomes:?}"
        );
    }

    #[test]
    fn adaptation_moves_alpha_by_step() {
        let mut l = line();
        let a0 = l.alpha();
        l.on_overdue();
        assert!((l.alpha() - (a0 + l.step())).abs() < 1e-15);
        l.on_repeated();
        assert!((l.alpha() - a0).abs() < 1e-15);
    }

    #[test]
    fn alpha_never_below_floor() {
        let mut l = line();
        for _ in 0..100 {
            l.on_repeated();
        }
        assert_eq!(l.alpha(), l.alpha_floor());
    }

    #[test]
    fn alpha_capped_at_one() {
        let mut l = line();
        for _ in 0..100_000 {
            l.on_overdue();
        }
        assert!(l.alpha() <= 1.0);
    }

    #[test]
    fn step_is_paper_value() {
        let l = line();
        // p·t_hop/B = 10 × 0.05 / 600 = 1/1200.
        assert!((l.step() - 1.0 / 1200.0).abs() < 1e-15);
    }

    #[test]
    fn wider_alpha_widens_prediction() {
        let mut l = line();
        let buf = StreamBuffer::with_head(600, 100);
        // Push α up so the urgent window covers 20 segments.
        while l.urgent_id(100) < 120 {
            l.on_overdue();
        }
        match decide(&l, &buf, 1000).0 {
            PrefetchCheck::TooMany(n) => assert!(n >= 20),
            other => panic!("expected TooMany, got {other:?}"),
        }
    }
}
