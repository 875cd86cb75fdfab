//! The Rate Controller against an oracle.
//!
//! The Rate Controller's state is three columns of the partner table
//! (`cs_overlay::ConnectedNeighbors`): each connected neighbour's row
//! holds its estimate and this period's requests and deliveries beside
//! its id, latency and supply. The three parallel tables the state once
//! lived in (estimates, this period's requests, this period's
//! deliveries) live on below as the `reference` oracle, verbatim, and
//! over seeded random sequences of every operation the two must report
//! bit-identical rates for every key after every operation. Every drawn
//! key is connected up front; the oracle's `forget` is a `remove`
//! followed by a re-`add`, as when a partner leaves and later returns.

use continustreaming::net::SEGMENT_KBITS;
use continustreaming::overlay::ConnectedNeighbors;
use continustreaming::prelude::*;
use rand::Rng as _;

/// The three-table controller, kept verbatim as the oracle.
mod reference {
    const PROBE_UP: f64 = 1.15;
    const DOWN_ALPHA: f64 = 0.5;
    const MAX_RATE: f64 = 500.0;

    #[derive(Debug, Clone)]
    pub struct RateController<K> {
        prior: f64,
        rates: Vec<(K, f64)>,
        requested: Vec<(K, u32)>,
        delivered: Vec<(K, u32)>,
    }

    #[inline]
    fn bump<K: Copy + PartialEq>(table: &mut Vec<(K, u32)>, key: K) {
        match table.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 += 1,
            None => table.push((key, 1)),
        }
    }

    impl<K: Copy + PartialEq + std::fmt::Debug> RateController<K> {
        pub fn new(prior: f64) -> Self {
            assert!(prior > 0.0, "rate prior must be positive");
            RateController {
                prior,
                rates: Vec::new(),
                requested: Vec::new(),
                delivered: Vec::new(),
            }
        }

        pub fn record_request(&mut self, from: K) {
            bump(&mut self.requested, from);
        }

        pub fn record_delivery(&mut self, from: K) {
            bump(&mut self.delivered, from);
        }

        pub fn end_period(&mut self, period_secs: f64) {
            assert!(period_secs > 0.0);
            for i in 0..self.requested.len() {
                let (id, asked) = self.requested[i];
                if asked == 0 {
                    continue;
                }
                let got = self
                    .delivered
                    .iter()
                    .find(|(k, _)| *k == id)
                    .map(|(_, g)| *g)
                    .unwrap_or(0);
                let observed = got as f64 / period_secs;
                let current = self.rate_or_prior(id);
                let next = if got >= asked {
                    if observed >= 0.5 * current {
                        (current.max(observed) * PROBE_UP).min(MAX_RATE)
                    } else {
                        current
                    }
                } else {
                    (1.0 - DOWN_ALPHA) * current + DOWN_ALPHA * observed
                };
                self.set_rate(id, next.max(0.01));
            }
            self.requested.clear();
            self.delivered.clear();
        }

        #[inline]
        fn rate_or_prior(&self, id: K) -> f64 {
            self.rates
                .iter()
                .find(|(k, _)| *k == id)
                .map(|(_, r)| *r)
                .unwrap_or(self.prior)
        }

        #[inline]
        fn set_rate(&mut self, id: K, rate: f64) {
            match self.rates.iter_mut().find(|(k, _)| *k == id) {
                Some(slot) => slot.1 = rate,
                None => self.rates.push((id, rate)),
            }
        }

        #[inline]
        pub fn rate(&self, id: K) -> f64 {
            self.rate_or_prior(id)
        }

        pub fn forget(&mut self, id: K) {
            self.rates.retain(|(k, _)| *k != id);
            self.requested.retain(|(k, _)| *k != id);
            self.delivered.retain(|(k, _)| *k != id);
        }
    }
}

/// Keys the sequences draw from; [`ABSENT`] is never connected.
const KEYS: u64 = 6;
const ABSENT: DhtId = 99;

/// Every key's rate, bit for bit, on both sides.
fn assert_rates_eq(
    ours: &ConnectedNeighbors,
    oracle: &reference::RateController<DhtId>,
    case: u64,
    step: usize,
    op: &str,
) {
    for key in (0..KEYS).chain([ABSENT]) {
        assert_eq!(
            ours.rate(key).to_bits(),
            oracle.rate(key).to_bits(),
            "case {case}, step {step} ({op}): rate({key}) {} vs oracle {}",
            ours.rate(key),
            oracle.rate(key)
        );
    }
}

#[test]
fn one_table_matches_three_tables() {
    // How often closing a period moved a requested-from key's estimate
    // up, down or not at all on the oracle: the sequences must reach all
    // three arms of `end_period`.
    let (mut up, mut down, mut held) = (0u32, 0u32, 0u32);
    for case in 0..1200u64 {
        let mut rng = RngTree::new(0x7A7E).child_indexed("rate-equiv", case);
        let prior = rng.gen_range(0.5..20.0);
        let mut ours = ConnectedNeighbors::new(KEYS as usize, prior);
        for key in 0..KEYS {
            assert!(ours.add(key, 5.0));
        }
        let mut oracle = reference::RateController::new(prior);
        // Requests per key since the last `end_period` (or `forget`).
        let mut asked_now = [0u32; KEYS as usize];
        let steps = rng.gen_range(0usize..160);
        for step in 0..steps {
            let key = rng.gen_range(0..KEYS);
            let op = match rng.gen_range(0u32..100) {
                0..=29 => {
                    ours.record_request(key);
                    oracle.record_request(key);
                    asked_now[key as usize] += 1;
                    "request"
                }
                30..=54 => {
                    ours.record_delivery(key, SEGMENT_KBITS);
                    oracle.record_delivery(key);
                    "delivery"
                }
                55..=69 => {
                    // A period's worth at once: `asked` requests and a
                    // delivery count on either side of it.
                    let asked = rng.gen_range(1u32..12);
                    let got = rng.gen_range(0..=asked + 1);
                    for _ in 0..asked {
                        ours.record_request(key);
                        oracle.record_request(key);
                    }
                    asked_now[key as usize] += asked;
                    for _ in 0..got {
                        ours.record_delivery(key, SEGMENT_KBITS);
                        oracle.record_delivery(key);
                    }
                    "burst"
                }
                70..=89 => {
                    let period = [0.25, 0.5, 1.0, 1.5, 2.0][rng.gen_range(0usize..5)];
                    let before: Vec<f64> = (0..KEYS).map(|k| oracle.rate(k)).collect();
                    ours.end_period(period);
                    oracle.end_period(period);
                    for (k, &b) in before.iter().enumerate() {
                        if std::mem::take(&mut asked_now[k]) == 0 {
                            continue;
                        }
                        let a = oracle.rate(k as DhtId);
                        if a > b {
                            up += 1;
                        } else if a < b {
                            down += 1;
                        } else {
                            held += 1;
                        }
                    }
                    "end_period"
                }
                90..=96 => {
                    // The partner leaves and later returns.
                    assert!(ours.remove(key));
                    assert!(ours.add(key, 5.0));
                    oracle.forget(key);
                    asked_now[key as usize] = 0;
                    "forget"
                }
                _ => {
                    // Reads only: `rate` takes `&self` on both sides.
                    "rate"
                }
            };
            assert_rates_eq(&ours, &oracle, case, step, op);
        }
    }
    assert!(
        up > 500 && down > 500 && held > 500,
        "sequences must exercise every end_period arm (up {up}, down {down}, held {held})"
    );
}
