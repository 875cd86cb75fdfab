//! Synthetic Clip2-style trace generation.
//!
//! Reproduces the marginals the paper's simulator reads from the real
//! crawls (the crate docs say why that is all the simulator needs):
//!
//! * **Scale**: 100–10 000 nodes (any size works).
//! * **Sparse degree**: edges are laid down by a preferential-attachment
//!   pass tuned to hit a target average degree in the paper's "< 1 to 3.5"
//!   range — real Gnutella crawls were heavy-tailed and often disconnected.
//! * **Ping times**: log-normal, calibrated so that the §5.2 latency rule
//!   (`|ping_a − ping_b|`) yields a mean pair latency ≈ 50 ms, the paper's
//!   `t_hop`.
//! * **Speeds**: the modem/ISDN/broadband/LAN mix of 2000-era crawls.
//!
//! [`TraceGenerator::generate`] builds the whole topology;
//! [`TraceGenerator::pings`] makes the same per-record draws and keeps
//! only the ping times, for a caller that needs the ping distribution
//! and not the graph (the simulator's pool of joiner pings).

use std::net::Ipv4Addr;

use rand::seq::SliceRandom;
use rand::Rng;

use cs_sim::rng::standard_normal;
use cs_sim::SimRng;

use crate::edgeset::EdgeSet;
use crate::record::{NodeRecord, SpeedClass};
use crate::topology::Topology;

/// Configuration for the synthetic trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Target average degree of the raw (pre-augmentation) overlay. The
    /// paper's traces ranged from below 1 to 3.5.
    pub average_degree: f64,
    /// Median of the log-normal ping-time distribution, in milliseconds.
    pub ping_median_ms: f64,
    /// σ of the underlying normal (shape of the ping distribution).
    pub ping_sigma: f64,
    /// Fractions of [modem, isdn, broadband, lan] nodes; must sum to ≈ 1.
    pub speed_mix: [f64; 4],
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            nodes: 1000,
            average_degree: 3.0,
            // Calibrated so E|ping_a − ping_b| ≈ 50 ms: for a log-normal
            // with median 80 and σ 0.55 the mean absolute difference of two
            // independent draws lands close to the paper's t_hop ≈ 50 ms.
            ping_median_ms: 80.0,
            ping_sigma: 0.55,
            // Roughly the mix reported in Gnutella measurement studies of
            // the Clip2 era: broadband-heavy with a modem tail.
            speed_mix: [0.25, 0.10, 0.55, 0.10],
        }
    }
}

impl TraceGenConfig {
    /// A config of the given size with paper-calibrated defaults.
    pub fn with_nodes(nodes: usize) -> Self {
        TraceGenConfig {
            nodes,
            ..Default::default()
        }
    }
}

/// Deterministic generator for Clip2-style traces.
#[derive(Debug)]
pub struct TraceGenerator {
    config: TraceGenConfig,
    /// `ln(ping_median_ms)`, the log-normal's location: one value per
    /// generator, so it is computed once rather than per record.
    ln_median: f64,
}

impl TraceGenerator {
    /// A generator with the given configuration.
    ///
    /// # Panics
    /// If the configuration is degenerate (no nodes, non-positive ping
    /// parameters, or a speed mix that does not sum to ≈ 1).
    pub fn new(config: TraceGenConfig) -> Self {
        assert!(config.nodes > 0, "trace must contain at least one node");
        assert!(
            config.average_degree >= 0.0,
            "average degree cannot be negative"
        );
        assert!(
            config.ping_median_ms > 0.0 && config.ping_sigma > 0.0,
            "ping distribution parameters must be positive"
        );
        let mix_sum: f64 = config.speed_mix.iter().sum();
        assert!(
            (mix_sum - 1.0).abs() < 1e-6,
            "speed mix must sum to 1, got {mix_sum}"
        );
        let ln_median = config.ping_median_ms.ln();
        TraceGenerator { config, ln_median }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TraceGenConfig {
        &self.config
    }

    /// Generate a topology using the supplied RNG. Equal seeds produce
    /// identical traces.
    pub fn generate(&self, rng: &mut SimRng) -> Topology {
        let n = self.config.nodes;
        let records: Vec<NodeRecord> = (0..n).map(|i| self.gen_record(i as u32, rng)).collect();
        let mut topo = Topology::new(records).expect("generated IDs are sequential and unique");
        self.lay_edges(&mut topo, rng);
        topo
    }

    /// The ping times alone: the same per-record draws as
    /// [`Self::generate`] makes before its edge pass (speed class,
    /// jitter, address and port included, so `rng` ends where the
    /// record loop leaves it), keeping only each record's `ping_ms`.
    /// No record vector and no topology are built: the result is 8
    /// bytes per node, and `pings(rng)[i]` equals the `ping_ms` of
    /// `generate(rng).records()[i]` for an equal starting `rng`.
    pub fn pings(&self, rng: &mut SimRng) -> Vec<f64> {
        (0..self.config.nodes)
            .map(|i| self.gen_record(i as u32, rng).ping_ms)
            .collect()
    }

    /// One record's draws, in stream order: the ping, the speed class,
    /// the speed jitter, the address and the port. [`Self::generate`]
    /// and [`Self::pings`] both call it, so they cannot drift apart.
    fn gen_record(&self, id: u32, rng: &mut SimRng) -> NodeRecord {
        // Log-normal ping: exp(N(ln median, σ)).
        let z = standard_normal(rng);
        let ping_ms = (self.ln_median + self.config.ping_sigma * z).exp();

        let class = self.sample_speed_class(rng);
        // Jitter the advertised speed a little around the nominal value,
        // as real servents reported a spread of line speeds.
        let nominal = class.nominal_kbps() as f64;
        let speed_kbps = (nominal * rng.gen_range(0.8..1.2)).round().max(1.0) as u32;

        NodeRecord {
            id,
            ip: Ipv4Addr::from(rng.gen::<u32>() | 0x0a00_0000), // 10.x.y.z style
            port: rng.gen_range(1024..=u16::MAX),
            ping_ms,
            speed_kbps,
        }
    }

    fn sample_speed_class(&self, rng: &mut SimRng) -> SpeedClass {
        let u: f64 = rng.gen();
        let mix = &self.config.speed_mix;
        if u < mix[0] {
            SpeedClass::Modem
        } else if u < mix[0] + mix[1] {
            SpeedClass::Isdn
        } else if u < mix[0] + mix[1] + mix[2] {
            SpeedClass::Broadband
        } else {
            SpeedClass::Lan
        }
    }

    /// Preferential-attachment edge pass: target `avg_degree·n/2` edges,
    /// each connecting a uniform node to a degree-biased node. This yields
    /// the heavy-tailed, partially disconnected shape of real crawls.
    ///
    /// Membership checks go through a flat [`EdgeSet`] and the edges land
    /// in the topology in one bulk append at the end — the draw sequence
    /// and the resulting graph are identical to the incremental
    /// `add_edge` loop this replaced (pinned fingerprints verify it),
    /// but construction stays near-linear at 32k+ nodes instead of
    /// drowning in per-probe pointer chases.
    fn lay_edges(&self, topo: &mut Topology, rng: &mut SimRng) {
        let n = topo.len();
        if n < 2 {
            return;
        }
        let target_edges = (self.config.average_degree * n as f64 / 2.0).round() as usize;
        // Degree-biased sampling via a repeated-endpoint pool, the classic
        // Barabási–Albert trick: every time an edge lands, both endpoints
        // join the pool, so future picks favour high-degree nodes.
        let mut pool: Vec<usize> = (0..n).collect();
        pool.shuffle(rng);
        let mut seen = EdgeSet::with_capacity(target_edges);
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(target_edges);
        let mut attempts = 0;
        let max_attempts = target_edges * 20 + 100;
        while edges.len() < target_edges && attempts < max_attempts {
            attempts += 1;
            let a = rng.gen_range(0..n);
            let b = pool[rng.gen_range(0..pool.len())];
            if a == b {
                continue;
            }
            if seen.insert(a, b) {
                pool.push(a);
                pool.push(b);
                edges.push((a, b));
            }
        }
        topo.add_edges_bulk(&edges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;

    fn gen(nodes: usize, seed: u64) -> Topology {
        let mut rng = RngTree::new(seed).child("trace");
        TraceGenerator::new(TraceGenConfig::with_nodes(nodes)).generate(&mut rng)
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = gen(200, 9);
        let b = gen(200, 9);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.records()[17].ping_ms, b.records()[17].ping_ms);
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen(200, 9);
        let b = gen(200, 10);
        assert_ne!(a.edges(), b.edges());
    }

    #[test]
    fn hits_target_degree_approximately() {
        let topo = gen(2000, 3);
        let avg = topo.average_degree();
        assert!(
            (avg - 3.0).abs() < 0.25,
            "average degree {avg} should be ≈ 3.0"
        );
    }

    #[test]
    fn sparse_config_supported() {
        // The paper's sparsest traces had average degree below 1.
        let cfg = TraceGenConfig {
            nodes: 500,
            average_degree: 0.8,
            ..Default::default()
        };
        let mut rng = RngTree::new(1).child("sparse");
        let topo = TraceGenerator::new(cfg).generate(&mut rng);
        assert!(topo.average_degree() < 1.0);
        assert!(
            topo.largest_component() < topo.len(),
            "should be disconnected"
        );
    }

    #[test]
    fn ping_times_are_positive_and_plausible() {
        let topo = gen(1000, 4);
        let pings: Vec<f64> = topo.records().iter().map(|r| r.ping_ms).collect();
        assert!(pings.iter().all(|&p| p > 0.0));
        let mean = pings.iter().sum::<f64>() / pings.len() as f64;
        assert!(
            (40.0..200.0).contains(&mean),
            "mean ping {mean} ms out of plausible range"
        );
    }

    #[test]
    fn derived_pair_latency_near_50ms() {
        // The §5.2 rule: latency(a,b) = |ping_a − ping_b|. Our calibration
        // targets the paper's t_hop ≈ 50 ms on average.
        let topo = gen(2000, 5);
        let recs = topo.records();
        let mut sum = 0.0;
        let mut count = 0u64;
        for i in (0..recs.len()).step_by(7) {
            for j in (i + 1..recs.len()).step_by(13) {
                sum += (recs[i].ping_ms - recs[j].ping_ms).abs();
                count += 1;
            }
        }
        let mean = sum / count as f64;
        assert!(
            (35.0..65.0).contains(&mean),
            "mean derived latency {mean} ms should be ≈ 50 ms"
        );
    }

    #[test]
    fn speed_mix_roughly_respected() {
        let topo = gen(4000, 6);
        let broadband = topo
            .records()
            .iter()
            .filter(|r| r.speed_class() == SpeedClass::Broadband)
            .count() as f64
            / topo.len() as f64;
        assert!(
            (0.45..0.65).contains(&broadband),
            "broadband fraction {broadband} should be ≈ 0.55"
        );
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let topo = gen(2000, 7);
        let max_deg = (0..topo.len()).map(|i| topo.degree(i)).max().unwrap();
        let avg = topo.average_degree();
        assert!(
            max_deg as f64 > 4.0 * avg,
            "preferential attachment should create hubs: max {max_deg}, avg {avg}"
        );
    }

    /// The record loop `generate` ran before `pings` existed, with
    /// `ln(median)` taken inside the loop: the bit-for-bit oracle for
    /// the pool the simulator draws for its joiners.
    fn reference_pings(config: &TraceGenConfig, rng: &mut SimRng) -> Vec<f64> {
        (0..config.nodes)
            .map(|_| {
                let z = standard_normal(rng);
                let ping_ms = (config.ping_median_ms.ln() + config.ping_sigma * z).exp();
                // The speed class, the jitter, the address and the port.
                let _class: f64 = rng.gen();
                let _jitter: f64 = rng.gen_range(0.8..1.2);
                let _ip = rng.gen::<u32>();
                let _port = rng.gen_range(1024..=u16::MAX);
                ping_ms
            })
            .collect()
    }

    #[test]
    fn pings_match_the_record_loop_bit_for_bit() {
        let configs = [
            TraceGenConfig::default(),
            TraceGenConfig {
                ping_median_ms: 37.5,
                ping_sigma: 1.3,
                speed_mix: [0.7, 0.1, 0.1, 0.1],
                ..Default::default()
            },
            TraceGenConfig {
                ping_median_ms: 250.0,
                ping_sigma: 0.05,
                speed_mix: [0.0, 0.0, 0.0, 1.0],
                ..Default::default()
            },
        ];
        for (c, base) in configs.iter().enumerate() {
            for nodes in [1, 2, 16, 1000, 10_016] {
                for seed in [0u64, 7, 20080414] {
                    let config = TraceGenConfig {
                        nodes,
                        ..base.clone()
                    };
                    let tree = RngTree::new(seed);
                    let mut rng = tree.child("joiner-pings");
                    let mut oracle_rng = tree.child("joiner-pings");
                    let got = TraceGenerator::new(config.clone()).pings(&mut rng);
                    let want = reference_pings(&config, &mut oracle_rng);
                    assert_eq!(got.len(), nodes);
                    let got_bits: Vec<u64> = got.iter().map(|p| p.to_bits()).collect();
                    let want_bits: Vec<u64> = want.iter().map(|p| p.to_bits()).collect();
                    assert!(
                        got_bits == want_bits,
                        "config {c}, {nodes} nodes, seed {seed}: pings differ"
                    );
                    assert_eq!(
                        rng, oracle_rng,
                        "config {c}, {nodes} nodes, seed {seed}: the stream ends elsewhere"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = TraceGenerator::new(TraceGenConfig {
            nodes: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_panics() {
        let _ = TraceGenerator::new(TraceGenConfig {
            speed_mix: [0.5, 0.5, 0.5, 0.5],
            ..Default::default()
        });
    }
}
