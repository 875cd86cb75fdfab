//! Algorithm 2: on-demand data retrieval over the DHT (§4.3).
//!
//! For each predicted-missed segment `D_i` the node routes `k` parallel
//! lookups to the replica positions `hash(D_i·i) % N`; each lookup lands
//! at the counter-clockwise closest node, which replies whether it holds
//! the segment in its VoD Data Backup and what its available sending rate
//! is. The requester picks the highest-rate holder and downloads the
//! segment directly (UDP). Per §4.3, a backup node may simply not have
//! received the segment yet (`P_fail ≈ ½` per replica), so the whole
//! retrieval fails with probability ≈ `(½)^k`.
//!
//! Costs are accounted exactly as §5.3 describes: one routing message per
//! forwarding hop, one reply per located backup node, one request to the
//! chosen supplier, plus the segment payload.

use cs_dht::{backup_target, walk_into, DhtId, DhtNetwork};

use crate::SegmentId;

/// The result of one segment's on-demand retrieval attempt: a plain
/// `Copy` summary (the located nodes stay in the [`RetrievalScratch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalSummary {
    /// The segment that was requested.
    pub segment: SegmentId,
    /// The chosen backup supplier, if any replica both held the segment
    /// and had sending capacity.
    pub supplier: Option<DhtId>,
    /// Total DHT routing messages spent (forwarding hops + replies +
    /// the final request if a supplier was chosen).
    pub routing_messages: u32,
    /// Time until the segment is fully received, in milliseconds:
    /// `t_locate + t_reply + t_request + t_retrieve` (eq. 6). `None` when
    /// retrieval failed.
    pub fetch_latency_ms: Option<f64>,
}

/// Reusable working memory for [`retrieve_one_into`]: the path buffer
/// shared by the `k` lookups, plus the deduplicated list of located
/// terminal nodes (left populated for the caller's overhearing
/// accounting). Carries capacity only between calls.
#[derive(Debug, Default)]
pub struct RetrievalScratch {
    path: Vec<DhtId>,
    /// Every node where a lookup terminated (one per replica position,
    /// deduplicated) during the most recent call.
    pub located: Vec<DhtId>,
}

/// Run Algorithm 2 for one missed segment. Allocation-free once the
/// scratch has warmed; the located nodes are left in `scratch.located`
/// for the caller's overhearing accounting.
///
/// * `net` — the DHT (mutated: lazy repair and overhearing);
/// * `requester` — the node needing the segment;
/// * `latency_ms` — pairwise latency oracle;
/// * `has_backup` — whether a node currently holds the segment in its
///   VoD store;
/// * `available_rate` — a node's available sending rate in segments/s
///   (0 = saturated, cannot serve);
/// * `k` — replicas per segment;
/// * `transfer_ms` — payload transfer time once granted (size/rate).
#[allow(clippy::too_many_arguments)]
pub fn retrieve_one_into(
    net: &mut DhtNetwork,
    requester: DhtId,
    segment: SegmentId,
    latency_ms: &impl Fn(DhtId, DhtId) -> f64,
    has_backup: &impl Fn(DhtId, SegmentId) -> bool,
    available_rate: &impl Fn(DhtId) -> f64,
    k: u32,
    transfer_ms: f64,
    scratch: &mut RetrievalScratch,
) -> RetrievalSummary {
    scratch.located.clear();
    let mut routing_messages = 0u32;
    let mut locate_latency: f64 = 0.0;

    // "send k routing messages targeted at k nodes in parallel"
    for i in 1..=k {
        let target = backup_target(net.space(), segment, i);
        // Where the lookup ended is what counts: the terminal node
        // answers for its own backup, so the route's verdict against the
        // ring's true owner is never computed.
        let route_ms = walk_into(net, requester, target, latency_ms, true, &mut scratch.path)
            .map_or(0.0, |(ms, _)| ms);
        let hops = scratch.path.len().saturating_sub(1) as u32;
        routing_messages += hops;
        // Lookups run in parallel: locate time is the slowest route plus
        // its reply back to the requester.
        let terminal = *scratch.path.last().expect("path contains the source");
        let reply = latency_ms(terminal, requester);
        locate_latency = locate_latency.max(route_ms + reply);
        routing_messages += 1; // the reply message
        if !scratch.located.contains(&terminal) {
            scratch.located.push(terminal);
        }
    }

    // "select the node with the highest available sending rate".
    let mut best: Option<(f64, DhtId)> = None;
    for &n in &scratch.located {
        if n == requester || !has_backup(n, segment) {
            continue;
        }
        let rate = available_rate(n);
        if rate <= 0.0 {
            continue;
        }
        let better = match best {
            None => true,
            Some((r, id)) => rate > r || (rate == r && n < id),
        };
        if better {
            best = Some((rate, n));
        }
    }

    match best {
        Some((_, supplier)) => {
            routing_messages += 1; // the request message
            let request = latency_ms(requester, supplier);
            let retrieve = latency_ms(supplier, requester) + transfer_ms;
            RetrievalSummary {
                segment,
                supplier: Some(supplier),
                routing_messages,
                fetch_latency_ms: Some(locate_latency + request + retrieve),
            }
        }
        None => RetrievalSummary {
            segment,
            supplier: None,
            routing_messages,
            fetch_latency_ms: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_dht::IdSpace;
    use cs_sim::RngTree;
    use rand::Rng;
    use std::collections::HashSet;

    fn flat(_: DhtId, _: DhtId) -> f64 {
        10.0
    }

    fn build(n: usize, bits: u32, seed: u64) -> DhtNetwork {
        let mut rng = RngTree::new(seed).child("retr");
        let space = IdSpace::new(bits);
        let mut used = HashSet::new();
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = rng.gen_range(0..space.size());
            if used.insert(id) {
                ids.push(id);
            }
        }
        DhtNetwork::build(space, &ids, &flat, &mut rng)
    }

    #[test]
    fn fetches_from_backup_holder() {
        let mut net = build(300, 12, 1);
        let mut scratch = RetrievalScratch::default();
        let mut rng = RngTree::new(1).child("pick");
        let requester = net.random_id(&mut rng).unwrap();
        let seg: SegmentId = 777;
        // Everyone holds every backup: retrieval must succeed.
        let out = retrieve_one_into(
            &mut net,
            requester,
            seg,
            &flat,
            &|_, _| true,
            &|_| 5.0,
            4,
            30.0,
            &mut scratch,
        );
        assert!(out.supplier.is_some());
        assert!(!scratch.located.is_empty());
        assert!(out.routing_messages > 0);
        let lat = out.fetch_latency_ms.unwrap();
        assert!(lat > 0.0, "latency {lat}");
    }

    #[test]
    fn fails_when_no_replica_has_data() {
        let mut net = build(300, 12, 2);
        let mut scratch = RetrievalScratch::default();
        let mut rng = RngTree::new(2).child("pick");
        let requester = net.random_id(&mut rng).unwrap();
        let out = retrieve_one_into(
            &mut net,
            requester,
            777,
            &flat,
            &|_, _| false,
            &|_| 5.0,
            4,
            30.0,
            &mut scratch,
        );
        assert!(out.supplier.is_none());
        assert!(out.fetch_latency_ms.is_none());
        // Still paid for the lookups and replies.
        assert!(out.routing_messages >= 4);
    }

    #[test]
    fn fails_when_holders_are_saturated() {
        let mut net = build(300, 12, 3);
        let mut scratch = RetrievalScratch::default();
        let mut rng = RngTree::new(3).child("pick");
        let requester = net.random_id(&mut rng).unwrap();
        let out = retrieve_one_into(
            &mut net,
            requester,
            777,
            &flat,
            &|_, _| true,
            &|_| 0.0,
            4,
            30.0,
            &mut scratch,
        );
        assert!(out.supplier.is_none());
    }

    #[test]
    fn picks_highest_rate_holder() {
        let mut net = build(400, 12, 4);
        let mut scratch = RetrievalScratch::default();
        let mut rng = RngTree::new(4).child("pick");
        let requester = net.random_id(&mut rng).unwrap();
        let seg = 12345;
        // Rate = node id modulo: deterministic, distinct-ish.
        let rate = |n: DhtId| (n % 97) as f64 + 1.0;
        let out = retrieve_one_into(
            &mut net,
            requester,
            seg,
            &flat,
            &|_, _| true,
            &rate,
            4,
            30.0,
            &mut scratch,
        );
        let sup = out.supplier.unwrap();
        for &cand in &scratch.located {
            if cand != requester {
                assert!(
                    rate(sup) >= rate(cand),
                    "supplier {sup} (rate {}) beaten by {cand} (rate {})",
                    rate(sup),
                    rate(cand)
                );
            }
        }
    }

    #[test]
    fn routing_message_count_is_near_paper_estimate() {
        // §5.3: about k·(log₂(n)/2 + 1) + 1 messages per pre-fetch.
        let mut net = build(1000, 13, 5);
        let mut scratch = RetrievalScratch::default();
        let mut rng = RngTree::new(5).child("pick");
        let mut total = 0u32;
        let trials = 100;
        for t in 0..trials {
            let requester = net.random_id(&mut rng).unwrap();
            let out = retrieve_one_into(
                &mut net,
                requester,
                1000 + t as u64,
                &flat,
                &|_, _| true,
                &|_| 5.0,
                4,
                30.0,
                &mut scratch,
            );
            total += out.routing_messages;
        }
        let avg = total as f64 / trials as f64;
        let paper = 4.0 * ((1000.0f64).log2() / 2.0 + 1.0) + 1.0; // ≈ 24.9
        assert!(
            (avg - paper).abs() < 8.0,
            "avg routing messages {avg} should be near {paper}"
        );
    }

    #[test]
    fn requester_never_chosen_as_supplier() {
        // Tiny ring: the requester often is a replica holder itself.
        let mut net = build(4, 6, 6);
        let mut scratch = RetrievalScratch::default();
        let ids: Vec<DhtId> = net.ids().collect();
        for seg in 1..60u64 {
            let out = retrieve_one_into(
                &mut net,
                ids[0],
                seg,
                &flat,
                &|_, _| true,
                &|_| 5.0,
                4,
                30.0,
                &mut scratch,
            );
            assert_ne!(out.supplier, Some(ids[0]));
        }
    }

    #[test]
    fn fetch_latency_close_to_eq7_shape() {
        // With flat 10 ms hops and ~log₂(n)/2 route hops, the fetch time
        // should be in the (log₂(n)/2 + 3)·t_hop ballpark.
        let mut net = build(1000, 13, 7);
        let mut scratch = RetrievalScratch::default();
        let mut rng = RngTree::new(7).child("pick");
        let mut total = 0.0;
        let mut count = 0;
        for t in 0..100 {
            let requester = net.random_id(&mut rng).unwrap();
            let out = retrieve_one_into(
                &mut net,
                requester,
                5000 + t,
                &flat,
                &|_, _| true,
                &|_| 5.0,
                4,
                0.0, // exclude transfer so only hop latency is measured
                &mut scratch,
            );
            if let Some(l) = out.fetch_latency_ms {
                total += l;
                count += 1;
            }
        }
        let avg = total / count as f64;
        let paper = ((1000.0f64).log2() / 2.0 + 3.0) * 10.0; // ≈ 80 ms
        assert!(
            (avg - paper).abs() < 40.0,
            "avg fetch latency {avg} ms should be near {paper} ms"
        );
    }
}
