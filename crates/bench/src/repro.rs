//! The reproduction scorecard: every claim of the paper this tree
//! tests, as one table.
//!
//! A [`Row`] is one sentence of the paper turned into a predicate: what
//! to measure ([`Measure`] — full-system runs reduced by an extractor,
//! or a direct measurement on the DHT), the bound it must satisfy
//! ([`Claim`], tolerance included, theory values computed from
//! `cs-analysis` rather than pasted), and whether the tree is known to
//! meet it ([`Status`]). [`evaluate`] runs each *distinct* configuration
//! once per seed and reduces every row to its median, worst seed and
//! "meets in k of n"; [`Record::mismatches`] names every row whose
//! status disagrees with what was measured, in either direction, so an
//! `Open` row that starts to hold must be promoted. An undefined
//! measurement (a dead swarm, a tail without data traffic, a non-finite
//! value) is `None`: a failing seed, written `null`, never a `0.0` that
//! satisfies an upper bound.
//!
//! [`table`] is the committed scorecard; `REPRODUCTION.md` and
//! `REPRODUCTION.json` at the repository root are its output at
//! [`Horizon::paper`], regenerated and diffed by CI.

use std::fmt;

use continustreaming::scenario::mean_continuity_gate;
use continustreaming::scenario::metrics::json_string;
use cs_analysis::{
    expected_routing_hops, prefetch_success_probability, routing_hop_upper_bound, ContinuityModel,
};
use cs_core::{
    stable_tail_start, PriorityPolicy, RoundRecord, RunReport, SchedulerKind, SystemConfig,
};
use cs_dht::placement::{backup_targets, backup_targets_additive};
use cs_dht::{route, IdSpace};
use cs_net::{BandwidthProfile, MessageSizes, OverheadReport, TrafficCounter};
use cs_sim::RngTree;
use rand::Rng as _;

use crate::fingerprint::dht::{build_net, latency};
use crate::{f4, print_table};

/// Whether the tree is known to meet a row's claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The claim is reproduced; failing it is a regression.
    Held,
    /// Not reproduced yet; meeting it means the row must be promoted.
    Open,
}

/// The paper's claim about a measured value, tolerance included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Claim {
    /// `lo ≤ v ≤ hi`.
    Between(f64, f64),
    /// `v ≥ bound`.
    AtLeast(f64),
    /// `v ≤ bound`.
    AtMost(f64),
}
use Claim::{AtLeast, AtMost, Between};

impl Claim {
    /// Distance of `v` to the nearest bound: positive inside the claim,
    /// negative outside. Orders seeds from worst to best.
    fn margin(&self, v: f64) -> f64 {
        match *self {
            Between(lo, hi) => (v - lo).min(hi - v),
            AtLeast(bound) => v - bound,
            AtMost(bound) => bound - v,
        }
    }

    /// Whether `v` satisfies the claim.
    pub fn holds(&self, v: f64) -> bool {
        self.margin(v) >= 0.0
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Table precision without trailing zeros: `0.02`, `26`.
        let b = |x| {
            f4(x)
                .trim_end_matches('0')
                .trim_end_matches('.')
                .to_string()
        };
        match *self {
            Between(lo, hi) => write!(f, "in [{}, {}]", b(lo), b(hi)),
            AtLeast(bound) => write!(f, "≥ {}", b(bound)),
            AtMost(bound) => write!(f, "≤ {}", b(bound)),
        }
    }
}

/// Reduces the reports of a row's configurations (in the row's order)
/// to the claimed quantity; `None` when it is undefined for this seed.
pub type Extract = fn(&[&RunReport]) -> Option<f64>;

/// How a row's value is obtained for one seed.
pub enum Measure {
    /// Full-system runs. The engine overwrites `rounds` and `seed`, so
    /// rows naming an equal configuration share one run.
    Runs(Vec<SystemConfig>, Extract),
    /// A measurement that needs no simulator run, given the seed.
    Direct(Box<dyn Fn(u64) -> Option<f64>>),
}
use Measure::{Direct, Runs};

/// One claim of the paper.
pub struct Row {
    /// Unique, stable name, `artefact/…` (`fig9/m4/n1000`).
    pub id: String,
    /// The sentence being tested, tolerance included.
    pub paper: String,
    /// What is measured.
    pub measure: Measure,
    /// What the paper says about it.
    pub claim: Claim,
    /// Whether the tree is known to meet it.
    pub status: Status,
}

impl Row {
    /// The table or figure the claim comes from: the id's first part.
    pub fn artefact(&self) -> &str {
        self.id
            .split_once('/')
            .map_or(&self.id, |(artefact, _)| artefact)
    }
}

/// How long and how often every row runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Horizon {
    /// Rounds per run.
    pub rounds: u32,
    /// One population member per seed.
    pub seeds: Vec<u64>,
}

impl Horizon {
    /// The paper's horizon — 200 rounds, past the round-~150 cliff —
    /// over the eight consecutive seeds from the default one, unvetted.
    pub fn paper() -> Self {
        let first = SystemConfig::default().seed;
        Horizon {
            rounds: 200,
            seeds: (first..first + 8).collect(),
        }
    }
}

/// A row's measurements over the horizon's seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The value per seed, in seed order; `None` is undefined.
    pub values: Vec<Option<f64>>,
    /// Median of the defined values; `None` when no seed defined one.
    pub median: Option<f64>,
    /// Index of the seed furthest from meeting the claim (an undefined
    /// seed is furthest of all; ties go to the earliest).
    pub worst: usize,
    /// Seeds whose value is defined and satisfies the claim.
    pub meets: usize,
}

impl Outcome {
    fn new(claim: &Claim, values: Vec<Option<f64>>) -> Self {
        let margin = |i: &usize| values[*i].map_or(f64::NEG_INFINITY, |v| claim.margin(v));
        let worst = (0..values.len()).min_by(|a, b| margin(a).total_cmp(&margin(b)));
        let mut defined: Vec<f64> = values.iter().flatten().copied().collect();
        defined.sort_by(f64::total_cmp);
        let n = defined.len();
        let median = (n > 0).then(|| (defined[(n - 1) / 2] + defined[n / 2]) / 2.0);
        Outcome {
            meets: defined.iter().filter(|&&v| claim.holds(v)).count(),
            worst: worst.expect("a horizon has at least one seed"),
            median,
            values,
        }
    }

    /// A row meets its claim when at most one seed in eight misses it.
    pub fn meets_claim(&self) -> bool {
        (self.values.len() - self.meets) * 8 <= self.values.len()
    }
}

/// One evaluation of a table.
pub struct Record<'a> {
    /// The horizon it ran at.
    pub horizon: Horizon,
    /// Distinct configurations run per seed.
    pub distinct_configs: usize,
    /// Every row with what it measured.
    pub rows: Vec<(&'a Row, Outcome)>,
}

/// Evaluate `rows` at `horizon`. Every distinct configuration runs once
/// per seed, all through a single call to `run` ([`crate::run_many`] in
/// the bin; tests wrap it to count).
pub fn evaluate<'a>(
    rows: &'a [Row],
    horizon: &Horizon,
    run: impl FnOnce(Vec<SystemConfig>) -> Vec<RunReport>,
) -> Record<'a> {
    let normal = |c: &SystemConfig, seed| SystemConfig {
        rounds: horizon.rounds,
        seed,
        ..c.clone()
    };
    let mut distinct: Vec<SystemConfig> = Vec::new();
    let mut slot = |c| {
        let c = normal(c, 0);
        distinct.iter().position(|d| *d == c).unwrap_or_else(|| {
            distinct.push(c);
            distinct.len() - 1
        })
    };
    let slots: Vec<Vec<usize>> = rows
        .iter()
        .map(|row| match &row.measure {
            Runs(configs, _) => configs.iter().map(&mut slot).collect(),
            Direct(_) => Vec::new(),
        })
        .collect();
    let seeded = |&seed| distinct.iter().map(move |c| normal(c, seed));
    let reports = run(horizon.seeds.iter().flat_map(seeded).collect());

    let outcome = |(row, slots): (&'a Row, &Vec<usize>)| {
        let value = |(s, &seed): (usize, &u64)| {
            let at = |&slot| &reports[s * distinct.len() + slot];
            let v = match &row.measure {
                Runs(_, extract) => extract(&slots.iter().map(at).collect::<Vec<_>>()),
                Direct(measure) => measure(seed),
            };
            v.filter(|v| v.is_finite())
        };
        let values = horizon.seeds.iter().enumerate().map(value).collect();
        (row, Outcome::new(&row.claim, values))
    };
    Record {
        horizon: horizon.clone(),
        distinct_configs: distinct.len(),
        rows: rows.iter().zip(&slots).map(outcome).collect(),
    }
}

/// A measurement at the record's fixed precision; undefined or
/// non-finite is `null`.
fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.6}"),
        _ => "null".to_string(),
    }
}

impl Record<'_> {
    /// How many rows are `Held`, and how many `Open`.
    fn tally(&self) -> (usize, usize) {
        let held = self.rows.iter().filter(|(r, _)| r.status == Status::Held);
        let held = held.count();
        (held, self.rows.len() - held)
    }

    /// One line per row whose status disagrees with what it measured.
    pub fn mismatches(&self) -> Vec<String> {
        let line = |(row, o): &(&Row, Outcome)| {
            let advice = match (row.status, o.meets_claim()) {
                (Status::Held, false) => "a regression, or mark it Open",
                (Status::Open, true) => "promote it to Held",
                _ => return None,
            };
            Some(format!(
                "row `{}` is {:?} but met its claim ({}) on {} of {} seeds: {advice}",
                row.id,
                row.status,
                row.claim,
                o.meets,
                o.values.len()
            ))
        };
        self.rows.iter().filter_map(line).collect()
    }

    /// The record as deterministic JSON: fixed field order and float
    /// formatting, no wall-clock, host or commit — two generations diff
    /// byte for byte.
    pub fn to_json(&self) -> String {
        let seeds: Vec<String> = self.horizon.seeds.iter().map(u64::to_string).collect();
        let (held, open) = self.tally();
        let mut out = format!(
            "{{\n  \"rounds\": {},\n  \"seeds\": [{}],\n  \"distinct_configs\": {},\n  \
             \"held\": {held},\n  \"open\": {open},\n  \"rows\": [\n",
            self.horizon.rounds,
            seeds.join(", "),
            self.distinct_configs,
        );
        for (i, (row, o)) in self.rows.iter().enumerate() {
            let values: Vec<String> = o.values.iter().map(|&v| json_opt(v)).collect();
            out.push_str(&format!(
                "    {{\"id\": {}, \"artefact\": {}, \"paper\": {}, \"claim\": {}, \
                 \"status\": \"{:?}\", \"median\": {}, \"worst\": {}, \"worst_seed\": {}, \
                 \"meets\": {}, \"values\": [{}]}}{}\n",
                json_string(&row.id),
                json_string(row.artefact()),
                json_string(&row.paper),
                json_string(&row.claim.to_string()),
                row.status,
                json_opt(o.median),
                json_opt(o.values[o.worst]),
                self.horizon.seeds[o.worst],
                o.meets,
                values.join(", "),
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Print the scorecard as markdown: the rules, then one table per
    /// artefact in table order.
    pub fn print_markdown(&self) {
        let (held, open) = self.tally();
        let h = &self.horizon;
        let n = h.seeds.len();
        println!(
            "# Reproduction scorecard\n\n\
             Written by `cargo run --release -p cs-bench --bin repro -- --json \
             REPRODUCTION.json > REPRODUCTION.md` and diffed by CI: edit \
             `crates/bench/src/repro.rs`, not this file.\n\n\
             {} claims of the paper, each with its tolerance, measured on the default \
             `SystemConfig` (the row's own parameter aside) at {} rounds over the unvetted seeds \
             {}–{}: {} distinct configurations × {n} seeds. **{held} rows are held, {open} are \
             open.**\n\n\
             A row meets its claim when at most one seed in eight misses it. *median* is over \
             the seeds where the value is defined and *worst* is the seed furthest from the \
             claim. `null` is an undefined measurement — no playing node in the stable phase \
             (the last third of the run), an overhead with no gossip data under it, a rate with \
             nothing attempted — and counts as a miss. \"Strictly more\" between two measured \
             values means by the table's precision: {STRICT_PC} on continuity, {STRICT_OH} on \
             overhead. `repro` exits 1 when a `Held` row misses its claim or an `Open` row meets \
             it; no tolerance is widened to close a row.",
            self.rows.len(),
            h.rounds,
            h.seeds[0],
            h.seeds[n - 1],
            self.distinct_configs,
        );
        let header = [
            "row",
            "claim",
            "median",
            "worst seed",
            "meets",
            "status",
            "paper says",
        ];
        for group in self.rows.chunk_by(|a, b| a.0.artefact() == b.0.artefact()) {
            let shown = |v: Option<f64>| v.map_or("null".into(), f4);
            let cells = |(row, o): &(&Row, Outcome)| {
                vec![
                    format!("`{}`", row.id),
                    row.claim.to_string(),
                    shown(o.median),
                    format!("{} @{}", shown(o.values[o.worst]), h.seeds[o.worst]),
                    format!("{} / {n}", o.meets),
                    format!("{:?}", row.status),
                    row.paper.clone(),
                ]
            };
            let cells: Vec<_> = group.iter().map(cells).collect();
            print_table(group[0].0.artefact(), &header, &cells);
        }
    }
}

// ---- what is measured --------------------------------------------------

/// Stable-phase continuity, undefined on the condition the CI gate
/// fails closed on (no playing node in the stable tail).
fn pc(r: &RunReport) -> Option<f64> {
    mean_continuity_gate(r).ok()?;
    Some(r.summary.stable_continuity)
}

/// `PC` of the first report minus `PC` of the second.
fn pc_diff(r: &[&RunReport]) -> Option<f64> {
    Some(pc(r[0])? - pc(r[1])?)
}

/// Overheads over the stable tail. `RunSummary` maps a tail without
/// gossip data to `0.0`; this keeps it undefined.
fn stable_overheads(r: &RunReport) -> OverheadReport {
    let mut tail = TrafficCounter::new();
    for round in &r.rounds[stable_tail_start(r.rounds.len())..] {
        tail.merge(&round.traffic);
    }
    tail.report()
}

fn control_overhead(r: &RunReport) -> Option<f64> {
    stable_overheads(r).control_overhead
}

fn prefetch_overhead(r: &RunReport) -> Option<f64> {
    stable_overheads(r).prefetch_overhead
}

/// Smallest step of `metric` between consecutive configurations of a
/// row — `≥ 0` means it never falls; undefined if any value is.
fn min_step(r: &[&RunReport], metric: fn(&RunReport) -> Option<f64>) -> Option<f64> {
    let v: Vec<f64> = r.iter().map(|r| metric(r)).collect::<Option<_>>()?;
    v.windows(2).map(|w| w[1] - w[0]).reduce(f64::min)
}

/// Run total of a per-round event count; undefined on a dead swarm.
fn total(r: &RunReport, event: fn(&RoundRecord) -> u32) -> Option<f64> {
    pc(r)?;
    Some(f64::from(r.rounds.iter().map(event).sum::<u32>()))
}

/// ID-space bits of the fig 3 experiment (`N = 8192`).
const FIG3_BITS: u32 = 13;

struct Routing {
    avg_hops: f64,
    max_hops: f64,
    success: f64,
}

/// 2000 lookups from random sources to random keys over `n` random ids.
fn routing(n: usize, seed: u64) -> Routing {
    const LOOKUPS: u32 = 2000;
    let mut net = build_net(n, FIG3_BITS, seed);
    let mut rng = RngTree::new(seed).child("repro-fig3-lookups");
    let (mut hops, mut max_hops, mut successes) = (0, 0, 0);
    for _ in 0..LOOKUPS {
        let src = net.random_id(&mut rng).expect("network is non-empty");
        let key = rng.gen_range(0..net.space().size());
        let out = route(&mut net, src, key, &latency, true);
        hops += out.hops();
        max_hops = max_hops.max(out.hops());
        successes += u32::from(out.succeeded());
    }
    Routing {
        avg_hops: f64::from(hops) / f64::from(LOOKUPS),
        max_hops: f64::from(max_hops),
        success: f64::from(successes) / f64::from(LOOKUPS),
    }
}

/// Jain's fairness index (1.0 = perfectly balanced) of the replica
/// positions of one buffer's worth of consecutive segments (`B`, k = 4)
/// over 256 equal ring arcs.
fn placement_jain(targets: fn(IdSpace, u64, u32) -> Vec<u64>) -> f64 {
    const ARCS: usize = 256;
    let space = IdSpace::new(FIG3_BITS);
    let mut counts = [0.0f64; ARCS];
    for segment in 1..=SystemConfig::BUFFER_SEGMENTS {
        for pos in targets(space, segment, 4) {
            counts[pos as usize * ARCS / space.size() as usize] += 1.0;
        }
    }
    let sum: f64 = counts.iter().sum();
    let sum_sq: f64 = counts.iter().map(|c| c * c).sum();
    sum * sum / (ARCS as f64 * sum_sq)
}

// ---- the table ---------------------------------------------------------

/// Ids of the rows of [`table`] the tree does not meet yet, one family
/// per line. A row not listed here is `Held`.
const OPEN: &str = "
    §5.1/hom-static/pc_old §5.1/hom-static/pc_new §5.1/hom-static/delta
    §5.1/hom-dynamic/pc_old §5.1/hom-dynamic/pc_new §5.1/hom-dynamic/delta
    §5.1/het-static/pc_old §5.1/het-static/pc_new §5.1/het-static/delta
    §5.1/het-dynamic/pc_old §5.1/het-dynamic/pc_new §5.1/het-dynamic/delta
    fig5/cool/level fig5/cool/stabilises fig5/continu/level fig5/continu/stabilises
    fig6/cool/level fig6/cool/stabilises fig6/continu/level fig6/continu/stabilises
    fig7/delta_grows fig8/delta_grows
    fig8/n200/new_above_old fig8/n500/new_above_old fig8/n1000/new_above_old
    fig8/n2000/new_above_old
    fig8/n500/cool_not_above_static fig8/n1000/cool_not_above_static
    fig8/n2000/cool_not_above_static
    fig9/m4/n2000 fig9/m5/n1000 fig9/m5/n2000
    fig10/static/level fig10/dynamic/level
    fig11/n100/dynamic fig11/n200/dynamic fig11/n500/dynamic
    fig11/n500/dynamic_not_below_static fig11/n1000/dynamic_not_below_static
    fig11/n2000/dynamic_not_below_static
    fig3/n500/success fig3/n1000/success fig3/n2000/success fig3/n3000/success
    fig3/n4000/success fig3/n5000/success fig3/n6000/success
    ablation-k/k1/success_rate ablation-k/k2/success_rate ablation-k/k3/success_rate
    ablation-k/k4/success_rate ablation-k/k5/success_rate ablation-k/k6/success_rate
    ablation-k/continuity_rises ablation-M/m8_vs_m5 ablation-M/control_overhead_rises
    ablation-priority/vs_urgency_rarity ablation-priority/vs_urgency_only
    ablation-priority/vs_rarity_only ablation-priority/vs_rarest_first
    ablation-priority/vs_random ablation-α/overdue_falls
";

/// Margin that stands for "strictly more" between two continuities /
/// two overheads: one unit of the precision the table prints.
const STRICT_PC: f64 = 0.001;
const STRICT_OH: f64 = 0.0001;

/// The overlay sizes of figs 7–11. The paper goes on to 8000; the 4k
/// and 8k rows wait for a swarm worth running there (see ROADMAP).
const SIZES: [usize; 5] = [100, 200, 500, 1000, 2000];
const ENVS: [(&str, bool); 2] = [("static", false), ("dynamic", true)];

fn cool(nodes: usize) -> SystemConfig {
    SystemConfig::coolstreaming(nodes, 0)
}

fn continu(nodes: usize) -> SystemConfig {
    SystemConfig::continustreaming(nodes, 0)
}

fn env(config: SystemConfig, dynamic: bool) -> SystemConfig {
    if dynamic {
        config.with_dynamic_churn()
    } else {
        config
    }
}

fn row(id: String, paper: impl Into<String>, measure: Measure, claim: Claim) -> Row {
    let (paper, open) = (paper.into(), OPEN.split_whitespace().any(|o| o == id));
    let status = if open { Status::Open } else { Status::Held };
    Row {
        id,
        paper,
        measure,
        claim,
        status,
    }
}

fn section_5_1(rows: &mut Vec<Row>) {
    let lo = ContinuityModel::paper_defaults(14.0).predict();
    let hi = ContinuityModel::paper_defaults(15.0).predict();
    for (bw, bandwidth) in [
        ("hom", BandwidthProfile::Homogeneous),
        ("het", BandwidthProfile::Heterogeneous),
    ] {
        for (env_name, dynamic) in ENVS {
            let with = |c: SystemConfig| env(SystemConfig { bandwidth, ..c }, dynamic);
            let (old, new) = (with(cool(1000)), with(continu(1000)));
            let id = |what| format!("§5.1/{bw}-{env_name}/{what}");
            rows.push(row(
                id("pc_old"),
                "PC_old lies between the theory rows: PC_old(λ = 14) − 0.07 to PC_old(λ = 15) + 0.04",
                Runs(vec![old.clone()], |r| pc(r[0])),
                Between(lo.pc_old - 0.07, hi.pc_old + 0.04),
            ));
            rows.push(row(
                id("pc_new"),
                "PC_new ≥ 0.97, the level of fig 5 (theory: 0.997 and up)",
                Runs(vec![new.clone()], |r| pc(r[0])),
                AtLeast(0.97),
            ));
            rows.push(row(
                id("delta"),
                "Δ = PC_new − PC_old in [0.05, 0.25] (theory: 0.117 at λ = 15, 0.173 at λ = 14)",
                Runs(vec![new, old], pc_diff),
                Between(0.05, 0.25),
            ));
        }
    }
}

fn figs_5_6(rows: &mut Vec<Row>) {
    for (fig, dynamic, cool_says, continu_says) in [
        ("fig5", false, (0.83, 26.0), (0.97, 18.0)),
        ("fig6", true, (0.78, 27.0), (0.95, 20.0)),
    ] {
        for (system, base, (level, secs)) in [
            ("cool", cool as fn(usize) -> _, cool_says),
            ("continu", continu, continu_says),
        ] {
            let config = env(base(1000), dynamic);
            rows.push(row(
                format!("{fig}/{system}/level"),
                format!("n = 1000: stable continuity ≈ {level} (± 0.05)"),
                Runs(vec![config.clone()], |r| pc(r[0])),
                Between(level - 0.05, level + 0.05),
            ));
            rows.push(row(
                format!("{fig}/{system}/stabilises"),
                format!("n = 1000: enters its stable phase at ≈ {secs} s (± 5 s; never = null)"),
                Runs(vec![config], |r| {
                    pc(r[0]).and(r[0].summary.stabilization_secs)
                }),
                Between(secs - 5.0, secs + 5.0),
            ));
        }
    }
}

fn figs_7_8(rows: &mut Vec<Row>) {
    for (fig, dynamic) in [("fig7", false), ("fig8", true)] {
        let pair = |n| vec![env(continu(n), dynamic), env(cool(n), dynamic)];
        for n in SIZES {
            rows.push(row(
                format!("{fig}/n{n}/new_above_old"),
                "PC_new > PC_old at every overlay size",
                Runs(pair(n), pc_diff),
                AtLeast(STRICT_PC),
            ));
        }
        rows.push(row(
            format!("{fig}/delta_grows"),
            "a larger network benefits more: Δ(2000) > Δ(100)",
            Runs([pair(2000), pair(100)].concat(), |r| {
                Some(pc_diff(&r[..2])? - pc_diff(&r[2..])?)
            }),
            AtLeast(STRICT_PC),
        ));
    }
    for n in SIZES {
        for (system, base) in [("cool", cool as fn(usize) -> _), ("continu", continu)] {
            rows.push(row(
                format!("fig8/n{n}/{system}_not_above_static"),
                "the dynamic environment reads no higher than the static one",
                Runs(vec![env(base(n), true), base(n)], pc_diff),
                AtMost(0.0),
            ));
        }
    }
}

fn fig_9(rows: &mut Vec<Row>) {
    let sizes = MessageSizes::for_buffer(SystemConfig::BUFFER_SEGMENTS);
    for m in [4u32, 5, 6] {
        let ideal = sizes.ideal_control_overhead(m, f64::from(SystemConfig::PLAYBACK_RATE));
        for n in SIZES {
            let config = SystemConfig {
                neighbors: m as usize,
                ..continu(n)
            };
            rows.push(row(
                format!("fig9/m{m}/n{n}"),
                "control overhead below 0.02 and no lower than 0.95 × the ideal M/495",
                Runs(vec![config], |r| control_overhead(r[0])),
                Between(0.95 * ideal, 0.02),
            ));
        }
    }
}

fn figs_10_11(rows: &mut Vec<Row>) {
    for (env_name, dynamic, level) in [("static", false, 0.023), ("dynamic", true, 0.03)] {
        rows.push(row(
            format!("fig10/{env_name}/level"),
            format!("n = 1000: stable pre-fetch overhead ≈ {level} (± 0.01)"),
            Runs(vec![env(continu(1000), dynamic)], |r| {
                prefetch_overhead(r[0])
            }),
            Between(level - 0.01, level + 0.01),
        ));
    }
    for n in SIZES {
        for (env_name, dynamic) in ENVS {
            rows.push(row(
                format!("fig11/n{n}/{env_name}"),
                "pre-fetch overhead below 0.04 at every overlay size",
                Runs(vec![env(continu(n), dynamic)], |r| prefetch_overhead(r[0])),
                AtMost(0.04),
            ));
        }
        rows.push(row(
            format!("fig11/n{n}/dynamic_not_below_static"),
            "the dynamic environment costs no less pre-fetching than the static one",
            Runs(vec![env(continu(n), true), continu(n)], |r| {
                Some(prefetch_overhead(r[0])? - prefetch_overhead(r[1])?)
            }),
            AtLeast(0.0),
        ));
    }
}

fn fig_3(rows: &mut Vec<Row>) {
    let hop_bound = routing_hop_upper_bound(FIG3_BITS);
    for n in [500usize, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000] {
        let expected = expected_routing_hops(n as u64);
        let mut push = |what, paper: &str, measure: fn(Routing) -> f64, claim| {
            let direct = Direct(Box::new(move |seed| Some(measure(routing(n, seed)))));
            rows.push(row(format!("fig3/n{n}/{what}"), paper, direct, claim));
        };
        push(
            "avg_hops",
            "average hops within ± 0.5 of log₂(n)/2, in an ID space of N = 8192",
            |r| r.avg_hops,
            Between(expected - 0.5, expected + 0.5),
        );
        push(
            "success",
            "query success very close to 1.0 (≥ 0.99), even when sparse",
            |r| r.success,
            AtLeast(0.99),
        );
        push(
            "max_hops",
            "every lookup within the appendix bound log N / log(4/3)",
            |r| r.max_hops,
            AtMost(hop_bound),
        );
    }
}

fn ablations_k_m(rows: &mut Vec<Row>) {
    let with_k = |replicas| SystemConfig {
        replicas,
        ..continu(1000)
    };
    let with_m = |neighbors| SystemConfig {
        neighbors,
        ..continu(1000)
    };
    for k in 1..=6 {
        let p = prefetch_success_probability(k);
        rows.push(row(
            format!("ablation-k/k{k}/success_rate"),
            format!("§4.3: a pre-fetch succeeds with probability 1 − (½)^k = {p:.4} (± 0.1)"),
            Runs(vec![with_k(k)], |r| {
                let s = &r[0].summary;
                (s.prefetch_attempts > 0)
                    .then(|| s.prefetch_successes as f64 / s.prefetch_attempts as f64)
            }),
            Between(p - 0.1, p + 0.1),
        ));
    }
    rows.push(row(
        "ablation-k/continuity_rises".into(),
        "continuity never falls as k goes 1 → 6 (smallest step ≥ 0)",
        Runs((1..=6).map(with_k).collect(), |r| min_step(r, pc)),
        AtLeast(0.0),
    ));
    rows.push(row(
        "ablation-M/m8_vs_m5".into(),
        "§5.4.1: a larger M brings no notable increment — PC(M = 8) − PC(M = 5) within ± 0.03",
        Runs(vec![with_m(8), with_m(5)], pc_diff),
        Between(-0.03, 0.03),
    ));
    rows.push(row(
        "ablation-M/control_overhead_rises".into(),
        "control overhead grows with M over 3, 4, 5, 6, 8 (smallest step > 0)",
        Runs([3, 4, 5, 6, 8].map(with_m).to_vec(), |r| {
            min_step(r, control_overhead)
        }),
        AtLeast(STRICT_OH),
    ));
}

fn ablations_priority_alpha_placement(rows: &mut Vec<Row>) {
    use PriorityPolicy::{RarestFirst, RarityOnly, UrgencyOnly, UrgencyRarity};
    let greedy = SchedulerKind::GreedyWithPolicy;
    for (name, scheduler) in [
        ("urgency_rarity", greedy(UrgencyRarity)),
        ("urgency_only", greedy(UrgencyOnly)),
        ("rarity_only", greedy(RarityOnly)),
        ("rarest_first", greedy(RarestFirst)),
        ("coolstreaming", SchedulerKind::CoolStreaming),
        ("random", SchedulerKind::Random),
    ] {
        let other = SystemConfig {
            scheduler,
            ..continu(1000)
        };
        rows.push(row(
            format!("ablation-priority/vs_{name}"),
            "bounded-rescue ContinuStreaming is no worse than this raw policy or baseline",
            Runs(vec![continu(1000), other], pc_diff),
            AtLeast(0.0),
        ));
    }
    // t_hop scales t_fetch and with it the eq. 9 floor of α: ×0.5, ×1
    // (the paper's), ×4, ×10.
    let floors = [0.025, 0.05, 0.2, 0.5].map(|t_hop_secs| SystemConfig {
        t_hop_secs,
        ..continu(1000)
    });
    rows.push(row(
        "ablation-α/overdue_falls".into(),
        "§4.3: a wider urgent window leaves fewer pre-fetches overdue (smallest drop ≥ 0)",
        Runs(floors.to_vec(), |r| {
            min_step(r, |r| total(r, |x| x.prefetch_overdue).map(|t| -t))
        }),
        AtLeast(0.0),
    ));
    rows.push(row(
        "ablation-α/repeated_rises".into(),
        "§4.3: a wider urgent window fetches more repeated data (smallest step ≥ 0)",
        Runs(floors.to_vec(), |r| {
            min_step(r, |r| total(r, |x| x.prefetch_repeated))
        }),
        AtLeast(0.0),
    ));
    rows.push(row(
        "ablation-placement/jain".into(),
        "§4.3: hash(id·i) balances backup load no worse than hash(id+i) (Jain index difference)",
        Direct(Box::new(|_| {
            Some(placement_jain(backup_targets) - placement_jain(backup_targets_additive))
        })),
        AtLeast(0.0),
    ));
}

/// The scorecard: §5.1, figs 3 and 5–11, and the five ablations.
pub fn table() -> Vec<Row> {
    let mut rows = Vec::new();
    section_5_1(&mut rows);
    figs_5_6(&mut rows);
    figs_7_8(&mut rows);
    fig_9(&mut rows);
    figs_10_11(&mut rows);
    fig_3(&mut rows);
    ablations_k_m(&mut rows);
    ablations_priority_alpha_placement(&mut rows);
    rows
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::BTreeSet;

    use cs_core::FaultPlan;

    use super::*;

    /// 30 nodes that start playing within the toy horizon.
    fn tiny() -> SystemConfig {
        SystemConfig {
            startup_segments: 20,
            ..continu(30)
        }
    }

    fn toy() -> Horizon {
        Horizon {
            rounds: 8,
            seeds: vec![1, 2],
        }
    }

    fn runs(id: &str, config: SystemConfig, extract: Extract, claim: Claim, status: Status) -> Row {
        Row {
            id: id.into(),
            paper: "a \"toy\" claim".into(),
            measure: Measure::Runs(vec![config], extract),
            claim,
            status,
        }
    }

    #[test]
    fn outcome_reports_median_worst_seed_and_meets() {
        let claim = Claim::AtLeast(0.5);
        let o = Outcome::new(&claim, vec![Some(0.9), Some(0.4), None, Some(0.6)]);
        assert_eq!((o.median, o.worst, o.meets), (Some(0.6), 2, 2));
        assert!(!o.meets_claim());
        let o = Outcome::new(&claim, vec![Some(0.9), Some(0.4), Some(0.3), Some(0.6)]);
        assert_eq!((o.median, o.worst), (Some(0.5), 2));
        // One miss in eight is tolerated, two are not.
        let mut eight = vec![Some(0.7); 8];
        eight[3] = Some(0.1);
        assert!(Outcome::new(&claim, eight.clone()).meets_claim());
        eight[5] = None;
        assert!(!Outcome::new(&claim, eight).meets_claim());
        assert!(Claim::Between(0.1, 0.2).holds(0.2) && !Claim::AtMost(0.2).holds(0.21));
    }

    #[test]
    fn a_status_that_disagrees_with_the_measurement_names_the_row() {
        use Status::{Held, Open};
        let rows = [
            runs(
                "held/holds",
                tiny(),
                |r| pc(r[0]),
                Claim::AtLeast(0.0),
                Held,
            ),
            runs(
                "held/impossible",
                tiny(),
                |r| pc(r[0]),
                Claim::AtLeast(2.0),
                Held,
            ),
            runs(
                "open/trivial",
                tiny(),
                |r| pc(r[0]),
                Claim::AtMost(1.0),
                Open,
            ),
            runs(
                "open/unmet",
                tiny(),
                |r| pc(r[0]),
                Claim::AtMost(-1.0),
                Open,
            ),
        ];
        let record = evaluate(&rows, &toy(), crate::run_many);
        assert_eq!(record.tally(), (2, 2));
        let lines = record.mismatches();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("`held/impossible` is Held"), "{lines:?}");
        assert!(lines[1].contains("`open/trivial` is Open"), "{lines:?}");
    }

    #[test]
    fn undefined_measurements_fail_the_seed_and_serialise_as_null() {
        // Every gossip delivery lost: the stable tail carries no data
        // bits, and `RunSummary` reads that overhead as 0.0.
        let no_data = SystemConfig {
            faults: FaultPlan {
                data_loss: 1.0,
                ..FaultPlan::default()
            },
            ..tiny()
        };
        let summary = crate::run_system(no_data.clone()).summary;
        assert_eq!(summary.stable_prefetch_overhead, 0.0);
        // Nobody buffers 100 segments in 8 rounds: no playing node.
        let never_plays = continu(30);
        let below = Claim::AtMost(0.04);
        let rows = [
            runs("none", tiny(), |_| None, below, Status::Open),
            runs("nan", tiny(), |_| Some(f64::NAN), below, Status::Open),
            runs(
                "no_data",
                no_data,
                |r| prefetch_overhead(r[0]),
                below,
                Status::Open,
            ),
            runs("dead", never_plays, |r| pc(r[0]), below, Status::Open),
        ];
        let record = evaluate(&rows, &toy(), crate::run_many);
        assert!(record.mismatches().is_empty());
        for (row, o) in &record.rows {
            assert_eq!(o.values, [None, None], "{}", row.id);
            assert_eq!((o.median, o.meets), (None, 0), "{}", row.id);
        }
        let json = record.to_json();
        let nulls = "\"median\": null, \"worst\": null, \"worst_seed\": 1, \
                     \"meets\": 0, \"values\": [null, null]}";
        assert_eq!(json.matches(nulls).count(), 4, "{json}");
        assert!(json.contains(r#""paper": "a \"toy\" claim""#), "{json}");
    }

    #[test]
    fn rows_naming_an_equal_config_share_one_run() {
        let same_but_for_seed_and_rounds = SystemConfig {
            seed: 99,
            rounds: 3,
            ..tiny()
        };
        let other = SystemConfig {
            neighbors: 4,
            ..tiny()
        };
        let any = Claim::AtLeast(0.0);
        let rows = [
            runs("a", tiny(), |r| pc(r[0]), any, Status::Held),
            runs(
                "b",
                same_but_for_seed_and_rounds,
                |r| control_overhead(r[0]),
                any,
                Status::Held,
            ),
            runs("c", other, |r| pc(r[0]), any, Status::Held),
        ];
        let (calls, configs) = (Cell::new(0), Cell::new(0));
        let record = evaluate(&rows, &toy(), |c| {
            calls.set(calls.get() + 1);
            configs.set(configs.get() + c.len());
            assert!(c.iter().all(|c| c.rounds == 8 && [1, 2].contains(&c.seed)));
            crate::run_many(c)
        });
        assert_eq!((calls.get(), configs.get()), (1, 4), "2 configs × 2 seeds");
        assert_eq!(record.distinct_configs, 2);
        assert!(record.mismatches().is_empty());
    }

    #[test]
    fn two_evaluations_serialise_byte_identically() {
        let rows = [
            runs(
                "pc",
                tiny(),
                |r| pc(r[0]),
                Claim::AtLeast(0.5),
                Status::Held,
            ),
            runs(
                "pf",
                tiny(),
                |r| prefetch_overhead(r[0]),
                Claim::AtMost(0.5),
                Status::Held,
            ),
        ];
        let json = || evaluate(&rows, &toy(), crate::run_many).to_json();
        let first = json();
        assert_eq!(first, json());
        assert!(first.starts_with("{\n  \"rounds\": 8,\n  \"seeds\": [1, 2],\n"));
    }

    #[test]
    fn the_table_covers_every_artefact_under_unique_ids() {
        let rows = table();
        let ids: BTreeSet<&str> = rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids.len(), rows.len(), "row ids are unique");
        let artefacts: BTreeSet<&str> = rows.iter().map(Row::artefact).collect();
        for artefact in [
            "§5.1",
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "ablation-k",
            "ablation-M",
            "ablation-priority",
            "ablation-α",
            "ablation-placement",
        ] {
            assert!(artefacts.contains(artefact), "no row for {artefact}");
        }
        let open: BTreeSet<&str> = OPEN.split_whitespace().collect();
        assert_eq!(open.len(), OPEN.split_whitespace().count(), "a row twice");
        assert!(open.is_subset(&ids), "OPEN names a row the table lacks");
        let listed = rows.iter().filter(|r| r.status == Status::Open).count();
        assert_eq!(listed, open.len());
    }
}
