//! Metrics export: the merged per-round view of a scenario run
//! ([`RoundRecord`] + [`TelemetryRound`]) with CSV and JSON encoders, the
//! live monitor's exposition, a human-readable summary, and per-round
//! fingerprints for determinism gates.
//!
//! Every per-round metric is named once, in [`COLUMNS`]; the CSV, the
//! JSON rows and the monitor all loop over it. Encoders are hand-rolled:
//! the build environment is offline, so no serde. Floats are written
//! with Rust's shortest-roundtrip formatting, which is deterministic
//! across runs and platforms for equal values — the scenario
//! determinism suite pins exports byte for byte.

use std::fmt::{self, Write as _};

use cs_core::telemetry::mean_startup_delay;
use cs_core::{
    DistSummary, Quantiles, RoundRecord, RunReport, RunSummary, StartupSample, SystemSim,
    Telemetry, TelemetryRound,
};

use crate::engine::EngineStats;
use crate::spec::{fnv1a, ScenarioSpec};
use Cell::{Int, Real};

/// JSON-safe float: non-finite values (an empty run's min, a vacuous
/// mean) become `null` instead of bare `NaN`/`inf` tokens.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string literal: `"` and `\` escaped, control characters
/// written as `\u00XX`. (`{:?}` is not JSON: it writes `\u{7}` and
/// escapes a leading combining mark.)
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One exported value. Integers print with `{}` and reals with `{:?}`
/// (shortest round-trip); JSON writes a non-finite real as `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    Int(u64),
    Real(f64),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Int(v) => write!(f, "{v}"),
            Real(v) => write!(f, "{v:?}"),
        }
    }
}

/// Reads one column of a round.
pub type Getter = fn(&RoundRecord, &TelemetryRound) -> Cell;

/// The per-round columns of every export, in order: each scalar field of
/// [`RoundRecord`] except `traffic`, then each [`TelemetryRound`] field
/// not already among them. The CSV header and cells, the JSON row keys
/// and values and the monitor's `cs_<name>` gauges all read this table,
/// so a new per-round metric is one entry here.
#[rustfmt::skip]
pub const COLUMNS: &[(&str, Getter)] = &[
    ("round", |r, _| Int(r.round as u64)),
    ("time_secs", |r, _| Real(r.time_secs)),
    ("alive", |r, _| Int(r.alive as u64)),
    ("playing", |r, _| Int(r.playing as u64)),
    ("continuous", |r, _| Int(r.continuous as u64)),
    ("continuity", |r, _| Real(r.continuity)),
    ("joins", |r, _| Int(r.joins as u64)),
    ("leaves", |r, _| Int(r.leaves as u64)),
    ("gossip_deliveries", |r, _| Int(r.gossip_deliveries)),
    ("requests_issued", |r, _| Int(r.requests_issued)),
    ("requests_dropped", |r, _| Int(r.requests_dropped)),
    ("prefetch_attempts", |r, _| Int(r.prefetch_attempts as u64)),
    ("prefetch_successes", |r, _| Int(r.prefetch_successes as u64)),
    ("prefetch_overdue", |r, _| Int(r.prefetch_overdue as u64)),
    ("prefetch_repeated", |r, _| Int(r.prefetch_repeated as u64)),
    ("prefetch_suppressed", |r, _| Int(r.prefetch_suppressed as u64)),
    ("mean_alpha", |r, _| Real(r.mean_alpha)),
    ("newest_emitted", |_, t| Int(t.newest_emitted)),
    ("mean_runway", |_, t| Real(t.mean_runway)),
    ("min_runway", |_, t| Int(t.min_runway)),
    ("mean_frontier_gap", |_, t| Real(t.mean_frontier_gap)),
    ("window_occupancy", |_, t| Real(t.window_occupancy)),
    ("supplier_active", |_, t| Int(t.supplier_active as u64)),
    ("supplier_peak_load", |_, t| Int(t.supplier_peak_load)),
    ("dht_routing_msgs", |_, t| Int(t.dht_routing_msgs)),
    ("gc_evictions", |_, t| Int(t.gc_evictions)),
    ("backup_segments", |_, t| Int(t.backup_segments)),
    ("rescue_cap", |_, t| Int(t.rescue_cap)),
    ("suppressed_nodes", |_, t| Int(t.suppressed_nodes)),
    ("slack_used", |_, t| Int(t.slack_used)),
    ("faults_injected", |_, t| Int(t.faults_injected)),
    ("timeouts_detected", |_, t| Int(t.timeouts_detected)),
    ("retries_issued", |_, t| Int(t.retries_issued)),
    ("failovers", |_, t| Int(t.failovers)),
    ("stale_repairs", |_, t| Int(t.stale_repairs)),
    ("mean_time_to_recover", |_, t| Real(t.mean_time_to_recover)),
    ("active_sched", |_, t| Int(t.active_sched)),
    ("active_prefetch", |_, t| Int(t.active_prefetch)),
];

/// One round's cells, named, in [`COLUMNS`] order.
pub fn cells<'a>(
    record: &'a RoundRecord,
    telemetry: &'a TelemetryRound,
) -> impl Iterator<Item = (&'static str, Cell)> + 'a {
    COLUMNS
        .iter()
        .map(move |&(name, get)| (name, get(record, telemetry)))
}

/// A distribution's fields, named, in export order.
fn quantile_cells(q: &Quantiles) -> [(&'static str, Cell); 7] {
    [
        ("count", Int(q.count)),
        ("min", Real(q.min)),
        ("p50", Real(q.p50)),
        ("p95", Real(q.p95)),
        ("p99", Real(q.p99)),
        ("max", Real(q.max)),
        ("mean", Real(q.mean)),
    ]
}

/// The distribution block's window description, named.
fn window_cells(d: &DistSummary) -> [(&'static str, Cell); 4] {
    [
        ("window_start_round", Int(d.window_start_round as u64)),
        ("min_rounds", Int(d.min_rounds as u64)),
        ("nodes_measured", Int(d.nodes_measured)),
        ("nodes_excluded_short", Int(d.nodes_excluded_short)),
    ]
}

/// Append `prefix`, the items joined by commas, and a newline.
fn csv_line<T: fmt::Display>(out: &mut String, prefix: &str, items: impl IntoIterator<Item = T>) {
    out.push_str(prefix);
    for (i, item) in items.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{item}");
    }
    out.push('\n');
}

/// Append `"name": value` pairs joined by `, ` (no braces).
fn json_pairs<'a>(out: &mut String, cells: impl IntoIterator<Item = (&'a str, Cell)>) {
    for (i, (name, cell)) in cells.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = match cell {
            Int(v) => write!(out, "{sep}\"{name}\": {v}"),
            Real(v) => write!(out, "{sep}\"{name}\": {}", json_f64(v)),
        };
    }
}

/// The live monitor body for `sim`, in Prometheus text exposition: one
/// `cs_<column>` gauge per [`COLUMNS`] entry for the last stepped round
/// (omitted before the first round), and with obs armed the partial
/// distribution quantiles as `cs_<dist>_<field>`, the per-phase means
/// as `cs_phase_mean_ns{phase="…"}` and the trace-ring depth as
/// `cs_trace_events` / `cs_trace_dropped`.
pub fn exposition(sim: &SystemSim) -> String {
    fn gauge(out: &mut String, name: &str, v: Cell) {
        let _ = write!(out, "# TYPE cs_{name} gauge\ncs_{name} {v}\n");
    }
    let mut out = String::with_capacity(4096);
    if let Some((record, t)) = sim.records().last().zip(sim.telemetry().rounds.last()) {
        for (name, v) in cells(record, t) {
            gauge(&mut out, name, v);
        }
    }
    let Some(o) = sim.obs() else { return out };
    for (dist, q) in o.partial_dist().quantiles() {
        for (field, v) in quantile_cells(q) {
            gauge(&mut out, &format!("{dist}_{field}"), v);
        }
    }
    let phases = o.profiler.rows();
    if !phases.is_empty() {
        out.push_str("# TYPE cs_phase_mean_ns gauge\n");
        for row in &phases {
            let _ = writeln!(
                out,
                "cs_phase_mean_ns{{phase=\"{}\"}} {:.0}",
                row.name, row.mean_ns
            );
        }
    }
    gauge(&mut out, "trace_events", Int(o.events.len() as u64));
    gauge(&mut out, "trace_dropped", Int(o.events.dropped()));
    out
}

/// One merged metrics row: the paper metrics plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRow {
    /// The §5.3 record of the round.
    pub record: RoundRecord,
    /// The diagnostic counters of the round.
    pub telemetry: TelemetryRound,
}

/// The complete export of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsLog {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Fingerprint of the specification that produced the run.
    pub spec_fingerprint: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// Merged per-round rows.
    pub rows: Vec<MetricsRow>,
    /// Per-joiner startup trajectories.
    pub startups: Vec<StartupSample>,
    /// The run summary (stable-phase means etc.).
    pub summary: RunSummary,
    /// What the scenario engine applied.
    pub engine: EngineStats,
}

impl MetricsLog {
    /// Assemble the export from a run's pieces.
    ///
    /// # Panics
    /// If `telemetry` does not hold one row per round of `report` — the
    /// two must come from the same simulator's rounds.
    pub fn new(
        spec: &ScenarioSpec,
        report: &RunReport,
        telemetry: &Telemetry,
        engine: EngineStats,
    ) -> Self {
        assert_eq!(
            report.rounds.len(),
            telemetry.rounds.len(),
            "telemetry and report cover different rounds"
        );
        let rows = report
            .rounds
            .iter()
            .zip(&telemetry.rounds)
            .map(|(record, t)| {
                assert_eq!(
                    record.round, t.round,
                    "record and telemetry rounds disagree"
                );
                MetricsRow {
                    record: record.clone(),
                    telemetry: t.clone(),
                }
            })
            .collect();
        MetricsLog {
            scenario: spec.name.clone(),
            spec_fingerprint: spec.fingerprint(),
            seed: spec.config.seed,
            rows,
            startups: telemetry.startups.clone(),
            summary: report.summary.clone(),
            engine,
        }
    }

    /// Per-round fingerprints: hash of each merged row's debug
    /// serialisation. Equal specs must produce equal vectors.
    pub fn round_fingerprints(&self) -> Vec<u64> {
        self.rows
            .iter()
            .map(|r| fnv1a(format!("{r:?}").as_bytes()))
            .collect()
    }

    /// Fingerprint of the whole export.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }

    /// CSV encoding: the [`COLUMNS`] header, one line per round.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 200 + 512);
        csv_line(&mut out, "", COLUMNS.iter().map(|&(name, _)| name));
        for row in &self.rows {
            let values = cells(&row.record, &row.telemetry).map(|(_, v)| v);
            csv_line(&mut out, "", values);
        }
        // Distribution trailer: comment lines (a `#` prefix, like the
        // header-less gnuplot idiom) so obs-off exports stay
        // byte-identical and obs-on exports stay one-file.
        if let Some(d) = &self.summary.dist {
            out.push_str("#dist");
            for (name, v) in window_cells(d) {
                let _ = write!(out, ",{name},{v}");
            }
            out.push('\n');
            let fields = quantile_cells(&Quantiles::zero()).map(|(field, _)| field);
            csv_line(&mut out, "#dist,name,", fields);
            for (name, q) in d.quantiles() {
                let values = quantile_cells(q).map(|(_, v)| v);
                csv_line(&mut out, &format!("#dist,{name},"), values);
            }
        }
        out
    }

    /// JSON encoding of the full export (summary, engine stats, rows,
    /// startup samples). Each row carries the [`COLUMNS`] under their
    /// CSV names, in CSV order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 900 + 1024);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"scenario\": {},\n  \"spec_fingerprint\": \"0x{:016x}\",\n  \"seed\": {},\n",
            json_string(&self.scenario),
            self.spec_fingerprint,
            self.seed
        ));
        let s = &self.summary;
        out.push_str(&format!(
            "  \"summary\": {{\"stable_continuity\": {:?}, \"mean_continuity\": {:?}, \
             \"stabilization_secs\": {}, \"control_overhead\": {:?}, \
             \"prefetch_overhead\": {:?}, \"prefetch_attempts\": {}, \
             \"prefetch_successes\": {}, \"min_round_continuity\": {}, \
             \"min_continuity_round\": {}}},\n",
            s.stable_continuity,
            s.mean_continuity,
            s.stabilization_secs
                .map_or("null".to_string(), |v| format!("{v:?}")),
            s.control_overhead,
            s.prefetch_overhead,
            s.prefetch_attempts,
            s.prefetch_successes,
            json_f64(s.min_round_continuity),
            s.min_continuity_round,
        ));
        if let Some(d) = &s.dist {
            out.push_str("  \"distributions\": {");
            json_pairs(&mut out, window_cells(d));
            out.push_str(",\n");
            let dists = d.quantiles();
            for (i, (name, q)) in dists.iter().enumerate() {
                let _ = write!(out, "    \"{name}\": {{");
                json_pairs(&mut out, quantile_cells(q));
                out.push_str(if i + 1 < dists.len() { "},\n" } else { "}\n" });
            }
            out.push_str("  },\n");
        }
        let e = &self.engine;
        out.push_str(&format!(
            "  \"engine\": {{\"joins\": {}, \"joins_rejected\": {}, \"leaves\": {}, \
             \"seeks\": {}, \"pauses\": {}, \"resumes\": {}, \"capacity_changes\": {}, \
             \"crashes\": {}}},\n",
            e.joins,
            e.joins_rejected,
            e.leaves,
            e.seeks,
            e.pauses,
            e.resumes,
            e.capacity_changes,
            e.crashes,
        ));
        out.push_str(&format!(
            "  \"mean_startup_delay_rounds\": {},\n",
            mean_startup_delay(&self.startups).map_or("null".to_string(), |v| format!("{v:?}"))
        ));
        out.push_str("  \"rounds\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            json_pairs(&mut out, cells(&row.record, &row.telemetry));
            out.push_str(if i + 1 < self.rows.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A short human-readable report.
    pub fn summarize(&self) -> String {
        let last = self.rows.last();
        let mut out = String::new();
        out.push_str(&format!(
            "scenario `{}` (spec 0x{:016x}, seed {})\n",
            self.scenario, self.spec_fingerprint, self.seed
        ));
        out.push_str(&format!(
            "  rounds: {}   final size: {} alive, {} playing\n",
            self.rows.len(),
            last.map_or(0, |r| r.record.alive),
            last.map_or(0, |r| r.record.playing),
        ));
        out.push_str(&format!(
            "  continuity: mean {:.4}, stable-phase {:.4}{}\n",
            self.summary.mean_continuity,
            self.summary.stable_continuity,
            match self.summary.stabilization_secs {
                Some(t) => format!(", stabilised at {t:.0} s"),
                None => ", never stabilised".to_string(),
            }
        ));
        if self.summary.min_round_continuity.is_finite() {
            out.push_str(&format!(
                "  worst round: continuity {:.4} at round {}\n",
                self.summary.min_round_continuity, self.summary.min_continuity_round,
            ));
        }
        if let Some(d) = &self.summary.dist {
            out.push_str(&format!(
                "  per-node continuity (window from round {}): p50 {:.4}, p95 {:.4}, \
                 p99 {:.4}, min {:.4} over {} nodes ({} too short)\n",
                d.window_start_round,
                d.continuity.p50,
                d.continuity.p95,
                d.continuity.p99,
                d.continuity.min,
                d.nodes_measured,
                d.nodes_excluded_short,
            ));
        }
        out.push_str(&format!(
            "  engine: {} joins (+{} rejected), {} leaves, {} seeks, {} pauses, {} resumes, {} capacity changes\n",
            self.engine.joins,
            self.engine.joins_rejected,
            self.engine.leaves,
            self.engine.seeks,
            self.engine.pauses,
            self.engine.resumes,
            self.engine.capacity_changes,
        ));
        if let Some(delay) = mean_startup_delay(&self.startups) {
            out.push_str(&format!(
                "  startup: {} nodes started playback, mean delay {delay:.1} rounds\n",
                self.startups.len()
            ));
        }
        out.push_str(&format!(
            "  prefetch: {} attempts, {} successes, overhead {:.4}\n",
            self.summary.prefetch_attempts,
            self.summary.prefetch_successes,
            self.summary.prefetch_overhead,
        ));
        let (mut injected, mut timeouts, mut retries, mut failovers, mut repairs) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for t in self.rows.iter().map(|r| &r.telemetry) {
            injected += t.faults_injected;
            timeouts += t.timeouts_detected;
            retries += t.retries_issued;
            failovers += t.failovers;
            repairs += t.stale_repairs;
        }
        if injected > 0 || timeouts > 0 {
            out.push_str(&format!(
                "  faults: {injected} injected ({} scripted crashes); recovery: \
                 {timeouts} timeouts, {retries} retries, {failovers} failovers, \
                 {repairs} stale-route repairs\n",
                self.engine.crashes,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::run_scenario;
    use crate::spec::ScenarioSpec;
    use cs_core::SystemConfig;

    fn tiny() -> ScenarioSpec {
        ScenarioSpec::null(
            "tiny",
            SystemConfig {
                nodes: 30,
                rounds: 8,
                startup_segments: 20,
                seed: 5,
                ..SystemConfig::default()
            },
        )
    }

    #[test]
    fn csv_has_header_and_one_line_per_round() {
        let outcome = run_scenario(&tiny());
        let csv = outcome.log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 9, "header + 8 rounds");
        assert!(lines[0].starts_with("round,time_secs,alive"));
        let cols = lines[0].split(',').count();
        for (l, t) in lines[1..].iter().zip(&outcome.telemetry.rounds) {
            assert_eq!(l.split(',').count(), cols, "ragged CSV row: {l}");
            let occupancy = format!(",{},{}", t.active_sched, t.active_prefetch);
            assert!(l.ends_with(&occupancy), "{l}");
        }
    }

    #[test]
    fn json_is_structurally_sound() {
        let outcome = run_scenario(&tiny());
        let json = outcome.log.to_json();
        // No JSON parser in this offline environment; check balance and
        // a few required keys instead.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in ["\"scenario\"", "\"summary\"", "\"engine\"", "\"rounds\""] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn json_rows_carry_the_csv_columns() {
        let outcome = run_scenario(&tiny());
        let csv = outcome.log.to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let json = outcome.log.to_json();
        let rows = json.split("\"rounds\": [\n").nth(1).unwrap();
        let mut n = 0;
        for (csv_row, json_row) in lines.zip(rows.lines().filter(|l| l.starts_with("    {"))) {
            let body = json_row.trim().trim_start_matches('{');
            let body = body.trim_end_matches(',').trim_end_matches('}');
            let pairs: Vec<(&str, &str)> = body
                .split(", ")
                .map(|p| p.split_once(": ").unwrap())
                .collect();
            let keys: Vec<String> = pairs.iter().map(|(k, _)| k.replace('"', "")).collect();
            assert_eq!(keys, header, "JSON row keys differ from the CSV header");
            let values: Vec<&str> = pairs.iter().map(|&(_, v)| v).collect();
            assert_eq!(values, csv_row.split(',').collect::<Vec<_>>());
            n += 1;
        }
        assert_eq!(n, 8, "one JSON row per CSV row");
    }

    #[test]
    fn json_escapes_names_that_debug_formatting_would_not() {
        for (name, escaped) in [("a\u{7}b", Some("\"a\\u0007b\"")), ("\u{301}x", None)] {
            let mut spec = tiny();
            spec.name = name.to_string();
            let json = run_scenario(&spec).log.to_json();
            if let Some(escaped) = escaped {
                assert!(json.contains(escaped), "{json}");
            }
            assert!(!json.contains("\\u{"), "Rust escape in JSON: {json}");
        }
        assert_eq!(super::json_string("q\"\\\n"), "\"q\\\"\\\\\\u000a\"");
    }

    #[test]
    fn summarize_mentions_the_name() {
        let outcome = run_scenario(&tiny());
        assert!(outcome.log.summarize().contains("`tiny`"));
    }
}
