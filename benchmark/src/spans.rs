//! The benchmark's own spans, recorded around each call into the
//! measured program during the traced run.
//!
//! A span is a name, a start and an end (nanoseconds since the
//! recorder was created) and the span that was open when it started.
//! Spans stay in memory while the run measures and are written out as
//! one JSON file afterwards.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one workload's traced run.
pub struct Spans {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Spans {
        Spans {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Run `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9
    }

    /// The span file: every span with its parent, plus per-name totals
    /// and self time (duration minus what child spans cover).
    pub fn to_json(&self) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut totals: Vec<(&str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
            match totals.iter_mut().find(|t| t.0 == s.name) {
                Some(t) => {
                    t.1 += 1;
                    t.2 += s.dur_ns();
                    t.3 += self_ns;
                }
                None => totals.push((s.name, 1, s.dur_ns(), self_ns)),
            }
        }
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("clock", Json::str("ns since the traced run started")),
            (
                "totals",
                Json::Arr(
                    totals
                        .into_iter()
                        .map(|(name, count, total, own)| {
                            Json::obj([
                                ("name", Json::str(name)),
                                ("count", Json::Num(count as f64)),
                                ("total_ns", Json::Num(total as f64)),
                                ("self_ns", Json::Num(own as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            Json::obj([
                                ("id", Json::Num(i as f64)),
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut s = Spans::new("w");
        s.enter("rep");
        s.time("step", || std::hint::black_box(1 + 1));
        s.time("step", || std::hint::black_box(2 + 2));
        s.exit();
        assert_eq!(s.durations_ns("step").len(), 2);
        let j = s.to_json();
        let spans = j.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[2].get("parent"), Some(&Json::Num(0.0)));
        let totals = j.get("totals").unwrap().as_array().unwrap();
        let rep = &totals[0];
        let total = rep.get("total_ns").unwrap().as_f64().unwrap();
        let own = rep.get("self_ns").unwrap().as_f64().unwrap();
        assert!(own <= total);
        assert!((total - own - s.total_s("step") * 1e9).abs() < 1.0);
    }
}
