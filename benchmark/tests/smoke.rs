//! Self-tests of the benchmark: a smoke-scale run of all four workloads
//! in both modes, held against `BENCHMARK.json`, and the failure path.
//!
//! ```text
//! cargo test --manifest-path benchmark/Cargo.toml
//! ```

use cs_benchmark::catalog::{per_layer, END_TO_END};
use cs_benchmark::json::Json;
use cs_benchmark::run::{
    determinism_check, run_workload, sim_rep, twin_equivalence_checks, twin_rep, RunConfig,
};
use cs_benchmark::specs::{Scale, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        scale: Scale::Smoke,
        seed: 0,
        seconds: 0.0,
        trace,
    }
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    let e2e = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (declared, ours) in e2e.iter().zip(END_TO_END) {
        let s = |k| {
            declared
                .get(k)
                .and_then(Json::as_str)
                .expect("string field")
        };
        assert_eq!(s("name"), ours.name);
        assert_eq!(s("unit"), ours.unit, "{}", ours.name);
        assert_eq!(s("better"), ours.better.name(), "{}", ours.name);
        let bound = declared.get("bound").and_then(Json::as_f64).expect("bound");
        assert_eq!(bound, ours.bound, "{}", ours.name);
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    let layers = doc
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer");
    let ours = per_layer();
    assert_eq!(layers.len(), ours.len());
    assert!(ours.len() <= 128);
    for (declared, (name, unit, better)) in layers.iter().zip(ours) {
        let s = |k| {
            declared
                .get(k)
                .and_then(Json::as_str)
                .expect("string field")
        };
        assert_eq!(s("name"), name);
        assert_eq!(s("unit"), unit, "{name}");
        assert_eq!(s("better"), better.name(), "{name}");
    }
}

#[test]
fn every_declared_metric_is_emitted_once_per_workload() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(list);
        for w in Workload::ALL {
            let result = run_workload(&smoke(w, trace));
            for c in &result.checks {
                assert!(
                    c.ok,
                    "{} trace={trace}: {} — {}",
                    w.name(),
                    c.name,
                    c.detail
                );
            }
            assert!(result.correct() && result.failed() == 0 && result.attempted >= 1);
            assert_eq!(result.exit_code(), 0);

            let got: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            for m in &result.metrics {
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
                assert!(
                    m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{}",
                    m.name
                );
            }
            if !trace {
                // A relative bound needs a base: end-to-end metrics are
                // never 0.
                for m in &result.metrics {
                    assert!(m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
                }
            }

            // The printed object parses back and has exactly the four keys.
            let line = Json::parse(&result.result_line().to_string()).expect("result line");
            let keys: Vec<&str> = line
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("metrics")
                    .and_then(Json::as_object)
                    .map(<[_]>::len),
                Some(want.len())
            );
            assert_eq!(result.spans.is_some(), trace);
        }
    }
}

#[test]
fn the_span_file_carries_parents_and_every_layer_boundary() {
    let result = run_workload(&smoke(Workload::LossyTwin1k, true));
    let spans = result.spans.expect("a traced run records spans");
    assert_eq!(
        spans.get("workload").and_then(Json::as_str),
        Some("lossy_twin_1k")
    );
    let names: Vec<&str> = spans
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans")
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    for boundary in [
        "setup",
        "scenario.parse",
        "core.init",
        "scenario.drive_round",
        "core.step",
        "core.finish",
        "scenario.export",
        "twin.transport_new",
        "twin.drive",
        "kernels",
        "dht.route",
        "twin.envelope",
    ] {
        assert!(names.contains(&boundary), "no `{boundary}` span");
    }
    assert_eq!(names.iter().filter(|n| **n == "core.step").count(), 30);
}

#[test]
fn a_mismatching_export_hash_fails_every_operation() {
    let ok = determinism_check(&[(1, 2), (1, 2), (1, 2)]);
    assert!(ok.ok);
    let json_differs = determinism_check(&[(1, 2), (9, 2)]);
    let csv_differs = determinism_check(&[(1, 2), (1, 2), (1, 9)]);
    assert!(!json_differs.ok && !csv_differs.ok);

    // A result carrying a failed check counts every operation failed
    // and asks for a non-zero exit.
    let mut result = run_workload(&smoke(Workload::Static8k, false));
    assert_eq!((result.failed(), result.exit_code()), (0, 0));
    result.checks.push(json_differs);
    assert_eq!(result.failed(), result.attempted);
    assert!(!result.correct());
    assert_ne!(result.exit_code(), 0);
    let line = result.result_line();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(
        line.get("failed").and_then(Json::as_f64),
        Some(result.attempted as f64)
    );
}

#[test]
fn a_twin_sim_byte_difference_is_caught() {
    let text = Workload::LossyTwin1k.spec_text(Scale::Smoke, 0);
    let twin = twin_rep(&text, None, None);
    let sim = sim_rep(&text, None, None);
    assert!(twin_equivalence_checks(&twin, &sim).iter().all(|c| c.ok));

    // One byte of one export.
    let mut tampered = sim.clone();
    tampered.csv.push(' ');
    let checks = twin_equivalence_checks(&twin, &tampered);
    let failed: Vec<&str> = checks.iter().filter(|c| !c.ok).map(|c| c.name).collect();
    assert_eq!(failed, ["twin_vs_sim.csv"]);

    // A late or diverging envelope on an otherwise identical run.
    let mut unfaithful = twin.clone();
    let counters = unfaithful.twin.as_mut().expect("twin counters");
    counters.late = 1;
    counters.divergences = 2;
    let checks = twin_equivalence_checks(&unfaithful, &sim);
    let failed: Vec<&str> = checks.iter().filter(|c| !c.ok).map(|c| c.name).collect();
    assert_eq!(failed, ["twin.late", "twin.divergences"]);
}

#[test]
fn a_different_seed_gives_a_different_healthy_run() {
    let a = run_workload(&smoke(Workload::Vcr4k, false));
    let mut other = smoke(Workload::Vcr4k, false);
    other.seed = 3;
    let b = run_workload(&other);
    assert!(a.correct() && b.correct());
    let mean = |r: &cs_benchmark::run::RunResult| {
        r.metrics
            .iter()
            .find(|m| m.name == "continuity_mean")
            .expect("continuity_mean")
            .value
    };
    assert_ne!(
        mean(&a),
        mean(&b),
        "seed 3 must drive a different simulation"
    );
}
