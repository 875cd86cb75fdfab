//! Staged recovery/joiner knob sweep over a committed scenario — the
//! orchestrator that produced `BENCH_knob_frontier.json`.
//!
//! ```text
//! cargo run --release -p cs-bench --bin knob_sweep -- \
//!     --scenario scenarios/dynamic_churn.scn --json BENCH_knob_frontier.json
//! cargo run --release -p cs-bench --bin knob_sweep -- --smoke   # CI: tiny grid
//! ```
//!
//! The sweep runs at a reduced size by default (`--nodes`/`--rounds`
//! override; event and phase rounds scale proportionally so the
//! workload shape is preserved), stages the search so later stages
//! build on earlier winners instead of exploding the grid:
//!
//! 1. recovery plane — `source_push` × `source_rescue_cap`
//! 2. joiner plane — `join_sponsors` × `join_seed` × `join_grace_rounds`,
//!    re-sweeping `source_rescue_cap` (the grace window multiplies
//!    rescue demand, so the cap interacts with the joiner knobs)
//! 3. refinement — `inbound_slack` × `target_runway_rounds`
//!
//! and finally re-runs the overall winner at the committed full size
//! (`--full-size`). Output: a per-point table on stdout and, with
//! `--json`, a deterministic JSON record (points, Pareto frontier,
//! winner, references) that re-runs byte-identically — the CI sweep
//! smoke diffs two generations.

use continustreaming::prelude::*;
use cs_bench::sweep::{best, evaluate_stage, label, scn_fragment, PointResult};
use cs_bench::{f4, print_table};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Shrink a spec to `nodes`×`rounds`, rescaling phase and event rounds
/// so mid-run shocks stay mid-run.
fn shrink(spec: &mut ScenarioSpec, nodes: usize, rounds: u32) {
    let old_rounds = spec.config.rounds.max(1) as u64;
    let scale = |r: u32| -> u32 { ((r as u64 * rounds as u64) / old_rounds) as u32 };
    for ph in &mut spec.phases {
        ph.start = scale(ph.start);
        ph.end = scale(ph.end).max(ph.start);
    }
    for ev in &mut spec.events {
        ev.round = scale(ev.round).min(rounds.saturating_sub(1));
    }
    spec.config.nodes = nodes;
    spec.config.rounds = rounds;
}

fn grid(
    pushes: &[usize],
    caps: &[usize],
    sponsors: &[usize],
    seeds: &[usize],
    graces: &[u32],
    slacks: &[f64],
    runways: &[u64],
) -> Vec<AdaptivePolicy> {
    let mut pts = Vec::new();
    for &source_push in pushes {
        for &source_rescue_cap in caps {
            for &join_sponsors in sponsors {
                for &join_seed in seeds {
                    for &join_grace_rounds in graces {
                        for &inbound_slack in slacks {
                            for &target_runway_rounds in runways {
                                pts.push(AdaptivePolicy {
                                    source_push,
                                    source_rescue_cap,
                                    join_sponsors,
                                    join_seed,
                                    join_grace_rounds,
                                    inbound_slack,
                                    target_runway_rounds,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    pts
}

/// The staged search: each stage sweeps one knob family on top of the
/// previous stage's winner. Returns every evaluated point, in stage
/// order.
fn staged_search(spec: &ScenarioSpec, origin: AdaptivePolicy, smoke: bool) -> Vec<PointResult> {
    let mut all: Vec<PointResult> = Vec::new();

    // Stage 1 — recovery plane (PR-6 knobs) over the spec's own point.
    let s1 = if smoke {
        grid(
            &[0, 6],
            &[0, 8],
            &[0],
            &[0],
            &[0],
            &[origin.inbound_slack],
            &[origin.target_runway_rounds],
        )
    } else {
        grid(
            &[0, 4, 6, 8],
            &[0, 8],
            &[origin.join_sponsors],
            &[origin.join_seed],
            &[origin.join_grace_rounds],
            &[origin.inbound_slack],
            &[origin.target_runway_rounds],
        )
    };
    eprintln!("stage 1 (recovery): {} points", s1.len());
    let r1 = evaluate_stage(spec, &s1, "recovery");
    let w1 = r1[best(&r1)].point;
    eprintln!(
        "  stage 1 winner: {} (mean {:.4})",
        label(&w1),
        r1[best(&r1)].mean_continuity
    );
    all.extend(r1);

    // Stage 2 — joiner integration on top of the stage-1 winner. The
    // rescue cap is re-swept here: join grace lifts the rescue ceiling
    // for catch-up nodes, so the cap's best value shifts once the
    // joiner knobs arm.
    let s2 = if smoke {
        grid(
            &[w1.source_push],
            &[w1.source_rescue_cap],
            &[0, 4],
            &[0, 16],
            &[0, 8],
            &[w1.inbound_slack],
            &[w1.target_runway_rounds],
        )
    } else {
        grid(
            &[w1.source_push],
            &[4, 8, 12],
            &[0, 4, 8],
            &[0, 16, 24],
            &[0, 12, 20],
            &[w1.inbound_slack],
            &[w1.target_runway_rounds],
        )
    };
    eprintln!("stage 2 (joiner): {} points", s2.len());
    let r2 = evaluate_stage(spec, &s2, "joiner");
    let w2 = r2[best(&r2)].point;
    eprintln!(
        "  stage 2 winner: {} (mean {:.4})",
        label(&w2),
        r2[best(&r2)].mean_continuity
    );
    all.extend(r2);

    // Stage 3 — steady-state refinement around the stage-2 winner.
    let s3 = if smoke {
        Vec::new()
    } else {
        grid(
            &[w2.source_push],
            &[w2.source_rescue_cap],
            &[w2.join_sponsors],
            &[w2.join_seed],
            &[w2.join_grace_rounds],
            &[0.15, 0.35, 0.45],
            &[4, 8],
        )
    };
    if !s3.is_empty() {
        eprintln!("stage 3 (refine): {} points", s3.len());
        let r3 = evaluate_stage(spec, &s3, "refine");
        eprintln!(
            "  stage 3 winner: {} (mean {:.4})",
            label(&r3[best(&r3)].point),
            r3[best(&r3)].mean_continuity
        );
        all.extend(r3);
    }
    all
}

fn main() {
    let scenario = arg_value("--scenario").unwrap_or_else(|| "scenarios/dynamic_churn.scn".into());
    let smoke = std::env::args().any(|a| a == "--smoke");
    let full_size = std::env::args().any(|a| a == "--full-size");
    let text = std::fs::read_to_string(&scenario).unwrap_or_else(|e| {
        eprintln!("cannot read {scenario}: {e}");
        std::process::exit(2);
    });
    let full_spec = parse_scenario(&text).unwrap_or_else(|e| {
        eprintln!("{scenario}: {e}");
        std::process::exit(2);
    });

    // Sweep at reduced size so the staged grids stay tractable; the
    // winner is re-checked at the committed size with `--full-size`.
    let default_nodes = if smoke { 120 } else { 300 };
    let default_rounds = if smoke { 40 } else { 80 };
    let nodes: usize = arg_value("--nodes")
        .map(|v| v.parse().expect("--nodes takes an integer"))
        .unwrap_or(default_nodes);
    let rounds: u32 = arg_value("--rounds")
        .map(|v| v.parse().expect("--rounds takes an integer"))
        .unwrap_or(default_rounds);
    let full_fingerprint = full_spec.fingerprint();
    let (full_nodes, full_rounds) = (full_spec.config.nodes, full_spec.config.rounds);
    let mut spec = full_spec.clone();
    shrink(&mut spec, nodes, rounds);

    let origin = match &full_spec.config.policy {
        PolicyKind::Adaptive(ap) => *ap,
        PolicyKind::Legacy => AdaptivePolicy::default(),
    };
    eprintln!(
        "sweeping `{}` at {nodes}x{rounds} (committed {full_nodes}x{full_rounds}), base {}",
        spec.name,
        label(&origin)
    );

    // Reference points: the spec's Legacy run and the bare Adaptive
    // default — every sweep row is read against these.
    let mut legacy_spec = spec.clone();
    legacy_spec.config.policy = PolicyKind::Legacy;
    let mut adaptive_spec = spec.clone();
    adaptive_spec.config.policy = PolicyKind::adaptive();
    let refs = cs_bench::run_scenarios(vec![legacy_spec, adaptive_spec]);
    let legacy = refs[0].report.summary.clone();
    let adaptive_default = refs[1].report.summary.clone();
    eprintln!(
        "references: legacy mean {:.4}, adaptive-default mean {:.4}",
        legacy.mean_continuity, adaptive_default.mean_continuity
    );

    let all = staged_search(&spec, origin, smoke);
    let winner = all[best(&all)].clone();

    // Optional: re-run the overall winner at the committed size.
    let full_check = if full_size {
        eprintln!("re-running winner at committed size {full_nodes}x{full_rounds} …");
        let mut s = full_spec;
        s.config.policy = PolicyKind::Adaptive(winner.point);
        let summary = run_scenario(&s).report.summary;
        eprintln!(
            "  full-size: mean {:.4}, stable {:.4}",
            summary.mean_continuity, summary.stable_continuity
        );
        Some(PointResult {
            point: winner.point,
            stage: "full-size",
            mean_continuity: summary.mean_continuity,
            stable_continuity: summary.stable_continuity,
            prefetch_overhead: summary.prefetch_overhead,
            control_overhead: summary.control_overhead,
            stabilization_secs: summary.stabilization_secs,
        })
    } else {
        None
    };

    // Human output: every evaluated point, frontier members starred.
    let frontier = cs_bench::sweep::pareto_frontier(&all);
    let rows: Vec<Vec<String>> = all
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                if frontier.contains(&i) {
                    "*".into()
                } else {
                    "".into()
                },
                r.stage.to_string(),
                label(&r.point),
                f4(r.mean_continuity),
                f4(r.stable_continuity),
                f4(r.overhead()),
            ]
        })
        .collect();
    print_table(
        &format!("knob sweep: {} ({nodes}x{rounds})", spec.name),
        &["F", "stage", "point", "mean", "stable", "overhead"],
        &rows,
    );
    println!(
        "\nwinner: {}  mean {:.4}  (legacy {:.4}, adaptive-default {:.4})",
        label(&winner.point),
        winner.mean_continuity,
        legacy.mean_continuity,
        adaptive_default.mean_continuity
    );
    println!("spec policy line: {}", scn_fragment(&winner.point));

    if let Some(json_path) = arg_value("--json") {
        let json = cs_bench::sweep::sweep_json(
            &spec.name,
            full_fingerprint,
            full_nodes,
            full_rounds,
            nodes,
            rounds,
            &all,
            &legacy,
            &adaptive_default,
            &winner,
            full_check.as_ref(),
        );
        std::fs::write(&json_path, json).expect("write json");
        eprintln!("wrote {json_path}");
    }
}
