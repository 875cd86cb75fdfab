//! Print the behavioural fingerprint of every pinned scenario (see
//! `cs_bench::fingerprint`), followed by the DHT routing fingerprints
//! (hop sequences + table states of fixed lookup batches), the two
//! 2000-node active-set runs and the 8000-node overlay run, and exit 1
//! if any differs from its row of `PINS` — on x86_64 Linux only, like
//! `tests/determinism.rs` (the system hashes involve libm). The
//! active-set rows are checked here only.

use std::process::ExitCode;

use cs_bench::fingerprint::{
    active_set, dht, fingerprint, overlay_8k, round0_fingerprint, scenarios, PINS,
};
use cs_core::SystemSim;

fn main() -> ExitCode {
    let mut drift = false;
    let mut check = |name: &str, a: u64, b: u64| {
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) && !PINS.contains(&(name, a, b)) {
            eprintln!("drift in `{name}`: 0x{a:016x} 0x{b:016x} is not its row of PINS");
            drift = true;
        }
    };
    for (name, config) in scenarios() {
        let sim = SystemSim::new(config);
        let round0 = round0_fingerprint(&sim);
        let report = sim.run();
        let run = fingerprint(&report);
        println!(
            "{name}: 0x{run:016x}  round0 0x{round0:016x}  (stable continuity {:.4})",
            report.summary.stable_continuity
        );
        check(name, run, round0);
    }
    for (name, routes, tables) in dht::fingerprints() {
        println!("{name}: routes 0x{routes:016x}  tables 0x{tables:016x}");
        check(name, routes, tables);
    }
    for (name, config, pause) in active_set() {
        let mut sim = SystemSim::new(config);
        let round0 = round0_fingerprint(&sim);
        loop {
            pause.apply(&mut sim);
            if !sim.step() {
                break;
            }
        }
        let run = fingerprint(&sim.finish());
        println!("{name}: 0x{run:016x}  round0 0x{round0:016x}");
        check(name, run, round0);
    }
    let (name, config) = overlay_8k();
    let sim = SystemSim::new(config);
    let round0 = round0_fingerprint(&sim);
    let run = fingerprint(&sim.run());
    println!("{name}: 0x{run:016x}  round0 0x{round0:016x}");
    check(name, run, round0);
    if drift {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
