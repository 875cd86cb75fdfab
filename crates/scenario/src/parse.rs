//! The scenario spec text format.
//!
//! A deliberately small line-oriented format (the build environment has
//! no serde): blank lines and `#` comments are ignored; every other
//! line is one statement. Statements:
//!
//! ```text
//! # run configuration (key = value)
//! name = flash-crowd
//! nodes = 300
//! rounds = 60
//! seed = 99
//! scheduler = continustreaming        # continustreaming|coolstreaming|random
//!                                     # (continustreaming alone pre-fetches)
//! startup_segments = 100              # also: neighbors, replicas
//! id_space_slack = 8
//! churn = 0.05 0.05 0.5               # baseline leave/join[/graceful] fractions
//! faults = 0.005 0.01 0.01 0.0 0.0    # crash data_loss control_loss delay_prob delay_ms
//! policy = adaptive inbound_slack=0.2 # legacy (default) | adaptive [knob=value…]
//!                                     # knobs: target_runway_rounds,
//!                                     # inbound_slack, source_rescue_cap,
//!                                     # source_push, join_sponsors, join_seed,
//!                                     # join_grace_rounds
//!
//! # node classes (capacity tiers / latency classes)
//! class dsl inbound=600 outbound=300 weight=3
//! class fiber inbound=2000 outbound=1000 ping=40 weight=1
//!
//! # phases: models active over [start, end) rounds
//! phase 0..60 arrivals=poisson:2.0 session=weibull:0.7,25 classes=dsl,fiber
//! phase 20..40 seek=0.05:30 pause=0.01 resume=0.25
//!
//! # timed events
//! at 15 flash_crowd count=50 class=dsl
//! at 30 mass_departure fraction=0.3 correlated graceful
//! at 40 seek_storm fraction=0.5 jump=-50
//! at 45 capacity_shift fraction=0.25 class=dsl
//! at 50 crash_nodes count=20 correlated
//! at 55 loss_burst loss=0.3 rounds=5
//! at 60 partition_arc fraction=0.25 rounds=10
//! at 65 rp_outage rounds=15
//! ```
//!
//! Every key is checked: unknown keys, unknown event kinds, missing
//! values and *duplicate* keys (a configuration key set twice, or a
//! `key=value` token repeated inside one statement) are line-numbered
//! parse errors, never silently ignored — a typo must not quietly
//! change the workload being studied. The assembled run configuration
//! is validated too, so a spec that parses is a spec that runs. The
//! §5.2 values no run varies (`B`, `p`, `τ`, the segment size, `H`,
//! `l`) are constants, not keys.

use cs_core::{FaultPlan, PolicyKind, SchedulerKind, SystemConfig};
use cs_overlay::ChurnConfig;

use crate::spec::{
    ArrivalModel, NodeClass, Phase, ScenarioEventKind, ScenarioSpec, SessionModel, TimedEvent,
};

/// A parse failure: line number (1-based) plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error occurred on; `None` when the assembled spec
    /// as a whole fails validation.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line: Some(line),
        message: message.into(),
    })
}

fn parse_num<T: std::str::FromStr>(line: usize, what: &str, s: &str) -> Result<T, ParseError> {
    s.parse().map_err(|_| ParseError {
        line: Some(line),
        message: format!("{what}: cannot parse `{s}`"),
    })
}

/// Parse a probability/fraction/rate and range-check it to [0, 1] with
/// a line-numbered error. The spec-level validator catches most of
/// these too, but only after the whole file parses and without a line
/// number; failing at the offending token follows the churn-fraction
/// precedent. `!(0.0..=1.0).contains(…)` also rejects NaN.
fn parse_unit(line: usize, what: &str, s: &str) -> Result<f64, ParseError> {
    let v: f64 = parse_num(line, what, s)?;
    if !(0.0..=1.0).contains(&v) {
        return err(line, format!("{what} {v} outside [0, 1]"));
    }
    Ok(v)
}

/// Split `key=value` (no value ⇒ empty string, for bare flags).
fn kv(token: &str) -> (&str, &str) {
    match token.split_once('=') {
        Some((k, v)) => (k, v),
        None => (token, ""),
    }
}

/// Reject duplicate keys among a statement's `key=value`/flag tokens.
/// With duplicates allowed, `count=3 count=5` would silently resolve to
/// one of the two — which one being an implementation detail of the
/// parser, not something the experimenter chose.
fn reject_duplicate_keys(lineno: usize, tokens: &[&str]) -> Result<(), ParseError> {
    for (i, token) in tokens.iter().enumerate() {
        let (k, _) = kv(token);
        if tokens[..i].iter().any(|t| kv(t).0 == k) {
            return err(lineno, format!("duplicate key `{k}`"));
        }
    }
    Ok(())
}

/// Parse a scenario spec from its text form. The result is validated.
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, ParseError> {
    let mut spec = ScenarioSpec::null("unnamed", SystemConfig::default());
    // Configuration keys seen so far, with the line that set each.
    let mut seen: Vec<(&str, usize)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = match raw.split_once('#') {
            Some((before, _)) => before.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "class" => parse_class(lineno, &tokens, &mut spec)?,
            "phase" => parse_phase(lineno, &tokens, &mut spec)?,
            "at" => parse_event(lineno, &tokens, &mut spec)?,
            _ => parse_config_line(lineno, line, &mut spec, &mut seen)?,
        }
    }
    spec.validate().map_err(|e| ParseError {
        line: None,
        message: e.0,
    })?;
    Ok(spec)
}

fn parse_config_line<'a>(
    lineno: usize,
    line: &'a str,
    spec: &mut ScenarioSpec,
    seen: &mut Vec<(&'a str, usize)>,
) -> Result<(), ParseError> {
    let Some((key, value)) = line.split_once('=') else {
        return err(lineno, format!("expected `key = value`, got `{line}`"));
    };
    let (key, value) = (key.trim(), value.trim());
    // Last-one-wins would let a stray second `nodes = …` further down a
    // file silently change the run; name both lines instead.
    if let Some(&(_, first)) = seen.iter().find(|(k, _)| *k == key) {
        return err(
            lineno,
            format!("duplicate key `{key}` (already set on line {first})"),
        );
    }
    seen.push((key, lineno));
    let c = &mut spec.config;
    match key {
        "name" => spec.name = value.to_string(),
        "nodes" => c.nodes = parse_num(lineno, key, value)?,
        "rounds" => c.rounds = parse_num(lineno, key, value)?,
        "seed" => c.seed = parse_num(lineno, key, value)?,
        "neighbors" => c.neighbors = parse_num(lineno, key, value)?,
        "replicas" => c.replicas = parse_num(lineno, key, value)?,
        "startup_segments" => c.startup_segments = parse_num(lineno, key, value)?,
        "id_space_slack" => c.id_space_slack = parse_num(lineno, key, value)?,
        "policy" => {
            let mut parts = value.split_whitespace();
            let kind = parts.next().unwrap_or("");
            c.policy = match kind {
                "legacy" => {
                    if parts.next().is_some() {
                        return err(lineno, "policy legacy takes no knobs");
                    }
                    PolicyKind::Legacy
                }
                "adaptive" => {
                    let mut p = cs_core::AdaptivePolicy::default();
                    let knob_tokens: Vec<&str> = parts.collect();
                    reject_duplicate_keys(lineno, &knob_tokens)?;
                    for token in knob_tokens {
                        let (k, v) = kv(token);
                        match k {
                            "target_runway_rounds" => {
                                p.target_runway_rounds = parse_num(lineno, k, v)?
                            }
                            "inbound_slack" => p.inbound_slack = parse_num(lineno, k, v)?,
                            "source_rescue_cap" => p.source_rescue_cap = parse_num(lineno, k, v)?,
                            "source_push" => p.source_push = parse_num(lineno, k, v)?,
                            "join_sponsors" => p.join_sponsors = parse_num(lineno, k, v)?,
                            "join_seed" => p.join_seed = parse_num(lineno, k, v)?,
                            "join_grace_rounds" => p.join_grace_rounds = parse_num(lineno, k, v)?,
                            other => return err(lineno, format!("unknown policy knob `{other}`")),
                        }
                    }
                    PolicyKind::Adaptive(p)
                }
                other => return err(lineno, format!("unknown policy `{other}`")),
            };
        }
        "scheduler" => {
            c.scheduler = match value {
                "continustreaming" => SchedulerKind::ContinuStreaming,
                "coolstreaming" => SchedulerKind::CoolStreaming,
                "random" => SchedulerKind::Random,
                other => return err(lineno, format!("unknown scheduler `{other}`")),
            };
        }
        "churn" => {
            let parts: Vec<&str> = value.split_whitespace().collect();
            if parts.len() < 2 || parts.len() > 3 {
                return err(lineno, "churn takes `leave join [graceful]` fractions");
            }
            let churn = ChurnConfig {
                leave_fraction: parse_num(lineno, "churn leave", parts[0])?,
                join_fraction: parse_num(lineno, "churn join", parts[1])?,
                graceful_fraction: match parts.get(2) {
                    Some(g) => parse_num(lineno, "churn graceful", g)?,
                    None => 0.5,
                },
            };
            // Fractions outside [0, 1] parse as numbers but produce
            // nonsense membership (negative joins, >100 % departures);
            // reject them here with the line number, like the event
            // fraction validation does.
            for (what, v) in [
                ("leave", churn.leave_fraction),
                ("join", churn.join_fraction),
                ("graceful", churn.graceful_fraction),
            ] {
                if !(0.0..=1.0).contains(&v) {
                    return err(lineno, format!("churn {what} fraction {v} outside [0, 1]"));
                }
            }
            c.churn = churn;
        }
        "faults" => {
            let parts: Vec<&str> = value.split_whitespace().collect();
            if parts.len() != 5 {
                return err(
                    lineno,
                    "faults takes `crash data_loss control_loss delay_prob delay_ms`",
                );
            }
            c.faults = FaultPlan {
                crash_rate: parse_unit(lineno, "faults crash", parts[0])?,
                data_loss: parse_unit(lineno, "faults data_loss", parts[1])?,
                control_loss: parse_unit(lineno, "faults control_loss", parts[2])?,
                delay_prob: parse_unit(lineno, "faults delay_prob", parts[3])?,
                delay_ms: parse_num(lineno, "faults delay_ms", parts[4])?,
            };
        }
        other => return err(lineno, format!("unknown configuration key `{other}`")),
    }
    Ok(())
}

fn parse_class(lineno: usize, tokens: &[&str], spec: &mut ScenarioSpec) -> Result<(), ParseError> {
    if tokens.len() < 2 {
        return err(lineno, "class needs a name: `class <name> [key=value…]`");
    }
    let mut class = NodeClass::default_class(tokens[1]);
    reject_duplicate_keys(lineno, &tokens[2..])?;
    for token in &tokens[2..] {
        let (k, v) = kv(token);
        match k {
            "inbound" => class.inbound_kbps = Some(parse_num(lineno, k, v)?),
            "outbound" => class.outbound_kbps = Some(parse_num(lineno, k, v)?),
            "ping" => class.ping_ms = Some(parse_num(lineno, k, v)?),
            "weight" => class.weight = parse_num(lineno, k, v)?,
            other => return err(lineno, format!("unknown class key `{other}`")),
        }
    }
    spec.classes.push(class);
    Ok(())
}

fn parse_session(lineno: usize, v: &str) -> Result<SessionModel, ParseError> {
    if v == "forever" {
        return Ok(SessionModel::Forever);
    }
    let Some((kind, params)) = v.split_once(':') else {
        return err(lineno, format!("session `{v}`: expected `kind:params`"));
    };
    let nums: Vec<f64> = params
        .split(',')
        .map(|p| parse_num(lineno, "session parameter", p))
        .collect::<Result<_, _>>()?;
    match (kind, nums.as_slice()) {
        ("weibull", [shape, scale]) => Ok(SessionModel::Weibull {
            shape: *shape,
            scale_rounds: *scale,
        }),
        _ => err(
            lineno,
            format!("session `{v}`: expected forever or weibull:SHAPE,SCALE"),
        ),
    }
}

fn parse_phase(lineno: usize, tokens: &[&str], spec: &mut ScenarioSpec) -> Result<(), ParseError> {
    if tokens.len() < 2 {
        return err(lineno, "phase needs a range: `phase <start>..<end> …`");
    }
    let Some((start, end)) = tokens[1].split_once("..") else {
        return err(
            lineno,
            format!("phase range `{}`: expected start..end", tokens[1]),
        );
    };
    let mut phase = Phase::quiet(
        parse_num(lineno, "phase start", start)?,
        parse_num(lineno, "phase end", end)?,
    );
    // Reject empty ranges here with the line number, not later in
    // `validate` (which can only say "phase i"): a zero-round phase
    // (`5..5`) is always a spec typo, and `end` is exclusive so it
    // can never fire.
    if phase.start >= phase.end {
        return err(
            lineno,
            format!(
                "phase range `{}`: empty (start must be < end; end is exclusive)",
                tokens[1]
            ),
        );
    }
    reject_duplicate_keys(lineno, &tokens[2..])?;
    for token in &tokens[2..] {
        let (k, v) = kv(token);
        match k {
            "arrivals" => {
                let Some(rate) = v.strip_prefix("poisson:") else {
                    return err(lineno, format!("arrivals `{v}`: expected poisson:RATE"));
                };
                phase.arrivals = ArrivalModel {
                    poisson_rate: parse_num(lineno, "arrival rate", rate)?,
                };
            }
            "session" => phase.session = parse_session(lineno, v)?,
            "graceful" => phase.graceful_fraction = parse_num(lineno, k, v)?,
            "classes" => phase.classes = v.split(',').map(str::to_string).collect(),
            "seek" => {
                let Some((prob, max)) = v.split_once(':') else {
                    return err(lineno, format!("seek `{v}`: expected PROB:MAX_JUMP"));
                };
                phase.vcr.seek_prob = parse_num(lineno, "seek probability", prob)?;
                phase.vcr.seek_max = parse_num(lineno, "seek max jump", max)?;
            }
            "pause" => phase.vcr.pause_prob = parse_num(lineno, k, v)?,
            "resume" => phase.vcr.resume_prob = parse_num(lineno, k, v)?,
            other => return err(lineno, format!("unknown phase key `{other}`")),
        }
    }
    spec.phases.push(phase);
    Ok(())
}

/// One event line's `key=value` and flag tokens. A required key's errors
/// are built from the event kind and the key: `<kind> needs key=X` when
/// it is missing, and `<kind> <key>` labels a value that is unusable.
struct EventArgs<'a> {
    line: usize,
    kind: &'a str,
    args: &'a [&'a str],
}

impl<'a> EventArgs<'a> {
    fn get(&self, key: &str) -> Option<&'a str> {
        self.args
            .iter()
            .map(|t| kv(t))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    fn flag(&self, key: &str) -> bool {
        self.args.contains(&key)
    }

    fn need(&self, key: &str, placeholder: &str) -> Result<&'a str, ParseError> {
        self.get(key).ok_or_else(|| ParseError {
            line: Some(self.line),
            message: format!("{} needs {key}={placeholder}", self.kind),
        })
    }

    /// A required number (`key=N`).
    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, ParseError> {
        let v = self.need(key, "N")?;
        parse_num(self.line, &format!("{} {key}", self.kind), v)
    }

    /// A required value in [0, 1]: `loss=P` is a probability, every
    /// other key a fraction (`key=F`).
    fn unit(&self, key: &str) -> Result<f64, ParseError> {
        let v = self.need(key, if key == "loss" { "P" } else { "F" })?;
        parse_unit(self.line, &format!("{} {key}", self.kind), v)
    }
}

fn parse_event(lineno: usize, tokens: &[&str], spec: &mut ScenarioSpec) -> Result<(), ParseError> {
    if tokens.len() < 3 {
        return err(lineno, "event: `at <round> <kind> [key=value…]`");
    }
    let round = parse_num(lineno, "event round", tokens[1])?;
    let args = &tokens[3..];
    // Reject stray tokens instead of silently ignoring them: a typo
    // like `correlated=true` (bare flags take no value) or `clas=dsl`
    // must not quietly flip the workload being studied.
    let (valued, flags): (&[&str], &[&str]) = match tokens[2] {
        "flash_crowd" => (&["count", "class"], &[]),
        "mass_departure" => (&["fraction"], &["correlated", "graceful"]),
        "seek_storm" => (&["fraction", "jump"], &[]),
        "capacity_shift" => (&["fraction", "class"], &[]),
        "crash_nodes" => (&["count"], &["correlated"]),
        "loss_burst" => (&["loss", "rounds"], &[]),
        "partition_arc" => (&["fraction", "rounds"], &[]),
        "rp_outage" => (&["rounds"], &[]),
        other => return err(lineno, format!("unknown event kind `{other}`")),
    };
    reject_duplicate_keys(lineno, args)?;
    for token in args {
        let (k, v) = kv(token);
        if flags.contains(&k) {
            if token.contains('=') {
                return err(
                    lineno,
                    format!("`{k}` is a bare flag: write `{k}`, not `{token}`"),
                );
            }
        } else if !valued.contains(&k) {
            return err(lineno, format!("unknown {} key `{k}`", tokens[2]));
        } else if v.is_empty() {
            return err(lineno, format!("`{k}` needs a value: `{k}=…`"));
        }
    }
    let ev = EventArgs {
        line: lineno,
        kind: tokens[2],
        args,
    };
    let kind = match ev.kind {
        "flash_crowd" => ScenarioEventKind::FlashCrowd {
            count: ev.num("count")?,
            class: ev.get("class").map(str::to_string),
        },
        "mass_departure" => ScenarioEventKind::MassDeparture {
            fraction: ev.unit("fraction")?,
            correlated: ev.flag("correlated"),
            graceful: ev.flag("graceful"),
        },
        "seek_storm" => ScenarioEventKind::SeekStorm {
            fraction: ev.unit("fraction")?,
            jump: match ev.get("jump") {
                Some(j) => parse_num(lineno, "seek_storm jump", j)?,
                None => 0,
            },
        },
        "capacity_shift" => ScenarioEventKind::CapacityShift {
            fraction: ev.unit("fraction")?,
            class: ev.need("class", "NAME")?.to_string(),
        },
        "crash_nodes" => ScenarioEventKind::CrashNodes {
            count: ev.num("count")?,
            correlated: ev.flag("correlated"),
        },
        "loss_burst" => ScenarioEventKind::LossBurst {
            loss: ev.unit("loss")?,
            rounds: ev.num("rounds")?,
        },
        "partition_arc" => ScenarioEventKind::PartitionArc {
            fraction: ev.unit("fraction")?,
            rounds: ev.num("rounds")?,
        },
        "rp_outage" => ScenarioEventKind::RpOutage {
            rounds: ev.num("rounds")?,
        },
        other => return err(lineno, format!("unknown event kind `{other}`")),
    };
    spec.events.push(TimedEvent { round, kind });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a sample scenario
name = sample
nodes = 120
rounds = 40
seed = 7
scheduler = continustreaming
startup_segments = 30

class dsl inbound=600 outbound=300 weight=3
class fiber inbound=2000 outbound=1000 ping=40

phase 0..40 arrivals=poisson:1.5 session=weibull:0.7,20 classes=dsl,fiber
phase 10..30 seek=0.02:40 pause=0.01 resume=0.3

at 12 flash_crowd count=25 class=dsl
at 20 mass_departure fraction=0.2 correlated
at 25 seek_storm fraction=0.4 jump=-60
at 30 capacity_shift fraction=0.3 class=dsl
";

    #[test]
    fn sample_parses_and_validates() {
        let spec = parse_scenario(SAMPLE).unwrap();
        assert_eq!(spec.name, "sample");
        assert_eq!(spec.config.nodes, 120);
        assert_eq!(spec.config.rounds, 40);
        assert_eq!(spec.classes.len(), 2);
        assert_eq!(spec.phases.len(), 2);
        assert_eq!(spec.events.len(), 4);
        assert_eq!(
            spec.phases[0].session,
            SessionModel::Weibull {
                shape: 0.7,
                scale_rounds: 20.0
            }
        );
        assert!(matches!(
            spec.events[1].kind,
            ScenarioEventKind::MassDeparture {
                correlated: true,
                graceful: false,
                ..
            }
        ));
    }

    #[test]
    fn parse_is_deterministic_and_fingerprintable() {
        let a = parse_scenario(SAMPLE).unwrap();
        let b = parse_scenario(SAMPLE).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec = parse_scenario("# only comments\n\n  # and blanks\n").unwrap();
        assert_eq!(spec.phases.len(), 0);
        assert_eq!(spec.name, "unnamed");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_scenario("nodes = 10\nbogus line here\n").unwrap_err();
        assert_eq!(e.line, Some(2));
        let e = parse_scenario("at 5 flash_crowd\n").unwrap_err();
        assert_eq!(e.line, Some(1));
        assert!(e.message.contains("count"));
    }

    #[test]
    fn missing_event_keys_name_the_kind_and_the_key() {
        for (line, message) in [
            ("flash_crowd", "flash_crowd needs count=N"),
            ("mass_departure", "mass_departure needs fraction=F"),
            ("seek_storm", "seek_storm needs fraction=F"),
            (
                "capacity_shift class=dsl",
                "capacity_shift needs fraction=F",
            ),
            (
                "capacity_shift fraction=0.5",
                "capacity_shift needs class=NAME",
            ),
            ("crash_nodes", "crash_nodes needs count=N"),
            ("loss_burst rounds=2", "loss_burst needs loss=P"),
            ("loss_burst loss=0.5", "loss_burst needs rounds=N"),
            ("partition_arc rounds=2", "partition_arc needs fraction=F"),
            ("partition_arc fraction=0.5", "partition_arc needs rounds=N"),
            ("rp_outage", "rp_outage needs rounds=N"),
        ] {
            let e = parse_scenario(&format!("at 5 {line}\n")).unwrap_err();
            assert_eq!(
                e,
                ParseError {
                    line: Some(1),
                    message: message.into()
                },
                "{line}"
            );
        }
        let e = parse_scenario("at 5 crash_nodes count=x\n").unwrap_err();
        assert_eq!(e.message, "crash_nodes count: cannot parse `x`");
        let e = parse_scenario("at 5 loss_burst loss=2 rounds=1\n").unwrap_err();
        assert_eq!(e.message, "loss_burst loss 2 outside [0, 1]");
    }

    #[test]
    fn stray_event_tokens_are_rejected() {
        // A bare flag written as key=value must fail loudly, not parse
        // as the flag being absent.
        let e = parse_scenario("at 5 mass_departure fraction=0.2 correlated=true\n").unwrap_err();
        assert!(e.message.contains("bare flag"), "{}", e.message);
        // Typoed keys must not be silently ignored.
        let e = parse_scenario("at 5 flash_crowd count=3 clas=dsl\n").unwrap_err();
        assert!(e.message.contains("unknown"), "{}", e.message);
        // Valued keys need values.
        let e = parse_scenario("at 5 seek_storm fraction=0.5 jump\n").unwrap_err();
        assert!(e.message.contains("needs a value"), "{}", e.message);
    }

    #[test]
    fn unknown_class_reference_fails_validation() {
        let e = parse_scenario("at 5 flash_crowd count=3 class=ghost\n").unwrap_err();
        assert!(e.message.contains("ghost"));
        // A whole-spec error has no line to name.
        assert_eq!(e.line, None);
        assert_eq!(e.to_string(), e.message);
    }

    #[test]
    fn policy_key_parses_kind_and_knobs() {
        use cs_core::PolicyKind;
        let spec = parse_scenario("policy = legacy\n").unwrap();
        assert_eq!(spec.config.policy, PolicyKind::Legacy);
        let spec = parse_scenario("policy = adaptive\n").unwrap();
        assert_eq!(spec.config.policy, PolicyKind::adaptive());
        let spec =
            parse_scenario("policy = adaptive inbound_slack=0.2 target_runway_rounds=8\n").unwrap();
        let knobs = spec.config.policy.as_adaptive().unwrap();
        assert_eq!(knobs.inbound_slack, 0.2);
        assert_eq!(knobs.target_runway_rounds, 8);
        // Unaltered knobs keep their defaults.
        assert_eq!(
            knobs.source_push,
            cs_core::AdaptivePolicy::default().source_push
        );
        let e = parse_scenario("policy = adaptive bogus=1\n").unwrap_err();
        assert!(e.message.contains("unknown policy knob"), "{}", e.message);
        let e = parse_scenario("policy = legacy inbound_slack=0.2\n").unwrap_err();
        assert!(e.message.contains("no knobs"), "{}", e.message);
        let e = parse_scenario("policy = maximal\n").unwrap_err();
        assert!(e.message.contains("unknown policy"), "{}", e.message);
    }

    #[test]
    fn removed_keys_and_session_laws_are_rejected() {
        // The scheduler decides whether a run pre-fetches: `prefetch`
        // is no key, whichever value it names.
        for value in ["0", "1"] {
            let e = parse_scenario(&format!("nodes = 50\nprefetch = {value}\n")).unwrap_err();
            assert_eq!(
                e,
                ParseError {
                    line: Some(2),
                    message: "unknown configuration key `prefetch`".into()
                }
            );
        }
        // Steady-state fault rates live on the `faults` line only.
        for key in ["loss", "crash"] {
            let e = parse_scenario(&format!("phase 0..5 {key}=0.1\n")).unwrap_err();
            assert_eq!(e.line, Some(1));
            assert_eq!(e.message, format!("unknown phase key `{key}`"));
        }
        // Forever and Weibull are the session laws; Weibull with shape 1
        // is the exponential one.
        for session in ["exp:5", "lognormal:1,1"] {
            let e = parse_scenario(&format!("phase 0..5 session={session}\n")).unwrap_err();
            assert_eq!(e.line, Some(1));
            assert!(e.message.contains("weibull:SHAPE,SCALE"), "{}", e.message);
        }
        let spec = parse_scenario("phase 0..5 session=weibull:1,5\n").unwrap();
        assert_eq!(
            spec.phases[0].session,
            SessionModel::Weibull {
                shape: 1.0,
                scale_rounds: 5.0
            }
        );
    }

    #[test]
    fn class_weights_must_stay_finite() {
        // An infinite weight makes the arrival draw NaN, and two weights
        // summing past f64::MAX make it infinite: either way every
        // arrival would fall through to the last listed class.
        let e = parse_scenario("class a weight=inf\n").unwrap_err();
        assert!(
            e.message.contains("finite positive weight"),
            "{}",
            e.message
        );
        let e = parse_scenario(
            "class a weight=1e308\nclass b weight=1e308\nphase 0..5 arrivals=poisson:1 classes=a,b\n",
        )
        .unwrap_err();
        assert!(e.message.contains("must be finite"), "{}", e.message);
        // Each class alone, or both in separate phases, is fine.
        assert!(parse_scenario(
            "class a weight=1e308\nclass b weight=1e308\nphase 0..5 classes=a\nphase 0..5 classes=b\n",
        )
        .is_ok());
    }

    #[test]
    fn section_5_2_constants_are_not_keys() {
        // B, p and l are constants of `SystemConfig`: a spec that still
        // sets one fails at its line, even with the value it holds.
        for (key, value) in [
            ("buffer_size", "600"),
            ("playback_rate", "0"),
            ("prefetch_cap", "5"),
        ] {
            let e = parse_scenario(&format!("nodes = 50\n{key} = {value}\n")).unwrap_err();
            assert_eq!(
                e,
                ParseError {
                    line: Some(2),
                    message: format!("unknown configuration key `{key}`")
                }
            );
        }
    }

    #[test]
    fn faults_key_fills_the_plan() {
        let spec = parse_scenario("faults = 0.005 0.01 0.02 0.1 80\n").unwrap();
        assert_eq!(spec.config.faults.crash_rate, 0.005);
        assert_eq!(spec.config.faults.data_loss, 0.01);
        assert_eq!(spec.config.faults.control_loss, 0.02);
        assert_eq!(spec.config.faults.delay_prob, 0.1);
        assert_eq!(spec.config.faults.delay_ms, 80.0);
        let e = parse_scenario("faults = 0.1 0.1\n").unwrap_err();
        assert_eq!(e.line, Some(1));
        assert!(e.message.contains("faults takes"), "{}", e.message);
    }

    #[test]
    fn fault_events_parse() {
        let spec = parse_scenario(
            "rounds = 100\n\
             at 10 crash_nodes count=8 correlated\n\
             at 30 loss_burst loss=0.4 rounds=5\n\
             at 50 partition_arc fraction=0.25 rounds=10\n\
             at 70 rp_outage rounds=15\n",
        )
        .unwrap();
        assert_eq!(
            spec.events[0].kind,
            ScenarioEventKind::CrashNodes {
                count: 8,
                correlated: true
            }
        );
        assert_eq!(
            spec.events[1].kind,
            ScenarioEventKind::LossBurst {
                loss: 0.4,
                rounds: 5
            }
        );
        assert_eq!(
            spec.events[2].kind,
            ScenarioEventKind::PartitionArc {
                fraction: 0.25,
                rounds: 10
            }
        );
        assert_eq!(
            spec.events[3].kind,
            ScenarioEventKind::RpOutage { rounds: 15 }
        );
    }

    #[test]
    fn policy_line_vocabulary_is_the_seven_knobs() {
        use cs_core::AdaptivePolicy;
        // Each kept name lands in its own field and nowhere else.
        type Set = fn(&mut AdaptivePolicy);
        let kept: [(&str, Set); 7] = [
            ("target_runway_rounds=9", |p| p.target_runway_rounds = 9),
            ("inbound_slack=0.5", |p| p.inbound_slack = 0.5),
            ("source_rescue_cap=9", |p| p.source_rescue_cap = 9),
            ("source_push=9", |p| p.source_push = 9),
            ("join_sponsors=9", |p| p.join_sponsors = 9),
            ("join_seed=9", |p| p.join_seed = 9),
            ("join_grace_rounds=9", |p| p.join_grace_rounds = 9),
        ];
        for (token, set) in kept {
            let mut want = AdaptivePolicy::default();
            set(&mut want);
            let spec = parse_scenario(&format!("policy = adaptive {token}\n")).unwrap();
            assert_eq!(spec.config.policy.as_adaptive(), Some(&want), "{token}");
        }
        // The twelve names that became constants of the policy layer
        // are outside input now: a spec that still sets one names a run
        // that no longer exists, so it fails at its line — even with a
        // value the old field would have accepted.
        for (name, old_default) in [
            ("deficit_per_extra_fetch", "4"),
            ("rescue_cap_max", "16"),
            ("suppress_slope", "8"),
            ("occupancy_floor", "0.85"),
            ("lookahead_factor", "2.0"),
            ("rarity_bias", "0.5"),
            ("supplier_timeout_rounds", "2"),
            ("retry_max", "3"),
            ("backoff_base_rounds", "1"),
            ("backoff_factor", "2"),
            ("backoff_jitter_rounds", "1"),
            ("evict_rounds", "8"),
        ] {
            let text =
                format!("nodes = 50\npolicy = adaptive inbound_slack=0.2 {name}={old_default}\n");
            let e = parse_scenario(&text).unwrap_err();
            assert_eq!(e.line, Some(2), "{name}");
            assert_eq!(e.message, format!("unknown policy knob `{name}`"));
        }
    }

    #[test]
    fn joiner_knobs_parse_on_the_policy_line() {
        let spec =
            parse_scenario("policy = adaptive join_sponsors=4 join_seed=16 join_grace_rounds=10\n")
                .unwrap();
        let knobs = spec.config.policy.as_adaptive().unwrap();
        assert_eq!(knobs.join_sponsors, 4);
        assert_eq!(knobs.join_seed, 16);
        assert_eq!(knobs.join_grace_rounds, 10);
        // The knobs default off: a bare adaptive line leaves them 0.
        let spec = parse_scenario("policy = adaptive\n").unwrap();
        let knobs = spec.config.policy.as_adaptive().unwrap();
        assert_eq!(knobs.join_sponsors, 0);
        assert_eq!(knobs.join_seed, 0);
        assert_eq!(knobs.join_grace_rounds, 0);
    }

    #[test]
    fn out_of_range_churn_fractions_are_rejected_with_line_numbers() {
        // In range (boundaries included) still parses.
        let spec = parse_scenario("churn = 0.0 1.0 0.5\n").unwrap();
        assert_eq!(spec.config.churn.leave_fraction, 0.0);
        assert_eq!(spec.config.churn.join_fraction, 1.0);
        // Out-of-range fractions used to parse as numbers and silently
        // produce nonsense membership; now each names its component and
        // the offending line.
        let e = parse_scenario("nodes = 50\nchurn = 1.5 0.05\n").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(
            e.message
                .contains("churn leave fraction 1.5 outside [0, 1]"),
            "{}",
            e.message
        );
        let e = parse_scenario("churn = 0.05 -0.1\n").unwrap_err();
        assert_eq!(e.line, Some(1));
        assert!(e.message.contains("churn join"), "{}", e.message);
        let e = parse_scenario("churn = 0.05 0.05 -2\n").unwrap_err();
        assert!(e.message.contains("churn graceful"), "{}", e.message);
        let e = parse_scenario("churn = 0.05 0.05 1.01\n").unwrap_err();
        assert!(e.message.contains("outside [0, 1]"), "{}", e.message);
    }

    #[test]
    fn out_of_range_fault_rates_are_rejected_with_line_numbers() {
        // Boundaries still parse (a rate of exactly 0 or 1 is legal).
        let spec = parse_scenario("faults = 1.0 0.0 0.0 0.0 0.0\n").unwrap();
        assert_eq!(spec.config.faults.crash_rate, 1.0);
        // Every probability column names itself and the offending line
        // (delay_ms is a duration, not a probability, and is exempt).
        let e = parse_scenario("nodes = 50\nfaults = 1.5 0.0 0.0 0.0 0.0\n").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("faults crash"), "{}", e.message);
        let e = parse_scenario("faults = 0.0 -0.2 0.0 0.0 0.0\n").unwrap_err();
        assert!(e.message.contains("faults data_loss"), "{}", e.message);
        let e = parse_scenario("faults = 0.0 0.0 2.0 0.0 0.0\n").unwrap_err();
        assert!(e.message.contains("faults control_loss"), "{}", e.message);
        let e = parse_scenario("faults = 0.0 0.0 0.0 1.01 0.0\n").unwrap_err();
        assert!(e.message.contains("faults delay_prob"), "{}", e.message);
        assert!(parse_scenario("faults = 0.0 0.0 0.0 0.0 80\n").is_ok());
    }

    #[test]
    fn out_of_range_event_probabilities_are_rejected_with_line_numbers() {
        for (line, key) in [
            (
                "at 5 mass_departure fraction=1.2",
                "mass_departure fraction",
            ),
            ("at 5 seek_storm fraction=-0.5", "seek_storm fraction"),
            (
                "at 5 capacity_shift fraction=7 class=dsl",
                "capacity_shift fraction",
            ),
            ("at 5 loss_burst loss=1.5 rounds=3", "loss_burst loss"),
            (
                "at 5 partition_arc fraction=NaN rounds=3",
                "partition_arc fraction",
            ),
        ] {
            let e = parse_scenario(&format!("nodes = 50\n{line}\n")).unwrap_err();
            assert_eq!(e.line, Some(2), "{line}");
            assert!(
                e.message.contains(key) && e.message.contains("outside [0, 1]"),
                "`{line}`: {}",
                e.message
            );
        }
        // Boundary values still parse.
        assert!(parse_scenario("class dsl inbound=600 outbound=300\nat 5 mass_departure fraction=1.0\nat 6 loss_burst loss=0.0 rounds=2\n").is_ok());
    }

    #[test]
    fn duplicate_keys_are_rejected_everywhere() {
        let e = parse_scenario("at 5 flash_crowd count=3 count=5\n").unwrap_err();
        assert_eq!(e.line, Some(1));
        assert!(e.message.contains("duplicate"), "{}", e.message);
        let e = parse_scenario("phase 0..5 pause=0.1 pause=0.2\n").unwrap_err();
        assert!(e.message.contains("duplicate"), "{}", e.message);
        let e = parse_scenario("class dsl inbound=600 inbound=700\n").unwrap_err();
        assert!(e.message.contains("duplicate"), "{}", e.message);
        let e = parse_scenario("policy = adaptive join_seed=2 join_seed=3\n").unwrap_err();
        assert!(e.message.contains("duplicate"), "{}", e.message);
        let e = parse_scenario("at 5 crash_nodes count=3 correlated correlated\n").unwrap_err();
        assert!(e.message.contains("duplicate"), "{}", e.message);
        // A configuration key set twice names both lines (last-one-wins
        // would run 60 nodes here without a word); whitespace around the
        // key does not hide the repeat.
        let e = parse_scenario("nodes = 50\nrounds = 5\n  nodes=60\n").unwrap_err();
        assert_eq!(e.line, Some(3));
        assert!(
            e.message.contains("duplicate key `nodes`") && e.message.contains("line 1"),
            "{}",
            e.message
        );
    }

    #[test]
    fn invalid_run_configuration_fails_the_parse() {
        // Every token parses, but the assembled configuration cannot
        // run: an error here, not a panic inside `SystemSim::new`.
        for (text, needle) in [
            ("nodes = 1\n", "at least a source"),
            ("nodes = 50\nneighbors = 60\n", "below the node count"),
            // The scheduler carries a node's suppliers as a 64-bit mask.
            ("nodes = 100\nneighbors = 65\n", "at most 64 neighbours"),
            ("rounds = 0\n", "at least one round"),
            // Past the 20-bit segment id; the per-round rows sized from
            // it used to abort the process at construction.
            ("rounds = 4000000000\n", "at most 104857 rounds"),
            ("policy = adaptive inbound_slack=NaN\n", "inbound_slack"),
            (
                "policy = adaptive join_seed=1 target_runway_rounds=0\n",
                "target_runway_rounds",
            ),
            // A runway the 600-segment buffer can never hold — and the
            // depth per-node rescue tables are pre-sized from: these
            // two used to panic / abort in `SystemSim::new`.
            (
                "policy = adaptive target_runway_rounds=18446744073709551615\n",
                "more runway than the 600-segment buffer",
            ),
            (
                "policy = adaptive target_runway_rounds=1000000000000\n",
                "more runway than the 600-segment buffer",
            ),
            ("faults = 0.0 0.0 0.0 0.0 -5\n", "delay_ms"),
        ] {
            let e = parse_scenario(text).unwrap_err();
            assert!(e.message.contains(needle), "`{text}`: {}", e.message);
        }
    }

    #[test]
    fn out_of_range_fault_event_fails_validation() {
        assert!(parse_scenario("at 5 loss_burst loss=1.5 rounds=3\n").is_err());
        assert!(parse_scenario("at 5 loss_burst loss=0.5 rounds=0\n").is_err());
        assert!(parse_scenario("at 5 partition_arc fraction=2.0 rounds=3\n").is_err());
        assert!(parse_scenario("at 5 rp_outage rounds=0\n").is_err());
    }

    #[test]
    fn zero_round_phase_is_rejected_with_line_number() {
        // `5..5` spans zero rounds (end is exclusive): always a typo,
        // and it must fail at the offending line — not later in
        // `validate`, which cannot name the line.
        let e = parse_scenario("nodes = 50\nrounds = 40\nphase 5..5 pause=0.1\n").unwrap_err();
        assert_eq!(e.line, Some(3));
        assert!(
            e.message.contains("empty") && e.message.contains("5..5"),
            "{}",
            e.message
        );
        // Inverted ranges take the same path.
        let e = parse_scenario("phase 9..3\n").unwrap_err();
        assert_eq!(e.line, Some(1));
        assert!(e.message.contains("empty"), "{}", e.message);
        // One round is the smallest legal phase.
        assert!(parse_scenario("rounds = 40\nphase 5..6 pause=0.1\n").is_ok());
    }

    #[test]
    fn trailing_garbage_numeric_suffixes_are_rejected_with_line_numbers() {
        // `str::parse` is strict, so `40x` must die at the token with
        // the line number — pinned here so a future lenient parser
        // cannot silently truncate.
        let e = parse_scenario("nodes = 50\nphase 0..40x\n").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(
            e.message.contains("phase end") && e.message.contains("40x"),
            "{}",
            e.message
        );
        let e = parse_scenario("phase 0x..40\n").unwrap_err();
        assert!(e.message.contains("phase start"), "{}", e.message);
        let e = parse_scenario("nodes = 50abc\n").unwrap_err();
        assert_eq!(e.line, Some(1));
        assert!(e.message.contains("nodes"), "{}", e.message);
        let e = parse_scenario("at 5x flash_crowd count=3\n").unwrap_err();
        assert!(e.message.contains("event round"), "{}", e.message);
    }
}
