//! `nonfifo` — the command-line face of the reproduction.
//!
//! ```text
//! nonfifo simulate <protocol> <channel> [--messages N] [--seed S] [--q Q]
//!                  [--loss L] [--bound B] [--spread D] [--payloads]
//!                  [--metrics] [--metrics-out FILE] [--trace-out FILE]
//! nonfifo chaos    <protocol> --plan FILE [--seed S] [--messages N]
//!                  [--crash-tx S] [--crash-rx S] [--retry] [--dump FILE]
//!                  [--metrics] [--metrics-out FILE] [--trace-out FILE]
//! nonfifo attack   <protocol> [mf|pf|greedy] [--messages N] [--dump FILE]
//! nonfifo explore  <protocol> [--messages N] [--depth D] [--pool P]
//!                  [--max-states M] [--discipline nonfifo|reorder<b>|lossy]
//!                  [--parallel] [--threads N] [--por] [--differential]
//!                  [--visited ram|tiered]
//!                  [--memory-budget BYTES]
//!                  [--no-shrink] [--metrics]
//!                  [--metrics-out FILE] [--trace-out FILE]
//! nonfifo campaign <plan-file> [--threads N] [--cache FILE]
//!                  [--metrics-out FILE]
//! nonfifo serve    [--addr HOST:PORT] [--workers N] [--cache FILE]
//! nonfifo schedule <protocol> <attack-file> [--diagram]
//! nonfifo recheck  <trace-file> [--diagram]
//! nonfifo report   [--exp eN]
//! nonfifo list
//! nonfifo help | --help | -h
//! ```
//!
//! Outcome-bearing subcommands (`explore`, `simulate`, `chaos`, `campaign`)
//! share one exit-code contract, applied in exactly one place
//! ([`exit_code`]) over the workspace-wide [`NonFifoError`]: 0 = clean run /
//! exhaustive certificate, 2 = counterexample or specification violation,
//! 3 = stall, exhausted state budget or panicked campaign run
//! (inconclusive), 4 = differential mismatch between engines,
//! 1 = operational error (bad usage, I/O, parse).
//! A reader that closes stdout early (`nonfifo explore ... | head -1`) only
//! silences the rest of the output: the command still finishes, writes its
//! files and exits with its usual code.
//!
//! Telemetry flags are shared by `simulate`, `chaos`, and `explore`:
//! `--metrics` prints a human summary, `--metrics-out FILE` writes the
//! schema-versioned metrics JSON, and `--trace-out FILE` writes a Chrome
//! `trace_events` document. Telemetry never changes a run's outcome.

mod args;
mod registry;

use args::{Args, ArgsError, CommonOpts};
use nonfifo_adversary::{
    shrink, Discipline, ExploreConfig, ExploreOutcome, Explorer, FalsifyOutcome,
    GreedyReplayAdversary, MfConfig, MfFalsifier, PfConfig, PfFalsifier, Streamed, VisitedSpec,
    LEVEL_BLOCK_BYTES,
};
use nonfifo_core::{CrashEvent, CrashMode, NonFifoError, SimConfig, SimError, Station};
use nonfifo_telemetry::{Registry, TraceSink};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `print!` for this binary: std's, except through [`write_stdout`], so a
/// closed stdout silences output instead of panicking.
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for this binary; see [`print!`].
macro_rules! println {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Set once stdout's reader has gone away; later output is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout like std's `print!`, but treats a broken pipe as the
/// reader's wish to stop reading rather than as a bug: the rest of the
/// output is dropped and the command carries on to its exit code.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

const USAGE: &str = "\
nonfifo — executable reproduction of Mansour & Schieber (PODC 1989)

usage:
  nonfifo simulate <protocol> <channel> [--messages N] [--seed S] [--q Q]
                   [--loss L] [--bound B] [--spread D] [--payloads]
                   [--metrics] [--metrics-out FILE] [--trace-out FILE]
  nonfifo chaos    <protocol> --plan FILE [--seed S] [--messages N]
                   [--crash-tx S] [--crash-rx S] [--restore] [--retry]
                   [--backoff B] [--budget B] [--faults] [--dump FILE]
                   [--metrics] [--metrics-out FILE] [--trace-out FILE]
  nonfifo attack   <protocol> [mf|pf|greedy] [--messages N] [--dump FILE]
  nonfifo explore  <protocol> [--messages N] [--depth D] [--pool P]
                   [--max-states M] [--discipline nonfifo|reorder<b>|lossy]
                   [--parallel] [--threads N] [--por] [--differential]
                   [--visited ram|tiered]
                   [--memory-budget BYTES]
                   [--no-shrink] [--metrics]
                   [--metrics-out FILE] [--trace-out FILE]
  nonfifo campaign <plan-file> [--threads N] [--cache FILE]
                   [--metrics-out FILE]
  nonfifo serve    [--addr HOST:PORT] [--workers N] [--cache FILE]
  nonfifo stabilize --protocol P [--seeds N] [--severity light|medium|heavy]
                   [--discipline D] [--messages M] [--budget B] [--plan FILE]
  nonfifo schedule <protocol> <attack-file> [--diagram]
  nonfifo recheck  <trace-file> [--diagram]
  nonfifo report   [--exp e1..e11,e13,e14,e15,e16]
  nonfifo list
  nonfifo help | --help | -h

explore exit codes: 0 certificate, 2 counterexample, 3 inconclusive
(state budget), 4 differential mismatch. stabilize exits 5 when the
protocol fails to converge from a corrupted start within the bound.

explore --por enables partial-order reduction (sleep-set deferral of
inert deliveries; effective under the nonfifo discipline): same
verdicts, far fewer states per scope. With --differential the reduced
run is checked against the full explorer (outcome kind, counterexample
depth, shrunk attack script) instead of the byte-report comparison the
flag performs between the sequential and parallel engines otherwise.

explore --visited picks the visited-set tier: ram (in-RAM — the
default) or tiered (spills sorted disk runs when the resident estimate
exceeds --memory-budget bytes). Both are exact: reports are
byte-identical at any budget. --memory-budget alone selects tiered;
with --visited ram it is a usage error. A bare --visited tiered takes a
1 GiB (2^30 bytes) budget; the effective budget — default or not — is
always printed in the scope banner. The budget bounds the visited keys.
Under any budget the parallel engine also streams every frontier level
and every finished level's path records through spill files in the
temp directory, and takes each level in slices of budget/64 frontier
nodes (at least 1024), so it holds two 8 KiB frontier blocks per thread,
one slice's candidates and the level in flight's path records in RAM.
On disk the frontier takes two levels at a time and the path records 8
bytes per state. The sequential oracle keeps its queue in RAM.

explore --threads, campaign --threads and serve --workers take at most
64 threads; 0, the default, means one per core.

telemetry: --metrics prints a summary table; --metrics-out writes the
schema-versioned metrics JSON; --trace-out writes a Chrome trace_events
JSON (load in chrome://tracing or Perfetto).

campaign exit codes: 0 every run delivered, 2 some run violated its
spec or diverged, 3 otherwise: some run stalled, or a run panics (the
panic is caught, recorded as that run's outcome, and never cached).

serve runs the campaign daemon: POST a plan (or a submit wire message)
to /campaign and read the NDJSON result stream; GET /metrics for the
service registry; POST /shutdown to exit. Each campaign runs on
--workers threads (default: one per core); reports are byte-identical
to `nonfifo campaign` at any worker count.
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `help`, `help <cmd>`, `--help` and `-h` anywhere: the usage is the
    // answer, not an error.
    if raw.first().is_some_and(|a| a == "help") || raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match dispatch(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let code = exit_code(&e);
            if code == 1 {
                // Operational failure: the run never happened, so explain.
                eprintln!("error: {e}");
                // Only a malformed invocation is answered with the usage;
                // a bad file or a failed write is not fixed by reading it.
                if matches!(e, NonFifoError::Usage(_)) {
                    eprintln!("\n{USAGE}");
                }
            }
            // Outcome codes (2/3/4): the subcommand already reported the
            // finding in full; the code is the machine-readable verdict.
            ExitCode::from(code)
        }
    }
}

fn dispatch(raw: Vec<String>) -> Result<(), NonFifoError> {
    let args = Args::parse(
        raw,
        &[
            "payloads",
            "diagram",
            "restore",
            "retry",
            "faults",
            "parallel",
            "differential",
            "no-shrink",
            "por",
            "metrics",
        ],
    )?;
    match args.positional(0) {
        Some("simulate") => cmd_simulate(&args),
        Some("chaos") => cmd_chaos(&args),
        Some("attack") => Ok(cmd_attack(&args)?),
        Some("explore") => cmd_explore(&args),
        Some("campaign") => cmd_campaign(&args),
        Some("serve") => cmd_serve(&args),
        Some("stabilize") => cmd_stabilize(&args),
        Some("schedule") => Ok(cmd_schedule(&args)?),
        Some("recheck") => Ok(cmd_recheck(&args)?),
        Some("report") => Ok(cmd_report(&args)?),
        Some("list") => {
            cmd_list();
            Ok(())
        }
        _ => Err(NonFifoError::Usage("missing or unknown subcommand".into())),
    }
}

/// The one exit-code mapping. Scripts branch on these, so a truncated
/// search must stay distinguishable from a certificate and a violation
/// from an operational failure.
fn exit_code(err: &NonFifoError) -> u8 {
    match err {
        NonFifoError::Usage(_) | NonFifoError::Io { .. } | NonFifoError::Plan(_) => 1,
        NonFifoError::Sim(SimError::Violation(_)) | NonFifoError::Counterexample { .. } => 2,
        NonFifoError::CampaignFailed { violations, .. } if *violations > 0 => 2,
        NonFifoError::Sim(SimError::Stalled { .. })
        | NonFifoError::Truncated { .. }
        | NonFifoError::CampaignFailed { .. } => 3,
        NonFifoError::DifferentialMismatch => 4,
        // Failing to *recover* is its own verdict: a clean-start
        // misbehavior earns 2, but a protocol that never converges from a
        // corrupted start earns 5 so scripts can tell the two apart.
        NonFifoError::ConvergenceFailed { .. } => 5,
    }
}

/// Builds the telemetry sinks the common options asked for. A registry is
/// created whenever any sink is requested (runs attach metrics and trace
/// through one handle); the trace sink only when `--trace-out` was given.
fn telemetry_sinks(opts: &CommonOpts) -> (Option<Arc<Registry>>, Option<Arc<TraceSink>>) {
    let registry = (opts.wants_metrics() || opts.wants_trace()).then(|| Arc::new(Registry::new()));
    let trace = opts.wants_trace().then(|| Arc::new(TraceSink::new()));
    (registry, trace)
}

/// Prints and/or writes whatever telemetry the run collected, as requested
/// by `--metrics`, `--metrics-out`, and `--trace-out`.
fn export_telemetry(
    opts: &CommonOpts,
    registry: Option<&Arc<Registry>>,
    trace: Option<&Arc<TraceSink>>,
) -> Result<(), ArgsError> {
    if let Some(registry) = registry {
        let snapshot = registry.snapshot();
        if opts.metrics_summary {
            println!("\nmetrics:\n{}", snapshot.summary());
        }
        if let Some(path) = &opts.metrics_out {
            std::fs::write(path, snapshot.to_json())
                .map_err(|e| ArgsError(format!("cannot write {path}: {e}")))?;
            println!("metrics written to {path}");
        }
    }
    if let (Some(trace), Some(path)) = (trace, &opts.trace_out) {
        std::fs::write(path, trace.to_chrome_json())
            .map_err(|e| ArgsError(format!("cannot write {path}: {e}")))?;
        println!("trace written to {path}");
    }
    Ok(())
}

fn cmd_list() {
    println!("protocols:");
    for (name, desc) in registry::PROTOCOLS {
        println!("  {name:<14} {desc}");
    }
    println!("\nchannels:");
    for (name, desc) in registry::CHANNELS {
        println!("  {name:<14} {desc}");
    }
}

fn cmd_simulate(args: &Args) -> Result<(), NonFifoError> {
    if args.positional_count() > 3 {
        return Err(ArgsError("simulate takes exactly two positionals".into()).into());
    }
    let proto = args
        .positional(1)
        .ok_or_else(|| ArgsError("simulate needs a protocol".into()))?;
    let channel = args
        .positional(2)
        .ok_or_else(|| ArgsError("simulate needs a channel".into()))?;
    let messages: u64 = args.option_or("messages", 100)?;
    let opts = CommonOpts::from_args(args)?;
    let mut sim = registry::simulation(proto, channel, args, &opts)?;
    let (metrics, trace) = telemetry_sinks(&opts);
    if let Some(registry) = &metrics {
        sim.attach_telemetry(Arc::clone(registry), trace.clone());
    }
    let cfg = SimConfig {
        payloads: args.flag("payloads"),
        ..SimConfig::default()
    };
    let result = sim.deliver(messages, &cfg);
    sim.publish_metrics();
    match result {
        Ok(stats) => {
            println!("{proto} over {channel}:");
            println!("  messages delivered : {}", stats.messages_delivered);
            println!("  forward packets    : {}", stats.packets_sent_forward);
            println!("  backward packets   : {}", stats.packets_sent_backward);
            println!("  distinct headers   : {}", stats.distinct_forward_packets);
            println!("  steps              : {}", stats.steps);
            println!("  peak space (bytes) : {}", stats.peak_space_bytes);
            println!("  in transit at end  : {}", stats.final_in_transit);
            if args.flag("payloads") {
                let expect: Vec<u64> = (0..messages).collect();
                println!(
                    "  payload order      : {}",
                    if stats.delivered_payloads == expect {
                        "intact"
                    } else {
                        "CORRUPT"
                    }
                );
            }
            export_telemetry(&opts, metrics.as_ref(), trace.as_ref())?;
            Ok(())
        }
        Err(e) => {
            println!("run failed: {e}");
            export_telemetry(&opts, metrics.as_ref(), trace.as_ref())?;
            Err(e.into())
        }
    }
}

fn cmd_chaos(args: &Args) -> Result<(), NonFifoError> {
    use nonfifo_channel::FaultPlan;
    let proto_name = args
        .positional(1)
        .ok_or_else(|| ArgsError("chaos needs a protocol".into()))?;
    let plan_path = args
        .option("plan")
        .ok_or_else(|| ArgsError("chaos needs --plan FILE".into()))?;
    let opts = CommonOpts::from_args(args)?;
    let seed = opts.seed;
    let messages: u64 = args.option_or("messages", 100)?;
    let text = std::fs::read_to_string(plan_path).map_err(|e| NonFifoError::io(plan_path, &e))?;
    // A malformed plan is a usage error at load time (exit 1), reported
    // with the file and line so the fix is one glance away — not a
    // mid-run surprise.
    let plan = FaultPlan::parse(&text)
        .map_err(|e| NonFifoError::Usage(format!("{plan_path}:{}: {}", e.line, e.message)))?;

    let mode = if args.flag("restore") {
        CrashMode::Restore
    } else {
        CrashMode::Amnesia
    };
    let mut crash_plan = Vec::new();
    if let Some(s) = args.option("crash-tx") {
        let at_step = s
            .parse::<u64>()
            .map_err(|e| ArgsError(format!("bad --crash-tx {s:?}: {e}")))?;
        crash_plan.push(CrashEvent {
            at_step,
            station: Station::Tx,
            mode,
        });
    }
    if let Some(s) = args.option("crash-rx") {
        let at_step = s
            .parse::<u64>()
            .map_err(|e| ArgsError(format!("bad --crash-rx {s:?}: {e}")))?;
        crash_plan.push(CrashEvent {
            at_step,
            station: Station::Rx,
            mode,
        });
    }
    let cfg = SimConfig {
        payloads: args.flag("payloads"),
        max_steps_per_message: args.option_or("budget", 100_000)?,
        crash_plan,
        restart_backoff: args.option_or("backoff", 0)?,
        retry_lost_messages: args.flag("retry"),
        ..SimConfig::default()
    };

    let mut sim = registry::chaos_simulation(proto_name, &plan, seed)?;
    let (metrics, trace) = telemetry_sinks(&opts);
    if let Some(registry) = &metrics {
        sim.attach_telemetry(Arc::clone(registry), trace.clone());
    }
    println!("chaos run: {proto_name}, seed {seed}, plan {plan_path}");
    if plan.is_quiet() && cfg.crash_plan.is_empty() {
        println!("  (the plan injects no faults and schedules no crashes)");
    }
    let result = sim.deliver(messages, &cfg);
    sim.publish_metrics();
    match &result {
        Ok(stats) => {
            println!("  messages delivered : {}", stats.messages_delivered);
            println!("  forward packets    : {}", stats.packets_sent_forward);
            println!("  backward packets   : {}", stats.packets_sent_backward);
            println!("  faults injected    : {}", stats.faults_injected);
            println!("  crashes applied    : {}", stats.crashes_applied);
            println!("  steps              : {}", stats.steps);
            println!("  fingerprint        : {:016x}", stats.fingerprint);
            if args.flag("faults") {
                for line in sim.fault_log() {
                    println!("  fault: {line}");
                }
            }
        }
        Err(SimError::Stalled { diagnostic, .. }) => {
            println!("outcome: STALLED");
            println!("{diagnostic}");
            let path = args.option("dump").unwrap_or("stall-repro.attack");
            std::fs::write(path, &diagnostic.repro_schedule)
                .map_err(|e| NonFifoError::io(path, &e))?;
            println!(
                "repro schedule written to {path} (replay with `nonfifo schedule {proto_name} {path}`)"
            );
        }
        Err(SimError::Violation(v)) => {
            println!("outcome: INVALID EXECUTION — {v}");
        }
    }
    // Faulted runs still export telemetry: the counters are exactly what a
    // post-mortem wants.
    export_telemetry(&opts, metrics.as_ref(), trace.as_ref())?;
    result.map(|_| ()).map_err(NonFifoError::from)
}

fn cmd_attack(args: &Args) -> Result<(), ArgsError> {
    let proto_name = args
        .positional(1)
        .ok_or_else(|| ArgsError("attack needs a protocol".into()))?;
    let proto = registry::protocol(proto_name)?;
    let adversary = args.positional(2).unwrap_or("mf");
    let messages: u64 = args.option_or("messages", 64)?;
    println!(
        "attacking {} ({}) with {adversary}…\n",
        proto.name(),
        proto.forward_headers()
    );
    let outcome = match adversary {
        "mf" => MfFalsifier::new(MfConfig {
            max_messages: messages,
            ..MfConfig::default()
        })
        .run(proto.as_ref()),
        "pf" => {
            let (outcome, costs) = PfFalsifier::new(PfConfig {
                messages,
                ..PfConfig::default()
            })
            .run(proto.as_ref());
            if !costs.is_empty() {
                println!("cost curve (in transit → extension sends):");
                for c in costs.iter().step_by(costs.len().div_ceil(8).max(1)) {
                    println!("  {:>5} → {:<5}", c.in_transit_before, c.extension_sends);
                }
                println!();
            }
            outcome
        }
        "greedy" => GreedyReplayAdversary {
            capture_messages: messages.min(32),
            ..GreedyReplayAdversary::default()
        }
        .run(proto.as_ref()),
        other => return Err(ArgsError(format!("unknown adversary {other:?}"))),
    };
    match outcome {
        FalsifyOutcome::Violation(report) => {
            let c = report.execution.counts();
            println!("INVALID EXECUTION: {}", report.violation);
            println!("  sm = {}, rm = {} (rm = sm + 1)", c.sm, c.rm);
            if let Some(path) = args.option("dump") {
                std::fs::write(path, nonfifo_ioa::text::write_text(&report.execution))
                    .map_err(|e| ArgsError(format!("cannot write {path}: {e}")))?;
                println!("  trace written to {path} (recheck with `nonfifo recheck {path}`)");
            }
        }
        FalsifyOutcome::Survived(report) => {
            println!("survived the adversary:");
            println!("  messages delivered : {}", report.messages_delivered);
            println!("  forward packets    : {}", report.forward_packets_sent);
            println!("  copies in transit  : {}", report.final_in_transit);
        }
        FalsifyOutcome::Stuck { delivered } => {
            println!("protocol wedged under an optimal channel after {delivered} messages");
        }
        FalsifyOutcome::BudgetExhausted {
            delivered,
            forward_packets_sent,
        } => {
            println!("safety held but cost exploded: {delivered} messages, {forward_packets_sent} packets");
        }
    }
    Ok(())
}

/// State count carried by a non-counterexample outcome.
fn states_of(outcome: &ExploreOutcome) -> Option<usize> {
    match outcome {
        ExploreOutcome::Exhausted { states } | ExploreOutcome::Truncated { states } => {
            Some(*states)
        }
        ExploreOutcome::Counterexample { .. } => None,
    }
}

/// Compares a `--por` outcome against the full oracle's: same outcome
/// kind, same shortest-counterexample depth, and — when the shrinker is
/// applicable (clean boot) — the same minimal attack script after
/// [`shrink`]. State counts are *expected* to differ (that is the
/// reduction); report bytes are not compared. Returns a description of the
/// first divergence, or `None` on agreement.
fn por_differential_mismatch(
    proto: &dyn nonfifo_protocols::DataLink,
    cfg: &ExploreConfig,
    reduced: &ExploreOutcome,
    full: &ExploreOutcome,
) -> Option<String> {
    match (reduced, full) {
        (
            ExploreOutcome::Counterexample {
                depth: dr,
                schedule: sr,
                ..
            },
            ExploreOutcome::Counterexample {
                depth: df,
                schedule: sf,
                ..
            },
        ) => {
            if dr != df {
                return Some(format!(
                    "shortest counterexample depths differ (reduced {dr}, full {df})"
                ));
            }
            // Engines may legitimately return different same-depth attacks;
            // the shrinker normalises both to a minimal script. Corrupted
            // starts skip this (the shrinker replays from a clean boot).
            if cfg.corrupt_start.is_none() {
                match (shrink(proto, sr), shrink(proto, sf)) {
                    (Ok(a), Ok(b)) => {
                        if a.schedule != b.schedule {
                            return Some("shrunk attack scripts differ".into());
                        }
                    }
                    (r, f) => {
                        return Some(format!(
                            "shrinker failed (reduced {:?}, full {:?})",
                            r.err(),
                            f.err()
                        ));
                    }
                }
            }
            None
        }
        (ExploreOutcome::Exhausted { .. }, ExploreOutcome::Exhausted { .. })
        | (ExploreOutcome::Truncated { .. }, ExploreOutcome::Truncated { .. }) => None,
        // A reduced certificate against a full truncation is the reduction
        // working as intended (same scope, smaller state count), not a
        // soundness violation — the full engine ran out of budget, it did
        // not disagree.
        (ExploreOutcome::Exhausted { .. }, ExploreOutcome::Truncated { .. }) => None,
        _ => Some(format!(
            "outcome kinds differ (reduced {}, full {})",
            outcome_kind(reduced),
            outcome_kind(full)
        )),
    }
}

fn outcome_kind(outcome: &ExploreOutcome) -> &'static str {
    match outcome {
        ExploreOutcome::Counterexample { .. } => "counterexample",
        ExploreOutcome::Exhausted { .. } => "certificate",
        ExploreOutcome::Truncated { .. } => "inconclusive",
    }
}

/// Every option `explore` reads; any other is a usage error.
const EXPLORE_OPTIONS: &[&str] = &[
    "messages",
    "depth",
    "pool",
    "max-states",
    "states",
    "discipline",
    "corrupt-start",
    "threads",
    "visited",
    "memory-budget",
    "metrics-out",
    "trace-out",
];

/// Every boolean flag `explore` reads.
const EXPLORE_FLAGS: &[&str] = &["parallel", "por", "differential", "no-shrink", "metrics"];

fn cmd_explore(args: &Args) -> Result<(), NonFifoError> {
    args.only(EXPLORE_OPTIONS, EXPLORE_FLAGS)?;
    let proto_name = args
        .positional(1)
        .ok_or_else(|| ArgsError("explore needs a protocol".into()))?;
    let proto = registry::protocol(proto_name)?;
    let discipline: Discipline = match args.option("discipline") {
        None => Discipline::NonFifo,
        Some(s) => s.parse().map_err(ArgsError)?,
    };
    // `--states` is the historical spelling of `--max-states`.
    let default_states: usize = args.option_or("states", 500_000)?;
    let corrupt_start = match args.option("corrupt-start") {
        None => None,
        Some(s) => Some(
            s.parse::<u64>()
                .map_err(|_| ArgsError(format!("--corrupt-start needs a u64 seed, got {s:?}")))?,
        ),
    };
    let cfg = ExploreConfig {
        max_messages: args.option_or("messages", 3)?,
        max_depth: args.option_or("depth", 12)?,
        max_pool: args.option_or("pool", 5)?,
        max_states: args.option_or("max-states", default_states)?,
        discipline,
        corrupt_start,
        por: args.flag("por"),
    };
    if cfg.max_states == 0 {
        return Err(ArgsError("--max-states must admit at least the root state".into()).into());
    }
    // A budget alone picks the tiered set; only `--visited ram` refuses one.
    let budget = args.option("memory-budget");
    let tier = args.option("visited").or(budget.map(|_| "tiered"));
    let mut spec: VisitedSpec = tier.unwrap_or("ram").parse().map_err(ArgsError)?;
    if let Some(text) = budget {
        let bytes: usize = text
            .parse()
            .map_err(|_| ArgsError(format!("--memory-budget needs a byte count, got {text:?}")))?;
        if matches!(spec, VisitedSpec::Ram) {
            return Err(ArgsError("--memory-budget does not apply to --visited ram".into()).into());
        }
        spec = spec.with_budget(bytes);
    }
    let budget_defaulted = budget.is_none() && !matches!(spec, VisitedSpec::Ram);
    let opts = CommonOpts::from_args(args)?;
    let (metrics, trace) = telemetry_sinks(&opts);
    let parallel = args.flag("parallel") || args.option("threads").is_some();
    let mut explorer = Explorer::new().visited(spec);
    if parallel {
        explorer = explorer.parallel(args.threads("threads")?);
    }
    if let Some(registry) = &metrics {
        explorer = explorer.with_telemetry(Arc::clone(registry), trace.clone());
    }
    let engine_label = match explorer.threads() {
        Some(t) => format!("parallel, {t} threads"),
        None => "sequential".to_string(),
    };
    println!(
        "exploring {} in scope msgs={} depth={} pool={} discipline={}{}{} ({engine_label}{})…",
        proto.name(),
        cfg.max_messages,
        cfg.max_depth,
        cfg.max_pool,
        cfg.discipline,
        cfg.corrupt_start
            .map(|s| format!(" corrupt-start={s}"))
            .unwrap_or_default(),
        if cfg.por { " por" } else { "" },
        match spec {
            VisitedSpec::Ram => String::new(),
            // The effective budget is always visible — in particular the
            // implicit 1 GiB default a bare `--visited tiered` picks — and
            // so is what it bounds.
            other => format!(
                ", visited {other}{}; the budget bounds the keys{}",
                if budget_defaulted {
                    " [default budget]"
                } else {
                    ""
                },
                match explorer.slice_ranks() {
                    Some(slice) => format!(
                        ", plus two {LEVEL_BLOCK_BYTES} B frontier blocks per thread, \
                         the candidates of one slice of {slice} ranks and the level in \
                         flight's path records; the rest streams through spill files"
                    ),
                    None => "; the sequential oracle keeps its queue in RAM".to_string(),
                },
            ),
        },
    );
    let outcome = explorer.explore(proto.as_ref(), &cfg);
    if let Some(registry) = &metrics {
        if let ExploreOutcome::Counterexample { depth, .. } = &outcome {
            registry.set_value("explore.counterexample_depth", *depth as f64);
        }
    }
    if args.flag("differential") {
        if cfg.por {
            // The reduced run certifies with *fewer* states, so byte
            // reports cannot match; compare verdicts against the full
            // explorer instead — outcome kind, counterexample depth, and
            // (for clean scopes) the shrunk attack script.
            let full_cfg = ExploreConfig { por: false, ..cfg };
            let full = Explorer::new()
                .parallel(0)
                .explore(proto.as_ref(), &full_cfg);
            if let Some(mismatch) = por_differential_mismatch(proto.as_ref(), &cfg, &outcome, &full)
            {
                println!("DIFFERENTIAL MISMATCH between reduced and full explorers: {mismatch}");
                println!("--- reduced (--por) ---\n{}", outcome.report());
                println!("--- full oracle ---\n{}", full.report());
                export_telemetry(&opts, metrics.as_ref(), trace.as_ref())?;
                return Err(NonFifoError::DifferentialMismatch);
            }
            println!("differential: reduced and full explorers agree on the verdict");
            if let (Some(reduced_states), Some(full_states)) =
                (states_of(&outcome), states_of(&full))
            {
                let ratio = full_states as f64 / reduced_states.max(1) as f64;
                println!("reduction: {reduced_states} states vs {full_states} full ({ratio:.2}x)");
                if let Some(registry) = &metrics {
                    registry.set_value("explore.reduction_ratio", ratio);
                }
            }
        } else {
            let other = if parallel {
                Explorer::new()
            } else {
                Explorer::new().parallel(0)
            }
            .explore(proto.as_ref(), &cfg);
            if outcome.report() != other.report() {
                println!("DIFFERENTIAL MISMATCH between sequential and parallel engines:");
                println!("--- this engine ---\n{}", outcome.report());
                println!("--- other engine ---\n{}", other.report());
                export_telemetry(&opts, metrics.as_ref(), trace.as_ref())?;
                return Err(NonFifoError::DifferentialMismatch);
            }
            println!("differential: sequential and parallel reports are byte-identical");
        }
    }
    match &outcome {
        ExploreOutcome::Counterexample {
            execution,
            depth,
            schedule,
        } => {
            println!("shortest invalid execution: {depth} adversary actions");
            let script = if args.flag("no-shrink") || cfg.corrupt_start.is_some() {
                // The shrinker replays candidates from a clean boot, which
                // would desynchronise a corrupted-start counterexample.
                schedule.clone()
            } else {
                let shrunk = shrink(proto.as_ref(), schedule)
                    .map_err(|e| ArgsError(format!("shrinker: {e}")))?;
                println!(
                    "shrinker: removed {} of {} steps ({} replays)",
                    shrunk.removed(),
                    shrunk.original_steps,
                    shrunk.attempts
                );
                shrunk.schedule
            };
            println!("\nattack script (replay with `nonfifo schedule {proto_name} <file>`):");
            print!("{}", script.to_text());
            println!("\n{}", nonfifo_ioa::diagram::render(execution));
        }
        ExploreOutcome::Exhausted { states } => {
            println!("certificate: no invalid execution in scope (exhaustive, {states} states)");
        }
        ExploreOutcome::Truncated { states } => {
            println!("inconclusive: state budget exhausted after {states} states");
            println!("(NOT a certificate — raise --max-states to cover the scope)");
        }
    }
    let visited = explorer.visited_set();
    if visited.spills() > 0 {
        // Every figure here is deterministic schedule-time accounting, so
        // this line is byte-identical across thread counts (the explore_pins
        // tests compare it).
        println!(
            "visited: {} spill(s), {} bytes on disk in {} run(s), {} bytes of \
             spill I/O, peak {} bytes resident (budget {})",
            visited.spills(),
            visited.disk_bytes(),
            visited.disk_runs(),
            visited.compaction_bytes(),
            visited.peak_memory_bytes(),
            match spec {
                VisitedSpec::Tiered { memory_budget, .. } => memory_budget,
                VisitedSpec::Ram => 0,
            },
        );
    }
    let streamed = explorer.streamed();
    if streamed != Streamed::default() {
        // Like the visited line, a function of the scope and the budget
        // alone: every rebuilt level and every finished path level goes
        // to the files whole, at any thread count.
        println!(
            "streamed: {} bytes of frontier blocks (at most {} on disk) and \
             {} bytes of path records through the level spill files",
            streamed.level_bytes, streamed.level_disk_bytes, streamed.path_bytes,
        );
    }
    export_telemetry(&opts, metrics.as_ref(), trace.as_ref())?;
    match outcome {
        ExploreOutcome::Exhausted { .. } => Ok(()),
        ExploreOutcome::Counterexample { depth, .. } => Err(NonFifoError::Counterexample { depth }),
        ExploreOutcome::Truncated { states } => Err(NonFifoError::Truncated {
            states: states as u64,
        }),
    }
}

/// Every option `campaign` reads; it takes no boolean flag.
const CAMPAIGN_OPTIONS: &[&str] = &["threads", "cache", "metrics-out"];

fn cmd_campaign(args: &Args) -> Result<(), NonFifoError> {
    use nonfifo_campaign::{CampaignCache, CampaignPlan, CampaignRunner, RunOutcome};
    args.only(CAMPAIGN_OPTIONS, &[])?;
    let plan_path = args
        .positional(1)
        .ok_or_else(|| ArgsError("campaign needs a plan file".into()))?;
    if args.positional_count() > 2 {
        return Err(ArgsError("campaign takes exactly one positional".into()).into());
    }
    let threads = args.threads("threads")?;
    let text = std::fs::read_to_string(plan_path).map_err(|e| NonFifoError::io(plan_path, &e))?;
    let plan = CampaignPlan::parse(&text)?;
    let runs = plan.expand();
    let mut cache = args.option("cache").map(CampaignCache::load).transpose()?;
    let runner = CampaignRunner::new(threads);
    println!(
        "campaign: {} scenario(s), {} run(s), {} thread(s), plan {plan_path}",
        plan.scenarios.len(),
        runs.len(),
        runner.threads()
    );
    let started = std::time::Instant::now();
    let report = match &mut cache {
        Some(cache) => runner.run_with_cache(&runs, cache)?,
        None => runner.run(&runs)?,
    };
    let elapsed = started.elapsed().as_secs_f64();
    println!("\n{}", report.render());
    // Panics are named only when there are some, so the line keeps its
    // bytes otherwise.
    let panicked = match report.count(RunOutcome::Panicked) {
        0 => String::new(),
        n => format!(", {n} panicked"),
    };
    println!(
        "outcome: {} delivered, {} stalled, {} violation(s), {} diverged{panicked}",
        report.count(RunOutcome::Delivered),
        report.count(RunOutcome::Stalled),
        report.count(RunOutcome::Violation),
        report.count(RunOutcome::Diverged),
    );
    // Integer percentage, so scripts and tests can read the hit rate.
    let percent = if runs.is_empty() {
        100
    } else {
        report.cache_hits * 100 / runs.len()
    };
    println!(
        "cache  : {} hits / {} runs ({percent}%)",
        report.cache_hits,
        runs.len()
    );
    if elapsed > 0.0 {
        println!(
            "timing : {:.2}s, {:.0} runs/sec",
            elapsed,
            runs.len() as f64 / elapsed
        );
    }
    if let (Some(path), Some(cache)) = (args.option("cache"), &mut cache) {
        cache.save(path)?;
        println!("cache written to {path} ({} entries)", cache.len());
    }
    if let Some(path) = args.option("metrics-out") {
        // The aggregate is a pure function of the run results — identical
        // at any thread count and for any cache state except the
        // campaign.cache_hits counter — so timing never goes in this file.
        std::fs::write(path, report.aggregate_metrics().to_json())
            .map_err(|e| NonFifoError::io(path, &e))?;
        println!("metrics written to {path}");
    }
    match report.worst() {
        None => Ok(()),
        Some(err) => {
            println!("verdict: {err}");
            Err(err)
        }
    }
}

/// Every option `serve` reads; it takes no boolean flag.
const SERVE_OPTIONS: &[&str] = &["addr", "workers", "cache"];

/// `nonfifo serve`: the campaign daemon. Binds `--addr` (default
/// `127.0.0.1:7171`; port `0` asks the OS for a free one), prints the
/// actual bound address on its own line so scripts can scrape it, and
/// serves until `POST /shutdown`. Each campaign runs its cache misses on
/// `--workers` threads of the daemon, on the batch runner's execute body.
fn cmd_serve(args: &Args) -> Result<(), NonFifoError> {
    use nonfifo_campaign::{CampaignService, ServiceConfig};
    args.only(SERVE_OPTIONS, &[])?;
    let addr = args.option("addr").unwrap_or("127.0.0.1:7171");
    let workers = args.threads("workers")?;
    let service = CampaignService::new(ServiceConfig {
        workers,
        cache_path: args.option("cache").map(str::to_string),
    })?;
    let listener = std::net::TcpListener::bind(addr).map_err(|e| NonFifoError::Io {
        path: addr.to_string(),
        message: e.to_string(),
    })?;
    let local = listener.local_addr().map_err(|e| NonFifoError::Io {
        path: addr.to_string(),
        message: e.to_string(),
    })?;
    println!("serving on http://{local}/");
    println!(
        "workers: {} threads per campaign; cache: {}",
        if workers == 0 {
            "per-core".to_string()
        } else {
            workers.to_string()
        },
        args.option("cache").unwrap_or("none"),
    );
    println!("routes : POST /campaign, GET /metrics, GET /healthz, POST /shutdown");
    service.serve(listener)?;
    println!("shutdown requested; exiting");
    Ok(())
}

/// Every option `stabilize` reads; it takes no boolean flag.
const STABILIZE_OPTIONS: &[&str] = &[
    "protocol",
    "seeds",
    "severity",
    "discipline",
    "messages",
    "budget",
    "plan",
];

fn cmd_stabilize(args: &Args) -> Result<(), NonFifoError> {
    use nonfifo_channel::{CorruptionSeverity, DisciplineError, FaultPlan};
    use nonfifo_core::{certify, StabilizeConfig};
    args.only(STABILIZE_OPTIONS, &[])?;
    let proto_name = args
        .option("protocol")
        .ok_or_else(|| ArgsError("stabilize needs --protocol NAME".into()))?;
    registry::protocol(proto_name)?;
    let seeds: u64 = args.option_or("seeds", 1000)?;
    if seeds == 0 {
        return Err(ArgsError("--seeds must be at least 1".into()).into());
    }
    let mut cfg = StabilizeConfig::default();
    if let Some(s) = args.option("severity") {
        cfg.severity = s
            .parse::<CorruptionSeverity>()
            .map_err(|e| ArgsError(e.to_string()))?;
    }
    if let Some(d) = args.option("discipline") {
        cfg.discipline = d.parse().map_err(|e: DisciplineError| ArgsError(e.0))?;
    }
    cfg.messages = args.option_or("messages", cfg.messages)?;
    cfg.max_steps_per_message = args.option_or("budget", cfg.max_steps_per_message)?;
    if let Some(path) = args.option("plan") {
        let text = std::fs::read_to_string(path).map_err(|e| NonFifoError::io(path, &e))?;
        let plan = FaultPlan::parse(&text)
            .map_err(|e| NonFifoError::Usage(format!("{path}:{}: {}", e.line, e.message)))?;
        cfg.fault_plan = Some(plan);
    }
    println!(
        "stabilize: {proto_name}, {seeds} corrupted start(s), severity {}, channel {}, \
         {} message(s) per start",
        cfg.severity, cfg.discipline, cfg.messages
    );
    if let Some(plan) = &cfg.fault_plan {
        let flat: Vec<String> = plan.to_string().lines().map(str::to_string).collect();
        println!("chaos  : {}", flat.join("; "));
    }
    let started = std::time::Instant::now();
    let report = certify(
        || registry::protocol(proto_name).expect("validated before the sweep"),
        seeds,
        &cfg,
    );
    let elapsed = started.elapsed().as_secs_f64();
    println!("result : {report}");
    if let Some(failure) = report.first_failure() {
        println!(
            "first failure: seed {} — {} (fingerprint {:016x}, replayable)",
            failure.seed, failure.verdict, failure.fingerprint
        );
    }
    if elapsed > 0.0 {
        println!(
            "timing : {:.2}s, {:.0} runs/sec",
            elapsed,
            seeds as f64 / elapsed
        );
    }
    match report.to_result() {
        Ok(()) => {
            println!("verdict: CERTIFIED — every corrupted start converged");
            Ok(())
        }
        Err(err) => {
            println!("verdict: {err}");
            Err(err)
        }
    }
}

fn cmd_schedule(args: &Args) -> Result<(), ArgsError> {
    use nonfifo_adversary::Schedule;
    let proto_name = args
        .positional(1)
        .ok_or_else(|| ArgsError("schedule needs a protocol".into()))?;
    let path = args
        .positional(2)
        .ok_or_else(|| ArgsError("schedule needs an attack file".into()))?;
    let proto = registry::protocol(proto_name)?;
    let input =
        std::fs::read_to_string(path).map_err(|e| ArgsError(format!("cannot read {path}: {e}")))?;
    let schedule = Schedule::parse(&input).map_err(|e| ArgsError(format!("parse: {e}")))?;
    println!(
        "replaying {} adversary actions against {}…",
        schedule.steps().len(),
        proto.name()
    );
    // A schedule that aborts mid-run (a quiesce that never converges, a
    // send against a wedged transmitter) is an experimental outcome, not a
    // CLI usage error — machine-generated stall repros end exactly this way.
    let sys = match schedule.run(proto.as_ref()) {
        Ok(sys) => sys,
        Err(e) => {
            println!("outcome: ABORTED — {e}");
            return Ok(());
        }
    };
    let c = sys.counts();
    println!("counters: {c}");
    match sys.violation() {
        Some(v) => println!("outcome: INVALID EXECUTION — {v}"),
        None => println!("outcome: no violation"),
    }
    if args.flag("diagram") {
        println!("\n{}", nonfifo_ioa::diagram::render(sys.execution()));
    }
    Ok(())
}

fn cmd_recheck(args: &Args) -> Result<(), ArgsError> {
    use nonfifo_ioa::spec::{check_dl1, check_dl1_dl2, check_pl1, Validity};
    let path = args
        .positional(1)
        .ok_or_else(|| ArgsError("recheck needs a trace file".into()))?;
    let input =
        std::fs::read_to_string(path).map_err(|e| ArgsError(format!("cannot read {path}: {e}")))?;
    let exec =
        nonfifo_ioa::text::parse_text(&input).map_err(|e| ArgsError(format!("parse: {e}")))?;
    println!("events: {}", exec.len());
    println!("counters: {}", exec.counts());
    for dir in nonfifo_ioa::Dir::BOTH {
        match check_pl1(&exec, dir) {
            Ok(()) => println!("PL1 [{dir}]: ok"),
            Err(v) => println!("PL1 [{dir}]: VIOLATED — {v}"),
        }
    }
    match check_dl1(&exec) {
        Ok(_) => println!("DL1: ok"),
        Err(v) => println!("DL1: VIOLATED — {v}"),
    }
    match check_dl1_dl2(&exec) {
        Ok(_) => println!("DL1+DL2: ok"),
        Err(v) => println!("DL1+DL2: VIOLATED — {v}"),
    }
    println!("classification: {}", Validity::classify(&exec));
    if args.flag("diagram") {
        println!("\n{}", nonfifo_ioa::diagram::render(&exec));
    }
    Ok(())
}

/// Seed of every randomized experiment in `EXPERIMENTS.md`.
const REPORT_SEED: u64 = 20260705;

/// An experiment `report` regenerates: id, `EXPERIMENTS.md` title, run.
type Experiment = (&'static str, &'static str, fn() -> String);

/// Every experiment `report` regenerates, in order.
const EXPERIMENTS: [Experiment; 15] = {
    use nonfifo_campaign::experiments as cx;
    use nonfifo_core::experiments as ex;
    [
        ("e1", "Theorem 2.1: boundness ≤ kₜ·kᵣ", || {
            ex::e1_boundness(REPORT_SEED).to_string()
        }),
        ("e2", "Theorem 3.1: the inductive falsifier", || {
            ex::e2_mf_falsifier().to_string()
        }),
        (
            "e3",
            "Theorem 3.1 contrapositive: the naive n-header protocol",
            || ex::e3_naive_protocol().to_string(),
        ),
        (
            "e4",
            "Theorem 4.1: cost ≥ in-transit/k; [Afe88] is tight",
            || ex::e4_pf_cost(120).to_string(),
        ),
        ("e5", "Theorem 5.1: exponential vs linear over PL2p", || {
            ex::e5_probabilistic_growth(REPORT_SEED).to_string()
        }),
        ("e6", "Lemma 5.2: seeding the dominant packet", || {
            ex::e6_seeding_lemma(12, 0.3, 50).to_string()
        }),
        ("e7", "Theorem 5.4 [Hoe63]: the Hoeffding bound", || {
            ex::e7_hoeffding(20_000, REPORT_SEED).to_string()
        }),
        (
            "e8",
            "the alternating bit: correct on lossy FIFO, falls on non-FIFO",
            || ex::e8_classic_break(REPORT_SEED).to_string(),
        ),
        ("e9", "ablation: sliding window vs bounded reorder", || {
            ex::e9_window_ablation(150, REPORT_SEED).to_string()
        }),
        (
            "e10",
            "transport protocols over non-FIFO virtual links",
            || ex::e10_transport(100).to_string(),
        ),
        ("e11", "exhaustive small-scope verification", || {
            ex::e11_exhaustive().to_string()
        }),
        (
            "e13",
            "parallel certification: growing scopes, one deterministic answer",
            || ex::e13_parallel_certification().to_string(),
        ),
        ("e14", "Theorem 4.1 read off the telemetry pipeline", || {
            cx::e14_cost_vs_in_transit().to_string()
        }),
        ("e15", "Theorem 5.1 as a growth matrix", || {
            cx::e15_growth_campaign().to_string()
        }),
        (
            "e16",
            "self-stabilization: convergence from corrupted starts",
            || cx::e16_convergence_campaign().to_string(),
        ),
    ]
};

fn cmd_report(args: &Args) -> Result<(), ArgsError> {
    let selected: Vec<_> = match args.option("exp") {
        None => EXPERIMENTS.iter().collect(),
        Some(id) => vec![EXPERIMENTS
            .iter()
            .find(|(e, ..)| *e == id)
            .ok_or_else(|| ArgsError(format!("unknown experiment {id:?}")))?],
    };
    println!("# nonfifo experiment report\n");
    println!("Reproduction of Mansour & Schieber, *The Intractability of Bounded");
    println!("Protocols for Non-FIFO Channels*, PODC 1989. Seed {REPORT_SEED}.\n");
    for (id, title, run) in selected {
        println!("## {} — {title}\n\n{}", id.to_uppercase(), run());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_distinguish_all_outcomes() {
        assert_eq!(exit_code(&NonFifoError::Usage("bad".into())), 1);
        assert_eq!(
            exit_code(&NonFifoError::Io {
                path: "x".into(),
                message: "gone".into()
            }),
            1
        );
        assert_eq!(exit_code(&NonFifoError::Counterexample { depth: 6 }), 2);
        assert_eq!(exit_code(&NonFifoError::Truncated { states: 42 }), 3);
        assert_eq!(exit_code(&NonFifoError::DifferentialMismatch), 4);
        // Campaign verdicts follow the single-run rules: any violation is a
        // counterexample (2); stalls alone are inconclusive (3).
        assert_eq!(
            exit_code(&NonFifoError::CampaignFailed {
                violations: 1,
                stalls: 5,
                panicked: 1
            }),
            2
        );
        assert_eq!(
            exit_code(&NonFifoError::CampaignFailed {
                violations: 0,
                stalls: 1,
                panicked: 0
            }),
            3
        );
        // A panicked run reached no verdict: inconclusive, like a stall.
        assert_eq!(
            exit_code(&NonFifoError::CampaignFailed {
                violations: 0,
                stalls: 0,
                panicked: 2
            }),
            3
        );
        // Convergence failure is its own verdict: distinguishable from
        // both a clean-start violation (2) and a stall (3).
        assert_eq!(
            exit_code(&NonFifoError::ConvergenceFailed {
                diverged: 3,
                stalled: 1,
                seeds: 24
            }),
            5
        );
    }

    #[test]
    fn stabilize_flags_parse() {
        let args = Args::parse(
            [
                "stabilize",
                "--protocol",
                "stabilizing-dl",
                "--seeds",
                "50",
                "--severity",
                "heavy",
                "--discipline",
                "prob:0.3",
            ],
            &[],
        )
        .unwrap();
        assert_eq!(args.option("protocol"), Some("stabilizing-dl"));
        assert_eq!(args.option_or("seeds", 0u64).unwrap(), 50);
        assert_eq!(
            args.option("severity")
                .unwrap()
                .parse::<nonfifo_channel::CorruptionSeverity>(),
            Ok(nonfifo_channel::CorruptionSeverity::Heavy)
        );
    }

    #[test]
    fn thread_counts_stop_at_the_worker_limit() {
        let max = nonfifo_campaign::MAX_WORKERS;
        assert!(USAGE.contains(&format!("\n{max} threads; 0, the default")));
        let threads = |n: &str| Args::parse(["campaign", "--threads", n], &[]).unwrap();
        assert_eq!(threads(&max.to_string()).threads("threads"), Ok(max));
        assert_eq!(threads("0").threads("threads"), Ok(0));
        let err = threads(&(max + 1).to_string())
            .threads("threads")
            .unwrap_err();
        assert_eq!(err.0, format!("--threads {}: the limit is {max}", max + 1));
        assert!(threads("-1").threads("threads").is_err());
    }

    #[test]
    fn explore_flags_parse() {
        let args = Args::parse(
            [
                "explore",
                "abp",
                "--parallel",
                "--threads",
                "8",
                "--max-states",
                "1000",
                "--differential",
                "--discipline",
                "reorder2",
            ],
            &["parallel", "differential", "no-shrink"],
        )
        .unwrap();
        assert!(args.flag("parallel"));
        assert!(args.flag("differential"));
        assert!(!args.flag("no-shrink"));
        assert_eq!(args.threads("threads").unwrap(), 8);
        assert_eq!(args.option_or("max-states", 0usize).unwrap(), 1000);
        assert_eq!(
            args.option("discipline").unwrap().parse::<Discipline>(),
            Ok(Discipline::BoundedReorder(2))
        );
    }
}
