//! The user-facing simulation engine.

use crate::builder::SimulationBuilder;
use crate::counters::RunCounters;
use nonfifo_adversary::fill_ghost;
use nonfifo_channel::{BoxedChannel, ScramblePlan};
use nonfifo_ioa::fingerprint::Fnv64;
use nonfifo_ioa::{
    CopyId, Dir, Event, Execution, Message, Packet, Payload, SpecMonitor, SpecViolation,
};
use nonfifo_protocols::{BoxedReceiver, BoxedTransmitter, DataLink, GhostInfo};
use nonfifo_telemetry::{Registry, TraceSink};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Telemetry plumbing for a [`Simulation`]: the run's [`RunCounters`],
/// where they fold, and an optional trace sink. Recording is
/// observation-only — nothing here feeds back into protocol, channel, or
/// monitor state, so runs are bit-identical with telemetry attached or not
/// (property-tested in `tests/telemetry.rs`).
#[derive(Debug, Clone)]
struct SimTelemetry {
    counters: RunCounters,
    registry: Option<Arc<Registry>>,
    trace: Option<Arc<TraceSink>>,
}

/// The station a [`CrashEvent`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Station {
    /// The transmitting station `Aᵗ`.
    Tx,
    /// The receiving station `Aʳ`.
    Rx,
}

impl fmt::Display for Station {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Station::Tx => write!(f, "tx"),
            Station::Rx => write!(f, "rx"),
        }
    }
}

/// What state a crashed station reboots into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashMode {
    /// Total loss of volatile state: the station reboots into its initial
    /// state (constructor configuration survives as ROM). Amnesia can
    /// genuinely lose an in-flight message — pair it with
    /// [`SimConfig::retry_lost_messages`] for runs that must complete.
    Amnesia,
    /// Stable storage: the station reboots into its last checkpoint. The
    /// harness checkpoints both stations at every `send_msg` and message
    /// delivery boundary (only while crashes are pending), so a restore is
    /// always consistent with the monitor's message counts.
    Restore,
}

impl fmt::Display for CrashMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashMode::Amnesia => write!(f, "amnesia"),
            CrashMode::Restore => write!(f, "restore"),
        }
    }
}

/// A scheduled station crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Scheduler step at which the crash fires (compared against the
    /// simulation's global step counter, so plans compose across repeated
    /// [`Simulation::deliver`] calls).
    pub at_step: u64,
    /// Which station goes down.
    pub station: Station,
    /// What the station reboots into.
    pub mode: CrashMode,
}

/// Knobs for a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scheduler steps allowed per message before the run is declared
    /// stalled.
    pub max_steps_per_message: u64,
    /// Stamp each message with its index as payload (lets the checker and
    /// caller verify content and order end to end). Protocols implementing
    /// only the identical-message service ignore payloads.
    pub payloads: bool,
    /// Station crashes to apply, keyed by global scheduler step. Events
    /// whose step has already passed when [`Simulation::deliver`] is called
    /// are ignored.
    pub crash_plan: Vec<CrashEvent>,
    /// Scheduler steps a crashed station stays offline before rebooting.
    /// While down the station takes no ticks, receives no packets (copies
    /// stay in transit), and emits nothing.
    pub restart_backoff: u64,
    /// Re-submit a message whose in-flight copy died with the transmitter's
    /// volatile state (a transmitter amnesia crash). Each retry is a fresh
    /// monitored `SendMsg`, so prefix-DL1 accounting stays honest.
    pub retry_lost_messages: bool,
    /// Minimum scheduler steps between retry submissions.
    pub retry_backoff: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_steps_per_message: 1_000_000,
            payloads: false,
            crash_plan: Vec::new(),
            restart_backoff: 0,
            retry_lost_messages: false,
            retry_backoff: 32,
        }
    }
}

/// Structured post-mortem attached to [`SimError::Stalled`].
///
/// Captures everything needed to understand — and replay — a stall: the
/// in-transit census of both channels, the last point of progress, the
/// monitor's message accounting, the faults the chaos layer was injecting,
/// and a ready-to-run attack schedule reproducing the stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnostic {
    /// Index of the stalled message.
    pub message: u64,
    /// Global scheduler step at which the run gave up.
    pub at_step: u64,
    /// Step and description of the last delivery progress, if any.
    pub last_progress: Option<(u64, String)>,
    /// Distinct packet values still in transit on the forward channel,
    /// with copy counts.
    pub fwd_census: Vec<(Packet, usize)>,
    /// Distinct packet values still in transit on the backward channel,
    /// with copy counts.
    pub bwd_census: Vec<(Packet, usize)>,
    /// Monitor `sm`: messages accepted from the higher layer.
    pub messages_sent: u64,
    /// Monitor `rm`: messages delivered to the higher layer.
    pub messages_delivered: u64,
    /// Events the online monitor has observed.
    pub events_seen: u64,
    /// Faults active at the moment of the stall, prefixed by direction.
    pub active_faults: Vec<String>,
    /// Total faults injected across both channels so far.
    pub faults_injected: u64,
    /// Station crashes applied so far.
    pub crashes_applied: u64,
    /// Whether the transmitter would accept another message.
    pub tx_ready: bool,
    /// An attack-DSL schedule reproducing the stall; feed it to
    /// `nonfifo schedule` (its final `quiesce` fails to converge, which is
    /// the stall, reproduced deterministically).
    pub repro_schedule: String,
}

impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stall diagnostic: message {} undelivered at step {}",
            self.message, self.at_step
        )?;
        match &self.last_progress {
            Some((step, what)) => writeln!(f, "  last progress : step {step}: {what}")?,
            None => writeln!(f, "  last progress : none (no delivery ever happened)")?,
        }
        writeln!(
            f,
            "  monitor       : sm={} rm={} events={}",
            self.messages_sent, self.messages_delivered, self.events_seen
        )?;
        writeln!(
            f,
            "  faults        : {} injected, {} crash(es) applied, tx_ready={}",
            self.faults_injected, self.crashes_applied, self.tx_ready
        )?;
        for fault in &self.active_faults {
            writeln!(f, "  active fault  : {fault}")?;
        }
        writeln!(
            f,
            "  fwd in transit: {} distinct value(s)",
            self.fwd_census.len()
        )?;
        for (pkt, n) in &self.fwd_census {
            writeln!(f, "    {pkt} ×{n}")?;
        }
        writeln!(
            f,
            "  bwd in transit: {} distinct value(s)",
            self.bwd_census.len()
        )?;
        for (pkt, n) in &self.bwd_census {
            writeln!(f, "    {pkt} ×{n}")?;
        }
        write!(f, "  repro schedule:\n{}", indent(&self.repro_schedule))
    }
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}\n"))
        .collect::<String>()
}

/// Why a simulation run stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A message failed to deliver within the step budget.
    Stalled {
        /// Index of the stalled message.
        message: u64,
        /// Steps spent on it.
        steps: u64,
        /// Structured post-mortem (census, faults, repro schedule).
        diagnostic: Box<StallDiagnostic>,
    },
    /// The online monitor flagged a specification violation.
    Violation(SpecViolation),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled { message, steps, .. } => {
                write!(f, "message {message} undelivered after {steps} steps")
            }
            SimError::Violation(v) => write!(f, "specification violated: {v}"),
        }
    }
}

impl Error for SimError {}

/// Cost and safety statistics of a run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Packets sent on the forward channel.
    pub packets_sent_forward: u64,
    /// Packets sent on the backward channel.
    pub packets_sent_backward: u64,
    /// Distinct forward packet values — the execution's header count.
    pub distinct_forward_packets: u64,
    /// Total scheduler steps.
    pub steps: u64,
    /// Peak transmitter + receiver space, in bytes.
    pub peak_space_bytes: usize,
    /// Copies still delayed on the forward channel at the end.
    pub final_in_transit: u64,
    /// First violation observed, if any (also surfaced as a [`SimError`]).
    pub violation: Option<SpecViolation>,
    /// Payloads of delivered messages, in delivery order (only recorded
    /// when [`SimConfig::payloads`] is set).
    pub delivered_payloads: Vec<u64>,
    /// Order-sensitive 64-bit digest of every event the engine observed.
    /// Two runs with the same protocol, channels, plan and seed produce the
    /// same fingerprint — the replayability contract of the chaos layer.
    pub fingerprint: u64,
    /// Station crashes applied so far.
    pub crashes_applied: u64,
    /// Faults injected by the chaos layer across both channels.
    pub faults_injected: u64,
}

/// A protocol composed with a forward and a backward channel.
///
/// Unlike [`nonfifo_adversary::System`], which exposes full adversary
/// control, `Simulation` drives *autonomous* channels (probabilistic,
/// lossy, reordering): the channel decides what happens; the engine only
/// pumps, records and checks.
#[derive(Debug)]
pub struct Simulation {
    tx: BoxedTransmitter,
    rx: BoxedReceiver,
    fwd: BoxedChannel,
    bwd: BoxedChannel,
    monitor: SpecMonitor,
    sent_values: BTreeSet<nonfifo_ioa::Packet>,
    next_msg: u64,
    steps: u64,
    peak_space: usize,
    delivered_payloads: Vec<u64>,
    round_watermark: CopyId,
    pending_deliveries: u64,
    uses_ghosts: bool,
    proto_name: String,
    fingerprint: Fnv64,
    last_progress: Option<(u64, String)>,
    checkpoint_tx: BoxedTransmitter,
    checkpoint_rx: BoxedReceiver,
    pending_crashes: Vec<CrashEvent>,
    crash_history: Vec<CrashEvent>,
    tx_down_until: u64,
    rx_down_until: u64,
    tx_crashed_since_send: bool,
    restart_backoff: u64,
    round_start_step: u64,
    telemetry: Option<Box<SimTelemetry>>,
    execution: Option<Execution>,
}

impl Simulation {
    /// Composes `proto` with an explicit channel pair.
    ///
    /// # Panics
    ///
    /// Panics if the channels' directions are not forward/backward
    /// respectively.
    pub fn with_channels(proto: impl DataLink, fwd: BoxedChannel, bwd: BoxedChannel) -> Self {
        assert_eq!(fwd.dir(), Dir::Forward, "fwd channel must be t→r");
        assert_eq!(bwd.dir(), Dir::Backward, "bwd channel must be r→t");
        let uses_ghosts = proto.uses_ghosts();
        let proto_name = proto.name();
        let (tx, rx) = proto.make();
        let checkpoint_tx = tx.clone_box();
        let checkpoint_rx = rx.clone_box();
        Simulation {
            tx,
            rx,
            fwd,
            bwd,
            monitor: SpecMonitor::new(),
            sent_values: BTreeSet::new(),
            next_msg: 0,
            steps: 0,
            peak_space: 0,
            delivered_payloads: Vec::new(),
            round_watermark: CopyId::from_raw(0),
            pending_deliveries: 0,
            uses_ghosts,
            proto_name,
            fingerprint: Fnv64::new(),
            last_progress: None,
            checkpoint_tx,
            checkpoint_rx,
            pending_crashes: Vec::new(),
            crash_history: Vec::new(),
            tx_down_until: 0,
            rx_down_until: 0,
            tx_crashed_since_send: false,
            restart_backoff: 0,
            round_start_step: 0,
            telemetry: None,
            execution: None,
        }
    }

    /// Attaches telemetry to the running simulation. Every subsequent
    /// event is counted in the run's [`RunCounters`], and the trace sink
    /// receives round spans and delivery/drop instants. The counters reach
    /// `registry` in one fold, when [`publish_metrics`] is called: nothing
    /// is named, locked or shared per event. Telemetry never influences
    /// the run itself: fingerprints and statistics are identical with or
    /// without it.
    ///
    /// [`publish_metrics`]: Simulation::publish_metrics
    pub fn attach_telemetry(&mut self, registry: Arc<Registry>, trace: Option<Arc<TraceSink>>) {
        self.telemetry = Some(Box::new(SimTelemetry {
            counters: RunCounters::new(),
            registry: Some(registry),
            trace,
        }));
    }

    /// Starts counting events in [`RunCounters`] with no registry or trace
    /// sink: for callers that read [`counters`](Simulation::counters)
    /// directly. Observation-only, like
    /// [`attach_telemetry`](Simulation::attach_telemetry).
    pub fn count_events(&mut self) {
        self.telemetry = Some(Box::new(SimTelemetry {
            counters: RunCounters::new(),
            registry: None,
            trace: None,
        }));
    }

    /// The run's counters since telemetry was attached (or since the last
    /// [`publish_metrics`](Simulation::publish_metrics)); `None` without
    /// telemetry.
    pub fn counters(&self) -> Option<&RunCounters> {
        self.telemetry.as_ref().map(|t| &t.counters)
    }

    /// Folds the counters into the registry given to
    /// [`attach_telemetry`](Simulation::attach_telemetry) — the one place
    /// the simulator names its metrics — and restarts them from zero, so
    /// publishing again later adds only what happened in between (the
    /// registry's gauges keep the larger reading). A no-op without a
    /// registry.
    pub fn publish_metrics(&mut self) {
        if let Some(SimTelemetry {
            counters,
            registry: Some(registry),
            ..
        }) = self.telemetry.as_deref_mut()
        {
            registry.merge_from(&counters.snapshot());
            counters.restart();
        }
    }

    /// Starts retaining the full event sequence as an [`Execution`]. Only
    /// events recorded after the call are kept, so call it before the
    /// first delivery — the builder's
    /// [`SimulationBuilder::initial_corruption`] does this automatically.
    /// Retention is observation-only: fingerprints and statistics are
    /// identical with or without it.
    pub fn retain_execution(&mut self) {
        if self.execution.is_none() {
            self.execution = Some(Execution::new());
        }
    }

    /// The retained execution, if [`Simulation::retain_execution`] was
    /// called.
    pub fn execution(&self) -> Option<&Execution> {
        self.execution.as_ref()
    }

    /// Payloads delivered so far, in delivery order (recorded only for
    /// rounds driven with [`SimConfig::payloads`] set).
    pub fn delivered_payloads(&self) -> &[u64] {
        &self.delivered_payloads
    }

    /// Swaps the online monitor into convergence mode: over-deliveries
    /// (`rm > sm`, inevitable when the receiver boots poisoned) are counted
    /// instead of latched, while PL1 physical-safety checks stay fatal.
    /// Judge the retained execution with a `ConvergenceSpec` afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the monitor has already observed events — convergence
    /// mode cannot be entered retroactively.
    pub fn enable_convergence_monitor(&mut self) {
        assert_eq!(
            self.monitor.events_seen(),
            0,
            "convergence mode must be enabled before any event is observed"
        );
        self.monitor = SpecMonitor::convergence();
    }

    /// Scrambles the initial state through public interfaces only: the
    /// plan's channel preloads are injected as monitored `SendPkt` events
    /// (each junk copy is *declared*, so PL1 stays checkable when it is
    /// later delivered or dropped), and the feed halves are handed straight
    /// to the automata as synthetic packet receipts — automaton-state
    /// corruption that leaves no channel trace. Deterministic: the plan is
    /// a pure function of its seed, so execution fingerprints replay.
    pub fn corrupt_initial_state(&mut self, plan: &ScramblePlan) {
        for &pkt in &plan.fwd_preload {
            self.sent_values.insert(pkt);
            let copy = self.fwd.send(pkt);
            self.record(&Event::SendPkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
        }
        for &pkt in &plan.bwd_preload {
            let copy = self.bwd.send(pkt);
            self.record(&Event::SendPkt {
                dir: Dir::Backward,
                packet: pkt,
                copy,
            });
        }
        for &pkt in &plan.rx_feed {
            self.rx.on_receive_pkt(pkt);
        }
        for &pkt in &plan.tx_feed {
            self.tx.on_receive_pkt(pkt);
        }
    }

    /// Pumps the scheduler `steps` times without submitting any message —
    /// lets corruption-induced traffic (junk copies, phantom deliveries,
    /// acknowledgement exchanges) flush before the real workload starts,
    /// so a convergence bound drawn at the end of the settle phase cleanly
    /// separates the corrupted prefix from the legal suffix.
    pub fn settle(&mut self, steps: u64) {
        for _ in 0..steps {
            self.pump();
        }
    }

    /// Starts a [`SimulationBuilder`] over `proto` — the one assembly path
    /// for the discipline family (FIFO, lossy, probabilistic, reorder) with
    /// optional chaos faults. Defaults: FIFO, seed 0, no faults.
    pub fn builder<P: DataLink>(proto: P) -> SimulationBuilder<P> {
        SimulationBuilder::new(proto)
    }

    /// Order-sensitive digest of every event observed so far (see
    /// [`RunStats::fingerprint`]).
    pub fn execution_fingerprint(&self) -> u64 {
        self.fingerprint.clone().finish()
    }

    /// Fault records logged by both channels, rendered with a direction
    /// prefix (empty unless a chaos channel is installed).
    pub fn fault_log(&self) -> Vec<String> {
        let mut out = Vec::new();
        for f in self.fwd.fault_log() {
            out.push(format!("fwd: {f}"));
        }
        for f in self.bwd.fault_log() {
            out.push(format!("bwd: {f}"));
        }
        out
    }

    /// Delivers `n` messages, returning the run statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] if a message exceeds the per-message step
    /// budget (the error carries a [`StallDiagnostic`] post-mortem);
    /// [`SimError::Violation`] if the online monitor flags a specification
    /// violation (the statistics up to that point are lost — use
    /// lower-level crates to post-mortem violations).
    pub fn deliver(&mut self, n: u64, cfg: &SimConfig) -> Result<RunStats, SimError> {
        // Install the crash plan: future events only, soonest popped first.
        let mut plan: Vec<CrashEvent> = cfg
            .crash_plan
            .iter()
            .copied()
            .filter(|c| c.at_step >= self.steps)
            .collect();
        plan.sort_by_key(|c| std::cmp::Reverse(c.at_step));
        self.pending_crashes = plan;
        self.restart_backoff = cfg.restart_backoff;

        let base = self.pending_deliveries;
        let mut delivered = 0u64;
        let trace = self.telemetry.as_ref().and_then(|t| t.trace.clone());
        for _ in 0..n {
            // Wait until the transmitter accepts the next message.
            let mut waited = 0;
            while !self.tx.ready() {
                if waited >= cfg.max_steps_per_message {
                    return Err(self.stalled(self.next_msg, waited));
                }
                self.pump();
                self.check()?;
                waited += 1;
            }

            let m = Message::new(
                self.next_msg,
                cfg.payloads.then(|| Payload::new(self.next_msg)),
            );
            self.round_watermark = CopyId::from_raw(self.fwd.total_sent());
            self.round_start_step = self.steps;
            self.record(&Event::SendMsg(m));
            let _round_span = trace
                .as_ref()
                .map(|t| t.span_with_args("sim", "round", vec![("msg".to_string(), m.id().raw())]));
            self.next_msg += 1;
            self.tx.on_send_msg(m.payload());
            self.tx_crashed_since_send = false;
            if !self.pending_crashes.is_empty() {
                // Stable-storage snapshot at the send_msg boundary.
                self.checkpoint();
            }

            let target = base + delivered + 1;
            let mut steps = 0;
            let mut last_retry = 0u64;
            while self.pending_deliveries < target {
                if steps >= cfg.max_steps_per_message {
                    return Err(self.stalled(self.next_msg - 1, steps));
                }
                self.pump();
                self.check()?;
                steps += 1;
                if cfg.retry_lost_messages
                    && self.tx_crashed_since_send
                    && self.pending_deliveries < target
                    && self.steps >= self.tx_down_until
                    && self.tx.ready()
                    && self.steps.saturating_sub(last_retry) >= cfg.retry_backoff.max(1)
                {
                    // The in-flight message died with the transmitter's
                    // volatile state; re-submit it as a fresh monitored
                    // send of the same message (`sm` grows, so prefix-DL1
                    // stays honest).
                    last_retry = self.steps;
                    self.tx_crashed_since_send = false;
                    self.record(&Event::SendMsg(m));
                    self.tx.on_send_msg(m.payload());
                }
            }
            delivered += 1;
        }

        Ok(RunStats {
            messages_delivered: delivered,
            packets_sent_forward: self.fwd.total_sent(),
            packets_sent_backward: self.bwd.total_sent(),
            distinct_forward_packets: self.sent_values.len() as u64,
            steps: self.steps,
            peak_space_bytes: self.peak_space,
            final_in_transit: self.fwd.in_transit_len() as u64,
            violation: self.monitor.first_violation(),
            delivered_payloads: self.delivered_payloads.clone(),
            fingerprint: self.execution_fingerprint(),
            crashes_applied: self.crash_history.len() as u64,
            faults_injected: (self.fwd.fault_log().len() + self.bwd.fault_log().len()) as u64,
        })
    }

    fn check(&self) -> Result<(), SimError> {
        match self.monitor.first_violation() {
            Some(v) => Err(SimError::Violation(v)),
            None => Ok(()),
        }
    }

    /// Feeds one event to the monitor, the execution fingerprint, and (when
    /// attached) the telemetry layer.
    fn record(&mut self, event: &Event) {
        event.hash(&mut self.fingerprint);
        let _ = self.monitor.observe(event);
        if let Some(exec) = &mut self.execution {
            exec.push(*event);
        }
        if let Some(tel) = &mut self.telemetry {
            tel.counters.observe(event);
            if let Some(trace) = &tel.trace {
                match event {
                    Event::ReceiveMsg(_) => trace.instant("sim", "deliver_msg", Vec::new()),
                    Event::DropPkt { .. } => trace.instant("sim", "drop_pkt", Vec::new()),
                    _ => {}
                }
            }
        }
    }

    fn checkpoint(&mut self) {
        self.checkpoint_tx = self.tx.clone_box();
        self.checkpoint_rx = self.rx.clone_box();
    }

    fn apply_crash(&mut self, c: CrashEvent) {
        match (c.station, c.mode) {
            (Station::Tx, CrashMode::Amnesia) => {
                self.tx.crash_amnesia();
                self.tx_crashed_since_send = true;
            }
            (Station::Tx, CrashMode::Restore) => {
                self.tx = self.checkpoint_tx.clone_box();
            }
            (Station::Rx, CrashMode::Amnesia) => self.rx.crash_amnesia(),
            (Station::Rx, CrashMode::Restore) => {
                self.rx = self.checkpoint_rx.clone_box();
            }
        }
        let until = self.steps + self.restart_backoff;
        match c.station {
            Station::Tx => self.tx_down_until = self.tx_down_until.max(until),
            Station::Rx => self.rx_down_until = self.rx_down_until.max(until),
        }
        self.crash_history.push(c);
    }

    fn stalled(&self, message: u64, steps: u64) -> SimError {
        SimError::Stalled {
            message,
            steps,
            diagnostic: Box::new(self.diagnose(message)),
        }
    }

    fn diagnose(&self, message: u64) -> StallDiagnostic {
        StallDiagnostic {
            message,
            at_step: self.steps,
            last_progress: self.last_progress.clone(),
            fwd_census: self.fwd.transit_census(),
            bwd_census: self.bwd.transit_census(),
            messages_sent: self.monitor.messages_sent(),
            messages_delivered: self.monitor.messages_delivered(),
            events_seen: self.monitor.events_seen(),
            active_faults: {
                let mut active: Vec<String> = self
                    .fwd
                    .active_faults()
                    .into_iter()
                    .map(|f| format!("fwd: {f}"))
                    .collect();
                active.extend(
                    self.bwd
                        .active_faults()
                        .into_iter()
                        .map(|f| format!("bwd: {f}")),
                );
                active
            },
            faults_injected: (self.fwd.fault_log().len() + self.bwd.fault_log().len()) as u64,
            crashes_applied: self.crash_history.len() as u64,
            tx_ready: self.tx.ready(),
            repro_schedule: self.repro_schedule(message),
        }
    }

    /// Compiles the run so far into an attack-DSL schedule whose replay
    /// stalls on the same message: each already-delivered message becomes a
    /// clean `send`/`quiesce` round, the faults that hit the stalled round
    /// are summarised as comments, and the stalled message is sent under a
    /// `partition` (the DSL abstraction of "the channel ate every copy") so
    /// the final `quiesce` fails to converge — which *is* the stall.
    fn repro_schedule(&self, message: u64) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "// chaos stall reproduction: {} — message {message} undelivered\n",
            self.proto_name
        ));
        s.push_str("// replay with: nonfifo schedule <protocol> <this file>\n");
        const SHOWN: usize = 8;
        for (label, log) in [("fwd", self.fwd.fault_log()), ("bwd", self.bwd.fault_log())] {
            for f in log.iter().take(SHOWN) {
                s.push_str(&format!("// {label} fault: {f}\n"));
            }
            if log.len() > SHOWN {
                s.push_str(&format!(
                    "// {label} fault: … and {} more\n",
                    log.len() - SHOWN
                ));
            }
        }
        for _ in 0..self.monitor.messages_delivered() {
            s.push_str("send\nquiesce\n");
        }
        s.push_str("partition\nsend\n");
        for c in self
            .crash_history
            .iter()
            .filter(|c| c.at_step >= self.round_start_step)
        {
            s.push_str(&format!("crash {}\n", c.station));
        }
        s.push_str("quiesce\n");
        s
    }

    /// One scheduler step: crashes, ghosts, ticks, transmitter pump,
    /// channel deliveries, receiver pump. A station that is down (crash
    /// backoff) takes no actions and receives nothing — copies addressed
    /// to it stay in transit.
    fn pump(&mut self) {
        self.steps += 1;
        while let Some(&c) = self.pending_crashes.last() {
            if c.at_step > self.steps {
                break;
            }
            self.pending_crashes.pop();
            self.apply_crash(c);
        }
        let tx_up = self.steps >= self.tx_down_until;
        let rx_up = self.steps >= self.rx_down_until;

        if self.uses_ghosts {
            let mut ghost = GhostInfo::default();
            fill_ghost(&mut ghost, self.fwd.as_ref(), self.round_watermark);
            if tx_up {
                self.tx.on_ghost(&ghost);
            }
            if rx_up {
                self.rx.on_ghost(&ghost);
            }
        }
        if tx_up {
            self.tx.on_tick();
        }
        if rx_up {
            self.rx.on_tick();
        }

        if tx_up {
            while let Some(pkt) = self.tx.poll_send() {
                self.sent_values.insert(pkt);
                let copy = self.fwd.send(pkt);
                self.record(&Event::SendPkt {
                    dir: Dir::Forward,
                    packet: pkt,
                    copy,
                });
            }
        }
        // Declare chaos-injected copies (duplicate twins, corrupted
        // rewrites) before any drop or delivery can reference them — this
        // is what keeps the monitor PL1-sound under fault injection.
        for (pkt, copy) in self.fwd.drain_injected_sends() {
            self.sent_values.insert(pkt);
            if let Some(tel) = &mut self.telemetry {
                tel.counters.observe_injected(Dir::Forward, pkt.header());
            }
            self.record(&Event::SendPkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
        }
        for (pkt, copy) in self.fwd.drain_drops() {
            self.record(&Event::DropPkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
        }
        if rx_up {
            while let Some((pkt, copy)) = self.fwd.poll_deliver() {
                self.record(&Event::ReceivePkt {
                    dir: Dir::Forward,
                    packet: pkt,
                    copy,
                });
                self.rx.on_receive_pkt(pkt);
            }
            let mut delivered_now = false;
            while let Some(payload) = self.rx.poll_deliver() {
                // Deliveries are named in order: the n-th is m<n>.
                let m = Message::new(self.monitor.messages_delivered(), payload);
                self.record(&Event::ReceiveMsg(m));
                self.pending_deliveries += 1;
                delivered_now = true;
                self.last_progress = Some((self.steps, format!("delivered message {}", m.id())));
                if let Some(p) = m.payload() {
                    self.delivered_payloads.push(p.word());
                }
            }
            if delivered_now && !self.pending_crashes.is_empty() {
                // Stable-storage snapshot at the delivery boundary, so a
                // later restore never rolls the receiver back behind a
                // delivery the monitor has already counted.
                self.checkpoint();
            }
            while let Some(ack) = self.rx.poll_send() {
                let copy = self.bwd.send(ack);
                self.record(&Event::SendPkt {
                    dir: Dir::Backward,
                    packet: ack,
                    copy,
                });
            }
        }
        for (pkt, copy) in self.bwd.drain_injected_sends() {
            if let Some(tel) = &mut self.telemetry {
                tel.counters.observe_injected(Dir::Backward, pkt.header());
            }
            self.record(&Event::SendPkt {
                dir: Dir::Backward,
                packet: pkt,
                copy,
            });
        }
        for (pkt, copy) in self.bwd.drain_drops() {
            self.record(&Event::DropPkt {
                dir: Dir::Backward,
                packet: pkt,
                copy,
            });
        }
        if tx_up {
            while let Some((ack, copy)) = self.bwd.poll_deliver() {
                self.record(&Event::ReceivePkt {
                    dir: Dir::Backward,
                    packet: ack,
                    copy,
                });
                self.tx.on_receive_pkt(ack);
            }
        }
        self.fwd.tick();
        self.bwd.tick();
        if let Some(tel) = &mut self.telemetry {
            tel.counters.set_in_transit(
                self.fwd.in_transit_len() as u64,
                self.bwd.in_transit_len() as u64,
            );
        }
        let s = self.tx.space_bytes() + self.rx.space_bytes();
        self.peak_space = self.peak_space.max(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_channel::{Discipline, FaultPlan};
    use nonfifo_protocols::{AlternatingBit, Outnumber, SequenceNumber, SlidingWindow};

    #[test]
    fn seqnum_over_fifo_costs_one_packet_per_message() {
        let mut sim = Simulation::builder(SequenceNumber::new()).build();
        let stats = sim.deliver(20, &SimConfig::default()).unwrap();
        assert_eq!(stats.messages_delivered, 20);
        assert_eq!(stats.packets_sent_forward, 20);
        assert_eq!(stats.distinct_forward_packets, 20);
        assert!(stats.violation.is_none());
    }

    #[test]
    fn seqnum_over_probabilistic_is_linear() {
        let mut sim = Simulation::builder(SequenceNumber::new())
            .channel(Discipline::Probabilistic { q: 0.3 })
            .seed(99)
            .build();
        let stats = sim.deliver(100, &SimConfig::default()).unwrap();
        assert_eq!(stats.messages_delivered, 100);
        // About 1/(1−q)² round trips per message; certainly way below
        // exponential.
        assert!(stats.packets_sent_forward < 100 * 30);
    }

    #[test]
    fn alternating_bit_is_fine_over_lossy_fifo() {
        let mut sim = Simulation::builder(AlternatingBit::new())
            .channel(Discipline::LossyFifo { loss: 0.4 })
            .seed(5)
            .build();
        let stats = sim.deliver(100, &SimConfig::default()).unwrap();
        assert_eq!(stats.messages_delivered, 100);
        assert_eq!(stats.distinct_forward_packets, 2);
        assert!(stats.violation.is_none());
    }

    #[test]
    fn payload_mode_checks_content_ordering() {
        let mut sim = Simulation::builder(SequenceNumber::new()).build();
        let cfg = SimConfig {
            payloads: true,
            ..SimConfig::default()
        };
        let stats = sim.deliver(10, &cfg).unwrap();
        assert_eq!(stats.delivered_payloads, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn sliding_window_survives_mild_reordering() {
        let mut sim = Simulation::builder(SlidingWindow::new(8))
            .channel(Discipline::BoundedReorder { bound: 4 })
            .seed(12)
            .build();
        let cfg = SimConfig {
            payloads: true,
            ..SimConfig::default()
        };
        let stats = sim.deliver(200, &cfg).unwrap();
        assert_eq!(stats.messages_delivered, 200);
        assert_eq!(stats.delivered_payloads, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn outnumber_cost_explodes_but_stays_safe() {
        let mut sim = Simulation::builder(Outnumber::factory())
            .channel(Discipline::Probabilistic { q: 0.3 })
            .seed(21)
            .build();
        let stats = sim.deliver(10, &SimConfig::default()).unwrap();
        assert!(stats.violation.is_none());
        assert!(
            stats.packets_sent_forward > 1 << 8,
            "sent {}",
            stats.packets_sent_forward
        );
    }

    #[test]
    fn stall_is_reported() {
        // q = 1: nothing is ever delivered.
        let mut sim = Simulation::builder(SequenceNumber::new())
            .channel(Discipline::Probabilistic { q: 1.0 })
            .seed(0)
            .build();
        let cfg = SimConfig {
            max_steps_per_message: 50,
            ..SimConfig::default()
        };
        let err = sim.deliver(1, &cfg).unwrap_err();
        assert!(matches!(err, SimError::Stalled { message: 0, .. }));
    }

    #[test]
    fn stall_diagnostic_is_structured() {
        let mut sim = Simulation::builder(SequenceNumber::new())
            .channel(Discipline::Probabilistic { q: 1.0 })
            .seed(0)
            .build();
        let cfg = SimConfig {
            max_steps_per_message: 50,
            ..SimConfig::default()
        };
        let err = sim.deliver(1, &cfg).unwrap_err();
        let SimError::Stalled { diagnostic, .. } = err else {
            panic!("expected a stall");
        };
        assert_eq!(diagnostic.message, 0);
        assert_eq!(diagnostic.messages_sent, 1);
        assert_eq!(diagnostic.messages_delivered, 0);
        assert!(diagnostic.last_progress.is_none());
        // q = 1 delays every copy forever: the census shows them in transit.
        assert!(!diagnostic.fwd_census.is_empty());
        // The repro schedule sends the stalled message under a partition
        // and ends with a quiesce that cannot converge.
        assert!(diagnostic.repro_schedule.contains("partition\nsend\n"));
        assert!(diagnostic.repro_schedule.ends_with("quiesce\n"));
        // The Display rendering mentions the schedule and the census.
        let text = diagnostic.to_string();
        assert!(text.contains("fwd in transit"));
        assert!(text.contains("repro schedule"));
    }

    #[test]
    fn restore_crashes_are_transparent_to_delivery() {
        let mut sim = Simulation::builder(AlternatingBit::new())
            .channel(Discipline::LossyFifo { loss: 0.2 })
            .seed(9)
            .build();
        let cfg = SimConfig {
            crash_plan: vec![
                CrashEvent {
                    at_step: 10,
                    station: Station::Tx,
                    mode: CrashMode::Restore,
                },
                CrashEvent {
                    at_step: 25,
                    station: Station::Rx,
                    mode: CrashMode::Restore,
                },
            ],
            restart_backoff: 3,
            ..SimConfig::default()
        };
        let stats = sim.deliver(20, &cfg).unwrap();
        assert_eq!(stats.messages_delivered, 20);
        assert_eq!(stats.crashes_applied, 2);
        assert!(stats.violation.is_none());
    }

    #[test]
    fn full_reboot_with_retry_still_delivers() {
        // Both stations lose all volatile state mid-run; the retry knob
        // re-submits the message the transmitter forgot.
        let mut sim = Simulation::builder(SequenceNumber::new()).build();
        let cfg = SimConfig {
            crash_plan: vec![
                CrashEvent {
                    at_step: 3,
                    station: Station::Tx,
                    mode: CrashMode::Amnesia,
                },
                CrashEvent {
                    at_step: 3,
                    station: Station::Rx,
                    mode: CrashMode::Amnesia,
                },
            ],
            retry_lost_messages: true,
            retry_backoff: 2,
            max_steps_per_message: 10_000,
            ..SimConfig::default()
        };
        let stats = sim.deliver(5, &cfg).unwrap();
        assert_eq!(stats.messages_delivered, 5);
        assert_eq!(stats.crashes_applied, 2);
        assert!(stats.violation.is_none());
    }

    #[test]
    fn downed_station_keeps_copies_in_transit() {
        // A long backoff with no retry: the run stalls while the receiver
        // is down, and the diagnostic records the crash.
        let mut sim = Simulation::builder(SequenceNumber::new()).build();
        let cfg = SimConfig {
            crash_plan: vec![CrashEvent {
                at_step: 1,
                station: Station::Rx,
                mode: CrashMode::Amnesia,
            }],
            restart_backoff: 1_000,
            max_steps_per_message: 40,
            ..SimConfig::default()
        };
        let err = sim.deliver(1, &cfg).unwrap_err();
        let SimError::Stalled { diagnostic, .. } = err else {
            panic!("expected a stall");
        };
        assert_eq!(diagnostic.crashes_applied, 1);
        assert!(!diagnostic.fwd_census.is_empty(), "copies wait for the rx");
    }

    #[test]
    fn same_seed_and_plan_reproduce_the_fingerprint() {
        let plan = FaultPlan::parse("dup 0.1\ndrop 0.15").unwrap();
        let run = |seed: u64| {
            let mut sim = Simulation::builder(SequenceNumber::new())
                .fault_plan(plan.clone())
                .seed(seed)
                .build();
            sim.deliver(40, &SimConfig::default()).unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.packets_sent_forward, b.packets_sent_forward);
        assert_eq!(a.faults_injected, b.faults_injected);
        let c = run(8);
        assert_ne!(a.fingerprint, c.fingerprint, "a different seed diverges");
    }

    #[test]
    fn chaos_faults_stay_pl1_sound() {
        let plan = FaultPlan::parse("dup 0.2\ndrop 0.1\ncorrupt 0.05").unwrap();
        let mut sim = Simulation::builder(SequenceNumber::new())
            .fault_plan(plan.clone())
            .seed(3)
            .build();
        let stats = sim.deliver(30, &SimConfig::default()).unwrap();
        assert_eq!(stats.messages_delivered, 30);
        assert!(stats.violation.is_none(), "got {:?}", stats.violation);
        assert!(stats.faults_injected > 0, "the plan actually fired");
    }
}
