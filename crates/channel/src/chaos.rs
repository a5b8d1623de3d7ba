//! Deterministic chaos: a fault-injecting decorator over any channel.
//!
//! The paper's adversary only *delays and deletes* packets; real non-FIFO
//! physical layers also duplicate, corrupt, partition, and burst-lose.
//! [`ChaosChannel`] layers exactly those faults over any inner [`Channel`],
//! driven by a seeded [`FaultPlan`], so every protocol × channel pairing can
//! be pushed through a storm and either survive or fail with a replayable
//! diagnosis:
//!
//! - **Determinism.** All randomness comes from one [`nonfifo_rng::StdRng`]
//!   seeded at construction; the same `(seed, plan)` against the same
//!   workload replays the identical fault sequence, bit for bit.
//! - **Soundness.** The PL1 monitor distinguishes chaos from protocol bugs
//!   because every injected copy is *declared*: duplicates and corrupted
//!   replacements surface through
//!   [`drain_injected_sends`](Channel::drain_injected_sends) as legitimate
//!   sends, drops surface through [`drain_drops`](Channel::drain_drops), and
//!   chaos-minted copy ids live in a disjoint id range
//!   ([`CHAOS_COPY_BASE`]) so they can never collide with the inner
//!   channel's.
//! - **Accountability.** Every fault is appended to a [`FaultRecord`] log,
//!   which the stall watchdog folds into its diagnostic and its
//!   reproduction schedule.
//!
//! # Fault model
//!
//! | fault | plan line | mechanics |
//! |---|---|---|
//! | duplicate | `dup P` | forwarded copy plus an injected twin with a chaos id |
//! | drop | `drop P` | copy never reaches the inner channel; reported dropped |
//! | corrupt | `corrupt P` | original dropped, bit-flipped replacement injected |
//! | burst loss | `burst P N` | with probability `P` per send, the next `N` sends are dropped |
//! | partition | `partition S E` | every send in tick window `[S, E)` is dropped; healing is implicit at `E` |
//! | reorder storm | `storm P N` | with probability `P` per tick, deliveries buffer for `N` ticks and release in reverse |

use crate::channel::{BoxedChannel, Channel, ChannelIntrospect, FaultObserver};
use crate::corrupting::corrupt_packet;
use crate::multiset::PacketMultiset;
use nonfifo_ioa::{CopyId, Dir, Header, Packet};
use nonfifo_rng::StdRng;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// First copy id the chaos layer mints for injected copies. Inner channels
/// mint ids sequentially from 0; `2⁴⁸` sends would take centuries at
/// simulation speeds, so the ranges never meet.
pub const CHAOS_COPY_BASE: u64 = 1 << 48;

/// A seeded description of which faults to inject at what rates.
///
/// Parsed from the plan text format (see [`FaultPlan::parse`]); the
/// `Default` plan injects nothing, making [`ChaosChannel`] a transparent
/// wrapper.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that a successfully forwarded send is duplicated.
    pub dup: f64,
    /// Probability that a send is dropped outright.
    pub drop: f64,
    /// Probability that a send is replaced by a bit-corrupted copy.
    pub corrupt: f64,
    /// `(start probability per send, burst length in sends)`.
    pub burst: Option<(f64, u32)>,
    /// Tick windows `[start, end)` during which every send is lost.
    pub partitions: Vec<(u64, u64)>,
    /// `(start probability per tick, storm length in ticks)`.
    pub storm: Option<(f64, u32)>,
}

impl FaultPlan {
    /// Parses the plan text format: one directive per line, `#` comments
    /// and blank lines ignored.
    ///
    /// ```text
    /// dup 0.15          # duplicate forwarded packets
    /// drop 0.10         # drop sends outright
    /// corrupt 0.05      # replace sends with bit-flipped copies
    /// burst 0.02 5      # 2% chance per send to lose the next 5 sends
    /// partition 40 80   # sends during ticks [40, 80) are lost
    /// storm 0.01 6      # 1% chance per tick of a 6-tick reorder storm
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the offending line and what was
    /// wrong with it.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut words = content.split_whitespace();
            let verb = words.next().expect("non-empty line has a first word");
            let args: Vec<&str> = words.collect();
            match verb {
                "dup" => plan.dup = parse_prob(line, verb, &args)?,
                "drop" => plan.drop = parse_prob(line, verb, &args)?,
                "corrupt" => plan.corrupt = parse_prob(line, verb, &args)?,
                "burst" => plan.burst = Some(parse_prob_len(line, verb, &args)?),
                "storm" => plan.storm = Some(parse_prob_len(line, verb, &args)?),
                "partition" => {
                    let (start, end) = parse_window(line, verb, &args)?;
                    plan.partitions.push((start, end));
                }
                other => {
                    return Err(PlanError {
                        line,
                        message: format!(
                            "unknown directive `{other}` (expected dup, drop, corrupt, \
                             burst, partition, or storm)"
                        ),
                    })
                }
            }
        }
        plan.partitions.sort_unstable();
        Ok(plan)
    }

    /// True if the plan injects nothing.
    pub fn is_quiet(&self) -> bool {
        *self == FaultPlan::default()
    }

    fn partitioned_at(&self, tick: u64) -> bool {
        self.partitions.iter().any(|&(s, e)| (s..e).contains(&tick))
    }
}

impl fmt::Display for FaultPlan {
    /// Canonical plan text; `parse` of the output reproduces the plan.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dup > 0.0 {
            writeln!(f, "dup {}", self.dup)?;
        }
        if self.drop > 0.0 {
            writeln!(f, "drop {}", self.drop)?;
        }
        if self.corrupt > 0.0 {
            writeln!(f, "corrupt {}", self.corrupt)?;
        }
        if let Some((p, n)) = self.burst {
            writeln!(f, "burst {p} {n}")?;
        }
        for &(s, e) in &self.partitions {
            writeln!(f, "partition {s} {e}")?;
        }
        if let Some((p, n)) = self.storm {
            writeln!(f, "storm {p} {n}")?;
        }
        Ok(())
    }
}

/// A fault-plan parse failure: the line it happened on and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// 1-based line number in the plan text.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl Error for PlanError {}

fn parse_prob(line: usize, verb: &str, args: &[&str]) -> Result<f64, PlanError> {
    let [arg] = args else {
        return Err(PlanError {
            line,
            message: format!("`{verb}` takes exactly one probability, got {}", args.len()),
        });
    };
    let p: f64 = arg.parse().map_err(|_| PlanError {
        line,
        message: format!("`{verb}`: `{arg}` is not a number"),
    })?;
    if !(0.0..=1.0).contains(&p) {
        return Err(PlanError {
            line,
            message: format!("`{verb}`: probability {p} is outside [0, 1]"),
        });
    }
    Ok(p)
}

fn parse_prob_len(line: usize, verb: &str, args: &[&str]) -> Result<(f64, u32), PlanError> {
    let [prob, len] = args else {
        return Err(PlanError {
            line,
            message: format!(
                "`{verb}` takes a probability and a length, got {} arguments",
                args.len()
            ),
        });
    };
    let p = parse_prob(line, verb, &[prob])?;
    let n: u32 = len.parse().map_err(|_| PlanError {
        line,
        message: format!("`{verb}`: length `{len}` is not a positive integer"),
    })?;
    if n == 0 {
        return Err(PlanError {
            line,
            message: format!("`{verb}`: length must be at least 1"),
        });
    }
    Ok((p, n))
}

fn parse_window(line: usize, verb: &str, args: &[&str]) -> Result<(u64, u64), PlanError> {
    let [start, end] = args else {
        return Err(PlanError {
            line,
            message: format!(
                "`{verb}` takes a start and an end tick, got {} arguments",
                args.len()
            ),
        });
    };
    let s: u64 = start.parse().map_err(|_| PlanError {
        line,
        message: format!("`{verb}`: start tick `{start}` is not an integer"),
    })?;
    let e: u64 = end.parse().map_err(|_| PlanError {
        line,
        message: format!("`{verb}`: end tick `{end}` is not an integer"),
    })?;
    if s >= e {
        return Err(PlanError {
            line,
            message: format!("`{verb}`: window [{s}, {e}) is empty"),
        });
    }
    Ok((s, e))
}

/// What kind of fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A forwarded copy was duplicated; the twin carries a chaos id.
    Duplicate {
        /// The duplicated packet value.
        packet: Packet,
        /// Chaos id of the injected twin.
        twin: CopyId,
    },
    /// A send was dropped outright (rate- or burst-driven).
    Drop {
        /// The lost packet value.
        packet: Packet,
        /// Chaos id minted for the lost copy.
        copy: CopyId,
    },
    /// A send was replaced by a bit-corrupted copy.
    Corrupt {
        /// What the protocol sent.
        original: Packet,
        /// What will be delivered instead.
        corrupted: Packet,
        /// Chaos id of the dropped original.
        dropped: CopyId,
        /// Chaos id of the injected replacement.
        injected: CopyId,
    },
    /// A loss burst began; the next `len` sends are dropped.
    BurstStart {
        /// Sends the burst will consume.
        len: u32,
    },
    /// A send was lost to an active partition window.
    PartitionDrop {
        /// The lost packet value.
        packet: Packet,
        /// Chaos id minted for the lost copy.
        copy: CopyId,
    },
    /// A partition window opened.
    PartitionStart,
    /// A partition window closed (the link healed).
    Heal,
    /// A reorder storm began; deliveries buffer for `len` ticks.
    StormStart {
        /// Ticks the storm will last.
        len: u32,
    },
    /// A reorder storm ended; `buffered` copies release in reverse order.
    StormEnd {
        /// Copies that were buffered and now release LIFO.
        buffered: usize,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Duplicate { packet, twin } => write!(f, "dup {packet} as {twin}"),
            FaultKind::Drop { packet, copy } => write!(f, "drop {packet} {copy}"),
            FaultKind::Corrupt {
                original,
                corrupted,
                ..
            } => write!(f, "corrupt {original} -> {corrupted}"),
            FaultKind::BurstStart { len } => write!(f, "burst start ({len} sends)"),
            FaultKind::PartitionDrop { packet, copy } => {
                write!(f, "partition drop {packet} {copy}")
            }
            FaultKind::PartitionStart => write!(f, "partition start"),
            FaultKind::Heal => write!(f, "heal"),
            FaultKind::StormStart { len } => write!(f, "storm start ({len} ticks)"),
            FaultKind::StormEnd { buffered } => write!(f, "storm end ({buffered} reversed)"),
        }
    }
}

/// One injected fault: when (channel tick) and what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// The channel's tick counter when the fault was injected.
    pub at_tick: u64,
    /// What happened.
    pub kind: FaultKind,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}: {}", self.at_tick, self.kind)
    }
}

/// A fault-injecting decorator over any [`Channel`].
///
/// The fault model and the soundness contract are set out in the `chaos`
/// module docs. Cloning forks the complete state — inner channel, RNG
/// position, fault log — so a forked chaos channel replays identically.
///
/// # Example
///
/// ```
/// use nonfifo_channel::{ChaosChannel, Channel, FaultObserver, FaultPlan, FifoChannel};
/// use nonfifo_ioa::{Dir, Header, Packet};
///
/// let plan = FaultPlan::parse("dup 1.0").unwrap();
/// let mut ch = ChaosChannel::new(Box::new(FifoChannel::new(Dir::Forward)), plan, 7);
/// ch.send(Packet::header_only(Header::new(0)));
/// // The duplicate is declared as a send before it can deliver.
/// assert_eq!(ch.drain_injected_sends().len(), 1);
/// assert!(ch.poll_deliver().is_some());
/// assert!(ch.poll_deliver().is_some(), "the twin also delivers");
/// ```
#[derive(Debug, Clone)]
pub struct ChaosChannel {
    inner: BoxedChannel,
    plan: FaultPlan,
    seed: u64,
    rng: StdRng,
    now: u64,
    was_partitioned: bool,
    burst_remaining: u32,
    storm_remaining: u32,
    /// LIFO buffer of deliveries captured during a storm.
    storm_buffer: Vec<(Packet, CopyId)>,
    /// Injected copies (duplicates, corruptions) awaiting delivery.
    ready: VecDeque<(Packet, CopyId)>,
    /// Injected copies not yet declared to the harness.
    injected_sends: Vec<(Packet, CopyId)>,
    /// Chaos-dropped copies not yet drained.
    pending_drops: Vec<(Packet, CopyId)>,
    log: Vec<FaultRecord>,
    next_chaos_copy: u64,
    sent: u64,
    injected: u64,
    delivered: u64,
}

impl ChaosChannel {
    /// Wraps `inner` with the given fault plan and seed.
    pub fn new(inner: BoxedChannel, plan: FaultPlan, seed: u64) -> Self {
        ChaosChannel {
            inner,
            plan,
            seed,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            was_partitioned: false,
            burst_remaining: 0,
            storm_remaining: 0,
            storm_buffer: Vec::new(),
            ready: VecDeque::new(),
            injected_sends: Vec::new(),
            pending_drops: Vec::new(),
            log: Vec::new(),
            next_chaos_copy: CHAOS_COPY_BASE,
            sent: 0,
            injected: 0,
            delivered: 0,
        }
    }

    /// The fault plan driving this channel.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The seed the fault stream was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault log so far, in injection order.
    pub fn faults(&self) -> &[FaultRecord] {
        &self.log
    }

    /// Copies injected on top of the protocol's own sends.
    pub fn injected_count(&self) -> u64 {
        self.injected
    }

    /// The wrapped channel.
    pub fn inner(&self) -> &dyn Channel {
        self.inner.as_ref()
    }

    fn mint(&mut self) -> CopyId {
        let id = CopyId::from_raw(self.next_chaos_copy);
        self.next_chaos_copy += 1;
        id
    }

    fn record(&mut self, kind: FaultKind) {
        self.log.push(FaultRecord {
            at_tick: self.now,
            kind,
        });
    }

    /// Draws the gate only for positive rates, so a quiet plan never
    /// consumes randomness and the stream stays stable as plans grow.
    fn gate(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }

    fn drop_at_send(&mut self, packet: Packet, partition: bool) -> CopyId {
        let copy = self.mint();
        self.pending_drops.push((packet, copy));
        if partition {
            self.record(FaultKind::PartitionDrop { packet, copy });
        } else {
            self.record(FaultKind::Drop { packet, copy });
        }
        copy
    }

    fn inject(&mut self, packet: Packet) -> CopyId {
        let copy = self.mint();
        self.injected += 1;
        self.injected_sends.push((packet, copy));
        if self.storm_remaining > 0 {
            self.storm_buffer.push((packet, copy));
        } else {
            self.ready.push_back((packet, copy));
        }
        copy
    }

    /// The copies held by the chaos layer itself (injected twins awaiting
    /// delivery plus storm captures), as a multiset — the single source all
    /// introspection counts read from. Chaos copy ids never collide with the
    /// inner channel's, so the two buffers always merge cleanly.
    fn overlay(&self) -> PacketMultiset {
        let mut ms = PacketMultiset::new();
        for &(p, c) in self.ready.iter().chain(self.storm_buffer.iter()) {
            ms.insert(p, c);
        }
        ms
    }
}

impl Channel for ChaosChannel {
    fn dir(&self) -> Dir {
        self.inner.dir()
    }

    fn send(&mut self, packet: Packet) -> CopyId {
        self.sent += 1;
        if self.plan.partitioned_at(self.now) {
            return self.drop_at_send(packet, true);
        }
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            return self.drop_at_send(packet, false);
        }
        if let Some((p, len)) = self.plan.burst {
            if self.gate(p) {
                self.record(FaultKind::BurstStart { len });
                // This send is the burst's first victim.
                self.burst_remaining = len - 1;
                return self.drop_at_send(packet, false);
            }
        }
        if self.gate(self.plan.drop) {
            return self.drop_at_send(packet, false);
        }
        if self.gate(self.plan.corrupt) {
            let corrupted = corrupt_packet(packet);
            let dropped = self.mint();
            self.pending_drops.push((packet, dropped));
            let injected = self.inject(corrupted);
            self.record(FaultKind::Corrupt {
                original: packet,
                corrupted,
                dropped,
                injected,
            });
            return dropped;
        }
        let copy = self.inner.send(packet);
        if self.gate(self.plan.dup) {
            let twin = self.inject(packet);
            self.record(FaultKind::Duplicate { packet, twin });
        }
        copy
    }

    fn poll_deliver(&mut self) -> Option<(Packet, CopyId)> {
        if self.storm_remaining > 0 {
            // Capture everything the inner channel wants to deliver; it
            // releases in reverse once the storm passes.
            while let Some(hit) = self.inner.poll_deliver() {
                self.storm_buffer.push(hit);
            }
            while let Some(hit) = self.ready.pop_front() {
                self.storm_buffer.push(hit);
            }
            return None;
        }
        let hit = self
            .storm_buffer
            .pop()
            .or_else(|| self.ready.pop_front())
            .or_else(|| self.inner.poll_deliver());
        if hit.is_some() {
            self.delivered += 1;
        }
        hit
    }

    fn tick(&mut self) {
        self.inner.tick();
        self.now += 1;
        let partitioned = self.plan.partitioned_at(self.now);
        if partitioned && !self.was_partitioned {
            self.record(FaultKind::PartitionStart);
        } else if !partitioned && self.was_partitioned {
            self.record(FaultKind::Heal);
        }
        self.was_partitioned = partitioned;
        if self.storm_remaining > 0 {
            self.storm_remaining -= 1;
            if self.storm_remaining == 0 {
                let buffered = self.storm_buffer.len();
                self.record(FaultKind::StormEnd { buffered });
            }
        } else if let Some((p, len)) = self.plan.storm {
            if self.gate(p) {
                self.storm_remaining = len;
                self.record(FaultKind::StormStart { len });
            }
        }
    }

    fn in_transit_len(&self) -> usize {
        self.inner.in_transit_len() + self.ready.len() + self.storm_buffer.len()
    }

    fn total_sent(&self) -> u64 {
        self.sent + self.injected
    }

    fn total_delivered(&self) -> u64 {
        self.delivered
    }
}

impl ChannelIntrospect for ChaosChannel {
    fn header_copies(&self, h: Header) -> usize {
        self.inner.header_copies(h) + self.overlay().header_copies(h)
    }

    fn packet_copies(&self, p: Packet) -> usize {
        self.inner.packet_copies(p) + self.overlay().packet_copies(p)
    }

    fn header_copies_older_than(&self, h: Header, watermark: CopyId) -> usize {
        // Chaos ids are all ≥ CHAOS_COPY_BASE, far above any send-count
        // watermark, so injected copies count as fresh — the staleness
        // estimate can only overcount via the inner channel, which is the
        // safe direction for ghost consumers (they flush more, not less).
        self.inner.header_copies_older_than(h, watermark)
            + self.overlay().header_copies_older_than(h, watermark)
    }

    fn transit_census(&self) -> Vec<(Packet, usize)> {
        self.overlay().census_with(
            self.inner
                .transit_census()
                .into_iter()
                .flat_map(|(p, n)| std::iter::repeat_n(p, n)),
        )
    }
}

impl FaultObserver for ChaosChannel {
    fn drain_drops(&mut self) -> Vec<(Packet, CopyId)> {
        let mut drops = self.inner.drain_drops();
        drops.append(&mut self.pending_drops);
        drops
    }

    fn drain_injected_sends(&mut self) -> Vec<(Packet, CopyId)> {
        std::mem::take(&mut self.injected_sends)
    }

    fn active_faults(&self) -> Vec<String> {
        let mut active = self.inner.active_faults();
        if self.plan.partitioned_at(self.now) {
            let window = self
                .plan
                .partitions
                .iter()
                .find(|&&(s, e)| (s..e).contains(&self.now))
                .expect("partitioned_at found a window");
            active.push(format!(
                "partitioned (window [{}, {}), now {})",
                window.0, window.1, self.now
            ));
        }
        if self.burst_remaining > 0 {
            active.push(format!("loss burst ({} sends left)", self.burst_remaining));
        }
        if self.storm_remaining > 0 {
            active.push(format!(
                "reorder storm ({} ticks left, {} buffered)",
                self.storm_remaining,
                self.storm_buffer.len()
            ));
        }
        active
    }

    fn fault_log(&self) -> Vec<FaultRecord> {
        self.log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FifoChannel;
    use nonfifo_ioa::{Event, SpecMonitor};

    fn p(h: u32) -> Packet {
        Packet::header_only(Header::new(h))
    }

    fn chaos(plan: &str, seed: u64) -> ChaosChannel {
        ChaosChannel::new(
            Box::new(FifoChannel::new(Dir::Forward)),
            FaultPlan::parse(plan).unwrap(),
            seed,
        )
    }

    /// Feeds a send/poll/tick workload, declaring everything to a fresh
    /// monitor the way the simulation harness does; returns the delivered
    /// sequence and asserts PL1 stayed clean.
    fn observe_round(
        ch: &mut ChaosChannel,
        monitor: &mut SpecMonitor,
        got: &mut Vec<(Packet, CopyId)>,
    ) {
        let dir = ch.dir();
        for (packet, copy) in ch.drain_injected_sends() {
            monitor
                .observe(&Event::SendPkt { dir, packet, copy })
                .unwrap();
        }
        for (packet, copy) in ch.drain_drops() {
            monitor
                .observe(&Event::DropPkt { dir, packet, copy })
                .unwrap();
        }
        while let Some((packet, copy)) = ch.poll_deliver() {
            monitor
                .observe(&Event::ReceivePkt { dir, packet, copy })
                .unwrap();
            got.push((packet, copy));
        }
        ch.tick();
    }

    fn run_monitored(ch: &mut ChaosChannel, sends: u32) -> Vec<(Packet, CopyId)> {
        let mut monitor = SpecMonitor::new();
        let dir = ch.dir();
        let mut got = Vec::new();
        for i in 0..sends {
            let pkt = p(i % 4);
            let copy = ch.send(pkt);
            monitor
                .observe(&Event::SendPkt {
                    dir,
                    packet: pkt,
                    copy,
                })
                .unwrap();
            observe_round(ch, &mut monitor, &mut got);
        }
        // Drain any storm tail.
        for _ in 0..64 {
            observe_round(ch, &mut monitor, &mut got);
        }
        got
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let mut ch = chaos("", 1);
        assert!(ch.plan().is_quiet());
        let copies: Vec<CopyId> = (0..10).map(|i| ch.send(p(i))).collect();
        let mut seen = Vec::new();
        while let Some((_, c)) = ch.poll_deliver() {
            seen.push(c);
        }
        assert_eq!(seen, copies, "quiet chaos must be FIFO-faithful");
        assert!(ch.faults().is_empty());
        assert_eq!(ch.injected_count(), 0);
    }

    #[test]
    fn duplicates_are_declared_and_pl1_clean() {
        let mut ch = chaos("dup 1.0", 3);
        let got = run_monitored(&mut ch, 10);
        assert_eq!(got.len(), 20, "every send delivers itself and a twin");
        assert_eq!(ch.injected_count(), 10);
        assert!(ch
            .faults()
            .iter()
            .all(|r| matches!(r.kind, FaultKind::Duplicate { .. })));
    }

    #[test]
    fn corruption_is_declared_and_pl1_clean() {
        let mut ch = chaos("corrupt 1.0", 3);
        let got = run_monitored(&mut ch, 8);
        assert_eq!(got.len(), 8);
        for (packet, copy) in got {
            assert!(
                packet.header().index() & 0x8000_0000 != 0,
                "every delivery is the corrupted replacement"
            );
            assert!(copy.raw() >= CHAOS_COPY_BASE);
        }
    }

    #[test]
    fn drops_are_reported() {
        let mut ch = chaos("drop 1.0", 5);
        let a = ch.send(p(0));
        assert!(a.raw() >= CHAOS_COPY_BASE, "dropped copy gets a chaos id");
        assert_eq!(ch.poll_deliver(), None);
        assert_eq!(ch.drain_drops(), vec![(p(0), a)]);
        assert_eq!(
            ch.inner().total_sent(),
            0,
            "never reached the inner channel"
        );
    }

    #[test]
    fn burst_drops_consecutive_sends() {
        let mut ch = chaos("burst 1.0 3", 5);
        for i in 0..3 {
            ch.send(p(i));
        }
        assert_eq!(ch.drain_drops().len(), 3);
        assert_eq!(
            ch.faults()
                .iter()
                .filter(|r| matches!(r.kind, FaultKind::BurstStart { .. }))
                .count(),
            1,
            "one burst covers all three sends"
        );
    }

    #[test]
    fn partition_window_loses_sends_then_heals() {
        let mut ch = chaos("partition 2 4", 1);
        assert!(ch.send(p(0)).raw() < CHAOS_COPY_BASE); // tick 0: before window
        ch.tick(); // now 1
        ch.tick(); // now 2: window opens
        let lost = ch.send(p(1));
        assert!(lost.raw() >= CHAOS_COPY_BASE);
        ch.tick(); // now 3
        ch.tick(); // now 4: healed
        assert!(ch.send(p(2)).raw() < CHAOS_COPY_BASE);
        let kinds: Vec<_> = ch.faults().iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&FaultKind::PartitionStart));
        assert!(kinds.contains(&FaultKind::Heal));
        assert_eq!(ch.drain_drops().len(), 1);
    }

    #[test]
    fn storm_reverses_deliveries() {
        let mut ch = chaos("storm 1.0 2", 1);
        ch.tick(); // storm starts (prob 1.0)
        let a = ch.send(p(0));
        let b = ch.send(p(1));
        assert_eq!(ch.poll_deliver(), None, "storm buffers deliveries");
        ch.tick();
        ch.tick(); // storm over (2 ticks elapsed)... may restart; drain first
        let first = ch.storm_buffer.is_empty();
        assert!(!first, "copies were buffered");
        // Pull everything buffered; LIFO means b before a.
        let mut out = Vec::new();
        while let Some((_, c)) = ch.poll_deliver() {
            out.push(c);
        }
        assert_eq!(out, vec![b, a]);
    }

    #[test]
    fn same_seed_and_plan_replays_identically() {
        let run = |seed| {
            let mut ch = chaos("dup 0.3\ndrop 0.2\ncorrupt 0.1\nstorm 0.2 3", seed);
            let got = run_monitored(&mut ch, 200);
            (got, ch.faults().to_vec())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds diverge");
    }

    #[test]
    fn clone_forks_the_fault_stream() {
        let mut a = chaos("drop 0.5", 9);
        for i in 0..10 {
            a.send(p(i));
        }
        let mut b = a.clone();
        let fate_a: Vec<u64> = (0..20).map(|i| a.send(p(i)).raw()).collect();
        let fate_b: Vec<u64> = (0..20).map(|i| b.send(p(i)).raw()).collect();
        assert_eq!(fate_a, fate_b);
    }

    #[test]
    fn census_sees_all_buffers() {
        let mut ch = chaos("dup 1.0", 2);
        ch.send(p(0)); // inner queue has one, ready has the twin
        let census = ch.transit_census();
        assert_eq!(census, vec![(p(0), 2)]);
    }

    #[test]
    fn active_faults_describe_state() {
        let ch = chaos("partition 0 100", 1);
        assert!(ch.active_faults()[0].contains("partitioned"));
        let mut ch = chaos("burst 1.0 5", 1);
        ch.send(p(0));
        assert!(ch.active_faults()[0].contains("burst"));
    }

    mod plan_parsing {
        use super::*;

        #[test]
        fn full_plan_round_trips() {
            let text =
                "dup 0.15\ndrop 0.1\ncorrupt 0.05\nburst 0.02 5\npartition 40 80\nstorm 0.01 6\n";
            let plan = FaultPlan::parse(text).unwrap();
            assert_eq!(plan.dup, 0.15);
            assert_eq!(plan.burst, Some((0.02, 5)));
            assert_eq!(plan.partitions, vec![(40, 80)]);
            assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        }

        #[test]
        fn comments_and_blanks_ignored() {
            let plan = FaultPlan::parse("# nothing\n\n  dup 0.5 # half\n").unwrap();
            assert_eq!(plan.dup, 0.5);
        }

        #[test]
        fn errors_name_the_line() {
            let err = FaultPlan::parse("dup 0.1\nflood 3\n").unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.to_string().contains("flood"));
            let err = FaultPlan::parse("drop 1.5").unwrap_err();
            assert!(err.message.contains("outside [0, 1]"));
            let err = FaultPlan::parse("partition 9 3").unwrap_err();
            assert!(err.message.contains("empty"));
            let err = FaultPlan::parse("burst 0.1").unwrap_err();
            assert!(err.message.contains("length"));
        }
    }
}
