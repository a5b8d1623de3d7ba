//! Per-run simulation telemetry in fixed slots.
//!
//! One run executes on one thread, so its counters need no atomics, lock,
//! shared cell or metric name while it runs: [`RunCounters`] is plain
//! integers, two [`LocalHistogram`]s and a per-header table per
//! direction. Names exist only in [`RunCounters::snapshot`], built where a
//! snapshot is actually read (a `--metrics-out` file, a campaign
//! aggregate). A campaign's cache entries and wire lines carry the slots
//! themselves, through [`RunCounters::to_json_value`] and
//! [`RunCounters::from_json_value`].

use nonfifo_ioa::{Dir, Event, Header};
use nonfifo_telemetry::{
    GaugeSnapshot, HistogramSnapshot, Json, LocalHistogram, MetricsSnapshot, SnapshotError,
    SCHEMA_VERSION,
};
use std::collections::BTreeMap;

/// Per-header verbs, in slot order; each names a counter
/// `chan.<dir>.<verb>.h<index>`.
const VERBS: [&str; 4] = ["send", "recv", "drop", "injected"];
const SEND: usize = 0;
const RECV: usize = 1;
const DROP: usize = 2;
const INJECTED: usize = 3;

/// Header indices below this live in a dense table indexed by header;
/// the rest in a sorted overflow list. Large indices are real: junk from
/// corrupted starts ranges up to `2^31`, `corrupt` flips bit 31, and
/// stabilizing-dl labels sit at `2^30 + k`. Storage is therefore at most
/// this many slots plus one per distinct large header touched.
const DENSE_HEADERS: u32 = 1 << 12;

type VerbCounts = [u64; VERBS.len()];

/// Per-header counts for one direction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct HeaderTable {
    dense: Vec<VerbCounts>,
    /// Sorted by header index, all `>= DENSE_HEADERS`.
    sparse: Vec<(u32, VerbCounts)>,
}

impl HeaderTable {
    fn slot(&mut self, h: u32) -> &mut VerbCounts {
        if h < DENSE_HEADERS {
            let i = h as usize;
            if i >= self.dense.len() {
                // Start at a size most alphabets fit, then double.
                self.dense.reserve((i + 1).max(64) - self.dense.len());
                self.dense.resize(i + 1, [0; VERBS.len()]);
            }
            &mut self.dense[i]
        } else {
            let i = match self.sparse.binary_search_by_key(&h, |&(k, _)| k) {
                Ok(i) => i,
                Err(i) => {
                    self.sparse.insert(i, (h, [0; VERBS.len()]));
                    i
                }
            };
            &mut self.sparse[i].1
        }
    }

    fn bump(&mut self, h: Header, verb: usize) {
        self.slot(h.index())[verb] += 1;
    }

    fn merge(&mut self, other: &HeaderTable) {
        for (h, counts) in other.iter() {
            let slot = self.slot(h);
            for (mine, theirs) in slot.iter_mut().zip(counts) {
                *mine += theirs;
            }
        }
    }

    /// Every occupied slot, ascending by header.
    fn iter(&self) -> impl Iterator<Item = (u32, &VerbCounts)> {
        (0u32..)
            .zip(&self.dense)
            .chain(self.sparse.iter().map(|(h, c)| (*h, c)))
    }

    /// One dense array per verb, indexed by header and cut after its last
    /// non-zero count, then the sparse slots as `[header, [counts]]`.
    fn to_json_value(&self) -> Json {
        let mut fields: Vec<(String, Json)> = VERBS
            .iter()
            .enumerate()
            .map(|(verb, name)| {
                let len = self
                    .dense
                    .iter()
                    .rposition(|counts| counts[verb] > 0)
                    .map_or(0, |i| i + 1);
                let counts = self.dense[..len].iter().map(|c| Json::Uint(c[verb]));
                (name.to_string(), Json::Arr(counts.collect()))
            })
            .collect();
        let sparse = self.sparse.iter().map(|(h, counts)| {
            let counts = counts.iter().map(|&n| Json::Uint(n)).collect();
            Json::Arr(vec![Json::Uint(u64::from(*h)), Json::Arr(counts)])
        });
        fields.push(("sparse".to_string(), Json::Arr(sparse.collect())));
        Json::Obj(fields)
    }

    fn from_json_value(doc: &Json) -> Result<HeaderTable, String> {
        let mut table = HeaderTable::default();
        for (verb, name) in VERBS.iter().enumerate() {
            let counts = arr(doc, name)?;
            if counts.len() > DENSE_HEADERS as usize {
                return Err(format!(
                    "{name}: {} dense headers; headers from {DENSE_HEADERS} on are sparse",
                    counts.len()
                ));
            }
            if counts.len() > table.dense.len() {
                table.dense.resize(counts.len(), [0; VERBS.len()]);
            }
            for (slot, n) in table.dense.iter_mut().zip(counts) {
                slot[verb] = n
                    .as_u64()
                    .ok_or_else(|| format!("{name}: {n} is not a u64"))?;
            }
        }
        // A slot exists because something was counted in it.
        while table
            .dense
            .last()
            .is_some_and(|c| c.iter().all(|&n| n == 0))
        {
            table.dense.pop();
        }
        for pair in arr(doc, "sparse")? {
            let slot = match pair.as_arr() {
                Some([h, counts]) => h.as_u64().zip(counts.as_arr()),
                _ => None,
            };
            let Some((h, counts)) = slot else {
                return Err(format!("sparse: {pair} is not a [header, counts] pair"));
            };
            let in_order = |h: &u32| {
                *h >= DENSE_HEADERS && table.sparse.last().is_none_or(|&(last, _)| *h > last)
            };
            let h = u32::try_from(h).ok().filter(in_order).ok_or_else(|| {
                format!("sparse: header {h} is below {DENSE_HEADERS} or out of order")
            })?;
            let counts: Vec<u64> = counts.iter().filter_map(Json::as_u64).collect();
            let counts: VerbCounts = counts
                .try_into()
                .ok()
                .filter(|c: &VerbCounts| c.iter().any(|&n| n > 0))
                .ok_or_else(|| {
                    format!(
                        "sparse: header {h} needs {} counts, not all zero",
                        VERBS.len()
                    )
                })?;
            table.sparse.push((h, counts));
        }
        Ok(table)
    }
}

/// One direction's channel counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Lane {
    sends: u64,
    delivered: u64,
    drops: u64,
    injected: u64,
    in_transit: u64,
    in_transit_high: u64,
    headers: HeaderTable,
}

impl Lane {
    fn merge(&mut self, other: &Lane) {
        self.sends += other.sends;
        self.delivered += other.delivered;
        self.drops += other.drops;
        self.injected += other.injected;
        self.in_transit = self.in_transit.max(other.in_transit);
        self.in_transit_high = self.in_transit_high.max(other.in_transit_high);
        self.headers.merge(&other.headers);
    }

    /// Appends this lane's named counters and its in-transit gauge.
    fn export(
        &self,
        name: &str,
        counters: &mut Vec<(String, u64)>,
        gauges: &mut Vec<(String, GaugeSnapshot)>,
    ) {
        for (metric, value) in &self.scalars()[..4] {
            counters.push((format!("chan.{name}.{metric}"), *value));
        }
        for (h, counts) in self.headers.iter() {
            for (verb, &n) in VERBS.iter().zip(counts) {
                if n > 0 {
                    counters.push((format!("chan.{name}.{verb}.h{h}"), n));
                }
            }
        }
        gauges.push((
            format!("sim.{name}.in_transit"),
            GaugeSnapshot {
                value: self.in_transit,
                high_water: self.in_transit_high,
            },
        ));
    }

    fn to_json_value(&self) -> Json {
        let mut fields: Vec<(String, Json)> = self
            .scalars()
            .iter()
            .map(|&(name, n)| (name.to_string(), Json::Uint(n)))
            .collect();
        fields.push(("headers".to_string(), self.headers.to_json_value()));
        Json::Obj(fields)
    }

    /// The scalar slots with their field names, in encoding order: the
    /// four counters, then the in-transit gauge's value and high water.
    fn scalars(&self) -> [(&'static str, u64); 6] {
        [
            ("sends", self.sends),
            ("delivered", self.delivered),
            ("drops", self.drops),
            ("injected", self.injected),
            ("in_transit", self.in_transit),
            ("in_transit_high", self.in_transit_high),
        ]
    }

    fn from_json_value(doc: &Json) -> Result<Lane, String> {
        Ok(Lane {
            sends: uint(doc, "sends")?,
            delivered: uint(doc, "delivered")?,
            drops: uint(doc, "drops")?,
            injected: uint(doc, "injected")?,
            in_transit: uint(doc, "in_transit")?,
            in_transit_high: uint(doc, "in_transit_high")?,
            headers: HeaderTable::from_json_value(field(doc, "headers")?)
                .map_err(|e| format!("headers.{e}"))?,
        })
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn uint(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("{key} is not a u64"))
}

fn arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("{key} is not an array"))
}

fn histogram(doc: &Json, key: &str) -> Result<LocalHistogram, String> {
    let snap =
        HistogramSnapshot::from_json_value(key, field(doc, key)?).map_err(|e| e.to_string())?;
    LocalHistogram::from_snapshot(&snap)
        .ok_or_else(|| format!("{key} is not a histogram's snapshot"))
}

/// A simulation run's telemetry: every counter, gauge and histogram the
/// simulator exports, as plain per-run slots.
///
/// Recording is a field update: no atomics, lock, `Arc` or `String`.
/// [`snapshot`](RunCounters::snapshot) names the slots, and
/// [`merge`](RunCounters::merge) sums runs with
/// [`MetricsSnapshot::merge_from`]'s rules, so the snapshot of merged
/// counters equals the merge of their snapshots.
///
/// Two counters are equal when every slot is; the forward sends of a
/// round still open are recording state, not a metric, and do not count.
#[derive(Debug, Clone, Default)]
pub struct RunCounters {
    messages_sent: u64,
    messages_received: u64,
    fwd: Lane,
    bwd: Lane,
    packets_per_message: LocalHistogram,
    header_usage: LocalHistogram,
    /// Forward sends since the last `send_msg` or message delivery, for
    /// the packets-per-message histogram.
    round_sends: u64,
}

impl RunCounters {
    /// Empty counters.
    pub fn new() -> Self {
        RunCounters::default()
    }

    fn lane(&mut self, dir: Dir) -> &mut Lane {
        match dir {
            Dir::Forward => &mut self.fwd,
            Dir::Backward => &mut self.bwd,
        }
    }

    /// Counts one recorded event.
    pub(crate) fn observe(&mut self, event: &Event) {
        match *event {
            Event::SendMsg(_) => {
                self.messages_sent += 1;
                self.round_sends = 0;
            }
            Event::ReceiveMsg(_) => {
                self.messages_received += 1;
                self.packets_per_message.record(self.round_sends);
                self.round_sends = 0;
            }
            Event::SendPkt { dir, packet, .. } => {
                let lane = self.lane(dir);
                lane.sends += 1;
                lane.headers.bump(packet.header(), SEND);
                if dir == Dir::Forward {
                    self.round_sends += 1;
                    self.header_usage.record(u64::from(packet.header().index()));
                }
            }
            Event::ReceivePkt { dir, packet, .. } => {
                let lane = self.lane(dir);
                lane.delivered += 1;
                lane.headers.bump(packet.header(), RECV);
            }
            Event::DropPkt { dir, packet, .. } => {
                let lane = self.lane(dir);
                lane.drops += 1;
                lane.headers.bump(packet.header(), DROP);
            }
        }
    }

    /// Counts a chaos-injected copy (observed as a send as well).
    pub(crate) fn observe_injected(&mut self, dir: Dir, header: Header) {
        let lane = self.lane(dir);
        lane.injected += 1;
        lane.headers.bump(header, INJECTED);
    }

    /// Sets both in-transit gauges (end of a scheduler step).
    pub(crate) fn set_in_transit(&mut self, fwd: u64, bwd: u64) {
        for (lane, n) in [(&mut self.fwd, fwd), (&mut self.bwd, bwd)] {
            lane.in_transit = n;
            lane.in_transit_high = lane.in_transit_high.max(n);
        }
    }

    /// Zeroes every count. The in-transit gauges keep their current
    /// reading (which restarts their high-water marks) and the open round
    /// keeps its forward sends.
    pub(crate) fn restart(&mut self) {
        let mut fresh = RunCounters {
            round_sends: self.round_sends,
            ..RunCounters::default()
        };
        fresh.set_in_transit(self.fwd.in_transit, self.bwd.in_transit);
        *self = fresh;
    }

    /// Packets sent in direction `dir` (`chan.<dir>.sends`).
    pub fn sends(&self, dir: Dir) -> u64 {
        match dir {
            Dir::Forward => self.fwd.sends,
            Dir::Backward => self.bwd.sends,
        }
    }

    /// Messages delivered to the higher layer (`sim.messages.received`).
    pub fn messages_received(&self) -> u64 {
        self.messages_received
    }

    /// Adds `other` into `self`: counters and histograms add, gauges keep
    /// the larger value and high-water mark.
    pub fn merge(&mut self, other: &RunCounters) {
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
        self.fwd.merge(&other.fwd);
        self.bwd.merge(&other.bwd);
        self.packets_per_message.merge(&other.packets_per_message);
        self.header_usage.merge(&other.header_usage);
    }

    /// Merges runs into one campaign-wide snapshot: the counters are
    /// summed as counters and named once, not once per run. The result
    /// equals folding each run's snapshot in with
    /// [`MetricsSnapshot::merge_from`]; no runs give an empty snapshot.
    pub fn aggregate<'a>(runs: impl IntoIterator<Item = &'a RunCounters>) -> MetricsSnapshot {
        let mut runs = runs.into_iter();
        let Some(first) = runs.next() else {
            return MetricsSnapshot {
                schema_version: SCHEMA_VERSION,
                ..MetricsSnapshot::default()
            };
        };
        let mut total = first.clone();
        for run in runs {
            total.merge(run);
        }
        total.snapshot()
    }

    /// The counters as the compact object a campaign `run` line carries:
    /// each scalar slot named once, per direction one dense array per
    /// verb indexed by header (headers below 2^12) and the sparse headers
    /// as ascending `[header, [send, recv, drop, injected]]` pairs, and
    /// both histograms in their snapshot form.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("messages_sent".to_string(), Json::Uint(self.messages_sent)),
            (
                "messages_received".to_string(),
                Json::Uint(self.messages_received),
            ),
            ("fwd".to_string(), self.fwd.to_json_value()),
            ("bwd".to_string(), self.bwd.to_json_value()),
            (
                "packets_per_message".to_string(),
                self.packets_per_message.snapshot().to_json_value(),
            ),
            (
                "header_usage".to_string(),
                self.header_usage.snapshot().to_json_value(),
            ),
        ])
    }

    /// Parses a [`to_json_value`](Self::to_json_value) object back into
    /// the counters it was written from.
    ///
    /// # Errors
    ///
    /// A [`SnapshotError::Schema`] naming the field at fault: a missing
    /// field, a count that is not a `u64`, a dense array longer than 2^12,
    /// a sparse header below 2^12, out of order or with no count, or a
    /// histogram no [`LocalHistogram`] exports.
    pub fn from_json_value(doc: &Json) -> Result<RunCounters, SnapshotError> {
        let lane =
            |key: &str| Lane::from_json_value(field(doc, key)?).map_err(|e| format!("{key}.{e}"));
        let decode = || -> Result<RunCounters, String> {
            Ok(RunCounters {
                messages_sent: uint(doc, "messages_sent")?,
                messages_received: uint(doc, "messages_received")?,
                fwd: lane("fwd")?,
                bwd: lane("bwd")?,
                packets_per_message: histogram(doc, "packets_per_message")?,
                header_usage: histogram(doc, "header_usage")?,
                round_sends: 0,
            })
        };
        decode().map_err(|e| SnapshotError::Schema(format!("run counters: {e}")))
    }

    /// The name-keyed snapshot: every fixed counter (zero or not), the
    /// non-zero per-header counters, both in-transit gauges and both
    /// histograms. Each map is built by one `collect`, which packs its
    /// B-tree nodes full; inserting names one at a time would leave them
    /// about half full.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = vec![
            ("sim.messages.sent".to_string(), self.messages_sent),
            ("sim.messages.received".to_string(), self.messages_received),
        ];
        let mut gauges = Vec::with_capacity(2);
        self.fwd.export("fwd", &mut counters, &mut gauges);
        self.bwd.export("bwd", &mut counters, &mut gauges);
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: BTreeMap::from([
                (
                    "sim.packets_per_message".to_string(),
                    self.packets_per_message.snapshot(),
                ),
                ("sim.header_usage".to_string(), self.header_usage.snapshot()),
            ]),
            ..MetricsSnapshot::default()
        }
    }
}

impl PartialEq for RunCounters {
    fn eq(&self, other: &RunCounters) -> bool {
        self.messages_sent == other.messages_sent
            && self.messages_received == other.messages_received
            && self.fwd == other.fwd
            && self.bwd == other.bwd
            && self.packets_per_message == other.packets_per_message
            && self.header_usage == other.header_usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corrupted_simulation, drive_corrupted, SimConfig, Simulation, StabilizeConfig};
    use nonfifo_channel::{CorruptionSeverity, Discipline, FaultPlan};
    use nonfifo_protocols::{AlternatingBit, StabilizingDl};

    fn large(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
        snap.counters
            .iter()
            .filter(|(k, _)| {
                k.rsplit_once(".h")
                    .and_then(|(_, h)| h.parse::<u64>().ok())
                    .is_some_and(|h| h >= 1 << 30)
            })
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Per-header slots held across both directions.
    fn header_slots(c: &RunCounters) -> usize {
        [&c.fwd.headers, &c.bwd.headers]
            .iter()
            .map(|t| t.dense.len() + t.sparse.len())
            .sum()
    }

    /// Distinct `(direction, header)` pairs among the per-header names.
    fn distinct_headers(snap: &MetricsSnapshot) -> usize {
        let pairs: std::collections::BTreeSet<(&str, &str)> = snap
            .counters
            .keys()
            .filter_map(|k| {
                let (lane, rest) = k.strip_prefix("chan.")?.split_once('.')?;
                Some((lane, rest.rsplit_once(".h")?.1))
            })
            .collect();
        pairs.len()
    }

    #[test]
    fn out_of_alphabet_headers_are_named_exactly_and_stored_sparsely() {
        // Chaos `corrupt` flips bit 31: abp's h0/h1 become h2^31, h2^31+1.
        let mut sim = Simulation::builder(AlternatingBit::new())
            .fault_plan(FaultPlan::parse("corrupt 0.2").unwrap())
            .seed(3)
            .build();
        sim.count_events();
        let cfg = SimConfig {
            max_steps_per_message: 1_000,
            ..SimConfig::default()
        };
        assert!(sim.deliver(12, &cfg).is_err(), "the corruption stalls abp");
        let counters = sim.counters().unwrap();
        let snap = counters.snapshot();
        let pinned: Vec<(String, u64)> = [
            ("chan.bwd.drop.h2147483649", 1),
            ("chan.bwd.injected.h2147483649", 1),
            ("chan.bwd.recv.h2147483648", 1),
            ("chan.bwd.recv.h2147483649", 3),
            ("chan.bwd.send.h2147483648", 1),
            ("chan.bwd.send.h2147483649", 4),
            ("chan.fwd.injected.h2147483648", 1),
            ("chan.fwd.injected.h2147483649", 3),
            ("chan.fwd.recv.h2147483648", 1),
            ("chan.fwd.recv.h2147483649", 3),
            ("chan.fwd.send.h2147483648", 1),
            ("chan.fwd.send.h2147483649", 3),
        ]
        .map(|(k, v)| (k.to_string(), v))
        .to_vec();
        assert_eq!(large(&snap), pinned);
        assert_eq!(header_slots(counters), distinct_headers(&snap));

        // A heavy corrupted start: stabilizing-dl's own labels sit at
        // 2^30 + k, and the scramble adds junk headers up to 2^31.
        let cfg = StabilizeConfig {
            severity: CorruptionSeverity::Heavy,
            discipline: Discipline::Probabilistic { q: 0.2 },
            messages: 4,
            ..StabilizeConfig::default()
        };
        let mut sim = corrupted_simulation(StabilizingDl::new(), 5, &cfg);
        sim.count_events();
        drive_corrupted(&mut sim, 5, &cfg);
        let counters = sim.counters().unwrap();
        let snap = counters.snapshot();
        let pinned: Vec<(String, u64)> = [
            ("chan.bwd.recv.h1073741825", 3),
            ("chan.bwd.recv.h1073741826", 4),
            ("chan.bwd.recv.h1073741827", 5),
            ("chan.bwd.recv.h1073741828", 1),
            ("chan.bwd.send.h1073741825", 5),
            ("chan.bwd.send.h1073741826", 5),
            ("chan.bwd.send.h1073741827", 5),
            ("chan.bwd.send.h1073741828", 1),
            ("chan.fwd.recv.h1073741825", 5),
            ("chan.fwd.recv.h1073741826", 5),
            ("chan.fwd.recv.h1073741827", 5),
            ("chan.fwd.recv.h1073741828", 5),
            ("chan.fwd.send.h1073741825", 6),
            ("chan.fwd.send.h1073741826", 5),
            ("chan.fwd.send.h1073741827", 6),
            ("chan.fwd.send.h1073741828", 6),
        ]
        .map(|(k, v)| (k.to_string(), v))
        .to_vec();
        assert_eq!(large(&snap), pinned);
        // Junk receipts below 2^30 (h545154058, h934745435) are sparse too.
        assert_eq!(snap.counters["chan.bwd.recv.h545154058"], 1);
        assert_eq!(snap.counters["chan.fwd.recv.h934745435"], 1);
        // Storage is one slot per distinct large header plus the dense
        // run of small ones (junk headers below 8): O(headers touched),
        // nowhere near the 2^31 a table indexed by header would need.
        assert!(
            header_slots(counters) <= distinct_headers(&snap) + 2 * 8,
            "{} slots for {} distinct headers",
            header_slots(counters),
            distinct_headers(&snap)
        );
    }
}
