//! Per-run simulation telemetry in fixed slots.
//!
//! One run executes on one thread, so its counters need no atomics, lock,
//! shared cell or metric name while it runs: [`RunCounters`] is plain
//! integers, two [`LocalHistogram`]s and a per-header table per
//! direction. Names exist only in [`RunCounters::snapshot`], built where a
//! snapshot is actually read (a `--metrics-out` file, a campaign
//! aggregate). A campaign's cache entries and wire lines carry the slots
//! themselves, in one text codec: [`RunCounters::write_json`] appends the
//! compact object to a `String`, and [`RunCounters::read_json`] reads it
//! back off a [`JsonReader`] field by field, with no `Json` tree in
//! between.

use nonfifo_ioa::{Dir, Event, Header};
use nonfifo_telemetry::{
    write_u64, GaugeSnapshot, HistogramSnapshot, Json, JsonError, JsonReader, LocalHistogram,
    MetricsSnapshot, SnapshotError, SCHEMA_VERSION,
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

    /// Appends the table's object: one dense array per verb, indexed by
    /// header and cut after its last non-zero count, then the sparse
    /// slots as `[header, [counts]]`.
    fn write_json(&self, out: &mut String) {
        for (verb, name) in VERBS.iter().enumerate() {
            out.push_str(if verb == 0 { "{\"" } else { ",\"" });
            out.push_str(name);
            out.push_str("\":[");
            let len = self
                .dense
                .iter()
                .rposition(|counts| counts[verb] > 0)
                .map_or(0, |i| i + 1);
            write_list(out, self.dense[..len].iter().map(|counts| counts[verb]));
            out.push(']');
        }
        out.push_str(",\"sparse\":[");
        for (i, (h, counts)) in self.sparse.iter().enumerate() {
            out.push_str(if i == 0 { "[" } else { ",[" });
            write_u64(out, u64::from(*h));
            out.push_str(",[");
            write_list(out, counts.iter().copied());
            out.push_str("]]");
        }
        out.push_str("]}");
    }

    /// Reads a [`write_json`](Self::write_json) object. The outer error
    /// is a syntax error; the inner one names the field at fault, checked
    /// in the order: each verb's array (missing, not an array, longer
    /// than 2^12, a count that is not a `u64`), then the sparse pairs.
    fn read_json(reader: &mut JsonReader) -> Result<Result<HeaderTable, String>, JsonError> {
        let mut table = HeaderTable::default();
        // Per array: `None` while unseen, then its own verdict.
        let mut dense: [Option<Result<(), String>>; VERBS.len()] = Default::default();
        let mut sparse = None;
        if reader.begin_object()? {
            while let Some(key) = reader.next_key()? {
                match VERBS.iter().position(|name| *name == key) {
                    Some(verb) => {
                        reader.read_once(&mut dense[verb], |r| table.read_dense(r, verb))?;
                    }
                    None if key == "sparse" => {
                        reader.read_once(&mut sparse, |r| table.read_sparse(r))?;
                    }
                    None => reader.skip_value()?,
                }
            }
        }
        let verdict = || {
            for (read, name) in dense.into_iter().zip(VERBS) {
                found(read, name)?;
            }
            found(sparse, "sparse")?;
            // A slot exists because something was counted in it.
            while table
                .dense
                .last()
                .is_some_and(|c| c.iter().all(|&n| n == 0))
            {
                table.dense.pop();
            }
            table.dense.shrink_to_fit();
            Ok(table)
        };
        Ok(verdict())
    }

    /// Reads one verb's dense array into the table.
    fn read_dense(
        &mut self,
        reader: &mut JsonReader,
        verb: usize,
    ) -> Result<Result<(), String>, JsonError> {
        let name = VERBS[verb];
        if !reader.begin_array()? {
            return Ok(Err(format!("{name} is not an array")));
        }
        let mut len = 0;
        let mut bad = None;
        while reader.next_item()? {
            if len < DENSE_HEADERS as usize && bad.is_none() {
                let mark = reader.mark();
                match reader.u64()? {
                    Some(n) => {
                        if len == self.dense.len() {
                            if len == self.dense.capacity() {
                                // As `slot` grows it: a size most alphabets
                                // fit, then doubling; `read_json` trims.
                                self.dense.reserve(len.max(64));
                            }
                            self.dense.push([0; VERBS.len()]);
                        }
                        self.dense[len][verb] = n;
                    }
                    None => {
                        bad = Some(format!(
                            "{name}: {} is not a u64",
                            shown(reader.since(mark))
                        ))
                    }
                }
            } else {
                reader.skip_value()?;
            }
            len += 1;
        }
        Ok(if len > DENSE_HEADERS as usize {
            Err(format!(
                "{name}: {len} dense headers; headers from {DENSE_HEADERS} on are sparse"
            ))
        } else {
            bad.map_or(Ok(()), Err)
        })
    }

    /// Reads the sparse `[header, [counts]]` pairs into the table; the
    /// first pair at fault names the error.
    fn read_sparse(&mut self, reader: &mut JsonReader) -> Result<Result<(), String>, JsonError> {
        if !reader.begin_array()? {
            return Ok(Err("sparse is not an array".to_string()));
        }
        let mut verdict = Ok(());
        while reader.next_item()? {
            let mark = reader.mark();
            let pair = read_sparse_pair(reader)?;
            if verdict.is_ok() {
                verdict = self.push_sparse(pair, reader.since(mark));
            }
        }
        Ok(verdict)
    }

    /// Appends one read sparse pair; `text` is the pair as written.
    fn push_sparse(&mut self, pair: Option<(u64, SparseCounts)>, text: &str) -> Result<(), String> {
        let Some((h, (counts, read))) = pair else {
            return Err(format!(
                "sparse: {} is not a [header, counts] pair",
                shown(text)
            ));
        };
        let in_order =
            |h: &u32| *h >= DENSE_HEADERS && self.sparse.last().is_none_or(|&(last, _)| *h > last);
        let h = u32::try_from(h).ok().filter(in_order).ok_or_else(|| {
            format!("sparse: header {h} is below {DENSE_HEADERS} or out of order")
        })?;
        if read != VERBS.len() || counts.iter().all(|&n| n == 0) {
            return Err(format!(
                "sparse: header {h} needs {} counts, not all zero",
                VERBS.len()
            ));
        }
        self.sparse.push((h, counts));
        Ok(())
    }
}

/// A sparse pair's counts: the first four `u64`s of the array and how
/// many it held. Elements that are not `u64`s are passed over: run lines
/// have always been accepted with them.
type SparseCounts = (VerbCounts, usize);

/// One sparse slot, `[header, [counts]]`: `None` unless it is an array of
/// exactly a `u64` and an array.
fn read_sparse_pair(reader: &mut JsonReader) -> Result<Option<(u64, SparseCounts)>, JsonError> {
    if !reader.begin_array()? {
        return Ok(None);
    }
    let (mut h, mut counts, mut len) = (None, None, 0);
    while reader.next_item()? {
        match len {
            0 => h = reader.u64()?,
            1 => counts = read_sparse_counts(reader)?,
            _ => reader.skip_value()?,
        }
        len += 1;
    }
    Ok(h.zip(counts).filter(|_| len == 2))
}

/// A sparse pair's counts array, `None` if the value is not an array.
fn read_sparse_counts(reader: &mut JsonReader) -> Result<Option<SparseCounts>, JsonError> {
    if !reader.begin_array()? {
        return Ok(None);
    }
    let (mut counts, mut read) = ([0; VERBS.len()], 0);
    while reader.next_item()? {
        if let Some(n) = reader.u64()? {
            if let Some(slot) = counts.get_mut(read) {
                *slot = n;
            }
            read += 1;
        }
    }
    Ok(Some((counts, read)))
}

/// A value of a document as an error message shows it: compact, so the
/// message does not depend on the line's spacing.
fn shown(text: &str) -> String {
    Json::parse(text).map_or_else(|_| text.to_string(), |value| value.to_string())
}

/// Appends `items` to `out`, comma-separated.
fn write_list(out: &mut String, items: impl IntoIterator<Item = u64>) {
    for (i, n) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_u64(out, n);
    }
}

/// A field's verdict as read: `None` if the field never came.
fn found<T>(read: Option<Result<T, String>>, key: &str) -> Result<T, String> {
    read.unwrap_or_else(|| Err(format!("missing field {key:?}")))
}

/// Checks scalar fields read as `Some(Some(n))`, in the order of `keys`:
/// the first missing (`None`) or non-`u64` (`Some(None)`) field fails.
fn check_u64s<const N: usize>(
    keys: [&str; N],
    read: [Option<Option<u64>>; N],
) -> Result<[u64; N], String> {
    let mut values = [0; N];
    for ((value, read), key) in values.iter_mut().zip(read).zip(keys) {
        *value = match read {
            None => return Err(format!("missing field {key:?}")),
            Some(None) => return Err(format!("{key} is not a u64")),
            Some(Some(n)) => n,
        };
    }
    Ok(values)
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

    /// The scalar slots with their field names, in encoding order: the
    /// four counters, then the in-transit gauge's value and high water.
    fn scalars(&self) -> [(&'static str, u64); 6] {
        let values = [
            self.sends,
            self.delivered,
            self.drops,
            self.injected,
            self.in_transit,
            self.in_transit_high,
        ];
        std::array::from_fn(|i| (LANE_FIELDS[i], values[i]))
    }

    /// Appends the lane's object: the scalar slots, then the per-header
    /// table.
    fn write_json(&self, out: &mut String) {
        for (i, (name, n)) in self.scalars().into_iter().enumerate() {
            out.push_str(if i == 0 { "{\"" } else { ",\"" });
            out.push_str(name);
            out.push_str("\":");
            write_u64(out, n);
        }
        out.push_str(",\"headers\":");
        self.headers.write_json(out);
        out.push('}');
    }

    /// Reads a [`write_json`](Self::write_json) object; the outer error
    /// is a syntax error, the inner one names the field at fault.
    fn read_json(reader: &mut JsonReader) -> Result<Result<Lane, String>, JsonError> {
        let mut scalars = [None; LANE_FIELDS.len()];
        let mut headers = None;
        if reader.begin_object()? {
            while let Some(key) = reader.next_key()? {
                match LANE_FIELDS.iter().position(|name| *name == key) {
                    Some(i) => reader.read_once(&mut scalars[i], JsonReader::u64)?,
                    None if key == "headers" => reader.read_once(&mut headers, |r| {
                        Ok(HeaderTable::read_json(r)?.map_err(|e| format!("headers.{e}")))
                    })?,
                    None => reader.skip_value()?,
                }
            }
        }
        let verdict = || {
            let [sends, delivered, drops, injected, in_transit, in_transit_high] =
                check_u64s(LANE_FIELDS, scalars)?;
            let headers = found(headers, "headers")?;
            Ok(Lane {
                sends,
                delivered,
                drops,
                injected,
                in_transit,
                in_transit_high,
                headers,
            })
        };
        Ok(verdict())
    }
}

/// A lane's scalar fields, in encoding order.
const LANE_FIELDS: [&str; 6] = [
    "sends",
    "delivered",
    "drops",
    "injected",
    "in_transit",
    "in_transit_high",
];

/// The run-level scalar fields, in encoding order.
const RUN_FIELDS: [&str; 2] = ["messages_sent", "messages_received"];
/// The lanes' fields, forward first.
const LANES: [&str; 2] = ["fwd", "bwd"];
/// The histograms' fields: packets per message, then header usage.
const HISTOGRAMS: [&str; 2] = ["packets_per_message", "header_usage"];

/// Reads the histogram at `key`: its snapshot object, which must be one a
/// [`LocalHistogram`] exports.
fn read_histogram(
    key: &str,
    reader: &mut JsonReader,
) -> Result<Result<LocalHistogram, String>, JsonError> {
    Ok(match HistogramSnapshot::read_json(key, reader) {
        Err(SnapshotError::Json(e)) => return Err(e),
        Err(e) => Err(e.to_string()),
        Ok(snap) => LocalHistogram::from_snapshot(&snap)
            .ok_or_else(|| format!("{key} is not a histogram's snapshot")),
    })
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

    /// Appends the counters as the compact object a campaign `run` line
    /// carries: each scalar slot named once, per direction one dense
    /// array per verb indexed by header (headers below 2^12) and the
    /// sparse headers as ascending `[header, [send, recv, drop,
    /// injected]]` pairs, and both histograms in their snapshot form.
    pub fn write_json(&self, out: &mut String) {
        for (i, (name, n)) in RUN_FIELDS
            .into_iter()
            .zip([self.messages_sent, self.messages_received])
            .enumerate()
        {
            out.push_str(if i == 0 { "{\"" } else { ",\"" });
            out.push_str(name);
            out.push_str("\":");
            write_u64(out, n);
        }
        for (name, lane) in LANES.into_iter().zip([&self.fwd, &self.bwd]) {
            out.push_str(",\"");
            out.push_str(name);
            out.push_str("\":");
            lane.write_json(out);
        }
        for (name, histogram) in HISTOGRAMS
            .into_iter()
            .zip([&self.packets_per_message, &self.header_usage])
        {
            out.push_str(",\"");
            out.push_str(name);
            out.push_str("\":");
            histogram.snapshot().write_json(out);
        }
        out.push('}');
    }

    /// Reads a [`write_json`](Self::write_json) object off `reader` back
    /// into the counters it was written from. Fields may come in any
    /// order, the first of repeated keys wins, and unknown fields are
    /// skipped (still validated as JSON).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Json`] for a syntax error, after which the reader
    /// is spent. Otherwise a [`SnapshotError::Schema`] naming the field at
    /// fault, with the object passed over whole: a missing field, a count
    /// that is not a `u64`, a dense array longer than 2^12, a sparse
    /// header below 2^12, out of order or with no count, or a histogram no
    /// [`LocalHistogram`] exports. When several fields are at fault, a
    /// fixed order of checks picks the one named, wherever the fields sit
    /// in the line.
    pub fn read_json(reader: &mut JsonReader) -> Result<RunCounters, SnapshotError> {
        let mut scalars = [None; RUN_FIELDS.len()];
        let mut lanes = [None, None];
        let mut histograms = [None, None];
        if reader.begin_object()? {
            while let Some(key) = reader.next_key()? {
                let at = |names: [&str; 2]| names.iter().position(|name| *name == key);
                if let Some(i) = at(RUN_FIELDS) {
                    reader.read_once(&mut scalars[i], JsonReader::u64)?;
                } else if let Some(i) = at(LANES) {
                    reader.read_once(&mut lanes[i], |r| {
                        Ok(Lane::read_json(r)?.map_err(|e| format!("{}.{e}", LANES[i])))
                    })?;
                } else if let Some(i) = at(HISTOGRAMS) {
                    reader.read_once(&mut histograms[i], |r| read_histogram(HISTOGRAMS[i], r))?;
                } else {
                    reader.skip_value()?;
                }
            }
        }
        let verdict = || -> Result<RunCounters, String> {
            let [messages_sent, messages_received] = check_u64s(RUN_FIELDS, scalars)?;
            let [fwd, bwd] = lanes;
            let [packets_per_message, header_usage] = histograms;
            Ok(RunCounters {
                messages_sent,
                messages_received,
                fwd: found(fwd, LANES[0])?,
                bwd: found(bwd, LANES[1])?,
                packets_per_message: found(packets_per_message, HISTOGRAMS[0])?,
                header_usage: found(header_usage, HISTOGRAMS[1])?,
                round_sends: 0,
            })
        };
        verdict().map_err(|e| SnapshotError::Schema(format!("run counters: {e}")))
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
