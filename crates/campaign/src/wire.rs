//! The campaign service wire protocol: one line-framed JSON schema shared
//! by the HTTP front end and the cache file.
//!
//! Every message is a single JSON object on one line (newline-delimited
//! JSON) with its fields in a fixed order, so encodings are byte-stable
//! and diffable like every other artifact in this repo. Every message
//! carries a `"v"` schema field ([`WIRE_SCHEMA_VERSION`]), and a reader
//! rejects any version but its own rather than guessing.
//!
//! The conversation: the client sends [`WireMsg::Submit`] (a plan
//! document plus a worker count), and the daemon answers with one
//! [`WireMsg::Run`] per executed run as it lands, one [`WireMsg::Metrics`]
//! delta, and a final [`WireMsg::Report`] (or [`WireMsg::Error`]).
//!
//! A run travels as its [`CachedRun`], addressed by expansion index and
//! spec fingerprint so the receiver can merge it with
//! [`merge_reports`](crate::merge_reports)' fingerprint check. Its metrics
//! travel as the compact [`RunCounters`] object — per-header counts are
//! dense arrays, not one named counter each — and get their names only in
//! the `metrics` delta and the `report` aggregate. The same
//! `run` line is the cache file's record: a
//! [`CampaignCache`](crate::CampaignCache) file is an NDJSON log of them,
//! keyed by `spec`, so the cache has no serialization of its own.
//!
//! Run lines have one text codec and no `Json` tree: a line is written
//! field by field straight into a `String` (`write_run_line`, which the
//! daemon's stream renders from a borrowed run and whose `counters` text
//! the cache keeps, and `write_stored_run_line`, which the cache's log
//! renders from that text), and read
//! field by field off a [`JsonReader`], [`RunCounters::read_json`] taking
//! the `counters` object. Fields may come in any order, the first of
//! repeated keys wins, unknown fields are skipped but validated, counts
//! must be exact `u64`s, and a syntax error anywhere in the line is
//! reported before any schema error.
//! The `metrics` and `report` lines carry snapshots the same way, with
//! [`MetricsSnapshot::write_json`] and [`MetricsSnapshot::read_json`].

use crate::cache::CachedRun;
use crate::runner::{RunOutcome, RunResult};
use nonfifo_core::RunCounters;
use nonfifo_telemetry::{
    write_string, write_u64, JsonError, JsonReader, MetricsSnapshot, SnapshotError,
};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// Version of the wire encoding this build speaks.
/// Version 3 drops the `metrics` line's `shard` field, which was always 0.
/// Version 2 carries a run's metrics as its [`RunCounters`] object;
/// version 1 carried their name-keyed snapshot.
pub const WIRE_SCHEMA_VERSION: u64 = 3;

/// A malformed, unsupported, or out-of-protocol wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the line.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire: {}", self.message)
    }
}

impl std::error::Error for WireError {}

fn wire_err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

/// One message of the campaign service protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Client → daemon: run this plan on `workers` threads (`0` = the
    /// daemon's configured default).
    Submit {
        /// The campaign plan document, verbatim.
        plan: String,
        /// Requested worker-thread count (`0` = the daemon's default).
        /// The daemon answers counts above 64 with a `400` and an
        /// [`WireMsg::Error`] line.
        workers: u64,
    },
    /// One completed run, streamed as it lands.
    Run {
        /// Index into the plan expansion.
        index: u64,
        /// [`RunSpec::fingerprint`](crate::RunSpec::fingerprint) of the
        /// spec this record answers — checked at merge.
        spec_fingerprint: u64,
        /// The run result.
        run: CachedRun,
    },
    /// The metrics delta of a campaign's executed runs, one per campaign:
    /// the snapshot of their counters, folded.
    /// [`MetricsSnapshot::merge_from`] accumulates counters and
    /// histograms, so merging the delta with the cache hits' snapshots
    /// reproduces the per-run metrics portion of the final aggregate.
    Metrics {
        /// Snapshot of the executed runs' folded counters.
        snapshot: MetricsSnapshot,
    },
    /// Daemon → client: the campaign's final merged result.
    Report {
        /// The rendered markdown table, byte-identical to batch output.
        render: String,
        /// Records replayed from the daemon's shared cache.
        cache_hits: u64,
        /// The campaign-wide aggregate snapshot, byte-identical to batch.
        aggregate: MetricsSnapshot,
    },
    /// Either direction: the conversation failed; `message` says why.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

impl WireMsg {
    /// The message's `"type"` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            WireMsg::Submit { .. } => "submit",
            WireMsg::Run { .. } => "run",
            WireMsg::Metrics { .. } => "metrics",
            WireMsg::Report { .. } => "report",
            WireMsg::Error { .. } => "error",
        }
    }

    /// Encodes the message as one newline-terminated NDJSON line: the
    /// `v` and `type` fields, then the message's own. JSON string
    /// escaping keeps embedded newlines (plan documents, rendered tables)
    /// on the one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        let (index, spec_fingerprint, run) = match self {
            WireMsg::Run {
                index,
                spec_fingerprint,
                run,
            } => (index, spec_fingerprint, run),
            WireMsg::Submit { plan, workers } => {
                write_head(&mut out, self.kind());
                out.push_str(",\"plan\":");
                write_string(&mut out, plan);
                out.push_str(",\"workers\":");
                write_u64(&mut out, *workers);
                out.push_str("}\n");
                return out;
            }
            WireMsg::Metrics { snapshot } => {
                write_head(&mut out, self.kind());
                out.push_str(",\"snapshot\":");
                snapshot.write_json(&mut out);
                out.push_str("}\n");
                return out;
            }
            WireMsg::Report {
                render,
                cache_hits,
                aggregate,
            } => {
                write_head(&mut out, self.kind());
                out.push_str(",\"render\":");
                write_string(&mut out, render);
                out.push_str(",\"cache_hits\":");
                write_u64(&mut out, *cache_hits);
                out.push_str(",\"aggregate\":");
                aggregate.write_json(&mut out);
                out.push_str("}\n");
                return out;
            }
            WireMsg::Error { message } => {
                write_head(&mut out, self.kind());
                out.push_str(",\"message\":");
                write_string(&mut out, message);
                out.push_str("}\n");
                return out;
            }
        };
        write_run_line(&mut out, *index, *spec_fingerprint, run);
        out
    }

    /// Decodes one NDJSON line.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, on non-objects, missing or mistyped
    /// fields and unknown `type` tags, and — the forward-compat contract —
    /// on any `v` other than [`WIRE_SCHEMA_VERSION`].
    pub fn parse_line(line: &str) -> Result<WireMsg, WireError> {
        LineFields::read(line.trim())
            .map_err(|e| wire_err(e.to_string()))?
            .into_message()
    }
}

/// Appends the `run` line for `run` at `index` to `out`, encoded from a
/// borrow: how the daemon writes its stream without cloning each run into
/// a [`WireMsg`]. Byte-identical to the [`WireMsg::Run`] line with the
/// same fields. Returns where the line's `counters` object sits in `out`:
/// the text a cache entry keeps.
pub(crate) fn write_run_line(
    out: &mut String,
    index: u64,
    spec_fingerprint: u64,
    run: &CachedRun,
) -> Range<usize> {
    write_run_line_with(out, index, spec_fingerprint, &run.result, |out| {
        run.metrics.write_json(out)
    })
}

/// [`write_run_line`] for a run whose counters are already the text
/// [`RunCounters::write_json`] writes: how the cache writes its log
/// from its entries.
pub(crate) fn write_stored_run_line(
    out: &mut String,
    index: u64,
    spec_fingerprint: u64,
    result: &RunResult,
    counters: &str,
) {
    write_run_line_with(out, index, spec_fingerprint, result, |out| {
        out.push_str(counters)
    });
}

/// The one `run` line layout; `counters` appends the counters object.
/// Returns where that object sits in `out`.
fn write_run_line_with(
    out: &mut String,
    index: u64,
    spec_fingerprint: u64,
    r: &RunResult,
    counters: impl FnOnce(&mut String),
) -> Range<usize> {
    write_head(out, "run");
    out.push_str(",\"index\":");
    write_u64(out, index);
    out.push_str(",\"spec\":");
    write_u64(out, spec_fingerprint);
    out.push_str(",\"run\":{\"outcome\":");
    write_string(out, r.outcome.as_str());
    for (key, n) in [
        (",\"fingerprint\":", r.fingerprint),
        (",\"steps\":", r.steps),
        (",\"fwd_sends\":", r.fwd_sends),
        (",\"delivered\":", r.delivered),
    ] {
        out.push_str(key);
        write_u64(out, n);
    }
    out.push_str(",\"counters\":");
    let start = out.len();
    counters(out);
    let end = out.len();
    out.push_str("}}\n");
    start..end
}

/// The `v` and `type` fields every message starts with.
fn write_head(out: &mut String, kind: &str) {
    out.push_str("{\"v\":");
    write_u64(out, WIRE_SCHEMA_VERSION);
    out.push_str(",\"type\":");
    write_string(out, kind);
}

/// One line's top-level fields as read: `None` if a field is absent, and
/// for scalars `Some(None)` if it has another type. Reading the fields is
/// where a syntax error surfaces; judging them, in
/// [`into_message`](Self::into_message), is where a schema error does, so
/// a line's first syntax error is reported before any schema error.
#[derive(Default)]
pub(crate) struct LineFields<'a> {
    object: bool,
    v: Option<Option<u64>>,
    kind: Option<Option<Cow<'a, str>>>,
    plan: Option<Option<Cow<'a, str>>>,
    workers: Option<Option<u64>>,
    index: Option<Option<u64>>,
    spec: Option<Option<u64>>,
    run: Option<Result<CachedRun, String>>,
    snapshot: Option<Result<MetricsSnapshot, String>>,
    render: Option<Option<Cow<'a, str>>>,
    cache_hits: Option<Option<u64>>,
    aggregate: Option<Result<MetricsSnapshot, String>>,
    message: Option<Option<Cow<'a, str>>>,
}

impl<'a> LineFields<'a> {
    /// Reads one line's document.
    ///
    /// # Errors
    ///
    /// The first syntax error, exactly as `Json::parse` reports it.
    pub(crate) fn read(text: &'a str) -> Result<LineFields<'a>, JsonError> {
        let mut reader = JsonReader::new(text);
        let mut fields = LineFields {
            object: reader.begin_object()?,
            ..LineFields::default()
        };
        if fields.object {
            while let Some(key) = reader.next_key()? {
                let r = &mut reader;
                match &*key {
                    "v" => r.read_once(&mut fields.v, JsonReader::u64)?,
                    "type" => r.read_once(&mut fields.kind, JsonReader::str)?,
                    "plan" => r.read_once(&mut fields.plan, JsonReader::str)?,
                    "workers" => r.read_once(&mut fields.workers, JsonReader::u64)?,
                    "index" => r.read_once(&mut fields.index, JsonReader::u64)?,
                    "spec" => r.read_once(&mut fields.spec, JsonReader::u64)?,
                    "run" => r.read_once(&mut fields.run, CachedRun::read_json)?,
                    "snapshot" => r.read_once(&mut fields.snapshot, |r| {
                        deferred(MetricsSnapshot::read_json(r))
                    })?,
                    "render" => r.read_once(&mut fields.render, JsonReader::str)?,
                    "cache_hits" => r.read_once(&mut fields.cache_hits, JsonReader::u64)?,
                    "aggregate" => r.read_once(&mut fields.aggregate, |r| {
                        deferred(MetricsSnapshot::read_json(r))
                    })?,
                    "message" => r.read_once(&mut fields.message, JsonReader::str)?,
                    _ => r.skip_value()?,
                }
            }
        }
        reader.finish()?;
        Ok(fields)
    }

    /// The line's `v`, if it has one that is a `u64`.
    pub(crate) fn version(&self) -> Option<u64> {
        self.v.flatten()
    }

    /// Judges the fields as a message, checking in a fixed order: an
    /// object, its `v`, its `type`, then the type's own fields.
    ///
    /// # Errors
    ///
    /// The first check that fails.
    pub(crate) fn into_message(self) -> Result<WireMsg, WireError> {
        if !self.object {
            return Err(wire_err("message is not a JSON object"));
        }
        let v = need_u64(self.v, "v")?;
        if v != WIRE_SCHEMA_VERSION {
            return Err(wire_err(format!(
                "unsupported wire schema_version {v} (this build speaks {WIRE_SCHEMA_VERSION})"
            )));
        }
        let kind = need_str(self.kind, "type")?;
        match &*kind {
            "submit" => Ok(WireMsg::Submit {
                plan: need_str(self.plan, "plan")?.into_owned(),
                workers: need_u64(self.workers, "workers")?,
            }),
            "run" => {
                let run = self
                    .run
                    .ok_or_else(|| wire_err("run: missing run object"))?;
                Ok(WireMsg::Run {
                    index: need_u64(self.index, "index")?,
                    spec_fingerprint: need_u64(self.spec, "spec")?,
                    run: run.map_err(|e| wire_err(format!("run: {e}")))?,
                })
            }
            "metrics" => {
                let snapshot = self
                    .snapshot
                    .ok_or_else(|| wire_err("metrics: missing snapshot"))?;
                Ok(WireMsg::Metrics {
                    snapshot: snapshot.map_err(|e| wire_err(format!("metrics: {e}")))?,
                })
            }
            "report" => {
                let aggregate = self
                    .aggregate
                    .ok_or_else(|| wire_err("report: missing aggregate"))?;
                Ok(WireMsg::Report {
                    render: need_str(self.render, "render")?.into_owned(),
                    cache_hits: need_u64(self.cache_hits, "cache_hits")?,
                    aggregate: aggregate.map_err(|e| wire_err(format!("report: {e}")))?,
                })
            }
            "error" => Ok(WireMsg::Error {
                message: need_str(self.message, "message")?.into_owned(),
            }),
            other => Err(wire_err(format!("unknown message type {other:?}"))),
        }
    }
}

impl CachedRun {
    /// Reads the object a `run` line carries as its `run`. The outer
    /// error is a syntax error; the inner one is the first failing check,
    /// in the order: `outcome`, `counters` (missing, or rejected by
    /// [`RunCounters::read_json`]), then `fingerprint`, `steps`,
    /// `fwd_sends` and `delivered`.
    pub(crate) fn read_json(
        reader: &mut JsonReader,
    ) -> Result<Result<CachedRun, String>, JsonError> {
        const SCALARS: [&str; 4] = ["fingerprint", "steps", "fwd_sends", "delivered"];
        let mut outcome = None;
        let mut counters = None;
        let mut scalars = [None; SCALARS.len()];
        if reader.begin_object()? {
            while let Some(key) = reader.next_key()? {
                match SCALARS.iter().position(|name| *name == key) {
                    Some(i) => reader.read_once(&mut scalars[i], JsonReader::u64)?,
                    None if key == "outcome" => reader.read_once(&mut outcome, |r| {
                        Ok(r.str()?.as_deref().and_then(RunOutcome::from_str_opt))
                    })?,
                    None if key == "counters" => {
                        reader.read_once(&mut counters, |r| deferred(RunCounters::read_json(r)))?
                    }
                    None => reader.skip_value()?,
                }
            }
        }
        let verdict = || {
            let outcome = outcome.flatten().ok_or("no valid outcome")?;
            let metrics = counters.ok_or("missing field \"counters\"")??;
            let [fingerprint, steps, fwd_sends, delivered] = scalars.map(|read| read.flatten());
            let need = |read: Option<u64>, key: &str| {
                read.ok_or_else(|| format!("missing or non-integer field {key:?}"))
            };
            Ok(CachedRun {
                result: RunResult {
                    outcome,
                    fingerprint: need(fingerprint, SCALARS[0])?,
                    steps: need(steps, SCALARS[1])?,
                    fwd_sends: need(fwd_sends, SCALARS[2])?,
                    delivered: need(delivered, SCALARS[3])?,
                },
                metrics: Box::new(metrics),
            })
        };
        Ok(verdict())
    }
}

/// A decoder's verdict on a value inside a line: a syntax error ends the
/// line's read, and a schema error waits, as text, for the line's checks.
fn deferred<T>(read: Result<T, SnapshotError>) -> Result<Result<T, String>, JsonError> {
    match read {
        Err(SnapshotError::Json(e)) => Err(e),
        read => Ok(read.map_err(|e| e.to_string())),
    }
}

fn need_u64(read: Option<Option<u64>>, key: &str) -> Result<u64, WireError> {
    read.flatten()
        .ok_or_else(|| wire_err(format!("missing or non-integer field {key:?}")))
}

fn need_str<'a>(read: Option<Option<Cow<'a, str>>>, key: &str) -> Result<Cow<'a, str>, WireError> {
    read.flatten()
        .ok_or_else(|| wire_err(format!("missing or non-string field {key:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{CampaignRunner, IndexedRun};
    use crate::spec::ScenarioSpec;
    use nonfifo_channel::Discipline;
    use nonfifo_telemetry::{Json, Registry};

    fn sample_run() -> CachedRun {
        let runs = ScenarioSpec::new("t")
            .protocol("seqnum")
            .discipline(Discipline::Probabilistic { q: 0.3 })
            .message_counts(&[5])
            .expand();
        CachedRun {
            result: RunResult {
                outcome: RunOutcome::Delivered,
                fingerprint: 0xdead_beef_cafe_f00d,
                steps: 42,
                fwd_sends: 7,
                delivered: 5,
            },
            ..CampaignRunner::run_one(&runs[0]).unwrap()
        }
    }

    fn samples() -> Vec<WireMsg> {
        let registry = Registry::new();
        registry.counter("sim.messages.received").add(3);
        registry.gauge("service.active_workers").set(2);
        vec![
            WireMsg::Submit {
                plan: "scenario demo\nprotocols abp\nmessages 5\n".to_string(),
                workers: 4,
            },
            WireMsg::Run {
                index: 4,
                spec_fingerprint: 0x0123_4567_89ab_cdef,
                run: sample_run(),
            },
            WireMsg::Run {
                index: 5,
                spec_fingerprint: 1,
                run: {
                    let mut run = sample_run();
                    run.result.outcome = RunOutcome::Panicked;
                    run
                },
            },
            WireMsg::Metrics {
                snapshot: registry.snapshot(),
            },
            WireMsg::Report {
                render: "| a | b |\n| - | - |\n".to_string(),
                cache_hits: 9,
                aggregate: registry.snapshot(),
            },
            WireMsg::Error {
                message: "plan line 3: unknown directive".to_string(),
            },
        ]
    }

    #[test]
    fn every_message_kind_round_trips_through_one_line() {
        for msg in samples() {
            let line = msg.to_line();
            assert_eq!(
                line.matches('\n').count(),
                1,
                "{}: not one line",
                msg.kind()
            );
            assert!(line.ends_with('\n'));
            let back = WireMsg::parse_line(&line).unwrap();
            assert_eq!(back, msg, "{} round trip", msg.kind());
            // Re-encoding is byte-stable.
            assert_eq!(back.to_line(), line, "{} re-encode", msg.kind());
            // Version 3 dropped the metrics line's always-zero `shard`.
            let doc = Json::parse(line.trim()).unwrap();
            assert!(doc.get("shard").is_none(), "{line}");
        }
    }

    #[test]
    fn borrowed_run_lines_match_the_run_message() {
        let run = sample_run();
        let msg = WireMsg::Run {
            index: 3,
            spec_fingerprint: 99,
            run: run.clone(),
        };
        let mut line = String::new();
        write_run_line(&mut line, 3, 99, &run);
        assert_eq!(line, msg.to_line());
    }

    /// A `submit` body with an unknown field nested 100,000 levels deep
    /// fails at the 128th level, naming the byte, with no stack frame per
    /// level; the same field at a legal depth is skipped.
    #[test]
    fn a_deeply_nested_unknown_field_fails_at_the_cap() {
        let submit = WireMsg::Submit {
            plan: "scenario s\nprotocols abp\n".to_string(),
            workers: 1,
        };
        let line = submit.to_line();
        let nest = |depth: usize| {
            line.replacen(
                "{\"v\":3,",
                &format!(
                    "{{\"v\":3,\"x\":{}{},",
                    "[".repeat(depth),
                    "]".repeat(depth)
                ),
                1,
            )
        };
        let err = WireMsg::parse_line(&nest(100_000)).unwrap_err();
        let at = format!("json error at byte {}: ", 11 + 127);
        assert!(err.to_string().starts_with(&format!("wire: {at}")), "{err}");
        assert!(
            err.message.contains("nesting deeper than 128 levels"),
            "{err}"
        );
        assert_eq!(WireMsg::parse_line(&nest(127)).unwrap(), submit);
    }

    #[test]
    fn messages_embedding_newlines_stay_line_framed() {
        let msg = WireMsg::Report {
            render: "line one\nline two\nline three".to_string(),
            cache_hits: 0,
            aggregate: Registry::new().snapshot(),
        };
        let line = msg.to_line();
        assert_eq!(line.matches('\n').count(), 1);
        match WireMsg::parse_line(&line).unwrap() {
            WireMsg::Report { render, .. } => assert_eq!(render, "line one\nline two\nline three"),
            other => panic!("wrong kind: {}", other.kind()),
        }
    }

    #[test]
    fn newer_schema_versions_are_rejected_by_name() {
        let line = WireMsg::Error {
            message: "x".to_string(),
        }
        .to_line();
        for v in ["1", "2", "4"] {
            let line = line.replacen("\"v\":3", &format!("\"v\":{v}"), 1);
            let err = WireMsg::parse_line(&line).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unsupported wire schema_version {v}")),
                "{err}"
            );
        }
    }

    #[test]
    fn malformed_lines_fail_with_context() {
        for (line, needle) in [
            ("{", "wire:"),
            ("[1,2]", "not a JSON object"),
            ("{\"v\":3}", "type"),
            ("{\"v\":3,\"type\":\"warble\"}", "unknown message type"),
            ("{\"v\":3,\"type\":\"submit\",\"plan\":\"x\"}", "workers"),
            ("{\"v\":3,\"type\":\"metrics\"}", "missing snapshot"),
            (
                "{\"v\":3,\"type\":\"shard\",\"plan\":\"x\",\"shard\":0,\"of\":1}",
                "unknown message type",
            ),
        ] {
            let err = WireMsg::parse_line(line).unwrap_err();
            assert!(err.to_string().contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn run_delta_round_trips_a_shard_record() {
        let record = IndexedRun {
            index: 5,
            spec_fingerprint: 77,
            run: sample_run(),
        };
        let mut line = String::new();
        write_run_line(
            &mut line,
            record.index as u64,
            record.spec_fingerprint,
            &record.run,
        );
        match WireMsg::parse_line(&line).unwrap() {
            WireMsg::Run {
                index,
                spec_fingerprint,
                run,
            } => {
                assert_eq!((index, spec_fingerprint), (5, 77));
                assert_eq!(run, record.run);
            }
            other => panic!("wrong kind: {}", other.kind()),
        }
    }
}
