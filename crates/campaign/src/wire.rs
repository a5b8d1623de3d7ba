//! The campaign service wire protocol: one line-framed JSON schema shared
//! by the HTTP front end and the cache file.
//!
//! Every message is a single JSON object on one line (newline-delimited
//! JSON), built with the hand-rolled [`Json`] value from
//! `nonfifo-telemetry` — insertion-ordered objects, exact integer
//! variants — so encodings are byte-stable and diffable like every other
//! artifact in this repo. Every message carries a `"v"` schema field
//! ([`WIRE_SCHEMA_VERSION`]), and a reader rejects any version but its own
//! rather than guessing.
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

use crate::cache::CachedRun;
use crate::runner::{IndexedRun, RunOutcome};
use nonfifo_core::RunCounters;
use nonfifo_telemetry::{Json, MetricsSnapshot};
use std::fmt;

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
    /// their snapshots merged in index order.
    /// [`MetricsSnapshot::merge_from`] accumulates counters and
    /// histograms, so merging the delta with the cache hits' snapshots
    /// reproduces the per-run metrics portion of the final aggregate.
    Metrics {
        /// Merged snapshot of the executed runs, in index order.
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

    /// Encodes the message as a [`Json`] object (versioned, type-tagged).
    pub fn to_json_value(&self) -> Json {
        let mut fields = tagged(self.kind());
        match self {
            WireMsg::Submit { plan, workers } => {
                fields.push(("plan".to_string(), Json::Str(plan.clone())));
                fields.push(("workers".to_string(), Json::Uint(*workers)));
            }
            WireMsg::Run {
                index,
                spec_fingerprint,
                run,
            } => push_run(&mut fields, *index, *spec_fingerprint, run),
            WireMsg::Metrics { snapshot } => {
                fields.push(("snapshot".to_string(), snapshot.to_json_value()));
            }
            WireMsg::Report {
                render,
                cache_hits,
                aggregate,
            } => {
                fields.push(("render".to_string(), Json::Str(render.clone())));
                fields.push(("cache_hits".to_string(), Json::Uint(*cache_hits)));
                fields.push(("aggregate".to_string(), aggregate.to_json_value()));
            }
            WireMsg::Error { message } => {
                fields.push(("message".to_string(), Json::Str(message.clone())));
            }
        }
        Json::Obj(fields)
    }

    /// Encodes the message as one newline-terminated NDJSON line. JSON
    /// string escaping keeps embedded newlines (plan documents, rendered
    /// tables) on the one line.
    pub fn to_line(&self) -> String {
        format!("{}\n", self.to_json_value())
    }

    /// Decodes a [`Json`] object produced by
    /// [`to_json_value`](WireMsg::to_json_value).
    ///
    /// # Errors
    ///
    /// Fails on non-objects, missing or mistyped fields, unknown `type`
    /// tags, and — the forward-compat contract — any `v` other than
    /// [`WIRE_SCHEMA_VERSION`].
    pub fn from_json_value(doc: &Json) -> Result<WireMsg, WireError> {
        if doc.as_obj().is_none() {
            return Err(wire_err("message is not a JSON object"));
        }
        let v = need_u64(doc, "v")?;
        if v != WIRE_SCHEMA_VERSION {
            return Err(wire_err(format!(
                "unsupported wire schema_version {v} (this build speaks {WIRE_SCHEMA_VERSION})"
            )));
        }
        let kind = need_str(doc, "type")?;
        match kind {
            "submit" => Ok(WireMsg::Submit {
                plan: need_str(doc, "plan")?.to_string(),
                workers: need_u64(doc, "workers")?,
            }),
            "run" => {
                let run = doc
                    .get("run")
                    .ok_or_else(|| wire_err("run: missing run object"))?;
                Ok(WireMsg::Run {
                    index: need_u64(doc, "index")?,
                    spec_fingerprint: need_u64(doc, "spec")?,
                    run: CachedRun::from_json_value(run)
                        .map_err(|e| wire_err(format!("run: {}", e.message)))?,
                })
            }
            "metrics" => {
                let snapshot = doc
                    .get("snapshot")
                    .ok_or_else(|| wire_err("metrics: missing snapshot"))?;
                Ok(WireMsg::Metrics {
                    snapshot: MetricsSnapshot::from_json_value(snapshot)
                        .map_err(|e| wire_err(format!("metrics: {e}")))?,
                })
            }
            "report" => {
                let aggregate = doc
                    .get("aggregate")
                    .ok_or_else(|| wire_err("report: missing aggregate"))?;
                Ok(WireMsg::Report {
                    render: need_str(doc, "render")?.to_string(),
                    cache_hits: need_u64(doc, "cache_hits")?,
                    aggregate: MetricsSnapshot::from_json_value(aggregate)
                        .map_err(|e| wire_err(format!("report: {e}")))?,
                })
            }
            "error" => Ok(WireMsg::Error {
                message: need_str(doc, "message")?.to_string(),
            }),
            other => Err(wire_err(format!("unknown message type {other:?}"))),
        }
    }

    /// Decodes one NDJSON line.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or any
    /// [`from_json_value`](WireMsg::from_json_value) rejection.
    pub fn parse_line(line: &str) -> Result<WireMsg, WireError> {
        let doc = Json::parse(line.trim()).map_err(|e| wire_err(e.to_string()))?;
        WireMsg::from_json_value(&doc)
    }

    /// The `Run` message carrying `record`.
    pub fn run_delta(record: &IndexedRun) -> WireMsg {
        WireMsg::Run {
            index: record.index as u64,
            spec_fingerprint: record.spec_fingerprint,
            run: record.run.clone(),
        }
    }
}

/// The one `run` line for `run` at `index`, encoded from a borrow — how
/// the cache writes its log without cloning each run into a [`WireMsg`].
/// Byte-identical to the [`WireMsg::Run`] line with the same fields.
pub(crate) fn run_line(index: u64, spec_fingerprint: u64, run: &CachedRun) -> String {
    let mut fields = tagged("run");
    push_run(&mut fields, index, spec_fingerprint, run);
    format!("{}\n", Json::Obj(fields))
}

/// The `v` and `type` fields every message starts with.
fn tagged(kind: &str) -> Vec<(String, Json)> {
    vec![
        ("v".to_string(), Json::Uint(WIRE_SCHEMA_VERSION)),
        ("type".to_string(), Json::Str(kind.to_string())),
    ]
}

fn push_run(fields: &mut Vec<(String, Json)>, index: u64, spec_fingerprint: u64, run: &CachedRun) {
    fields.push(("index".to_string(), Json::Uint(index)));
    fields.push(("spec".to_string(), Json::Uint(spec_fingerprint)));
    fields.push(("run".to_string(), run.to_json_value()));
}

impl CachedRun {
    /// The run as the [`Json`] object a `run` line carries.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            (
                "outcome".to_string(),
                Json::Str(self.outcome.as_str().to_string()),
            ),
            ("fingerprint".to_string(), Json::Uint(self.fingerprint)),
            ("steps".to_string(), Json::Uint(self.steps)),
            ("fwd_sends".to_string(), Json::Uint(self.fwd_sends)),
            ("delivered".to_string(), Json::Uint(self.delivered)),
            ("counters".to_string(), self.metrics.to_json_value()),
        ])
    }

    /// Parses a value written by [`to_json_value`](CachedRun::to_json_value).
    ///
    /// # Errors
    ///
    /// Rejects objects with missing or mistyped fields, and counters
    /// [`RunCounters::from_json_value`] rejects.
    pub fn from_json_value(entry: &Json) -> Result<CachedRun, WireError> {
        let outcome = entry
            .get("outcome")
            .and_then(Json::as_str)
            .and_then(RunOutcome::from_str_opt)
            .ok_or_else(|| wire_err("no valid outcome"))?;
        let metrics = entry
            .get("counters")
            .ok_or_else(|| wire_err("missing field \"counters\""))
            .and_then(|c| RunCounters::from_json_value(c).map_err(|e| wire_err(e.to_string())))?;
        Ok(CachedRun {
            outcome,
            fingerprint: need_u64(entry, "fingerprint")?,
            steps: need_u64(entry, "steps")?,
            fwd_sends: need_u64(entry, "fwd_sends")?,
            delivered: need_u64(entry, "delivered")?,
            metrics: Box::new(metrics),
        })
    }
}

fn need_u64(doc: &Json, key: &str) -> Result<u64, WireError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| wire_err(format!("missing or non-integer field {key:?}")))
}

fn need_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, WireError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| wire_err(format!("missing or non-string field {key:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{CampaignRunner, RunOutcome};
    use crate::spec::ScenarioSpec;
    use nonfifo_channel::Discipline;
    use nonfifo_telemetry::Registry;

    fn sample_run() -> CachedRun {
        let runs = ScenarioSpec::new("t")
            .protocol("seqnum")
            .discipline(Discipline::Probabilistic { q: 0.3 })
            .message_counts(&[5])
            .expand();
        let record = CampaignRunner::new(1).run(&runs).unwrap().records.remove(0);
        CachedRun {
            outcome: RunOutcome::Delivered,
            fingerprint: 0xdead_beef_cafe_f00d,
            steps: 42,
            fwd_sends: 7,
            delivered: 5,
            metrics: record.metrics,
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
                run: CachedRun {
                    outcome: RunOutcome::Panicked,
                    ..sample_run()
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
        assert_eq!(run_line(3, 99, &run), msg.to_line());
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
        match WireMsg::parse_line(&WireMsg::run_delta(&record).to_line()).unwrap() {
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
