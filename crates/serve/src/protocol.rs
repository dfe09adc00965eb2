//! The lfm-serve/v1 wire protocol: one JSON object per line, both ways.
//!
//! Requests name a kernel and variant; the server answers with a
//! `status` of `ok` (carrying a canonical report object), `shed`
//! (explicit load-shedding with a retry hint), `error` (semantic
//! failure — never retried), `pong`, or `bye`.
//!
//! Determinism contract: the `report` object is rendered once, by the
//! handler that explored the miss, from deterministic report fields only
//! (no wall times, no host state) and cached verbatim. A cache hit
//! replays those exact bytes, so hit and originating miss are
//! byte-identical — [`report_raw`] exists so tests can assert that
//! without re-parsing. The `cache` marker lives *outside* the report
//! object for the same reason.

use std::ops::Range;

use lfm_obs::json::{self, Json};
use lfm_sim::{splitmix64, Truncation};

use crate::level::CheckOutcome;

/// Schema tag carried by every request and response line.
pub const SERVE_SCHEMA: &str = "lfm-serve/v1";

/// Schema tag of the `stats` snapshot reply (see
/// [`StatsSnapshot`](crate::server::StatsSnapshot)).
pub const STATS_SCHEMA: &str = "lfm-serve-stats/v1";

/// A request-scoped trace identity, minted by the client and echoed
/// verbatim by the server on every reply to that request.
///
/// Both ids are deterministic `splitmix64` mixes of a client seed and
/// a per-client request sequence number — no wall clock, no host
/// entropy — so chaos contract runs reproduce the same ids forever.
/// On the wire they ride as *optional* `trace_id`/`span_id` fields
/// (16-hex-digit strings, like fingerprints); servers and clients that
/// predate them ignore unknown fields, which is the whole
/// backward-compatibility story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identity of the whole request (stable across transport retries).
    pub trace_id: u64,
    /// Identity of this attempt's root span.
    pub span_id: u64,
}

impl TraceContext {
    /// Mints the deterministic context for request number `seq` of the
    /// client seeded with `seed`.
    pub fn mint(seed: u64, seq: u64) -> TraceContext {
        let trace_id = splitmix64(seed ^ splitmix64(seq ^ 0x007A_CE1D));
        TraceContext {
            trace_id,
            span_id: splitmix64(trace_id),
        }
    }

    fn render_fields(self, line: &mut String) {
        line.push_str(&format!(
            ",\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\"",
            self.trace_id, self.span_id
        ));
    }
}

fn parse_hex_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key)
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
}

/// Extracts the optional trace context from a parsed frame.
fn parse_trace(doc: &Json) -> Option<TraceContext> {
    let trace_id = parse_hex_u64(doc, "trace_id")?;
    let span_id = parse_hex_u64(doc, "span_id")?;
    Some(TraceContext { trace_id, span_id })
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Model-check one kernel variant.
    Check {
        /// Kernel id from the registry (e.g. `ww_double_free`).
        kernel: String,
        /// Variant selector: `buggy` or a fix slug (see
        /// [`parse_variant`]).
        variant: String,
        /// Optional per-request wall deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Optional client-minted trace identity, echoed on the reply.
        trace: Option<TraceContext>,
    },
    /// Rolling-window service snapshot (`lfm-serve-stats/v1` reply).
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: stop accepting, drain, exit.
    Shutdown,
}

/// Renders a [`Request`] as its wire line (no trailing newline).
pub fn render_request(request: &Request) -> String {
    match request {
        Request::Check {
            kernel,
            variant,
            deadline_ms,
            trace,
        } => {
            let mut line = format!(
                "{{\"schema\":{},\"op\":\"check\",\"kernel\":{},\"variant\":{}",
                json::quote(SERVE_SCHEMA),
                json::quote(kernel),
                json::quote(variant)
            );
            if let Some(ms) = deadline_ms {
                line.push_str(&format!(",\"deadline_ms\":{ms}"));
            }
            if let Some(trace) = trace {
                trace.render_fields(&mut line);
            }
            line.push('}');
            line
        }
        Request::Stats => format!(
            "{{\"schema\":{},\"op\":\"stats\"}}",
            json::quote(SERVE_SCHEMA)
        ),
        Request::Ping => format!(
            "{{\"schema\":{},\"op\":\"ping\"}}",
            json::quote(SERVE_SCHEMA)
        ),
        Request::Shutdown => format!(
            "{{\"schema\":{},\"op\":\"shutdown\"}}",
            json::quote(SERVE_SCHEMA)
        ),
    }
}

/// Parses one request line. Unknown ops, missing fields, or a foreign
/// schema tag are errors — the server answers them with `status:error`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != SERVE_SCHEMA {
        return Err(format!("schema must be {SERVE_SCHEMA:?}, got {schema:?}"));
    }
    match doc.get("op").and_then(Json::as_str) {
        Some("check") => {
            let kernel = doc
                .get("kernel")
                .and_then(Json::as_str)
                .ok_or("check needs a string `kernel`")?
                .to_owned();
            let variant = doc
                .get("variant")
                .and_then(Json::as_str)
                .unwrap_or("buggy")
                .to_owned();
            let deadline_ms = doc.get("deadline_ms").and_then(Json::as_u64);
            Ok(Request::Check {
                kernel,
                variant,
                deadline_ms,
                trace: parse_trace(&doc),
            })
        }
        Some("stats") => Ok(Request::Stats),
        Some("ping") => Ok(Request::Ping),
        Some("shutdown") => Ok(Request::Shutdown),
        Some(op) => Err(format!("unknown op {op:?}")),
        None => Err("missing `op`".to_owned()),
    }
}

/// A parsed server response (the client-side view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A completed check; `report` holds the canonical report object's
    /// raw bytes exactly as sent.
    Ok {
        /// `true` when the report came from the fingerprint cache.
        cache_hit: bool,
        /// Raw bytes of the `report` JSON object.
        report: String,
    },
    /// The server refused the request under load; retry later.
    Shed {
        /// Why: `admission`, `queue-full`, `busy`, `connections`, or
        /// `draining`.
        reason: String,
        /// Client backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// Semantic failure (unknown kernel, bad request). Not retryable.
    Error {
        /// Human-readable cause.
        reason: String,
    },
    /// Answer to `ping`.
    Pong,
    /// Answer to `shutdown`: the server is draining.
    Bye,
}

/// Renders the `ok` response line around pre-rendered report bytes.
/// The report object is the **last** field so that [`report_raw`] can
/// recover its exact bytes without a parser; the trace echo (when the
/// *request* carried one) therefore renders before it. The echo is a
/// pure function of the request — never of server tracing config —
/// which is what keeps replies byte-identical with tracing on or off.
pub fn render_ok(cache_hit: bool, trace: Option<TraceContext>, report: &str) -> String {
    let mut line = format!(
        "{{\"schema\":{},\"status\":\"ok\",\"cache\":\"{}\"",
        json::quote(SERVE_SCHEMA),
        if cache_hit { "hit" } else { "miss" },
    );
    if let Some(trace) = trace {
        trace.render_fields(&mut line);
    }
    line.push_str(&format!(",\"report\":{report}}}"));
    line
}

/// Renders a `shed` response line (trace echo rules as [`render_ok`]).
pub fn render_shed(reason: &str, retry_after_ms: u64, trace: Option<TraceContext>) -> String {
    let mut line = format!(
        "{{\"schema\":{},\"status\":\"shed\",\"reason\":{},\"retry_after_ms\":{}",
        json::quote(SERVE_SCHEMA),
        json::quote(reason),
        retry_after_ms
    );
    if let Some(trace) = trace {
        trace.render_fields(&mut line);
    }
    line.push('}');
    line
}

/// Renders an `error` response line (trace echo rules as [`render_ok`]).
pub fn render_error(reason: &str, trace: Option<TraceContext>) -> String {
    let mut line = format!(
        "{{\"schema\":{},\"status\":\"error\",\"reason\":{}",
        json::quote(SERVE_SCHEMA),
        json::quote(reason)
    );
    if let Some(trace) = trace {
        trace.render_fields(&mut line);
    }
    line.push('}');
    line
}

/// Renders the `pong` response line.
pub fn render_pong() -> String {
    format!(
        "{{\"schema\":{},\"status\":\"pong\"}}",
        json::quote(SERVE_SCHEMA)
    )
}

/// Renders the `bye` response line.
pub fn render_bye() -> String {
    format!(
        "{{\"schema\":{},\"status\":\"bye\"}}",
        json::quote(SERVE_SCHEMA)
    )
}

/// Extracts the raw bytes of the `report` object from an `ok` response
/// line, without parsing. Relies on [`render_ok`] placing the report
/// last; used by the chaos contract tests to assert hit/miss
/// byte-identity.
pub fn report_raw(line: &str) -> Option<&str> {
    report_range(line).map(|range| &line[range])
}

/// Where [`report_raw`]'s bytes lie in `line`: from the first
/// `"report":` to the line's closing brace.
fn report_range(line: &str) -> Option<Range<usize>> {
    let start = line.find("\"report\":")? + "\"report\":".len();
    let line = line.trim_end();
    if !line.ends_with('}') || start >= line.len() {
        return None;
    }
    Some(start..line.len() - 1)
}

/// Parses one response line into a [`Response`].
pub fn parse_response(line: &str) -> Result<Response, String> {
    parse_response_doc(line).map(|(response, _)| response)
}

/// [`parse_response`], also handing back the `report` object from the
/// same parse (`Json::Null` for other statuses), so the client reads a
/// report's fields without parsing it again.
///
/// An `ok` line is parsed once. Its raw report bytes, which the client
/// keeps, must be exactly the source of the top-level `report` member's
/// value: a member after the report, a `"report":` key nested in an
/// earlier member or whitespace around the object all fail.
pub(crate) fn parse_response_doc(line: &str) -> Result<(Response, Json), String> {
    let (doc, report_span) =
        Json::parse_with_span(line, "report").map_err(|e| format!("bad JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != SERVE_SCHEMA {
        return Err(format!("schema must be {SERVE_SCHEMA:?}, got {schema:?}"));
    }
    let response = match doc.get("status").and_then(Json::as_str) {
        Some("ok") => {
            let cache_hit = match doc.get("cache").and_then(Json::as_str) {
                Some("hit") => true,
                Some("miss") => false,
                other => return Err(format!("bad cache marker {other:?}")),
            };
            let range = report_range(line).ok_or("ok response without report bytes")?;
            if report_span != Some(range.clone()) {
                return Err("report bytes are not the top-level report object".to_owned());
            }
            let Json::Obj(members) = doc else {
                unreachable!("a document with a member span is an object")
            };
            let (_, report_doc) = members
                .into_iter()
                .find(|(key, _)| key == "report")
                .expect("the spanned member is there");
            return Ok((
                Response::Ok {
                    cache_hit,
                    report: line[range].to_owned(),
                },
                report_doc,
            ));
        }
        Some("shed") => Response::Shed {
            reason: doc
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_owned(),
            retry_after_ms: doc
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(25),
        },
        Some("error") => Response::Error {
            reason: doc
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_owned(),
        },
        Some("pong") => Response::Pong,
        Some("bye") => Response::Bye,
        other => return Err(format!("unknown status {other:?}")),
    };
    Ok((response, Json::Null))
}

/// Renders the canonical report object for one completed check.
///
/// Every field is a deterministic function of the program and the
/// exploration parameters — counts, level, confidence, truncation —
/// and **never** wall-clock time, so the bytes are stable across runs
/// and safe to cache and replay as hits.
pub fn render_report(kernel: &str, variant: &str, fingerprint: u64, out: &CheckOutcome) -> String {
    let truncation = match out.truncation {
        None => "null".to_owned(),
        Some(t) => json::quote(&truncation_tag(t)),
    };
    let first_failure = match &out.first_failure {
        None => "null".to_owned(),
        Some(text) => json::quote(text),
    };
    format!(
        concat!(
            "{{\"kernel\":{},\"variant\":{},\"fingerprint\":\"{:016x}\",",
            "\"level\":\"{}\",\"confidence\":\"{}\",\"truncation\":{},",
            "\"schedules\":{},\"counts\":{{\"ok\":{},\"assert\":{},\"deadlock\":{},",
            "\"step_limit\":{},\"tx_retry\":{},\"misuse\":{}}},\"failures\":{},",
            "\"first_failure\":{}}}"
        ),
        json::quote(kernel),
        json::quote(variant),
        fingerprint,
        out.level,
        out.confidence,
        truncation,
        out.schedules,
        out.counts.ok,
        out.counts.assert_failed,
        out.counts.deadlock,
        out.counts.step_limit,
        out.counts.tx_retry_limit,
        out.counts.misuse,
        out.counts.failures(),
        first_failure
    )
}

fn truncation_tag(t: Truncation) -> String {
    match t {
        Truncation::ScheduleBudget => "schedule-budget",
        Truncation::StepBudget => "step-budget",
        Truncation::PreemptionBound => "preemption-bound",
        Truncation::WallDeadline => "wall-deadline",
    }
    .to_owned()
}

/// Stable wire slug for a kernel variant.
pub fn variant_slug(variant: lfm_kernels::Variant) -> &'static str {
    use lfm_kernels::{FixKind, Variant};
    match variant {
        Variant::Buggy => "buggy",
        Variant::Fixed(FixKind::Lock) => "lock",
        Variant::Fixed(FixKind::Atomic) => "atomic",
        Variant::Fixed(FixKind::CondCheck) => "cond-check",
        Variant::Fixed(FixKind::CodeSwitch) => "code-switch",
        Variant::Fixed(FixKind::Design) => "design",
        Variant::Fixed(FixKind::AddSync) => "add-sync",
        Variant::Fixed(FixKind::Transaction) => "transaction",
        Variant::Fixed(FixKind::GiveUp) => "give-up",
        Variant::Fixed(FixKind::AcquireInOrder) => "acquire-in-order",
        Variant::Fixed(FixKind::Split) => "split",
    }
}

/// Parses a wire slug back into a kernel variant.
pub fn parse_variant(slug: &str) -> Option<lfm_kernels::Variant> {
    use lfm_kernels::{FixKind, Variant};
    Some(match slug {
        "buggy" => Variant::Buggy,
        "lock" => Variant::Fixed(FixKind::Lock),
        "atomic" => Variant::Fixed(FixKind::Atomic),
        "cond-check" => Variant::Fixed(FixKind::CondCheck),
        "code-switch" => Variant::Fixed(FixKind::CodeSwitch),
        "design" => Variant::Fixed(FixKind::Design),
        "add-sync" => Variant::Fixed(FixKind::AddSync),
        "transaction" => Variant::Fixed(FixKind::Transaction),
        "give-up" => Variant::Fixed(FixKind::GiveUp),
        "acquire-in-order" => Variant::Fixed(FixKind::AcquireInOrder),
        "split" => Variant::Fixed(FixKind::Split),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for request in [
            Request::Check {
                kernel: "abba".to_owned(),
                variant: "acquire-in-order".to_owned(),
                deadline_ms: Some(250),
                trace: None,
            },
            Request::Check {
                kernel: "toctou_flag".to_owned(),
                variant: "buggy".to_owned(),
                deadline_ms: None,
                trace: Some(TraceContext::mint(42, 7)),
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ] {
            let line = render_request(&request);
            assert_eq!(parse_request(&line).unwrap(), request);
        }
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(TraceContext::mint(42, 0), TraceContext::mint(42, 0));
        assert_ne!(TraceContext::mint(42, 0), TraceContext::mint(42, 1));
        assert_ne!(TraceContext::mint(42, 0), TraceContext::mint(43, 0));
        let t = TraceContext::mint(1, 2);
        assert_ne!(t.trace_id, t.span_id);
    }

    #[test]
    fn trace_fields_are_optional_and_ignored_by_old_parsers() {
        // A frame with trace fields parses on a server that knows them…
        let line = "{\"schema\":\"lfm-serve/v1\",\"op\":\"check\",\"kernel\":\"abba\",\
                    \"variant\":\"buggy\",\"trace_id\":\"00000000000000ff\",\
                    \"span_id\":\"0000000000000001\"}";
        match parse_request(line).unwrap() {
            Request::Check { trace, .. } => {
                let trace = trace.expect("trace parsed");
                assert_eq!(trace.trace_id, 0xff);
                assert_eq!(trace.span_id, 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // …and a malformed/absent trace degrades to None, never an error.
        let line = "{\"schema\":\"lfm-serve/v1\",\"op\":\"check\",\"kernel\":\"abba\",\
                    \"trace_id\":\"not-hex\",\"span_id\":\"1\"}";
        match parse_request(line).unwrap() {
            Request::Check { trace, .. } => assert_eq!(trace, None),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn trace_echo_renders_before_the_report() {
        let trace = TraceContext::mint(3, 9);
        let line = render_ok(false, Some(trace), "{\"kernel\":\"abba\"}");
        let echo = format!("\"trace_id\":\"{:016x}\"", trace.trace_id);
        assert!(line.contains(&echo), "{line}");
        assert!(
            line.find(&echo).unwrap() < line.find("\"report\":").unwrap(),
            "echo must precede the report so report_raw stays exact: {line}"
        );
        assert_eq!(report_raw(&line), Some("{\"kernel\":\"abba\"}"));
        // Shed and error replies echo too.
        assert!(render_shed("busy", 25, Some(trace)).contains(&echo));
        assert!(render_error("bad", Some(trace)).contains(&echo));
    }

    #[test]
    fn foreign_schema_and_bad_ops_are_rejected() {
        assert!(parse_request("{\"schema\":\"lfm-serve/v2\",\"op\":\"ping\"}").is_err());
        assert!(parse_request("{\"schema\":\"lfm-serve/v1\",\"op\":\"fry\"}").is_err());
        assert!(parse_request("{\"schema\":\"lfm-serve/v1\"}").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"schema\":\"lfm-serve/v1\",\"op\":\"check\"}").is_err());
    }

    #[test]
    fn report_raw_recovers_exact_bytes() {
        let report = "{\"kernel\":\"x\",\"nested\":{\"a\":1}}";
        let hit = render_ok(true, None, report);
        let miss = render_ok(false, None, report);
        assert_eq!(report_raw(&hit), Some(report));
        assert_eq!(report_raw(&miss), Some(report));
        assert_ne!(hit, miss, "cache marker must differ outside the report");
    }

    #[test]
    fn response_round_trips() {
        let ok = render_ok(false, None, "{\"kernel\":\"abba\"}");
        match parse_response(&ok).unwrap() {
            Response::Ok { cache_hit, report } => {
                assert!(!cache_hit);
                assert_eq!(report, "{\"kernel\":\"abba\"}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        match parse_response(&render_shed("queue-full", 40, None)).unwrap() {
            Response::Shed {
                reason,
                retry_after_ms,
            } => {
                assert_eq!(reason, "queue-full");
                assert_eq!(retry_after_ms, 40);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(parse_response(&render_pong()).unwrap(), Response::Pong);
        assert_eq!(parse_response(&render_bye()).unwrap(), Response::Bye);
        match parse_response(&render_error("unknown kernel", None)).unwrap() {
            Response::Error { reason } => assert_eq!(reason, "unknown kernel"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// A `counter_rmw/buggy` report, as the server renders it.
    const REPORT: &str = concat!(
        "{\"kernel\":\"counter_rmw\",\"variant\":\"buggy\",\"fingerprint\":\"bfb41251bdcf3e4a\",",
        "\"level\":\"exhaustive\",\"confidence\":\"proved\",\"truncation\":null,\"schedules\":4,",
        "\"counts\":{\"ok\":2,\"assert\":2,\"deadlock\":0,\"step_limit\":0,\"tx_retry\":0,",
        "\"misuse\":0},\"failures\":2,\"first_failure\":\"final assert failed: both increments retained\"}"
    );

    #[test]
    fn ok_frames_decode_to_their_report_bytes_and_tally_fields() {
        for (cache_hit, trace) in [
            (true, None),
            (false, None),
            (true, Some(TraceContext::mint(42, 7))),
        ] {
            let line = render_ok(cache_hit, trace, REPORT);
            let (response, doc) = parse_response_doc(&line).unwrap();
            assert_eq!(
                response,
                Response::Ok {
                    cache_hit,
                    report: REPORT.to_owned()
                },
                "{line}"
            );
            assert_eq!(doc, Json::parse(REPORT).unwrap(), "{line}");
            let field = |key| doc.get(key).and_then(Json::as_str);
            assert_eq!(field("level"), Some("exhaustive"));
            assert_eq!(field("confidence"), Some("proved"));
            assert_eq!(field("fingerprint"), Some("bfb41251bdcf3e4a"));
            assert_eq!(doc.get("failures").and_then(Json::as_u64), Some(2));
        }
        // Other statuses carry no report.
        assert_eq!(parse_response_doc(&render_pong()).unwrap().1, Json::Null);
    }

    #[test]
    fn ok_frames_whose_report_bytes_are_not_the_report_member_are_rejected() {
        let head = "{\"schema\":\"lfm-serve/v1\",\"status\":\"ok\",\"cache\":\"hit\"";
        let report = "{\"kernel\":\"abba\",\"failures\":0}";
        for frame in [
            // A member after the report.
            format!("{head},\"report\":{report},\"extra\":1}}"),
            // The first `"report":` is a key inside an earlier member.
            format!("{head},\"meta\":{{\"report\":1}},\"report\":{report}}}"),
            // The report object is cut short.
            format!("{head},\"report\":{}}}", &report[..report.len() - 1]),
        ] {
            assert!(parse_response(&frame).is_err(), "{frame}");
            // Parsing the raw slice on its own rejects them too.
            assert!(
                report_raw(&frame).is_none_or(|raw| Json::parse(raw).is_err()),
                "{frame}"
            );
        }
        // Whitespace around the report parses on its own, but the raw
        // bytes would not be the report's own bytes.
        let spaced = format!("{head},\"report\": {report} }}");
        assert!(Json::parse(report_raw(&spaced).unwrap()).is_ok());
        assert!(parse_response(&spaced).is_err(), "{spaced}");
    }

    #[test]
    fn truncated_ok_lines_fail_to_parse() {
        let line = render_ok(false, None, "{\"kernel\":\"abba\",\"counts\":{\"ok\":3}}");
        // Every strict prefix must be rejected, not half-understood —
        // this is what makes chaos truncation safe for the client.
        for cut in 1..line.len() {
            assert!(
                parse_response(&line[..cut]).is_err(),
                "prefix of len {cut} parsed"
            );
        }
    }

    #[test]
    fn variant_slugs_round_trip() {
        use lfm_kernels::{FixKind, Variant};
        let all = [
            Variant::Buggy,
            Variant::Fixed(FixKind::Lock),
            Variant::Fixed(FixKind::Atomic),
            Variant::Fixed(FixKind::CondCheck),
            Variant::Fixed(FixKind::CodeSwitch),
            Variant::Fixed(FixKind::Design),
            Variant::Fixed(FixKind::AddSync),
            Variant::Fixed(FixKind::Transaction),
            Variant::Fixed(FixKind::GiveUp),
            Variant::Fixed(FixKind::AcquireInOrder),
            Variant::Fixed(FixKind::Split),
        ];
        for v in all {
            assert_eq!(parse_variant(variant_slug(v)), Some(v));
        }
        assert_eq!(parse_variant("nope"), None);
    }
}
