//! Simulated-time tracing: typed events, zero-cost sinks, Perfetto export.
//!
//! Every hardware model in the workspace can carry a [`Tracer`] — a handle
//! that is a no-op until a recording sink is installed. When recording, the
//! models emit typed [`TraceEvent`]s stamped with simulated time: op
//! lifecycle spans, L2 bank bookings, line fills and writebacks, DRAM
//! command activity (ACT/PRE/RD/WR, refresh, tFAW stalls, FR-FCFS
//! reorders, completion-queue drains), RME frame-fetch windows and
//! overload/degrade transitions. `System::take_trace` merges the
//! per-component buffers into one deterministic [`Trace`], which exports as
//! Chrome-trace / Perfetto JSON (one track per core, L2 bank, DRAM bank,
//! RME engine, plus a system track).
//!
//! Design rules, enforced by tests:
//!
//! 1. **Zero cost when off.** [`Tracer::emit`] takes a closure; with no
//!    sink installed the closure is never called, nothing allocates, and
//!    the only cost is one pointer-null branch. The no-op path changes no
//!    counter and no timing — the golden fixtures stay byte-identical.
//! 2. **Observation only.** Emission sites read values the model already
//!    computed; they never book resources or advance clocks.
//! 3. **Determinism extends to observability.** The simulator is
//!    deterministic, component buffers are collected in a fixed order and
//!    merged with a stable sort by timestamp, so identical runs produce
//!    byte-identical trace JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::SimTime;

// ---------------------------------------------------------------------------
// Tracks and events
// ---------------------------------------------------------------------------

/// The timeline a trace event belongs to. Exported as one Perfetto track
/// (`tid`) each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Cross-cutting system events: degrade transitions, completion-queue
    /// drains, DRAM admission stalls.
    System,
    /// One CPU core: op lifecycle, txn lifecycle, line fills, writebacks.
    Core(u32),
    /// One shared-L2 bank: bookings and contention waits.
    L2Bank(u32),
    /// One DRAM bank: command-level activity.
    DramBank(u32),
    /// The RME engine: frame activations and fetch windows.
    Rme,
}

impl Track {
    /// Stable Perfetto thread id for this track. Core tracks occupy
    /// 1..=99, L2 banks 100..=199, DRAM banks 200..=299, the RME engine
    /// 300, the system track 0.
    pub fn tid(self) -> u32 {
        match self {
            Track::System => 0,
            Track::Core(c) => 1 + c,
            Track::L2Bank(b) => 100 + b,
            Track::DramBank(b) => 200 + b,
            Track::Rme => 300,
        }
    }

    /// Human-readable track name for the Perfetto thread-name metadata.
    pub fn name(self) -> String {
        match self {
            Track::System => "system".to_string(),
            Track::Core(c) => format!("core {c}"),
            Track::L2Bank(b) => format!("l2 bank {b}"),
            Track::DramBank(b) => format!("dram bank {b}"),
            Track::Rme => "rme engine".to_string(),
        }
    }
}

/// How a kind of event renders in the Chrome trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStyle {
    /// A point event (`ph: "i"`). `dur` is ignored.
    Instant,
    /// A synchronous duration (`ph: "X"`). Spans of sync kinds are
    /// disjoint-or-nested per track (asserted by the invariant tests).
    Sync,
    /// An async begin/end pair (`ph: "b"`/`"e"`) — may overlap freely on
    /// its track (e.g. pipelined DRAM bursts on one bank).
    Async,
}

/// The typed event taxonomy. Payload meaning is per-kind; see
/// [`TraceEventKind::arg_names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    // --- op lifecycle (core tracks) ---
    /// An open-loop arrival was presented (arg0 = template, arg1 = attempt).
    OpArrival,
    /// An attempt entered an admission queue (arg0 = template, arg1 =
    /// queue depth after admission).
    OpAdmitted,
    /// An attempt was rejected at a full queue (arg0 = template).
    OpShedQueueFull,
    /// An admitted op was dropped at dequeue past its delay budget
    /// (arg0 = template, arg1 = queueing delay in ps).
    OpShedDeadline,
    /// A client-visible timeout (arg0 = template, arg1 = attempt).
    OpTimeout,
    /// One serviced op, start → completion (arg0 = op ordinal in its
    /// stream, arg1 = rows touched).
    OpSpan,
    // --- transactions (core tracks) ---
    /// A transaction attempt began (arg0 = txn id, arg1 = attempt).
    TxnBegin,
    /// A transaction committed (arg0 = txn id, arg1 = write intents).
    TxnCommit,
    /// A transaction aborted (arg0 = txn id, arg1 = 0 conflict / 1 shed).
    TxnAbort,
    // --- overload (system track) ---
    /// A graceful-degradation transition (arg0 = 1 entering degraded,
    /// 0 restoring). Timestamps match `OverloadStats::transitions` exactly.
    Degrade,
    // --- cache (L2-bank / core tracks) ---
    /// An L2 bank booking (arg0 = core, arg1 = contention wait in ps).
    L2BankBook,
    /// A demand line fill, issue → data (arg0 = line address).
    LineFill,
    /// A dirty line eviction issuing a writeback (arg0 = line address).
    Writeback,
    // --- DRAM (DRAM-bank / system tracks) ---
    /// A row activate (arg0 = row).
    DramActivate,
    /// A precharge closing an open row (arg0 = row closed).
    DramPrecharge,
    /// A read burst, first command → last bus beat (arg0 = address,
    /// arg1 = 1 row hit / 0 miss).
    DramRead,
    /// A write burst (arg0 = address, arg1 = 1 row hit / 0 miss).
    DramWrite,
    /// A refresh window applied to a bank (arg0 = refreshes applied,
    /// arg1 = recovery ps).
    DramRefresh,
    /// An activate stalled by the tFAW window (arg0 = row, arg1 = stall ps).
    TfawStall,
    /// A read overtook buffered writes under FR-FCFS (arg0 = pending
    /// writes at that point).
    FrFcfsReorder,
    /// A transaction-queue admission stall (arg0 = outstanding requests).
    DramQueueStall,
    /// A completion-queue drain delivered events (arg0 = completions).
    CompletionDrain,
    // --- RME (engine track) ---
    /// A frame activation (fetch start; arg0 = frame).
    FrameActivate,
    /// A frame-fetch window, activation → last buffer write (arg0 =
    /// frame, arg1 = lines fetched).
    FrameFetch,
}

impl TraceEventKind {
    /// Stable lower_snake name used in exports and tests.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::OpArrival => "op_arrival",
            TraceEventKind::OpAdmitted => "op_admitted",
            TraceEventKind::OpShedQueueFull => "op_shed_queue_full",
            TraceEventKind::OpShedDeadline => "op_shed_deadline",
            TraceEventKind::OpTimeout => "op_timeout",
            TraceEventKind::OpSpan => "op",
            TraceEventKind::TxnBegin => "txn_begin",
            TraceEventKind::TxnCommit => "txn_commit",
            TraceEventKind::TxnAbort => "txn_abort",
            TraceEventKind::Degrade => "degrade",
            TraceEventKind::L2BankBook => "l2_bank_book",
            TraceEventKind::LineFill => "line_fill",
            TraceEventKind::Writeback => "writeback",
            TraceEventKind::DramActivate => "dram_act",
            TraceEventKind::DramPrecharge => "dram_pre",
            TraceEventKind::DramRead => "dram_rd",
            TraceEventKind::DramWrite => "dram_wr",
            TraceEventKind::DramRefresh => "dram_refresh",
            TraceEventKind::TfawStall => "tfaw_stall",
            TraceEventKind::FrFcfsReorder => "fr_fcfs_reorder",
            TraceEventKind::DramQueueStall => "dram_queue_stall",
            TraceEventKind::CompletionDrain => "completion_drain",
            TraceEventKind::FrameActivate => "frame_activate",
            TraceEventKind::FrameFetch => "frame_fetch",
        }
    }

    /// How this kind renders in the Chrome export. Only kinds whose spans
    /// are provably disjoint-or-nested per track may be [`SpanStyle::Sync`]
    /// (the invariant tests enforce this): line fills overlap each other
    /// (a straddling access issues both lines at once), DRAM bursts
    /// pipeline at tCCD, and a lazily booked frame's tail —
    /// booked at frozen anchors during turnover — can outlast the next
    /// frame's activation, so all of those render as async pairs.
    pub fn style(self) -> SpanStyle {
        match self {
            TraceEventKind::OpSpan => SpanStyle::Sync,
            TraceEventKind::DramRead
            | TraceEventKind::DramWrite
            | TraceEventKind::LineFill
            | TraceEventKind::FrameFetch => SpanStyle::Async,
            _ => SpanStyle::Instant,
        }
    }

    /// Names of the two payload arguments (for export `args` objects).
    pub fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            TraceEventKind::OpArrival | TraceEventKind::OpTimeout => ("template", "attempt"),
            TraceEventKind::OpAdmitted => ("template", "queue_depth"),
            TraceEventKind::OpShedQueueFull => ("template", "arg1"),
            TraceEventKind::OpShedDeadline => ("template", "queue_delay_ps"),
            TraceEventKind::OpSpan => ("op", "rows"),
            TraceEventKind::TxnBegin => ("txn", "attempt"),
            TraceEventKind::TxnCommit => ("txn", "intents"),
            TraceEventKind::TxnAbort => ("txn", "shed"),
            TraceEventKind::Degrade => ("degraded", "arg1"),
            TraceEventKind::L2BankBook => ("core", "waited_ps"),
            TraceEventKind::LineFill | TraceEventKind::Writeback => ("line", "arg1"),
            TraceEventKind::DramActivate | TraceEventKind::DramPrecharge => ("row", "arg1"),
            TraceEventKind::DramRead | TraceEventKind::DramWrite => ("addr", "row_hit"),
            TraceEventKind::DramRefresh => ("applied", "recovery_ps"),
            TraceEventKind::TfawStall => ("row", "stall_ps"),
            TraceEventKind::FrFcfsReorder => ("pending_writes", "arg1"),
            TraceEventKind::DramQueueStall => ("outstanding", "arg1"),
            TraceEventKind::CompletionDrain => ("completions", "arg1"),
            TraceEventKind::FrameActivate => ("frame", "arg1"),
            TraceEventKind::FrameFetch => ("frame", "lines"),
        }
    }
}

/// One recorded, simulated-time event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start timestamp (simulated).
    pub at: SimTime,
    /// Duration; [`SimTime::ZERO`] for instants.
    pub dur: SimTime,
    /// The timeline this event belongs to.
    pub track: Track,
    /// What happened.
    pub kind: TraceEventKind,
    /// First payload argument (meaning per kind).
    pub arg0: u64,
    /// Second payload argument (meaning per kind).
    pub arg1: u64,
}

impl TraceEvent {
    /// An instantaneous event.
    pub fn instant(track: Track, kind: TraceEventKind, at: SimTime, arg0: u64, arg1: u64) -> Self {
        TraceEvent {
            at,
            dur: SimTime::ZERO,
            track,
            kind,
            arg0,
            arg1,
        }
    }

    /// A duration event from `start` to `end` (saturating if inverted).
    pub fn span(
        track: Track,
        kind: TraceEventKind,
        start: SimTime,
        end: SimTime,
        arg0: u64,
        arg1: u64,
    ) -> Self {
        TraceEvent {
            at: start,
            dur: end.saturating_sub(start),
            track,
            kind,
            arg0,
            arg1,
        }
    }

    /// End timestamp (`at + dur`).
    pub fn end(&self) -> SimTime {
        self.at + self.dur
    }
}

// ---------------------------------------------------------------------------
// Sinks and the Tracer handle
// ---------------------------------------------------------------------------

/// Where emitted events go. The workspace ships two implementations: the
/// zero-cost [`NoopSink`] (the default — no `Tracer` even holds one; the
/// handle skips the call entirely) and the buffering [`RecordingSink`].
pub trait TraceSink {
    /// Accepts one event.
    fn record(&mut self, event: TraceEvent);
}

/// Discards every event. The reference no-op implementation; `Tracer`
/// without a sink behaves identically without the virtual call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

/// Buffers every event in emission order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingSink {
    /// Recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for RecordingSink {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// The per-component tracing handle.
///
/// Default-constructed it records nothing and costs one branch per
/// emission site (the event-building closure is never run). Components
/// store one `Tracer` each; `System` enables recording on all of them and
/// collects the buffers afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tracer {
    sink: Option<Box<RecordingSink>>,
}

impl Tracer {
    /// A disabled (no-op) tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Whether a recording sink is installed.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits an event. `build` runs only when recording — with the
    /// default no-op sink this is a single branch, no allocation, no
    /// borrow of anything but the tracer itself.
    #[inline(always)]
    pub fn emit(&mut self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(build());
        }
    }

    /// Installs (or removes) the recording sink. Enabling clears any
    /// previously recorded events.
    pub fn set_enabled(&mut self, on: bool) {
        self.sink = if on {
            Some(Box::default())
        } else {
            None
        };
    }

    /// Takes the recorded events, leaving recording state as-is.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        match self.sink.as_deref_mut() {
            Some(sink) => std::mem::take(&mut sink.events),
            None => Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// The merged trace and its Chrome/Perfetto export
// ---------------------------------------------------------------------------

/// A merged, time-ordered trace of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events sorted by start time (stable: ties keep the fixed
    /// component collection order).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Builds a trace from per-component buffers, concatenated in the
    /// caller's (fixed) order, stably sorted by start time.
    pub fn merge(buffers: Vec<Vec<TraceEvent>>) -> Self {
        let mut events: Vec<TraceEvent> = buffers.into_iter().flatten().collect();
        events.sort_by_key(|e| e.at);
        Trace { events }
    }

    /// Number of events on each track, keyed by track (sorted).
    pub fn events_per_track(&self) -> BTreeMap<Track, usize> {
        let mut counts = BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.track).or_insert(0) += 1;
        }
        counts
    }

    /// The end of the last event (ZERO for an empty trace).
    pub fn end(&self) -> SimTime {
        self.events
            .iter()
            .map(TraceEvent::end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Renders the trace as Chrome-trace JSON (the `traceEvents` object
    /// form), loadable by Perfetto (`ui.perfetto.dev`) and
    /// `chrome://tracing`. One track (`tid`) per core / L2 bank / DRAM
    /// bank / RME engine; timestamps in microseconds. The output is a
    /// pure function of the event list — identical runs give identical
    /// bytes.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"args\":{\"name\":\"relmem-sim\"}}",
        );
        // One thread-name metadata record per populated track, in tid order.
        let mut tracks: Vec<Track> = self.events_per_track().into_keys().collect();
        tracks.sort_by_key(|t| t.tid());
        for track in &tracks {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                track.tid(),
                track.name()
            );
        }
        for (seq, e) in self.events.iter().enumerate() {
            let (a0, a1) = e.kind.arg_names();
            let args = format!(
                "{{\"{}\":{},\"{}\":{}}}",
                a0, e.arg0, a1, e.arg1
            );
            let name = e.kind.name();
            let tid = e.track.tid();
            match e.kind.style() {
                SpanStyle::Instant => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"name\":\"{name}\",\"pid\":0,\"tid\":{tid},\
                         \"ts\":{},\"s\":\"t\",\"args\":{args}}}",
                        fmt_us(e.at)
                    );
                }
                SpanStyle::Sync => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"X\",\"name\":\"{name}\",\"pid\":0,\"tid\":{tid},\
                         \"ts\":{},\"dur\":{},\"args\":{args}}}",
                        fmt_us(e.at),
                        fmt_us(e.dur)
                    );
                }
                SpanStyle::Async => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"b\",\"cat\":\"{name}\",\"id\":{seq},\"name\":\"{name}\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{},\"args\":{args}}}",
                        fmt_us(e.at)
                    );
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"e\",\"cat\":\"{name}\",\"id\":{seq},\"name\":\"{name}\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{}}}",
                        fmt_us(e.end())
                    );
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Formats picoseconds as a decimal microsecond JSON number with exact
/// (six-digit) picosecond precision — integer math only, so formatting is
/// deterministic across platforms.
fn fmt_us(t: SimTime) -> String {
    let ps = t.as_picos();
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

// ---------------------------------------------------------------------------
// Minimal JSON parsing (schema validation without serde)
// ---------------------------------------------------------------------------

/// A parsed JSON value. The workspace vendors no serde; this minimal
/// recursive-descent parser exists so the trace schema can be validated in
/// tests and smoke checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through byte-wise; re-validate at
                // the end via from_utf8 on the source slice boundaries.
                out.push(c as char);
                if c < 0x80 {
                    *pos += 1;
                } else {
                    // Copy the full UTF-8 sequence.
                    out.pop();
                    let len = utf8_len(c);
                    let slice = b
                        .get(*pos..*pos + len)
                        .ok_or_else(|| "truncated UTF-8".to_string())?;
                    out.push_str(std::str::from_utf8(slice).map_err(|e| e.to_string())?);
                    *pos += len;
                }
            }
        }
    }
    Err("unterminated string".to_string())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome-trace schema validation
// ---------------------------------------------------------------------------

/// Summary of a validated Chrome-trace document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total non-metadata events.
    pub events: usize,
    /// Non-metadata events per `tid`.
    pub events_per_tid: BTreeMap<u64, usize>,
    /// Track names from the thread-name metadata, per `tid`.
    pub track_names: BTreeMap<u64, String>,
}

/// Parses `src` as Chrome-trace JSON and validates the schema every event
/// must satisfy to load in Perfetto: a top-level `traceEvents` array whose
/// members carry `ph`/`name`/`pid`, plus `tid`+`ts` for real events, `dur`
/// for complete (`"X"`) events and `id` for async pairs. Returns per-track
/// event counts for coverage checks.
pub fn validate_chrome_trace(src: &str) -> Result<TraceSummary, String> {
    let doc = Json::parse(src)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary::default();
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        event
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        if ph == "M" {
            if event.get("name").and_then(Json::as_str) == Some("thread_name") {
                let tid = event
                    .get("tid")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: thread_name without tid"))? as u64;
                let name = event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: thread_name without args.name"))?;
                summary.track_names.insert(tid, name.to_string());
            }
            continue;
        }
        let tid = event
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        event
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        match ph {
            "X" => {
                event
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: X without dur"))?;
            }
            "i" => {
                event
                    .get("s")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: i without scope"))?;
            }
            "b" | "e" => {
                event
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: async without id"))?;
            }
            other => return Err(format!("event {i}: unexpected ph '{other}'")),
        }
        summary.events += 1;
        *summary.events_per_tid.entry(tid).or_insert(0) += 1;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(track: Track, kind: TraceEventKind, at_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(at_ns),
            dur: SimTime::from_nanos(dur_ns),
            track,
            kind,
            arg0: 1,
            arg1: 2,
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut tracer = Tracer::new();
        let mut built = false;
        tracer.emit(|| {
            built = true;
            ev(Track::System, TraceEventKind::Degrade, 0, 0)
        });
        assert!(!built, "the closure must not run with no sink installed");
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn recording_tracer_buffers_in_order() {
        let mut tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.emit(|| ev(Track::Core(0), TraceEventKind::OpSpan, 10, 5));
        tracer.emit(|| ev(Track::Core(0), TraceEventKind::OpSpan, 0, 5));
        let events = tracer.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, SimTime::from_nanos(10));
        // take() drains but keeps recording.
        tracer.emit(|| ev(Track::Core(0), TraceEventKind::OpSpan, 20, 1));
        assert_eq!(tracer.take().len(), 1);
    }

    #[test]
    fn merge_is_a_stable_sort_by_start_time() {
        let a = vec![
            ev(Track::Core(0), TraceEventKind::OpSpan, 5, 1),
            ev(Track::Core(0), TraceEventKind::OpSpan, 10, 1),
        ];
        let b = vec![ev(Track::Rme, TraceEventKind::FrameFetch, 5, 1)];
        let trace = Trace::merge(vec![a, b]);
        assert_eq!(trace.events.len(), 3);
        // Tie at t=5 keeps buffer order: core event first.
        assert_eq!(trace.events[0].track, Track::Core(0));
        assert_eq!(trace.events[1].track, Track::Rme);
        assert!(trace.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(trace.end(), SimTime::from_nanos(11));
    }

    #[test]
    fn chrome_export_validates_and_counts_tracks() {
        let trace = Trace::merge(vec![vec![
            ev(Track::Core(0), TraceEventKind::OpSpan, 0, 10),
            ev(Track::L2Bank(1), TraceEventKind::L2BankBook, 3, 0),
            ev(Track::DramBank(2), TraceEventKind::DramRead, 4, 6),
            ev(Track::Rme, TraceEventKind::FrameFetch, 1, 9),
            ev(Track::System, TraceEventKind::Degrade, 8, 0),
        ]]);
        let json = trace.to_chrome_json();
        let summary = validate_chrome_trace(&json).expect("schema-valid trace");
        // The async DRAM and frame-fetch spans each contribute a begin +
        // an end record.
        assert_eq!(summary.events, 7);
        assert_eq!(summary.events_per_tid.len(), 5);
        assert_eq!(summary.track_names[&1], "core 0");
        assert_eq!(summary.track_names[&101], "l2 bank 1");
        assert_eq!(summary.track_names[&202], "dram bank 2");
        assert_eq!(summary.track_names[&300], "rme engine");
        assert_eq!(summary.track_names[&0], "system");
    }

    #[test]
    fn export_is_deterministic() {
        let mk = || {
            Trace::merge(vec![vec![
                ev(Track::Core(3), TraceEventKind::LineFill, 7, 2),
                ev(Track::DramBank(0), TraceEventKind::DramWrite, 7, 4),
            ]])
        };
        assert_eq!(mk().to_chrome_json(), mk().to_chrome_json());
    }

    #[test]
    fn timestamps_format_with_picosecond_precision() {
        assert_eq!(fmt_us(SimTime::from_picos(1)), "0.000001");
        assert_eq!(fmt_us(SimTime::from_picos(1_234_567)), "1.234567");
        assert_eq!(fmt_us(SimTime::from_micros(42)), "42.000000");
    }

    #[test]
    fn json_parser_round_trips_basic_documents() {
        let doc = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#)
            .expect("valid JSON");
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(-300.0));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert!(Json::parse("{\"unterminated\": ").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} garbage").is_err());
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("[]").is_err(), "no traceEvents");
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"ph":"X","name":"n","pid":0,"tid":1,"ts":0}]}"#)
                .is_err(),
            "X without dur"
        );
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"name":"n","pid":0}]}"#).is_err(),
            "missing ph"
        );
    }
}
