//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every line the client sends is one serialized [`Request`]; every line
//! the server sends back is one serialized [`Response`]. Messages use
//! serde's externally-tagged enum shape, so a submit line looks like
//!
//! ```json
//! {"Submit": {"tenant": "acme", "label": "job-1",
//!             "kernel": {"name": "k", "words": "AACMvw==", "meta": {…}},
//!             "input": "AQAAAAIAAAADAAAA", "grid": [2, 1, 1],
//!             "out_bytes": 16384, "system": "dcdpm", "return_output": true}}
//! ```
//!
//! and is answered *immediately* with `{"Accepted": {…}}` or
//! `{"Rejected": {…}}` — the admission decision — and *later*, once the
//! job has run on the engine pool, with `{"Done": {…}}` on the same
//! connection. Accepted jobs always produce exactly one `Done`; rejected
//! submissions never do. Responses to different jobs may interleave in
//! completion order.
//!
//! ## Packed words
//!
//! Every word array on the wire — [`SubmitRequest::input`], the kernel's
//! machine words and [`JobDone::output`] — travels as one string: the
//! words' little-endian bytes in padded RFC 4648 base64 ([`pack_words`],
//! [`unpack_words`]). Above, `"AQAAAAIAAAADAAAA"` is the input `[1, 2, 3]`
//! and `"AACMvw=="` the single word `0xbf8c0000` (`s_endpgm`). A 4096-word
//! input is a 21 848-byte string instead of ~45 KB of decimal numbers, and
//! it decodes without building a value per word. Decimal arrays are
//! refused: a line that carries one is answered with [`Response::Error`].

use std::fmt;
use std::io::{self, Write};

use serde::{DeError, Deserialize, Map, Serialize, Value};

use scratch_asm::{Kernel, KernelMeta};
use scratch_system::{ExecMode, SystemKind};

/// One client → server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a kernel for execution.
    Submit(SubmitRequest),
    /// Ask for the server's live statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain: stop admitting, finish every accepted
    /// job, then shut down. The daemon's `serve` loop exits afterwards.
    Drain,
    /// Request cancellation of a previously accepted job. Best-effort:
    /// a queued job is reaped before it starts, a running one stops at
    /// its next preemption quantum boundary. The job's [`Response::Done`]
    /// still arrives (with `ok: false` and error `"cancelled"`), so
    /// accepted jobs always produce exactly one `Done` either way.
    Cancel {
        /// The job id from the matching [`Response::Accepted`].
        job: u64,
    },
    /// Ask for the live SLO/queue introspection view (`scratch-tool ctl
    /// top`): per-tenant queue depths, rolling latency quantiles, shed
    /// ratio, error-budget burn, and the aggregated instruction-usage
    /// profile.
    Top,
}

/// The payload of a [`Request::Submit`]. Its kernel words and `input`
/// travel packed ([`pack_words`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Tenant this job bills against (quotas and queues are per-tenant).
    pub tenant: String,
    /// Free-form label echoed back in the [`JobDone`].
    pub label: String,
    /// The assembled kernel to execute.
    pub kernel: Kernel,
    /// Input words copied into a fresh buffer; its base address becomes
    /// the second kernel argument. Empty = no input buffer (the kernel
    /// gets only the output base as argument 0).
    pub input: Vec<u32>,
    /// Grid in workgroups, `[x, y, z]`.
    pub grid: [u32; 3],
    /// Bytes of output buffer to allocate; its base address is kernel
    /// argument 0.
    pub out_bytes: u64,
    /// System preset: `"original"`, `"dcd"` or `"dcdpm"` (`None` =
    /// `"dcdpm"`, the paper's baseline).
    pub system: Option<String>,
    /// `true` to ship the full output buffer back in the [`JobDone`];
    /// `false` returns only its [FNV-1a digest](fnv1a) (load-test mode —
    /// the digest still proves bit-identity cheaply).
    pub return_output: bool,
    /// Execution tier: `"cycle"` (cycle-accurate pipeline, the default),
    /// `"fast"` (block-compiled functional tier — jobs that don't read
    /// cycle counts skip the cycle scheduler and report zero cycles), or
    /// `"fast-timing"` (both tiers, cross-checked byte for byte).
    pub exec: Option<String>,
}

impl SubmitRequest {
    /// Resolve the requested system preset.
    ///
    /// # Errors
    ///
    /// An unknown preset name.
    pub fn system_kind(&self) -> Result<SystemKind, String> {
        match self.system.as_deref() {
            None | Some("dcdpm") => Ok(SystemKind::DcdPm),
            Some("dcd") => Ok(SystemKind::Dcd),
            Some("original") => Ok(SystemKind::Original),
            Some(other) => Err(format!("unknown system preset `{other}`")),
        }
    }

    /// Resolve the requested execution tier.
    ///
    /// # Errors
    ///
    /// An unknown tier name.
    pub fn exec_mode(&self) -> Result<ExecMode, String> {
        match self.exec.as_deref() {
            None | Some("cycle") => Ok(ExecMode::Cycle),
            Some("fast") => Ok(ExecMode::Fast),
            Some("fast-timing") => Ok(ExecMode::FastWithTiming),
            Some(other) => Err(format!("unknown exec mode `{other}`")),
        }
    }
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The submission passed admission control; a [`Response::Done`] with
    /// the same job id will follow.
    Accepted {
        /// Server-assigned job id, unique per server lifetime.
        job: u64,
    },
    /// The submission was shed by admission control — the typed
    /// `429`-style outcome. No job was queued; nothing will follow.
    Rejected(Rejection),
    /// A previously accepted job finished (successfully or not).
    Done(JobDone),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Answer to [`Request::Drain`]: the server stopped admitting and
    /// will exit once `pending` jobs have completed.
    Draining {
        /// Jobs still queued or running at the time of the request.
        pending: u64,
    },
    /// Answer to [`Request::Cancel`].
    Cancelled {
        /// The job id the cancellation targeted.
        job: u64,
        /// `true` if the job was still live and cancellation was
        /// delivered; `false` when the id is unknown or the job already
        /// completed (its `Done` was produced — too late to cancel).
        cancelled: bool,
    },
    /// Answer to [`Request::Top`].
    Top(TopReply),
    /// The request line could not be parsed or violated the protocol.
    /// The connection stays open.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// One tenant's row in a [`TopReply`]: live backlog plus rolling-window
/// SLO telemetry (last 60 s) and the profiler's aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantTop {
    /// Tenant name.
    pub tenant: String,
    /// Jobs parked in this tenant's engine queue right now (waiting for
    /// a first or next slice).
    pub queued: u64,
    /// Jobs queued or running right now.
    pub in_flight: u64,
    /// Completions inside the rolling window.
    pub completed: u64,
    /// Sheds inside the rolling window.
    pub shed: u64,
    /// Rolling median end-to-end latency, µs.
    pub p50_us: u64,
    /// Rolling 95th-percentile latency, µs.
    pub p95_us: u64,
    /// Rolling 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Shed fraction inside the window, 0..=1.
    pub shed_ratio: f64,
    /// Error-budget burn rate (1.0 = burning exactly the allowed rate).
    pub budget_burn: f64,
    /// Dynamic instructions folded into the tenant's aggregated
    /// instruction-usage signature (0 when profiling is off).
    pub instructions: u64,
    /// Name of the minimal trim preset covering the tenant's observed
    /// traffic (`-` until the profiler has seen an instruction).
    pub preset: String,
}

/// Answer to [`Request::Top`]: the live introspection view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopReply {
    /// Jobs waiting in tenant queues right now.
    pub queue_depth: u64,
    /// Jobs executing on engine workers right now.
    pub in_flight: u64,
    /// `true` once a drain has been requested.
    pub draining: bool,
    /// Per-tenant rows, sorted by tenant name.
    pub tenants: Vec<TenantTop>,
}

/// Why a submission was shed, and what the client should do about it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rejection {
    /// The typed shed reason.
    pub reason: RejectReason,
    /// Tenant the decision applied to.
    pub tenant: String,
    /// For rate-limited tenants: how long until the token bucket refills
    /// enough to admit one job.
    pub retry_after_ms: Option<u64>,
    /// Human-readable detail.
    pub message: String,
}

/// The typed shed reasons (the protocol's `429` taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// The tenant's token bucket is empty (sustained request rate above
    /// its quota). Retry after `retry_after_ms`.
    RateLimited,
    /// The tenant already has its maximum number of jobs queued or
    /// running. Retry after one of them completes.
    TenantQueueFull,
    /// The shared engine queue is at capacity — the server as a whole is
    /// overloaded and sheds regardless of tenant.
    Overloaded,
    /// The server is draining for shutdown and admits nothing new.
    Draining,
    /// The request itself is oversized (kernel or input beyond the
    /// configured limits). Retrying is pointless.
    TooLarge,
    /// The request was malformed (e.g. unknown system preset). Retrying
    /// the same request is pointless.
    Invalid,
    /// The connection sat idle (no request line, no job in flight) past
    /// the server's idle timeout and is being closed. Sent once, best
    /// effort, just before the server drops the connection.
    IdleTimeout,
}

impl RejectReason {
    /// Stable lowercase name (used as the `reason` metrics label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::RateLimited => "rate_limited",
            RejectReason::TenantQueueFull => "tenant_queue_full",
            RejectReason::Overloaded => "overloaded",
            RejectReason::Draining => "draining",
            RejectReason::TooLarge => "too_large",
            RejectReason::Invalid => "invalid",
            RejectReason::IdleTimeout => "idle_timeout",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Completion record of one accepted job. Its `output` travels packed
/// ([`pack_words`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JobDone {
    /// The id from the matching [`Response::Accepted`].
    pub job: u64,
    /// Tenant the job billed against.
    pub tenant: String,
    /// Label from the submission.
    pub label: String,
    /// `true` if the kernel ran to completion.
    pub ok: bool,
    /// Failure description when `ok` is `false` (simulator error,
    /// watchdog trip, …).
    pub error: Option<String>,
    /// Simulated CU cycles of the run (0 on failure).
    pub cycles: u64,
    /// Instructions the run retired (0 on failure).
    pub instructions: u64,
    /// [FNV-1a](fnv1a) digest of the output buffer words.
    pub digest: u64,
    /// The output buffer, present when `return_output` was set.
    pub output: Option<Vec<u32>>,
    /// Microseconds the job waited for a worker after admission.
    pub queue_us: u64,
    /// Microseconds the job spent executing.
    pub exec_us: u64,
    /// Of `exec_us`, the microseconds spent on the checkpoint plane:
    /// capturing + serializing state at quantum expiries and decoding +
    /// restoring it at slice entries. `exec_us - snap_us` is pure run
    /// time.
    pub snap_us: u64,
    /// Execution slices the job took (1 = never preempted).
    pub slices: u64,
    /// `true` when this completion was produced by write-ahead-log
    /// recovery rather than the admitting connection's lifetime: the job
    /// was re-admitted (or its completion re-derived) after a server
    /// restart. Live completions always carry `false`.
    pub redelivered: bool,
}

/// Per-tenant slice of a [`StatsReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions shed (all reasons).
    pub shed: u64,
    /// Jobs completed (ok and failed).
    pub completed: u64,
    /// Jobs queued or running right now.
    pub in_flight: u64,
    /// End-to-end latency quantiles in microseconds (admission → done),
    /// `[p50, p95, p99]`; zeros until the first completion.
    pub latency_us: [u64; 3],
}

/// Answer to [`Request::Stats`]: the serving counters at a point in time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Total submissions received (admitted + shed).
    pub submitted: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions shed (all reasons).
    pub shed: u64,
    /// Jobs completed, successfully or not.
    pub completed: u64,
    /// Completed jobs that failed (simulator error or watchdog).
    pub failed: u64,
    /// Completed jobs that ended via [`Request::Cancel`] (a subset of
    /// `failed`).
    pub cancelled: u64,
    /// Jobs waiting in the engine queue right now.
    pub queue_depth: u64,
    /// Jobs executing on engine workers right now.
    pub in_flight: u64,
    /// Open client connections.
    pub connections: u64,
    /// `true` once a drain has been requested.
    pub draining: bool,
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
}

/// FNV-1a over the little-endian bytes of `words` — the digest `Done`
/// carries so clients can check bit-identity without shipping the buffer.
#[must_use]
pub fn fnv1a(words: &[u32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Send one protocol message: `line` plus its terminating newline in a
/// single `write_all`, so a message is one `write(2)` on the
/// `TCP_NODELAY` sockets both ends use rather than a line segment and a
/// one-byte newline segment. The daemon's writer thread and
/// [`ServeClient`](crate::ServeClient) both frame through it.
pub(crate) fn write_line(w: &mut impl Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// The base64 alphabet of RFC 4648 §4 (standard, not URL-safe).
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside [`ALPHABET`] in [`SEXTETS`].
const NOT_BASE64: u8 = 0xff;

/// Byte → 6-bit value, [`NOT_BASE64`] for every other byte.
const SEXTETS: [u8; 256] = {
    let mut table = [NOT_BASE64; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Why a packed-words string does not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedError {
    /// The string is not a whole number of 4-character base64 groups.
    Length {
        /// Its length in bytes.
        chars: usize,
    },
    /// A byte outside the base64 alphabet, or a `=` before the padding.
    Alphabet {
        /// Offset of the byte in the string.
        at: usize,
        /// The byte itself.
        byte: u8,
    },
    /// More than two `=`, or padding that drops set bits (the string is
    /// not the one encoding of its bytes).
    Padding,
    /// The bytes do not split into whole 32-bit words.
    PartialWord {
        /// The decoded byte count.
        bytes: usize,
    },
}

impl fmt::Display for PackedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedError::Length { chars } => {
                write!(
                    f,
                    "{chars} characters is not a whole number of base64 groups"
                )
            }
            PackedError::Alphabet { at, byte } => {
                write!(f, "byte {byte:#04x} at offset {at} is not base64")
            }
            PackedError::Padding => f.write_str("malformed base64 padding"),
            PackedError::PartialWord { bytes } => {
                write!(f, "{bytes} bytes is not a whole number of 32-bit words")
            }
        }
    }
}

impl std::error::Error for PackedError {}

/// The four base64 characters of three bytes.
fn base64_group(b: [u8; 3]) -> [u8; 4] {
    let n = u32::from_be_bytes([0, b[0], b[1], b[2]]);
    [18, 12, 6, 0].map(|shift| ALPHABET[(n >> shift & 63) as usize])
}

/// Pack words as the protocol carries them: their little-endian bytes in
/// padded RFC 4648 base64.
#[must_use]
pub fn pack_words(words: &[u32]) -> String {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let mut groups = bytes.chunks_exact(3);
    for g in &mut groups {
        out.extend_from_slice(&base64_group([g[0], g[1], g[2]]));
    }
    let tail = groups.remainder();
    if !tail.is_empty() {
        let mut b = [0; 3];
        b[..tail.len()].copy_from_slice(tail);
        let mut chars = base64_group(b);
        chars[tail.len() + 1..].fill(b'=');
        out.extend_from_slice(&chars);
    }
    String::from_utf8(out).expect("base64 is ASCII")
}

/// The 24 bits of one 4-character base64 group (`=` read as zero bits
/// where `pad` says the group is padded), or the offset in the group of
/// its first byte outside the alphabet.
fn group_bits(group: &[u8], pad: usize) -> Result<u32, usize> {
    let mut n = 0;
    for (i, &c) in group.iter().enumerate() {
        let v = if i >= 4 - pad {
            0
        } else {
            SEXTETS[usize::from(c)]
        };
        if v == NOT_BASE64 {
            return Err(i);
        }
        n = (n << 6) | u32::from(v);
    }
    Ok(n)
}

/// Unpack a [`pack_words`] string. Strict: any string `pack_words` would
/// not produce is refused with a typed error, never a panic.
///
/// # Errors
///
/// The first violated rule, as a [`PackedError`].
pub fn unpack_words(text: &str) -> Result<Vec<u32>, PackedError> {
    let s = text.as_bytes();
    if !s.len().is_multiple_of(4) {
        return Err(PackedError::Length { chars: s.len() });
    }
    let pad = s.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return Err(PackedError::Padding);
    }
    let len = s.len() / 4 * 3 - pad;
    if !len.is_multiple_of(4) {
        return Err(PackedError::PartialWord { bytes: len });
    }
    let mut bytes = Vec::with_capacity(len + 2);
    let groups = s.len() / 4;
    for (g, group) in s.chunks_exact(4).enumerate() {
        let pad = if g + 1 == groups { pad } else { 0 };
        let n = group_bits(group, pad).map_err(|i| PackedError::Alphabet {
            at: g * 4 + i,
            byte: group[i],
        })?;
        bytes.extend_from_slice(&n.to_be_bytes()[1..]);
    }
    // The bits padding drops must be zero, or the text is not the one
    // encoding of its bytes.
    if bytes[len..].iter().any(|&b| b != 0) {
        return Err(PackedError::Padding);
    }
    Ok(bytes[..len]
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
        .collect())
}

/// A word array in its packed wire form, for decoding struct fields.
struct Packed(Vec<u32>);

impl Deserialize for Packed {
    fn from_sval(v: &Value) -> Result<Packed, DeError> {
        match v {
            Value::Str(text) => unpack_words(text)
                .map(Packed)
                .map_err(|e| DeError(format!("packed words: {e}"))),
            other => Err(DeError(format!(
                "expected packed words (a base64 string), got {}; \
                 decimal word arrays are not accepted",
                other.kind()
            ))),
        }
    }
}

/// The object of `(name, value)` fields, in the derive's shape.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect(),
    )
}

/// The fields of an object being decoded as type `ty`.
struct Fields<'v> {
    map: &'v Map,
    ty: &'static str,
}

impl<'v> Fields<'v> {
    fn of(v: &'v Value, ty: &'static str) -> Result<Fields<'v>, DeError> {
        match v {
            Value::Object(map) => Ok(Fields { map, ty }),
            other => Err(DeError(format!(
                "{ty}: expected object, got {}",
                other.kind()
            ))),
        }
    }

    /// Field `name`; an absent field reads as `null`, as in the derive.
    fn get<T: Deserialize>(&self, name: &str) -> Result<T, DeError> {
        T::from_sval(self.map.get(name).unwrap_or(&Value::Null))
            .map_err(|e| DeError(format!("{}.{name}: {e}", self.ty)))
    }
}

fn kernel_sval(kernel: &Kernel) -> Value {
    object([
        ("name", Value::Str(kernel.name().to_owned())),
        ("words", Value::Str(pack_words(kernel.words()))),
        ("meta", kernel.meta().to_sval()),
    ])
}

/// A wire kernel: `Kernel`'s own serde shape with its words packed.
struct WireKernel(Kernel);

impl Deserialize for WireKernel {
    fn from_sval(v: &Value) -> Result<WireKernel, DeError> {
        let f = Fields::of(v, "Kernel")?;
        let name: String = f.get("name")?;
        let Packed(words) = f.get("words")?;
        let meta: KernelMeta = f.get("meta")?;
        Ok(WireKernel(Kernel::from_words(name, words, meta)))
    }
}

impl Serialize for SubmitRequest {
    fn to_sval(&self) -> Value {
        object([
            ("tenant", self.tenant.to_sval()),
            ("label", self.label.to_sval()),
            ("kernel", kernel_sval(&self.kernel)),
            ("input", Value::Str(pack_words(&self.input))),
            ("grid", self.grid.to_sval()),
            ("out_bytes", self.out_bytes.to_sval()),
            ("system", self.system.to_sval()),
            ("return_output", self.return_output.to_sval()),
            ("exec", self.exec.to_sval()),
        ])
    }
}

impl Deserialize for SubmitRequest {
    fn from_sval(v: &Value) -> Result<SubmitRequest, DeError> {
        let f = Fields::of(v, "SubmitRequest")?;
        let WireKernel(kernel) = f.get("kernel")?;
        let Packed(input) = f.get("input")?;
        Ok(SubmitRequest {
            tenant: f.get("tenant")?,
            label: f.get("label")?,
            kernel,
            input,
            grid: f.get("grid")?,
            out_bytes: f.get("out_bytes")?,
            system: f.get("system")?,
            return_output: f.get("return_output")?,
            exec: f.get("exec")?,
        })
    }
}

impl Serialize for JobDone {
    fn to_sval(&self) -> Value {
        let output = match &self.output {
            Some(words) => Value::Str(pack_words(words)),
            None => Value::Null,
        };
        object([
            ("job", self.job.to_sval()),
            ("tenant", self.tenant.to_sval()),
            ("label", self.label.to_sval()),
            ("ok", self.ok.to_sval()),
            ("error", self.error.to_sval()),
            ("cycles", self.cycles.to_sval()),
            ("instructions", self.instructions.to_sval()),
            ("digest", self.digest.to_sval()),
            ("output", output),
            ("queue_us", self.queue_us.to_sval()),
            ("exec_us", self.exec_us.to_sval()),
            ("snap_us", self.snap_us.to_sval()),
            ("slices", self.slices.to_sval()),
            ("redelivered", self.redelivered.to_sval()),
        ])
    }
}

impl Deserialize for JobDone {
    fn from_sval(v: &Value) -> Result<JobDone, DeError> {
        let f = Fields::of(v, "JobDone")?;
        Ok(JobDone {
            job: f.get("job")?,
            tenant: f.get("tenant")?,
            label: f.get("label")?,
            ok: f.get("ok")?,
            error: f.get("error")?,
            cycles: f.get("cycles")?,
            instructions: f.get("instructions")?,
            digest: f.get("digest")?,
            output: f
                .get::<Option<Packed>>("output")?
                .map(|Packed(words)| words),
            queue_us: f.get("queue_us")?,
            exec_us: f.get("exec_us")?,
            snap_us: f.get("snap_us")?,
            slices: f.get("slices")?,
            redelivered: f.get("redelivered")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct Recording {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_write() {
        let mut sink = Recording::default();
        write_line(&mut sink, "{\"Ping\":null}".to_owned()).unwrap();
        write_line(&mut sink, String::new()).unwrap();
        assert_eq!(
            sink.writes,
            vec![b"{\"Ping\":null}\n".to_vec(), b"\n".to_vec()],
            "one write per message, newline included"
        );
    }

    #[test]
    fn fnv1a_is_order_sensitive() {
        assert_ne!(fnv1a(&[1, 2]), fnv1a(&[2, 1]));
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
