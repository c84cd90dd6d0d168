//! # scratch-serve
//!
//! Multi-tenant kernel-execution service for the SCRATCH simulators: a
//! persistent daemon that accepts assembled SI kernels and input buffers
//! over a line-delimited JSON TCP protocol, queues them, executes them on
//! a shared [`scratch-engine`](scratch_engine) pool, and streams outcomes
//! back per job.
//!
//! The serving layer is where the repository's batch machinery meets
//! sustained, adversarial load:
//!
//! * **Admission control** — per-tenant token-bucket quotas
//!   ([`TokenBucket`]), bounded per-tenant queues, and a bounded shared
//!   engine queue. Load beyond capacity is *shed* with typed
//!   `429`-style [`Rejection`]s ([`RejectReason`]) instead of absorbed
//!   into unbounded latency. An accepted job always completes and is
//!   always answered — there is no accepted-then-dropped path.
//! * **Backpressure** — clients see `Rejected` with `retry_after_ms`
//!   hints; the closed-loop [`run_load`] harness honours them, which is what
//!   makes its saturation curves meaningful.
//! * **Observability** — every decision lands in
//!   [`scratch-metrics`](scratch_metrics): queue depth, per-reason shed
//!   counters, per-tenant end-to-end latency histograms (p50/p95/p99 via
//!   [`Request::Stats`] or Prometheus exposition).
//! * **Graceful drain** — [`Request::Drain`] stops admission, lets every
//!   accepted job finish and be answered, then shuts the daemon down.
//! * **Durability** — with a [`scratch-wal`](scratch_wal) write-ahead log
//!   configured ([`ServeConfig::wal`]), every acked admission survives a
//!   `kill -9`: the restarted daemon replays unfinished jobs (resuming
//!   from durable checkpoints where one exists) exactly once. The
//!   [`run_chaos`] harness SIGKILLs live daemons at seeded points —
//!   including mid-`write(2)` torn appends — and audits that promise.
//!
//! ```no_run
//! use scratch_serve::{Server, ServeConfig, ServeClient};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let mut client = ServeClient::connect(server.addr())?;
//! assert!(client.ping()?);
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod client;
mod load;
mod protocol;
mod quota;
mod server;

pub use chaos::{run_chaos, ChaosPlan, ChaosReport};
pub use client::ServeClient;
pub use load::{run_load, LoadPlan, LoadReport, StepReport};
pub use protocol::{
    fnv1a, pack_words, unpack_words, JobDone, PackedError, RejectReason, Rejection, Request,
    Response, StatsReply, SubmitRequest, TenantStats, TenantTop, TopReply,
};
pub use quota::TokenBucket;
pub use server::{ServeConfig, Server};
