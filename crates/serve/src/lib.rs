//! # rbd-serve — the fault-tolerant extraction service
//!
//! A long-lived HTTP front for record-boundary discovery, built entirely
//! on the workspace's own crates (no external dependencies): a strict,
//! bounded HTTP/1.1 subset ([`http`]) over `std::net`, with the
//! rbd-pipeline worker pool doing the extraction work and carrying the
//! backpressure ([`server`]).
//!
//! Design goals, in order:
//!
//! 1. **No peer can take the service down.** Every read and write has a
//!    socket timeout and an overall deadline; head and body sizes are
//!    capped before allocation; extraction panics are caught per request.
//! 2. **Overload degrades, never queues unboundedly.** A connection
//!    arriving at the pool's full bounded injector is answered
//!    `503 Retry-After` — the same queue bound `rbd-pipeline` puts on
//!    batch work, and the service's only admission gate.
//! 3. **Observability is structural.** Every decision lands in a counter
//!    (`GET /metrics`), and with an audit sink attached, in the typed
//!    [`ServerEvent`](rbd_trace::ServerEvent) stream.
//!
//! See DESIGN.md §12 for the architecture walk-through and the soak
//! harness (`tests/soak.rs`) for the fault-injection acceptance suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod server;

pub use http::{HttpCaps, HttpError, Request, Response};
pub use rbd_store::extraction_response_json;
pub use server::{ServeConfig, ServeError, ServeReport, Server, ShutdownHandle};
