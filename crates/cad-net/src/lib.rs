//! # cad-net — the wire-level front-end of the hybrid framework
//!
//! The paper's coupled framework is a multi-user system: designers
//! reach the JCF desktop from their own workstations while the master
//! framework owns the data. This crate supplies that front door for
//! the reproduction — a TCP protocol server that puts the in-process
//! [`hybrid::Service`] (or the partitioned
//! [`hybrid::ShardedService`]) behind a small, versioned,
//! length-delimited framing protocol:
//!
//! * **Framing** ([`proto`]): 4-byte big-endian length plus a one-line
//!   `kind|field=value|...` UTF-8 payload, written and read by the same
//!   record codec as the op journal and every checkpoint file
//!   (`oms::persist`: `assemble`, `Fields`, strict `hex`/`unhex`). Ops
//!   and events cross the wire in their canonical one-line forms, so
//!   the wire vocabulary tracks the engine's command set automatically.
//! * **Handshake**: `hello` (protocol version + desktop user name) is
//!   answered by `welcome` (session number, resolved user id, admin
//!   flag) or a terminal typed `err`. Sessions are *bound* to the
//!   identity they authenticate as: ops embedding someone else's
//!   identity are rejected with a typed `identity` failure
//!   ([`policy`]), mirroring the desktop visibility model on writes.
//! * **Threading and backpressure** ([`Server`]): one thread per
//!   connection reads a request, answers it and only then reads the
//!   next, so replies stay in request order and a pipelining client
//!   is held back by TCP flow control; a typed `busy` response once
//!   the engine's write queue passes a threshold means a flooding
//!   client degrades *itself* first and the commit path never wedges.
//!   Streams run with `TCP_NODELAY` and each frame leaves in one
//!   write, so a reply costs about as much as the op behind it.
//! * **Fault containment**: oversized, torn, non-UTF-8 and otherwise
//!   hostile frames get a typed terminal error or a clean close —
//!   never a panic, never a corrupted engine (the adversarial suite
//!   pins this with fingerprint comparisons).
//!
//! The matching [`Client`] speaks the same protocol synchronously —
//! handshake, pipelined submission, typed replies — and is what the
//! conformance tests and the `e16_net` load generator drive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone)]

mod backend;
mod client;
pub mod policy;
pub mod proto;
mod server;

pub use backend::Backend;
pub use client::{Client, Outcome, Reply};
pub use proto::{
    read_frame, write_frame, Request, Response, WireError, MAX_FRAME, PROTOCOL_VERSION,
};
pub use server::{NetStatsView, Server, ServerConfig};
