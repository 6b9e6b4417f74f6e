//! E16 — wire-protocol front-end under a thousand concurrent clients.
//!
//! The paper's installation served a whole design department from one
//! framework instance; the desktop sessions of E12 modeled that
//! in-process. E16 measures the same multi-tenant story at the wire:
//! N real TCP clients (each a `cad-net` connection with its own
//! handshake, identity and server thread) drive the
//! [`hybrid::Service`] group-commit path through the framed protocol
//! and we record end-to-end commit latency per op.
//!
//! Each client pipelines its whole burst before reading a single
//! reply, so the generator is open-loop *within* a connection: the
//! TCP socket buffers, not the client's request/response cadence,
//! decide how much work is outstanding (the server reads one request,
//! answers it, then reads the next). Each connection costs two
//! threads: the client's and the server's. Latency is measured from
//! the instant a request frame is written to the instant its reply
//! frame is parsed.
//!
//! Gated properties:
//!
//! 1. **Completeness** — every pipelined op receives a typed reply
//!    and every reply is a commit (the workload is conflict-free by
//!    construction). Nothing times out, nothing panics, no frame is
//!    malformed.
//! 2. **Bounded queueing** — the service's write-queue high-water
//!    mark is reported so the committed baseline can watch the
//!    group-commit queue, not just the throughput number.
//! 3. **Throughput floor** — ops/sec is compared against
//!    `scripts/e16_baseline.json` by the CI gate.

use std::fmt;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use cad_net::{Client, Outcome, Server, ServerConfig};
use hybrid::{Engine, Op, Service};

/// User every load client authenticates as (the engine's bootstrap
/// administrator, so project creation is permitted).
const ADMIN: &str = "framework-admin";

/// Results of one E16 run.
#[derive(Debug, Clone)]
pub struct E16Report {
    /// Concurrent client connections.
    pub clients: usize,
    /// Ops pipelined per client.
    pub ops_per_client: usize,
    /// Total ops sent (`clients * ops_per_client`).
    pub total_ops: u64,
    /// Replies that committed.
    pub committed: u64,
    /// Replies the engine rejected.
    pub failed: u64,
    /// Replies answered `busy`.
    pub busy: u64,
    /// Wall-clock nanoseconds from barrier release to the last reply.
    pub wall_ns: u64,
    /// Median end-to-end op latency (send → parsed reply).
    pub p50_ns: u64,
    /// 99th-percentile end-to-end op latency.
    pub p99_ns: u64,
    /// Worst observed op latency.
    pub max_ns: u64,
    /// Handshakes the server completed.
    pub handshakes: u64,
    /// Frames the server read.
    pub frames_in: u64,
    /// Frames the server wrote.
    pub frames_out: u64,
    /// Connections the server dropped on a timeout.
    pub timeouts: u64,
    /// Framing/parse violations the server counted.
    pub protocol_errors: u64,
    /// Connection threads that panicked (must be 0).
    pub panics: u64,
    /// Deepest the service's pending write queue got.
    pub max_queue_depth: u64,
    /// Largest single group commit the flood produced.
    pub max_batch: u64,
}

impl E16Report {
    /// End-to-end committed ops per second over the whole flood.
    pub fn ops_per_sec(&self) -> f64 {
        self.committed as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Whether every gated property held in this run.
    pub fn holds(&self) -> bool {
        self.committed == self.total_ops
            && self.failed == 0
            && self.busy == 0
            && self.handshakes >= self.clients as u64
            && self.panics == 0
            && self.protocol_errors == 0
            && self.timeouts == 0
            && self.p50_ns <= self.p99_ns
            && self.max_queue_depth >= 1
    }
}

impl fmt::Display for E16Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E16 — wire front-end under load ({} clients x {} ops, pipelined)",
            self.clients, self.ops_per_client
        )?;
        writeln!(
            f,
            "  replies: {} committed, {} failed, {} busy of {} sent in {:>8.3}ms ({:.0} ops/s)",
            self.committed,
            self.failed,
            self.busy,
            self.total_ops,
            self.wall_ns as f64 / 1e6,
            self.ops_per_sec()
        )?;
        writeln!(
            f,
            "  latency: p50 {:>8.3}ms  p99 {:>8.3}ms  max {:>8.3}ms",
            self.p50_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
            self.max_ns as f64 / 1e6
        )?;
        writeln!(
            f,
            "  server: {} handshakes, {} frames in, {} frames out, {} timeouts, {} protocol errors, {} panics",
            self.handshakes,
            self.frames_in,
            self.frames_out,
            self.timeouts,
            self.protocol_errors,
            self.panics
        )?;
        write!(
            f,
            "  queue: peaked at {} pending ops, largest group commit {}",
            self.max_queue_depth, self.max_batch
        )
    }
}

/// Connects with retries: a thousand simultaneous SYNs can overflow
/// the listen backlog, and a refused connect during ramp-up is load,
/// not failure.
fn connect_patiently(addr: std::net::SocketAddr) -> Client {
    let mut attempts = 0u32;
    loop {
        match Client::connect(addr, ADMIN) {
            Ok(client) => return client,
            Err(e) => {
                attempts += 1;
                assert!(attempts <= 500, "client could not connect: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Runs E16 at the standard scale: 1000 concurrent clients, 16 ops
/// each.
pub fn run(seed: u64) -> E16Report {
    run_scaled(1000, 16, seed)
}

/// Runs E16 with explicit client count and per-client burst size.
///
/// # Panics
///
/// Panics when a client cannot connect, a reply is missing or
/// malformed, or a thread dies.
pub fn run_scaled(clients: usize, ops_per_client: usize, seed: u64) -> E16Report {
    let service = Service::new(Engine::builder().build());
    let config = ServerConfig {
        max_conns: clients + 16,
        // The flood outruns any busy threshold; E16 measures raw
        // pipelined throughput, so the gate is effectively off and
        // the queue high-water mark is reported instead.
        busy_threshold: u64::MAX,
        handshake_timeout: Duration::from_secs(60),
        idle_timeout: Duration::from_secs(120),
        write_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config, service.clone()).expect("bind");
    let addr = server.local_addr();

    let total_ops = (clients * ops_per_client) as u64;
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(total_ops as usize));
    let tallies: Mutex<(u64, u64, u64)> = Mutex::new((0, 0, 0));
    // Clients connect first, then all release together so the
    // measured window is pure steady-state load, not ramp-up.
    let start_gate = Barrier::new(clients + 1);
    let started = Mutex::new(None::<Instant>);

    std::thread::scope(|scope| {
        for c in 0..clients {
            let start_gate = &start_gate;
            let latencies = &latencies;
            let tallies = &tallies;
            std::thread::Builder::new()
                .name(format!("e16-client-{c}"))
                .stack_size(256 * 1024)
                .spawn_scoped(scope, move || {
                    let mut client = connect_patiently(addr);
                    start_gate.wait();

                    // Pipeline the whole burst, then drain replies.
                    let mut sent = Vec::with_capacity(ops_per_client);
                    for i in 0..ops_per_client {
                        let op = Op::CreateProject {
                            name: format!("e16-s{seed}-c{c}-p{i}"),
                        };
                        let id = client.send_op(&op).expect("send over the wire");
                        sent.push((id, Instant::now()));
                    }
                    let mut local = Vec::with_capacity(ops_per_client);
                    let mut counts = (0u64, 0u64, 0u64);
                    for (want, sent_at) in sent {
                        let reply = client.recv_reply().expect("typed reply");
                        assert_eq!(reply.id, want, "replies must stay in order");
                        local.push(sent_at.elapsed().as_nanos() as u64);
                        match reply.outcome {
                            Outcome::Committed { .. } => counts.0 += 1,
                            Outcome::Failed { .. } => counts.1 += 1,
                            Outcome::Busy { .. } => counts.2 += 1,
                            other => panic!("{other:?} for an op id"),
                        }
                    }
                    client.bye().expect("clean goodbye");
                    latencies.lock().unwrap().extend_from_slice(&local);
                    let mut t = tallies.lock().unwrap();
                    t.0 += counts.0;
                    t.1 += counts.1;
                    t.2 += counts.2;
                })
                .expect("spawn load client");
        }
        start_gate.wait();
        *started.lock().unwrap() = Some(Instant::now());
    });
    let wall_ns = started
        .lock()
        .unwrap()
        .expect("barrier released")
        .elapsed()
        .as_nanos() as u64;

    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable();
    let percentile = |p: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        let idx = ((lat.len() - 1) as f64 * p).round() as usize;
        lat[idx]
    };
    let (committed, failed, busy) = tallies.into_inner().unwrap();

    let net = server.stats();
    let svc = service.stats();
    server.shutdown();

    E16Report {
        clients,
        ops_per_client,
        total_ops,
        committed,
        failed,
        busy,
        wall_ns,
        p50_ns: percentile(0.50),
        p99_ns: percentile(0.99),
        max_ns: lat.last().copied().unwrap_or(0),
        handshakes: net.handshakes,
        frames_in: net.frames_in,
        frames_out: net.frames_out,
        timeouts: net.timeouts,
        protocol_errors: net.protocol_errors,
        panics: net.panics,
        max_queue_depth: svc.max_queue_depth,
        max_batch: svc.max_batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_flood_commits_every_op() {
        let report = run_scaled(24, 8, 42);
        assert_eq!(report.total_ops, 192);
        assert!(report.holds(), "small flood must hold: {report}");
        assert!(report.p50_ns > 0);
        assert!(report.max_ns >= report.p99_ns);
    }
}
