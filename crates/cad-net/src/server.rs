//! The protocol server: a thread-per-connection TCP front-end with a
//! bounded accept pool and explicit backpressure.
//!
//! # Threading model
//!
//! One acceptor thread owns the listener. Each accepted connection
//! gets one thread that runs the whole session: it reads a request
//! frame through a small read buffer, checks and executes it against
//! the [`Backend`], writes the reply, and only then reads the next
//! request. Replies therefore leave in request order, at most one
//! request per connection is being answered at a time, and a client
//! may pipeline as deep as the socket buffers let it.
//!
//! Every accepted stream has `TCP_NODELAY` set and every frame leaves
//! in one write, so a reply reaches the client as soon as it is
//! encoded instead of waiting for the client's delayed ACK.
//!
//! # Backpressure
//!
//! Two mechanisms layer on top of each other:
//!
//! * **Per-connection**: while a request is being answered the server
//!   reads nothing more from that socket, so a client that pipelines
//!   faster than it is served fills the socket buffers and TCP flow
//!   control stops the sender. The server holds at most one parsed
//!   request per connection, plus its read buffer.
//! * **Engine-wide**: before executing an op the connection thread
//!   samples the backend's write-queue depth; at or above the
//!   configured threshold it answers a typed `busy` response *without
//!   executing the op*, so one saturating client cannot wedge the
//!   commit path for everyone else.
//!
//! Slow *readers* (clients that stop draining responses) are bounded
//! by the write timeout: a blocked response write times out and the
//! connection is dropped, freeing its thread and permit. The idle
//! timeout bounds only the wait for the next request, never the time
//! the server spends answering one.

use std::io::{self, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hybrid::Op;
use jcf::{CellVersionId, DovId, UserId};

use crate::backend::Backend;
use crate::policy::permits;
use crate::proto::{read_frame, write_frame, Request, Response, WireError, PROTOCOL_VERSION};

/// Stack size for connection threads: frames are bounded and parsing
/// is iterative, so the default 8 MiB per thread would only limit how
/// many connections fit in memory.
const CONN_STACK: usize = 256 * 1024;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent connections; further accepts are answered
    /// with a terminal `err|code=capacity` frame.
    pub max_conns: usize,
    /// Write-queue depth at which ops are answered `busy` instead of
    /// being executed.
    pub busy_threshold: u64,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
    /// How long a fresh connection may take to complete the handshake.
    pub handshake_timeout: Duration,
    /// How long an established connection may sit idle between frames.
    pub idle_timeout: Duration,
    /// How long a response write may block before the client is
    /// declared slow and dropped.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_conns: 128,
            busy_threshold: 1024,
            max_frame: crate::proto::MAX_FRAME,
            handshake_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Internal counters, shared by every connection thread.
#[derive(Debug, Default)]
struct NetStats {
    accepted: AtomicU64,
    refused: AtomicU64,
    active: AtomicU64,
    handshakes: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    ops_ok: AtomicU64,
    ops_failed: AtomicU64,
    history_queries: AtomicU64,
    busy: AtomicU64,
    identity_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct NetStatsView {
    /// Connections accepted (including later-failed handshakes).
    pub accepted: u64,
    /// Connections refused at the capacity limit.
    pub refused: u64,
    /// Connections currently established.
    pub active: u64,
    /// Handshakes completed successfully.
    pub handshakes: u64,
    /// Frames read from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// Ops that committed.
    pub ops_ok: u64,
    /// Ops the engine rejected.
    pub ops_failed: u64,
    /// History requests served off retained snapshots (never the
    /// write path): `history-retained`, `history-read`,
    /// `history-impact`.
    pub history_queries: u64,
    /// Ops answered `busy` without being executed.
    pub busy: u64,
    /// Ops rejected by the session identity policy.
    pub identity_rejections: u64,
    /// Framing or parse violations.
    pub protocol_errors: u64,
    /// Idle/handshake/write timeouts that dropped a connection.
    pub timeouts: u64,
    /// Connection threads that panicked (always 0 in a healthy build;
    /// the fault-injection suite asserts on it).
    pub panics: u64,
}

impl NetStats {
    fn view(&self) -> NetStatsView {
        NetStatsView {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            handshakes: self.handshakes.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            ops_ok: self.ops_ok.load(Ordering::Relaxed),
            ops_failed: self.ops_failed.load(Ordering::Relaxed),
            history_queries: self.history_queries.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            identity_rejections: self.identity_rejections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// The TCP protocol server. Binding spawns the acceptor; dropping the
/// server shuts the acceptor down (established connections drain on
/// their own timeouts).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    stats: Arc<NetStats>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind<B: Backend>(addr: &str, config: ServerConfig, backend: B) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetStats::default());
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let backend = Arc::new(backend);
            std::thread::Builder::new()
                .name("cad-net-accept".into())
                .spawn(move || accept_loop(listener, config, backend, stats, shutdown))?
        };
        Ok(Server {
            addr: local,
            shutdown,
            acceptor: Some(acceptor),
            stats,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the server's counters.
    pub fn stats(&self) -> NetStatsView {
        self.stats.view()
    }

    /// Stops accepting new connections and joins the acceptor.
    /// Established connections keep draining until their clients
    /// disconnect or time out.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the (otherwise indefinitely blocking) accept call.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<B: Backend>(
    listener: TcpListener,
    config: ServerConfig,
    backend: Arc<B>,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
) {
    let next_session = AtomicU64::new(1);
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        if stats.active.load(Ordering::Relaxed) >= config.max_conns as u64 {
            stats.refused.fetch_add(1, Ordering::Relaxed);
            refuse(stream, &config);
            continue;
        }
        stats.active.fetch_add(1, Ordering::Relaxed);
        let session = next_session.fetch_add(1, Ordering::Relaxed);
        let config = config.clone();
        let backend = Arc::clone(&backend);
        let stats_for_conn = Arc::clone(&stats);
        let spawned = std::thread::Builder::new()
            .name(format!("cad-net-conn-{session}"))
            .stack_size(CONN_STACK)
            .spawn(move || {
                let guarded = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(stream, session, &config, &*backend, &stats_for_conn);
                }));
                if guarded.is_err() {
                    stats_for_conn.panics.fetch_add(1, Ordering::Relaxed);
                }
                stats_for_conn.active.fetch_sub(1, Ordering::Relaxed);
            });
        if spawned.is_err() {
            // Thread exhaustion counts as a refusal, not a crash.
            stats.active.fetch_sub(1, Ordering::Relaxed);
            stats.refused.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Answers a connection over the capacity limit with a terminal
/// `err|code=capacity` frame.
fn refuse(mut stream: TcpStream, config: &ServerConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let resp = Response::Err {
        code: "capacity".into(),
        msg: "connection limit reached; retry later".into(),
    };
    let _ = write_frame(&mut stream, &resp.encode());
    let _ = stream.shutdown(Shutdown::Both);
}

/// The session identity established by the handshake.
struct Identity {
    user: UserId,
    name: String,
    admin: bool,
}

/// A terminal condition: the `err` frame to send (`None`: close
/// without one) before the connection is shut down.
type Terminal = Option<(&'static str, String)>;

fn handle_connection<B: Backend>(
    stream: TcpStream,
    session: u64,
    config: &ServerConfig,
    backend: &B,
    stats: &NetStats,
) {
    // Each reply is one small frame the client is waiting on; without
    // this it would sit in the send buffer until the client's delayed
    // ACK.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    if let Some(identity) = handshake(&mut reader, &mut writer, session, config, backend, stats) {
        stats.handshakes.fetch_add(1, Ordering::Relaxed);
        // The idle timeout bounds only the wait for the next request:
        // no read is outstanding while a request is being answered.
        let _ = stream.set_read_timeout(Some(config.idle_timeout));
        serve(&mut reader, &mut writer, &identity, config, backend, stats);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads and validates the `hello` frame, answers `welcome` (or a
/// terminal `err`), and returns the established identity.
fn handshake<B: Backend>(
    reader: &mut impl Read,
    stream: &mut &TcpStream,
    session: u64,
    config: &ServerConfig,
    backend: &B,
    stats: &NetStats,
) -> Option<Identity> {
    let _ = stream.set_read_timeout(Some(config.handshake_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let payload = match read_frame(reader, config.max_frame) {
        Ok(p) => p,
        Err(e) => {
            note_read_error(&e, stats);
            send_terminal(stream, stats, terminal_for(&e));
            return None;
        }
    };
    stats.frames_in.fetch_add(1, Ordering::Relaxed);
    let (version, user_name) = match Request::parse(&payload) {
        Ok(Request::Hello { version, user }) => (version, user),
        Ok(_) => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            send_terminal(
                stream,
                stats,
                Some(("proto", "expected hello as the first frame".into())),
            );
            return None;
        }
        Err(e) => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            send_terminal(stream, stats, Some(("proto", e.to_string())));
            return None;
        }
    };
    if version != PROTOCOL_VERSION {
        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        send_terminal(
            stream,
            stats,
            Some((
                "version",
                format!("server speaks version {PROTOCOL_VERSION}, client sent {version}"),
            )),
        );
        return None;
    }
    let user = match backend.resolve_user(&user_name) {
        Some(user) => user,
        None => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            send_terminal(
                stream,
                stats,
                Some(("auth", format!("unknown user {user_name:?}"))),
            );
            return None;
        }
    };
    let admin = user == backend.admin_user();
    let welcome = Response::Welcome {
        version: PROTOCOL_VERSION,
        session,
        user: user.raw(),
        admin,
    };
    if write_frame(stream, &welcome.encode()).is_err() {
        return None;
    }
    stats.frames_out.fetch_add(1, Ordering::Relaxed);
    Some(Identity {
        user,
        name: user_name,
        admin,
    })
}

/// Classifies a read error into the terminal `err` frame it deserves
/// (`None`: the peer is gone, nothing to send).
fn terminal_for(e: &WireError) -> Terminal {
    match e {
        WireError::Closed | WireError::Torn { .. } => None,
        WireError::Oversized { .. } => Some(("oversized", e.to_string())),
        WireError::NotUtf8 | WireError::Malformed(_) | WireError::Rejected { .. } => {
            Some(("proto", e.to_string()))
        }
        WireError::Io(io) => match io.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                Some(("timeout", "idle timeout".into()))
            }
            _ => None,
        },
    }
}

/// Bumps the right counter for a failed read.
fn note_read_error(e: &WireError, stats: &NetStats) {
    match e {
        WireError::Closed => {}
        WireError::Io(io)
            if matches!(
                io.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            stats.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        WireError::Io(_) => {}
        _ => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Writes a terminal `err` frame if one is warranted.
fn send_terminal(writer: &mut &TcpStream, stats: &NetStats, terminal: Terminal) {
    if let Some((code, msg)) = terminal {
        let resp = Response::Err {
            code: code.into(),
            msg,
        };
        if write_frame(writer, &resp.encode()).is_ok() {
            stats.frames_out.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The established session: read one request, answer it, repeat. The
/// next request is not read until the previous reply is written, so
/// replies leave in request order and a pipelining client is held
/// back by TCP flow control alone.
fn serve<B: Backend>(
    reader: &mut impl Read,
    writer: &mut &TcpStream,
    identity: &Identity,
    config: &ServerConfig,
    backend: &B,
    stats: &NetStats,
) {
    loop {
        let response = match read_frame(reader, config.max_frame) {
            Ok(payload) => {
                stats.frames_in.fetch_add(1, Ordering::Relaxed);
                answer(&payload, identity, config.busy_threshold, backend, stats)
            }
            Err(e) => {
                note_read_error(&e, stats);
                Err(terminal_for(&e))
            }
        };
        let response = match response {
            Ok(response) => response,
            Err(terminal) => return send_terminal(writer, stats, terminal),
        };
        if let Err(e) = write_frame(writer, &response.encode()) {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        stats.frames_out.fetch_add(1, Ordering::Relaxed);
    }
}

/// Parses and executes one request: the reply to send, or the
/// terminal condition that ends the session.
fn answer<B: Backend>(
    payload: &str,
    identity: &Identity,
    busy_threshold: u64,
    backend: &B,
    stats: &NetStats,
) -> Result<Response, Terminal> {
    let request = Request::parse(payload).map_err(|e| {
        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        Some(("proto", e.to_string()))
    })?;
    Ok(match request {
        Request::Ping { id } => Response::Pong { id },
        Request::Op { id, op } => execute(id, op, identity, busy_threshold, backend, stats)?,
        Request::HistoryRetained { id } => {
            stats.history_queries.fetch_add(1, Ordering::Relaxed);
            Response::Retained {
                id,
                seqs: backend.retained_seqs(),
            }
        }
        Request::HistoryRead { id, seq, dov } => {
            stats.history_queries.fetch_add(1, Ordering::Relaxed);
            match backend.history_read(identity.user, seq, DovId::from_raw(dov)) {
                Ok(data) => Response::Data { id, data },
                Err(e) => Response::Fail {
                    id,
                    kind: e.kind().to_owned(),
                    msg: e.to_string(),
                },
            }
        }
        Request::HistoryImpact { id, seq, cv } => {
            stats.history_queries.fetch_add(1, Ordering::Relaxed);
            match backend.history_impact(seq, CellVersionId::from_raw(cv)) {
                Ok((stale, impacted)) => Response::Impact {
                    id,
                    stale: stale.iter().map(|d| d.raw()).collect(),
                    impacted: impacted
                        .iter()
                        .map(|(dov, mirror)| crate::proto::Impacted {
                            dov: dov.raw(),
                            version: mirror.version,
                            library: mirror.library.clone(),
                            cell: mirror.cell.clone(),
                            view: mirror.view.clone(),
                        })
                        .collect(),
                },
                Err(e) => Response::Fail {
                    id,
                    kind: e.kind().to_owned(),
                    msg: e.to_string(),
                },
            }
        }
        Request::Bye => return Err(None),
        Request::Hello { .. } => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return Err(Some(("proto", "hello after the handshake".into())));
        }
    })
}

/// Runs one op through the identity check and the `busy` gate, then
/// against the backend.
fn execute<B: Backend>(
    id: u64,
    op: Op,
    identity: &Identity,
    busy_threshold: u64,
    backend: &B,
    stats: &NetStats,
) -> Result<Response, Terminal> {
    if !permits(identity.admin, identity.user, &identity.name, &op) {
        stats.identity_rejections.fetch_add(1, Ordering::Relaxed);
        return Ok(Response::Fail {
            id,
            kind: "identity".into(),
            msg: format!(
                "session is bound to user {:?}; op embeds a different (or \
                 administrative) identity",
                identity.name
            ),
        });
    }
    let depth = backend.queue_depth();
    if depth >= busy_threshold {
        stats.busy.fetch_add(1, Ordering::Relaxed);
        return Ok(Response::Busy { id, depth });
    }
    // The engine forbids panics by construction, but the fault
    // battery wants the *wire* guarantee: a panicking backend yields a
    // typed terminal error, never a torn connection with no answer.
    match catch_unwind(AssertUnwindSafe(|| backend.execute(op))) {
        Ok(Ok((seq, event))) => {
            stats.ops_ok.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Ok { id, seq, event })
        }
        Ok(Err(e)) => {
            stats.ops_failed.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Fail {
                id,
                kind: e.kind().to_owned(),
                msg: e.to_string(),
            })
        }
        Err(_) => {
            stats.panics.fetch_add(1, Ordering::Relaxed);
            Err(Some(("internal", "op execution panicked".into())))
        }
    }
}
