//! Framing, message vocabulary and typed errors of the wire protocol.
//!
//! # Framing
//!
//! Every message travels as one *frame*: a 4-byte big-endian payload
//! length followed by that many bytes of UTF-8. The payload is a
//! one-line `kind|field=value|...` message, assembled and parsed by
//! the record codec of `oms::persist` that the hybrid op journal uses
//! too, with free text and payloads hex-armoured. Frames larger than
//! the receiver's configured limit are rejected without being read.
//!
//! # Handshake
//!
//! The first client frame must be `hello|version=V|user=<hex name>`.
//! The server answers `welcome|version=V|session=S|user=U|admin=B`
//! and only then accepts further frames; any version or identity
//! mismatch is answered with a terminal `err|code=...|msg=<hex>`
//! frame followed by a close.
//!
//! # Requests and responses
//!
//! After the handshake the client pipelines requests tagged with a
//! client-chosen correlation id; the server answers each request in
//! order, echoing the id. [`Op`]s and [`Event`]s cross the wire in
//! their canonical one-line forms, hex-armoured into a single field,
//! so the wire vocabulary automatically covers the engine's complete
//! command set.
//!
//! # History requests
//!
//! The time-travel layer adds three read-only requests that never
//! touch the write path: `history-retained` (which commit seqs the
//! retention ring holds), `history-read` (one design object version's
//! data from a retained snapshot, visibility-scoped to the session
//! user) and `history-impact` (the stale derivation cone under a cell
//! version plus its FMCAD-mirrored subset). A seq outside the ring is
//! answered with a normal `fail` frame carrying the engine's
//! `seq-unreachable` error, so clients can discover the nearest
//! retained boundary from the message.

use std::io::{self, Read, Write};

use hybrid::{Event, Op};
use oms::persist::{assemble, dec, enc_str, hex, unhex, Fields};

/// The protocol version this crate speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default upper bound on a frame payload (16 MiB): comfortably above
/// the largest design-data blob the experiments push through an op,
/// far below anything that would let a hostile length prefix reserve
/// unbounded memory.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// A wire-level failure: transport errors, framing violations and
/// terminal protocol rejections.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// A frame announced a payload longer than the receiver's limit.
    Oversized {
        /// The announced payload length.
        len: u64,
        /// The receiver's configured maximum.
        max: u64,
    },
    /// The peer closed the connection mid-frame.
    Torn {
        /// Bytes actually received.
        got: usize,
        /// Bytes the frame header announced.
        want: usize,
    },
    /// The frame payload was not valid UTF-8.
    NotUtf8,
    /// The payload parsed as no known message.
    Malformed(String),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The server rejected the connection with a terminal `err` frame.
    Rejected {
        /// The machine-readable rejection code.
        code: String,
        /// The human-readable explanation.
        msg: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes announced, limit {max}")
            }
            WireError::Torn { got, want } => {
                write!(f, "torn frame: got {got} of {want} payload bytes")
            }
            WireError::NotUtf8 => write!(f, "frame payload is not utf-8"),
            WireError::Malformed(msg) => write!(f, "malformed message: {msg}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Rejected { code, msg } => write!(f, "rejected ({code}): {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Writes one frame: 4-byte big-endian length plus the payload.
///
/// Header and payload go to the writer as one buffer: on a socket, a
/// header written alone would leave the payload held back by Nagle's
/// algorithm until the peer's delayed ACK.
///
/// # Errors
///
/// Returns transport errors (including write timeouts surfaced as
/// [`io::ErrorKind::WouldBlock`] / [`io::ErrorKind::TimedOut`]).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame payload, enforcing `max_frame`.
///
/// Returns [`WireError::Closed`] on a clean close at a frame boundary
/// and [`WireError::Torn`] on a close inside a frame. An oversized
/// announcement is rejected *before* any payload is read, so a
/// hostile length prefix can never reserve the announced memory.
///
/// # Errors
///
/// Transport errors, oversized frames, torn frames, non-UTF-8
/// payloads.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<String, WireError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Torn {
                    got: filled,
                    want: header.len(),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame {
        return Err(WireError::Oversized {
            len: len as u64,
            max: max_frame as u64,
        });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(WireError::Torn {
                    got: filled,
                    want: len,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    String::from_utf8(payload).map_err(|_| WireError::NotUtf8)
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the session: protocol version plus the acting user's
    /// registered desktop name.
    Hello {
        /// The client's protocol version.
        version: u32,
        /// The desktop user name to act as.
        user: String,
    },
    /// One engine op, tagged with a client-chosen correlation id.
    Op {
        /// The correlation id echoed in the response.
        id: u64,
        /// The op, in its canonical one-line form.
        op: Op,
    },
    /// A liveness probe; answered with `pong`.
    Ping {
        /// The correlation id echoed in the response.
        id: u64,
    },
    /// Asks which commit seqs the backend's retention ring holds;
    /// answered with `retained`.
    HistoryRetained {
        /// The correlation id echoed in the response.
        id: u64,
    },
    /// Reads one design object version from the retained snapshot at
    /// `seq`, visibility-scoped to the session's bound user; answered
    /// with `data` or `fail`.
    HistoryRead {
        /// The correlation id echoed in the response.
        id: u64,
        /// The retained commit sequence to read at.
        seq: u64,
        /// The design object version, raw id form.
        dov: u64,
    },
    /// Evaluates the impact query on the retained snapshot at `seq`;
    /// answered with `impact` or `fail`.
    HistoryImpact {
        /// The correlation id echoed in the response.
        id: u64,
        /// The retained commit sequence to query at.
        seq: u64,
        /// The cell version whose derivation cone is queried, raw id
        /// form.
        cv: u64,
    },
    /// A clean goodbye; the server closes after draining.
    Bye,
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { version, user } => assemble(
                "hello",
                &[("version", version.to_string()), ("user", enc_str(user))],
            ),
            Request::Op { id, op } => assemble(
                "op",
                &[("id", id.to_string()), ("op", hex(op.to_line().as_bytes()))],
            ),
            Request::Ping { id } => assemble("ping", &[("id", id.to_string())]),
            Request::HistoryRetained { id } => {
                assemble("history-retained", &[("id", id.to_string())])
            }
            Request::HistoryRead { id, seq, dov } => assemble(
                "history-read",
                &[
                    ("id", id.to_string()),
                    ("seq", seq.to_string()),
                    ("dov", dov.to_string()),
                ],
            ),
            Request::HistoryImpact { id, seq, cv } => assemble(
                "history-impact",
                &[
                    ("id", id.to_string()),
                    ("seq", seq.to_string()),
                    ("cv", cv.to_string()),
                ],
            ),
            Request::Bye => "bye".to_owned(),
        }
    }

    /// Parses a frame payload as a request.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] on unknown kinds, missing
    /// fields, bad armour, or an embedded op that fails to parse.
    pub fn parse(payload: &str) -> Result<Request, WireError> {
        let f = Fields::parse(payload).map_err(WireError::Malformed)?;
        match f.kind {
            "hello" => Ok(Request::Hello {
                version: f.num("version").map_err(WireError::Malformed)?,
                user: f.str("user").map_err(WireError::Malformed)?,
            }),
            "op" => {
                let id = f.num("id").map_err(WireError::Malformed)?;
                let line = f.str("op").map_err(WireError::Malformed)?;
                let op = Op::parse_line(&line)
                    .map_err(|e| WireError::Malformed(format!("bad op: {e}")))?;
                Ok(Request::Op { id, op })
            }
            "ping" => Ok(Request::Ping {
                id: f.num("id").map_err(WireError::Malformed)?,
            }),
            "history-retained" => Ok(Request::HistoryRetained {
                id: f.num("id").map_err(WireError::Malformed)?,
            }),
            "history-read" => Ok(Request::HistoryRead {
                id: f.num("id").map_err(WireError::Malformed)?,
                seq: f.num("seq").map_err(WireError::Malformed)?,
                dov: f.num("dov").map_err(WireError::Malformed)?,
            }),
            "history-impact" => Ok(Request::HistoryImpact {
                id: f.num("id").map_err(WireError::Malformed)?,
                seq: f.num("seq").map_err(WireError::Malformed)?,
                cv: f.num("cv").map_err(WireError::Malformed)?,
            }),
            "bye" => Ok(Request::Bye),
            other => Err(WireError::Malformed(format!("unknown request {other:?}"))),
        }
    }
}

/// One FMCAD-mirrored cellview in an `impact` response: the stale
/// design object version plus the mirror coordinates a designer needs
/// to find it on the slave side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Impacted {
    /// The stale design object version, raw id form.
    pub dov: u64,
    /// The mirrored cellview version number.
    pub version: u32,
    /// The FMCAD library (mapped from the JCF project).
    pub library: String,
    /// The FMCAD cell (mapped from the JCF cell version).
    pub cell: String,
    /// The FMCAD view (mapped from the JCF viewtype).
    pub view: String,
}

/// Encodes a seq list as `1,2,3`; an empty list is the empty string.
fn enc_u64_list(seqs: &[u64]) -> String {
    seqs.iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a `1,2,3` seq list; the empty string is the empty list.
fn parse_u64_list(raw: &str) -> Result<Vec<u64>, String> {
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|s| dec(s).ok_or_else(|| format!("bad number {s:?} in list")))
        .collect()
}

/// Encodes impacted items as `dov:version:lib:cell:view` (strings
/// hex-armoured) joined with `;`; an empty list is the empty string.
fn enc_impacted(items: &[Impacted]) -> String {
    items
        .iter()
        .map(|i| {
            format!(
                "{}:{}:{}:{}:{}",
                i.dov,
                i.version,
                enc_str(&i.library),
                enc_str(&i.cell),
                enc_str(&i.view)
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses the `enc_impacted` form back.
fn parse_impacted(raw: &str) -> Result<Vec<Impacted>, String> {
    fn dearmour(part: &str) -> Result<String, String> {
        String::from_utf8(unhex(part).ok_or("bad hex in impacted item")?)
            .map_err(|_| "impacted item is not utf-8".to_owned())
    }
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    raw.split(';')
        .map(|item| {
            let parts: Vec<&str> = item.split(':').collect();
            let [dov, version, library, cell, view] = parts[..] else {
                return Err(format!("bad impacted item {item:?}"));
            };
            Ok(Impacted {
                dov: dec(dov).ok_or_else(|| format!("bad dov in impacted item {item:?}"))?,
                version: dec(version)
                    .ok_or_else(|| format!("bad version in impacted item {item:?}"))?,
                library: dearmour(library)?,
                cell: dearmour(cell)?,
                view: dearmour(view)?,
            })
        })
        .collect()
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The successful handshake answer.
    Welcome {
        /// The server's protocol version.
        version: u32,
        /// The server-assigned session number.
        session: u64,
        /// The resolved desktop user id (raw form).
        user: u64,
        /// Whether the session has administrator identity latitude.
        admin: bool,
    },
    /// An op committed: its global sequence number and typed event.
    Ok {
        /// The correlation id of the request.
        id: u64,
        /// The commit sequence the op landed at.
        seq: u64,
        /// The committed event, in canonical one-line form.
        event: Event,
    },
    /// An op was executed and rejected by the engine (or by the
    /// session identity policy before reaching it).
    Fail {
        /// The correlation id of the request.
        id: u64,
        /// The error family (`HybridError::kind` or `"identity"`).
        kind: String,
        /// The rendered error.
        msg: String,
    },
    /// The write path is saturated; the op was *not* executed and may
    /// be retried.
    Busy {
        /// The correlation id of the request.
        id: u64,
        /// The observed write-queue depth.
        depth: u64,
    },
    /// The answer to a `ping`.
    Pong {
        /// The correlation id of the request.
        id: u64,
    },
    /// The answer to a `history-retained`: the commit seqs the
    /// retention ring currently holds, ascending, pins included.
    Retained {
        /// The correlation id of the request.
        id: u64,
        /// The retained commit seqs, ascending.
        seqs: Vec<u64>,
    },
    /// The answer to a successful `history-read`: the design data
    /// bytes from the retained snapshot.
    Data {
        /// The correlation id of the request.
        id: u64,
        /// The design data payload.
        data: Vec<u8>,
    },
    /// The answer to a successful `history-impact`.
    Impact {
        /// The correlation id of the request.
        id: u64,
        /// The full stale derivation cone, raw dov ids, ascending.
        stale: Vec<u64>,
        /// The FMCAD-mirrored subset with mirror coordinates.
        impacted: Vec<Impacted>,
    },
    /// A terminal protocol error; the server closes after sending it.
    Err {
        /// Machine-readable code: `proto`, `version`, `auth`,
        /// `oversized`, `capacity`, `timeout` or `internal`.
        code: String,
        /// The human-readable explanation.
        msg: String,
    },
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Response::Welcome {
                version,
                session,
                user,
                admin,
            } => assemble(
                "welcome",
                &[
                    ("version", version.to_string()),
                    ("session", session.to_string()),
                    ("user", user.to_string()),
                    ("admin", admin.to_string()),
                ],
            ),
            Response::Ok { id, seq, event } => assemble(
                "ok",
                &[
                    ("id", id.to_string()),
                    ("seq", seq.to_string()),
                    ("event", hex(event.to_line().as_bytes())),
                ],
            ),
            Response::Fail { id, kind, msg } => assemble(
                "fail",
                &[
                    ("id", id.to_string()),
                    ("kind", enc_str(kind)),
                    ("msg", enc_str(msg)),
                ],
            ),
            Response::Busy { id, depth } => assemble(
                "busy",
                &[("id", id.to_string()), ("depth", depth.to_string())],
            ),
            Response::Pong { id } => assemble("pong", &[("id", id.to_string())]),
            Response::Retained { id, seqs } => assemble(
                "retained",
                &[("id", id.to_string()), ("seqs", enc_u64_list(seqs))],
            ),
            Response::Data { id, data } => {
                assemble("data", &[("id", id.to_string()), ("data", hex(data))])
            }
            Response::Impact {
                id,
                stale,
                impacted,
            } => assemble(
                "impact",
                &[
                    ("id", id.to_string()),
                    ("stale", enc_u64_list(stale)),
                    ("impacted", enc_impacted(impacted)),
                ],
            ),
            Response::Err { code, msg } => {
                assemble("err", &[("code", code.clone()), ("msg", enc_str(msg))])
            }
        }
    }

    /// Parses a frame payload as a response.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] on unknown kinds, missing
    /// fields, bad armour, or an embedded event that fails to parse.
    pub fn parse(payload: &str) -> Result<Response, WireError> {
        let f = Fields::parse(payload).map_err(WireError::Malformed)?;
        match f.kind {
            "welcome" => Ok(Response::Welcome {
                version: f.num("version").map_err(WireError::Malformed)?,
                session: f.num("session").map_err(WireError::Malformed)?,
                user: f.num("user").map_err(WireError::Malformed)?,
                admin: f
                    .get("admin")
                    .and_then(|v| v.parse().map_err(|_| format!("bad admin flag {v:?}")))
                    .map_err(WireError::Malformed)?,
            }),
            "ok" => {
                let id = f.num("id").map_err(WireError::Malformed)?;
                let seq = f.num("seq").map_err(WireError::Malformed)?;
                let line = f.str("event").map_err(WireError::Malformed)?;
                let event = Event::parse_line(&line)
                    .map_err(|e| WireError::Malformed(format!("bad event: {e}")))?;
                Ok(Response::Ok { id, seq, event })
            }
            "fail" => Ok(Response::Fail {
                id: f.num("id").map_err(WireError::Malformed)?,
                kind: f.str("kind").map_err(WireError::Malformed)?,
                msg: f.str("msg").map_err(WireError::Malformed)?,
            }),
            "busy" => Ok(Response::Busy {
                id: f.num("id").map_err(WireError::Malformed)?,
                depth: f.num("depth").map_err(WireError::Malformed)?,
            }),
            "pong" => Ok(Response::Pong {
                id: f.num("id").map_err(WireError::Malformed)?,
            }),
            "retained" => Ok(Response::Retained {
                id: f.num("id").map_err(WireError::Malformed)?,
                seqs: parse_u64_list(f.get("seqs").map_err(WireError::Malformed)?)
                    .map_err(WireError::Malformed)?,
            }),
            "data" => Ok(Response::Data {
                id: f.num("id").map_err(WireError::Malformed)?,
                data: f.bytes("data").map_err(WireError::Malformed)?,
            }),
            "impact" => Ok(Response::Impact {
                id: f.num("id").map_err(WireError::Malformed)?,
                stale: parse_u64_list(f.get("stale").map_err(WireError::Malformed)?)
                    .map_err(WireError::Malformed)?,
                impacted: parse_impacted(f.get("impacted").map_err(WireError::Malformed)?)
                    .map_err(WireError::Malformed)?,
            }),
            "err" => Ok(Response::Err {
                code: f.get("code").map_err(WireError::Malformed)?.to_owned(),
                msg: f.str("msg").map_err(WireError::Malformed)?,
            }),
            other => Err(WireError::Malformed(format!("unknown response {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello|version=1|user=61").unwrap();
        write_frame(&mut buf, "bye").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME).unwrap(),
            "hello|version=1|user=61"
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), "bye");
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME),
            Err(WireError::Closed)
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_before_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(WireError::Oversized { .. })
        ));
    }

    /// A writer that accepts everything and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, "pong|id=1").unwrap();
        assert_eq!(w.writes, 1, "header and payload must leave together");
        write_frame(&mut w, "").unwrap();
        assert_eq!(w.writes, 2);
        let mut r = &w.bytes[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), "pong|id=1");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), "");
    }

    #[test]
    fn torn_frames_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "ping|id=1").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME),
            Err(WireError::Torn { .. })
        ));
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
                user: "alice|=weird".into(),
            },
            Request::Op {
                id: 7,
                op: Op::CreateProject { name: "p".into() },
            },
            Request::Ping { id: 9 },
            Request::HistoryRetained { id: 10 },
            Request::HistoryRead {
                id: 11,
                seq: 42,
                dov: 7,
            },
            Request::HistoryImpact {
                id: 12,
                seq: u64::MAX,
                cv: 3,
            },
            Request::Bye,
        ];
        for req in reqs {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req);
        }
        let resps = [
            Response::Welcome {
                version: 1,
                session: 3,
                user: 1,
                admin: true,
            },
            Response::Fail {
                id: 4,
                kind: "identity".into(),
                msg: "nope".into(),
            },
            Response::Busy { id: 5, depth: 900 },
            Response::Pong { id: 6 },
            Response::Retained {
                id: 7,
                seqs: vec![0, 8, u64::MAX],
            },
            Response::Retained {
                id: 8,
                seqs: vec![],
            },
            Response::Data {
                id: 9,
                data: b"netlist adder\n".to_vec(),
            },
            Response::Data {
                id: 10,
                data: vec![],
            },
            Response::Impact {
                id: 11,
                stale: vec![3, 4],
                impacted: vec![
                    Impacted {
                        dov: 3,
                        version: 2,
                        library: "alu16".into(),
                        cell: "adder|=:;odd".into(),
                        view: "layout".into(),
                    },
                    Impacted {
                        dov: 4,
                        version: 1,
                        library: "".into(),
                        cell: "c".into(),
                        view: "v".into(),
                    },
                ],
            },
            Response::Impact {
                id: 12,
                stale: vec![],
                impacted: vec![],
            },
            Response::Err {
                code: "proto".into(),
                msg: "bad frame".into(),
            },
        ];
        for resp in resps {
            assert_eq!(Response::parse(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_history_payloads_are_rejected() {
        for line in [
            "history-read|id=1|seq=zz|dov=2",
            "history-impact|id=1|seq=0",
        ] {
            assert!(
                matches!(Request::parse(line), Err(WireError::Malformed(_))),
                "{line:?} should be rejected"
            );
        }
        for line in [
            "retained|id=1|seqs=1,,2",
            "impact|id=1|stale=|impacted=3:1:zz:63:76",
            "impact|id=1|stale=|impacted=3:1:6c",
            "data|id=1|data=0g",
        ] {
            assert!(
                matches!(Response::parse(line), Err(WireError::Malformed(_))),
                "{line:?} should be rejected"
            );
        }
    }
}
