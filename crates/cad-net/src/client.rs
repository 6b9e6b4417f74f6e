//! The matching protocol client: handshake, pipelined submission and
//! typed replies.
//!
//! The client is deliberately synchronous and single-threaded — one
//! [`TcpStream`], blocking frame I/O — because that is what the test
//! batteries and the open-loop load generator need: full control over
//! *when* bytes move, so torn frames, pipelining depth and slow-reader
//! behaviour can be scripted precisely.

use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use hybrid::{Event, Op};
use jcf::UserId;

use crate::proto::{
    read_frame, write_frame, Impacted, Request, Response, WireError, PROTOCOL_VERSION,
};

/// The outcome of one submitted op, as seen over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The op committed at `seq` and produced `event`.
    Committed {
        /// The global commit sequence.
        seq: u64,
        /// The typed event.
        event: Event,
    },
    /// The engine (or the identity policy) rejected the op.
    Failed {
        /// The error family.
        kind: String,
        /// The rendered error.
        msg: String,
    },
    /// The server refused to execute the op under write-path
    /// saturation; safe to retry.
    Busy {
        /// The write-queue depth the server observed.
        depth: u64,
    },
    /// The answer to a pipelined `ping`.
    Pong,
    /// The answer to a `history-retained`: the commit seqs the
    /// server's retention ring holds, ascending.
    Retained {
        /// The retained commit seqs, ascending, pins included.
        seqs: Vec<u64>,
    },
    /// The answer to a successful `history-read`.
    Data {
        /// The design data bytes from the retained snapshot.
        data: Vec<u8>,
    },
    /// The answer to a successful `history-impact`.
    Impact {
        /// The full stale derivation cone, raw dov ids, ascending.
        stale: Vec<u64>,
        /// The FMCAD-mirrored subset with mirror coordinates.
        impacted: Vec<Impacted>,
    },
}

/// One correlated reply from the server.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The correlation id of the request this answers.
    pub id: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// A connected, handshaken protocol session.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    session: u64,
    user: UserId,
    admin: bool,
    max_frame: usize,
}

impl Client {
    /// Connects to `addr` and performs the handshake as `user`.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Rejected`] carrying the
    /// server's terminal `err` code (`version`, `auth`, ...).
    pub fn connect(addr: impl ToSocketAddrs, user: &str) -> Result<Client, WireError> {
        let mut stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        stream.set_nodelay(true).ok();
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            user: user.to_owned(),
        };
        write_frame(&mut stream, &hello.encode())?;
        let payload = read_frame(&mut stream, crate::proto::MAX_FRAME)?;
        match Response::parse(&payload)? {
            Response::Welcome {
                session,
                user,
                admin,
                ..
            } => Ok(Client {
                stream,
                next_id: 1,
                session,
                user: UserId::from_raw(user),
                admin,
                max_frame: crate::proto::MAX_FRAME,
            }),
            Response::Err { code, msg } => Err(WireError::Rejected { code, msg }),
            other => Err(WireError::Malformed(format!(
                "expected welcome, got {other:?}"
            ))),
        }
    }

    /// The server-assigned session number.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The desktop user this session acts as.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Whether the server granted administrator identity latitude.
    pub fn is_admin(&self) -> bool {
        self.admin
    }

    /// Sets the client-side read timeout (for tests that probe
    /// server-side stalls).
    ///
    /// # Errors
    ///
    /// Returns the socket option error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one op without waiting for its reply (pipelining) and
    /// returns the correlation id it travelled under.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send_op(&mut self, op: &Op) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request::Op { id, op: op.clone() };
        write_frame(&mut self.stream, &req.encode())?;
        Ok(id)
    }

    /// Receives the next in-order reply.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Rejected`] if the server
    /// sent a terminal `err` frame.
    pub fn recv_reply(&mut self) -> Result<Reply, WireError> {
        let payload = read_frame(&mut self.stream, self.max_frame)?;
        match Response::parse(&payload)? {
            Response::Ok { id, seq, event } => Ok(Reply {
                id,
                outcome: Outcome::Committed { seq, event },
            }),
            Response::Fail { id, kind, msg } => Ok(Reply {
                id,
                outcome: Outcome::Failed { kind, msg },
            }),
            Response::Busy { id, depth } => Ok(Reply {
                id,
                outcome: Outcome::Busy { depth },
            }),
            Response::Pong { id } => Ok(Reply {
                id,
                outcome: Outcome::Pong,
            }),
            Response::Retained { id, seqs } => Ok(Reply {
                id,
                outcome: Outcome::Retained { seqs },
            }),
            Response::Data { id, data } => Ok(Reply {
                id,
                outcome: Outcome::Data { data },
            }),
            Response::Impact {
                id,
                stale,
                impacted,
            } => Ok(Reply {
                id,
                outcome: Outcome::Impact { stale, impacted },
            }),
            Response::Err { code, msg } => Err(WireError::Rejected { code, msg }),
            Response::Welcome { .. } => Err(WireError::Malformed("welcome after handshake".into())),
        }
    }

    /// Sends one op and waits for its reply (no pipelining).
    ///
    /// # Errors
    ///
    /// Transport errors; a reply for a different correlation id is a
    /// [`WireError::Malformed`] protocol violation.
    pub fn submit(&mut self, op: &Op) -> Result<Outcome, WireError> {
        let id = self.send_op(op)?;
        let reply = self.recv_reply()?;
        if reply.id != id {
            return Err(WireError::Malformed(format!(
                "reply for id {}, expected {id}",
                reply.id
            )));
        }
        Ok(reply.outcome)
    }

    /// Sends one op and insists it commits, returning `(seq, event)`.
    ///
    /// # Errors
    ///
    /// Transport errors; engine rejections and `busy` answers are
    /// folded into [`WireError::Rejected`].
    pub fn submit_ok(&mut self, op: &Op) -> Result<(u64, Event), WireError> {
        match self.submit(op)? {
            Outcome::Committed { seq, event } => Ok((seq, event)),
            Outcome::Failed { kind, msg } => Err(WireError::Rejected { code: kind, msg }),
            Outcome::Busy { depth } => Err(WireError::Rejected {
                code: "busy".into(),
                msg: format!("write queue depth {depth}"),
            }),
            other @ (Outcome::Pong
            | Outcome::Retained { .. }
            | Outcome::Data { .. }
            | Outcome::Impact { .. }) => {
                Err(WireError::Malformed(format!("{other:?} answered an op")))
            }
        }
    }

    /// Sends one request and insists on the in-order reply for it.
    fn round_trip(&mut self, req: &Request, id: u64) -> Result<Outcome, WireError> {
        write_frame(&mut self.stream, &req.encode())?;
        let reply = self.recv_reply()?;
        if reply.id != id {
            return Err(WireError::Malformed(format!(
                "reply for id {}, expected {id}",
                reply.id
            )));
        }
        Ok(reply.outcome)
    }

    /// Asks which commit seqs the server's retention ring holds.
    ///
    /// # Errors
    ///
    /// Transport errors; a non-`retained` answer is a protocol
    /// violation.
    pub fn history_retained(&mut self) -> Result<Vec<u64>, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.round_trip(&Request::HistoryRetained { id }, id)? {
            Outcome::Retained { seqs } => Ok(seqs),
            other => Err(WireError::Malformed(format!(
                "expected retained, got {other:?}"
            ))),
        }
    }

    /// Reads one design object version from the retained snapshot at
    /// `seq`, visibility-scoped to this session's bound user.
    ///
    /// # Errors
    ///
    /// Transport errors; engine rejections (unretained seq, unknown
    /// dov, visibility) are folded into [`WireError::Rejected`].
    pub fn history_read(&mut self, seq: u64, dov: u64) -> Result<Vec<u8>, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.round_trip(&Request::HistoryRead { id, seq, dov }, id)? {
            Outcome::Data { data } => Ok(data),
            Outcome::Failed { kind, msg } => Err(WireError::Rejected { code: kind, msg }),
            other => Err(WireError::Malformed(format!(
                "expected data, got {other:?}"
            ))),
        }
    }

    /// Evaluates the impact query on the retained snapshot at `seq`:
    /// the full stale derivation cone of `cv` plus the FMCAD-mirrored
    /// subset.
    ///
    /// # Errors
    ///
    /// Transport errors; engine rejections are folded into
    /// [`WireError::Rejected`].
    pub fn history_impact(
        &mut self,
        seq: u64,
        cv: u64,
    ) -> Result<(Vec<u64>, Vec<Impacted>), WireError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.round_trip(&Request::HistoryImpact { id, seq, cv }, id)? {
            Outcome::Impact { stale, impacted } => Ok((stale, impacted)),
            Outcome::Failed { kind, msg } => Err(WireError::Rejected { code: kind, msg }),
            other => Err(WireError::Malformed(format!(
                "expected impact, got {other:?}"
            ))),
        }
    }

    /// Round-trips a liveness probe.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Rejected`] if the server
    /// sent a terminal `err` frame; any other non-`pong` answer is a
    /// protocol violation.
    pub fn ping(&mut self) -> Result<(), WireError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.round_trip(&Request::Ping { id }, id)? {
            Outcome::Pong => Ok(()),
            other => Err(WireError::Malformed(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Says goodbye and closes the connection cleanly.
    ///
    /// # Errors
    ///
    /// Transport errors while sending the goodbye.
    pub fn bye(mut self) -> Result<(), WireError> {
        write_frame(&mut self.stream, &Request::Bye.encode())?;
        let _ = self.stream.shutdown(Shutdown::Write);
        // Drain until the server closes so the goodbye is not lost in
        // a reset.
        loop {
            match read_frame(&mut self.stream, self.max_frame) {
                Ok(_) => {}
                Err(WireError::Closed) => return Ok(()),
                Err(WireError::Io(_)) | Err(WireError::Torn { .. }) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    #[test]
    fn ping_reports_a_terminal_err_as_rejected() {
        // A fake server: completes the handshake, then answers the
        // ping with a terminal `err` frame.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream, crate::proto::MAX_FRAME).unwrap();
            let welcome = Response::Welcome {
                version: PROTOCOL_VERSION,
                session: 1,
                user: 1,
                admin: true,
            };
            write_frame(&mut stream, &welcome.encode()).unwrap();
            read_frame(&mut stream, crate::proto::MAX_FRAME).unwrap();
            let err = Response::Err {
                code: "timeout".into(),
                msg: "idle timeout".into(),
            };
            write_frame(&mut stream, &err.encode()).unwrap();
        });

        let mut client = Client::connect(addr, "anyone").unwrap();
        match client.ping() {
            Err(WireError::Rejected { code, msg }) => {
                assert_eq!(code, "timeout");
                assert_eq!(msg, "idle timeout");
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
        server.join().unwrap();
    }
}
