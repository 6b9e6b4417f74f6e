//! `wire-commit`: the design-flow mix, scaled down, sent by two designer
//! connections of `cad_net::Client` to an in-process `cad_net::Server`
//! (stock `ServerConfig`) over loopback. Each connection has one op in
//! flight; the two client threads advance in lockstep rounds, so which
//! ops can commit concurrently is fixed by the generator and every
//! outcome is predictable.
//!
//! The server only lets the framework administrator create projects,
//! cells, cell versions and equivalences, so the set-up makes each
//! designer's cell versions in-process, gives each a first schematic and
//! marks the first schematics of cells 2k and 2k+1 equivalent. The wire
//! carries reserve, schematic entry (fresh, then repeated bytes; even
//! cells are 10-gate designs, odd cells 50-gate ones, as in `design-flow`),
//! publish, rejected reserves of the other designer's held cell version,
//! `history-read` at retained and evicted seqs, and `history-impact`,
//! whose answer must name exactly the paired cell's versions.
//!
//! The benchmark sets no socket option and frames nothing itself: what
//! the stock client and server do on the wire is what it measures.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use cad_net::proto::{Request, Response};
use cad_net::{Backend, Client, NetStatsView, Outcome, Server, ServerConfig, WireError};
use cad_vfs::{Blob, SplitMix64};
use hybrid::{Engine, Event, HybridResult, MirrorLocation, Op, Service, ServiceStats};
use jcf::{CellVersionId, DovId, UserId, VariantId};

use crate::common::{
    alternate_rounds, median_ns, peak_rss_mb, replay_triggers, Netlists, Report, Span, Tracer,
    DESIGN_10_GATES, DESIGN_50_GATES, EVICT_BACK, RING, TRIGGER_SCRIPT,
};
use crate::design_flow::{
    back_up, check_write, engine_counts, fixture, restarts, ring_service, trigger_lines, Expect,
    SUBMIT_SPANS,
};

/// Rounds in one cell's cycle; each designer sends one op per round,
/// and the two send ten writes per cell between them.
const CELL_ROUNDS: usize = 10;

/// Timed cell cycles between two breaks. Each break, outside the timed
/// phase's wall time, times one more set-up (torn down again) and the
/// restarts, so the medians of `setup_s` and `restart_ms` follow the
/// host's speed over the whole run, not over one second of it.
const BREAK_EVERY: usize = 2;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Untimed cell cycles per designer before timing.
    pub warmup: usize,
    /// Timed cell cycles per designer.
    pub cycles: usize,
    /// Timed restarts (restore, bind, both handshakes) in each break,
    /// outside the phase's wall time. All restore the one backup of the
    /// live engine taken after the warm-up.
    pub restarts: usize,
}

/// A designer's cell version, created during set-up with a first
/// schematic version `v0`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    cv: CellVersionId,
    variant: VariantId,
    v0: DovId,
}

/// One wire op of a designer.
#[derive(Debug, Clone)]
enum WireStep {
    Write {
        op: Op,
        expect: Expect,
    },
    /// `history-read`; `data` is `None` when the seq must be evicted.
    Read {
        seq: u64,
        dov: DovId,
        data: Option<Blob>,
    },
    /// `history-impact`; both answer lists must name exactly `stale`.
    Impact {
        seq: u64,
        cv: CellVersionId,
        stale: Vec<u64>,
    },
}

/// One designer's generator: its own cells, the other designer's cells
/// (for the rejected reserves) and the seqs its replies reported.
struct Designer {
    d: usize,
    user: UserId,
    activity: jcf::ActivityId,
    cells: Vec<Cell>,
    other: Vec<Cell>,
    rng: SplitMix64,
    netlists: Netlists,
    data: Blob,
    fresh: (u64, DovId),
    repeat: (u64, DovId),
    published: u64,
    past: Vec<u64>,
    /// `(fresh, repeat)` schematic versions of each cell done so far.
    done: Vec<(DovId, DovId)>,
    /// The newest commit seq any reply has shown this designer.
    head_seen: u64,
}

impl Designer {
    /// The step of cell `c`, round `r` (0..CELL_ROUNDS). Designer 0
    /// sends its rejected reserve in round 2 while designer 1 reads, and
    /// designer 1 in round 3, so no round carries two writes that could
    /// fail: every write's commit seq is known.
    fn step(&mut self, c: usize, r: usize) -> WireStep {
        let cell = self.cells[c];
        let user = self.user;
        let write = |op, expect| WireStep::Write { op, expect };
        let run = |data: &Blob| Op::RunActivity {
            user,
            variant: cell.variant,
            activity: self.activity,
            override_pending: false,
            outputs: vec![("schematic".into(), data.clone())],
            session_error: None,
        };
        match (r, self.d) {
            (0, _) => write(Op::Reserve { user, cv: cell.cv }, Expect::Event("reserved")),
            (1, _) => {
                let tag = format!("w{}-{c}", self.d);
                let len = if c.is_multiple_of(2) {
                    DESIGN_10_GATES
                } else {
                    DESIGN_50_GATES
                };
                self.data = self.netlists.fresh(&mut self.rng, &tag, len);
                write(run(&self.data), Expect::Event("activity-run"))
            }
            (2, 0) | (3, 1) => write(
                Op::Reserve {
                    user,
                    cv: self.other[c].cv,
                },
                Expect::Rejected("jcf"),
            ),
            (2, _) | (3, _) => WireStep::Read {
                seq: self.fresh.0,
                dov: self.fresh.1,
                data: Some(self.data.clone()),
            },
            (4, _) => write(run(&self.data), Expect::Event("activity-run")),
            (5, 0) | (7, 1) => {
                // Evicted for sure once the newest seq this designer has
                // seen is a ring length past it; until then (a run too
                // small to have evicted anything) the fresh data stands in.
                let seq = self
                    .past
                    .len()
                    .checked_sub(EVICT_BACK)
                    .map_or(1, |i| self.past[i]);
                if self.head_seen - seq >= RING {
                    WireStep::Read {
                        seq,
                        dov: self.fresh.1,
                        data: None,
                    }
                } else {
                    WireStep::Read {
                        seq: self.fresh.0,
                        dov: self.fresh.1,
                        data: Some(self.data.clone()),
                    }
                }
            }
            (5, _) => WireStep::Impact {
                seq: self.repeat.0,
                cv: cell.cv,
                stale: self.stale(c),
            },
            (6, _) => write(
                Op::Publish { user, cv: cell.cv },
                Expect::Event("published"),
            ),
            (7, _) => WireStep::Impact {
                seq: self.published,
                cv: cell.cv,
                stale: self.stale(c),
            },
            (8, _) => WireStep::Read {
                seq: self.repeat.0,
                dov: self.repeat.1,
                data: Some(self.data.clone()),
            },
            _ => WireStep::Read {
                seq: self.published,
                dov: self.fresh.1,
                data: Some(self.data.clone()),
            },
        }
    }

    /// What goes stale if cell `c` changes: its first schematic is
    /// equivalent to its pair's, so the pair's versions so far — the
    /// first one and, once the pair's cell is done, the fresh and repeat
    /// versions derived from it.
    fn stale(&self, c: usize) -> Vec<u64> {
        let pair = c ^ 1;
        let Some(cell) = self.cells.get(pair) else {
            return Vec::new();
        };
        let mut stale = vec![cell.v0.raw()];
        if let Some((fresh, repeat)) = self.done.get(pair) {
            stale.extend([fresh.raw(), repeat.raw()]);
        }
        stale.sort_unstable();
        stale
    }

    fn absorb(&mut self, r: usize, seq: u64, event: &Event) {
        self.head_seen = self.head_seen.max(seq);
        match (r, event) {
            (1, Event::ActivityRun { dovs }) => {
                self.fresh = (seq, dovs[0]);
                self.past.push(seq);
            }
            (4, Event::ActivityRun { dovs }) => {
                self.repeat = (seq, dovs[0]);
                self.done.push((self.fresh.1, dovs[0]));
            }
            (6, _) => self.published = seq,
            _ => {}
        }
    }
}

/// Server-side spans: a pass-through [`Backend`] that times each call
/// into the service from benchmark code, tagged with the op the
/// designer's client thread has in flight.
struct TracedBackend {
    inner: Service,
    epoch: Instant,
    users: [UserId; 2],
    /// Which designer owns each cell version (raw id), for the impact
    /// query, whose call names no user.
    owners: BTreeMap<u64, usize>,
    current: Arc<[AtomicU64; 2]>,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl TracedBackend {
    fn designer(&self, user: UserId) -> Option<usize> {
        self.users.iter().position(|&u| u == user)
    }

    fn record<R>(&self, name: &'static str, designer: Option<usize>, f: impl FnOnce() -> R) -> R {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let op = designer.map_or(u64::MAX, |d| self.current[d].load(Ordering::SeqCst));
        self.spans.lock().expect("span list lock").push(Span {
            name,
            op,
            start_ns,
            end_ns,
            nested: true,
        });
        out
    }
}

impl Backend for TracedBackend {
    fn admin_user(&self) -> UserId {
        self.inner.admin()
    }

    fn resolve_user(&self, name: &str) -> Option<UserId> {
        Backend::resolve_user(&self.inner, name)
    }

    fn execute(&self, op: Op) -> HybridResult<(u64, Event)> {
        let (name, user) = match &op {
            Op::Reserve { user, .. } => ("hybrid.service.submit.reserve", Some(*user)),
            Op::RunActivity { user, .. } => ("hybrid.service.submit.run_activity", Some(*user)),
            Op::Publish { user, .. } => ("hybrid.service.submit.publish", Some(*user)),
            _ => ("hybrid.service.submit.other", None),
        };
        let designer = user.and_then(|u| self.designer(u));
        self.record(name, designer, || self.inner.submit(op))
    }

    fn queue_depth(&self) -> u64 {
        self.inner.queue_depth()
    }

    fn retained_seqs(&self) -> Vec<u64> {
        self.inner.retained_seqs()
    }

    fn history_read(&self, user: UserId, seq: u64, dov: DovId) -> HybridResult<Vec<u8>> {
        self.record("hybrid.history.at", self.designer(user), || {
            Backend::history_read(&self.inner, user, seq, dov)
        })
    }

    fn history_impact(&self, seq: u64, cv: CellVersionId) -> HybridResult<ImpactAnswer> {
        let designer = self.owners.get(&cv.raw()).copied();
        self.record("hybrid.history.impact", designer, || {
            Backend::history_impact(&self.inner, seq, cv)
        })
    }
}

/// The answer type of [`Backend::history_impact`].
type ImpactAnswer = (Vec<DovId>, Vec<(DovId, Arc<MirrorLocation>)>);

/// A running set-up: service, server and the two designer clients.
struct Rig {
    service: Service,
    server: Server,
    clients: [Client; 2],
    designers: [Designer; 2],
    log: Vec<Op>,
    spans: Arc<Mutex<Vec<Span>>>,
    current: Arc<[AtomicU64; 2]>,
}

fn set_up(seed: u64, cells: usize, trace: bool, epoch: Instant) -> Rig {
    let service = ring_service(Engine::builder().custom_script(TRIGGER_SCRIPT).build());
    let mut rng = SplitMix64::new(seed);
    let netlists = Netlists::new(&mut rng);
    let mut log = Vec::new();
    let mut submit = |op: Op| {
        log.push(op.clone());
        service.submit(op).expect("set-up op commits")
    };
    let desk = fixture(&mut submit, service.admin());
    let mut per_designer = Vec::new();
    for d in 0..2 {
        let name = format!("wire{d}");
        let project = match submit(Op::CreateProject { name }) {
            (_, Event::ProjectCreated(p)) => p,
            other => panic!("set-up: create-project answered {other:?}"),
        };
        let mut list = Vec::with_capacity(cells);
        for c in 0..cells {
            let cell = match submit(Op::CreateCell {
                project,
                name: format!("c{c}"),
            }) {
                (_, Event::CellCreated(cell)) => cell,
                other => panic!("set-up: create-cell answered {other:?}"),
            };
            let (cv, variant) = match submit(Op::CreateCellVersion {
                cell,
                flow: desk.flow.flow,
                team: desk.team,
            }) {
                (_, Event::CellVersionCreated(cv, variant)) => (cv, variant),
                other => panic!("set-up: create-cell-version answered {other:?}"),
            };
            let user = desk.designers[d];
            submit(Op::Reserve { user, cv });
            let data = netlists.fresh(&mut rng, &format!("v0-{d}-{c}"), DESIGN_10_GATES);
            let v0 = match submit(Op::RunActivity {
                user,
                variant,
                activity: desk.flow.enter_schematic,
                override_pending: false,
                outputs: vec![("schematic".into(), data)],
                session_error: None,
            }) {
                (_, Event::ActivityRun { dovs }) => dovs[0],
                other => panic!("set-up: run-activity answered {other:?}"),
            };
            submit(Op::Publish { user, cv });
            if c % 2 == 1 {
                let a = list.last().map(|pair: &Cell| pair.v0).expect("cell 2k");
                submit(Op::MarkEquivalent { a, b: v0 });
            }
            list.push(Cell { cv, variant, v0 });
        }
        per_designer.push(list);
    }
    let set_up_ops = log.len() as u64;
    let spans = Arc::new(Mutex::new(Vec::new()));
    let current = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let config = ServerConfig::default();
    let server = if trace {
        let owners = (0..2)
            .flat_map(|d| per_designer[d].iter().map(move |cell| (cell.cv.raw(), d)))
            .collect();
        let backend = TracedBackend {
            inner: service.clone(),
            epoch,
            users: desk.designers,
            owners,
            current: Arc::clone(&current),
            spans: Arc::clone(&spans),
        };
        Server::bind("127.0.0.1:0", config, backend)
    } else {
        Server::bind("127.0.0.1:0", config, service.clone())
    }
    .expect("bind a loopback port");
    let connect = |name: &str| Client::connect(server.local_addr(), name).expect("handshake");
    let clients = [connect("alice"), connect("bob")];
    let designer = |d: usize| Designer {
        d,
        user: desk.designers[d],
        activity: desk.flow.enter_schematic,
        cells: per_designer[d].clone(),
        other: per_designer[1 - d].clone(),
        rng: SplitMix64::new(seed.wrapping_mul(31).wrapping_add(d as u64)),
        netlists: netlists.clone(),
        data: Blob::default(),
        fresh: (0, DovId::from_raw(0)),
        repeat: (0, DovId::from_raw(0)),
        published: 0,
        past: Vec::new(),
        done: Vec::new(),
        head_seen: set_up_ops,
    };
    Rig {
        designers: [designer(0), designer(1)],
        service,
        server,
        clients,
        log,
        spans,
        current,
    }
}

fn tear_down(rig: Rig) {
    let Rig {
        mut server,
        clients,
        ..
    } = rig;
    for client in clients {
        let _ = client.bye();
    }
    server.shutdown();
}

/// What one client thread brings back.
#[derive(Default)]
struct ThreadOut {
    writes: Vec<u64>,
    reads: Vec<u64>,
    committed: u64,
    /// `(round, commit seq if committed, op)` of every write.
    wrote: Vec<(usize, Option<u64>, Op)>,
    problems: Vec<String>,
    attempted: u64,
    encode_ns: Vec<u64>,
    parse_ns: Vec<u64>,
}

/// Drives one designer's connection through `rounds`, timing from
/// `timed_from` on.
#[allow(clippy::too_many_arguments)]
fn drive(
    designer: &mut Designer,
    client: &mut Client,
    barrier: &Barrier,
    rounds: std::ops::Range<usize>,
    timed_from: usize,
    tracer: &mut Tracer,
    current: &[AtomicU64; 2],
    out: &mut ThreadOut,
) {
    for round in rounds {
        let (c, r) = (round / CELL_ROUNDS, round % CELL_ROUNDS);
        let op_index = (round * 2 + designer.d) as u64;
        current[designer.d].store(op_index, Ordering::SeqCst);
        let step = designer.step(c, r);
        let timed = round >= timed_from;
        let start = Instant::now();
        let problem = match &step {
            WireStep::Write { op, expect } => {
                let reply = tracer
                    .span("cad-net.client.send_op", op_index, false, || {
                        client.send_op(op)
                    })
                    .and_then(|id| {
                        let reply =
                            tracer.span("cad-net.client.recv_reply", op_index, false, || {
                                client.recv_reply()
                            })?;
                        if reply.id == id {
                            Ok(reply.outcome)
                        } else {
                            Err(WireError::Malformed(format!("reply {} for {id}", reply.id)))
                        }
                    });
                let ns = start.elapsed().as_nanos() as u64;
                let (verdict, seq) = match &reply {
                    Ok(Outcome::Committed { seq, event }) => {
                        designer.absorb(r, *seq, event);
                        (check_write(*expect, Ok(event)), Some(*seq))
                    }
                    Ok(Outcome::Failed { kind, .. }) => (check_write(*expect, Err(kind)), None),
                    other => (Err(format!("unexpected reply {other:?}")), None),
                };
                if timed {
                    out.writes.push(ns);
                    out.committed += u64::from(seq.is_some());
                    tracer.op_time(op_index, ns);
                    if tracer.on() {
                        let req = Request::Op {
                            id: op_index,
                            op: op.clone(),
                        };
                        let t = Instant::now();
                        std::hint::black_box(req.encode());
                        out.encode_ns.push(t.elapsed().as_nanos() as u64);
                        if let Ok(Outcome::Committed { seq, event }) = &reply {
                            let resp = Response::Ok {
                                id: op_index,
                                seq: *seq,
                                event: event.clone(),
                            }
                            .encode();
                            let t = Instant::now();
                            let _ = std::hint::black_box(Response::parse(&resp));
                            out.parse_ns.push(t.elapsed().as_nanos() as u64);
                        }
                    }
                }
                out.wrote.push((round, seq, op.clone()));
                verdict.err()
            }
            WireStep::Read { seq, dov, data } => {
                let got = tracer.span("cad-net.client.history_read", op_index, false, || {
                    client.history_read(*seq, dov.raw())
                });
                let ns = start.elapsed().as_nanos() as u64;
                if timed {
                    out.reads.push(ns);
                    tracer.op_time(op_index, ns);
                }
                match (got, data) {
                    (Ok(bytes), Some(want)) if bytes == want.as_slice() => None,
                    (Err(WireError::Rejected { code, .. }), None) if code == "seq-unreachable" => {
                        None
                    }
                    (got, want) => Some(format!(
                        "history-read at {seq}: got {:?}, expected {}",
                        got.map(|b| b.len()),
                        if want.is_some() {
                            "data"
                        } else {
                            "seq-unreachable"
                        }
                    )),
                }
            }
            WireStep::Impact { seq, cv, stale } => {
                let got = tracer.span("cad-net.client.history_impact", op_index, false, || {
                    client.history_impact(*seq, cv.raw())
                });
                let ns = start.elapsed().as_nanos() as u64;
                if timed {
                    out.reads.push(ns);
                    tracer.op_time(op_index, ns);
                }
                match got {
                    Ok((got_stale, impacted))
                        if got_stale == *stale
                            && impacted.iter().map(|i| i.dov).eq(stale.iter().copied()) =>
                    {
                        None
                    }
                    Ok((got_stale, impacted)) => Some(format!(
                        "history-impact at {seq} named {got_stale:?} stale and {} impacted, expected {stale:?}",
                        impacted.len()
                    )),
                    Err(e) => Some(format!("history-impact at {seq}: {e}")),
                }
            }
        };
        if let Some(problem) = problem {
            out.problems
                .push(format!("designer {} round {round}: {problem}", designer.d));
        }
        out.attempted += 1;
        barrier.wait();
    }
}

/// Orders the wire writes by commit seq. Committed writes carry their
/// seq; a rejected write is alone among the round's writes, so it takes
/// the one seq of the round no committed write took.
fn commit_order(
    mut wrote: Vec<(usize, Option<u64>, Op)>,
    mut head: u64,
) -> Result<Vec<Op>, String> {
    wrote.sort_by_key(|(round, seq, _)| (*round, seq.unwrap_or(u64::MAX)));
    let mut ordered: Vec<(u64, Op)> = Vec::with_capacity(wrote.len());
    let mut i = 0;
    while i < wrote.len() {
        let round = wrote[i].0;
        let group: Vec<_> = wrote[i..]
            .iter()
            .take_while(|w| w.0 == round)
            .cloned()
            .collect();
        let group_len = group.len() as u64;
        i += group.len();
        let seqs: Vec<u64> = group.iter().filter_map(|w| w.1).collect();
        let free: Vec<u64> = (head + 1..=head + group.len() as u64)
            .filter(|s| !seqs.contains(s))
            .collect();
        if free.len() != group.len() - seqs.len() || free.len() > 1 {
            return Err(format!(
                "round {round}: commit seqs {seqs:?} do not follow {head}"
            ));
        }
        let mut free = free.into_iter();
        for (_, seq, op) in group {
            ordered.push((seq.or_else(|| free.next()).expect("one free seq"), op));
        }
        head += group_len;
    }
    ordered.sort_by_key(|(seq, _)| *seq);
    Ok(ordered.into_iter().map(|(_, op)| op).collect())
}

fn net_delta(a: &NetStatsView, b: &NetStatsView) -> [u64; 5] {
    [
        b.frames_in - a.frames_in,
        b.frames_out - a.frames_out,
        b.busy - a.busy,
        b.timeouts - a.timeouts,
        b.protocol_errors - a.protocol_errors,
    ]
}

/// Runs `wire-commit` once (untraced or traced).
fn measure(seed: u64, size: Size, trace: bool, report: &mut Report) -> (f64, Tracer) {
    let epoch = Instant::now();
    let cells = size.warmup + size.cycles;
    let mut setup_ns = Vec::new();
    let mut timed_set_up = || {
        let start = Instant::now();
        let rig = set_up(seed, cells, trace, epoch);
        setup_ns.push(start.elapsed().as_nanos() as u64);
        rig
    };
    let mut rig = timed_set_up();

    let barrier = Barrier::new(2);
    let warm_rounds = size.warmup * CELL_ROUNDS;
    let rounds = cells * CELL_ROUNDS;
    let mut outs = [ThreadOut::default(), ThreadOut::default()];
    let mut tracers = [Tracer::new(trace, epoch), Tracer::new(trace, epoch)];
    let mut net_before = rig.server.stats();
    let mut svc_before = rig.service.stats();
    let mut wall = 0.0;
    let mut restart_ns = Vec::new();
    // The live engine is backed up once, after the warm-up; every break
    // restarts from that backup, so the samples all do the same work.
    let mut backup = None;
    let mut backed_up_at = 0;
    let chunk = BREAK_EVERY * CELL_ROUNDS;
    let phases = std::iter::once(0..warm_rounds).chain(
        (warm_rounds..rounds)
            .step_by(chunk)
            .map(|from| from..(from + chunk).min(rounds)),
    );
    for (n, phase) in phases.enumerate() {
        let timed = n > 0;
        if n == 1 {
            net_before = rig.server.stats();
            svc_before = rig.service.stats();
        }
        let start = Instant::now();
        std::thread::scope(|scope| {
            let current = &*rig.current;
            let barrier = &barrier;
            for (((designer, client), tracer), out) in rig
                .designers
                .iter_mut()
                .zip(rig.clients.iter_mut())
                .zip(tracers.iter_mut())
                .zip(outs.iter_mut())
            {
                let phase = phase.clone();
                scope.spawn(move || {
                    drive(
                        designer,
                        client,
                        barrier,
                        phase,
                        warm_rounds,
                        tracer,
                        current,
                        out,
                    )
                });
            }
        });
        wall += if timed {
            start.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let backup = backup.get_or_insert_with(|| {
            rig.service.with_engine(|engine| {
                backed_up_at = engine.seq();
                back_up(engine)
            })
        });
        if timed {
            restart_ns.extend(restarts(backup, size.restarts, report, restart_wire));
            tear_down(timed_set_up());
        }
    }
    report.metric("setup_s", median_ns(&setup_ns, 1e9), "s");
    let net = net_delta(&net_before, &rig.server.stats());
    let svc: ServiceStats = rig.service.stats();
    let service = rig.service.clone();
    let mut log = std::mem::take(&mut rig.log);
    let spans = std::mem::take(&mut *rig.spans.lock().expect("span list lock"));
    tear_down(rig);

    let [mut a, b] = outs;
    for out in [&mut a, &b] {
        for p in &out.problems {
            report.fail(p.clone());
        }
    }
    report.attempted += a.attempted + b.attempted;
    let committed = a.committed + b.committed;
    let ops_per_sec = committed as f64 / wall;
    report.metric("commit_ops_s", ops_per_sec, "1/s");
    a.writes.extend(&b.writes);
    a.reads.extend(&b.reads);
    report.latency("commit", &mut a.writes, "ms", true);
    report.latency("read", &mut a.reads, "ms", true);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");

    // Serial replay in commit order on a fresh engine.
    let mut wrote = std::mem::take(&mut a.wrote);
    wrote.extend(b.wrote.iter().cloned());
    match commit_order(wrote, log.len() as u64) {
        Ok(ops) => log.extend(ops),
        Err(e) => report.fail(format!("wire commit order: {e}")),
    }
    let (live_fp, live_counts, args) = service.with_engine(|engine| {
        (
            engine.state_fingerprint().expect("fingerprint"),
            engine_counts(engine),
            trigger_lines(engine),
        )
    });
    let mut replay = Engine::builder().custom_script(TRIGGER_SCRIPT).build();
    for op in log {
        let _ = replay.apply(op);
        if replay.seq() == backed_up_at {
            back_up(&mut replay);
        }
    }
    if replay.state_fingerprint().expect("fingerprint") != live_fp {
        report.fail("serial replay fingerprint differs from the live service");
    }
    report.same_counts("wire-commit", &live_counts, &engine_counts(&replay));
    report.counts = live_counts;
    report.metric("restart_ms", median_ns(&restart_ns, 1e6), "ms");
    let firings: Vec<(u64, String)> = args.into_iter().map(|a| (u64::MAX, a)).collect();
    let (_, fuel) = replay_triggers(&firings, &mut Tracer::new(false, epoch));
    report.count("trigger_fuel", fuel);
    report.count("ops_attempted", report.attempted);

    let [mut ta, tb] = tracers;
    ta.absorb(tb);
    if trace {
        ta.spans.extend(spans);
        let timed_ops = (a.writes.len() + a.reads.len()) as f64;
        report.latency(
            "cad-net.client.send_op",
            &mut ta.durations("cad-net.client.send_op"),
            "us",
            false,
        );
        report.latency(
            "cad-net.client.recv_reply",
            &mut ta.durations("cad-net.client.recv_reply"),
            "us",
            true,
        );
        report.latency(
            "cad-net.client.history_read",
            &mut ta.durations("cad-net.client.history_read"),
            "us",
            false,
        );
        let mut enc = a.encode_ns.clone();
        enc.extend(&b.encode_ns);
        report.latency("cad-net.proto.request_encode", &mut enc, "us", false);
        let mut parse = a.parse_ns.clone();
        parse.extend(&b.parse_ns);
        report.latency("cad-net.proto.response_parse", &mut parse, "us", false);
        report.metric(
            "cad-net.server.frames_per_op",
            (net[0] + net[1]) as f64 / timed_ops,
            "frames",
        );
        report.metric("cad-net.server.busy", net[2] as f64, "count");
        report.metric("cad-net.server.timeouts", net[3] as f64, "count");
        report.metric("cad-net.server.protocol_errors", net[4] as f64, "count");
        let ops = svc.ops - svc_before.ops;
        report.metric(
            "hybrid.service.ops_per_batch",
            ops as f64 / (svc.batches - svc_before.batches).max(1) as f64,
            "ops",
        );
        report.metric(
            "hybrid.service.writer_waits",
            (svc.writer_waits - svc_before.writer_waits) as f64,
            "count",
        );
        report.metric(
            "hybrid.service.max_queue_depth",
            svc.max_queue_depth as f64,
            "count",
        );
        for span in SUBMIT_SPANS {
            report.latency(span, &mut ta.durations(span), "us", true);
        }
        for (name, tail) in [
            ("hybrid.history.at", false),
            ("hybrid.history.impact", true),
        ] {
            report.latency(name, &mut ta.durations(name), "us", tail);
        }
        report.metric(
            "wire-commit.unattributed_share",
            ta.unattributed_share(),
            "ratio",
        );
    }
    (ops_per_sec, ta)
}

/// Brings a restored service back on the wire: a server on a fresh
/// loopback port and both designers' handshakes.
fn restart_wire(restored: Service) -> (Server, [Client; 2]) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default(), restored)
        .expect("bind a loopback port");
    let clients =
        ["alice", "bob"].map(|name| Client::connect(server.local_addr(), name).expect("handshake"));
    (server, clients)
}

/// Runs `wire-commit` and returns its report. A traced run measures the
/// untraced workload first; the throughput difference is the tracing
/// overhead.
pub fn run(seed: u64, size: Size, trace: bool) -> Report {
    let mut report = Report::default();
    let (mut untraced, mut traced) = (0.0, 0.0);
    alternate_rounds(1, trace, |_, reported| {
        if reported {
            let (ops_per_sec, tracer) = measure(seed, size, trace, &mut report);
            traced = ops_per_sec;
            report.trace = trace.then_some(tracer);
        } else {
            untraced = measure(seed, size, false, &mut Report::default()).0;
        }
    });
    if trace {
        report.metric(
            "wire-commit.tracing_overhead_ops_s",
            untraced - traced,
            "1/s",
        );
    }
    report
}
