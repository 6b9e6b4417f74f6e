//! `design-flow`: two designers drive the paper's design cycle through
//! an in-process [`Service`], one driver thread round-robining between
//! their sessions (closed loop: every call waits for its answer).
//!
//! Per cycle each designer creates a project with two cells, designs of
//! 10 and 50 gates ([`DESIGN_10_GATES`] and [`DESIGN_50_GATES`] bytes of
//! schematic); per cell it creates the cell version, reserves it, runs
//! schematic entry twice (fresh bytes, then the same bytes again — a
//! mirror-cache hit), reads the data back live and at the activity's
//! commit seq, has its own reserve of the other designer's held cell
//! version rejected, publishes, browses, and reads a seq old enough to
//! have left the history ring. The cycle ends by marking the two cells'
//! fresh schematics equivalent and asking the impact query of each cell
//! at that commit: each must name exactly the other cell's two versions.

use std::collections::BTreeMap;
use std::time::Instant;

use cad_vfs::{Blob, SplitMix64, Vfs, VfsPath};
use hybrid::{Engine, Event, Op, RetentionPolicy, Service, Session, StandardFlow};
use jcf::{CellId, CellVersionId, DovId, ProjectId, TeamId, UserId, VariantId};

use crate::common::{
    alternate_rounds, median_f64, median_ns, peak_rss_mb, percentile, replay_triggers, Netlists,
    Report, Tracer, DESIGN_10_GATES, DESIGN_50_GATES, EVICT_BACK, RING, TRIGGER_SCRIPT,
};

/// Cells each designer creates per project.
const CELLS_PER_PROJECT: usize = 2;
/// Schematic bytes of each cell of a project.
const CELL_SIZES: [usize; CELLS_PER_PROJECT] = [DESIGN_10_GATES, DESIGN_50_GATES];
/// Positions of one cell's steps in a designer's cycle.
const CELL_STEPS: usize = 11;
/// Position of the equivalence write that follows both cells' steps;
/// the impact query of each cell follows it.
const TAIL: usize = 1 + CELLS_PER_PROJECT * CELL_STEPS;

/// The span of each write kind the service layer is timed on; the
/// per-layer metrics are named after them.
pub const SUBMIT_SPANS: [&str; 6] = [
    "hybrid.service.submit.create_project",
    "hybrid.service.submit.create_cell",
    "hybrid.service.submit.create_cell_version",
    "hybrid.service.submit.reserve",
    "hybrid.service.submit.run_activity",
    "hybrid.service.submit.publish",
];

/// What the generator expects a write to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Commits with an event of this kind.
    Event(&'static str),
    /// Is rejected with an error of this kind.
    Rejected(&'static str),
}

/// One generated workload op.
#[derive(Debug, Clone)]
pub enum Step {
    Write {
        /// One of [`SUBMIT_SPANS`], or the equivalence's own span.
        span: &'static str,
        op: Op,
        expect: Expect,
    },
    /// A live snapshot read (`browse` or `read_design_data`).
    Read {
        dov: DovId,
        data: Blob,
        browse: bool,
    },
    /// A read at a past commit seq; `data` is `None` when the seq must
    /// have left the ring.
    At {
        seq: u64,
        dov: DovId,
        data: Option<Blob>,
    },
    /// `stale_dovs` + `impacted_cellviews` at a retained seq; both must
    /// name exactly `stale` (sorted), every one a mirrored cellview.
    Impact {
        seq: u64,
        cv: CellVersionId,
        stale: Vec<DovId>,
    },
}

impl Step {
    pub fn is_write(&self) -> bool {
        matches!(self, Step::Write { .. })
    }
}

/// The desktop every workload starts from: two designers in one team
/// and the frozen standard flow.
pub struct Desk {
    pub designers: [UserId; 2],
    pub team: TeamId,
    pub flow: StandardFlow,
}

/// Builds the fixture through `submit`, recording every op in order.
pub fn fixture(mut submit: impl FnMut(Op) -> (u64, Event), admin: UserId) -> Desk {
    let mut user = |name: &str| match submit(Op::AddUser {
        name: name.into(),
        manager: false,
    }) {
        (_, Event::UserAdded(id)) => id,
        other => panic!("fixture: add-user answered {other:?}"),
    };
    let designers = [user("alice"), user("bob")];
    let team = match submit(Op::AddTeam {
        actor: admin,
        name: "asic".into(),
    }) {
        (_, Event::TeamAdded(id)) => id,
        other => panic!("fixture: add-team answered {other:?}"),
    };
    for d in designers {
        submit(Op::AddTeamMember {
            actor: admin,
            team,
            user: d,
        });
    }
    let flow = match submit(Op::DefineStandardFlow { name: "std".into() }) {
        (_, Event::StandardFlowDefined(flow)) => flow,
        other => panic!("fixture: standard flow answered {other:?}"),
    };
    Desk {
        designers,
        team,
        flow,
    }
}

/// One designer's progress through its cycle.
#[derive(Default)]
struct Lane {
    project: Option<ProjectId>,
    cell: Option<CellId>,
    cv: Option<CellVersionId>,
    variant: Option<VariantId>,
    data: Blob,
    act: Option<(u64, DovId)>,
    repeat: Option<DovId>,
    /// `(cell version, fresh dov, repeat dov)` of each finished cell of
    /// the current project.
    done: Vec<(CellVersionId, DovId, DovId)>,
    /// Commit seq of the current project's equivalence.
    marked: u64,
    /// `(seq, dov, data)` of every fresh activity, oldest first.
    past: Vec<(u64, DovId, Blob)>,
}

/// The seeded generator: yields each designer's next step from the
/// outcomes seen so far, and nothing else.
pub struct Plan {
    rng: SplitMix64,
    netlists: Netlists,
    desk: Desk,
    lanes: [Lane; 2],
    /// Ops applied so far (the engine's commit seq; a single driver
    /// thread makes it exact).
    pub head: u64,
    projects: u64,
}

impl Plan {
    pub fn new(seed: u64, desk: Desk, head: u64) -> Plan {
        let mut rng = SplitMix64::new(seed);
        Plan {
            netlists: Netlists::new(&mut rng),
            rng,
            desk,
            lanes: [Lane::default(), Lane::default()],
            head,
            projects: 0,
        }
    }

    /// Steps in one designer cycle: the project, each cell's steps, the
    /// equivalence and one impact query per cell.
    pub const CYCLE: usize = TAIL + 1 + CELLS_PER_PROJECT;

    /// Whether the step at `pos` is the fresh schematic write, whose
    /// output fires the `data-changed` trigger.
    fn fires_trigger(pos: usize) -> bool {
        (1..TAIL).contains(&pos) && (pos - 1) % CELL_STEPS == 3
    }

    fn write(span: &'static str, op: Op, expect: Expect) -> Step {
        Step::Write { span, op, expect }
    }

    /// Designer `d`'s step at cycle position `pos`.
    pub fn step(&mut self, d: usize, pos: usize) -> Step {
        let user = self.desk.designers[d];
        if pos == 0 {
            self.projects += 1;
            let name = format!("p{}-{:08x}", self.projects, self.rng.next_u64() as u32);
            return Self::write(
                "hybrid.service.submit.create_project",
                Op::CreateProject { name },
                Expect::Event("project-created"),
            );
        }
        let lane = &self.lanes[d];
        if pos == TAIL {
            return Self::write(
                "hybrid.service.submit.mark_equivalent",
                Op::MarkEquivalent {
                    a: lane.done[0].1,
                    b: lane.done[1].1,
                },
                Expect::Event("marked-equivalent"),
            );
        }
        if pos > TAIL {
            // The other cell's fresh version is equivalent to this cell's,
            // and its repeat version derives from its fresh one.
            let (cv, _, _) = lane.done[pos - TAIL - 1];
            let (_, fresh, repeat) = lane.done[TAIL + 2 - pos];
            let mut stale = vec![fresh, repeat];
            stale.sort_unstable();
            return Step::Impact {
                seq: lane.marked,
                cv,
                stale,
            };
        }
        let (cell, sub) = ((pos - 1) / CELL_STEPS, (pos - 1) % CELL_STEPS);
        match sub {
            0 => {
                let name = format!("c{:08x}", self.rng.next_u64() as u32);
                Self::write(
                    "hybrid.service.submit.create_cell",
                    Op::CreateCell {
                        project: lane.project.expect("project created"),
                        name,
                    },
                    Expect::Event("cell-created"),
                )
            }
            1 => Self::write(
                "hybrid.service.submit.create_cell_version",
                Op::CreateCellVersion {
                    cell: lane.cell.expect("cell created"),
                    flow: self.desk.flow.flow,
                    team: self.desk.team,
                },
                Expect::Event("cell-version-created"),
            ),
            2 => Self::write(
                "hybrid.service.submit.reserve",
                Op::Reserve {
                    user,
                    cv: lane.cv.expect("cv created"),
                },
                Expect::Event("reserved"),
            ),
            3 | 6 => {
                if sub == 3 {
                    let tag = format!("d{d}-{}", self.head);
                    self.lanes[d].data = self.netlists.fresh(&mut self.rng, &tag, CELL_SIZES[cell]);
                }
                let lane = &self.lanes[d];
                Self::write(
                    "hybrid.service.submit.run_activity",
                    Op::RunActivity {
                        user,
                        variant: lane.variant.expect("cv created"),
                        activity: self.desk.flow.enter_schematic,
                        override_pending: false,
                        outputs: vec![("schematic".into(), lane.data.clone())],
                        session_error: None,
                    },
                    Expect::Event("activity-run"),
                )
            }
            4 => {
                let (_, dov) = lane.act.expect("activity ran");
                Step::Read {
                    dov,
                    data: lane.data.clone(),
                    browse: false,
                }
            }
            5 => {
                // The other designer holds its cell version between its
                // reserve (sub 2) and publish (sub 8): a typed conflict.
                let other = self.lanes[1 - d].cv.expect("other designer reserved");
                Self::write(
                    "hybrid.service.submit.reserve",
                    Op::Reserve { user, cv: other },
                    Expect::Rejected("jcf"),
                )
            }
            7 => {
                let (seq, dov) = lane.act.expect("activity ran");
                self.at(seq, dov, lane.data.clone())
            }
            8 => Self::write(
                "hybrid.service.submit.publish",
                Op::Publish {
                    user,
                    cv: lane.cv.expect("cv created"),
                },
                Expect::Event("published"),
            ),
            9 => Step::Read {
                dov: lane.repeat.expect("repeat ran"),
                data: lane.data.clone(),
                browse: true,
            },
            _ => {
                // Past the warm-up an old enough cell always exists;
                // before it, the oldest fresh activity stands in.
                let back = lane.past.len().saturating_sub(EVICT_BACK + 1);
                let (seq, dov, data) = lane.past[back].clone();
                self.at(seq, dov, data)
            }
        }
    }

    fn at(&self, seq: u64, dov: DovId, data: Blob) -> Step {
        let retained = self.head - seq < RING;
        Step::At {
            seq,
            dov,
            data: retained.then_some(data),
        }
    }

    /// Feeds a write's outcome back into the generator.
    pub fn absorb(&mut self, d: usize, pos: usize, seq: u64, event: &Event) {
        let lane = &mut self.lanes[d];
        let sub = (1..TAIL).contains(&pos).then(|| (pos - 1) % CELL_STEPS);
        match (sub, event) {
            (None, Event::ProjectCreated(p)) => {
                lane.project = Some(*p);
                lane.done.clear();
            }
            (None, Event::MarkedEquivalent(..)) => lane.marked = seq,
            (Some(0), Event::CellCreated(c)) => lane.cell = Some(*c),
            (Some(1), Event::CellVersionCreated(cv, v)) => {
                lane.cv = Some(*cv);
                lane.variant = Some(*v);
            }
            (Some(3), Event::ActivityRun { dovs }) => {
                lane.act = Some((seq, dovs[0]));
                lane.past.push((seq, dovs[0], lane.data.clone()));
            }
            (Some(6), Event::ActivityRun { dovs }) => {
                lane.repeat = Some(dovs[0]);
                let fresh = lane.act.expect("fresh activity ran").1;
                lane.done
                    .push((lane.cv.expect("cv created"), fresh, dovs[0]));
            }
            _ => {}
        }
    }
}

/// Checks a write's outcome against the expectation.
pub fn check_write(expect: Expect, outcome: Result<&Event, &str>) -> Result<(), String> {
    match (expect, outcome) {
        (Expect::Event(kind), Ok(event)) if event.kind_name() == kind => Ok(()),
        (Expect::Rejected(kind), Err(got)) if got == kind => Ok(()),
        (expect, Ok(event)) => Err(format!("expected {expect:?}, got {}", event.kind_name())),
        (expect, Err(got)) => Err(format!("expected {expect:?}, got error {got}")),
    }
}

/// Sizes of one run: `rounds` independent rounds, each a fresh
/// service taken through `warmup` untimed and `cycles` timed designer
/// cycles. State never grows with the run's length, only with a round's.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub rounds: usize,
    pub warmup: usize,
    pub cycles: usize,
    /// Timed restarts at the end of each round.
    pub restarts: usize,
}

/// The lines the workload trigger logged: one per firing, each the
/// cellview path it fired on.
pub fn trigger_lines(engine: &Engine) -> Vec<String> {
    let log = engine.fmcad().customization().log();
    log.iter()
        .filter(|l| l.ends_with("/schematic"))
        .cloned()
        .collect()
}

/// Exact counts the run must reproduce on replay. Every rejection is
/// an expected one: each write's outcome is checked as it returns.
pub fn engine_counts(engine: &Engine) -> BTreeMap<&'static str, u64> {
    let mut c = BTreeMap::new();
    c.insert("ops_applied", engine.seq());
    c.insert(
        "expected_rejections",
        engine.counters().failures().values().sum::<u64>(),
    );
    c.insert("trigger_firings", trigger_lines(engine).len() as u64);
    c.insert("mirror_cache_hits", engine.mirror_cache_hits());
    c
}

/// A service over `engine` that keeps the last [`RING`] commits.
pub fn ring_service(engine: Engine) -> Service {
    Service::with_retention(engine, RetentionPolicy::LastN(RING as usize))
}

fn build() -> (Service, Vec<Op>, Desk) {
    let service = ring_service(Engine::builder().custom_script(TRIGGER_SCRIPT).build());
    let mut ops = Vec::new();
    let desk = fixture(
        |op| {
            ops.push(op.clone());
            service.submit(op).expect("fixture op commits")
        },
        service.admin(),
    );
    (service, ops, desk)
}

/// A checkpoint of a live engine on a disk of its own, with the live
/// fingerprint taken right after it.
pub struct Backup {
    fs: Vfs,
    dir: VfsPath,
    fingerprint: String,
}

/// Checkpoints `engine` into a fresh backup disk and fingerprints it
/// after. Both read the engine's file system and so charge its meter:
/// a serial replay that must match an engine backed up mid-run backs
/// up at the same seq.
pub fn back_up(engine: &mut Engine) -> Backup {
    let dir = VfsPath::parse("/backup").expect("static path");
    let mut fs = Vfs::new();
    engine
        .checkpoint(&mut fs, &dir)
        .expect("checkpoint into an empty disk");
    let fingerprint = engine.state_fingerprint().expect("fingerprint");
    Backup {
        fs,
        dir,
        fingerprint,
    }
}

/// Restarts a service the way a designer's desktop would after a
/// crash: each timed restart restores an engine from `backup`, wraps it
/// in a fresh [`Service`] and hands that to `ready` (the wire workload
/// binds and handshakes there). Every restored fingerprint must equal
/// the live one. Returns the restart times.
pub fn restarts<T>(
    backup: &mut Backup,
    times: usize,
    report: &mut Report,
    mut ready: impl FnMut(Service) -> T,
) -> Vec<u64> {
    let mut ns = Vec::with_capacity(times);
    for _ in 0..times {
        let start = Instant::now();
        let restored = Engine::restore_from(&mut backup.fs, &backup.dir);
        let restore_ns = start.elapsed().as_nanos() as u64;
        match restored {
            Ok(engine) => {
                if engine.state_fingerprint().expect("fingerprint") != backup.fingerprint {
                    report.fail("restored fingerprint differs from the live service");
                }
                let start = Instant::now();
                let up = ready(ring_service(engine));
                ns.push(restore_ns + start.elapsed().as_nanos() as u64);
                drop(up);
            }
            Err(e) => report.fail(format!("restore failed: {e}")),
        }
    }
    ns
}

/// What the timed cycles of every round add up to.
#[derive(Default)]
struct Acc {
    setup_ns: Vec<u64>,
    ops_per_sec: Vec<f64>,
    restart_ns: Vec<u64>,
    /// This round's timed latencies; each round reduces them to
    /// `percentiles` before the next starts.
    writes: Vec<u64>,
    reads: Vec<u64>,
    /// Per round: commit p50, commit p99, read p50, read p99 (ns).
    percentiles: Vec<[u64; 4]>,
    ring_reads: u64,
    ring_hits: u64,
    materialized: u64,
    /// `(op index, trigger argument)` of every firing, in firing order.
    firings: Vec<(u64, String)>,
    counts: BTreeMap<&'static str, u64>,
}

/// What one step returned: the commit of a write, or whether a history
/// read found its seq in the ring.
enum Done {
    Write(Option<(u64, Event)>),
    At { hit: bool },
    Read,
}

/// Executes one step, checking its outcome.
fn exec(
    step: &Step,
    session: &Session,
    tracer: &mut Tracer,
    op_index: u64,
    report: &mut Report,
) -> Done {
    match step {
        Step::Write { span, op, expect } => {
            let out = tracer.span(span, op_index, false, || session.apply_seq(op.clone()));
            let verdict = check_write(*expect, out.as_ref().map(|(_, e)| e).map_err(|e| e.kind()));
            if let Err(problem) = verdict {
                report.fail(format!("op {op_index} {span}: {problem}"));
            }
            Done::Write(out.ok())
        }
        Step::Read { dov, data, browse } => {
            let got = if *browse {
                tracer.span("hybrid.session.browse", op_index, false, || {
                    session.browse(*dov)
                })
            } else {
                tracer.span("hybrid.session.read_design_data", op_index, false, || {
                    session.read_design_data(*dov)
                })
            };
            match got {
                Ok(blob) if blob.as_slice() == data.as_slice() => {}
                Ok(_) => report.fail(format!("op {op_index}: read returned other bytes")),
                Err(e) => report.fail(format!("op {op_index}: read failed: {e}")),
            }
            Done::Read
        }
        Step::At { seq, dov, data } => {
            let got = tracer.span("hybrid.history.at", op_index, false, || {
                session
                    .at(*seq)
                    .and_then(|view| view.read_design_data(*dov))
            });
            let hit = got.is_ok();
            match (got, data) {
                (Ok(blob), Some(want)) if blob.as_slice() == want.as_slice() => {}
                (Err(e), None) if e.kind() == "seq-unreachable" => {}
                (got, want) => report.fail(format!(
                    "op {op_index}: history read at {seq} gave {:?}, expected {}",
                    got.map(|b| b.len()),
                    if want.is_some() {
                        "data"
                    } else {
                        "seq-unreachable"
                    }
                )),
            }
            Done::At { hit }
        }
        Step::Impact { seq, cv, stale } => {
            let got = tracer.span("hybrid.history.impact", op_index, false, || {
                session
                    .at(*seq)
                    .map(|view| (view.stale_dovs(*cv), view.impacted_cellviews(*cv)))
            });
            match got {
                Ok((got_stale, impacted))
                    if got_stale == *stale
                        && impacted.iter().map(|(dov, _)| *dov).eq(stale.iter().copied()) => {}
                Ok((got_stale, impacted)) => report.fail(format!(
                    "op {op_index}: impact at {seq} named {got_stale:?} stale and {} impacted, expected {stale:?}",
                    impacted.len()
                )),
                Err(e) => report.fail(format!("op {op_index}: impact at {seq} failed: {e}")),
            }
            Done::Read
        }
    }
}

/// The single driver thread: both sessions, the generator and the
/// record of every write for the replay.
struct Driver {
    sessions: [Session; 2],
    plan: Plan,
    log: Vec<Op>,
    op_index: u64,
    /// Op indexes of the fresh schematic writes, each of which fires
    /// the trigger once.
    fired: Vec<u64>,
}

impl Driver {
    /// One designer cycle of both designers, round-robin. Returns the
    /// committed writes; `acc` collects samples when the cycle is timed.
    fn cycle(
        &mut self,
        tracer: &mut Tracer,
        mut acc: Option<&mut Acc>,
        report: &mut Report,
    ) -> u64 {
        let mut committed = 0;
        for pos in 0..Plan::CYCLE {
            for d in 0..2 {
                let step = self.plan.step(d, pos);
                if let Step::Write { op, .. } = &step {
                    self.log.push(op.clone());
                }
                let start = Instant::now();
                let done = exec(&step, &self.sessions[d], tracer, self.op_index, report);
                let ns = start.elapsed().as_nanos() as u64;
                if step.is_write() {
                    self.plan.head += 1;
                }
                if let Done::Write(Some((seq, event))) = &done {
                    self.plan.absorb(d, pos, *seq, event);
                    committed += 1;
                }
                if Plan::fires_trigger(pos) {
                    self.fired.push(self.op_index);
                }
                if let Some(acc) = acc.as_deref_mut() {
                    tracer.op_time(self.op_index, ns);
                    match done {
                        Done::Write(_) => acc.writes.push(ns),
                        Done::At { hit } => {
                            acc.reads.push(ns);
                            acc.ring_reads += 1;
                            acc.ring_hits += u64::from(hit);
                        }
                        Done::Read => acc.reads.push(ns),
                    }
                }
                report.attempted += 1;
                self.op_index += 1;
            }
        }
        committed
    }
}

/// One round: set-up, warm-up, timed cycles, then the serial replay
/// that must reproduce the live fingerprint and counts.
fn round(
    seed: u64,
    index: u64,
    size: Size,
    tracer: &mut Tracer,
    acc: &mut Acc,
    report: &mut Report,
) {
    let (service, log, desk) = build();
    let mut driver = Driver {
        sessions: [
            service.open_session(desk.designers[0]),
            service.open_session(desk.designers[1]),
        ],
        plan: Plan::new(seed, desk, log.len() as u64),
        log,
        // Op indexes stay unique across rounds.
        op_index: index << 32,
        fired: Vec::new(),
    };
    let mut untraced = Tracer::new(false, Instant::now());
    for _ in 0..size.warmup {
        driver.cycle(&mut untraced, None, report);
    }
    let materialized_before = Blob::materialized_bytes();
    acc.writes.clear();
    acc.reads.clear();
    let start = Instant::now();
    let mut committed = 0;
    for _ in 0..size.cycles {
        committed += driver.cycle(tracer, Some(acc), report);
    }
    let wall = start.elapsed().as_secs_f64();
    let (w, r) = (&mut acc.writes, &mut acc.reads);
    acc.percentiles.push([
        percentile(w, 50.0),
        percentile(w, 99.0),
        percentile(r, 50.0),
        percentile(r, 99.0),
    ]);
    acc.materialized += Blob::materialized_bytes() - materialized_before;
    acc.ops_per_sec.push(committed as f64 / wall);
    let Driver {
        sessions,
        log,
        fired,
        ..
    } = driver;
    drop(sessions);

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
    }
    if replay.state_fingerprint().expect("fingerprint") != live_fp {
        report.fail("serial replay fingerprint differs from the live service");
    }
    report.same_counts("design-flow", &live_counts, &engine_counts(&replay));
    for (name, v) in live_counts {
        *acc.counts.entry(name).or_default() += v;
    }
    if args.len() != fired.len() {
        report.fail(format!(
            "{} trigger firings for {} fresh outputs",
            args.len(),
            fired.len()
        ));
    }
    acc.firings.extend(fired.into_iter().zip(args));
    let mut backup = service.with_engine(back_up);
    let times = restarts(&mut backup, size.restarts, report, |restored| restored);
    acc.restart_ns.extend(times);
}

/// Set-ups timed at the start of each reported round; `setup_s` is the
/// median over all rounds, so it follows the host's speed over the whole
/// run, not over the few milliseconds a row of set-ups takes.
pub const SETUPS_PER_ROUND: usize = 4;

/// Times [`SETUPS_PER_ROUND`] set-ups in a row, dropping each outside
/// the timing.
pub fn timed_setups<T>(mut set_up: impl FnMut() -> T) -> Vec<u64> {
    (0..SETUPS_PER_ROUND)
        .map(|_| {
            let start = Instant::now();
            let built = set_up();
            let ns = start.elapsed().as_nanos() as u64;
            drop(built);
            ns
        })
        .collect()
}

/// Runs `design-flow` and returns its report.
pub fn run(seed: u64, size: Size, trace: bool) -> Report {
    let mut report = Report::default();
    let mut acc = Acc::default();
    let mut tracer = Tracer::new(trace, Instant::now());
    let mut untraced = Acc::default();
    alternate_rounds(size.rounds, trace, |r, reported| {
        let round_seed = seed.wrapping_mul(1000).wrapping_add(r as u64);
        if reported {
            acc.setup_ns.extend(timed_setups(build));
            round(
                round_seed,
                r as u64,
                size,
                &mut tracer,
                &mut acc,
                &mut report,
            );
        } else {
            let mut quiet = Tracer::new(false, Instant::now());
            let ignored = &mut Report::default();
            round(
                round_seed,
                r as u64,
                size,
                &mut quiet,
                &mut untraced,
                ignored,
            );
        }
    });
    finish(&mut report, acc, trace.then_some((tracer, untraced)));
    report
}

fn finish(report: &mut Report, mut acc: Acc, trace: Option<(Tracer, Acc)>) {
    report.metric("setup_s", median_ns(&acc.setup_ns, 1e9), "s");
    let ops_per_sec = median_f64(&acc.ops_per_sec);
    report.metric("commit_ops_s", ops_per_sec, "1/s");
    // Each round has thousands of writes and reads, so its p99 has tens
    // of samples beyond it; the median over rounds damps host noise.
    for (i, name) in [
        "commit_p50_ms",
        "commit_p99_ms",
        "read_p50_ms",
        "read_p99_ms",
    ]
    .into_iter()
    .enumerate()
    {
        let ns: Vec<u64> = acc.percentiles.iter().map(|p| p[i]).collect();
        report.metric(name, median_ns(&ns, 1e6), "ms");
    }
    report.metric("restart_ms", median_ns(&acc.restart_ns, 1e6), "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");

    let mut fuel_tracer = Tracer::new(trace.is_some(), Instant::now());
    let (mut trigger_ns, fuel) = replay_triggers(&acc.firings, &mut fuel_tracer);
    report.counts = std::mem::take(&mut acc.counts);
    report.count("trigger_fuel", fuel);
    report.count("ops_attempted", report.attempted);

    let Some((mut tracer, untraced)) = trace else {
        return;
    };
    tracer.absorb(fuel_tracer);
    for span in SUBMIT_SPANS {
        report.latency(span, &mut tracer.durations(span), "us", true);
    }
    for (name, tail) in [
        ("hybrid.session.read_design_data", true),
        ("hybrid.session.browse", false),
        ("hybrid.history.at", false),
        ("hybrid.history.impact", true),
    ] {
        report.latency(name, &mut tracer.durations(name), "us", tail);
    }
    report.metric(
        "hybrid.history.ring_hit_ratio",
        acc.ring_hits as f64 / acc.ring_reads.max(1) as f64,
        "ratio",
    );
    report.metric(
        "fml.interp.trigger_p50_us",
        percentile(&mut trigger_ns, 50.0) as f64 / 1e3,
        "us",
    );
    report.metric(
        "fml.interp.fuel_per_trigger",
        fuel as f64 / acc.firings.len().max(1) as f64,
        "fuel",
    );
    report.metric(
        "cad-vfs.blob.materialized_bytes",
        acc.materialized as f64,
        "bytes",
    );
    report.metric(
        "design-flow.unattributed_share",
        tracer.unattributed_share(),
        "ratio",
    );
    report.metric(
        "design-flow.tracing_overhead_ops_s",
        median_f64(&untraced.ops_per_sec) - ops_per_sec,
        "1/s",
    );
    report.trace = Some(tracer);
}
