//! `durable-shards`: one driver thread feeds a two-shard
//! [`ShardedService`] a seeded mix of partition-local ops,
//! cross-partition `declare_comp_of`/`mark_equivalent` (two-phase
//! commits) and broadcasts, while making the service durable into a
//! `cad_vfs::Vfs`: `sync` every [`SYNC_EVERY`] writes and
//! `checkpoint` + `compact` every [`CHECKPOINT_EVERY`] writes. Both
//! cadences count ops, never time. All content is fresh, so the mirror
//! cache never helps, and no fml trigger is installed. Every schematic is
//! a 10-gate design ([`DESIGN_10_GATES`] bytes).
//!
//! Each round ends with several timed `ShardedService::recover` calls;
//! every recovered fingerprint must equal the live one.

use std::collections::BTreeMap;
use std::time::Instant;

use cad_vfs::{Blob, CostMeter, SplitMix64, Vfs, VfsPath};
use hybrid::{shard_of_name, Event, Op, ShardStats, ShardedService, ShardedSession};
use jcf::{CellId, CellVersionId, DovId, TeamId, UserId};

use crate::common::{
    alternate_rounds, median_f64, median_ns, peak_rss_mb, Netlists, Report, Tracer, DESIGN_10_GATES,
};
use crate::design_flow::{check_write, timed_setups, Expect};

/// Shards of the service.
const SHARDS: usize = 2;
/// Writes between two `sync` calls.
pub const SYNC_EVERY: u64 = 21;
/// Writes between two `checkpoint` + `compact` calls.
pub const CHECKPOINT_EVERY: u64 = 12 * SYNC_EVERY;
/// A broadcast pair (new user, team membership) every this many projects.
const BROADCAST_EVERY: usize = 4;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub rounds: usize,
    /// Untimed projects per round; enough for a full checkpoint cycle.
    pub warmup: usize,
    /// Timed projects per round.
    pub projects: usize,
    /// Timed recoveries at the end of each round.
    pub restarts: usize,
}

/// How a write routes through the shard router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Local,
    Cross,
    Broadcast,
}

impl Route {
    fn span(self) -> &'static str {
        match self {
            Route::Local => "hybrid.shard.submit.local",
            Route::Cross => "hybrid.shard.submit.cross",
            Route::Broadcast => "hybrid.shard.submit.broadcast",
        }
    }
}

/// One generated op of the stream.
#[derive(Debug, Clone)]
enum Step {
    Write {
        route: Route,
        op: Op,
        expect: Expect,
    },
    Read {
        dov: DovId,
        data: Blob,
        browse: bool,
    },
    At {
        seq: u64,
        dov: DovId,
        data: Blob,
    },
    /// `stale_dovs` + `impacted_cellviews` through the composed
    /// cross-shard graph; both must name exactly `stale`.
    Impact {
        seq: u64,
        cv: CellVersionId,
        stale: Vec<DovId>,
    },
}

/// What the replay repeats: writes and durability calls, in order.
#[derive(Debug, Clone)]
enum Logged {
    Op(Op),
    Sync,
    Checkpoint,
    Compact,
}

impl Logged {
    fn span(&self) -> &'static str {
        match self {
            Logged::Sync => "hybrid.shard.sync",
            Logged::Checkpoint => "hybrid.shard.checkpoint",
            Logged::Compact => "hybrid.shard.compact",
            Logged::Op(_) => "hybrid.shard.submit",
        }
    }

    /// Repeats a durability call (ops are submitted by the caller).
    fn apply(
        &self,
        service: &ShardedService,
        fs: &mut Vfs,
        root: &VfsPath,
    ) -> hybrid::HybridResult<()> {
        match self {
            Logged::Sync => service.sync(fs, root),
            Logged::Checkpoint => service.checkpoint(fs, root),
            Logged::Compact => service.compact(fs, root).map(drop),
            Logged::Op(_) => Ok(()),
        }
    }
}

/// The previous project's cell and design data: the partner of the
/// cross-partition ops (projects alternate shards).
#[derive(Debug, Clone, Copy)]
struct Partner {
    cell: CellId,
    dov: DovId,
}

/// The op stream of one round.
struct Gen {
    rng: SplitMix64,
    netlists: Netlists,
    admin: UserId,
    alice: UserId,
    bob: UserId,
    team: TeamId,
    flow: hybrid::StandardFlow,
    project: usize,
    users: usize,
    partner: Option<Partner>,
}

/// Everything a project's steps produce, filled in as replies arrive.
#[derive(Default)]
struct Slots {
    project: Option<jcf::ProjectId>,
    cells: Vec<CellId>,
    cvs: Vec<(CellVersionId, jcf::VariantId)>,
    data: Vec<Blob>,
    dovs: Vec<(u64, DovId)>,
    /// Commit seq of the cross-partition equivalence.
    marked: u64,
    new_user: Option<UserId>,
}

impl Gen {
    /// A project name on the shard this project index alternates to.
    fn project_name(&mut self) -> String {
        loop {
            let name = format!(
                "p{}-{:06x}",
                self.project,
                self.rng.next_u64() as u32 & 0xff_ffff
            );
            if shard_of_name(&name, SHARDS) == self.project % SHARDS {
                return name;
            }
        }
    }

    /// The steps of one project; `at` is the index of the step to make,
    /// given the outcomes so far in `slots`. `None` ends the project.
    fn step(&mut self, at: usize, s: &mut Slots) -> Option<Step> {
        let w = |route, op, kind| Step::Write {
            route,
            op,
            expect: Expect::Event(kind),
        };
        let l = Route::Local;
        Some(match at {
            0 => w(
                l,
                Op::CreateProject {
                    name: self.project_name(),
                },
                "project-created",
            ),
            1 | 2 => w(
                l,
                Op::CreateCell {
                    project: s.project.expect("project"),
                    name: format!("c{}", at - 1),
                },
                "cell-created",
            ),
            3 | 4 => w(
                l,
                Op::CreateCellVersion {
                    cell: s.cells[at - 3],
                    flow: self.flow.flow,
                    team: self.team,
                },
                "cell-version-created",
            ),
            5 | 6 => w(
                l,
                Op::Reserve {
                    user: self.alice,
                    cv: s.cvs[at - 5].0,
                },
                "reserved",
            ),
            7 => Step::Write {
                route: l,
                op: Op::Reserve {
                    user: self.bob,
                    cv: s.cvs[0].0,
                },
                expect: Expect::Rejected("jcf"),
            },
            8 | 9 => {
                let tag = format!("s{}-{}", self.project, at);
                let data = self.netlists.fresh(&mut self.rng, &tag, DESIGN_10_GATES);
                s.data.push(data.clone());
                w(
                    l,
                    Op::RunActivity {
                        user: self.alice,
                        variant: s.cvs[at - 8].1,
                        activity: self.flow.enter_schematic,
                        override_pending: false,
                        outputs: vec![("schematic".into(), data)],
                        session_error: None,
                    },
                    "activity-run",
                )
            }
            10 => w(
                Route::Cross,
                Op::DeclareCompOf {
                    user: self.alice,
                    cv: s.cvs[0].0,
                    child: self.partner.expect("partner").cell,
                },
                "comp-of-declared",
            ),
            11 => w(
                Route::Cross,
                Op::MarkEquivalent {
                    a: s.dovs[0].1,
                    b: self.partner.expect("partner").dov,
                },
                "marked-equivalent",
            ),
            12 | 13 => w(
                l,
                Op::Publish {
                    user: self.alice,
                    cv: s.cvs[at - 12].0,
                },
                "published",
            ),
            14 => Step::Read {
                dov: s.dovs[0].1,
                data: s.data[0].clone(),
                browse: false,
            },
            15 => Step::Read {
                dov: s.dovs[1].1,
                data: s.data[1].clone(),
                browse: true,
            },
            16 => Step::At {
                seq: s.dovs[1].0,
                dov: s.dovs[1].1,
                data: s.data[1].clone(),
            },
            // The first cell's schematic is equivalent to the partner's,
            // the partner's only version: nothing else goes stale.
            17 => Step::Impact {
                seq: s.marked,
                cv: s.cvs[0].0,
                stale: vec![self.partner.expect("partner").dov],
            },
            18 if self.project.is_multiple_of(BROADCAST_EVERY) => {
                self.users += 1;
                w(
                    Route::Broadcast,
                    Op::AddUser {
                        name: format!("u{}", self.users),
                        manager: false,
                    },
                    "user-added",
                )
            }
            19 if self.project.is_multiple_of(BROADCAST_EVERY) => w(
                Route::Broadcast,
                Op::AddTeamMember {
                    actor: self.admin,
                    team: self.team,
                    user: s.new_user.expect("user added"),
                },
                "team-member-added",
            ),
            18 | 19 => return self.step(20, s),
            _ => {
                self.partner = Some(Partner {
                    cell: s.cells[1],
                    dov: s.dovs[1].1,
                });
                self.project += 1;
                return None;
            }
        })
    }

    fn absorb(s: &mut Slots, seq: u64, event: &Event) {
        match event {
            Event::ProjectCreated(p) => s.project = Some(*p),
            Event::CellCreated(c) => s.cells.push(*c),
            Event::CellVersionCreated(cv, v) => s.cvs.push((*cv, *v)),
            Event::ActivityRun { dovs } => s.dovs.push((seq, dovs[0])),
            Event::MarkedEquivalent(..) => s.marked = seq,
            Event::UserAdded(u) => s.new_user = Some(*u),
            _ => {}
        }
    }
}

/// Submits set-up ops, recording them for the replay.
fn submit(service: &ShardedService, log: &mut Vec<Logged>, op: Op) -> (u64, Event) {
    log.push(Logged::Op(op.clone()));
    service.submit(op).expect("set-up op commits")
}

/// Builds the service, desktop and an anchor project on the second
/// shard (the first project's cross-partition partner), then writes the
/// first checkpoint.
fn set_up(seed: u64, fs: &mut Vfs, root: &VfsPath) -> (ShardedService, Vec<Logged>, Gen) {
    let service = ShardedService::new(SHARDS);
    let admin = service.admin();
    let mut log = Vec::new();
    let add = |name: &str, log: &mut Vec<Logged>| match submit(
        &service,
        log,
        Op::AddUser {
            name: name.into(),
            manager: false,
        },
    ) {
        (_, Event::UserAdded(u)) => u,
        other => panic!("set-up: add-user answered {other:?}"),
    };
    let alice = add("alice", &mut log);
    let bob = add("bob", &mut log);
    let team = match submit(
        &service,
        &mut log,
        Op::AddTeam {
            actor: admin,
            name: "asic".into(),
        },
    ) {
        (_, Event::TeamAdded(t)) => t,
        other => panic!("set-up: add-team answered {other:?}"),
    };
    for user in [alice, bob] {
        submit(
            &service,
            &mut log,
            Op::AddTeamMember {
                actor: admin,
                team,
                user,
            },
        );
    }
    let flow = match submit(
        &service,
        &mut log,
        Op::DefineStandardFlow { name: "std".into() },
    ) {
        (_, Event::StandardFlowDefined(f)) => f,
        other => panic!("set-up: standard flow answered {other:?}"),
    };
    let mut rng = SplitMix64::new(seed);
    let mut gen = Gen {
        netlists: Netlists::new(&mut rng),
        rng,
        admin,
        alice,
        bob,
        team,
        flow,
        project: 1,
        users: 0,
        partner: None,
    };
    // The anchor: project 1 lands on shard 1, so project 2 (shard 0)
    // pairs across shards. Having no partner itself, it takes its
    // project's writes without the rejected reserve and the cross ops.
    let mut slots = Slots::default();
    for at in [0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 13] {
        if let Some(Step::Write { op, .. }) = gen.step(at, &mut slots) {
            let (seq, event) = submit(&service, &mut log, op);
            Gen::absorb(&mut slots, seq, &event);
        }
    }
    gen.step(20, &mut slots);
    service.checkpoint(fs, root).expect("first checkpoint");
    log.push(Logged::Checkpoint);
    (service, log, gen)
}

/// What every round adds up to.
#[derive(Default)]
struct Acc {
    setup_ns: Vec<u64>,
    ops_per_sec: Vec<f64>,
    writes: Vec<u64>,
    reads: Vec<u64>,
    restart_ns: Vec<u64>,
    replayed: Vec<u64>,
    durability: BTreeMap<&'static str, Vec<u64>>,
    router_ns: u64,
    lane_busy_ns: u64,
    cross: u64,
    broadcasts: u64,
    timed_writes: u64,
    vfs: CostMeter,
    user_bytes: u64,
    live_bytes: Vec<u64>,
    counts: BTreeMap<&'static str, u64>,
}

fn shard_busy(stats: &ShardStats) -> u64 {
    stats.shards.iter().map(|s| s.busy_ns).sum()
}

/// The single-threaded driver of one round.
struct Driver {
    service: ShardedService,
    alice: ShardedSession,
    fs: Vfs,
    root: VfsPath,
    gen: Gen,
    log: Vec<Logged>,
    writes: u64,
    op_index: u64,
}

impl Driver {
    /// Runs `projects` projects; samples go to `acc` when timed.
    /// Returns the committed writes.
    fn projects(
        &mut self,
        projects: usize,
        tracer: &mut Tracer,
        mut acc: Option<&mut Acc>,
        report: &mut Report,
    ) -> u64 {
        let mut committed = 0;
        for _ in 0..projects {
            let mut slots = Slots::default();
            let mut at = 0;
            while let Some(step) = self.gen.step(at, &mut slots) {
                at += 1;
                let op_index = self.op_index;
                self.op_index += 1;
                report.attempted += 1;
                let start = Instant::now();
                let outcome = self.exec(&step, &mut slots, tracer, op_index);
                let ns = start.elapsed().as_nanos() as u64;
                if let Err(problem) = &outcome {
                    report.fail(format!("op {op_index}: {problem}"));
                }
                let is_write = matches!(step, Step::Write { .. });
                if let Some(acc) = acc.as_deref_mut() {
                    tracer.op_time(op_index, ns);
                    if is_write {
                        acc.writes.push(ns);
                    } else {
                        acc.reads.push(ns);
                    }
                }
                if is_write {
                    committed += u64::from(outcome == Ok(true));
                    self.writes += 1;
                    self.durability(tracer, acc.as_deref_mut(), op_index);
                }
            }
        }
        committed
    }

    /// The op-counted durability cadence after each write.
    fn durability(&mut self, tracer: &mut Tracer, mut acc: Option<&mut Acc>, op_index: u64) {
        let calls: &[Logged] = if self.writes.is_multiple_of(CHECKPOINT_EVERY) {
            &[Logged::Checkpoint, Logged::Compact]
        } else if self.writes.is_multiple_of(SYNC_EVERY) {
            &[Logged::Sync]
        } else {
            &[]
        };
        for call in calls {
            let start = Instant::now();
            let (service, fs, root) = (&self.service, &mut self.fs, &self.root);
            tracer
                .span(call.span(), op_index, false, || {
                    call.apply(service, fs, root)
                })
                .expect("durability call succeeds");
            if let Some(acc) = acc.as_deref_mut() {
                let ns = start.elapsed().as_nanos() as u64;
                acc.durability.entry(call.span()).or_default().push(ns);
            }
            self.log.push(call.clone());
        }
    }

    /// Executes one step: `Ok(true)` for a committed write, `Ok(false)`
    /// for an expected outcome that committed nothing.
    fn exec(
        &mut self,
        step: &Step,
        slots: &mut Slots,
        tracer: &mut Tracer,
        op_index: u64,
    ) -> Result<bool, String> {
        match step {
            Step::Write { route, op, expect } => {
                self.log.push(Logged::Op(op.clone()));
                let out = tracer.span(route.span(), op_index, false, || {
                    self.service.submit(op.clone())
                });
                check_write(*expect, out.as_ref().map(|(_, e)| e).map_err(|e| e.kind()))?;
                match out {
                    Ok((seq, event)) => {
                        Gen::absorb(slots, seq, &event);
                        Ok(true)
                    }
                    Err(_) => Ok(false),
                }
            }
            Step::Read { dov, data, browse } => {
                // Snapshot reads through the composed view: the sharded
                // session's own `browse`/`read_design_data` are journaled
                // ops and would count as writes.
                let user = self.gen.alice;
                let got = if *browse {
                    tracer.span("hybrid.shard.view.browse", op_index, false, || {
                        self.service.view().browse(user, *dov)
                    })
                } else {
                    tracer.span(
                        "hybrid.shard.view.read_design_data",
                        op_index,
                        false,
                        || self.service.view().read_design_data(user, *dov),
                    )
                };
                match got {
                    Ok(b) if b.as_slice() == data.as_slice() => Ok(false),
                    other => Err(format!("read of {dov:?}: {:?}", other.map(|b| b.len()))),
                }
            }
            Step::At { seq, dov, data } => {
                let got = tracer.span("hybrid.shard.history.at", op_index, false, || {
                    self.alice.at(*seq).and_then(|v| v.read_design_data(*dov))
                });
                match got {
                    Ok(b) if b.as_slice() == data.as_slice() => Ok(false),
                    other => Err(format!(
                        "history read at {seq}: {:?}",
                        other.map(|b| b.len())
                    )),
                }
            }
            Step::Impact { seq, cv, stale } => {
                let got = tracer.span("hybrid.shard.history.impact", op_index, false, || {
                    let view = self.alice.at(*seq)?;
                    hybrid::HybridResult::Ok((view.stale_dovs(*cv)?, view.impacted_cellviews(*cv)?))
                });
                match got {
                    Ok((got_stale, impacted))
                        if got_stale == *stale
                            && impacted.iter().map(|(d, _)| *d).eq(stale.iter().copied()) =>
                    {
                        Ok(false)
                    }
                    Ok((got_stale, impacted)) => Err(format!(
                        "impact at {seq} named {got_stale:?} stale and {} impacted, expected {stale:?}",
                        impacted.len()
                    )),
                    Err(e) => Err(format!("impact at {seq}: {e}")),
                }
            }
        }
    }
}

/// Exact counts of a finished round, from the service and its disk.
fn round_counts(service: &ShardedService, fs: &Vfs, writes: u64) -> BTreeMap<&'static str, u64> {
    let stats = service.stats();
    let meter = fs.meter();
    let mut c = BTreeMap::new();
    c.insert("writes", writes);
    c.insert("cross_commits", stats.cross_commits);
    c.insert("broadcasts", stats.broadcasts);
    c.insert("router_seq", stats.seq);
    c.insert("vfs_bytes_written", meter.bytes_written);
    c.insert("vfs_content_ops", meter.content_ops);
    c.insert("vfs_metadata_ops", meter.metadata_ops);
    c
}

fn round(
    seed: u64,
    index: u64,
    size: Size,
    tracer: &mut Tracer,
    acc: &mut Acc,
    report: &mut Report,
) {
    let root = VfsPath::parse("/backup").expect("static path");
    let mut fs = Vfs::new();
    let (service, log, gen) = set_up(seed, &mut fs, &root);
    let alice = service.open_session(gen.alice);
    let writes = log.iter().filter(|l| matches!(l, Logged::Op(_))).count() as u64;
    let mut driver = Driver {
        service,
        alice,
        fs,
        root,
        gen,
        log,
        writes,
        // Op indexes stay unique across rounds.
        op_index: index << 32,
    };
    let mut quiet = Tracer::new(false, Instant::now());
    driver.projects(size.warmup, &mut quiet, None, report);

    let stats_before = driver.service.stats();
    let meter_before = driver.fs.meter();
    let writes_before = driver.writes;
    let start = Instant::now();
    let committed = driver.projects(size.projects, tracer, Some(acc), report);
    acc.ops_per_sec
        .push(committed as f64 / start.elapsed().as_secs_f64());
    let stats = driver.service.stats();
    acc.router_ns += stats.router_ns - stats_before.router_ns;
    acc.lane_busy_ns += shard_busy(&stats) - shard_busy(&stats_before);
    acc.cross += stats.cross_commits - stats_before.cross_commits;
    acc.broadcasts += stats.broadcasts - stats_before.broadcasts;
    acc.timed_writes += driver.writes - writes_before;
    acc.user_bytes += (size.projects * 2 * DESIGN_10_GATES) as u64;
    let meter = driver.fs.meter().since(&meter_before);
    acc.vfs.bytes_written += meter.bytes_written;
    acc.vfs.content_ops += meter.content_ops;
    acc.vfs.metadata_ops += meter.metadata_ops;

    // Restarts: make the tail durable, then recover several times.
    let Driver {
        service,
        mut fs,
        root,
        mut log,
        writes,
        ..
    } = driver;
    service.sync(&mut fs, &root).expect("final sync");
    log.push(Logged::Sync);
    // Counted before the recoveries, which read the disk.
    let live_counts = round_counts(&service, &fs, writes);
    acc.live_bytes
        .push(fs.tree_size(&root).expect("backup tree"));
    let live = service.state_fingerprint().expect("fingerprint");
    for _ in 0..size.restarts {
        let start = Instant::now();
        let recovered = tracer.span("hybrid.shard.recover", u64::MAX, true, || {
            ShardedService::recover(&mut fs, &root)
        });
        acc.restart_ns.push(start.elapsed().as_nanos() as u64);
        match recovered {
            Ok((svc, rep)) => {
                acc.replayed.push(rep.replayed as u64);
                if svc.state_fingerprint().expect("fingerprint") != live {
                    report.fail("recovered fingerprint differs from the live service");
                }
            }
            Err(e) => report.fail(format!("recover failed: {e}")),
        }
    }

    // Serial replay: the same ops and durability calls on a fresh
    // service and disk must land on the same state and the same counts.
    let replay = ShardedService::new(SHARDS);
    let mut replay_fs = Vfs::new();
    let mut replay_writes = 0;
    for entry in log {
        if let Logged::Op(op) = entry {
            replay_writes += 1;
            let _ = replay.submit(op);
        } else if let Err(e) = entry.apply(&replay, &mut replay_fs, &root) {
            report.fail(format!("replay {}: {e}", entry.span()));
        }
    }
    if replay.state_fingerprint().expect("fingerprint") != live {
        report.fail("serial replay fingerprint differs from the live service");
    }
    report.same_counts(
        "durable-shards",
        &live_counts,
        &round_counts(&replay, &replay_fs, replay_writes),
    );
    for (name, v) in live_counts {
        *acc.counts.entry(name).or_default() += v;
    }
}

/// Runs `durable-shards` and returns its report.
pub fn run(seed: u64, size: Size, trace: bool) -> Report {
    let mut report = Report::default();
    let mut acc = Acc::default();
    let mut untraced = Acc::default();
    let mut tracer = Tracer::new(trace, Instant::now());
    let root = VfsPath::parse("/backup").expect("static path");
    alternate_rounds(size.rounds, trace, |r, reported| {
        let round_seed = seed.wrapping_mul(1000).wrapping_add(r as u64);
        if reported {
            acc.setup_ns
                .extend(timed_setups(|| set_up(seed, &mut Vfs::new(), &root)));
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
    report.metric("setup_s", median_ns(&acc.setup_ns, 1e9), "s");
    let ops_per_sec = median_f64(&acc.ops_per_sec);
    report.metric("commit_ops_s", ops_per_sec, "1/s");
    report.latency("commit", &mut acc.writes, "ms", true);
    report.latency("read", &mut acc.reads, "ms", true);
    report.metric("restart_ms", median_ns(&acc.restart_ns, 1e6), "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.counts = std::mem::take(&mut acc.counts);
    report.count("ops_attempted", report.attempted);
    if !trace {
        return report;
    }
    let writes = acc.timed_writes.max(1) as f64;
    for route in [Route::Local, Route::Cross, Route::Broadcast] {
        let name = route.span();
        report.latency(name, &mut tracer.durations(name), "us", true);
    }
    report.metric(
        "hybrid.shard.router_ns_per_op",
        acc.router_ns as f64 / writes,
        "ns",
    );
    report.metric(
        "hybrid.shard.lane_busy_ns_per_op",
        acc.lane_busy_ns as f64 / writes,
        "ns",
    );
    report.metric("hybrid.shard.cross_commits", acc.cross as f64, "count");
    report.metric("hybrid.shard.broadcasts", acc.broadcasts as f64, "count");
    for (call, tail) in [
        ("hybrid.shard.sync", true),
        ("hybrid.shard.checkpoint", true),
        ("hybrid.shard.compact", false),
    ] {
        let mut ns = acc.durability.remove(call).unwrap_or_default();
        report.latency(call, &mut ns, "ms", tail);
    }
    report.metric(
        "cad-vfs.bytes_written_per_op",
        acc.vfs.bytes_written as f64 / writes,
        "bytes",
    );
    report.metric(
        "cad-vfs.bytes_written_per_user_byte",
        acc.vfs.bytes_written as f64 / acc.user_bytes.max(1) as f64,
        "ratio",
    );
    report.metric(
        "cad-vfs.content_ops_per_op",
        acc.vfs.content_ops as f64 / writes,
        "ops",
    );
    report.metric(
        "cad-vfs.metadata_ops_per_op",
        acc.vfs.metadata_ops as f64 / writes,
        "ops",
    );
    let live: Vec<f64> = acc.live_bytes.iter().map(|&b| b as f64).collect();
    report.metric("cad-vfs.live_bytes", median_f64(&live), "bytes");
    let mut restart_ns = acc.restart_ns.clone();
    report.latency("hybrid.shard.recover", &mut restart_ns, "ms", false);
    let replayed: Vec<f64> = acc.replayed.iter().map(|&r| r as f64).collect();
    report.metric(
        "hybrid.shard.recover_replayed",
        median_f64(&replayed),
        "ops",
    );
    report.metric(
        "durable-shards.unattributed_share",
        tracer.unattributed_share(),
        "ratio",
    );
    report.metric(
        "durable-shards.tracing_overhead_ops_s",
        median_f64(&untraced.ops_per_sec) - ops_per_sec,
        "1/s",
    );
    report.trace = Some(tracer);
    report
}
