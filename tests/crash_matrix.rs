//! Crash-point matrix: kill persistence at *every* injectable fault
//! point of a long seeded workload, restore from whatever survived,
//! and require the result to be a valid commit boundary — never a torn
//! in-between state.
//!
//! The workload interleaves ≥200 random ops with checkpoints and
//! journal syncs. Every content write those persistence calls issue
//! against the backup file system is an injectable point (the base
//! checkpoint stages four files, a delta checkpoint stages the sealed
//! tail segment plus the delta record plus the manifest, a journal
//! sync stages the open segment and the manifest plus one file per
//! `SEG_CAP` entries sealed; the `rename` commits are metadata-only
//! and cannot tear). A preliminary
//! pass with an empty — purely counting — [`FaultPlan`] discovers the
//! points and records the expected fingerprint at every commit
//! boundary; the matrix then reruns the identical stream once per
//! point `k` with a torn write scheduled at `k`, stops at the first
//! persistence error as a crash would, and restores.
//!
//! Determinism note: persistence calls never consume the driver rng,
//! so the op stream before the crash is byte-identical to the clean
//! run's — any fingerprint mismatch indicts the commit protocol.

use cad_vfs::{FaultPlan, SplitMix64, Vfs, VfsError, VfsPath};
use design_data::{format, generate};
use hybrid::{Engine, HybridError, ToolOutput};
use jcf::{CellId, CellVersionId, DovId, ProjectId, TeamId, UserId, VariantId};
use test_support::pick;

/// The mutable bookkeeping the driver needs to aim ops at real ids.
struct World {
    alice: UserId,
    team: TeamId,
    project: ProjectId,
    cells: Vec<CellId>,
    slots: Vec<(CellVersionId, VariantId)>,
    dovs: Vec<DovId>,
    next_cell: u32,
    next_variant: u32,
    next_user: u32,
}

/// Bootstraps one engine plus the world the op stream runs in.
fn bootstrap() -> (Engine, hybrid::StandardFlow, World) {
    let mut en = Engine::new();
    let admin = en.admin();
    let alice = en.add_user("alice", false).unwrap();
    let team = en.add_team(admin, "t").unwrap();
    en.add_team_member(admin, team, alice).unwrap();
    let flow = en.standard_flow("f").unwrap();
    let project = en.create_project("p").unwrap();
    let world = World {
        alice,
        team,
        project,
        cells: Vec::new(),
        slots: Vec::new(),
        dovs: Vec::new(),
        next_cell: 0,
        next_variant: 0,
        next_user: 0,
    };
    (en, flow, world)
}

/// Applies exactly one random op to the engine (ops may fail; the
/// failure is journaled). Same dispatch as `det_ops_replay`.
fn step(en: &mut Engine, rng: &mut SplitMix64, flow: &hybrid::StandardFlow, w: &mut World) {
    match rng.below(12) {
        0 => {
            w.next_cell += 1;
            let cell = en
                .create_cell(w.project, &format!("cell{}", w.next_cell))
                .unwrap();
            w.cells.push(cell);
        }
        1 => {
            if let Some(&cell) = pick(rng, &w.cells) {
                let (cv, variant) = en.create_cell_version(cell, flow.flow, w.team).unwrap();
                w.slots.push((cv, variant));
            } else {
                let _ = en.create_project("p");
            }
        }
        2 => {
            if let Some(&(cv, _)) = pick(rng, &w.slots) {
                let _ = en.reserve(w.alice, cv);
            } else {
                let _ = en.create_project("p");
            }
        }
        3 | 4 => {
            if let Some(&(_, variant)) = pick(rng, &w.slots) {
                let gates = 1 + rng.below(24);
                let seed = rng.next_u64();
                let design = generate::random_logic(gates, seed);
                let bytes = format::write_netlist(&design.netlists[&design.top]).into_bytes();
                if let Ok(dovs) =
                    en.run_activity(w.alice, variant, flow.enter_schematic, false, move |_| {
                        Ok(vec![ToolOutput {
                            viewtype: "schematic".into(),
                            data: bytes.into(),
                        }])
                    })
                {
                    w.dovs.extend(dovs);
                }
            } else {
                let _ = en.create_project("p");
            }
        }
        5 => {
            if let Some(&(_, variant)) = pick(rng, &w.slots) {
                let _ = en.run_activity(w.alice, variant, flow.simulate, false, |_| {
                    Ok(vec![ToolOutput {
                        viewtype: "waveform".into(),
                        data: b"waves\n".to_vec().into(),
                    }])
                });
            } else {
                let _ = en.create_project("p");
            }
        }
        6 => {
            if let Some(&(cv, _)) = pick(rng, &w.slots) {
                let _ = en.publish(w.alice, cv);
            } else {
                let _ = en.create_project("p");
            }
        }
        7 => {
            if let Some(&(cv, base)) = pick(rng, &w.slots) {
                w.next_variant += 1;
                let name = format!("var{}", w.next_variant);
                if let Ok(v) = en.derive_variant(w.alice, cv, &name, Some(base)) {
                    w.slots.push((cv, v));
                }
            } else {
                let _ = en.create_project("p");
            }
        }
        8 => {
            if let Some(&dov) = pick(rng, &w.dovs) {
                let _ = en.browse(w.alice, dov);
            } else {
                let _ = en.create_project("p");
            }
        }
        9 => {
            if let Some(&dov) = pick(rng, &w.dovs) {
                let _ = en.read_design_data(w.alice, dov);
            } else {
                let _ = en.create_project("p");
            }
        }
        10 => {
            w.next_user += 1;
            en.add_user(&format!("user{}", w.next_user), false).unwrap();
        }
        _ => {
            en.create_project("p").expect_err("duplicate project");
        }
    }
}

/// One persistence call in the schedule, between batches of ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Commit {
    /// [`Engine::checkpoint`] — a full base image the first time, an
    /// O(Δ) delta checkpoint afterwards.
    Checkpoint,
    /// [`Engine::sync_journal`] — rewrites the open segment and the
    /// manifest, sealing one immutable segment per `SEG_CAP = 64`
    /// entries outgrown.
    Sync,
}

/// Ops between persistence calls, the call itself, and the injectable
/// content writes it stages: 220 ops, 5 commits, 4+2+3+3+2 = 14
/// points. The base checkpoint stages the three images plus the
/// manifest; the first sync holds 40 entries in the open segment (2
/// writes); the second has outgrown the 64-entry cap and seals one
/// segment (3); the delta checkpoint seals the 56-entry tail and adds
/// the delta record plus the manifest (3); the last sync is 2 again.
const SCHEDULE: &[(usize, Commit, u64)] = &[
    (70, Commit::Checkpoint, 4),
    (40, Commit::Sync, 2),
    (40, Commit::Sync, 3),
    (40, Commit::Checkpoint, 3),
    (30, Commit::Sync, 2),
];

const STREAM_SEED: u64 = 0x0C4A_540F_1995_0042;
const DIR: &str = "/backup/crash";

/// Runs the schedule against `backup`, invoking `on_commit` after each
/// persistence call that succeeds. Returns the live engine plus the
/// first persistence error (the simulated crash), if any.
fn run_schedule(
    backup: &mut Vfs,
    mut on_commit: impl FnMut(usize, &Vfs),
) -> (Engine, Option<HybridError>) {
    let dir = VfsPath::parse(DIR).unwrap();
    let mut rng = SplitMix64::new(STREAM_SEED);
    let (mut en, flow, mut world) = bootstrap();
    for (idx, &(ops, commit, _)) in SCHEDULE.iter().enumerate() {
        for _ in 0..ops {
            step(&mut en, &mut rng, &flow, &mut world);
        }
        let result = match commit {
            Commit::Checkpoint => en.checkpoint(backup, &dir),
            Commit::Sync => en.sync_journal(backup, &dir),
        };
        match result {
            Ok(()) => on_commit(idx, backup),
            Err(e) => return (en, Some(e)),
        }
    }
    (en, None)
}

/// The index of the last commit that completes *before* the commit
/// containing injectable write `k` (1-based), or `None` if `k` lands
/// in the very first commit.
fn boundary_before(k: u64) -> Option<usize> {
    let mut seen = 0;
    for (idx, &(_, _, writes)) in SCHEDULE.iter().enumerate() {
        seen += writes;
        if k <= seen {
            return idx.checked_sub(1);
        }
    }
    panic!("write {k} beyond the schedule");
}

/// The headline matrix. One clean pass discovers the fault points and
/// the per-boundary fingerprints; then every point k is torn in its
/// own rerun and the restored state must land exactly on the boundary
/// preceding the crash.
#[test]
fn every_crash_point_restores_to_a_commit_boundary() {
    let dir = VfsPath::parse(DIR).unwrap();
    let expected_points: u64 = SCHEDULE.iter().map(|&(_, _, writes)| writes).sum();

    // Clean pass: count injectable points, snapshot every boundary.
    let mut boundaries: Vec<Vfs> = Vec::new();
    let mut backup = Vfs::new();
    backup.arm_faults(FaultPlan::new(0)); // empty plan: counts, never fires
    let (live, crash) = run_schedule(&mut backup, |_, fs| boundaries.push(fs.clone()));
    assert!(crash.is_none(), "clean run must not crash: {crash:?}");
    assert!(live.seq() >= 200, "workload too short: {} ops", live.seq());
    let stats = backup.disarm_faults().unwrap().stats();
    assert_eq!(
        stats.writes_seen,
        expected_points,
        "schedule write arithmetic out of date: {} commits saw {} content writes",
        SCHEDULE.len(),
        stats.writes_seen
    );
    assert_eq!(stats.faults_fired, 0);
    assert_eq!(boundaries.len(), SCHEDULE.len());
    let boundary_prints: Vec<String> = boundaries
        .into_iter()
        .map(|mut snap| {
            Engine::restore_from(&mut snap, &dir)
                .expect("boundary snapshot restores")
                .state_fingerprint()
                .unwrap()
        })
        .collect();

    // The matrix: tear write k, crash, restore, compare.
    for k in 1..=expected_points {
        let mut backup = Vfs::new();
        backup.arm_faults(FaultPlan::new(0x000F_A017 ^ k).torn_write(k));
        let (_live, crash) = run_schedule(&mut backup, |_, _| {});
        let crash = crash.unwrap_or_else(|| panic!("point {k}: fault did not surface"));
        // Checkpoint staging surfaces the Vfs fault directly; journal
        // staging is routed through oms::persist and keeps its error
        // domain, but the injected fault stays identifiable.
        let injected = matches!(&crash, HybridError::Vfs(VfsError::InjectedWriteFault(_)))
            || crash.to_string().contains("injected write fault");
        assert!(injected, "point {k}: unexpected crash error {crash:?}");
        let stats = backup.disarm_faults().unwrap().stats();
        assert_eq!(stats.faults_fired, 1, "point {k}");
        assert_eq!(stats.writes_seen, k, "point {k}: crash stops the schedule");

        match boundary_before(k) {
            None => {
                // Nothing ever committed: restore reports a typed
                // error instead of fabricating an empty state.
                let err = Engine::restore_from(&mut backup, &dir).unwrap_err();
                assert!(
                    matches!(err, HybridError::Vfs(VfsError::NotFound(_))),
                    "point {k}: expected missing checkpoint, got {err:?}"
                );
            }
            Some(boundary) => {
                let restored = Engine::restore_from(&mut backup, &dir)
                    .unwrap_or_else(|e| panic!("point {k}: restore failed: {e:?}"));
                assert_eq!(
                    restored.state_fingerprint().unwrap(),
                    boundary_prints[boundary],
                    "point {k}: restored state must equal commit boundary {boundary}"
                );
            }
        }
    }
}

/// ENOSPC mid-checkpoint: the quota tears the staging write, the
/// commit aborts, and — after space is freed — the retried checkpoint
/// commits and restores to the live state. The failed attempt must
/// not have cleared the in-memory journal.
#[test]
fn quota_exhaustion_aborts_the_checkpoint_and_a_retry_recovers() {
    let dir = VfsPath::parse(DIR).unwrap();
    let mut rng = SplitMix64::new(7);
    let (mut en, flow, mut world) = bootstrap();
    for _ in 0..60 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    let mut backup = Vfs::new();
    backup.arm_faults(FaultPlan::new(1).quota(64));
    let err = en.checkpoint(&mut backup, &dir).unwrap_err();
    assert!(
        matches!(err, HybridError::Vfs(VfsError::QuotaExceeded(_))),
        "expected quota error, got {err:?}"
    );
    backup.disarm_faults();
    // The journal tail survived the failed checkpoint, so the retry
    // plus restore reproduces the live engine exactly.
    en.checkpoint(&mut backup, &dir).unwrap();
    let restored = Engine::restore_from(&mut backup, &dir).unwrap();
    assert_eq!(restored.seq(), en.seq());
    assert_eq!(
        restored.state_fingerprint().unwrap(),
        en.state_fingerprint().unwrap()
    );
}

/// Transient read faults during restore surface as typed errors and a
/// plain retry succeeds — no state is lost by a flaky read.
#[test]
fn transient_read_faults_fail_the_restore_then_a_retry_succeeds() {
    let dir = VfsPath::parse(DIR).unwrap();
    let mut rng = SplitMix64::new(9);
    let (mut en, flow, mut world) = bootstrap();
    for _ in 0..50 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    let mut backup = Vfs::new();
    en.checkpoint(&mut backup, &dir).unwrap();
    for _ in 0..30 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    en.sync_journal(&mut backup, &dir).unwrap();

    // Restore reads the manifest, the three images, and the open
    // segment — fail each of the first four.
    for n in 1..=4 {
        backup.arm_faults(FaultPlan::new(n).fail_read(n));
        let err = Engine::restore_from(&mut backup, &dir).unwrap_err();
        // Direct reads surface the Vfs error; reads routed through
        // oms::persist / jcf keep their own error domains but carry
        // the injected-fault message.
        let transient = matches!(&err, HybridError::Vfs(VfsError::InjectedReadFault(_)))
            || err.to_string().contains("injected read fault");
        assert!(transient, "read {n}: unexpected error {err:?}");
        let stats = backup.disarm_faults().unwrap().stats();
        assert_eq!(stats.faults_fired, 1, "read {n}");
    }
    let restored = Engine::restore_from(&mut backup, &dir).unwrap();
    assert_eq!(
        restored.state_fingerprint().unwrap(),
        en.state_fingerprint().unwrap()
    );
}

/// Satellite regression: a journal segment whose final line was
/// hand-truncated mid-entry is rejected by `restore_from` with the
/// typed `TornJournal` error, and `recover_from` restarts by dropping
/// only the torn suffix — every complete entry still replays, and the
/// report names the torn segment and the byte offset of the fragment.
#[test]
fn hand_truncated_journal_is_rejected_typed_and_recovered_minus_the_tail() {
    let dir = VfsPath::parse(DIR).unwrap();
    let open_seg = dir.join("seg-1.log").unwrap();
    let mut rng = SplitMix64::new(11);
    let (mut en, flow, mut world) = bootstrap();
    for _ in 0..40 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    let mut backup = Vfs::new();
    en.checkpoint(&mut backup, &dir).unwrap();
    let seq_at_checkpoint = en.seq();
    for _ in 0..25 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    en.sync_journal(&mut backup, &dir).unwrap();
    let tail_entries = en.seq() - seq_at_checkpoint;
    assert!(tail_entries >= 2, "need a real tail to truncate");

    // Tear the last entry by hand: drop its newline and final bytes.
    let bytes = backup.read(&open_seg).unwrap().to_vec();
    let truncated = bytes[..bytes.len() - 4].to_vec();
    let expect_offset = truncated
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap();
    backup.write(&open_seg, truncated).unwrap();

    let err = Engine::restore_from(&mut backup, &dir).unwrap_err();
    match &err {
        HybridError::TornJournal { complete, fragment } => {
            assert_eq!(*complete as u64, tail_entries - 1);
            assert!(!fragment.is_empty());
        }
        other => panic!("expected TornJournal, got {other:?}"),
    }
    assert_eq!(err.kind(), "torn-journal");

    let (recovered, report) = Engine::recover_from(&mut backup, &dir).unwrap();
    assert_eq!(report.replayed as u64, tail_entries - 1);
    assert!(report.dropped_fragment.is_some());
    assert_eq!(
        report.torn_segment.as_deref(),
        Some("seg-1.log"),
        "the report names the torn segment"
    );
    assert_eq!(
        report.torn_offset,
        Some(expect_offset),
        "the report gives the byte offset of the torn fragment"
    );
    assert_eq!(
        recovered.seq(),
        en.seq() - 1,
        "recovery drops exactly the torn final entry"
    );

    // An intact journal recovers with nothing dropped.
    en.sync_journal(&mut backup, &dir).unwrap();
    let (full, report) = Engine::recover_from(&mut backup, &dir).unwrap();
    assert_eq!(report.dropped_fragment, None);
    assert_eq!((report.torn_segment, report.torn_offset), (None, None));
    assert_eq!(report.replayed as u64, en.seq() - seq_at_checkpoint);
    assert_eq!(
        full.state_fingerprint().unwrap(),
        en.state_fingerprint().unwrap()
    );
}

/// A torn write while staging the delta-checkpoint record aborts the
/// whole group commit: the chain on disk stays exactly at the last
/// synced boundary, recovery lands there, and a retried checkpoint
/// then commits the delta cleanly.
#[test]
fn torn_delta_checkpoint_write_recovers_to_the_synced_boundary() {
    let dir = VfsPath::parse(DIR).unwrap();
    let mut rng = SplitMix64::new(13);
    let (mut en, flow, mut world) = bootstrap();
    for _ in 0..40 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    let mut backup = Vfs::new();
    en.checkpoint(&mut backup, &dir).unwrap();
    for _ in 0..30 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    en.sync_journal(&mut backup, &dir).unwrap();
    let synced_boundary = {
        let mut snap = backup.clone();
        Engine::restore_from(&mut snap, &dir)
            .unwrap()
            .state_fingerprint()
            .unwrap()
    };
    let seq_at_sync = en.seq();

    // Ten more (unsynced) ops, then a delta checkpoint whose delta
    // record write is torn mid-staging.
    for _ in 0..10 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    backup.arm_faults(
        FaultPlan::new(0x0DE1_7A01)
            .torn_write(1)
            .only_paths_containing("delta-"),
    );
    let err = en.checkpoint(&mut backup, &dir).unwrap_err();
    assert!(
        err.to_string().contains("injected write fault"),
        "expected the injected fault, got {err:?}"
    );
    let stats = backup.disarm_faults().unwrap().stats();
    assert_eq!(stats.faults_fired, 1);

    // Nothing of the aborted group was renamed into place: recovery
    // lands exactly on the synced boundary.
    let (recovered, report) = Engine::recover_from(&mut backup, &dir).unwrap();
    assert_eq!(recovered.seq(), seq_at_sync);
    assert_eq!(report.chain_break, None);
    assert_eq!(recovered.state_fingerprint().unwrap(), synced_boundary);

    // The live engine kept its journal tail; the retry commits the
    // delta and restores to the live state.
    en.checkpoint(&mut backup, &dir).unwrap();
    let restored = Engine::restore_from(&mut backup, &dir).unwrap();
    assert_eq!(
        restored.state_fingerprint().unwrap(),
        en.state_fingerprint().unwrap()
    );
}

/// Retired segment files that vanish before the manifest stops listing
/// them — the window a crashed compaction leaves behind — must not
/// affect recovery: retired segments are never replayed, and a fresh
/// `compact` finishes the cleanup.
#[test]
fn crash_mid_compaction_leaves_a_recoverable_chain() {
    let dir = VfsPath::parse(DIR).unwrap();
    let mut rng = SplitMix64::new(17);
    let (mut en, flow, mut world) = bootstrap();
    for _ in 0..30 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    let mut backup = Vfs::new();
    en.checkpoint(&mut backup, &dir).unwrap();
    for _ in 0..40 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    en.sync_journal(&mut backup, &dir).unwrap();
    // The delta checkpoint seals the tail into a retired segment.
    en.checkpoint(&mut backup, &dir).unwrap();
    // Fingerprinting walks the live file system and advances its cost
    // meter, so capture the reference once.
    let live_fp = en.state_fingerprint().unwrap();

    let retired = dir.join("seg-1.log").unwrap();
    assert!(backup.exists(&retired), "the sealed tail segment exists");
    backup.remove_all(&retired).unwrap();

    // The manifest still lists the retired segment, but recovery never
    // reads it: the delta checkpoint covers those entries.
    let restored = Engine::restore_from(&mut backup, &dir).unwrap();
    assert_eq!(restored.state_fingerprint().unwrap(), live_fp);

    // A recovered engine can finish the compaction.
    let (mut recovered, _) = Engine::recover_from(&mut backup, &dir).unwrap();
    recovered.compact(&mut backup, &dir).unwrap();
    let after = Engine::restore_from(&mut backup, &dir).unwrap();
    assert_eq!(after.state_fingerprint().unwrap(), live_fp);
}

/// A manifest whose live (unretired) sealed segment is missing on disk
/// is real chain damage: the strict restore reports it typed, and
/// lenient recovery stops at the last boundary the intact prefix
/// reaches instead of skipping entries.
#[test]
fn manifest_pointing_at_a_missing_live_segment_recovers_to_the_last_boundary() {
    let dir = VfsPath::parse(DIR).unwrap();
    let mut rng = SplitMix64::new(19);
    let (mut en, flow, mut world) = bootstrap();
    for _ in 0..20 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    let mut backup = Vfs::new();
    en.checkpoint(&mut backup, &dir).unwrap();
    let base_boundary = {
        let mut snap = backup.clone();
        Engine::restore_from(&mut snap, &dir)
            .unwrap()
            .state_fingerprint()
            .unwrap()
    };
    let seq_at_base = en.seq();
    // 70 ops outgrow the 64-entry cap: the sync seals seg-1 (live) and
    // keeps the remainder in open seg-2.
    for _ in 0..70 {
        step(&mut en, &mut rng, &flow, &mut world);
    }
    en.sync_journal(&mut backup, &dir).unwrap();
    let sealed = dir.join("seg-1.log").unwrap();
    assert!(backup.exists(&sealed), "the sync sealed a live segment");
    backup.remove_all(&sealed).unwrap();

    let err = Engine::restore_from(&mut backup, &dir).unwrap_err();
    assert!(
        matches!(err, HybridError::DeltaChain(_)),
        "expected typed chain damage, got {err:?}"
    );
    assert_eq!(err.kind(), "delta-chain");

    let (recovered, report) = Engine::recover_from(&mut backup, &dir).unwrap();
    let break_msg = report.chain_break.expect("the break is reported");
    assert!(
        break_msg.contains("seg-1.log"),
        "the break names the missing segment: {break_msg}"
    );
    assert_eq!(report.replayed, 0, "entries past the hole must not replay");
    assert_eq!(recovered.seq(), seq_at_base);
    assert_eq!(recovered.state_fingerprint().unwrap(), base_boundary);
}

// ---------------------------------------------------------------------------
// Cross-shard 2PC crash points (sharded service)
// ---------------------------------------------------------------------------

use hybrid::{shard_of_name, Op, ShardedService, ShardedSession, StandardFlow};

const SHARDS: usize = 4;
const SHARD_DIR: &str = "/backup/shards";

/// Bootstraps a 4-shard service with one designer and the standard
/// flow (all broadcast), plus a cross-partition pair: a reserved cell
/// version in one project and a child cell in a project placed on a
/// *different* shard.
struct CrossWorld {
    service: ShardedService,
    alice: ShardedSession,
    cv_a: CellVersionId,
    project_b: ProjectId,
    cell_b: CellId,
}

fn cross_world() -> CrossWorld {
    let service = ShardedService::new(SHARDS);
    let admin = service.open_session(service.admin());
    let team = admin.add_team("t").unwrap();
    let user = admin.add_user("alice", false).unwrap();
    admin.add_team_member(team, user).unwrap();
    let flow: StandardFlow = admin.standard_flow("f").unwrap();
    let alice = service.open_session(user);

    let (name_a, name_b) = cross_pair();
    let project_a = alice.create_project(name_a).unwrap();
    let cell_a = alice.create_cell(project_a, "top").unwrap();
    let (cv_a, _) = alice.create_cell_version(cell_a, flow.flow, team).unwrap();
    alice.reserve(cv_a).unwrap();
    let project_b = alice.create_project(name_b).unwrap();
    let cell_b = alice.create_cell(project_b, "leaf").unwrap();

    let (sa, _) = service.resolve_shard(project_a.raw()).unwrap();
    let (sb, _) = service.resolve_shard(project_b.raw()).unwrap();
    assert!(sa < sb, "cross_pair must place a strictly below b");

    CrossWorld {
        service,
        alice,
        cv_a,
        project_b,
        cell_b,
    }
}

/// Two project names whose FNV placement lands on strictly ascending,
/// distinct shards at [`SHARDS`] partitions.
fn cross_pair() -> (&'static str, &'static str) {
    const NAMES: &[&str] = &["alu16", "dsp", "rom", "fpu", "mmu", "uart"];
    for a in NAMES {
        for b in NAMES {
            if shard_of_name(a, SHARDS) < shard_of_name(b, SHARDS) {
                return (a, b);
            }
        }
    }
    unreachable!("six names cannot all hash to a single shard")
}

/// A cross-partition `comp-of` whose commit record reached only one
/// participant's journal — the crash window between the two per-shard
/// appends — must be rolled back at recovery, reported, and leave the
/// sequence burned so post-recovery ids stay monotone.
#[test]
fn cross_shard_prepare_without_both_commits_is_rolled_back() {
    let root = VfsPath::parse(SHARD_DIR).unwrap();
    let w = cross_world();

    let mut backup = Vfs::new();
    w.service.checkpoint(&mut backup, &root).unwrap();
    let cross_seq = w.alice.declare_comp_of(w.cv_a, w.cell_b).unwrap();
    w.service.sync(&mut backup, &root).unwrap();

    // Drop the commit record from participant b's journal by hand.
    let (sb, _) = w.service.resolve_shard(w.project_b.raw()).unwrap();
    let log = root
        .join("ck-1")
        .unwrap()
        .join(&format!("shard-{sb}.log"))
        .unwrap();
    let text = String::from_utf8(backup.read(&log).unwrap().to_vec()).unwrap();
    let kept: Vec<&str> = text.lines().filter(|l| !l.starts_with("cmit|")).collect();
    assert!(
        kept.len() < text.lines().count(),
        "participant b's journal must contain a commit record before the edit"
    );
    backup
        .write(&log, format!("{}\n", kept.join("\n")).into_bytes())
        .unwrap();

    let (recovered, report) = ShardedService::recover(&mut backup, &root).unwrap();
    assert_eq!(report.rolled_back_prepares, vec![cross_seq]);
    assert!(
        recovered.view().router().cross_comp_edges().is_empty(),
        "the rolled-back comp-of must not resurface as an edge"
    );

    // The burned sequence keeps post-recovery commits monotone, and
    // the op can simply be resubmitted.
    let session = recovered.open_session(w.alice.user());
    let (next_seq, _) = session
        .apply_seq(Op::DeclareCompOf {
            user: w.alice.user(),
            cv: w.cv_a,
            child: w.cell_b,
        })
        .unwrap();
    assert!(
        next_seq > cross_seq,
        "rolled-back seq {cross_seq} must stay burned"
    );
    assert_eq!(recovered.view().router().cross_comp_edges().len(), 1);
}

/// A torn journal sync that dies while staging participant b's log
/// leaves the prepare visible in participant a's journal only; the
/// recovery must treat it as uncommitted and report the rollback.
#[test]
fn torn_sync_of_one_participant_rolls_back_the_cross_commit() {
    let root = VfsPath::parse(SHARD_DIR).unwrap();
    let w = cross_world();

    let mut backup = Vfs::new();
    w.service.checkpoint(&mut backup, &root).unwrap();
    let cross_seq = w.alice.declare_comp_of(w.cv_a, w.cell_b).unwrap();

    // Sync stages the per-shard logs in ascending shard order, one
    // content write each; tear participant b's.
    let (sb, _) = w.service.resolve_shard(w.project_b.raw()).unwrap();
    backup.arm_faults(
        FaultPlan::new(0x2BC0_0001)
            .torn_write(sb as u64 + 1)
            .scope(&root),
    );
    let err = w.service.sync(&mut backup, &root).unwrap_err();
    assert!(
        err.to_string().contains("injected write fault"),
        "expected the injected fault, got {err:?}"
    );
    let stats = backup.disarm_faults().unwrap().stats();
    assert_eq!(stats.faults_fired, 1);

    let (recovered, report) = ShardedService::recover(&mut backup, &root).unwrap();
    assert_eq!(report.rolled_back_prepares, vec![cross_seq]);
    assert!(recovered.view().router().cross_comp_edges().is_empty());

    // A clean re-sync from the live service and a fresh recovery see
    // the commit in both journals and replay it.
    w.service.sync(&mut backup, &root).unwrap();
    let (healed, report) = ShardedService::recover(&mut backup, &root).unwrap();
    assert_eq!(report.rolled_back_prepares, Vec::<u64>::new());
    assert_eq!(healed.view().router().cross_comp_edges().len(), 1);
    assert_eq!(
        healed.state_fingerprint().unwrap(),
        w.service.state_fingerprint().unwrap()
    );
}

/// A crash in the middle of a *later* epoch checkpoint (after some
/// shards already staged their images) must leave the previous epoch
/// live: `CURRENT` never flips, and recovery replays the synced
/// journals — including the cross-partition commit — on top of the
/// old epoch.
#[test]
fn crash_inside_a_later_checkpoint_leaves_the_previous_epoch_live() {
    let root = VfsPath::parse(SHARD_DIR).unwrap();
    let w = cross_world();

    let mut backup = Vfs::new();
    w.service.checkpoint(&mut backup, &root).unwrap();
    w.alice.declare_comp_of(w.cv_a, w.cell_b).unwrap();
    w.alice.create_cell(w.project_b, "leaf2").unwrap();
    w.service.sync(&mut backup, &root).unwrap();
    let live = w.service.state_fingerprint().unwrap();

    // Only partition b's shard changed since the epoch, so only its
    // chain stages a delta checkpoint (delta, manifest); epoch.meta and
    // router.meta follow. Tear write 5 — the `CURRENT` flip, after
    // every chain delta and epoch file staged.
    backup.arm_faults(FaultPlan::new(0x2BC0_0002).torn_write(5).scope(&root));
    let err = w.service.checkpoint(&mut backup, &root).unwrap_err();
    assert!(
        err.to_string().contains("injected write fault"),
        "expected the injected fault, got {err:?}"
    );
    let stats = backup.disarm_faults().unwrap().stats();
    assert_eq!(stats.faults_fired, 1);

    let current = String::from_utf8(
        backup
            .read(&root.join("CURRENT").unwrap())
            .unwrap()
            .to_vec(),
    )
    .unwrap();
    assert_eq!(current.trim(), "ck-1", "the pointer must not flip early");

    let (recovered, report) = ShardedService::recover(&mut backup, &root).unwrap();
    assert_eq!(report.rolled_back_prepares, Vec::<u64>::new());
    assert_eq!(
        report.replayed, 2,
        "the cross comp-of and the tail cell replay"
    );
    assert_eq!(recovered.state_fingerprint().unwrap(), live);
}

/// Path of shard `i`'s envelope journal in epoch 1.
fn epoch1_log(root: &VfsPath, i: usize) -> VfsPath {
    root.join("ck-1")
        .unwrap()
        .join(&format!("shard-{i}.log"))
        .unwrap()
}

/// Every shard's envelope journal in epoch 1 parses *strictly*: no
/// torn tail anywhere.
fn assert_logs_parse_strictly(backup: &Vfs, root: &VfsPath) {
    for i in 0..SHARDS {
        let log = epoch1_log(root, i);
        if backup.exists(&log) {
            oms::persist::load_journal(backup, &log)
                .unwrap_or_else(|e| panic!("shard-{i}.log must parse strictly: {e}"));
        }
    }
}

/// The second sync of an epoch *appends*: a crash that tears
/// participant b's append leaves a torn tail in the live log (not in
/// a staging file). Recovery drops the fragment and rolls the cross
/// commit back; the live service's next sync rewrites b's log whole,
/// so the fragment is never followed by appended records.
#[test]
fn a_torn_append_to_one_participant_heals_on_the_next_sync() {
    let root = VfsPath::parse(SHARD_DIR).unwrap();
    let w = cross_world();
    let (sa, _) = w.service.resolve_shard(w.cv_a.raw()).unwrap();
    let (sb, _) = w.service.resolve_shard(w.project_b.raw()).unwrap();

    let mut backup = Vfs::new();
    w.service.checkpoint(&mut backup, &root).unwrap();
    // The epoch's first sync rewrites every log whole.
    w.alice.create_cell(w.project_b, "leaf2").unwrap();
    w.service.sync(&mut backup, &root).unwrap();

    // The second sync appends the 2PC records to a's log, then b's
    // (one content write each, ascending shard order); tear b's.
    let cross_seq = w.alice.declare_comp_of(w.cv_a, w.cell_b).unwrap();
    backup.arm_faults(FaultPlan::new(0x2BC0_0003).torn_write(2).scope(&root));
    let err = w.service.sync(&mut backup, &root).unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("injected write fault: {}", epoch1_log(&root, sb))),
        "expected the injected fault on b's log, got {err:?}"
    );
    let stats = backup.disarm_faults().unwrap().stats();
    assert_eq!((stats.writes_seen, stats.faults_fired), (2, 1));

    let (recovered, report) = ShardedService::recover(&mut backup, &root).unwrap();
    assert_eq!(
        report.torn_segment.as_deref(),
        Some(format!("ck-1/shard-{sb}.log").as_str())
    );
    assert!(report.torn_offset.is_some(), "the tear has an offset");
    assert!(report.dropped_fragment.is_some());
    assert_eq!(report.rolled_back_prepares, vec![cross_seq]);
    assert!(recovered.view().router().cross_comp_edges().is_empty());

    // The heal: b's log is rewritten whole (a's is already intact and
    // is not written at all), so the strict loader accepts it.
    backup.arm_faults(FaultPlan::new(0).scope(&root));
    w.service.sync(&mut backup, &root).unwrap();
    let stats = backup.disarm_faults().unwrap().stats();
    assert_eq!(stats.writes_seen, 1, "only b's log is written");
    assert_logs_parse_strictly(&backup, &root);
    assert!(backup.exists(&epoch1_log(&root, sa)));

    let (healed, report) = ShardedService::recover(&mut backup, &root).unwrap();
    assert_eq!(report.torn_segment, None);
    assert_eq!(report.rolled_back_prepares, Vec::<u64>::new());
    assert_eq!(healed.view().router().cross_comp_edges().len(), 1);
    assert_eq!(
        healed.state_fingerprint().unwrap(),
        w.service.state_fingerprint().unwrap()
    );
}

/// A backup whose epoch-1 logs hold a torn tail on participant b and
/// a prepare whose commit record b never got, plus the seq of that
/// orphaned prepare and of the last commit before it.
fn damaged_backup(w: &CrossWorld, root: &VfsPath) -> (Vfs, u64, u64) {
    let mut backup = Vfs::new();
    w.service.checkpoint(&mut backup, root).unwrap();
    w.alice.create_cell(w.project_b, "leaf2").unwrap();
    let before_cross = w.service.stats().seq - 1;
    let cross_seq = w.alice.declare_comp_of(w.cv_a, w.cell_b).unwrap();
    w.alice.create_cell(w.project_b, "leaf3").unwrap();
    w.service.sync(&mut backup, root).unwrap();

    let (sb, _) = w.service.resolve_shard(w.project_b.raw()).unwrap();
    let log = epoch1_log(root, sb);
    let text = String::from_utf8(backup.read(&log).unwrap().to_vec()).unwrap();
    let kept: Vec<&str> = text.lines().filter(|l| !l.starts_with("cmit|")).collect();
    assert!(
        kept.len() < text.lines().count(),
        "b held the commit record"
    );
    backup
        .write(&log, format!("{}\nop|seq=9", kept.join("\n")).into_bytes())
        .unwrap();
    (backup, cross_seq, before_cross)
}

/// Commits two more ops on `service` (one per participant partition),
/// syncs, and requires a fresh recovery to land on `service`'s state
/// with every log parsing strictly — which fails if the first sync
/// after a recovery appended behind the torn tail or the abandoned
/// records instead of rewriting the logs.
fn commit_sync_and_recover_again(
    w: &CrossWorld,
    service: &ShardedService,
    root: &VfsPath,
    backup: &mut Vfs,
) {
    let session = service.open_session(w.alice.user());
    session.create_cell(w.project_b, "after-recovery").unwrap();
    session
        .apply_seq(Op::DeclareCompOf {
            user: w.alice.user(),
            cv: w.cv_a,
            child: w.cell_b,
        })
        .unwrap();
    service.sync(backup, root).unwrap();
    assert_logs_parse_strictly(backup, root);
    let (again, report) = ShardedService::recover(backup, root).unwrap();
    assert_eq!(report.torn_segment, None);
    assert_eq!(report.rolled_back_prepares, Vec::<u64>::new());
    assert_eq!(
        again.state_fingerprint().unwrap(),
        service.state_fingerprint().unwrap()
    );
}

#[test]
fn the_first_sync_after_recovery_rewrites_the_logs() {
    let root = VfsPath::parse(SHARD_DIR).unwrap();
    let w = cross_world();
    let (mut backup, cross_seq, _) = damaged_backup(&w, &root);

    let (recovered, report) = ShardedService::recover(&mut backup, &root).unwrap();
    assert!(report.torn_segment.is_some(), "the backup has a torn tail");
    assert_eq!(report.rolled_back_prepares, vec![cross_seq]);
    commit_sync_and_recover_again(&w, &recovered, &root, &mut backup);
}

#[test]
fn the_first_sync_after_a_point_in_time_fork_rewrites_the_logs() {
    let root = VfsPath::parse(SHARD_DIR).unwrap();
    let w = cross_world();
    let (mut backup, cross_seq, before_cross) = damaged_backup(&w, &root);

    // Fork before the cross commit: the logs still hold the records
    // past the fork point, which the fork's first sync must drop.
    let (forked, report) = ShardedService::recover_at(&mut backup, &root, before_cross).unwrap();
    assert_eq!(report.rolled_back_prepares, Vec::<u64>::new());
    assert_eq!(forked.stats().seq, before_cross + 1);
    assert!(forked.stats().seq <= cross_seq);
    commit_sync_and_recover_again(&w, &forked, &root, &mut backup);
}
