//! Point-in-time recovery: `Engine::recover_at` and
//! `ShardedService::recover_at` must restore *exactly* the state the
//! chain persisted at any requested sequence number — byte-identical
//! fingerprints at every commit boundary of a five-commit schedule,
//! under both staging modes and at 1/2/4 shards — and reject targets
//! the persisted records cannot reach with the typed
//! `SeqUnreachable` error.
//!
//! Fingerprint discipline: `state_fingerprint` reads the cost meter
//! first and then charges the walk, so every engine or service
//! instance is fingerprinted **once**. Reference prints come from
//! restoring a clone of the backup taken at the boundary; the
//! point-in-time prints come from `recover_at` against the final
//! backup. Equality proves the chain replays history, not just the
//! newest state.

use cad_vfs::{SplitMix64, Vfs, VfsPath};
use design_data::{format, generate};
use hybrid::{Engine, HybridError, ShardedService, StagingMode, ToolOutput};
use jcf::{CellId, CellVersionId, ProjectId, TeamId, UserId, VariantId};
use test_support::pick;

const DIR: &str = "/backup/pit";

/// Driver bookkeeping for the engine op stream.
struct World {
    alice: UserId,
    team: TeamId,
    project: ProjectId,
    cells: Vec<CellId>,
    slots: Vec<(CellVersionId, VariantId)>,
    next_cell: u32,
}

/// Bootstraps one engine (in `mode`) plus the ids the stream aims at.
fn bootstrap(mode: StagingMode) -> (Engine, hybrid::StandardFlow, World) {
    let mut en = Engine::builder().staging_mode(mode).build();
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
        next_cell: 0,
    };
    (en, flow, world)
}

/// Applies one random op; failures are journaled like any other op.
fn step(en: &mut Engine, rng: &mut SplitMix64, flow: &hybrid::StandardFlow, w: &mut World) {
    match rng.below(6) {
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
        3 => {
            if let Some(&(_, variant)) = pick(rng, &w.slots) {
                let gates = 1 + rng.below(12);
                let seed = rng.next_u64();
                let design = generate::random_logic(gates, seed);
                let bytes = format::write_netlist(&design.netlists[&design.top]).into_bytes();
                let _ = en.run_activity(w.alice, variant, flow.enter_schematic, false, move |_| {
                    Ok(vec![ToolOutput {
                        viewtype: "schematic".into(),
                        data: bytes.into(),
                    }])
                });
            } else {
                let _ = en.create_project("p");
            }
        }
        4 => {
            if let Some(&(cv, _)) = pick(rng, &w.slots) {
                let _ = en.publish(w.alice, cv);
            } else {
                let _ = en.create_project("p");
            }
        }
        _ => {
            en.create_project("p").expect_err("duplicate project");
        }
    }
}

/// One persistence call between op batches.
#[derive(Clone, Copy)]
enum Commit {
    Checkpoint,
    Sync,
}

/// Five commits; the 30+40 tail between the syncs outgrows the
/// 64-entry segment cap so sealed, open, and delta-retired segments
/// all appear in the chain that the targets walk.
const SCHEDULE: &[(usize, Commit)] = &[
    (40, Commit::Checkpoint),
    (30, Commit::Sync),
    (40, Commit::Sync),
    (30, Commit::Checkpoint),
    (20, Commit::Sync),
];

/// Runs the engine schedule, recording `(seq, reference fingerprint)`
/// at every commit boundary, and returns the final backup disk and
/// the boundaries.
fn run_engine_schedule(mode: StagingMode, seed: u64) -> (Vfs, Vec<(u64, String)>) {
    let dir = VfsPath::parse(DIR).unwrap();
    let mut rng = SplitMix64::new(seed);
    let (mut en, flow, mut world) = bootstrap(mode);
    let mut backup = Vfs::new();
    let mut boundaries = Vec::new();
    for &(ops, commit) in SCHEDULE {
        for _ in 0..ops {
            step(&mut en, &mut rng, &flow, &mut world);
        }
        match commit {
            Commit::Checkpoint => en.checkpoint(&mut backup, &dir).unwrap(),
            Commit::Sync => en.sync_journal(&mut backup, &dir).unwrap(),
        }
        let print = {
            let mut snap = backup.clone();
            Engine::restore_from(&mut snap, &dir)
                .unwrap()
                .state_fingerprint()
                .unwrap()
        };
        boundaries.push((en.seq(), print));
    }
    (backup, boundaries)
}

/// The headline single-engine matrix: every commit boundary of the
/// schedule restores byte-identically via `recover_at`, in both
/// staging modes.
#[test]
fn recover_at_restores_every_commit_boundary_in_both_staging_modes() {
    let dir = VfsPath::parse(DIR).unwrap();
    for mode in [StagingMode::ZeroCopy, StagingMode::DeepCopy] {
        let (mut backup, boundaries) = run_engine_schedule(mode, 0x9147_0001);
        assert_eq!(boundaries.len(), SCHEDULE.len());
        for (i, (seq, print)) in boundaries.iter().enumerate() {
            let (recovered, report) = Engine::recover_at(&mut backup, &dir, *seq)
                .unwrap_or_else(|e| panic!("{mode:?} boundary {i} (seq {seq}): {e:?}"));
            assert_eq!(recovered.seq(), *seq, "{mode:?} boundary {i}");
            assert_eq!(report.chain_break, None, "{mode:?} boundary {i}");
            assert_eq!(
                recovered.state_fingerprint().unwrap(),
                *print,
                "{mode:?} boundary {i} (seq {seq}) must restore byte-identically"
            );
        }
    }
}

/// Between the boundaries too: every persisted sequence number from
/// the base checkpoint to the newest synced entry is an exact target,
/// and both ends beyond the chain are typed `SeqUnreachable`.
#[test]
fn every_persisted_sequence_number_is_an_exact_target() {
    let dir = VfsPath::parse(DIR).unwrap();
    let (mut backup, boundaries) = run_engine_schedule(StagingMode::ZeroCopy, 0x9147_0002);
    let base_seq = boundaries.first().unwrap().0;
    let last_seq = boundaries.last().unwrap().0;

    for seq in base_seq..=last_seq {
        let (recovered, _) = Engine::recover_at(&mut backup, &dir, seq)
            .unwrap_or_else(|e| panic!("seq {seq}: {e:?}"));
        assert_eq!(recovered.seq(), seq);
    }

    let before = Engine::recover_at(&mut backup, &dir, base_seq - 1).unwrap_err();
    match before {
        HybridError::SeqUnreachable {
            requested,
            reachable,
        } => {
            assert_eq!(requested, base_seq - 1);
            assert_eq!(reachable, base_seq, "the base is the oldest boundary");
        }
        other => panic!("expected SeqUnreachable, got {other:?}"),
    }
    let past = Engine::recover_at(&mut backup, &dir, last_seq + 1).unwrap_err();
    assert_eq!(past.kind(), "seq-unreachable");
}

/// A recovered-then-resumed engine forks the timeline: its next
/// checkpoint commits the fork, and a plain restore then lands on the
/// forked state — the records beyond the fork point become garbage.
#[test]
fn recovering_mid_chain_and_resuming_forks_the_timeline() {
    let dir = VfsPath::parse(DIR).unwrap();
    let (mut backup, boundaries) = run_engine_schedule(StagingMode::ZeroCopy, 0x9147_0003);
    // Fork from the middle boundary (after the second sync).
    let (fork_seq, _) = boundaries[2];
    let (mut forked, _) = Engine::recover_at(&mut backup, &dir, fork_seq).unwrap();

    let project = forked.create_project("fork").unwrap();
    for i in 0..10 {
        forked.create_cell(project, &format!("fork{i}")).unwrap();
    }
    forked.checkpoint(&mut backup, &dir).unwrap();
    let forked_print = forked.state_fingerprint().unwrap();

    let restored = Engine::restore_from(&mut backup, &dir).unwrap();
    assert_eq!(restored.seq(), forked.seq());
    assert_eq!(restored.state_fingerprint().unwrap(), forked_print);
}

/// `compact` trades history for space: targets inside retired segment
/// windows become unreachable, while delta-checkpoint boundaries (and
/// everything past the newest one) survive.
#[test]
fn compaction_retires_mid_window_targets_but_keeps_boundaries() {
    let dir = VfsPath::parse(DIR).unwrap();
    let (mut backup, boundaries) = run_engine_schedule(StagingMode::ZeroCopy, 0x9147_0004);
    let base_seq = boundaries.first().unwrap().0;
    let delta_seq = boundaries[3].0; // the second Checkpoint
    let last_seq = boundaries.last().unwrap().0;

    let (mut owner, _) = Engine::recover_from(&mut backup, &dir).unwrap();
    let removed = owner.compact(&mut backup, &dir).unwrap();
    assert!(removed > 0, "the delta checkpoint retired segments");

    // Inside the retired window: gone, typed.
    let mid = (base_seq + delta_seq) / 2;
    assert!(mid > base_seq && mid < delta_seq, "schedule shrank");
    let err = Engine::recover_at(&mut backup, &dir, mid).unwrap_err();
    assert_eq!(err.kind(), "seq-unreachable");

    // Checkpoint boundaries and the live tail survive compaction.
    for seq in [base_seq, delta_seq, last_seq] {
        let (recovered, _) = Engine::recover_at(&mut backup, &dir, seq)
            .unwrap_or_else(|e| panic!("post-compact seq {seq}: {e:?}"));
        assert_eq!(recovered.seq(), seq);
    }
}

// ---------------------------------------------------------------------------
// Sharded point-in-time recovery
// ---------------------------------------------------------------------------

const ROOT: &str = "/backup/pit-shards";

/// Runs a five-commit schedule on a sharded service, recording at
/// every boundary the last committed sequence and the reference
/// fingerprint of a service recovered from a clone of the backup.
/// Returns the final backup and the boundaries.
fn run_sharded_schedule(shards: usize, mode: StagingMode) -> (Vfs, Vec<(u64, String)>) {
    let root = VfsPath::parse(ROOT).unwrap();
    let service = ShardedService::builder()
        .shards(shards)
        .staging_mode(mode)
        .build();
    let admin = service.open_session(service.admin());
    let team = admin.add_team("t").unwrap();
    let user = admin.add_user("alice", false).unwrap();
    admin.add_team_member(team, user).unwrap();
    let flow = admin.standard_flow("f").unwrap();
    let alice = service.open_session(user);

    // Spread projects across partitions; comp-of edges between them
    // exercise the cross-shard path whenever the names land apart.
    let projects: Vec<ProjectId> = ["alu16", "dsp", "rom", "fpu"]
        .iter()
        .map(|name| alice.create_project(name).unwrap())
        .collect();
    let mut rng = SplitMix64::new(0x51A2_0000 + shards as u64);
    let mut cells: Vec<CellId> = Vec::new();
    let mut slots: Vec<(CellVersionId, VariantId)> = Vec::new();
    let mut next_cell = 0u32;
    let mut stepper =
        |rng: &mut SplitMix64, cells: &mut Vec<CellId>, slots: &mut Vec<_>| match rng.below(5) {
            0 | 1 => {
                next_cell += 1;
                let project = *pick(rng, &projects).unwrap();
                let cell = alice
                    .create_cell(project, &format!("cell{next_cell}"))
                    .unwrap();
                cells.push(cell);
            }
            2 => {
                if let Some(&cell) = pick(rng, cells) {
                    let (cv, variant) = alice.create_cell_version(cell, flow.flow, team).unwrap();
                    alice.reserve(cv).unwrap();
                    slots.push((cv, variant));
                }
            }
            3 => {
                if let (Some(&(cv, _)), Some(&child)) = (pick(rng, slots), pick(rng, cells)) {
                    let _ = alice.declare_comp_of(cv, child);
                }
            }
            _ => {
                if let Some(&(_, variant)) = pick(rng, slots) {
                    let seed = rng.next_u64();
                    let design = generate::random_logic(4, seed);
                    let bytes = format::write_netlist(&design.netlists[&design.top]).into_bytes();
                    let _ = alice.run_activity(
                        variant,
                        flow.enter_schematic,
                        false,
                        vec![ToolOutput {
                            viewtype: "schematic".to_owned(),
                            data: bytes.into(),
                        }],
                        None,
                    );
                }
            }
        };

    let mut backup = Vfs::new();
    let mut boundaries = Vec::new();
    for &(ops, commit) in &[
        (12usize, Commit::Checkpoint),
        (10, Commit::Sync),
        (10, Commit::Sync),
        (10, Commit::Checkpoint),
        (8, Commit::Sync),
    ] {
        for _ in 0..ops {
            stepper(&mut rng, &mut cells, &mut slots);
        }
        match commit {
            Commit::Checkpoint => service.checkpoint(&mut backup, &root).unwrap(),
            Commit::Sync => service.sync(&mut backup, &root).unwrap(),
        }
        let target = alice.view().seq() - 1;
        let print = {
            let mut snap = backup.clone();
            ShardedService::recover(&mut snap, &root)
                .unwrap()
                .0
                .state_fingerprint()
                .unwrap()
        };
        boundaries.push((target, print));
    }
    (backup, boundaries)
}

/// The sharded matrix: every epoch and sync boundary of the schedule
/// restores byte-identically through `ShardedService::recover_at`, at
/// 1, 2 and 4 shards and in both staging modes; targets outside the
/// persisted window are typed `SeqUnreachable`.
#[test]
fn sharded_recover_at_restores_every_boundary_at_1_2_4_shards() {
    let root = VfsPath::parse(ROOT).unwrap();
    for shards in [1usize, 2, 4] {
        for mode in [StagingMode::ZeroCopy, StagingMode::DeepCopy] {
            let (mut backup, boundaries) = run_sharded_schedule(shards, mode);
            let first_epoch_target = boundaries[0].0;
            let last_target = boundaries.last().unwrap().0;
            for (i, (target, print)) in boundaries.iter().enumerate() {
                let (recovered, report) = ShardedService::recover_at(&mut backup, &root, *target)
                    .unwrap_or_else(|e| panic!("{shards} shard(s) {mode:?} boundary {i}: {e:?}"));
                assert_eq!(
                    report.rolled_back_prepares,
                    Vec::<u64>::new(),
                    "{shards} shard(s) {mode:?} boundary {i}: clean schedule"
                );
                assert_eq!(
                    recovered.view().seq(),
                    target + 1,
                    "{shards} shard(s) {mode:?} boundary {i}"
                );
                assert_eq!(
                    recovered.state_fingerprint().unwrap(),
                    *print,
                    "{shards} shard(s) {mode:?} boundary {i} (target {target})"
                );
            }

            // Before the first epoch checkpoint and past the newest
            // synced commit there is nothing to anchor to.
            for bad in [first_epoch_target.checked_sub(1), Some(last_target + 1)] {
                let Some(bad) = bad else { continue };
                let err = ShardedService::recover_at(&mut backup, &root, bad).unwrap_err();
                assert_eq!(
                    err.kind(),
                    "seq-unreachable",
                    "{shards} shard(s) {mode:?} target {bad}: {err:?}"
                );
            }
        }
    }
}
