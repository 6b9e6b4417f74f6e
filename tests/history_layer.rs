//! The time-travel layer end to end: retention policies and pins,
//! `Session::at` history reads, branch workspaces with deterministic
//! merge-forward conflicts, impact queries on retained snapshots, and
//! the wire-level history surface of `cad-net`.
//!
//! The §15 contract under test:
//!
//! * history reads are `&self`, answer exactly what the retained seq
//!   saw, and never touch (or block on) the write path;
//! * misses are the typed `SeqUnreachable` error naming the closest
//!   retained boundary;
//! * `merge_forward` commits either `MergeApplied` or a typed
//!   `MergeConflict` event — the conflict changes nothing and is
//!   byte-identical at every shard count;
//! * the `cad-net` history requests answer like the in-process
//!   service, scoped to the session's authenticated user, without
//!   executing ops.

use cad_net::{Backend, Client, Server, ServerConfig, WireError};
use cad_vfs::Blob;
use hybrid::{
    Engine, Event, HybridError, MergeConflict, Op, RetentionPolicy, Service, ShardedService,
    ToolOutput,
};
use jcf::{CellVersionId, DesignObjectId, DovId, TeamId, UserId, VariantId};
use test_support::{pick, SplitMix64};

// --- single-engine scaffolding ------------------------------------------

/// A service with two designers, one project, one cell version and one
/// published design object version — the smallest §2.1 cast that can
/// branch, merge and conflict.
struct HistoryRig {
    service: Service,
    alice: hybrid::Session,
    bob: hybrid::Session,
    flow: hybrid::StandardFlow,
    team: TeamId,
    cv: CellVersionId,
    variant: VariantId,
    dov: DovId,
    /// The commit seq right after the first activity (dov exists,
    /// still unpublished).
    staged_seq: u64,
    /// The commit seq right after the publish.
    published_seq: u64,
}

fn rig_with(policy: RetentionPolicy) -> HistoryRig {
    let service = Service::with_retention(Engine::builder().build(), policy);
    let admin = service.open_session(service.admin());
    let alice_id = admin.add_user("alice", false).expect("alice");
    let bob_id = admin.add_user("bob", false).expect("bob");
    let team = admin.add_team("asic").expect("team");
    admin.add_team_member(team, alice_id).expect("alice joins");
    admin.add_team_member(team, bob_id).expect("bob joins");
    let flow = admin.standard_flow("asic").expect("flow");
    let project = admin.create_project("alu16").expect("project");
    let cell = admin.create_cell(project, "adder").expect("cell");
    let (cv, variant) = admin
        .create_cell_version(cell, flow.flow, team)
        .expect("cell version");
    let alice = service.open_session(alice_id);
    let bob = service.open_session(bob_id);
    alice.reserve(cv).expect("reserve");
    let (staged_seq, event) = alice
        .apply_seq(Op::RunActivity {
            user: alice_id,
            variant,
            activity: flow.enter_schematic,
            override_pending: false,
            outputs: vec![("schematic".into(), Blob::from(b"netlist v1".to_vec()))],
            session_error: None,
        })
        .expect("activity");
    let dov = match event {
        Event::ActivityRun { dovs } => dovs[0],
        other => panic!("activity produced {other:?}"),
    };
    alice.publish(cv).expect("publish");
    let published_seq = staged_seq + 1;
    HistoryRig {
        service,
        alice,
        bob,
        flow,
        team,
        cv,
        variant,
        dov,
        staged_seq,
        published_seq,
    }
}

fn rig() -> HistoryRig {
    rig_with(RetentionPolicy::default())
}

// --- retention ----------------------------------------------------------

#[test]
fn last_n_retention_is_a_sliding_window_with_typed_misses() {
    let rig = rig_with(RetentionPolicy::LastN(3));
    for i in 0..4 {
        rig.alice
            .apply(Op::CreateProject {
                name: format!("w{i}"),
            })
            .expect("fresh project");
    }
    let head = rig.service.snapshot().seq();
    let retained = rig.service.retained_seqs();
    assert_eq!(retained, vec![head - 2, head - 1, head]);
    // An evicted seq misses with the closest retained boundary.
    match rig.alice.at(rig.staged_seq).unwrap_err() {
        HybridError::SeqUnreachable {
            requested,
            reachable,
        } => {
            assert_eq!(requested, rig.staged_seq);
            assert_eq!(reachable, head - 2, "the closest retained boundary");
        }
        other => panic!("expected SeqUnreachable, got {other:?}"),
    }
    assert_eq!(rig.alice.at(head).expect("head retained").seq(), head);
}

#[test]
fn every_nth_retention_keeps_checkpoint_cadence_seqs() {
    let rig = rig_with(RetentionPolicy::EveryNth { stride: 5, cap: 8 });
    for i in 0..9 {
        rig.alice
            .apply(Op::CreateProject {
                name: format!("w{i}"),
            })
            .expect("fresh project");
    }
    for seq in rig.service.retained_seqs() {
        assert_eq!(seq % 5, 0, "stride-5 policy retained seq {seq}");
    }
    assert!(!rig.service.retained_seqs().is_empty());
}

#[test]
fn pins_survive_eviction_until_unpinned() {
    let rig = rig_with(RetentionPolicy::LastN(2));
    let pinned = rig.service.snapshot().seq();
    rig.service.pin(pinned).expect("pin a retained seq");
    for i in 0..6 {
        rig.alice
            .apply(Op::CreateProject {
                name: format!("w{i}"),
            })
            .expect("fresh project");
    }
    assert!(
        rig.service.retained_seqs().contains(&pinned),
        "pinned seq outlives the LastN(2) window"
    );
    assert_eq!(rig.alice.at(pinned).expect("pinned read").seq(), pinned);
    assert!(rig.service.unpin(pinned));
    assert!(!rig.service.unpin(pinned), "unpin is idempotent");
    assert!(
        rig.alice.at(pinned).is_err(),
        "unpinned seq falls out of the evicted window"
    );
    // Pinning something never retained is the same typed miss.
    assert!(matches!(
        rig.service.pin(99_999).unwrap_err(),
        HybridError::SeqUnreachable { .. }
    ));
}

// --- time-travel reads --------------------------------------------------

#[test]
fn history_views_answer_what_the_retained_seq_saw() {
    let rig = rig();
    // Before the publish, bob could not see the dov; after, he can.
    let before = rig.bob.at(rig.staged_seq).expect("retained");
    assert_eq!(before.seq(), rig.staged_seq);
    assert!(
        before.read_design_data(rig.dov).is_err(),
        "unpublished data stays invisible to bob at the old seq"
    );
    let after = rig.bob.at(rig.published_seq).expect("retained");
    assert_eq!(
        after.read_design_data(rig.dov).expect("published"),
        Blob::from(b"netlist v1".to_vec())
    );
    // The holder saw it at both seqs (browse and read agree).
    let alices = rig.alice.at(rig.staged_seq).expect("retained");
    let read = alices.read_design_data(rig.dov).expect("holder reads");
    assert_eq!(alices.browse(rig.dov).expect("holder browses"), read);
    assert_eq!(read, Blob::from(b"netlist v1".to_vec()));
}

#[test]
fn history_reads_are_zero_copy_and_never_journal() {
    let rig = rig();
    let hv = rig.alice.at(rig.published_seq).expect("retained");
    let seq_before = rig.service.snapshot().seq();
    let copies_before = Blob::materializations();
    let a = hv.read_design_data(rig.dov).expect("read");
    let b = hv.browse(rig.dov).expect("browse");
    assert!(Blob::ptr_eq(&a, &b), "one shared payload");
    assert_eq!(Blob::materializations(), copies_before, "no byte copies");
    assert_eq!(
        rig.service.snapshot().seq(),
        seq_before,
        "nothing journaled"
    );
}

#[test]
fn apply_seq_gives_read_your_writes_time_travel() {
    let rig = rig();
    let (seq, event) = rig
        .alice
        .apply_seq(Op::CreateProject { name: "rw".into() })
        .expect("fresh project");
    let project = match event {
        Event::ProjectCreated(id) => id,
        other => panic!("create-project produced {other:?}"),
    };
    let hv = rig.alice.at(seq).expect("own write retained");
    assert_eq!(hv.library_of(project).expect("own write visible"), "rw");
    // One seq earlier the project does not exist yet.
    let prev = rig.alice.at(seq - 1).expect("previous seq retained");
    assert!(prev.library_of(project).is_err());
}

#[test]
fn history_views_are_isolated_from_later_writes_and_block_no_writers() {
    let rig = rig();
    let hv = rig.alice.at(rig.published_seq).expect("retained");
    let frozen = hv.read_design_data(rig.dov).expect("frozen read");
    // A writer hammers the head from another thread while the history
    // view keeps answering; `&self` reads hold no engine lock, so the
    // writer finishes regardless of reader cadence.
    std::thread::scope(|scope| {
        let bob = &rig.bob;
        let writer = scope.spawn(move || {
            for i in 0..50 {
                bob.apply(Op::CreateProject {
                    name: format!("live{i}"),
                })
                .expect("fresh project");
            }
        });
        for _ in 0..200 {
            assert_eq!(hv.read_design_data(rig.dov).expect("stable read"), frozen);
        }
        writer.join().expect("writer thread");
    });
    assert_eq!(hv.seq(), rig.published_seq, "the view never advances");
    assert!(rig.service.snapshot().seq() >= rig.published_seq + 50);
}

// --- branch workspaces --------------------------------------------------

#[test]
fn a_clean_merge_lands_staged_writes_on_the_head() {
    let rig = rig();
    let mut ws = rig
        .alice
        .reserve_at(rig.cv, rig.published_seq)
        .expect("branch");
    assert_eq!(ws.base_seq(), rig.published_seq);
    assert_eq!(ws.user(), rig.alice.user());
    assert_eq!(ws.cv(), rig.cv);
    let object = ws.objects().next().expect("branch point knew the object");
    ws.stage(object, Blob::from(b"netlist v2".to_vec()))
        .expect("stage");
    assert_eq!(ws.staged().collect::<Vec<_>>(), vec![object]);
    let (seq, event) = ws.merge_forward().expect("merge");
    let merged = match event {
        Event::MergeApplied { cv, dovs } => {
            assert_eq!(cv, rig.cv);
            assert_eq!(dovs.len(), 1);
            dovs[0]
        }
        other => panic!("clean merge produced {other:?}"),
    };
    // The merge published, so even bob reads the new version at head.
    assert_eq!(
        rig.bob.read_design_data(merged).expect("published merge"),
        Blob::from(b"netlist v2".to_vec())
    );
    // And read-your-writes: the merge seq answers the same.
    assert_eq!(
        rig.alice
            .at(seq)
            .expect("merge seq retained")
            .read_design_data(merged)
            .expect("visible"),
        Blob::from(b"netlist v2".to_vec())
    );
}

#[test]
fn restaging_an_object_replaces_the_earlier_data() {
    let rig = rig();
    let mut ws = rig
        .alice
        .reserve_at(rig.cv, rig.published_seq)
        .expect("branch");
    let object = ws.objects().next().expect("object");
    ws.stage(object, Blob::from(b"draft".to_vec()))
        .expect("stage");
    ws.stage(object, Blob::from(b"final".to_vec()))
        .expect("restage");
    assert_eq!(ws.staged().count(), 1, "one staged write per object");
    let (_, event) = ws.merge_forward().expect("merge");
    let Event::MergeApplied { dovs, .. } = event else {
        panic!("clean merge expected")
    };
    assert_eq!(
        rig.alice.read_design_data(dovs[0]).expect("merged"),
        Blob::from(b"final".to_vec())
    );
}

#[test]
fn stage_rejects_objects_the_branch_point_never_knew() {
    let rig = rig();
    let mut ws = rig
        .alice
        .reserve_at(rig.cv, rig.published_seq)
        .expect("branch");
    let foreign = DesignObjectId::from_raw(u64::MAX - 7);
    match ws.stage(foreign, Blob::from(b"x".to_vec())).unwrap_err() {
        HybridError::Merge(msg) => assert!(msg.contains("did not exist"), "{msg}"),
        other => panic!("expected Merge, got {other:?}"),
    }
}

#[test]
fn a_moved_head_surfaces_design_object_advanced_and_changes_nothing() {
    let rig = rig();
    let mut ws = rig
        .alice
        .reserve_at(rig.cv, rig.published_seq)
        .expect("branch");
    let object = ws.objects().next().expect("object");
    ws.stage(object, Blob::from(b"branch work".to_vec()))
        .expect("stage");
    // Meanwhile the head moves: alice herself advances the same design
    // object through the live path and publishes.
    rig.alice.reserve(rig.cv).expect("live reserve");
    rig.alice
        .run_activity(
            rig.variant,
            rig.flow.enter_schematic,
            false,
            vec![ToolOutput {
                viewtype: "schematic".into(),
                data: Blob::from(b"live v2".to_vec()),
            }],
            None,
        )
        .expect("live activity");
    rig.alice.publish(rig.cv).expect("live publish");
    let versions_before = rig
        .alice
        .snapshot()
        .jcf()
        .versions_of_design_object(object)
        .len();
    let (seq, event) = ws.merge_forward().expect("conflicts commit as events");
    match event {
        Event::MergeConflict { cv, conflicts } => {
            assert_eq!(cv, rig.cv);
            assert_eq!(
                conflicts,
                vec![MergeConflict::DesignObjectAdvanced {
                    design_object: object,
                    expected: 1,
                    found: 2,
                }]
            );
        }
        other => panic!("expected a conflict, got {other:?}"),
    }
    assert!(seq > 0);
    // No state change: the conflict landed as an event only.
    let versions_after = rig
        .alice
        .snapshot()
        .jcf()
        .versions_of_design_object(object)
        .len();
    assert_eq!(versions_after, versions_before, "conflict wrote nothing");
}

#[test]
fn a_held_reservation_surfaces_reserved_by_other() {
    let rig = rig();
    let mut ws = rig
        .alice
        .reserve_at(rig.cv, rig.published_seq)
        .expect("branch");
    let object = ws.objects().next().expect("object");
    ws.stage(object, Blob::from(b"branch work".to_vec()))
        .expect("stage");
    rig.bob.reserve(rig.cv).expect("bob takes the head");
    let (_, event) = ws.merge_forward().expect("conflicts commit as events");
    match event {
        Event::MergeConflict { conflicts, .. } => {
            assert_eq!(
                conflicts,
                vec![MergeConflict::ReservedByOther {
                    holder: rig.bob.user()
                }]
            );
        }
        other => panic!("expected a conflict, got {other:?}"),
    }
}

// --- impact queries -----------------------------------------------------

/// Two coupled cells with one published dov each, marked equivalent at
/// a recorded seq: the minimal derivation/equivalence graph where the
/// impact answer flips between two retained snapshots.
fn impact_rig() -> (HistoryRig, DovId, u64, u64) {
    let rig = rig();
    let admin = rig.service.open_session(rig.service.admin());
    let project = admin.create_project("filter").expect("project");
    let cell = admin.create_cell(project, "fir").expect("cell");
    let (cv2, variant2) = admin
        .create_cell_version(cell, rig.flow.flow, rig.team)
        .expect("cell version");
    let _ = cv2;
    rig.bob.reserve(cv2).expect("reserve");
    let dovs = rig
        .bob
        .run_activity(
            variant2,
            rig.flow.enter_schematic,
            false,
            vec![ToolOutput {
                viewtype: "schematic".into(),
                data: Blob::from(b"fir netlist".to_vec()),
            }],
            None,
        )
        .expect("activity");
    rig.bob.publish(cv2).expect("publish");
    let before_seq = rig.service.snapshot().seq();
    let (mark_seq, _) = rig
        .bob
        .apply_seq(Op::MarkEquivalent {
            a: rig.dov,
            b: dovs[0],
        })
        .expect("mark equivalent");
    (rig, dovs[0], before_seq, mark_seq)
}

#[test]
fn impact_queries_answer_on_any_retained_snapshot() {
    let (rig, other_dov, before_seq, mark_seq) = impact_rig();
    // Before the equivalence mark, changing rig.cv impacts nothing.
    let before = rig.alice.at(before_seq).expect("retained");
    assert_eq!(before.stale_dovs(rig.cv), Vec::<DovId>::new());
    assert!(before.impacted_cellviews(rig.cv).is_empty());
    // From the mark on, the other cell's dov goes stale — with its
    // FMCAD mirror coordinates, since the activity mirrored it.
    let after = rig.alice.at(mark_seq).expect("retained");
    assert_eq!(after.stale_dovs(rig.cv), vec![other_dov]);
    let impacted = after.impacted_cellviews(rig.cv);
    assert_eq!(impacted.len(), 1);
    let (dov, mirror) = &impacted[0];
    assert_eq!(*dov, other_dov);
    assert_eq!(mirror.library, "filter");
    assert_eq!(mirror.view, "schematic");
    // The historical answer matches the live snapshot's at equal seq.
    assert_eq!(
        rig.alice.snapshot().stale_dovs(rig.cv),
        after.stale_dovs(rig.cv),
        "head still answers identically (nothing changed since)"
    );
}

/// The wire backend's impact answer comes from one graph walk; it must
/// equal the two separate public queries on both write stacks, before
/// and after the equivalence mark that makes it non-empty.
#[test]
fn one_walk_impact_equals_the_two_queries_on_both_write_stacks() {
    let (rig, other_dov, before_seq, mark_seq) = impact_rig();
    for seq in [before_seq, mark_seq] {
        let snap = rig.service.at(seq).expect("retained");
        let two_calls = (snap.stale_dovs(rig.cv), snap.impacted_cellviews(rig.cv));
        assert_eq!(snap.impact(rig.cv), two_calls, "single engine at {seq}");
        assert_eq!(
            Backend::history_impact(&rig.service, seq, rig.cv).expect("single engine"),
            two_calls
        );
    }
    assert_eq!(
        rig.service.at(mark_seq).unwrap().impact(rig.cv).0,
        vec![other_dov]
    );

    for shards in 1..=3 {
        let service = ShardedService::builder()
            .shards(shards)
            .retention(RetentionPolicy::LastN(64))
            .build();
        let admin = service.open_session(service.admin());
        let alice_id = admin.add_user("alice", false).expect("alice");
        let team = admin.add_team("asic").expect("team");
        admin.add_team_member(team, alice_id).expect("alice joins");
        let flow = admin.standard_flow("asic").expect("flow");
        let alice = service.open_session(alice_id);
        let mut cvs = Vec::new();
        let mut dovs = Vec::new();
        for (project, cell) in [("alu16", "adder"), ("filter", "fir")] {
            let project = admin.create_project(project).expect("project");
            let cell = admin.create_cell(project, cell).expect("cell");
            let (cv, variant) = admin
                .create_cell_version(cell, flow.flow, team)
                .expect("cell version");
            alice.reserve(cv).expect("reserve");
            let out = alice
                .run_activity(
                    variant,
                    flow.enter_schematic,
                    false,
                    vec![ToolOutput {
                        viewtype: "schematic".into(),
                        data: Blob::from(b"netlist".to_vec()),
                    }],
                    None,
                )
                .expect("activity");
            alice.publish(cv).expect("publish");
            cvs.push(cv);
            dovs.push(out[0]);
        }
        let (mark_seq, _) = alice
            .apply_seq(Op::MarkEquivalent {
                a: dovs[0],
                b: dovs[1],
            })
            .expect("cross-partition equivalence");
        let view = service.at(mark_seq).expect("retained");
        let two_calls = (
            view.stale_dovs(cvs[0]).expect("stale"),
            view.impacted_cellviews(cvs[0]).expect("impacted"),
        );
        assert_eq!(two_calls.0, vec![dovs[1]], "{shards} shards");
        assert_eq!(two_calls.1.len(), 1, "{shards} shards");
        assert_eq!(view.impact(cvs[0]).expect("impact"), two_calls);
        assert_eq!(
            Backend::history_impact(&service, mark_seq, cvs[0]).expect("sharded"),
            two_calls,
            "{shards} shards"
        );
    }
}

// --- sharded determinism ------------------------------------------------

/// Runs the full branch/merge scenario — clean merge, advanced-object
/// conflict, held-reservation conflict — on a sharded service and
/// renders every outcome. The transcript must not depend on the shard
/// count.
fn sharded_merge_transcript(shards: usize) -> Vec<String> {
    let service = ShardedService::builder()
        .shards(shards)
        .retention(RetentionPolicy::LastN(256))
        .build();
    let admin = service.open_session(service.admin());
    let alice_id = admin.add_user("alice", false).expect("alice");
    let bob_id = admin.add_user("bob", false).expect("bob");
    let team = admin.add_team("asic").expect("team");
    admin.add_team_member(team, alice_id).expect("alice joins");
    admin.add_team_member(team, bob_id).expect("bob joins");
    let flow = admin.standard_flow("asic").expect("flow");
    let alice = service.open_session(alice_id);
    let bob = service.open_session(bob_id);
    let mut transcript = Vec::new();
    // Three projects so successive cells spread across partitions.
    for (i, name) in ["alu16", "filter", "uart"].iter().enumerate() {
        let project = admin.create_project(name).expect("project");
        let cell = admin.create_cell(project, "top").expect("cell");
        let (cv, variant) = admin
            .create_cell_version(cell, flow.flow, team)
            .expect("cell version");
        alice.reserve(cv).expect("reserve");
        alice
            .run_activity(
                variant,
                flow.enter_schematic,
                false,
                vec![ToolOutput {
                    viewtype: "schematic".into(),
                    data: Blob::from(format!("netlist {i}")),
                }],
                None,
            )
            .expect("activity");
        let base_seq = alice.publish(cv).expect("publish");
        let mut ws = alice.reserve_at(cv, base_seq).expect("branch");
        let object = ws.objects().next().expect("object");
        ws.stage(object, Blob::from(format!("branch {i}")))
            .expect("stage");
        match i {
            // Scenario 0: clean merge.
            0 => {}
            // Scenario 1: the object advances underneath the branch.
            1 => {
                alice.reserve(cv).expect("live reserve");
                alice
                    .run_activity(
                        variant,
                        flow.enter_schematic,
                        false,
                        vec![ToolOutput {
                            viewtype: "schematic".into(),
                            data: Blob::from(b"live v2".to_vec()),
                        }],
                        None,
                    )
                    .expect("live activity");
                alice.publish(cv).expect("live publish");
            }
            // Scenario 2: bob holds the reservation at merge time.
            _ => {
                bob.reserve(cv).expect("bob reserves");
            }
        }
        let (seq, event) = ws.merge_forward().expect("merge commits");
        transcript.push(format!("{seq}|{event:?}"));
    }
    transcript
}

#[test]
fn merge_outcomes_are_identical_at_every_shard_count() {
    let reference = sharded_merge_transcript(1);
    assert!(
        reference[0].contains("MergeApplied"),
        "scenario 0 merges cleanly: {}",
        reference[0]
    );
    assert!(
        reference[1].contains("DesignObjectAdvanced"),
        "scenario 1 conflicts on the advanced object: {}",
        reference[1]
    );
    assert!(
        reference[2].contains("ReservedByOther"),
        "scenario 2 conflicts on the held reservation: {}",
        reference[2]
    );
    for shards in [2usize, 4] {
        assert_eq!(
            sharded_merge_transcript(shards),
            reference,
            "{shards}-shard merge transcript diverged"
        );
    }
}

#[test]
fn sharded_time_travel_reads_the_past() {
    let service = ShardedService::builder()
        .shards(3)
        .retention(RetentionPolicy::LastN(256))
        .build();
    let admin = service.open_session(service.admin());
    let alice_id = admin.add_user("alice", false).expect("alice");
    let bob_id = admin.add_user("bob", false).expect("bob");
    let team = admin.add_team("asic").expect("team");
    admin.add_team_member(team, alice_id).expect("alice joins");
    admin.add_team_member(team, bob_id).expect("bob joins");
    let flow = admin.standard_flow("asic").expect("flow");
    let project = admin.create_project("alu16").expect("project");
    let cell = admin.create_cell(project, "adder").expect("cell");
    let (cv, variant) = admin
        .create_cell_version(cell, flow.flow, team)
        .expect("cell version");
    let alice = service.open_session(alice_id);
    let bob = service.open_session(bob_id);
    alice.reserve(cv).expect("reserve");
    let dovs = alice
        .run_activity(
            variant,
            flow.enter_schematic,
            false,
            vec![ToolOutput {
                viewtype: "schematic".into(),
                data: Blob::from(b"netlist v1".to_vec()),
            }],
            None,
        )
        .expect("activity");
    let published_seq = alice.publish(cv).expect("publish");
    let staged_seq = published_seq - 1;
    // Bob travels: invisible before the publish, visible after.
    let before = bob.at(staged_seq).expect("retained");
    assert!(before.read_design_data(dovs[0]).is_err());
    let after = bob.at(published_seq).expect("retained");
    assert_eq!(
        after.read_design_data(dovs[0]).expect("published"),
        Blob::from(b"netlist v1".to_vec())
    );
    // Typed misses name a boundary, exactly like the single engine.
    assert!(matches!(
        bob.at(published_seq + 50_000).unwrap_err(),
        HybridError::SeqUnreachable { .. }
    ));
    // Impact queries run on retained sharded views too.
    assert_eq!(
        after.stale_dovs(cv).expect("resolvable cv"),
        Vec::<DovId>::new()
    );
    assert!(after.impacted_cellviews(cv).expect("resolvable").is_empty());
}

// --- one session type over both write stacks ------------------------------

/// Drives one seeded typed-session script through a fresh `Service` or
/// `ShardedService` and renders every outcome without ids (which are
/// local on one engine and virtual across shards): successes as `ok`
/// with their commit seq (counted from the end of the set-up, since a
/// single engine numbers from 1 and the shard router from 0) or
/// id-free payload, failures as `err|kind`,
/// reads as bytes. Live session reads also assert that they commit
/// nothing and copy nothing. The session's stack bound is private to
/// `hybrid`, so a macro rather than a generic fn runs the one script
/// over both stacks.
macro_rules! session_parity_script {
    ($service:expr, $seed:expr) => {{
        let service = $service;
        let head = || *service.retained_seqs().last().expect("head retained");
        let render = |r: Result<Blob, HybridError>| match r {
            Ok(blob) => format!("ok|{:?}", String::from_utf8_lossy(blob.as_slice())),
            Err(e) => format!("err|{}", e.kind()),
        };
        let kind = |e: HybridError| format!("err|{}", e.kind());
        let mut rng = SplitMix64::new($seed);
        let mut out = Vec::new();

        let admin = service.open_session(service.admin());
        let alice_id = admin.add_user("alice", false).expect("alice");
        let bob_id = admin.add_user("bob", false).expect("bob");
        out.push(
            admin
                .add_user("alice", false)
                .map_or_else(kind, |_| "ok".into()),
        );
        let team = admin.add_team("asic").expect("team");
        admin.add_team_member(team, alice_id).expect("alice joins");
        admin.add_team_member(team, bob_id).expect("bob joins");
        let flow = admin.standard_flow("asic").expect("flow");
        let alice = service.open_session(alice_id);
        let bob = service.open_session(bob_id);
        // Three partitions, each with a versioned top cell and a leaf
        // cell. Hierarchy stays inside one partition: across partitions
        // the shard router records a comp-of without the reservation
        // and cross-project checks a single engine runs.
        let (mut cells, mut slots, mut dovs, mut seqs) = (vec![], vec![], vec![], vec![]);
        for (p, name) in ["alu16", "filter", "uart"].into_iter().enumerate() {
            let project = alice.create_project(name).expect("project");
            let top = alice.create_cell(project, "top").expect("cell");
            cells.push((p, alice.create_cell(project, "leaf").expect("cell")));
            let (cv, variant) = alice
                .create_cell_version(top, flow.flow, team)
                .expect("cell version");
            slots.push((p, cv, variant));
        }
        out.push(
            alice
                .create_project("alu16")
                .map_or_else(kind, |_| "ok".into()),
        );
        let base = head();
        let ok = |seq: u64| format!("ok|{}", seq - base);

        for step in 0..120 {
            // Alice drives two steps in three, Bob the rest.
            let me = if rng.chance(1, 3) { &bob } else { &alice };
            let line = match rng.below(11) {
                0..=2 => match pick(&mut rng, &slots) {
                    Some(&(p, _, variant)) => {
                        let data = Blob::from(format!("netlist {step} {}", rng.next_u64()));
                        let failed = rng.chance(1, 8).then(|| "simulator crashed".to_owned());
                        let outputs = vec![ToolOutput {
                            viewtype: "schematic".into(),
                            data,
                        }];
                        match me.run_activity(variant, flow.enter_schematic, false, outputs, failed)
                        {
                            Ok(new) => {
                                dovs.extend(new.iter().map(|&dov| (p, dov, head())));
                                format!("ok|{} dovs", new.len())
                            }
                            Err(e) => kind(e),
                        }
                    }
                    None => "skip".into(),
                },
                3 | 4 => match pick(&mut rng, &slots) {
                    Some(&(_, cv, _)) => me.reserve(cv).map_or_else(kind, ok),
                    None => "skip".into(),
                },
                5 => match pick(&mut rng, &slots) {
                    Some(&(_, cv, _)) => me.publish(cv).map_or_else(kind, ok),
                    None => "skip".into(),
                },
                6 => match (pick(&mut rng, &slots), pick(&mut rng, &cells)) {
                    (Some(&(p, cv, _)), Some(&(q, child))) if p == q => {
                        me.declare_comp_of(cv, child).map_or_else(kind, ok)
                    }
                    _ => "skip".into(),
                },
                7 => match (pick(&mut rng, &dovs), pick(&mut rng, &dovs)) {
                    (Some(&(_, a, _)), Some(&(_, b, _))) => {
                        me.mark_equivalent(a, b).map_or_else(kind, ok)
                    }
                    _ => "skip".into(),
                },
                8 => match pick(&mut rng, &slots) {
                    Some(&(p, cv, _)) => {
                        let name = format!("v{}", rng.below(4));
                        match me.derive_variant(cv, &name, None) {
                            Ok(variant) => {
                                slots.push((p, cv, variant));
                                "ok|derived".into()
                            }
                            Err(e) => kind(e),
                        }
                    }
                    None => "skip".into(),
                },
                9 => match pick(&mut rng, &dovs) {
                    Some(&(_, dov, _)) => {
                        let before = (head(), Blob::materializations());
                        let line = format!(
                            "{} {}",
                            render(me.browse(dov)),
                            render(me.read_design_data(dov))
                        );
                        assert_eq!(
                            (head(), Blob::materializations()),
                            before,
                            "step {step}: session reads committed or copied"
                        );
                        line
                    }
                    None => "skip".into(),
                },
                // Unknown ids are typed differently per stack (`jcf` on
                // one engine, `shard-routing` across shards), so history
                // reads only ask for versions that existed at the seq.
                _ => match (pick(&mut rng, &seqs), pick(&mut rng, &dovs)) {
                    (Some(&seq), Some(&(_, dov, born))) if born <= seq => match me.at(seq) {
                        Ok(hv) => format!("at {} {}", hv.seq() - base, render(hv.browse(dov))),
                        Err(e) => kind(e),
                    },
                    _ => "skip".into(),
                },
            };
            seqs.push(head());
            out.push(format!("{step}|{line}"));
        }

        // Branch every cell version off a mid-script seq and merge it
        // back onto the head.
        let branch_at = seqs.get(seqs.len() / 2).copied().unwrap_or(base);
        let who = |user: UserId| if user == alice_id { "alice" } else { "bob" };
        for &(_, cv, _) in &slots[..3] {
            let mut ws = alice
                .reserve_at(cv, branch_at)
                .expect("branch point retained");
            let objects: Vec<_> = ws.objects().collect();
            for (i, object) in objects.into_iter().enumerate() {
                ws.stage(object, Blob::from(format!("branch {i}")))
                    .expect("stage");
            }
            out.push(match ws.merge_forward() {
                Ok((seq, Event::MergeConflict { conflicts, .. })) => {
                    let conflicts: Vec<String> = conflicts
                        .iter()
                        .map(|c| match c {
                            MergeConflict::ReservedByOther { holder } => {
                                format!("reserved-by-{}", who(*holder))
                            }
                            MergeConflict::DesignObjectAdvanced {
                                expected, found, ..
                            } => {
                                format!("advanced-{expected}-{found}")
                            }
                        })
                        .collect();
                    format!("merge {} conflict {conflicts:?}", seq - base)
                }
                Ok((seq, event)) => format!("merge {} {}", seq - base, event.kind_name()),
                Err(e) => kind(e),
            });
        }
        out
    }};
}

/// The one `Session` type answers identically over both write stacks:
/// the same results and error kinds, the same bytes live and through
/// `at(seq)`, the same merge outcomes — and its live reads are
/// snapshot reads at every shard count.
#[test]
fn one_session_type_answers_identically_on_both_write_stacks() {
    let seed = 0x5E55_0015_1995_0306;
    let retention = RetentionPolicy::LastN(512);
    let reference = session_parity_script!(
        Service::with_retention(Engine::builder().build(), retention),
        seed
    );
    for shards in [1usize, 2, 4] {
        let sharded = session_parity_script!(
            ShardedService::builder()
                .shards(shards)
                .retention(retention)
                .build(),
            seed
        );
        for (n, (have, want)) in sharded.iter().zip(&reference).enumerate() {
            assert_eq!(have, want, "{shards}-shard session diverged at line {n}");
        }
        assert_eq!(sharded.len(), reference.len());
    }
}

// --- the wire surface ---------------------------------------------------

/// Binds a server over the rig's service and returns connected
/// sessions for alice and bob.
fn wire_pair(rig: &HistoryRig) -> (Server, Client, Client) {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::default(), rig.service.clone()).expect("bind");
    let addr = server.local_addr();
    let alice = Client::connect(addr, "alice").expect("alice connects");
    let bob = Client::connect(addr, "bob").expect("bob connects");
    (server, alice, bob)
}

#[test]
fn history_crosses_the_wire_scoped_to_the_session_user() {
    let rig = rig();
    let (server, mut alice, mut bob) = wire_pair(&rig);
    // retained: the wire answer equals the in-process ring.
    assert_eq!(
        alice.history_retained().expect("retained over the wire"),
        rig.service.retained_seqs()
    );
    // history-read at the pre-publish seq: the dov was visible to its
    // holder only, and the server binds each session to its
    // authenticated user — bob gets the typed rejection.
    let bytes = alice
        .history_read(rig.staged_seq, rig.dov.raw())
        .expect("holder reads the past");
    assert_eq!(bytes, b"netlist v1");
    match bob.history_read(rig.staged_seq, rig.dov.raw()) {
        Err(WireError::Rejected { code, .. }) => {
            assert_eq!(code, "jcf", "bob is not the holder")
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    // After the publish both read.
    assert_eq!(
        bob.history_read(rig.published_seq, rig.dov.raw())
            .expect("published"),
        b"netlist v1"
    );
    // An unretained seq is the typed seq-unreachable rejection.
    match alice.history_read(9_999_999, rig.dov.raw()) {
        Err(WireError::Rejected { code, .. }) => assert_eq!(code, "seq-unreachable"),
        other => panic!("expected seq-unreachable, got {other:?}"),
    }
    // History requests execute no ops.
    let stats = server.stats();
    assert_eq!(stats.ops_ok, 0, "history reads execute no ops");
    assert_eq!(stats.history_queries, 5);
    alice.bye().expect("clean goodbye");
    bob.bye().expect("clean goodbye");
}

#[test]
fn impact_queries_cross_the_wire() {
    let (rig, other_dov, before_seq, mark_seq) = impact_rig();
    let (_server, mut alice, _bob) = wire_pair(&rig);
    let (stale, impacted) = alice
        .history_impact(before_seq, rig.cv.raw())
        .expect("impact before the mark");
    assert!(stale.is_empty() && impacted.is_empty());
    let (stale, impacted) = alice
        .history_impact(mark_seq, rig.cv.raw())
        .expect("impact after the mark");
    assert_eq!(stale, vec![other_dov.raw()]);
    assert_eq!(impacted.len(), 1);
    assert_eq!(impacted[0].dov, other_dov.raw());
    assert_eq!(impacted[0].library, "filter");
    assert_eq!(impacted[0].view, "schematic");
}

#[test]
fn the_sharded_backend_answers_history_identically() {
    let service = ShardedService::builder()
        .shards(3)
        .retention(RetentionPolicy::LastN(64))
        .build();
    let admin = service.open_session(service.admin());
    let alice_id = admin.add_user("alice", false).expect("alice");
    let team = admin.add_team("asic").expect("team");
    admin.add_team_member(team, alice_id).expect("alice joins");
    let flow = admin.standard_flow("asic").expect("flow");
    let project = admin.create_project("alu16").expect("project");
    let cell = admin.create_cell(project, "adder").expect("cell");
    let (cv, variant) = admin
        .create_cell_version(cell, flow.flow, team)
        .expect("cell version");
    let alice = service.open_session(alice_id);
    alice.reserve(cv).expect("reserve");
    let dovs = alice
        .run_activity(
            variant,
            flow.enter_schematic,
            false,
            vec![ToolOutput {
                viewtype: "schematic".into(),
                data: Blob::from(b"netlist v1".to_vec()),
            }],
            None,
        )
        .expect("activity");
    let published_seq = alice.publish(cv).expect("publish");
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::default(), service.clone()).expect("bind");
    let mut client = Client::connect(server.local_addr(), "alice").expect("connect");
    assert_eq!(
        client.history_retained().expect("retained"),
        service.retained_seqs()
    );
    assert_eq!(
        client
            .history_read(published_seq, dovs[0].raw())
            .expect("read the sharded past"),
        b"netlist v1"
    );
    let (stale, impacted) = client
        .history_impact(published_seq, cv.raw())
        .expect("sharded impact");
    assert!(stale.is_empty() && impacted.is_empty());
    client.bye().expect("clean goodbye");
}

// --- retired API surface ------------------------------------------------

/// The 0.9.0 cleanup is total: the deprecated post-hoc setters and the
/// `kind()` alias are gone from the public surface, and the journaled
/// op variants they left behind replay without them.
#[test]
fn retired_setter_ops_replay_without_their_methods() {
    let mut en = Engine::new();
    en.apply(Op::SetStagingMode {
        mode: hybrid::StagingMode::DeepCopy,
    })
    .expect("replay-only op applies");
    assert_eq!(en.staging_mode(), hybrid::StagingMode::DeepCopy);
    let _: UserId = en.admin();
}
