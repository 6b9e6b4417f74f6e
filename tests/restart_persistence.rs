//! Restart persistence across both frameworks, engine-style: the
//! engine checkpoints everything (OMS image, file system image,
//! coupling state) into a backup disk, the ops applied afterwards land
//! in a persisted journal tail, and a restart is checkpoint ⊕ replay.
//! The checkpoint chain is the only persisted layout: a directory
//! without one is refused with a typed error, never misread.

use cad_vfs::{Blob, Vfs, VfsError, VfsPath};
use design_data::{format, generate};
use hybrid::{Engine, HybridError, StagingMode, ToolOutput};
use jcf::Jcf;

/// One full power-cycle per staging mode, in a single test function so
/// the per-thread [`Blob`] materialization counters stay coherent.
#[test]
fn checkpoint_and_replay_survive_a_power_cycle_in_both_staging_modes() {
    for mode in [StagingMode::ZeroCopy, StagingMode::DeepCopy] {
        let mat_before = Blob::materializations();

        // Day 1: a working session.
        let mut en = Engine::builder().staging_mode(mode).build();
        let admin = en.admin();
        let alice = en.add_user("alice", false).unwrap();
        let team = en.add_team(admin, "t").unwrap();
        en.add_team_member(admin, team, alice).unwrap();
        let flow = en.standard_flow("f").unwrap();
        let project = en.create_project("p").unwrap();
        let cell = en.create_cell(project, "fa").unwrap();
        let (cv, variant) = en.create_cell_version(cell, flow.flow, team).unwrap();
        en.reserve(alice, cv).unwrap();
        let bytes = format::write_netlist(&generate::full_adder()).into_bytes();
        let expected = bytes.clone();
        let dovs = en
            .run_activity(alice, variant, flow.enter_schematic, false, move |_| {
                Ok(vec![ToolOutput {
                    viewtype: "schematic".into(),
                    data: bytes.into(),
                }])
            })
            .unwrap();
        let mirror = en.mirror_of(dovs[0]).unwrap().clone();

        // Shutdown: everything lands on one backup disk.
        let mut backup = Vfs::new();
        let dir = VfsPath::parse("/backup/site-a").unwrap();
        en.checkpoint(&mut backup, &dir).unwrap();

        // Day 2 before the crash: more work lands in the journal tail —
        // including an op that fails, whose partial effects (desktop
        // clock bumps) the replay must reproduce too.
        let layout = format::write_layout(&generate::layout_for(&generate::full_adder()));
        en.run_activity(alice, variant, flow.enter_layout, false, move |_| {
            Ok(vec![ToolOutput {
                viewtype: "layout".into(),
                data: layout.into_bytes().into(),
            }])
        })
        .unwrap();
        assert!(en.create_cell(project, "fa").is_err(), "duplicate cell");
        en.publish(alice, cv).unwrap();
        en.sync_journal(&mut backup, &dir).unwrap();

        // The crash. Restart = snapshot ⊕ replay.
        let restored = Engine::restore_from(&mut backup, &dir).unwrap();

        // Identical observable state: tick charges, sequence number,
        // counters, trace — and the full fingerprint (database, file
        // system tree and contents, coupling tables).
        assert_eq!(restored.io_meter(), en.io_meter(), "tick charges match");
        assert_eq!(restored.seq(), en.seq());
        assert_eq!(restored.counters().ops(), en.counters().ops());
        assert_eq!(restored.counters().failures(), en.counters().failures());
        assert_eq!(
            restored.state_fingerprint().unwrap(),
            en.state_fingerprint().unwrap(),
            "snapshot ⊕ replay must equal the live state ({mode:?})"
        );

        // The data really is there on both sides.
        assert_eq!(
            restored
                .jcf()
                .database()
                .get(dovs[0].object_id(), "data")
                .unwrap()
                .as_bytes()
                .unwrap(),
            expected.as_slice()
        );
        assert_eq!(
            restored
                .fmcad()
                .read_version(&mirror.library, &mirror.cell, &mirror.view, mirror.version)
                .unwrap(),
            expected
        );

        let materialized = Blob::materializations() - mat_before;
        match mode {
            StagingMode::ZeroCopy => assert_eq!(
                materialized, 0,
                "zero-copy staging must not deep-copy design data, even across checkpoint and replay"
            ),
            StagingMode::DeepCopy => assert!(
                materialized > 0,
                "deep-copy staging pays the physical copies, live and replayed"
            ),
        }
    }
}

#[test]
fn a_directory_without_a_chain_manifest_is_refused_by_restore_and_recover() {
    let mut en = Engine::new();
    let project = en.create_project("p").unwrap();
    en.create_cell(project, "fa").unwrap();
    let mut backup = Vfs::new();
    let dir = VfsPath::parse("/backup/site-a").unwrap();
    en.checkpoint(&mut backup, &dir).unwrap();
    en.create_cell(project, "ha").unwrap();
    en.sync_journal(&mut backup, &dir).unwrap();

    // Every other chain file stays; only the commit point is gone.
    let manifest = dir.join("ck.manifest").unwrap();
    backup.remove_file(&manifest).unwrap();
    let refused = |err: &HybridError| matches!(err, HybridError::Vfs(VfsError::NotFound(p)) if *p == manifest);
    let err = Engine::restore_from(&mut backup, &dir).unwrap_err();
    assert!(refused(&err), "restore_from: {err:?}");
    let err = Engine::recover_from(&mut backup, &dir).unwrap_err();
    assert!(refused(&err), "recover_from: {err:?}");
}

#[test]
fn sync_journal_before_the_first_checkpoint_is_refused_and_writes_nothing() {
    let mut en = Engine::new();
    en.create_project("p").unwrap();
    let mut backup = Vfs::new();
    let dir = VfsPath::parse("/backup/site-a").unwrap();
    backup.mkdir_all(&dir).unwrap();
    let listing_before = (
        backup
            .read_dir(&VfsPath::parse("/backup").unwrap())
            .unwrap(),
        backup.read_dir(&dir).unwrap(),
    );
    let meter_before = backup.meter();

    let err = en.sync_journal(&mut backup, &dir).unwrap_err();
    assert!(matches!(err, HybridError::Journal(_)), "{err:?}");
    assert_eq!(backup.meter(), meter_before, "the refusal touches no file");
    let listing_after = (
        backup
            .read_dir(&VfsPath::parse("/backup").unwrap())
            .unwrap(),
        backup.read_dir(&dir).unwrap(),
    );
    assert_eq!(listing_after, listing_before);
    assert!(listing_after.1.is_empty());
}

#[test]
fn a_chain_moved_to_another_disk_never_extends_the_old_one() {
    let mut en = Engine::new();
    let project = en.create_project("p").unwrap();
    en.create_cell(project, "fa").unwrap();
    let dir = VfsPath::parse("/backup").unwrap();
    let (mut a, mut b) = (Vfs::new(), Vfs::new());
    en.checkpoint(&mut a, &dir).unwrap();
    en.create_cell(project, "ha").unwrap();

    // A second, empty disk at the same path holds no chain to extend.
    en.checkpoint(&mut b, &dir).unwrap();
    let on_b = en.state_fingerprint().unwrap();
    assert!(b
        .read_dir(&dir)
        .unwrap()
        .iter()
        .all(|name| !name.starts_with("delta-")));

    // Back on disk A, whose manifest is not the chain the engine now
    // extends: a full base, not a delta built on B's chain.
    en.create_cell(project, "mux").unwrap();
    en.checkpoint(&mut a, &dir).unwrap();
    let on_a = en.state_fingerprint().unwrap();
    assert_eq!(
        Engine::restore_from(&mut a, &dir)
            .unwrap()
            .state_fingerprint()
            .unwrap(),
        on_a
    );

    // B is no longer this engine's chain either: a sync or compact
    // there writes nothing, and B still restores to what it took.
    en.create_cell(project, "reg").unwrap();
    let before = b.read_dir(&dir).unwrap();
    assert!(matches!(
        en.sync_journal(&mut b, &dir),
        Err(HybridError::Journal(_))
    ));
    assert_eq!(en.compact(&mut b, &dir).unwrap(), 0);
    assert_eq!(b.read_dir(&dir).unwrap(), before);
    assert_eq!(
        Engine::restore_from(&mut b, &dir)
            .unwrap()
            .state_fingerprint()
            .unwrap(),
        on_b
    );

    // A still is: the next checkpoint there is a delta.
    en.checkpoint(&mut a, &dir).unwrap();
    let live = en.state_fingerprint().unwrap();
    assert!(a
        .read_dir(&dir)
        .unwrap()
        .iter()
        .any(|name| name.starts_with("delta-")));
    assert_eq!(
        Engine::restore_from(&mut a, &dir)
            .unwrap()
            .state_fingerprint()
            .unwrap(),
        live
    );
}

#[test]
fn project_tree_renders_the_browser_view() {
    let mut jcf = Jcf::new();
    let admin = jcf.add_user("admin", true).unwrap();
    let alice = jcf.add_user("alice", false).unwrap();
    let team = jcf.add_team(admin, "t").unwrap();
    jcf.add_team_member(admin, team, alice).unwrap();
    let flow = jcf.define_flow(admin, "f").unwrap();
    let project = jcf.create_project("browser").unwrap();
    let cell = jcf.create_cell(project, "alu").unwrap();
    let (cv, variant) = jcf.create_cell_version(cell, flow, team).unwrap();
    jcf.reserve(alice, cv).unwrap();
    let vt = jcf.add_viewtype("schematic").unwrap();
    let d = jcf.create_design_object(alice, variant, "sch", vt).unwrap();
    jcf.add_design_object_version(alice, d, vec![1]).unwrap();
    jcf.add_design_object_version(alice, d, vec![2]).unwrap();

    let tree = jcf.project_tree(project);
    assert!(tree.contains("project browser"));
    assert!(tree.contains("cell alu"));
    assert!(tree.contains("version 1 [reserved by alice]"));
    assert!(tree.contains("variant base"));
    assert!(tree.contains("sch (2 version(s))"));
}
