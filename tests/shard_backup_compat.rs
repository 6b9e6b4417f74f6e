//! Sharded backups written before shard checkpoint chains stopped
//! carrying op segments still recover.
//!
//! `tests/fixtures/sharded_backup_with_op_segments/` is the file tree
//! an earlier version of the sharded service wrote for [`script`]: each
//! shard's engine chain holds sealed `seg-<n>.log` op segments next to
//! its base, deltas and manifest, and every `ck-<E>/shard-<i>.log`
//! envelope journal was rewritten whole on each sync. The envelope
//! journal format and the recovery path are unchanged, so that backup
//! must restore exactly the states the same script reaches live today,
//! at the newest commit and at every persisted commit sequence. One
//! checkpoint + compact of the recovered service then leaves every
//! chain with only base, delta and manifest files.

use std::path::Path;

use cad_vfs::{Vfs, VfsPath};
use design_data::{format, generate};
use hybrid::{shard_of_name, ShardedService, ToolOutput};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/sharded_backup_with_op_segments"
);
const ROOT: &str = "/backup/shards";
const SHARDS: usize = 2;

/// Two project names placed on different shards.
fn project_names() -> (&'static str, &'static str) {
    const NAMES: &[&str] = &["alu16", "dsp", "rom", "fpu", "mmu", "uart"];
    let a = NAMES[0];
    let b = NAMES
        .iter()
        .find(|b| shard_of_name(b, SHARDS) != shard_of_name(a, SHARDS))
        .expect("six names cannot all share a shard");
    (a, b)
}

/// The script the fixture was written with: three epochs of partition
/// ops, a design-data activity, cross-partition commits and
/// broadcasts, with a sync before every later checkpoint so every
/// commit is persisted. Returns the live service and the seq of every
/// commit from the first checkpoint on. (It takes no fingerprints:
/// fingerprinting reads the engines' file systems, which charges
/// their meters and so changes the state the next checkpoint records.)
fn script(backup: &mut Vfs, root: &VfsPath) -> (ShardedService, Vec<u64>) {
    let service = ShardedService::new(SHARDS);
    let admin = service.open_session(service.admin());
    let team = admin.add_team("t").unwrap();
    let user = admin.add_user("alice", false).unwrap();
    admin.add_team_member(team, user).unwrap();
    let flow = admin.standard_flow("f").unwrap();
    let alice = service.open_session(user);
    let (name_a, name_b) = project_names();
    let project_a = alice.create_project(name_a).unwrap();
    let cell_a = alice.create_cell(project_a, "top").unwrap();
    let (cv_a, variant_a) = alice.create_cell_version(cell_a, flow.flow, team).unwrap();
    alice.reserve(cv_a).unwrap();

    let mut boundaries = Vec::new();
    let commit = |boundaries: &mut Vec<u64>| boundaries.push(service.stats().seq - 1);
    service.checkpoint(backup, root).unwrap();
    commit(&mut boundaries);

    // Epoch 1: a new partition, design data, two syncs.
    let project_b = alice.create_project(name_b).unwrap();
    commit(&mut boundaries);
    let cell_b = alice.create_cell(project_b, "leaf").unwrap();
    commit(&mut boundaries);
    let netlist = format::write_netlist(&generate::full_adder()).into_bytes();
    alice
        .run_activity(
            variant_a,
            flow.enter_schematic,
            false,
            vec![ToolOutput {
                viewtype: "schematic".to_owned(),
                data: netlist.into(),
            }],
            None,
        )
        .unwrap();
    commit(&mut boundaries);
    service.sync(backup, root).unwrap();
    alice.create_cell(project_a, "aux").unwrap();
    commit(&mut boundaries);
    service.sync(backup, root).unwrap();

    // Epoch 2: the chains seal op segments; a 2PC and a broadcast.
    service.checkpoint(backup, root).unwrap();
    alice.declare_comp_of(cv_a, cell_b).unwrap();
    commit(&mut boundaries);
    admin.add_user("bob", false).unwrap();
    commit(&mut boundaries);
    alice.create_cell(project_b, "leaf2").unwrap();
    commit(&mut boundaries);
    service.sync(backup, root).unwrap();

    // Epoch 3: a tail synced twice.
    service.checkpoint(backup, root).unwrap();
    alice.create_cell(project_b, "leaf3").unwrap();
    commit(&mut boundaries);
    service.sync(backup, root).unwrap();
    alice.create_cell(project_a, "aux2").unwrap();
    commit(&mut boundaries);
    service.sync(backup, root).unwrap();
    (service, boundaries)
}

fn fixture_backup() -> Vfs {
    let mut backup = Vfs::new();
    test_support::load_host_tree(
        &mut backup,
        Path::new(FIXTURE),
        &VfsPath::parse(ROOT).unwrap(),
    );
    backup
}

fn chain_files(backup: &Vfs, root: &VfsPath, shard: usize) -> Vec<String> {
    backup
        .read_dir(&root.join(&format!("shard-{shard}")).unwrap())
        .unwrap()
}

/// Recovers `backup` to `seq` and fingerprints the result.
fn print_at(backup: &mut Vfs, root: &VfsPath, seq: u64) -> String {
    let (at, _) = ShardedService::recover_at(backup, root, seq)
        .unwrap_or_else(|e| panic!("recover_at({seq}): {e}"));
    at.state_fingerprint().unwrap()
}

#[test]
fn a_backup_with_op_segments_recovers_to_the_live_state() {
    let root = VfsPath::parse(ROOT).unwrap();
    let mut current = Vfs::new();
    let (live, boundaries) = script(&mut current, &root);
    let mut backup = fixture_backup();
    assert!(
        (0..SHARDS).any(|i| chain_files(&backup, &root, i)
            .iter()
            .any(|f| f.starts_with("seg-"))),
        "the fixture's chains must hold op segments"
    );

    let (recovered, report) = ShardedService::recover(&mut backup, &root).unwrap();
    assert_eq!(report.torn_segment, None);
    assert_eq!(report.rolled_back_prepares, Vec::<u64>::new());
    assert_eq!(
        recovered.state_fingerprint().unwrap(),
        live.state_fingerprint().unwrap()
    );
    // Every commit restores identically from the old backup and from
    // the one the current version writes for the same script.
    for &seq in &boundaries {
        assert_eq!(
            print_at(&mut backup, &root, seq),
            print_at(&mut current, &root, seq),
            "seq {seq}"
        );
    }
}

#[test]
fn checkpoint_and_compact_leave_a_recovered_chain_without_op_segments() {
    let root = VfsPath::parse(ROOT).unwrap();
    let mut backup = fixture_backup();
    let (recovered, _) = ShardedService::recover(&mut backup, &root).unwrap();
    let session = recovered.open_session(recovered.admin());
    session.add_user("carol", false).unwrap();
    recovered.checkpoint(&mut backup, &root).unwrap();
    recovered.compact(&mut backup, &root).unwrap();
    for i in 0..SHARDS {
        for file in chain_files(&backup, &root, i) {
            assert!(
                ["oms.img", "fs.img", "hybrid.meta", "ck.manifest"].contains(&file.as_str())
                    || (file.starts_with("delta-") && file.ends_with(".ck")),
                "shard-{i}/{file} is neither base, delta nor manifest"
            );
        }
    }
    let (again, report) = ShardedService::recover(&mut backup, &root).unwrap();
    assert_eq!(report.replayed, 0, "the new epoch holds everything");
    assert_eq!(
        again.state_fingerprint().unwrap(),
        recovered.state_fingerprint().unwrap()
    );
}
