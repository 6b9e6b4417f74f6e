//! E11 — fault injection and crash recovery.
//!
//! The persistence protocol claims that a crash at *any* injectable
//! write leaves the backup at a valid commit boundary: checkpoints and
//! journal syncs stage through `*.tmp` files and commit via rename, so
//! a torn or rejected write can only ever lose the *in-flight* commit,
//! never a completed one. This experiment proves the claim end-to-end
//! with the [`cad_vfs::FaultPlan`] layer: a seeded workload is run
//! through a checkpoint/sync schedule once cleanly (counting the
//! injectable writes), then once per injectable point with a torn
//! write armed exactly there; every crashed run must restore to the
//! fingerprint of the last commit that completed before the crash.
//! A final trial hand-tears the journal tail and checks that
//! [`Engine::recover_from`] drops exactly the torn fragment.

use std::fmt;

use cad_vfs::{FaultPlan, Vfs, VfsPath};
use hybrid::Engine;

use crate::workload::{hybrid_env, HybridEnv, Rng};

/// Where the protocol commits inside the schedule.
#[derive(Clone, Copy)]
enum Commit {
    /// Chain checkpoint: a full base image the first time (four staged
    /// writes), an O(Δ) delta checkpoint afterwards (sealed segment +
    /// delta record + manifest).
    Checkpoint,
    /// Journal sync: rewrites the open segment and the manifest, plus
    /// one sealed segment per `SEG_CAP` entries outgrown.
    Sync,
}

/// Ops between commits, and the commit that follows them. 100 ops,
/// five commits, thirteen injectable writes in total (4+2+2+3+2) —
/// but the clean pass *measures* the per-commit write counts rather
/// than hardcoding them, so the matrix stays honest if the layout
/// grows another file.
const SCHEDULE: &[(usize, Commit)] = &[
    (30, Commit::Checkpoint),
    (20, Commit::Sync),
    (20, Commit::Sync),
    (15, Commit::Checkpoint),
    (15, Commit::Sync),
];

const DIR: &str = "/backup/e11";

/// What one full E11 run measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSummary {
    /// The workload seed.
    pub seed: u64,
    /// Injectable persistence writes counted by a passive plan.
    pub injectable_points: u64,
    /// Faults actually fired across the crash matrix.
    pub faults_fired: u64,
    /// Crash points whose restore landed on the expected boundary.
    pub recoveries_verified: u64,
    /// Torn journal tails dropped by [`Engine::recover_from`].
    pub torn_tails_dropped: u64,
}

impl FaultSummary {
    /// True when every armed point fired and every recovery verified.
    pub fn holds(&self) -> bool {
        self.injectable_points > 0
            && self.faults_fired == self.injectable_points
            && self.recoveries_verified == self.injectable_points
            && self.torn_tails_dropped > 0
    }
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "E11 — fault injection (seed {}): {} points armed, {} faults fired, \
             {}/{} crash recoveries verified, {} torn tail(s) dropped",
            self.seed,
            self.injectable_points,
            self.faults_fired,
            self.recoveries_verified,
            self.injectable_points,
            self.torn_tails_dropped
        )
    }
}

/// Driver bookkeeping for the churn stream.
struct ChurnState {
    project: jcf::ProjectId,
    cells: Vec<jcf::CellId>,
    slots: Vec<(jcf::CellVersionId, jcf::VariantId)>,
    designs: Vec<jcf::DesignObjectId>,
    next_cell: usize,
    next_name: usize,
}

/// Applies `n` deterministic ops; failures (name clashes, visibility
/// rejections) are journaled and replayed like any other op, so the
/// stream provokes them freely.
fn churn(env: &mut HybridEnv, rng: &mut Rng, st: &mut ChurnState, n: usize) {
    let user = env.designers[0];
    let project = st.project;
    for _ in 0..n {
        match rng.below(5) {
            0 => {
                let name = format!("c{}", st.next_cell);
                st.next_cell += 1;
                if let Ok(cell) = env.hy.create_cell(project, &name) {
                    st.cells.push(cell);
                }
            }
            1 => {
                if let Some(&cell) = st.cells.last() {
                    if let Ok(slot) = env.hy.create_cell_version(cell, env.flow.flow, env.team) {
                        let _ = env.hy.reserve(user, slot.0);
                        st.slots.push(slot);
                    }
                } else {
                    let _ = env.hy.create_project("e11");
                }
            }
            2 => {
                if let Some(&(_, variant)) = st.slots.last() {
                    let viewtype = env.hy.viewtype("schematic").expect("standard flow");
                    let name = format!("d{}", st.next_name);
                    st.next_name += 1;
                    if let Ok(d) = env.hy.create_design_object(user, variant, &name, viewtype) {
                        st.designs.push(d);
                    }
                } else {
                    let _ = env.hy.create_project("e11");
                }
            }
            3 => {
                if let Some(&d) = st.designs.last() {
                    let data = format!("netlist {}", rng.next_u64()).into_bytes();
                    let _ = env.hy.add_design_object_version(user, d, data);
                } else {
                    let _ = env.hy.create_project("e11");
                }
            }
            _ => {
                if let Some(&(cv, _)) = st.slots.last() {
                    if rng.chance(1, 3) {
                        let _ = env.hy.publish(user, cv);
                        let _ = env.hy.reserve(user, cv);
                    } else {
                        let _ = env.hy.create_project("e11");
                    }
                } else {
                    let _ = env.hy.create_project("e11");
                }
            }
        }
    }
}

/// Runs the workload through the commit schedule against `backup`.
/// Stops at the first persistence error and returns it; `on_commit` is
/// called after each successful commit.
fn run_schedule(
    seed: u64,
    backup: &mut Vfs,
    mut on_commit: impl FnMut(&mut Engine, &Vfs),
) -> Option<hybrid::HybridError> {
    let mut env = hybrid_env(1);
    let mut rng = Rng::new(seed);
    let project = env.hy.create_project("e11-project").expect("fresh project");
    let mut st = ChurnState {
        project,
        cells: Vec::new(),
        slots: Vec::new(),
        designs: Vec::new(),
        next_cell: 0,
        next_name: 0,
    };
    let dir = VfsPath::parse(DIR).expect("static path");
    for &(ops, commit) in SCHEDULE {
        churn(&mut env, &mut rng, &mut st, ops);
        let result = match commit {
            Commit::Checkpoint => env.hy.checkpoint(backup, &dir),
            Commit::Sync => env.hy.sync_journal(backup, &dir),
        };
        match result {
            Ok(()) => on_commit(&mut env.hy, backup),
            Err(e) => return Some(e),
        }
    }
    None
}

/// Runs the full experiment for one seed.
///
/// # Panics
///
/// Panics when a protocol guarantee is violated — a missing fault, a
/// restore that does not land on a commit boundary, or a torn journal
/// tail that recovery fails to drop.
pub fn run(seed: u64) -> FaultSummary {
    let dir = VfsPath::parse(DIR).expect("static path");

    // Clean pass: count the injectable writes with a passive plan —
    // recording the cumulative count at each commit boundary — and
    // collect the restore fingerprint of every boundary.
    let mut backup = Vfs::new();
    backup.arm_faults(FaultPlan::new(0));
    let mut boundary_backups: Vec<Vfs> = Vec::new();
    let mut boundary_writes: Vec<u64> = Vec::new();
    let crash = run_schedule(seed, &mut backup, |_, b| {
        boundary_backups.push(b.clone());
        boundary_writes.push(b.fault_stats().expect("plan armed").writes_seen);
    });
    assert!(crash.is_none(), "clean pass must not crash: {crash:?}");
    let stats = backup.disarm_faults().expect("plan armed").stats();
    let injectable_points = stats.writes_seen;
    assert_eq!(stats.faults_fired, 0, "the passive plan never fires");
    let boundaries: Vec<String> = boundary_backups
        .iter()
        .map(|b| {
            let mut clone = b.clone();
            Engine::restore_from(&mut clone, &dir)
                .expect("clean boundary restores")
                .state_fingerprint()
                .expect("fingerprint")
        })
        .collect();

    // Commit `i` completed before injectable write `k` fired iff all
    // of its writes landed strictly earlier.
    let commits_before = |k: u64| boundary_writes.iter().filter(|&&c| c < k).count();

    // The matrix: one run per injectable point, torn write armed there.
    let mut faults_fired = 0;
    let mut recoveries_verified = 0;
    for k in 1..=injectable_points {
        let mut backup = Vfs::new();
        backup.arm_faults(FaultPlan::new(seed ^ k).torn_write(k));
        let crash = run_schedule(seed, &mut backup, |_, _| {});
        assert!(crash.is_some(), "point {k}: the armed fault must crash");
        faults_fired += backup
            .disarm_faults()
            .expect("plan armed")
            .stats()
            .faults_fired;
        let done = commits_before(k);
        if done == 0 {
            assert!(
                Engine::restore_from(&mut backup, &dir).is_err(),
                "point {k}: nothing committed, restore must fail"
            );
        } else {
            let fingerprint = Engine::restore_from(&mut backup, &dir)
                .expect("committed boundary restores")
                .state_fingerprint()
                .expect("fingerprint");
            assert_eq!(
                fingerprint,
                boundaries[done - 1],
                "point {k}: restore must land on commit boundary {done}"
            );
        }
        recoveries_verified += 1;
    }

    // Torn-tail trial: hand-tear the open journal segment of a
    // completed run and recover; only the torn fragment may be lost,
    // and the report must name the segment and byte offset.
    let mut torn = boundary_backups.last().expect("commits happened").clone();
    let manifest = torn
        .read(&dir.join("ck.manifest").expect("join"))
        .expect("manifest exists");
    let open_seg = String::from_utf8(manifest.to_vec())
        .expect("utf-8 manifest")
        .lines()
        .find_map(|line| {
            let f = oms::persist::Fields::parse(line)
                .ok()
                .filter(|f| f.kind == "open")?;
            Some(format!("seg-{}.log", f.num::<u64>("id").ok()?))
        })
        .expect("manifest records the open segment");
    let seg_path = dir.join(&open_seg).expect("join");
    let bytes = torn.read(&seg_path).expect("open segment exists").to_vec();
    assert!(bytes.len() > 4, "the open segment has entries to tear");
    torn.write(&seg_path, bytes[..bytes.len() - 4].to_vec())
        .expect("tearing rewrite");
    assert!(
        matches!(
            Engine::restore_from(&mut torn, &dir),
            Err(hybrid::HybridError::TornJournal { .. })
        ),
        "strict restore rejects the torn tail"
    );
    let (_, report) = Engine::recover_from(&mut torn, &dir).expect("recovery");
    assert!(
        report.dropped_fragment.is_some(),
        "recovery names the dropped fragment"
    );
    assert_eq!(
        report.torn_segment.as_deref(),
        Some(open_seg.as_str()),
        "recovery names the torn segment"
    );
    assert!(
        report.torn_offset.is_some(),
        "recovery names the torn byte offset"
    );
    let torn_tails_dropped = 1;

    FaultSummary {
        seed,
        injectable_points,
        faults_fired,
        recoveries_verified,
        torn_tails_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_holds_for_the_golden_seed() {
        let summary = run(42);
        assert!(summary.holds(), "{summary}");
        assert_eq!(summary.injectable_points, 13, "4+2+2+3+2 staged writes");
    }

    #[test]
    fn the_summary_is_seed_deterministic() {
        assert_eq!(run(7), run(7));
    }
}
