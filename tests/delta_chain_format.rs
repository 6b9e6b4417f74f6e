//! The delta-checkpoint format of the single-engine chain.
//!
//! A delta checkpoint records only what changed since the chain head:
//! OMS records, one `f|` record per FMCAD path touched, and `m|` meta
//! records (scalars, coupling-map diffs, mirror-cache changes, the
//! trace entries appended since the head, the counters). These suites
//! check that every boundary of such a chain recovers to the live
//! fingerprint, that chains written in the older whole-meta (v1)
//! format still recover, and that a damaged meta record is a typed
//! refusal.
//!
//! `tests/fixtures/engine_chain_v1/` holds a chain an earlier version
//! wrote for [`run`] with [`FIXTURE_SEED`] (every delta is v1: its
//! `m|` lines are the whole meta text), plus `boundaries.txt`, the
//! `(seq, live fingerprint)` that version recorded after each
//! checkpoint.
//!
//! Fingerprint discipline: `state_fingerprint` reads the FMCAD meter
//! first and then charges its own walk to it, so a live engine is
//! fingerprinted right after each checkpoint — the recovered engine at
//! that seq resumes with the meter the checkpoint recorded, before the
//! fingerprint walk — and the walk's charges land in the next window
//! on both sides.

use std::path::Path;

use cad_tools::ToolKind;
use cad_vfs::{SplitMix64, Vfs, VfsPath};
use design_data::{format, generate};
use hybrid::{Engine, HybridError, Op, StagingMode, ToolOutput};
use jcf::{CellId, CellVersionId, DovId, ProjectId, TeamId, UserId, VariantId};
use test_support::pick;

const DIR: &str = "/backup/chain";
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/engine_chain_v1"
);
/// The seed, op count and trace capacity the fixture was written with.
const FIXTURE_SEED: u64 = 2;
const FIXTURE_OPS: usize = 80;
const FIXTURE_TRACE: usize = 24;

/// Bookkeeping for the random op stream.
struct World {
    alice: UserId,
    team: TeamId,
    projects: Vec<ProjectId>,
    cells: Vec<CellId>,
    slots: Vec<(CellVersionId, VariantId)>,
    /// The last bytes each variant's schematic entry produced, for
    /// reruns the mirror cache recognises.
    last_schematic: Vec<(VariantId, Vec<u8>)>,
    dovs: Vec<DovId>,
    /// FMCAD-only views `(library, cell, view)` with their newest
    /// checked-in version.
    fmcad_views: Vec<(String, String, String, u32)>,
    names: u32,
}

impl World {
    fn fresh(&mut self, prefix: &str) -> String {
        self.names += 1;
        format!("{prefix}{}", self.names)
    }
}

fn bootstrap(trace_capacity: usize) -> (Engine, hybrid::StandardFlow, World) {
    let mut en = Engine::builder().trace_capacity(trace_capacity).build();
    let admin = en.admin();
    let alice = en.add_user("alice", false).unwrap();
    let team = en.add_team(admin, "t").unwrap();
    en.add_team_member(admin, team, alice).unwrap();
    let flow = en.standard_flow("f").unwrap();
    let project = en.create_project("p0").unwrap();
    let world = World {
        alice,
        team,
        projects: vec![project],
        cells: Vec::new(),
        slots: Vec::new(),
        last_schematic: Vec::new(),
        dovs: Vec::new(),
        fmcad_views: Vec::new(),
        names: 0,
    };
    (en, flow, world)
}

fn netlist(rng: &mut SplitMix64) -> Vec<u8> {
    let design = generate::random_logic(1 + rng.below(6), rng.next_u64());
    format::write_netlist(&design.netlists[&design.top]).into_bytes()
}

fn schematic(
    en: &mut Engine,
    w: &mut World,
    flow: &hybrid::StandardFlow,
    variant: VariantId,
    bytes: Vec<u8>,
) {
    let data = bytes.clone();
    let outcome = en.run_activity(w.alice, variant, flow.enter_schematic, false, move |_| {
        Ok(vec![ToolOutput {
            viewtype: "schematic".into(),
            data: data.into(),
        }])
    });
    if let Ok(dovs) = outcome {
        w.dovs.extend(dovs);
        w.last_schematic.retain(|(v, _)| *v != variant);
        w.last_schematic.push((variant, bytes));
    }
}

/// Applies one random op. Between them the ops touch every map the
/// coupling meta holds (projects, cell versions, viewtypes, mirrors,
/// the mirror cache — hits, inserts and a clear — the trace ring and
/// the counters) and the FMCAD tree (new files, rewritten `.meta`s,
/// purged versions). Failures are journaled like any other op.
fn step(en: &mut Engine, rng: &mut SplitMix64, flow: &hybrid::StandardFlow, w: &mut World) {
    match rng.below(14) {
        0 => {
            let name = w.fresh("p");
            if let Ok(project) = en.create_project(&name) {
                w.projects.push(project);
            }
        }
        1 | 2 => {
            let project = *pick(rng, &w.projects).expect("bootstrap made one");
            let name = w.fresh("cell");
            w.cells.push(en.create_cell(project, &name).unwrap());
        }
        3 => {
            if let Some(&cell) = pick(rng, &w.cells) {
                let slot = en.create_cell_version(cell, flow.flow, w.team).unwrap();
                let _ = en.reserve(w.alice, slot.0);
                w.slots.push(slot);
            }
        }
        4 | 5 => {
            if let Some(&(_, variant)) = pick(rng, &w.slots) {
                let bytes = netlist(rng);
                schematic(en, w, flow, variant, bytes);
            }
        }
        6 => {
            // The same bytes again: a mirror-cache hit in zero-copy mode.
            if let Some((variant, bytes)) = pick(rng, &w.last_schematic).cloned() {
                schematic(en, w, flow, variant, bytes);
            }
        }
        7 => {
            if let Some(&(cv, _)) = pick(rng, &w.slots) {
                let _ = en.publish(w.alice, cv);
            }
        }
        8 => {
            // Failing ops: a duplicate project, an unknown dov.
            let _ = en.create_project("p0");
            let _ = en.browse(w.alice, DovId::from_raw(u64::MAX >> 1));
        }
        9 => {
            // Deep copy clears the mirror cache; zero copy comes back.
            let mode = if rng.below(2) == 0 {
                StagingMode::DeepCopy
            } else {
                StagingMode::ZeroCopy
            };
            en.apply(Op::SetStagingMode { mode }).unwrap();
        }
        10 => {
            let name = w.fresh("vt");
            en.register_viewtype(&name, ToolKind::SchematicEntry)
                .unwrap();
        }
        11 => {
            let (a, b) = (pick(rng, &w.dovs).copied(), pick(rng, &w.dovs).copied());
            if let (Some(a), Some(b)) = (a, b) {
                let _ = en.mark_equivalent(a, b);
            }
        }
        12 => {
            let (lib, cell, view) = (w.fresh("lib"), w.fresh("c"), "sch".to_owned());
            en.fmcad_create_library(&lib).unwrap();
            en.fmcad_create_cell(&lib, &cell).unwrap();
            en.fmcad_create_cellview(&lib, &cell, &view, "schematic")
                .unwrap();
            let version = en
                .fmcad_checkin("bob", &lib, &cell, &view, netlist(rng))
                .unwrap();
            w.fmcad_views.push((lib, cell, view, version));
        }
        _ => {
            // A new version of an FMCAD view, or purging its oldest
            // (a file deletion).
            if let Some(i) = test_support::pick_index(rng, w.fmcad_views.len()) {
                let (lib, cell, view, newest) = w.fmcad_views[i].clone();
                if rng.below(2) == 0 {
                    en.fmcad_checkout("bob", &lib, &cell, &view).unwrap();
                    let version = en
                        .fmcad_checkin("bob", &lib, &cell, &view, netlist(rng))
                        .unwrap();
                    w.fmcad_views[i].3 = version;
                } else if newest > 1 {
                    let _ = en.fmcad_purge_version("bob", &lib, &cell, &view, 1);
                }
            }
        }
    }
}

/// Runs `ops` random ops from `seed`, checkpointing (and now and then
/// syncing) at random points, and returns the backup disk with the
/// `(seq, live fingerprint)` of every checkpoint.
fn run(seed: u64, ops: usize, trace_capacity: usize) -> (Vfs, Vec<(u64, String)>) {
    let dir = VfsPath::parse(DIR).unwrap();
    let mut rng = SplitMix64::new(seed);
    let (mut en, flow, mut world) = bootstrap(trace_capacity);
    let mut backup = Vfs::new();
    let mut boundaries = Vec::new();
    en.checkpoint(&mut backup, &dir).unwrap();
    boundaries.push((en.seq(), print(&en)));
    for _ in 0..ops {
        step(&mut en, &mut rng, &flow, &mut world);
        match rng.below(24) {
            0 | 1 => {
                en.checkpoint(&mut backup, &dir).unwrap();
                boundaries.push((en.seq(), print(&en)));
            }
            2 => en.sync_journal(&mut backup, &dir).unwrap(),
            _ => {}
        }
    }
    en.checkpoint(&mut backup, &dir).unwrap();
    boundaries.push((en.seq(), print(&en)));
    (backup, boundaries)
}

/// The state fingerprint of `en`, folded to 16 hex digits.
fn print(en: &Engine) -> String {
    format!(
        "{:016x}",
        test_support::fnv64(en.state_fingerprint().unwrap().as_bytes())
    )
}

/// Every boundary recovers, via `recover_at` on the final disk, to the
/// fingerprint recorded for it.
fn assert_boundaries_recover(backup: &mut Vfs, boundaries: &[(u64, String)]) {
    let dir = VfsPath::parse(DIR).unwrap();
    for (seq, print) in boundaries {
        let (at, _) = Engine::recover_at(backup, &dir, *seq)
            .unwrap_or_else(|e| panic!("recover_at({seq}): {e}"));
        assert_eq!(&self::print(&at), print, "seq {seq}");
    }
}

fn delta_headers(backup: &Vfs) -> Vec<String> {
    let dir = VfsPath::parse(DIR).unwrap();
    backup
        .read_dir(&dir)
        .unwrap()
        .into_iter()
        .filter(|name| name.starts_with("delta-"))
        .map(|name| {
            let text = backup.read(&dir.join(&name).unwrap()).unwrap();
            let text = String::from_utf8(text.as_slice().to_vec()).unwrap();
            text.lines().next().unwrap_or_default().to_owned()
        })
        .collect()
}

#[test]
fn every_checkpoint_of_a_seeded_stream_recovers_to_the_live_fingerprint() {
    for seed in [1, 2, 3] {
        // The default 256-entry trace ring wraps within 400 ops.
        let (mut backup, boundaries) = run(seed, 400, hybrid::TRACE_CAPACITY);
        assert!(boundaries.len() > 5, "seed {seed}: too few checkpoints");
        let headers = delta_headers(&backup);
        assert!(!headers.is_empty());
        assert!(
            headers.iter().all(|h| h == "hybrid-delta v2"),
            "{headers:?}"
        );
        assert_boundaries_recover(&mut backup, &boundaries);
    }
}

#[test]
fn the_stream_reaches_every_meta_map_and_fmcad_deletions() {
    let dir = VfsPath::parse(DIR).unwrap();
    let (backup, _) = run(1, 400, hybrid::TRACE_CAPACITY);
    let mut records = String::new();
    for name in backup.read_dir(&dir).unwrap() {
        if name.starts_with("delta-") {
            let text = backup.read(&dir.join(&name).unwrap()).unwrap();
            records.push_str(std::str::from_utf8(text.as_slice()).unwrap());
        }
    }
    for tag in [
        "m|project-lib ",
        "m|cv-cell ",
        "m|viewtype ",
        "m|viewtype-app ",
        "m|dov-mirror ",
        "m|mirror-cache ",
        "m|mirror-cache-clear",
        "m|trace ",
        "m|counter-err ",
        "f|del ",
        "f|file ",
        "f|dir+ ",
    ] {
        assert!(records.contains(tag), "no delta holds a `{tag}` record");
    }
}

fn fixture() -> (Vfs, Vec<(u64, String)>) {
    let mut backup = Vfs::new();
    let fixture = Path::new(FIXTURE);
    test_support::load_host_tree(
        &mut backup,
        &fixture.join("chain"),
        &VfsPath::parse(DIR).unwrap(),
    );
    let boundaries = std::fs::read_to_string(fixture.join("boundaries.txt"))
        .unwrap()
        .lines()
        .map(|line| {
            let (seq, print) = line.split_once(' ').expect("`seq fingerprint` lines");
            (seq.parse().unwrap(), print.to_owned())
        })
        .collect();
    (backup, boundaries)
}

#[test]
fn a_chain_of_whole_meta_deltas_recovers_every_boundary() {
    let (mut backup, boundaries) = fixture();
    let headers = delta_headers(&backup);
    assert!(headers.len() >= 3, "{headers:?}");
    assert!(
        headers.iter().all(|h| h == "hybrid-delta v1"),
        "{headers:?}"
    );
    assert_boundaries_recover(&mut backup, &boundaries);
    // Today's writer reaches the same states for the same stream.
    let (_, live) = run(FIXTURE_SEED, FIXTURE_OPS, FIXTURE_TRACE);
    assert_eq!(live, boundaries);
}

#[test]
fn a_whole_meta_chain_continues_with_record_deltas() {
    let dir = VfsPath::parse(DIR).unwrap();
    let (mut backup, _) = fixture();
    let (mut en, _) = Engine::recover_from(&mut backup, &dir).unwrap();
    let admin = en.admin();
    en.add_user("carol", false).unwrap();
    en.add_team(admin, "t2").unwrap();
    en.register_viewtype("extracted", ToolKind::LayoutEditor)
        .unwrap();
    en.checkpoint(&mut backup, &dir).unwrap();
    let live = en.state_fingerprint().unwrap();
    assert!(delta_headers(&backup).contains(&"hybrid-delta v2".to_owned()));
    let (recovered, report) = Engine::recover_from(&mut backup, &dir).unwrap();
    assert_eq!(report.replayed, 0);
    assert_eq!(recovered.state_fingerprint().unwrap(), live);
}

/// Replaces the first `m|<tag> ` record of the newest delta with
/// `bad`, re-fingerprinting the file in the manifest so only the
/// record itself is wrong.
fn corrupt_newest_meta_record(backup: &mut Vfs, tag: &str, bad: &str) -> u64 {
    let dir = VfsPath::parse(DIR).unwrap();
    let manifest_path = dir.join("ck.manifest").unwrap();
    let manifest =
        String::from_utf8(backup.read(&manifest_path).unwrap().as_slice().to_vec()).unwrap();
    let newest = manifest
        .lines()
        .rfind(|line| line.starts_with("delta|"))
        .expect("a delta")
        .to_owned();
    let field = |key: &str| {
        newest
            .split('|')
            .find_map(|f| f.strip_prefix(key))
            .unwrap()
            .to_owned()
    };
    let path = dir.join(&format!("delta-{}.ck", field("id="))).unwrap();
    let text = String::from_utf8(backup.read(&path).unwrap().as_slice().to_vec()).unwrap();
    let prefix = format!("m|{tag} ");
    let line = text
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` record"))
        .to_owned();
    let text = text.replacen(&line, &format!("m|{bad}"), 1);
    let fp = format!("{:016x}", oms::persist::fnv64(text.as_bytes()));
    backup.write(&path, text.into_bytes()).unwrap();
    let manifest = manifest.replacen(&newest, &newest.replace(&field("fp="), &fp), 1);
    backup.write(&manifest_path, manifest.into_bytes()).unwrap();
    field("seq=").parse().unwrap()
}

#[test]
fn a_corrupt_meta_record_is_a_typed_delta_chain_refusal() {
    let dir = VfsPath::parse(DIR).unwrap();
    for (tag, bad) in [
        ("seq", "seq x"),
        ("admin", "no-such-record 1"),
        ("trace", "trace 1 true"),
        ("trace", "trace 1 true zz 61 61"),
        ("counter-op", "counter-op"),
    ] {
        let (mut backup, boundaries) = run(1, 120, hybrid::TRACE_CAPACITY);
        let seq = corrupt_newest_meta_record(&mut backup, tag, bad);
        for outcome in [
            Engine::recover_from(&mut backup, &dir).map(|_| ()),
            Engine::restore_from(&mut backup, &dir).map(|_| ()),
            Engine::recover_at(&mut backup, &dir, seq).map(|_| ()),
        ] {
            let err = outcome.expect_err("a corrupt record must not recover");
            assert!(
                matches!(err, HybridError::DeltaChain(_)),
                "{bad:?}: {err:?}"
            );
        }
        // Boundaries before the damaged delta still recover.
        let (earlier, print) = boundaries
            .iter()
            .rev()
            .find(|(s, _)| *s < seq)
            .expect("an earlier boundary");
        let (at, _) = Engine::recover_at(&mut backup, &dir, *earlier).unwrap();
        assert_eq!(&self::print(&at), print);
    }
}
