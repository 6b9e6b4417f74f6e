//! Model-based differential oracle for the hybrid engine.
//!
//! A flat [`Model`] interprets the same operation stream as the real
//! [`Engine`], but independently of OMS, JCF and FMCAD: it is nothing
//! but plain vectors and maps encoding the workspace rules of §2.1
//! (exclusive reservations, publish-to-expose, per-variant name
//! spaces). After *every* applied op the driver diffs the model's
//! predicted outcome against the engine's actual result, the model's
//! sequence number against [`Engine::seq`], and the model's counter
//! tables against the built-in [`CounterSink`]; periodically it also
//! deep-checks reservation holders and publication flags through the
//! JCF read API. Any divergence — a wrong success, a wrong error kind,
//! a drifted counter, a stale reservation — fails immediately with the
//! seed and step that exposed it.

use std::collections::BTreeMap;

use cad_vfs::{Blob, SplitMix64, Vfs, VfsPath};
use hybrid::{
    Engine, Event, HybridError, Op, RetentionPolicy, Service, ShardedService, ShardedSession,
    StagingMode, StandardFlow,
};
use jcf::{CellId, CellVersionId, DesignObjectId, DovId, UserId, VariantId, ViewTypeId};
use test_support::pick_index as pick;

// --- the reference model ------------------------------------------------

/// What the model expects an op application to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    /// Failure with this [`HybridError::kind`].
    Err(&'static str),
}

/// A cell version: who holds the reservation, which variant names are
/// taken below it.
struct MCv {
    holder: Option<usize>,
    variant_names: Vec<String>,
}

/// A variant: its owning cell version and the design object names
/// already used inside it.
struct MVariant {
    cv: usize,
    names: Vec<String>,
}

/// A design object: its owning variant and its version list.
struct MDesign {
    variant: usize,
    versions: Vec<usize>,
}

/// A design object version: publication flag and payload.
struct MDov {
    design: usize,
    published: bool,
    data: Vec<u8>,
}

/// The flat reference state. Indices are creation order and align
/// one-to-one with the id vectors in [`World`].
struct Model {
    seq: u64,
    ops: BTreeMap<String, u64>,
    failures: BTreeMap<String, u64>,
    cells: usize,
    cvs: Vec<MCv>,
    variants: Vec<MVariant>,
    designs: Vec<MDesign>,
    dovs: Vec<MDov>,
}

impl Model {
    /// Seeds the model from the engine's post-bootstrap observables.
    fn from_bootstrap(en: &Engine) -> Model {
        Model {
            seq: en.seq(),
            ops: en.counters().ops().clone(),
            failures: en.counters().failures().clone(),
            cells: 0,
            cvs: Vec::new(),
            variants: Vec::new(),
            designs: Vec::new(),
            dovs: Vec::new(),
        }
    }

    /// Records that one op of `kind` was applied with `outcome`.
    fn record(&mut self, kind: &str, outcome: Outcome) {
        self.seq += 1;
        match outcome {
            Outcome::Ok => *self.ops.entry(kind.to_owned()).or_insert(0) += 1,
            Outcome::Err(error_kind) => {
                *self.failures.entry(error_kind.to_owned()).or_insert(0) += 1;
            }
        }
    }

    /// The §2.1 visibility rule: published, or reserved by the reader.
    fn visible(&self, user: usize, dov: usize) -> bool {
        let dov = &self.dovs[dov];
        if dov.published {
            return true;
        }
        let cv = self.variants[self.designs[dov.design].variant].cv;
        self.cvs[cv].holder == Some(user)
    }
}

// --- real-id mirror -----------------------------------------------------

/// The engine-side ids, index-aligned with the model's vectors.
struct World {
    cells: Vec<CellId>,
    cvs: Vec<CellVersionId>,
    variants: Vec<VariantId>,
    designs: Vec<DesignObjectId>,
    dovs: Vec<DovId>,
}

struct Rig {
    en: Engine,
    users: [UserId; 2],
    flow: StandardFlow,
    team: jcf::TeamId,
    schematic: ViewTypeId,
    project: jcf::ProjectId,
}

/// Admin, two team members, the standard flow and one project — the
/// same §2.1 multi-user floor the workspace rules quantify over.
fn bootstrap() -> Rig {
    bootstrap_with(StagingMode::default())
}

/// [`bootstrap`], but with an explicit staging mode — the snapshot
/// equivalence suite runs the oracle under both.
fn bootstrap_with(mode: StagingMode) -> Rig {
    let mut en = Engine::builder().staging_mode(mode).build();
    let admin = en.admin();
    let alice = en.add_user("alice", false).expect("alice");
    let bob = en.add_user("bob", false).expect("bob");
    let team = en.add_team(admin, "asic").expect("team");
    en.add_team_member(admin, team, alice).expect("alice joins");
    en.add_team_member(admin, team, bob).expect("bob joins");
    let flow = en.standard_flow("asic").expect("flow");
    let project = en.create_project("alu16").expect("project");
    let schematic = en.viewtype("schematic").expect("schematic viewtype");
    Rig {
        en,
        users: [alice, bob],
        flow,
        team,
        schematic,
        project,
    }
}

// --- driver -------------------------------------------------------------

/// Applies one op to both the model and the engine and returns
/// `(op kind, predicted outcome, actual result)`.
///
/// Every arm draws from the rng in a state-independent order, predicts
/// the outcome from the model *before* touching the engine, applies
/// the real op, and mutates the model only on predicted success —
/// exactly mirroring the engine's own all-or-nothing op semantics.
fn step(
    rig: &mut Rig,
    rng: &mut SplitMix64,
    m: &mut Model,
    w: &mut World,
) -> (&'static str, Outcome, Result<(), HybridError>) {
    // An op every engine rejects wholesale: re-creating the bootstrap
    // project. Used directly (arm 9) and as the aligned fallback when a
    // pick finds an empty world list.
    macro_rules! dup_project {
        () => {{
            let actual = rig.en.create_project("alu16").map(|_| ());
            return ("create-project", Outcome::Err("jcf"), actual);
        }};
    }

    match rng.below(10) {
        // Fresh cell names never clash: always succeeds.
        0 => {
            let name = format!("cell{}", m.cells);
            let actual = rig.en.create_cell(rig.project, &name).map(|id| {
                w.cells.push(id);
            });
            m.cells += 1;
            ("create-cell", Outcome::Ok, actual)
        }
        // A new cell version brings its `base` variant (and the mapped
        // FMCAD cell): always succeeds.
        1 => {
            let Some(cell) = pick(rng, w.cells.len()) else {
                dup_project!()
            };
            let actual = rig
                .en
                .create_cell_version(w.cells[cell], rig.flow.flow, rig.team)
                .map(|(cv, variant)| {
                    w.cvs.push(cv);
                    w.variants.push(variant);
                });
            m.cvs.push(MCv {
                holder: None,
                variant_names: vec!["base".to_owned()],
            });
            let cv = m.cvs.len() - 1;
            m.variants.push(MVariant {
                cv,
                names: Vec::new(),
            });
            ("create-cell-version", Outcome::Ok, actual)
        }
        // Reserve: free or self-held succeeds, held by the other fails.
        2 => {
            let user = rng.below(2);
            let Some(cv) = pick(rng, w.cvs.len()) else {
                dup_project!()
            };
            let predicted = match m.cvs[cv].holder {
                Some(holder) if holder != user => Outcome::Err("jcf"),
                _ => Outcome::Ok,
            };
            let actual = rig.en.reserve(rig.users[user], w.cvs[cv]);
            if predicted == Outcome::Ok {
                m.cvs[cv].holder = Some(user);
            }
            ("reserve", predicted, actual)
        }
        // Publish: only the holder may; exposes every dov below the
        // cell version and releases the reservation.
        3 => {
            let user = rng.below(2);
            let Some(cv) = pick(rng, w.cvs.len()) else {
                dup_project!()
            };
            let predicted = if m.cvs[cv].holder == Some(user) {
                Outcome::Ok
            } else {
                Outcome::Err("jcf")
            };
            let actual = rig.en.publish(rig.users[user], w.cvs[cv]);
            if predicted == Outcome::Ok {
                m.cvs[cv].holder = None;
                for d in 0..m.dovs.len() {
                    if m.variants[m.designs[m.dovs[d].design].variant].cv == cv {
                        m.dovs[d].published = true;
                    }
                }
            }
            ("publish", predicted, actual)
        }
        // Derive a variant: needs the reservation, then a fresh name
        // within the cell version (the pool forces collisions).
        4 => {
            let user = rng.below(2);
            let name = format!("v{}", rng.below(5));
            let Some(cv) = pick(rng, w.cvs.len()) else {
                dup_project!()
            };
            // Reservation is checked before the name clash, but both
            // reject under the same "jcf" error kind.
            let rejected =
                m.cvs[cv].holder != Some(user) || m.cvs[cv].variant_names.contains(&name);
            let predicted = if rejected {
                Outcome::Err("jcf")
            } else {
                Outcome::Ok
            };
            let actual = rig
                .en
                .derive_variant(rig.users[user], w.cvs[cv], &name, None)
                .map(|variant| {
                    w.variants.push(variant);
                });
            if predicted == Outcome::Ok {
                m.cvs[cv].variant_names.push(name);
                m.variants.push(MVariant {
                    cv,
                    names: Vec::new(),
                });
            }
            ("derive-variant", predicted, actual)
        }
        // Create a design object: reservation plus per-variant name
        // uniqueness (pool of four forces collisions).
        5 => {
            let user = rng.below(2);
            let name = format!("d{}", rng.below(4));
            let Some(variant) = pick(rng, w.variants.len()) else {
                dup_project!()
            };
            let cv = m.variants[variant].cv;
            let rejected =
                m.cvs[cv].holder != Some(user) || m.variants[variant].names.contains(&name);
            let predicted = if rejected {
                Outcome::Err("jcf")
            } else {
                Outcome::Ok
            };
            let actual = rig
                .en
                .create_design_object(rig.users[user], w.variants[variant], &name, rig.schematic)
                .map(|id| {
                    w.designs.push(id);
                });
            if predicted == Outcome::Ok {
                m.variants[variant].names.push(name);
                m.designs.push(MDesign {
                    variant,
                    versions: Vec::new(),
                });
            }
            ("create-design-object", predicted, actual)
        }
        // Add a design object version: reservation only. New versions
        // start unpublished even after an earlier publish.
        6 => {
            let user = rng.below(2);
            let data = format!("netlist {}", rng.next_u64()).into_bytes();
            let Some(design) = pick(rng, w.designs.len()) else {
                dup_project!()
            };
            let cv = m.variants[m.designs[design].variant].cv;
            let predicted = if m.cvs[cv].holder == Some(user) {
                Outcome::Ok
            } else {
                Outcome::Err("jcf")
            };
            let actual = rig
                .en
                .add_design_object_version(rig.users[user], w.designs[design], data.clone())
                .map(|dov| {
                    w.dovs.push(dov);
                });
            if predicted == Outcome::Ok {
                m.dovs.push(MDov {
                    design,
                    published: false,
                    data,
                });
                let dov = m.dovs.len() - 1;
                m.designs[design].versions.push(dov);
            }
            ("add-design-object-version", predicted, actual)
        }
        // Desktop read: visible iff published or reserved by the
        // reader; on success the bytes must match the model's copy.
        7 => {
            let user = rng.below(2);
            let Some(dov) = pick(rng, w.dovs.len()) else {
                dup_project!()
            };
            let predicted = if m.visible(user, dov) {
                Outcome::Ok
            } else {
                Outcome::Err("jcf")
            };
            let actual = rig
                .en
                .read_design_data(rig.users[user], w.dovs[dov])
                .map(|blob| {
                    assert_eq!(
                        blob.as_slice(),
                        m.dovs[dov].data.as_slice(),
                        "read-design-data returned the wrong payload for dov {dov}"
                    );
                });
            ("read-design-data", predicted, actual)
        }
        // Hybrid browse: same visibility rule, but §3.6's copy path —
        // database → staging file → reader — must still round-trip the
        // exact bytes.
        8 => {
            let user = rng.below(2);
            let Some(dov) = pick(rng, w.dovs.len()) else {
                dup_project!()
            };
            let predicted = if m.visible(user, dov) {
                Outcome::Ok
            } else {
                Outcome::Err("jcf")
            };
            let actual = rig.en.browse(rig.users[user], w.dovs[dov]).map(|blob| {
                assert_eq!(
                    blob.as_slice(),
                    m.dovs[dov].data.as_slice(),
                    "browse returned the wrong payload for dov {dov}"
                );
            });
            ("browse", predicted, actual)
        }
        // Name-clash against the bootstrap project: always fails.
        _ => dup_project!(),
    }
}

/// Compares everything observable after one applied op.
fn diff_step(
    rig: &Rig,
    m: &Model,
    seed: u64,
    n: usize,
    kind: &str,
    predicted: Outcome,
    actual: &Result<(), HybridError>,
) {
    let at = format!("seed {seed:#x} step {n} ({kind})");
    match (predicted, actual) {
        (Outcome::Ok, Ok(())) => {}
        (Outcome::Err(expected), Err(e)) => assert_eq!(
            e.kind(),
            expected,
            "{at}: engine failed with the wrong kind: {e}"
        ),
        (Outcome::Ok, Err(e)) => panic!("{at}: model predicted success, engine said: {e}"),
        (Outcome::Err(expected), Ok(())) => {
            panic!("{at}: model predicted {expected} failure, engine succeeded")
        }
    }
    assert_eq!(m.seq, rig.en.seq(), "{at}: sequence number diverged");
    let last = rig
        .en
        .trace()
        .entries()
        .last()
        .unwrap_or_else(|| panic!("{at}: empty trace"));
    assert_eq!(last.seq, m.seq, "{at}: trace seq");
    assert_eq!(last.kind, kind, "{at}: trace kind");
    assert_eq!(last.ok, predicted == Outcome::Ok, "{at}: trace ok flag");
}

/// Deep-checks the invisible state through the JCF read API:
/// reservation holders and publication flags.
fn diff_deep(rig: &Rig, m: &Model, w: &World, at: &str) {
    for (i, cv) in m.cvs.iter().enumerate() {
        let holder = rig.en.jcf().reserver(w.cvs[i]);
        let expected = cv.holder.map(|u| rig.users[u]);
        assert_eq!(holder, expected, "{at}: reservation holder of cv {i}");
    }
    for (i, dov) in m.dovs.iter().enumerate() {
        let published = rig.en.jcf().is_published(w.dovs[i]).expect("live dov id");
        assert_eq!(published, dov.published, "{at}: published flag of dov {i}");
    }
    for (i, design) in m.designs.iter().enumerate() {
        let versions = rig.en.jcf().versions_of_design_object(w.designs[i]);
        assert_eq!(
            versions.len(),
            design.versions.len(),
            "{at}: version count of design object {i}"
        );
    }
    assert_eq!(
        m.ops,
        *rig.en.counters().ops(),
        "{at}: success counters diverged"
    );
    assert_eq!(
        m.failures,
        *rig.en.counters().failures(),
        "{at}: failure counters diverged"
    );
}

/// Diffs a *fresh snapshot* against the model and the live engine: the
/// frozen view must answer `read_design_data`/`browse`/`library_of`
/// exactly like the engine it was captured from, and a repeat capture
/// at the unchanged sequence number must be the same shared
/// `Arc<Snapshot>`.
fn diff_snapshot(rig: &Rig, m: &Model, w: &World, at: &str) {
    let snap = rig.en.snapshot();
    assert_eq!(snap.seq(), rig.en.seq(), "{at}: snapshot seq");
    let again = rig.en.snapshot();
    assert!(
        std::sync::Arc::ptr_eq(&snap, &again),
        "{at}: repeat capture at an unchanged seq must share the cached snapshot"
    );
    assert_eq!(
        snap.library_of(rig.project).expect("bootstrap project"),
        rig.en.library_of(rig.project).expect("bootstrap project"),
        "{at}: library_of diverged between snapshot and engine"
    );
    for (i, mdov) in m.dovs.iter().enumerate() {
        for (u, user) in rig.users.into_iter().enumerate() {
            let visible = m.visible(u, i);
            let read = snap.read_design_data(user, w.dovs[i]);
            let browsed = snap.browse(user, w.dovs[i]);
            // The live reference is the unjournaled desktop peek — the
            // same visibility rule without mutating the engine mid-diff.
            let live = rig.en.jcf().peek_design_data(user, w.dovs[i]);
            if visible {
                let blob = read.unwrap_or_else(|e| panic!("{at}: snapshot hid dov {i}: {e}"));
                assert_eq!(blob.as_slice(), mdov.data.as_slice(), "{at}: dov {i} bytes");
                let browsed =
                    browsed.unwrap_or_else(|e| panic!("{at}: snapshot browse hid dov {i}: {e}"));
                assert_eq!(browsed, blob, "{at}: browse vs read of dov {i}");
                let live = live.unwrap_or_else(|e| panic!("{at}: engine hid dov {i}: {e}"));
                assert_eq!(live, blob, "{at}: snapshot vs live peek of dov {i}");
            } else {
                assert!(read.is_err(), "{at}: snapshot exposed invisible dov {i}");
                assert!(browsed.is_err(), "{at}: browse exposed invisible dov {i}");
                assert!(live.is_err(), "{at}: engine exposed invisible dov {i}");
            }
        }
    }
}

/// Runs the oracle with a snapshot-equivalence diff after *every* op:
/// each applied op captures a fresh snapshot and proves it answers
/// reads identically to the engine state it froze.
fn snapshot_campaign(seed: u64, mode: StagingMode, ops: usize) {
    let mut rig = bootstrap_with(mode);
    let mut rng = SplitMix64::new(seed);
    let mut m = Model::from_bootstrap(&rig.en);
    let mut w = World {
        cells: Vec::new(),
        cvs: Vec::new(),
        variants: Vec::new(),
        designs: Vec::new(),
        dovs: Vec::new(),
    };
    for n in 0..ops {
        let (kind, predicted, actual) = step(&mut rig, &mut rng, &mut m, &mut w);
        m.record(kind, predicted);
        diff_step(&rig, &m, seed, n, kind, predicted, &actual);
        diff_snapshot(&rig, &m, &w, &format!("seed {seed:#x} step {n} ({mode:?})"));
    }
    diff_deep(&rig, &m, &w, &format!("seed {seed:#x} final ({mode:?})"));
}

/// Runs one full differential campaign: `ops` ops under `seed`, a diff
/// after every op, a deep diff every 25, and a final deep diff.
fn campaign(seed: u64, ops: usize) {
    let mut rig = bootstrap();
    let mut rng = SplitMix64::new(seed);
    let mut m = Model::from_bootstrap(&rig.en);
    let mut w = World {
        cells: Vec::new(),
        cvs: Vec::new(),
        variants: Vec::new(),
        designs: Vec::new(),
        dovs: Vec::new(),
    };
    let base_seq = rig.en.seq();
    for n in 0..ops {
        let (kind, predicted, actual) = step(&mut rig, &mut rng, &mut m, &mut w);
        m.record(kind, predicted);
        diff_step(&rig, &m, seed, n, kind, predicted, &actual);
        if n % 25 == 24 {
            diff_deep(&rig, &m, &w, &format!("seed {seed:#x} step {n}"));
        }
    }
    assert_eq!(rig.en.seq(), base_seq + ops as u64);
    assert_eq!(rig.en.journal_ops().len(), base_seq as usize + ops);
    diff_deep(&rig, &m, &w, &format!("seed {seed:#x} final"));
}

// --- suites -------------------------------------------------------------

/// The acceptance matrix: ≥5 SplitMix64 seeds × ≥200 ops each, zero
/// divergence between the flat model and the full engine stack.
#[test]
fn model_and_engine_agree_across_seeds() {
    for seed in [
        0x1995_0306_0000_0001,
        0x1995_0306_0000_0002,
        0x1995_0306_0000_0003,
        0x1995_0306_0000_0004,
        0x1995_0306_0000_0005,
        0xDA7E_0042_C0FF_EE00,
    ] {
        campaign(seed, 220);
    }
}

/// A longer single-seed soak: more collisions, more publish cycles,
/// more visibility flips — the regime where a drifting model would
/// show up as a late divergence.
#[test]
fn long_campaign_stays_in_lockstep() {
    campaign(0x0D15_EA5E_1995_0306, 600);
}

/// Snapshot equivalence: after every op, a fresh snapshot of the
/// persistent store answers reads exactly like the engine it froze —
/// under both staging modes and multiple seeds, with the repeat
/// capture shared out of the engine's cache.
#[test]
fn snapshots_answer_like_the_engine_after_every_op() {
    for seed in [0x1995_0306_0000_0011, 0x5EED_CAFE_0000_0002] {
        for mode in [StagingMode::ZeroCopy, StagingMode::DeepCopy] {
            snapshot_campaign(seed, mode, 160);
        }
    }
}

/// The model also survives a checkpoint/restore cycle in the middle of
/// a campaign: the restored engine must agree with the same model the
/// original diverged from nowhere.
#[test]
fn restored_engine_agrees_with_the_model() {
    let seed = 0x0BAC_0015_1995_0042;
    let mut rig = bootstrap();
    let mut rng = SplitMix64::new(seed);
    let mut m = Model::from_bootstrap(&rig.en);
    let mut w = World {
        cells: Vec::new(),
        cvs: Vec::new(),
        variants: Vec::new(),
        designs: Vec::new(),
        dovs: Vec::new(),
    };
    for n in 0..120 {
        let (kind, predicted, actual) = step(&mut rig, &mut rng, &mut m, &mut w);
        m.record(kind, predicted);
        diff_step(&rig, &m, seed, n, kind, predicted, &actual);
    }
    let mut backup = cad_vfs::Vfs::new();
    let dir = cad_vfs::VfsPath::parse("/backup/oracle").expect("path");
    rig.en.checkpoint(&mut backup, &dir).expect("checkpoint");
    let restored = Engine::restore_from(&mut backup, &dir).expect("restore");
    rig.en = restored;
    assert_eq!(rig.en.seq(), m.seq, "restored seq");
    diff_deep(&rig, &m, &w, "after restore");
    // Keep driving the *restored* engine against the same model.
    for n in 120..240 {
        let (kind, predicted, actual) = step(&mut rig, &mut rng, &mut m, &mut w);
        m.record(kind, predicted);
        diff_step(&rig, &m, seed, n, kind, predicted, &actual);
    }
    diff_deep(&rig, &m, &w, "restored final");
}

// --- shard-count invariance ---------------------------------------------
//
// The partitioned service of §12 must be an implementation detail:
// the same seeded op stream, submitted in the same order, must yield
// a byte-identical `(seq, Event)` transcript — including every error
// kind — at every shard count, even though cross-partition ops run as
// degenerate same-shard commits at one shard and as real two-phase
// commits at two or four. A checkpoint/sync/recover round trip must
// also land each count back on its own live fingerprint.

/// One sharded campaign driver: two designer sessions over a
/// [`ShardedService`] plus the virtual-id pools the random ops pick
/// from. The service hands out shard-count-independent virtual ids,
/// so the pools — and with them the rng draw sequence — evolve
/// identically at every count.
struct ShardRig {
    service: ShardedService,
    sessions: Vec<ShardedSession>,
    team: jcf::TeamId,
    flow: StandardFlow,
    projects: Vec<jcf::ProjectId>,
    cells: Vec<CellId>,
    cvs: Vec<CellVersionId>,
    variants: Vec<VariantId>,
    dovs: Vec<DovId>,
    fresh_names: usize,
}

/// Boots a sharded service with the same cast as [`bootstrap`]:
/// a team, two designers with open sessions, and one standard flow.
fn bootstrap_sharded(shards: usize, mode: StagingMode) -> ShardRig {
    // A wide retention window so the time-travel oracle below can
    // interrogate every commit of a campaign; the transcript tests
    // are unaffected (retention only keeps read views alive).
    let service = ShardedService::builder()
        .shards(shards)
        .staging_mode(mode)
        .retention(RetentionPolicy::LastN(512))
        .build();
    let admin = service.open_session(service.admin());
    let team = admin.add_team("asic").expect("fresh team");
    let mut sessions = Vec::with_capacity(2);
    for name in ["alice", "bob"] {
        let user = admin.add_user(name, false).expect("unique name");
        admin.add_team_member(team, user).expect("manager adds");
        sessions.push(service.open_session(user));
    }
    let flow = admin.standard_flow("asic").expect("fresh flow");
    ShardRig {
        service,
        sessions,
        team,
        flow,
        projects: Vec::new(),
        cells: Vec::new(),
        cvs: Vec::new(),
        variants: Vec::new(),
        dovs: Vec::new(),
        fresh_names: 0,
    }
}

/// Applies one random op through a designer session and renders the
/// outcome — `seq|event` on success, `err|kind` on failure — so whole
/// transcripts compare bytewise across shard counts. Project names
/// come from a fresh counter, so successive projects hash onto
/// different partitions and the comp-of/equivalence arms regularly
/// cross them.
fn shard_step(rig: &mut ShardRig, rng: &mut SplitMix64) -> String {
    let who = rng.below(2);
    let user = rig.sessions[who].user();
    let op = match rng.below(12) {
        0 => {
            rig.fresh_names += 1;
            Op::CreateProject {
                name: format!("p{}", rig.fresh_names),
            }
        }
        // Deliberate collision: a duplicate once "p1" exists.
        1 => Op::CreateProject { name: "p1".into() },
        2 => match pick(rng, rig.projects.len()) {
            Some(p) => {
                rig.fresh_names += 1;
                Op::CreateCell {
                    project: rig.projects[p],
                    name: format!("c{}", rig.fresh_names),
                }
            }
            None => fresh_project(rig),
        },
        3 => match pick(rng, rig.cells.len()) {
            Some(c) => Op::CreateCellVersion {
                cell: rig.cells[c],
                flow: rig.flow.flow,
                team: rig.team,
            },
            None => fresh_project(rig),
        },
        4 => match pick(rng, rig.cvs.len()) {
            Some(c) => Op::Reserve {
                user,
                cv: rig.cvs[c],
            },
            None => fresh_project(rig),
        },
        5 => match pick(rng, rig.cvs.len()) {
            Some(c) => Op::Publish {
                user,
                cv: rig.cvs[c],
            },
            None => fresh_project(rig),
        },
        6 => match pick(rng, rig.cvs.len()) {
            Some(c) => Op::DeriveVariant {
                user,
                cv: rig.cvs[c],
                name: format!("v{}", rng.below(4)),
                base: None,
            },
            None => fresh_project(rig),
        },
        7 => {
            let data = Blob::from(format!("netlist {}", rng.next_u64()));
            match pick(rng, rig.variants.len()) {
                Some(v) => Op::RunActivity {
                    user,
                    variant: rig.variants[v],
                    activity: rig.flow.enter_schematic,
                    override_pending: false,
                    outputs: vec![("schematic".into(), data)],
                    session_error: None,
                },
                None => fresh_project(rig),
            }
        }
        8 => match pick(rng, rig.dovs.len()) {
            Some(d) => Op::Browse {
                user,
                dov: rig.dovs[d],
            },
            None => fresh_project(rig),
        },
        9 => match pick(rng, rig.dovs.len()) {
            Some(d) => Op::ReadDesignData {
                user,
                dov: rig.dovs[d],
            },
            None => fresh_project(rig),
        },
        // The two routing-class-crossing arms: parent and child (or
        // the two versions) usually live on different partitions.
        10 => match (pick(rng, rig.cvs.len()), pick(rng, rig.cells.len())) {
            (Some(c), Some(k)) => Op::DeclareCompOf {
                user,
                cv: rig.cvs[c],
                child: rig.cells[k],
            },
            _ => fresh_project(rig),
        },
        _ => match (pick(rng, rig.dovs.len()), pick(rng, rig.dovs.len())) {
            (Some(a), Some(b)) => Op::MarkEquivalent {
                a: rig.dovs[a],
                b: rig.dovs[b],
            },
            _ => fresh_project(rig),
        },
    };
    match rig.sessions[who].apply_seq(op) {
        Ok((seq, event)) => {
            match &event {
                Event::ProjectCreated(id) => rig.projects.push(*id),
                Event::CellCreated(id) => rig.cells.push(*id),
                Event::CellVersionCreated(cv, variant) => {
                    rig.cvs.push(*cv);
                    rig.variants.push(*variant);
                }
                Event::VariantDerived(id) => rig.variants.push(*id),
                Event::ActivityRun { dovs } => rig.dovs.extend(dovs.iter().copied()),
                _ => {}
            }
            format!("{seq}|{event:?}")
        }
        Err(e) => format!("err|{}", e.kind()),
    }
}

/// Fallback op for arms whose pool is still empty: mint another
/// project, which both feeds later arms and spreads placement.
fn fresh_project(rig: &mut ShardRig) -> Op {
    rig.fresh_names += 1;
    Op::CreateProject {
        name: format!("p{}", rig.fresh_names),
    }
}

/// Runs one seeded campaign and returns its rendered transcript.
fn sharded_transcript(shards: usize, mode: StagingMode, seed: u64, ops: usize) -> Vec<String> {
    let mut rig = bootstrap_sharded(shards, mode);
    let mut rng = SplitMix64::new(seed);
    (0..ops).map(|_| shard_step(&mut rig, &mut rng)).collect()
}

/// The flagship invariance check: at two seeds and both staging
/// modes, the 2- and 4-shard transcripts equal the 1-shard reference
/// step for step — sequence numbers, event payloads and error kinds.
#[test]
fn sharded_transcripts_are_invariant_across_shard_counts() {
    for seed in [0x51AD_0001_1995_0306, 0xD1CE_0002_0000_0042] {
        for mode in [StagingMode::ZeroCopy, StagingMode::DeepCopy] {
            let reference = sharded_transcript(1, mode, seed, 220);
            for shards in [2usize, 4] {
                let got = sharded_transcript(shards, mode, seed, 220);
                assert_eq!(got.len(), reference.len(), "transcript length");
                for (n, (want, have)) in reference.iter().zip(&got).enumerate() {
                    assert_eq!(
                        have, want,
                        "seed {seed:#x} {mode:?}: {shards}-shard transcript \
                         diverged at step {n}"
                    );
                }
            }
        }
    }
}

/// Checkpoint mid-campaign, keep driving, sync the tail, recover: at
/// every shard count the recovered service reports a clean shutdown
/// (no rolled-back prepares), reproduces the live fingerprint and
/// sequence number, and the transcript around the checkpoint still
/// matches the 1-shard reference.
#[test]
fn sharded_recovery_lands_on_the_live_fingerprint_at_every_count() {
    let seed = 0x0BAC_0015_1995_0107;
    let mut reference: Option<Vec<String>> = None;
    for shards in [1usize, 2, 4] {
        let mut rig = bootstrap_sharded(shards, StagingMode::default());
        let mut rng = SplitMix64::new(seed);
        let mut transcript: Vec<String> =
            (0..140).map(|_| shard_step(&mut rig, &mut rng)).collect();
        let mut backup = Vfs::new();
        let root = VfsPath::parse("/backup/oracle-shards").expect("valid path");
        rig.service
            .checkpoint(&mut backup, &root)
            .expect("checkpoint");
        transcript.extend((0..60).map(|_| shard_step(&mut rig, &mut rng)));
        rig.service.sync(&mut backup, &root).expect("sync");
        let (restored, report) = ShardedService::recover(&mut backup, &root).expect("recover");
        assert!(
            report.rolled_back_prepares.is_empty(),
            "{shards}-shard clean shutdown rolls back nothing"
        );
        assert_eq!(
            restored.state_fingerprint().expect("restored fingerprint"),
            rig.service.state_fingerprint().expect("live fingerprint"),
            "{shards}-shard recovery fingerprint"
        );
        assert_eq!(
            restored.stats().seq,
            rig.service.stats().seq,
            "{shards}-shard recovered sequence number"
        );
        match &reference {
            None => reference = Some(transcript),
            Some(want) => assert_eq!(
                &transcript, want,
                "{shards}-shard transcript around the checkpoint"
            ),
        }
    }
}

// --- time-travel vs point-in-time recovery ------------------------------
//
// §15's flagship equivalence: `Session::at(seq)` — a zero-copy read
// view served out of the retention ring — must answer every read
// *identically* to a fresh engine recovered to the same seq with
// `Engine::recover_at`. The ring is an optimization over replay, so
// any divergence between the two is a correctness bug in one of them.

/// Renders one read result as a comparable line: payload bytes on
/// success, the typed error kind on failure.
fn render_read(result: Result<Blob, HybridError>) -> String {
    match result {
        Ok(blob) => format!("ok|{:x?}", blob.as_slice()),
        Err(e) => format!("err|{}", e.kind()),
    }
}

/// Pools of live ids plus per-commit marks of how large each pool was,
/// so a retained seq can be interrogated with exactly the ids that
/// existed then.
#[derive(Default)]
struct HistoryPools {
    projects: Vec<jcf::ProjectId>,
    cvs: Vec<CellVersionId>,
    cells: Vec<CellId>,
    variants: Vec<VariantId>,
    dovs: Vec<DovId>,
    fresh: usize,
    /// `(seq, dovs.len(), cvs.len())` after each successful op.
    marks: Vec<(u64, usize, usize)>,
}

impl HistoryPools {
    /// The pool sizes as of commit `seq`.
    fn sizes_at(&self, seq: u64) -> (usize, usize) {
        self.marks
            .iter()
            .rev()
            .find(|(s, ..)| *s <= seq)
            .map(|&(_, d, c)| (d, c))
            .unwrap_or((0, 0))
    }

    /// Draws the next op — the same §2.1 mix as the sharded
    /// transcript driver, expressed over this rig's ids.
    fn draw(
        &mut self,
        rng: &mut SplitMix64,
        user: UserId,
        team: jcf::TeamId,
        flow: &StandardFlow,
    ) -> Op {
        let fresh = |p: &mut HistoryPools| {
            p.fresh += 1;
            Op::CreateProject {
                name: format!("hp{}", p.fresh),
            }
        };
        match rng.below(10) {
            0 => fresh(self),
            1 => Op::CreateProject { name: "hp1".into() },
            2 => match pick(rng, self.projects.len()) {
                Some(p) => {
                    self.fresh += 1;
                    Op::CreateCell {
                        project: self.projects[p],
                        name: format!("hc{}", self.fresh),
                    }
                }
                None => fresh(self),
            },
            3 => match pick(rng, self.cells.len()) {
                Some(c) => Op::CreateCellVersion {
                    cell: self.cells[c],
                    flow: flow.flow,
                    team,
                },
                None => fresh(self),
            },
            4 => match pick(rng, self.cvs.len()) {
                Some(c) => Op::Reserve {
                    user,
                    cv: self.cvs[c],
                },
                None => fresh(self),
            },
            5 => match pick(rng, self.cvs.len()) {
                Some(c) => Op::Publish {
                    user,
                    cv: self.cvs[c],
                },
                None => fresh(self),
            },
            6 | 7 => match pick(rng, self.variants.len()) {
                Some(v) => Op::RunActivity {
                    user,
                    variant: self.variants[v],
                    activity: flow.enter_schematic,
                    override_pending: false,
                    outputs: vec![(
                        "schematic".into(),
                        Blob::from(format!("netlist {}", rng.next_u64())),
                    )],
                    session_error: None,
                },
                None => fresh(self),
            },
            _ => match (pick(rng, self.dovs.len()), pick(rng, self.dovs.len())) {
                (Some(a), Some(b)) => Op::MarkEquivalent {
                    a: self.dovs[a],
                    b: self.dovs[b],
                },
                _ => fresh(self),
            },
        }
    }

    /// Absorbs a committed `(seq, event)` into the pools.
    fn absorb(&mut self, seq: u64, event: &Event) {
        match event {
            Event::ProjectCreated(id) => self.projects.push(*id),
            Event::CellCreated(id) => self.cells.push(*id),
            Event::CellVersionCreated(cv, variant) => {
                self.cvs.push(*cv);
                self.variants.push(*variant);
            }
            Event::VariantDerived(id) => self.variants.push(*id),
            Event::ActivityRun { dovs } => self.dovs.extend(dovs.iter().copied()),
            _ => {}
        }
        self.marks.push((seq, self.dovs.len(), self.cvs.len()));
    }
}

/// Drives a retained [`Service`] with a durable journal, then proves
/// every retained seq answers every read — desktop read, browse,
/// library name, impact queries — exactly like `Engine::recover_at`
/// replaying the persisted chain to the same seq.
fn history_matches_recovery_campaign(mode: StagingMode, seed: u64, ops: usize) {
    let dir = VfsPath::parse("/backup/history-oracle").expect("valid path");
    let service = Service::with_retention(
        Engine::builder().staging_mode(mode).build(),
        RetentionPolicy::LastN(512),
    );
    let mut backup = Vfs::new();
    // Base checkpoint at seq 0: every later commit is reachable by
    // point-in-time recovery, so no retained seq needs skipping.
    service
        .with_engine(|en| en.checkpoint(&mut backup, &dir))
        .expect("base checkpoint");
    let admin = service.open_session(service.admin());
    let alice = admin.add_user("alice", false).expect("alice");
    let bob = admin.add_user("bob", false).expect("bob");
    let team = admin.add_team("asic").expect("team");
    admin.add_team_member(team, alice).expect("alice joins");
    admin.add_team_member(team, bob).expect("bob joins");
    let flow = admin.standard_flow("asic").expect("flow");
    let sessions = [service.open_session(alice), service.open_session(bob)];
    let users = [alice, bob];
    let mut rng = SplitMix64::new(seed);
    let mut pools = HistoryPools::default();
    pools.marks.push((service.snapshot().seq(), 0, 0));
    for n in 0..ops {
        let who = rng.below(2);
        let op = pools.draw(&mut rng, users[who], team, &flow);
        if let Ok((seq, event)) = sessions[who].apply_seq(op) {
            pools.absorb(seq, &event);
        }
        if n % 25 == 24 {
            service
                .with_engine(|en| en.sync_journal(&mut backup, &dir))
                .expect("periodic sync");
        }
    }
    service
        .with_engine(|en| en.sync_journal(&mut backup, &dir))
        .expect("final sync");

    let retained = service.retained_seqs();
    assert!(
        retained.len() > ops / 2,
        "the 512-window ring must retain the whole campaign, got {}",
        retained.len()
    );
    let project = pools.projects.first().copied();
    for &seq in &retained {
        let mut disk = backup.clone();
        let (recovered, _) = Engine::recover_at(&mut disk, &dir, seq)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: recover_at({seq}) failed: {e}"));
        assert_eq!(recovered.seq(), seq, "recovery landed on the wrong seq");
        let rsnap = recovered.snapshot();
        let (ndovs, ncvs) = pools.sizes_at(seq);
        for (who, user) in users.into_iter().enumerate() {
            let at = format!("seed {seed:#x} {mode:?} seq {seq} user {who}");
            let hv = sessions[who]
                .at(seq)
                .unwrap_or_else(|e| panic!("{at}: retained seq rejected: {e}"));
            assert_eq!(hv.seq(), seq, "{at}: view seq");
            for &dov in &pools.dovs[..ndovs] {
                assert_eq!(
                    render_read(hv.read_design_data(dov)),
                    render_read(rsnap.read_design_data(user, dov)),
                    "{at}: read_design_data({dov}) diverged from recovery"
                );
                assert_eq!(
                    render_read(hv.browse(dov)),
                    render_read(rsnap.browse(user, dov)),
                    "{at}: browse({dov}) diverged from recovery"
                );
            }
            for &cv in &pools.cvs[..ncvs] {
                assert_eq!(
                    hv.stale_dovs(cv),
                    rsnap.stale_dovs(cv),
                    "{at}: stale_dovs({cv}) diverged from recovery"
                );
                assert_eq!(
                    format!("{:?}", hv.impacted_cellviews(cv)),
                    format!("{:?}", rsnap.impacted_cellviews(cv)),
                    "{at}: impacted_cellviews({cv}) diverged from recovery"
                );
            }
            if let Some(project) = project {
                assert_eq!(
                    hv.library_of(project).ok().map(str::to_owned),
                    rsnap.library_of(project).ok().map(str::to_owned),
                    "{at}: library_of diverged from recovery"
                );
            }
        }
    }
}

/// The single-engine flagship: both staging modes, two seeds, every
/// retained seq cross-checked against point-in-time recovery.
#[test]
fn history_views_answer_like_point_in_time_recovery() {
    for seed in [0x1995_0306_0000_0021, 0x5EED_CAFE_0000_0007] {
        for mode in [StagingMode::ZeroCopy, StagingMode::DeepCopy] {
            history_matches_recovery_campaign(mode, seed, 100);
        }
    }
}

/// The sharded twin: a seeded campaign per shard count with a durable
/// chain, then sampled retained seqs interrogated through
/// `ShardedSession::at` and cross-checked against
/// `ShardedService::recover_at` — and the per-seq answers compared
/// across 1/2/4 shards, since the virtual-id surface promises
/// shard-count invariance for reads too.
fn sharded_history_digest(shards: usize, mode: StagingMode, seed: u64) -> Vec<String> {
    let root = VfsPath::parse("/backup/history-oracle-shards").expect("valid path");
    let mut rig = bootstrap_sharded(shards, mode);
    let mut backup = Vfs::new();
    rig.service
        .checkpoint(&mut backup, &root)
        .expect("base checkpoint");
    let base = rig.service.stats().seq;
    let mut rng = SplitMix64::new(seed);
    for n in 0..120 {
        shard_step(&mut rig, &mut rng);
        if n % 30 == 29 {
            rig.service.sync(&mut backup, &root).expect("periodic sync");
        }
    }
    rig.service.sync(&mut backup, &root).expect("final sync");

    let session = rig.service.open_session(rig.sessions[0].user());
    let user = session.user();
    let retained: Vec<u64> = rig
        .service
        .retained_seqs()
        .into_iter()
        .filter(|&s| s >= base)
        .collect();
    assert!(
        retained.len() > 60,
        "{shards}-shard ring kept {} reachable seqs",
        retained.len()
    );
    // Every 7th retained seq plus the newest: enough boundaries to
    // cross sealed/open segments without recovering 120 services.
    let sampled: Vec<u64> = retained
        .iter()
        .copied()
        .step_by(7)
        .chain(retained.last().copied())
        .collect();
    let mut digest = Vec::new();
    for &seq in &sampled {
        let mut disk = backup.clone();
        let (recovered, _) = ShardedService::recover_at(&mut disk, &root, seq)
            .unwrap_or_else(|e| panic!("{shards}-shard recover_at({seq}) failed: {e}"));
        assert_eq!(recovered.stats().seq, seq + 1, "recovery landed off target");
        let rview = recovered.view();
        let hv = session
            .at(seq)
            .unwrap_or_else(|e| panic!("{shards}-shard at({seq}) rejected: {e}"));
        let mut lines = Vec::new();
        for &dov in &rig.dovs {
            let line = render_read(hv.read_design_data(dov));
            assert_eq!(
                line,
                render_read(rview.read_design_data(user, dov)),
                "{shards}-shard seq {seq}: read_design_data({dov}) diverged from recovery"
            );
            lines.push(format!("{seq}|{dov}|{line}"));
        }
        for &cv in &rig.cvs {
            let stale = hv.view().stale_dovs(cv);
            let recovered_stale = rview.stale_dovs(cv);
            let line = match (&stale, &recovered_stale) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{shards}-shard seq {seq}: stale_dovs({cv}) diverged");
                    format!("ok|{a:?}")
                }
                (Err(a), Err(b)) => {
                    assert_eq!(
                        a.kind(),
                        b.kind(),
                        "{shards}-shard seq {seq}: stale_dovs({cv}) error kind diverged"
                    );
                    format!("err|{}", a.kind())
                }
                (a, b) => panic!(
                    "{shards}-shard seq {seq}: stale_dovs({cv}) split: live {a:?} vs recovered {b:?}"
                ),
            };
            lines.push(format!("{seq}|{cv}|{line}"));
        }
        digest.extend(lines);
    }
    digest
}

/// Sharded flagship: the per-seq digest (reads + impact sets, each
/// already proven equal to its own recovery) must also be identical
/// across shard counts, both staging modes.
#[test]
fn sharded_history_views_answer_like_recovery_at_every_count() {
    for mode in [StagingMode::ZeroCopy, StagingMode::DeepCopy] {
        let seed = 0x51AD_0015_1995_0306;
        let reference = sharded_history_digest(1, mode, seed);
        assert!(!reference.is_empty());
        for shards in [2usize, 4] {
            assert_eq!(
                sharded_history_digest(shards, mode, seed),
                reference,
                "{shards}-shard history digest diverged ({mode:?})"
            );
        }
    }
}
