//! Immutable, shareable views over the coupled frameworks.
//!
//! §3.6 of the paper observes that *"design data have to be copied to
//! and from the JCF database even in the case of read only accesses"*
//! — the live [`Engine::browse`](crate::Engine::browse) path pays that
//! cost faithfully. A [`Snapshot`] is the coupling layer's answer for
//! concurrent read-mostly sessions: a frozen view of the OMS database
//! plus the coupling state, taken in one call and readable from any
//! number of threads with **zero** byte copies — design data comes
//! back as shared [`Blob`] handles straight out of the snapshot
//! database, never touching the staging area, the desktop counters or
//! the ops journal.
//!
//! A snapshot is *consistent* (it reflects exactly the engine state at
//! one sequence number, recorded in [`Snapshot::seq`]) and *detached*
//! (later engine mutations are invisible; take a new snapshot to see
//! them).

use std::sync::Arc;

use cad_vfs::Blob;
use jcf::{CellVersionId, DesignObjectId, DovId, Jcf, ProjectId, UserId, ViewTypeId};
use oms::PMap;

use crate::error::{HybridError, HybridResult};
use crate::framework::{Hybrid, MirrorLocation, StagingMode};
use crate::service::ReadView;

/// A frozen, thread-shareable view of an engine: the master framework
/// (with its OMS database) plus the Table-1 coupling maps, fixed at
/// one engine sequence number.
///
/// Created by [`Engine::snapshot`](crate::Engine::snapshot) (or by the
/// session [`Service`](crate::Service), which republishes one after
/// every write batch). All methods take `&self`; the type is `Send +
/// Sync`, so one snapshot can serve many reader threads at once.
///
/// # Examples
///
/// ```
/// use hybrid::Engine;
///
/// # fn main() -> Result<(), hybrid::HybridError> {
/// let mut engine = Engine::new();
/// let project = engine.create_project("alu16")?;
/// let snap = engine.snapshot();
/// // The snapshot answers reads without touching the engine...
/// assert_eq!(snap.library_of(project)?, "alu16");
/// // ...and stays fixed while the engine moves on.
/// engine.create_project("filter")?;
/// assert_eq!(snap.seq(), 1);
/// assert_eq!(engine.seq(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Snapshot {
    jcf: Jcf,
    seq: u64,
    staging_mode: StagingMode,
    project_lib: PMap<ProjectId, Arc<str>>,
    cv_cell: PMap<CellVersionId, Arc<str>>,
    viewtype_names: PMap<ViewTypeId, Arc<str>>,
    dov_mirror: PMap<DovId, Arc<MirrorLocation>>,
}

impl Snapshot {
    /// Freezes the given hybrid state at the given sequence number.
    ///
    /// This is O(1): the OMS database and all four coupling maps are
    /// persistent structures, so each `clone` below is a reference-count
    /// bump and later engine writes path-copy away from the snapshot
    /// instead of invalidating it.
    pub(crate) fn capture(hy: &Hybrid, seq: u64) -> Snapshot {
        Snapshot {
            jcf: hy.jcf.snapshot(),
            seq,
            staging_mode: hy.staging_mode,
            project_lib: hy.project_lib.clone(),
            cv_cell: hy.cv_cell.clone(),
            viewtype_names: hy.viewtype_names.clone(),
            dov_mirror: hy.dov_mirror.clone(),
        }
    }

    /// The engine sequence number this snapshot reflects.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The staging mode that was active when the snapshot was taken.
    pub fn staging_mode(&self) -> StagingMode {
        self.staging_mode
    }

    /// Read access to the frozen master framework — every `&self`
    /// query of [`Jcf`] works here.
    pub fn jcf(&self) -> &Jcf {
        &self.jcf
    }

    /// Reads a design object version's data with the same visibility
    /// rule as the live desktop (published, or reserved by `user`) but
    /// none of its costs: the bytes come back as a shared [`Blob`]
    /// handle out of the snapshot database — no staging file, no
    /// desktop-counter bump, no journal entry.
    ///
    /// # Errors
    ///
    /// Returns the same visibility errors as the live path.
    pub fn read_design_data(&self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        Ok(self.jcf.peek_design_data(user, dov)?)
    }

    /// Browses a design object version read-only. On a snapshot this
    /// is the same zero-copy read as [`Snapshot::read_design_data`] —
    /// the §3.6 copy-through-staging cost is a property of the *live*
    /// coupled path, which a frozen view never takes.
    ///
    /// # Errors
    ///
    /// Returns the same visibility errors as the live path.
    pub fn browse(&self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        self.read_design_data(user, dov)
    }

    /// The FMCAD library mapped from a project (Table 1).
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::MappingMissing`] for uncoupled projects.
    pub fn library_of(&self, project: ProjectId) -> HybridResult<&str> {
        self.project_lib
            .get(&project)
            .map(|s| &**s)
            .ok_or_else(|| HybridError::MappingMissing(format!("library of {project}")))
    }

    /// The FMCAD cell mapped from a cell version (Table 1).
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::MappingMissing`] for uncoupled versions.
    pub fn fmcad_cell_of(&self, cv: CellVersionId) -> HybridResult<&str> {
        self.cv_cell
            .get(&cv)
            .map(|s| &**s)
            .ok_or_else(|| HybridError::MappingMissing(format!("fmcad cell of {cv}")))
    }

    /// The name of a registered viewtype.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::MappingMissing`] for foreign ids.
    pub fn viewtype_name(&self, id: ViewTypeId) -> HybridResult<&str> {
        self.viewtype_names
            .get(&id)
            .map(|s| &**s)
            .ok_or_else(|| HybridError::MappingMissing(format!("viewtype {id}")))
    }

    /// Where a design object version is mirrored in FMCAD, if it is.
    pub fn mirror_of(&self, dov: DovId) -> Option<&MirrorLocation> {
        self.dov_mirror.get(&dov).map(|m| &**m)
    }

    /// [`Snapshot::mirror_of`] as a shared handle, for composed views
    /// that outlive the borrow.
    pub(crate) fn mirror_arc(&self, dov: DovId) -> Option<Arc<MirrorLocation>> {
        self.dov_mirror.get(&dov).map(Arc::clone)
    }

    /// Every design object version under `cv`: all versions of all
    /// design objects of all of its variants, in sorted id order. The
    /// seed set of the impact queries.
    pub(crate) fn dovs_under(&self, cv: CellVersionId) -> Vec<DovId> {
        let mut out: Vec<DovId> = Vec::new();
        for variant in self.jcf.variants_of(cv) {
            for design_object in self.jcf.design_objects_of(variant) {
                out.extend(self.jcf.versions_of_design_object(design_object));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The impact neighbours of one design object version: everything
    /// derived from it plus everything marked equivalent to it.
    pub(crate) fn impact_neighbors(&self, dov: DovId) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .jcf
            .derivations_of(dov)
            .into_iter()
            .map(DovId::raw)
            .collect();
        out.extend(self.jcf.equivalents_of(dov).into_iter().map(DovId::raw));
        out
    }

    /// Everything that goes stale if `cv` changes: the design object
    /// versions reachable from any version under `cv` through the
    /// derivation and equivalence graphs ("It's a Complete Haystack" —
    /// the dependency-impact answer the 1995 coupling could not give).
    /// Versions under `cv` itself are excluded; the answer is sorted by
    /// id, so equal states give byte-equal answers.
    pub fn stale_dovs(&self, cv: CellVersionId) -> Vec<DovId> {
        let seeds: Vec<u64> = self.dovs_under(cv).into_iter().map(DovId::raw).collect();
        oms::graph::reachable(&seeds, |id| self.impact_neighbors(DovId::from_raw(id)))
            .into_iter()
            .map(DovId::from_raw)
            .collect()
    }

    /// The stale set of [`Snapshot::stale_dovs`] narrowed to versions
    /// mirrored into FMCAD: the cellviews an ECAD user would actually
    /// see go out of date, with their Table-1 mirror locations.
    pub fn impacted_cellviews(&self, cv: CellVersionId) -> Vec<(DovId, Arc<MirrorLocation>)> {
        self.impact(cv).1
    }

    /// [`Snapshot::stale_dovs`] and [`Snapshot::impacted_cellviews`]
    /// from one walk of the graph.
    pub fn impact(&self, cv: CellVersionId) -> ImpactAnswer {
        let stale = self.stale_dovs(cv);
        let mirrored = stale
            .iter()
            .filter_map(|&dov| self.dov_mirror.get(&dov).map(|m| (dov, Arc::clone(m))))
            .collect();
        (stale, mirrored)
    }
}

/// An impact-query answer: the stale derivation cone of a cell
/// version, plus its FMCAD-mirrored subset with mirror locations.
pub type ImpactAnswer = (Vec<DovId>, Vec<(DovId, Arc<MirrorLocation>)>);

impl ReadView for Snapshot {
    fn browse(&self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        Snapshot::browse(self, user, dov)
    }

    fn read_design_data(&self, user: UserId, dov: DovId) -> HybridResult<Blob> {
        Snapshot::read_design_data(self, user, dov)
    }

    fn design_object_versions(
        &self,
        cv: CellVersionId,
    ) -> HybridResult<Vec<(DesignObjectId, u32)>> {
        let jcf = &self.jcf;
        let mut out: Vec<(DesignObjectId, u32)> = jcf
            .variants_of(cv)
            .into_iter()
            .flat_map(|variant| jcf.design_objects_of(variant))
            .map(|d| (d, jcf.versions_of_design_object(d).len() as u32))
            .collect();
        out.sort_unstable_by_key(|(d, _)| *d);
        out.dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encapsulation::ToolOutput;
    use crate::engine::Engine;

    fn seeded() -> (Engine, UserId, crate::framework::StandardFlow, jcf::TeamId) {
        let mut en = Engine::new();
        let admin = en.admin();
        let alice = en.add_user("alice", false).unwrap();
        let team = en.add_team(admin, "asic").unwrap();
        en.add_team_member(admin, team, alice).unwrap();
        let flow = en.standard_flow("std").unwrap();
        (en, alice, flow, team)
    }

    fn seeded_with_data() -> (Engine, UserId, DovId) {
        let (mut en, alice, flow, team) = seeded();
        let project = en.create_project("alu").unwrap();
        let cell = en.create_cell(project, "adder").unwrap();
        let (cv, variant) = en.create_cell_version(cell, flow.flow, team).unwrap();
        en.reserve(alice, cv).unwrap();
        let dovs = en
            .run_activity(alice, variant, flow.enter_schematic, false, |_s| {
                Ok(vec![ToolOutput {
                    viewtype: "schematic".into(),
                    data: b"netlist adder\nport a input\n".to_vec().into(),
                }])
            })
            .unwrap();
        (en, alice, dovs[0])
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_both<T: Send + Sync>() {}
        assert_both::<Snapshot>();
    }

    #[test]
    fn snapshot_reads_match_the_live_desktop() {
        let (mut en, alice, dov) = seeded_with_data();
        let live = en.read_design_data(alice, dov).unwrap();
        let snap = en.snapshot();
        let frozen = snap.read_design_data(alice, dov).unwrap();
        assert_eq!(live, frozen);
        assert_eq!(snap.browse(alice, dov).unwrap(), frozen);
    }

    #[test]
    fn snapshot_reads_are_zero_copy_and_unjournaled() {
        let (en, alice, dov) = seeded_with_data();
        let seq_before = en.seq();
        let desktop_before = en.jcf().desktop_ops();
        let snap = en.snapshot();
        let before = Blob::materializations();
        let a = snap.read_design_data(alice, dov).unwrap();
        let b = snap.browse(alice, dov).unwrap();
        assert_eq!(Blob::materializations(), before, "no byte copies");
        assert!(Blob::ptr_eq(&a, &b), "both reads share one payload");
        assert_eq!(en.seq(), seq_before, "nothing journaled");
        assert_eq!(en.jcf().desktop_ops(), desktop_before, "no desktop bump");
    }

    #[test]
    fn snapshot_enforces_desktop_visibility() {
        let (mut en, alice, dov) = seeded_with_data();
        let mallory = en.add_user("mallory", false).unwrap();
        let snap = en.snapshot();
        assert!(snap.read_design_data(alice, dov).is_ok(), "holder reads");
        assert!(
            snap.read_design_data(mallory, dov).is_err(),
            "unpublished data stays invisible to strangers"
        );
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let (mut en, alice, dov) = seeded_with_data();
        let snap = en.snapshot();
        let frozen = snap.read_design_data(alice, dov).unwrap();
        let mirror = snap.mirror_of(dov).cloned().unwrap();
        // The engine moves on: a new project and a new mirror state.
        en.create_project("filter").unwrap();
        assert_eq!(snap.seq() + 1, en.seq());
        assert_eq!(snap.read_design_data(alice, dov).unwrap(), frozen);
        assert_eq!(snap.mirror_of(dov), Some(&mirror));
    }

    #[test]
    fn coupling_queries_survive_the_freeze() {
        let (mut en, _alice, flow, team) = seeded();
        let project = en.create_project("alu").unwrap();
        let cell = en.create_cell(project, "adder").unwrap();
        let (cv, _variant) = en.create_cell_version(cell, flow.flow, team).unwrap();
        let snap = en.snapshot();
        assert_eq!(snap.library_of(project).unwrap(), "alu");
        assert_eq!(snap.fmcad_cell_of(cv).unwrap(), "adder_v1");
        let schematic = en.viewtype("schematic").unwrap();
        assert_eq!(snap.viewtype_name(schematic).unwrap(), "schematic");
        assert_eq!(snap.staging_mode(), en.staging_mode());
    }
}
