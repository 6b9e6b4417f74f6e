//! The hybrid framework object: coupling state and project structure.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cad_tools::ToolKind;
use fmcad::Fmcad;
use jcf::{
    CellId, CellVersionId, DovId, FlowId, Jcf, ProjectId, TeamId, ToolId, UserId, VariantId,
    ViewTypeId,
};
use oms::PMap;

use crate::error::{HybridError, HybridResult};

/// The user name the coupling layer acts under on the FMCAD side.
pub const COUPLER: &str = "jcf-coupler";

/// The §2.4 bootstrap script installed into FMCAD's customisation
/// layer: an extension-language wrapper that locks the
/// direct-manipulation menus of every coupled library. A restart
/// re-runs it (customisation state is session-local, like the original
/// system's).
pub(crate) const BOOTSTRAP_SCRIPT: &str = r#"
                (define (couple-library lib)
                  (host-call "lock-menu" (string-append lib ":Check In"))
                  (host-call "lock-menu" (string-append lib ":Check Out"))
                  (host-call "lock-menu" (string-append lib ":Delete Cell"))
                  (host-call "log" (string-append "coupled " lib)))
                (host-call "register-trigger" "library-coupled" "couple-library")
                "#;

/// How the encapsulation pipeline moves design data between the OMS
/// database, the staging area and the mirrored FMCAD library.
///
/// The *modelled* cost (the [`cad_vfs::CostMeter`] ticks of experiment
/// E9) is identical in both modes — every staging leg still charges its
/// per-byte I/O. What differs is the *host* cost: how many physical
/// byte copies the coupling layer performs per activity run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StagingMode {
    /// Design data travels as shared [`cad_vfs::Blob`] handles; each
    /// staging leg is a reference-count bump and mirroring skips the
    /// FMCAD check-in entirely when the content hash of the mirrored
    /// view already matches (the content-addressed mirror cache).
    #[default]
    ZeroCopy,
    /// Every staging and mirroring leg deep-copies the bytes and the
    /// mirror cache is bypassed — the behaviour of the original
    /// Vec-based pipeline, kept as the honest baseline for experiment
    /// E10's wall-clock comparison.
    DeepCopy,
}

impl StagingMode {
    /// One hop of design data through the staging pipeline. Zero-copy
    /// staging just moves the shared handle; deep-copy staging performs
    /// the physical byte copy the original pipeline paid on every leg.
    pub(crate) fn leg(self, data: cad_vfs::Blob) -> cad_vfs::Blob {
        match self {
            StagingMode::ZeroCopy => data,
            StagingMode::DeepCopy => data.deep_clone(),
        }
    }
}

/// Where a design object version is mirrored in the FMCAD world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorLocation {
    /// The FMCAD library (mapped from the JCF project).
    pub library: String,
    /// The FMCAD cell (mapped from the JCF cell version).
    pub cell: String,
    /// The FMCAD view (mapped from the JCF viewtype).
    pub view: String,
    /// The cellview version number.
    pub version: u32,
}

/// The hybrid JCF-FMCAD framework — the paper's contribution.
///
/// JCF is the **master**: all design management (projects, versions,
/// variants, workspaces, flows, configurations) runs through the JCF
/// desktop. FMCAD is the **slave**: its libraries mirror the JCF
/// project data according to Table 1, its tools do the actual editing,
/// and extension-language wrappers keep its menus locked so designers
/// cannot bypass the master (§2.3–2.4).
///
/// `Hybrid` itself exposes only read access; every mutation goes
/// through [`Engine::apply`](crate::Engine::apply) (or its typed
/// wrappers), which dereferences to `Hybrid` for the getters.
///
/// # Examples
///
/// ```
/// use hybrid::Engine;
///
/// # fn main() -> Result<(), hybrid::HybridError> {
/// let mut engine = Engine::new();
/// let admin = engine.admin();
/// let alice = engine.add_user("alice", false)?;
/// let team = engine.add_team(admin, "asic")?;
/// engine.add_team_member(admin, team, alice)?;
/// let flow = engine.standard_flow("asic-flow")?;
/// let project = engine.create_project("alu16")?;
/// let cell = engine.create_cell(project, "adder")?;
/// let (cv, _variant) = engine.create_cell_version(cell, flow.flow, team)?;
/// // The mapped FMCAD cell exists in the mapped library:
/// assert_eq!(engine.fmcad_cell_of(cv)?, "adder_v1");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Hybrid {
    pub(crate) jcf: Jcf,
    pub(crate) fmcad: Fmcad,
    pub(crate) admin: UserId,
    /// Coupling maps (Table 1) live on the same persistent trie as the
    /// object store, with interned `Arc<str>` values: capturing a
    /// [`Snapshot`](crate::Snapshot) clones four Arcs instead of
    /// copying every mapping.
    pub(crate) project_lib: PMap<ProjectId, Arc<str>>,
    pub(crate) cv_cell: PMap<CellVersionId, Arc<str>>,
    pub(crate) viewtype_names: PMap<ViewTypeId, Arc<str>>,
    pub(crate) viewtypes_by_name: BTreeMap<String, ViewTypeId>,
    /// Viewtypes registered *after* bootstrap, with the FMCAD
    /// application each is bound to; a restart re-registers them (the
    /// standard four come back with the framework itself).
    pub(crate) viewtype_apps: BTreeMap<String, ToolKind>,
    pub(crate) tool_kinds: BTreeMap<ToolId, ToolKind>,
    pub(crate) dov_mirror: PMap<DovId, Arc<MirrorLocation>>,
    pub(crate) fmcad_ui_ops: u64,
    pub(crate) features: crate::future::FutureFeatures,
    pub(crate) staging_mode: StagingMode,
    /// Content-addressed mirror state.
    pub(crate) mirror_cache: MirrorCache,
    pub(crate) mirror_cache_hits: u64,
    /// Content-addressed hierarchy extraction: (viewtype, content hash)
    /// → child cells referenced by those bytes. Lets the write-time
    /// consistency guard skip re-parsing design data it has already
    /// seen (zero-copy staging only).
    pub(crate) children_cache: BTreeMap<(String, u64), Vec<String>>,
}

/// A mirrored FMCAD view: (library, cell, view).
pub(crate) type MirrorKey = (String, String, String);
/// What the mirror cache remembers of a view: (content hash, cellview
/// version) of the bytes last mirrored there.
pub(crate) type Mirrored = (u64, u32);

/// Content-addressed mirror state: (library, cell, view) → (content
/// hash, cellview version) of the bytes last mirrored there. While a
/// checkpoint chain tracks it, it also remembers which keys changed
/// since the chain head, so a delta checkpoint records only those.
#[derive(Debug, Default)]
pub(crate) struct MirrorCache {
    entries: BTreeMap<MirrorKey, Mirrored>,
    /// `Some((cleared, keys))` while tracked: whether the cache was
    /// cleared since the window began, and the keys inserted after the
    /// last clear.
    changes: Option<(bool, BTreeSet<MirrorKey>)>,
}

impl MirrorCache {
    pub(crate) fn from_entries(entries: BTreeMap<MirrorKey, Mirrored>) -> MirrorCache {
        MirrorCache {
            entries,
            changes: None,
        }
    }

    pub(crate) fn get(&self, key: &MirrorKey) -> Option<&Mirrored> {
        self.entries.get(key)
    }

    pub(crate) fn insert(&mut self, key: MirrorKey, value: Mirrored) {
        if let Some((_, keys)) = &mut self.changes {
            keys.insert(key.clone());
        }
        self.entries.insert(key, value);
    }

    pub(crate) fn clear(&mut self) {
        if let Some((cleared, keys)) = &mut self.changes {
            *cleared = true;
            keys.clear();
        }
        self.entries.clear();
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&MirrorKey, &Mirrored)> {
        self.entries.iter()
    }

    /// Starts a new change window (forgetting the previous one).
    pub(crate) fn track_changes(&mut self) {
        self.changes = Some((false, BTreeSet::new()));
    }

    /// Whether the cache was cleared since [`MirrorCache::track_changes`],
    /// and the entries inserted after that — `None` when untracked.
    pub(crate) fn changes(&self) -> Option<(bool, impl Iterator<Item = (&MirrorKey, &Mirrored)>)> {
        let (cleared, keys) = self.changes.as_ref()?;
        let entries = keys
            .iter()
            .filter_map(|key| self.entries.get_key_value(key));
        Some((*cleared, entries))
    }
}

/// The three-tool standard flow of the paper's encapsulation scenario
/// (§2.4): schematic entry, layout entry, digital simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandardFlow {
    /// The frozen flow.
    pub flow: FlowId,
    /// Schematic entry (creates `schematic`).
    pub enter_schematic: jcf::ActivityId,
    /// Layout entry (needs `schematic`, creates `layout`).
    pub enter_layout: jcf::ActivityId,
    /// Digital simulation (needs `schematic`, creates `waveform`).
    pub simulate: jcf::ActivityId,
}

impl Hybrid {
    /// Creates a hybrid installation: a fresh JCF, a fresh FMCAD on a
    /// shared virtual file system, the standard viewtypes and tools
    /// registered on both sides, and the §2.4 consistency wrappers
    /// installed in FMCAD's customisation layer.
    ///
    /// # Panics
    ///
    /// Never panics; the fixed bootstrap is infallible by construction
    /// and the `expect`s guard against schema edits.
    pub(crate) fn new() -> Self {
        Self::with_exec_mode(fml::ExecMode::default())
    }

    /// Like [`Hybrid::new`], but selects the extension-language
    /// execution mode *before* the §2.4 bootstrap runs — definitions
    /// do not migrate between the VM and tree-walker global stores,
    /// so the mode has to be in force when the wrappers are defined.
    pub(crate) fn with_exec_mode(mode: fml::ExecMode) -> Self {
        let mut jcf = Jcf::new();
        let admin = jcf
            .add_user("framework-admin", true)
            .expect("fresh installation");
        let mut fmcad = Fmcad::new();
        let mut viewtype_names = PMap::new();
        let mut viewtypes_by_name = BTreeMap::new();
        for name in ["schematic", "layout", "symbol", "waveform"] {
            let id = jcf.add_viewtype(name).expect("fresh installation");
            viewtype_names.insert(id, Arc::from(name));
            viewtypes_by_name.insert(name.to_owned(), id);
        }
        let mut tool_kinds = BTreeMap::new();
        for (name, kind) in [
            ("schematic-entry", ToolKind::SchematicEntry),
            ("layout-editor", ToolKind::LayoutEditor),
            ("simulator", ToolKind::Simulator),
        ] {
            let id = jcf.add_tool(name).expect("fresh installation");
            tool_kinds.insert(id, kind);
        }
        // §2.4: extension-language wrappers lock the FMCAD menus whose
        // free use would corrupt the master's bookkeeping.
        fmcad.customization_mut().set_exec_mode(mode);
        fmcad
            .run_script(BOOTSTRAP_SCRIPT)
            .expect("bootstrap script is well-formed");
        Hybrid {
            jcf,
            fmcad,
            admin,
            project_lib: PMap::new(),
            cv_cell: PMap::new(),
            viewtype_names,
            viewtypes_by_name,
            viewtype_apps: BTreeMap::new(),
            tool_kinds,
            dov_mirror: PMap::new(),
            fmcad_ui_ops: 0,
            features: crate::future::FutureFeatures::default(),
            staging_mode: StagingMode::default(),
            mirror_cache: MirrorCache::default(),
            mirror_cache_hits: 0,
            children_cache: BTreeMap::new(),
        }
    }

    /// The active [`StagingMode`].
    pub fn staging_mode(&self) -> StagingMode {
        self.staging_mode
    }

    /// Switches how design data is moved through the staging area.
    /// Switching to [`StagingMode::DeepCopy`] also clears the mirror
    /// cache so later zero-copy runs start from honest state.
    pub(crate) fn set_staging_mode(&mut self, mode: StagingMode) {
        if mode == StagingMode::DeepCopy {
            self.mirror_cache.clear();
            self.children_cache.clear();
        }
        self.staging_mode = mode;
    }

    /// How many FMCAD check-ins the content-addressed mirror cache has
    /// skipped because the mirrored view already held identical bytes.
    pub fn mirror_cache_hits(&self) -> u64 {
        self.mirror_cache_hits
    }

    /// The built-in framework administrator (a project manager).
    pub fn admin(&self) -> UserId {
        self.admin
    }

    /// Read access to the master framework.
    pub fn jcf(&self) -> &Jcf {
        &self.jcf
    }

    /// Mutable access to the master framework's desktop, bypassing the
    /// engine's ops journal — for unit tests that poke the framework
    /// directly.
    #[cfg(test)]
    pub(crate) fn jcf_mut(&mut self) -> &mut Jcf {
        &mut self.jcf
    }

    /// Read access to the slave framework.
    pub fn fmcad(&self) -> &Fmcad {
        &self.fmcad
    }

    /// Mutable access to the slave framework, bypassing the engine's
    /// ops journal — for unit tests that poke the framework directly.
    #[cfg(test)]
    pub(crate) fn fmcad_mut(&mut self) -> &mut Fmcad {
        &mut self.fmcad
    }

    /// Number of FMCAD-side user interface interactions so far; added
    /// to [`Jcf::desktop_ops`] this quantifies §3.4's two-UI overhead.
    pub fn fmcad_ui_ops(&self) -> u64 {
        self.fmcad_ui_ops
    }

    pub(crate) fn bump_fmcad_ui(&mut self) {
        self.fmcad_ui_ops += 1;
    }

    /// Resolves a registered viewtype by name.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::MappingMissing`] for unknown names.
    pub fn viewtype(&self, name: &str) -> HybridResult<ViewTypeId> {
        self.viewtypes_by_name
            .get(name)
            .copied()
            .ok_or_else(|| HybridError::MappingMissing(format!("viewtype {name}")))
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

    /// Registers a new viewtype on **both** sides of the coupling: as a
    /// JCF resource and in FMCAD's viewtype registry (bound to the
    /// application that opens it). Custom flows — like the \[Seep94b\]
    /// FPGA flow — add their viewtypes here.
    ///
    /// # Errors
    ///
    /// Returns JCF name-clash errors.
    pub(crate) fn register_viewtype(
        &mut self,
        name: &str,
        application: ToolKind,
    ) -> HybridResult<ViewTypeId> {
        let id = self.jcf.add_viewtype(name)?;
        self.viewtype_names.insert(id, Arc::from(name));
        self.viewtypes_by_name.insert(name.to_owned(), id);
        self.viewtype_apps.insert(name.to_owned(), application);
        self.fmcad.register_viewtype(name, application);
        Ok(id)
    }

    /// Registers a new encapsulated tool: a JCF tool resource bound to
    /// one of the real tool applications.
    ///
    /// # Errors
    ///
    /// Returns JCF name-clash errors.
    pub(crate) fn register_tool(
        &mut self,
        name: &str,
        kind: ToolKind,
    ) -> HybridResult<jcf::ToolId> {
        let id = self.jcf.add_tool(name)?;
        self.tool_kinds.insert(id, kind);
        Ok(id)
    }

    /// Defines and freezes the paper's three-tool standard flow.
    ///
    /// # Errors
    ///
    /// Returns JCF errors (e.g. a taken flow name).
    pub(crate) fn standard_flow(&mut self, name: &str) -> HybridResult<StandardFlow> {
        let admin = self.admin;
        let schematic = self.viewtype("schematic")?;
        let layout = self.viewtype("layout")?;
        let waveform = self.viewtype("waveform")?;
        let (sch_tool, lay_tool, sim_tool) = {
            let mut by_kind = BTreeMap::new();
            for (&id, &kind) in &self.tool_kinds {
                by_kind.insert(kind, id);
            }
            (
                by_kind[&ToolKind::SchematicEntry],
                by_kind[&ToolKind::LayoutEditor],
                by_kind[&ToolKind::Simulator],
            )
        };
        let flow = self.jcf.define_flow(admin, name)?;
        let enter_schematic = self.jcf.add_activity(
            admin,
            flow,
            "enter-schematic",
            sch_tool,
            &[],
            &[schematic],
            &[],
        )?;
        let enter_layout = self.jcf.add_activity(
            admin,
            flow,
            "enter-layout",
            lay_tool,
            &[schematic],
            &[layout],
            &[enter_schematic],
        )?;
        let simulate = self.jcf.add_activity(
            admin,
            flow,
            "simulate",
            sim_tool,
            &[schematic],
            &[waveform],
            &[enter_schematic],
        )?;
        self.jcf.freeze_flow(admin, flow)?;
        Ok(StandardFlow {
            flow,
            enter_schematic,
            enter_layout,
            simulate,
        })
    }

    /// Defines and freezes a *quality-gated* variant of the standard
    /// flow: layout entry additionally waits for a successful
    /// simulation. §3.5: *"forced design flows can be used to ensure
    /// quality aspects by forcing the successful execution of the
    /// required tools"*.
    ///
    /// # Errors
    ///
    /// Returns JCF errors (e.g. a taken flow name).
    pub(crate) fn quality_gated_flow(&mut self, name: &str) -> HybridResult<StandardFlow> {
        let admin = self.admin;
        let schematic = self.viewtype("schematic")?;
        let layout = self.viewtype("layout")?;
        let waveform = self.viewtype("waveform")?;
        let (sch_tool, lay_tool, sim_tool) = {
            let mut by_kind = BTreeMap::new();
            for (&id, &kind) in &self.tool_kinds {
                by_kind.insert(kind, id);
            }
            (
                by_kind[&ToolKind::SchematicEntry],
                by_kind[&ToolKind::LayoutEditor],
                by_kind[&ToolKind::Simulator],
            )
        };
        let flow = self.jcf.define_flow(admin, name)?;
        let enter_schematic = self.jcf.add_activity(
            admin,
            flow,
            "enter-schematic",
            sch_tool,
            &[],
            &[schematic],
            &[],
        )?;
        let simulate = self.jcf.add_activity(
            admin,
            flow,
            "simulate",
            sim_tool,
            &[schematic],
            &[waveform],
            &[enter_schematic],
        )?;
        let enter_layout = self.jcf.add_activity(
            admin,
            flow,
            "enter-layout",
            lay_tool,
            &[schematic],
            &[layout],
            &[enter_schematic, simulate],
        )?;
        self.jcf.freeze_flow(admin, flow)?;
        Ok(StandardFlow {
            flow,
            enter_schematic,
            enter_layout,
            simulate,
        })
    }

    // --- mapped project structure (Table 1 in action) ---------------------

    /// Creates a JCF project and its mapped FMCAD library
    /// (Table 1: Project → Library), then couples the library (locking
    /// its direct-manipulation menus).
    ///
    /// # Errors
    ///
    /// Returns name-clash errors from either framework.
    pub(crate) fn create_project(&mut self, name: &str) -> HybridResult<ProjectId> {
        let project = self.jcf.create_project(name)?;
        self.fmcad.create_library(name)?;
        self.fmcad
            .fire_trigger("library-coupled", &[fml::Value::Str(name.to_owned())])?;
        self.project_lib.insert(project, Arc::from(name));
        Ok(project)
    }

    /// Creates a JCF cell. No FMCAD counterpart exists yet: Table 1
    /// maps the *cell version* onto the FMCAD cell.
    ///
    /// # Errors
    ///
    /// Returns JCF name-clash errors.
    pub(crate) fn create_cell(&mut self, project: ProjectId, name: &str) -> HybridResult<CellId> {
        Ok(self.jcf.create_cell(project, name)?)
    }

    /// Creates a JCF cell version (with its base variant) and the
    /// mapped FMCAD cell named `<cell>_v<n>`.
    ///
    /// # Errors
    ///
    /// Returns errors from either framework.
    pub(crate) fn create_cell_version(
        &mut self,
        cell: CellId,
        flow: FlowId,
        team: TeamId,
    ) -> HybridResult<(CellVersionId, VariantId)> {
        let (cv, variant) = self.jcf.create_cell_version(cell, flow, team)?;
        let project = self.jcf.project_of(cell)?;
        let lib = self.library_of(project)?.to_owned();
        let number = self.jcf.versions_of(cell).len();
        let cell_name = self.jcf.display_name(cell.object_id());
        let fmcad_cell = format!("{cell_name}_v{number}");
        self.fmcad.create_cell(&lib, &fmcad_cell)?;
        self.cv_cell.insert(cv, Arc::from(fmcad_cell));
        Ok((cv, variant))
    }

    /// The FMCAD library mapped from a project.
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

    /// The FMCAD cell mapped from a cell version.
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

    /// Where a design object version is mirrored in FMCAD, if it is.
    pub fn mirror_of(&self, dov: DovId) -> Option<&MirrorLocation> {
        self.dov_mirror.get(&dov).map(|m| &**m)
    }

    /// The library of the project owning a variant, with the mapped
    /// FMCAD cell of its cell version.
    ///
    /// # Errors
    ///
    /// Returns mapping errors for uncoupled structures.
    pub fn location_of_variant(&self, variant: VariantId) -> HybridResult<(String, String)> {
        let cv = self.jcf.cell_version_of(variant)?;
        let cell = self.jcf.cell_of(cv)?;
        let project = self.jcf.project_of(cell)?;
        let lib = self.library_of(project)?.to_owned();
        let fmcad_cell = self.fmcad_cell_of(cv)?.to_owned();
        Ok((lib, fmcad_cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_registers_viewtypes_and_tools() {
        let hy = Hybrid::new();
        assert!(hy.viewtype("schematic").is_ok());
        assert!(hy.viewtype("layout").is_ok());
        assert!(hy.viewtype("hologram").is_err());
        assert_eq!(hy.tool_kinds.len(), 3);
    }

    #[test]
    fn create_project_couples_a_library() {
        let mut hy = Hybrid::new();
        let project = hy.create_project("alu16").unwrap();
        assert_eq!(hy.library_of(project).unwrap(), "alu16");
        assert!(hy.fmcad().libraries().contains(&"alu16"));
        // The coupling locked the direct-manipulation menus:
        assert!(hy.fmcad_mut().menu_invoke("alu16:Check In").is_err());
        assert!(hy.fmcad_mut().menu_invoke("other:Check In").is_ok());
    }

    #[test]
    fn cell_versions_map_to_fmcad_cells() {
        let mut hy = Hybrid::new();
        let admin = hy.admin();
        let team = hy.jcf_mut().add_team(admin, "t").unwrap();
        let flow = hy.standard_flow("f").unwrap();
        let project = hy.create_project("p").unwrap();
        let cell = hy.create_cell(project, "adder").unwrap();
        let (v1, _) = hy.create_cell_version(cell, flow.flow, team).unwrap();
        let (v2, _) = hy.create_cell_version(cell, flow.flow, team).unwrap();
        assert_eq!(hy.fmcad_cell_of(v1).unwrap(), "adder_v1");
        assert_eq!(hy.fmcad_cell_of(v2).unwrap(), "adder_v2");
        assert_eq!(hy.fmcad().cells("p").unwrap(), vec!["adder_v1", "adder_v2"]);
    }

    #[test]
    fn standard_flow_matches_the_paper() {
        let mut hy = Hybrid::new();
        let flow = hy.standard_flow("asic").unwrap();
        assert!(hy.jcf().is_flow_frozen(flow.flow).unwrap());
        let activities = hy.jcf().activities_of(flow.flow);
        assert_eq!(activities.len(), 3);
        // Layout and simulation both wait on schematic entry.
        assert_eq!(
            hy.jcf().predecessors_of(flow.enter_layout),
            vec![flow.enter_schematic]
        );
        assert_eq!(
            hy.jcf().predecessors_of(flow.simulate),
            vec![flow.enter_schematic]
        );
    }

    #[test]
    fn duplicate_project_names_fail_cleanly() {
        let mut hy = Hybrid::new();
        hy.create_project("p").unwrap();
        assert!(hy.create_project("p").is_err());
    }
}
