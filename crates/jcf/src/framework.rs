//! The JCF framework object: resources and project structure.

use oms::{Database, ObjectId, RelId, Value};

use crate::error::{JcfError, JcfResult};
use crate::schema::jcf_schema;

macro_rules! typed_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) ObjectId);

        impl $name {
            /// The underlying database object id.
            pub fn object_id(self) -> ObjectId {
                self.0
            }

            /// The raw id value, for journal/image encoding.
            pub fn raw(self) -> u64 {
                self.0.raw()
            }

            /// Rebuilds the handle from a raw id taken from a journal
            /// or image of the same database.
            pub fn from_raw(raw: u64) -> Self {
                $name(ObjectId::from_raw(raw))
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }

        /// Typed ids key the hybrid coupling maps, which live on the
        /// same persistent trie as the store itself.
        impl oms::PmapKey for $name {
            fn to_bits(self) -> u64 {
                self.0.raw()
            }
            fn from_bits(bits: u64) -> Self {
                $name(ObjectId::from_raw(bits))
            }
        }
    };
}

typed_id!(
    /// Handle to a registered user.
    UserId
);
typed_id!(
    /// Handle to a team.
    TeamId
);
typed_id!(
    /// Handle to a registered tool.
    ToolId
);
typed_id!(
    /// Handle to a viewtype resource.
    ViewTypeId
);
typed_id!(
    /// Handle to a design flow.
    FlowId
);
typed_id!(
    /// Handle to an activity of a flow.
    ActivityId
);
typed_id!(
    /// Handle to a project.
    ProjectId
);
typed_id!(
    /// Handle to a cell.
    CellId
);
typed_id!(
    /// Handle to a cell version.
    CellVersionId
);
typed_id!(
    /// Handle to a variant inside a cell version.
    VariantId
);
typed_id!(
    /// Handle to a design object.
    DesignObjectId
);
typed_id!(
    /// Handle to a design object version (the actual design data).
    DovId
);
typed_id!(
    /// Handle to an activity execution record.
    ExecutionId
);
typed_id!(
    /// Handle to a configuration.
    ConfigId
);
typed_id!(
    /// Handle to a configuration version.
    ConfigVersionId
);

/// Cached relationship ids, resolved once at construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rels {
    pub team_member: RelId,
    pub flow_activity: RelId,
    pub activity_tool: RelId,
    pub activity_needs: RelId,
    pub activity_creates: RelId,
    pub activity_precedes: RelId,
    pub project_cell: RelId,
    pub cell_version: RelId,
    pub cell_version_precedes: RelId,
    pub cell_version_flow: RelId,
    pub cell_version_team: RelId,
    pub comp_of: RelId,
    pub cell_version_variant: RelId,
    pub variant_derived: RelId,
    pub variant_design_object: RelId,
    pub design_object_viewtype: RelId,
    pub design_object_version: RelId,
    pub dov_derived: RelId,
    pub dov_equivalent: RelId,
    pub execution_activity: RelId,
    pub execution_variant: RelId,
    pub execution_reads: RelId,
    pub execution_creates: RelId,
    pub cell_version_config: RelId,
    pub config_version: RelId,
    pub config_precedes: RelId,
    pub config_contains: RelId,
    pub reserved_by: RelId,
}

/// The JESSI-COMMON-Framework 3.0 model.
///
/// One `Jcf` value is one running framework installation: the OMS
/// database underneath holds both the *resources* (users, teams, tools,
/// viewtypes, flows — administrator-controlled metadata) and the
/// *project data* (projects, cells, versions, variants, design objects
/// and their versioned data), exactly as Figure 1 of the paper lays
/// out.
///
/// Every public method is a *desktop operation*; the framework counts
/// them (see [`Jcf::desktop_ops`]) so the user-interface experiment E7
/// can quantify the extra interaction steps the hybrid environment
/// costs.
///
/// # Examples
///
/// ```
/// use jcf::Jcf;
///
/// # fn main() -> Result<(), jcf::JcfError> {
/// let mut jcf = Jcf::new();
/// let admin = jcf.add_user("admin", true)?;
/// let alice = jcf.add_user("alice", false)?;
/// let team = jcf.add_team(admin, "asic")?;
/// jcf.add_team_member(admin, team, alice)?;
/// assert_eq!(jcf.team_members(team).len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Jcf {
    pub(crate) db: Database,
    pub(crate) rels: Rels,
    pub(crate) desktop_ops: u64,
    pub(crate) clock: i64,
}

impl Default for Jcf {
    fn default() -> Self {
        Self::new()
    }
}

impl Jcf {
    /// Creates an empty framework installation.
    pub fn new() -> Self {
        let db = Database::new(jcf_schema());
        let rel = |name: &str| {
            db.schema()
                .relationship_by_name(name)
                .expect("schema declares it")
        };
        let rels = Rels {
            team_member: rel("team_member"),
            flow_activity: rel("flow_activity"),
            activity_tool: rel("activity_tool"),
            activity_needs: rel("activity_needs"),
            activity_creates: rel("activity_creates"),
            activity_precedes: rel("activity_precedes"),
            project_cell: rel("project_cell"),
            cell_version: rel("cell_version"),
            cell_version_precedes: rel("cell_version_precedes"),
            cell_version_flow: rel("cell_version_flow"),
            cell_version_team: rel("cell_version_team"),
            comp_of: rel("comp_of"),
            cell_version_variant: rel("cell_version_variant"),
            variant_derived: rel("variant_derived"),
            variant_design_object: rel("variant_design_object"),
            design_object_viewtype: rel("design_object_viewtype"),
            design_object_version: rel("design_object_version"),
            dov_derived: rel("dov_derived"),
            dov_equivalent: rel("dov_equivalent"),
            execution_activity: rel("execution_activity"),
            execution_variant: rel("execution_variant"),
            execution_reads: rel("execution_reads"),
            execution_creates: rel("execution_creates"),
            cell_version_config: rel("cell_version_config"),
            config_version: rel("config_version"),
            config_precedes: rel("config_precedes"),
            config_contains: rel("config_contains"),
            reserved_by: rel("reserved_by"),
        };
        Jcf {
            db,
            rels,
            desktop_ops: 0,
            clock: 0,
        }
    }

    /// Read access to the underlying database (for schema introspection
    /// and experiments; mutation goes through the desktop API only).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Takes a point-in-time copy of the installation for concurrent
    /// readers: the OMS store is snapshotted (metadata maps copied,
    /// design-data blobs shared by reference — see
    /// [`Database::snapshot`]) and the desktop counters are carried
    /// over. The copy answers every `&self` navigation and
    /// [`Jcf::peek_design_data`] query exactly as the live installation
    /// would at this instant, and is fully independent of later desktop
    /// operations.
    pub fn snapshot(&self) -> Jcf {
        Jcf {
            db: self.db.snapshot(),
            rels: self.rels,
            desktop_ops: self.desktop_ops,
            clock: self.clock,
        }
    }

    /// Rebuilds a framework around an already-restored [`Database`]
    /// over the JCF schema — the warm half of delta recovery: the
    /// caller parsed (or cached) a base image, applied delta records,
    /// and hands over the result. The desktop counters and logical
    /// clock start at zero; checkpoint chains persist the exact
    /// counters, so callers follow up with [`Jcf::resume_counters`].
    pub fn from_database(db: Database) -> Jcf {
        let mut jcf = Jcf::new();
        jcf.db = db;
        jcf
    }

    /// Number of desktop operations performed so far (experiment E7).
    pub fn desktop_ops(&self) -> u64 {
        self.desktop_ops
    }

    /// The logical clock value: every desktop operation advances it and
    /// new timestamps are taken from it.
    pub fn clock(&self) -> i64 {
        self.clock
    }

    /// Resumes the desktop-operation counter and logical clock at exact
    /// recorded values, so a framework rebuilt by [`Jcf::from_database`]
    /// continues the original timeline tick for tick.
    pub fn resume_counters(&mut self, desktop_ops: u64, clock: i64) {
        self.desktop_ops = desktop_ops;
        self.clock = clock;
    }

    pub(crate) fn bump(&mut self) -> i64 {
        self.desktop_ops += 1;
        self.clock += 1;
        self.clock
    }

    pub(crate) fn class(&self, name: &str) -> oms::ClassId {
        self.db
            .schema()
            .class_by_name(name)
            .expect("schema declares all classes")
    }

    pub(crate) fn name_of(&self, id: ObjectId) -> String {
        self.db
            .get(id, "name")
            .ok()
            .and_then(|v| v.as_text().map(str::to_owned))
            .unwrap_or_else(|| id.to_string())
    }

    fn unique_name(&self, class: &str, name: &str) -> JcfResult<()> {
        if self
            .db
            .find_by_attr(self.class(class), "name", &Value::from(name))
            .is_some()
        {
            return Err(JcfError::NameTaken(format!("{class} {name}")));
        }
        Ok(())
    }

    fn require_manager(&self, user: UserId, action: &'static str) -> JcfResult<()> {
        let is_manager = self
            .db
            .get(user.0, "is_manager")
            .map_err(JcfError::Database)?
            .as_bool()
            .unwrap_or(false);
        if !is_manager {
            return Err(JcfError::PermissionDenied {
                user: self.name_of(user.0),
                action,
            });
        }
        Ok(())
    }

    // --- resources (administrator / project manager) -------------------

    /// Registers a user. `is_manager` grants project-manager rights
    /// (flows and teams can only be defined by managers, §3.5).
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NameTaken`] for duplicate user names.
    pub fn add_user(&mut self, name: &str, is_manager: bool) -> JcfResult<UserId> {
        self.bump();
        self.unique_name("User", name)?;
        let class = self.class("User");
        let id = self.db.transact(|db| {
            let id = db.create(class)?;
            db.set(id, "name", Value::from(name))?;
            db.set(id, "is_manager", Value::from(is_manager))?;
            Ok(id)
        })?;
        Ok(UserId(id))
    }

    /// Creates a team (manager-only).
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::PermissionDenied`] for non-managers and
    /// [`JcfError::NameTaken`] for duplicate team names.
    pub fn add_team(&mut self, actor: UserId, name: &str) -> JcfResult<TeamId> {
        self.bump();
        self.require_manager(actor, "create teams")?;
        self.unique_name("Team", name)?;
        let class = self.class("Team");
        let id = self.db.transact(|db| {
            let id = db.create(class)?;
            db.set(id, "name", Value::from(name))?;
            Ok(id)
        })?;
        Ok(TeamId(id))
    }

    /// Adds a user to a team (manager-only).
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::PermissionDenied`] for non-managers.
    pub fn add_team_member(&mut self, actor: UserId, team: TeamId, user: UserId) -> JcfResult<()> {
        self.bump();
        self.require_manager(actor, "manage teams")?;
        self.db.link(self.rels.team_member, team.0, user.0)?;
        Ok(())
    }

    /// The members of a team.
    pub fn team_members(&self, team: TeamId) -> Vec<UserId> {
        self.db
            .targets(self.rels.team_member, team.0)
            .into_iter()
            .map(UserId)
            .collect()
    }

    /// Returns `true` if `user` belongs to `team`.
    pub fn is_team_member(&self, team: TeamId, user: UserId) -> bool {
        self.db.linked(self.rels.team_member, team.0, user.0)
    }

    /// Registers a tool resource.
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NameTaken`] for duplicate tool names.
    pub fn add_tool(&mut self, name: &str) -> JcfResult<ToolId> {
        self.bump();
        self.unique_name("Tool", name)?;
        let class = self.class("Tool");
        let id = self.db.transact(|db| {
            let id = db.create(class)?;
            db.set(id, "name", Value::from(name))?;
            Ok(id)
        })?;
        Ok(ToolId(id))
    }

    /// Registers a viewtype resource (e.g. `schematic`, `layout`).
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NameTaken`] for duplicate viewtype names.
    pub fn add_viewtype(&mut self, name: &str) -> JcfResult<ViewTypeId> {
        self.bump();
        self.unique_name("ViewType", name)?;
        let class = self.class("ViewType");
        let id = self.db.transact(|db| {
            let id = db.create(class)?;
            db.set(id, "name", Value::from(name))?;
            Ok(id)
        })?;
        Ok(ViewTypeId(id))
    }

    /// Resolves a viewtype by name.
    pub fn viewtype_by_name(&self, name: &str) -> Option<ViewTypeId> {
        self.db
            .find_by_attr(self.class("ViewType"), "name", &Value::from(name))
            .map(ViewTypeId)
    }

    /// Resolves a user by name.
    pub fn user_by_name(&self, name: &str) -> Option<UserId> {
        self.db
            .find_by_attr(self.class("User"), "name", &Value::from(name))
            .map(UserId)
    }

    /// The display name of any framework entity with a `name` attribute.
    pub fn display_name(&self, id: ObjectId) -> String {
        self.name_of(id)
    }

    // --- project structure ----------------------------------------------

    /// Creates a project.
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NameTaken`] for duplicate project names.
    pub fn create_project(&mut self, name: &str) -> JcfResult<ProjectId> {
        self.bump();
        self.unique_name("Project", name)?;
        let class = self.class("Project");
        let id = self.db.transact(|db| {
            let id = db.create(class)?;
            db.set(id, "name", Value::from(name))?;
            Ok(id)
        })?;
        Ok(ProjectId(id))
    }

    /// Creates a cell inside a project.
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NameTaken`] if the project already has a
    /// cell of this name.
    pub fn create_cell(&mut self, project: ProjectId, name: &str) -> JcfResult<CellId> {
        self.bump();
        for existing in self.db.targets(self.rels.project_cell, project.0) {
            if self.name_of(existing) == name {
                return Err(JcfError::NameTaken(format!("cell {name}")));
            }
        }
        let class = self.class("Cell");
        let rels = self.rels;
        let id = self.db.transact(|db| {
            let id = db.create(class)?;
            db.set(id, "name", Value::from(name))?;
            db.link(rels.project_cell, project.0, id)?;
            Ok(id)
        })?;
        Ok(CellId(id))
    }

    /// Creates a new cell version with its attached flow and team, plus
    /// the initial `base` variant. Links `precedes` from the previous
    /// latest version, if any.
    ///
    /// # Errors
    ///
    /// Propagates database errors (all ids must come from this
    /// framework instance).
    pub fn create_cell_version(
        &mut self,
        cell: CellId,
        flow: FlowId,
        team: TeamId,
    ) -> JcfResult<(CellVersionId, VariantId)> {
        self.bump();
        let previous = self
            .db
            .targets(self.rels.cell_version, cell.0)
            .into_iter()
            .last();
        let number = self.db.targets(self.rels.cell_version, cell.0).len() as i64 + 1;
        let cv_class = self.class("CellVersion");
        let variant_class = self.class("Variant");
        let rels = self.rels;
        let (cv, variant) = self.db.transact(|db| {
            let cv = db.create(cv_class)?;
            db.set(cv, "number", Value::from(number))?;
            db.link(rels.cell_version, cell.0, cv)?;
            db.link(rels.cell_version_flow, cv, flow.0)?;
            db.link(rels.cell_version_team, cv, team.0)?;
            if let Some(prev) = previous {
                db.link(rels.cell_version_precedes, prev, cv)?;
            }
            let variant = db.create(variant_class)?;
            db.set(variant, "name", Value::from("base"))?;
            db.link(rels.cell_version_variant, cv, variant)?;
            Ok((cv, variant))
        })?;
        Ok((CellVersionId(cv), VariantId(variant)))
    }

    /// The cells of a project, in creation order.
    pub fn cells_of(&self, project: ProjectId) -> Vec<CellId> {
        self.db
            .targets(self.rels.project_cell, project.0)
            .into_iter()
            .map(CellId)
            .collect()
    }

    /// The versions of a cell, in creation (and numbering) order.
    pub fn versions_of(&self, cell: CellId) -> Vec<CellVersionId> {
        self.db
            .targets(self.rels.cell_version, cell.0)
            .into_iter()
            .map(CellVersionId)
            .collect()
    }

    /// The variants of a cell version, in creation order.
    pub fn variants_of(&self, cv: CellVersionId) -> Vec<VariantId> {
        self.db
            .targets(self.rels.cell_version_variant, cv.0)
            .into_iter()
            .map(VariantId)
            .collect()
    }

    /// The flow attached to a cell version.
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NotFound`] if the link is missing (corrupt
    /// installation).
    pub fn flow_of(&self, cv: CellVersionId) -> JcfResult<FlowId> {
        self.db
            .targets(self.rels.cell_version_flow, cv.0)
            .first()
            .map(|&id| FlowId(id))
            .ok_or_else(|| JcfError::NotFound(format!("flow of {cv}")))
    }

    /// The team attached to a cell version.
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NotFound`] if the link is missing.
    pub fn team_of(&self, cv: CellVersionId) -> JcfResult<TeamId> {
        self.db
            .targets(self.rels.cell_version_team, cv.0)
            .first()
            .map(|&id| TeamId(id))
            .ok_or_else(|| JcfError::NotFound(format!("team of {cv}")))
    }

    /// The project that owns a cell.
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NotFound`] if the cell is orphaned.
    pub fn project_of(&self, cell: CellId) -> JcfResult<ProjectId> {
        self.db
            .sources(self.rels.project_cell, cell.0)
            .first()
            .map(|&id| ProjectId(id))
            .ok_or_else(|| JcfError::NotFound(format!("project of cell {cell}")))
    }

    /// The cell a version belongs to.
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NotFound`] if the version is orphaned.
    pub fn cell_of(&self, cv: CellVersionId) -> JcfResult<CellId> {
        self.db
            .sources(self.rels.cell_version, cv.0)
            .first()
            .map(|&id| CellId(id))
            .ok_or_else(|| JcfError::NotFound(format!("cell of {cv}")))
    }

    /// The cell version that owns a variant.
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::NotFound`] if the variant is orphaned.
    pub fn cell_version_of(&self, variant: VariantId) -> JcfResult<CellVersionId> {
        self.db
            .sources(self.rels.cell_version_variant, variant.0)
            .first()
            .map(|&id| CellVersionId(id))
            .ok_or_else(|| JcfError::NotFound(format!("cell version of {variant}")))
    }

    /// Derives a new variant inside the same cell version, optionally
    /// recording which variant it was derived from. The caller must
    /// hold the workspace reservation.
    ///
    /// # Errors
    ///
    /// Returns reservation errors, or [`JcfError::NameTaken`] for a
    /// duplicate variant name within the cell version.
    pub fn derive_variant(
        &mut self,
        actor: UserId,
        cv: CellVersionId,
        name: &str,
        from: Option<VariantId>,
    ) -> JcfResult<VariantId> {
        self.bump();
        self.require_reservation(actor, cv)?;
        for v in self.variants_of(cv) {
            if self.name_of(v.0) == name {
                return Err(JcfError::NameTaken(format!("variant {name}")));
            }
        }
        let class = self.class("Variant");
        let rels = self.rels;
        let id = self.db.transact(|db| {
            let id = db.create(class)?;
            db.set(id, "name", Value::from(name))?;
            db.link(rels.cell_version_variant, cv.0, id)?;
            if let Some(parent) = from {
                db.link(rels.variant_derived, parent.0, id)?;
            }
            Ok(id)
        })?;
        Ok(VariantId(id))
    }

    /// Renders the desktop's project browser: the tree of cells, cell
    /// versions (with reservation state), variants and design objects.
    pub fn project_tree(&self, project: ProjectId) -> String {
        let mut out = format!("project {}\n", self.name_of(project.0));
        for cell in self.cells_of(project) {
            out.push_str(&format!("└─ cell {}\n", self.name_of(cell.0)));
            for cv in self.versions_of(cell) {
                let number = self
                    .db
                    .get(cv.0, "number")
                    .ok()
                    .and_then(|v| v.as_int())
                    .unwrap_or(0);
                let holder = match self.reserver(cv) {
                    Some(user) => format!(" [reserved by {}]", self.name_of(user.0)),
                    None => String::new(),
                };
                out.push_str(&format!("   └─ version {number}{holder}\n"));
                for variant in self.variants_of(cv) {
                    out.push_str(&format!("      └─ variant {}\n", self.name_of(variant.0)));
                    for design_object in self.design_objects_of(variant) {
                        let versions = self.versions_of_design_object(design_object).len();
                        out.push_str(&format!(
                            "         └─ {} ({versions} version(s))\n",
                            self.name_of(design_object.0)
                        ));
                    }
                }
            }
        }
        out
    }

    // --- hierarchy metadata (CompOf) --------------------------------------

    /// Declares that `parent_version` is (in part) composed of
    /// `child` — the manual hierarchy submission the paper describes:
    /// *"all hierarchical manipulations must be done manually via the
    /// JCF desktop before the design is started"* (§3.3).
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::CrossProjectAccess`] if the child cell lives
    /// in a different project (data sharing between projects is not
    /// possible, §3.1) **unless** the child was marked shared via the
    /// future-work [`Jcf::set_cell_shared`], and reservation errors.
    pub fn declare_comp_of(
        &mut self,
        actor: UserId,
        parent_version: CellVersionId,
        child: CellId,
    ) -> JcfResult<()> {
        self.bump();
        self.require_reservation(actor, parent_version)?;
        let parent_cell = self.cell_of(parent_version)?;
        let parent_project = self.project_of(parent_cell)?;
        let child_project = self.project_of(child)?;
        if parent_project != child_project && !self.is_cell_shared(child)? {
            return Err(JcfError::CrossProjectAccess {
                owner_project: self.name_of(child_project.0),
            });
        }
        self.db.link(self.rels.comp_of, parent_version.0, child.0)?;
        Ok(())
    }

    /// Marks a cell as shared across projects (manager-only) — the
    /// §3.1 future-work feature: *"It would be helpful to also provide
    /// access to cells of other projects."* JCF 3.0 itself did not have
    /// this; it is implemented here as the paper's proposed extension.
    ///
    /// # Errors
    ///
    /// Returns [`JcfError::PermissionDenied`] for non-managers.
    pub fn set_cell_shared(&mut self, actor: UserId, cell: CellId, shared: bool) -> JcfResult<()> {
        self.bump();
        self.require_manager_pub(actor, "share cells across projects")?;
        self.db.set(cell.0, "shared", Value::from(shared))?;
        Ok(())
    }

    /// Returns `true` if the cell is shared across projects.
    ///
    /// # Errors
    ///
    /// Returns database errors for dead ids.
    pub fn is_cell_shared(&self, cell: CellId) -> JcfResult<bool> {
        Ok(self.db.get(cell.0, "shared")?.as_bool().unwrap_or(false))
    }

    /// The declared children of a cell version (hierarchy metadata).
    pub fn comp_of(&self, cv: CellVersionId) -> Vec<CellId> {
        self.db
            .targets(self.rels.comp_of, cv.0)
            .into_iter()
            .map(CellId)
            .collect()
    }

    /// Returns `true` if `child` is a declared component of `cv`.
    pub fn is_declared_child(&self, cv: CellVersionId, child: CellId) -> bool {
        self.db.linked(self.rels.comp_of, cv.0, child.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn managed() -> (Jcf, UserId) {
        let mut jcf = Jcf::new();
        let admin = jcf.add_user("admin", true).unwrap();
        (jcf, admin)
    }

    #[test]
    fn duplicate_user_names_rejected() {
        let (mut jcf, _) = managed();
        assert!(matches!(
            jcf.add_user("admin", false),
            Err(JcfError::NameTaken(_))
        ));
    }

    #[test]
    fn only_managers_create_teams() {
        let (mut jcf, admin) = managed();
        let bob = jcf.add_user("bob", false).unwrap();
        assert!(matches!(
            jcf.add_team(bob, "t"),
            Err(JcfError::PermissionDenied { .. })
        ));
        let team = jcf.add_team(admin, "t").unwrap();
        assert!(matches!(
            jcf.add_team_member(bob, team, bob),
            Err(JcfError::PermissionDenied { .. })
        ));
        jcf.add_team_member(admin, team, bob).unwrap();
        assert!(jcf.is_team_member(team, bob));
    }

    #[test]
    fn cell_versions_number_and_precede() {
        let (mut jcf, admin) = managed();
        let team = jcf.add_team(admin, "t").unwrap();
        let flow = jcf.define_flow(admin, "f").unwrap();
        let project = jcf.create_project("p").unwrap();
        let cell = jcf.create_cell(project, "alu").unwrap();
        let (v1, _) = jcf.create_cell_version(cell, flow, team).unwrap();
        let (v2, _) = jcf.create_cell_version(cell, flow, team).unwrap();
        assert_eq!(jcf.versions_of(cell), vec![v1, v2]);
        assert_eq!(
            jcf.database().get(v2.0, "number").unwrap().as_int(),
            Some(2)
        );
        assert!(jcf
            .database()
            .linked(jcf.rels.cell_version_precedes, v1.0, v2.0));
    }

    #[test]
    fn duplicate_cell_name_within_project_rejected() {
        let (mut jcf, _) = managed();
        let project = jcf.create_project("p").unwrap();
        jcf.create_cell(project, "alu").unwrap();
        assert!(matches!(
            jcf.create_cell(project, "alu"),
            Err(JcfError::NameTaken(_))
        ));
        let other = jcf.create_project("q").unwrap();
        jcf.create_cell(other, "alu").unwrap();
    }

    #[test]
    fn base_variant_created_with_version() {
        let (mut jcf, admin) = managed();
        let team = jcf.add_team(admin, "t").unwrap();
        let flow = jcf.define_flow(admin, "f").unwrap();
        let project = jcf.create_project("p").unwrap();
        let cell = jcf.create_cell(project, "alu").unwrap();
        let (cv, base) = jcf.create_cell_version(cell, flow, team).unwrap();
        assert_eq!(jcf.variants_of(cv), vec![base]);
        assert_eq!(jcf.name_of(base.0), "base");
        assert_eq!(jcf.flow_of(cv).unwrap(), flow);
        assert_eq!(jcf.team_of(cv).unwrap(), team);
        assert_eq!(jcf.cell_of(cv).unwrap(), cell);
        assert_eq!(jcf.cell_version_of(base).unwrap(), cv);
    }

    #[test]
    fn comp_of_rejects_cross_project_children() {
        let (mut jcf, admin) = managed();
        let team = jcf.add_team(admin, "t").unwrap();
        jcf.add_team_member(admin, team, admin).unwrap();
        let flow = jcf.define_flow(admin, "f").unwrap();
        let p1 = jcf.create_project("p1").unwrap();
        let p2 = jcf.create_project("p2").unwrap();
        let parent = jcf.create_cell(p1, "top").unwrap();
        let foreign = jcf.create_cell(p2, "ip").unwrap();
        let local = jcf.create_cell(p1, "sub").unwrap();
        let (cv, _) = jcf.create_cell_version(parent, flow, team).unwrap();
        jcf.reserve(admin, cv).unwrap();
        assert!(matches!(
            jcf.declare_comp_of(admin, cv, foreign),
            Err(JcfError::CrossProjectAccess { .. })
        ));
        jcf.declare_comp_of(admin, cv, local).unwrap();
        assert!(jcf.is_declared_child(cv, local));
        assert_eq!(jcf.comp_of(cv), vec![local]);
    }

    #[test]
    fn shared_cells_cross_project_boundaries() {
        let (mut jcf, admin) = managed();
        let alice = jcf.add_user("alice", false).unwrap();
        let team = jcf.add_team(admin, "t").unwrap();
        jcf.add_team_member(admin, team, admin).unwrap();
        let flow = jcf.define_flow(admin, "f").unwrap();
        let p1 = jcf.create_project("p1").unwrap();
        let p2 = jcf.create_project("p2").unwrap();
        let parent = jcf.create_cell(p1, "top").unwrap();
        let ip = jcf.create_cell(p2, "ip").unwrap();
        let (cv, _) = jcf.create_cell_version(parent, flow, team).unwrap();
        jcf.reserve(admin, cv).unwrap();
        // Unshared: blocked; only managers may share; shared: allowed.
        assert!(matches!(
            jcf.declare_comp_of(admin, cv, ip),
            Err(JcfError::CrossProjectAccess { .. })
        ));
        assert!(matches!(
            jcf.set_cell_shared(alice, ip, true),
            Err(JcfError::PermissionDenied { .. })
        ));
        jcf.set_cell_shared(admin, ip, true).unwrap();
        assert!(jcf.is_cell_shared(ip).unwrap());
        jcf.declare_comp_of(admin, cv, ip).unwrap();
        // And unsharing closes the door again for new declarations.
        jcf.set_cell_shared(admin, ip, false).unwrap();
        assert!(!jcf.is_cell_shared(ip).unwrap());
    }

    #[test]
    fn desktop_ops_counter_increments() {
        let (mut jcf, _) = managed();
        let before = jcf.desktop_ops();
        jcf.create_project("p").unwrap();
        let _ = jcf.add_user("dup-check", false);
        assert_eq!(jcf.desktop_ops(), before + 2);
    }
}
