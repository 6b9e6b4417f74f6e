//! Typed events and observers of the hybrid engine.
//!
//! Each successfully applied [`Op`](crate::Op) produces one [`Event`]
//! carrying the handles (and, for read-like ops, the data) the
//! operation yielded. [`EventSink`] subscribers observe the stream;
//! two built-in sinks back the desktop's `journal` command
//! ([`TraceSink`]) and the benchmark report's operation counters
//! ([`CounterSink`]).

use std::collections::BTreeMap;
use std::collections::VecDeque;

use cad_vfs::Blob;
use jcf::{
    ActivityId, CellId, CellVersionId, ConfigId, ConfigVersionId, DesignObjectId, DovId, FlowId,
    ProjectId, TeamId, ToolId, UserId, VariantId, ViewTypeId,
};

use crate::error::HybridError;
use crate::framework::StandardFlow;
use crate::import::ImportReport;
use crate::ops::Op;
use crate::release::ExportManifest;
use cad_tools::LvsReport;

/// The typed outcome of one successfully applied [`Op`](crate::Op).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A user was registered.
    UserAdded(UserId),
    /// A team was created.
    TeamAdded(TeamId),
    /// A user joined a team.
    TeamMemberAdded(TeamId, UserId),
    /// A viewtype was registered on both frameworks.
    ViewtypeRegistered(ViewTypeId),
    /// A tool was registered.
    ToolRegistered(ToolId),
    /// The standard three-tool flow was defined and frozen.
    StandardFlowDefined(StandardFlow),
    /// The quality-gated flow was defined and frozen.
    QualityGatedFlowDefined(StandardFlow),
    /// An empty custom flow was defined.
    FlowDefined(FlowId),
    /// An activity was added to a flow.
    ActivityAdded(ActivityId),
    /// A flow was frozen.
    FlowFrozen(FlowId),
    /// A project (and its coupled library) was created.
    ProjectCreated(ProjectId),
    /// A cell was created.
    CellCreated(CellId),
    /// A cell version (with base variant) was created.
    CellVersionCreated(CellVersionId, VariantId),
    /// A variant was derived.
    VariantDerived(VariantId),
    /// A hierarchy child was declared.
    CompOfDeclared(CellVersionId, CellId),
    /// A cell was shared across projects.
    CellShared(CellId),
    /// A variant was promoted into a new cell version.
    VariantPromoted(CellVersionId, VariantId),
    /// A cell version was reserved into a workspace.
    Reserved(CellVersionId),
    /// A cell version was published.
    Published(CellVersionId),
    /// A design object was created.
    DesignObjectCreated(DesignObjectId),
    /// A design object version was added.
    DovAdded(DovId),
    /// Two design object versions were marked equivalent.
    MarkedEquivalent(DovId, DovId),
    /// A branch workspace merged forward cleanly; carries the versions
    /// it published.
    MergeApplied {
        /// The cell version merged into.
        cv: CellVersionId,
        /// The design object versions the merge created.
        dovs: Vec<DovId>,
    },
    /// A branch workspace could not merge forward; nothing changed.
    ///
    /// This is a *successful* op outcome — the conflict set is the
    /// answer, journaled and replayed like any other event — so a
    /// conflicted merge never poisons the journal with partial state.
    MergeConflict {
        /// The cell version the merge targeted.
        cv: CellVersionId,
        /// Every conflict found, in deterministic order: a reservation
        /// conflict first, then design-object conflicts in the
        /// workspace's staging order.
        conflicts: Vec<MergeConflict>,
    },
    /// An encapsulated activity ran; carries the versions it created.
    ActivityRun {
        /// The design object versions the run produced.
        dovs: Vec<DovId>,
    },
    /// A design object version was browsed.
    Browsed {
        /// The data read.
        data: Blob,
    },
    /// Design data was read via the desktop.
    DesignDataRead {
        /// The data read.
        data: Blob,
    },
    /// A configuration was created.
    ConfigurationCreated(ConfigId),
    /// A configuration version was frozen.
    ConfigVersionCreated(ConfigVersionId),
    /// A configuration version was exported to the file system.
    ConfigExported(ExportManifest),
    /// Layout-versus-schematic ran on a variant.
    LvsRun(LvsReport),
    /// The future-work feature switches changed.
    FutureFeaturesSet,
    /// The staging mode changed.
    StagingModeSet,
    /// An uncoupled FMCAD library was imported.
    LibraryImported(ProjectId, ImportReport),
    /// A standalone FMCAD library was created.
    FmcadLibraryCreated,
    /// An FMCAD cell was created directly.
    FmcadCellCreated,
    /// An FMCAD cellview was created directly.
    FmcadCellviewCreated,
    /// An FMCAD cellview was checked out directly.
    FmcadCheckedOut {
        /// The checked-out data.
        data: Blob,
    },
    /// Data was checked into an FMCAD cellview directly.
    FmcadCheckedIn {
        /// The new version number.
        version: u32,
    },
    /// An FMCAD cellview version was purged.
    FmcadVersionPurged,
    /// A versioned library file was overwritten out-of-band.
    FmcadFileWritten,
}

/// One reason a [`Workspace`](crate::Workspace) merge could not go
/// forward, carried by [`Event::MergeConflict`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeConflict {
    /// The target cell version is reserved by another designer.
    ReservedByOther {
        /// The designer currently holding the reservation.
        holder: UserId,
    },
    /// A design object gained versions since the workspace's branch
    /// point, so the staged write would silently overwrite them.
    DesignObjectAdvanced {
        /// The design object that moved.
        design_object: DesignObjectId,
        /// The version count recorded at the branch point.
        expected: u32,
        /// The version count found at merge time.
        found: u32,
    },
}

impl Event {
    /// The stable kind name of this event.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::UserAdded(_) => "user-added",
            Event::TeamAdded(_) => "team-added",
            Event::TeamMemberAdded(..) => "team-member-added",
            Event::ViewtypeRegistered(_) => "viewtype-registered",
            Event::ToolRegistered(_) => "tool-registered",
            Event::StandardFlowDefined(_) => "standard-flow-defined",
            Event::QualityGatedFlowDefined(_) => "quality-gated-flow-defined",
            Event::FlowDefined(_) => "flow-defined",
            Event::ActivityAdded(_) => "activity-added",
            Event::FlowFrozen(_) => "flow-frozen",
            Event::ProjectCreated(_) => "project-created",
            Event::CellCreated(_) => "cell-created",
            Event::CellVersionCreated(..) => "cell-version-created",
            Event::VariantDerived(_) => "variant-derived",
            Event::CompOfDeclared(..) => "comp-of-declared",
            Event::CellShared(_) => "cell-shared",
            Event::VariantPromoted(..) => "variant-promoted",
            Event::Reserved(_) => "reserved",
            Event::Published(_) => "published",
            Event::DesignObjectCreated(_) => "design-object-created",
            Event::DovAdded(_) => "dov-added",
            Event::MarkedEquivalent(..) => "marked-equivalent",
            Event::MergeApplied { .. } => "merge-applied",
            Event::MergeConflict { .. } => "merge-conflict",
            Event::ActivityRun { .. } => "activity-run",
            Event::Browsed { .. } => "browsed",
            Event::DesignDataRead { .. } => "design-data-read",
            Event::ConfigurationCreated(_) => "configuration-created",
            Event::ConfigVersionCreated(_) => "config-version-created",
            Event::ConfigExported(_) => "config-exported",
            Event::LvsRun(_) => "lvs-run",
            Event::FutureFeaturesSet => "future-features-set",
            Event::StagingModeSet => "staging-mode-set",
            Event::LibraryImported(..) => "library-imported",
            Event::FmcadLibraryCreated => "fmcad-library-created",
            Event::FmcadCellCreated => "fmcad-cell-created",
            Event::FmcadCellviewCreated => "fmcad-cellview-created",
            Event::FmcadCheckedOut { .. } => "fmcad-checked-out",
            Event::FmcadCheckedIn { .. } => "fmcad-checked-in",
            Event::FmcadVersionPurged => "fmcad-version-purged",
            Event::FmcadFileWritten => "fmcad-file-written",
        }
    }
}

// --- wire codec -------------------------------------------------------------
//
// The network front-end ships each committed event back to the client
// in the same one-line `kind|field=value` form as the ops journal, so
// a wire response is exactly one hex-armoured line inside one frame.

use cad_tools::LvsViolation;
use oms::persist::{assemble, enc_ids, enc_str, hex, unhex, Fields};

fn enc_manifest(m: &ExportManifest) -> Vec<(&'static str, String)> {
    let files = m
        .files
        .iter()
        .map(|(name, bytes)| format!("{}:{bytes}", enc_str(name)))
        .collect::<Vec<_>>()
        .join(";");
    vec![("files", files), ("total", m.total_bytes.to_string())]
}

fn parse_manifest(f: &Fields<'_>) -> Result<ExportManifest, String> {
    let raw = f.get("files")?;
    let mut files = Vec::new();
    if !raw.is_empty() {
        for pair in raw.split(';') {
            let (name, bytes) = pair
                .split_once(':')
                .ok_or_else(|| "bad manifest entry".to_owned())?;
            let name =
                String::from_utf8(unhex(name).ok_or_else(|| "bad manifest name hex".to_owned())?)
                    .map_err(|_| "manifest name is not utf-8".to_owned())?;
            let bytes: u64 = bytes
                .parse()
                .map_err(|_| "bad manifest byte count".to_owned())?;
            files.push((name, bytes));
        }
    }
    Ok(ExportManifest {
        files,
        total_bytes: f.num("total")?,
    })
}

fn enc_lvs(report: &LvsReport) -> Vec<(&'static str, String)> {
    let violations = report
        .violations
        .iter()
        .map(|v| match v {
            LvsViolation::MissingNet { net } => format!("missing:{}", enc_str(net)),
            LvsViolation::PhantomNet { net } => format!("phantom:{}", enc_str(net)),
            LvsViolation::InstanceMismatch {
                cell,
                schematic,
                layout,
            } => format!("instance:{}:{schematic}:{layout}", enc_str(cell)),
        })
        .collect::<Vec<_>>()
        .join(";");
    vec![
        ("matched", report.matched_nets.to_string()),
        ("violations", violations),
    ]
}

fn parse_lvs(f: &Fields<'_>) -> Result<LvsReport, String> {
    let dec_str = |raw: &str| -> Result<String, String> {
        String::from_utf8(unhex(raw).ok_or_else(|| "bad lvs hex".to_owned())?)
            .map_err(|_| "lvs name is not utf-8".to_owned())
    };
    let raw = f.get("violations")?;
    let mut violations = Vec::new();
    if !raw.is_empty() {
        for entry in raw.split(';') {
            let (tag, rest) = entry
                .split_once(':')
                .ok_or_else(|| "bad lvs violation".to_owned())?;
            violations.push(match tag {
                "missing" => LvsViolation::MissingNet {
                    net: dec_str(rest)?,
                },
                "phantom" => LvsViolation::PhantomNet {
                    net: dec_str(rest)?,
                },
                "instance" => {
                    let mut parts = rest.splitn(3, ':');
                    let cell = dec_str(parts.next().ok_or_else(|| "bad lvs cell".to_owned())?)?;
                    let schematic = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| "bad lvs instance count".to_owned())?;
                    let layout = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| "bad lvs placement count".to_owned())?;
                    LvsViolation::InstanceMismatch {
                        cell,
                        schematic,
                        layout,
                    }
                }
                other => return Err(format!("unknown lvs violation tag {other:?}")),
            });
        }
    }
    Ok(LvsReport {
        violations,
        matched_nets: f.num("matched")?,
    })
}

fn enc_conflicts(conflicts: &[MergeConflict]) -> String {
    conflicts
        .iter()
        .map(|c| match c {
            MergeConflict::ReservedByOther { holder } => format!("r:{}", holder.raw()),
            MergeConflict::DesignObjectAdvanced {
                design_object,
                expected,
                found,
            } => format!("a:{}:{expected}:{found}", design_object.raw()),
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_conflicts(f: &Fields<'_>) -> Result<Vec<MergeConflict>, String> {
    let raw = f.get("conflicts")?;
    let mut conflicts = Vec::new();
    if !raw.is_empty() {
        for entry in raw.split(';') {
            let (tag, rest) = entry
                .split_once(':')
                .ok_or_else(|| "bad merge conflict".to_owned())?;
            conflicts.push(match tag {
                "r" => MergeConflict::ReservedByOther {
                    holder: UserId::from_raw(
                        rest.parse().map_err(|_| "bad conflict holder".to_owned())?,
                    ),
                },
                "a" => {
                    let mut parts = rest.splitn(3, ':');
                    let design_object = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .map(DesignObjectId::from_raw)
                        .ok_or_else(|| "bad conflict design object".to_owned())?;
                    let expected = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| "bad conflict expected count".to_owned())?;
                    let found = parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| "bad conflict found count".to_owned())?;
                    MergeConflict::DesignObjectAdvanced {
                        design_object,
                        expected,
                        found,
                    }
                }
                other => return Err(format!("unknown merge conflict tag {other:?}")),
            });
        }
    }
    Ok(conflicts)
}

fn enc_standard_flow(flow: &StandardFlow) -> Vec<(&'static str, String)> {
    vec![
        ("flow", flow.flow.raw().to_string()),
        ("enter_schematic", flow.enter_schematic.raw().to_string()),
        ("enter_layout", flow.enter_layout.raw().to_string()),
        ("simulate", flow.simulate.raw().to_string()),
    ]
}

fn parse_standard_flow(f: &Fields<'_>) -> Result<StandardFlow, String> {
    Ok(StandardFlow {
        flow: f.id("flow", FlowId::from_raw)?,
        enter_schematic: f.id("enter_schematic", ActivityId::from_raw)?,
        enter_layout: f.id("enter_layout", ActivityId::from_raw)?,
        simulate: f.id("simulate", ActivityId::from_raw)?,
    })
}

impl Event {
    /// Serialises the event into its one-line wire form
    /// (`kind|field=value|...` with hex-armoured strings and payloads),
    /// the response-side counterpart of [`Op::to_line`](crate::Op::to_line).
    pub fn to_line(&self) -> String {
        let mut f: Vec<(&str, String)> = Vec::new();
        match self {
            Event::UserAdded(id) => f.push(("id", id.raw().to_string())),
            Event::TeamAdded(id) => f.push(("id", id.raw().to_string())),
            Event::TeamMemberAdded(team, user) => {
                f.push(("team", team.raw().to_string()));
                f.push(("user", user.raw().to_string()));
            }
            Event::ViewtypeRegistered(id) => f.push(("id", id.raw().to_string())),
            Event::ToolRegistered(id) => f.push(("id", id.raw().to_string())),
            Event::StandardFlowDefined(flow) | Event::QualityGatedFlowDefined(flow) => {
                f.extend(enc_standard_flow(flow));
            }
            Event::FlowDefined(id) => f.push(("id", id.raw().to_string())),
            Event::ActivityAdded(id) => f.push(("id", id.raw().to_string())),
            Event::FlowFrozen(id) => f.push(("id", id.raw().to_string())),
            Event::ProjectCreated(id) => f.push(("id", id.raw().to_string())),
            Event::CellCreated(id) => f.push(("id", id.raw().to_string())),
            Event::CellVersionCreated(cv, variant) | Event::VariantPromoted(cv, variant) => {
                f.push(("cv", cv.raw().to_string()));
                f.push(("variant", variant.raw().to_string()));
            }
            Event::VariantDerived(id) => f.push(("id", id.raw().to_string())),
            Event::CompOfDeclared(cv, child) => {
                f.push(("cv", cv.raw().to_string()));
                f.push(("child", child.raw().to_string()));
            }
            Event::CellShared(id) => f.push(("id", id.raw().to_string())),
            Event::Reserved(id) => f.push(("id", id.raw().to_string())),
            Event::Published(id) => f.push(("id", id.raw().to_string())),
            Event::DesignObjectCreated(id) => f.push(("id", id.raw().to_string())),
            Event::DovAdded(id) => f.push(("id", id.raw().to_string())),
            Event::MarkedEquivalent(a, b) => {
                f.push(("a", a.raw().to_string()));
                f.push(("b", b.raw().to_string()));
            }
            Event::ActivityRun { dovs } => f.push(("dovs", enc_ids(dovs, DovId::raw))),
            Event::MergeApplied { cv, dovs } => {
                f.push(("cv", cv.raw().to_string()));
                f.push(("dovs", enc_ids(dovs, DovId::raw)));
            }
            Event::MergeConflict { cv, conflicts } => {
                f.push(("cv", cv.raw().to_string()));
                f.push(("conflicts", enc_conflicts(conflicts)));
            }
            Event::Browsed { data } | Event::DesignDataRead { data } => {
                f.push(("data", hex(data)));
            }
            Event::ConfigurationCreated(id) => f.push(("id", id.raw().to_string())),
            Event::ConfigVersionCreated(id) => f.push(("id", id.raw().to_string())),
            Event::ConfigExported(manifest) => f.extend(enc_manifest(manifest)),
            Event::LvsRun(report) => f.extend(enc_lvs(report)),
            Event::FutureFeaturesSet
            | Event::StagingModeSet
            | Event::FmcadLibraryCreated
            | Event::FmcadCellCreated
            | Event::FmcadCellviewCreated
            | Event::FmcadVersionPurged
            | Event::FmcadFileWritten => {}
            Event::LibraryImported(project, report) => {
                f.push(("project", project.raw().to_string()));
                f.push(("cells", report.cells.to_string()));
                f.push(("design_objects", report.design_objects.to_string()));
                f.push(("versions", report.versions.to_string()));
                f.push(("bytes_copied", report.bytes_copied.to_string()));
            }
            Event::FmcadCheckedOut { data } => f.push(("data", hex(data))),
            Event::FmcadCheckedIn { version } => f.push(("version", version.to_string())),
        }
        assemble(self.kind_name(), &f)
    }

    /// Parses an event back from its [`Event::to_line`] form.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::Journal`] for malformed lines.
    pub fn parse_line(line: &str) -> Result<Event, HybridError> {
        Self::parse_inner(line).map_err(HybridError::Journal)
    }

    fn parse_inner(line: &str) -> Result<Event, String> {
        let f = Fields::parse(line)?;
        let event = match f.kind {
            "user-added" => Event::UserAdded(f.id("id", UserId::from_raw)?),
            "team-added" => Event::TeamAdded(f.id("id", TeamId::from_raw)?),
            "team-member-added" => Event::TeamMemberAdded(
                f.id("team", TeamId::from_raw)?,
                f.id("user", UserId::from_raw)?,
            ),
            "viewtype-registered" => Event::ViewtypeRegistered(f.id("id", ViewTypeId::from_raw)?),
            "tool-registered" => Event::ToolRegistered(f.id("id", ToolId::from_raw)?),
            "standard-flow-defined" => Event::StandardFlowDefined(parse_standard_flow(&f)?),
            "quality-gated-flow-defined" => {
                Event::QualityGatedFlowDefined(parse_standard_flow(&f)?)
            }
            "flow-defined" => Event::FlowDefined(f.id("id", FlowId::from_raw)?),
            "activity-added" => Event::ActivityAdded(f.id("id", ActivityId::from_raw)?),
            "flow-frozen" => Event::FlowFrozen(f.id("id", FlowId::from_raw)?),
            "project-created" => Event::ProjectCreated(f.id("id", ProjectId::from_raw)?),
            "cell-created" => Event::CellCreated(f.id("id", CellId::from_raw)?),
            "cell-version-created" => Event::CellVersionCreated(
                f.id("cv", CellVersionId::from_raw)?,
                f.id("variant", VariantId::from_raw)?,
            ),
            "variant-derived" => Event::VariantDerived(f.id("id", VariantId::from_raw)?),
            "comp-of-declared" => Event::CompOfDeclared(
                f.id("cv", CellVersionId::from_raw)?,
                f.id("child", CellId::from_raw)?,
            ),
            "cell-shared" => Event::CellShared(f.id("id", CellId::from_raw)?),
            "variant-promoted" => Event::VariantPromoted(
                f.id("cv", CellVersionId::from_raw)?,
                f.id("variant", VariantId::from_raw)?,
            ),
            "reserved" => Event::Reserved(f.id("id", CellVersionId::from_raw)?),
            "published" => Event::Published(f.id("id", CellVersionId::from_raw)?),
            "design-object-created" => {
                Event::DesignObjectCreated(f.id("id", DesignObjectId::from_raw)?)
            }
            "dov-added" => Event::DovAdded(f.id("id", DovId::from_raw)?),
            "marked-equivalent" => {
                Event::MarkedEquivalent(f.id("a", DovId::from_raw)?, f.id("b", DovId::from_raw)?)
            }
            "activity-run" => Event::ActivityRun {
                dovs: f.ids("dovs", DovId::from_raw)?,
            },
            "merge-applied" => Event::MergeApplied {
                cv: f.id("cv", CellVersionId::from_raw)?,
                dovs: f.ids("dovs", DovId::from_raw)?,
            },
            "merge-conflict" => Event::MergeConflict {
                cv: f.id("cv", CellVersionId::from_raw)?,
                conflicts: parse_conflicts(&f)?,
            },
            "browsed" => Event::Browsed {
                data: f.blob("data")?,
            },
            "design-data-read" => Event::DesignDataRead {
                data: f.blob("data")?,
            },
            "configuration-created" => Event::ConfigurationCreated(f.id("id", ConfigId::from_raw)?),
            "config-version-created" => {
                Event::ConfigVersionCreated(f.id("id", ConfigVersionId::from_raw)?)
            }
            "config-exported" => Event::ConfigExported(parse_manifest(&f)?),
            "lvs-run" => Event::LvsRun(parse_lvs(&f)?),
            "future-features-set" => Event::FutureFeaturesSet,
            "staging-mode-set" => Event::StagingModeSet,
            "library-imported" => Event::LibraryImported(
                f.id("project", ProjectId::from_raw)?,
                ImportReport {
                    cells: f.num("cells")?,
                    design_objects: f.num("design_objects")?,
                    versions: f.num("versions")?,
                    bytes_copied: f.num("bytes_copied")?,
                },
            ),
            "fmcad-library-created" => Event::FmcadLibraryCreated,
            "fmcad-cell-created" => Event::FmcadCellCreated,
            "fmcad-cellview-created" => Event::FmcadCellviewCreated,
            "fmcad-checked-out" => Event::FmcadCheckedOut {
                data: f.blob("data")?,
            },
            "fmcad-checked-in" => Event::FmcadCheckedIn {
                version: f.num("version")?,
            },
            "fmcad-version-purged" => Event::FmcadVersionPurged,
            "fmcad-file-written" => Event::FmcadFileWritten,
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(event)
    }
}

/// Observer of the engine's op/event stream.
///
/// Sinks are notified after the operation has been executed and
/// journaled, in subscription order, built-in sinks first.
pub trait EventSink {
    /// Called after `op` (sequence number `seq`) succeeded with `event`.
    fn on_event(&mut self, seq: u64, op: &Op, event: &Event);

    /// Called after `op` failed with `error`. Failed ops are journaled
    /// too (they may have partial effects that replay must reproduce),
    /// so sinks see them as well. The default implementation ignores
    /// failures.
    fn on_error(&mut self, _seq: u64, _op: &Op, _error: &HybridError) {}
}

/// One entry of the [`TraceSink`] ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The engine sequence number of the operation.
    pub seq: u64,
    /// The operation's kind name.
    pub kind: String,
    /// The operation's short summary.
    pub summary: String,
    /// The outcome: an event kind name or a rendered error.
    pub outcome: String,
    /// Whether the operation succeeded.
    pub ok: bool,
}

/// Default capacity of the tracing ring buffer.
pub const TRACE_CAPACITY: usize = 256;

/// Built-in sink keeping the last N operations in a ring buffer; the
/// desktop shell's `journal` command reads it.
#[derive(Debug)]
pub struct TraceSink {
    entries: VecDeque<JournalEntry>,
    capacity: usize,
}

impl TraceSink {
    /// Creates a sink holding up to `capacity` entries.
    pub fn new(capacity: usize) -> TraceSink {
        TraceSink {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn push(&mut self, entry: JournalEntry) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    pub(crate) fn restore(&mut self, entries: Vec<JournalEntry>) {
        self.entries = entries.into();
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
    }
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::new(TRACE_CAPACITY)
    }
}

impl EventSink for TraceSink {
    fn on_event(&mut self, seq: u64, op: &Op, event: &Event) {
        self.push(JournalEntry {
            seq,
            kind: op.kind_name().to_owned(),
            summary: op.summary(),
            outcome: event.kind_name().to_owned(),
            ok: true,
        });
    }

    fn on_error(&mut self, seq: u64, op: &Op, error: &HybridError) {
        self.push(JournalEntry {
            seq,
            kind: op.kind_name().to_owned(),
            summary: op.summary(),
            outcome: format!("error[{}]: {error}", error.kind()),
            ok: false,
        });
    }
}

/// Built-in sink counting operations by kind and failures by error
/// kind; surfaced through the benchmark report's JSON output.
#[derive(Debug, Default)]
pub struct CounterSink {
    ops: BTreeMap<String, u64>,
    failures: BTreeMap<String, u64>,
}

impl CounterSink {
    /// Successful operations by op kind name.
    pub fn ops(&self) -> &BTreeMap<String, u64> {
        &self.ops
    }

    /// Failed operations by error kind name.
    pub fn failures(&self) -> &BTreeMap<String, u64> {
        &self.failures
    }

    /// Total operations observed (successes plus failures).
    pub fn total(&self) -> u64 {
        self.ops.values().sum::<u64>() + self.failures.values().sum::<u64>()
    }

    pub(crate) fn restore(&mut self, ops: BTreeMap<String, u64>, failures: BTreeMap<String, u64>) {
        self.ops = ops;
        self.failures = failures;
    }
}

impl EventSink for CounterSink {
    fn on_event(&mut self, _seq: u64, op: &Op, _event: &Event) {
        *self.ops.entry(op.kind_name().to_owned()).or_insert(0) += 1;
    }

    fn on_error(&mut self, _seq: u64, _op: &Op, error: &HybridError) {
        *self.failures.entry(error.kind().to_owned()).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ring_drops_oldest() {
        let mut sink = TraceSink::new(2);
        for i in 0..3u64 {
            sink.on_event(
                i,
                &Op::CreateProject {
                    name: format!("p{i}"),
                },
                &Event::ProjectCreated(ProjectId::from_raw(i)),
            );
        }
        let seqs: Vec<u64> = sink.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert!(sink.entries().all(|e| e.ok));
    }

    #[test]
    fn event_lines_round_trip_including_structured_payloads() {
        let samples = vec![
            Event::UserAdded(UserId::from_raw(7)),
            Event::StandardFlowDefined(StandardFlow {
                flow: FlowId::from_raw(1),
                enter_schematic: ActivityId::from_raw(2),
                enter_layout: ActivityId::from_raw(3),
                simulate: ActivityId::from_raw(4),
            }),
            Event::ActivityRun {
                dovs: vec![DovId::from_raw(0), DovId::from_raw(u64::MAX)],
            },
            Event::ActivityRun { dovs: vec![] },
            Event::MergeApplied {
                cv: CellVersionId::from_raw(13),
                dovs: vec![DovId::from_raw(17), DovId::from_raw(18)],
            },
            Event::MergeConflict {
                cv: CellVersionId::from_raw(13),
                conflicts: vec![
                    MergeConflict::ReservedByOther {
                        holder: UserId::from_raw(4),
                    },
                    MergeConflict::DesignObjectAdvanced {
                        design_object: DesignObjectId::from_raw(16),
                        expected: 2,
                        found: 5,
                    },
                ],
            },
            Event::MergeConflict {
                cv: CellVersionId::from_raw(13),
                conflicts: vec![],
            },
            Event::Browsed {
                data: (0u8..=255).collect::<Vec<_>>().into(),
            },
            Event::ConfigExported(ExportManifest {
                files: vec![("a|=;:\n".into(), 12), (String::new(), 0)],
                total_bytes: 12,
            }),
            Event::ConfigExported(ExportManifest {
                files: vec![],
                total_bytes: 0,
            }),
            Event::LvsRun(LvsReport {
                violations: vec![
                    LvsViolation::MissingNet { net: "n|1".into() },
                    LvsViolation::PhantomNet { net: String::new() },
                    LvsViolation::InstanceMismatch {
                        cell: "sub:cell".into(),
                        schematic: 3,
                        layout: 1,
                    },
                ],
                matched_nets: 9,
            }),
            Event::LibraryImported(
                ProjectId::from_raw(5),
                ImportReport {
                    cells: 1,
                    design_objects: 2,
                    versions: 3,
                    bytes_copied: 4,
                },
            ),
            Event::FmcadCheckedIn { version: u32::MAX },
            Event::FutureFeaturesSet,
        ];
        for event in samples {
            let line = event.to_line();
            assert!(!line.contains('\n'), "single line: {line:?}");
            assert_eq!(
                Event::parse_line(&line).unwrap(),
                event,
                "round trip {line}"
            );
        }
        assert!(Event::parse_line("no-such-event|id=1").is_err());
        assert!(Event::parse_line("user-added|id=zz").is_err());
        assert!(Event::parse_line("lvs-run|matched=1|violations=warp:00").is_err());
        assert!(Event::parse_line("merge-conflict|cv=1|conflicts=z:0").is_err());
    }

    #[test]
    fn counters_split_success_and_failure() {
        let mut sink = CounterSink::default();
        let op = Op::CreateProject { name: "p".into() };
        sink.on_event(1, &op, &Event::ProjectCreated(ProjectId::from_raw(1)));
        sink.on_event(2, &op, &Event::ProjectCreated(ProjectId::from_raw(2)));
        sink.on_error(3, &op, &HybridError::MappingMissing("x".into()));
        assert_eq!(sink.ops()["create-project"], 2);
        assert_eq!(sink.failures()["mapping-missing"], 1);
        assert_eq!(sink.total(), 3);
    }
}
