//! Typed events and observers of the hybrid engine.
//!
//! Each successfully applied [`Op`](crate::Op) produces one [`Event`]
//! carrying the handles (and, for read-like ops, the data) the
//! operation yielded. [`EventSink`] subscribers observe the stream;
//! two built-in sinks back the desktop's `journal` command
//! ([`TraceSink`]) and the benchmark report's operation counters
//! ([`CounterSink`]).
//!
//! The declaration below is the only place an event's line layout is
//! written: the network front-end ships each committed event back in
//! the same one-line `kind|key=value` form as the ops journal, and the
//! shard router lifts its ids into virtual form by walking the same
//! fields. An id field marked `=> new` is one the event creates; the
//! router numbers those in line order (the `codec` module documents
//! the syntax).

use std::collections::BTreeMap;
use std::collections::VecDeque;

use cad_vfs::Blob;
use jcf::{
    ActivityId, CellId, CellVersionId, ConfigId, ConfigVersionId, DesignObjectId, DovId, FlowId,
    ProjectId, TeamId, ToolId, UserId, VariantId, ViewTypeId,
};

use crate::codec::records;
use crate::error::HybridError;
use crate::framework::StandardFlow;
use crate::import::ImportReport;
use crate::ops::Op;
use crate::release::ExportManifest;
use cad_tools::LvsReport;

records! {
    /// The typed outcome of one successfully applied [`Op`](crate::Op).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// A user was registered.
        UserAdded "user-added" (id: UserId => new),
        /// A team was created.
        TeamAdded "team-added" (id: TeamId => new),
        /// A user joined a team.
        TeamMemberAdded "team-member-added" (team: TeamId, user: UserId),
        /// A viewtype was registered on both frameworks.
        ViewtypeRegistered "viewtype-registered" (id: ViewTypeId => new),
        /// A tool was registered.
        ToolRegistered "tool-registered" (id: ToolId => new),
        /// The standard three-tool flow was defined and frozen.
        StandardFlowDefined "standard-flow-defined" (flow: StandardFlow => new),
        /// The quality-gated flow was defined and frozen.
        QualityGatedFlowDefined "quality-gated-flow-defined" (flow: StandardFlow => new),
        /// An empty custom flow was defined.
        FlowDefined "flow-defined" (id: FlowId => new),
        /// An activity was added to a flow.
        ActivityAdded "activity-added" (id: ActivityId => new),
        /// A flow was frozen.
        FlowFrozen "flow-frozen" (id: FlowId),
        /// A project (and its coupled library) was created.
        ProjectCreated "project-created" (id: ProjectId => new),
        /// A cell was created.
        CellCreated "cell-created" (id: CellId => new),
        /// A cell version (with base variant) was created.
        CellVersionCreated "cell-version-created" (
            cv: CellVersionId => new,
            variant: VariantId => new,
        ),
        /// A variant was derived.
        VariantDerived "variant-derived" (id: VariantId => new),
        /// A hierarchy child was declared.
        CompOfDeclared "comp-of-declared" (cv: CellVersionId, child: CellId),
        /// A cell was shared across projects.
        CellShared "cell-shared" (id: CellId),
        /// A variant was promoted into a new cell version.
        VariantPromoted "variant-promoted" (cv: CellVersionId => new, variant: VariantId => new),
        /// A cell version was reserved into a workspace.
        Reserved "reserved" (id: CellVersionId),
        /// A cell version was published.
        Published "published" (id: CellVersionId),
        /// A design object was created.
        DesignObjectCreated "design-object-created" (id: DesignObjectId => new),
        /// A design object version was added.
        DovAdded "dov-added" (id: DovId => new),
        /// Two design object versions were marked equivalent.
        MarkedEquivalent "marked-equivalent" (a: DovId, b: DovId),
        /// A branch workspace merged forward cleanly; carries the versions
        /// it published.
        MergeApplied "merge-applied" {
            /// The cell version merged into.
            cv: CellVersionId,
            /// The design object versions the merge created.
            dovs: Vec<DovId> => new,
        },
        /// A branch workspace could not merge forward; nothing changed.
        ///
        /// This is a *successful* op outcome — the conflict set is the
        /// answer, journaled and replayed like any other event — so a
        /// conflicted merge never poisons the journal with partial state.
        MergeConflict "merge-conflict" {
            /// The cell version the merge targeted.
            cv: CellVersionId,
            /// Every conflict found, in deterministic order: a reservation
            /// conflict first, then design-object conflicts in the
            /// workspace's staging order.
            conflicts: Vec<MergeConflict>,
        },
        /// An encapsulated activity ran; carries the versions it created.
        ActivityRun "activity-run" {
            /// The design object versions the run produced.
            dovs: Vec<DovId> => new,
        },
        /// A design object version was browsed.
        Browsed "browsed" {
            /// The data read.
            data: Blob,
        },
        /// Design data was read via the desktop.
        DesignDataRead "design-data-read" {
            /// The data read.
            data: Blob,
        },
        /// A configuration was created.
        ConfigurationCreated "configuration-created" (id: ConfigId => new),
        /// A configuration version was frozen.
        ConfigVersionCreated "config-version-created" (id: ConfigVersionId => new),
        /// A configuration version was exported to the file system.
        ConfigExported "config-exported" (manifest: ExportManifest),
        /// Layout-versus-schematic ran on a variant.
        LvsRun "lvs-run" (report: LvsReport),
        /// The future-work feature switches changed.
        FutureFeaturesSet "future-features-set",
        /// The staging mode changed.
        StagingModeSet "staging-mode-set",
        /// An uncoupled FMCAD library was imported.
        LibraryImported "library-imported" (project: ProjectId => new, report: ImportReport),
        /// A standalone FMCAD library was created.
        FmcadLibraryCreated "fmcad-library-created",
        /// An FMCAD cell was created directly.
        FmcadCellCreated "fmcad-cell-created",
        /// An FMCAD cellview was created directly.
        FmcadCellviewCreated "fmcad-cellview-created",
        /// An FMCAD cellview was checked out directly.
        FmcadCheckedOut "fmcad-checked-out" {
            /// The checked-out data.
            data: Blob,
        },
        /// Data was checked into an FMCAD cellview directly.
        FmcadCheckedIn "fmcad-checked-in" {
            /// The new version number.
            version: u32,
        },
        /// An FMCAD cellview version was purged.
        FmcadVersionPurged "fmcad-version-purged",
        /// A versioned library file was overwritten out-of-band.
        FmcadFileWritten "fmcad-file-written",
    }
}

impl Event {
    /// The ids this event creates, in line order — the order the shard
    /// router numbers their virtual ids in.
    pub(crate) fn created_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        let walked = self.clone().walk_ids(&mut |created, raw| {
            if created {
                ids.push(*raw);
            }
            Ok(())
        });
        walked.expect("the visitor never fails");
        ids
    }
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
    use cad_tools::LvsViolation;

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
    fn created_ids_come_in_line_order_and_skip_referenced_ones() {
        let flow = StandardFlow {
            flow: FlowId::from_raw(1),
            enter_schematic: ActivityId::from_raw(2),
            enter_layout: ActivityId::from_raw(3),
            simulate: ActivityId::from_raw(4),
        };
        let cv = CellVersionId::from_raw(5);
        let report = ImportReport {
            cells: 1,
            design_objects: 1,
            versions: 1,
            bytes_copied: 1,
        };
        let cases = [
            (Event::StandardFlowDefined(flow), vec![1, 2, 3, 4]),
            (Event::QualityGatedFlowDefined(flow), vec![1, 2, 3, 4]),
            (
                Event::CellVersionCreated(cv, VariantId::from_raw(6)),
                vec![5, 6],
            ),
            (
                Event::VariantPromoted(cv, VariantId::from_raw(6)),
                vec![5, 6],
            ),
            (
                Event::MergeApplied {
                    cv,
                    dovs: vec![DovId::from_raw(8), DovId::from_raw(9)],
                },
                vec![8, 9],
            ),
            (
                Event::LibraryImported(ProjectId::from_raw(10), report),
                vec![10],
            ),
            (Event::CompOfDeclared(cv, CellId::from_raw(11)), vec![]),
            (
                Event::MergeConflict {
                    cv,
                    conflicts: vec![MergeConflict::ReservedByOther {
                        holder: UserId::from_raw(12),
                    }],
                },
                vec![],
            ),
            (Event::FutureFeaturesSet, vec![]),
        ];
        for (event, created) in cases {
            assert_eq!(event.created_ids(), created, "{event:?}");
        }
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
