//! # hybrid — the JCF-FMCAD hybrid framework
//!
//! The paper's contribution: a coupling of the JESSI-COMMON-Framework
//! (master) with the FMCAD ECAD framework (slave) that combines JCF's
//! design management, concurrent engineering and configuration
//! facilities with FMCAD's integrated tools and customisation language.
//!
//! The crate implements the full §2.3–§2.4 machinery:
//!
//! * **Data model mapping** ([`mapping`], Table 1): Project↔Library,
//!   CellVersion↔Cell, ViewType↔View, DesignObject↔Cellview,
//!   DesignObjectVersion↔Cellview Version — both as a constant table
//!   and operationally ([`Engine::import_library`]).
//! * **Tool encapsulation** ([`Engine::run_activity`]): each FMCAD tool
//!   is one JCF activity; inputs are copied out of the OMS database
//!   through the staging area, the tool runs, outputs are consistency
//!   checked, copied back, derivation-tracked and mirrored into the
//!   mapped FMCAD library.
//! * **Consistency guards** ([`Engine::verify_project`] and the
//!   write-time checks): hierarchy references must be declared via the
//!   JCF desktop beforehand, non-isomorphic schematic/layout
//!   hierarchies are rejected (JCF 3.0 cannot represent them, §3.3),
//!   and extension-language wrappers lock the FMCAD menus that would
//!   bypass the master.
//! * **The §3.6 performance profile**: metadata operations are cheap;
//!   design data pays the copy path even for read-only access
//!   ([`Engine::browse`]), while FMCAD natively reads in place.
//!
//! Every mutation flows through the command/event core ([`Engine`]):
//! call sites build (or let the typed wrappers build) an [`Op`], the
//! engine applies it, journals it, and emits a typed [`Event`] to the
//! subscribed [`EventSink`]s. The journal makes restarts replayable
//! ([`Engine::checkpoint`] / [`Engine::restore_from`]), incremental
//! (delta checkpoints against the last base image, segmented journal
//! files), and navigable ([`Engine::recover_at`] restores any
//! persisted sequence number exactly).
//!
//! # Examples
//!
//! ```
//! use hybrid::{Engine, ToolOutput};
//!
//! # fn main() -> Result<(), hybrid::HybridError> {
//! let mut engine = Engine::new();
//! let admin = engine.admin();
//! let alice = engine.add_user("alice", false)?;
//! let team = engine.add_team(admin, "asic")?;
//! engine.add_team_member(admin, team, alice)?;
//! let flow = engine.standard_flow("asic")?;
//!
//! let project = engine.create_project("alu16")?;
//! let cell = engine.create_cell(project, "adder")?;
//! let (cv, variant) = engine.create_cell_version(cell, flow.flow, team)?;
//! engine.reserve(alice, cv)?;
//!
//! // Schematic entry runs as a JCF activity wrapping the FMCAD tool.
//! let dovs = engine.run_activity(alice, variant, flow.enter_schematic, false, |_session| {
//!     Ok(vec![ToolOutput {
//!         viewtype: "schematic".into(),
//!         data: b"netlist adder\nport a input\n".to_vec().into(),
//!     }])
//! })?;
//! assert!(engine.mirror_of(dovs[0]).is_some(), "mirrored into the FMCAD library");
//! // Every op above is journaled and observable.
//! assert_eq!(engine.seq(), 9);
//! assert_eq!(engine.counters().ops()["run-activity"], 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone)]

mod builder;
mod codec;
mod consistency;
mod encapsulation;
mod engine;
mod error;
mod events;
mod framework;
mod future;
mod history;
mod import;
mod lane;
pub mod mapping;
mod ops;
mod release;
mod service;
mod shard;
mod snapshot;

pub use builder::EngineBuilder;
pub use consistency::ConsistencyFinding;
pub use encapsulation::{ToolOutput, ToolSession, STAGING_ROOT};
pub use engine::{BaseImage, Engine, RecoveryReport};
pub use error::{HybridError, HybridResult};
pub use events::{
    CounterSink, Event, EventSink, JournalEntry, MergeConflict, TraceSink, TRACE_CAPACITY,
};
pub use fml::ExecMode;
pub use framework::{Hybrid, MirrorLocation, StagingMode, StandardFlow, COUPLER};
pub use future::FutureFeatures;
pub use history::{HistoryView, RetentionPolicy, Workspace};
pub use import::ImportReport;
pub use ops::Op;
pub use release::ExportManifest;
pub use service::{Service, ServiceStats, Session};
pub use shard::{
    shard_of_name, RouterView, ShardLaneStats, ShardStats, ShardView, ShardedService,
    ShardedServiceBuilder, ShardedSession, VIRT_BASE,
};
pub use snapshot::{ImpactAnswer, Snapshot};
