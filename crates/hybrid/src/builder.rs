//! Builder-first construction of [`Engine`]s.
//!
//! Everything that used to be configured *after* `Engine::new()` — the
//! staging mode, the future-work feature set, event sinks, an armed
//! fault plan — is a constructor-time decision: it describes the
//! installation, not a step of the design flow, so it does not belong
//! in the replayable ops journal. [`EngineBuilder`] takes all of it up
//! front and hands back a ready engine whose journal starts empty.
//!
//! ```
//! use hybrid::{Engine, StagingMode};
//!
//! let engine = Engine::builder()
//!     .staging_mode(StagingMode::DeepCopy)
//!     .build();
//! assert_eq!(engine.seq(), 0, "configuration is not journaled");
//! assert_eq!(engine.staging_mode(), StagingMode::DeepCopy);
//! ```

use std::fmt;

use cad_vfs::FaultPlan;
use fml::ExecMode;

use crate::engine::Engine;
use crate::events::{EventSink, TraceSink, TRACE_CAPACITY};
use crate::framework::{Hybrid, StagingMode};
use crate::future::FutureFeatures;

/// Typed constructor for [`Engine`]s.
///
/// Obtained from [`Engine::builder`]; every knob has the same default
/// as a plain `Engine::new()`, so `Engine::builder().build()` is the
/// fully-defaulted installation. Unlike the retired post-hoc
/// setters, builder configuration happens *before* the bootstrap is
/// observable and is therefore never journaled: two engines built with
/// the same configuration replay identically from sequence number 0.
#[must_use = "the builder does nothing until `.build()` is called"]
pub struct EngineBuilder {
    staging_mode: StagingMode,
    features: FutureFeatures,
    fault_plan: Option<FaultPlan>,
    trace_capacity: usize,
    sinks: Vec<Box<dyn EventSink + Send>>,
    fml_exec_mode: ExecMode,
    custom_scripts: Vec<String>,
}

impl fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("staging_mode", &self.staging_mode)
            .field("features", &self.features)
            .field("fault_plan", &self.fault_plan.is_some())
            .field("trace_capacity", &self.trace_capacity)
            .field("sinks", &self.sinks.len())
            .field("fml_exec_mode", &self.fml_exec_mode)
            .field("custom_scripts", &self.custom_scripts.len())
            .finish()
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            staging_mode: StagingMode::default(),
            features: FutureFeatures::default(),
            fault_plan: None,
            trace_capacity: TRACE_CAPACITY,
            sinks: Vec::new(),
            fml_exec_mode: ExecMode::default(),
            custom_scripts: Vec::new(),
        }
    }
}

impl EngineBuilder {
    /// Starts a builder with every knob at its default.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// How design data moves through the staging area (default:
    /// [`StagingMode::ZeroCopy`]).
    pub fn staging_mode(mut self, mode: StagingMode) -> EngineBuilder {
        self.staging_mode = mode;
        self
    }

    /// The §4 future-work features to enable (default: none).
    pub fn future_features(mut self, features: FutureFeatures) -> EngineBuilder {
        self.features = features;
        self
    }

    /// Arms a deterministic [`FaultPlan`] on the engine's live file
    /// system before the first operation runs (default: none). The
    /// plan counts and injects faults exactly as
    /// [`cad_vfs::Vfs::arm_faults`] would.
    pub fn fault_plan(mut self, plan: FaultPlan) -> EngineBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// How FMCAD extension-language scripts execute (default:
    /// [`ExecMode::Vm`], the compiled fast path). The mode is in
    /// force before the §2.4 bootstrap runs, so the consistency
    /// wrappers and all trigger procedures execute under it. Like the
    /// fault plan, it is session-local: recovery re-bootstraps under
    /// the default mode.
    pub fn fml_exec_mode(mut self, mode: ExecMode) -> EngineBuilder {
        self.fml_exec_mode = mode;
        self
    }

    /// Queues a customisation script to run at construction, after
    /// the §2.4 bootstrap and in queue order. Site customisation is
    /// an installation decision, not a design-flow step: the scripts
    /// are not journaled and — like the fault plan — are not re-run
    /// by recovery. Triggers they register fire on subsequent engine
    /// operations.
    pub fn custom_script(mut self, source: impl Into<String>) -> EngineBuilder {
        self.custom_scripts.push(source.into());
        self
    }

    /// Capacity of the built-in trace ring (default:
    /// [`TRACE_CAPACITY`]).
    pub fn trace_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.trace_capacity = capacity;
        self
    }

    /// Subscribes an [`EventSink`] at construction; sinks observe every
    /// op from sequence number 1 and are notified after the built-in
    /// trace and counter sinks, in registration order. The `Send`
    /// bound keeps the engine movable across threads — a requirement
    /// of the concurrent session service layer.
    pub fn sink(mut self, sink: Box<dyn EventSink + Send>) -> EngineBuilder {
        self.sinks.push(sink);
        self
    }

    /// Builds the engine: runs the [`Hybrid`] bootstrap under the
    /// selected script execution mode, runs any queued customisation
    /// scripts, applies the configuration directly to the frameworks
    /// (journaling nothing) and arms the fault plan, if any.
    ///
    /// # Panics
    ///
    /// Panics if a queued [`custom_script`](Self::custom_script)
    /// fails — constructor-time customisation is installation code,
    /// and a broken installation must not come up half-configured.
    pub fn build(self) -> Engine {
        let mut hy = Hybrid::with_exec_mode(self.fml_exec_mode);
        hy.set_staging_mode(self.staging_mode);
        hy.set_future_features(self.features);
        for script in &self.custom_scripts {
            if let Err(e) = hy.fmcad.run_script(script) {
                panic!("constructor-time customisation script failed: {e}");
            }
        }
        if let Some(plan) = self.fault_plan {
            hy.fmcad().fs_ref().arm_faults(plan);
        }
        Engine::from_hybrid(hy, TraceSink::new(self.trace_capacity), self.sinks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Event, JournalEntry};
    use crate::ops::Op;
    use std::sync::mpsc;

    #[test]
    fn defaults_match_engine_new() {
        let built = EngineBuilder::new().build();
        let plain = Engine::new();
        assert_eq!(built.seq(), plain.seq());
        assert_eq!(built.staging_mode(), plain.staging_mode());
        assert_eq!(built.future_features(), plain.future_features());
    }

    #[test]
    fn configuration_is_applied_but_not_journaled() {
        let en = Engine::builder()
            .staging_mode(StagingMode::DeepCopy)
            .future_features(FutureFeatures::all())
            .build();
        assert_eq!(en.seq(), 0);
        assert!(en.journal_ops().is_empty());
        assert_eq!(en.staging_mode(), StagingMode::DeepCopy);
        assert!(en.future_features().procedural_interface);
    }

    #[test]
    fn fault_plan_is_armed_on_the_live_file_system() {
        let en = Engine::builder()
            .fault_plan(FaultPlan::new(7).fail_write(3))
            .build();
        let plan = en
            .fmcad()
            .fs_ref()
            .disarm_faults()
            .expect("armed at construction");
        assert_eq!(plan.stats().faults_fired, 0, "bootstrap fired no faults");
    }

    #[test]
    fn sinks_registered_at_construction_observe_ops() {
        let (tx, rx) = mpsc::channel::<(u64, String)>();
        struct Chan(mpsc::Sender<(u64, String)>);
        impl EventSink for Chan {
            fn on_event(&mut self, seq: u64, op: &Op, _event: &Event) {
                let _ = self.0.send((seq, op.kind_name().to_owned()));
            }
        }
        let mut en = Engine::builder().sink(Box::new(Chan(tx))).build();
        en.create_project("p").unwrap();
        assert_eq!(rx.try_recv().unwrap(), (1, "create-project".to_owned()));
    }

    #[test]
    fn trace_capacity_is_respected() {
        let mut en = Engine::builder().trace_capacity(2).build();
        for i in 0..3 {
            en.create_project(&format!("p{i}")).unwrap();
        }
        let entries: Vec<JournalEntry> = en.trace().entries().cloned().collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seq, 2);
    }

    #[test]
    fn custom_scripts_register_triggers_that_fire_on_ops() {
        // A constructor-time script hooks the coupling trigger; the
        // first project creation couples a library and must fire it —
        // under either execution mode.
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let mut en = Engine::builder()
                .fml_exec_mode(mode)
                .custom_script(
                    "(define (note lib) (host-call \"log\" (string-append \"coupled:\" lib)))
                     (host-call \"register-trigger\" \"library-coupled\" \"note\")",
                )
                .build();
            assert_eq!(en.fmcad().customization().exec_mode(), mode);
            en.create_project("chip").unwrap();
            let log = en.fmcad().customization().log();
            assert!(
                log.iter().any(|l| l.starts_with("coupled:")),
                "{mode:?}: {log:?}"
            );
        }
    }

    #[test]
    fn tree_walk_mode_bootstrap_still_guards_menus() {
        // The §2.4 wrappers are defined under whatever mode is in
        // force at bootstrap; the oracle interpreter must end up with
        // the same locked menus as the VM.
        let vm = Engine::builder().fml_exec_mode(ExecMode::Vm).build();
        let tw = Engine::builder().fml_exec_mode(ExecMode::TreeWalk).build();
        for menu in ["Delete Version", "Purge"] {
            assert_eq!(
                vm.fmcad().customization().is_menu_locked(menu),
                tw.fmcad().customization().is_menu_locked(menu),
                "{menu}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "customisation script failed")]
    fn broken_custom_script_fails_construction() {
        let _ = Engine::builder()
            .custom_script("(error \"site config broken\")")
            .build();
    }

    #[test]
    fn retired_setter_ops_stay_replayable() {
        // The post-hoc setter methods are gone; their journaled `Op`
        // variants remain applyable so journals written by older
        // releases keep replaying to the same state.
        let mut en = Engine::new();
        en.apply(Op::SetStagingMode {
            mode: StagingMode::DeepCopy,
        })
        .unwrap();
        en.apply(Op::SetFutureFeatures {
            features: FutureFeatures::all(),
        })
        .unwrap();
        assert_eq!(en.seq(), 2, "the replay-only ops journal like before");
        assert_eq!(en.staging_mode(), StagingMode::DeepCopy);
        assert!(en.future_features().procedural_interface);
    }
}
