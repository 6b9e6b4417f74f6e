//! Exhaustive adversarial round-trip suite for the [`Op`] and [`Event`]
//! line codecs.
//!
//! The ops journal is the persistence format of the command core: every
//! mutation survives restarts only as its `Op::to_line` form, and every
//! committed event reaches a wire client only as its `Event::to_line`
//! form. This suite drives every variant of both through the codec with
//! payloads chosen to break a `kind|key=value|...` line format — empty
//! strings, the codec's own separators (`|`, `=`, `;`, `:`, `,`), its
//! `-` none sentinel, newlines, control bytes, non-UTF-8 blobs — and
//! checks the parsed value is identical and the encoded form stays a
//! single line.

mod samples;

use jcf_fmcad::hybrid::{Event, Op};
use samples::{event_samples, op_samples};

/// Compile-time exhaustiveness guard: this match has no wildcard arm,
/// so adding an `Op` variant fails compilation here until `op_samples`
/// covers the new variant too.
fn assert_sampled(op: &Op) {
    match op {
        Op::AddUser { .. }
        | Op::AddTeam { .. }
        | Op::AddTeamMember { .. }
        | Op::RegisterViewtype { .. }
        | Op::RegisterTool { .. }
        | Op::DefineStandardFlow { .. }
        | Op::DefineQualityGatedFlow { .. }
        | Op::DefineFlow { .. }
        | Op::AddActivity { .. }
        | Op::FreezeFlow { .. }
        | Op::CreateProject { .. }
        | Op::CreateCell { .. }
        | Op::CreateCellVersion { .. }
        | Op::DeriveVariant { .. }
        | Op::DeclareCompOf { .. }
        | Op::ShareCell { .. }
        | Op::PromoteVariant { .. }
        | Op::Reserve { .. }
        | Op::Publish { .. }
        | Op::CreateDesignObject { .. }
        | Op::AddDesignObjectVersion { .. }
        | Op::MarkEquivalent { .. }
        | Op::MergeForward { .. }
        | Op::RunActivity { .. }
        | Op::Browse { .. }
        | Op::ReadDesignData { .. }
        | Op::CreateConfiguration { .. }
        | Op::CreateConfigVersion { .. }
        | Op::ExportConfig { .. }
        | Op::RunLvs { .. }
        | Op::SetFutureFeatures { .. }
        | Op::SetStagingMode { .. }
        | Op::ImportLibrary { .. }
        | Op::FmcadCreateLibrary { .. }
        | Op::FmcadCreateCell { .. }
        | Op::FmcadCreateCellview { .. }
        | Op::FmcadCheckout { .. }
        | Op::FmcadCheckin { .. }
        | Op::FmcadPurgeVersion { .. }
        | Op::FmcadDirectWrite { .. } => {}
    }
}

/// The number of distinct op kinds `op_samples` must produce — bump this
/// together with `assert_sampled` when the vocabulary grows.
const OP_KIND_COUNT: usize = 40;

#[test]
fn every_variant_round_trips_adversarial_payloads() {
    let ops = op_samples();
    let kinds: std::collections::BTreeSet<&str> = ops.iter().map(Op::kind_name).collect();
    assert_eq!(
        kinds.len(),
        OP_KIND_COUNT,
        "op_samples() must cover every op kind; missing or extra: {kinds:?}"
    );
    for op in &ops {
        assert_sampled(op);
        let line = op.to_line();
        assert!(
            !line.contains('\n') && !line.contains('\r'),
            "journal lines must stay single-line: {line:?}"
        );
        let back = Op::parse_line(&line).expect("encoded line parses");
        assert_eq!(&back, op, "round trip of {line:?}");
    }
}

#[test]
fn a_journal_document_round_trips_in_order() {
    // The journal persists as newline-joined lines; the adversarial
    // payloads above must not break document framing or order.
    let ops = op_samples();
    let doc = ops.iter().map(Op::to_line).collect::<Vec<_>>().join("\n");
    let back: Vec<Op> = doc
        .lines()
        .map(|l| Op::parse_line(l).expect("line parses"))
        .collect();
    assert_eq!(back, ops);
}

#[test]
fn malformed_lines_are_rejected_not_misparsed() {
    let cases = [
        "",
        "no-such-op|x=1",
        "reserve",
        "reserve|user=3",
        "reserve|user=3|cv",
        "reserve|user=zz|cv=1",
        "reserve|user=-1|cv=1",
        "add-user|name=xyz|manager=true",
        "add-user|name=616c696365|manager=maybe",
        "add-user|name=61g|manager=true",
        "add-user|name=6|manager=true",
        "add-user|name=ff|manager=true",
        "add-activity|actor=1|flow=9|name=61|tool=4|needs=1,,2|creates=|predecessors=",
        "run-activity|user=3|variant=14|activity=7|override=true|outputs=zz|session_error=-",
        "run-activity|user=3|variant=14|activity=7|override=true|outputs=61:zz|session_error=-",
        "run-activity|user=3|variant=14|activity=7|override=true|outputs=61|session_error=-",
        "set-staging-mode|mode=warp",
        "merge-forward|user=3|cv=13|base_seq=zz|expected=|writes=",
        "merge-forward|user=3|cv=13|base_seq=0|expected=16|writes=",
        "merge-forward|user=3|cv=13|base_seq=0|expected=16:x|writes=",
        "merge-forward|user=3|cv=13|base_seq=0|expected=|writes=16",
        "merge-forward|user=3|cv=13|base_seq=0|expected=|writes=16:zz",
        "fmcad-purge-version|user=75|library=6c|cell=63|view=76|version=-3",
    ];
    for line in cases {
        assert!(
            Op::parse_line(line).is_err(),
            "must reject malformed line {line:?}"
        );
    }
}

#[test]
fn truncating_any_encoded_line_never_panics() {
    // Parse prefixes of every encoded sample: the codec must fail
    // cleanly (or, for a lucky prefix, parse to *some* op) but never
    // panic on torn journal tails after a crash. Short lines get every
    // cut; long ones a stride, to keep the suite fast.
    for op in op_samples() {
        let line = op.to_line();
        let stride = (line.len() / 257).max(1);
        for cut in (0..line.len()).step_by(stride) {
            if line.is_char_boundary(cut) {
                let _ = Op::parse_line(&line[..cut]);
            }
        }
    }
}

/// The event twin of [`assert_sampled`]: no wildcard arm, so a new
/// `Event` variant fails compilation here until `event_samples` covers
/// it.
fn assert_event_sampled(event: &Event) {
    match event {
        Event::UserAdded(_)
        | Event::TeamAdded(_)
        | Event::TeamMemberAdded(..)
        | Event::ViewtypeRegistered(_)
        | Event::ToolRegistered(_)
        | Event::StandardFlowDefined(_)
        | Event::QualityGatedFlowDefined(_)
        | Event::FlowDefined(_)
        | Event::ActivityAdded(_)
        | Event::FlowFrozen(_)
        | Event::ProjectCreated(_)
        | Event::CellCreated(_)
        | Event::CellVersionCreated(..)
        | Event::VariantDerived(_)
        | Event::CompOfDeclared(..)
        | Event::CellShared(_)
        | Event::VariantPromoted(..)
        | Event::Reserved(_)
        | Event::Published(_)
        | Event::DesignObjectCreated(_)
        | Event::DovAdded(_)
        | Event::MarkedEquivalent(..)
        | Event::MergeApplied { .. }
        | Event::MergeConflict { .. }
        | Event::ActivityRun { .. }
        | Event::Browsed { .. }
        | Event::DesignDataRead { .. }
        | Event::ConfigurationCreated(_)
        | Event::ConfigVersionCreated(_)
        | Event::ConfigExported(_)
        | Event::LvsRun(_)
        | Event::FutureFeaturesSet
        | Event::StagingModeSet
        | Event::LibraryImported(..)
        | Event::FmcadLibraryCreated
        | Event::FmcadCellCreated
        | Event::FmcadCellviewCreated
        | Event::FmcadCheckedOut { .. }
        | Event::FmcadCheckedIn { .. }
        | Event::FmcadVersionPurged
        | Event::FmcadFileWritten => {}
    }
}

/// The number of distinct event kinds `event_samples` must produce —
/// bump this together with `assert_event_sampled`.
const EVENT_KIND_COUNT: usize = 41;

#[test]
fn every_event_variant_round_trips_adversarial_payloads() {
    let events = event_samples();
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(Event::kind_name).collect();
    assert_eq!(
        kinds.len(),
        EVENT_KIND_COUNT,
        "event_samples() must cover every event kind; missing or extra: {kinds:?}"
    );
    for event in &events {
        assert_event_sampled(event);
        let line = event.to_line();
        assert!(
            !line.contains('\n') && !line.contains('\r'),
            "event lines must stay single-line: {line:?}"
        );
        let back = Event::parse_line(&line).expect("encoded line parses");
        assert_eq!(&back, event, "round trip of {line:?}");
    }
}

#[test]
fn truncating_any_encoded_event_line_never_panics() {
    // A wire client parses `event=` from the network: every prefix must
    // fail cleanly (or parse to *some* event), never panic.
    for event in event_samples() {
        let line = event.to_line();
        let stride = (line.len() / 257).max(1);
        for cut in (0..line.len()).step_by(stride) {
            if line.is_char_boundary(cut) {
                let _ = Event::parse_line(&line[..cut]);
            }
        }
    }
}
