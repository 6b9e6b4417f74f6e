//! Deterministic randomized suite (SplitMix64-driven): random valid
//! desktop sessions never break the cross-framework invariants.

use cad_vfs::SplitMix64;
use design_data::{format, generate};
use hybrid::{Engine, ToolOutput};

/// A random but *valid* designer action.
#[derive(Debug, Clone)]
enum Action {
    NewCell,
    NewVersion(usize),
    NewVariant(usize, u8),
    EnterSchematic(usize, u8),
    Simulate(usize),
    Publish(usize),
}

fn random_actions(rng: &mut SplitMix64) -> Vec<Action> {
    let n = 1 + rng.below(24);
    (0..n)
        .map(|_| {
            let kind = rng.below(6);
            let i = rng.below(64);
            let b = rng.below(256) as u8;
            match kind {
                0 => Action::NewCell,
                1 => Action::NewVersion(i),
                2 => Action::NewVariant(i, b),
                3 => Action::EnterSchematic(i, b),
                4 => Action::Simulate(i),
                _ => Action::Publish(i),
            }
        })
        .collect()
}

/// After any sequence of valid desktop actions, every coupled project
/// verifies clean, mirrored bytes match the library, and derivation
/// edges point backwards in creation time.
#[test]
fn random_sessions_stay_consistent() {
    let mut rng = SplitMix64::new(0x4B1D_1995);
    for case in 0..12 {
        let actions = random_actions(&mut rng);
        let mut hy = Engine::new();
        let admin = hy.admin();
        let alice = hy.add_user("alice", false).unwrap();
        let team = hy.add_team(admin, "t").unwrap();
        hy.add_team_member(admin, team, alice).unwrap();
        let flow = hy.standard_flow("f").unwrap();
        let project = hy.create_project("p").unwrap();

        // Track live (cell, reserved cv, variant) triples.
        let mut cells = Vec::new();
        let mut slots: Vec<(jcf::CellVersionId, jcf::VariantId, bool)> = Vec::new();
        let mut cell_count = 0u32;

        for action in actions {
            match action {
                Action::NewCell => {
                    cell_count += 1;
                    let cell = hy
                        .create_cell(project, &format!("cell{cell_count}"))
                        .unwrap();
                    cells.push(cell);
                }
                Action::NewVersion(i) => {
                    if cells.is_empty() {
                        continue;
                    }
                    let cell = cells[i % cells.len()];
                    let (cv, variant) = hy.create_cell_version(cell, flow.flow, team).unwrap();
                    hy.reserve(alice, cv).unwrap();
                    slots.push((cv, variant, true));
                }
                Action::NewVariant(i, n) => {
                    if slots.is_empty() {
                        continue;
                    }
                    let (cv, base, reserved) = slots[i % slots.len()];
                    if !reserved {
                        continue;
                    }
                    let name = format!("var{n}-{i}");
                    if let Ok(v) = hy.derive_variant(alice, cv, &name, Some(base)) {
                        slots.push((cv, v, true));
                    }
                }
                Action::EnterSchematic(i, gates) => {
                    if slots.is_empty() {
                        continue;
                    }
                    let (_, variant, reserved) = slots[i % slots.len()];
                    if !reserved {
                        continue;
                    }
                    let design = generate::random_logic(1 + gates as usize % 40, u64::from(gates));
                    let bytes = format::write_netlist(&design.netlists[&design.top]).into_bytes();
                    hy.run_activity(alice, variant, flow.enter_schematic, false, move |_| {
                        Ok(vec![ToolOutput {
                            viewtype: "schematic".into(),
                            data: bytes.into(),
                        }])
                    })
                    .unwrap();
                }
                Action::Simulate(i) => {
                    if slots.is_empty() {
                        continue;
                    }
                    let (_, variant, reserved) = slots[i % slots.len()];
                    if !reserved {
                        continue;
                    }
                    // Only legal when a schematic exists; otherwise the
                    // flow engine rejects, which is fine.
                    let _ = hy.run_activity(alice, variant, flow.simulate, false, |_| {
                        Ok(vec![ToolOutput {
                            viewtype: "waveform".into(),
                            data: b"waves\n".to_vec().into(),
                        }])
                    });
                }
                Action::Publish(i) => {
                    if slots.is_empty() {
                        continue;
                    }
                    let idx = i % slots.len();
                    let (cv, _, reserved) = slots[idx];
                    if reserved {
                        hy.publish(alice, cv).unwrap();
                        for slot in slots.iter_mut().filter(|s| s.0 == cv) {
                            slot.2 = false;
                        }
                    }
                }
            }
        }

        // Invariant 1: the coupled project always verifies clean.
        assert!(
            hy.verify_project(project).unwrap().is_empty(),
            "case {case}"
        );

        // Invariant 2: every mirrored DOV's bytes match the library.
        for (_, variant, _) in &slots {
            for design_object in hy.jcf().design_objects_of(*variant) {
                for dov in hy.jcf().versions_of_design_object(design_object) {
                    if let Some(mirror) = hy.mirror_of(dov).cloned() {
                        let db = hy
                            .jcf()
                            .database()
                            .get(dov.object_id(), "data")
                            .unwrap()
                            .as_bytes()
                            .unwrap()
                            .to_vec();
                        let lib = hy
                            .fmcad()
                            .read_version(
                                &mirror.library,
                                &mirror.cell,
                                &mirror.view,
                                mirror.version,
                            )
                            .unwrap();
                        assert_eq!(db, lib, "case {case}");
                    }
                }
            }
        }

        // Invariant 3: derivation edges are acyclic (derived-from ids
        // were always created earlier).
        for (_, variant, _) in &slots {
            for design_object in hy.jcf().design_objects_of(*variant) {
                for dov in hy.jcf().versions_of_design_object(design_object) {
                    for parent in hy.jcf().derived_from(dov) {
                        assert!(parent.object_id() < dov.object_id(), "case {case}");
                    }
                }
            }
        }
    }
}
