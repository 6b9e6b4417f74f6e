//! Deterministic randomized suite (SplitMix64-driven): metadata
//! persistence and the checkout protocol under random op sequences,
//! and a `.meta` parser that never panics on corrupt files.

use cad_vfs::SplitMix64;
use fmcad::meta::LibraryMeta;
use fmcad::{Fmcad, FmcadError};

/// A random framework operation by one of three users on one of three
/// cellviews.
#[derive(Debug, Clone)]
enum Op {
    Checkout(u8, u8),
    Checkin(u8, u8),
    Cancel(u8, u8),
    DirectWrite(u8, u8),
    Refresh,
    SetDefault(u8, u8),
}

fn random_ops(rng: &mut SplitMix64) -> Vec<Op> {
    let n = rng.below(40);
    (0..n)
        .map(|_| {
            let kind = rng.below(6);
            let a = rng.below(3) as u8;
            let b = rng.below(8) as u8;
            match kind {
                0 => Op::Checkout(a, b % 3),
                1 => Op::Checkin(a, b % 3),
                2 => Op::Cancel(a, b % 3),
                3 => Op::DirectWrite(a, b),
                4 => Op::Refresh,
                _ => Op::SetDefault(a, b % 4),
            }
        })
        .collect()
}

fn build() -> Fmcad {
    let mut fm = Fmcad::new();
    fm.create_library("lib").unwrap();
    for c in 0..3 {
        let cell = format!("c{c}");
        fm.create_cell("lib", &cell).unwrap();
        fm.create_cellview("lib", &cell, "schematic", "schematic")
            .unwrap();
        fm.checkin(
            "init",
            "lib",
            &cell,
            "schematic",
            format!("netlist c{c}\n").into_bytes(),
        )
        .unwrap();
    }
    fm
}

fn apply(fm: &mut Fmcad, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Checkout(u, c) => {
                let _ = fm.checkout(&format!("u{u}"), "lib", &format!("c{c}"), "schematic");
            }
            Op::Checkin(u, c) => {
                let _ = fm.checkin(
                    &format!("u{u}"),
                    "lib",
                    &format!("c{c}"),
                    "schematic",
                    format!("netlist c{c}\n# by u{u}\n").into_bytes(),
                );
            }
            Op::Cancel(u, c) => {
                let _ = fm.cancel_checkout(&format!("u{u}"), "lib", &format!("c{c}"), "schematic");
            }
            Op::DirectWrite(c, v) => {
                let _ = fm.direct_file_write(
                    "lib",
                    &format!("c{c}"),
                    "schematic",
                    100 + u32::from(*v),
                    b"rogue".to_vec(),
                );
            }
            Op::Refresh => {
                let _ = fm.refresh("u0", "lib");
            }
            Op::SetDefault(c, v) => {
                let _ = fm.set_default("lib", &format!("c{c}"), "schematic", 1 + u32::from(*v));
            }
        }
    }
}

/// After any operation sequence, the in-memory metadata and the
/// persisted `.meta` agree exactly (a restart loses nothing).
#[test]
fn meta_persistence_matches_memory() {
    let mut rng = SplitMix64::new(0xFCAD_1995);
    for _ in 0..20 {
        let ops = random_ops(&mut rng);
        let mut fm = build();
        apply(&mut fm, &ops);
        let snapshot = fm.meta_snapshot("lib").unwrap();
        let restarted = Fmcad::open_existing(fm.into_fs()).unwrap();
        assert_eq!(restarted.meta_snapshot("lib").unwrap(), snapshot);
    }
}

/// The checkout protocol never lets two users hold one cellview, and
/// after a refresh the metadata contains every version file on disk.
#[test]
fn checkout_exclusivity_and_refresh_completeness() {
    let mut rng = SplitMix64::new(31);
    for _ in 0..20 {
        let ops = random_ops(&mut rng);
        let mut fm = build();
        apply(&mut fm, &ops);
        for c in 0..3 {
            let cell = format!("c{c}");
            if let Ok(Some(holder)) = fm.checkout_holder("lib", &cell, "schematic") {
                let holder = holder.to_owned();
                let other = if holder == "u0" { "u1" } else { "u0" };
                let result = fm.checkout(other, "lib", &cell, "schematic");
                assert!(
                    matches!(result, Err(FmcadError::CheckedOutBy { .. })),
                    "second checkout must be refused"
                );
            }
        }
        fm.refresh("u0", "lib").unwrap();
        let report = fm.verify("lib").unwrap();
        assert!(
            !report
                .iter()
                .any(|i| matches!(i, fmcad::MetaInconsistency::UnknownFile { .. })),
            "refresh must absorb all files: {report:?}"
        );
    }
}

/// Version numbers per cellview are strictly increasing and the
/// default is always a known version after any sequence.
#[test]
fn version_lists_are_sorted_and_default_is_known() {
    let mut rng = SplitMix64::new(32);
    for _ in 0..20 {
        let ops = random_ops(&mut rng);
        let mut fm = build();
        apply(&mut fm, &ops);
        for c in 0..3 {
            let cell = format!("c{c}");
            let versions = fm.versions("lib", &cell, "schematic").unwrap();
            assert!(versions.windows(2).all(|w| w[0] < w[1]), "{versions:?}");
            if let Some(d) = fm.default_version("lib", &cell, "schematic").unwrap() {
                assert!(versions.contains(&d), "default {d} not in {versions:?}");
            }
        }
    }
}

/// The `.meta` parser never panics on arbitrary input, and
/// structured-garbage files (real record keywords, random fields)
/// either fail cleanly or re-serialise without loss.
#[test]
fn meta_parser_never_panics_and_round_trips_whatever_parses() {
    const KEYWORDS: &[&str] = &[
        "cell", "view", "version", "default", "checkout", "config", "cvv",
    ];
    let mut rng = SplitMix64::new(33);
    // A field is a short name or a small version number.
    let field = |rng: &mut SplitMix64| {
        if rng.chance(1, 2) {
            rng.below(4).to_string()
        } else {
            let len = 1 + rng.below(4);
            rng.ident(len)
        }
    };
    let mut parsed = 0;
    for _ in 0..512 {
        let len = rng.below(200);
        let _ = LibraryMeta::parse(&String::from_utf8_lossy(&rng.bytes(len)));
        let mut text = String::from("meta lib\n");
        for _ in 0..rng.below(15) {
            text.push_str(KEYWORDS[rng.below(KEYWORDS.len())]);
            for _ in 0..1 + rng.below(5) {
                text.push(' ');
                text.push_str(&field(&mut rng));
            }
            text.push('\n');
        }
        if let Ok(meta) = LibraryMeta::parse(&text) {
            let again = LibraryMeta::parse(&meta.to_text()).expect("re-parse");
            assert_eq!(again, meta, "{text}");
            parsed += 1;
        }
    }
    assert!(parsed > 32, "only {parsed} structured inputs parsed");
}
