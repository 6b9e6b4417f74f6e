//! Deterministic randomized suite (SplitMix64-driven): format round
//! trips over generated designs, and parsers that never panic on
//! corrupt design files.

use cad_vfs::SplitMix64;
use design_data::{
    format, generate, layout_hierarchy, schematic_hierarchy, Logic, Stimulus, Waveforms,
};

#[test]
fn netlist_format_round_trip() {
    let mut rng = SplitMix64::new(0xF0F0_1995);
    for _ in 0..20 {
        let gates = 1 + rng.below(120);
        let seed = rng.next_u64();
        let d = generate::random_logic(gates, seed);
        let n = &d.netlists[&d.top];
        let parsed = format::parse_netlist(&format::write_netlist(n)).unwrap();
        assert_eq!(&parsed, n, "gates={gates} seed={seed}");
    }
}

#[test]
fn layout_symbol_round_trip() {
    let mut rng = SplitMix64::new(11);
    for _ in 0..6 {
        let width = 1 + rng.below(12);
        let d = generate::ripple_adder(width);
        for l in d.layouts.values() {
            let parsed = format::parse_layout(&format::write_layout(l)).unwrap();
            assert_eq!(&parsed, l);
        }
        for s in d.symbols.values() {
            let parsed = format::parse_symbol(&format::write_symbol(s)).unwrap();
            assert_eq!(&parsed, s);
        }
    }
}

#[test]
fn generated_designs_are_clean() {
    let mut rng = SplitMix64::new(12);
    for _ in 0..12 {
        let gates = 1 + rng.below(80);
        let seed = rng.next_u64();
        let d = generate::random_logic(gates, seed);
        for n in d.netlists.values() {
            assert!(n.check().is_empty());
        }
        for l in d.layouts.values() {
            assert!(l.check().is_empty());
        }
        let hs = schematic_hierarchy(&d.top, &d.netlists);
        let hl = layout_hierarchy(&d.top, &d.layouts);
        assert!(hs.is_isomorphic_to(&hl), "gates={gates} seed={seed}");
    }
}

#[test]
fn waveform_round_trip() {
    let mut rng = SplitMix64::new(13);
    for _ in 0..20 {
        let mut w = Waveforms::new();
        let events = rng.below(64);
        for i in 0..events {
            let t = rng.next_u64() % 1000;
            let logic = match rng.below(4) {
                0 => Logic::Zero,
                1 => Logic::One,
                2 => Logic::X,
                _ => Logic::Z,
            };
            w.record(&format!("sig{}", i % 5), t, logic);
        }
        let parsed = format::parse_waveforms(&format::write_waveforms(&w)).unwrap();
        assert_eq!(parsed, w);
    }
}

/// Feeds one input to every design-file parser; each must answer Ok or
/// Err, never panic.
fn parse_everything(text: &str) {
    let _ = format::parse_netlist(text);
    let _ = format::parse_layout(text);
    let _ = format::parse_symbol(text);
    let _ = format::parse_waveforms(text);
    let _ = Stimulus::parse(text);
}

/// Random printable characters, one line at most 40 long.
fn printable_line(rng: &mut SplitMix64) -> String {
    let len = rng.below(41);
    (0..len)
        .map(|_| char::from(b' ' + rng.below(95) as u8))
        .collect()
}

/// No parser in the workspace may panic on arbitrary input: a
/// framework must survive corrupt design files. Covers unstructured
/// noise (including non-ASCII bytes) and inputs that open with a real
/// format keyword but carry random lines.
#[test]
fn parsers_never_panic() {
    let mut rng = SplitMix64::new(14);
    for _ in 0..512 {
        let len = rng.below(200);
        parse_everything(&String::from_utf8_lossy(&rng.bytes(len)));
        let lines = rng.below(20);
        parse_everything(
            &(0..lines)
                .map(|_| printable_line(&mut rng) + "\n")
                .collect::<String>(),
        );
        let keyword = ["netlist", "layout", "symbol", "waves", "stimulus"][rng.below(5)];
        let mut text = format!("{keyword} x\n");
        for _ in 0..rng.below(20) {
            text.push_str(&printable_line(&mut rng));
            text.push('\n');
        }
        parse_everything(&text);
    }
}
