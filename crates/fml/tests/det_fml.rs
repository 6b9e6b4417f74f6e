//! Deterministic randomized suite (SplitMix64-driven) for the
//! extension language: print/read round trips, arithmetic, loops and
//! robustness against arbitrary scripts.

use cad_vfs::SplitMix64;
use fml::{parse, ExecMode, Interp, NoHost, Value};

/// A random printable expression tree (no procedures).
fn random_expr(rng: &mut SplitMix64, depth: usize) -> Value {
    if depth > 0 && rng.chance(2, 5) {
        let n = rng.below(5);
        let items = (0..n).map(|_| random_expr(rng, depth - 1)).collect();
        return Value::List(items);
    }
    match rng.below(4) {
        0 => Value::Int(rng.next_u64() as i64),
        1 => {
            let len = rng.below(6);
            Value::Sym(format!("s{}", rng.ident(len.max(1))))
        }
        2 => Value::Bool(rng.chance(1, 2)),
        _ => {
            let len = rng.below(8);
            Value::Str(rng.ident(len))
        }
    }
}

#[test]
fn display_parse_round_trip() {
    let mut rng = SplitMix64::new(0xF31_1995);
    for case in 0..100 {
        let expr = random_expr(&mut rng, 3);
        let text = expr.to_string();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.len(), 1, "case {case}: {text}");
        assert_eq!(parsed[0].to_string(), text, "case {case}");
    }
}

#[test]
fn addition_matches_rust() {
    let mut rng = SplitMix64::new(21);
    for _ in 0..30 {
        let n = 1 + rng.below(7);
        let xs: Vec<i64> = (0..n)
            .map(|_| (rng.next_u64() % 2000) as i64 - 1000)
            .collect();
        let src = format!(
            "(+ {})",
            xs.iter().map(i64::to_string).collect::<Vec<_>>().join(" ")
        );
        let v = Interp::new().run(&src, &mut NoHost).unwrap();
        let expected: i64 = xs.iter().sum();
        assert!(matches!(v, Value::Int(i) if i == expected), "{src}");
    }
}

#[test]
fn loop_sum_matches_closed_form() {
    let mut rng = SplitMix64::new(22);
    for _ in 0..10 {
        let n = rng.below(200) as i64;
        let src = format!(
            "(define i 0)(define s 0)(while (< i {n}) (set! s (+ s i)) (set! i (+ i 1))) s"
        );
        let v = Interp::new().run(&src, &mut NoHost).unwrap();
        assert!(matches!(v, Value::Int(i) if i == n * (n - 1) / 2));
    }
}

/// No script panics the interpreter in either mode: it may error or
/// run out of fuel, both are fine. Half the inputs are printable
/// noise, half are soups of the language's own tokens, which reach
/// far deeper into the evaluator.
#[test]
fn fml_never_panics() {
    const TOKENS: &[&str] = &[
        "(",
        "(",
        ")",
        ")",
        "'",
        "\"s\"",
        "#t",
        "#f",
        "x",
        "y",
        "f",
        "0",
        "1",
        "-1",
        "7",
        "-9223372036854775808",
        "9223372036854775807",
        "+",
        "-",
        "*",
        "/",
        "mod",
        "<",
        "=",
        "let",
        "define",
        "lambda",
        "set!",
        "if",
        "cond",
        "while",
        "and",
        "or",
        "quote",
        "list",
        "first",
        "rest",
        "apply",
        "reduce",
        "range",
        "string-append",
    ];
    let mut rng = SplitMix64::new(0xF33D_1995);
    for case in 0..400 {
        let src: String = if case % 2 == 0 {
            let len = rng.below(201);
            (0..len)
                .map(|_| match rng.below(96) {
                    95 => '\n',
                    c => char::from(b' ' + c as u8),
                })
                .collect()
        } else {
            let len = rng.below(60);
            (0..len)
                .map(|_| TOKENS[rng.below(TOKENS.len())])
                .collect::<Vec<_>>()
                .join(" ")
        };
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let mut interp = Interp::with_mode(mode);
            interp.set_fuel(50_000);
            let _ = interp.run(&src, &mut NoHost);
        }
    }
}
