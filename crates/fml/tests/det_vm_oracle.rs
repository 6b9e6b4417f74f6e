//! Differential oracle: the bytecode VM against the tree-walking
//! interpreter.
//!
//! SplitMix64-generated programs (closures, `set!`, `while`, host
//! calls, higher-order builtins, injected errors) must produce the
//! same value rendering, the same error *kind*, the same host-call
//! transcript and the same `print` output under both execution modes.
//! Programs are generated define-before-use — the one documented
//! deviation between the engines is the static resolution of textual
//! use-before-define, which no reasonable script relies on.

use cad_vfs::SplitMix64;
use fml::{ExecMode, FmlError, FmlResult, Host, Interp, Value};

/// Records every host call and answers with the running call count —
/// deterministic, but different per call, so a diverging call *order*
/// also diverges the computed values.
struct RecHost {
    log: Vec<String>,
}

impl Host for RecHost {
    fn host_call(&mut self, name: &str, args: &[Value]) -> FmlResult<Value> {
        let rendered: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        self.log.push(format!("{name}({})", rendered.join(",")));
        Ok(Value::Int(self.log.len() as i64))
    }
}

type Observation = (Result<String, String>, Vec<String>, Vec<String>);

fn observe(src: &str, mode: ExecMode, fuel: u64) -> Observation {
    let mut host = RecHost { log: Vec::new() };
    let mut interp = Interp::with_mode(mode);
    interp.set_fuel(fuel);
    let outcome = interp
        .run(src, &mut host)
        .map(|v| v.to_string())
        .map_err(|e| e.kind().to_string());
    (outcome, host.log, interp.take_output())
}

const ORACLE_FUEL: u64 = 60_000;

fn assert_parity(src: &str) {
    let vm = observe(src, ExecMode::Vm, ORACLE_FUEL);
    let tw = observe(src, ExecMode::TreeWalk, ORACLE_FUEL);
    assert_eq!(vm, tw, "modes diverged on:\n{src}");
}

// --- program generator --------------------------------------------------

struct Gen {
    rng: SplitMix64,
    /// Defined integer-valued globals.
    vars: Vec<String>,
    /// Defined procedures with their arity.
    fns: Vec<(String, usize)>,
    counter: usize,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: SplitMix64::new(seed),
            vars: Vec::new(),
            fns: Vec::new(),
            counter: 0,
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    fn var(&mut self) -> String {
        let i = self.rng.below(self.vars.len());
        self.vars[i].clone()
    }

    /// A random integer-valued expression over already-defined names.
    fn int_expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.chance(1, 3) {
            if !self.vars.is_empty() && self.rng.chance(1, 2) {
                return self.var();
            }
            return (self.rng.below(90) as i64 - 20).to_string();
        }
        let a = self.int_expr(depth - 1);
        let b = self.int_expr(depth - 1);
        match self.rng.below(8) {
            0 => format!("(+ {a} {b})"),
            1 => format!("(- {a} {b})"),
            2 => format!("(* {a} {b})"),
            3 => format!("(mod {a} (+ 1 (abs {b})))"),
            4 => format!("(if (< {a} {b}) {a} {b})"),
            5 => format!("(min {a} (max {b} 3))"),
            6 => format!("(cond ((> {a} {b}) {a}) ((= {a} {b}) 0) (else {b}))"),
            _ => format!("(+ {a} (and (> {b} 0) {b}) 0)"),
        }
    }

    fn statement(&mut self) -> String {
        match self.rng.below(12) {
            0 | 1 => {
                let name = self.fresh("g");
                let e = self.int_expr(2);
                self.vars.push(name.clone());
                format!("(define {name} {e})")
            }
            2 if !self.vars.is_empty() => {
                let name = self.var();
                let e = self.int_expr(2);
                format!("(set! {name} {e})")
            }
            3 => {
                let name = self.fresh("f");
                let arity = 1 + self.rng.below(2);
                let params: Vec<String> = (0..arity).map(|i| format!("p{i}")).collect();
                let mut inner = self.int_expr(1);
                for p in &params {
                    inner = format!("(+ {p} {inner})");
                }
                self.fns.push((name.clone(), arity));
                format!("(define ({name} {}) {inner})", params.join(" "))
            }
            4 if !self.fns.is_empty() => {
                let i = self.rng.below(self.fns.len());
                let (f, arity) = self.fns[i].clone();
                let args: Vec<String> = (0..arity).map(|_| self.int_expr(1)).collect();
                let name = self.fresh("g");
                self.vars.push(name.clone());
                format!("(define {name} ({f} {}))", args.join(" "))
            }
            5 => {
                let acc = self.fresh("g");
                let idx = self.fresh("i");
                let limit = 1 + self.rng.below(5);
                let step = self.int_expr(1);
                self.vars.push(acc.clone());
                format!(
                    "(define {acc} 0)(define {idx} 0)\
                     (while (< {idx} {limit}) \
                       (set! {acc} (+ {acc} {step} {idx})) \
                       (set! {idx} (+ {idx} 1)))"
                )
            }
            6 => {
                let c = self.fresh("c");
                let start = self.int_expr(1);
                let calls = 1 + self.rng.below(3);
                let g = self.fresh("g");
                self.vars.push(g.clone());
                format!(
                    "(define {c} (let ((n {start})) (lambda () (set! n (+ n 1)) n)))\
                     (define {g} (+ {}))",
                    (0..calls)
                        .map(|_| format!("({c})"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            }
            7 => {
                // Fresh capture per loop iteration, consumed through
                // map + apply — the cell-freshness stress case.
                let lst = self.fresh("lst");
                let j = self.fresh("j");
                let g = self.fresh("g");
                let k = self.int_expr(1);
                self.vars.push(g.clone());
                format!(
                    "(define {lst} '())(define {j} 0)\
                     (while (< {j} 3) \
                       (let ((cap (* {j} {k}))) \
                         (set! {lst} (cons (lambda () (+ cap 1)) {lst}))) \
                       (set! {j} (+ {j} 1)))\
                     (define {g} (apply + (map (lambda (f) (f)) {lst})))"
                )
            }
            8 => {
                let f = self.fresh("rec");
                let g = self.fresh("g");
                let n = 2 + self.rng.below(7);
                self.vars.push(g.clone());
                format!(
                    "(define ({f} n) (if (<= n 0) 0 (+ n ({f} (- n 1)))))\
                     (define {g} ({f} {n}))"
                )
            }
            9 => {
                let e = self.int_expr(2);
                format!("(print \"v=\" {e} (string-append \"s\" (to-string {e})))")
            }
            10 => {
                let e = self.int_expr(1);
                let g = self.fresh("g");
                self.vars.push(g.clone());
                format!("(define {g} (host-call \"probe\" {e}))")
            }
            _ => {
                let g = self.fresh("g");
                let n = 1 + self.rng.below(6);
                self.vars.push(g.clone());
                format!(
                    "(define {g} (reduce + 0 (filter (lambda (x) (> x 0)) \
                     (map (lambda (x) (- (* x x) 2)) (range {n})))))"
                )
            }
        }
    }

    /// An expression or statement that fails at runtime.
    fn error_statement(&mut self) -> String {
        match self.rng.below(8) {
            0 => "(/ 1 0)".to_owned(),
            1 => format!("(+ {} \"oops\")", self.int_expr(1)),
            2 => "(this-is-never-defined)".to_owned(),
            3 => "(error \"injected\")".to_owned(),
            4 => "(assert (> 0 1) \"injected assert\")".to_owned(),
            5 => "((lambda (x) x) 1 2)".to_owned(),
            6 => "(7 7)".to_owned(),
            _ => "(cond (#f 1) not-a-clause-list)".to_owned(),
        }
    }

    fn program(&mut self) -> String {
        let mut stmts = Vec::new();
        let n = 8 + self.rng.below(8);
        for _ in 0..n {
            stmts.push(self.statement());
        }
        // Occasionally end in a failure — error-kind parity matters as
        // much as value parity, and everything before it (host calls,
        // prints) must have happened identically.
        if self.rng.chance(1, 4) {
            stmts.push(self.error_statement());
        } else if !self.vars.is_empty() {
            let shown: Vec<String> = self.vars.iter().take(6).cloned().collect();
            stmts.push(format!("(list {})", shown.join(" ")));
        }
        stmts.join("\n")
    }
}

// --- the suites ---------------------------------------------------------

#[test]
fn generated_programs_agree_across_modes() {
    for seed in [11, 23, 42, 77, 1995, 4242, 90210, 0xF31] {
        let mut gen = Gen::new(seed);
        for case in 0..25 {
            let src = gen.program();
            let vm = observe(&src, ExecMode::Vm, ORACLE_FUEL);
            let tw = observe(&src, ExecMode::TreeWalk, ORACLE_FUEL);
            assert_eq!(vm, tw, "seed {seed} case {case} diverged on:\n{src}");
        }
    }
}

#[test]
fn semantic_corner_cases_agree() {
    for src in [
        // or discards a falsy last value; and returns its last value.
        "(or 0 #f)",
        "(and 1 2 3)",
        "(and)",
        "(or)",
        // Parallel let: initialisers see the outer scope.
        "(define x 1) (let ((x 10) (y x)) (+ x y))",
        // while returns the last body value; nil before any iteration.
        "(define i 0) (while (< i 3) (set! i (+ i 1)) (* i 10))",
        "(while #f 1)",
        // Empty call and quote forms.
        "()",
        "'(1 (2 3) \"s\" #t)",
        "(define quote 1) '(a b)",
        // cond: empty clauses skip, no match yields nil, empty body
        // of a matching clause yields nil.
        "(cond () (#t 5))",
        "(cond (#f 1))",
        "(cond ((= 1 1)))",
        // define evaluates to the defined symbol; redefinition wins.
        "(define a 5)",
        "(define (f) 1) (define f 2) f",
        // Builtins are ordinary shadowable globals.
        "(define my+ +) (my+ 1 2)",
        "(define + 3) +",
        // Closure naming: a defined lambda displays with its name.
        "(define g (lambda (x) x)) g",
        "(lambda (x) x)",
        // Nested captures through two frames, reads and writes.
        "(define (f a) (lambda (b) (lambda (c) (+ a b c)))) (((f 1) 2) 3)",
        "(define (mk) (let ((n 0)) (lambda () (set! n (+ n 1)) n)))
         (define c1 (mk)) (define c2 (mk)) (c1) (c1) (list (c1) (c2))",
        // Recursion, euclidean mod, unary minus.
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)",
        "(mod -7 3)",
        "(- 5)",
        "(if #f 1)",
        // Higher-order builtins calling user closures.
        "(reduce (lambda (a b) (+ a (* 2 b))) 0 (range 1 6))",
        "(apply (lambda (a b c) (list c b a)) '(1 2 3))",
        // String builtins and printing non-strings.
        "(string-append \"a\" 1 '(2))",
        "(length \"héllo\")",
    ] {
        assert_parity(src);
    }
    // Corners where the modes once disagreed or panicked, pinned to
    // the value both must give.
    for (src, expected) in [
        // Division and mod wrap like + - *: i64::MIN / -1 overflows.
        ("(/ -9223372036854775808 -1)", "-9223372036854775808"),
        ("(mod -9223372036854775808 -1)", "0"),
        ("(mod 7 -1)", "0"),
        // A name bound twice in one let: the last binding wins.
        ("(let ((x 1) (x 2)) x)", "2"),
    ] {
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let (outcome, _, _) = observe(src, mode, ORACLE_FUEL);
            assert_eq!(outcome, Ok(expected.to_owned()), "{mode:?} on {src}");
        }
    }
}

#[test]
fn error_kinds_agree() {
    for src in [
        "(/ 4 0)",
        "(mod 4 0)",
        "(+ 1 \"s\")",
        "ghost",
        "(set! ghost 1)",
        "(error \"x\")",
        "(assert #f)",
        "((lambda (x) x))",
        "(define (f a b) a) (f 1)",
        "(3 4)",
        "(host-call 5)",
        "(lambda (1) 1)",
        "(define (1) 1)",
        "(set! 1 2)",
        "(let ((1 2)) 3)",
        "(let (bad) 3)",
        "(let ((x 1)))",
        "(while)",
        "(if 1)",
        "(quote)",
        "(quote a b)",
        "(cond 5)",
        "(first 3)",
        "(append '(1) 2)",
        "(map 9 '(1))",
        // Deferred malformed forms: fine when unreached, the right
        // kind when reached.
        "(if #t 7 (lambda (1) 1))",
        "(if #f 7 (lambda (1) 1))",
    ] {
        assert_parity(src);
    }
}

#[test]
fn host_transcripts_agree_under_failure() {
    // Host calls before the failing expression must all have landed,
    // in order, in both modes.
    let src = "
        (host-call \"a\" 1)
        (define g (host-call \"b\" 2 3))
        (host-call \"c\" g)
        (/ g 0)
        (host-call \"never\" 9)";
    let vm = observe(src, ExecMode::Vm, ORACLE_FUEL);
    let tw = observe(src, ExecMode::TreeWalk, ORACLE_FUEL);
    assert_eq!(vm.0, Err("division-by-zero".to_owned()));
    assert_eq!(vm.1, vec!["a(1)", "b(2,3)", "c(2)"]);
    assert_eq!(vm, tw);
}

#[test]
fn fuel_exhaustion_mid_run_agrees() {
    // Host calls strictly precede the runaway loop, so both modes
    // produce the full transcript and then trap on fuel — whatever
    // their (comparable, not identical) instruction accounting.
    let src = "
        (host-call \"setup\" 1)
        (host-call \"setup\" 2)
        (print \"entering loop\")
        (while 1 0)";
    for fuel in [2_000, 10_000] {
        let vm = observe(src, ExecMode::Vm, fuel);
        let tw = observe(src, ExecMode::TreeWalk, fuel);
        assert_eq!(vm.0, Err("fuel-exhausted".to_owned()));
        assert_eq!(vm, tw, "fuel {fuel}");
    }
}

#[test]
fn fuel_charges_are_comparable_across_modes() {
    // Same workload, both modes: the shared cost table plus the
    // one-unit dispatch charge must keep total fuel within a small
    // constant factor, so a budget tuned against one engine still
    // protects the other.
    let src = "
        (define (work n)
          (define acc 0)
          (define i 0)
          (while (< i n)
            (set! acc (+ acc (reduce + 0 (map (lambda (x) (* x x)) (range 8)))))
            (set! acc (+ acc (length (string-append \"ab\" (to-string i)))))
            (set! i (+ i 1)))
          acc)
        (work 200)";
    let mut used = Vec::new();
    for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
        let mut interp = Interp::with_mode(mode);
        interp.set_fuel(1_000_000);
        let v = interp.run(src, &mut fml::NoHost).unwrap();
        assert!(matches!(v, Value::Int(_)));
        used.push(interp.fuel_used());
    }
    let (vm_used, tw_used) = (used[0], used[1]);
    assert!(vm_used > 0 && tw_used > 0);
    let ratio = vm_used as f64 / tw_used as f64;
    assert!(
        (1.0 / 3.0..=3.0).contains(&ratio),
        "fuel accounting diverged: vm={vm_used} tw={tw_used} ratio={ratio:.2}"
    );
    // And both trap when given half their own measured budget.
    for (mode, budget) in [
        (ExecMode::Vm, vm_used / 2),
        (ExecMode::TreeWalk, tw_used / 2),
    ] {
        let mut interp = Interp::with_mode(mode);
        interp.set_fuel(budget);
        assert_eq!(
            interp.run(src, &mut fml::NoHost).unwrap_err(),
            FmlError::FuelExhausted,
            "{mode:?}"
        );
    }
}
