//! The builtin procedures, shared by both execution modes.
//!
//! The bytecode VM and the tree-walking oracle dispatch into the same
//! `call_builtin` below, so every builtin behaves bit-identically in
//! both modes by construction — the differential oracle then only has
//! to prove the *control* semantics (closures, scoping, special
//! forms) equivalent, not thirty-odd library functions twice.

use crate::error::{FmlError, FmlResult};
use crate::interp::Host;
use crate::value::Value;

/// Names bound to [`Value::Builtin`] in a fresh global environment.
pub(crate) const NAMES: &[&str] = &[
    "+",
    "-",
    "*",
    "/",
    "mod",
    "<",
    ">",
    "<=",
    ">=",
    "=",
    "!=",
    "not",
    "min",
    "max",
    "abs",
    "list",
    "first",
    "rest",
    "cons",
    "nth",
    "length",
    "append",
    "null?",
    "number?",
    "string?",
    "list?",
    "symbol?",
    "print",
    "string-append",
    "to-string",
    "error",
    "assert",
    "host-call",
    "apply",
    "map",
    "filter",
    "reduce",
    "range",
];

/// What a builtin needs from the engine running it: a way to apply
/// user procedures (for the higher-order builtins) and the captured
/// `print` output. Implemented by the tree-walker and the VM.
pub(crate) trait Applier {
    /// Applies a callable value to already-evaluated arguments.
    fn apply_value(
        &mut self,
        callee: &Value,
        args: Vec<Value>,
        host: &mut dyn Host,
    ) -> FmlResult<Value>;

    /// The interpreter's captured `print` output.
    fn output_mut(&mut self) -> &mut Vec<String>;
}

pub(crate) fn arity(callee: &str, expected: &str, found: usize) -> FmlError {
    FmlError::ArityMismatch {
        callee: callee.to_owned(),
        expected: expected.to_owned(),
        found,
    }
}

/// Executes the builtin `name`. The caller has already charged the
/// [`crate::cost`] table for it.
pub(crate) fn call_builtin<A: Applier + ?Sized>(
    ap: &mut A,
    name: &str,
    args: Vec<Value>,
    host: &mut dyn Host,
) -> FmlResult<Value> {
    match name {
        "+" | "-" | "*" | "/" | "mod" | "min" | "max" => numeric(name, args),
        "<" | ">" | "<=" | ">=" => comparison(name, args),
        "=" => match args.as_slice() {
            [a, b] => Ok(Value::Bool(a.equals(b))),
            _ => Err(arity("=", "2", args.len())),
        },
        "!=" => match args.as_slice() {
            [a, b] => Ok(Value::Bool(!a.equals(b))),
            _ => Err(arity("!=", "2", args.len())),
        },
        "not" => match args.as_slice() {
            [a] => Ok(Value::Bool(!a.truthy())),
            _ => Err(arity("not", "1", args.len())),
        },
        "abs" => match args.as_slice() {
            [Value::Int(i)] => Ok(Value::Int(i.abs())),
            [other] => Err(FmlError::TypeError {
                expected: "int",
                found: other.to_string(),
            }),
            _ => Err(arity("abs", "1", args.len())),
        },
        "list" => Ok(Value::List(args)),
        "first" => match args.as_slice() {
            [Value::List(l)] => Ok(l.first().cloned().unwrap_or_else(Value::nil)),
            [other] => Err(FmlError::TypeError {
                expected: "list",
                found: other.to_string(),
            }),
            _ => Err(arity("first", "1", args.len())),
        },
        "rest" => match args.as_slice() {
            [Value::List(l)] => Ok(Value::List(l.iter().skip(1).cloned().collect())),
            [other] => Err(FmlError::TypeError {
                expected: "list",
                found: other.to_string(),
            }),
            _ => Err(arity("rest", "1", args.len())),
        },
        "cons" => match args.as_slice() {
            [head, Value::List(tail)] => {
                let mut l = Vec::with_capacity(tail.len() + 1);
                l.push(head.clone());
                l.extend(tail.iter().cloned());
                Ok(Value::List(l))
            }
            [_, other] => Err(FmlError::TypeError {
                expected: "list",
                found: other.to_string(),
            }),
            _ => Err(arity("cons", "2", args.len())),
        },
        "nth" => match args.as_slice() {
            [Value::Int(i), Value::List(l)] => {
                Ok(l.get(*i as usize).cloned().unwrap_or_else(Value::nil))
            }
            _ => Err(arity("nth", "an index and a list", args.len())),
        },
        "length" => match args.as_slice() {
            [Value::List(l)] => Ok(Value::Int(l.len() as i64)),
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [other] => Err(FmlError::TypeError {
                expected: "list or string",
                found: other.to_string(),
            }),
            _ => Err(arity("length", "1", args.len())),
        },
        "append" => {
            let mut out = Vec::new();
            for a in &args {
                match a {
                    Value::List(l) => out.extend(l.iter().cloned()),
                    other => {
                        return Err(FmlError::TypeError {
                            expected: "list",
                            found: other.to_string(),
                        })
                    }
                }
            }
            Ok(Value::List(out))
        }
        "null?" => match args.as_slice() {
            [Value::List(l)] => Ok(Value::Bool(l.is_empty())),
            [_] => Ok(Value::Bool(false)),
            _ => Err(arity("null?", "1", args.len())),
        },
        "number?" => Ok(Value::Bool(matches!(args.as_slice(), [Value::Int(_)]))),
        "string?" => Ok(Value::Bool(matches!(args.as_slice(), [Value::Str(_)]))),
        "list?" => Ok(Value::Bool(matches!(args.as_slice(), [Value::List(_)]))),
        "symbol?" => Ok(Value::Bool(matches!(args.as_slice(), [Value::Sym(_)]))),
        "print" => {
            let line = args
                .iter()
                .map(|a| match a {
                    Value::Str(s) => s.clone(),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ");
            ap.output_mut().push(line);
            Ok(Value::nil())
        }
        "string-append" => {
            let mut out = String::new();
            for a in &args {
                match a {
                    Value::Str(s) => out.push_str(s),
                    other => out.push_str(&other.to_string()),
                }
            }
            Ok(Value::Str(out))
        }
        "to-string" => match args.as_slice() {
            [Value::Str(s)] => Ok(Value::Str(s.clone())),
            [other] => Ok(Value::Str(other.to_string())),
            _ => Err(arity("to-string", "1", args.len())),
        },
        "error" => match args.as_slice() {
            [Value::Str(msg)] => Err(FmlError::UserError(msg.clone())),
            [other] => Err(FmlError::UserError(other.to_string())),
            _ => Err(arity("error", "1", args.len())),
        },
        "assert" => match args.as_slice() {
            [cond] => {
                if cond.truthy() {
                    Ok(Value::Bool(true))
                } else {
                    Err(FmlError::AssertionFailed(cond.to_string()))
                }
            }
            [cond, Value::Str(msg)] => {
                if cond.truthy() {
                    Ok(Value::Bool(true))
                } else {
                    Err(FmlError::AssertionFailed(msg.clone()))
                }
            }
            _ => Err(arity("assert", "1 or 2", args.len())),
        },
        "host-call" => match args.split_first() {
            Some((Value::Str(fn_name), rest)) => host.host_call(fn_name, rest),
            Some((other, _)) => Err(FmlError::TypeError {
                expected: "string",
                found: other.to_string(),
            }),
            None => Err(arity("host-call", "at least 1", 0)),
        },
        "apply" => match args.split_first() {
            Some((callee, [Value::List(list_args)])) => {
                ap.apply_value(callee, list_args.clone(), host)
            }
            _ => Err(arity(
                "apply",
                "a procedure and an argument list",
                args.len(),
            )),
        },
        "map" => match args.as_slice() {
            [callee, Value::List(items)] => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(ap.apply_value(callee, vec![item.clone()], host)?);
                }
                Ok(Value::List(out))
            }
            _ => Err(arity("map", "a procedure and a list", args.len())),
        },
        "filter" => match args.as_slice() {
            [callee, Value::List(items)] => {
                let mut out = Vec::new();
                for item in items {
                    if ap.apply_value(callee, vec![item.clone()], host)?.truthy() {
                        out.push(item.clone());
                    }
                }
                Ok(Value::List(out))
            }
            _ => Err(arity("filter", "a procedure and a list", args.len())),
        },
        "reduce" => match args.as_slice() {
            [callee, init, Value::List(items)] => {
                let mut acc = init.clone();
                for item in items {
                    acc = ap.apply_value(callee, vec![acc, item.clone()], host)?;
                }
                Ok(acc)
            }
            _ => Err(arity(
                "reduce",
                "a procedure, an initial value and a list",
                args.len(),
            )),
        },
        "range" => match args.as_slice() {
            [Value::Int(n)] => Ok(Value::List((0..*n.max(&0)).map(Value::Int).collect())),
            [Value::Int(a), Value::Int(b)] => Ok(Value::List((*a..*b).map(Value::Int).collect())),
            _ => Err(arity("range", "1 or 2 integers", args.len())),
        },
        other => Err(FmlError::Unbound(other.to_owned())),
    }
}

fn numeric(op: &str, args: Vec<Value>) -> FmlResult<Value> {
    let mut nums = Vec::with_capacity(args.len());
    for a in &args {
        match a {
            Value::Int(i) => nums.push(*i),
            other => {
                return Err(FmlError::TypeError {
                    expected: "int",
                    found: other.to_string(),
                })
            }
        }
    }
    if nums.is_empty() {
        return Err(arity(op, "at least 1", 0));
    }
    let first = nums[0];
    let rest = &nums[1..];
    let result = match op {
        "+" => nums.iter().fold(0i64, |a, b| a.wrapping_add(*b)),
        "*" => nums.iter().fold(1i64, |a, b| a.wrapping_mul(*b)),
        "-" => {
            if rest.is_empty() {
                first.wrapping_neg()
            } else {
                rest.iter().fold(first, |a, b| a.wrapping_sub(*b))
            }
        }
        "/" => {
            let mut acc = first;
            for b in rest {
                if *b == 0 {
                    return Err(FmlError::DivisionByZero);
                }
                acc = acc.wrapping_div(*b);
            }
            acc
        }
        "mod" => {
            if rest.len() != 1 {
                return Err(arity("mod", "2", nums.len()));
            }
            if rest[0] == 0 {
                return Err(FmlError::DivisionByZero);
            }
            first.wrapping_rem_euclid(rest[0])
        }
        "min" => nums.iter().copied().min().expect("non-empty"),
        "max" => nums.iter().copied().max().expect("non-empty"),
        _ => unreachable!("numeric dispatch covers all operators"),
    };
    Ok(Value::Int(result))
}

fn comparison(op: &str, args: Vec<Value>) -> FmlResult<Value> {
    match args.as_slice() {
        [Value::Int(a), Value::Int(b)] => Ok(Value::Bool(match op {
            "<" => a < b,
            ">" => a > b,
            "<=" => a <= b,
            ">=" => a >= b,
            _ => unreachable!("comparison dispatch covers all operators"),
        })),
        [Value::Str(a), Value::Str(b)] => Ok(Value::Bool(match op {
            "<" => a < b,
            ">" => a > b,
            "<=" => a <= b,
            ">=" => a >= b,
            _ => unreachable!("comparison dispatch covers all operators"),
        })),
        [a, b] => Err(FmlError::TypeError {
            expected: "two ints or two strings",
            found: format!("{a} and {b}"),
        }),
        _ => Err(arity(op, "2", args.len())),
    }
}
