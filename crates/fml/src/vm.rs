//! The bytecode virtual machine.
//!
//! A CEK-style machine: flat code, an operand stack, explicit call
//! frames on the heap (no Rust recursion for user-procedure calls —
//! only higher-order builtins like `map` re-enter the loop). Each
//! instruction dispatch charges one unit of fuel; builtin invocations
//! additionally charge the [`crate::cost`] table, exactly like the
//! tree-walking oracle, so both modes trap runaway scripts at
//! comparable budgets.
//!
//! Captured variables live in shared cells (`Arc<Mutex<Option<Value>>>`);
//! everything else sits in plain per-frame slots — the fast path a
//! trigger script takes is constant-pool loads, slot reads and builtin
//! calls with zero environment-chain walking and zero `HashMap`
//! lookups.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::builtins::{self, Applier};
use crate::compile::{FastOp, Instr, Proto};
use crate::cost;
use crate::error::{FmlError, FmlResult};
use crate::interp::Host;
use crate::value::Value;

/// A shared mutable binding cell; `None` means declared but not yet
/// defined (reading it is an unbound-symbol error).
type CellRef = Arc<Mutex<Option<Value>>>;

fn new_cell(v: Option<Value>) -> CellRef {
    Arc::new(Mutex::new(v))
}

/// A compiled procedure bound to its captured environment: the VM
/// counterpart of [`Value::Lambda`]. Displays as
/// `#<procedure name/arity>`, identically to a lambda, so printed
/// transcripts agree across execution modes.
#[derive(Debug)]
pub struct Closure {
    pub(crate) proto: Arc<Proto>,
    pub(crate) upvals: Vec<CellRef>,
    pub(crate) name: Option<String>,
}

impl Closure {
    /// The procedure's name, if `define` gave it one.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Number of parameters the procedure takes.
    pub fn arity(&self) -> usize {
        self.proto.arity
    }
}

/// The VM's global store: an interner mapping names to dense `u32`
/// indices (resolved at compile time) plus a slot vector. `None`
/// slots are interned-but-undefined names.
#[derive(Debug)]
pub(crate) struct Globals {
    index: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
    slots: Vec<Option<Value>>,
}

impl Globals {
    /// A fresh store with every builtin pre-defined.
    pub(crate) fn new() -> Globals {
        let mut g = Globals {
            index: HashMap::new(),
            names: Vec::new(),
            slots: Vec::new(),
        };
        for name in builtins::NAMES {
            let i = g.intern(name);
            g.slots[i as usize] = Some(Value::Builtin(name));
        }
        g
    }

    /// Returns the slot index for `name`, creating an undefined slot
    /// on first reference.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let interned: Arc<str> = Arc::from(name);
        let i = self.slots.len() as u32;
        self.index.insert(interned.clone(), i);
        self.names.push(interned);
        self.slots.push(None);
        i
    }

    pub(crate) fn get_by_name(&self, name: &str) -> Option<&Value> {
        let i = *self.index.get(name)?;
        self.slots[i as usize].as_ref()
    }

    pub(crate) fn define_by_name(&mut self, name: &str, value: Value) {
        let i = self.intern(name);
        self.slots[i as usize] = Some(value);
    }
}

/// One local slot of a call frame.
#[derive(Debug)]
enum Slot {
    /// Declared (a `define` exists somewhere in the function) but not
    /// yet assigned on this path.
    Undef,
    /// An uncaptured binding: plain value, no sharing.
    Plain(Value),
    /// A captured binding: shared cell.
    Cell(CellRef),
}

struct Frame {
    closure: Arc<Closure>,
    ip: usize,
    slots: Vec<Slot>,
    /// Operand-stack height at frame entry; `Return` truncates back
    /// to it before pushing the result.
    stack_start: usize,
}

/// The running machine. Borrows the interpreter's persistent state
/// (globals, fuel, print output); its stack and frames live only for
/// one `run`/`call`.
pub(crate) struct Machine<'a> {
    globals: &'a mut Globals,
    fuel: &'a mut u64,
    output: &'a mut Vec<String>,
    stack: Vec<Value>,
    frames: Vec<Frame>,
    /// Retired frames donate their slot vectors here so hot call
    /// loops (trigger procedures, `map` over closures) reuse the
    /// allocation instead of growing a fresh `Vec` per call.
    slot_pool: Vec<Vec<Slot>>,
}

impl<'a> Machine<'a> {
    pub(crate) fn new(
        globals: &'a mut Globals,
        fuel: &'a mut u64,
        output: &'a mut Vec<String>,
    ) -> Machine<'a> {
        Machine {
            globals,
            fuel,
            output,
            stack: Vec::new(),
            frames: Vec::new(),
            slot_pool: Vec::new(),
        }
    }

    /// Runs a compiled top-level script and returns its last value.
    pub(crate) fn run_proto(&mut self, proto: Arc<Proto>, host: &mut dyn Host) -> FmlResult<Value> {
        let script = Arc::new(Closure {
            proto,
            upvals: Vec::new(),
            name: None,
        });
        let floor = self.frames.len();
        self.push_frame(script, Vec::new())?;
        self.execute(floor, host)?;
        Ok(self.stack.pop().unwrap_or_else(Value::nil))
    }

    fn charge(&mut self, n: u64) -> FmlResult<()> {
        if *self.fuel < n {
            *self.fuel = 0;
            return Err(FmlError::FuelExhausted);
        }
        *self.fuel -= n;
        Ok(())
    }

    fn push_frame(&mut self, closure: Arc<Closure>, args: Vec<Value>) -> FmlResult<()> {
        let proto = &closure.proto;
        if args.len() != proto.arity {
            return Err(FmlError::ArityMismatch {
                callee: closure.name.clone().unwrap_or_else(|| "lambda".to_owned()),
                expected: proto.arity.to_string(),
                found: args.len(),
            });
        }
        let mut slots: Vec<Slot> = self.slot_pool.pop().unwrap_or_default();
        slots.reserve(proto.nlocals);
        for (i, arg) in args.into_iter().enumerate() {
            if proto.param_cells[i] {
                slots.push(Slot::Cell(new_cell(Some(arg))));
            } else {
                slots.push(Slot::Plain(arg));
            }
        }
        slots.resize_with(proto.nlocals, || Slot::Undef);
        for &s in &proto.entry_cells {
            slots[s as usize] = Slot::Cell(new_cell(None));
        }
        self.frames.push(Frame {
            stack_start: self.stack.len(),
            closure,
            ip: 0,
            slots,
        });
        Ok(())
    }

    /// The dispatch loop: runs until the frame stack drains back to
    /// `floor` (either the whole program, or one nested application
    /// started by a higher-order builtin).
    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, floor: usize, host: &mut dyn Host) -> FmlResult<()> {
        while self.frames.len() > floor {
            if *self.fuel == 0 {
                return Err(FmlError::FuelExhausted);
            }
            *self.fuel -= 1;
            let frame = self.frames.last_mut().expect("frame above floor");
            let instr = frame.closure.proto.code[frame.ip];
            frame.ip += 1;
            match instr {
                Instr::Const(i) => {
                    let v = frame.closure.proto.consts[i as usize].clone();
                    self.stack.push(v);
                }
                Instr::Nil => self.stack.push(Value::nil()),
                Instr::Pop => {
                    self.stack.pop();
                }
                Instr::LoadLocal(s) | Instr::LoadCell(s) => {
                    let v = match &frame.slots[s as usize] {
                        Slot::Plain(v) => v.clone(),
                        Slot::Cell(c) => {
                            let content = c.lock().expect("cell lock").clone();
                            match content {
                                Some(v) => v,
                                None => return Err(unbound_slot(frame, s)),
                            }
                        }
                        Slot::Undef => return Err(unbound_slot(frame, s)),
                    };
                    self.stack.push(v);
                }
                Instr::StoreLocal(s) | Instr::StoreCell(s) => {
                    let v = self.stack.last().expect("store operand").clone();
                    // `set!` on a declared-but-never-assigned binding
                    // is an unbound error: the name does not exist yet.
                    let assigned = match &mut frame.slots[s as usize] {
                        Slot::Plain(p) => {
                            *p = v;
                            true
                        }
                        Slot::Cell(c) => {
                            let mut content = c.lock().expect("cell lock");
                            let exists = content.is_some();
                            if exists {
                                *content = Some(v);
                            }
                            exists
                        }
                        Slot::Undef => false,
                    };
                    if !assigned {
                        return Err(unbound_slot(frame, s));
                    }
                }
                Instr::BindLocal(s) => {
                    let v = self.stack.pop().expect("bind operand");
                    frame.slots[s as usize] = Slot::Plain(v);
                }
                Instr::BindCell(s) => {
                    let v = self.stack.pop().expect("bind operand");
                    match &mut frame.slots[s as usize] {
                        Slot::Cell(c) => *c.lock().expect("cell lock") = Some(v),
                        other => *other = Slot::Cell(new_cell(Some(v))),
                    }
                }
                Instr::LoadUpval(u) => {
                    let content = frame.closure.upvals[u as usize]
                        .lock()
                        .expect("cell lock")
                        .clone();
                    match content {
                        Some(v) => self.stack.push(v),
                        None => return Err(unbound_upval(frame, u)),
                    }
                }
                Instr::StoreUpval(u) => {
                    let v = self.stack.last().expect("store operand").clone();
                    let cell = &frame.closure.upvals[u as usize];
                    let mut content = cell.lock().expect("cell lock");
                    if content.is_none() {
                        drop(content);
                        return Err(unbound_upval(frame, u));
                    }
                    *content = Some(v);
                }
                Instr::LoadGlobal(g) => match &self.globals.slots[g as usize] {
                    Some(v) => {
                        let v = v.clone();
                        self.stack.push(v);
                    }
                    None => {
                        return Err(FmlError::Unbound(
                            self.globals.names[g as usize].to_string(),
                        ))
                    }
                },
                Instr::StoreGlobal(g) => {
                    let slot = &mut self.globals.slots[g as usize];
                    if slot.is_none() {
                        return Err(FmlError::Unbound(
                            self.globals.names[g as usize].to_string(),
                        ));
                    }
                    *slot = Some(self.stack.last().expect("store operand").clone());
                }
                Instr::DefineGlobal(g) => {
                    let v = self.stack.pop().expect("define operand");
                    self.globals.slots[g as usize] = Some(v);
                }
                Instr::FreshCells(id) => {
                    let proto = frame.closure.proto.clone();
                    for &s in &proto.fresh_cells[id as usize] {
                        frame.slots[s as usize] = Slot::Cell(new_cell(None));
                    }
                }
                Instr::Jump(t) => frame.ip = t as usize,
                Instr::JumpIfFalse(t) => {
                    let v = self.stack.pop().expect("condition");
                    if !v.truthy() {
                        frame.ip = t as usize;
                    }
                }
                Instr::JumpIfTruePeek(t) => {
                    if self.stack.last().expect("operand").truthy() {
                        frame.ip = t as usize;
                    } else {
                        self.stack.pop();
                    }
                }
                Instr::JumpIfFalsePeek(t) => {
                    if self.stack.last().expect("operand").truthy() {
                        self.stack.pop();
                    } else {
                        frame.ip = t as usize;
                    }
                }
                Instr::Call(n) => {
                    let at = self.stack.len() - n as usize;
                    let args = self.stack.split_off(at);
                    let callee = self.stack.pop().expect("callee");
                    match callee {
                        Value::Closure(c) => self.push_frame(c, args)?,
                        Value::Builtin(name) => {
                            self.charge(cost::builtin_cost(name, &args))?;
                            let v = builtins::call_builtin(self, name, args, host)?;
                            self.stack.push(v);
                        }
                        other => return Err(FmlError::NotCallable(other.to_string())),
                    }
                }
                Instr::Builtin2(op, g) => {
                    let b = self.stack.pop().expect("rhs operand");
                    let a = self.stack.pop().expect("lhs operand");
                    let guard_ok = matches!(
                        &self.globals.slots[g as usize],
                        Some(Value::Builtin(n)) if *n == op.name()
                    );
                    if guard_ok {
                        match (&a, &b) {
                            (Value::Int(x), Value::Int(y)) => {
                                let (x, y) = (*x, *y);
                                self.charge(1)?;
                                let v = match op {
                                    FastOp::Add => Value::Int(x.wrapping_add(y)),
                                    FastOp::Sub => Value::Int(x.wrapping_sub(y)),
                                    FastOp::Mul => Value::Int(x.wrapping_mul(y)),
                                    FastOp::Div => {
                                        if y == 0 {
                                            return Err(FmlError::DivisionByZero);
                                        }
                                        Value::Int(x.wrapping_div(y))
                                    }
                                    FastOp::Mod => {
                                        if y == 0 {
                                            return Err(FmlError::DivisionByZero);
                                        }
                                        Value::Int(x.wrapping_rem_euclid(y))
                                    }
                                    FastOp::Lt => Value::Bool(x < y),
                                    FastOp::Le => Value::Bool(x <= y),
                                    FastOp::Gt => Value::Bool(x > y),
                                    FastOp::Ge => Value::Bool(x >= y),
                                    FastOp::NumEq => Value::Bool(x == y),
                                };
                                self.stack.push(v);
                            }
                            // `=` compares any two values.
                            _ if op == FastOp::NumEq => {
                                self.charge(1)?;
                                self.stack.push(Value::Bool(a.equals(&b)));
                            }
                            // Non-int operands: the ordinary builtin
                            // carries string comparison and the exact
                            // error wording, so delegate.
                            _ => {
                                let args = vec![a, b];
                                self.charge(cost::builtin_cost(op.name(), &args))?;
                                let v = builtins::call_builtin(self, op.name(), args, host)?;
                                self.stack.push(v);
                            }
                        }
                    } else {
                        // The operator was shadowed by a user
                        // definition after compilation: behave exactly
                        // like a general call through the slot.
                        let callee = match &self.globals.slots[g as usize] {
                            Some(v) => v.clone(),
                            None => {
                                return Err(FmlError::Unbound(
                                    self.globals.names[g as usize].to_string(),
                                ))
                            }
                        };
                        match callee {
                            Value::Closure(c) => self.push_frame(c, vec![a, b])?,
                            Value::Builtin(name) => {
                                let args = vec![a, b];
                                self.charge(cost::builtin_cost(name, &args))?;
                                let v = builtins::call_builtin(self, name, args, host)?;
                                self.stack.push(v);
                            }
                            other => return Err(FmlError::NotCallable(other.to_string())),
                        }
                    }
                }
                Instr::Return => {
                    let result = self.stack.pop().unwrap_or_else(Value::nil);
                    let mut done = self.frames.pop().expect("returning frame");
                    self.stack.truncate(done.stack_start);
                    self.stack.push(result);
                    done.slots.clear();
                    self.slot_pool.push(done.slots);
                }
                Instr::MakeClosure(p) => {
                    let proto = frame.closure.proto.protos[p as usize].clone();
                    let mut upvals = Vec::with_capacity(proto.upvals.len());
                    for desc in &proto.upvals {
                        let cell = if desc.from_parent_local {
                            match &frame.slots[desc.index as usize] {
                                Slot::Cell(c) => c.clone(),
                                // The rewrite pass guarantees captured
                                // slots hold cells by the time any
                                // closure over them is built.
                                _ => new_cell(None),
                            }
                        } else {
                            frame.closure.upvals[desc.index as usize].clone()
                        };
                        upvals.push(cell);
                    }
                    self.stack.push(Value::Closure(Arc::new(Closure {
                        proto,
                        upvals,
                        name: None,
                    })));
                }
                Instr::NameClosure(i) => {
                    let rename = matches!(
                        self.stack.last(),
                        Some(Value::Closure(c)) if c.name.is_none()
                    );
                    if rename {
                        let Some(Value::Closure(c)) = self.stack.pop() else {
                            unreachable!("checked above");
                        };
                        let Value::Str(name) = &frame.closure.proto.consts[i as usize] else {
                            unreachable!("NameClosure constant is a string");
                        };
                        self.stack.push(Value::Closure(Arc::new(Closure {
                            proto: c.proto.clone(),
                            upvals: c.upvals.clone(),
                            name: Some(name.clone()),
                        })));
                    }
                }
                Instr::Fail(e) => {
                    return Err(frame.closure.proto.errors[e as usize].clone());
                }
            }
        }
        Ok(())
    }
}

fn unbound_slot(frame: &Frame, s: u32) -> FmlError {
    FmlError::Unbound(frame.closure.proto.local_names[s as usize].clone())
}

fn unbound_upval(frame: &Frame, u: u32) -> FmlError {
    FmlError::Unbound(frame.closure.proto.upvals[u as usize].name.clone())
}

impl Applier for Machine<'_> {
    fn apply_value(
        &mut self,
        callee: &Value,
        args: Vec<Value>,
        host: &mut dyn Host,
    ) -> FmlResult<Value> {
        match callee {
            Value::Builtin(name) => {
                self.charge(cost::builtin_cost(name, &args))?;
                builtins::call_builtin(self, name, args, host)
            }
            Value::Closure(c) => {
                let floor = self.frames.len();
                self.push_frame(c.clone(), args)?;
                self.execute(floor, host)?;
                Ok(self.stack.pop().unwrap_or_else(Value::nil))
            }
            other => Err(FmlError::NotCallable(other.to_string())),
        }
    }

    fn output_mut(&mut self) -> &mut Vec<String> {
        self.output
    }
}
