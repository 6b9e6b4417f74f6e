//! Compiler: expression trees to flat bytecode.
//!
//! The compiler lowers the homoiconic syntax tree to a [`Proto`] — a
//! flat instruction array with a constant pool, slot-numbered locals
//! resolved at compile time, explicit jump targets for `while`/`cond`
//! and nested protos for `lambda`/`define` bodies. The design follows
//! the tree-walking oracle's semantics instruction by instruction:
//!
//! * **Errors are deferred, never thrown at compile time.** The
//!   tree-walker has no compile phase, so a malformed form (bad `cond`
//!   clause, non-symbol `lambda` parameter) only errors when evaluation
//!   *reaches* it. The compiler therefore never fails: it emits a
//!   [`Instr::Fail`] carrying the exact [`FmlError`] at the position
//!   where the tree-walker would raise it.
//! * **Captured locals live in cells.** Capture analysis runs while
//!   compiling nested lambdas; a final rewrite pass converts accesses
//!   to captured slots into cell operations. `let` scopes refresh the
//!   cells of their captured slots on every entry
//!   ([`Instr::FreshCells`]), reproducing the tree-walker's
//!   fresh-frame-per-iteration capture semantics.
//! * **`let` is parallel.** All initialisers compile before any
//!   binding, and they resolve names in the enclosing scope, exactly
//!   like the tree-walker which evaluates initialisers in the outer
//!   environment.
//!
//! One documented deviation: a *textual* use-before-define resolves
//! statically (to an outer binding or a global) instead of dynamically
//! probing the frame at each read. Scripts that define names before
//! using them — every reasonable script — behave identically.

use std::sync::Arc;

use crate::builtins;
use crate::error::{FmlError, FmlResult};
use crate::value::Value;

/// One bytecode instruction. Operands index the current proto's
/// constant pool, local slots, upvalues, global slots or code offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Instr {
    /// Push `consts[i]`.
    Const(u32),
    /// Push nil.
    Nil,
    /// Discard the top of stack.
    Pop,
    /// Push the value of plain local slot `i`.
    LoadLocal(u32),
    /// Peek the top of stack into plain local slot `i` (for `set!`,
    /// which yields the assigned value).
    StoreLocal(u32),
    /// Pop the top of stack into plain local slot `i`.
    BindLocal(u32),
    /// Push the content of the cell in slot `i`.
    LoadCell(u32),
    /// Peek the top of stack into the cell in slot `i`.
    StoreCell(u32),
    /// Pop the top of stack into the cell in slot `i`.
    BindCell(u32),
    /// Push the content of upvalue `i` of the running closure.
    LoadUpval(u32),
    /// Peek the top of stack into upvalue `i`.
    StoreUpval(u32),
    /// Push the value of global slot `i`; unbound if undefined.
    LoadGlobal(u32),
    /// Peek the top of stack into global slot `i`; unbound if the slot
    /// was never defined (matching `set!` on a missing global).
    StoreGlobal(u32),
    /// Pop the top of stack and (re)define global slot `i`.
    DefineGlobal(u32),
    /// Install fresh empty cells for the captured slots listed in
    /// `fresh_cells[i]` — executed on each entry to a `let` scope.
    FreshCells(u32),
    /// Unconditional jump to code offset `i`.
    Jump(u32),
    /// Pop the condition; jump to `i` if it is falsy.
    JumpIfFalse(u32),
    /// If the top of stack is truthy jump to `i` keeping it, else pop
    /// it and fall through (the `or` combinator).
    JumpIfTruePeek(u32),
    /// If the top of stack is falsy jump to `i` keeping it, else pop
    /// it and fall through (the `and` combinator).
    JumpIfFalsePeek(u32),
    /// Call with `n` arguments: stack holds `callee, a1 … an`.
    Call(u32),
    /// Two-argument application of a numeric/comparison builtin whose
    /// name resolved to global slot `i` at compile time. The machine
    /// re-checks the slot still holds that builtin (the name is an
    /// ordinary shadowable global) and falls back to a general
    /// application when it does not. Stack holds `a b` — no callee.
    Builtin2(FastOp, u32),
    /// Return the top of stack from the current frame.
    Return,
    /// Instantiate `protos[i]`, capturing its upvalues from the
    /// current frame, and push the closure.
    MakeClosure(u32),
    /// If the top of stack is an anonymous closure, give it the name
    /// in `consts[i]` (how `define` names a plain lambda).
    NameClosure(u32),
    /// Raise `errors[i]` — a malformed form reached at runtime.
    Fail(u32),
}

/// The binary builtins [`Instr::Builtin2`] specialises: the hot
/// arithmetic and comparison operators of trigger scripts. Anything
/// beyond two int operands delegates to the ordinary builtin table,
/// so semantics (wrapping, euclidean `mod`, string comparison, error
/// wording) stay defined in exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FastOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `mod`
    Mod,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    NumEq,
}

impl FastOp {
    pub(crate) fn from_name(name: &str) -> Option<FastOp> {
        Some(match name {
            "+" => FastOp::Add,
            "-" => FastOp::Sub,
            "*" => FastOp::Mul,
            "/" => FastOp::Div,
            "mod" => FastOp::Mod,
            "<" => FastOp::Lt,
            "<=" => FastOp::Le,
            ">" => FastOp::Gt,
            ">=" => FastOp::Ge,
            "=" => FastOp::NumEq,
            _ => return None,
        })
    }

    /// The builtin name this op specialises (also the guard the
    /// machine checks against the global slot).
    pub(crate) fn name(self) -> &'static str {
        match self {
            FastOp::Add => "+",
            FastOp::Sub => "-",
            FastOp::Mul => "*",
            FastOp::Div => "/",
            FastOp::Mod => "mod",
            FastOp::Lt => "<",
            FastOp::Le => "<=",
            FastOp::Gt => ">",
            FastOp::Ge => ">=",
            FastOp::NumEq => "=",
        }
    }
}

/// How a nested proto captures one upvalue when instantiated.
#[derive(Debug, Clone)]
pub(crate) struct UpvalDesc {
    /// `true`: capture the cell in the *parent frame's* local slot
    /// `index`. `false`: share the parent closure's upvalue `index`.
    pub from_parent_local: bool,
    /// Slot or upvalue index in the parent.
    pub index: u32,
    /// Source name of the captured binding, for diagnostics.
    pub name: String,
}

/// A compiled procedure body: the unit of execution. Names live on
/// closures (assigned dynamically by `define`, like the tree-walker),
/// not on protos.
#[derive(Debug)]
pub(crate) struct Proto {
    /// Number of parameters (occupying slots `0..arity`).
    pub arity: usize,
    /// Total local slots, parameters included. Slots are never reused,
    /// so the capture rewrite can key on slot index alone.
    pub nlocals: usize,
    /// The instruction stream.
    pub code: Vec<Instr>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Nested procedure bodies (`lambda` / sugared `define`).
    pub protos: Vec<Arc<Proto>>,
    /// Deferred errors raised by [`Instr::Fail`].
    pub errors: Vec<FmlError>,
    /// Capture plan for instantiating *this* proto as a closure.
    pub upvals: Vec<UpvalDesc>,
    /// `param_cells[i]`: parameter `i` is captured and its slot gets a
    /// cell holding the argument at frame entry.
    pub param_cells: Vec<bool>,
    /// Captured function-scope (non-`let`) slots that get an empty
    /// cell at frame entry, so a closure made before the `define`
    /// executes still captures the right cell (self-recursion).
    pub entry_cells: Vec<u32>,
    /// Per-`let`-scope lists of captured slots refreshed on entry.
    pub fresh_cells: Vec<Vec<u32>>,
    /// Slot names, for `Unbound` diagnostics on empty cells/slots.
    pub local_names: Vec<String>,
}

/// Permanent record of one local slot (survives scope exit so the
/// rewrite pass can key on slot index).
struct SlotInfo {
    name: String,
    captured: bool,
    /// `None`: function base scope (params and body defines).
    /// `Some(id)`: declared inside `let` scope `id` (an index into
    /// `fresh_cells`).
    let_scope: Option<u32>,
}

/// A currently-visible local binding.
struct Local {
    name: String,
    slot: u32,
    depth: u32,
    /// `false` while its initialiser is being compiled: same-function
    /// references then resolve *past* it (the tree-walker evaluates
    /// initialisers before the binding exists), but nested lambdas
    /// still see it (their bodies run after the binding executes).
    ready: bool,
}

/// One function being compiled (the innermost is `fns.last()`).
struct FnCompiler {
    code: Vec<Instr>,
    consts: Vec<Value>,
    protos: Vec<Arc<Proto>>,
    errors: Vec<FmlError>,
    upvals: Vec<UpvalDesc>,
    fresh_cells: Vec<Vec<u32>>,
    slots: Vec<SlotInfo>,
    locals: Vec<Local>,
    scope_depth: u32,
    /// Innermost `let` scope id at each depth > base (parallel stack).
    let_stack: Vec<u32>,
    arity: usize,
    /// The script compiler treats its base scope as the global scope:
    /// base-depth defines become globals, not locals.
    is_script: bool,
}

impl FnCompiler {
    fn new(is_script: bool) -> FnCompiler {
        FnCompiler {
            code: Vec::new(),
            consts: Vec::new(),
            protos: Vec::new(),
            errors: Vec::new(),
            upvals: Vec::new(),
            fresh_cells: Vec::new(),
            slots: Vec::new(),
            locals: Vec::new(),
            scope_depth: 0,
            let_stack: Vec::new(),
            arity: 0,
            is_script,
        }
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn add_const(&mut self, v: Value) -> u32 {
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn add_error(&mut self, e: FmlError) -> u32 {
        self.errors.push(e);
        (self.errors.len() - 1) as u32
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jump(t)
            | Instr::JumpIfFalse(t)
            | Instr::JumpIfTruePeek(t)
            | Instr::JumpIfFalsePeek(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Declares a local in the current scope, reusing the slot when
    /// the name is already bound at this exact depth (a redefinition,
    /// which the tree-walker overwrites in place).
    fn declare_local(&mut self, name: &str) -> (u32, bool) {
        for l in self.locals.iter().rev() {
            if l.depth < self.scope_depth {
                break;
            }
            if l.name == name {
                return (l.slot, true);
            }
        }
        let slot = self.slots.len() as u32;
        self.slots.push(SlotInfo {
            name: name.to_owned(),
            captured: false,
            let_scope: self.let_stack.last().copied(),
        });
        self.locals.push(Local {
            name: name.to_owned(),
            slot,
            depth: self.scope_depth,
            ready: false,
        });
        (slot, false)
    }

    fn set_ready(&mut self, slot: u32) {
        if let Some(l) = self.locals.iter_mut().rev().find(|l| l.slot == slot) {
            l.ready = true;
        }
    }

    /// Resolves `name` among visible locals. `from_inside` is true
    /// when a nested lambda is resolving: not-yet-ready bindings are
    /// then visible (their initialiser has run by the time the nested
    /// body executes).
    fn resolve_local(&self, name: &str, from_inside: bool) -> Option<u32> {
        self.locals
            .iter()
            .rev()
            .find(|l| l.name == name && (l.ready || from_inside))
            .map(|l| l.slot)
    }

    fn add_upvalue(&mut self, desc: UpvalDesc) -> u32 {
        for (i, u) in self.upvals.iter().enumerate() {
            if u.from_parent_local == desc.from_parent_local && u.index == desc.index {
                return i as u32;
            }
        }
        self.upvals.push(desc);
        (self.upvals.len() - 1) as u32
    }

    /// Converts accesses to captured slots into cell operations and
    /// derives the entry/fresh cell plans. Runs once, when the
    /// function body is fully compiled.
    fn finish(mut self) -> Proto {
        for instr in &mut self.code {
            let rewritten = match *instr {
                Instr::LoadLocal(s) if self.slots[s as usize].captured => Instr::LoadCell(s),
                Instr::StoreLocal(s) if self.slots[s as usize].captured => Instr::StoreCell(s),
                Instr::BindLocal(s) if self.slots[s as usize].captured => Instr::BindCell(s),
                other => other,
            };
            *instr = rewritten;
        }
        let mut param_cells = vec![false; self.arity];
        let mut entry_cells = Vec::new();
        for (i, info) in self.slots.iter().enumerate() {
            if !info.captured {
                continue;
            }
            if i < self.arity {
                param_cells[i] = true;
            } else if info.let_scope.is_none() {
                entry_cells.push(i as u32);
            } else if let Some(id) = info.let_scope {
                self.fresh_cells[id as usize].push(i as u32);
            }
        }
        Proto {
            arity: self.arity,
            nlocals: self.slots.len(),
            code: self.code,
            consts: self.consts,
            protos: self.protos,
            errors: self.errors,
            upvals: self.upvals,
            param_cells,
            entry_cells,
            fresh_cells: self.fresh_cells,
            local_names: self.slots.into_iter().map(|s| s.name).collect(),
        }
    }
}

/// Where a name resolved to.
enum Resolved {
    Local(u32),
    Upvalue(u32),
    Global(u32),
}

/// The compiler proper: a stack of function compilers plus the shared
/// global interner.
pub(crate) struct Compiler<'g> {
    globals: &'g mut crate::vm::Globals,
    fns: Vec<FnCompiler>,
}

impl<'g> Compiler<'g> {
    /// Compiles a top-level program (the body of [`crate::Interp::run`]).
    pub(crate) fn script(
        globals: &'g mut crate::vm::Globals,
        exprs: &[Value],
    ) -> FmlResult<Arc<Proto>> {
        let mut c = Compiler {
            globals,
            fns: vec![FnCompiler::new(true)],
        };
        if exprs.is_empty() {
            c.cur().emit(Instr::Nil);
        } else {
            for (i, e) in exprs.iter().enumerate() {
                if i > 0 {
                    c.cur().emit(Instr::Pop);
                }
                c.expr(e)?;
            }
        }
        c.cur().emit(Instr::Return);
        let f = c.fns.pop().expect("script compiler present");
        Ok(Arc::new(f.finish()))
    }

    fn cur(&mut self) -> &mut FnCompiler {
        self.fns.last_mut().expect("at least one function compiler")
    }

    /// Emits a deferred error and pushes nothing real; `Fail` never
    /// falls through, so the nominal stack slot is irrelevant.
    fn fail(&mut self, e: FmlError) -> FmlResult<()> {
        let idx = self.cur().add_error(e);
        self.cur().emit(Instr::Fail(idx));
        Ok(())
    }

    /// Resolves `name` through the function-compiler stack: innermost
    /// locals, then enclosing functions' locals (capturing them as
    /// upvalues), then the global interner.
    fn resolve(&mut self, name: &str) -> Resolved {
        let top = self.fns.len() - 1;
        if let Some(slot) = self.fns[top].resolve_local(name, false) {
            return Resolved::Local(slot);
        }
        // Walk outward. The script compiler's base-depth names are
        // globals, never locals, so any local found there is a real
        // `let` binding and capturable like the rest.
        for i in (0..top).rev() {
            if let Some(slot) = self.fns[i].resolve_local(name, true) {
                self.fns[i].slots[slot as usize].captured = true;
                // Thread the capture through every intermediate
                // function: fns[i+1] captures the parent local, the
                // rest capture the previous level's upvalue.
                let mut up = self.fns[i + 1].add_upvalue(UpvalDesc {
                    from_parent_local: true,
                    index: slot,
                    name: name.to_owned(),
                });
                for j in (i + 2)..=top {
                    up = self.fns[j].add_upvalue(UpvalDesc {
                        from_parent_local: false,
                        index: up,
                        name: name.to_owned(),
                    });
                }
                return Resolved::Upvalue(up);
            }
        }
        Resolved::Global(self.globals.intern(name))
    }

    fn expr(&mut self, e: &Value) -> FmlResult<()> {
        match e {
            Value::Int(_) | Value::Str(_) | Value::Bool(_) => {
                let idx = self.cur().add_const(e.clone());
                self.cur().emit(Instr::Const(idx));
            }
            Value::Lambda { .. } | Value::Builtin(_) | Value::Closure(_) => {
                // Unreachable from the parser; self-evaluating, like
                // the tree-walker treats them.
                let idx = self.cur().add_const(e.clone());
                self.cur().emit(Instr::Const(idx));
            }
            Value::Sym(name) => match self.resolve(name) {
                Resolved::Local(s) => {
                    self.cur().emit(Instr::LoadLocal(s));
                }
                Resolved::Upvalue(u) => {
                    self.cur().emit(Instr::LoadUpval(u));
                }
                Resolved::Global(g) => {
                    self.cur().emit(Instr::LoadGlobal(g));
                }
            },
            Value::List(items) => return self.list(items),
        }
        Ok(())
    }

    fn list(&mut self, items: &[Value]) -> FmlResult<()> {
        let Some(head) = items.first() else {
            self.cur().emit(Instr::Nil);
            return Ok(());
        };
        if let Value::Sym(form) = head {
            match form.as_str() {
                "quote" => return self.quote(items),
                "if" => return self.if_form(items),
                "define" => return self.define(items),
                "set!" => return self.set(items),
                "lambda" => return self.lambda(items),
                "begin" => return self.sequence(&items[1..]),
                "let" => return self.let_form(items),
                "while" => return self.while_form(items),
                "and" => return self.and_form(items),
                "or" => return self.or_form(items),
                "cond" => return self.cond_form(items),
                _ => {}
            }
            // Two-argument arithmetic/comparison on a name that
            // resolves to a global: the hot path of every trigger
            // script. A lexically shadowed name (local or upvalue)
            // compiles as a general call; re-resolving it below is
            // idempotent (upvalue capture dedupes).
            if items.len() == 3 {
                if let Some(op) = FastOp::from_name(form) {
                    if let Resolved::Global(g) = self.resolve(form) {
                        self.expr(&items[1])?;
                        self.expr(&items[2])?;
                        self.cur().emit(Instr::Builtin2(op, g));
                        return Ok(());
                    }
                }
            }
        }
        self.expr(head)?;
        for arg in &items[1..] {
            self.expr(arg)?;
        }
        self.cur().emit(Instr::Call((items.len() - 1) as u32));
        Ok(())
    }

    fn sequence(&mut self, exprs: &[Value]) -> FmlResult<()> {
        if exprs.is_empty() {
            self.cur().emit(Instr::Nil);
            return Ok(());
        }
        for (i, e) in exprs.iter().enumerate() {
            if i > 0 {
                self.cur().emit(Instr::Pop);
            }
            self.expr(e)?;
        }
        Ok(())
    }

    fn quote(&mut self, items: &[Value]) -> FmlResult<()> {
        match items {
            [_, quoted] => {
                let idx = self.cur().add_const(quoted.clone());
                self.cur().emit(Instr::Const(idx));
                Ok(())
            }
            _ => self.fail(builtins::arity("quote", "1", items.len() - 1)),
        }
    }

    fn if_form(&mut self, items: &[Value]) -> FmlResult<()> {
        match items {
            [_, cond, then_branch] => {
                self.expr(cond)?;
                let jf = self.cur().emit(Instr::JumpIfFalse(0));
                self.expr(then_branch)?;
                let jend = self.cur().emit(Instr::Jump(0));
                let else_at = self.cur().here();
                self.cur().patch(jf, else_at);
                self.cur().emit(Instr::Nil);
                let end = self.cur().here();
                self.cur().patch(jend, end);
                Ok(())
            }
            [_, cond, then_branch, else_branch] => {
                self.expr(cond)?;
                let jf = self.cur().emit(Instr::JumpIfFalse(0));
                self.expr(then_branch)?;
                let jend = self.cur().emit(Instr::Jump(0));
                let else_at = self.cur().here();
                self.cur().patch(jf, else_at);
                self.expr(else_branch)?;
                let end = self.cur().here();
                self.cur().patch(jend, end);
                Ok(())
            }
            _ => self.fail(builtins::arity("if", "2 or 3", items.len() - 1)),
        }
    }

    /// Emits the store for a freshly evaluated definition value (on
    /// top of the stack), then pushes the defined symbol — `define`
    /// evaluates to the name, like the tree-walker.
    fn bind_definition(&mut self, name: &str) {
        let name_idx = self.cur().add_const(Value::Str(name.to_owned()));
        self.cur().emit(Instr::NameClosure(name_idx));
        let at_global_scope = {
            let f = self.cur();
            f.is_script && f.scope_depth == 0
        };
        if at_global_scope {
            let g = self.globals.intern(name);
            self.cur().emit(Instr::DefineGlobal(g));
        } else {
            let (slot, _redefined) = self.cur().declare_local(name);
            self.cur().set_ready(slot);
            self.cur().emit(Instr::BindLocal(slot));
        }
        let sym = self.cur().add_const(Value::Sym(name.to_owned()));
        self.cur().emit(Instr::Const(sym));
    }

    fn define(&mut self, items: &[Value]) -> FmlResult<()> {
        match items {
            // (define x expr)
            [_, Value::Sym(name), expr] => {
                let at_global_scope = {
                    let f = self.cur();
                    f.is_script && f.scope_depth == 0
                };
                if at_global_scope {
                    self.expr(expr)?;
                } else {
                    // Declare first (not ready): same-function
                    // references inside `expr` resolve past it, but a
                    // nested lambda sees the new slot — that's how
                    // `(define f (lambda () (f)))` recurses.
                    let (slot, redefined) = self.cur().declare_local(name);
                    if redefined {
                        // The old value is live during the initialiser.
                        self.cur().set_ready(slot);
                    }
                    self.expr(expr)?;
                }
                self.bind_definition(name);
                Ok(())
            }
            // (define (f a b) body...)
            [_, Value::List(signature), ..] if !signature.is_empty() => {
                let Value::Sym(fname) = &signature[0] else {
                    return self.fail(FmlError::TypeError {
                        expected: "symbol",
                        found: signature[0].to_string(),
                    });
                };
                let mut params = Vec::new();
                for p in &signature[1..] {
                    match p {
                        Value::Sym(s) => params.push(s.clone()),
                        other => {
                            return self.fail(FmlError::TypeError {
                                expected: "symbol",
                                found: other.to_string(),
                            })
                        }
                    }
                }
                let body = &items[2..];
                if body.is_empty() {
                    return self.fail(builtins::arity("define", "a body", 0));
                }
                let at_global_scope = {
                    let f = self.cur();
                    f.is_script && f.scope_depth == 0
                };
                if !at_global_scope {
                    let (slot, _) = self.cur().declare_local(fname);
                    // Visible to the nested body (recursion) but the
                    // closure is built before the bind executes, so
                    // same-scope code after this define sees it too.
                    self.cur().set_ready(slot);
                }
                self.compile_function(&params, body)?;
                self.bind_definition(fname);
                Ok(())
            }
            _ => self.fail(builtins::arity("define", "2", items.len() - 1)),
        }
    }

    fn set(&mut self, items: &[Value]) -> FmlResult<()> {
        match items {
            [_, Value::Sym(name), expr] => {
                self.expr(expr)?;
                match self.resolve(name) {
                    Resolved::Local(s) => {
                        self.cur().emit(Instr::StoreLocal(s));
                    }
                    Resolved::Upvalue(u) => {
                        self.cur().emit(Instr::StoreUpval(u));
                    }
                    Resolved::Global(g) => {
                        self.cur().emit(Instr::StoreGlobal(g));
                    }
                }
                Ok(())
            }
            _ => self.fail(builtins::arity("set!", "2", items.len() - 1)),
        }
    }

    fn lambda(&mut self, items: &[Value]) -> FmlResult<()> {
        match items {
            [_, Value::List(param_list), ..] if items.len() >= 3 => {
                let mut params = Vec::new();
                for p in param_list {
                    match p {
                        Value::Sym(s) => params.push(s.clone()),
                        other => {
                            return self.fail(FmlError::TypeError {
                                expected: "symbol",
                                found: other.to_string(),
                            })
                        }
                    }
                }
                self.compile_function(&params, &items[2..])
            }
            _ => self.fail(builtins::arity(
                "lambda",
                "a parameter list and body",
                items.len() - 1,
            )),
        }
    }

    /// Compiles a function body into a nested proto and emits the
    /// `MakeClosure` that instantiates it.
    fn compile_function(&mut self, params: &[String], body: &[Value]) -> FmlResult<()> {
        let mut f = FnCompiler::new(false);
        f.arity = params.len();
        for p in params {
            let slot = f.slots.len() as u32;
            f.slots.push(SlotInfo {
                name: p.clone(),
                captured: false,
                let_scope: None,
            });
            f.locals.push(Local {
                name: p.clone(),
                slot,
                depth: 0,
                ready: true,
            });
        }
        self.fns.push(f);
        self.sequence(body)?;
        self.cur().emit(Instr::Return);
        let done = self.fns.pop().expect("function compiler present");
        let proto = Arc::new(done.finish());
        let f = self.cur();
        f.protos.push(proto);
        let idx = (f.protos.len() - 1) as u32;
        f.emit(Instr::MakeClosure(idx));
        Ok(())
    }

    fn let_form(&mut self, items: &[Value]) -> FmlResult<()> {
        match items {
            [_, Value::List(bindings), ..] if items.len() >= 3 => {
                // Validate and evaluate every initialiser in the
                // *enclosing* scope first (parallel let). A malformed
                // binding fails exactly after the initialisers before
                // it have run, side effects included.
                let mut names = Vec::new();
                for b in bindings {
                    match b {
                        Value::List(pair) if pair.len() == 2 => {
                            let Value::Sym(name) = &pair[0] else {
                                return self.fail(FmlError::TypeError {
                                    expected: "symbol",
                                    found: pair[0].to_string(),
                                });
                            };
                            self.expr(&pair[1])?;
                            names.push(name.clone());
                        }
                        other => {
                            return self.fail(FmlError::TypeError {
                                expected: "(name value) binding",
                                found: other.to_string(),
                            })
                        }
                    }
                }
                // Open the scope: fresh cells for whatever turns out
                // captured, then bind in reverse pop order.
                let scope_id = {
                    let f = self.cur();
                    f.scope_depth += 1;
                    f.fresh_cells.push(Vec::new());
                    let id = (f.fresh_cells.len() - 1) as u32;
                    f.let_stack.push(id);
                    f.emit(Instr::FreshCells(id));
                    id
                };
                let _ = scope_id;
                let mut slots = Vec::with_capacity(names.len());
                for name in &names {
                    let (slot, _) = self.cur().declare_local(name);
                    self.cur().set_ready(slot);
                    slots.push(slot);
                }
                // A name bound twice shares one slot; the last binding
                // wins (as in the tree-walker), so the first pop binds
                // it and the earlier values are dropped.
                let mut bound = Vec::with_capacity(slots.len());
                for slot in slots.into_iter().rev() {
                    if bound.contains(&slot) {
                        self.cur().emit(Instr::Pop);
                    } else {
                        self.cur().emit(Instr::BindLocal(slot));
                        bound.push(slot);
                    }
                }
                self.sequence(&items[2..])?;
                let f = self.cur();
                f.let_stack.pop();
                let depth = f.scope_depth;
                while f.locals.last().is_some_and(|l| l.depth == depth) {
                    f.locals.pop();
                }
                f.scope_depth -= 1;
                Ok(())
            }
            _ => self.fail(builtins::arity(
                "let",
                "bindings and a body",
                items.len() - 1,
            )),
        }
    }

    fn while_form(&mut self, items: &[Value]) -> FmlResult<()> {
        if items.len() < 2 {
            return self.fail(builtins::arity(
                "while",
                "a condition and body",
                items.len() - 1,
            ));
        }
        // The loop keeps "the last body value" on the stack (nil
        // before the first iteration), exactly the tree-walker result.
        self.cur().emit(Instr::Nil);
        let top = self.cur().here();
        self.expr(&items[1])?;
        let jexit = self.cur().emit(Instr::JumpIfFalse(0));
        self.cur().emit(Instr::Pop);
        self.sequence(&items[2..])?;
        self.cur().emit(Instr::Jump(top));
        let end = self.cur().here();
        self.cur().patch(jexit, end);
        Ok(())
    }

    fn and_form(&mut self, items: &[Value]) -> FmlResult<()> {
        let exprs = &items[1..];
        if exprs.is_empty() {
            let idx = self.cur().add_const(Value::Bool(true));
            self.cur().emit(Instr::Const(idx));
            return Ok(());
        }
        let mut exits = Vec::new();
        for (i, e) in exprs.iter().enumerate() {
            self.expr(e)?;
            if i + 1 < exprs.len() {
                exits.push(self.cur().emit(Instr::JumpIfFalsePeek(0)));
            }
        }
        let end = self.cur().here();
        for at in exits {
            self.cur().patch(at, end);
        }
        Ok(())
    }

    fn or_form(&mut self, items: &[Value]) -> FmlResult<()> {
        // `or` yields the first truthy value, else #f — even a falsy
        // *last* value is discarded, matching the tree-walker.
        let mut exits = Vec::new();
        for e in &items[1..] {
            self.expr(e)?;
            exits.push(self.cur().emit(Instr::JumpIfTruePeek(0)));
        }
        let idx = self.cur().add_const(Value::Bool(false));
        self.cur().emit(Instr::Const(idx));
        let end = self.cur().here();
        for at in exits {
            self.cur().patch(at, end);
        }
        Ok(())
    }

    fn cond_form(&mut self, items: &[Value]) -> FmlResult<()> {
        let mut exits = Vec::new();
        for clause in &items[1..] {
            let Value::List(pair) = clause else {
                // Reached only if no earlier clause matched — the
                // tree-walker checks clause shape lazily.
                let idx = self.cur().add_error(FmlError::TypeError {
                    expected: "cond clause",
                    found: clause.to_string(),
                });
                self.cur().emit(Instr::Fail(idx));
                // Nothing after a Fail in this chain runs, but keep
                // compiling the remaining clauses for their own
                // deferred diagnostics.
                let end = self.cur().here();
                for at in exits {
                    self.cur().patch(at, end);
                }
                return Ok(());
            };
            if pair.is_empty() {
                continue;
            }
            let is_else = matches!(&pair[0], Value::Sym(s) if s == "else");
            if is_else {
                self.sequence(&pair[1..])?;
                let end = self.cur().here();
                for at in exits {
                    self.cur().patch(at, end);
                }
                return Ok(());
            }
            self.expr(&pair[0])?;
            let jnext = self.cur().emit(Instr::JumpIfFalse(0));
            self.sequence(&pair[1..])?;
            exits.push(self.cur().emit(Instr::Jump(0)));
            let next = self.cur().here();
            self.cur().patch(jnext, next);
        }
        self.cur().emit(Instr::Nil);
        let end = self.cur().here();
        for at in exits {
            self.cur().patch(at, end);
        }
        Ok(())
    }
}
