//! Validation: resolves names to indices, checks types and structural
//! constraints, and compiles each parsed spec into an executable
//! [`SpecDef`]. Emits the `E2xx` family (see [`super::DiagCode`]).
//!
//! Typing is gradual: state variables carry a declared type, while an
//! operation's `arg`/`ret` are dynamic (the trace decides their shape at
//! runtime, exactly as in the hand-written Rust specs, where a shape
//! mismatch makes the rule fail to match rather than the checker fail).
//! Validation rejects only the comparisons and assignments that could
//! *never* be well-typed.

use std::collections::HashSet;

use super::ast::*;
use super::eval::{Builtin, Expr, RtVal};
use super::lex::Span;
use super::{DiagCode, Diagnostic};
use crate::ids::Method;
use crate::text::intern_method;

/// Whether a spec describes a sequential or a concurrency-aware object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// `kind seq;` — a sequential specification. Usable in every checker
    /// mode; `--mode cal` checks classical linearizability over it.
    Seq,
    /// `kind ca;` — a concurrency-aware specification with multi-operation
    /// CA-elements. Only meaningful under `--mode cal`.
    Ca,
}

/// One compiled specification: the executable form of a `spec` block,
/// produced by [`super::parse_str`] and interpreted by
/// [`super::DslCaSpec`]/[`super::DslSeqSpec`].
#[derive(Debug)]
pub struct SpecDef {
    pub(crate) name: String,
    pub(crate) kind: SpecKind,
    pub(crate) element_cap: usize,
    /// Declared state variables: name and type, in slot order.
    pub(crate) vars: Vec<(String, TyAst)>,
    /// Initial value per slot.
    pub(crate) init: Vec<RtVal>,
    pub(crate) rules: Vec<RuleDef>,
    pub(crate) completes: Vec<CompleteDef>,
}

impl SpecDef {
    /// The declared spec name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The spec's kind.
    pub fn kind(&self) -> SpecKind {
        self.kind
    }

    /// `true` for `kind seq` specs, which every checker mode accepts.
    pub fn is_sequential(&self) -> bool {
        self.kind == SpecKind::Seq
    }

    /// The declared CA-element size cap (1 for sequential specs).
    pub fn element_cap(&self) -> usize {
        self.element_cap
    }

    pub(crate) fn initial_state(&self) -> Vec<RtVal> {
        self.init.clone()
    }
}

#[derive(Debug)]
pub(crate) struct RuleDef {
    #[allow(dead_code)] // kept for debugging / future reporting surfaces
    pub name: String,
    /// Required method per binding, in binding order; the rule's arity.
    pub methods: Vec<Method>,
    pub guards: Vec<Expr>,
    /// `(state slot, value)` assignments, applied simultaneously against
    /// the pre-state.
    pub effects: Vec<(usize, Expr)>,
}

#[derive(Debug)]
pub(crate) struct CompleteDef {
    pub method: Method,
    pub items: Vec<CItem>,
}

#[derive(Debug)]
pub(crate) enum CItem {
    Yield(Expr),
    /// Inclusive integer range.
    YieldRange(i64, i64),
    ForPeer(Method, Vec<CItem>),
}

/// Largest allowed `element` cap. The checker enumerates candidate
/// elements up to this size, so it is a direct search-width knob.
const MAX_ELEMENT_CAP: i64 = 8;
/// Widest allowed `yield a .. b;` range (inclusive endpoints).
const MAX_RANGE_WIDTH: i64 = 10_000;

fn err(code: DiagCode, message: impl Into<String>, span: Span) -> Diagnostic {
    Diagnostic::new(code, message, span.line, span.col)
}

pub(crate) fn validate(file: FileAst) -> Result<Vec<SpecDef>, Diagnostic> {
    if file.specs.is_empty() {
        return Err(Diagnostic::new(
            DiagCode::E212,
            "file defines no specifications; expected at least one `spec name { ... }` block",
            1,
            1,
        ));
    }
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for spec in &file.specs {
        if !seen.insert(spec.name.clone()) {
            return Err(err(
                DiagCode::E201,
                format!("duplicate spec name `{}`", spec.name),
                spec.name_span,
            ));
        }
        out.push(validate_spec(spec)?);
    }
    Ok(out)
}

/// Static type of an expression. `Dyn` is the type of `arg`/`ret`
/// accesses — compatible with everything, checked at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Unit,
    Bool,
    Int,
    Pair,
    List,
    Dyn,
}

impl Ty {
    fn describe(self) -> &'static str {
        match self {
            Ty::Unit => "unit",
            Ty::Bool => "bool",
            Ty::Int => "int",
            Ty::Pair => "pair",
            Ty::List => "list",
            Ty::Dyn => "a dynamic value",
        }
    }
}

fn of_ast(ty: TyAst) -> Ty {
    match ty {
        TyAst::Int => Ty::Int,
        TyAst::Bool => Ty::Bool,
        TyAst::List => Ty::List,
    }
}

fn compat(a: Ty, b: Ty) -> bool {
    a == Ty::Dyn || b == Ty::Dyn || a == b
}

/// Name-resolution scope for expression compilation.
enum Scope<'a> {
    /// `var` initializer: literals only.
    Const,
    /// Rule body: bindings plus state variables.
    Rule { bindings: &'a [(String, Method)] },
    /// Completion body: `arg`, plus `peer` when inside `for peer`.
    Complete { in_peer: bool },
}

struct SpecCx<'a> {
    vars: &'a [(String, TyAst)],
}

impl SpecCx<'_> {
    fn var_slot(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|(n, _)| n == name)
    }
}

/// Compiles an expression, returning its static type alongside.
fn compile_expr(
    cx: &SpecCx<'_>,
    scope: &Scope<'_>,
    e: &ExprAst,
) -> Result<(Expr, Ty), Diagnostic> {
    match &e.kind {
        ExprKind::Unit => Ok((Expr::Unit, Ty::Unit)),
        ExprKind::Bool(b) => Ok((Expr::Bool(*b), Ty::Bool)),
        ExprKind::Int(n) => Ok((Expr::Int(*n), Ty::Int)),
        ExprKind::Pair(a, b) => {
            let (ca, ta) = compile_expr(cx, scope, a)?;
            if !compat(ta, Ty::Bool) {
                return Err(err(
                    DiagCode::E206,
                    format!("pair literals are `(bool, int)`; first component is {}", ta.describe()),
                    a.span,
                ));
            }
            let (cb, tb) = compile_expr(cx, scope, b)?;
            if !compat(tb, Ty::Int) {
                return Err(err(
                    DiagCode::E206,
                    format!("pair literals are `(bool, int)`; second component is {}", tb.describe()),
                    b.span,
                ));
            }
            Ok((Expr::Pair(Box::new(ca), Box::new(cb)), Ty::Pair))
        }
        ExprKind::List(elems) => {
            let mut out = Vec::with_capacity(elems.len());
            for el in elems {
                let (ce, te) = compile_expr(cx, scope, el)?;
                if !compat(te, Ty::Int) {
                    return Err(err(
                        DiagCode::E206,
                        format!("list elements are integers; found {}", te.describe()),
                        el.span,
                    ));
                }
                out.push(ce);
            }
            Ok((Expr::List(out), Ty::List))
        }
        ExprKind::Name(name) => match scope {
            Scope::Const => Err(err(
                DiagCode::E204,
                format!("`{name}` is not a constant; variable initializers must be literal values"),
                e.span,
            )),
            Scope::Rule { bindings } => {
                if bindings.iter().any(|(b, _)| b == name) {
                    return Err(err(
                        DiagCode::E204,
                        format!("operation binding `{name}` must be accessed as `{name}.arg` or `{name}.ret`"),
                        e.span,
                    ));
                }
                match cx.var_slot(name) {
                    Some(slot) => Ok((Expr::Var(slot), of_ast(cx.vars[slot].1))),
                    None => Err(err(
                        DiagCode::E204,
                        format!("unknown name `{name}`"),
                        e.span,
                    )),
                }
            }
            Scope::Complete { .. } => {
                if name == "arg" {
                    return Ok((Expr::CompleteArg, Ty::Dyn));
                }
                if name == "peer" {
                    return Err(err(
                        DiagCode::E204,
                        "`peer` must be accessed as `peer.arg`",
                        e.span,
                    ));
                }
                if cx.var_slot(name).is_some() {
                    return Err(err(
                        DiagCode::E204,
                        format!(
                            "completions are state-independent; state variable `{name}` is not available here"
                        ),
                        e.span,
                    ));
                }
                Err(err(DiagCode::E204, format!("unknown name `{name}`"), e.span))
            }
        },
        ExprKind::Field(name, field) => match scope {
            Scope::Const => Err(err(
                DiagCode::E204,
                format!("`{name}` is not available in a variable initializer"),
                e.span,
            )),
            Scope::Rule { bindings } => {
                match bindings.iter().position(|(b, _)| b == name) {
                    Some(i) => Ok((
                        match field {
                            OpField::Arg => Expr::OpArg(i),
                            OpField::Ret => Expr::OpRet(i),
                        },
                        Ty::Dyn,
                    )),
                    None => Err(err(
                        DiagCode::E204,
                        format!("unknown operation binding `{name}`"),
                        e.span,
                    )),
                }
            }
            Scope::Complete { in_peer } => {
                if name != "peer" {
                    return Err(err(
                        DiagCode::E204,
                        format!("unknown operation binding `{name}` (completions see only `arg` and `peer.arg`)"),
                        e.span,
                    ));
                }
                if !in_peer {
                    return Err(err(
                        DiagCode::E204,
                        "`peer` is only available inside a `for peer` block",
                        e.span,
                    ));
                }
                match field {
                    OpField::Arg => Ok((Expr::PeerArg, Ty::Dyn)),
                    OpField::Ret => Err(err(
                        DiagCode::E205,
                        "peers are pending invocations and have no `ret`",
                        e.span,
                    )),
                }
            }
        },
        ExprKind::Call { name, name_span, args } => {
            let (builtin, params, ret): (Builtin, &[Ty], Ty) = match name.as_str() {
                "top" => (Builtin::Top, &[Ty::List], Ty::Int),
                "len" => (Builtin::Len, &[Ty::List], Ty::Int),
                "empty" => (Builtin::Empty, &[Ty::List], Ty::Bool),
                "push" => (Builtin::Push, &[Ty::List, Ty::Int], Ty::List),
                "drop" => (Builtin::Drop, &[Ty::List], Ty::List),
                other => {
                    return Err(err(
                        DiagCode::E204,
                        format!(
                            "unknown function `{other}`; the builtins are `top`, `len`, `empty`, `push` and `drop`"
                        ),
                        *name_span,
                    ));
                }
            };
            if args.len() != params.len() {
                return Err(err(
                    DiagCode::E206,
                    format!(
                        "wrong number of arguments to `{name}`: expected {}, found {}",
                        params.len(),
                        args.len()
                    ),
                    *name_span,
                ));
            }
            let mut compiled = Vec::with_capacity(args.len());
            for (arg, want) in args.iter().zip(params) {
                let (ce, te) = compile_expr(cx, scope, arg)?;
                if !compat(te, *want) {
                    return Err(err(
                        DiagCode::E206,
                        format!(
                            "`{name}` expects {}, found {}",
                            want.describe(),
                            te.describe()
                        ),
                        arg.span,
                    ));
                }
                compiled.push(ce);
            }
            Ok((Expr::Call(builtin, compiled), ret))
        }
        ExprKind::Unary(op, inner) => {
            let (ce, te) = compile_expr(cx, scope, inner)?;
            let (want, out) = match op {
                UnOp::Not => (Ty::Bool, Ty::Bool),
                UnOp::Neg => (Ty::Int, Ty::Int),
            };
            if !compat(te, want) {
                return Err(err(
                    DiagCode::E206,
                    format!(
                        "unary {} expects {}, found {}",
                        if *op == UnOp::Not { "`!`" } else { "`-`" },
                        want.describe(),
                        te.describe()
                    ),
                    inner.span,
                ));
            }
            Ok((Expr::Unary(*op, Box::new(ce)), out))
        }
        ExprKind::Binary(op, a, b) => {
            let (ca, ta) = compile_expr(cx, scope, a)?;
            let (cb, tb) = compile_expr(cx, scope, b)?;
            let sym = |o: &BinOp| match o {
                BinOp::Mul => "*",
                BinOp::Rem => "%",
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "&&",
                BinOp::Or => "||",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
            };
            let out = match op {
                BinOp::Eq | BinOp::Ne => {
                    // Structural equality: statically incompatible shapes
                    // would always be `false`, which is a bug, not intent.
                    if !compat(ta, tb) {
                        return Err(err(
                            DiagCode::E206,
                            format!(
                                "`{}` compares {} with {}; this can never be equal",
                                sym(op),
                                ta.describe(),
                                tb.describe()
                            ),
                            e.span,
                        ));
                    }
                    Ty::Bool
                }
                BinOp::Mul | BinOp::Rem | BinOp::Add | BinOp::Sub => {
                    for (t, side) in [(ta, a.span), (tb, b.span)] {
                        if !compat(t, Ty::Int) {
                            return Err(err(
                                DiagCode::E206,
                                format!("`{}` expects int operands, found {}", sym(op), t.describe()),
                                side,
                            ));
                        }
                    }
                    Ty::Int
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    for (t, side) in [(ta, a.span), (tb, b.span)] {
                        if !compat(t, Ty::Int) {
                            return Err(err(
                                DiagCode::E206,
                                format!("`{}` expects int operands, found {}", sym(op), t.describe()),
                                side,
                            ));
                        }
                    }
                    Ty::Bool
                }
                BinOp::And | BinOp::Or => {
                    for (t, side) in [(ta, a.span), (tb, b.span)] {
                        if !compat(t, Ty::Bool) {
                            return Err(err(
                                DiagCode::E206,
                                format!("`{}` expects bool operands, found {}", sym(op), t.describe()),
                                side,
                            ));
                        }
                    }
                    Ty::Bool
                }
            };
            Ok((Expr::Binary(*op, Box::new(ca), Box::new(cb)), out))
        }
    }
}

/// Const-evaluates a variable initializer (literals only; `compile_expr`
/// with [`Scope::Const`] has already rejected everything else).
fn const_eval(e: &Expr) -> Option<RtVal> {
    let ctx = super::eval::Ctx { vars: &[], ops: &[], complete_arg: None, peer_arg: None };
    super::eval::eval(e, &ctx)
}

fn validate_spec(spec: &SpecAst) -> Result<SpecDef, Diagnostic> {
    let mut kind: Option<(SpecKind, Span)> = None;
    let mut element: Option<(usize, Span)> = None;
    let mut vars: Vec<(String, TyAst)> = Vec::new();
    let mut init: Vec<RtVal> = Vec::new();
    let mut rule_names: HashSet<String> = HashSet::new();
    // Rules and completions are compiled in a second pass, once the full
    // variable table is known (declaration order within the body is free).
    let mut rule_items: Vec<&ItemAst> = Vec::new();
    let mut complete_items: Vec<&ItemAst> = Vec::new();
    let mut complete_methods: HashSet<String> = HashSet::new();

    for item in &spec.items {
        match item {
            ItemAst::Kind { seq, span } => {
                if kind.is_some() {
                    return Err(err(DiagCode::E202, "duplicate `kind` declaration", *span));
                }
                kind = Some((if *seq { SpecKind::Seq } else { SpecKind::Ca }, *span));
            }
            ItemAst::Element { cap, span } => {
                if element.is_some() {
                    return Err(err(DiagCode::E202, "duplicate `element` declaration", *span));
                }
                if *cap < 1 || *cap > MAX_ELEMENT_CAP {
                    return Err(err(
                        DiagCode::E213,
                        format!("invalid element cap {cap}; must be between 1 and {MAX_ELEMENT_CAP}"),
                        *span,
                    ));
                }
                element = Some((*cap as usize, *span));
            }
            ItemAst::Var { name, ty, init: init_expr, span } => {
                if vars.iter().any(|(n, _)| n == name) {
                    return Err(err(
                        DiagCode::E202,
                        format!("duplicate declaration of variable `{name}`"),
                        *span,
                    ));
                }
                let cx = SpecCx { vars: &[] };
                let value = match init_expr {
                    Some(e) => {
                        let (compiled, t) = compile_expr(&cx, &Scope::Const, e)?;
                        if !compat(t, of_ast(*ty)) {
                            return Err(err(
                                DiagCode::E206,
                                format!(
                                    "initializer of `{name}` is {}, but the variable is {}",
                                    t.describe(),
                                    of_ast(*ty).describe()
                                ),
                                e.span,
                            ));
                        }
                        const_eval(&compiled).ok_or_else(|| {
                            err(
                                DiagCode::E206,
                                format!("initializer of `{name}` does not evaluate to a value"),
                                e.span,
                            )
                        })?
                    }
                    None => match ty {
                        TyAst::Int => RtVal::Int(0),
                        TyAst::Bool => RtVal::Bool(false),
                        TyAst::List => RtVal::List(Vec::new()),
                    },
                };
                vars.push((name.clone(), *ty));
                init.push(value);
            }
            ItemAst::Rule { name, span, .. } => {
                if !rule_names.insert(name.clone()) {
                    return Err(err(
                        DiagCode::E202,
                        format!("duplicate declaration of rule `{name}`"),
                        *span,
                    ));
                }
                rule_items.push(item);
            }
            ItemAst::Complete { method, span, .. } => {
                if !complete_methods.insert(method.clone()) {
                    return Err(err(
                        DiagCode::E202,
                        format!("duplicate `complete` block for method `{method}`"),
                        *span,
                    ));
                }
                complete_items.push(item);
            }
        }
    }

    let Some((kind, _)) = kind else {
        return Err(err(
            DiagCode::E203,
            format!("spec `{}` is missing a `kind seq;` or `kind ca;` declaration", spec.name),
            spec.name_span,
        ));
    };
    if kind == SpecKind::Seq {
        if let Some((cap, span)) = element {
            if cap > 1 {
                return Err(err(
                    DiagCode::E208,
                    format!(
                        "`element {cap}` in a `kind seq` spec; sequential elements are singletons \
                         (use `kind ca` for concurrency-aware elements)"
                    ),
                    span,
                ));
            }
        }
    }
    let element_cap = element.map(|(c, _)| c).unwrap_or(1);

    let cx = SpecCx { vars: &vars };
    let mut rules = Vec::new();
    for item in rule_items {
        let ItemAst::Rule { name, bindings, whens, effects, span } = item else { unreachable!() };
        if kind == SpecKind::Seq && bindings.len() > 1 {
            return Err(err(
                DiagCode::E208,
                format!(
                    "rule `{name}` binds {} simultaneous operations, but this is a `kind seq` spec",
                    bindings.len()
                ),
                *span,
            ));
        }
        if bindings.len() > element_cap {
            return Err(err(
                DiagCode::E207,
                format!(
                    "rule `{name}` binds {} operations but the element cap is {element_cap} \
                     (declare a larger `element N;`)",
                    bindings.len()
                ),
                *span,
            ));
        }
        let mut resolved: Vec<(String, Method)> = Vec::new();
        for b in bindings {
            if resolved.iter().any(|(n, _)| *n == b.name) {
                return Err(err(
                    DiagCode::E202,
                    format!("duplicate binding `{}` in rule `{name}`", b.name),
                    b.span,
                ));
            }
            let method = intern_method(b.method.as_deref().unwrap_or(name));
            resolved.push((b.name.clone(), method));
        }
        let scope = Scope::Rule { bindings: &resolved };
        let mut guards = Vec::new();
        for w in whens {
            let (compiled, t) = compile_expr(&cx, &scope, w)?;
            if !compat(t, Ty::Bool) {
                return Err(err(
                    DiagCode::E206,
                    format!("`when` guard must be bool, found {}", t.describe()),
                    w.span,
                ));
            }
            guards.push(compiled);
        }
        let mut compiled_effects: Vec<(usize, Expr)> = Vec::new();
        for eff in effects {
            let Some(slot) = cx.var_slot(&eff.var) else {
                return Err(err(
                    DiagCode::E209,
                    format!("assignment to unknown state variable `{}`", eff.var),
                    eff.span,
                ));
            };
            if compiled_effects.iter().any(|(s, _)| *s == slot) {
                return Err(err(
                    DiagCode::E202,
                    format!("duplicate effect on `{}` in rule `{name}`", eff.var),
                    eff.span,
                ));
            }
            let (compiled, t) = compile_expr(&cx, &scope, &eff.value)?;
            let want = of_ast(vars[slot].1);
            if !compat(t, want) {
                return Err(err(
                    DiagCode::E206,
                    format!(
                        "effect assigns {} to `{}`, which is {}",
                        t.describe(),
                        eff.var,
                        want.describe()
                    ),
                    eff.value.span,
                ));
            }
            compiled_effects.push((slot, compiled));
        }
        rules.push(RuleDef {
            name: name.clone(),
            methods: resolved.into_iter().map(|(_, m)| m).collect(),
            guards,
            effects: compiled_effects,
        });
    }

    let mut completes = Vec::new();
    for item in complete_items {
        let ItemAst::Complete { method, items, .. } = item else { unreachable!() };
        let compiled = compile_completions(&cx, kind, items)?;
        completes.push(CompleteDef { method: intern_method(method), items: compiled });
    }

    Ok(SpecDef {
        name: spec.name.clone(),
        kind,
        element_cap,
        vars,
        init,
        rules,
        completes,
    })
}

fn compile_completions(
    cx: &SpecCx<'_>,
    kind: SpecKind,
    items: &[CompletionAst],
) -> Result<Vec<CItem>, Diagnostic> {
    let mut out = Vec::new();
    for item in items {
        match item {
            CompletionAst::Yield { value } => {
                out.push(compile_yield(cx, value, false)?);
            }
            CompletionAst::YieldRange { lo, hi, span } => {
                out.push(compile_range(lo, hi, *span)?);
            }
            CompletionAst::ForPeer { method, items, span } => {
                if kind == SpecKind::Seq {
                    return Err(err(
                        DiagCode::E208,
                        "`for peer` in a `kind seq` spec; sequential completions have no peers",
                        *span,
                    ));
                }
                let mut inner = Vec::new();
                for it in items {
                    match it {
                        CompletionAst::Yield { value, .. } => {
                            inner.push(compile_yield(cx, value, true)?)
                        }
                        CompletionAst::YieldRange { lo, hi, span } => {
                            inner.push(compile_range(lo, hi, *span)?)
                        }
                        // Parser rejects nested `for peer` (E103).
                        CompletionAst::ForPeer { .. } => unreachable!(),
                    }
                }
                out.push(CItem::ForPeer(intern_method(method), inner));
            }
        }
    }
    Ok(out)
}

fn compile_yield(cx: &SpecCx<'_>, value: &ExprAst, in_peer: bool) -> Result<CItem, Diagnostic> {
    let (compiled, t) = compile_expr(cx, &Scope::Complete { in_peer }, value)?;
    if t == Ty::List {
        return Err(err(
            DiagCode::E211,
            "a completion cannot yield a list; return values are unit, bool, int or a pair",
            value.span,
        ));
    }
    Ok(CItem::Yield(compiled))
}

/// Range bounds must be (possibly negated) integer literals so the
/// candidate set is known at compile time.
fn compile_range(lo: &ExprAst, hi: &ExprAst, span: Span) -> Result<CItem, Diagnostic> {
    fn lit(e: &ExprAst) -> Option<i64> {
        match &e.kind {
            ExprKind::Int(n) => Some(*n),
            ExprKind::Unary(UnOp::Neg, inner) => match &inner.kind {
                ExprKind::Int(n) => n.checked_neg(),
                _ => None,
            },
            _ => None,
        }
    }
    let (Some(a), Some(b)) = (lit(lo), lit(hi)) else {
        return Err(err(
            DiagCode::E210,
            "range bounds must be integer literals",
            span,
        ));
    };
    if a > b {
        return Err(err(
            DiagCode::E210,
            format!("invalid range {a} .. {b}: lower bound exceeds upper bound"),
            span,
        ));
    }
    if b - a >= MAX_RANGE_WIDTH {
        return Err(err(
            DiagCode::E210,
            format!("range {a} .. {b} spans more than {MAX_RANGE_WIDTH} candidate values"),
            span,
        ));
    }
    Ok(CItem::YieldRange(a, b))
}

#[cfg(test)]
mod tests {
    use super::super::{parse_str, DiagCode};

    fn code_of(src: &str) -> DiagCode {
        parse_str(src).unwrap_err().code
    }

    #[test]
    fn e201_duplicate_spec() {
        assert_eq!(code_of("spec a { kind seq; } spec a { kind seq; }"), DiagCode::E201);
    }

    #[test]
    fn e202_duplicates() {
        assert_eq!(code_of("spec s { kind seq; kind seq; }"), DiagCode::E202);
        assert_eq!(
            code_of("spec s { kind seq; var x: int; var x: int; }"),
            DiagCode::E202
        );
        assert_eq!(
            code_of("spec s { kind seq; rule r(a) { when true; } rule r(a) { when true; } }"),
            DiagCode::E202
        );
        assert_eq!(
            code_of("spec s { kind ca; element 2; rule r(a, a) { when true; } }"),
            DiagCode::E202
        );
        assert_eq!(
            code_of(
                "spec s { kind seq; var n: int; \
                 rule r(a) { effect n = 1; effect n = 2; } }"
            ),
            DiagCode::E202
        );
        assert_eq!(
            code_of("spec s { kind seq; complete f { yield 0; } complete f { yield 1; } }"),
            DiagCode::E202
        );
    }

    #[test]
    fn e203_missing_kind() {
        assert_eq!(code_of("spec s { var x: int; }"), DiagCode::E203);
    }

    #[test]
    fn e204_unknown_names() {
        assert_eq!(code_of("spec s { kind seq; rule r(a) { when nope == 1; } }"), DiagCode::E204);
        assert_eq!(
            code_of("spec s { kind seq; rule r(a) { when b.ret == 1; } }"),
            DiagCode::E204
        );
        assert_eq!(code_of("spec s { kind seq; complete f { yield nope; } }"), DiagCode::E204);
        // State variables are not visible to completions:
        assert_eq!(
            code_of("spec s { kind seq; var n: int; complete f { yield n; } }"),
            DiagCode::E204
        );
        // `peer` outside `for peer`:
        assert_eq!(
            code_of("spec s { kind ca; complete f { yield peer.arg; } }"),
            DiagCode::E204
        );
        // Unknown builtin:
        assert_eq!(
            code_of("spec s { kind seq; var l: list; rule r(a) { when pop(l) == 1; } }"),
            DiagCode::E204
        );
    }

    #[test]
    fn e205_peer_has_no_ret() {
        assert_eq!(
            code_of("spec s { kind ca; element 2; complete f { for peer f { yield peer.ret; } } }"),
            DiagCode::E205
        );
    }

    #[test]
    fn e206_type_mismatches() {
        assert_eq!(
            code_of("spec s { kind seq; var n: int = true; }"),
            DiagCode::E206
        );
        assert_eq!(
            code_of("spec s { kind seq; var n: int; rule r(a) { when n + true == 1; } }"),
            DiagCode::E206
        );
        assert_eq!(
            code_of("spec s { kind seq; var n: int; rule r(a) { when n; } }"),
            DiagCode::E206
        );
        assert_eq!(
            code_of("spec s { kind seq; var n: int; rule r(a) { effect n = true; } }"),
            DiagCode::E206
        );
        // Statically impossible equality:
        assert_eq!(
            code_of("spec s { kind seq; rule r(a) { when 3 == true; } }"),
            DiagCode::E206
        );
        // Builtin arity:
        assert_eq!(
            code_of("spec s { kind seq; var l: list; rule r(a) { when top(l, 1) == 1; } }"),
            DiagCode::E206
        );
    }

    #[test]
    fn e207_arity_exceeds_cap() {
        assert_eq!(
            code_of("spec s { kind ca; element 2; rule r(a, b, c) { when true; } }"),
            DiagCode::E207
        );
    }

    #[test]
    fn e208_concurrency_in_seq() {
        assert_eq!(code_of("spec s { kind seq; element 2; }"), DiagCode::E208);
        assert_eq!(
            code_of("spec s { kind seq; rule r(a, b) { when true; } }"),
            DiagCode::E208
        );
        assert_eq!(
            code_of("spec s { kind seq; complete f { for peer f { yield 0; } } }"),
            DiagCode::E208
        );
    }

    #[test]
    fn e209_unknown_effect_target() {
        assert_eq!(
            code_of("spec s { kind seq; rule r(a) { effect ghost = 1; } }"),
            DiagCode::E209
        );
    }

    #[test]
    fn e210_bad_ranges() {
        assert_eq!(
            code_of("spec s { kind seq; complete f { yield 5 .. 1; } }"),
            DiagCode::E210
        );
        assert_eq!(
            code_of("spec s { kind seq; complete f { yield 0 .. 99999; } }"),
            DiagCode::E210
        );
        assert_eq!(
            code_of("spec s { kind seq; complete f { yield arg .. 4; } }"),
            DiagCode::E210
        );
    }

    #[test]
    fn e211_list_yield() {
        assert_eq!(
            code_of("spec s { kind seq; complete f { yield [1, 2]; } }"),
            DiagCode::E211
        );
    }

    #[test]
    fn e212_empty_file() {
        assert_eq!(code_of(""), DiagCode::E212);
        assert_eq!(code_of("// only comments\n"), DiagCode::E212);
    }

    #[test]
    fn e213_bad_cap() {
        assert_eq!(code_of("spec s { kind ca; element 0; }"), DiagCode::E213);
        assert_eq!(code_of("spec s { kind ca; element 9; }"), DiagCode::E213);
    }

    #[test]
    fn negative_range_bounds_are_literals() {
        assert!(parse_str("spec s { kind seq; complete f { yield -3 .. 3; } }").is_ok());
    }

    #[test]
    fn defaulted_initializers() {
        let f = parse_str(
            "spec s { kind seq; var a: int; var b: bool; var c: list; \
             rule r(x) { when a == 0 && !b && empty(c); } }",
        )
        .unwrap();
        assert_eq!(f.specs().len(), 1);
    }

    #[test]
    fn spans_point_at_the_offender() {
        let d = parse_str("spec s {\n  kind seq;\n  var n: int = true;\n}").unwrap_err();
        assert_eq!(d.code, DiagCode::E206);
        assert_eq!(d.line, 3);
        assert_eq!(d.col, 16);
    }
}
