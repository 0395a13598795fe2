//! # The `.cal` specification DSL
//!
//! A small text language for writing
//! [`CaSpec`](crate::spec::CaSpec)/[`SeqSpec`](crate::spec::SeqSpec) object
//! specifications without touching the workspace: state variables,
//! per-element transition rules (guards and effects), return-value
//! completions, and CA-element arity constraints. Files compile through a
//! lexer → parser → validation pipeline into an interpreted [`SpecDef`]
//! that every checker mode (`cal`, `seq`, `interval`, `causal`), the
//! per-object and parallel search, symmetry reduction, streaming, and chaos all
//! consume unchanged — a loaded spec is just another
//! [`CaSpec`](crate::spec::CaSpec).
//!
//! The language is documented in `docs/SPEC_DSL.md` (reference) and
//! `docs/TUTORIAL.md` (walkthrough); every diagnostic code in
//! [`DiagCode::ALL`] is catalogued there with a triggering example, and a
//! CI integrity test keeps the two in lockstep.
//!
//! ## Example
//!
//! ```
//! use cal_core::dsl::parse_str;
//! use cal_core::spec::CaSpec;
//! use cal_core::ObjectId;
//!
//! let file = parse_str(r#"
//!     spec exchanger {
//!         kind ca;
//!         element 2;
//!         rule fail(a: exchange) { when a.ret == (false, a.arg); }
//!         rule swap(a: exchange, b: exchange) {
//!             when a.ret == (true, b.arg) && b.ret == (true, a.arg);
//!         }
//!         complete exchange {
//!             yield (false, arg);
//!             for peer exchange { yield (true, peer.arg); }
//!         }
//!     }
//! "#).expect("a well-formed spec");
//! let spec = file.get("exchanger").unwrap().to_ca(ObjectId(0));
//! assert_eq!(spec.max_element_size(), 2);
//! ```
//!
//! Failures are typed, span-anchored [`Diagnostic`]s — never a panic:
//!
//! ```
//! use cal_core::dsl::{parse_str, DiagCode};
//!
//! let err = parse_str("spec s { kind maybe; }").unwrap_err();
//! assert_eq!(err.code, DiagCode::E104);
//! assert_eq!((err.line, err.col), (1, 15));
//! assert!(err.to_string().contains("E104"));
//! ```

use std::error::Error;
use std::fmt;
use std::sync::Arc;

mod ast;
mod eval;
mod lex;
mod parse;
mod validate;

pub use eval::{DslCaSpec, DslSeqSpec, RtVal};
pub use validate::{SpecDef, SpecKind};

/// The stable code of a [`Diagnostic`]. `E0xx` are lexical, `E1xx` are
/// syntactic, `E2xx` are semantic (validation) errors. Every code is
/// documented with a triggering example in `docs/SPEC_DSL.md`; the
/// docs-integrity test walks [`DiagCode::ALL`] to enforce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the summaries below are the documentation
pub enum DiagCode {
    E001,
    E002,
    E101,
    E102,
    E103,
    E104,
    E105,
    E201,
    E202,
    E203,
    E204,
    E205,
    E206,
    E207,
    E208,
    E209,
    E210,
    E211,
    E212,
    E213,
}

impl DiagCode {
    /// Every diagnostic code the pipeline can emit, in catalogue order.
    pub const ALL: &'static [DiagCode] = &[
        DiagCode::E001,
        DiagCode::E002,
        DiagCode::E101,
        DiagCode::E102,
        DiagCode::E103,
        DiagCode::E104,
        DiagCode::E105,
        DiagCode::E201,
        DiagCode::E202,
        DiagCode::E203,
        DiagCode::E204,
        DiagCode::E205,
        DiagCode::E206,
        DiagCode::E207,
        DiagCode::E208,
        DiagCode::E209,
        DiagCode::E210,
        DiagCode::E211,
        DiagCode::E212,
        DiagCode::E213,
    ];

    /// The code as it appears in diagnostics and the manual, e.g. `"E204"`.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::E001 => "E001",
            DiagCode::E002 => "E002",
            DiagCode::E101 => "E101",
            DiagCode::E102 => "E102",
            DiagCode::E103 => "E103",
            DiagCode::E104 => "E104",
            DiagCode::E105 => "E105",
            DiagCode::E201 => "E201",
            DiagCode::E202 => "E202",
            DiagCode::E203 => "E203",
            DiagCode::E204 => "E204",
            DiagCode::E205 => "E205",
            DiagCode::E206 => "E206",
            DiagCode::E207 => "E207",
            DiagCode::E208 => "E208",
            DiagCode::E209 => "E209",
            DiagCode::E210 => "E210",
            DiagCode::E211 => "E211",
            DiagCode::E212 => "E212",
            DiagCode::E213 => "E213",
        }
    }

    /// One-line summary of the error class, matching the manual's
    /// catalogue headings.
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::E001 => "unexpected character",
            DiagCode::E002 => "integer literal out of range",
            DiagCode::E101 => "unexpected token",
            DiagCode::E102 => "unexpected end of file",
            DiagCode::E103 => "unknown item",
            DiagCode::E104 => "unknown spec kind",
            DiagCode::E105 => "unknown type",
            DiagCode::E201 => "duplicate spec name",
            DiagCode::E202 => "duplicate declaration",
            DiagCode::E203 => "missing `kind` declaration",
            DiagCode::E204 => "unknown name",
            DiagCode::E205 => "unknown operation field",
            DiagCode::E206 => "type mismatch",
            DiagCode::E207 => "rule arity exceeds the element cap",
            DiagCode::E208 => "concurrency construct in a sequential spec",
            DiagCode::E209 => "assignment to an unknown state variable",
            DiagCode::E210 => "invalid range",
            DiagCode::E211 => "unyieldable value in a completion",
            DiagCode::E212 => "empty specification file",
            DiagCode::E213 => "invalid element cap",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A compile failure: one typed, span-anchored error. The pipeline stops
/// at the first diagnostic (specs are small; the first error is the one
/// worth fixing) and never panics on any input.
///
/// # Examples
///
/// ```
/// use cal_core::dsl::{parse_str, DiagCode};
/// let d = parse_str("spec s { kind seq; var x: float; }").unwrap_err();
/// assert_eq!(d.code, DiagCode::E105);
/// assert_eq!(d.to_string(), format!("error[E105]: {} (line 1, column 27)", d.message));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable error code.
    pub code: DiagCode,
    /// Human-readable description of this occurrence.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl Diagnostic {
    pub(crate) fn new(code: DiagCode, message: impl Into<String>, line: u32, col: u32) -> Self {
        Diagnostic { code, message: message.into(), line, col }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {} (line {}, column {})",
            self.code, self.message, self.line, self.col
        )
    }
}

impl Error for Diagnostic {}

/// A compiled `.cal` file: the specs it defines, in declaration order.
/// This is the loaded-spec handle `cal-check --spec` and `cal-serve
/// --spec` hold onto; [`SpecFile::get`] resolves a spec by name and
/// [`SpecDef::to_ca`]/[`SpecDef::to_seq`] instantiate it for an object.
///
/// # Examples
///
/// ```
/// use cal_core::dsl::parse_str;
///
/// let file = parse_str(
///     "spec counter { kind seq; var n: int = 0; \
///      rule inc(a) { when a.ret == n; effect n = n + 1; } \
///      complete inc { yield 0 .. 16; } }",
/// )
/// .unwrap();
/// assert_eq!(file.names(), vec!["counter"]);
/// assert!(file.get("counter").unwrap().is_sequential());
/// assert!(file.get("nope").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SpecFile {
    specs: Vec<Arc<SpecDef>>,
}

impl SpecFile {
    /// The compiled specs, in declaration order.
    pub fn specs(&self) -> &[Arc<SpecDef>] {
        &self.specs
    }

    /// Resolves a spec by its declared name.
    pub fn get(&self, name: &str) -> Option<&Arc<SpecDef>> {
        self.specs.iter().find(|s| s.name() == name)
    }

    /// The declared spec names, in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name()).collect()
    }
}

/// Compiles `.cal` source text: lex → parse → validate. Returns the
/// loaded [`SpecFile`] or the first [`Diagnostic`]. The entry point for
/// both CLI `--spec` loading and the docs-integrity test.
///
/// # Errors
///
/// Returns the first diagnostic of the failing stage; see [`DiagCode`]
/// for the catalogue.
///
/// # Examples
///
/// ```
/// use cal_core::dsl::parse_str;
///
/// let file = parse_str(
///     "spec register { kind seq; var val: int = 0; \
///      rule write(a) { when a.ret == unit; effect val = a.arg; } \
///      rule read(a) { when a.ret == val; } \
///      complete write { yield unit; } complete read { yield 0; } }",
/// )
/// .unwrap();
/// assert_eq!(file.specs().len(), 1);
/// ```
pub fn parse_str(src: &str) -> Result<SpecFile, Diagnostic> {
    let tokens = lex::lex(src)?;
    let file_ast = parse::parse(&tokens)?;
    let specs = validate::validate(file_ast)?;
    Ok(SpecFile { specs: specs.into_iter().map(Arc::new).collect() })
}
