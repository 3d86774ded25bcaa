//! Lint identifiers and span-accurate diagnostics.

use std::fmt;

/// Stable identifiers for every lint `memcom-lint` knows.
///
/// IDs are append-only: a published ID never changes meaning, so
/// suppression comments in the tree stay valid across tool versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// Malformed `memcom-lint:` directives: an `allow` without a
    /// written reason, an unknown directive word, an unknown lint ID,
    /// an unmatched hot-path fence. The suppression machinery itself
    /// must stay auditable.
    L000,
    /// `unsafe` without an immediately preceding `// SAFETY:` comment
    /// (a `/// # Safety` doc section also counts, for `unsafe fn`
    /// declarations whose contract lives in rustdoc).
    L001,
    /// `Instant::now()` / `SystemTime::now()` inside a
    /// `// memcom-lint: hot-path` fenced region, unless the call is
    /// visibly gated behind a telemetry flag (`.then(Instant::now)` /
    /// `.map(|_| Instant::now())` on the same line). Mechanizes the
    /// "telemetry `off()` = zero clock reads on the hot path"
    /// guarantee.
    L002,
    /// `unwrap()` / `expect()` / `panic!` family / slice-index-
    /// without-`get` in the wire decode and server reply paths, where
    /// hostile bytes must produce typed answers, never a panic.
    L003,
    /// `Ordering::Relaxed` on a counter named in the documented
    /// `issued >= requests + shed + expired` contract without an
    /// `// ORDERING:` justification comment.
    L004,
    /// A bare `as u8` / `as u16` / `as u32` narrowing on a wire-encode
    /// path — the silent-truncation bug class the PR 8 hardening
    /// removed; use `try_from` and answer a typed error instead.
    L005,
}

impl LintId {
    /// All lints, in ID order.
    pub const ALL: [LintId; 6] = [
        LintId::L000,
        LintId::L001,
        LintId::L002,
        LintId::L003,
        LintId::L004,
        LintId::L005,
    ];

    /// The stable `L00x` code.
    pub fn code(self) -> &'static str {
        match self {
            LintId::L000 => "L000",
            LintId::L001 => "L001",
            LintId::L002 => "L002",
            LintId::L003 => "L003",
            LintId::L004 => "L004",
            LintId::L005 => "L005",
        }
    }

    /// The stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            LintId::L000 => "lint-directive",
            LintId::L001 => "undocumented-unsafe",
            LintId::L002 => "hot-path-clock",
            LintId::L003 => "panic-on-wire",
            LintId::L004 => "relaxed-ordering-audit",
            LintId::L005 => "as-truncation",
        }
    }

    /// One-line description for the catalog listing.
    pub fn summary(self) -> &'static str {
        match self {
            LintId::L000 => "memcom-lint directives must parse and carry reasons",
            LintId::L001 => "every `unsafe` needs an immediately preceding `// SAFETY:` comment",
            LintId::L002 => {
                "no Instant::now()/SystemTime::now()/Stamp::now() inside `hot-path` fences"
            }
            LintId::L003 => "no unwrap/expect/panic!/bare indexing on wire decode & reply paths",
            LintId::L004 => {
                "Ordering::Relaxed on contract counters needs an `// ORDERING:` comment"
            }
            LintId::L005 => "no bare `as u8/u16/u32` narrowing on wire-encode paths",
        }
    }

    /// Parses `"L001"` (case-sensitive) back to an ID.
    pub fn parse(code: &str) -> Option<LintId> {
        LintId::ALL.into_iter().find(|id| id.code() == code)
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One violation at an exact source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path relative to the checked root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which lint fired.
    pub lint: LintId,
    /// What is wrong, specifically, at this site.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.lint, self.message
        )
    }
}
