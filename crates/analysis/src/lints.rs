//! The five repo-invariant lints, over the token stream of one file.
//!
//! Each lint mechanizes a safety contract that previously existed only
//! as prose (see the lint catalog in [`crate::diag::LintId`]). The
//! checks are token-level by design — no type information — so each
//! lint states its recognition rules precisely and leans on
//! suppression comments (with mandatory written reasons) for the
//! sites a dumb-but-predictable rule cannot see through.

use std::collections::{BTreeSet, HashMap};

use crate::diag::{Diagnostic, LintId};
use crate::directives::Directives;
use crate::lexer::{Comment, LexedFile, Tok, TokKind};

/// Files lint L003 (panic-on-wire) patrols, relative to the root:
/// the wire codec and the server's reply paths — everything hostile
/// bytes can reach.
pub const L003_FILES: &[&str] = &["crates/net/src/wire.rs", "crates/net/src/server.rs"];

/// Files lint L005 (as-truncation) patrols: everywhere wire frames are
/// encoded.
pub const L005_FILES: &[&str] = &[
    "crates/net/src/wire.rs",
    "crates/net/src/server.rs",
    "crates/net/src/client.rs",
];

/// Counter field names covered by the documented
/// `issued >= requests + shed + expired` Release/Acquire contract
/// (see `memcom_serve::ModelCounters`). Any `Ordering::Relaxed` whose
/// receiver chain names one of these must justify itself.
pub const CONTRACT_COUNTERS: &[&str] = &["issued", "requests", "shed", "expired"];

/// Everything the lints need to know about one file.
pub struct FileCtx<'a> {
    /// `/`-separated path relative to the checked root.
    pub path: &'a str,
    /// The lexed token/comment stream.
    pub lexed: &'a LexedFile,
    /// Raw source lines (0-indexed storage, 1-based line numbers).
    pub lines: &'a [&'a str],
    /// Lines holding at least one code token.
    pub token_lines: &'a BTreeSet<u32>,
    /// Comments indexed by every line they span.
    pub comments_by_line: &'a HashMap<u32, Vec<&'a Comment>>,
    /// Parsed directives (fences used by L002).
    pub directives: &'a Directives,
    /// Inclusive line spans of `#[cfg(test)]` items; L003/L004/L005
    /// skip them (test code may panic and may read counters loosely).
    pub test_spans: &'a [(u32, u32)],
    /// True when the file lives under a `tests/` directory (an
    /// integration-test crate): L003/L004/L005 skip it wholesale.
    pub is_test_file: bool,
}

impl FileCtx<'_> {
    fn in_test_code(&self, line: u32) -> bool {
        self.is_test_file || self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }

    fn diag(&self, lint: LintId, tok_line: u32, tok_col: u32, message: String) -> Diagnostic {
        Diagnostic {
            path: self.path.to_string(),
            line: tok_line,
            col: tok_col,
            lint,
            message,
        }
    }

    /// Raw text of 1-based `line` ("" past EOF).
    fn line_text(&self, line: u32) -> &str {
        self.lines.get(line as usize - 1).copied().unwrap_or("")
    }

    /// True when a justification comment containing `tag` covers
    /// `line`: either trailing on any line in `[from_line, line]`, or
    /// in the contiguous comment block directly above `from_line`
    /// (attribute lines like `#[target_feature(...)]` may sit
    /// between the block and the code).
    fn justified(&self, from_line: u32, line: u32, tags: &[&str]) -> bool {
        for l in from_line..=line {
            if let Some(comments) = self.comments_by_line.get(&l) {
                if comments
                    .iter()
                    .any(|c| c.trailing && tags.iter().any(|t| c.text.contains(t)))
                {
                    return true;
                }
            }
        }
        let mut l = from_line.saturating_sub(1);
        while l >= 1 {
            if let Some(comments) = self.comments_by_line.get(&l) {
                if comments
                    .iter()
                    .any(|c| tags.iter().any(|t| c.text.contains(t)))
                {
                    return true;
                }
                // A comment line that isn't the tag: keep climbing
                // through the comment block.
                if comments.iter().any(|c| !c.trailing) {
                    l -= 1;
                    continue;
                }
                return false; // trailing comment on a code line: stop
            }
            let text = self.line_text(l);
            let trimmed = text.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                // Blank lines and attributes don't break contiguity.
                l -= 1;
                continue;
            }
            return false;
        }
        false
    }
}

/// Computes the inclusive line spans of `#[cfg(test)]` items.
///
/// Recognition: the token sequence `# [ cfg ( test ) ]`, then the span
/// runs from there to the end of the following item — the matching
/// `}` of its first brace, or the first top-level `;` if a brace never
/// opens (e.g. `#[cfg(test)] use …;`).
pub fn test_spans(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_at(tokens, i) {
            let start = tokens[i].line;
            // Walk forward to the item body.
            let mut j = i + 7; // past `# [ cfg ( test ) ]`
            let mut depth = 0usize;
            let mut end = tokens.get(j).map_or(start, |t| t.line);
            while j < tokens.len() {
                let t = &tokens[j];
                end = t.line;
                match t.kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            spans.push((start, end));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

fn is_cfg_test_at(tokens: &[Tok], i: usize) -> bool {
    let pat = [
        TokKind::Punct('#'),
        TokKind::Punct('['),
        TokKind::Ident("cfg".to_string()),
        TokKind::Punct('('),
        TokKind::Ident("test".to_string()),
        TokKind::Punct(')'),
        TokKind::Punct(']'),
    ];
    tokens.len() >= i + pat.len()
        && pat
            .iter()
            .enumerate()
            .all(|(k, p)| &tokens[i + k].kind == p)
}

/// Runs every applicable lint over one file, returning raw (not yet
/// suppression-filtered) diagnostics.
pub fn run_all(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    l001_undocumented_unsafe(ctx, &mut out);
    l002_hot_path_clock(ctx, &mut out);
    if L003_FILES.contains(&ctx.path) {
        l003_panic_on_wire(ctx, &mut out);
    }
    l004_relaxed_ordering(ctx, &mut out);
    if L005_FILES.contains(&ctx.path) {
        l005_as_truncation(ctx, &mut out);
    }
    out.sort_by_key(|d| (d.line, d.col, d.lint));
    out
}

/// L001: every `unsafe` token needs a `SAFETY:` comment directly above
/// (or trailing on its line); `/// # Safety` rustdoc sections count
/// too. Applies everywhere, tests included — unsafe is unsafe.
fn l001_undocumented_unsafe(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in ctx.lexed.tokens.iter().filter(|t| t.is_ident("unsafe")) {
        if !ctx.justified(t.line, t.line, &["SAFETY:", "# Safety"]) {
            out.push(ctx.diag(
                LintId::L001,
                t.line,
                t.col,
                "`unsafe` without an immediately preceding `// SAFETY:` comment stating why the \
                 contract holds"
                    .to_string(),
            ));
        }
    }
}

/// L002: clock reads inside hot-path fences. `Instant::now` /
/// `SystemTime::now` / `Stamp::now` (the serve tier's stage clock)
/// token runs are flagged unless the same line gates
/// the read behind `.then(` / `.map(` (the telemetry-off pattern:
/// `stages_on.then(Instant::now)` executes no clock read when stages
/// are off).
fn l002_hot_path_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.directives.fences.is_empty() {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("Instant") || t.is_ident("SystemTime") || t.is_ident("Stamp")) {
            continue;
        }
        if !ctx.directives.in_fence(t.line) {
            continue;
        }
        let is_now = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"));
        if !is_now {
            continue;
        }
        // Gated pattern: `.then(` or `.map(` earlier on the same line
        // means the closure defers the read behind a telemetry flag.
        let text = ctx.line_text(t.line);
        let before = &text[..(t.col as usize - 1).min(text.len())];
        if before.contains(".then(") || before.contains(".map(") {
            continue;
        }
        out.push(
            ctx.diag(
                LintId::L002,
                t.line,
                t.col,
                "unconditional clock read inside a hot-path fence; gate it behind the telemetry \
             flag (`flag.then(Instant::now)`) or justify with allow(L002)"
                    .to_string(),
            ),
        );
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (type syntax like `&mut [u8]`, or a keyword opening a
/// fresh expression like `return [a, b]`).
const NON_EXPR_KEYWORDS: &[&str] = &[
    "mut", "ref", "dyn", "as", "in", "return", "break", "else", "match", "if", "let", "const",
    "static", "impl", "for", "where", "move", "unsafe", "fn",
];

/// L003: panicking constructs on wire decode / server reply paths.
fn l003_panic_on_wire(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test_code(t.line) {
            continue;
        }
        let next = toks.get(i + 1);
        match &t.kind {
            TokKind::Ident(name)
                if (name == "unwrap" || name == "expect")
                    && next.is_some_and(|n| n.is_punct('(')) =>
            {
                out.push(ctx.diag(
                    LintId::L003,
                    t.line,
                    t.col,
                    format!(
                        "`{name}()` on a wire path can panic on hostile input; return a \
                         typed WireError instead"
                    ),
                ));
            }
            TokKind::Ident(name)
                if matches!(
                    name.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && next.is_some_and(|n| n.is_punct('!')) =>
            {
                out.push(ctx.diag(
                    LintId::L003,
                    t.line,
                    t.col,
                    format!(
                        "`{name}!` on a wire path; hostile bytes must get typed answers, \
                         never a panic"
                    ),
                ));
            }
            TokKind::Punct('[') => {
                // An index expression: `expr[`, i.e. `[` directly after
                // an identifier, `]`, or `)`. Array literals (`[0; 4]`),
                // attributes (`#[…]`) and macro brackets (`vec![…]`)
                // all have a different preceding token, and an ident
                // that is a keyword which cannot end an expression
                // (`&mut [u8]`, `return [..]`, …) is a type or a fresh
                // expression, not a receiver.
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let is_index = prev.is_some_and(|p| match &p.kind {
                    TokKind::Ident(name) => !NON_EXPR_KEYWORDS.contains(&name.as_str()),
                    TokKind::Punct(']') | TokKind::Punct(')') => true,
                    _ => false,
                });
                if is_index {
                    out.push(ctx.diag(
                        LintId::L003,
                        t.line,
                        t.col,
                        "slice/array index on a wire path can panic; use `.get(..)` and answer \
                         a typed error"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// L004: `Ordering::Relaxed` whose receiver chain names a contract
/// counter must carry an `// ORDERING:` justification.
fn l004_relaxed_ordering(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !t.is_ident("Ordering") || ctx.in_test_code(t.line) {
            continue;
        }
        let is_relaxed = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("Relaxed"));
        if !is_relaxed {
            continue;
        }
        let Some((chain, chain_start_line)) = receiver_chain(toks, i) else {
            continue;
        };
        let named: Vec<&str> = chain
            .iter()
            .filter(|name| CONTRACT_COUNTERS.contains(&name.as_str()))
            .map(String::as_str)
            .collect();
        if named.is_empty() {
            continue;
        }
        if !ctx.justified(chain_start_line, t.line, &["ORDERING:"]) {
            out.push(ctx.diag(
                LintId::L004,
                t.line,
                t.col,
                format!(
                    "Ordering::Relaxed on contract counter `{}` without an `// ORDERING:` \
                     justification (the `issued >= requests + shed + expired` contract \
                     constrains these)",
                    named.join("`/`"),
                ),
            ));
        }
    }
}

/// Walks backward from the `Ordering` token at `i` to the opening `(`
/// of the enclosing call, then back through the `.`-chained receiver,
/// collecting plain field identifiers (`c.shed.load(…)` → `["c",
/// "shed", "load"]`). Returns the idents and the chain's first line.
fn receiver_chain(toks: &[Tok], i: usize) -> Option<(Vec<String>, u32)> {
    // Find the enclosing call's `(`: first unbalanced opener going back.
    let mut depth = 0i32;
    let mut j = i;
    let open = loop {
        j = j.checked_sub(1)?;
        match toks[j].kind {
            TokKind::Punct(')') | TokKind::Punct(']') => depth += 1,
            TokKind::Punct('(') | TokKind::Punct('[') => {
                if depth == 0 {
                    break j;
                }
                depth -= 1;
            }
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') if depth == 0 => {
                return None; // statement boundary before any call open
            }
            _ => {}
        }
    };
    // The chain runs backward from the token before `(`:
    // ident (then repeatedly: `.` then ident / balanced `()`/`[]`).
    let mut chain = Vec::new();
    let mut k = open.checked_sub(1)?;
    let mut start_line = toks[open].line;
    loop {
        match &toks[k].kind {
            TokKind::Ident(name) => {
                chain.push(name.clone());
                start_line = toks[k].line;
            }
            TokKind::Punct(')') | TokKind::Punct(']') => {
                // Skip a balanced group (call args / index) backward.
                let mut d = 1i32;
                while d > 0 {
                    k = match k.checked_sub(1) {
                        Some(k) => k,
                        None => return Some((chain, start_line)),
                    };
                    match toks[k].kind {
                        TokKind::Punct(')') | TokKind::Punct(']') => d += 1,
                        TokKind::Punct('(') | TokKind::Punct('[') => d -= 1,
                        _ => {}
                    }
                }
                start_line = toks[k].line;
            }
            _ => break,
        }
        // Continue only through a `.` linker.
        match k.checked_sub(1) {
            Some(p) if toks[p].is_punct('.') => {
                start_line = toks[p].line;
                k = match p.checked_sub(1) {
                    Some(k) => k,
                    None => break,
                };
            }
            _ => break,
        }
    }
    Some((chain, start_line))
}

/// L005: bare `as u8`/`as u16`/`as u32` narrowing on encode paths.
fn l005_as_truncation(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !t.is_ident("as") || ctx.in_test_code(t.line) {
            continue;
        }
        let Some(target) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if matches!(target, "u8" | "u16" | "u32") {
            out.push(ctx.diag(
                LintId::L005,
                t.line,
                t.col,
                format!(
                    "bare `as {target}` on a wire-encode path silently truncates; validate with \
                     `{target}::try_from` and answer a typed error"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directives;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> (Vec<Diagnostic>, usize) {
        let lexed = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let token_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        let mut comments_by_line: HashMap<u32, Vec<&Comment>> = HashMap::new();
        for c in &lexed.comments {
            for l in c.line..=c.end_line {
                comments_by_line.entry(l).or_default().push(c);
            }
        }
        let dirs = directives::parse(path, &lexed, &token_lines);
        let spans = test_spans(&lexed.tokens);
        let ctx = FileCtx {
            path,
            lexed: &lexed,
            lines: &lines,
            token_lines: &token_lines,
            comments_by_line: &comments_by_line,
            directives: &dirs,
            test_spans: &spans,
            is_test_file: false,
        };
        let mut diags = dirs.errors.clone();
        diags.extend(
            run_all(&ctx)
                .into_iter()
                .filter(|d| !dirs.suppresses(d.lint, d.line)),
        );
        let suppressed = run_all(&ctx).len() + dirs.errors.len() - diags.len();
        (diags, suppressed)
    }

    #[test]
    fn l001_fires_without_safety_and_accepts_it_above_attributes() {
        let (diags, _) = check("a.rs", "fn f() { unsafe { g() } }\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, LintId::L001);
        assert_eq!(diags[0].line, 1);

        let src = "\
// SAFETY: bounds checked by the caller.
#[target_feature(enable = \"sse2\")]
unsafe fn g() {}
";
        let (diags, _) = check("a.rs", src);
        assert!(diags.is_empty(), "{diags:?}");

        // Trailing on the same line works too.
        let (diags, _) = check("a.rs", "let x = unsafe { g() }; // SAFETY: g is pure\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn l002_flags_unfenced_nothing_and_fenced_unconditional_reads() {
        let free = "fn f() { let t = Instant::now(); }\n";
        assert!(check("a.rs", free).0.is_empty(), "no fence, no lint");

        let fenced = "\
// memcom-lint: hot-path
fn f() {
    let t0 = stages_on.then(Instant::now); // gated: fine
    let t1 = started.map(|_| Instant::now()); // gated: fine
    let t2 = Instant::now(); // unconditional: flagged
    let t3 = dequeued.map(|_| Stamp::now()); // gated: fine
    let t4 = Stamp::now(); // unconditional: flagged
}
// memcom-lint: end-hot-path
";
        let (diags, _) = check("a.rs", fenced);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!((diags[0].lint, diags[0].line), (LintId::L002, 5));
        assert_eq!((diags[1].lint, diags[1].line), (LintId::L002, 7));
    }

    #[test]
    fn l003_only_in_scoped_files_and_skips_tests() {
        let src = "\
fn decode(b: &[u8]) -> u8 {
    let x = b[0];
    b.first().copied().unwrap()
}
#[cfg(test)]
mod tests {
    fn t() { let v = vec![1]; v[0]; v.get(0).unwrap(); }
}
";
        let (diags, _) = check("crates/net/src/wire.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!((diags[0].line, diags[0].lint), (2, LintId::L003));
        assert_eq!((diags[1].line, diags[1].lint), (3, LintId::L003));
        assert!(
            check("crates/serve/src/store.rs", src).0.is_empty(),
            "out of scope"
        );
    }

    #[test]
    fn l004_requires_ordering_comment_on_contract_counters() {
        let src = "\
fn f(c: &Counters) {
    c.shed.fetch_add(1, Ordering::Relaxed);
    c.frames.fetch_add(1, Ordering::Relaxed);
}
";
        let (diags, _) = check("a.rs", src);
        assert_eq!(diags.len(), 1, "only the contract counter: {diags:?}");
        assert_eq!(diags[0].line, 2);

        let justified = "\
fn f(c: &Counters) {
    // ORDERING: outcome visibility is ordered by the queue mutex.
    c.shed.fetch_add(1, Ordering::Relaxed);
    c.expired.load(Ordering::Relaxed); // ORDERING: joined-reader tally
}
";
        assert!(check("a.rs", justified).0.is_empty());
    }

    #[test]
    fn l004_sees_through_multiline_chains() {
        let src = "\
fn f(s: &S) {
    s.counters
        .expired
        .fetch_add(1, Ordering::Relaxed);
}
";
        let (diags, _) = check("a.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        // Justification above the chain start is accepted.
        let justified = "\
fn f(s: &S) {
    // ORDERING: single-writer worker; snapshot uses Acquire.
    s.counters
        .expired
        .fetch_add(1, Ordering::Relaxed);
}
";
        assert!(check("a.rs", justified).0.is_empty());
    }

    #[test]
    fn l005_flags_narrowing_casts_in_scope() {
        let src = "fn enc(n: usize, out: &mut Vec<u8>) { let x = n as u32; let y = n as u64; }\n";
        let (diags, _) = check("crates/net/src/client.rs", src);
        assert_eq!(diags.len(), 1, "u64 widening is fine: {diags:?}");
        assert_eq!(diags[0].lint, LintId::L005);
        assert!(check("crates/serve/src/store.rs", src).0.is_empty());
    }

    #[test]
    fn suppressions_with_reasons_silence_diagnostics() {
        let src = "\
fn f() {
    // memcom-lint: allow(L001) -- exercised by the fixture tests
    unsafe { g() }
}
";
        let (diags, suppressed) = check("a.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn cfg_test_span_covers_use_items_without_braces() {
        let src = "\
#[cfg(test)]
use helper::panicky;
fn decode(b: &[u8]) -> u8 { b.first().copied().unwrap_or(0) }
";
        // The use item's span must end at its `;`, not swallow decode.
        let spans = test_spans(&lex(src).tokens);
        assert_eq!(spans, vec![(1, 2)]);
    }
}
