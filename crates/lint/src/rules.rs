//! The eight repo invariants, as token-level checks over [`SourceFile`]s.
//!
//! Each rule documents its exact scope — what it fires on, what it
//! deliberately does not — because a lexical lint lives or dies by a
//! precisely-stated contract, not by aspiration.

use crate::source::{
    Finding, SourceFile, ATOMIC_ORDERING, BENCH_PROVENANCE, FLOAT_EXACTNESS, LOCK_HYGIENE,
    PANIC_HYGIENE, SINK_DISPATCH, STATS_CONSERVATION, SYNC_FACADE,
};

/// File classification derived from the root-relative path.
pub struct FileKind {
    /// `src/bin/**` or `crates/*/src/bin/**` — binaries may panic freely.
    pub is_bin: bool,
    /// Anywhere under `crates/bench/` — the benchmark harness.
    pub is_bench_crate: bool,
    /// One of the `vaq_geom` predicate modules the float rule audits.
    pub is_predicate_module: bool,
}

/// The `vaq_geom` predicate modules (under `crates/geom/src/`) the float
/// rule audits: these file names, and every file whose name starts with
/// [`PREDICATE_MODULE_PREFIX`].
pub const PREDICATE_MODULES: [&str; 3] = ["segment.rs", "polygon.rs", "power.rs"];
/// See [`PREDICATE_MODULES`].
pub const PREDICATE_MODULE_PREFIX: &str = "prepared";

pub fn classify(rel: &str) -> FileKind {
    let is_bin = rel.contains("/bin/") || rel == "src/main.rs";
    let is_bench_crate = rel.starts_with("crates/bench/");
    let is_predicate_module = rel
        .strip_prefix("crates/geom/src/")
        .is_some_and(|f| PREDICATE_MODULES.contains(&f) || f.starts_with(PREDICATE_MODULE_PREFIX));
    FileKind {
        is_bin,
        is_bench_crate,
        is_predicate_module,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when `needle` occurs in `hay` with no ident char butted against
/// either end (a whole-token match).
fn has_token(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(hay[..at].chars().next_back().unwrap());
        let after = at + needle.len();
        let after_ok = after >= hay.len() || !is_ident_char(hay[after..].chars().next().unwrap());
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 1: float-exactness
// ---------------------------------------------------------------------------

/// **float-exactness** — inside the `vaq_geom` predicate modules
/// (`segment.rs`, `polygon.rs`, `power.rs`, `prepared*.rs`), flags:
///
/// * a comparison operator (`==` `!=` `<` `>` `<=` `>=`) with a float
///   *literal* on either side — the classic "compare a computed float
///   against 0.0" hazard — **unless the comparison is routed through the
///   exact pipeline**: the line calls `orient2d`/`incircle` directly, or
///   the compared identifier is `let`-bound from one of them earlier in
///   the file (their results carry the exact sign, so a zero test on them
///   is the robust predicate itself). `orient2d_filter` results are
///   deliberately *not* exempt: the value is only certified when the
///   paired `ok` flag is true, which a token scanner cannot check — those
///   sites carry an allow-comment stating the guard. Comparisons between
///   two stored values (`a.y > b.y`) are exact as operations and are
///   deliberately not flagged, and `total_cmp` is always fine;
/// * `.partial_cmp(` — NaN-propagating ordering in predicate code;
/// * an `as f64` cast (int→float is lossy past 2^53, and in predicate
///   code it usually marks a computation leaving the exact pipeline);
/// * an `as usize` / `as u64` / `as i64` / `as u32` / `as i32` cast on a
///   line with float provenance (a float literal, `as f64`, or a
///   `.sqrt()`/`.ceil()`/`.floor()`/`.round()` call) — i.e. a candidate
///   float→int narrowing. Plain integer index widening (`ei as usize`)
///   is not flagged.
///
/// Every survivor must be routed through `orient2d`/expansion arithmetic
/// or carry an allow-comment justifying why the raw operation is exact.
pub fn float_exactness(file: &SourceFile, kind: &FileKind, out: &mut Vec<Finding>) {
    if !kind.is_predicate_module {
        return;
    }
    let exact_idents = exact_sign_idents(file);
    for (idx, code) in file.code.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        let mut msgs: Vec<String> = Vec::new();
        if line_has_unrouted_float_comparison(code, &exact_idents) {
            msgs.push(
                "raw comparison against a float literal in a predicate module \
                 (route through orient2d/expansion or annotate why it is exact)"
                    .to_owned(),
            );
        }
        if code.contains(".partial_cmp(") {
            msgs.push(
                "partial_cmp in a predicate module (use total_cmp or an exact comparator)"
                    .to_owned(),
            );
        }
        if has_token(code, "as") {
            if cast_to(code, "f64") {
                msgs.push(
                    "`as f64` cast in a predicate module (lossy past 2^53; annotate or \
                     compute in the exact pipeline)"
                        .to_owned(),
                );
            }
            let float_provenance = contains_float_literal(code)
                || cast_to(code, "f64")
                || [".sqrt(", ".ceil(", ".floor(", ".round("]
                    .iter()
                    .any(|m| code.contains(m));
            if float_provenance {
                for ty in ["usize", "u64", "i64", "u32", "i32"] {
                    if cast_to(code, ty) {
                        msgs.push(format!(
                            "`as {ty}` narrowing cast on a float-bearing line in a \
                             predicate module (truncation; annotate or avoid)"
                        ));
                        break;
                    }
                }
            }
        }
        for m in msgs {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: FLOAT_EXACTNESS,
                message: m,
            });
        }
    }
}

/// `… as <ty>` with token boundaries on both `as` and the type.
fn cast_to(code: &str, ty: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(" as ") {
        let at = start + pos;
        let rest = code[at + 4..].trim_start();
        if let Some(after) = rest.strip_prefix(ty) {
            if after.is_empty() || !is_ident_char(after.chars().next().unwrap()) {
                return true;
            }
        }
        start = at + 4;
    }
    false
}

fn contains_float_literal(code: &str) -> bool {
    find_float_literals(code).next().is_some()
}

/// Yields `(start, end)` byte ranges of float literals (`12.`, `12.5`,
/// `0.0`) in a code line. Stops the mantissa before a second `.` so range
/// syntax (`0.0..1.0`) yields two literals, not a mangled one.
fn find_float_literals(code: &str) -> impl Iterator<Item = (usize, usize)> + '_ {
    let b = code.as_bytes();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < b.len() {
            if b[i].is_ascii_digit() && (i == 0 || !is_ident_char(b[i - 1] as char)) {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                // field access / method call / range: only a `.` followed by
                // a digit (or end-of-number `.`) makes this a float literal
                if i < b.len() && b[i] == b'.' && !(i + 1 < b.len() && b[i + 1] == b'.') {
                    let frac_is_digits = i + 1 < b.len() && b[i + 1].is_ascii_digit();
                    let ends_number = i + 1 >= b.len() || !is_ident_char(b[i + 1] as char);
                    if frac_is_digits || ends_number {
                        i += 1;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                        return Some((start, i));
                    }
                }
                // plain integer: skip any suffix and keep scanning
                while i < b.len() && is_ident_char(b[i] as char) {
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        None
    })
}

/// Exact-sign predicate calls: results carry the true sign of the
/// underlying exact value, so comparing them against zero is robust.
/// `power_incircle` is its own token here — `has_token` treats the `_`
/// as an ident char, so the `incircle` entry does not match inside it.
pub const EXACT_SIGN_FNS: [&str; 4] = ["orient2d", "incircle", "expansion_sign", "power_incircle"];

/// Identifiers `let`-bound (as a plain name, not a tuple pattern) from a
/// direct `orient2d(...)`/`incircle(...)` call anywhere in the file.
/// File-scoped and flow-insensitive — a rebinding of the same name to an
/// unfiltered float later in the file would slip through — but predicate
/// code consistently names these `d1`/`o`/…, and the escape hatch exists
/// for anything the heuristic mis-judges.
fn exact_sign_idents(file: &SourceFile) -> Vec<String> {
    let mut idents: Vec<String> = Vec::new();
    for code in &file.code {
        let t = code.trim_start();
        let Some(rest) = t.strip_prefix("let ") else {
            continue;
        };
        let Some(eq) = rest.find('=') else {
            continue;
        };
        // `let d1 = …` / `let d1: f64 = …`; tuple patterns (orient2d_filter
        // destructuring) intentionally do not match.
        let name = rest[..eq].split(':').next().unwrap_or("").trim();
        if name.is_empty() || !name.chars().all(is_ident_char) {
            continue;
        }
        let rhs = &rest[eq + 1..];
        if EXACT_SIGN_FNS.iter().any(|f| has_token(rhs, f)) && !idents.iter().any(|i| i == name) {
            idents.push(name.to_owned());
        }
    }
    idents
}

/// A comparison operator directly adjacent (modulo spaces) to a float
/// literal on either side, where the compared expression is neither a
/// same-line exact-predicate call nor an exact-sign identifier.
fn line_has_unrouted_float_comparison(code: &str, exact_idents: &[String]) -> bool {
    if EXACT_SIGN_FNS.iter().any(|f| has_token(code, f)) {
        return false; // routed: the line computes the exact sign itself
    }
    for (start, end) in find_float_literals(code) {
        let before = code[..start].trim_end();
        let after = code[end..].trim_start();
        if ends_with_comparison(before) {
            let operand = trailing_ident(strip_comparison_suffix(before).trim_end());
            if !exact_idents.iter().any(|i| i == operand) {
                return true;
            }
        } else if starts_with_comparison(after) {
            let operand = leading_ident(strip_comparison_prefix(after).trim_start());
            if !exact_idents.iter().any(|i| i == operand) {
                return true;
            }
        }
    }
    false
}

fn strip_comparison_suffix(s: &str) -> &str {
    for op in ["==", "!=", "<=", ">="] {
        if let Some(rest) = s.strip_suffix(op) {
            return rest;
        }
    }
    s.strip_suffix(['<', '>']).unwrap_or(s)
}

fn strip_comparison_prefix(s: &str) -> &str {
    for op in ["==", "!=", "<=", ">="] {
        if let Some(rest) = s.strip_prefix(op) {
            return rest;
        }
    }
    s.strip_prefix(['<', '>']).unwrap_or(s)
}

/// The maximal ident-char run ending `s` (`""` when `s` ends in anything
/// else — a call, a close-paren — which never matches an exact ident).
fn trailing_ident(s: &str) -> &str {
    let start = s
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .last()
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    &s[start..]
}

fn leading_ident(s: &str) -> &str {
    let end = s
        .char_indices()
        .find(|(_, c)| !is_ident_char(*c))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    &s[..end]
}

fn ends_with_comparison(s: &str) -> bool {
    // two-char ops first; lone `<`/`>` must not be `<<`/`>>`/`->`/`=>`
    if s.ends_with("==") || s.ends_with("!=") || s.ends_with("<=") || s.ends_with(">=") {
        return true;
    }
    if (s.ends_with('<') && !s.ends_with("<<"))
        || (s.ends_with('>') && !s.ends_with(">>") && !s.ends_with("->") && !s.ends_with("=>"))
    {
        return true;
    }
    false
}

fn starts_with_comparison(s: &str) -> bool {
    if s.starts_with("==") || s.starts_with("!=") || s.starts_with("<=") || s.starts_with(">=") {
        return true;
    }
    (s.starts_with('<') && !s.starts_with("<<")) || (s.starts_with('>') && !s.starts_with(">>"))
}

// ---------------------------------------------------------------------------
// Rule 2: sink-dispatch
// ---------------------------------------------------------------------------

/// The one module that may dispatch on `OutputMode`, in `Sink::of`.
pub const SINK_MODULE: &str = "crates/core/src/sink.rs";

/// **sink-dispatch** — the single `match` over `OutputMode` lives in
/// `crates/core/src/sink.rs` (`Sink::of`); everywhere else, flags:
///
/// * `match` and `OutputMode` on the same line (matching the scrutinee),
/// * an `OutputMode::…  =>` match arm — with `OutputMode::` in *pattern*
///   position (before the `=>`); `… => Ok(OutputMode::Collect)` merely
///   constructs a mode in an arm body and is fine,
/// * `matches!(…OutputMode…)` / `if let OutputMode::…`.
///
/// This codifies the invariant that execution paths emit into the
/// `Sink` value `Sink::of` builds instead of re-growing per-mode
/// branches.
pub fn sink_dispatch(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.rel == SINK_MODULE {
        return;
    }
    for (idx, code) in file.code.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        if !code.contains("OutputMode") {
            continue;
        }
        let pattern_arm = match (code.find("OutputMode::"), code.find("=>")) {
            (Some(om), Some(arrow)) => om < arrow,
            _ => false,
        };
        let dispatchy = (has_token(code, "match") && code.contains("OutputMode"))
            || pattern_arm
            || (code.contains("matches!") && code.contains("OutputMode"))
            || (code.contains("if let") && code.contains("OutputMode::"));
        if dispatchy {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: SINK_DISPATCH,
                message: "OutputMode dispatch outside crates/core/src/sink.rs — build \
                          the sink with sink::Sink::of and emit into it instead"
                    .to_owned(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: stats-conservation
// ---------------------------------------------------------------------------

/// The struct the stats rule starts from, and the merge functions it
/// looks for in an `impl` of each audited struct, in order.
pub const STATS_ROOT: &str = "QueryStats";
/// See [`STATS_ROOT`].
pub const MERGE_FNS: [&str; 3] = ["absorb_shard", "absorb", "merge"];

/// **stats-conservation** — every public field of `QueryStats`, and of
/// any field type that itself defines an `absorb`/`absorb_shard`/`merge`
/// method (`CacheCounters`, `PredicateCounters`, `AccessStats`, …), must
/// be *mentioned* in that struct's merge body. A counter a merge never
/// touches is exactly the dropped-counter/double-count bug class the
/// `maybe_compact` regression exposed.
///
/// Exemptions are declared where they are decided: an allow-comment
/// inside the merge body (or on the field declaration) whose
/// justification names the field.
pub fn stats_conservation(files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut visited: Vec<String> = Vec::new();
    check_struct_merge(files, STATS_ROOT, &mut visited, out);
}

struct StructDef<'a> {
    file: &'a SourceFile,
    /// (0-based line, field name, field type token)
    fields: Vec<(usize, String, String)>,
}

fn check_struct_merge(
    files: &[SourceFile],
    name: &str,
    visited: &mut Vec<String>,
    out: &mut Vec<Finding>,
) {
    if visited.iter().any(|v| v == name) {
        return;
    }
    visited.push(name.to_owned());
    let Some(def) = find_struct(files, name) else {
        return;
    };
    let merge = find_merge_body(def.file, name);
    match merge {
        None => {
            if name == STATS_ROOT {
                out.push(Finding {
                    file: def.file.rel.clone(),
                    line: 1,
                    rule: STATS_CONSERVATION,
                    message: format!("struct {name} has no absorb_shard/absorb/merge method"),
                });
            }
        }
        Some((fn_line, body_range, fn_name)) => {
            let body_code: Vec<&str> = def.file.code[body_range.clone()]
                .iter()
                .map(|s| s.as_str())
                .collect();
            for (field_line, field, _ty) in &def.fields {
                let mentioned = body_code.iter().any(|l| has_token(l, field));
                if mentioned {
                    continue;
                }
                // in-body exemption whose justification names the field
                let exempted = def.file.raw[body_range.clone()].iter().any(|raw| {
                    match crate::source::parse_allow_comment(raw) {
                        Some(crate::source::AllowParse::Ok(a)) => {
                            a.rule == STATS_CONSERVATION && has_token(&a.justification, field)
                        }
                        _ => false,
                    }
                }) || def.file.allowed(*field_line, STATS_CONSERVATION);
                if !exempted {
                    out.push(Finding {
                        file: def.file.rel.clone(),
                        line: fn_line + 1,
                        rule: STATS_CONSERVATION,
                        message: format!(
                            "field `{field}` of {name} is never referenced in {name}::{fn_name} \
                             — sum it, or add an in-body allow naming `{field}`"
                        ),
                    });
                }
            }
        }
    }
    // recurse into mergeable field types
    for (_, _, ty) in &def.fields {
        let inner = ty
            .trim()
            .trim_start_matches("Option<")
            .trim_end_matches('>')
            .rsplit("::")
            .next()
            .unwrap_or("")
            .trim()
            .to_owned();
        if !inner.is_empty() && inner.chars().next().unwrap().is_ascii_uppercase() {
            check_struct_merge(files, &inner, visited, out);
        }
    }
}

fn find_struct<'a>(files: &'a [SourceFile], name: &str) -> Option<StructDef<'a>> {
    for file in files {
        for (idx, code) in file.code.iter().enumerate() {
            if file.in_test[idx] {
                continue;
            }
            let t = code.trim_start();
            let decl = format!("pub struct {name}");
            if !t.starts_with(&decl) {
                continue;
            }
            let after = &t[decl.len()..];
            if after.chars().next().map(is_ident_char).unwrap_or(false) {
                continue; // prefix of a longer name
            }
            if !code.contains('{') {
                return None; // tuple/unit struct: nothing to check
            }
            let mut fields = Vec::new();
            let mut depth = 0i64;
            for (j, line) in file.code.iter().enumerate().skip(idx) {
                depth += line.matches('{').count() as i64;
                depth -= line.matches('}').count() as i64;
                if j > idx {
                    let lt = line.trim_start();
                    if let Some(rest) = lt.strip_prefix("pub ") {
                        if let Some(colon) = rest.find(':') {
                            let fname = rest[..colon].trim();
                            if fname.chars().all(is_ident_char) && !fname.is_empty() {
                                let ty = rest[colon + 1..].trim().trim_end_matches(',').to_owned();
                                fields.push((j, fname.to_owned(), ty));
                            }
                        }
                    }
                }
                if depth <= 0 {
                    break;
                }
            }
            return Some(StructDef { file, fields });
        }
    }
    None
}

/// Finds `fn absorb_shard` / `fn absorb` / `fn merge` inside `impl <name>`
/// in the struct's file. Returns (fn line, body line range, fn name).
pub fn find_merge_body(
    file: &SourceFile,
    name: &str,
) -> Option<(usize, std::ops::Range<usize>, &'static str)> {
    let impl_decl = format!("impl {name}");
    let mut in_impl = false;
    let mut impl_exit = 0i64;
    let mut depth = 0i64;
    for fn_name in MERGE_FNS {
        let needle = format!("fn {fn_name}(");
        depth = 0;
        in_impl = false;
        for (idx, code) in file.code.iter().enumerate() {
            let opens = code.matches('{').count() as i64;
            let closes = code.matches('}').count() as i64;
            if !in_impl {
                let t = code.trim_start();
                if t.starts_with(&impl_decl)
                    && !t[impl_decl.len()..]
                        .chars()
                        .next()
                        .map(is_ident_char)
                        .unwrap_or(false)
                {
                    in_impl = true;
                    impl_exit = depth;
                }
            } else if code.contains(&needle) {
                // body: from this line's `{` to the matching close
                let mut d = 0i64;
                let mut started = false;
                for (j, l) in file.code.iter().enumerate().skip(idx) {
                    d += l.matches('{').count() as i64 - l.matches('}').count() as i64;
                    if l.contains('{') {
                        started = true;
                    }
                    if started && d <= 0 {
                        return Some((idx, idx..j + 1, fn_name));
                    }
                }
                return Some((idx, idx..file.code.len(), fn_name));
            }
            depth += opens - closes;
            if in_impl && depth <= impl_exit && closes > 0 {
                in_impl = false;
            }
        }
    }
    let _ = (in_impl, impl_exit, depth);
    None
}

// ---------------------------------------------------------------------------
// Rule 4: panic-hygiene
// ---------------------------------------------------------------------------

/// **panic-hygiene** — in library code (everything except binaries, the
/// bench harness crate, `tests/`/`benches/`/`examples/` trees and
/// `#[cfg(test)]` regions), flags:
///
/// * `.unwrap()` — always; convert to `?`/`expect` with an actionable
///   message, or annotate why it is infallible;
/// * `.expect("")` / `.expect()` — an expect that explains nothing is an
///   unwrap with extra steps (a non-empty message is allowed);
/// * `panic!` / `unreachable!` / `todo!` / `unimplemented!` — annotate
///   the contract that makes them unreachable, or return an error;
/// * indexing whose index starts with an integer literal (`v[0]`,
///   `&s[1..]`) — the empty-input panic class; `v[i]` with a computed
///   index is not flagged (the scanner cannot see bounds either way, and
///   loop indices are overwhelmingly bounds-derived).
///
/// `assert!`-family macros are deliberately allowed: they state
/// contracts, and the differential suites rely on them.
pub fn panic_hygiene(file: &SourceFile, kind: &FileKind, out: &mut Vec<Finding>) {
    if kind.is_bin || kind.is_bench_crate {
        return;
    }
    for (idx, code) in file.code.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        let mut msgs: Vec<String> = Vec::new();
        if code.contains(".unwrap()") {
            msgs.push(
                "naked unwrap() in library code (use ?/expect with an actionable message, \
                 or annotate why this cannot fail)"
                    .to_owned(),
            );
        }
        if let Some(pos) = code.find(".expect(") {
            let arg = code[pos + ".expect(".len()..].trim_start();
            if arg.starts_with(')') || arg.starts_with("\"\"") {
                msgs.push("expect() without a message is an unwrap with extra steps".to_owned());
            }
        }
        for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
            if has_token(code, &mac[..mac.len() - 1]) && code.contains(mac) {
                msgs.push(format!(
                    "{mac} in library code (return an error, or annotate the invariant \
                     that makes this unreachable)"
                ));
            }
        }
        if has_literal_index(code) {
            msgs.push(
                "slice indexing with a literal index/range start in library code \
                 (panics on short input; use get()/first(), or annotate the length invariant)"
                    .to_owned(),
            );
        }
        for m in msgs {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: PANIC_HYGIENE,
                message: m,
            });
        }
    }
}

/// `expr[<digit>…` where `expr` ends in an ident char, `)` or `]` —
/// i.e. indexing, not array literals/types (`[0u8; 4]`), attributes or
/// macro brackets (`vec![0; n]`).
fn has_literal_index(code: &str) -> bool {
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' || i == 0 {
            continue;
        }
        let prev = b[i - 1] as char;
        if !(is_ident_char(prev) || prev == ')' || prev == ']') {
            continue;
        }
        let mut j = i + 1;
        while j < b.len() && b[j] == b' ' {
            j += 1;
        }
        if j < b.len() && b[j].is_ascii_digit() {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 5: bench-provenance
// ---------------------------------------------------------------------------

/// The snapshot container magic's prefix, which marks a container writer.
pub const SNAPSHOT_MAGIC_PREFIX: &str = "VAQSNAP";

/// **bench-provenance** — artifacts that outlive the process must carry
/// their own provenance. Two writer classes are audited:
///
/// * any file under `crates/bench/` that names a `BENCH_*.json`
///   artifact (a baseline writer) must also reference the `provenance`
///   machinery, so every recorded number stays attributable to a git
///   revision, workload size and thread count;
/// * any file, in any crate, that embeds the snapshot container magic
///   (`VAQSNAP…`) in a literal (a container writer) must reference the
///   `git_revision` and `build_params` identifiers **in code** — the
///   container header reserves fields for both, and a writer that does
///   not populate them produces snapshots nobody can trace back to a
///   build. Comments promising provenance do not count.
pub fn bench_provenance(file: &SourceFile, kind: &FileKind, out: &mut Vec<Finding>) {
    if kind.is_bench_crate {
        // Writer detection looks at string literals only (`strings`
        // view): a doc comment *mentioning* a baseline is not a writer.
        let bench_line = file.strings.iter().enumerate().find_map(|(idx, line)| {
            (!file.in_test[idx] && line.contains("BENCH_") && line.contains(".json")).then_some(idx)
        });
        if let Some(idx) = bench_line {
            // The reference must be real — an identifier or a serialized
            // key (`strings` view: comments blanked, literal contents
            // kept). A doc comment promising provenance does not count.
            let has_provenance = file
                .strings
                .iter()
                .any(|l| has_token(l, "provenance") || has_token(l, "Provenance"));
            if !has_provenance {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: idx + 1,
                    rule: BENCH_PROVENANCE,
                    message: "BENCH_*.json writer without a `provenance` object — record git \
                              rev, workload sizes and thread count alongside the numbers"
                        .to_owned(),
                });
            }
        }
    }
    // Snapshot-container arm: the magic in a (byte-)string literal marks
    // a writer of the on-disk header, whatever crate it lives in.
    let magic_line = file.strings.iter().enumerate().find_map(|(idx, line)| {
        (!file.in_test[idx] && line.contains(SNAPSHOT_MAGIC_PREFIX)).then_some(idx)
    });
    if let Some(idx) = magic_line {
        // `code` view (literals and comments blanked): the identifiers
        // must appear in executable code, not in a comment or a doc
        // string describing the header.
        let embeds_both = file.code.iter().any(|l| has_token(l, "git_revision"))
            && file.code.iter().any(|l| has_token(l, "build_params"));
        if !embeds_both {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: BENCH_PROVENANCE,
                message: "snapshot container writer that never populates the header's \
                          provenance fields — embed `git_revision` and `build_params` in \
                          code, not comments"
                    .to_owned(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: atomic-ordering
// ---------------------------------------------------------------------------

/// The memory-ordering variants of `std::sync::atomic::Ordering`. Matching
/// on these (rather than bare `Ordering::`) keeps `std::cmp::Ordering`
/// arms (`Ordering::Less`, …) out of scope.
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The sync facade: the one module allowed to touch raw `std::sync`
/// primitives, and the only home of the documented `Relaxed` idiom.
pub const SYNC_FACADE_MODULE: &str = "crates/core/src/sync.rs";

/// **atomic-ordering** — outside `#[cfg(test)]` regions, every use of a
/// memory-ordering constant (`Ordering::Relaxed` / `Acquire` / `Release`
/// / `AcqRel` / `SeqCst`) must carry a `// ordering:` justification — on
/// the line itself or in the run of comment lines directly above — that
/// argues why that strength suffices. Additionally, `Ordering::Relaxed`
/// is permitted only inside the sync facade (`crates/core/src/sync.rs`),
/// where the claim-counter idiom documents why no cross-thread ordering
/// is needed; anywhere else `Relaxed` is a finding even when commented
/// (promote to the facade's `ClaimCounter`, use a stronger ordering, or
/// carry a justified allow).
///
/// `std::cmp::Ordering` (`Less`/`Equal`/`Greater`) never matches, and a
/// comment merely *mentioning* `Ordering::Relaxed` does not count as a
/// justification — the marker is the lowercase `ordering:` tag.
pub fn atomic_ordering(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, code) in file.code.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        let Some(variant) = ATOMIC_ORDERINGS
            .iter()
            .find(|v| code.contains(&format!("Ordering::{v}")))
        else {
            continue;
        };
        if *variant == "Relaxed" && file.rel != SYNC_FACADE_MODULE {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: ATOMIC_ORDERING,
                message: "Ordering::Relaxed outside the sync facade — the only sanctioned \
                          Relaxed idiom is the facade's ClaimCounter; use it, pick a \
                          stronger ordering, or carry a justified allow"
                    .to_owned(),
            });
            continue;
        }
        if !has_comment_tag(file, idx, "ordering:") {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: ATOMIC_ORDERING,
                message: format!(
                    "Ordering::{variant} without a `// ordering:` justification — state why \
                     this strength suffices on the line or directly above it"
                ),
            });
        }
    }
}

/// True when 0-based `line` carries a `// <tag>` justification: the tag
/// appears inside a trailing comment on the line itself, or anywhere in
/// the run of comment-only lines directly above (the same shape
/// [`SourceFile::allowed`] uses for allow comments).
fn has_comment_tag(file: &SourceFile, line: usize, tag: &str) -> bool {
    let on_line = file.raw[line]
        .find("//")
        .map(|p| file.raw[line][p..].contains(tag))
        .unwrap_or(false);
    if on_line {
        return true;
    }
    let mut i = line;
    while i > 0 {
        i -= 1;
        let trimmed = file.raw[i].trim_start();
        if !trimmed.starts_with("//") {
            return false;
        }
        if trimmed.contains(tag) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 7: lock-hygiene
// ---------------------------------------------------------------------------

/// Calls that enter a user-visible emit/merge/execute path. Holding a
/// lock guard across any of these serialises result production (and, for
/// sinks that call back into user code, risks re-entrant deadlock).
pub const GUARD_CROSSING: [&str; 6] = [
    ".emit(",
    ".merge(",
    ".run_sink(",
    ".run(",
    ".execute(",
    ".execute_batch(",
];

/// **lock-hygiene** — tracks lock guards bound by a single-line statement
/// `let <name> = <expr>.lock()…;` (with an optional trailing
/// `.expect("…")`/`.unwrap()`). While such a guard is live — until a
/// `drop(<name>)` or the end of its enclosing block — non-test code must
/// not:
///
/// * call into an emit/merge/execute path (`.emit(` / `.merge(` /
///   `.run_sink(` / `.run(` / `.execute(` / `.execute_batch(`) —
///   compute under the lock, release, then emit;
/// * acquire another lock (`.lock(`) without a `// lock-order:` comment
///   on the line or directly above declaring the global acquisition
///   order that makes the nesting deadlock-free.
///
/// Chained temporaries (`m.lock().expect("…").resolve(x)`) release their
/// guard at the end of the statement and are deliberately not tracked;
/// so are guards bound inside `if let`/`match` heads, which a line
/// scanner cannot scope reliably. The rule is about the *named-guard*
/// idiom the hot paths use.
pub fn lock_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    let mut depth = 0i64;
    // (guard name, brace depth at binding)
    let mut guards: Vec<(String, i64)> = Vec::new();
    for (idx, code) in file.code.iter().enumerate() {
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        if file.in_test[idx] {
            depth += opens - closes;
            guards.retain(|(_, d)| depth >= *d);
            continue;
        }
        guards.retain(|(name, _)| !code.contains(&format!("drop({name})")));
        if !guards.is_empty() {
            let held: Vec<&str> = guards.iter().map(|(n, _)| n.as_str()).collect();
            let held = held.join("`, `");
            for tok in GUARD_CROSSING {
                if code.contains(tok) {
                    out.push(Finding {
                        file: file.rel.clone(),
                        line: idx + 1,
                        rule: LOCK_HYGIENE,
                        message: format!(
                            "`{tok}…)` while lock guard `{held}` is held — drop the guard \
                             (or narrow its scope) before entering an emit/merge/execute path"
                        ),
                    });
                }
            }
            if code.contains(".lock(") && !has_comment_tag(file, idx, "lock-order:") {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: idx + 1,
                    rule: LOCK_HYGIENE,
                    message: format!(
                        "nested lock acquisition while guard `{held}` is held, without a \
                         `// lock-order:` comment declaring the acquisition order"
                    ),
                });
            }
        }
        if let Some(name) = guard_binding(code) {
            if name != "_" {
                guards.push((name, depth));
            }
        }
        depth += opens - closes;
        guards.retain(|(_, d)| depth >= *d);
    }
}

/// `let <name> = <expr>.lock()…;` on one line, where the tail after
/// stripping `.unwrap()` / `.expect(…)` wrappers is the `.lock()` call
/// itself — i.e. the binding captures a guard, not a projection through
/// one. Returns the bound name.
fn guard_binding(code: &str) -> Option<String> {
    let t = code.trim();
    let rest = t.strip_prefix("let ")?;
    let stmt = rest.trim_end().strip_suffix(';')?;
    let eq = stmt.find('=')?;
    let name = stmt[..eq]
        .trim()
        .trim_start_matches("mut ")
        .split(':')
        .next()
        .unwrap_or("")
        .trim()
        .to_owned();
    if name.is_empty() || !name.chars().all(is_ident_char) {
        return None;
    }
    let mut expr = stmt[eq + 1..].trim_end();
    loop {
        if let Some(s) = expr.strip_suffix(".unwrap()") {
            expr = s.trim_end();
            continue;
        }
        if let Some(s) = strip_trailing_simple_call(expr, ".expect(") {
            expr = s.trim_end();
            continue;
        }
        break;
    }
    if expr.ends_with(".lock()") {
        Some(name)
    } else {
        None
    }
}

/// When `expr` ends with `<opener>…)` and the `…` contains no nested
/// parens (string contents are blanked in the code view, so a message
/// argument qualifies), returns `expr` with that trailing call removed.
fn strip_trailing_simple_call<'a>(expr: &'a str, opener: &str) -> Option<&'a str> {
    let at = expr.rfind(opener)?;
    let inner = expr[at + opener.len()..].strip_suffix(')')?;
    if inner.contains('(') || inner.contains(')') {
        return None;
    }
    Some(&expr[..at])
}

// ---------------------------------------------------------------------------
// Rule 8: sync-facade
// ---------------------------------------------------------------------------

/// **sync-facade** — raw concurrency primitives live in one place:
/// `crates/core/src/sync.rs`. Everywhere else, non-test code must not
/// reference:
///
/// * `std::sync::atomic` (including `Ordering` imports — the facade
///   re-exports it),
/// * `std::sync::Mutex` / `RwLock` / `Condvar` / `Barrier` / `mpsc`,
///   whether path-qualified, in a `use std::sync::{…}` group, or via a
///   glob import,
/// * `crossbeam` (scoped threads route through `vaq_core::sync::scope`).
///
/// `Arc`, `Weak`, `Once*` and `LazyLock` are plain sharing/init tools
/// that carry no cross-thread mutable state and stay allowed. The point
/// of the confinement (same shape as sink-dispatch) is that every piece
/// of cross-thread mutable state is declared and justified in one
/// module — a raw primitive anywhere else would be shared state nobody
/// declared.
pub fn sync_facade(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.rel == SYNC_FACADE_MODULE {
        return;
    }
    for (idx, code) in file.code.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        if let Some(what) = facade_banned(code) {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: SYNC_FACADE,
                message: format!(
                    "raw std::sync {what} reference outside the sync facade — every piece \
                     of cross-thread mutable state is declared and justified in \
                     vaq_core::sync (crates/core/src/sync.rs); add it there"
                ),
            });
        }
        if has_token(code, "crossbeam") {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: SYNC_FACADE,
                message: "crossbeam use outside the sync facade — route scoped threads \
                          through vaq_core::sync::scope instead"
                    .to_owned(),
            });
        }
    }
}

/// The concrete `std::sync` item a line reaches for, when it is one the
/// facade confines. `Arc`/`Weak`/`Once`/`OnceLock`/`LazyLock` return
/// `None`.
fn facade_banned(code: &str) -> Option<&'static str> {
    const CONFINED: [&str; 6] = ["atomic", "mpsc", "Mutex", "RwLock", "Condvar", "Barrier"];
    let mut start = 0;
    while let Some(pos) = code[start..].find("std::sync::") {
        let at = start + pos + "std::sync::".len();
        let rest = &code[at..];
        for prim in CONFINED {
            if rest.starts_with(prim) {
                return Some(prim);
            }
        }
        if rest.starts_with('*') {
            return Some("glob import");
        }
        if rest.starts_with('{') {
            for prim in CONFINED {
                if has_token(rest, prim) {
                    return Some(prim);
                }
            }
        }
        start = at;
    }
    None
}
