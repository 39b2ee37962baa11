//! The audit rule table and per-rule lexical checks.
//!
//! Each rule is a small heuristic over the token stream produced by
//! [`crate::lexer`]. The heuristics are deliberately conservative and
//! local (statement-level), tuned for this workspace's idioms; anything
//! they over-flag is silenced with an explicit, reasoned
//! `audit:allow` so the judgment call is recorded in the source.

use crate::lexer::{Tok, TokKind};
use crate::SourceFile;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; reported but intended to be fixed promptly.
    Warn,
    /// Gate-failing.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule code (`D1`..`D6`, `A1`, `A2`).
    pub rule: &'static str,
    /// Severity of the rule.
    pub severity: Severity,
    /// Path of the offending file, relative to the audited root.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Static description of a rule, for `vne-audit explain` / `rules`.
pub struct RuleInfo {
    /// Short code (`D1`).
    pub code: &'static str,
    /// Mnemonic name (`hash-iter`).
    pub name: &'static str,
    /// Severity of findings from this rule.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// Longer rationale + how to fix, for `explain`.
    pub explain: &'static str,
}

/// The rule table. `A1`/`A2` are meta-rules about the suppression
/// mechanism itself.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "D1",
        name: "hash-iter",
        severity: Severity::Error,
        summary: "no iteration over HashMap/HashSet in fingerprint-bearing crates",
        explain: "Fingerprints (Summary::fingerprint and the streaming/sharded/resume \
parity batteries) require every drain of engine state to visit items in a \
deterministic order. std's HashMap/HashSet use RandomState, so keys()/values()/\
iter()/drain()/into_iter() visit in a per-process random order. In the crates \
that feed fingerprints (model, workload, lp, core, sim, shard) any iteration \
over a hash collection is flagged unless the same or the next statement sorts \
the result (an ident starting with `sort`) or collects into a BTreeMap/BTreeSet. \
Fix by switching the collection to BTreeMap/BTreeSet, by sorting right after \
collecting, or — when order provably cannot escape (e.g. building another map, \
or pure membership bookkeeping) — with an `audit:allow` and a reason.",
    },
    RuleInfo {
        code: "D2",
        name: "wall-clock",
        severity: Severity::Error,
        summary: "no Instant::now/SystemTime outside allowlisted timing seams",
        explain: "Wall-clock reads in simulation or embedding logic make runs \
non-reproducible. Instant::now and SystemTime are only allowed in the bench \
binaries (crates/bench/src/bin/) and at the explicit timing seams: the two \
loops that stamp StreamStats::online_secs (EngineState::run and \
ShardCoordinator::run — every driver, the serve actor included, closes its \
slots through one of them) and the serve actor's interval tick pacing — each \
such seam carries an `audit:allow(D2, ...)` naming itself. Everywhere else, \
thread timing state through those seams instead of reading the clock.",
    },
    RuleInfo {
        code: "D3",
        name: "raw-f64-accum",
        severity: Severity::Error,
        summary: "no bare `f64 +=` accumulation in metrics/observe/summary code",
        explain: "Floating-point addition is not associative; naive `acc += x` \
loops make metric values depend on accumulation order, which breaks \
cross-mode parity (batch vs streaming vs sharded). Files whose name contains \
`metrics`, `observe` or `summary` must route running sums through NeumaierSum \
(compensated summation). Plain `+= 1.0` counters are exempt (counting is \
exact), as is integer arithmetic. The two fields inside NeumaierSum itself are \
the canonical audit:allow sites.",
    },
    RuleInfo {
        code: "D4",
        name: "serve-panic",
        severity: Severity::Error,
        summary: "no unwrap()/expect()/panic! in serve connection-handler/actor paths",
        explain: "vne-serve is a daemon: a malformed peer or a transient OS error \
must never take the process down. In crates/serve/src/server.rs and \
crates/serve/src/actor.rs every unwrap(), expect() and panic! is flagged; \
replace them with typed errors (ServeError) or log-and-drop handling at the \
connection boundary.",
    },
    RuleInfo {
        code: "D5",
        name: "snapshot-pairing",
        severity: Severity::Error,
        summary: "every StateEncode impl must be named in a snapshot round-trip test",
        explain: "The checkpoint/resume guarantees are only as good as the codec \
coverage: a StateEncode impl with no round-trip test can silently drift from \
its StateDecode twin. For every `impl StateEncode for T` in the source tree \
(generic containers, tuples and primitive macro expansions excluded), some \
file under a tests/ directory that mentions `roundtrip`/`round_trip` must name \
T. Fix by adding the type to a state round-trip test.",
    },
    RuleInfo {
        code: "D6",
        name: "thread-spawn",
        severity: Severity::Error,
        summary: "no thread::spawn outside scoped/actor seams",
        explain: "Free-floating threads outlive the state they capture and are a \
determinism and shutdown hazard. Outside crates/serve/src/ (the actor seam) \
and the bench binaries, spawning is only allowed through std::thread::scope \
(receivers named `scope`/`s`), which joins deterministically. Flagged: \
`thread::spawn(..)` and `.spawn(..)` on other receivers.",
    },
    RuleInfo {
        code: "A1",
        name: "allow-syntax",
        severity: Severity::Error,
        summary: "audit:allow directives must name a known rule and carry a reason",
        explain: "Suppressions are part of the audit record: `audit:allow(D1, \
\"reason\")` must reference a rule that exists (by code or name) and must \
include a non-empty quoted reason. A bare allow with no reason, or one naming \
an unknown rule, is itself an error.",
    },
    RuleInfo {
        code: "A2",
        name: "unused-allow",
        severity: Severity::Warn,
        summary: "audit:allow that suppresses nothing",
        explain: "An allow that no longer matches any finding is stale — the code \
it excused was fixed or moved. Delete it so the remaining allows stay an \
accurate map of the judgment calls in the tree.",
    },
];

/// Looks a rule up by code (`D1`) or name (`hash-iter`).
pub fn rule_by_key(key: &str) -> Option<&'static RuleInfo> {
    RULES
        .iter()
        .find(|r| r.code.eq_ignore_ascii_case(key) || r.name == key)
}

/// Crates whose state feeds golden fingerprints (D1 scope). Names are
/// directory names under `crates/`.
const FINGERPRINT_CRATES: &[&str] = &["model", "workload", "lp", "core", "sim", "shard"];

/// Hash-collection methods whose iteration order is nondeterministic.
const HASH_ITER_METHODS: &[&str] = &[
    "keys",
    "values",
    "values_mut",
    "iter",
    "iter_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Splits a token stream into statement-ish ranges: boundaries at `;`,
/// `{` and `}`. Good enough for the local look-arounds the rules need.
fn statements(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct(b';') || t.is_punct(b'{') || t.is_punct(b'}') {
            if i > start {
                out.push((start, i));
            }
            start = i + 1;
        }
    }
    if toks.len() > start {
        out.push((start, toks.len()));
    }
    out
}

/// Whether a statement slice contains an exemption for D1: an ident
/// starting with `sort`, or an ordered-collection name (the drain is
/// being poured into a BTree).
fn stmt_sorts(toks: &[Tok]) -> bool {
    toks.iter().any(|t| {
        t.ident().is_some_and(|s| {
            s.starts_with("sort") || s == "BTreeMap" || s == "BTreeSet" || s == "BinaryHeap"
        })
    })
}

/// Runs the single-file rules (D1, D2, D3, D4, D6) over one source file.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.lexed.toks;
    let stmts = statements(toks);

    if FINGERPRINT_CRATES.contains(&file.crate_name.as_str()) {
        check_hash_iter(file, toks, &stmts, &mut out);
    }
    check_wall_clock(file, toks, &mut out);
    if is_metric_file(&file.rel) {
        check_raw_accum(file, toks, &stmts, &mut out);
    }
    if file.rel == "crates/serve/src/server.rs" || file.rel == "crates/serve/src/actor.rs" {
        check_serve_panic(file, toks, &mut out);
    }
    if !file.rel.starts_with("crates/serve/src/") && !file.rel.starts_with("crates/bench/src/bin/")
    {
        check_thread_spawn(file, toks, &mut out);
    }
    out
}

fn is_metric_file(rel: &str) -> bool {
    let stem = rel.rsplit('/').next().unwrap_or(rel);
    stem.contains("metrics") || stem.contains("observe") || stem.contains("summary")
}

fn finding(code: &'static str, file: &SourceFile, line: u32, message: String) -> Finding {
    let info = rule_by_key(code).expect("rule codes in this module are valid");
    Finding {
        rule: info.code,
        severity: info.severity,
        file: file.rel.clone(),
        line,
        message,
    }
}

/// D1: iteration over hash collections. Two passes — bind names whose
/// type or initializer mentions HashMap/HashSet, then flag iteration
/// methods on those receivers unless the statement (or the next one)
/// sorts.
fn check_hash_iter(
    file: &SourceFile,
    toks: &[Tok],
    stmts: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    let mut bound: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for &(s, e) in stmts {
        let st = &toks[s..e];
        let hash_positions: Vec<usize> = st
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("HashMap") || t.is_ident("HashSet"))
            .map(|(i, _)| i)
            .collect();
        if hash_positions.is_empty() {
            continue;
        }
        // Binder candidates within the statement: `name :` (single
        // colon, not part of a path) and `name =` (plain assignment).
        let mut binders: Vec<(usize, &str)> = Vec::new();
        if let Some(name) = let_binding_name(st) {
            binders.push((0, name));
        }
        for i in 0..st.len() {
            let Some(name) = st[i].ident() else { continue };
            let next = st.get(i + 1);
            let after = st.get(i + 2);
            let prev = i.checked_sub(1).map(|p| &st[p]);
            let single_colon = next.is_some_and(|t| t.is_punct(b':'))
                && !after.is_some_and(|t| t.is_punct(b':'))
                && !prev.is_some_and(|t| t.is_punct(b':'));
            let plain_eq = next.is_some_and(|t| t.is_punct(b'='))
                && !after.is_some_and(|t| t.is_punct(b'=') || t.is_punct(b'>'))
                && !prev.is_some_and(|t| {
                    matches!(t.kind, TokKind::Punct(c) if matches!(c, b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/'))
                });
            if single_colon || plain_eq {
                binders.push((i, name));
            }
        }
        // Attribute each HashMap/HashSet mention to the nearest binder
        // before it.
        for h in hash_positions {
            if let Some(&(_, name)) = binders.iter().rev().find(|&&(i, _)| i < h) {
                bound.insert(name.to_string());
            }
        }
    }

    for (si, &(s, e)) in stmts.iter().enumerate() {
        let st = &toks[s..e];
        for i in 0..st.len() {
            if !st[i].is_punct(b'.') {
                continue;
            }
            let Some(method) = st.get(i + 1).and_then(Tok::ident) else {
                continue;
            };
            if !HASH_ITER_METHODS.contains(&method) {
                continue;
            }
            if !st.get(i + 2).is_some_and(|t| t.is_punct(b'(')) {
                continue;
            }
            let Some(recv) = i.checked_sub(1).and_then(|p| st[p].ident()) else {
                continue;
            };
            if !bound.contains(recv) {
                continue;
            }
            let next_sorts = stmts
                .get(si + 1)
                .is_some_and(|&(ns, ne)| stmt_sorts(&toks[ns..ne]));
            if stmt_sorts(st) || next_sorts {
                continue;
            }
            out.push(finding(
                "D1",
                file,
                st[i + 1].line,
                format!(
                    "`{recv}.{method}()` iterates a hash collection in a fingerprint crate; \
use BTreeMap/BTreeSet or sort the drain"
                ),
            ));
        }
    }
}

/// Extracts the bound name from a statement starting with `let [mut] name`.
fn let_binding_name(st: &[Tok]) -> Option<&str> {
    if !st.first()?.is_ident("let") {
        return None;
    }
    let mut i = 1;
    if st.get(i)?.is_ident("mut") {
        i += 1;
    }
    st.get(i)?.ident()
}

/// D2: wall-clock reads.
fn check_wall_clock(file: &SourceFile, toks: &[Tok], out: &mut Vec<Finding>) {
    if file.rel.starts_with("crates/bench/src/bin/") {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(finding(
                "D2",
                file,
                t.line,
                "`Instant::now()` outside an allowlisted timing seam".to_string(),
            ));
        }
        if t.is_ident("SystemTime") && !toks.get(i + 1).is_some_and(|t| t.is_ident("Error")) {
            out.push(finding(
                "D2",
                file,
                t.line,
                "`SystemTime` outside an allowlisted timing seam".to_string(),
            ));
        }
    }
}

/// D3: bare `+=` accumulation in metric files. A target is suspicious
/// if it is f64-bound (via `name: f64` or `name = <float literal>`) or
/// the right-hand side mentions a float literal; `+= 1.0` / `+= 1`
/// counters are exact and exempt.
fn check_raw_accum(
    file: &SourceFile,
    toks: &[Tok],
    stmts: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    let mut f64_bound: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        // `name : f64` (single colon).
        if toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && toks
                .get(i + 2)
                .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"))
        {
            f64_bound.insert(name.to_string());
        }
        // `name = 0.0` style initialization.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(b'='))
            && matches!(
                toks.get(i + 2).map(|t| &t.kind),
                Some(TokKind::Num { float: true, .. })
            )
        {
            f64_bound.insert(name.to_string());
        }
    }

    for &(s, e) in stmts {
        let st = &toks[s..e];
        for i in 0..st.len().saturating_sub(1) {
            if !(st[i].is_punct(b'+') && st[i + 1].is_punct(b'=')) {
                continue;
            }
            let target = i.checked_sub(1).and_then(|p| st[p].ident());
            let rhs = &st[i + 2..];
            // Exact-counting exemption: `+= 1.0` or `+= 1`.
            if rhs.len() == 1 {
                if let TokKind::Num { text, .. } = &rhs[0].kind {
                    if text == "1" || text == "1.0" {
                        continue;
                    }
                }
            }
            let rhs_float = rhs
                .iter()
                .any(|t| matches!(&t.kind, TokKind::Num { float: true, .. }));
            let target_f64 = target.is_some_and(|n| f64_bound.contains(n));
            if target_f64 || rhs_float {
                out.push(finding(
                    "D3",
                    file,
                    st[i].line,
                    format!(
                        "bare `{} += ..` float accumulation; route through NeumaierSum",
                        target.unwrap_or("_")
                    ),
                ));
            }
        }
    }
}

/// D4: panicking calls in the serve daemon paths.
fn check_serve_panic(file: &SourceFile, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct(b'.') {
            let Some(m) = toks.get(i + 1).and_then(Tok::ident) else {
                continue;
            };
            if (m == "unwrap" || m == "expect") && toks.get(i + 2).is_some_and(|t| t.is_punct(b'('))
            {
                out.push(finding(
                    "D4",
                    file,
                    toks[i + 1].line,
                    format!(
                        "`.{m}()` can panic in a daemon path; return a typed error or log-and-drop"
                    ),
                ));
            }
        }
        if t.is_ident("panic") && toks.get(i + 1).is_some_and(|t| t.is_punct(b'!')) {
            out.push(finding(
                "D4",
                file,
                t.line,
                "`panic!` in a daemon path; return a typed error or log-and-drop".to_string(),
            ));
        }
    }
}

/// D6: thread spawning outside scoped/actor seams.
fn check_thread_spawn(file: &SourceFile, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("thread")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("spawn"))
        {
            out.push(finding(
                "D6",
                file,
                t.line,
                "`thread::spawn` outside the serve actor seam; use std::thread::scope".to_string(),
            ));
        }
        if t.is_punct(b'.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("spawn"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(b'('))
        {
            let recv = i.checked_sub(1).and_then(|p| toks[p].ident());
            if matches!(recv, Some("scope" | "s")) {
                continue;
            }
            out.push(finding(
                "D6",
                file,
                toks[i + 1].line,
                "`.spawn(..)` on a non-scope receiver outside the serve actor seam".to_string(),
            ));
        }
    }
}

/// Type names exempt from D5 pairing: generic containers, primitives
/// and codec plumbing whose round-trips are exercised transitively.
const D5_SKIP: &[&str] = &[
    "Vec", "Option", "BTreeMap", "BTreeSet", "String", "str", "bool", "char", "u8", "u16", "u32",
    "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32", "f64",
];

/// D5: every concrete `impl StateEncode for T` must have T named in a
/// round-trip test file. `code` is the walked source set, `tests` the
/// test-tree corpus.
pub fn check_pairing(code: &[SourceFile], tests: &[SourceFile]) -> Vec<Finding> {
    // Names mentioned in any test file that talks about round-trips.
    let mut covered: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for tf in tests {
        let is_roundtrip = tf.rel.contains("roundtrip")
            || tf.lexed.toks.iter().any(|t| {
                t.ident()
                    .is_some_and(|s| s.contains("roundtrip") || s.contains("round_trip"))
            });
        if !is_roundtrip {
            continue;
        }
        for t in &tf.lexed.toks {
            if let Some(s) = t.ident() {
                covered.insert(s);
            }
        }
    }

    let mut out = Vec::new();
    for file in code {
        let toks = &file.lexed.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("StateEncode") {
                continue;
            }
            if !toks.get(i + 1).is_some_and(|t| t.is_ident("for")) {
                continue;
            }
            let Some(ty_tok) = toks.get(i + 2) else {
                continue;
            };
            if ty_tok.ident().is_none() {
                // Tuples `(A, B)`, references `&T`, macro `$t` — skip.
                continue;
            }
            // Resolve a path type (`crate::embedding::Footprint`) to
            // its final segment.
            let mut ty_tok = ty_tok;
            let mut j = i + 2;
            while toks.get(j + 1).is_some_and(|t| t.is_punct(b':'))
                && toks.get(j + 2).is_some_and(|t| t.is_punct(b':'))
                && toks.get(j + 3).is_some_and(|t| t.ident().is_some())
            {
                j += 3;
                ty_tok = &toks[j];
            }
            let ty = ty_tok.ident().unwrap_or_default();
            if D5_SKIP.contains(&ty) {
                continue;
            }
            if covered.contains(ty) {
                continue;
            }
            out.push(Finding {
                rule: "D5",
                severity: Severity::Error,
                file: file.rel.clone(),
                line: ty_tok.line,
                message: format!(
                    "`impl StateEncode for {ty}` has no snapshot round-trip test naming `{ty}`"
                ),
            });
        }
    }
    out
}
