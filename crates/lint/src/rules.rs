//! The token-level determinism rules.
//!
//! Each rule scans the masked (code-only) view of the files in its
//! scope, so a banned construct quoted in a doc comment or an error
//! string never fires. Scopes are workspace-relative path prefixes —
//! the protocol crates (`cup-core`, `cup-simnet`, `cup-runtime`) are
//! policed; the experiment binaries, the test shims and the `cupbench`
//! package (which measures wall time for a living) stay out of scope.

use crate::engine::{masked_lines, Finding, PreparedFile, Rule, Workspace};

/// One row of the token-ban table: a set of constructs that may appear
/// in one designated file and nowhere else in a scope. Tests are policed
/// too — test code in these crates has no more business sleeping, or
/// running a fault gate by hand, than production code has.
pub struct TokenBan {
    /// Rule name, as pragmas and `LINT.json` spell it.
    pub name: &'static str,
    /// One-line description for the report.
    pub description: &'static str,
    /// Workspace-relative path prefixes the ban covers.
    pub scope: &'static [&'static str],
    /// The one file (by path suffix) that implements the banned thing
    /// and is therefore exempt.
    pub designated: &'static str,
    /// The banned constructs, matched in masked (code-only) text.
    pub banned: &'static [&'static str],
    /// What to do instead; appended to each finding.
    pub advice: &'static str,
}

/// Rule 1: **wall-clock** — no wall-time reads in the crates whose state
/// machines must take "now" exclusively from `cup_core::clock::Clock`.
/// `Instant::now(` covers every way of reading the monotonic clock;
/// sleeping and `SystemTime` are banned outright (a sleeping worker is a
/// timing-dependent flake waiting to happen; protocol state never needs
/// calendar time). Mirrored by `clippy.toml`'s `disallowed-methods` as
/// an independent second layer.
pub const WALL_CLOCK: TokenBan = TokenBan {
    name: "wall-clock",
    description: "protocol crates must take time from cup_core::clock::Clock, never the wall clock",
    scope: &["crates/core/src", "crates/runtime/src"],
    designated: "crates/core/src/clock.rs",
    banned: &["Instant::now(", "thread::sleep", "SystemTime"],
    advice: "use cup_core::clock::Clock instead",
};

/// Rule 6: **delivery-gate** — the fault gates and the justification
/// hook run in one fixed order inside the shared delivery kernel. A
/// runtime that calls one of them itself is growing a second copy of
/// the pipeline, which is how the DES and the live runtime came to hold
/// hand-synchronized twins in the first place.
pub const DELIVERY_GATE: TokenBan = TokenBan {
    name: "delivery-gate",
    description: "fault gates and the justify hook run only inside cup_faults::deliver",
    scope: &["crates/simnet/src", "crates/runtime/src"],
    designated: "crates/faults/src/deliver.rs",
    banned: &[
        "behavior_recv(",
        "behavior_send(",
        ".roll(",
        "on_update_delivered(",
        "is_crashed(",
    ],
    advice: "go through a cup_faults::Plane entry point (post_query, receive, replica_event, emit)",
};

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| path.starts_with(s))
}

impl Rule for TokenBan {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if !in_scope(&file.path, self.scope) || file.path.ends_with(self.designated) {
                continue;
            }
            for (line_no, line) in masked_lines(file, true) {
                for token in self.banned {
                    if line.contains(token) {
                        out.push(Finding::new(
                            self.name,
                            &file.path,
                            line_no,
                            format!("`{token}` — {}", self.advice),
                        ));
                    }
                }
            }
        }
    }
}

/// Scope of the iteration-order rule: everywhere protocol state or
/// metrics are produced.
pub const ITERATION_SCOPE: &[&str] =
    &["crates/core/src", "crates/simnet/src", "crates/runtime/src"];

/// Methods whose results depend on a hash map/set's iteration order.
const ORDER_DEPENDENT: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Rule 2: **unordered-iteration** — iterating a `HashMap`/`HashSet` in
/// a protocol crate. `std`'s hashers are seeded per instance, so any
/// order that leaks into message emission, metrics, or audit sampling
/// breaks sim-vs-live byte-identity. Fix by switching the container to
/// `BTreeMap`/`BTreeSet` or sorting before the drain; allow-pragma the
/// genuinely order-insensitive sites with a reason.
pub struct UnorderedIteration;

impl UnorderedIteration {
    /// Names in this file declared with a hash-ordered container type:
    /// field declarations (`name: HashMap<…>`, possibly wrapped, e.g.
    /// `name: Mutex<HashMap<…>>`) and let-bindings initialized from a
    /// constructor (`let name = HashMap::new()`). A heuristic, not an
    /// alias analysis — good enough to catch every real site in this
    /// workspace, and cheap enough to run as a tier-1 test.
    fn hash_named(file: &PreparedFile) -> Vec<String> {
        let mut names = Vec::new();
        for (_, line) in masked_lines(file, false) {
            if !(line.contains("HashMap") || line.contains("HashSet")) {
                continue;
            }
            if let Some(eq) = line.find('=') {
                let (lhs, rhs) = line.split_at(eq);
                if rhs.contains("HashMap::") || rhs.contains("HashSet::") {
                    if let Some(n) = last_ident(lhs) {
                        if !names.contains(&n) {
                            names.push(n);
                        }
                    }
                }
            } else {
                // Field or parameter declarations: `name: …HashMap<…>…`
                // per comma-separated segment (commas inside generics
                // and parens don't split).
                for seg in split_decl_segments(line) {
                    let Some(at) = first_decl_colon(seg) else {
                        continue;
                    };
                    let (lhs, rhs) = seg.split_at(at);
                    if !(rhs.contains("HashMap<") || rhs.contains("HashSet<")) {
                        continue;
                    }
                    if let Some(n) = last_ident(lhs) {
                        if !names.contains(&n) {
                            names.push(n);
                        }
                    }
                }
            }
        }
        names
    }
}

/// Splits a declaration line at commas that sit outside any bracket
/// pair, so `a: HashMap<K, V>, b: u64` yields two segments with the
/// right types attached.
fn split_decl_segments(line: &str) -> Vec<&str> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'<' | b'(' | b'[' => depth += 1,
            // `->` and `=>` are arrows, not closing angle brackets.
            b'>' if i > 0 && (b[i - 1] == b'-' || b[i - 1] == b'=') => {}
            b'>' | b')' | b']' => depth -= 1,
            b',' if depth <= 0 => {
                out.push(&line[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&line[start..]);
    out
}

/// Index of the first `:` on the line that is not part of `::`.
fn first_decl_colon(line: &str) -> Option<usize> {
    let b = line.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b':' {
            if i + 1 < b.len() && b[i + 1] == b':' {
                i += 2;
                continue;
            }
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Trailing identifier of a fragment, skipping trailing whitespace.
fn last_ident(fragment: &str) -> Option<String> {
    let trimmed = fragment.trim_end();
    let tail: String = trimmed
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!tail.is_empty() && !tail.chars().next().unwrap().is_ascii_digit()).then_some(tail)
}

/// True when `text[at]` starts `name` *as a whole identifier* (not a
/// suffix or prefix of a longer one).
fn ident_bounded(text: &str, at: usize, name: &str) -> bool {
    let b = text.as_bytes();
    let before_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
    let end = at + name.len();
    let after_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
    before_ok && after_ok
}

impl Rule for UnorderedIteration {
    fn name(&self) -> &'static str {
        "unordered-iteration"
    }

    fn description(&self) -> &'static str {
        "iteration over HashMap/HashSet in protocol crates (hash order is per-instance random)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if !in_scope(&file.path, ITERATION_SCOPE) {
                continue;
            }
            let names = Self::hash_named(file);
            if names.is_empty() {
                continue;
            }
            for (line_no, line) in masked_lines(file, false) {
                for name in &names {
                    // `name.keys()`, `self.name.retain(…)`, …
                    for method in ORDER_DEPENDENT {
                        let needle = format!("{name}{method}");
                        let mut from = 0;
                        while let Some(rel) = line[from..].find(&needle) {
                            let at = from + rel;
                            if ident_bounded(line, at, name) {
                                out.push(Finding::new(
                                    self.name(),
                                    &file.path,
                                    line_no,
                                    format!(
                                        "`{name}{method}` iterates a hash-ordered container \
                                         — convert to BTreeMap/BTreeSet or sort first"
                                    ),
                                ));
                            }
                            from = at + needle.len();
                        }
                    }
                    // `for … in &name` / `in &mut name` / `in name` —
                    // direct IntoIterator use without a method call.
                    if line.contains("for ") {
                        for pat in [
                            format!("in &mut self.{name}"),
                            format!("in &self.{name}"),
                            format!("in self.{name}"),
                            format!("in &mut {name}"),
                            format!("in &{name}"),
                            format!("in {name}"),
                        ] {
                            if let Some(at) = line.find(&pat) {
                                let name_at = at + pat.len() - name.len();
                                // A `.` after the name means a method
                                // call — the method list above owns it.
                                let methodish = line
                                    .as_bytes()
                                    .get(name_at + name.len())
                                    .is_some_and(|&c| c == b'.');
                                if ident_bounded(line, name_at, name) && !methodish {
                                    out.push(Finding::new(
                                        self.name(),
                                        &file.path,
                                        line_no,
                                        format!(
                                            "`for … {pat}` iterates a hash-ordered container \
                                             — convert to BTreeMap/BTreeSet or sort first"
                                        ),
                                    ));
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Scope of the atomics rule: the live runtime, whose counters must be
/// exact at every `quiesce()` barrier.
pub const ATOMIC_SCOPE: &[&str] = &["crates/runtime/src"];

/// Atomics that are pure monotone counters, only ever advanced with
/// `fetch_add`. `next_client` hands out client ids: uniqueness needs the
/// atomic read-modify-write, not an ordering, so Relaxed is sound *and*
/// the point. Traffic counters are not atomics at all: they live in the
/// shard-local state and are folded under the shard locks.
pub const MONOTONE_COUNTERS: &[&str] = &["next_client"];

/// Rule 3: **relaxed-atomic** — `Ordering::Relaxed` on an atomic that
/// is not a recognized monotone counter. Control-flow flags read by
/// workers (justification tracking, fault arming) must use at least
/// Acquire so a flip before a barrier is seen after it.
pub struct RelaxedAtomic;

impl RelaxedAtomic {
    /// Receiver field of the atomic-op call that `Ordering::Relaxed` at
    /// byte `at` is an argument of: scans back to the call's opening
    /// paren, then reads `receiver.method(` backwards. Works across
    /// rustfmt line wraps because it runs on the whole masked text.
    fn receiver(masked: &str, at: usize) -> Option<String> {
        let b = masked.as_bytes();
        let mut depth = 0i32;
        let mut i = at;
        let open = loop {
            if i == 0 {
                return None;
            }
            i -= 1;
            match b[i] {
                b')' | b']' => depth += 1,
                b'(' | b'[' => {
                    depth -= 1;
                    if depth < 0 {
                        break i;
                    }
                }
                _ => {}
            }
        };
        // `receiver.method(` — method ident directly before the paren.
        let method_end = open;
        let mut j = method_end;
        while j > 0 && (b[j - 1].is_ascii_alphanumeric() || b[j - 1] == b'_') {
            j -= 1;
        }
        if j == method_end {
            return None;
        }
        // Skip whitespace (rustfmt may wrap `.method(` onto its own
        // line), then require the `.` of a method call.
        let mut k = j;
        while k > 0 && (b[k - 1] as char).is_whitespace() {
            k -= 1;
        }
        if k == 0 || b[k - 1] != b'.' {
            return None;
        }
        k -= 1;
        while k > 0 && (b[k - 1] as char).is_whitespace() {
            k -= 1;
        }
        let recv_end = k;
        let mut r = recv_end;
        while r > 0 && (b[r - 1].is_ascii_alphanumeric() || b[r - 1] == b'_') {
            r -= 1;
        }
        (r < recv_end).then(|| masked[r..recv_end].to_string())
    }
}

impl Rule for RelaxedAtomic {
    fn name(&self) -> &'static str {
        "relaxed-atomic"
    }

    fn description(&self) -> &'static str {
        "Ordering::Relaxed on a non-monotone-counter atomic in the live runtime"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if !in_scope(&file.path, ATOMIC_SCOPE) {
                continue;
            }
            let masked = &file.masked_no_tests;
            let mut from = 0;
            while let Some(rel) = masked[from..].find("Ordering::Relaxed") {
                let at = from + rel;
                let line = masked[..at].bytes().filter(|&c| c == b'\n').count() + 1;
                match Self::receiver(masked, at) {
                    Some(recv) if MONOTONE_COUNTERS.contains(&recv.as_str()) => {}
                    recv => {
                        let what = recv.unwrap_or_else(|| "<unknown receiver>".to_string());
                        out.push(Finding::new(
                            self.name(),
                            &file.path,
                            line,
                            format!(
                                "Relaxed ordering on `{what}` — not a recognized monotone \
                                 counter; use Acquire/Release (or SeqCst) so the quiesce \
                                 barrier sees it"
                            ),
                        ));
                    }
                }
                from = at + "Ordering::Relaxed".len();
            }
        }
    }
}

/// Scope of the panic rule: the live worker dispatch path, and the
/// per-message path both runtimes share (the delivery kernel, the DES
/// engine and event queue every simulated event passes through, the DES
/// network that drives the kernel, the node handlers every delivery ends
/// in, and the key table and per-key record every handler starts from).
pub const PANIC_SCOPE: &[&str] = &[
    "crates/runtime/src",
    "crates/faults/src/deliver.rs",
    "crates/sim/src/event.rs",
    "crates/sim/src/engine.rs",
    "crates/simnet/src/network.rs",
    "crates/core/src/node.rs",
    "crates/core/src/keytable.rs",
    "crates/core/src/keystate.rs",
];

/// Rule 4: **panic-path** — `unwrap`/`expect` in per-message production
/// code. A panicking worker poisons the pool mid-run, and a panicking
/// DES loses the whole experiment; degradation must be drop-and-count
/// (`routing_failures`-style) so a run keeps its books instead of
/// dying. Start-up/shutdown sites carry allow-pragmas: before workers
/// exist and after they join, panicking is the correct report.
pub struct PanicPath;

impl Rule for PanicPath {
    fn name(&self) -> &'static str {
        "panic-path"
    }

    fn description(&self) -> &'static str {
        "unwrap/expect on the per-message path (runtimes must degrade, not die)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if !in_scope(&file.path, PANIC_SCOPE) {
                continue;
            }
            for (line_no, line) in masked_lines(file, false) {
                for token in [".unwrap()", ".expect("] {
                    let mut from = 0;
                    while let Some(rel) = line[from..].find(token) {
                        let at = from + rel;
                        out.push(Finding::new(
                            self.name(),
                            &file.path,
                            line_no,
                            format!(
                                "`{token}` on the per-message path — recover (e.g. \
                                 `unwrap_or_else(|e| e.into_inner())` for poisoned locks) \
                                 or drop-and-count"
                            ),
                        ));
                        from = at + token.len();
                    }
                }
            }
        }
    }
}
