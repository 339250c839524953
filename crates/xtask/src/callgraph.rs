//! Workspace call graph and the transitive rules built on it.
//!
//! The graph is built from [`crate::parser::FileAnalysis`] of every
//! library file in the four panic-free crates. Call edges are resolved
//! *by name*, conservatively:
//!
//! * method calls (`x.f(...)`) link to **every** workspace method named
//!   `f` (dynamic dispatch over-approximation — a trait call must reach
//!   all impls);
//! * qualified calls (`Q::f(...)`) link to functions declared in an
//!   `impl Q`/`trait Q` scope; an uppercase qualifier with no workspace
//!   match is an external type (`Vec::new`) and produces no edge, while
//!   a lowercase qualifier is a module path and falls back to free-
//!   function resolution;
//! * free calls link to same-file, then same-crate, then any workspace
//!   function of that name.
//!
//! Closures are invisible to the graph (a call through a closure
//! parameter resolves to nothing), but the *bodies* of closures are
//! token ranges of their defining function, so their call sites are
//! attributed to the enclosing function — the common
//! `descend(node, &mut |entry| out.push(entry))` shape keeps the
//! caller's pushes attributed to the caller, where the `&mut`-parameter
//! exemption can judge them. Shims, workloads, and benches sit outside
//! the graph by design: they are the documented trust boundary.

use crate::parser::{Call, CallKind, EnumInfo, FileAnalysis, FnInfo, HotPathMarker, QualRef};
use crate::rules::{Severity, Violation};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Crates included in the graph (same set as the panic-free rule).
pub const GRAPH_CRATES: [&str; 4] = [
    "crates/linalg",
    "crates/gaussian",
    "crates/rtree",
    "crates/core",
];

/// Allocation-site method names (`x.f(...)` shapes that allocate).
const ALLOC_METHODS: [&str; 9] = [
    "push",
    "extend",
    "append",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "insert",
];

/// Allocation-site constructor paths (`Type::f(...)` shapes).
const ALLOC_TYPES: [&str; 7] = [
    "Vec",
    "Box",
    "String",
    "VecDeque",
    "BinaryHeap",
    "BTreeMap",
    "HashMap",
];

/// Allocation-site macros.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Blocking-acquisition method names (`x.lock()` / `x.read()` /
/// `x.write()`). `read`/`write` over-approximate into `io::Read`/
/// `io::Write` — intentionally: blocking I/O on a hot path is as bad as
/// a lock, and a genuine false positive is an allowlist entry away.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Lock-type qualifiers for path-call shapes (`Mutex::lock(&m)`).
const LOCK_TYPES: [&str; 2] = ["Mutex", "RwLock"];

/// Crates whose acquisition sites feed the `lock-order` rule: the graph
/// crates plus the observability layer, which owns the workspace's only
/// real `Mutex`. Kept separate from [`GRAPH_CRATES`] so `crates/obs`
/// does not enter the hot-path/panic-reachability universe.
pub const LOCK_CRATES: [&str; 5] = [
    "crates/linalg",
    "crates/gaussian",
    "crates/rtree",
    "crates/core",
    "crates/obs",
];

/// Acquisition method names for the lock-order graph.
const ORDER_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Lock-type qualifiers for path-call acquisition shapes.
const ORDER_TYPES: [&str; 2] = ["Mutex", "RwLock"];

/// Panic-family macros checked by the reachability rule. `debug_assert*`
/// is exempt: compiled out of release builds.
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Summary counts for the report.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallGraphStats {
    /// Functions in the graph (non-test, graph crates).
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// `// HOT-PATH:` roots.
    pub hot_roots: usize,
    /// Public entry points (panic-reachability roots).
    pub pub_roots: usize,
    /// Lock-acquisition sites in the lock-order graph.
    pub lock_sites: usize,
    /// Held-then-acquire edges between lock classes.
    pub lock_edges: usize,
}

/// One lock-acquisition site in the lock-order graph.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock class — the receiver identifier for method shapes
    /// (`inner` in `self.inner.lock()`), the type qualifier for path
    /// shapes (`Mutex` in `Mutex::lock(&m)`). A heuristic: two locks
    /// behind the same field name share a class, which over-merges
    /// (conservative for cycle detection) rather than over-splits.
    pub class: String,
    /// Human description of the acquisition shape.
    pub desc: String,
    /// Defining file (workspace-relative).
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Qualified name of the containing fn.
    pub fn_qual: String,
}

/// One held-then-acquire edge: some function acquires class `from` and
/// then — directly, or via a callee — acquires class `to` before the
/// first can be assumed released.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Class held first.
    pub from: String,
    /// Class acquired second.
    pub to: String,
    /// Human-readable evidence chain for the edge.
    pub witness: String,
    /// File of the first acquisition.
    pub path: String,
    /// Line anchoring the edge (the second acquisition or the call
    /// that reaches it).
    pub line: usize,
}

/// The merged workspace analysis plus the resolved call graph.
pub struct Analysis {
    /// Graph nodes: non-test functions of the graph crates.
    pub fns: Vec<FnInfo>,
    /// All parsed enums (workspace-wide).
    pub enums: Vec<EnumInfo>,
    /// All `// HOT-PATH:` markers (workspace-wide).
    pub hot_markers: Vec<HotPathMarker>,
    /// All `Qual::name` references (workspace-wide, incl. tests).
    pub qual_refs: Vec<QualRef>,
    /// `edges[i]` = indices of functions `fns[i]` may call.
    pub edges: Vec<Vec<usize>>,
    edge_count: usize,
    /// Acquisition sites in the lock-order universe ([`LOCK_CRATES`]),
    /// sorted by (path, line).
    pub lock_sites: Vec<LockSite>,
    /// Held-then-acquire edges between distinct lock classes, deduped
    /// by (from, to) and sorted.
    pub lock_edges: Vec<LockEdge>,
}

fn crate_of(path: &str) -> &str {
    let mut parts = path.splitn(3, '/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(c)) => c,
        _ => "",
    }
}

fn in_graph(path: &str) -> bool {
    GRAPH_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("{c}/src/")))
}

fn in_lock_graph(path: &str) -> bool {
    LOCK_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("{c}/src/")))
}

impl Analysis {
    /// Merges per-file analyses and resolves call edges.
    pub fn build(files: &[(String, FileAnalysis)]) -> Analysis {
        let mut fns = Vec::new();
        let mut enums = Vec::new();
        let mut hot_markers = Vec::new();
        let mut qual_refs = Vec::new();
        let mut lock_fns = Vec::new();
        for (path, fa) in files {
            // Dogfooding exclusion: the auditor's own sources mention
            // marker strings and enum names as rule data.
            if path.starts_with("crates/xtask") {
                continue;
            }
            enums.extend(fa.enums.iter().cloned());
            hot_markers.extend(fa.hot_markers.iter().cloned());
            qual_refs.extend(fa.qual_refs.iter().cloned());
            if in_graph(path) {
                fns.extend(fa.fns.iter().filter(|f| !f.in_test).cloned());
            }
            if in_lock_graph(path) {
                lock_fns.extend(fa.fns.iter().filter(|f| !f.in_test).cloned());
            }
        }
        let (lock_sites, lock_edges) = build_lock_graph(&lock_fns);

        // Name indexes.
        let mut by_qual_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if let Some(q) = &f.qual {
                by_qual_name
                    .entry((q.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
            if f.has_self {
                methods_by_name.entry(f.name.clone()).or_default().push(i);
            } else {
                free_by_name.entry(f.name.clone()).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut edge_count = 0usize;
        for i in 0..fns.len() {
            let mut targets = BTreeSet::new();
            for call in &fns[i].calls {
                resolve(
                    &fns,
                    i,
                    call,
                    &by_qual_name,
                    &methods_by_name,
                    &free_by_name,
                    &mut targets,
                );
            }
            edge_count += targets.len();
            edges[i] = targets.into_iter().collect();
        }
        Analysis {
            fns,
            enums,
            hot_markers,
            qual_refs,
            edges,
            edge_count,
            lock_sites,
            lock_edges,
        }
    }

    /// Report summary counts.
    pub fn stats(&self) -> CallGraphStats {
        CallGraphStats {
            functions: self.fns.len(),
            edges: self.edge_count,
            hot_roots: self.fns.iter().filter(|f| f.hot_marker.is_some()).count(),
            pub_roots: self.fns.iter().filter(|f| f.is_pub).count(),
            lock_sites: self.lock_sites.len(),
            lock_edges: self.lock_edges.len(),
        }
    }

    /// Multi-source BFS. Returns `pred[i] = Some(j)` for each reached
    /// node (`pred[root] = Some(root)`), `None` for unreached.
    fn reach(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut pred: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if pred[r].is_none() {
                pred[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if pred[v].is_none() {
                    pred[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        pred
    }

    /// Renders the predecessor chain `root -> ... -> target` as
    /// qualified names.
    fn chain(&self, pred: &[Option<usize>], target: usize) -> Vec<String> {
        let mut chain = vec![self.fns[target].qual_name()];
        let mut cur = target;
        // Bounded walk: a predecessor cycle cannot exceed the node count.
        for _ in 0..self.fns.len() {
            match pred[cur] {
                Some(p) if p != cur => {
                    chain.push(self.fns[p].qual_name());
                    cur = p;
                }
                _ => break,
            }
        }
        chain.reverse();
        chain
    }

    /// `hot-path-alloc`: no allocation site reachable from a
    /// `// HOT-PATH:` root. `.push`/`.extend`/`.append` on a receiver
    /// that is a `&mut` parameter of the enclosing function is exempt
    /// (the caller-owned-buffer shape the rule exists to encourage).
    /// Dangling markers (not attached to any `fn`) are violations too.
    pub fn check_hot_path_alloc(&self, sources: &Sources, out: &mut Vec<Violation>) {
        for m in &self.hot_markers {
            if m.attached_fn.is_none() {
                out.push(Violation {
                    rule: "hot-path-alloc",
                    path: m.path.clone(),
                    line: m.line,
                    snippet: sources.line(&m.path, m.line),
                    message: "dangling `// HOT-PATH:` marker — no `fn` starts within \
                              the attachment window below it"
                        .to_owned(),
                    severity: Severity::Error,
                    chain: Vec::new(),
                });
            }
        }
        let roots: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.hot_marker.is_some())
            .map(|(i, _)| i)
            .collect();
        let pred = self.reach(&roots);
        for (i, f) in self.fns.iter().enumerate() {
            if pred[i].is_none() {
                continue;
            }
            for call in &f.calls {
                let Some(desc) = alloc_site(f, call) else {
                    continue;
                };
                let mut chain = self.chain(&pred, i);
                chain.push(format!("<{desc}>"));
                out.push(Violation {
                    rule: "hot-path-alloc",
                    path: f.path.clone(),
                    line: call.line,
                    snippet: sources.line(&f.path, call.line),
                    message: format!(
                        "allocation site `{desc}` reachable from hot root \
                         `{}` — hot paths allocate nothing per candidate \
                         (DESIGN.md §7); reuse a caller-owned buffer",
                        chain.first().cloned().unwrap_or_default()
                    ),
                    severity: Severity::Error,
                    chain,
                });
            }
        }
    }

    /// `hot-path-lock`: no blocking lock acquisition transitively
    /// reachable from a `// HOT-PATH:` root. Concurrent readers share
    /// published immutable snapshots and take a lock only to clone the
    /// snapshot handle, before the descent; a `Mutex`/`RwLock` acquired
    /// under a hot root reintroduces writer-stalls-readers.
    /// Dangling markers are already reported by `check_hot_path_alloc`,
    /// so this rule only walks the reachable set.
    pub fn check_hot_path_lock(&self, sources: &Sources, out: &mut Vec<Violation>) {
        let roots: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.hot_marker.is_some())
            .map(|(i, _)| i)
            .collect();
        let pred = self.reach(&roots);
        for (i, f) in self.fns.iter().enumerate() {
            if pred[i].is_none() {
                continue;
            }
            for call in &f.calls {
                let Some(desc) = lock_site(call) else {
                    continue;
                };
                let mut chain = self.chain(&pred, i);
                chain.push(format!("<{desc}>"));
                out.push(Violation {
                    rule: "hot-path-lock",
                    path: f.path.clone(),
                    line: call.line,
                    snippet: sources.line(&f.path, call.line),
                    message: format!(
                        "blocking acquisition `{desc}` reachable from hot root \
                         `{}` — hot paths must stay lock-free (read a published \
                         snapshot, or hoist the lock out of the per-candidate \
                         loop)",
                        chain.first().cloned().unwrap_or_default()
                    ),
                    severity: Severity::Error,
                    chain,
                });
            }
        }
    }

    /// `panic-reachability`: no panic-family site transitively reachable
    /// from a public entry point of the graph crates. Sites inside a
    /// function whose doc block declares `# Panics` are exempt — the
    /// contract is documented API, per the Rust API guidelines.
    pub fn check_panic_reachability(&self, sources: &Sources, out: &mut Vec<Violation>) {
        let roots: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_pub)
            .map(|(i, _)| i)
            .collect();
        let pred = self.reach(&roots);
        for (i, f) in self.fns.iter().enumerate() {
            if pred[i].is_none() || f.doc_has_panics {
                continue;
            }
            for call in &f.calls {
                let Some(desc) = panic_site(call) else {
                    continue;
                };
                let chain = self.chain(&pred, i);
                out.push(Violation {
                    rule: "panic-reachability",
                    path: f.path.clone(),
                    line: call.line,
                    snippet: sources.line(&f.path, call.line),
                    message: format!(
                        "`{desc}` reachable from public entry `{}` — return \
                         `Result`, downgrade to `debug_assert!`, or document \
                         a `# Panics` section on the containing fn",
                        chain.first().cloned().unwrap_or_default()
                    ),
                    severity: Severity::Error,
                    chain,
                });
            }
        }
    }

    /// `error-docs` (cross-file half): every variant of the listed error
    /// enums must be constructed somewhere outside tests. A reference in
    /// pattern position (match arm, `if let`) does not count.
    pub fn check_error_variants_constructed(&self, out: &mut Vec<Violation>) {
        const CHECKED_ENUMS: [&str; 3] = ["PrqError", "DegradationReason", "Verdict"];
        for e in &self.enums {
            if !CHECKED_ENUMS.contains(&e.name.as_str()) {
                continue;
            }
            for (variant, line) in &e.variants {
                let constructed = self
                    .qual_refs
                    .iter()
                    .any(|r| r.qual == e.name && &r.name == variant && !r.in_test && !r.is_pattern);
                if !constructed {
                    out.push(Violation {
                        rule: "error-docs",
                        path: e.path.clone(),
                        line: *line,
                        snippet: format!("{}::{variant}", e.name),
                        message: format!(
                            "error variant `{}::{variant}` is never constructed \
                             outside tests — dead error surface; remove it or \
                             wire it to the failure it describes",
                            e.name
                        ),
                        severity: Severity::Error,
                        chain: Vec::new(),
                    });
                }
            }
        }
    }

    /// `lock-order`: the lock classes acquired by [`LOCK_CRATES`] code
    /// must admit a single global acquisition order. Every
    /// held-then-acquire pair (within one function, or through a callee
    /// reached while a lock is plausibly held) contributes a directed
    /// edge between lock classes; a cycle in that graph means two
    /// threads interleaving the conflicting orders can deadlock. The
    /// witness chain names every acquisition around the cycle.
    pub fn check_lock_order(&self, sources: &Sources, out: &mut Vec<Violation>) {
        for cycle in find_cycles(&self.lock_edges) {
            let edge_of = |from: &String, to: &String| {
                self.lock_edges
                    .iter()
                    .find(|e| &e.from == from && &e.to == to)
            };
            let mut chain = Vec::new();
            for k in 0..cycle.len() {
                if let Some(e) = edge_of(&cycle[k], &cycle[(k + 1) % cycle.len()]) {
                    chain.push(e.witness.clone());
                }
            }
            let Some(first) = edge_of(&cycle[0], &cycle[1 % cycle.len()]) else {
                continue;
            };
            let desc = cycle
                .iter()
                .chain(std::iter::once(&cycle[0]))
                .map(|c| format!("`{c}`"))
                .collect::<Vec<_>>()
                .join(" -> ");
            out.push(Violation {
                rule: "lock-order",
                path: first.path.clone(),
                line: first.line,
                snippet: sources.line(&first.path, first.line),
                message: format!(
                    "lock classes form an acquisition cycle {desc} — threads \
                     interleaving these orders can deadlock; pick one global \
                     acquisition order (DESIGN.md §13)"
                ),
                severity: Severity::Error,
                chain,
            });
        }
    }
}

/// Describes `call` as a lock-order acquisition, returning the lock
/// class and a human description. Method shapes classify by receiver
/// identifier; chained receivers (`x.field().lock()`) cannot be
/// classified and are skipped — acceptable because every real
/// acquisition in this workspace names its lock field directly.
fn lock_acquisition(call: &Call) -> Option<(String, String)> {
    match call.kind {
        CallKind::Method if ORDER_METHODS.contains(&call.name.as_str()) => {
            let class = call.receiver.clone()?;
            let desc = format!(".{}() on `{class}`", call.name);
            Some((class, desc))
        }
        CallKind::Path
            if call
                .qual
                .as_deref()
                .is_some_and(|q| ORDER_TYPES.contains(&q))
                && ORDER_METHODS.contains(&call.name.as_str()) =>
        {
            let q = call.qual.clone().unwrap_or_default();
            let desc = format!("{q}::{}", call.name);
            Some((q, desc))
        }
        _ => None,
    }
}

/// Builds the lock-order graph over the non-test functions of
/// [`LOCK_CRATES`]: direct acquisition sites, a may-acquire summary per
/// function (propagated over name-resolved call edges to a fixpoint),
/// and held-then-acquire edges between distinct classes. A call at or
/// after an acquisition line is treated as made while the lock is held
/// — an over-approximation (no drop tracking), which is why edges
/// require *distinct* classes: re-acquiring the same class after a
/// drop must not read as self-deadlock.
fn build_lock_graph(fns: &[FnInfo]) -> (Vec<LockSite>, Vec<LockEdge>) {
    let n = fns.len();
    let mut by_qual_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if let Some(q) = &f.qual {
            by_qual_name
                .entry((q.clone(), f.name.clone()))
                .or_default()
                .push(i);
        }
        if f.has_self {
            methods_by_name.entry(f.name.clone()).or_default().push(i);
        } else {
            free_by_name.entry(f.name.clone()).or_default().push(i);
        }
    }

    // Source ordering is by token position (from `args_range`), not by
    // line: two acquisitions on one line still order.
    let mut sites = Vec::new();
    let mut direct: Vec<Vec<(String, String, usize, usize)>> = vec![Vec::new(); n];
    let mut call_targets: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); n];
    for (i, f) in fns.iter().enumerate() {
        for call in &f.calls {
            let pos = call.args_range.map_or(usize::MAX, |(lo, _)| lo);
            if let Some((class, desc)) = lock_acquisition(call) {
                direct[i].push((class.clone(), desc.clone(), call.line, pos));
                sites.push(LockSite {
                    class,
                    desc,
                    path: f.path.clone(),
                    line: call.line,
                    fn_qual: f.qual_name(),
                });
            }
            let mut targets = BTreeSet::new();
            resolve(
                fns,
                i,
                call,
                &by_qual_name,
                &methods_by_name,
                &free_by_name,
                &mut targets,
            );
            call_targets[i].extend(targets.into_iter().map(|j| (pos, call.line, j)));
        }
    }
    sites.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    // May-acquire summaries: class -> witness chain, to a fixpoint over
    // the call edges. Bounded: each pass adds at least one (fn, class)
    // pair or terminates.
    let mut acq: Vec<BTreeMap<String, String>> = vec![BTreeMap::new(); n];
    for i in 0..n {
        for (class, desc, line, _) in &direct[i] {
            acq[i]
                .entry(class.clone())
                .or_insert_with(|| format!("<{desc}> at {}:{line}", fns[i].path));
        }
    }
    for _ in 0..64 {
        let mut changed = false;
        for i in 0..n {
            let mut add = Vec::new();
            for &(_, _, j) in &call_targets[i] {
                for (class, w) in &acq[j] {
                    if !acq[i].contains_key(class) {
                        add.push((class.clone(), format!("`{}` -> {w}", fns[j].qual_name())));
                    }
                }
            }
            for (class, w) in add {
                if let std::collections::btree_map::Entry::Vacant(e) = acq[i].entry(class) {
                    e.insert(w);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut edge_map: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        for (class, desc, line, pos) in &direct[i] {
            for (c2, d2, l2, p2) in &direct[i] {
                if p2 > pos && c2 != class {
                    edge_map
                        .entry((class.clone(), c2.clone()))
                        .or_insert_with(|| LockEdge {
                            from: class.clone(),
                            to: c2.clone(),
                            witness: format!(
                                "`{}` acquires `{class}` (<{desc}> at {}:{line}) \
                                 then `{c2}` (<{d2}> at {}:{l2})",
                                f.qual_name(),
                                f.path,
                                f.path,
                            ),
                            path: f.path.clone(),
                            line: *l2,
                        });
                }
            }
            for &(call_pos, call_line, j) in &call_targets[i] {
                if call_pos < *pos {
                    continue;
                }
                for (c2, w) in &acq[j] {
                    if c2 != class {
                        edge_map
                            .entry((class.clone(), c2.clone()))
                            .or_insert_with(|| LockEdge {
                                from: class.clone(),
                                to: c2.clone(),
                                witness: format!(
                                    "`{}` acquires `{class}` (<{desc}> at {}:{line}), \
                                     then calls `{}` (line {call_line}) which \
                                     acquires `{c2}`: {w}",
                                    f.qual_name(),
                                    f.path,
                                    fns[j].qual_name(),
                                ),
                                path: f.path.clone(),
                                line: call_line,
                            });
                    }
                }
            }
        }
    }
    (sites, edge_map.into_values().collect())
}

/// Simple cycles of the lock-class graph, each reported once with its
/// lexicographically smallest class first. Bounded: at most 10 cycles,
/// path length at most 12.
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
    }
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    let starts: Vec<&str> = adj.keys().copied().collect();
    for start in starts {
        if found.len() >= 10 {
            break;
        }
        let mut path = vec![start];
        cycle_dfs(start, start, &adj, &mut path, &mut found);
    }
    found.into_iter().collect()
}

/// DFS restricted to nodes lexicographically greater than `start`, so
/// every simple cycle is discovered exactly once, rooted at its
/// minimal node.
fn cycle_dfs<'a>(
    cur: &'a str,
    start: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    found: &mut BTreeSet<Vec<String>>,
) {
    if path.len() > 12 || found.len() >= 10 {
        return;
    }
    let Some(nexts) = adj.get(cur) else {
        return;
    };
    for &nxt in nexts {
        if nxt == start {
            found.insert(path.iter().map(|s| (*s).to_owned()).collect());
        } else if nxt > start && !path.contains(&nxt) {
            path.push(nxt);
            cycle_dfs(nxt, start, adj, path, found);
            path.pop();
        }
    }
}

/// Describes `call` as an allocation site, if it is one.
fn alloc_site(f: &FnInfo, call: &Call) -> Option<String> {
    match call.kind {
        CallKind::Macro if ALLOC_MACROS.contains(&call.name.as_str()) => {
            Some(format!("{}!", call.name))
        }
        CallKind::Method if ALLOC_METHODS.contains(&call.name.as_str()) => {
            // Caller-owned buffer exemption: growth of a `&mut` parameter
            // is the caller's capacity, amortized across the query.
            let grows_param = matches!(call.name.as_str(), "push" | "extend" | "append")
                && call
                    .receiver
                    .as_deref()
                    .is_some_and(|r| f.params.iter().any(|p| p.by_mut_ref && p.name == r));
            if grows_param {
                None
            } else {
                Some(format!(".{}()", call.name))
            }
        }
        CallKind::Path
            if call
                .qual
                .as_deref()
                .is_some_and(|q| ALLOC_TYPES.contains(&q)) =>
        {
            Some(format!(
                "{}::{}",
                call.qual.as_deref().unwrap_or(""),
                call.name
            ))
        }
        _ => None,
    }
}

/// Describes `call` as a blocking lock acquisition, if it is one.
fn lock_site(call: &Call) -> Option<String> {
    match call.kind {
        CallKind::Method if LOCK_METHODS.contains(&call.name.as_str()) => {
            Some(format!(".{}()", call.name))
        }
        CallKind::Path
            if call
                .qual
                .as_deref()
                .is_some_and(|q| LOCK_TYPES.contains(&q))
                && LOCK_METHODS.contains(&call.name.as_str()) =>
        {
            Some(format!(
                "{}::{}",
                call.qual.as_deref().unwrap_or(""),
                call.name
            ))
        }
        _ => None,
    }
}

/// Describes `call` as a panic-family site, if it is one.
fn panic_site(call: &Call) -> Option<String> {
    match call.kind {
        CallKind::Macro if PANIC_MACROS.contains(&call.name.as_str()) => {
            Some(format!("{}!", call.name))
        }
        CallKind::Method if matches!(call.name.as_str(), "unwrap" | "expect") => {
            Some(format!(".{}()", call.name))
        }
        _ => None,
    }
}

fn resolve(
    fns: &[FnInfo],
    caller: usize,
    call: &Call,
    by_qual_name: &BTreeMap<(String, String), Vec<usize>>,
    methods_by_name: &BTreeMap<String, Vec<usize>>,
    free_by_name: &BTreeMap<String, Vec<usize>>,
    targets: &mut BTreeSet<usize>,
) {
    match call.kind {
        CallKind::Macro => {}
        CallKind::Method => {
            // Dynamic-dispatch over-approximation: every method of this
            // name, workspace-wide.
            if let Some(c) = methods_by_name.get(&call.name) {
                targets.extend(c.iter().copied());
            }
        }
        CallKind::Path => {
            let qual = call.qual.as_deref().unwrap_or("");
            if let Some(c) = by_qual_name.get(&(qual.to_owned(), call.name.clone())) {
                targets.extend(c.iter().copied());
            } else if qual == "Self" || qual == "self" {
                // `Self::helper()` — functions sharing the caller's impl
                // qualifier, else any free fn of that name.
                let caller_qual = fns[caller].qual.as_deref();
                let mut matched = false;
                for (i, f) in fns.iter().enumerate() {
                    if f.name == call.name && f.qual.as_deref() == caller_qual {
                        targets.insert(i);
                        matched = true;
                    }
                }
                if !matched {
                    pick_free(fns, caller, &call.name, free_by_name, targets);
                }
            } else if qual.starts_with(|c: char| c.is_lowercase()) {
                // Module-qualified free call (`theta_region::r_theta_exact`).
                pick_free(fns, caller, &call.name, free_by_name, targets);
            }
            // Uppercase qualifier with no workspace match: external type
            // (`Vec::new`, `f64::sqrt`) — no edge.
        }
        CallKind::Free => {
            pick_free(fns, caller, &call.name, free_by_name, targets);
        }
    }
}

/// Free-call resolution: same file beats same crate beats workspace.
fn pick_free(
    fns: &[FnInfo],
    caller: usize,
    name: &str,
    free_by_name: &BTreeMap<String, Vec<usize>>,
    targets: &mut BTreeSet<usize>,
) {
    let Some(cands) = free_by_name.get(name) else {
        return;
    };
    let caller_path = fns[caller].path.as_str();
    let caller_crate = crate_of(caller_path);
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| fns[i].path == caller_path)
        .collect();
    if !same_file.is_empty() {
        targets.extend(same_file);
        return;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| crate_of(&fns[i].path) == caller_crate)
        .collect();
    if !same_crate.is_empty() {
        targets.extend(same_crate);
        return;
    }
    targets.extend(cands.iter().copied());
}

/// Raw file sources keyed by workspace-relative path, for snippet
/// extraction in diagnostics.
#[derive(Default)]
pub struct Sources {
    map: BTreeMap<String, String>,
}

impl Sources {
    /// Registers one file's source text.
    pub fn insert(&mut self, path: &str, source: &str) {
        self.map.insert(path.to_owned(), source.to_owned());
    }

    /// The trimmed text of `line` (1-based) in `path`, or empty.
    pub fn line(&self, path: &str, line: usize) -> String {
        self.map
            .get(path)
            .and_then(|s| s.lines().nth(line.saturating_sub(1)))
            .unwrap_or("")
            .trim()
            .to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn analyze(files: &[(&str, &str)]) -> (Analysis, Sources) {
        let mut parsed = Vec::new();
        let mut sources = Sources::default();
        for (path, src) in files {
            parsed.push((path.to_string(), parse_file(path, src, &lex(src))));
            sources.insert(path, src);
        }
        (Analysis::build(&parsed), sources)
    }

    const HOT_CALLER: &str = "crates/core/src/hot.rs";

    #[test]
    fn alloc_two_calls_below_a_hot_root_is_found_with_chain() {
        let (a, s) = analyze(&[(
            HOT_CALLER,
            "// HOT-PATH: per-candidate predicate\n\
             pub fn passes(x: f64) -> bool { helper(x) }\n\
             fn helper(x: f64) -> bool { deep(x) }\n\
             fn deep(x: f64) -> bool { let v = Vec::new(); v.is_empty() }\n",
        )]);
        let mut out = Vec::new();
        a.check_hot_path_alloc(&s, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "hot-path-alloc");
        assert_eq!(out[0].line, 4);
        assert_eq!(out[0].chain, vec!["passes", "helper", "deep", "<Vec::new>"]);
    }

    #[test]
    fn push_to_mut_param_is_exempt_but_local_push_is_not() {
        let (a, s) = analyze(&[(
            HOT_CALLER,
            "// HOT-PATH: descent\n\
             pub fn descend(out: &mut Vec<u32>) { out.push(1); local(); }\n\
             fn local() { let mut v: Vec<u32> = Vec::with_capacity(4); v.push(2); }\n",
        )]);
        let mut out = Vec::new();
        a.check_hot_path_alloc(&s, &mut out);
        // `out.push` exempt; `Vec::with_capacity` + `v.push` both flagged.
        assert_eq!(out.len(), 2, "{out:#?}");
        assert!(out.iter().all(|v| v.line == 3));
    }

    #[test]
    fn panic_reachable_from_pub_entry_unless_documented() {
        let (a, s) = analyze(&[(
            "crates/gaussian/src/p.rs",
            "pub fn entry(x: f64) -> f64 { inner(x) }\n\
             fn inner(x: f64) -> f64 { assert!(x > 0.0); x }\n\
             /// # Panics\n\
             pub fn documented(x: f64) -> f64 { assert!(x > 0.0); x }\n\
             fn unreached() { panic!(\"never\") }\n",
        )]);
        let mut out = Vec::new();
        a.check_panic_reachability(&s, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 2);
        assert_eq!(out[0].chain, vec!["entry", "inner"]);
    }

    #[test]
    fn method_calls_over_approximate_to_all_impls() {
        let (a, s) = analyze(&[(
            "crates/core/src/e.rs",
            "pub fn run(ev: &dyn Ev) { ev.probability(); }\n\
             struct A; impl A { fn probability(&self) { panic!(\"boom\") } }\n",
        )]);
        let mut out = Vec::new();
        a.check_panic_reachability(&s, &mut out);
        assert_eq!(out.len(), 1, "dynamic dispatch must reach impls: {out:#?}");
        assert_eq!(out[0].chain, vec!["run", "A::probability"]);
    }

    #[test]
    fn dangling_hot_marker_is_flagged() {
        let (a, s) = analyze(&[(
            HOT_CALLER,
            "// HOT-PATH: attached to nothing\npub struct X;\n",
        )]);
        let mut out = Vec::new();
        a.check_hot_path_alloc(&s, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("dangling"));
    }

    #[test]
    fn unconstructed_error_variant_is_flagged_pattern_does_not_count() {
        let (a, _) = analyze(&[(
            "crates/core/src/error.rs",
            "pub enum PrqError { Used(f64), OnlyMatched, Dead }\n\
             pub fn mk(x: f64) -> PrqError { PrqError::Used(x) }\n\
             pub fn show(e: &PrqError) -> u8 {\n\
                 match e { PrqError::OnlyMatched => 1, _ => 0 }\n\
             }\n",
        )]);
        let mut out = Vec::new();
        a.check_error_variants_constructed(&mut out);
        let names: Vec<&str> = out.iter().map(|v| v.snippet.as_str()).collect();
        assert!(names.contains(&"PrqError::OnlyMatched"), "{out:#?}");
        assert!(names.contains(&"PrqError::Dead"), "{out:#?}");
        assert!(!names.contains(&"PrqError::Used"), "{out:#?}");
    }

    #[test]
    fn lock_two_calls_below_a_hot_root_is_found_with_chain() {
        let (a, s) = analyze(&[(
            HOT_CALLER,
            "// HOT-PATH: per-candidate predicate\n\
             pub fn passes(x: f64) -> bool { helper(x) }\n\
             fn helper(x: f64) -> bool { deep(x) }\n\
             fn deep(_x: f64) -> bool { self.stats.lock().hit(); true }\n",
        )]);
        let mut out = Vec::new();
        a.check_hot_path_lock(&s, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "hot-path-lock");
        assert_eq!(out[0].line, 4);
        assert_eq!(out[0].chain, vec!["passes", "helper", "deep", "<.lock()>"]);
    }

    #[test]
    fn lock_outside_the_hot_reachable_set_is_not_flagged() {
        let (a, s) = analyze(&[(
            HOT_CALLER,
            "// HOT-PATH: descent\n\
             pub fn descend(x: f64) -> f64 { x + 1.0 }\n\
             pub fn cold_setup(reg: &Registry) { reg.inner.lock().clear(); }\n",
        )]);
        let mut out = Vec::new();
        a.check_hot_path_lock(&s, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn rwlock_read_write_and_path_shapes_are_lock_sites() {
        let (a, s) = analyze(&[(
            HOT_CALLER,
            "// HOT-PATH: scorer\n\
             pub fn score(s: &Shared) -> f64 { *s.table.read() + peek(s) }\n\
             fn peek(s: &Shared) -> f64 { *RwLock::write(&s.table) }\n",
        )]);
        let mut out = Vec::new();
        a.check_hot_path_lock(&s, &mut out);
        let descs: Vec<&str> = out
            .iter()
            .filter_map(|v| v.chain.last().map(String::as_str))
            .collect();
        assert!(descs.contains(&"<.read()>"), "{out:#?}");
        assert!(descs.contains(&"<RwLock::write>"), "{out:#?}");
    }

    #[test]
    fn lock_order_cycle_is_found_with_interprocedural_witness() {
        let (a, s) = analyze(&[(
            "crates/core/src/locks.rs",
            "pub fn ab(x: &S) { x.a.lock(); x.b.lock(); }\n\
             pub fn bc(x: &S) { x.b.lock(); x.c.lock(); }\n\
             pub fn ca(x: &S) { x.c.lock(); helper(x); }\n\
             fn helper(x: &S) { x.a.lock(); }\n",
        )]);
        assert_eq!(a.stats().lock_sites, 6);
        let mut out = Vec::new();
        a.check_lock_order(&s, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "lock-order");
        assert!(
            out[0].message.contains("`a` -> `b` -> `c` -> `a`"),
            "{}",
            out[0].message
        );
        // The witness chain walks every edge of the cycle, including the
        // interprocedural hop through `helper`.
        assert_eq!(out[0].chain.len(), 3, "{out:#?}");
        assert!(out[0].chain[2].contains("helper"), "{out:#?}");
    }

    #[test]
    fn consistent_lock_order_produces_no_cycle() {
        let (a, s) = analyze(&[(
            "crates/obs/src/locks.rs",
            "pub fn one(x: &S) { x.a.lock(); x.b.lock(); }\n\
             pub fn two(x: &S) { x.a.lock(); x.b.lock(); }\n",
        )]);
        assert_eq!(a.stats().lock_sites, 4);
        assert_eq!(a.stats().lock_edges, 1);
        let mut out = Vec::new();
        a.check_lock_order(&s, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn repeated_same_class_acquisition_is_not_a_cycle() {
        // Drop-then-reacquire of one class must not read as deadlock.
        let (a, s) = analyze(&[(
            "crates/core/src/locks.rs",
            "pub fn twice(x: &S) { x.a.lock(); x.a.lock(); }\n",
        )]);
        assert_eq!(a.stats().lock_edges, 0);
        let mut out = Vec::new();
        a.check_lock_order(&s, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn vec_new_does_not_resolve_to_workspace_constructors() {
        let (a, _) = analyze(&[(
            "crates/rtree/src/t.rs",
            "pub struct RTree; impl RTree { pub fn new() -> Self { panic!(\"ctor\") } }\n\
             // HOT-PATH: leaf predicate\n\
             pub fn hot() -> Vec<u32> { Vec::new() }\n",
        )]);
        // `Vec::new` must not create an edge to `RTree::new`.
        let hot = a.fns.iter().position(|f| f.name == "hot").unwrap();
        assert!(a.edges[hot].is_empty(), "edges: {:?}", a.edges[hot]);
    }
}
