//! A generic constraint-satisfaction solver for homomorphism problems.
//!
//! Homomorphism existence between relational instances is exactly constraint
//! satisfaction (Kolaitis–Vardi; the paper cites this connection in
//! Section 6). We model it directly:
//!
//! * variables `0..n_vars` (nulls, tree nodes, structure elements — whatever
//!   must be mapped),
//! * a finite candidate domain of `u32` values per variable,
//! * table constraints: a scope (list of variables) plus the set of allowed
//!   value tuples (the matching tuples of the target instance).
//!
//! # Kernel architecture
//!
//! The solver is a chronological backtracker rebuilt around cache-friendly
//! data structures (the original kernel is preserved verbatim in
//! [`crate::reference`] as a differential-testing oracle):
//!
//! * **Bitset domains.** Live domains are fixed-width `u64` bitset rows, so
//!   membership tests, pruning, and undo are word operations instead of
//!   `Vec::contains` scans.
//! * **Precomputed supports.** At compile time each constraint builds a
//!   CSR-layout support index: for every (scope position, value) the list
//!   of allowed-tuple indices carrying that value (the GAC-schema /
//!   AC-4 idea). Forward checking after assigning `v := a` walks only the
//!   tuples supporting `a` at `v`'s position — no rescan of the whole
//!   table, no per-node `HashMap`.
//! * **Trail-based undo.** Domain words clobbered by propagation are pushed
//!   onto a trail and restored on backtrack, replacing the per-node domain
//!   clones of the old kernel.
//! * **MRV + degree ordering.** The next variable minimizes live-domain
//!   size with ties broken toward higher constraint degree.
//! * **Root propagation.** Domains are made generalized-arc-consistent once
//!   before search, which decides many of the paper's near-unsatisfiable
//!   families outright.
//!
//! The search runs on the calling thread and is fully deterministic:
//! witness choice, enumeration order and [`SolverStats`] are functions of
//! the instance alone.
//!
//! The problem stays NP-complete; the point is that the paper's reduction
//! families (`K3`-coloring, `C_{2^m}` cycles, Theorem 6 membership
//! instances) now run orders of magnitude faster — see
//! `crates/bench/src/bin/solver_bench.rs` for measured numbers.

/// A table constraint: the values of `scope` must form a tuple in `allowed`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// The variables constrained, in tuple order.
    pub scope: Vec<u32>,
    /// Allowed value tuples (each of length `scope.len()`).
    pub allowed: Vec<Vec<u32>>,
}

impl Constraint {
    /// Build a constraint, deduplicating allowed tuples.
    pub fn new(scope: Vec<u32>, mut allowed: Vec<Vec<u32>>) -> Self {
        allowed.sort_unstable();
        allowed.dedup();
        Constraint { scope, allowed }
    }
}

/// A constraint-satisfaction problem over `u32` values.
#[derive(Clone, Debug, Default)]
pub struct Csp {
    /// Candidate values per variable.
    pub domains: Vec<Vec<u32>>,
    /// The table constraints.
    pub constraints: Vec<Constraint>,
}

/// Outcome of an exhaustive enumeration that may have been truncated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Enumeration {
    /// The solutions found (up to the requested limit).
    pub solutions: Vec<Vec<u32>>,
    /// True if enumeration stopped because the limit was reached.
    pub truncated: bool,
}

/// Search-effort counters, exposed for the bench harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Assignments tried (what the old kernel called "steps").
    pub nodes: u64,
    /// Values removed from live domains by forward checking.
    pub prunings: u64,
    /// Nodes whose propagation wiped out a domain or a constraint.
    pub backtracks: u64,
    /// Solutions delivered to the caller.
    pub solutions: u64,
}

impl Csp {
    /// A CSP with `n_vars` variables all sharing the candidate set
    /// `0..n_values`.
    pub fn with_uniform_domains(n_vars: usize, n_values: u32) -> Self {
        Csp {
            domains: vec![(0..n_values).collect(); n_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.domains.len()
    }

    /// Add a table constraint.
    pub fn add_constraint(&mut self, scope: Vec<u32>, allowed: Vec<Vec<u32>>) {
        debug_assert!(allowed.iter().all(|t| t.len() == scope.len()));
        self.constraints.push(Constraint::new(scope, allowed));
    }

    /// Restrict the domain of `var` to `values`.
    pub fn restrict_domain(&mut self, var: u32, values: Vec<u32>) {
        self.domains[var as usize] = values;
    }

    /// Find one solution, if any.
    pub fn solve(&self) -> Option<Vec<u32>> {
        self.solve_stats().0
    }

    /// Find one solution, with search stats.
    pub fn solve_stats(&self) -> (Option<Vec<u32>>, SolverStats) {
        let compiled = Compiled::new(self);
        let mut s = Search::new(&compiled);
        let mut found = None;
        s.run(&mut |sol| {
            found = Some(sol.to_vec());
            false
        });
        (found, s.stats)
    }

    /// Is the CSP satisfiable?
    pub fn satisfiable(&self) -> bool {
        self.solve().is_some()
    }

    /// Enumerate up to `limit` solutions.
    pub fn solve_all(&self, limit: usize) -> Enumeration {
        self.solve_all_stats(limit).0
    }

    /// Enumerate up to `limit` solutions in search order, with stats.
    pub fn solve_all_stats(&self, limit: usize) -> (Enumeration, SolverStats) {
        let compiled = Compiled::new(self);
        let mut sols = Vec::new();
        let mut truncated = false;
        let mut s = Search::new(&compiled);
        s.run(&mut |sol| {
            sols.push(sol.to_vec());
            if sols.len() >= limit {
                truncated = true;
                false
            } else {
                true
            }
        });
        (
            Enumeration {
                solutions: sols,
                truncated,
            },
            s.stats,
        )
    }

    /// Count all solutions (careful: can be astronomically many).
    pub fn count_solutions(&self) -> u64 {
        self.count_solutions_stats().0
    }

    /// Count all solutions, with search stats.
    pub fn count_solutions_stats(&self) -> (u64, SolverStats) {
        let compiled = Compiled::new(self);
        let mut n = 0u64;
        let mut s = Search::new(&compiled);
        s.run(&mut |_| {
            n += 1;
            true
        });
        (n, s.stats)
    }

    /// Find a solution whose image (set of assigned values) covers all of
    /// `must_cover`. Used for the onto-homomorphisms of the closed-world
    /// ordering `⊑_cwa`.
    pub fn solve_covering(&self, must_cover: &[u32]) -> Option<Vec<u32>> {
        let compiled = Compiled::new(self);
        let mut found = None;
        let mut s = Search::new(&compiled);
        s.run(&mut |sol| {
            if must_cover.iter().all(|v| sol.contains(v)) {
                found = Some(sol.to_vec());
                false
            } else {
                true
            }
        });
        found
    }

    /// Find a solution avoiding the given value for every variable (used by
    /// core computation: a retraction missing a designated element).
    pub fn solve_avoiding(&self, forbidden: u32) -> Option<Vec<u32>> {
        let mut restricted = self.clone();
        for d in &mut restricted.domains {
            d.retain(|&v| v != forbidden);
        }
        restricted.solve()
    }

    /// Solve and also report the number of search steps taken (assignments
    /// tried), for reproducible complexity experiments.
    pub fn solve_counting_steps(&self) -> (Option<Vec<u32>>, u64) {
        let (sol, stats) = self.solve_stats();
        (sol, stats.nodes)
    }
}

// ---------------------------------------------------------------------------
// Compiled form: bitset root domains + interned tables with supports.
// ---------------------------------------------------------------------------

/// One allowed-tuple table compiled for the kernel: flattened tuples plus
/// a CSR support index per position. Interned — constraints with identical
/// tables (e.g. every edge of a coloring reduction, every source fact over
/// one target relation) share a single compiled copy.
struct CompiledTable {
    arity: usize,
    /// Tuples with all values `< n_values`, flattened row-major. (Values
    /// outside every domain are dropped; finer per-scope filtering is the
    /// root propagation's job, since tables are scope-independent.)
    tuples: Vec<u32>,
    /// `support_off[pos][val] .. support_off[pos][val + 1]` indexes into
    /// `support_idx[pos]`: the tuples whose `pos`-th value is `val`.
    support_off: Vec<Vec<u32>>,
    support_idx: Vec<Vec<u32>>,
}

impl CompiledTable {
    fn n_tuples(&self) -> usize {
        self.tuples.len().checked_div(self.arity).unwrap_or(0)
    }

    fn tuple(&self, ti: usize) -> &[u32] {
        &self.tuples[ti * self.arity..(ti + 1) * self.arity]
    }

    fn supports(&self, pos: usize, val: u32) -> &[u32] {
        let off = &self.support_off[pos];
        &self.support_idx[pos][off[val as usize] as usize..off[val as usize + 1] as usize]
    }
}

/// A compiled constraint: a scope over an interned table. Homomorphism
/// CSPs reuse one table per relation of the target across *many*
/// constraints, so sharing the compiled supports matters.
struct CompiledConstraint {
    scope: Vec<u32>,
    table: u32,
}

/// The whole problem compiled: bitset domains, support indices, and the
/// variable/constraint incidence maps.
struct Compiled {
    n_vars: usize,
    /// Bitset words per variable row.
    n_words: usize,
    /// Root live domains after propagation, `n_vars * n_words` words.
    root: Vec<u64>,
    /// Interned tables, shared between constraints.
    tables: Vec<CompiledTable>,
    cons: Vec<CompiledConstraint>,
    /// Constraint indices touching each variable (deduplicated).
    var_cons: Vec<Vec<u32>>,
    /// Number of constraints touching each variable (MRV tie-break).
    degree: Vec<u32>,
    max_arity: usize,
    /// Proven unsatisfiable at compile time (empty domain, empty table, or
    /// a nullary constraint allowing nothing).
    dead: bool,
}

#[inline]
fn bit_set(words: &[u64], base: usize, val: u32) -> bool {
    words[base + (val as usize >> 6)] & (1u64 << (val & 63)) != 0
}

/// A fast content fingerprint for table interning (FNV-1a over the tuple
/// values). Collisions are resolved by [`table_matches`], never trusted.
fn table_fingerprint(allowed: &[Vec<u32>]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for t in allowed {
        for &v in t {
            h = (h ^ u64::from(v)).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Does `allowed` compile to exactly the flattened `tuples` (under the
/// same `n_values` filter)? Used to confirm interning candidates.
fn table_matches(tuples: &[u32], arity: usize, allowed: &[Vec<u32>], n_values: usize) -> bool {
    let mut k = 0usize;
    for t in allowed {
        if t.iter().all(|&val| (val as usize) < n_values) {
            if k + arity > tuples.len() || tuples[k..k + arity] != t[..] {
                return false;
            }
            k += arity;
        }
    }
    k == tuples.len()
}

/// Flatten a table (dropping tuples with values no domain can hold, which
/// also bounds every stored value below `n_values` for safe bit indexing)
/// and build its CSR support index per position.
fn compile_table(arity: usize, allowed: &[Vec<u32>], n_values: usize) -> CompiledTable {
    let mut tuples: Vec<u32> = Vec::new();
    for t in allowed {
        if t.iter().all(|&val| (val as usize) < n_values) {
            tuples.extend_from_slice(t);
        }
    }
    let n_tuples = tuples.len() / arity;
    let mut support_off = Vec::with_capacity(arity);
    let mut support_idx = Vec::with_capacity(arity);
    for pos in 0..arity {
        let mut counts = vec![0u32; n_values + 1];
        for ti in 0..n_tuples {
            counts[tuples[ti * arity + pos] as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut idx = vec![0u32; n_tuples];
        let mut cursor = counts.clone();
        for ti in 0..n_tuples {
            let val = tuples[ti * arity + pos] as usize;
            idx[cursor[val] as usize] = ti as u32;
            cursor[val] += 1;
        }
        support_off.push(counts);
        support_idx.push(idx);
    }
    CompiledTable {
        arity,
        tuples,
        support_off,
        support_idx,
    }
}

impl Compiled {
    fn new(csp: &Csp) -> Self {
        let n_vars = csp.n_vars();
        let n_values = csp
            .domains
            .iter()
            .flat_map(|d| d.iter().copied())
            .max()
            .map_or(0, |m| m as usize + 1);
        let n_words = n_values.div_ceil(64);

        let mut dead = false;
        let mut root = vec![0u64; n_vars * n_words];
        for (v, dom) in csp.domains.iter().enumerate() {
            for &val in dom {
                root[v * n_words + (val as usize >> 6)] |= 1u64 << (val & 63);
            }
        }
        if (0..n_vars).any(|v| root[v * n_words..(v + 1) * n_words].iter().all(|&w| w == 0)) {
            dead = true;
        }

        // Compile constraints; nullary ones are resolved here, and tables
        // are interned so identical ones compile once. (Homomorphism CSPs
        // repeat one table per target relation across many constraints.)
        let mut tables: Vec<CompiledTable> = Vec::new();
        let mut interned: std::collections::HashMap<(usize, usize, u64), Vec<u32>> =
            std::collections::HashMap::new();
        let mut cons = Vec::new();
        let mut var_cons: Vec<Vec<u32>> = vec![Vec::new(); n_vars];
        let mut degree = vec![0u32; n_vars];
        let mut max_arity = 0usize;
        for c in &csp.constraints {
            if c.scope.is_empty() {
                if c.allowed.is_empty() {
                    dead = true;
                }
                continue;
            }
            let arity = c.scope.len();
            max_arity = max_arity.max(arity);
            let key = (arity, c.allowed.len(), table_fingerprint(&c.allowed));
            let bucket = interned.entry(key).or_default();
            let table =
                match bucket.iter().copied().find(|&ti| {
                    table_matches(&tables[ti as usize].tuples, arity, &c.allowed, n_values)
                }) {
                    Some(ti) => ti,
                    None => {
                        let ti = tables.len() as u32;
                        tables.push(compile_table(arity, &c.allowed, n_values));
                        bucket.push(ti);
                        ti
                    }
                };
            if tables[table as usize].n_tuples() == 0 {
                dead = true;
            }
            let ci = cons.len() as u32;
            for &v in &c.scope {
                if var_cons[v as usize].last() != Some(&ci) {
                    var_cons[v as usize].push(ci);
                    degree[v as usize] += 1;
                }
            }
            cons.push(CompiledConstraint {
                scope: c.scope.clone(),
                table,
            });
        }

        let mut compiled = Compiled {
            n_vars,
            n_words,
            root,
            tables,
            cons,
            var_cons,
            degree,
            max_arity,
            dead,
        };
        if !compiled.dead {
            compiled.dead = !compiled.root_propagate();
        }
        compiled
    }

    /// Make the root domains generalized-arc-consistent: drop every value
    /// with no supporting tuple in some constraint. Sound (never removes a
    /// solution value); returns false if a domain empties.
    fn root_propagate(&mut self) -> bool {
        let mut live = std::mem::take(&mut self.root);
        let ok = self.propagate_live(&mut live);
        self.root = live;
        ok
    }

    /// Generalized arc consistency over an arbitrary live-domain buffer
    /// (`n_vars * n_words` words), leaving the compiled root untouched.
    /// This is the reusable half of root propagation: the retraction
    /// engine calls it once per probe on a restricted copy of the root,
    /// so one compile serves a whole shrink loop.
    ///
    /// The per-constraint support masks depend only on (table, scope
    /// domains), so they are cached: constraints sharing a table over
    /// identically-restricted variables — the common case in homomorphism
    /// CSPs — pay for one tuple walk between them.
    fn propagate_live(&self, live: &mut [u64]) -> bool {
        let n_words = self.n_words;
        let mut queued = vec![true; self.cons.len()];
        let mut queue: Vec<usize> = (0..self.cons.len()).collect();
        let mut mask_cache: std::collections::HashMap<(u32, Vec<u64>), (Vec<u64>, bool)> =
            std::collections::HashMap::new();
        while let Some(ci) = queue.pop() {
            queued[ci] = false;
            let cc = &self.cons[ci];
            let tb = &self.tables[cc.table as usize];
            let arity = tb.arity;
            let domains_key: Vec<u64> = cc
                .scope
                .iter()
                .flat_map(|&v| {
                    live[v as usize * n_words..(v as usize + 1) * n_words]
                        .iter()
                        .copied()
                })
                .collect();
            let (masks, any) = {
                let live_ro: &[u64] = live;
                mask_cache
                    .entry((cc.table, domains_key))
                    .or_insert_with(|| {
                        let mut masks = vec![0u64; arity * n_words];
                        let mut any = false;
                        'tuples: for ti in 0..tb.n_tuples() {
                            let t = tb.tuple(ti);
                            for (&val, &v) in t.iter().zip(cc.scope.iter()) {
                                if !bit_set(live_ro, v as usize * n_words, val) {
                                    continue 'tuples;
                                }
                            }
                            any = true;
                            for (j, &val) in t.iter().enumerate() {
                                masks[j * n_words + (val as usize >> 6)] |= 1u64 << (val & 63);
                            }
                        }
                        (masks, any)
                    })
                    .clone()
            };
            if !any {
                return false;
            }
            // Intersect each scope variable with its supported-value mask.
            let mut changed_vars: Vec<u32> = Vec::new();
            for (j, &v) in cc.scope.iter().enumerate() {
                let base = v as usize * n_words;
                let mut changed = false;
                let mut empty = true;
                for w in 0..n_words {
                    let old = live[base + w];
                    let new = old & masks[j * n_words + w];
                    if new != old {
                        live[base + w] = new;
                        changed = true;
                    }
                    empty &= new == 0;
                }
                if empty {
                    return false;
                }
                if changed && !changed_vars.contains(&v) {
                    changed_vars.push(v);
                }
            }
            for &v in &changed_vars {
                for &watcher in &self.var_cons[v as usize] {
                    let wi = watcher as usize;
                    if !queued[wi] {
                        queued[wi] = true;
                        queue.push(wi);
                    }
                }
            }
        }
        true
    }
}

/// Append the set bits of a bitset row, in ascending order.
fn collect_bits(words: &[u64], out: &mut Vec<u32>) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let b = w.trailing_zeros();
            out.push((wi as u32) << 6 | b);
            w &= w - 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Search state: live bitsets, trail, forward checking through supports.
// ---------------------------------------------------------------------------

struct Search<'a> {
    c: &'a Compiled,
    /// Live domains, `n_vars * n_words` words.
    live: Vec<u64>,
    /// Live popcounts per variable.
    counts: Vec<u32>,
    /// Assignment; `u32::MAX` = unassigned.
    assign: Vec<u32>,
    /// Undo log: (variable, word index within its row, old word).
    trail: Vec<(u32, u32, u64)>,
    /// Supported-value masks, one row per scope position of the constraint
    /// currently being checked.
    scratch: Vec<u64>,
    /// Reusable per-depth buffers for value snapshots.
    depth_bufs: Vec<Vec<u32>>,
    stats: SolverStats,
}

impl<'a> Search<'a> {
    fn new(c: &'a Compiled) -> Self {
        Search::from_domains(c, c.root.clone())
    }

    /// A search starting from an explicit live-domain buffer instead of
    /// the compiled root (the retraction engine's per-probe restriction).
    /// The caller guarantees every domain in `live` is non-empty.
    fn from_domains(c: &'a Compiled, live: Vec<u64>) -> Self {
        let counts: Vec<u32> = (0..c.n_vars)
            .map(|v| {
                live[v * c.n_words..(v + 1) * c.n_words]
                    .iter()
                    .map(|w| w.count_ones())
                    .sum()
            })
            .collect();
        Search {
            c,
            live,
            counts,
            assign: vec![u32::MAX; c.n_vars],
            trail: Vec::new(),
            scratch: vec![0u64; c.max_arity * c.n_words],
            depth_bufs: vec![Vec::new(); c.n_vars + 1],
            stats: SolverStats::default(),
        }
    }

    fn run(&mut self, on_solution: &mut dyn FnMut(&[u32]) -> bool) {
        if self.c.dead {
            return;
        }
        self.backtrack(0, on_solution);
    }

    /// MRV with degree tie-breaking.
    fn pick_var(&self) -> Option<usize> {
        let mut best: Option<(usize, u32, u32)> = None;
        for v in 0..self.c.n_vars {
            if self.assign[v] != u32::MAX {
                continue;
            }
            let count = self.counts[v];
            let deg = self.c.degree[v];
            let better = match best {
                None => true,
                Some((_, bc, bd)) => count < bc || (count == bc && deg > bd),
            };
            if better {
                best = Some((v, count, deg));
            }
        }
        best.map(|(v, _, _)| v)
    }

    /// Restore the trail down to `mark`.
    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let Some((v, w, old)) = self.trail.pop() else {
                break; // unreachable: the loop guard bounds the length
            };
            let idx = v as usize * self.c.n_words + w as usize;
            let cur = self.live[idx];
            self.counts[v as usize] += old.count_ones() - cur.count_ones();
            self.live[idx] = old;
        }
    }

    /// Collapse `v`'s live domain to the single value `val` (trailed).
    fn collapse(&mut self, v: usize, val: u32) {
        let n_words = self.c.n_words;
        let base = v * n_words;
        let keep_word = val as usize >> 6;
        for w in 0..n_words {
            let old = self.live[base + w];
            let new = if w == keep_word {
                old & (1u64 << (val & 63))
            } else {
                0
            };
            if new != old {
                self.trail.push((v as u32, w as u32, old));
                self.live[base + w] = new;
            }
        }
        self.counts[v] = 1;
    }

    /// Forward-check constraint `ci` after `v := val`; prunes neighbours
    /// through the support index. Returns false on a wipe-out.
    fn check_constraint(&mut self, ci: usize, v: usize, val: u32) -> bool {
        let c = self.c;
        let cc = &c.cons[ci];
        let tb = &c.tables[cc.table as usize];
        let n_words = c.n_words;
        // `var_cons[v]` only lists constraints with `v` in scope, so the
        // position always exists; if the incidence map were ever corrupt,
        // skipping the check (no pruning) is the sound fallback.
        let Some(pos) = cc.scope.iter().position(|&u| u as usize == v) else {
            return true;
        };

        // Positions whose variable still needs support masks.
        let mut open: [usize; 16] = [0; 16];
        let mut n_open = 0usize;
        let mut open_overflow: Vec<usize> = Vec::new();
        for (j, &u) in cc.scope.iter().enumerate() {
            if self.assign[u as usize] == u32::MAX {
                if n_open < open.len() {
                    open[n_open] = j;
                } else {
                    open_overflow.push(j);
                }
                n_open += 1;
            }
        }
        let open_positions = |i: usize| -> usize {
            if i < open.len() {
                open[i]
            } else {
                open_overflow[i - open.len()]
            }
        };
        for i in 0..n_open {
            let j = open_positions(i);
            self.scratch[j * n_words..(j + 1) * n_words].fill(0);
        }

        let mut any = false;
        'tuples: for &ti in tb.supports(pos, val) {
            let t = tb.tuple(ti as usize);
            for (j, (&tv, &u)) in t.iter().zip(cc.scope.iter()).enumerate() {
                let _ = j;
                if !bit_set(&self.live, u as usize * n_words, tv) {
                    continue 'tuples;
                }
            }
            any = true;
            if n_open == 0 {
                break; // satisfied, nothing left to prune
            }
            for i in 0..n_open {
                let j = open_positions(i);
                let tv = t[j];
                self.scratch[j * n_words + (tv as usize >> 6)] |= 1u64 << (tv & 63);
            }
        }
        if !any {
            return false;
        }

        for i in 0..n_open {
            let j = open_positions(i);
            let u = cc.scope[j] as usize;
            let base = u * n_words;
            let mut removed = 0u32;
            for w in 0..n_words {
                let old = self.live[base + w];
                let new = old & self.scratch[j * n_words + w];
                if new != old {
                    self.trail.push((u as u32, w as u32, old));
                    self.live[base + w] = new;
                    removed += (old ^ new).count_ones();
                }
            }
            if removed > 0 {
                self.counts[u] -= removed;
                self.stats.prunings += removed as u64;
                if self.counts[u] == 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Try `v := val`: collapse, forward-check, and recurse. Returns false
    /// if the callback asked to stop.
    fn descend(
        &mut self,
        v: usize,
        val: u32,
        depth: usize,
        on_solution: &mut dyn FnMut(&[u32]) -> bool,
    ) -> bool {
        self.stats.nodes += 1;
        let mark = self.trail.len();
        self.assign[v] = val;
        self.collapse(v, val);
        let c = self.c;
        let mut dead = false;
        for i in 0..c.var_cons[v].len() {
            let ci = c.var_cons[v][i] as usize;
            if !self.check_constraint(ci, v, val) {
                dead = true;
                break;
            }
        }
        let mut keep_going = true;
        if dead {
            self.stats.backtracks += 1;
        } else {
            keep_going = self.backtrack(depth + 1, on_solution);
        }
        self.undo(mark);
        self.assign[v] = u32::MAX;
        keep_going
    }

    fn backtrack(&mut self, depth: usize, on_solution: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        let Some(v) = self.pick_var() else {
            self.stats.solutions += 1;
            return on_solution(&self.assign);
        };
        let mut values = std::mem::take(&mut self.depth_bufs[depth]);
        values.clear();
        collect_bits(
            &self.live[v * self.c.n_words..(v + 1) * self.c.n_words],
            &mut values,
        );
        let mut keep_going = true;
        for &val in &values {
            if !self.descend(v, val, depth, on_solution) {
                keep_going = false;
                break;
            }
        }
        self.depth_bufs[depth] = values;
        keep_going
    }
}

// ---------------------------------------------------------------------------
// Incremental self-homomorphism solving for the retraction engine.
// ---------------------------------------------------------------------------

/// A self-homomorphism CSP compiled **once** and reused across a whole
/// retraction shrink loop (see [`crate::retract`]).
///
/// The retraction engine maintains a shrinking *live set* over a
/// designated list of probe variables (whose values are element ids of
/// the structure being shrunk). Every probe — "is there a solution in
/// which no probe variable takes the value `v`?" — reuses the compiled
/// tables and support indices, paying only for a bitset copy, one GAC
/// pass, and the search itself, never for recompilation. After a
/// successful retraction the engine intersects the probe domains with the
/// new live set *in place* ([`Self::restrict_probes`]), which is sound
/// whenever a witness endomorphism into the live set is known.
pub struct IncrementalSelfHom {
    compiled: Compiled,
    /// Variables whose domains track the live set.
    probe: Vec<u32>,
}

impl IncrementalSelfHom {
    /// Compile once. `probe` lists the variables whose domains will be
    /// restricted as the live set shrinks (digraphs: every variable;
    /// encoded generalized databases: the node-element prefix).
    /// Out-of-range probe ids are ignored.
    pub fn new(csp: &Csp, probe: &[u32]) -> Self {
        let compiled = Compiled::new(csp);
        let mut probe: Vec<u32> = probe
            .iter()
            .copied()
            .filter(|&p| (p as usize) < compiled.n_vars)
            .collect();
        probe.sort_unstable();
        probe.dedup();
        IncrementalSelfHom { compiled, probe }
    }

    /// Proven unsatisfiable. Never true for a genuine self-homomorphism
    /// problem (the identity is a solution) unless the caller's domain
    /// restrictions exclude it *and* every alternative.
    pub fn is_dead(&self) -> bool {
        self.compiled.dead
    }

    /// Permanently intersect every probe variable's domain with the set
    /// bits of `live` (a value bitset, 64 values per word), then restore
    /// arc consistency. Sound whenever some known solution maps every
    /// probe variable into `live` — the retraction invariant guarantees
    /// one. Returns false (and marks the problem dead) if a domain
    /// empties, which means that invariant was violated.
    pub fn restrict_probes(&mut self, live: &[u64]) -> bool {
        let n_words = self.compiled.n_words;
        for &p in &self.probe {
            let base = p as usize * n_words;
            for w in 0..n_words {
                let mask = live.get(w).copied().unwrap_or(0);
                self.compiled.root[base + w] &= mask;
            }
        }
        let ok = self.compiled.root_propagate();
        if !ok {
            self.compiled.dead = true;
        }
        ok
    }

    /// One probe: find a solution in which no probe variable takes the
    /// value `avoid` (on top of the standing live restriction). Runs a
    /// GAC pass on the restricted copy first — near-unsatisfiable probes
    /// (e.g. removing any vertex of a directed cycle) die there without
    /// search. Deterministic for a given root state.
    pub fn probe_avoiding(&self, avoid: u32) -> Option<Vec<u32>> {
        let c = &self.compiled;
        if c.dead {
            return None;
        }
        let n_words = c.n_words;
        let mut live = c.root.clone();
        let wi = avoid as usize >> 6;
        if wi < n_words {
            let bit = 1u64 << (avoid & 63);
            for &p in &self.probe {
                live[p as usize * n_words + wi] &= !bit;
            }
        }
        if !c.propagate_live(&mut live) {
            return None;
        }
        let mut s = Search::from_domains(c, live);
        let mut found = None;
        s.run(&mut |sol| {
            found = Some(sol.to_vec());
            false
        });
        found
    }

    /// Probe `candidates` in order for the first one that admits an
    /// avoiding solution.
    ///
    /// Returns `(winner, failed)`: `winner` is `Some((index into
    /// candidates, solution))` for the lowest admitting candidate (or
    /// `None` when every candidate fails), and `failed` lists the
    /// candidates *proven* to admit no avoiding solution — exactly those
    /// before the winner (all of them when there is no winner).
    pub fn probe_lowest(&self, candidates: &[u32]) -> (Option<(usize, Vec<u32>)>, Vec<u32>) {
        let mut failed = Vec::new();
        for (i, &v) in candidates.iter().enumerate() {
            match self.probe_avoiding(v) {
                Some(sol) => return (Some((i, sol)), failed),
                None => failed.push(v),
            }
        }
        (None, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Graph coloring as a CSP: vars = vertices, values = colors, one
    /// binary "different colors" constraint per edge.
    fn coloring_csp(n: usize, edges: &[(u32, u32)], colors: u32) -> Csp {
        let mut csp = Csp::with_uniform_domains(n, colors);
        let diff: Vec<Vec<u32>> = (0..colors)
            .flat_map(|a| {
                (0..colors)
                    .filter(move |&b| b != a)
                    .map(move |b| vec![a, b])
            })
            .collect();
        for &(u, v) in edges {
            csp.add_constraint(vec![u, v], diff.clone());
        }
        csp
    }

    #[test]
    fn triangle_needs_three_colors() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        assert!(!coloring_csp(3, &edges, 2).satisfiable());
        assert!(coloring_csp(3, &edges, 3).satisfiable());
    }

    #[test]
    fn counting_triangle_colorings() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        // Proper 3-colorings of K3: 3! = 6.
        assert_eq!(coloring_csp(3, &edges, 3).count_solutions(), 6);
    }

    #[test]
    fn solve_all_respects_limit() {
        let edges = [(0, 1)];
        let e = coloring_csp(2, &edges, 3).solve_all(4);
        assert_eq!(e.solutions.len(), 4);
        assert!(e.truncated);
        let all = coloring_csp(2, &edges, 3).solve_all(100);
        assert_eq!(all.solutions.len(), 6);
        assert!(!all.truncated);
    }

    #[test]
    fn empty_domain_is_unsatisfiable() {
        let mut csp = Csp::with_uniform_domains(2, 3);
        csp.restrict_domain(0, vec![]);
        assert!(!csp.satisfiable());
    }

    #[test]
    fn no_constraints_everything_goes() {
        let csp = Csp::with_uniform_domains(3, 2);
        assert_eq!(csp.count_solutions(), 8);
    }

    #[test]
    fn covering_solutions() {
        // Two free variables over {0,1}: a solution covering {0,1} must use
        // both values.
        let csp = Csp::with_uniform_domains(2, 2);
        let sol = csp.solve_covering(&[0, 1]).unwrap();
        let mut s = sol.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
        // Covering an impossible value fails.
        assert!(csp.solve_covering(&[7]).is_none());
    }

    #[test]
    fn avoiding_a_value() {
        // Path 0-1 with 2 colors: avoiding color 0 entirely is impossible
        // (both endpoints would need color 1).
        let csp = coloring_csp(2, &[(0, 1)], 2);
        assert!(csp.solve_avoiding(0).is_none());
        // With 3 colors it is possible.
        let csp3 = coloring_csp(2, &[(0, 1)], 3);
        assert!(csp3.solve_avoiding(0).is_some());
    }

    #[test]
    fn ternary_constraint() {
        // x + y = z over 0..3 (as explicit table).
        let mut csp = Csp::with_uniform_domains(3, 3);
        let mut allowed = Vec::new();
        for x in 0u32..3 {
            for y in 0..3 {
                if x + y < 3 {
                    allowed.push(vec![x, y, x + y]);
                }
            }
        }
        csp.add_constraint(vec![0, 1, 2], allowed);
        // Force z = 2: solutions (0,2),(1,1),(2,0).
        csp.restrict_domain(2, vec![2]);
        assert_eq!(csp.count_solutions(), 3);
    }

    #[test]
    fn nullary_constraints() {
        // An empty-scope constraint allowing nothing kills the CSP.
        let mut csp = Csp::with_uniform_domains(1, 2);
        csp.add_constraint(vec![], vec![]);
        assert!(!csp.satisfiable());
        // Allowing the empty tuple is a tautology.
        let mut csp = Csp::with_uniform_domains(1, 2);
        csp.add_constraint(vec![], vec![vec![]]);
        assert_eq!(csp.count_solutions(), 2);
    }

    #[test]
    fn steps_are_reported() {
        let csp = coloring_csp(3, &[(0, 1), (1, 2), (0, 2)], 3);
        let (sol, steps) = csp.solve_counting_steps();
        assert!(sol.is_some());
        assert!(steps >= 3);
    }

    #[test]
    fn repeated_variable_in_scope() {
        // R(x, x) against a table with one diagonal tuple.
        let mut csp = Csp::with_uniform_domains(1, 3);
        csp.add_constraint(vec![0, 0], vec![vec![0, 1], vec![2, 2]]);
        assert_eq!(csp.count_solutions(), 1);
        assert_eq!(csp.solve(), Some(vec![2]));
    }

    #[test]
    fn unsorted_restricted_domains() {
        let mut csp = Csp::with_uniform_domains(2, 5);
        csp.restrict_domain(0, vec![4, 1]);
        csp.restrict_domain(1, vec![3]);
        assert_eq!(csp.count_solutions(), 2);
    }

    #[test]
    fn sparse_large_values_work() {
        // Values above 64 exercise multi-word bitsets.
        let mut csp = Csp {
            domains: vec![vec![0, 70, 130], vec![70, 200]],
            constraints: Vec::new(),
        };
        csp.add_constraint(vec![0, 1], vec![vec![70, 200], vec![130, 70], vec![5, 5]]);
        assert_eq!(csp.count_solutions(), 2);
    }

    #[test]
    fn stats_reflect_search_effort() {
        let csp = coloring_csp(3, &[(0, 1), (1, 2), (0, 2)], 3);
        let (count, stats) = csp.count_solutions_stats();
        assert_eq!(count, 6);
        assert_eq!(stats.solutions, 6);
        assert!(stats.nodes >= 6);
    }

    #[test]
    fn cycle_colorings_match_the_chromatic_polynomial() {
        // Chromatic polynomial of C_n with k colors: (k-1)^n + (-1)^n (k-1).
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, (i + 1) % 9)).collect();
        let csp = coloring_csp(9, &edges, 4);
        assert_eq!(csp.count_solutions(), 3u64.pow(9) - 3);
        let all = csp.solve_all(usize::MAX);
        assert!(!all.truncated);
        assert_eq!(all.solutions.len() as u64, 3u64.pow(9) - 3);
    }

    #[test]
    fn empty_csp_has_one_empty_solution() {
        let csp = Csp::default();
        assert_eq!(csp.count_solutions(), 1);
        assert_eq!(csp.solve(), Some(vec![]));
    }
}
