//! Path maxima underlying affinity and coverage.
//!
//! Formulas 2 and 3 maximize per-path products over "all possible paths"
//! between two elements. We read that as **simple paths** (no repeated
//! elements): walks that revisit elements could pump the products without
//! bound whenever an edge has `RC < 1` (optional children), so simple paths
//! are the only sound reading (see DESIGN.md §3.2). Every per-edge factor
//! is clamped to `[0, 1]`, which makes two kernels exact (DESIGN.md §3.14):
//!
//! * the **layered kernel** ([`PathKernel::Layered`], the production
//!   path): a Bellman–Ford relaxation over the `(max, ×)` semiring, one
//!   layer per path length. With clamped factors the best walk to every
//!   target is a simple path, so relaxing walks is exact; a walk whose
//!   products are no better than ones a shorter walk already brought to
//!   the same element is dropped (dominated-walk pruning), which stops
//!   the walks that bounce along tree edges without changing any bit.
//!   [`Explorer::explore_batch`] advances up to [`MAX_BATCH_LANES`]
//!   sources per sweep over the CSR edge lanes of
//!   [`SchemaStats`](schema_summary_core::SchemaStats), and
//!   [`PairMatrices`](crate::PairMatrices) drives it;
//! * the **DFS kernel** ([`PathKernel::Dfs`]): an explicit-stack
//!   enumeration of simple paths with exact branch-and-bound pruning — the
//!   literal reading of the formulas, kept as the oracle the layered
//!   kernel is tested against, for tiny sparse schemas under
//!   [`PathKernel::Auto`], and for the joint
//!   [`min_product`](PathConfig::min_product) floor.
//!
//! One exploration per source element simultaneously maintains:
//!
//! * the **affinity product** `Π 1/RC(e_{j-1} → e_j)` (Formula 2), and
//! * the **coverage product**
//!   `Π A(e_{j-1} → e_j) · W(e_j → e_{j-1})` (Formula 3),
//!
//! recording per-target maxima of both. Note the two maxima may be achieved
//! on *different* paths, which is why both products are tracked rather than
//! derived from one another.

use schema_summary_core::{ElementId, SchemaStats};
use serde::{Deserialize, Serialize};

/// How path length `n_i` is counted when dividing the affinity product.
///
/// The paper's Formula 2 text indexes path *elements*, but its worked
/// example (`A(b→o) ≈ 1.0` for a direct edge with `RC(b→o) = 1`) is only
/// consistent with counting *edges*. We follow the worked example by
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PathLength {
    /// `n_i` = number of edges (matches the paper's worked example).
    #[default]
    Edges,
    /// `n_i` = number of elements on the path (the literal formula text).
    Nodes,
}

/// Which exact kernel evaluates the per-target path maxima.
///
/// Both kernels compute the same quantities; they differ in how they search.
/// The clamp on per-edge factors (everything ∈ [0, 1]) makes the two
/// provably equivalent: removing a cycle from a walk divides the product by
/// factors ≤ 1 (so the product can only grow) and shortens the path (so the
/// affinity denominator can only shrink) — hence the max over arbitrary
/// walks equals the max over simple paths, and a layered relaxation over
/// walks is exact for the simple-path formulas (DESIGN.md §3.14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PathKernel {
    /// Pick per schema by a node-count/density heuristic (see
    /// [`PathConfig::effective_kernel`]): DFS on small, sparse,
    /// tree-like schemas where path multiplicity is low (BENCH_matrices.json
    /// measured layered at 0.45× DFS on the n=100 sparse synthetic),
    /// layered everywhere else. Both kernels are exact, so the choice only
    /// affects wall time. The default.
    #[default]
    Auto,
    /// Layered max-product relaxation (Bellman–Ford over the `(max, ×)`
    /// semiring) with dominated-walk pruning: at most
    /// `O(max_edges · |edges|)` per source, independent of the number of
    /// simple paths — orders of magnitude faster on densely value-linked
    /// schemas.
    Layered,
    /// Explicit-stack depth-first enumeration of simple paths with exact
    /// branch-and-bound pruning. The reference kernel; also the only one
    /// honoring the [`PathConfig::min_product`] floor's joint
    /// affinity/coverage semantics.
    Dfs,
}

/// [`PathKernel::Auto`] picks the layered kernel at or beyond this element
/// count regardless of density: DFS worst-case cost grows with the number
/// of simple paths while the layered relaxation stays
/// `O(max_edges · |edges|)`. Retuned for the batched lane kernel
/// (min-of-reps, near-tree density 0.05): DFS still wins at n=25
/// (0.75×) but batched layered leads from n=50 (1.3×) through n=100
/// (1.6×), n=192 (2.6×), and ~13× on XMark SF 1.0 (n=295). 48 splits
/// the crossover (BENCH_matrices.json).
const AUTO_NODE_THRESHOLD: usize = 48;

/// Below [`AUTO_NODE_THRESHOLD`], [`PathKernel::Auto`] picks DFS only for
/// near-tree densities. A pure tree has average CSR degree ≈ 2 (each edge
/// appears in both endpoints' rows); every value link adds 2/n more. At
/// 2.5 the graph carries ~n/4 extra links and path multiplicity starts to
/// favor the layered kernel even on a few dozen elements.
const AUTO_AVG_DEGREE_THRESHOLD: f64 = 2.5;

/// Configuration for path enumeration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathConfig {
    /// Maximum number of edges on an enumerated path. Longer paths carry a
    /// `1/n` penalty and per-edge products ≤ 1 in the common case, so they
    /// contribute negligibly; 10 comfortably exceeds the diameter of the
    /// paper's schemas.
    pub max_edges: usize,
    /// Budget on edge traversals per source; exploration stops (and the
    /// result is flagged truncated) if exceeded. Guards against pathological
    /// densely-linked schemas.
    pub max_expansions: usize,
    /// Path-length convention for the affinity denominator.
    pub path_length: PathLength,
    /// Which exact kernel to run (see [`PathKernel`]). A positive
    /// [`min_product`](Self::min_product) always selects the DFS kernel,
    /// whose floor cuts a branch only when *both* products fall below the
    /// floor — the layered kernel relaxes affinity and coverage
    /// independently and cannot express that joint condition.
    pub kernel: PathKernel,
    /// Branch-and-bound pruning of branches that can no longer improve any
    /// per-target maximum. The cut is **exact** — per-edge factors are
    /// clamped ≤ 1, so products only shrink along a path (DESIGN.md §3.14).
    /// Disable only to measure pruning effectiveness or cross-check results.
    pub prune: bool,
    /// Approximate-mode floor: branches whose affinity *and* coverage
    /// products both fall below this value are cut and the result is
    /// flagged [`SourceResult::floored`] (maxima become lower bounds, like
    /// `truncated`). `0.0` (the default) keeps exploration exact.
    pub min_product: f64,
    /// Minimum element count before [`crate::PairMatrices::compute`]
    /// parallelizes across source elements; below it, thread spawn overhead
    /// dominates and the serial kernel runs instead.
    pub parallel_threshold: usize,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            max_edges: 10,
            max_expansions: 4_000_000,
            path_length: PathLength::Edges,
            kernel: PathKernel::Auto,
            prune: true,
            min_product: 0.0,
            parallel_threshold: 64,
        }
    }
}

// Configurations key memoized artifacts and cached results, so equality and
// hashing must be total and bit-stable; `min_product` is compared by bit
// pattern (as in `ImportanceConfig`).
impl PartialEq for PathConfig {
    fn eq(&self, other: &Self) -> bool {
        self.max_edges == other.max_edges
            && self.max_expansions == other.max_expansions
            && self.path_length == other.path_length
            && self.kernel == other.kernel
            && self.prune == other.prune
            && self.min_product.to_bits() == other.min_product.to_bits()
            && self.parallel_threshold == other.parallel_threshold
    }
}

impl Eq for PathConfig {}

impl std::hash::Hash for PathConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.max_edges.hash(state);
        self.max_expansions.hash(state);
        self.path_length.hash(state);
        self.kernel.hash(state);
        self.prune.hash(state);
        self.min_product.to_bits().hash(state);
        self.parallel_threshold.hash(state);
    }
}

impl PathConfig {
    /// The kernel that will actually run for `stats` under this
    /// configuration — never [`PathKernel::Auto`].
    ///
    /// A positive [`min_product`](Self::min_product) always resolves to
    /// DFS (only DFS expresses the joint affinity/coverage floor).
    /// Otherwise `Auto` resolves by node count and density: layered at or
    /// beyond [`AUTO_NODE_THRESHOLD`] elements or
    /// [`AUTO_AVG_DEGREE_THRESHOLD`] average CSR degree, DFS on the small
    /// sparse remainder where enumeration is cheaper than `max_edges` full
    /// relaxation sweeps (BENCH_matrices.json). Both kernels are exact, so
    /// resolution never changes results — only wall time.
    pub fn effective_kernel(&self, stats: &SchemaStats) -> PathKernel {
        if self.min_product > 0.0 {
            return PathKernel::Dfs;
        }
        match self.kernel {
            PathKernel::Auto => {
                let n = stats.len();
                if n >= AUTO_NODE_THRESHOLD {
                    return PathKernel::Layered;
                }
                if n == 0 {
                    return PathKernel::Layered;
                }
                let edge_records: usize = (0..n).map(|u| stats.degree(ElementId(u as u32))).sum();
                if edge_records as f64 / n as f64 >= AUTO_AVG_DEGREE_THRESHOLD {
                    PathKernel::Layered
                } else {
                    PathKernel::Dfs
                }
            }
            kernel => kernel,
        }
    }

    /// The `1/RC` factor of one edge, clamped at 1.
    ///
    /// Formula 2 divides by the relative cardinality along each step, which
    /// exceeds 1 whenever `RC < 1` (optional children, references split
    /// across several referee elements). Taken literally that makes *rarer*
    /// relationships count as *closer* and lets paths pump affinity through
    /// low-RC links without bound — contradicting the paper's own framing
    /// ("the affinities will be close to 1.0 and 0.5") where affinity tops
    /// out at 1 for a perfect 1:1 step. We therefore clamp the per-edge
    /// factor at 1 (DESIGN.md §3.9); all of the paper's worked examples
    /// have `RC ≥ 1` and are unaffected. The same clamped factor is
    /// precomputed per edge in the statistics' CSR records
    /// (`EdgeRec::rc_factor`), which is what the exploration consumes.
    #[inline]
    pub fn rc_factor(&self, rc: f64) -> f64 {
        (1.0 / rc).min(1.0)
    }

    /// The affinity of a single edge `u → v` under this convention: the
    /// value of Formula 2 for the one-edge path.
    #[inline]
    pub fn edge_affinity(&self, rc: f64) -> f64 {
        match self.path_length {
            PathLength::Edges => self.rc_factor(rc),
            PathLength::Nodes => 0.5 * self.rc_factor(rc),
        }
    }

    /// The constant the clamped `rc_factor` is scaled by when it enters the
    /// coverage product: 1 under the `Edges` convention, 0.5 under `Nodes`
    /// (every edge affinity halves, cf. [`PathConfig::edge_affinity`]).
    #[inline]
    fn affinity_scale(&self) -> f64 {
        match self.path_length {
            PathLength::Edges => 1.0,
            PathLength::Nodes => 0.5,
        }
    }

    fn length_denominator(&self, edges: usize) -> f64 {
        match self.path_length {
            PathLength::Edges => edges as f64,
            PathLength::Nodes => (edges + 1) as f64,
        }
    }
}

/// Per-source exploration result.
#[derive(Debug, Clone)]
pub struct SourceResult {
    /// `best_affinity[b]` = `A(source → b)` (Formula 2); 1 for the source
    /// itself, 0 for unreachable targets.
    pub best_affinity: Vec<f64>,
    /// `best_cov_product[b]` = the path maximum of Formula 3's product
    /// (excluding the `Card` factor); 1 for the source itself.
    pub best_cov_product: Vec<f64>,
    /// Whether the expansion budget was exhausted (maxima become lower
    /// bounds).
    pub truncated: bool,
    /// Whether the [`PathConfig::min_product`] floor cut any branch
    /// (approximate mode; maxima become lower bounds).
    pub floored: bool,
    /// Edge relaxations actually performed for this source. The layered
    /// kernel counts one per traversable edge of every frontier element
    /// whose walk survived the dominated-walk prune — on a tree shallower
    /// than `max_edges`, one per reachable traversable directed edge. The
    /// DFS kernel counts one per edge traversed along a simple path, so the
    /// two kernels' counts differ while their maxima agree bit for bit.
    pub expansions: u64,
    /// Sorted ids of every element this exploration *read*: elements whose
    /// edge records the kernel scanned (or may scan next layer), plus every
    /// target with a nonzero product (whose cardinality scales the coverage
    /// row). The result — values, flags, and expansion count — is a
    /// deterministic function of exactly these elements' stats records, the
    /// foundation of incremental maintenance (`incremental::plan_delta`).
    pub reads: Vec<u32>,
}

/// Upper bound on sources advanced per batched frontier sweep: per-node
/// lane membership is a `u64` bitmask, one bit per source lane.
pub const MAX_BATCH_LANES: usize = 64;

/// Arena scratch for the multi-source batched layered kernel
/// ([`Explorer::explore_batch`]): every per-source array of the scalar
/// kernel is flattened into one `n × stride` allocation indexed
/// `[node * stride + lane]`, and the per-node frontier membership flags
/// become `u64` bitmasks (bit `l` ⇔ lane `l`). The arenas hold the same
/// all-zero-between-batches invariant as the scalar scratch, restored via
/// the `touched` list so sparse batches cost O(touched · stride), not O(n).
#[derive(Debug, Default)]
struct BatchScratch {
    /// Max-product value arenas at the current and next edge count.
    cur_aff: Vec<f64>,
    cur_cov: Vec<f64>,
    next_aff: Vec<f64>,
    next_cov: Vec<f64>,
    /// Per-target running maxima (the scalar kernel folds these into the
    /// result row directly; the batch keeps them lane-major until
    /// extraction).
    best_aff: Vec<f64>,
    best_cov: Vec<f64>,
    /// Best *raw* affinity product (before the length division) reached
    /// per node and lane: with `best_cov`, the dominance bound of the
    /// walk prune.
    reach_aff: Vec<f64>,
    /// Bit `l` set ⇔ the node is in lane `l`'s current/next frontier.
    cur_mask: Vec<u64>,
    next_mask: Vec<u64>,
    /// Bit `l` set ⇔ lane `l` has recorded the node in its read set.
    read_mask: Vec<u64>,
    /// Union frontiers across lanes (insertion-ordered, deduped by mask).
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    /// Every node with a nonzero `read_mask` — the cleanup list that
    /// restores the all-zero arena invariant after a batch, and (sorted)
    /// the extraction order of every lane's row and read set.
    touched: Vec<u32>,
}

impl BatchScratch {
    /// Grow the arenas to cover `nodes × stride` cells. Growth appends
    /// zeros, and the all-zero invariant keeps existing cells zero, so
    /// re-sizing between batches of different shapes is sound without a
    /// wipe.
    fn ensure(&mut self, nodes: usize, stride: usize) {
        let cells = nodes * stride;
        if self.cur_aff.len() < cells {
            for arena in [
                &mut self.cur_aff,
                &mut self.cur_cov,
                &mut self.next_aff,
                &mut self.next_cov,
                &mut self.best_aff,
                &mut self.best_cov,
                &mut self.reach_aff,
            ] {
                arena.resize(cells, 0.0);
            }
        }
        if self.cur_mask.len() < nodes {
            self.cur_mask.resize(nodes, 0);
            self.next_mask.resize(nodes, 0);
            self.read_mask.resize(nodes, 0);
        }
    }
}

/// One explicit-stack DFS frame: a node on the current path plus the
/// position of the next CSR edge to expand.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: u32,
    /// Index of the next edge within `stats.edges(node)`.
    cursor: u32,
    /// Affinity product of the path from the source to `node`.
    aff: f64,
    /// Coverage product of the path from the source to `node`.
    cov: f64,
}

/// Reusable per-thread scratch for path exploration.
///
/// One `Explorer` serves any number of sources over schemas of up to the
/// constructed element count; [`PairMatrices::compute`](crate::PairMatrices)
/// keeps one per worker thread so the cold all-pairs pass performs no
/// per-source allocation beyond its output rows.
#[derive(Debug)]
pub struct Explorer {
    visited: Vec<bool>,
    frames: Vec<Frame>,
    /// Scratch for the per-source reachability pass that seeds the pruning
    /// thresholds: membership flags plus the component's node list.
    in_component: Vec<bool>,
    component: Vec<u32>,
    /// Layered-kernel scratch: per-node max walk products at the current
    /// and next edge count (affinity and coverage relax independently — the
    /// two maxima may be achieved on different paths). The value arrays are
    /// kept all-zero between sources; only entries listed in the frontier
    /// are live, so sparse layers cost O(frontier), not O(n).
    cur_aff: Vec<f64>,
    cur_cov: Vec<f64>,
    next_aff: Vec<f64>,
    next_cov: Vec<f64>,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    in_next: Vec<bool>,
    /// Best raw affinity product reached per node so far (the layered
    /// kernel's dominance bound, beside the result's coverage row); zeroed
    /// over the read set between sources.
    reach_aff: Vec<f64>,
    /// Per-depth pre-multiplied affinity cut thresholds,
    /// `aff_cut[d] = prune_aff · denom(d + 1)`, so the hot prune filter is
    /// a compare instead of a division.
    aff_cut: Vec<f64>,
    /// Dedup flags for the per-source read set ([`SourceResult::reads`]);
    /// restored to all-false between sources.
    read_flag: Vec<bool>,
    /// Lane arenas for [`explore_batch`](Self::explore_batch); allocated on
    /// first batched call so single-source users pay nothing.
    batch: Option<Box<BatchScratch>>,
}

impl Explorer {
    /// Scratch sized for schemas of `n` elements.
    pub fn new(n: usize) -> Self {
        Explorer {
            visited: vec![false; n],
            frames: Vec::with_capacity(64),
            in_component: vec![false; n],
            component: Vec::with_capacity(n),
            cur_aff: vec![0.0; n],
            cur_cov: vec![0.0; n],
            next_aff: vec![0.0; n],
            next_cov: vec![0.0; n],
            frontier: Vec::with_capacity(n),
            next_frontier: Vec::with_capacity(n),
            in_next: vec![false; n],
            reach_aff: vec![0.0; n],
            aff_cut: Vec::new(),
            read_flag: vec![false; n],
            batch: None,
        }
    }

    /// Record `u` into the read set exactly once.
    #[inline]
    fn record_read(flag: &mut [bool], reads: &mut Vec<u32>, u: u32) {
        if !flag[u as usize] {
            flag[u as usize] = true;
            reads.push(u);
        }
    }

    /// Close out the read set: fold in every target with a nonzero product
    /// (its cardinality is read when the coverage row is written), restore
    /// the dedup scratch, and sort into canonical order.
    fn finish_reads(&mut self, n: usize, result: &mut SourceResult) {
        for b in 0..n {
            if result.best_affinity[b] > 0.0 || result.best_cov_product[b] > 0.0 {
                Self::record_read(&mut self.read_flag, &mut result.reads, b as u32);
            }
        }
        for &u in &result.reads {
            self.read_flag[u as usize] = false;
        }
        result.reads.sort_unstable();
    }

    /// Compute, for every target, the maxima of the affinity and coverage
    /// path products from `source`, using the configured kernel.
    ///
    /// Edges with `RC(u → v) = 0` (no data instances on the `u` side) are
    /// not traversable: affinity through them is undefined (the formula
    /// divides by RC) and semantically there is no data connectivity.
    pub fn explore(
        &mut self,
        source: ElementId,
        stats: &SchemaStats,
        config: &PathConfig,
    ) -> SourceResult {
        let n = stats.len();
        assert!(
            self.visited.len() >= n,
            "explorer sized for {} elements, got {}",
            self.visited.len(),
            n
        );
        let mut result = SourceResult {
            best_affinity: vec![0.0; n],
            best_cov_product: vec![0.0; n],
            truncated: false,
            floored: false,
            expansions: 0,
            reads: Vec::new(),
        };
        result.best_affinity[source.index()] = 1.0;
        result.best_cov_product[source.index()] = 1.0;
        if config.max_edges == 0 || n == 0 {
            self.finish_reads(n, &mut result);
            return result;
        }
        if config.effective_kernel(stats) == PathKernel::Layered {
            self.relax_layered(source, stats, config, &mut result);
            self.finish_reads(n, &mut result);
            return result;
        }

        self.visited[..n].fill(false);
        self.frames.clear();
        if config.prune {
            self.collect_component(source, stats, n, config.max_edges, &mut result);
        }

        // Pruning thresholds: stale lower bounds on the minimum recorded
        // per-target maxima over the source's component. Stale is safe —
        // recorded maxima only grow, so the cached minimum only
        // underestimates and pruning stays exact; it is refreshed every
        // ~|component| expansions (amortized O(1) per expansion).
        let mut prune_aff = 0.0f64;
        let mut prune_cov = 0.0f64;
        let refresh_interval = (self.component.len() as u64).max(64);
        let mut refresh_countdown = refresh_interval;
        self.aff_cut.clear();
        self.aff_cut.resize(config.max_edges + 1, 0.0);

        let aff_scale = config.affinity_scale();
        let mut budget = config.max_expansions;
        self.visited[source.index()] = true;
        // Every node whose frame is pushed has its edge list scanned.
        Self::record_read(&mut self.read_flag, &mut result.reads, source.0);
        self.frames.push(Frame {
            node: source.0,
            cursor: 0,
            aff: 1.0,
            cov: 1.0,
        });

        let neighbors = stats.neighbor_lane();
        let rcs = stats.rc_lane();
        let rc_factors = stats.rc_factor_lane();
        let w_backs = stats.w_back_lane();
        'explore: while let Some(frame) = self.frames.last_mut() {
            let node = frame.node;
            let row = stats.edge_range(ElementId(node));
            let idx = row.start + frame.cursor as usize;
            if idx >= row.end {
                // All edges of this node expanded: backtrack.
                self.visited[node as usize] = false;
                self.frames.pop();
                continue;
            }
            frame.cursor += 1;
            let nb = neighbors[idx];
            if self.visited[nb.index()] || rcs[idx] <= 0.0 {
                continue;
            }
            if budget == 0 {
                result.truncated = true;
                break 'explore;
            }
            budget -= 1;
            result.expansions += 1;

            let new_aff = frame.aff * rc_factors[idx];
            // Coverage factor: edge affinity forward × neighbor weight
            // backward, both precomputed on the CSR factor lanes.
            let new_cov = frame.cov * (aff_scale * rc_factors[idx]) * w_backs[idx];
            // The source frame is depth 1, so the path to `nb` has exactly
            // `frames.len()` edges.
            let new_edges = self.frames.len();

            let aff_here = new_aff / config.length_denominator(new_edges);
            let i = nb.index();
            if aff_here > result.best_affinity[i] {
                result.best_affinity[i] = aff_here;
            }
            if new_cov > result.best_cov_product[i] {
                result.best_cov_product[i] = new_cov;
            }

            // Descend unless the branch is dead (extending through a zero
            // coverage product can still improve affinity, so either live
            // product keeps it alive) or already at the depth limit; the
            // floor and pruning checks run only on descent-eligible
            // expansions — at the deepest level there is nothing to cut.
            if (new_aff > 0.0 || new_cov > 0.0) && new_edges < config.max_edges {
                // Approximate-mode floor: cut the branch once both
                // products sink below it.
                if config.min_product > 0.0
                    && new_aff < config.min_product
                    && new_cov < config.min_product
                {
                    result.floored = true;
                    continue;
                }
                // Branch-and-bound: every deeper target sees products ≤
                // the current ones and an affinity denominator ≥ the next
                // depth's, so if neither bound strictly beats the smallest
                // recorded maximum, no descendant of this branch can beat
                // *any* recorded maximum (factors are clamped ≤ 1; the cut
                // is exact).
                if config.prune {
                    if refresh_countdown == 0 {
                        prune_aff = Self::min_over(&self.component, &result.best_affinity);
                        prune_cov = Self::min_over(&self.component, &result.best_cov_product);
                        for (d, slot) in self.aff_cut.iter_mut().enumerate() {
                            *slot = prune_aff * config.length_denominator(d + 1);
                        }
                        refresh_countdown = refresh_interval;
                    } else {
                        refresh_countdown -= 1;
                    }
                    // Two-stage cut: the pre-multiplied per-depth threshold
                    // is a cheap compare (a rounded-down table entry only
                    // *misses* cuts, never adds them); the division — the
                    // exact arbiter — runs only on the rare candidates that
                    // pass the filter.
                    if new_cov <= prune_cov
                        && new_aff <= self.aff_cut[new_edges]
                        && new_aff / config.length_denominator(new_edges + 1) <= prune_aff
                    {
                        continue;
                    }
                }
                self.visited[i] = true;
                Self::record_read(&mut self.read_flag, &mut result.reads, nb.0);
                self.frames.push(Frame {
                    node: nb.0,
                    cursor: 0,
                    aff: new_aff,
                    cov: new_cov,
                });
            }
        }
        // Leave scratch clean for the next source whether we broke out of
        // the loop (budget) or drained the stack.
        for frame in self.frames.drain(..) {
            self.visited[frame.node as usize] = false;
        }
        self.finish_reads(n, &mut result);
        result
    }

    /// Explore many sources per frontier sweep: the **batched layered
    /// kernel**. One pass over each union-frontier vertex's CSR edge row
    /// advances every source lane at once — the inner loop is a
    /// branch-light multiply-max over the contiguous lane arenas — so the
    /// edge lanes are streamed once per layer for the whole batch instead
    /// of once per source.
    ///
    /// **Bit-for-bit identical to per-source [`explore`](Self::explore)**,
    /// including read sets, expansion counts, and flags:
    ///
    /// * values: the scalar kernel's per-target max is order-independent
    ///   (max over non-negative products), and the batch preserves the
    ///   exact multiply chains, so each lane's maxima carry the same bits;
    ///   blind relaxation of non-member lanes is a no-op because their
    ///   values are zero and every product is ≥ 0;
    /// * membership travels in the `u64` masks: a lane's bit is set where
    ///   the scalar kernel's walk arrives (its read set) and cleared where
    ///   the scalar kernel's dominated-walk prune drops the node — the
    ///   same compares on the same bits, against lane-major copies of the
    ///   scalar bounds;
    /// * expansions: a lane's per-layer count is the sum of traversable
    ///   degrees over its frontier members — order-independent, summed
    ///   from the precomputed
    ///   [`traversable_degree`](SchemaStats::traversable_degree) lane;
    /// * budget exhaustion is the one order-*dependent* part of the scalar
    ///   semantics (a mid-layer cut depends on frontier iteration order),
    ///   so a lane whose next layer would overrun its remaining budget is
    ///   evicted from the batch and re-run through the scalar kernel.
    ///
    /// Configurations that resolve to the DFS kernel (including any
    /// positive `min_product` floor) fall back to per-source exploration.
    /// Batches larger than [`MAX_BATCH_LANES`] are processed in chunks.
    pub fn explore_batch(
        &mut self,
        sources: &[ElementId],
        stats: &SchemaStats,
        config: &PathConfig,
    ) -> Vec<SourceResult> {
        let mut out = Vec::with_capacity(sources.len());
        if config.effective_kernel(stats) != PathKernel::Layered || config.max_edges == 0 {
            out.extend(sources.iter().map(|&s| self.explore(s, stats, config)));
            return out;
        }
        for chunk in sources.chunks(MAX_BATCH_LANES) {
            self.explore_batch_chunk(chunk, stats, config, &mut out);
        }
        out
    }

    /// One ≤ [`MAX_BATCH_LANES`]-lane sweep of the batched layered kernel;
    /// appends `sources.len()` results to `out` in source order.
    fn explore_batch_chunk(
        &mut self,
        sources: &[ElementId],
        stats: &SchemaStats,
        config: &PathConfig,
        out: &mut Vec<SourceResult>,
    ) {
        let n = stats.len();
        let lanes = sources.len();
        debug_assert!(lanes <= MAX_BATCH_LANES);
        // Lane stride rounded up to the pad width so the hot multiply-max
        // loop runs whole vector widths.
        let stride = lanes.next_multiple_of(schema_summary_core::stats::LANE_PAD);
        let mut scratch = self.batch.take().unwrap_or_default();
        scratch.ensure(n, stride);

        let mut remaining = [0u64; MAX_BATCH_LANES];
        let mut expansions = [0u64; MAX_BATCH_LANES];
        let mut layer_exp = [0u64; MAX_BATCH_LANES];
        // Bit `l` set: lane `l` would have exhausted its budget mid-layer;
        // its batch state is abandoned and the source re-runs scalar.
        let mut needs_scalar = 0u64;

        for (l, &src) in sources.iter().enumerate() {
            remaining[l] = config.max_expansions as u64;
            let i = src.index();
            if scratch.read_mask[i] == 0 {
                scratch.touched.push(src.0);
            }
            if scratch.cur_mask[i] == 0 {
                scratch.frontier.push(src.0);
            }
            scratch.cur_mask[i] |= 1 << l;
            scratch.read_mask[i] |= 1 << l;
            // The source's own entries are pinned at 1 (clamped factors
            // keep every walk product ≤ 1, so no fold ever improves them),
            // and they seed the prune bounds exactly as in the scalar
            // kernel.
            let cell = i * stride + l;
            scratch.cur_aff[cell] = 1.0;
            scratch.cur_cov[cell] = 1.0;
            scratch.best_aff[cell] = 1.0;
            scratch.best_cov[cell] = 1.0;
            scratch.reach_aff[cell] = 1.0;
        }

        let aff_scale = config.affinity_scale();
        let neighbors = stats.neighbor_lane();
        let rcs = stats.rc_lane();
        let rc_factors = stats.rc_factor_lane();
        let w_backs = stats.w_back_lane();
        for edges_used in 1..=config.max_edges {
            if scratch.frontier.is_empty() {
                break;
            }
            // Whole-layer budget accounting up front: a layer's expansion
            // count per lane is Σ traversable-degree over the lane's
            // frontier members, independent of sweep order. Lanes that
            // cannot afford their full layer are evicted *before* any of
            // it runs (mid-layer truncation is order-dependent).
            layer_exp[..lanes].fill(0);
            for &u in &scratch.frontier {
                let d = u64::from(stats.traversable_degree(ElementId(u)));
                if d == 0 {
                    continue;
                }
                let mut m = scratch.cur_mask[u as usize] & !needs_scalar;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    layer_exp[l] += d;
                    m &= m - 1;
                }
            }
            for (l, &exp) in layer_exp.iter().enumerate().take(lanes) {
                if needs_scalar & (1 << l) != 0 {
                    continue;
                }
                if exp > remaining[l] {
                    needs_scalar |= 1 << l;
                } else {
                    remaining[l] -= exp;
                    expansions[l] += exp;
                }
            }
            // Relaxation sweep: one pass over the union frontier's edge
            // rows updates all lanes. Mask propagation is branchless;
            // non-member lanes carry zeros, so the blind multiply-max is a
            // per-lane no-op for them.
            for &u in &scratch.frontier {
                let ui = u as usize;
                let m = scratch.cur_mask[ui];
                let bu = ui * stride;
                // Lane occupancy decides the sweep shape per *node*: a
                // saturated mask runs the full-stride multiply-max (a
                // straight SIMD stream over the padded row), a sparse one
                // iterates only its set bits — the flop and byte traffic
                // then tracks *active* lanes, not the batch width. Both
                // shapes relax identical values (inactive lanes hold zeros
                // and every product is ≥ 0, so blind relaxation of them is
                // a no-op), so the choice never changes bits.
                let dense = (m.count_ones() as usize) * 4 >= lanes;
                // The source node's value rows are loop-invariant across
                // its edges; staging them in stack buffers pins them in L1
                // and frees the inner loop from re-reading through the
                // arena borrows after every store.
                let mut src_aff = [0.0f64; MAX_BATCH_LANES];
                let mut src_cov = [0.0f64; MAX_BATCH_LANES];
                src_aff[..stride].copy_from_slice(&scratch.cur_aff[bu..][..stride]);
                src_cov[..stride].copy_from_slice(&scratch.cur_cov[bu..][..stride]);
                for idx in stats.edge_range(ElementId(u)) {
                    if rcs[idx] <= 0.0 {
                        continue;
                    }
                    let vi = neighbors[idx].index();
                    let rf = rc_factors[idx];
                    let cf = aff_scale * rf;
                    let wb = w_backs[idx];
                    if scratch.next_mask[vi] == 0 {
                        scratch.next_frontier.push(neighbors[idx].0);
                    }
                    scratch.next_mask[vi] |= m;
                    let bv = vi * stride;
                    if dense {
                        let next_aff = &mut scratch.next_aff[bv..][..stride];
                        let next_cov = &mut scratch.next_cov[bv..][..stride];
                        // Same multiply chains as the scalar kernels; the
                        // branchless select is bitwise the scalar compare-
                        // and-store (ties keep the stored value; no value is
                        // NaN or −0.0).
                        for l in 0..stride {
                            let na = src_aff[l] * rf;
                            let nc = (src_cov[l] * cf) * wb;
                            next_aff[l] = if na > next_aff[l] { na } else { next_aff[l] };
                            next_cov[l] = if nc > next_cov[l] { nc } else { next_cov[l] };
                        }
                    } else {
                        let mut bits = m;
                        while bits != 0 {
                            let l = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let na = src_aff[l] * rf;
                            let nc = (src_cov[l] * cf) * wb;
                            let slot = &mut scratch.next_aff[bv + l];
                            if na > *slot {
                                *slot = na;
                            }
                            let slot = &mut scratch.next_cov[bv + l];
                            if nc > *slot {
                                *slot = nc;
                            }
                        }
                    }
                }
            }
            // Fold the layer into the per-lane maxima and read sets, then
            // prune exactly as the scalar kernel does: a lane survives at
            // `v` only if one of its products strictly beats its bound
            // there. Pruned lanes are zeroed and leave the mask; a node
            // with no surviving lane leaves the frontier.
            let denom = config.length_denominator(edges_used);
            let mut kept = 0;
            for j in 0..scratch.next_frontier.len() {
                let v = scratch.next_frontier[j];
                let vi = v as usize;
                let vm = scratch.next_mask[vi];
                if scratch.read_mask[vi] == 0 {
                    scratch.touched.push(v);
                }
                scratch.read_mask[vi] |= vm;
                let bv = vi * stride;
                let next_aff = &mut scratch.next_aff[bv..][..stride];
                let next_cov = &mut scratch.next_cov[bv..][..stride];
                let best_aff = &mut scratch.best_aff[bv..][..stride];
                let best_cov = &mut scratch.best_cov[bv..][..stride];
                let reach_aff = &mut scratch.reach_aff[bv..][..stride];
                let mut live = 0u64;
                // Same dense/sparse split as the sweep: non-member lanes
                // hold zeros, which never beat a bound (bounds are ≥ 0).
                if (vm.count_ones() as usize) * 4 >= lanes {
                    for l in 0..stride {
                        let a = next_aff[l];
                        let val = a / denom;
                        best_aff[l] = if val > best_aff[l] { val } else { best_aff[l] };
                        let live_aff = a > reach_aff[l];
                        reach_aff[l] = if live_aff { a } else { reach_aff[l] };
                        let cv = next_cov[l];
                        let live_cov = cv > best_cov[l];
                        best_cov[l] = if live_cov { cv } else { best_cov[l] };
                        let keep = live_aff | live_cov;
                        live |= u64::from(keep) << l;
                        next_aff[l] = if keep { a } else { 0.0 };
                        next_cov[l] = if keep { cv } else { 0.0 };
                    }
                } else {
                    let mut bits = vm;
                    while bits != 0 {
                        let l = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let a = next_aff[l];
                        let val = a / denom;
                        if val > best_aff[l] {
                            best_aff[l] = val;
                        }
                        let live_aff = a > reach_aff[l];
                        if live_aff {
                            reach_aff[l] = a;
                        }
                        let cv = next_cov[l];
                        let live_cov = cv > best_cov[l];
                        if live_cov {
                            best_cov[l] = cv;
                        }
                        if live_aff || live_cov {
                            live |= 1 << l;
                        } else {
                            next_aff[l] = 0.0;
                            next_cov[l] = 0.0;
                        }
                    }
                }
                scratch.next_mask[vi] = live;
                if live != 0 {
                    scratch.next_frontier[kept] = v;
                    kept += 1;
                }
            }
            scratch.next_frontier.truncate(kept);
            // Re-zero the consumed layer, then promote the next one.
            for &u in &scratch.frontier {
                let ui = u as usize;
                let bu = ui * stride;
                scratch.cur_aff[bu..bu + stride].fill(0.0);
                scratch.cur_cov[bu..bu + stride].fill(0.0);
                scratch.cur_mask[ui] = 0;
            }
            std::mem::swap(&mut scratch.cur_aff, &mut scratch.next_aff);
            std::mem::swap(&mut scratch.cur_cov, &mut scratch.next_cov);
            std::mem::swap(&mut scratch.cur_mask, &mut scratch.next_mask);
            std::mem::swap(&mut scratch.frontier, &mut scratch.next_frontier);
            scratch.next_frontier.clear();
        }

        // One-pass extraction: walking the touched nodes in ascending order
        // fills every lane's rows and leaves every lane's read set sorted.
        // Each target with a nonzero product was reached, so it is in its
        // lane's read mask. Read sets are sized exactly up front, since the
        // matrices store them for as long as they live. Evicted lanes get a
        // placeholder and a scalar re-run once the arenas are parked again.
        scratch.touched.sort_unstable();
        let mut reads_len = [0usize; MAX_BATCH_LANES];
        for &v in &scratch.touched {
            let mut bits = scratch.read_mask[v as usize] & !needs_scalar;
            while bits != 0 {
                reads_len[bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
        let results_start = out.len();
        out.extend((0..lanes).map(|l| SourceResult {
            best_affinity: vec![0.0; n],
            best_cov_product: vec![0.0; n],
            truncated: false,
            floored: false,
            expansions: expansions[l],
            reads: Vec::with_capacity(reads_len[l]),
        }));
        let results = &mut out[results_start..];
        for &v in &scratch.touched {
            let vi = v as usize;
            let bv = vi * stride;
            let mut bits = scratch.read_mask[vi] & !needs_scalar;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let result = &mut results[l];
                result.best_affinity[vi] = scratch.best_aff[bv + l];
                result.best_cov_product[vi] = scratch.best_cov[bv + l];
                result.reads.push(v);
            }
        }

        // Restore the all-zero arena invariant and park the scratch. Layer
        // values and frontier masks survive only on the last frontier (every
        // pruned lane was zeroed, every consumed layer re-zeroed); bounds
        // and read masks cover the touched nodes.
        for &u in &scratch.frontier {
            let bu = u as usize * stride;
            scratch.cur_aff[bu..bu + stride].fill(0.0);
            scratch.cur_cov[bu..bu + stride].fill(0.0);
            scratch.cur_mask[u as usize] = 0;
        }
        for &v in &scratch.touched {
            let bv = v as usize * stride;
            scratch.best_aff[bv..bv + stride].fill(0.0);
            scratch.best_cov[bv..bv + stride].fill(0.0);
            scratch.reach_aff[bv..bv + stride].fill(0.0);
            scratch.read_mask[v as usize] = 0;
        }
        scratch.touched.clear();
        scratch.frontier.clear();
        self.batch = Some(scratch);

        if needs_scalar != 0 {
            for (l, &src) in sources.iter().enumerate() {
                if needs_scalar & (1 << l) != 0 {
                    out[results_start + l] = self.explore(src, stats, config);
                }
            }
        }
    }

    /// The layered kernel: Bellman–Ford over the `(max, ×)` semiring,
    /// restricted to walks that can still win.
    ///
    /// `cur_*[v]` holds the maximum product over the *surviving* walks of
    /// exactly `edges_used - 1` edges from the source to `v`; each layer
    /// relaxes every traversable edge of the frontier once. Because all
    /// per-edge factors are clamped to `[0, 1]`, the walk maxima equal the
    /// simple-path maxima of Formulas 2 and 3 (cycle removal never
    /// decreases a product nor lengthens a path — DESIGN.md §3.14), so
    /// recording each layer's values yields exactly the DFS kernel's
    /// results in `O(max_edges · |edges|)` instead of enumerating paths.
    ///
    /// **Dominated-walk pruning.** After a layer's fold, `v` stays in the
    /// frontier only if its affinity product strictly beats the best raw
    /// product any shorter walk brought to `v` (`reach_aff`), or its
    /// coverage product strictly beats the best coverage product recorded
    /// at `v`. A dominated walk's every continuation is matched, bit for
    /// bit, by the same continuation of the earlier walk — same factors in
    /// the same order under monotone rounding, fewer edges, a smaller
    /// affinity denominator — so dropping it changes no maximum; it only
    /// stops walks that bounce along tree edges. `v` enters the read set
    /// *before* the prune, as the trace's compare reads its arrival.
    fn relax_layered(
        &mut self,
        source: ElementId,
        stats: &SchemaStats,
        config: &PathConfig,
        result: &mut SourceResult,
    ) {
        let aff_scale = config.affinity_scale();
        let mut budget = config.max_expansions;
        // Invariant: the value arrays are all-zero on entry (enforced by
        // zeroing exactly the frontier entries before returning), so a
        // sparse layer touches O(frontier · degree) entries, not O(n).
        self.frontier.clear();
        self.frontier.push(source.0);
        // Frontier members have their edge lists scanned (the final
        // frontier's scan is cut by the depth limit; including it is a
        // harmless over-approximation of the read set).
        Self::record_read(&mut self.read_flag, &mut result.reads, source.0);
        self.cur_aff[source.index()] = 1.0;
        self.cur_cov[source.index()] = 1.0;
        // The source's own best coverage product is already pinned at 1
        // in `result`; its raw affinity product is too.
        self.reach_aff[source.index()] = 1.0;
        let neighbors = stats.neighbor_lane();
        let rcs = stats.rc_lane();
        let rc_factors = stats.rc_factor_lane();
        let w_backs = stats.w_back_lane();
        for edges_used in 1..=config.max_edges {
            self.next_frontier.clear();
            let mut exhausted = false;
            'relax: for &u in &self.frontier {
                let a = self.cur_aff[u as usize];
                let c = self.cur_cov[u as usize];
                for idx in stats.edge_range(ElementId(u)) {
                    if rcs[idx] <= 0.0 {
                        continue;
                    }
                    if budget == 0 {
                        exhausted = true;
                        break 'relax;
                    }
                    budget -= 1;
                    result.expansions += 1;
                    let i = neighbors[idx].index();
                    // Same multiply chains as the DFS kernel, so a walk's
                    // value is bit-identical to the corresponding path's.
                    let na = a * rc_factors[idx];
                    let nc = c * (aff_scale * rc_factors[idx]) * w_backs[idx];
                    if self.in_next[i] {
                        if na > self.next_aff[i] {
                            self.next_aff[i] = na;
                        }
                        if nc > self.next_cov[i] {
                            self.next_cov[i] = nc;
                        }
                    } else {
                        self.in_next[i] = true;
                        Self::record_read(&mut self.read_flag, &mut result.reads, neighbors[idx].0);
                        self.next_frontier.push(neighbors[idx].0);
                        self.next_aff[i] = na;
                        self.next_cov[i] = nc;
                    }
                }
            }
            // Fold this layer (possibly partial, if the budget ran out) into
            // the per-target maxima — partial layers are lower bounds, which
            // is exactly what `truncated` signals — and drop the nodes whose
            // walks are dominated on both products. A zero product never
            // beats a bound (bounds are ≥ 0), so `> bound` subsumes the
            // `> 0` guards.
            let denom = config.length_denominator(edges_used);
            let mut kept = 0;
            for j in 0..self.next_frontier.len() {
                let v = self.next_frontier[j] as usize;
                self.in_next[v] = false;
                let a = self.next_aff[v];
                let val = a / denom;
                if val > result.best_affinity[v] {
                    result.best_affinity[v] = val;
                }
                let live_aff = a > self.reach_aff[v];
                if live_aff {
                    self.reach_aff[v] = a;
                }
                let cv = self.next_cov[v];
                let live_cov = cv > result.best_cov_product[v];
                if live_cov {
                    result.best_cov_product[v] = cv;
                }
                if live_aff || live_cov {
                    self.next_frontier[kept] = v as u32;
                    kept += 1;
                } else {
                    self.next_aff[v] = 0.0;
                    self.next_cov[v] = 0.0;
                }
            }
            self.next_frontier.truncate(kept);
            // Re-zero the consumed layer, then promote the next one.
            for &u in &self.frontier {
                self.cur_aff[u as usize] = 0.0;
                self.cur_cov[u as usize] = 0.0;
            }
            std::mem::swap(&mut self.cur_aff, &mut self.next_aff);
            std::mem::swap(&mut self.cur_cov, &mut self.next_cov);
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            if exhausted {
                result.truncated = true;
                break;
            }
            if self.frontier.is_empty() {
                break;
            }
        }
        // Restore the all-zero invariants for the next source: values live
        // only on the frontier, bounds only on nodes the walks reached.
        for &u in &self.frontier {
            self.cur_aff[u as usize] = 0.0;
            self.cur_cov[u as usize] = 0.0;
        }
        self.frontier.clear();
        for &u in &result.reads {
            self.reach_aff[u as usize] = 0.0;
        }
    }

    /// Nodes reachable from `source` within `max_edges` hops over
    /// traversable (`rc > 0`) edges — the only targets whose maxima this
    /// source can ever improve, and therefore the set the pruning
    /// thresholds are minimized over. Nodes outside it (unreachable, or
    /// whose shortest distance exceeds the depth limit) stay 0 forever and
    /// would pin the minimum there, disabling pruning entirely.
    fn collect_component(
        &mut self,
        source: ElementId,
        stats: &SchemaStats,
        n: usize,
        max_edges: usize,
        result: &mut SourceResult,
    ) {
        self.in_component[..n].fill(false);
        self.component.clear();
        self.in_component[source.index()] = true;
        self.component.push(source.0);
        let mut head = 0;
        let mut frontier_end = self.component.len();
        let mut depth = 0;
        while head < self.component.len() && depth < max_edges {
            while head < frontier_end {
                let u = ElementId(self.component[head]);
                head += 1;
                // The pruning thresholds (and hence the whole trace) depend
                // on this scan of `u`'s edge list.
                Self::record_read(&mut self.read_flag, &mut result.reads, u.0);
                for edge in stats.edges(u) {
                    if edge.rc > 0.0 && !self.in_component[edge.neighbor.index()] {
                        self.in_component[edge.neighbor.index()] = true;
                        self.component.push(edge.neighbor.0);
                    }
                }
            }
            frontier_end = self.component.len();
            depth += 1;
        }
    }

    fn min_over(nodes: &[u32], values: &[f64]) -> f64 {
        nodes
            .iter()
            .map(|&i| values[i as usize])
            .fold(f64::INFINITY, f64::min)
    }
}

/// Enumerate all simple paths from `source` with one-shot scratch. Callers
/// exploring many sources should reuse an [`Explorer`] instead.
pub fn explore_from(source: ElementId, stats: &SchemaStats, config: &PathConfig) -> SourceResult {
    Explorer::new(stats.len()).explore(source, stats, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_summary_core::graph::SchemaGraphBuilder;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::types::SchemaType;
    use schema_summary_core::SchemaGraph;

    /// The paper's Section 3.2 worked example: o with child b
    /// (RC(o→b)=2, RC(b→o)=1) plus 10 other children with RC 1 each way.
    fn paper_example() -> (SchemaGraph, ElementId, ElementId, SchemaStats) {
        let mut builder = SchemaGraphBuilder::new("o");
        let b = builder
            .add_child(builder.root(), "b", SchemaType::set_of_rcd())
            .unwrap();
        let mut others = Vec::new();
        for i in 0..10 {
            others.push(
                builder
                    .add_child(builder.root(), format!("c{i}"), SchemaType::rcd())
                    .unwrap(),
            );
        }
        let g = builder.build().unwrap();
        // card(o)=100, card(b)=200 (2 per o), card(c_i)=100 (1 per o).
        let mut cards = vec![100u64, 200];
        cards.extend(std::iter::repeat_n(100, 10));
        let mut links = vec![LinkCount {
            from: g.root(),
            to: b,
            count: 200,
        }];
        for &c in &others {
            links.push(LinkCount {
                from: g.root(),
                to: c,
                count: 100,
            });
        }
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let root = g.root();
        (g, root, b, s)
    }

    #[test]
    fn paper_affinity_example() {
        let (_, o, b, s) = paper_example();
        let cfg = PathConfig::default();
        let from_b = explore_from(b, &s, &cfg);
        let from_o = explore_from(o, &s, &cfg);
        // A(b→o) = 1/RC(b→o) = 1.0; A(o→b) = 1/RC(o→b) = 0.5.
        assert!((from_b.best_affinity[o.index()] - 1.0).abs() < 1e-9);
        assert!((from_o.best_affinity[b.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn paper_coverage_example() {
        let (_, o, b, s) = paper_example();
        let cfg = PathConfig::default();
        // C(o→b)/card_b = A(o→b) · W(b→o) = 0.5 · 1 = 0.5.
        let from_o = explore_from(o, &s, &cfg);
        assert!((from_o.best_cov_product[b.index()] - 0.5).abs() < 1e-9);
        // C(b→o)/card_o = A(b→o) · W(o→b) = 1.0 · 2/12 ≈ 0.1667.
        let from_b = explore_from(b, &s, &cfg);
        assert!((from_b.best_cov_product[o.index()] - 2.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn nodes_convention_halves_direct_edges() {
        let (_, o, b, s) = paper_example();
        let cfg = PathConfig {
            path_length: PathLength::Nodes,
            ..Default::default()
        };
        let from_b = explore_from(b, &s, &cfg);
        assert!((from_b.best_affinity[o.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn longer_paths_are_penalized() {
        // Chain r - a - b, all RC 1. A(r→a) = 1/1 = 1; A(r→b) = 1/2.
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let b = builder.add_child(a, "b", SchemaType::rcd()).unwrap();
        let g = builder.build().unwrap();
        let s = SchemaStats::uniform(&g);
        let res = explore_from(g.root(), &s, &PathConfig::default());
        assert!((res.best_affinity[a.index()] - 1.0).abs() < 1e-9);
        assert!((res.best_affinity[b.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multiple_paths_take_the_max() {
        // Diamond: r has children a (RC 1) and b (RC 10); both value-link to
        // t. Path through a: product 1/1 · 1/rc(a→t); through b: 1/10 · ...
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let b = builder
            .add_child(builder.root(), "b", SchemaType::set_of_rcd())
            .unwrap();
        let t = builder
            .add_child(builder.root(), "t", SchemaType::rcd())
            .unwrap();
        builder.add_value_link(a, t).unwrap();
        builder.add_value_link(b, t).unwrap();
        let g = builder.build().unwrap();
        let cards = vec![1u64, 1, 10, 1];
        let links = vec![
            LinkCount {
                from: g.root(),
                to: a,
                count: 1,
            },
            LinkCount {
                from: g.root(),
                to: b,
                count: 10,
            },
            LinkCount {
                from: g.root(),
                to: t,
                count: 1,
            },
            LinkCount {
                from: a,
                to: t,
                count: 1,
            },
            LinkCount {
                from: b,
                to: t,
                count: 10,
            },
        ];
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let res = explore_from(g.root(), &s, &PathConfig::default());
        // Direct edge r→t: affinity 1/RC(r→t) = 1.
        assert!((res.best_affinity[t.index()] - 1.0).abs() < 1e-9);
        // Through a: (1/1 · 1/1)/2 = 0.5 < 1, so the direct edge wins —
        // verify by removing it: recompute on a graph without r→t.
        let mut builder2 = SchemaGraphBuilder::new("r");
        let a2 = builder2
            .add_child(builder2.root(), "a", SchemaType::rcd())
            .unwrap();
        let b2 = builder2
            .add_child(builder2.root(), "b", SchemaType::set_of_rcd())
            .unwrap();
        let t2 = builder2.add_child(a2, "t", SchemaType::rcd()).unwrap();
        builder2.add_value_link(b2, t2).unwrap();
        let g2 = builder2.build().unwrap();
        let cards2 = vec![1u64, 1, 10, 1];
        let links2 = vec![
            LinkCount {
                from: g2.root(),
                to: a2,
                count: 1,
            },
            LinkCount {
                from: g2.root(),
                to: b2,
                count: 10,
            },
            LinkCount {
                from: a2,
                to: t2,
                count: 1,
            },
            LinkCount {
                from: b2,
                to: t2,
                count: 10,
            },
        ];
        let s2 = SchemaStats::from_link_counts(&g2, &cards2, &links2).unwrap();
        let res2 = explore_from(g2.root(), &s2, &PathConfig::default());
        // Two paths to t2: r→a→t (product 1, len 2 → 0.5) and
        // r→b→t (product (1/10)·(1/1), len 2 → 0.05). Max = 0.5.
        assert!((res2.best_affinity[t2.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn depth_limit_cuts_long_chains() {
        let mut builder = SchemaGraphBuilder::new("r");
        let mut prev = builder.root();
        let mut ids = vec![prev];
        for i in 0..15 {
            prev = builder
                .add_child(prev, format!("n{i}"), SchemaType::rcd())
                .unwrap();
            ids.push(prev);
        }
        let g = builder.build().unwrap();
        let s = SchemaStats::uniform(&g);
        let cfg = PathConfig {
            max_edges: 5,
            ..Default::default()
        };
        let res = explore_from(g.root(), &s, &cfg);
        assert!(res.best_affinity[ids[5].index()] > 0.0);
        assert_eq!(res.best_affinity[ids[6].index()], 0.0);
    }

    #[test]
    fn budget_truncation_is_flagged() {
        let (_, o, _, s) = paper_example();
        let cfg = PathConfig {
            max_expansions: 3,
            ..Default::default()
        };
        let res = explore_from(o, &s, &cfg);
        assert!(res.truncated);
        assert_eq!(res.expansions, 3);
    }

    #[test]
    fn zero_rc_edges_are_not_traversable() {
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let g = builder.build().unwrap();
        // a has zero cardinality: no data connectivity at all.
        let s = SchemaStats::from_link_counts(&g, &[1, 0], &[]).unwrap();
        let res = explore_from(g.root(), &s, &PathConfig::default());
        assert_eq!(res.best_affinity[a.index()], 0.0);
    }

    #[test]
    fn self_affinity_is_one() {
        let (_, o, b, s) = paper_example();
        let res = explore_from(b, &s, &PathConfig::default());
        assert_eq!(res.best_affinity[b.index()], 1.0);
        assert_eq!(res.best_cov_product[b.index()], 1.0);
        let _ = o;
    }

    /// Build a diamond-rich graph where many paths exist so pruning has
    /// something to cut: a 3-level tree with cross value links.
    fn braided() -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("r");
        let mut level1 = Vec::new();
        let mut level2 = Vec::new();
        for i in 0..4 {
            let s1 = b
                .add_child(b.root(), format!("a{i}"), SchemaType::set_of_rcd())
                .unwrap();
            level1.push(s1);
            for j in 0..3 {
                level2.push(
                    b.add_child(s1, format!("a{i}b{j}"), SchemaType::set_of_rcd())
                        .unwrap(),
                );
            }
        }
        for (i, &f) in level2.iter().enumerate() {
            let t = level2[(i + 5) % level2.len()];
            let _ = b.add_value_link(f, t);
        }
        let g = b.build().unwrap();
        let mut cards = vec![1u64; g.len()];
        for (i, c) in cards.iter_mut().enumerate().skip(1) {
            *c = 1 + (i as u64 * 7) % 13;
        }
        let mut links = Vec::new();
        for (p, c) in g.structural_links().collect::<Vec<_>>() {
            links.push(LinkCount {
                from: p,
                to: c,
                count: cards[c.index()],
            });
        }
        for (f, t) in g.value_links().collect::<Vec<_>>() {
            links.push(LinkCount {
                from: f,
                to: t,
                count: cards[f.index()].min(cards[t.index()]),
            });
        }
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (g, s)
    }

    #[test]
    fn pruning_is_exact_and_cuts_expansions() {
        let (g, s) = braided();
        let pruned_cfg = PathConfig {
            kernel: PathKernel::Dfs,
            ..Default::default()
        };
        let unpruned_cfg = PathConfig {
            kernel: PathKernel::Dfs,
            prune: false,
            ..Default::default()
        };
        let mut pruned_total = 0;
        let mut unpruned_total = 0;
        for e in g.element_ids() {
            let pruned = explore_from(e, &s, &pruned_cfg);
            let unpruned = explore_from(e, &s, &unpruned_cfg);
            assert!(!pruned.truncated && !unpruned.truncated);
            assert!(!pruned.floored && !unpruned.floored);
            assert_eq!(pruned.best_affinity, unpruned.best_affinity, "source {e}");
            assert_eq!(
                pruned.best_cov_product, unpruned.best_cov_product,
                "source {e}"
            );
            pruned_total += pruned.expansions;
            unpruned_total += unpruned.expansions;
        }
        assert!(
            pruned_total < unpruned_total,
            "pruning cut nothing: {pruned_total} vs {unpruned_total}"
        );
    }

    #[test]
    fn min_product_floor_is_flagged_and_lower_bounds() {
        let (g, s) = braided();
        let exact_cfg = PathConfig {
            kernel: PathKernel::Dfs,
            ..Default::default()
        };
        // Compare expansion counts with pruning off: the floor cuts a strict
        // subset of the unpruned search tree, whereas under pruning a
        // floored run can expand *more* (its lower recorded maxima weaken
        // the prune thresholds).
        let unpruned_cfg = PathConfig {
            kernel: PathKernel::Dfs,
            prune: false,
            ..Default::default()
        };
        let floored_cfg = PathConfig {
            kernel: PathKernel::Dfs,
            min_product: 0.05,
            prune: false,
            ..Default::default()
        };
        let mut any_floored = false;
        for e in g.element_ids() {
            let exact = explore_from(e, &s, &exact_cfg);
            let unpruned = explore_from(e, &s, &unpruned_cfg);
            let approx = explore_from(e, &s, &floored_cfg);
            any_floored |= approx.floored;
            for i in 0..s.len() {
                assert!(approx.best_affinity[i] <= exact.best_affinity[i] + 1e-15);
                assert!(approx.best_cov_product[i] <= exact.best_cov_product[i] + 1e-15);
            }
            assert!(approx.expansions <= unpruned.expansions);
        }
        assert!(
            any_floored,
            "floor of 0.05 cut nothing on the braided graph"
        );
    }

    #[test]
    fn explorer_scratch_is_reusable_across_sources() {
        let (g, s) = braided();
        let mut explorer = Explorer::new(s.len());
        let cfg = PathConfig::default();
        for e in g.element_ids() {
            let reused = explorer.explore(e, &s, &cfg);
            let fresh = explore_from(e, &s, &cfg);
            assert_eq!(reused.best_affinity, fresh.best_affinity, "source {e}");
            assert_eq!(
                reused.best_cov_product, fresh.best_cov_product,
                "source {e}"
            );
            assert_eq!(reused.expansions, fresh.expansions);
        }
    }

    #[test]
    fn truncated_exploration_leaves_scratch_clean() {
        let (g, s) = braided();
        for kernel in [PathKernel::Dfs, PathKernel::Layered] {
            let mut explorer = Explorer::new(s.len());
            let tight = PathConfig {
                kernel,
                max_expansions: 5,
                ..Default::default()
            };
            let res = explorer.explore(g.root(), &s, &tight);
            assert!(res.truncated);
            // A subsequent full exploration on the same scratch must be
            // correct.
            let full = PathConfig {
                kernel,
                ..Default::default()
            };
            let after = explorer.explore(g.root(), &s, &full);
            let fresh = explore_from(g.root(), &s, &full);
            assert_eq!(after.best_affinity, fresh.best_affinity);
            assert_eq!(after.best_cov_product, fresh.best_cov_product);
        }
    }

    /// The whole per-source contract, bit-for-bit: values, flags,
    /// expansion counts, and read sets.
    fn assert_result_bits_eq(a: &SourceResult, b: &SourceResult, ctx: &str) {
        assert_eq!(a.truncated, b.truncated, "{ctx}: truncated");
        assert_eq!(a.floored, b.floored, "{ctx}: floored");
        assert_eq!(a.expansions, b.expansions, "{ctx}: expansions");
        assert_eq!(a.reads, b.reads, "{ctx}: reads");
        assert_rows_bits_eq(a, b, ctx);
    }

    /// Bitwise equality of the affinity and coverage-product rows — what
    /// kernels that search differently (and so count expansions and read
    /// sets differently) must still agree on.
    fn assert_rows_bits_eq(a: &SourceResult, b: &SourceResult, ctx: &str) {
        for i in 0..a.best_affinity.len() {
            assert_eq!(
                a.best_affinity[i].to_bits(),
                b.best_affinity[i].to_bits(),
                "{ctx}: affinity[{i}]"
            );
            assert_eq!(
                a.best_cov_product[i].to_bits(),
                b.best_cov_product[i].to_bits(),
                "{ctx}: coverage[{i}]"
            );
        }
    }

    #[test]
    fn batched_kernel_matches_single_source_bitwise() {
        let (g, s) = braided();
        let cfg = PathConfig {
            kernel: PathKernel::Layered,
            ..Default::default()
        };
        let sources: Vec<_> = g.element_ids().collect();
        for batch in [1usize, 2, 3, 7, sources.len()] {
            let mut batched = Explorer::new(s.len());
            let mut scalar = Explorer::new(s.len());
            for chunk in sources.chunks(batch) {
                let results = batched.explore_batch(chunk, &s, &cfg);
                assert_eq!(results.len(), chunk.len());
                for (src, got) in chunk.iter().zip(&results) {
                    let want = scalar.explore(*src, &s, &cfg);
                    assert_result_bits_eq(got, &want, &format!("batch={batch} src={src}"));
                }
            }
        }
    }

    #[test]
    fn batched_kernel_evicts_budget_lanes_to_scalar() {
        let (g, s) = braided();
        // Budgets chosen to exhaust mid-layer on the braided graph, the one
        // order-dependent case: those lanes must be re-run scalar.
        for max_expansions in [0usize, 1, 3, 5, 17, 40] {
            let cfg = PathConfig {
                kernel: PathKernel::Layered,
                max_expansions,
                ..Default::default()
            };
            let sources: Vec<_> = g.element_ids().collect();
            let mut batched = Explorer::new(s.len());
            let mut scalar = Explorer::new(s.len());
            let results = batched.explore_batch(&sources, &s, &cfg);
            let mut any_truncated = false;
            for (src, got) in sources.iter().zip(&results) {
                let want = scalar.explore(*src, &s, &cfg);
                any_truncated |= want.truncated;
                assert_result_bits_eq(got, &want, &format!("budget={max_expansions} src={src}"));
            }
            if max_expansions > 0 && max_expansions < 17 {
                assert!(any_truncated, "budget {max_expansions} truncated nothing");
            }
        }
    }

    #[test]
    fn batch_scratch_is_reusable_across_batches() {
        let (g, s) = braided();
        let cfg = PathConfig {
            kernel: PathKernel::Layered,
            ..Default::default()
        };
        let sources: Vec<_> = g.element_ids().collect();
        let mut explorer = Explorer::new(s.len());
        let first = explorer.explore_batch(&sources, &s, &cfg);
        // Interleave a truncating batch to dirty the arenas, then repeat.
        let tight = PathConfig {
            kernel: PathKernel::Layered,
            max_expansions: 5,
            ..Default::default()
        };
        let _ = explorer.explore_batch(&sources, &s, &tight);
        let second = explorer.explore_batch(&sources, &s, &cfg);
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert_result_bits_eq(a, b, &format!("reuse src index {i}"));
        }
    }

    #[test]
    fn batched_kernel_falls_back_for_dfs_configs() {
        let (g, s) = braided();
        // A positive floor always resolves to DFS; explore_batch must
        // transparently run per-source.
        let cfg = PathConfig {
            min_product: 0.05,
            prune: false,
            ..Default::default()
        };
        let sources: Vec<_> = g.element_ids().collect();
        let mut batched = Explorer::new(s.len());
        let mut scalar = Explorer::new(s.len());
        let results = batched.explore_batch(&sources, &s, &cfg);
        for (src, got) in sources.iter().zip(&results) {
            let want = scalar.explore(*src, &s, &cfg);
            assert_result_bits_eq(got, &want, &format!("dfs fallback src={src}"));
        }
    }

    #[test]
    fn layered_kernel_matches_dfs_enumeration() {
        let (g, s) = braided();
        for path_length in [PathLength::Edges, PathLength::Nodes] {
            let layered_cfg = PathConfig {
                kernel: PathKernel::Layered,
                path_length,
                ..Default::default()
            };
            let dfs_cfg = PathConfig {
                kernel: PathKernel::Dfs,
                path_length,
                ..Default::default()
            };
            for e in g.element_ids() {
                let layered = explore_from(e, &s, &layered_cfg);
                let dfs = explore_from(e, &s, &dfs_cfg);
                assert!(!layered.truncated && !dfs.truncated);
                assert_rows_bits_eq(&layered, &dfs, &format!("{path_length:?} src={e}"));
            }
        }
    }

    /// A tree shallower than `max_edges`: every element is first reached
    /// on its one simple path, and a walk that bounces back along a tree
    /// edge arrives with products no greater, so it is pruned. Each
    /// element therefore relaxes its traversable edges exactly once — one
    /// expansion per reachable traversable directed edge, `2·(n − 1)` per
    /// source — in the scalar and the batched kernel alike.
    #[test]
    fn layered_expansions_count_each_directed_edge_once() {
        let mut b = SchemaGraphBuilder::new("r");
        let mut level = vec![b.root()];
        for depth in 0..3 {
            let mut next = Vec::new();
            for &parent in &level {
                for i in 0..2 {
                    next.push(
                        b.add_child(parent, format!("d{depth}c{i}"), SchemaType::set_of_rcd())
                            .unwrap(),
                    );
                }
            }
            level = next;
        }
        let g = b.build().unwrap();
        let s = SchemaStats::uniform(&g);
        let cfg = PathConfig {
            kernel: PathKernel::Layered,
            ..Default::default()
        };
        let directed_edges = 2 * (g.len() as u64 - 1);
        let sources: Vec<_> = g.element_ids().collect();
        let batched = Explorer::new(s.len()).explore_batch(&sources, &s, &cfg);
        for (&e, from_batch) in sources.iter().zip(&batched) {
            let res = explore_from(e, &s, &cfg);
            assert_eq!(res.expansions, directed_edges, "source {e}");
            assert_eq!(from_batch.expansions, directed_edges, "batched source {e}");
            // Every element is reached, so every element is read.
            assert_eq!(res.reads.len(), g.len());
        }
    }

    #[test]
    fn positive_min_product_falls_back_to_dfs_semantics() {
        // A layered config with a positive floor must behave like the DFS
        // kernel with the same floor (the layered kernel cannot express the
        // joint affinity/coverage floor).
        let (g, s) = braided();
        let via_layered = PathConfig {
            min_product: 0.05,
            ..Default::default()
        };
        let via_dfs = PathConfig {
            kernel: PathKernel::Dfs,
            min_product: 0.05,
            ..Default::default()
        };
        for e in g.element_ids() {
            let a = explore_from(e, &s, &via_layered);
            let b = explore_from(e, &s, &via_dfs);
            assert_eq!(a.best_affinity, b.best_affinity);
            assert_eq!(a.best_cov_product, b.best_cov_product);
            assert_eq!(a.expansions, b.expansions);
        }
    }

    /// A pure tree: minimal density, CSR average degree ≈ 2.
    fn sparse_tree(n: usize) -> SchemaStats {
        let mut b = SchemaGraphBuilder::new("r");
        let mut prev = b.root();
        for i in 1..n {
            prev = b
                .add_child(prev, format!("t{i}"), SchemaType::set_of_rcd())
                .unwrap();
        }
        let g = b.build().unwrap();
        SchemaStats::uniform(&g)
    }

    #[test]
    fn auto_kernel_resolves_by_node_count_and_density() {
        let cfg = PathConfig::default();
        assert_eq!(cfg.kernel, PathKernel::Auto);
        // Tiny and tree-sparse: enumeration wins (BENCH_matrices.json,
        // n=25 sparse synthetic).
        assert_eq!(cfg.effective_kernel(&sparse_tree(25)), PathKernel::Dfs);
        // Large: layered regardless of density.
        assert_eq!(
            cfg.effective_kernel(&sparse_tree(AUTO_NODE_THRESHOLD)),
            PathKernel::Layered
        );
        // Small but densely value-linked (braided: avg degree > 2.5).
        let (_, dense) = braided();
        assert_eq!(cfg.effective_kernel(&dense), PathKernel::Layered);
        // Explicit kernels resolve to themselves; a positive floor always
        // resolves to DFS (joint-floor semantics).
        let explicit = PathConfig {
            kernel: PathKernel::Layered,
            ..Default::default()
        };
        assert_eq!(
            explicit.effective_kernel(&sparse_tree(8)),
            PathKernel::Layered
        );
        let floored = PathConfig {
            min_product: 0.05,
            ..Default::default()
        };
        assert_eq!(floored.effective_kernel(&dense), PathKernel::Dfs);
    }

    #[test]
    fn auto_kernel_matches_both_explicit_kernels() {
        let (g, s) = braided();
        let auto_cfg = PathConfig::default();
        for kernel in [PathKernel::Layered, PathKernel::Dfs] {
            let explicit = PathConfig {
                kernel,
                ..Default::default()
            };
            for e in g.element_ids() {
                let a = explore_from(e, &s, &auto_cfg);
                let b = explore_from(e, &s, &explicit);
                assert_rows_bits_eq(&a, &b, &format!("{kernel:?} src={e}"));
            }
        }
    }
}
