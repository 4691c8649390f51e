//! Coverage dominance (Theorem 1) and the candidate-pruning heuristic.
//!
//! Element `e1` **dominates** `e2` when any summary containing `e2` (but not
//! `e1`) gets strictly better summary coverage by swapping `e2` for `e1`.
//! Theorem 1 gives a sufficient condition: with `E` the set of elements
//! covered better by `e2` than by `e1`, `C1/C2` the respective coverage
//! sums over `E`, and `e_c` the best coverer of `e1` other than itself,
//!
//! ```text
//! C2 - C1 ≤ Card(e1) - C(e2 → e1)          and, if e_c ≠ e2,
//! C2 - C1 ≤ Card(e1) - C(e_c → e1)
//! ```
//!
//! We evaluate the theorem's conditions exactly from the all-pairs coverage
//! matrix. Following Section 4.3's heuristic, only pairs in an
//! ancestor–descendant relationship are examined (both directions), where
//! value-link referees count as parents (footnote 6). Dominance found this
//! way is sound; pairs the heuristic skips merely leave some dominated
//! elements unpruned.
//!
//! The kernel reads the coverage matrix row-major only. The best-coverer
//! pass streams each source row once; the pair pass reads a descendant's
//! row once per group of up to eight extended ancestors and evaluates
//! both directions of every pair in that single pass. Every `C1`/`C2` sum
//! still accumulates in ascending element order, so results are bit-exact
//! with a pair-at-a-time evaluation (DESIGN.md §3.21).

use crate::matrices::PairMatrices;
use schema_summary_core::{ElementId, SchemaGraph, SchemaStats};

/// Extended ancestors whose coverage rows share one pass over a
/// descendant's row. Most elements of the paper's schemas have at most
/// eight, so one pass usually serves them all.
const LANES: usize = 8;

/// Marks a target with no best coverer yet (and, after the pass, a
/// one-element schema where no other element exists).
const NO_COVERER: u32 = u32::MAX;

/// The set of discovered dominance pairs.
#[derive(Debug, Clone)]
pub struct DominanceSet {
    /// `(dominator, dominated)` ids, sorted ascending and deduplicated.
    pairs: Vec<(u32, u32)>,
    dominated: Vec<bool>,
    /// Number of ordered pairs whose Theorem-1 conditions were evaluated
    /// (reported by the dominance-pruning ablation bench).
    pub checked_pairs: usize,
}

impl DominanceSet {
    /// Discover dominance pairs among ancestor–descendant element pairs.
    pub fn compute(graph: &SchemaGraph, stats: &SchemaStats, matrices: &PairMatrices) -> Self {
        let n = graph.len();
        let best = best_coverers(matrices, n);
        let mut pairs = Vec::new();
        let mut dominated = vec![false; n];
        let mut checked = 0usize;
        let mut walk = AncestorWalk::new(n);
        let mut push = |e1: ElementId, e2: ElementId, diff: f64| {
            if theorem1_holds(e1, e2, diff, stats, matrices, &best) {
                pairs.push((e1.0, e2.0));
                dominated[e2.index()] = true;
            }
        };
        for desc in graph.element_ids() {
            let ancestors = walk.run(graph, desc);
            checked += 2 * ancestors.len();
            let desc_row = matrices.coverage_row(desc);
            for group in ancestors.chunks(LANES) {
                let sums = group_sums(desc_row, group, matrices);
                for (&anc, sum) in group.iter().zip(sums) {
                    push(anc, desc, sum.anc_over_desc);
                    push(desc, anc, sum.desc_over_anc);
                }
            }
        }
        // A value-link cycle makes two elements ancestors of each other, so
        // one ordered pair can be found from both ends.
        pairs.sort_unstable();
        pairs.dedup();
        DominanceSet {
            pairs,
            dominated,
            checked_pairs: checked,
        }
    }

    /// Whether `a` dominates `b`.
    #[inline]
    pub fn dominates(&self, a: ElementId, b: ElementId) -> bool {
        self.pairs.binary_search(&(a.0, b.0)).is_ok()
    }

    /// Whether any element dominates `e`.
    #[inline]
    pub fn is_dominated(&self, e: ElementId) -> bool {
        self.dominated[e.index()]
    }

    /// Non-root elements not dominated by anyone — `MaxCoverage`'s pruned
    /// candidate set `CS`.
    pub fn non_dominated(&self, graph: &SchemaGraph) -> Vec<ElementId> {
        graph
            .element_ids()
            .filter(|&e| e != graph.root() && !self.is_dominated(e))
            .collect()
    }

    /// All discovered `(dominator, dominated)` pairs, in ascending order.
    pub fn pairs(&self) -> impl Iterator<Item = (ElementId, ElementId)> + '_ {
        self.pairs
            .iter()
            .map(|&(a, b)| (ElementId(a), ElementId(b)))
    }

    /// Number of discovered pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no dominance was discovered.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// For every target `t`, the best coverer other than itself:
/// `e_c = argmax_{s ≠ t} C(s → t)`, keeping the first strictly greater
/// source in ascending id order. Streams the matrix one source row at a
/// time; per target, the comparisons run in the same source order as a
/// column walk, so ties resolve identically.
fn best_coverers(matrices: &PairMatrices, n: usize) -> Vec<(u32, f64)> {
    let mut src = vec![NO_COVERER; n];
    let mut val = vec![0.0f64; n];
    for s in 0..n {
        let row = matrices.coverage_row(ElementId(s as u32));
        let mut take = |lo: usize, hi: usize| {
            for ((&c, bs), bv) in row[lo..hi]
                .iter()
                .zip(&mut src[lo..hi])
                .zip(&mut val[lo..hi])
            {
                if *bs == NO_COVERER || c > *bv {
                    *bs = s as u32;
                    *bv = c;
                }
            }
        };
        take(0, s);
        take(s + 1, n);
    }
    src.into_iter().zip(val).collect()
}

/// The Theorem-1 differences `C2 − C1` of one (ancestor, descendant) pair,
/// in both directions.
#[derive(Clone, Copy)]
struct PairSums {
    /// `e1` = ancestor, `e2` = descendant.
    anc_over_desc: f64,
    /// `e1` = descendant, `e2` = ancestor.
    desc_over_anc: f64,
}

/// Both directions' `C1`/`C2` sums for up to [`LANES`] ancestors of one
/// descendant, in one pass over the descendant's coverage row. Lanes past
/// the group's length read the descendant's own row; they add nothing and
/// their sums are ignored.
///
/// Every sum accumulates in ascending element order. An element outside
/// `E` adds `+0.0`, which is exact: the sums start at `+0.0` and coverage
/// is non-negative, so no sum is ever `-0.0`.
fn group_sums(desc_row: &[f64], group: &[ElementId], matrices: &PairMatrices) -> [PairSums; LANES] {
    let n = desc_row.len();
    let mut rows = [desc_row; LANES];
    for (row, &anc) in rows.iter_mut().zip(group) {
        *row = &matrices.coverage_row(anc)[..n];
    }
    // C1 and C2 with e1 = ancestor, then with e1 = descendant.
    let mut c1_ad = [0.0f64; LANES];
    let mut c2_ad = [0.0f64; LANES];
    let mut c1_da = [0.0f64; LANES];
    let mut c2_da = [0.0f64; LANES];
    for (e, &d) in desc_row.iter().enumerate() {
        let a: [f64; LANES] = std::array::from_fn(|j| rows[j][e]);
        for j in 0..LANES {
            c1_ad[j] += if d > a[j] { a[j] } else { 0.0 };
        }
        for j in 0..LANES {
            c2_ad[j] += if d > a[j] { d } else { 0.0 };
        }
        for j in 0..LANES {
            c1_da[j] += if a[j] > d { d } else { 0.0 };
        }
        for j in 0..LANES {
            c2_da[j] += if a[j] > d { a[j] } else { 0.0 };
        }
    }
    std::array::from_fn(|j| PairSums {
        anc_over_desc: c2_ad[j] - c1_ad[j],
        desc_over_anc: c2_da[j] - c1_da[j],
    })
}

/// Theorem 1's two conditions for `e1` dominating `e2`, given
/// `diff = C2 − C1`.
fn theorem1_holds(
    e1: ElementId,
    e2: ElementId,
    diff: f64,
    stats: &SchemaStats,
    matrices: &PairMatrices,
    best: &[(u32, f64)],
) -> bool {
    let card1 = stats.card(e1);
    if diff > card1 - matrices.coverage(e2, e1) {
        return false;
    }
    let (ec, cov_ec) = best[e1.index()];
    !(ec != NO_COVERER && ec != e2.0 && diff > card1 - cov_ec)
}

/// Reusable scratch for the upward walk behind [`extended_ancestors`]:
/// an O(n) visit stamp instead of a per-element hash set.
struct AncestorWalk {
    /// `stamp[e] == walk` when `e` was reached in the current walk.
    stamp: Vec<u32>,
    walk: u32,
    stack: Vec<ElementId>,
    out: Vec<ElementId>,
}

impl AncestorWalk {
    fn new(n: usize) -> Self {
        AncestorWalk {
            stamp: vec![0; n],
            walk: 0,
            stack: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The extended ancestors of `e`, valid until the next call.
    fn run(&mut self, graph: &SchemaGraph, e: ElementId) -> &[ElementId] {
        self.walk += 1;
        let mark = self.walk;
        self.out.clear();
        self.stamp[e.index()] = mark;
        let push_parents = |of: ElementId, stack: &mut Vec<ElementId>| {
            if let Some(p) = graph.parent(of) {
                stack.push(p);
            }
            stack.extend_from_slice(graph.value_links_from(of));
        };
        push_parents(e, &mut self.stack);
        while let Some(a) = self.stack.pop() {
            if self.stamp[a.index()] == mark {
                continue;
            }
            self.stamp[a.index()] = mark;
            self.out.push(a);
            push_parents(a, &mut self.stack);
        }
        &self.out
    }
}

/// Elements reachable from `e` by repeatedly moving to the structural
/// parent or to a value-link referee ("ancestors" per footnote 6),
/// excluding `e` itself.
pub fn extended_ancestors(graph: &SchemaGraph, e: ElementId) -> Vec<ElementId> {
    AncestorWalk::new(graph.len()).run(graph, e).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::PathConfig;
    use schema_summary_core::graph::SchemaGraphBuilder;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::types::SchemaType;
    use schema_summary_core::SchemaGraph;

    /// The paper's Figure 5 fragment: person -> profile -> {interest*,
    /// education}; interest -> @category. RC(profile→interest) = 4 > 1,
    /// everything else 1.
    fn figure5() -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("people");
        let person = b
            .add_child(b.root(), "person", SchemaType::set_of_rcd())
            .unwrap();
        let profile = b.add_child(person, "profile", SchemaType::rcd()).unwrap();
        let interest = b
            .add_child(profile, "interest", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(interest, "@category", SchemaType::simple_idref())
            .unwrap();
        b.add_child(profile, "education", SchemaType::simple_str())
            .unwrap();
        let g = b.build().unwrap();
        let person_e = g.find_unique("person").unwrap();
        let profile_e = g.find_unique("profile").unwrap();
        let interest_e = g.find_unique("interest").unwrap();
        let cat = g.find_unique("@category").unwrap();
        let edu = g.find_unique("education").unwrap();
        let cards = {
            let mut c = vec![0u64; g.len()];
            c[g.root().index()] = 1;
            c[person_e.index()] = 100;
            c[profile_e.index()] = 100;
            c[interest_e.index()] = 400;
            c[cat.index()] = 400;
            c[edu.index()] = 100;
            c
        };
        let links = vec![
            LinkCount {
                from: g.root(),
                to: person_e,
                count: 100,
            },
            LinkCount {
                from: person_e,
                to: profile_e,
                count: 100,
            },
            LinkCount {
                from: profile_e,
                to: interest_e,
                count: 400,
            },
            LinkCount {
                from: interest_e,
                to: cat,
                count: 400,
            },
            LinkCount {
                from: profile_e,
                to: edu,
                count: 100,
            },
        ];
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (g, s)
    }

    #[test]
    fn interest_dominates_its_category_attribute() {
        let (g, s) = figure5();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let interest = g.find_unique("interest").unwrap();
        let cat = g.find_unique("@category").unwrap();
        assert!(ds.dominates(interest, cat), "paper's Section 4.3 example");
        assert!(ds.is_dominated(cat));
        // And never the other way around.
        assert!(!ds.dominates(cat, interest));
    }

    #[test]
    fn pruning_reduces_candidates() {
        let (g, s) = figure5();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let cs = ds.non_dominated(&g);
        assert!(cs.len() < g.len() - 1, "no pruning happened");
        assert!(!cs.is_empty());
        assert!(ds.checked_pairs > 0);
    }

    #[test]
    fn extended_ancestors_follow_value_links() {
        // a -> b; c (sibling of a); b ->V c: c is an extended ancestor of b.
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let b = builder.add_child(a, "b", SchemaType::rcd()).unwrap();
        let c = builder
            .add_child(builder.root(), "c", SchemaType::rcd())
            .unwrap();
        builder.add_value_link(b, c).unwrap();
        let g = builder.build().unwrap();
        let anc = extended_ancestors(&g, b);
        assert!(anc.contains(&a));
        assert!(anc.contains(&c));
        assert!(anc.contains(&g.root()));
        assert!(!anc.contains(&b));
    }

    #[test]
    fn extended_ancestors_handle_value_cycles() {
        // a ->V b, b ->V a: the upward walk must terminate.
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let b = builder
            .add_child(builder.root(), "b", SchemaType::rcd())
            .unwrap();
        builder.add_value_link(a, b).unwrap();
        builder.add_value_link(b, a).unwrap();
        let g = builder.build().unwrap();
        let anc = extended_ancestors(&g, a);
        assert!(anc.contains(&b));
        assert!(anc.contains(&g.root()));
    }

    #[test]
    fn dominance_swap_never_hurts_coverage() {
        // Empirical check of Theorem 1's guarantee on the Figure 5 fixture:
        // replacing a dominated element by its dominator in a singleton
        // summary never lowers summary coverage.
        use crate::assignment::{assign_elements, summary_coverage};
        let (g, s) = figure5();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        for (dominator, dominated) in ds.pairs() {
            if dominator == g.root() {
                continue;
            }
            let with_dominated = vec![dominated];
            let with_dominator = vec![dominator];
            let a1 = assign_elements(&g, &m, &with_dominated);
            let a2 = assign_elements(&g, &m, &with_dominator);
            let c1 = summary_coverage(&g, &s, &m, &with_dominated, &a1);
            let c2 = summary_coverage(&g, &s, &m, &with_dominator, &a2);
            assert!(
                c2 >= c1 - 1e-9,
                "swapping {} for {} lowered coverage {c1} -> {c2}",
                g.label(dominated),
                g.label(dominator)
            );
        }
    }

    #[test]
    fn pairs_iterate_in_sorted_order() {
        let (g, s) = figure5();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let pairs: Vec<_> = ds.pairs().collect();
        assert!(pairs.len() > 1, "the fixture finds several pairs");
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "pairs() must be strictly ascending: {pairs:?}"
        );
        assert_eq!(pairs.len(), ds.len());
        for &(a, b) in &pairs {
            assert!(ds.dominates(a, b));
        }
    }

    #[test]
    fn value_cycle_pairs_are_reported_once() {
        // a ->V b, b ->V a: each is an extended ancestor of the other, so
        // every ordered pair between them is checked from both ends.
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let b = builder
            .add_child(builder.root(), "b", SchemaType::rcd())
            .unwrap();
        builder.add_value_link(a, b).unwrap();
        builder.add_value_link(b, a).unwrap();
        let g = builder.build().unwrap();
        let s = SchemaStats::uniform(&g);
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let pairs: Vec<_> = ds.pairs().collect();
        let mut unique = pairs.clone();
        unique.dedup();
        assert_eq!(pairs, unique);
        // a's extended ancestors are {root, b} and b's are {root, a}; each
        // (ancestor, descendant) pair is checked in both directions.
        assert_eq!(ds.checked_pairs, 8);
    }
}
