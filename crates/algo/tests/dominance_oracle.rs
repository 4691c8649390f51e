//! The row-major Theorem-1 kernel against its oracle.
//!
//! [`oracle`] is the pair-at-a-time `DominanceSet::compute` the kernel
//! replaced: a column-stride best-coverer pass, then one pass over the
//! element set per ordered (ancestor, descendant) pair, collected into a
//! hash set. The kernel must reproduce its pair set, its `is_dominated`
//! vector and its `checked_pairs` exactly, on random schemas (deep trees,
//! value-link cycles, zero counts) and on the XMark, TPC-H and MiMI
//! datasets.

use proptest::prelude::*;
use schema_summary_algo::dominance::extended_ancestors;
use schema_summary_algo::{DominanceSet, PairMatrices, PathConfig};
use schema_summary_core::stats::LinkCount;
use schema_summary_core::{ElementId, SchemaGraph, SchemaGraphBuilder, SchemaStats, SchemaType};
use schema_summary_datasets::{mimi, tpch, xmark};
use std::collections::HashSet;

/// What the oracle finds: pairs, dominated flags, checked pair count.
struct Oracle {
    pairs: HashSet<(ElementId, ElementId)>,
    dominated: Vec<bool>,
    checked_pairs: usize,
}

fn oracle(graph: &SchemaGraph, stats: &SchemaStats, matrices: &PairMatrices) -> Oracle {
    let n = graph.len();
    let mut pairs = HashSet::new();
    let mut dominated = vec![false; n];
    let mut checked = 0usize;
    // e_c = argmax_{e ≠ e1} C(e → e1), first maximum in ascending order.
    let best_coverer: Vec<Option<(ElementId, f64)>> = (0..n as u32)
        .map(|t| {
            let target = ElementId(t);
            let mut best: Option<(ElementId, f64)> = None;
            for s in 0..n as u32 {
                let src = ElementId(s);
                if src == target {
                    continue;
                }
                let c = matrices.coverage(src, target);
                if best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((src, c));
                }
            }
            best
        })
        .collect();
    let dominates = |e1: ElementId, e2: ElementId| -> bool {
        let mut c1 = 0.0;
        let mut c2 = 0.0;
        for e in graph.element_ids() {
            let by2 = matrices.coverage(e2, e);
            let by1 = matrices.coverage(e1, e);
            if by2 > by1 {
                c1 += by1;
                c2 += by2;
            }
        }
        let diff = c2 - c1;
        let card1 = stats.card(e1);
        if diff > card1 - matrices.coverage(e2, e1) {
            return false;
        }
        if let Some((ec, cov_ec)) = best_coverer[e1.index()] {
            if ec != e2 && diff > card1 - cov_ec {
                return false;
            }
        }
        true
    };
    for desc in graph.element_ids() {
        for anc in extended_ancestors(graph, desc) {
            for (e1, e2) in [(anc, desc), (desc, anc)] {
                checked += 1;
                if dominates(e1, e2) {
                    pairs.insert((e1, e2));
                    dominated[e2.index()] = true;
                }
            }
        }
    }
    Oracle {
        pairs,
        dominated,
        checked_pairs: checked,
    }
}

/// Compare the kernel with the oracle on one annotated schema.
fn assert_matches_oracle(graph: &SchemaGraph, stats: &SchemaStats) {
    let matrices = PairMatrices::compute(stats, &PathConfig::default());
    let kernel = DominanceSet::compute(graph, stats, &matrices);
    let expected = oracle(graph, stats, &matrices);
    let pairs: Vec<_> = kernel.pairs().collect();
    assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "pairs() is not strictly ascending"
    );
    let found: HashSet<_> = pairs.iter().copied().collect();
    assert_eq!(&found, &expected.pairs);
    assert_eq!(kernel.len(), expected.pairs.len());
    for e in graph.element_ids() {
        assert_eq!(
            kernel.is_dominated(e),
            expected.dominated[e.index()],
            "{}",
            e
        );
    }
    assert_eq!(kernel.checked_pairs, expected.checked_pairs);
}

/// A random schema: element `i` hangs under `parents[i] % i` (so trees
/// run deep as well as wide), value links follow `link_picks` (cycles
/// and diamonds included), and every count is drawn from `counts`
/// (zeros included, which leave links with RC 0).
fn random_schema(
    parents: &[usize],
    link_picks: &[(usize, usize)],
    cards: &[u64],
    counts: &[u64],
) -> (SchemaGraph, SchemaStats) {
    let mut builder = SchemaGraphBuilder::new("root");
    let mut ids = vec![builder.root()];
    for (i, &p) in parents.iter().enumerate() {
        let parent = ids[p % ids.len()];
        ids.push(
            builder
                .add_child(parent, format!("e{}", i + 1), SchemaType::set_of_rcd())
                .unwrap(),
        );
    }
    for &(f, t) in link_picks {
        let (from, to) = (ids[f % ids.len()], ids[t % ids.len()]);
        if from != to {
            let _ = builder.add_value_link(from, to);
        }
    }
    let g = builder.build().unwrap();
    let card: Vec<u64> = (0..g.len()).map(|i| cards[i % cards.len()]).collect();
    let links: Vec<LinkCount> = g
        .structural_links()
        .chain(g.value_links())
        .enumerate()
        .map(|(i, (from, to))| LinkCount {
            from,
            to,
            count: counts[i % counts.len()],
        })
        .collect();
    let s = SchemaStats::from_link_counts(&g, &card, &links).unwrap();
    (g, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random schemas: the kernel's pairs, flags and checked count equal
    /// the oracle's.
    #[test]
    fn dominance_kernel_matches_oracle_on_random_schemas(
        parents in prop::collection::vec(0usize..64, 1..40),
        link_picks in prop::collection::vec((0usize..64, 0usize..64), 0..12),
        cards in prop::collection::vec(1u64..200, 1..8),
        counts in prop::collection::vec(0u64..400, 1..8),
    ) {
        let (g, s) = random_schema(&parents, &link_picks, &cards, &counts);
        assert_matches_oracle(&g, &s);
    }

    /// The paper's datasets at random scales: XMark, TPC-H and every MiMI
    /// version.
    #[test]
    fn dominance_kernel_matches_oracle_on_datasets(
        which in 0usize..5,
        scale in 0.05f64..4.0,
    ) {
        let (g, s) = match which {
            0 => { let (g, s, _) = xmark::schema(scale); (g, s) }
            1 => { let (g, s, _) = tpch::schema(scale); (g, s) }
            2 => { let (g, s, _) = mimi::schema(mimi::Version::Apr04); (g, s) }
            3 => { let (g, s, _) = mimi::schema(mimi::Version::Jan05); (g, s) }
            _ => { let (g, s, _) = mimi::schema(mimi::Version::Jan06); (g, s) }
        };
        assert_matches_oracle(&g, &s);
    }
}
