//! The pruned layered path kernel against the DFS enumeration oracle on
//! the paper's datasets.
//!
//! The layered kernel relaxes walks layer by layer and drops every walk a
//! shorter one dominates; the DFS kernel enumerates simple paths, the
//! literal reading of Formulas 2–3. Both must produce the same affinity
//! and coverage-product bits for every ordered pair — through the scalar
//! and the batched layered driver, under both path-length conventions —
//! on XMark SF 1.0, TPC-H SF 0.1, all three MiMI versions and a synthetic
//! value-linked schema of 100 elements. Neither side may hit the
//! expansion budget, which would turn its maxima into lower bounds.

use schema_summary_algo::paths::SourceResult;
use schema_summary_algo::{Explorer, PathConfig, PathKernel, PathLength};
use schema_summary_core::stats::LinkCount;
use schema_summary_core::{ElementId, SchemaGraphBuilder, SchemaStats, SchemaType};
use schema_summary_datasets::{mimi, tpch, xmark};

/// A deterministic random schema of `n` elements: a tree over random
/// composite parents plus `links` value links between random composites,
/// with per-edge fan-outs of 1–5 (some RCs below 1, so the clamp and the
/// dominance prune both matter).
fn synthetic(n: usize, links: usize, seed: u64) -> SchemaStats {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = SchemaGraphBuilder::new("root");
    let mut composites = vec![b.root()];
    for i in 1..n {
        let parent = composites[(next() as usize) % composites.len()];
        let ty = if next() % 3 == 0 {
            SchemaType::simple_str()
        } else {
            SchemaType::set_of_rcd()
        };
        let id = b.add_child(parent, format!("e{i}"), ty.clone()).unwrap();
        if ty.is_composite() {
            composites.push(id);
        }
    }
    for _ in 0..links {
        let f = composites[(next() as usize) % composites.len()];
        let t = composites[(next() as usize) % composites.len()];
        let _ = b.add_value_link(f, t);
    }
    let g = b.build().unwrap();
    assert!(
        g.value_links().count() > 0,
        "the synthetic schema has value links"
    );
    let mut cards = vec![0u64; g.len()];
    cards[g.root().index()] = 1;
    let mut counts = Vec::new();
    for (p, c) in g.structural_links().collect::<Vec<_>>() {
        let count = cards[p.index()] * (1 + next() % 5);
        cards[c.index()] = count;
        counts.push(LinkCount {
            from: p,
            to: c,
            count,
        });
    }
    for (f, t) in g.value_links().collect::<Vec<_>>() {
        counts.push(LinkCount {
            from: f,
            to: t,
            count: cards[f.index()],
        });
    }
    SchemaStats::from_link_counts(&g, &cards, &counts).unwrap()
}

fn assert_rows_bits_eq(got: &SourceResult, want: &SourceResult, ctx: &str) {
    assert!(!got.truncated, "{ctx}: layered run truncated");
    for (b, (g, w)) in got
        .best_affinity
        .iter()
        .zip(&want.best_affinity)
        .enumerate()
    {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: affinity to {b}: {g} vs {w}"
        );
    }
    for (b, (g, w)) in got
        .best_cov_product
        .iter()
        .zip(&want.best_cov_product)
        .enumerate()
    {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: coverage to {b}: {g} vs {w}"
        );
    }
}

fn assert_layered_matches_dfs(name: &str, stats: &SchemaStats) {
    let n = stats.len();
    let sources: Vec<ElementId> = (0..n as u32).map(ElementId).collect();
    for path_length in [PathLength::Edges, PathLength::Nodes] {
        let config = |kernel| PathConfig {
            kernel,
            path_length,
            ..Default::default()
        };
        let (layered, dfs) = (config(PathKernel::Layered), config(PathKernel::Dfs));
        let mut scalar = Explorer::new(n);
        let mut oracle = Explorer::new(n);
        let mut batched = Explorer::new(n);
        for chunk in sources.chunks(16) {
            let from_batch = batched.explore_batch(chunk, stats, &layered);
            for (&src, got_batch) in chunk.iter().zip(&from_batch) {
                let ctx = format!("{name} {path_length:?} source {src}");
                let want = oracle.explore(src, stats, &dfs);
                assert!(!want.truncated, "{ctx}: DFS oracle truncated");
                assert_rows_bits_eq(&scalar.explore(src, stats, &layered), &want, &ctx);
                assert_rows_bits_eq(got_batch, &want, &format!("{ctx} (batched)"));
            }
        }
    }
}

#[test]
fn layered_kernel_matches_dfs_on_datasets() {
    let (_, xmark, _) = xmark::schema(1.0);
    assert_layered_matches_dfs("XMark SF1.0", &xmark);
    let (_, tpch, _) = tpch::schema(0.1);
    assert_layered_matches_dfs("TPC-H SF0.1", &tpch);
    for version in [
        mimi::Version::Apr04,
        mimi::Version::Jan05,
        mimi::Version::Jan06,
    ] {
        let (_, stats, _) = mimi::schema(version);
        assert_layered_matches_dfs(version.name(), &stats);
    }
    assert_layered_matches_dfs("synthetic n=100", &synthetic(100, 20, 7));
}
