//! The seeded schema versions the `evolve` workload applies, rebuilt from
//! annotation counts so untouched records stay bitwise identical.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use schema_summary_algo::{PairMatrices, PathConfig};
use schema_summary_core::stats::LinkCount;
use schema_summary_core::{ElementId, SchemaGraph, SchemaGraphBuilder, SchemaStats, SchemaType};
use schema_summary_datasets::mimi::{self, Version};
use std::sync::Arc;

/// Integer cardinalities and per-link instance counts of an annotation,
/// so variants rebuild through `SchemaStats::from_link_counts` and every
/// untouched record stays bitwise identical to the base.
#[derive(Clone)]
pub struct Counts {
    pub cards: Vec<u64>,
    pub links: Vec<LinkCount>,
}

impl Counts {
    /// Recover the counts behind `stats`.
    pub fn of(graph: &SchemaGraph, stats: &SchemaStats) -> Self {
        let cards = (0..graph.len())
            .map(|i| stats.card(ElementId(i as u32)).round() as u64)
            .collect();
        let links = graph
            .structural_links()
            .chain(graph.value_links())
            .map(|(from, to)| LinkCount {
                from,
                to,
                count: (stats.rc(from, to) * stats.card(from)).round() as u64,
            })
            .collect();
        Counts { cards, links }
    }

    /// Statistics for these counts over `graph`.
    pub fn stats(&self, graph: &SchemaGraph) -> SchemaStats {
        SchemaStats::from_link_counts(graph, &self.cards, &self.links)
            .expect("counts recovered from a valid annotation rebuild")
    }
}

/// One schema version the `evolve` workload applies with `update_named`.
pub struct SchemaVersion {
    /// Registered name the version replaces.
    pub name: &'static str,
    /// What kind of change it is, for the notes and the trace.
    pub kind: &'static str,
    pub graph: Arc<SchemaGraph>,
    pub stats: Arc<SchemaStats>,
}

/// Elements whose every outgoing RC is at most 1 (root excluded): growing
/// one only lowers its RCs, every affinity factor stays clamped at 1, and
/// the refresh is a pure coverage rescale that re-explores no rows.
fn capped_pool(stats: &SchemaStats) -> Vec<usize> {
    (1..stats.len())
        .filter(|&i| {
            stats
                .edge_rcs(ElementId(i as u32))
                .iter()
                .all(|&rc| rc <= 1.0)
        })
        .collect()
}

/// Re-declare `graph` (ids are assigned in declaration order, so this
/// reproduces it exactly) and append one set element under `attach` whose
/// link carries no instances yet: schema growth that lands before data.
fn dormant_growth(
    graph: &SchemaGraph,
    counts: &Counts,
    attach: ElementId,
) -> (SchemaGraph, Counts) {
    let mut b = SchemaGraphBuilder::new(graph.label(graph.root()));
    for e in graph.element_ids().skip(1) {
        let parent = graph.parent(e).expect("non-root has a parent");
        b.add_child(parent, graph.label(e), graph.ty(e).clone())
            .expect("re-declaration mirrors a valid graph");
    }
    for (from, to) in graph.value_links() {
        b.add_value_link(from, to).expect("link re-declaration");
    }
    let grown = b
        .add_child(attach, "bench_growth", SchemaType::set_of_rcd())
        .expect("a composite element accepts a new child");
    let mut counts = counts.clone();
    counts.cards.push(64);
    counts.links.push(LinkCount {
        from: attach,
        to: grown,
        count: 0,
    });
    (b.build().expect("grown graph builds"), counts)
}

/// Grow one capped element's cardinality by 5–25%.
fn grow_one(counts: &mut Counts, pool: &[usize], rng: &mut StdRng) {
    let idx = pool[rng.random_range(0..pool.len())];
    let step = ((counts.cards[idx] as f64 * (0.05 + 0.2 * rng.random::<f64>())) as u64).max(1);
    counts.cards[idx] += step;
}

/// Single-element growths before the hub change, between it and the
/// dormant element, and after that. With the two cold XMark refreshes they
/// make 2 of the round's 96 versions cold XMark work, so `op_ms.p99` sits
/// in the middle of that cluster rather than in its noisy upper tail.
const RESCALES: [usize; 3] = [40, 20, 30];
/// Tag of the version stream drawn from `--seed`.
const VERSIONS_STREAM: u64 = 0x6576_6f6c;

/// The versions of one `evolve` round, in order. The round starts and ends
/// on the base XMark SF1.0 and MiMI Apr04 content, so rounds repeat:
///
/// * most versions grow one capped XMark element (a 0-row splice);
/// * one grows an uncapped XMark hub whose rows feed more than a third of
///   the matrix (an `EdgeTouch` past `delta_max_fraction`: cold);
/// * one adds a dormant element (additive structural growth, warm);
/// * the last XMark version drops it again (destructive: cold);
/// * the MiMI Apr04 → Jan05 → Jan06 chain and back, interleaved.
pub fn evolve_round(
    seed: u64,
    xmark_graph: &Arc<SchemaGraph>,
    xmark_base: &Counts,
) -> Vec<SchemaVersion> {
    let mut rng = StdRng::seed_from_u64(seed ^ VERSIONS_STREAM);
    let graph = Arc::clone(xmark_graph);
    let base = xmark_base.stats(&graph);
    let n = graph.len();
    let pool = capped_pool(&base);

    // Uncapped hubs whose recorded read sets cover more than a third of
    // the rows: changing one re-explores past the 25% guard.
    let matrices = PairMatrices::compute(&base, &PathConfig::default());
    let hubs: Vec<usize> = (1..n)
        .filter(|&i| {
            base.edge_rcs(ElementId(i as u32))
                .iter()
                .any(|&rc| rc > 1.0)
        })
        .filter(|&i| {
            let mut touched = vec![false; n];
            touched[i] = true;
            matrices
                .rows_reading(&touched)
                .is_some_and(|rows| 3 * rows.iter().filter(|&&r| r).count() > n)
        })
        .collect();
    assert!(!hubs.is_empty(), "XMark has hubs read by most rows");
    let composites: Vec<ElementId> = graph
        .element_ids()
        .filter(|&e| e != graph.root() && !graph.ty(e).is_simple())
        .collect();

    let mut xmark = Vec::new();
    let mut counts = xmark_base.clone();
    let push = |kind, g: &Arc<SchemaGraph>, c: &Counts, out: &mut Vec<SchemaVersion>| {
        out.push(SchemaVersion {
            name: "xmark",
            kind,
            graph: Arc::clone(g),
            stats: Arc::new(c.stats(g)),
        });
    };
    for _ in 0..RESCALES[0] {
        grow_one(&mut counts, &pool, &mut rng);
        push("rescale", &graph, &counts, &mut xmark);
    }
    let hub = hubs[rng.random_range(0..hubs.len())];
    counts.cards[hub] += (counts.cards[hub] / 10).max(1);
    push("edge_touch", &graph, &counts, &mut xmark);
    for _ in 0..RESCALES[1] {
        grow_one(&mut counts, &pool, &mut rng);
        push("rescale", &graph, &counts, &mut xmark);
    }
    let attach = composites[rng.random_range(0..composites.len())];
    let (grown_graph, mut grown_counts) = dormant_growth(&graph, &counts, attach);
    let grown_graph = Arc::new(grown_graph);
    push("additive", &grown_graph, &grown_counts, &mut xmark);
    for _ in 0..RESCALES[2] {
        grow_one(&mut grown_counts, &pool, &mut rng);
        push("rescale", &grown_graph, &grown_counts, &mut xmark);
    }
    push("destructive", &graph, xmark_base, &mut xmark);

    let mut chain: Vec<SchemaVersion> = [Version::Jan05, Version::Jan06, Version::Apr04]
        .into_iter()
        .map(|v| {
            let (g, s, _) = mimi::schema(v);
            SchemaVersion {
                name: "mimi",
                kind: "mimi_chain",
                graph: Arc::new(g),
                stats: Arc::new(s),
            }
        })
        .collect();
    // Interleave the MiMI chain evenly among the XMark steps.
    let stride = xmark.len() / (chain.len() + 1);
    let mut round = Vec::new();
    for (i, v) in xmark.into_iter().enumerate() {
        round.push(v);
        if (i + 1) % stride == 0 && !chain.is_empty() {
            round.push(chain.remove(0));
        }
    }
    round
}
