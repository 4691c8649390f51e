//! Structured diffs between summaries and between annotated schemas.
//!
//! The data-evolution story (Section 3.3, Table 5) needs more than an
//! agreement percentage: when a refreshed summary changes, operators want
//! to know *what* changed — which abstract elements appeared or vanished,
//! and which schema elements moved between groups. [`SummaryDiff`] reports
//! exactly that. [`SchemaDelta`] diffs two *annotated schemas* (graph +
//! statistics) and is what the serving layer consumes to invalidate
//! exactly the affected catalog entries.
//!
//! All reported change lists are sorted, so diff output is deterministic
//! and order-stable regardless of construction order — tests and cache
//! invalidation can compare reports structurally.

use crate::fingerprint::SchemaFingerprint;
use crate::ids::ElementId;
use crate::stats::SchemaStats;
use crate::summary::SchemaSummary;
use crate::SchemaGraph;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A structured difference between two summaries over the same graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryDiff {
    /// Representatives present only in the newer summary.
    pub added_groups: Vec<ElementId>,
    /// Representatives present only in the older summary.
    pub removed_groups: Vec<ElementId>,
    /// Elements whose owning representative changed (excluding elements of
    /// added/removed groups whose move is implied), as
    /// `(element, old representative, new representative)`.
    pub moved: Vec<(ElementId, ElementId, ElementId)>,
    /// Number of elements whose group membership is unchanged.
    pub stable: usize,
}

impl SummaryDiff {
    /// Compare `old` and `new`. Both must summarize the same schema graph.
    pub fn compute(graph: &SchemaGraph, old: &SchemaSummary, new: &SchemaSummary) -> Self {
        // Representative of each element in each summary (the root and kept
        // originals map to themselves).
        let rep_of = |s: &SchemaSummary, e: ElementId| -> ElementId {
            match s.node_of(e) {
                crate::summary::SummaryNode::Original(o) => o,
                crate::summary::SummaryNode::Abstract(a) => s.abstracts()[a.index()].representative,
            }
        };
        let old_reps: Vec<ElementId> = old.abstracts().iter().map(|a| a.representative).collect();
        let new_reps: Vec<ElementId> = new.abstracts().iter().map(|a| a.representative).collect();
        let mut added_groups: Vec<ElementId> = new_reps
            .iter()
            .copied()
            .filter(|r| !old_reps.contains(r))
            .collect();
        let mut removed_groups: Vec<ElementId> = old_reps
            .iter()
            .copied()
            .filter(|r| !new_reps.contains(r))
            .collect();
        // Sort every change list: summaries enumerate groups in selection
        // order, which depends on algorithm tie-breaking, and downstream
        // consumers (invalidation, golden tests) need order-stable reports.
        added_groups.sort_unstable();
        removed_groups.sort_unstable();
        let mut moved = Vec::new();
        let mut stable = 0usize;
        for e in graph.element_ids() {
            let o = rep_of(old, e);
            let n = rep_of(new, e);
            if o == n {
                stable += 1;
            } else {
                moved.push((e, o, n));
            }
        }
        moved.sort_unstable();
        SummaryDiff {
            added_groups,
            removed_groups,
            moved,
            stable,
        }
    }

    /// Whether the two summaries are identical in grouping.
    pub fn is_empty(&self) -> bool {
        self.added_groups.is_empty() && self.removed_groups.is_empty() && self.moved.is_empty()
    }

    /// Fraction of elements whose group membership is unchanged.
    pub fn stability(&self) -> f64 {
        let total = self.stable + self.moved.len();
        if total == 0 {
            1.0
        } else {
            self.stable as f64 / total as f64
        }
    }

    /// Render a short human-readable change report.
    pub fn render(&self, graph: &SchemaGraph) -> String {
        if self.is_empty() {
            return "no change".to_string();
        }
        let mut out = String::new();
        if !self.added_groups.is_empty() {
            out.push_str("added groups: ");
            out.push_str(
                &self
                    .added_groups
                    .iter()
                    .map(|&e| graph.label(e))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            out.push('\n');
        }
        if !self.removed_groups.is_empty() {
            out.push_str("removed groups: ");
            out.push_str(
                &self
                    .removed_groups
                    .iter()
                    .map(|&e| graph.label(e))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            out.push('\n');
        }
        out.push_str(&format!(
            "{} elements regrouped, {} stable ({:.0}% stability)\n",
            self.moved.len(),
            self.stable,
            self.stability() * 100.0
        ));
        out
    }
}

/// How a [`SchemaDelta`] relates two annotated schemas, ordered by how
/// much of the old version's derived artifacts survive:
///
/// * [`Rescale`](DeltaClass::Rescale) — only cardinality bits moved;
///   every exploration-relevant edge record
///   ([`SchemaStats::exploration_bits_eq`]) is bit-identical, so path
///   explorations replay unchanged and only coverage rows need
///   rewriting.
/// * [`EdgeTouch`](DeltaClass::EdgeTouch) — the element set and link set
///   are unchanged but some edge records moved (fan-out shifts on
///   existing links); rows whose traces read them must re-explore.
/// * [`AdditiveStructural`](DeltaClass::AdditiveStructural) — the new
///   schema adds elements and/or value links and removes nothing; the
///   old element space embeds as a prefix of the new one, so artifacts
///   can be *grown* in place.
/// * [`Destructive`](DeltaClass::Destructive) — elements or links were
///   removed or retyped; the old element space does not embed and
///   derived artifacts must be rebuilt cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeltaClass {
    /// Cardinality-only change (includes the empty delta).
    Rescale,
    /// In-place change to existing edge records.
    EdgeTouch,
    /// Pure growth: added elements/links, nothing removed or retyped.
    AdditiveStructural,
    /// Removals or retypes; no warm path exists.
    Destructive,
}

impl DeltaClass {
    /// Stable lowercase token for metrics labels and admin JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DeltaClass::Rescale => "rescale",
            DeltaClass::EdgeTouch => "edge_touch",
            DeltaClass::AdditiveStructural => "additive_structural",
            DeltaClass::Destructive => "destructive",
        }
    }
}

impl std::fmt::Display for DeltaClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured difference between two *annotated schemas* — (graph,
/// statistics) pairs that may differ in structure, links, or
/// cardinalities.
///
/// Elements are matched across the two graphs by their root label path
/// (element ids are graph-local and not comparable across builds), and
/// every change list is sorted lexicographically, so equal inputs always
/// produce byte-identical reports. The serving layer feeds deltas to its
/// invalidation hook: a non-empty delta means `old_fingerprint` is stale
/// and exactly that catalog entry (and its cached results) must go.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemaDelta {
    /// Fingerprint of the old annotated schema.
    pub old_fingerprint: SchemaFingerprint,
    /// Fingerprint of the new annotated schema.
    pub new_fingerprint: SchemaFingerprint,
    /// Label paths present only in the new schema, sorted.
    pub added_elements: Vec<String>,
    /// Label paths present only in the old schema, sorted.
    pub removed_elements: Vec<String>,
    /// Label paths present in both schemas whose type changed, sorted.
    pub retyped_elements: Vec<String>,
    /// Value links `(referrer path, referee path)` present only in the new
    /// schema, sorted.
    pub added_value_links: Vec<(String, String)>,
    /// Value links present only in the old schema, sorted.
    pub removed_value_links: Vec<(String, String)>,
    /// Label paths present in both schemas whose cardinality or outgoing
    /// relative cardinalities changed, sorted.
    pub changed_cardinalities: Vec<String>,
    /// Coarse classification of the whole delta (see [`DeltaClass`]):
    /// what kind of refresh the serving layer can attempt.
    pub class: DeltaClass,
}

impl SchemaDelta {
    /// Diff two annotated schemas, fingerprinting both.
    pub fn compute(
        old_graph: &SchemaGraph,
        old_stats: &SchemaStats,
        new_graph: &SchemaGraph,
        new_stats: &SchemaStats,
    ) -> Self {
        Self::compute_with_fingerprints(
            (
                old_graph,
                old_stats,
                SchemaFingerprint::of_annotated(old_graph, old_stats),
            ),
            (
                new_graph,
                new_stats,
                SchemaFingerprint::of_annotated(new_graph, new_stats),
            ),
        )
    }

    /// Diff two annotated schemas whose fingerprints the caller already
    /// holds, as `(graph, stats, fingerprint)` triples. Each fingerprint
    /// must be [`SchemaFingerprint::of_annotated`] of its pair; the
    /// serving layer passes the ones its catalog keys entries by, so a
    /// refresh hashes each version once.
    ///
    /// When both versions share one graph — every cardinality rescale and
    /// edge touch — elements are compared by id and label paths are built
    /// only for the elements that changed. Otherwise elements are matched
    /// across the graphs by path.
    pub fn compute_with_fingerprints(
        old: (&SchemaGraph, &SchemaStats, SchemaFingerprint),
        new: (&SchemaGraph, &SchemaStats, SchemaFingerprint),
    ) -> Self {
        let (old_graph, old_stats, old_fingerprint) = old;
        let (new_graph, new_stats, new_fingerprint) = new;
        let fingerprints = (old_fingerprint, new_fingerprint);
        if std::ptr::eq(old_graph, new_graph) || old_graph == new_graph {
            Self::by_id(old_graph, old_stats, new_stats, fingerprints)
        } else {
            Self::by_path(old_graph, old_stats, new_graph, new_stats, fingerprints)
        }
    }

    /// The diff of two annotations of one graph: no element, type or
    /// value link can differ, so only statistics are compared, by id.
    fn by_id(
        graph: &SchemaGraph,
        old_stats: &SchemaStats,
        new_stats: &SchemaStats,
        (old_fingerprint, new_fingerprint): (SchemaFingerprint, SchemaFingerprint),
    ) -> Self {
        let mut changed_cardinalities: Vec<String> = graph
            .element_ids()
            .filter(|&e| stats_differ_by_id(old_stats, new_stats, e))
            .map(|e| element_key(graph, e))
            .collect();
        changed_cardinalities.sort_unstable();
        // A pure rescale requires every exploration-relevant edge record
        // to be bit-identical.
        let pure_rescale = old_stats.len() == graph.len()
            && new_stats.len() == graph.len()
            && graph
                .element_ids()
                .all(|e| old_stats.exploration_bits_eq(new_stats, e));
        SchemaDelta {
            old_fingerprint,
            new_fingerprint,
            added_elements: Vec::new(),
            removed_elements: Vec::new(),
            retyped_elements: Vec::new(),
            added_value_links: Vec::new(),
            removed_value_links: Vec::new(),
            changed_cardinalities,
            class: if pure_rescale {
                DeltaClass::Rescale
            } else {
                DeltaClass::EdgeTouch
            },
        }
    }

    /// The diff of two different graphs: elements are matched by their
    /// [`element_key`].
    fn by_path(
        old_graph: &SchemaGraph,
        old_stats: &SchemaStats,
        new_graph: &SchemaGraph,
        new_stats: &SchemaStats,
        (old_fingerprint, new_fingerprint): (SchemaFingerprint, SchemaFingerprint),
    ) -> Self {
        let old_keys = element_keys(old_graph);
        let new_keys = element_keys(new_graph);
        let old_paths = key_index(&old_keys);
        let new_paths = key_index(&new_keys);

        let added_elements: Vec<String> = new_paths
            .keys()
            .filter(|p| !old_paths.contains_key(*p))
            .map(|p| p.to_string())
            .collect();
        let removed_elements: Vec<String> = old_paths
            .keys()
            .filter(|p| !new_paths.contains_key(*p))
            .map(|p| p.to_string())
            .collect();
        let mut retyped_elements = Vec::new();
        let mut changed_cardinalities = Vec::new();
        for (&path, &oe) in &old_paths {
            let Some(&ne) = new_paths.get(path) else {
                continue;
            };
            if old_graph.ty(oe) != new_graph.ty(ne) {
                retyped_elements.push(path.to_string());
            }
            if old_stats.card(oe) != new_stats.card(ne)
                || keyed_adjacency(&old_keys, old_stats, oe)
                    != keyed_adjacency(&new_keys, new_stats, ne)
            {
                changed_cardinalities.push(path.to_string());
            }
        }
        // BTreeMap iteration is already sorted; these inherit that order.

        let links_of = |g: &SchemaGraph, keys: &[String]| -> BTreeSet<(String, String)> {
            g.value_links()
                .map(|(f, t)| (keys[f.index()].clone(), keys[t.index()].clone()))
                .collect()
        };
        let old_links = links_of(old_graph, &old_keys);
        let new_links = links_of(new_graph, &new_keys);
        let added_value_links: Vec<(String, String)> =
            new_links.difference(&old_links).cloned().collect();
        let removed_value_links: Vec<(String, String)> =
            old_links.difference(&new_links).cloned().collect();

        let class = if !removed_elements.is_empty()
            || !retyped_elements.is_empty()
            || !removed_value_links.is_empty()
        {
            DeltaClass::Destructive
        } else if !added_elements.is_empty() || !added_value_links.is_empty() {
            DeltaClass::AdditiveStructural
        } else {
            // Same element and link sets, but the graphs differ (for
            // instance an equal-but-permuted build): ids do not line up,
            // so edge records cannot be compared and the delta classifies
            // conservatively as an edge touch.
            DeltaClass::EdgeTouch
        };

        SchemaDelta {
            old_fingerprint,
            new_fingerprint,
            added_elements,
            removed_elements,
            retyped_elements,
            added_value_links,
            removed_value_links,
            changed_cardinalities,
            class,
        }
    }

    /// Whether the two annotated schemas are observably identical (the
    /// fingerprints agree and no change list has entries).
    pub fn is_empty(&self) -> bool {
        self.old_fingerprint == self.new_fingerprint
            && self.added_elements.is_empty()
            && self.removed_elements.is_empty()
            && self.retyped_elements.is_empty()
            && self.added_value_links.is_empty()
            && self.removed_value_links.is_empty()
            && self.changed_cardinalities.is_empty()
    }

    /// Render a short human-readable change report (sorted, stable).
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "no change".to_string();
        }
        let mut out = String::new();
        let mut section = |title: &str, items: &[String]| {
            if !items.is_empty() {
                out.push_str(title);
                out.push_str(": ");
                out.push_str(&items.join(", "));
                out.push('\n');
            }
        };
        section("added elements", &self.added_elements);
        section("removed elements", &self.removed_elements);
        section("retyped elements", &self.retyped_elements);
        let fmt_links = |ls: &[(String, String)]| -> Vec<String> {
            ls.iter().map(|(f, t)| format!("{f} -> {t}")).collect()
        };
        section("added value links", &fmt_links(&self.added_value_links));
        section("removed value links", &fmt_links(&self.removed_value_links));
        section("changed cardinalities", &self.changed_cardinalities);
        out
    }
}

/// Whether `e`'s cardinality or outgoing RC adjacency differs between two
/// annotations of one graph.
fn stats_differ_by_id(old: &SchemaStats, new: &SchemaStats, e: ElementId) -> bool {
    if old.card(e) != new.card(e) {
        return true;
    }
    if old.edge_neighbors(e) == new.edge_neighbors(e) {
        return old.edge_rcs(e) != new.edge_rcs(e);
    }
    // Same neighbors in another order: compare as maps.
    let adjacency = |s: &SchemaStats| -> BTreeMap<ElementId, f64> { s.rc_neighbors(e).collect() };
    adjacency(old) != adjacency(new)
}

/// Element ids by [`element_key`], in key order.
fn key_index(keys: &[String]) -> BTreeMap<&str, ElementId> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), ElementId(i as u32)))
        .collect()
}

/// Outgoing RC adjacency of `e` keyed by neighbor key (ids are not
/// comparable across graphs).
fn keyed_adjacency<'k>(
    keys: &'k [String],
    stats: &SchemaStats,
    e: ElementId,
) -> BTreeMap<&'k str, f64> {
    stats
        .rc_neighbors(e)
        .map(|(nb, rc)| (keys[nb.index()].as_str(), rc))
        .collect()
}

/// Number of earlier siblings of `e` that carry `e`'s label.
fn sibling_ordinal(graph: &SchemaGraph, e: ElementId) -> usize {
    graph.parent(e).map_or(0, |p| {
        let label = graph.label(e);
        graph
            .children(p)
            .iter()
            .take_while(|&&c| c != e)
            .filter(|&&c| graph.label(c) == label)
            .count()
    })
}

/// Append one path segment: the label, plus an XPath-style position
/// `[k]` (1-based) when earlier siblings carry the same label.
fn push_segment(key: &mut String, label: &str, ordinal: usize) {
    key.push_str(label);
    if ordinal > 0 {
        key.push_str(&format!("[{}]", ordinal + 1));
    }
}

/// The name a [`SchemaDelta`] reports `e` under: its label path, where a
/// segment whose label repeats among its siblings carries its position
/// (`db/a/x`, then `db/a/x[2]` for a second `x` under `db/a`). On graphs
/// whose sibling labels are unique this is exactly
/// [`SchemaGraph::label_path`]. A label that itself ends in `[k]` would
/// read like a position; XML and DTD names cannot contain `[`.
fn element_key(graph: &SchemaGraph, e: ElementId) -> String {
    let mut key = String::new();
    for (i, node) in graph.path_from_root(e).into_iter().enumerate() {
        if i > 0 {
            key.push('/');
        }
        push_segment(&mut key, graph.label(node), sibling_ordinal(graph, node));
    }
    key
}

/// [`element_key`] of every element, indexed by id, built top-down in one
/// pass.
fn element_keys(graph: &SchemaGraph) -> Vec<String> {
    let mut keys = vec![String::new(); graph.len()];
    let root = graph.root();
    push_segment(&mut keys[root.index()], graph.label(root), 0);
    for parent in graph.preorder() {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for &child in graph.children(parent) {
            let label = graph.label(child);
            let ordinal = seen.entry(label).or_insert(0);
            let mut key = keys[parent.index()].clone();
            key.push('/');
            push_segment(&mut key, label, *ordinal);
            *ordinal += 1;
            keys[child.index()] = key;
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraphBuilder;
    use crate::types::SchemaType;

    fn graph() -> SchemaGraph {
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "a", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(a, "a1", SchemaType::simple_str()).unwrap();
        let c = b
            .add_child(b.root(), "c", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(c, "c1", SchemaType::simple_str()).unwrap();
        b.build().unwrap()
    }

    fn summary(g: &SchemaGraph, groups: Vec<(&str, Vec<&str>)>) -> SchemaSummary {
        let f = |l: &str| g.find_unique(l).unwrap();
        SchemaSummary::from_grouping(
            g,
            groups
                .into_iter()
                .map(|(rep, members)| (f(rep), members.into_iter().map(f).collect()))
                .collect(),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn identical_summaries_diff_empty() {
        let g = graph();
        let s = summary(&g, vec![("a", vec!["a", "a1"]), ("c", vec!["c", "c1"])]);
        let d = SummaryDiff::compute(&g, &s, &s);
        assert!(d.is_empty());
        assert_eq!(d.stability(), 1.0);
        assert_eq!(d.render(&g), "no change");
    }

    #[test]
    fn group_swap_is_reported() {
        let g = graph();
        let old = summary(&g, vec![("a", vec!["a", "a1"]), ("c", vec!["c", "c1"])]);
        let new = summary(&g, vec![("a", vec!["a", "a1", "c", "c1"])]);
        let d = SummaryDiff::compute(&g, &old, &new);
        assert!(d.added_groups.is_empty());
        assert_eq!(d.removed_groups.len(), 1);
        // c and c1 moved from c's group to a's.
        assert_eq!(d.moved.len(), 2);
        assert!(d.stability() < 1.0);
        let text = d.render(&g);
        assert!(text.contains("removed groups: c"));
        assert!(text.contains("2 elements regrouped"));
    }

    #[test]
    fn member_movement_without_group_change() {
        let g = graph();
        let old = summary(&g, vec![("a", vec!["a", "a1", "c1"]), ("c", vec!["c"])]);
        let new = summary(&g, vec![("a", vec!["a", "a1"]), ("c", vec!["c", "c1"])]);
        let d = SummaryDiff::compute(&g, &old, &new);
        assert!(d.added_groups.is_empty());
        assert!(d.removed_groups.is_empty());
        assert_eq!(d.moved.len(), 1);
        let (e, o, n) = d.moved[0];
        assert_eq!(g.label(e), "c1");
        assert_eq!(g.label(o), "a");
        assert_eq!(g.label(n), "c");
    }

    #[test]
    fn serde_roundtrip() {
        let g = graph();
        let old = summary(&g, vec![("a", vec!["a", "a1"]), ("c", vec!["c", "c1"])]);
        let new = summary(&g, vec![("a", vec!["a", "a1", "c", "c1"])]);
        let d = SummaryDiff::compute(&g, &old, &new);
        let json = serde_json::to_string(&d).unwrap();
        let back: SummaryDiff = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    fn delta_graph(with_extra: bool, with_link: bool) -> SchemaGraph {
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "a", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(a, "a1", SchemaType::simple_str()).unwrap();
        let c = b
            .add_child(b.root(), "c", SchemaType::set_of_rcd())
            .unwrap();
        if with_extra {
            b.add_child(c, "c1", SchemaType::simple_str()).unwrap();
        }
        if with_link {
            b.add_value_link(c, a).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn schema_delta_empty_for_identical_inputs() {
        let g = delta_graph(true, true);
        let s = SchemaStats::uniform(&g);
        let d = SchemaDelta::compute(&g, &s, &g, &s);
        assert!(d.is_empty());
        assert_eq!(d.old_fingerprint, d.new_fingerprint);
        assert_eq!(d.render(), "no change");
    }

    #[test]
    fn schema_delta_reports_sorted_changes() {
        let old = delta_graph(false, false);
        let new = delta_graph(true, true);
        let d = SchemaDelta::compute(
            &old,
            &SchemaStats::uniform(&old),
            &new,
            &SchemaStats::uniform(&new),
        );
        assert_ne!(d.old_fingerprint, d.new_fingerprint);
        assert_eq!(d.added_elements, vec!["db/c/c1".to_string()]);
        assert!(d.removed_elements.is_empty());
        assert_eq!(
            d.added_value_links,
            vec![("db/c".to_string(), "db/a".to_string())]
        );
        // Adding the link/child changes RC adjacency of existing elements;
        // the affected paths come back sorted.
        let mut sorted = d.changed_cardinalities.clone();
        sorted.sort();
        assert_eq!(d.changed_cardinalities, sorted);
        let text = d.render();
        assert!(text.contains("added elements: db/c/c1"));
        assert!(text.contains("added value links: db/c -> db/a"));
    }

    #[test]
    fn schema_delta_detects_pure_cardinality_change() {
        let g = delta_graph(true, false);
        let s1 = SchemaStats::uniform(&g);
        let s2 = s1.scaled(2.0);
        let d = SchemaDelta::compute(&g, &s1, &g, &s2);
        assert!(!d.is_empty());
        assert!(d.added_elements.is_empty());
        assert!(d.removed_elements.is_empty());
        assert!(!d.changed_cardinalities.is_empty());
        assert_ne!(d.old_fingerprint, d.new_fingerprint);
    }

    #[test]
    fn schema_delta_classifies_pure_rescale() {
        let g = delta_graph(true, false);
        let s1 = SchemaStats::uniform(&g);
        let s2 = s1.scaled(2.0);
        let d = SchemaDelta::compute(&g, &s1, &g, &s2);
        assert_eq!(d.class, DeltaClass::Rescale);
        // The empty delta is a (degenerate) rescale too.
        assert_eq!(SchemaDelta::compute(&g, &s1, &g, &s1).class, DeltaClass::Rescale);
    }

    #[test]
    fn schema_delta_classifies_edge_touch() {
        let g = delta_graph(true, true);
        let s1 = SchemaStats::uniform(&g);
        // Same graph, same cardinalities, but unit RCs forced: existing
        // edge records move without any structural change.
        let s2 = SchemaStats::from_link_counts(
            &g,
            &vec![1u64; g.len()],
            &g.structural_links()
                .chain(g.value_links())
                .map(|(f, t)| crate::stats::LinkCount { from: f, to: t, count: 2 })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let d = SchemaDelta::compute(&g, &s1, &g, &s2);
        assert!(d.added_elements.is_empty() && d.removed_elements.is_empty());
        assert_eq!(d.class, DeltaClass::EdgeTouch);
    }

    #[test]
    fn schema_delta_classifies_growth_and_destruction() {
        let old = delta_graph(false, false);
        let new = delta_graph(true, true);
        let grown = SchemaDelta::compute(
            &old,
            &SchemaStats::uniform(&old),
            &new,
            &SchemaStats::uniform(&new),
        );
        assert_eq!(grown.class, DeltaClass::AdditiveStructural);
        let shrunk = SchemaDelta::compute(
            &new,
            &SchemaStats::uniform(&new),
            &old,
            &SchemaStats::uniform(&old),
        );
        assert_eq!(shrunk.class, DeltaClass::Destructive);
        // A delta that both adds and removes is destructive: the old
        // element space does not embed in the new one.
        let sideways = SchemaDelta::compute(
            &delta_graph(true, false),
            &SchemaStats::uniform(&delta_graph(true, false)),
            &delta_graph(false, true),
            &SchemaStats::uniform(&delta_graph(false, true)),
        );
        assert_eq!(sideways.class, DeltaClass::Destructive);
    }

    #[test]
    fn schema_delta_serde_roundtrip() {
        let old = delta_graph(false, false);
        let new = delta_graph(true, true);
        let d = SchemaDelta::compute(
            &old,
            &SchemaStats::uniform(&old),
            &new,
            &SchemaStats::uniform(&new),
        );
        let json = serde_json::to_string(&d).unwrap();
        let back: SchemaDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    /// `db/a/{x, x}`: two siblings with one label, plus `db/c` when
    /// `with_extra`.
    fn twin_graph(with_extra: bool) -> SchemaGraph {
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "a", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        if with_extra {
            b.add_child(b.root(), "c", SchemaType::simple_str())
                .unwrap();
        }
        b.build().unwrap()
    }

    /// Statistics for [`twin_graph`] with the two `x` cardinalities.
    fn twin_stats(g: &SchemaGraph, cards: [u64; 2]) -> SchemaStats {
        let mut card = vec![1u64; g.len()];
        card[2] = cards[0];
        card[3] = cards[1];
        // Fixed link counts: a changed cardinality touches only its own
        // element's statistics.
        let links: Vec<_> = g
            .structural_links()
            .map(|(from, to)| crate::stats::LinkCount { from, to, count: 5 })
            .collect();
        SchemaStats::from_link_counts(g, &card, &links).unwrap()
    }

    #[test]
    fn schema_delta_tells_same_label_siblings_apart() {
        let g = twin_graph(false);
        let grown = twin_graph(true);
        let base = twin_stats(&g, [5, 5]);
        for (cards, changed) in [([7, 5], "db/a/x"), ([5, 7], "db/a/x[2]")] {
            // Same graph: the id-keyed diff.
            let d = SchemaDelta::compute(&g, &base, &g, &twin_stats(&g, cards));
            assert_eq!(
                d.changed_cardinalities,
                vec![changed.to_string()],
                "{cards:?}"
            );
            // Different graphs: the path-keyed diff.
            let d = SchemaDelta::compute(&g, &base, &grown, &twin_stats(&grown, cards));
            assert_eq!(d.class, DeltaClass::AdditiveStructural);
            assert_eq!(d.added_elements, vec!["db/c".to_string()]);
            assert!(
                d.changed_cardinalities.contains(&changed.to_string()),
                "{cards:?}: {:?}",
                d.changed_cardinalities
            );
            let other = if changed == "db/a/x" {
                "db/a/x[2]"
            } else {
                "db/a/x"
            };
            assert!(!d.changed_cardinalities.contains(&other.to_string()));
        }
        // A second same-label sibling appearing is an added element.
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "a", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        let single = b.build().unwrap();
        let d = SchemaDelta::compute(
            &single,
            &SchemaStats::uniform(&single),
            &g,
            &SchemaStats::uniform(&g),
        );
        assert_eq!(d.added_elements, vec!["db/a/x[2]".to_string()]);
    }

    #[test]
    fn element_keys_match_single_lookups() {
        let g = twin_graph(true);
        let keys = element_keys(&g);
        for e in g.element_ids() {
            assert_eq!(keys[e.index()], element_key(&g, e));
        }
        assert_eq!(keys, ["db", "db/a", "db/a/x", "db/a/x[2]", "db/c"]);
    }

    /// The path-keyed diff as it stood before the id-keyed path existed:
    /// elements matched by label path, adjacency compared by neighbor
    /// label path. On graphs whose sibling labels are unique, every delta
    /// must equal it field by field.
    fn path_keyed_oracle(
        old_graph: &SchemaGraph,
        old_stats: &SchemaStats,
        new_graph: &SchemaGraph,
        new_stats: &SchemaStats,
    ) -> SchemaDelta {
        let paths_of = |g: &SchemaGraph| -> BTreeMap<String, ElementId> {
            g.element_ids().map(|e| (g.label_path(e), e)).collect()
        };
        let old_paths = paths_of(old_graph);
        let new_paths = paths_of(new_graph);
        let added_elements: Vec<String> = new_paths
            .keys()
            .filter(|p| !old_paths.contains_key(*p))
            .cloned()
            .collect();
        let removed_elements: Vec<String> = old_paths
            .keys()
            .filter(|p| !new_paths.contains_key(*p))
            .cloned()
            .collect();
        let adj = |g: &SchemaGraph, s: &SchemaStats, e: ElementId| -> BTreeMap<String, f64> {
            s.rc_neighbors(e)
                .map(|(nb, rc)| (g.label_path(nb), rc))
                .collect()
        };
        let mut retyped_elements = Vec::new();
        let mut changed_cardinalities = Vec::new();
        for (path, &oe) in &old_paths {
            let Some(&ne) = new_paths.get(path) else {
                continue;
            };
            if old_graph.ty(oe) != new_graph.ty(ne) {
                retyped_elements.push(path.clone());
            }
            if old_stats.card(oe) != new_stats.card(ne)
                || adj(old_graph, old_stats, oe) != adj(new_graph, new_stats, ne)
            {
                changed_cardinalities.push(path.clone());
            }
        }
        let links_of = |g: &SchemaGraph| -> BTreeSet<(String, String)> {
            g.value_links()
                .map(|(f, t)| (g.label_path(f), g.label_path(t)))
                .collect()
        };
        let old_links = links_of(old_graph);
        let new_links = links_of(new_graph);
        let added_value_links: Vec<_> = new_links.difference(&old_links).cloned().collect();
        let removed_value_links: Vec<_> = old_links.difference(&new_links).cloned().collect();
        let class = if !removed_elements.is_empty()
            || !retyped_elements.is_empty()
            || !removed_value_links.is_empty()
        {
            DeltaClass::Destructive
        } else if !added_elements.is_empty() || !added_value_links.is_empty() {
            DeltaClass::AdditiveStructural
        } else if old_graph == new_graph
            && old_stats.len() == old_graph.len()
            && new_stats.len() == new_graph.len()
            && old_graph
                .element_ids()
                .all(|e| old_stats.exploration_bits_eq(new_stats, e))
        {
            DeltaClass::Rescale
        } else {
            DeltaClass::EdgeTouch
        };
        SchemaDelta {
            old_fingerprint: SchemaFingerprint::of_annotated(old_graph, old_stats),
            new_fingerprint: SchemaFingerprint::of_annotated(new_graph, new_stats),
            added_elements,
            removed_elements,
            retyped_elements,
            added_value_links,
            removed_value_links,
            changed_cardinalities,
            class,
        }
    }

    /// A random unique-label schema: the first `keep` of `parents` build
    /// the old graph, all of them the new one (so the old graph is a
    /// prefix of the new one, or equal to it); value links follow
    /// `links`, resolved over each graph's own elements.
    fn random_graph(parents: &[usize], links: &[(usize, usize)], keep: usize) -> SchemaGraph {
        let mut b = SchemaGraphBuilder::new("root");
        let mut ids = vec![b.root()];
        for (i, &p) in parents.iter().take(keep).enumerate() {
            let parent = ids[p % ids.len()];
            ids.push(
                b.add_child(parent, format!("e{i}"), SchemaType::set_of_rcd())
                    .unwrap(),
            );
        }
        for &(f, t) in links {
            let (from, to) = (ids[f % ids.len()], ids[t % ids.len()]);
            if from != to {
                let _ = b.add_value_link(from, to);
            }
        }
        b.build().unwrap()
    }

    /// Statistics for `g` drawn from `cards` and `counts` by position.
    fn random_stats(g: &SchemaGraph, cards: &[u64], counts: &[u64]) -> SchemaStats {
        let card: Vec<u64> = (0..g.len()).map(|i| cards[i % cards.len()]).collect();
        let links: Vec<_> = g
            .structural_links()
            .chain(g.value_links())
            .enumerate()
            .map(|(i, (from, to))| crate::stats::LinkCount {
                from,
                to,
                count: counts[i % counts.len()],
            })
            .collect();
        SchemaStats::from_link_counts(g, &card, &links).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// One graph, two annotations: the id-keyed diff equals the
        /// path-keyed one field by field. The second annotation is a
        /// rescale, a recount of some links, or both.
        #[test]
        fn id_keyed_diff_matches_path_keyed(
            parents in proptest::collection::vec(0usize..64, 1..30),
            links in proptest::collection::vec((0usize..64, 0usize..64), 0..8),
            cards in proptest::collection::vec(1u64..100, 1..6),
            counts in proptest::collection::vec(0u64..200, 1..6),
            recounts in proptest::collection::vec(0u64..200, 1..6),
            mode in 0usize..4,
        ) {
            let g = random_graph(&parents, &links, parents.len());
            let s1 = random_stats(&g, &cards, &counts);
            let s2 = match mode {
                0 => s1.clone(),
                1 => s1.scaled(3.0),
                2 => random_stats(&g, &cards, &recounts),
                _ => random_stats(&g, &recounts, &counts),
            };
            let expected = path_keyed_oracle(&g, &s1, &g, &s2);
            // A separately built but equal graph takes the id path too.
            let twin = random_graph(&parents, &links, parents.len());
            for new_graph in [&g, &twin] {
                let d = SchemaDelta::compute(&g, &s1, new_graph, &s2);
                proptest::prop_assert_eq!(&d, &expected);
            }
        }

        /// Different graphs (the new one grown from the old): the
        /// path-keyed diff still equals the label-path oracle.
        #[test]
        fn path_keyed_diff_matches_oracle_on_growth(
            parents in proptest::collection::vec(0usize..64, 2..30),
            links in proptest::collection::vec((0usize..64, 0usize..64), 0..8),
            cards in proptest::collection::vec(1u64..100, 1..6),
            counts in proptest::collection::vec(0u64..200, 1..6),
            cut in 1usize..30,
        ) {
            let old = random_graph(&parents, &links, cut.min(parents.len() - 1));
            let new = random_graph(&parents, &links, parents.len());
            let (s_old, s_new) = (random_stats(&old, &cards, &counts), random_stats(&new, &cards, &counts));
            for (a, sa, b, sb) in [(&old, &s_old, &new, &s_new), (&new, &s_new, &old, &s_old)] {
                let d = SchemaDelta::compute(a, sa, b, sb);
                proptest::prop_assert_eq!(&d, &path_keyed_oracle(a, sa, b, sb));
            }
        }
    }
}
