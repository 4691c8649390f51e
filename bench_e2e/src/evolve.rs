//! `evolve`: closed loop, one caller, in-process, on a registered XMark
//! SF1.0 (and MiMI) with Balance k=12 and levels `[12, 6, 3]` cached.
//!
//! Each op applies the next seeded schema version with `update_named` and
//! then asks for the first answer on every key the caller had cached; that
//! is one refresh sample. Between versions the caller makes a fixed number
//! of cached reads. This is where the diff, the delta planner, the seeded
//! importance restart and the full dominance recompute do their work.
//!
//! The versions are built once per run; set-up builds the service,
//! registers both schemas and warms their keys, which is what `setup_s`
//! times.

use crate::cold::LEVELS;
use crate::inputs::{evolve_round, Counts, SchemaVersion};
use crate::ledger::{gate, ms_since, GateFailure, Outcome, Tracer};
use crate::{count_cache_stats, service_config, Workload};
use schema_summary_algo::algorithms::balance_summary;
use schema_summary_algo::assignment::{assign_elements, summary_coverage, summary_importance};
use schema_summary_algo::importance::{compute_importance, compute_importance_rebased};
use schema_summary_algo::multilevel::{build_multi_level, refresh_multi_level};
use schema_summary_algo::{
    plan_delta, Algorithm, DominanceSet, ImportanceConfig, ImportanceResult, MultiLevelSummary,
    PairMatrices, SummarizerConfig,
};
use schema_summary_core::diff::SchemaDelta;
use schema_summary_core::{SchemaFingerprint, SchemaGraph, SchemaStats};
use schema_summary_datasets::{mimi, xmark};
use schema_summary_service::SummaryService;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Flat summary size the caller keeps cached.
const K: usize = 12;
/// Cached reads between two versions.
const READS_PER_VERSION: usize = 24;
/// The two schemas the caller tracks.
const NAMES: [&str; 2] = ["xmark", "mimi"];

/// What the layer-function replay carries from one version to the next,
/// mirroring the service's own artifacts.
struct ReplayState {
    graph: Arc<SchemaGraph>,
    stats: Arc<SchemaStats>,
    matrices: PairMatrices,
    importance: ImportanceResult,
    stack: MultiLevelSummary,
}

pub struct EvolveInputs {
    /// The base content of each tracked name, registered at set-up.
    bases: [(&'static str, Arc<SchemaGraph>, Arc<SchemaStats>); 2],
    versions: Vec<SchemaVersion>,
}

pub struct Evolve {
    service: SummaryService,
    config: SummarizerConfig,
    max_fraction: f64,
    inputs: Arc<EvolveInputs>,
    replay: HashMap<&'static str, ReplayState>,
}

impl Workload for Evolve {
    const NAME: &'static str = "evolve";
    type Inputs = EvolveInputs;

    fn inputs(seed: u64) -> Result<EvolveInputs, String> {
        let (xg, xs, _) = xmark::schema(1.0);
        let counts = Counts::of(&xg, &xs);
        let xg = Arc::new(xg);
        let xbase = Arc::new(counts.stats(&xg));
        let versions = evolve_round(seed, &xg, &counts);
        let (mg, ms, _) = mimi::schema(mimi::Version::Apr04);
        Ok(EvolveInputs {
            bases: [("xmark", xg, xbase), ("mimi", Arc::new(mg), Arc::new(ms))],
            versions,
        })
    }

    fn setup(inputs: &Arc<EvolveInputs>) -> Result<Self, String> {
        let config = service_config();
        let service = SummaryService::new(config.clone());
        for (name, graph, stats) in &inputs.bases {
            let fp = service.register_named(*name, Arc::clone(graph), Arc::clone(stats));
            service
                .summarize(fp, Algorithm::Balance, K)
                .map_err(|e| format!("warming {name}: {e}"))?;
            service
                .multi_level(fp, Algorithm::Balance, &LEVELS)
                .map_err(|e| format!("warming {name}: {e}"))?;
        }
        Ok(Evolve {
            service,
            config: config.summarizer,
            max_fraction: config.delta_max_fraction,
            inputs: Arc::clone(inputs),
            replay: HashMap::new(),
        })
    }

    fn round(&mut self, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), GateFailure> {
        if tracer.on() {
            // Every round starts on the base content; the replay starts
            // from whatever the service holds for each name.
            for name in NAMES {
                if !self.replay.contains_key(name) {
                    let fp = self
                        .service
                        .fingerprint_of(name)
                        .expect("tracked names stay registered");
                    let entry = self.service.catalog().get(fp).expect("registered content");
                    let state = cold_state(entry.graph(), entry.stats(), &self.config);
                    self.replay.insert(name, state);
                }
            }
        }
        let before = self.service.cache_stats();
        for i in 0..self.inputs.versions.len() {
            self.op(i, tracer, out)?;
            self.reads(tracer, out)?;
        }
        count_cache_stats(tracer, &before, &self.service.cache_stats());
        Ok(())
    }
}

/// `‖a − b‖₁ / ‖b‖₁`: importance drift as a share of the total mass.
fn drift(a: &[f64], b: &[f64]) -> f64 {
    let diff: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    diff / b.iter().map(|y| y.abs()).sum::<f64>()
}

impl Evolve {
    /// Apply version `i` and take the first answer on every cached key.
    fn op(&mut self, i: usize, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), GateFailure> {
        let traced = tracer.on();
        let service = &self.service;
        let inputs = Arc::clone(&self.inputs);
        let version = &inputs.versions[i];
        let (graph, stats) = (Arc::clone(&version.graph), Arc::clone(&version.stats));
        let warm_before = service.cache_stats().delta_refreshes;
        tracer.begin_op();
        tracer.enter("evolve.op");
        out.attempted += 1;
        let started = Instant::now();
        let answered = tracer.span("store.update_named", || {
            service.update_named(version.name, Arc::clone(&graph), Arc::clone(&stats))
        });
        let answered = answered.and_then(|delta| {
            let fp = delta.new_fingerprint;
            let flat = tracer.span("store.summarize", || {
                service.summarize(fp, Algorithm::Balance, K)
            })?;
            let levels = tracer.span("store.multi_level", || {
                service.multi_level(fp, Algorithm::Balance, &LEVELS)
            })?;
            Ok((fp, flat, levels))
        });
        out.op(ms_since(started), traced);
        tracer.exit();
        let Ok((fp, flat, levels)) = answered else {
            out.failed += 1;
            return Ok(());
        };
        let warm = service.cache_stats().delta_refreshes > warm_before;

        // The gate: only what the refresh path guarantees bit for bit.
        let entry = service.catalog().get(fp).ok_or_else(|| GateFailure {
            check: "evolve.registered",
            detail: format!("version {i} is not in the catalog after update_named"),
        })?;
        let artifacts = entry.artifacts(&self.config);
        let matrices = artifacts.matrices();
        gate(
            matrices.bitwise_eq(&PairMatrices::compute(&stats, &self.config.paths)),
            "evolve.matrices_bitwise_cold",
            || {
                format!(
                    "version {i} ({}): refreshed matrices differ from a cold compute",
                    version.kind
                )
            },
        )?;
        let dominance = artifacts.dominance();
        let mut pairs: Vec<_> = dominance.pairs().collect();
        pairs.sort_unstable();
        let mut recomputed: Vec<_> = DominanceSet::compute(&graph, &stats, matrices)
            .pairs()
            .collect();
        recomputed.sort_unstable();
        gate(pairs == recomputed, "evolve.dominance_pairs", || {
            format!(
                "version {i} ({}): {} served pairs, {} recomputed",
                version.kind,
                pairs.len(),
                recomputed.len()
            )
        })?;
        let importance = artifacts.importance();
        let selection =
            balance_summary(&graph, importance, dominance, K).map_err(|e| GateFailure {
                check: "evolve.balance",
                detail: e.to_string(),
            })?;
        let result = &flat.result;
        gate(result.selection == selection, "evolve.selection", || {
            format!(
                "version {i}: served {:?}, recomputed {:?}",
                result.selection, selection
            )
        })?;
        let labels: Vec<String> = selection.iter().map(|&e| graph.label_path(e)).collect();
        gate(result.labels == labels, "evolve.labels", || {
            format!("version {i}")
        })?;
        let assignment = assign_elements(&graph, matrices, &selection);
        let coverage = summary_coverage(&graph, &stats, matrices, &selection, &assignment);
        gate(
            result.coverage.to_bits() == coverage.to_bits(),
            "evolve.coverage",
            || {
                format!(
                    "version {i}: served {}, recomputed {coverage}",
                    result.coverage
                )
            },
        )?;
        let stack = build_multi_level(&graph, matrices, &selection, &LEVELS[1..]).map_err(|e| {
            GateFailure {
                check: "evolve.levels",
                detail: e.to_string(),
            }
        })?;
        gate(stack == levels.result.summary, "evolve.level_stack", || {
            format!("version {i} ({}): served stack differs", version.kind)
        })?;
        let mass: f64 = importance.scores().iter().sum();
        let total = stats.total_card();
        gate(
            (mass - total).abs() <= 1e-9 * total,
            "evolve.importance_mass",
            || format!("version {i}: mass {mass} vs total cardinality {total}"),
        )?;

        // Drift of the warm importance, kept visible (not gated): the cold
        // fixpoint is itself only ε-converged.
        if tracer.counting() {
            let cold = compute_importance(&graph, &stats, &self.config.importance);
            let cold_selection = balance_summary(&graph, &cold, dominance, K)
                .expect("a cold summary of a valid version exists");
            tracer.sample(
                "evolve.selection_agree",
                f64::from(u8::from(result.selection == cold_selection)),
            );
            if warm {
                let tight = ImportanceConfig {
                    epsilon: 1e-12,
                    max_iterations: 1_000_000,
                    ..self.config.importance.clone()
                };
                let fixpoint = compute_importance(&graph, &stats, &tight);
                let served = importance.scores();
                tracer.sample("importance.dev_vs_cold", drift(served, cold.scores()));
                tracer.sample(
                    "importance.dev_vs_fixpoint",
                    drift(served, fixpoint.scores()),
                );
                tracer.sample(
                    "importance.cold_dev_vs_fixpoint",
                    drift(cold.scores(), fixpoint.scores()),
                );
            }
        }
        if traced {
            self.replay(i, tracer);
        }
        Ok(())
    }

    /// Cached reads of every key, between two versions.
    fn reads(&self, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), GateFailure> {
        let fps: Vec<SchemaFingerprint> = NAMES
            .iter()
            .map(|name| {
                self.service
                    .fingerprint_of(name)
                    .expect("tracked names stay registered")
            })
            .collect();
        let traced = tracer.on();
        for r in 0..READS_PER_VERSION {
            let fp = fps[(r / 2) % fps.len()];
            out.attempted += 1;
            let started = Instant::now();
            let read = tracer.span("store.hit", || {
                if r % 2 == 0 {
                    self.service
                        .summarize(fp, Algorithm::Balance, K)
                        .map(|s| s.from_cache)
                } else {
                    self.service
                        .multi_level(fp, Algorithm::Balance, &LEVELS)
                        .map(|s| s.from_cache)
                }
            });
            let us = started.elapsed().as_secs_f64() * 1e6;
            match read {
                Ok(from_cache) => {
                    gate(from_cache, "evolve.read_from_cache", || {
                        format!("read {r} recomputed")
                    })?;
                    if !traced {
                        out.hit(us);
                    }
                }
                Err(_) => out.failed += 1,
            }
        }
        Ok(())
    }

    /// Run version `i` through the layer functions the refresh path calls,
    /// from the replay's own previous state, one span per call.
    fn replay(&mut self, i: usize, tracer: &mut Tracer) {
        let config = &self.config;
        let inputs = Arc::clone(&self.inputs);
        let version = &inputs.versions[i];
        let (graph, stats) = (&version.graph, &version.stats);
        let old = self
            .replay
            .remove(version.name)
            .expect("round() seeds every name");
        tracer.enter("evolve.replay");
        tracer.span("fingerprint", || {
            black_box(SchemaFingerprint::of_annotated(graph, stats))
        });
        let delta = tracer.span("diff", || {
            SchemaDelta::compute(&old.graph, &old.stats, graph, stats)
        });
        let plan = tracer.span("incremental.plan", || {
            plan_delta(
                &delta,
                &old.graph,
                &old.stats,
                graph,
                stats,
                &old.matrices,
                &config.paths,
                self.max_fraction,
            )
        });
        let spliced = plan.and_then(|plan| {
            tracer
                .span("matrices.splice", || {
                    old.matrices.splice(stats, &config.paths, &plan.recompute)
                })
                .map(|m| (m, plan))
        });
        let (matrices, importance, row_changed) = match spliced {
            Some((matrices, plan)) => {
                let importance = tracer.span("importance.seeded", || {
                    compute_importance_rebased(
                        graph,
                        stats,
                        old.importance.scores(),
                        &old.stats,
                        &config.importance,
                    )
                });
                let row_changed = if plan.rescaled {
                    vec![true; plan.recompute.len()]
                } else {
                    plan.recompute
                };
                (matrices, importance, Some(row_changed))
            }
            None => {
                let matrices = tracer.span("matrices.compute", || {
                    PairMatrices::compute(stats, &config.paths)
                });
                let importance = tracer.span("importance.cold", || {
                    compute_importance(graph, stats, &config.importance)
                });
                (matrices, importance, None)
            }
        };
        let dominance = tracer.span("dominance", || {
            DominanceSet::compute(graph, stats, &matrices)
        });
        let selection = tracer.span("algorithms.balance", || {
            balance_summary(graph, &importance, &dominance, K).expect("the service answered this k")
        });
        tracer.span("assignment", || {
            let assignment = assign_elements(graph, &matrices, &selection);
            black_box(summary_coverage(
                graph,
                stats,
                &matrices,
                &selection,
                &assignment,
            ));
            black_box(summary_importance(graph, &importance, &selection));
        });
        let finest = tracer.span("algorithms.balance", || {
            balance_summary(graph, &importance, &dominance, LEVELS[0])
                .expect("the service answered this k")
        });
        let stack = match row_changed {
            Some(row_changed) => tracer.span("multilevel.refresh", || {
                refresh_multi_level(
                    graph,
                    &matrices,
                    &finest,
                    &LEVELS[1..],
                    &old.stack,
                    &row_changed,
                )
                .expect("the service refreshed this stack")
                .0
            }),
            None => tracer.span("multilevel.build", || {
                build_multi_level(graph, &matrices, &finest, &LEVELS[1..])
                    .expect("the service built this stack")
            }),
        };
        tracer.exit();
        self.replay.insert(
            version.name,
            ReplayState {
                graph: Arc::clone(graph),
                stats: Arc::clone(stats),
                matrices,
                importance,
                stack,
            },
        );
    }
}

/// Replay state for `graph`/`stats` computed from scratch.
fn cold_state(
    graph: &Arc<SchemaGraph>,
    stats: &Arc<SchemaStats>,
    config: &SummarizerConfig,
) -> ReplayState {
    let matrices = PairMatrices::compute(stats, &config.paths);
    let importance = compute_importance(graph, stats, &config.importance);
    let dominance = DominanceSet::compute(graph, stats, &matrices);
    let finest = balance_summary(graph, &importance, &dominance, LEVELS[0]).expect("valid k");
    let stack = build_multi_level(graph, &matrices, &finest, &LEVELS[1..]).expect("valid levels");
    ReplayState {
        graph: Arc::clone(graph),
        stats: Arc::clone(stats),
        matrices,
        importance,
        stack,
    }
}
