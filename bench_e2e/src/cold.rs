//! `cold`: closed loop, one caller, one long-lived service. Each op
//! registers a schema version the service has never seen (seeded
//! cardinality jitter through `SchemaStats::scaled`), asks for Balance at
//! the paper's k and for levels `[12, 6, 3]`, reads both back from the
//! cache, then retires the version.
//!
//! The cycle is TPC-H SF0.1, MiMI Jan06, XMark SF1.0 three times, then the
//! synthetic `random_schema(500, 0.05)`: `op_ms.p50` falls inside the XMark
//! cluster and `op_ms.p99` inside the synthetic tail. This is where the
//! matrices and dominance do their work.
//!
//! Set-up builds the service and registers and answers the cycle's first
//! entry (TPC-H at its base cardinalities), so `setup_s` times service
//! work.

use crate::ledger::{gate, ms_since, GateFailure, Outcome, Tracer};
use crate::{count_cache_stats, service_config, Workload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use schema_summary_algo::algorithms::balance_summary;
use schema_summary_algo::assignment::{assign_elements, summary_coverage, summary_importance};
use schema_summary_algo::importance::compute_importance;
use schema_summary_algo::multilevel::build_multi_level;
use schema_summary_algo::{Algorithm, DominanceSet, PairMatrices, Summarizer, SummarizerConfig};
use schema_summary_bench::synthetic::random_schema;
use schema_summary_core::{SchemaFingerprint, SchemaGraph, SchemaStats};
use schema_summary_datasets::{mimi, tpch, xmark};
use schema_summary_service::{ServedMultiLevel, ServedSummary, SummaryService};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Level sizes every workload asks for, finest first.
pub const LEVELS: [usize; 3] = [12, 6, 3];
/// Cached reads made right after each cold answer.
const HITS_PER_OP: usize = 4;
/// Structure seed of the synthetic schema. Fixed, so every `--seed` sees
/// the same n=500 graph and the tail percentile compares like with like;
/// `--seed` drives the jitter.
const SYNTHETIC_SHAPE: u64 = 42;
/// Tag of the jitter stream drawn from `--seed`.
const JITTER_STREAM: u64 = 0x636f_6c64;

struct Input {
    graph: Arc<SchemaGraph>,
    stats: SchemaStats,
    k: usize,
}

pub struct CycleInputs {
    cycle: Vec<Input>,
    seed: u64,
}

pub struct Cold {
    service: SummaryService,
    config: SummarizerConfig,
    inputs: Arc<CycleInputs>,
    jitter: StdRng,
}

impl Workload for Cold {
    const NAME: &'static str = "cold";
    type Inputs = CycleInputs;

    fn inputs(seed: u64) -> Result<CycleInputs, String> {
        let (xg, xs, _) = xmark::schema(1.0);
        let (tg, ts, _) = tpch::schema(0.1);
        let (mg, ms, _) = mimi::schema(mimi::Version::Jan06);
        let (sg, ss) = random_schema(500, 0.05, SYNTHETIC_SHAPE);
        let xg = Arc::new(xg);
        let input = |graph: &Arc<SchemaGraph>, stats: &SchemaStats, k| Input {
            graph: Arc::clone(graph),
            stats: stats.clone(),
            k,
        };
        let cycle = vec![
            input(&Arc::new(tg), &ts, 5),
            input(&Arc::new(mg), &ms, 10),
            input(&xg, &xs, 10),
            input(&xg, &xs, 10),
            input(&xg, &xs, 10),
            input(&Arc::new(sg), &ss, 10),
        ];
        Ok(CycleInputs { cycle, seed })
    }

    fn setup(inputs: &Arc<CycleInputs>) -> Result<Self, String> {
        let config = service_config();
        let service = SummaryService::new(config.clone());
        let first = &inputs.cycle[0];
        let fp = service.register(Arc::clone(&first.graph), Arc::new(first.stats.clone()));
        service
            .summarize(fp, Algorithm::Balance, first.k)
            .and_then(|_| service.multi_level(fp, Algorithm::Balance, &LEVELS))
            .map_err(|e| format!("answering the first cycle entry: {e}"))?;
        Ok(Cold {
            service,
            config: config.summarizer,
            inputs: Arc::clone(inputs),
            jitter: StdRng::seed_from_u64(inputs.seed ^ JITTER_STREAM),
        })
    }

    fn round(&mut self, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), GateFailure> {
        let before = self.service.cache_stats();
        let inputs = Arc::clone(&self.inputs);
        for input in &inputs.cycle {
            // Never-seen content: every op scales the cardinalities by its
            // own factor in [1, 1.25).
            let factor = 1.0 + 0.25 * self.jitter.random::<f64>();
            let graph = Arc::clone(&input.graph);
            let stats = Arc::new(input.stats.scaled(factor));
            self.op(&graph, &stats, input.k, tracer, out)?;
        }
        count_cache_stats(tracer, &before, &self.service.cache_stats());
        Ok(())
    }
}

impl Cold {
    fn op(
        &self,
        graph: &Arc<SchemaGraph>,
        stats: &Arc<SchemaStats>,
        k: usize,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Result<(), GateFailure> {
        let service = &self.service;
        let traced = tracer.on();
        tracer.begin_op();
        tracer.enter("cold.op");
        out.attempted += 1;
        let started = Instant::now();
        let fp = tracer.span("catalog.register", || {
            service.register(Arc::clone(graph), Arc::clone(stats))
        });
        let flat = tracer.span("store.summarize", || {
            service.summarize(fp, Algorithm::Balance, k)
        });
        let levels = tracer.span("store.multi_level", || {
            service.multi_level(fp, Algorithm::Balance, &LEVELS)
        });
        let mut op_ms = ms_since(started);
        let answers = match (flat, levels) {
            (Ok(flat), Ok(levels)) => Some((flat, levels)),
            _ => {
                out.failed += 1;
                None
            }
        };
        if answers.is_some() {
            for i in 0..HITS_PER_OP {
                out.attempted += 1;
                let started = Instant::now();
                let read = tracer.span("store.hit", || {
                    if i % 2 == 0 {
                        service
                            .summarize(fp, Algorithm::Balance, k)
                            .map(|r| r.from_cache)
                    } else {
                        service
                            .multi_level(fp, Algorithm::Balance, &LEVELS)
                            .map(|r| r.from_cache)
                    }
                });
                let us = started.elapsed().as_secs_f64() * 1e6;
                match read {
                    Ok(from_cache) => {
                        gate(from_cache, "cold.read_back_from_cache", || {
                            format!("read {i} after a cold answer recomputed")
                        })?;
                        if !traced {
                            out.hit(us);
                        }
                    }
                    Err(_) => out.failed += 1,
                }
            }
        }
        let started = Instant::now();
        tracer.span("catalog.invalidate", || service.invalidate(fp));
        op_ms += ms_since(started);
        tracer.exit();
        out.op(op_ms, traced);

        let Some((flat, levels)) = answers else {
            return Ok(());
        };
        if traced {
            let replay_ms = self.replay(graph, stats, k, tracer);
            tracer.sample("service.unattributed_ms", op_ms - replay_ms);
        }
        self.check(graph, stats, k, fp, &flat, &levels)
    }

    /// Run the same inputs through the layer functions the service calls,
    /// one span per call. Returns the replay's wall time in ms.
    fn replay(
        &self,
        graph: &SchemaGraph,
        stats: &SchemaStats,
        k: usize,
        tracer: &mut Tracer,
    ) -> f64 {
        let config = &self.config;
        let started = Instant::now();
        tracer.enter("cold.replay");
        tracer.span("fingerprint", || {
            black_box(SchemaFingerprint::of_annotated(graph, stats))
        });
        let importance = tracer.span("importance.cold", || {
            compute_importance(graph, stats, &config.importance)
        });
        tracer.count("importance.iterations", importance.iterations as f64);
        let matrices = tracer.span("matrices.compute", || {
            PairMatrices::compute(stats, &config.paths)
        });
        tracer.count("paths.expansions", matrices.expansions() as f64);
        let dominance = tracer.span("dominance", || {
            DominanceSet::compute(graph, stats, &matrices)
        });
        tracer.count("dominance.pairs", dominance.len() as f64);
        let selection = tracer.span("algorithms.balance", || {
            balance_summary(graph, &importance, &dominance, k).expect("the service answered this k")
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
        tracer.span("multilevel.build", || {
            black_box(
                build_multi_level(graph, &matrices, &finest, &LEVELS[1..])
                    .expect("the service built this stack"),
            )
        });
        tracer.exit();
        ms_since(started)
    }

    /// The gate: every answer equals the `Summarizer` facade's on the same
    /// inputs, bit for bit.
    fn check(
        &self,
        graph: &SchemaGraph,
        stats: &SchemaStats,
        k: usize,
        fp: SchemaFingerprint,
        flat: &ServedSummary,
        levels: &ServedMultiLevel,
    ) -> Result<(), GateFailure> {
        let result = &flat.result;
        gate(
            !flat.from_cache && !levels.from_cache,
            "cold.first_answer_computed",
            || "a never-seen version was answered from a cache".into(),
        )?;
        gate(
            fp == SchemaFingerprint::of_annotated(graph, stats),
            "cold.fingerprint",
            || format!("registered as {fp}"),
        )?;
        let mut facade = Summarizer::with_config(graph, stats, self.config.clone());
        let selection = facade
            .select(k, Algorithm::Balance)
            .map_err(|e| GateFailure {
                check: "cold.facade_select",
                detail: e.to_string(),
            })?;
        gate(result.selection == selection, "cold.selection", || {
            format!("served {:?}, facade {:?}", result.selection, selection)
        })?;
        let labels: Vec<String> = selection.iter().map(|&e| graph.label_path(e)).collect();
        gate(result.labels == labels, "cold.labels", || {
            format!("served {:?}, facade {:?}", result.labels, labels)
        })?;
        let coverage = facade.selection_coverage(&selection);
        gate(
            result.coverage.to_bits() == coverage.to_bits(),
            "cold.coverage",
            || format!("served {}, facade {coverage}", result.coverage),
        )?;
        let importance = facade.selection_importance(&selection);
        gate(
            result.importance.to_bits() == importance.to_bits(),
            "cold.importance",
            || format!("served {}, facade {importance}", result.importance),
        )?;
        let stack = facade
            .multi_level(&LEVELS, Algorithm::Balance)
            .map_err(|e| GateFailure {
                check: "cold.facade_levels",
                detail: e.to_string(),
            })?;
        gate(stack == levels.result.summary, "cold.level_stack", || {
            "served stack differs from the facade's".into()
        })
    }
}
