//! `serve`: closed loop, one keep-alive connection from one client thread
//! (the service crate's own `NodeClient`), against `HttpServer` on an
//! ephemeral loopback port with the three paper schemas registered.
//!
//! The mix is `/v1/summary` over schema × algorithm × k, `/v1/levels`,
//! `/v1/expand`, and a periodic `GET /metrics` scrape. The key set fits the
//! result cache and is warmed during set-up, so the HTTP front-end and the
//! store's hits do almost all the work and the algorithms none: a
//! front-end or observability change shows here and nowhere else.
//!
//! The client and the server's threads run on one CPU (see
//! [`pin_to_current_cpu`]).

use crate::ledger::{gate, GateFailure, Outcome, Tracer};
use crate::{count_cache_stats, service_config, Workload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use schema_summary_core::{SchemaGraph, SchemaStats};
use schema_summary_datasets::{mimi, tpch, xmark};
use schema_summary_service::cluster::NodeClient;
use schema_summary_service::{
    CacheStats, ExpandSpec, HttpConfig, HttpServer, ServedReply, SummaryRequest, SummaryService,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `GET /metrics` scrape per this many summary requests.
const SCRAPE_EVERY: usize = 54;
/// Tag of the request-order stream drawn from `--seed`.
const MIX_STREAM: u64 = 0x7365_7276;
/// A family every scrape must expose.
const SCRAPE_FAMILY: &str = "schema_summary_cache_hits_total";

enum Request {
    Summary {
        path: &'static str,
        request: SummaryRequest,
        body: Vec<u8>,
    },
    Metrics,
}

/// The JSON body the HTTP front-end renders for an in-process reply.
fn render(reply: &ServedReply) -> String {
    match reply {
        ServedReply::Flat(flat) => serde_json::to_string(flat.result.as_ref()),
        ServedReply::MultiLevel(ml) => serde_json::to_string(&ml.result.view),
        ServedReply::Expansion(exp) => serde_json::to_string(&exp.result),
    }
    .expect("replies serialize")
}

/// The request mix, in a seeded order that every round repeats.
fn requests(seed: u64) -> Vec<Request> {
    let mut summaries = Vec::new();
    for schema in ["xmark", "tpch", "mimi"] {
        let base = SummaryRequest {
            schema: Some(schema.into()),
            ..Default::default()
        };
        for algorithm in ["balance", "importance", "coverage"] {
            for k in [3, 5, 8, 10] {
                let request = SummaryRequest {
                    algorithm: Some(algorithm.into()),
                    k: Some(k),
                    ..base.clone()
                };
                summaries.push(("/v1/summary", request));
            }
        }
        for levels in [vec![12, 6, 3], vec![10, 5], vec![8, 4, 2]] {
            let request = SummaryRequest {
                levels: Some(levels),
                ..base.clone()
            };
            summaries.push(("/v1/levels", request));
        }
        for (level, groups) in [(0, 12), (1, 6), (2, 3)] {
            for group in 0..groups {
                let request = SummaryRequest {
                    levels: Some(vec![12, 6, 3]),
                    expand: Some(ExpandSpec { level, group }),
                    ..base.clone()
                };
                summaries.push(("/v1/expand", request));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ MIX_STREAM);
    for i in (1..summaries.len()).rev() {
        summaries.swap(i, rng.random_range(0..=i));
    }
    let mut mix = Vec::new();
    for (i, (path, request)) in summaries.into_iter().enumerate() {
        mix.push(Request::Summary {
            path,
            body: serde_json::to_string(&request)
                .expect("requests serialize")
                .into_bytes(),
            request,
        });
        if (i + 1) % SCRAPE_EVERY == 0 {
            mix.push(Request::Metrics);
        }
    }
    mix
}

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// CPU it is running on, so the client, the server's connection thread and
/// its worker hand each request over on one CPU. Across CPUs every
/// hand-over wakes an idle CPU; on a virtual machine that wake-up goes
/// through the host, and on a shared 2-vCPU host it moved whole runs' p99
/// by up to 7× while the program's own work stayed the same.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: a glibc call without arguments.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // glibc's `cpu_set_t`: a 1024-bit mask.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU index past the mask")? |= 1 << (cpu % 64);
    // SAFETY: `mask` outlives the call and is exactly `cpusetsize` bytes;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error().to_string())
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Result<(), String> {
    Ok(())
}

pub struct ServeInputs {
    schemas: Vec<(&'static str, Arc<SchemaGraph>, Arc<SchemaStats>)>,
    mix: Vec<Request>,
}

pub struct Serve {
    // Declared before the server: the pooled connection closes before the
    // server's graceful shutdown waits on it.
    client: NodeClient,
    node: String,
    server: HttpServer,
    service: Arc<SummaryService>,
    inputs: Arc<ServeInputs>,
}

impl Workload for Serve {
    const NAME: &'static str = "serve";
    type Inputs = ServeInputs;

    fn inputs(seed: u64) -> Result<ServeInputs, String> {
        let (xg, xs, _) = xmark::schema(1.0);
        let (tg, ts, _) = tpch::schema(0.1);
        let (mg, ms, _) = mimi::schema(mimi::Version::Jan06);
        Ok(ServeInputs {
            schemas: vec![
                ("xmark", Arc::new(xg), Arc::new(xs)),
                ("tpch", Arc::new(tg), Arc::new(ts)),
                ("mimi", Arc::new(mg), Arc::new(ms)),
            ],
            mix: requests(seed),
        })
    }

    fn setup(inputs: &Arc<ServeInputs>) -> Result<Self, String> {
        // Before any server thread exists, so all of them inherit it.
        pin_to_current_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;
        let service = Arc::new(SummaryService::new(service_config()));
        for (name, graph, stats) in &inputs.schemas {
            service.register_named(*name, Arc::clone(graph), Arc::clone(stats));
        }
        // Warm the whole key set: every first answer (MaxCoverage's
        // included) is paid here, not in the loop.
        for request in &inputs.mix {
            if let Request::Summary { request, .. } = request {
                service
                    .handle_request(request)
                    .map_err(|e| format!("warming {request:?}: {e}"))?;
            }
        }
        // One request executes at a time (one closed-loop connection), so
        // one worker serves it; the accept and connection threads only
        // wait on sockets.
        let config = HttpConfig {
            workers: 1,
            queue_capacity: 4,
            max_connections: 4,
            request_timeout: Duration::from_secs(30),
            ..HttpConfig::default()
        };
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service), config)
            .map_err(|e| format!("binding a loopback port: {e}"))?;
        let node = server.local_addr().to_string();
        let client = NodeClient::new(Duration::from_secs(5), Duration::from_secs(30));
        // Open the keep-alive connection outside the loop.
        let health = client
            .request(&node, "GET", "/healthz", None, &[], &[])
            .map_err(|e| format!("connecting: {e}"))?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        Ok(Serve {
            client,
            node,
            server,
            service,
            inputs: Arc::clone(inputs),
        })
    }

    fn round(&mut self, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), GateFailure> {
        let before: CacheStats = self.service.cache_stats();
        let traced = tracer.on();
        for request in &self.inputs.mix {
            tracer.begin_op();
            out.attempted += 1;
            let (name, method, path, content_type, body): (_, _, _, _, &[u8]) = match request {
                Request::Summary { path, body, .. } => (
                    "http.request",
                    "POST",
                    *path,
                    Some("application/json"),
                    body,
                ),
                Request::Metrics => ("http.metrics", "GET", "/metrics", None, &[]),
            };
            let started = Instant::now();
            let reply = tracer.span(name, || {
                self.client
                    .request(&self.node, method, path, content_type, &[], body)
            });
            let rtt = started.elapsed().as_secs_f64();
            let body = match reply {
                Ok(reply) if reply.status == 200 => reply.body,
                Ok(reply) => {
                    return Err(GateFailure {
                        check: "serve.status_200",
                        detail: format!("reply status {}", reply.status),
                    })
                }
                Err(e) => {
                    return Err(GateFailure {
                        check: "serve.reply",
                        detail: e.to_string(),
                    })
                }
            };
            out.op(rtt * 1e3, traced);
            match request {
                Request::Metrics => {
                    let text = String::from_utf8_lossy(&body);
                    gate(
                        text.contains(SCRAPE_FAMILY),
                        "serve.metrics_exposition",
                        || format!("scrape lacks {SCRAPE_FAMILY}"),
                    )?;
                }
                Request::Summary { request, .. } => {
                    out.attempted += 1;
                    let started = Instant::now();
                    let local = tracer.span("store.handle_request", || {
                        self.service.handle_request(request)
                    });
                    let handle = started.elapsed().as_secs_f64();
                    let Ok(local) = local else {
                        out.failed += 1;
                        continue;
                    };
                    if traced {
                        tracer.sample("http.self_us", (rtt - handle) * 1e6);
                        tracer.sample("http.reply_bytes", body.len() as f64);
                    } else {
                        out.hit(handle * 1e6);
                    }
                    let expected = render(&local);
                    gate(
                        body == expected.as_bytes(),
                        "serve.body_matches_in_process",
                        || {
                            format!(
                                "{request:?}: wire {} vs in-process {expected}",
                                String::from_utf8_lossy(&body)
                            )
                        },
                    )?;
                }
            }
        }
        count_cache_stats(tracer, &before, &self.service.cache_stats());
        Ok(())
    }

    fn finish(self, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), GateFailure> {
        let Serve { client, server, .. } = self;
        drop(client);
        let stats = server.shutdown();
        tracer.count("http.shed", stats.shed as f64);
        tracer.count("http.timed_out", stats.timed_out as f64);
        out.failed += stats.shed + stats.timed_out;
        Ok(())
    }
}
