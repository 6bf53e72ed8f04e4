//! The engine's hard invariant, end to end: the shard geometry must be
//! unobservable in every pipeline output. A golden (fault-free) chaos run
//! on eight shards reproduces the artifacts and metrics of the
//! `engine: None` run (every measurement on one shard) byte-for-byte, and
//! any engine run — golden or kitchen-sink faulted — produces the same
//! `ChaosRun` for every worker count. The faulted kitchen-sink run is also
//! pinned to committed digests at three geometries.
//!
//! Only the ECS scans run on the discrete-event engine, and their shards
//! exchange no events. The Atlas campaigns and the relay series run
//! serially over the same shard count's probe or round ranges, each range
//! on its own shard's fault channel. The §4 storm runs serially in every
//! mode; its engine model is the oracle in `tests/masque_load.rs`.
//!
//! Below the pipelines, a model-based property runs the scheduler itself on
//! random shard-model graphs — local schedules, cross-shard sends,
//! broadcasts and same-time ties, with handlers that draw from the shard
//! generator and from `fork` and `fork_indexed` children — and checks that
//! every worker count reproduces the one-worker run.
//!
//! Unit-level equivalence (per-report field equality, per-stage shard
//! alignment) lives next to each stage.

use std::path::Path;

use proptest::prelude::*;
use tectonic::chaos::{run_pipeline, ChaosConfig, ChaosRun};
use tectonic::engine::{Engine, EngineConfig, ShardCtx, ShardModel};
use tectonic::net::{SimDuration, SimRng, SimTime};
use tectonic::simnet::scenarios;

/// Reduced sizing so the full pipeline stays affordable per run: the
/// matrix here executes it several times.
fn config(engine: Option<EngineConfig>) -> ChaosConfig {
    ChaosConfig {
        scale: 8192,
        probes: 200,
        quic_sample: 20,
        storm_clients: 48,
        engine,
    }
}

fn assert_runs_equal(a: &ChaosRun, b: &ChaosRun, label: &str) {
    assert_eq!(a.artifacts, b.artifacts, "{label}: artifacts diverged");
    assert_eq!(a.metrics, b.metrics, "{label}: metrics diverged");
    assert_eq!(a.stats, b.stats, "{label}: fault ledgers diverged");
    assert_eq!(
        a.atlas_a_stats, b.atlas_a_stats,
        "{label}: A-campaign ledgers diverged"
    );
}

/// Golden pipeline through the engine ≡ golden pipeline without it, for
/// one and for many workers. This is the acceptance invariant: turning
/// the engine on must change nothing but wall-clock time.
#[test]
fn golden_engine_run_matches_serial_pipeline() {
    let serial = run_pipeline(5, None, &config(None));
    for workers in [1, 4] {
        let engine = run_pipeline(5, None, &config(Some(EngineConfig::new(8, workers))));
        assert_runs_equal(&engine, &serial, &format!("golden, {workers} workers"));
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks `run` against its own line in `tests/golden/engine-cells.txt`,
/// the one that starts with `label`: a digest of artifacts, metrics and
/// both fault ledgers, built as `chaos_matrix.rs` builds its cell lines. A
/// mismatch writes the committed file with this line replaced (or added)
/// under `target/tmp/golden/`; re-blessing copies it over the committed
/// file.
fn check_engine_cell(label: &str, run: &ChaosRun) {
    let dump = format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        run.artifacts, run.metrics, run.stats, run.atlas_a_stats
    );
    let line = format!("{label} fnv1a={:016x}", fnv1a(dump.as_bytes()));
    let name = "engine-cells.txt";
    let committed = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name),
    )
    .unwrap_or_default();
    let prefix = format!("{label} fnv1a=");
    let mut lines: Vec<&str> = committed.lines().collect();
    match lines.iter().position(|l| l.starts_with(&prefix)) {
        Some(i) if lines[i] == line => return,
        Some(i) => lines[i] = &line,
        None => lines.push(&line),
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("create the actual-output directory");
    let path = dir.join(name);
    let actual: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, actual).expect("write the actual output");
    panic!(
        "{label}: digest differs from tests/golden/{name}; actual file: {}",
        path.display()
    );
}

/// The kitchen-sink scenario — every fault family at once, tunnel loss on
/// the storm's datagrams included — through the engine: the one-worker run
/// matches its committed digest, and every worker count reproduces it.
/// Two more geometries are pinned: 7 and 11 shards divide neither the 200
/// probes nor the 72- and 240-round relay series, so their last ranges run
/// short and each range picks its own fault channel.
#[test]
fn kitchen_sink_engine_run_is_worker_invariant() {
    let plan = scenarios::by_name("kitchen-sink").expect("scenario registered");
    let base = run_pipeline(7, Some(&plan), &config(Some(EngineConfig::new(8, 1))));
    check_engine_cell("kitchen-sink seed=7 engine=8x1", &base);
    for workers in [2, 4] {
        let run = run_pipeline(7, Some(&plan), &config(Some(EngineConfig::new(8, workers))));
        assert_runs_equal(&run, &base, &format!("kitchen-sink, {workers} workers"));
    }
    for (shards, workers) in [(7, 2), (11, 3)] {
        let engine = EngineConfig::new(shards, workers);
        let run = run_pipeline(7, Some(&plan), &config(Some(engine)));
        check_engine_cell(
            &format!("kitchen-sink seed=7 engine={shards}x{workers}"),
            &run,
        );
    }
    // The run injected faults (the matrix in chaos_matrix.rs checks the
    // full invariants; here we only need the engine path to have actually
    // exercised the fault machinery).
    let injected: u64 = base
        .stats
        .values()
        .map(|s| s.all_dropped() + s.undecodable() + s.rcode_rewritten)
        .sum();
    assert!(injected > 0, "kitchen-sink run injected nothing");
}

/// The quick cell: serial vs a three-worker engine at small scale.
#[test]
fn quick_three_worker_equivalence() {
    let small = ChaosConfig {
        scale: 16384,
        probes: 100,
        quic_sample: 10,
        storm_clients: 24,
        engine: None,
    };
    let serial = run_pipeline(11, None, &small);
    let engine = run_pipeline(
        11,
        None,
        &ChaosConfig {
            engine: Some(EngineConfig::new(6, 3)),
            ..small
        },
    );
    assert_runs_equal(&engine, &serial, "quick three-worker cell");
}

/// What a handler does with an event that still has hops left.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A follow-up on this shard, `delay` later.
    Local,
    /// Two follow-ups on this shard at the current instant.
    Tie,
    /// One event to the shard `offset` places on.
    Send,
    /// One event to every other shard.
    Broadcast,
}

/// A random shard-model graph: the step each event tag takes, the seeded
/// events, the lookahead and how many extra draws each handler makes.
#[derive(Clone, Debug)]
struct Graph {
    /// `(step, offset, delay_ms)`, chosen by `tag % steps.len()`.
    steps: Vec<(Step, usize, u64)>,
    /// `(shard, at_ms, tag, hops)`; shards past the last are clamped.
    seeds: Vec<(usize, u64, u32, u8)>,
    lookahead_ms: u64,
    extra_draws: u8,
}

#[derive(Clone, Debug)]
struct Hop {
    tag: u32,
    hops: u8,
}

/// Handled events per shard after which a shard stops spawning, so
/// broadcast fan-out stays bounded. The cut-off depends only on the
/// shard's own event order.
const SPAWN_BUDGET: usize = 300;

/// One shard of a [`Graph`]: logs `(time, tag, draws)` per event.
struct GraphShard<'g> {
    graph: &'g Graph,
    log: Vec<(u64, u32, u64)>,
}

impl ShardModel for GraphShard<'_> {
    type Event = Hop;
    type Out = Vec<(u64, u32, u64)>;

    fn handle(&mut self, now: SimTime, event: Hop, ctx: &mut ShardCtx<Hop>) {
        let rng = ctx.rng();
        let mut draws = rng.next_u64_raw();
        draws ^= rng.fork("graph-node").next_u64_raw().rotate_left(21);
        draws ^= rng
            .fork_indexed("graph-tag", u64::from(event.tag))
            .next_u64_raw()
            .rotate_left(42);
        for _ in 0..self.graph.extra_draws {
            draws = draws.wrapping_add(rng.next_u64_raw());
        }
        self.log.push((now.0, event.tag, draws));
        if event.hops == 0 || self.log.len() > SPAWN_BUDGET {
            return;
        }
        let Some(&(step, offset, delay)) = self
            .graph
            .steps
            .get(event.tag as usize % self.graph.steps.len())
        else {
            return;
        };
        // The child's tag depends on the draws, so an order-dependent
        // draw also reshapes the rest of the graph.
        let child = Hop {
            tag: event
                .tag
                .wrapping_mul(31)
                .wrapping_add((draws % 997) as u32),
            hops: event.hops - 1,
        };
        let at = now + SimDuration::from_millis(delay);
        match step {
            Step::Local => ctx.schedule(at, child),
            Step::Tie => {
                let twin = Hop {
                    tag: child.tag ^ 1,
                    hops: child.hops,
                };
                ctx.schedule(now, child);
                ctx.schedule(now, twin);
            }
            Step::Send => {
                let dest = (ctx.shard() + offset) % ctx.shard_count();
                ctx.send(dest, at, child);
            }
            Step::Broadcast => ctx.broadcast(at, child),
        }
    }

    fn finish(self) -> Self::Out {
        self.log
    }
}

fn run_graph(graph: &Graph, shards: usize, workers: usize) -> Vec<Vec<(u64, u32, u64)>> {
    let config = EngineConfig::new(shards, workers)
        .with_lookahead(SimDuration::from_millis(graph.lookahead_ms));
    let models = (0..shards)
        .map(|_| GraphShard {
            graph,
            log: Vec::new(),
        })
        .collect();
    let mut engine = Engine::new(&config, models, &SimRng::new(0x6EA9));
    for &(shard, at, tag, hops) in &graph.seeds {
        engine.seed(shard, SimTime(at), Hop { tag, hops });
    }
    engine.run()
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Local),
        Just(Step::Tie),
        Just(Step::Send),
        Just(Step::Broadcast)
    ]
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        prop::collection::vec((arb_step(), 1usize..8, 0u64..400), 1..6),
        // Seed times on a coarse grid, so several seeds share an instant.
        prop::collection::vec(
            (
                0usize..8,
                (0u64..20).prop_map(|t| t * 50),
                any::<u32>(),
                0u8..4,
            ),
            1..40,
        ),
        1u64..600,
        0u8..8,
    )
        .prop_map(|(steps, seeds, lookahead_ms, extra_draws)| Graph {
            steps,
            seeds,
            lookahead_ms,
            extra_draws,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On every random graph and shard count, 2 and 4 workers reproduce
    /// the one-worker run exactly: the same events, at the same times, in
    /// the same per-shard order, with the same draws.
    #[test]
    fn random_graphs_are_worker_invariant(graph in arb_graph()) {
        for shards in [1, 3, 8] {
            let oracle = run_graph(&graph, shards, 1);
            prop_assert!(oracle.iter().map(Vec::len).sum::<usize>() >= graph.seeds.len());
            for workers in [2, 4] {
                prop_assert_eq!(
                    run_graph(&graph, shards, workers),
                    oracle.clone(),
                    "{} shards, {} workers",
                    shards,
                    workers
                );
            }
        }
    }
}
