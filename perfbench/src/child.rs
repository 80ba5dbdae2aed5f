//! The serving process: the benchmark binary re-executed with
//! `--serve-child`, so the server has a process (and a peak RSS and CPU
//! time) of its own while the load comes from the parent.
//!
//! It builds the program the way `msgc serve` does with its defaults:
//! batch-max 16, batch-wait 200 µs, metering and the admin endpoint on,
//! trace file off, popularity cold start, `Engine::warm_up`, and for
//! `--ann` an HNSW index at ef 64 with the recall canary every 30 s.
//! The model is a seeded initialisation instead of a checkpoint file.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use meta_sgcl::FrozenMetaSgcl;
use nn::Freeze;
use serve::{
    canary_probes, canary_recall, server, Batcher, Engine, HnswConfig, HnswIndex, Mode, ObsConfig,
    ServeObs, SloBudgets, TopK,
};

use crate::gen::{self, Workload};

/// `msgc serve --batch-max` default.
pub const BATCH_MAX: usize = 16;
/// `msgc serve --batch-wait-us` default.
pub const BATCH_WAIT_US: u64 = 200;
/// `msgc serve --ann-ef` default.
pub const ANN_EF: usize = 64;
/// `msgc serve --canary-every-s` default.
const CANARY_EVERY_S: u64 = 30;
/// `msgc serve --canary-probes` default.
const CANARY_PROBES: usize = 16;

/// The serving mode of a workload.
pub fn mode(w: Workload) -> Mode {
    if w == Workload::ServeScoreAnn {
        Mode::Full
    } else {
        Mode::Incremental
    }
}

/// Builds the engine a serving workload runs on: data, model, freeze,
/// popularity, HNSW (for `serve-score-ann`) and warm-up.
pub fn build_engine(w: Workload, seed: u64) -> Engine<FrozenMetaSgcl> {
    let data = gen::dataset(w, seed);
    let frozen = gen::model(w, seed).freeze();
    let mut engine = Engine::new(frozen, mode(w))
        .with_popularity(&gen::popularity_counts(&data))
        .with_default_topk(TopK::Exact);
    if w == Workload::ServeScoreAnn {
        let index = ann_index(engine.model());
        engine = engine.with_ann(index);
    }
    engine.warm_up();
    engine
}

/// The HNSW index `msgc serve --ann` builds over a model's item
/// embeddings, at ef 64.
pub fn ann_index(model: &FrozenMetaSgcl) -> HnswIndex {
    let cfg = HnswConfig {
        ef_search: ANN_EF,
        ..HnswConfig::default()
    };
    HnswIndex::build(&model.item_embeddings(), model.num_items(), &cfg)
}

/// Runs the server until the parent closes this process's stdin.
pub fn run(w: Workload, seed: u64) -> Result<(), String> {
    telemetry::set_enabled(true);
    let engine = Arc::new(build_engine(w, seed));
    let batcher = Arc::new(Batcher::new(
        Arc::clone(&engine),
        BATCH_MAX,
        Duration::from_micros(BATCH_WAIT_US),
    ));
    let obs = ServeObs::new(ObsConfig {
        tracer: None,
        budgets: SloBudgets {
            p99_ms: crate::serving::LIMIT_MS,
            ..SloBudgets::default()
        },
        ..ObsConfig::default()
    });
    if engine.ann().is_some() {
        let probes = canary_probes(w.num_items(), CANARY_PROBES, 8, 42);
        let (engine, obs) = (Arc::clone(&engine), Arc::clone(&obs));
        // Detached like `msgc serve`'s canary; the process exit ends it.
        std::thread::spawn(move || loop {
            if let Some(recall) = canary_recall(engine.as_ref(), &probes, 10) {
                obs.set_canary_recall(recall);
            }
            std::thread::sleep(Duration::from_secs(CANARY_EVERY_S));
        });
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {addr}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    // The parent holds our stdin open for as long as it wants us to serve.
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    server::run_obs(listener, batcher, Some(obs)).map_err(|e| e.to_string())
}
