//! Everything a run generates, and the table set-up every workload shares.
//! Rows and query shapes are the same in every run; the run seed draws the
//! traffic: the order each connection walks the dashboard pool in, and the
//! ad-hoc stream beyond its graded prefix.

use std::sync::Arc;
use std::time::Instant;

use ph_core::{AqpAnswer, Session};
use ph_server::{Server, ServerConfig};
use ph_types::Dataset;

use crate::data::{Rng, Stream, BATCH_ROWS, TABLE};
use crate::queries;
use crate::stats::{median, percentile};

/// Rows handed to `Session::register`.
pub const REGISTER_ROWS: usize = 150_000;
/// Rows in the table once set-up is done: the registered rows plus
/// [`PRELOAD_BATCHES`] pre-load batches of [`PRELOAD_ROWS`]. The pre-load's
/// first batch introduces a site and so refits the table; the other 49 fold
/// into the delta without reaching the seal threshold. Every seed therefore
/// starts the workloads from one sealed segment of 151 000 rows plus a
/// 49 000-row delta. (Every refit on `ingest` rebuilds the whole table; a
/// larger table made those stalls long enough to back the writer up.)
pub const BASE_ROWS: usize = 200_000;
/// Rows per pre-load batch: a bulk load ingests larger batches than the
/// `ingest` workload's feed.
pub const PRELOAD_ROWS: usize = 1000;
pub const PRELOAD_BATCHES: usize = (BASE_ROWS - REGISTER_ROWS) / PRELOAD_ROWS;
/// Set-ups per run before the measured loop (the last one is served) and
/// after it; `setup_s` is the median of all of them. The host's speed drifts
/// between a fast and a slow state every few seconds; set-ups on both sides
/// of the loop sample more of those states than one block of set-ups would.
pub const SETUPS_BEFORE: usize = 4;
pub const SETUPS_AFTER: usize = 4;
/// Client connections of the read workloads (`nproc` on the reference box).
pub const CLIENTS: usize = 2;

/// The inputs of one run.
pub struct Inputs {
    pub stream: Stream,
    /// The first [`BASE_ROWS`] rows: the table the read workloads query.
    pub base: Dataset,
    pub register: Dataset,
    /// The pre-load batches.
    pub preload: Vec<Dataset>,
    pub dashboard: Vec<String>,
    /// A seeded permutation of the dashboard pool's indices: the order its
    /// readers cycle through it.
    pub order: Vec<usize>,
}

impl Inputs {
    /// Inputs for `seed`, with `extra_batches` ingest batches of stream
    /// beyond the base table.
    pub fn generate(seed: u64, extra_batches: usize) -> Inputs {
        let stream = Stream::generate(BASE_ROWS + extra_batches * BATCH_ROWS);
        let base = stream.slice(0, BASE_ROWS);
        let register = stream.slice(0, REGISTER_ROWS);
        let preload = (0..PRELOAD_BATCHES)
            .map(|b| stream.slice(REGISTER_ROWS + b * PRELOAD_ROWS, PRELOAD_ROWS))
            .collect();
        let dashboard = queries::dashboard(&base);
        let mut order: Vec<usize> = (0..dashboard.len()).collect();
        Rng::new(seed).shuffle(&mut order);
        Inputs {
            stream,
            base,
            register,
            preload,
            dashboard,
            order,
        }
    }
}

/// A freshly built table.
pub struct Table {
    pub session: Session,
    /// `Session::register`, in seconds.
    pub register_s: f64,
    /// Each pre-load `Session::ingest`, in milliseconds.
    pub ingest_ms: Vec<f64>,
    /// Register plus pre-load, in seconds.
    pub secs: f64,
}

/// Builds the table in-process: `Session::register`, then the pre-load
/// batches through `Session::ingest` one after another.
pub fn build_table(inputs: &Inputs) -> Result<Table, String> {
    let session = Session::new();
    let register = inputs.register.clone();
    let t0 = Instant::now();
    session
        .register(register)
        .map_err(|e| format!("register: {e}"))?;
    let register_s = t0.elapsed().as_secs_f64();
    let mut ingest_ms = Vec::with_capacity(inputs.preload.len());
    for batch in &inputs.preload {
        let t = Instant::now();
        session
            .ingest(TABLE, batch)
            .map_err(|e| format!("pre-load ingest: {e}"))?;
        ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok(Table {
        session,
        register_s,
        ingest_ms,
        secs,
    })
}

/// A set-up table being served.
pub struct Served {
    pub session: Arc<Session>,
    pub server: Server,
    pub addr: String,
}

/// One set-up: the table built, then served on an ephemeral loopback port.
/// Returns the served table, the set-up time in seconds and each pre-load
/// ingest's time in milliseconds.
pub fn setup(inputs: &Inputs) -> Result<(Served, f64, Vec<f64>), String> {
    let table = build_table(inputs)?;
    let session = Arc::new(table.session);
    let server = Server::bind(session.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    Ok((
        Served {
            session,
            server,
            addr,
        },
        table.secs,
        table.ingest_ms,
    ))
}

/// What a run's set-ups measured.
#[derive(Default)]
pub struct SetupTimes {
    /// Each set-up's time in seconds.
    secs: Vec<f64>,
    /// Each set-up's pre-load `Session::ingest` times in milliseconds, for
    /// every set-up but the first, whose fresh process pays its first-touch
    /// page faults.
    ingest_ms: Vec<Vec<f64>>,
}

impl SetupTimes {
    fn add(&mut self, secs: f64, ingest_ms: Vec<f64>) {
        if !self.secs.is_empty() {
            self.ingest_ms.push(ingest_ms);
        }
        self.secs.push(secs);
    }

    /// `setup_s`: the median set-up time.
    pub fn setup_s(&self) -> f64 {
        median(&self.secs)
    }

    /// Each set-up's median pre-load ingest time, averaged over the
    /// set-ups. A set-up runs its whole pre-load within one host speed
    /// state, so a median over the pooled samples would jump between the
    /// states' times as their mix crosses one half; the mean moves with the
    /// mix.
    pub fn ingest_p50_ms(&self) -> f64 {
        let p50s: Vec<f64> = self.ingest_ms.iter().map(|ms| median(ms)).collect();
        p50s.iter().sum::<f64>() / p50s.len() as f64
    }

    /// The p99 over every pre-load ingest sample.
    pub fn ingest_p99_ms(&self) -> f64 {
        percentile(&self.ingest_ms.concat(), 0.99)
    }

    /// [`SETUPS_AFTER`] more set-ups, built and dropped without serving.
    /// Call once the served table is gone, so two tables never share memory.
    pub fn after(&mut self, inputs: &Inputs) -> Result<(), String> {
        for _ in 0..SETUPS_AFTER {
            let table = build_table(inputs)?;
            self.add(table.secs, table.ingest_ms);
        }
        eprintln!(
            "set-up: {} times, {:.2} s each at the median",
            self.secs.len(),
            self.setup_s()
        );
        Ok(())
    }
}

/// [`SETUPS_BEFORE`] set-ups; keeps the last one serving and returns it
/// with what the set-ups measured.
pub fn setups_before(inputs: &Inputs) -> Result<(Served, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut last: Option<Served> = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some(prev) = last.take() {
            prev.server.shutdown();
        }
        let (served, secs, ms) = setup(inputs)?;
        times.add(secs, ms);
        last = Some(served);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Bit-level answer identity (`-0.0` and NaN payloads included).
pub fn same_answer(a: &AqpAnswer, b: &AqpAnswer) -> bool {
    let est = |x: &ph_core::Estimate, y: &ph_core::Estimate| {
        [x.value, x.lo, x.hi, x.support, x.mean]
            .iter()
            .zip([y.value, y.lo, y.hi, y.support, y.mean])
            .all(|(p, q)| p.to_bits() == q.to_bits())
    };
    match (a, b) {
        (AqpAnswer::Scalar(None), AqpAnswer::Scalar(None)) => true,
        (AqpAnswer::Scalar(Some(x)), AqpAnswer::Scalar(Some(y))) => est(x, y),
        (AqpAnswer::Groups(x), AqpAnswer::Groups(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((lx, ex), (ly, ey))| lx == ly && est(ex, ey))
        }
        _ => false,
    }
}
