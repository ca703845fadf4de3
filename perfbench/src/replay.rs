//! The traced run: the same seeded inputs replayed in-process through each
//! layer's public functions, with the benchmark's own spans around the calls.
//! Spans are kept in memory and reduced to per-layer self times at the end.
//!
//! The run has five parts:
//! 1. a served phase on a fresh set-up: one connection sends the workload's
//!    queries one at a time (the served side of `server.overhead_us`, and
//!    the answers the wire codec spans re-encode), then an open-loop writer
//!    sends the first [`COMPARE_BATCHES`] continuation batches (the served
//!    side of `server.ingest_overhead_ms`, and `loadgen.lag_ms`);
//! 2. the same table built in-process (`build.*`);
//! 3. the query replay in blocks that rotate between `Session::sql`
//!    (the measured total), the decomposed path untraced, and the
//!    decomposed path traced — so tracing overhead and coverage compare
//!    like with like;
//! 4. the continuation batches through `Session::ingest` with the WAL on
//!    (interleaved with reader queries on `ingest`), then again without the
//!    WAL on a fresh set-up, for `ingest.wal_ms`;
//! 5. the four seal steps on seal-sized slices of the stream.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ph_core::merge::merge_answers;
use ph_core::{PairwiseHist, PairwiseHistConfig, Session};
use ph_server::{answer_from_json, answer_to_json, Client, Json};

use crate::data::{BATCH_ROWS, TABLE};
use crate::inputs::{build_table, same_answer, setup, Inputs, BASE_ROWS};
use crate::queries::Adhoc;
use crate::served::{Outcome, INGEST_BATCHES};
use crate::stats::{median, percentile, Metrics};

/// Queries the served phase sends.
const SERVED_QUERIES: usize = 2048;
/// Query replay: blocks of this many queries, rotating between the three
/// paths, [`REPLAY_ROUNDS`] blocks of each.
const BLOCK: usize = 256;
const REPLAY_ROUNDS: usize = 8;
/// Continuation batches compared served vs in-process and WAL vs no WAL.
const COMPARE_BATCHES: usize = 200;
/// Reader queries replayed after each batch on the `ingest` workload.
const QUERIES_PER_BATCH: usize = 4;
/// Seal-sized slices timed step by step (the default seal threshold).
const SEAL_ROWS: usize = 50_000;
const SEAL_SLICES: usize = 3;

/// One recorded span: `[start, end)` in ns from the tracer's origin.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. When off, `begin`/`end` cost a branch, so the
/// untraced blocks run the identical call sequence.
struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, optionally renaming it (a kind known only after the
    /// call, such as seal or refit).
    fn end(&mut self, id: usize, rename: Option<&'static str>) {
        if id == usize::MAX {
            return;
        }
        let now = self.now();
        self.open.pop();
        let span = &mut self.spans[id];
        span.end = now;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    fn rename(&mut self, id: usize, name: &'static str) {
        if let Some(span) = self.spans.get_mut(id) {
            span.name = name;
        }
    }

    /// Duration of span `id` in µs (0 when tracing was off).
    fn micros(&self, id: usize) -> f64 {
        self.spans
            .get(id)
            .map_or(0.0, |s| (s.end - s.start) as f64 * 1e-3)
    }

    /// Self time of every span named `name`, in `unit` seconds (1e-6 = µs).
    fn self_times(&self, name: &str, unit: f64) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end - s.start).saturating_sub(child[i]) as f64 * 1e-9 / unit)
            .collect()
    }

    fn p50(&self, name: &str, unit: f64) -> f64 {
        median(&self.self_times(name, unit))
    }

    fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// Checks and tallies shared by the replay steps.
struct Run {
    t: Tracer,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Plan-cache outcome of each counted (main-sequence) prepare.
    hits: u64,
    misses: u64,
    engines: Vec<f64>,
}

impl Run {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.violations.push(what);
    }

    /// One query through the decomposed path: `Session::prepare`, then
    /// `PairwiseHist::execute_prepared` on every segment and the delta of
    /// the current snapshot, then `merge_answers`. The merged answer must
    /// equal `Session::sql` bit for bit. Returns the time spent in the
    /// decomposed calls and the part of it the layer spans cover, in µs.
    fn query(&mut self, session: &Session, sql: &str, counted: bool) -> (f64, f64) {
        self.attempted += 1;
        let before = session.cache_stats();
        let t0 = Instant::now();
        let root = self.t.begin("query");
        let prep = self.t.begin("plan.prepare");
        let prepared = session.prepare(sql);
        self.t.end(prep, None);
        let hit = session.cache_stats().hits > before.hits;
        self.t.rename(
            prep,
            if hit {
                "plan.prepare_hit"
            } else {
                "plan.prepare_miss"
            },
        );
        let mut covered = self.t.micros(prep);
        let Ok(prepared) = prepared else {
            self.t.end(root, None);
            self.fail(format!("prepare {sql}"));
            return (0.0, 0.0);
        };
        let snap = session.engine(TABLE).expect("table registered");
        let engines: Vec<&PairwiseHist> = snap.segments().into_iter().chain(snap.delta()).collect();
        let mut parts = Vec::with_capacity(engines.len());
        for e in &engines {
            let s = self.t.begin("estimate.segment");
            let part = e.execute_prepared(&prepared);
            self.t.end(s, None);
            covered += self.t.micros(s);
            match part {
                Ok(p) => parts.push(p),
                Err(e) => {
                    self.t.end(root, None);
                    self.fail(format!("segment estimate {sql}: {e}"));
                    return (0.0, 0.0);
                }
            }
        }
        let m = self.t.begin("merge");
        let merged = merge_answers(prepared.query().agg, parts);
        self.t.end(m, None);
        covered += self.t.micros(m);
        self.t.end(root, None);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if counted {
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
        }
        if self.t.on {
            self.engines.push(engines.len() as f64);
            // The parse cost a cache miss pays inside prepare, on its own.
            let p = self.t.begin("sql.parse");
            let parsed = ph_sql::parse_query(sql);
            self.t.end(p, None);
            if parsed.is_err() {
                self.fail(format!("parse {sql}"));
            }
        }
        match session.sql(sql) {
            Ok(direct) if same_answer(&merged, &direct) => {}
            _ => self.fail(format!(
                "merged segment answers differ from Session::sql: {sql}"
            )),
        }
        (us, covered)
    }

    /// One batch through `Session::ingest`, spanned and classified by its
    /// `IngestReport`. Returns the kind and milliseconds.
    fn ingest(&mut self, session: &Session, batch: &ph_types::Dataset) -> (&'static str, f64) {
        self.attempted += 1;
        let t0 = Instant::now();
        let s = self.t.begin("ingest");
        let report = session.ingest(TABLE, batch);
        let kind = match &report {
            Ok(r) if r.sealed_segments > 0 => "ingest.seal",
            Ok(r) if r.rebuilt => "ingest.refit",
            Ok(_) => "ingest.plain",
            Err(_) => "ingest.failed",
        };
        self.t.end(s, Some(kind));
        if let Err(e) = report {
            self.fail(format!("ingest: {e}"));
        }
        (kind, t0.elapsed().as_secs_f64() * 1e3)
    }
}

/// Queries `skip..skip + n` of the workload's query sequence: the ad-hoc
/// stream, or the dashboard pool cycled in the run's order.
fn sequence(inputs: &Inputs, adhoc: Option<&Adhoc>, skip: usize, n: usize) -> Vec<String> {
    match adhoc {
        Some(a) => (skip..skip + n).map(|k| a.text(k)).collect(),
        None => inputs
            .order
            .iter()
            .cycle()
            .skip(skip)
            .take(n)
            .map(|&i| inputs.dashboard[i].clone())
            .collect(),
    }
}

pub fn run(
    workload: &str,
    inputs: &Inputs,
    adhoc: Option<&Adhoc>,
    scratch: &std::path::Path,
    secs: f64,
) -> Result<Outcome, String> {
    let mut r = Run {
        t: Tracer::new(),
        violations: Vec::new(),
        attempted: 0,
        failed: 0,
        hits: 0,
        misses: 0,
        engines: Vec::new(),
    };
    let mut m = Metrics::default();
    let pool_len = inputs.dashboard.len();

    // 1. Served phase.
    let (served, _, _) = setup(inputs)?;
    if adhoc.is_none() {
        for sql in &inputs.dashboard {
            served.session.sql(sql).map_err(|e| e.to_string())?;
        }
    }
    let mut client = Client::new(served.addr.clone());
    let mut served_us = Vec::with_capacity(SERVED_QUERIES);
    for sql in sequence(inputs, adhoc, 0, SERVED_QUERIES) {
        r.attempted += 1;
        let t = Instant::now();
        match client.query(&sql) {
            Ok(answer) => {
                served_us.push(t.elapsed().as_secs_f64() * 1e6);
                // The wire codec on the served answer: what the server does
                // after estimating, and what the client does on receipt.
                let e = r.t.begin("wire.encode");
                let text = answer_to_json(&answer).to_string();
                r.t.end(e, None);
                let d = r.t.begin("wire.decode");
                let back = Json::parse(&text).and_then(|doc| answer_from_json(&doc));
                r.t.end(d, None);
                if !back.is_ok_and(|b| same_answer(&b, &answer)) {
                    r.fail(format!("wire round trip changed the answer of {sql}"));
                }
            }
            Err(e) => r.fail(format!("served query {sql}: {e}")),
        }
    }
    served
        .session
        .enable_wal(scratch.join("wal-served"))
        .map_err(|e| e.to_string())?;
    let interval = Duration::from_secs_f64(secs / INGEST_BATCHES as f64);
    let (mut served_ack, mut lag) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for b in 0..COMPARE_BATCHES {
        let body = inputs.stream.csv(BASE_ROWS + b * BATCH_ROWS, BATCH_ROWS);
        let due = start + interval * b as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lag.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        r.attempted += 1;
        match client.ingest_csv(TABLE, &body) {
            Ok(_) => served_ack.push(Instant::now().duration_since(due).as_secs_f64() * 1e3),
            Err(e) => r.fail(format!("served ingest {b}: {e}")),
        }
    }
    served.server.shutdown();

    // 2. The table again, in-process.
    let table = build_table(inputs)?;
    let session = table.session;
    m.put("build.register_s", "s", table.register_s);
    let setup_store = (
        session.table_stats(TABLE).map_err(|e| e.to_string())?,
        session.footprint_report(TABLE).map_err(|e| e.to_string())?,
    );
    let snap = session.engine(TABLE).expect("table registered");
    let engines: Vec<&PairwiseHist> = snap.segments().into_iter().chain(snap.delta()).collect();
    m.put(
        "build.bins_1d",
        "count",
        engines.iter().map(|e| e.total_1d_bins()).sum::<usize>() as f64,
    );
    m.put(
        "build.cells_2d",
        "count",
        engines.iter().map(|e| e.total_2d_cells()).sum::<usize>() as f64,
    );
    drop(engines);
    drop(snap);

    // 3. Query replay. The dashboard pool's first pass is the (traced)
    // warm-up; its misses are timed but not counted in the hit ratio.
    let mut skip = SERVED_QUERIES;
    if adhoc.is_none() {
        for sql in sequence(inputs, adhoc, 0, pool_len) {
            r.query(&session, &sql, false);
        }
    }
    let (mut direct_us, mut untraced_us, mut traced_us, mut covered_us) = (0.0, 0.0, 0.0, 0.0);
    for round in 0..REPLAY_ROUNDS * 3 {
        let block = sequence(inputs, adhoc, skip, BLOCK);
        skip += BLOCK;
        match round % 3 {
            0 => {
                for sql in block {
                    r.attempted += 1;
                    let t = Instant::now();
                    if session.sql(&sql).is_err() {
                        r.fail(format!("Session::sql {sql}"));
                    }
                    direct_us += t.elapsed().as_secs_f64() * 1e6;
                }
            }
            1 => {
                r.t.on = false;
                for sql in block {
                    untraced_us += r.query(&session, &sql, false).0;
                }
                r.t.on = true;
            }
            _ => {
                for sql in block {
                    let (us, covered) = r.query(&session, &sql, workload != "ingest");
                    traced_us += us;
                    covered_us += covered;
                }
            }
        }
    }
    // Re-prepare the last block: every lookup should hit, which times the
    // hit path even where the workload itself never hits.
    for sql in sequence(inputs, adhoc, skip - BLOCK, BLOCK) {
        r.query(&session, &sql, false);
    }
    m.put(
        "bench.trace_overhead_pct",
        "%",
        (traced_us - untraced_us) / untraced_us * 100.0,
    );
    // How much of the measured Session::sql time the layer spans account
    // for (equal-sized blocks of the same sequence).
    m.put("trace.query_coverage", "ratio", covered_us / direct_us);
    // The in-process side of server.overhead_us: Session::sql on the served
    // sequence. This session has not seen those texts, so ad-hoc lookups
    // miss here exactly as they did on the server.
    let mut direct = Vec::with_capacity(SERVED_QUERIES);
    for sql in sequence(inputs, adhoc, 0, SERVED_QUERIES) {
        let t = Instant::now();
        let _ = session.sql(&sql);
        direct.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let direct_p50 = median(&direct);
    m.put("server.overhead_us", "us", median(&served_us) - direct_p50);
    m.put("wire.encode_us", "us", r.t.p50("wire.encode", 1e-6));
    m.put("wire.decode_us", "us", r.t.p50("wire.decode", 1e-6));

    // 4. Continuation batches with the WAL on. On `ingest` all of them,
    // each followed by reader queries (whose plans every seal invalidates);
    // elsewhere until a seal and a refit have both happened.
    session
        .enable_wal(scratch.join("wal-replay"))
        .map_err(|e| e.to_string())?;
    let mut wal_on = Vec::new();
    let mut reader = inputs.order.iter().cycle().map(|&i| &inputs.dashboard[i]);
    let (mut seals, mut refits) = (0, 0);
    for b in 0..INGEST_BATCHES {
        if workload != "ingest" && b >= COMPARE_BATCHES && seals > 0 && refits > 0 {
            break;
        }
        let batch = inputs.stream.slice(BASE_ROWS + b * BATCH_ROWS, BATCH_ROWS);
        let (kind, ms) = r.ingest(&session, &batch);
        match kind {
            "ingest.seal" => seals += 1,
            "ingest.refit" => refits += 1,
            _ => {}
        }
        if b < COMPARE_BATCHES {
            wal_on.push((kind, ms));
        }
        if workload == "ingest" {
            for _ in 0..QUERIES_PER_BATCH {
                let sql = reader.next().expect("cycle");
                r.query(&session, sql, true);
            }
        }
    }
    let plain_p50 = |v: &[(&str, f64)]| {
        median(
            &v.iter()
                .filter(|(k, _)| *k == "ingest.plain")
                .map(|(_, ms)| *ms)
                .collect::<Vec<_>>(),
        )
    };
    let mut wal_off = Vec::new();
    {
        let fresh = build_table(inputs)?.session;
        let saved = r.t.on;
        r.t.on = false;
        for b in 0..COMPARE_BATCHES {
            let batch = inputs.stream.slice(BASE_ROWS + b * BATCH_ROWS, BATCH_ROWS);
            wal_off.push(r.ingest(&fresh, &batch));
        }
        r.t.on = saved;
    }
    m.put(
        "ingest.wal_ms",
        "ms",
        plain_p50(&wal_on) - plain_p50(&wal_off),
    );
    m.put(
        "server.ingest_overhead_ms",
        "ms",
        median(&served_ack) - median(&wal_on.iter().map(|(_, ms)| *ms).collect::<Vec<_>>()),
    );
    m.put("loadgen.lag_ms", "ms", percentile(&lag, 0.99));

    // Plan cache and estimation, from the counted queries.
    m.put(
        "plan_cache.hit_ratio",
        "ratio",
        r.hits as f64 / (r.hits + r.misses) as f64,
    );
    m.put("plan_cache.hits", "count", r.hits as f64);
    m.put("plan_cache.misses", "count", r.misses as f64);
    m.put("sql.parse_us", "us", r.t.p50("sql.parse", 1e-6));
    m.put(
        "plan.prepare_hit_us",
        "us",
        r.t.p50("plan.prepare_hit", 1e-6),
    );
    m.put(
        "plan.prepare_miss_us",
        "us",
        r.t.p50("plan.prepare_miss", 1e-6),
    );
    m.put(
        "estimate.segment_us",
        "us",
        r.t.p50("estimate.segment", 1e-6),
    );
    m.put(
        "estimate.segments_per_query",
        "count",
        r.engines.iter().sum::<f64>() / r.engines.len() as f64,
    );
    m.put("merge.us", "us", r.t.p50("merge", 1e-6));
    m.put("ingest.plain_ms", "ms", r.t.p50("ingest.plain", 1e-3));
    m.put("ingest.seal_ms", "ms", r.t.p50("ingest.seal", 1e-3));
    m.put("ingest.refit_ms", "ms", r.t.p50("ingest.refit", 1e-3));
    m.put("ingest.seals", "count", r.t.count("ingest.seal") as f64);
    m.put("ingest.refits", "count", r.t.count("ingest.refit") as f64);

    // 5. The seal steps, on seal-sized slices from the start of the stream:
    // rows the table's current transforms can encode (later slices may hold
    // sites only a refit could add).
    let pre = session
        .engine(TABLE)
        .expect("table registered")
        .engine()
        .preprocessor()
        .clone();
    let cfg = PairwiseHistConfig::default();
    let mut scratch_buf = ph_gd::EncodeScratch::new();
    for k in 0..SEAL_SLICES {
        let rows = inputs.stream.slice(k * SEAL_ROWS, SEAL_ROWS);
        let s = r.t.begin("seal.encode");
        let matrix = pre.encode_with(&rows, &mut scratch_buf);
        r.t.end(s, None);
        let s = r.t.begin("seal.gd_compress");
        let gd = ph_gd::GdCompressor::new().compress(&matrix);
        r.t.end(s, None);
        let s = r.t.begin("seal.synopsis");
        let engine = PairwiseHist::build_from_gd(&gd, Arc::clone(&pre), &cfg);
        r.t.end(s, None);
        let s = r.t.begin("seal.codec");
        let store = ph_gd::choose_store(&matrix, gd);
        r.t.end(s, None);
        std::hint::black_box((engine, store));
        scratch_buf.reclaim(matrix);
    }
    let steps = [
        "seal.encode",
        "seal.gd_compress",
        "seal.synopsis",
        "seal.codec",
    ];
    for name in steps {
        m.put(&format!("{name}_ms"), "ms", r.t.p50(name, 1e-3));
    }
    let step_sum: f64 = steps.iter().map(|n| r.t.p50(n, 1e-3)).sum();
    m.put(
        "trace.seal_coverage",
        "ratio",
        step_sum / r.t.p50("ingest.seal", 1e-3),
    );

    // Storage, at the state the end-to-end run ends in: the set-up table on
    // the read workloads, the grown table on `ingest`.
    if workload == "ingest" {
        let stats = session.table_stats(TABLE).map_err(|e| e.to_string())?;
        let foot = session.footprint_report(TABLE).map_err(|e| e.to_string())?;
        put_store(&mut m, &stats, &foot);
    } else {
        put_store(&mut m, &setup_store.0, &setup_store.1);
    }

    eprintln!(
        "replay: {} spans, {} queries counted ({} hits), {seals} seals and {refits} refits after set-up",
        r.t.spans.len(),
        r.hits + r.misses,
        r.hits
    );
    Ok(Outcome {
        metrics: m,
        attempted: r.attempted,
        failed: r.failed,
        violations: r.violations,
    })
}

fn put_store(m: &mut Metrics, stats: &ph_core::TableStats, foot: &ph_core::FootprintReport) {
    m.put("store.row_store_bytes", "B", foot.row_store_bytes as f64);
    m.put("store.synopsis_bytes", "B", foot.synopsis_bytes as f64);
    for codec in ["bitpack", "delta", "dict", "runend", "greedy-gd"] {
        let cols = stats
            .codec_mix
            .iter()
            .find(|(n, _)| n == codec)
            .map_or(0, |(_, c)| *c);
        m.put(
            &format!("store.codec_columns.{codec}"),
            "count",
            cols as f64,
        );
    }
}
