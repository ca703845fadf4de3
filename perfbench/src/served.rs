//! The end-to-end runs: an in-process `ph_server::Server` with
//! `ServerConfig` defaults over the set-up table, driven over loopback HTTP.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ph_core::AqpAnswer;
use ph_server::Client;

use crate::data::{BATCH_ROWS, TABLE};
use crate::inputs::{same_answer, setups_before, Inputs, SetupTimes, BASE_ROWS, CLIENTS};
use crate::queries::Adhoc;
use crate::stats::{median, percentile, Metrics};
use crate::{accuracy, queries};

/// Batches the `ingest` workload's writer sends per run.
pub const INGEST_BATCHES: usize = 1000;
/// Think time of the `ingest` workload's reader between answer and next query.
const READER_THINK: Duration = Duration::from_millis(1);
/// Share of the `ingest` run given to its final read phase; the writer's
/// schedule spreads the batches over the rest.
const FINAL_READ_SHARE: f64 = 0.2;

/// What an end-to-end run found.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations, each described for the log.
    pub violations: Vec<String>,
}

/// Measurement windows: query metrics are medians of per-window figures, so
/// a burst of noise on the shared machine spoils a few windows, not the run.
/// The read workloads and the `ingest` workload's final read phase use many
/// short windows. The reader beside the writer uses five, one per ~7 s, so
/// each holds about one of the writer's refits and the windows stay alike.
const READ_WINDOWS: usize = 15;
const FINAL_READ_WINDOWS: usize = 18;
const BESIDE_WRITER_WINDOWS: usize = 5;

/// Per-connection record of a closed loop.
#[derive(Default)]
struct LoopLog {
    /// `(seconds since the loop started, latency in µs)` of each 200 response.
    latency_us: Vec<(f64, f64)>,
    ok: u64,
    failed: u64,
}

/// One closed-loop connection: sends the queries `next` yields until `stop`
/// is set or `next` runs dry, timing each exchange. `next` returns a key
/// identifying the query, and its SQL text; each answer goes to `answered`
/// with its key once the clock has stopped.
fn closed_loop(
    addr: &str,
    stop: &AtomicBool,
    mut next: impl FnMut() -> Option<(usize, String)>,
    mut answered: impl FnMut(usize, AqpAnswer),
) -> LoopLog {
    let mut client = Client::new(addr.to_string());
    let mut log = LoopLog::default();
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let Some((key, sql)) = next() else { break };
        let t = Instant::now();
        let res = client.query(&sql);
        let us = t.elapsed().as_secs_f64() * 1e6;
        match res {
            Ok(answer) => {
                log.ok += 1;
                log.latency_us.push((start.elapsed().as_secs_f64(), us));
                answered(key, answer);
            }
            Err(e) => {
                log.failed += 1;
                eprintln!("query failed: {e}");
            }
        }
    }
    log
}

/// An endless walk of the dashboard pool in the run's seeded order, starting
/// `offset` entries in; keys are pool indices.
fn dashboard_walk(inputs: &Inputs, offset: usize) -> impl Iterator<Item = (usize, String)> + '_ {
    inputs
        .order
        .iter()
        .cycle()
        .skip(offset)
        .map(|&i| (i, inputs.dashboard[i].clone()))
}

/// Query latency percentiles (µs) and throughput (1/s) of closed loops.
/// The p99 is logged, not reported: it follows the hypervisor's CPU steal
/// (see the README).
struct QueryFigures {
    p50: f64,
    p90: f64,
    qps: f64,
}

/// The figures of the closed loops `what` names over `secs`, each the median
/// of its values in `n` equal windows.
fn query_figures(what: &str, logs: &[LoopLog], secs: f64, n: usize) -> QueryFigures {
    let width = secs / n as f64;
    let mut windows = vec![Vec::new(); n];
    for &(t, us) in logs.iter().flat_map(|l| &l.latency_us) {
        windows[((t / width) as usize).min(n - 1)].push(us);
    }
    let per = |f: &dyn Fn(&Vec<f64>) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let fewest = windows.iter().map(Vec::len).min().unwrap_or(0);
    let figures = QueryFigures {
        p50: per(&|w| median(w)),
        p90: per(&|w| percentile(w, 0.9)),
        qps: per(&|w| w.len() as f64 / width),
    };
    eprintln!(
        "{what}: {n} window(s) of {width:.1} s, at least {fewest} samples each; \
         p50 {:.0} us, p90 {:.0} us, p99 {:.0} us",
        figures.p50,
        figures.p90,
        per(&|w| percentile(w, 0.99)),
    );
    figures
}

/// `synopsis_bytes` and `resident_bytes_per_raw_byte` of the served table.
fn store_metrics(
    session: &ph_core::Session,
    raw_bytes: usize,
) -> [(&'static str, &'static str, f64); 2] {
    let f = session.footprint_report(TABLE).expect("table registered");
    [
        ("synopsis_bytes", "B", f.synopsis_bytes as f64),
        (
            "resident_bytes_per_raw_byte",
            "ratio",
            f.total as f64 / raw_bytes as f64,
        ),
    ]
}

/// Stops serving, drops the served table and runs the set-ups that follow
/// the measured loop.
fn finish_setups(
    served: crate::inputs::Served,
    setups: &mut SetupTimes,
    inputs: &Inputs,
) -> Result<(), String> {
    served.server.shutdown();
    drop(served.session);
    setups.after(inputs)
}

/// `dashboard` (no `adhoc` stream) and `adhoc`: two closed-loop connections
/// for `secs` against the set-up table.
pub fn read_workload(inputs: &Inputs, adhoc: Option<&Adhoc>, secs: f64) -> Result<Outcome, String> {
    let (served, mut setups) = setups_before(inputs)?;
    let mut violations = Vec::new();
    let pool = &inputs.dashboard;

    // Dashboard answers are known before the run: the table does not change,
    // so every served answer must equal the in-process one bit for bit. This
    // pass and one pass of each connection are the warm-up that fills the
    // plan cache.
    let mut expected = Vec::new();
    if adhoc.is_none() {
        for sql in pool {
            expected.push(served.session.sql(sql).map_err(|e| format!("{sql}: {e}"))?);
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let mut walk = dashboard_walk(inputs, c * pool.len() / CLIENTS).take(pool.len());
                let (addr, stop) = (&served.addr, &stop);
                s.spawn(move || closed_loop(addr, stop, || walk.next(), |_, _| {}));
            }
        });
    }

    // Every served answer must equal Session::sql on the same (unchanged)
    // table. Dashboard answers are compared as they arrive; ad-hoc answers
    // are kept and re-run in-process after the loop. The ad-hoc stream is
    // shared: each query goes to whichever connection asks next, so no text
    // is sent twice.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let dashboard_mismatches = AtomicUsize::new(0);
    let t0 = Instant::now();
    let (logs, kept): (Vec<LoopLog>, Vec<Vec<(usize, AqpAnswer)>>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, stop, next, expected) = (&served.addr, &stop, &next, &expected);
                let dashboard_mismatches = &dashboard_mismatches;
                let mut walk = dashboard_walk(inputs, c * pool.len() / CLIENTS);
                s.spawn(move || {
                    let mut kept = Vec::new();
                    let log = match adhoc {
                        Some(a) => {
                            let next_query = || {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                Some((k, a.text(k)))
                            };
                            closed_loop(addr, stop, next_query, |k, answer| kept.push((k, answer)))
                        }
                        None => closed_loop(
                            addr,
                            stop,
                            || walk.next(),
                            |i, answer| {
                                if !same_answer(&answer, &expected[i]) {
                                    dashboard_mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                            },
                        ),
                    };
                    (log, kept)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .unzip()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let checked = Instant::now();
    let answers: Vec<&(usize, AqpAnswer)> = kept.iter().flatten().collect();
    let mismatches = match adhoc {
        None => dashboard_mismatches.into_inner(),
        Some(a) => {
            let bad = AtomicUsize::new(0);
            let cursor = AtomicUsize::new(0);
            // Two threads: both cores.
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        while let Some((k, served_answer)) =
                            answers.get(cursor.fetch_add(1, Ordering::Relaxed))
                        {
                            match served.session.sql(&a.text(*k)) {
                                Ok(direct) if same_answer(served_answer, &direct) => {}
                                _ => {
                                    bad.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }
            });
            bad.into_inner()
        }
    };
    if mismatches > 0 {
        violations.push(format!(
            "{mismatches} served answers differ from Session::sql"
        ));
    }
    if adhoc.is_some() {
        eprintln!(
            "re-ran {} ad-hoc answers in-process in {:.1} s",
            answers.len(),
            checked.elapsed().as_secs_f64()
        );
    }

    // Accuracy: every dashboard template once; the ad-hoc stream's first
    // entries, which every run serves first.
    let acc = match adhoc {
        None => {
            let graded: Vec<(String, &AqpAnswer)> =
                pool.iter().cloned().zip(expected.iter()).collect();
            accuracy::grade(&graded, &inputs.base)
        }
        Some(a) => {
            let graded: Vec<(String, &AqpAnswer)> = answers
                .iter()
                .filter(|(k, _)| *k < queries::ADHOC_SAMPLE)
                .map(|(k, answer)| (a.text(*k), answer))
                .collect();
            accuracy::grade(&graded, &inputs.base)
        }
    };

    let store = store_metrics(&served.session, inputs.base.heap_size());
    finish_setups(served, &mut setups, inputs)?;

    let mut m = Metrics::default();
    m.put("setup_s", "s", setups.setup_s());
    let q = query_figures("queries", &logs, elapsed, READ_WINDOWS);
    m.put("query_p50_us", "us", q.p50);
    m.put("query_p90_us", "us", q.p90);
    m.put("query_qps", "1/s", q.qps);
    // Read workloads send no writes; their ingest figures are the set-ups'
    // pre-load `Session::ingest` calls.
    m.put("ingest_p50_ms", "ms", setups.ingest_p50_ms());
    m.put("ingest_p99_ms", "ms", setups.ingest_p99_ms());
    acc.put(&mut m);
    for (name, unit, value) in store {
        m.put(name, unit, value);
    }
    let attempted = logs.iter().map(|l| l.ok + l.failed).sum();
    let failed = logs.iter().map(|l| l.failed).sum();
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        violations,
    })
}

/// `ingest`: an open-loop writer POSTs [`INGEST_BATCHES`] continuation
/// batches at a fixed rate with the WAL on, beside one closed-loop reader
/// cycling the dashboard pool; then, for the last [`FINAL_READ_SHARE`] of
/// `secs`, one closed-loop connection cycles the pool on the final table.
pub fn ingest_workload(
    inputs: &Inputs,
    secs: f64,
    wal_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let (served, mut setups) = setups_before(inputs)?;
    served
        .session
        .enable_wal(wal_dir)
        .map_err(|e| format!("enable_wal: {e}"))?;
    let pool = &inputs.dashboard;
    for sql in pool {
        served.session.sql(sql).map_err(|e| format!("{sql}: {e}"))?;
    }
    // Bodies are rendered before the clock starts, so the writer only sends
    // and no third client thread competes for the cores.
    let bodies: Vec<String> = (0..INGEST_BATCHES)
        .map(|b| inputs.stream.csv(BASE_ROWS + b * BATCH_ROWS, BATCH_ROWS))
        .collect();
    let writer_secs = secs * (1.0 - FINAL_READ_SHARE);
    let interval = writer_secs / INGEST_BATCHES as f64;
    let writer_done = AtomicBool::new(false);
    let acked = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let (reader, writer) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut client = Client::new(served.addr.clone());
            let (mut ack_ms, mut lag_ms) = (Vec::new(), Vec::new());
            let start = Instant::now();
            // A writer this far behind schedule gives up; unsent batches
            // count as failed.
            let give_up = start + Duration::from_secs_f64(writer_secs * 3.0);
            for (b, body) in bodies.iter().enumerate() {
                if Instant::now() > give_up {
                    break;
                }
                let due = start + Duration::from_secs_f64(b as f64 * interval);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                match client.ingest_csv(TABLE, body) {
                    Ok(_) => {
                        ack_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                        acked.lock().expect("ack list").push(b);
                    }
                    Err(e) => eprintln!("ingest batch {b} failed: {e}"),
                }
            }
            writer_done.store(true, Ordering::Relaxed);
            (ack_ms, lag_ms)
        });
        let reader = s.spawn(|| {
            // A dashboard panel: it waits for its answer, then refreshes
            // after a short think time, so the reader observes the writer's
            // stalls without starving it of the second core.
            let mut walk = dashboard_walk(inputs, 0);
            let next = || {
                std::thread::sleep(READER_THINK);
                walk.next()
            };
            closed_loop(&served.addr, &writer_done, next, |_, _| {})
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let (ack_ms, lag_ms) = writer;
    let mut violations = Vec::new();
    eprintln!(
        "ingest: {} batches acked in {elapsed:.1}s, writer lag p50 {:.2} ms max {:.1} ms",
        ack_ms.len(),
        median(&lag_ms),
        percentile(&lag_ms, 1.0)
    );

    // No row may be dropped: sealed + delta rows = base + every acked batch.
    let acked = acked.into_inner().expect("ack list");
    let stats = served
        .session
        .table_stats(TABLE)
        .map_err(|e| e.to_string())?;
    let want = (BASE_ROWS + acked.len() * BATCH_ROWS) as u64;
    if stats.sealed_rows + stats.delta_rows != want {
        violations.push(format!(
            "table holds {} + {} rows, expected {want}",
            stats.sealed_rows, stats.delta_rows
        ));
    }

    // Accuracy of the dashboard pool served from the final table.
    let mut client = Client::new(served.addr.clone());
    let mut finals = Vec::with_capacity(pool.len());
    for (i, sql) in pool.iter().enumerate() {
        match client.query(sql) {
            Ok(a) => finals.push((i, a)),
            Err(e) => violations.push(format!("final query {sql}: {e}")),
        }
    }
    let rows = if acked.iter().enumerate().all(|(k, &b)| k == b) {
        inputs.stream.slice(0, want as usize)
    } else {
        violations.push("acked batches are not a prefix of the stream".into());
        inputs.stream.slice(0, BASE_ROWS)
    };
    let graded: Vec<(String, &AqpAnswer)> =
        finals.iter().map(|(i, a)| (pool[*i].clone(), a)).collect();
    let acc = accuracy::grade(&graded, &rows);

    // The final read phase, which gives `query_p90_us`. Beside the writer,
    // the reader's tail is set by how the host schedules two cores that the
    // writer's parallel seals and refits fill (its p99 ranged 1.3–7.7 ms over
    // runs of the same code); the final table served alone gives a tail that
    // repeats and still reflects what ingest left the read path. The pass
    // above has warmed its plans. The table no longer changes, so every
    // answer must equal `Session::sql`.
    let expected = pool
        .iter()
        .map(|sql| served.session.sql(sql).map_err(|e| format!("{sql}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let final_secs = secs * FINAL_READ_SHARE;
    let deadline = Instant::now() + Duration::from_secs_f64(final_secs);
    let mut walk = dashboard_walk(inputs, 0);
    let mut mismatches = 0;
    let final_log = closed_loop(
        &served.addr,
        &AtomicBool::new(false),
        || (Instant::now() < deadline).then(|| walk.next()).flatten(),
        |i, answer| {
            if !same_answer(&answer, &expected[i]) {
                mismatches += 1;
            }
        },
    );
    if mismatches > 0 {
        violations.push(format!(
            "{mismatches} served answers on the final table differ from Session::sql"
        ));
    }

    let store = store_metrics(&served.session, rows.heap_size());
    finish_setups(served, &mut setups, inputs)?;

    let mut m = Metrics::default();
    m.put("setup_s", "s", setups.setup_s());
    let beside = query_figures(
        "reader beside the writer",
        std::slice::from_ref(&reader),
        elapsed,
        BESIDE_WRITER_WINDOWS,
    );
    let alone = query_figures(
        "final read phase",
        std::slice::from_ref(&final_log),
        final_secs,
        FINAL_READ_WINDOWS,
    );
    m.put("query_p50_us", "us", beside.p50);
    m.put("query_p90_us", "us", alone.p90);
    m.put("query_qps", "1/s", beside.qps);
    m.put("ingest_p50_ms", "ms", median(&ack_ms));
    m.put("ingest_p99_ms", "ms", percentile(&ack_ms, 0.99));
    acc.put(&mut m);
    for (name, unit, value) in store {
        m.put(name, unit, value);
    }
    let attempted =
        reader.ok + reader.failed + final_log.ok + final_log.failed + INGEST_BATCHES as u64;
    // Failed and never-sent batches alike.
    let failed = reader.failed + final_log.failed + (INGEST_BATCHES - acked.len()) as u64;
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        violations,
    })
}
