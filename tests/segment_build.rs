//! The one segment build every `Session` path uses (registration, seal, refit
//! rebuild, compaction, the saved delta) — pinned against the builds it
//! replaced:
//!
//! * the synopsis built from the encoded rows is byte-identical to the
//!   raw-dataset build `PairwiseHist::build_with_preprocessor` over the same
//!   rows, sampled or not, and a registered table's segment is exactly that;
//! * a sealed segment's synopsis is byte-identical to the GreedyGD-seeded
//!   `PairwiseHist::build_from_gd` over a compressed store of its rows, though
//!   no store is built; on Power slices that is also the min/max build;
//! * after register → seal → refit → compact → save → reopen, no segment holds
//!   a GreedyGD store.

use std::sync::Arc;

use pairwisehist::gd::GdCompressor;
use pairwisehist::prelude::*;

fn power(rows: usize) -> Dataset {
    pairwisehist::datagen::generate("Power", rows, 2).expect("Power generator")
}

fn serial(ns: usize) -> PairwiseHistConfig {
    PairwiseHistConfig { ns, parallel: false, ..Default::default() }
}

#[test]
fn encoded_build_matches_the_raw_dataset_build() {
    let data = power(12_000);
    let pre = Arc::new(Preprocessor::fit(&data));
    let matrix = pre.encode(&data);
    // A sampled build (Ns < N) and a full one (Ns ≥ N).
    for ns in [5_000, 12_000, 50_000] {
        let cfg = serial(ns);
        let raw = PairwiseHist::build_with_preprocessor(&data, pre.clone(), &cfg);
        let encoded = PairwiseHist::build_from_encoded(&matrix, None, pre.clone(), &cfg);
        assert_eq!(raw.to_bytes(), encoded.to_bytes(), "ns = {ns}");
    }

    // The registered table's segment is that same synopsis.
    let session = Session::with_config(serial(5_000));
    session.register(data.clone()).unwrap();
    let registered = session.engine("Power").unwrap();
    let raw = PairwiseHist::build_with_preprocessor(&data, pre, &serial(5_000));
    assert_eq!(registered.engine().to_bytes(), raw.to_bytes());
}

#[test]
fn sealed_power_slices_match_the_gd_seeded_build() {
    let rows = 8_000;
    let data = power(4 * rows);
    let session = Session::with_config(serial(100_000));
    session.set_max_staleness(f64::INFINITY);
    session.set_seal_threshold(rows);
    // Fit over the first slice plus each numeric column's minimum row, so no
    // later slice dips below the fitted minimum (which refits instead).
    let mut first = data.slice(0, rows);
    let argmin_rows: Vec<usize> = (0..data.n_columns())
        .filter_map(|c| {
            let col = data.column(c);
            (0..data.n_rows())
                .filter(|&i| col.numeric(i).is_some())
                .min_by(|&a, &b| col.numeric(a).unwrap().total_cmp(&col.numeric(b).unwrap()))
        })
        .collect();
    first.append(&data.take(&argmin_rows)).unwrap();
    session.register(first).unwrap();
    let pre = session.engine("Power").unwrap().engine().preprocessor().clone();
    let cfg = serial(100_000);
    for k in 1..4 {
        let slice = data.slice(k * rows, rows);
        let report = session.ingest("Power", &slice).unwrap();
        assert_eq!(report.sealed_segments, 1, "slice {k} seals on its own");
        let matrix = pre.encode(&slice);
        let gd = GdCompressor::new().compress(&matrix);
        let parent = PairwiseHist::build_from_gd(&gd, pre.clone(), &cfg).to_bytes();
        let snapshot = session.engine("Power").unwrap();
        assert_eq!(snapshot.segments()[k].to_bytes(), parent, "slice {k}");
        // GreedyGD keeps every Power bit in the deviation: min/max seeding.
        let min_max = PairwiseHist::build_from_encoded(&matrix, None, pre.clone(), &cfg).to_bytes();
        assert_eq!(min_max, parent, "slice {k}");
    }
}

/// Where GreedyGD keeps base bits — small segments of smooth columns — its
/// seeds change the synopsis, so seals keep them: the seeded build matches the
/// store-based one and is not the min/max build.
#[test]
fn base_seeded_build_matches_the_gd_store_build_where_seeds_matter() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(142);
    let x: Vec<Option<i64>> = (0..2_000).map(|_| Some(rng.gen_range(0..1000))).collect();
    let y: Vec<Option<i64>> =
        x.iter().map(|v| Some(v.unwrap() * 2 + rng.gen_range(0..90))).collect();
    let data = Dataset::builder("t")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .build();
    let pre = Arc::new(Preprocessor::fit(&data));
    let matrix = pre.encode(&data);
    let cfg = serial(100_000);
    let gd = GdCompressor::new();
    let base_values = gd.base_values(&matrix);
    assert!(base_values.iter().any(|v| v.len() > 1), "GreedyGD keeps base bits here");
    let from_store = PairwiseHist::build_from_gd(&gd.compress(&matrix), pre.clone(), &cfg);
    let seeded = PairwiseHist::build_from_encoded(&matrix, Some(base_values), pre.clone(), &cfg);
    assert_eq!(seeded.to_bytes(), from_store.to_bytes());
    let min_max = PairwiseHist::build_from_encoded(&matrix, None, pre, &cfg);
    assert_ne!(min_max.to_bytes(), from_store.to_bytes());
}

/// A table with a categorical column, so a batch with a new value refits.
fn table(n: usize, offset: usize, sites: &[&str]) -> Dataset {
    let x: Vec<Option<i64>> = (0..n).map(|i| Some(((offset + i) * 37 % 1000) as i64)).collect();
    let y: Vec<Option<i64>> = (0..n).map(|i| Some(((offset + i) * 11 % 700) as i64)).collect();
    let site: Vec<Option<&str>> = (0..n).map(|i| Some(sites[(offset + i) % sites.len()])).collect();
    Dataset::builder("t")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .column(Column::from_strings("site", site))
        .unwrap()
        .build()
}

#[test]
fn no_lifecycle_path_seals_a_greedy_gd_store() {
    let no_gd = |s: &Session, step: &str| {
        let stats = s.table_stats("t").unwrap();
        assert!(stats.codec_mix.iter().all(|(name, _)| name != "greedy-gd"), "{step}: {stats:?}");
        assert!(!stats.codec_mix.is_empty(), "{step}: every segment keeps its rows");
    };
    let session = Session::with_config(serial(2_000));
    session.set_max_staleness(f64::INFINITY);
    session.set_seal_threshold(1_000);
    session.register(table(3_000, 0, &["a", "b"])).unwrap();
    no_gd(&session, "register");
    for k in 0..3 {
        let report = session.ingest("t", &table(1_000, 3_000 + 1_000 * k, &["a", "b"])).unwrap();
        assert_eq!(report.sealed_segments, 1);
    }
    no_gd(&session, "seal");
    assert!(session.ingest("t", &table(10, 0, &["new"])).unwrap().rebuilt);
    assert_eq!(session.stats().refits.novel_category, 1);
    no_gd(&session, "refit");
    for k in 0..2 {
        let report = session.ingest("t", &table(1_000, 7_000 + 1_000 * k, &["a", "new"])).unwrap();
        assert_eq!(report.sealed_segments, 1);
    }
    session.set_seal_threshold(5_000); // the two 1000-row segments are now small
    let report = session.compact("t").unwrap();
    assert_eq!(report.rows_compacted, 2_000, "{report:?}");
    no_gd(&session, "compact");
    // Un-sealed delta rows: `save_dir` seals them into the saved delta blob.
    assert_eq!(session.ingest("t", &table(200, 9_000, &["b"])).unwrap().sealed_segments, 0);

    let dir = std::env::temp_dir().join(format!("ph_segment_build_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    session.save_dir(&dir).unwrap();
    let reopened = Session::open_dir(&dir).unwrap();
    assert_eq!(reopened.table_stats("t").unwrap().segments, 3, "base, merged, saved delta");
    no_gd(&reopened, "reopen");
    let sql = "SELECT COUNT(x) FROM t WHERE y > 100 GROUP BY site";
    assert_eq!(session.sql(sql).unwrap(), reopened.sql(sql).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}
