//! The benchmark's row stream: the Power generator plus a categorical `day`
//! column (built as in `ph_bench::power_with_day`) and a categorical `site`
//! column whose value set grows over the stream.
//!
//! The stream is the same for every run seed. Table size, segment layout,
//! synopsis and accuracy all follow from the rows, and a seed-dependent table
//! moved them by 15–35% between seeds — more than any bound could absorb.
//! The run seed draws the traffic instead (see `inputs`).
//!
//! The stream is cut into 250-row blocks; a block is one `ingest` batch.
//! From the first pre-load batch on, two blocks in every 400 introduce a site
//! no earlier row carried (0.5% of batches), which a table can only absorb
//! through its refit path. The gaps alternate 250 and 150 blocks: the default
//! seal threshold is 200 blocks of delta, so a regular 200-block gap would
//! turn every seal into a refit, while these gaps let a seal land in every
//! second one.

use ph_types::{Column, ColumnType, Dataset};

/// Rows per ingest batch and per stream block.
pub const BATCH_ROWS: usize = 250;
/// First block that introduces a site: the first pre-load batch.
const FIRST_NEW_SITE: usize = crate::inputs::REGISTER_ROWS / BATCH_ROWS;
/// Sites present from the first row on.
const INITIAL_SITES: u32 = 8;
/// Generator seed of the stream (the one `ph_bench::power_with_day` uses).
const STREAM_SEED: u64 = 2;

/// Name of the benchmark's table.
pub const TABLE: &str = "Power";

/// splitmix64: the benchmark's own generator for site draws and traffic
/// order (the program under test never sees it).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Whether stream block `block` introduces a new site.
fn introduces_site(block: usize) -> bool {
    block >= FIRST_NEW_SITE && matches!((block - FIRST_NEW_SITE) % 400, 0 | 250)
}

/// The generated rows: Power + `day` (all rows), and each row's site id.
pub struct Stream {
    rows: Dataset,
    site: Vec<u32>,
}

impl Stream {
    /// The first `n_rows` rows of the stream.
    pub fn generate(n_rows: usize) -> Stream {
        let power = ph_datagen::generate("Power", n_rows, STREAM_SEED).expect("Power generator");
        let weekday = power.column_by_name("weekday").expect("weekday column");
        let names: Vec<Option<String>> = (0..power.n_rows())
            .map(|i| weekday.numeric(i).map(|d| format!("d{}", d as i64)))
            .collect();
        let day: Vec<Option<&str>> = names.iter().map(|n| n.as_deref()).collect();
        let mut b = Dataset::builder(TABLE);
        for col in power.columns() {
            b = b.column(col.clone()).expect("copy column");
        }
        let rows = b
            .column(Column::from_strings("day", day))
            .expect("day column")
            .build();

        let mut rng = Rng::new(STREAM_SEED);
        let mut sites = INITIAL_SITES;
        let mut site = Vec::with_capacity(n_rows);
        for i in 0..n_rows {
            if i % BATCH_ROWS == 0 && introduces_site(i / BATCH_ROWS) {
                sites += 1;
                site.push(sites - 1);
            } else {
                site.push(rng.below(sites as u64) as u32);
            }
        }
        Stream { rows, site }
    }

    pub fn n_rows(&self) -> usize {
        self.rows.n_rows()
    }

    /// Rows `[start, start + len)` as a dataset whose `site` dictionary holds
    /// only the sites those rows carry — exactly the batch a CSV body of the
    /// same rows assembles into on the server.
    pub fn slice(&self, start: usize, len: usize) -> Dataset {
        let base = self.rows.slice(start, len);
        let names: Vec<String> = self.site[start..start + base.n_rows()]
            .iter()
            .map(|s| format!("site{s:02}"))
            .collect();
        let site: Vec<Option<&str>> = names.iter().map(|s| Some(s.as_str())).collect();
        let mut b = Dataset::builder(TABLE);
        for col in base.columns() {
            let col = match col.ty() {
                // Re-derive categorical dictionaries from the rows, as the
                // server's CSV reader does.
                ColumnType::Categorical => {
                    let vals: Vec<Option<String>> = (0..col.len())
                        .map(|i| match col.value(i) {
                            ph_types::Value::Str(s) => Some(s),
                            _ => None,
                        })
                        .collect();
                    let refs: Vec<Option<&str>> = vals.iter().map(|v| v.as_deref()).collect();
                    Column::from_strings(col.name(), refs)
                }
                _ => col.clone(),
            };
            b = b.column(col).expect("copy column");
        }
        b.column(Column::from_strings("site", site))
            .expect("site column")
            .build()
    }

    /// Rows `[start, start + len)` as a CSV body with a header line. Floats
    /// print in Rust's shortest round-trip form, so the server parses back
    /// the identical values.
    pub fn csv(&self, start: usize, len: usize) -> String {
        let cols = self.rows.columns();
        let mut out = String::with_capacity(len * 120);
        for c in cols {
            out.push_str(c.name());
            out.push(',');
        }
        out.push_str("site\n");
        for r in start..(start + len).min(self.n_rows()) {
            for c in cols {
                match c.value(r) {
                    ph_types::Value::Null => {}
                    ph_types::Value::Int(v) => out.push_str(&v.to_string()),
                    ph_types::Value::Float(v) => out.push_str(&v.to_string()),
                    ph_types::Value::Str(s) => out.push_str(&s),
                }
                out.push(',');
            }
            out.push_str(&format!("site{:02}\n", self.site[r]));
        }
        out
    }
}
